"""Two- and multi-photon absorption rates from field statistics.

The central model: for a weak stationary field of intensity I and a
two-photon transition at omega_f with final-state FWHM delta_omega_f
(both rad/s), the absorption rate is

    R = g2(0) * |D|^2 * L(2 omega) * I^2
    L(x) = 2 * (delta_omega_f / 2) / ((delta_omega_f / 2)^2 + (x - omega_f)^2)

so R is linear in g2(0) and quadratic in intensity. When the field
bandwidth is small against delta_omega_f the same rate follows directly
from the intensity trace as R = C * <I^2> with C = |D|^2 * L(2 omega);
higher orders generalize to R_n = const * <I^n>. Rates are in arbitrary
units fixed by the dipole constant. The check of that regime reads the
field bandwidth from the trace's cached coherence time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionDomainError,
    EstimationError,
    InvalidArgumentError,
    ModelDomainError,
)
from .sources import FieldTrace, coherence_time, nominal_coherence_time

__all__ = [
    "AbsorberSpec",
    "RatioEstimate",
    "lineshape",
    "mollow_rate",
    "tpa_rate_timedomain",
    "mpa_rate_timedomain",
    "rate_ratio",
]

# Minimum delta_omega_f / field-bandwidth ratio for the <I^2> reduction:
# ~1.4 % low for a Gaussian line. A Lorentzian line of FWHM dnu reads ~2 dnu,
# so it needs delta_omega_f >= ~20 * 2 pi dnu, there ~9 % low.
BROADBAND_MIN_RATIO = 10.0


@dataclass(frozen=True)
class AbsorberSpec:
    """Two-photon transition parameters of one absorber.

    omega_f and delta_omega_f are angular frequencies (rad/s); dipole_sq is
    |D|^2, an arbitrary-units calibration constant; quantum_yield is the
    fluorescence photons emitted per absorption event. label is free-form
    metadata (e.g. solvent and concentration).
    """

    omega_f: float
    delta_omega_f: float
    dipole_sq: float
    quantum_yield: float
    label: str = ""

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so these refuse NaN and inf.
        if not 0 < self.omega_f < np.inf:
            raise InvalidArgumentError("omega_f must be positive and finite")
        if not 0 < self.delta_omega_f < np.inf:
            raise InvalidArgumentError("delta_omega_f must be positive and finite")
        if not 0 < self.dipole_sq < np.inf:
            raise InvalidArgumentError("dipole_sq must be positive and finite")
        if not 0 < self.quantum_yield <= 1:
            raise InvalidArgumentError("quantum_yield must be in (0, 1]")


@dataclass
class RatioEstimate:
    """A dimensionless ratio with a first-order propagated standard error."""

    value: float
    stderr: float


def lineshape(omega_two: float, absorber: AbsorberSpec) -> float:
    """Final-state Lorentzian factor evaluated at the two-photon frequency.

    Normalized so the integral over omega_two is exactly 2 pi. On
    resonance (omega_two = omega_f) it equals 4 / delta_omega_f.
    """
    half = absorber.delta_omega_f / 2.0
    return 2.0 * half / (half**2 + (omega_two - absorber.omega_f) ** 2)


def mollow_rate(
    absorber: AbsorberSpec, g2_zero: float, intensity: float, omega: float
) -> float:
    """Two-photon absorption rate for a field of given g2(0) and intensity.

    omega is the optical carrier (rad/s); the lineshape is evaluated at
    2 omega. Exactly linear in g2_zero and dipole_sq, quadratic in
    intensity.
    """
    if intensity < 0:
        raise InvalidArgumentError("intensity must be >= 0")
    # Tolerance absorbs float noise in estimator-fed values.
    if g2_zero < 1.0 - 1e-9:
        raise InvalidArgumentError(
            "g2_zero < 1 is outside the classical model domain"
        )
    return g2_zero * absorber.dipole_sq * lineshape(2.0 * omega, absorber) * intensity**2


def _check_broadband(trace: FieldTrace, absorber: AbsorberSpec, force: bool) -> None:
    if force:
        return
    try:
        tau_c = coherence_time(trace)
    except EstimationError:  # no decay within half the trace: a narrow line
        return
    # tau_c * FWHM = sqrt(2 ln2 / pi) for a Gaussian line, so this is its FWHM.
    field_width = 2.0 * np.pi * nominal_coherence_time("gaussian", tau_c)
    ratio = absorber.delta_omega_f / field_width
    if ratio < BROADBAND_MIN_RATIO:
        raise ModelDomainError(
            f"final-state width / field bandwidth = {ratio:.2f} < "
            f"{BROADBAND_MIN_RATIO}; the <I^2> reduction of the rate is "
            "invalid here (pass force=True to override)"
        )


def tpa_rate_timedomain(
    trace: FieldTrace, absorber: AbsorberSpec, force: bool = False
) -> float:
    """Two-photon absorption rate directly from an intensity trace.

    Valid in the broadband-final-state regime: the absorber linewidth must
    exceed the field bandwidth by at least BROADBAND_MIN_RATIO, otherwise
    ModelDomainError is raised (force=True skips the check). The bandwidth
    is sqrt(2 ln2 / pi) / coherence_time(trace), a Gaussian line's FWHM;
    a field that does not decay within half the trace passes as narrow.
    The returned rate is
    C * <I^2> with C = dipole_sq * lineshape(2 * carrier), which equals
    mollow_rate evaluated with this trace's own g2(0) and mean power.
    """
    _check_broadband(trace, absorber, force)
    scale = absorber.dipole_sq * lineshape(2.0 * trace.carrier_freq, absorber)
    return float(scale * trace.moment(2))


def mpa_rate_timedomain(trace: FieldTrace, n: int, scale_const: float) -> float:
    """n-photon absorption rate scale_const * <I^n>, 2 <= n <= 6."""
    if not 2 <= n <= 6:
        raise InvalidArgumentError("order must satisfy 2 <= n <= 6")
    if scale_const <= 0:
        raise InvalidArgumentError("scale_const must be positive")
    return float(scale_const * trace.moment(n))


def rate_ratio(
    rate_a: float, rate_b: float, stderr_a: float = 0.0, stderr_b: float = 0.0
) -> RatioEstimate:
    """rate_a / rate_b with first-order error propagation.

    Raises DivisionDomainError for rate_b <= 0 and for a ratio or error
    that is not a finite float64.
    """
    if rate_b <= 0:
        raise DivisionDomainError("denominator rate must be positive")
    if stderr_a < 0 or stderr_b < 0:
        raise InvalidArgumentError("standard errors must be >= 0")
    rate_a, rate_b, stderr_a, stderr_b = map(float, (rate_a, rate_b, stderr_a, stderr_b))
    value = rate_a / rate_b
    try:
        variance = (stderr_a / rate_b) ** 2 + (rate_a * stderr_b / rate_b**2) ** 2
    except (OverflowError, ZeroDivisionError):  # rate_b**2 underflows to 0
        variance = math.inf
    if not (math.isfinite(value) and variance < math.inf):
        raise DivisionDomainError(
            f"rate ratio {rate_a:g} / {rate_b:g} or its error overflows float64"
        )
    return RatioEstimate(value, float(np.sqrt(variance)))
