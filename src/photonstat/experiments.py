"""Power-sweep experiments, quadratic regression, enhancement ratios.

The core experiment: sweep excitation power for a quadratic-responding
fluorophore under two light sources of different photon statistics, fit
f(x) = a x^2 to the detected counts for each source, and form the ratio
of the fitted coefficients. For ideal inputs the ratio equals the ratio
of the sources' g2(0), so thermal over coherent gives 2.

Count scales are calibrated per fluorophore so a coherent source at the
reference power produces a configured target count, mirroring a detector
operated well above background. Systematic scale errors (one per panel,
one per source arm) and Poisson shot noise are both seed-derived and both
switch off with noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateInputError,
    EstimationError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .instruments import DetectionChain, _poisson_counts, fluorescence_counts
from .seeding import derive_seed, rng_for, thread_map
from .sources import _SMALLEST_NORMAL, SourceSpec, make_trace, nominal_g2, trace_grid
from .tpa import AbsorberSpec, RatioEstimate, rate_ratio

__all__ = [
    "SweepResult",
    "ExponentCheck",
    "FitResult",
    "Fig2Panel",
    "Fig2Report",
    "calibrate_dipole",
    "power_sweep",
    "fit_quadratic",
    "enhancement_ratio",
    "fig2_report",
    "reproduce_fig2",
]


@dataclass(eq=False)
class SweepResult:
    """Counts recorded over one power sweep of one (source, absorber) pair.

    power (P_exc in W), count and repeat (the repeat index) hold one entry
    per record, ordered by power then repeat. count holds ints with noise
    on and exact float expectations with noise off. g2_value records the
    source statistic the sweep actually used.
    """

    source_label: str
    fluorophore_label: str
    power: np.ndarray
    count: np.ndarray
    repeat: np.ndarray
    g2_value: float = float("nan")


@dataclass
class ExponentCheck:
    """Free-exponent fit a*x^b used to verify the quadratic power law."""

    b: float
    b_stderr: float


@dataclass
class FitResult:
    """Poisson maximum-likelihood fit f(x) = a x^2 through the origin."""

    a: float
    a_stderr: float
    exponent_check: ExponentCheck | None
    residual_stats: dict = field(default_factory=dict)


@dataclass
class Fig2Panel:
    """One Fig. 2 panel. ratio and within_band are None when it has not
    exactly two sweeps, e.g. when `report` finds one sweep CSV missing."""

    fluorophore: str
    sweeps: dict
    fits: dict
    ratio: RatioEstimate | None
    within_band: bool | None


@dataclass
class Fig2Report:
    panels: list
    ratio_band: tuple
    error_budget: dict

    @property
    def all_within_band(self) -> bool:
        rated = [p.within_band for p in self.panels if p.ratio is not None]
        return bool(rated) and all(rated)

    def ratios(self) -> list:
        return [None if p.ratio is None else p.ratio.value for p in self.panels]


def calibrate_dipole(
    absorber: AbsorberSpec,
    chain: DetectionChain,
    target_counts: float,
    at_power_measured: float,
) -> AbsorberSpec:
    """Fix the absorber's dipole constant from a count-scale anchor.

    Solves dipole_sq so a coherent source (g2 = 1, on resonance) at the
    given measured power produces target_counts expected detected counts
    (dark counts excluded). Absolute cross sections are out of scope; only
    this declared anchor sets the arbitrary-units scale.
    """
    if target_counts <= 0 or at_power_measured <= 0:
        raise InvalidArgumentError("calibration target and power must be positive")
    unit_dipole = replace(absorber, dipole_sq=1.0)
    per_dipole = fluorescence_counts(
        at_power_measured, 1.0, unit_dipole, replace(chain, dark_rate=0.0)
    )
    if not per_dipole > 0:
        raise InvalidArgumentError(
            "calibration: the chain detects no counts at the calibration power"
        )
    return replace(absorber, dipole_sq=target_counts / per_dipole)


def power_sweep(
    source: SourceSpec,
    absorber: AbsorberSpec,
    chain: DetectionChain,
    powers,
    repeats: int,
    seed: int,
    noise: bool = True,
    statistics_mode: str = "nominal",
    trace_duration: float | None = None,
    trace_dt: float | None = None,
) -> SweepResult:
    """Record detected counts over a sweep of measured excitation powers.

    statistics_mode "nominal" uses the closed-form g2(0) of the source
    class; "trace" synthesizes one field realization (seed-derived) and
    uses its measured moments, so sweep results inherit estimator noise
    exactly as a finite measurement would. With noise on, all counts are
    one Poisson draw over (powers x repeats) from the stream rng_for(seed, 1)
    (index 0 seeds the trace), so results never depend on execution order.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.size == 0 or not np.all(np.isfinite(powers) & (powers > 0)):
        raise InvalidArgumentError("powers must be non-empty, finite and positive")
    if np.any(np.diff(powers) <= 0):
        raise InvalidArgumentError("powers must be strictly increasing")
    if repeats < 1:
        raise InvalidArgumentError("repeats must be >= 1")
    if statistics_mode == "nominal":
        g2_value = nominal_g2(source)
    elif statistics_mode == "trace":
        _, duration, dt = trace_grid(source, 5000.0, 8.0)
        duration = trace_duration if trace_duration is not None else duration
        dt = trace_dt if trace_dt is not None else dt
        trace = make_trace(source, duration, dt, derive_seed(seed, 0))
        g2_value = trace.moment(2, normalized=True)
    else:
        raise InvalidArgumentError(
            f"statistics_mode must be 'nominal' or 'trace', got {statistics_mode!r}"
        )
    expected = [fluorescence_counts(p, g2_value, absorber, chain) for p in powers]
    counts = np.repeat(np.array(expected)[:, None], repeats, axis=1)
    if noise:
        counts = _poisson_counts(rng_for(seed, 1), counts)
    return SweepResult(
        source_label=source.label or source.statistics,
        fluorophore_label=absorber.label,
        power=np.repeat(chain.power_correction_eta * powers, repeats),
        count=counts.ravel(),
        repeat=np.tile(np.arange(repeats), powers.size),
        g2_value=g2_value,
    )


# fit_quadratic refuses counts from here up: far beyond any detector's, and
# below it no sum over a sweep's counts comes near float64's range.
_MAX_FIT_COUNT = np.sqrt(np.finfo(float).max) * 1e-6


def fit_quadratic(sweep: SweepResult) -> FitResult:
    """Poisson maximum-likelihood fit of f(x) = a x^2 to a sweep.

    a = sum(counts) / sum(x^2), with the Fisher error sqrt(a / sum(x^2)).
    residual_stats holds the Poisson deviance 2 sum[y ln(y/f) - (y - f)]
    as chi2, so chi2_reduced is the reduced deviance. The free exponent b
    of A x^b is fitted alongside whenever at least 5 distinct powers span
    half a decade, as a power-law sanity check. Counts must be finite, >= 0
    and below _MAX_FIT_COUNT; powers whose sum of squares is not a normal
    float64, or whose fitted counts or deviance are not, are refused.
    """
    x = sweep.power
    y = sweep.count
    if not np.all((y >= 0) & (y < _MAX_FIT_COUNT)):
        raise EstimationError(
            f"counts {np.min(y):g} to {np.max(y):g} are out of range for the fit: "
            f"they must be finite, >= 0 and below {_MAX_FIT_COUNT:.3g}"
        )
    distinct, group = np.unique(x, return_inverse=True)
    if distinct.size < 3:
        raise InsufficientDataError("need at least 3 distinct powers to fit")
    if np.all(y == y[0]):
        raise DegenerateInputError(
            f"counts are {y[0]:g} at every power; no power law to fit"
        )
    with np.errstate(all="ignore"):  # checked below
        x2 = x**2
        sum_x2 = np.sum(x2)
        a = np.sum(y) / sum_x2
        mu = a * x2
        # y ln(y/mu) through log1p: a ratio y/mu within round-off of 1
        # gives its logarithm to full precision, so exact data reads 0.
        log_ratio = np.log1p((y - mu) / mu, out=np.zeros_like(mu), where=y > 0)
        chi2 = float(2.0 * np.sum(y * log_ratio - (y - mu)))
    if not (
        _SMALLEST_NORMAL <= sum_x2 < np.inf
        and np.all((mu >= _SMALLEST_NORMAL) & (mu < np.inf))
        and np.isfinite(chi2)
    ):
        raise EstimationError(
            f"powers {distinct[0]:g} to {distinct[-1]:g} W are out of range for "
            f"the fit: the sum of their squares is {sum_x2:g} and the fitted "
            f"counts span {np.min(mu):g} to {np.max(mu):g}"
        )
    a = float(a)
    a_stderr = float(np.sqrt(a) / np.sqrt(sum_x2))  # a / sum_x2 can overflow
    dof = int(y.size - 1)
    stats = {"chi2": chi2, "dof": dof, "chi2_reduced": chi2 / max(dof, 1)}
    exponent = None
    span_decades = np.log10(distinct[-1]) - np.log10(distinct[0])
    if distinct.size >= 5 and span_decades >= 0.5:
        # The counts at one power enter the likelihood only through their
        # sum and number, so fit those per power.
        b, b_stderr = _fit_power_law(
            np.log(distinct), np.bincount(group, y), np.bincount(group)
        )
        exponent = ExponentCheck(b=b, b_stderr=b_stderr)
    return FitResult(a=a, a_stderr=a_stderr, exponent_check=exponent, residual_stats=stats)


# Power-law fit: it stops once a Newton step is below _FIT_STEP_TOL of the
# exponent's standard error, far inside the fit's own uncertainty.
_FIT_STEP_TOL = 1e-8
_FIT_MAX_ITER = 100


@np.errstate(all="ignore")  # b is checked to be finite at every step
def _fit_power_law(log_x: np.ndarray, y: np.ndarray, n: np.ndarray) -> tuple:
    """(b, stderr of b) of the Poisson maximum-likelihood fit of A x^b.

    y[i] is the summed count of the n[i] records at power exp(log_x[i]).
    Log is the Poisson's canonical link, so at each b the likelihood is
    largest at A = sum(y) / sum(n x^b), and the profile log-likelihood in b
    is concave: its score is sum(y) times the count-weighted mean of log x
    less its mean under weights n x^b, and its curvature is -sum(y) times
    the variance of log x under those weights. Newton steps from b = 2 find
    its maximum, and the error is 1/sqrt of that profiled information. A
    fit that does not reach a finite b raises EstimationError.
    """
    if np.count_nonzero(y) < 2:
        raise DegenerateInputError("power-law fit needs counts at 2 or more powers")
    total = y.sum()
    target = np.dot(y, log_x) / total
    b, lo, hi = 2.0, -np.inf, np.inf
    for _ in range(_FIT_MAX_ITER):
        z = b * log_x
        w = n * np.exp(z - z.max())
        w /= w.sum()
        mean = np.dot(w, log_x)
        dev = log_x - mean
        info = total * np.dot(w, dev * dev)
        step = total * (target - mean) / info
        # Step length in units of the exponent's standard error.
        if abs(step) * np.sqrt(info) <= _FIT_STEP_TOL:
            return float(b + step), float(1.0 / np.sqrt(info))
        # The score falls as b grows, so the maximum lies between the last
        # b on either side. A Newton step from a flat tail of the profile
        # (an exponent far from 2 over a wide span) can overshoot that
        # bracket, and is then replaced by a bisection.
        if step > 0:
            lo = b
        else:
            hi = b
        b = b + step if lo < b + step < hi else (lo + hi) / 2.0
        if not np.isfinite(b):
            break
    raise EstimationError("power-law fit did not converge to a finite exponent")


def enhancement_ratio(fit_numer: FitResult, fit_denom: FitResult) -> RatioEstimate:
    """Ratio of fitted quadratic coefficients with propagated error."""
    return rate_ratio(
        fit_numer.a, fit_denom.a, fit_numer.a_stderr, fit_denom.a_stderr
    )


def fig2_panel(
    fluorophore: str,
    sweeps: dict,
    noise: bool,
    arm_scale_error: float,
    ratio_band: tuple,
) -> Fig2Panel:
    """One Fig. 2 panel: fits its sweeps, keyed [bunched, reference].

    The ratio is a(bunched)/a(reference). Fit errors cover shot noise only,
    so with noise on the simulated source-asymmetric scale systematic (one
    lognormal factor of log-sigma arm_scale_error per arm) is folded in.
    With any other number of sweeps than two the panel holds the fits only,
    and its ratio and within_band are None.
    """
    fits = {key: fit_quadratic(sweep) for key, sweep in sweeps.items()}
    if len(fits) != 2:
        return Fig2Panel(fluorophore, sweeps, fits, None, None)
    ratio = enhancement_ratio(*fits.values())
    if noise and arm_scale_error > 0:
        sys_err = ratio.value * np.sqrt(2.0) * arm_scale_error
        ratio = RatioEstimate(ratio.value, float(np.hypot(ratio.stderr, sys_err)))
    within = ratio_band[0] <= ratio.value <= ratio_band[1]
    return Fig2Panel(fluorophore, sweeps, fits, ratio, within)


def error_budget(noise: bool, panel_scale_error: float, arm_scale_error: float) -> dict:
    """The count-scale systematics a Fig. 2 report simulates."""
    return {
        "panel_scale_fraction": panel_scale_error if noise else 0.0,
        "source_asymmetry_fraction": arm_scale_error if noise else 0.0,
        "note": (
            "overall count-scale uncertainty of about "
            f"{panel_scale_error:.0%} per panel; the source-asymmetric "
            f"residual of about {arm_scale_error:.0%} is what enters the "
            "enhancement ratios"
        ),
    }


def fig2_report(
    panels: list,
    noise: bool,
    panel_scale_error: float,
    arm_scale_error: float,
    ratio_band: tuple,
) -> Fig2Report:
    """The Fig. 2 report of (fluorophore, {source key: SweepResult}) pairs.

    Each pair becomes one fig2_panel, in the order given; a panel without
    exactly two sweeps has ratio None and is left out of all_within_band,
    which is False when no panel has a ratio.
    """
    panels = [fig2_panel(n, s, noise, arm_scale_error, ratio_band) for n, s in panels]
    budget = error_budget(noise, panel_scale_error, arm_scale_error)
    return Fig2Report(panels, tuple(ratio_band), budget)


def _scale_factors(
    master_seed: int, n_fluor: int, n_sources: int, panel_frac: float, arm_frac: float
) -> np.ndarray:
    """Multiplicative count-scale systematics, one factor per (panel, arm).

    Lognormal with small log-sigma: a panel-wide factor common to both
    arms (cancels in ratios) and an arm-specific residual (does not).
    """
    factors = np.ones((n_fluor, n_sources))
    for i in range(n_fluor):
        panel = np.exp(panel_frac * rng_for(master_seed, 500 + i).standard_normal())
        for j in range(n_sources):
            arm = np.exp(
                arm_frac
                * rng_for(master_seed, 600 + i * n_sources + j).standard_normal()
            )
            factors[i, j] = panel * arm
    return factors


def reproduce_fig2(
    sources: list,
    absorbers: list,
    chain: DetectionChain,
    powers,
    repeats: int,
    master_seed: int,
    noise: bool = True,
    statistics_mode: str = "nominal",
    trace_duration_over_tauc: float = 5000.0,
    trace_samples_per_tauc: float = 8.0,
    calibration_target: float = 1000.0,
    calibration_power: float = 300e-6,
    panel_scale_error: float = 0.10,
    arm_scale_error: float = 0.02,
    ratio_band: tuple = (1.6, 2.3),
    threads: int = 1,
) -> Fig2Report:
    """Run the full two-source, multi-fluorophore power-sweep experiment.

    sources is a two-element list [bunched, reference]; the reported
    enhancement ratio of each panel is a(bunched)/a(reference). Each
    (fluorophore, source) sweep is an independent job with seeds derived
    from the master seed by fixed indices, so reports are byte-identical
    for a given (config, seed) at any thread count. In trace mode each
    source's trace grid is sized from its own coherence time (trace_grid).
    Worker threads run only the sweeps; fig2_report fits them.
    """
    if len(sources) != 2:
        raise InvalidArgumentError("exactly two sources are required")
    if not absorbers:
        raise InvalidArgumentError("at least one absorber is required")
    source_keys = [s.label or s.statistics for s in sources]
    if source_keys[0] == source_keys[1]:
        raise InvalidArgumentError("the two sources need distinct labels")
    n_src = len(sources)
    grids = [
        trace_grid(s, trace_duration_over_tauc, trace_samples_per_tauc)
        for s in sources
    ]
    if noise:
        factors = _scale_factors(
            master_seed, len(absorbers), n_src, panel_scale_error, arm_scale_error
        )
    else:
        factors = np.ones((len(absorbers), n_src))

    jobs = []
    for i, absorber in enumerate(absorbers):
        base = calibrate_dipole(absorber, chain, calibration_target, calibration_power)
        for j, source in enumerate(sources):
            scaled = replace(base, dipole_sq=base.dipole_sq * factors[i, j])
            jobs.append((i, j, source, scaled))

    def _run(job):
        i, j, source, absorber = job
        _, duration, dt = grids[j]
        return power_sweep(
            source,
            absorber,
            chain,
            powers,
            repeats,
            derive_seed(master_seed, 100 + i * n_src + j),
            noise=noise,
            statistics_mode=statistics_mode,
            trace_duration=duration,
            trace_dt=dt,
        )

    sweeps = list(thread_map(_run, jobs, threads))
    panels = [
        (a.label, dict(zip(source_keys, sweeps[i * n_src : (i + 1) * n_src])))
        for i, a in enumerate(absorbers)
    ]
    return fig2_report(panels, noise, panel_scale_error, arm_scale_error, ratio_band)
