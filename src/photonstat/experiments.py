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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit

from .errors import (
    DegenerateInputError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .instruments import DetectionChain, _poisson_counts, fluorescence_counts
from .seeding import derive_seed, rng_for
from .sources import SourceSpec, make_trace, nominal_coherence_time, nominal_g2
from .tpa import AbsorberSpec, RatioEstimate, lineshape, rate_ratio

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
    "reproduce_fig2",
]


@dataclass
class SweepResult:
    """Counts recorded over one power sweep of one (source, absorber) pair.

    records holds (P_exc in W, counts, repeat index) tuples, ordered by
    power then repeat. counts are ints with noise on and exact float
    expectations with noise off. g2_value records the source statistic the
    sweep actually used.
    """

    source_label: str
    fluorophore_label: str
    records: list
    seed: int
    g2_value: float = float("nan")
    statistics_mode: str = "nominal"

    def powers(self) -> np.ndarray:
        return np.array([rec[0] for rec in self.records], dtype=float)

    def counts(self) -> np.ndarray:
        return np.array([rec[1] for rec in self.records], dtype=float)


@dataclass
class ExponentCheck:
    """Free-exponent fit a*x^b used to verify the quadratic power law."""

    b: float
    b_stderr: float


@dataclass
class FitResult:
    """Weighted quadratic fit f(x) = a x^2 through the origin."""

    a: float
    a_stderr: float
    exponent_check: ExponentCheck | None
    residual_stats: dict = field(default_factory=dict)


@dataclass
class Fig2Panel:
    fluorophore: str
    sweeps: dict
    fits: dict
    ratio: RatioEstimate
    within_band: bool


@dataclass
class Fig2Report:
    panels: list
    master_seed: int
    noise: bool
    ratio_band: tuple
    error_budget: dict

    @property
    def all_within_band(self) -> bool:
        return all(panel.within_band for panel in self.panels)

    def ratios(self) -> list:
        return [panel.ratio.value for panel in self.panels]


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
    p_exc = chain.power_correction_eta * at_power_measured
    per_dipole = (
        lineshape(absorber.omega_f, absorber)
        * p_exc**2
        * absorber.quantum_yield
        * chain.overall_efficiency
        * chain.integration_time
    )
    return absorber.with_dipole_sq(target_counts / per_dipole)


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
        tau_c = nominal_coherence_time(source.spectral_shape, source.bandwidth_hz)
        duration = trace_duration if trace_duration is not None else 5000.0 * tau_c
        dt = trace_dt if trace_dt is not None else tau_c / 8.0
        trace = make_trace(source, duration, dt, derive_seed(seed, 0))
        intensity = trace.intensity()
        g2_value = float(np.mean(intensity**2)) / float(np.mean(intensity)) ** 2
    else:
        raise InvalidArgumentError(
            f"statistics_mode must be 'nominal' or 'trace', got {statistics_mode!r}"
        )
    expected = [
        fluorescence_counts(p, g2_value, absorber, chain, 0, noise=False)
        for p in powers
    ]
    counts = np.repeat(np.array(expected)[:, None], repeats, axis=1)
    if noise:
        counts = _poisson_counts(rng_for(seed, 1), counts)
    rows = zip((chain.power_correction_eta * powers).tolist(), counts.tolist())
    records = [(p, c, k) for p, row in rows for k, c in enumerate(row)]
    return SweepResult(
        source_label=source.label or source.statistics,
        fluorophore_label=absorber.label,
        records=records,
        seed=seed,
        g2_value=g2_value,
        statistics_mode=statistics_mode,
    )


def fit_quadratic(sweep: SweepResult) -> FitResult:
    """Weighted least-squares fit of f(x) = a x^2 to a sweep.

    Weights are inverse Poisson variances, 1/max(counts, 1). The free
    exponent b of a x^b is fitted alongside whenever at least 5 distinct
    powers span half a decade, as a power-law sanity check.
    """
    x = sweep.powers()
    y = sweep.counts()
    distinct = np.unique(x)
    if distinct.size < 3:
        raise InsufficientDataError("need at least 3 distinct powers to fit")
    if np.all(y == 0):
        raise DegenerateInputError("all counts are zero; nothing to fit")
    weights = 1.0 / np.maximum(y, 1.0)
    sw_x4 = float(np.sum(weights * x**4))
    a = float(np.sum(weights * y * x**2)) / sw_x4
    a_stderr = float(np.sqrt(1.0 / sw_x4))
    residuals = y - a * x**2
    chi2 = float(np.sum(weights * residuals**2))
    dof = int(y.size - 1)
    stats = {"chi2": chi2, "dof": dof, "chi2_reduced": chi2 / max(dof, 1)}
    exponent = None
    span_decades = np.log10(distinct.max() / distinct.min())
    if distinct.size >= 5 and span_decades >= 0.5:
        # Rescale x to order unity so the power-law fit is well conditioned.
        x_ref = float(np.exp(np.mean(np.log(x))))
        u = x / x_ref
        a_u0 = a * x_ref**2

        def _power_law(uu, a_u, b):
            return a_u * np.power(uu, b)

        popt, pcov = curve_fit(
            _power_law,
            u,
            y,
            p0=(a_u0, 2.0),
            sigma=np.sqrt(np.maximum(y, 1.0)),
            absolute_sigma=True,
            maxfev=10000,
        )
        exponent = ExponentCheck(
            b=float(popt[1]), b_stderr=float(np.sqrt(pcov[1, 1]))
        )
    return FitResult(a=a, a_stderr=a_stderr, exponent_check=exponent, residual_stats=stats)


def enhancement_ratio(fit_numer: FitResult, fit_denom: FitResult) -> RatioEstimate:
    """Ratio of fitted quadratic coefficients with propagated error."""
    return rate_ratio(
        fit_numer.a, fit_denom.a, fit_numer.a_stderr, fit_denom.a_stderr
    )


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
    trace_duration: float | None = None,
    trace_dt: float | None = None,
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
    for a given (config, seed) at any thread count.
    """
    if len(sources) != 2:
        raise InvalidArgumentError("exactly two sources are required")
    if not absorbers:
        raise InvalidArgumentError("at least one absorber is required")
    source_keys = [s.label or s.statistics for s in sources]
    if source_keys[0] == source_keys[1]:
        raise InvalidArgumentError("the two sources need distinct labels")
    n_src = len(sources)
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
            scaled = base.with_dipole_sq(base.dipole_sq * factors[i, j])
            jobs.append((i, j, source, scaled))

    def _run(job):
        i, j, source, absorber = job
        sweep = power_sweep(
            source,
            absorber,
            chain,
            powers,
            repeats,
            derive_seed(master_seed, 100 + i * n_src + j),
            noise=noise,
            statistics_mode=statistics_mode,
            trace_duration=trace_duration,
            trace_dt=trace_dt,
        )
        return sweep, fit_quadratic(sweep)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run, jobs))
    else:
        results = [_run(job) for job in jobs]

    panels = []
    for i, absorber in enumerate(absorbers):
        sweeps = {}
        fits = {}
        for j, source in enumerate(sources):
            sweep, fit = results[i * n_src + j]
            key = source.label or source.statistics
            sweeps[key] = sweep
            fits[key] = fit
        keys = list(sweeps)
        ratio = enhancement_ratio(fits[keys[0]], fits[keys[1]])
        if noise and arm_scale_error > 0:
            # Fit errors cover shot noise only; fold in the simulated
            # source-asymmetric scale systematic (one factor per arm).
            sys_err = ratio.value * np.sqrt(2.0) * arm_scale_error
            ratio = RatioEstimate(
                ratio.value, float(np.hypot(ratio.stderr, sys_err))
            )
        within = ratio_band[0] <= ratio.value <= ratio_band[1]
        panels.append(
            Fig2Panel(
                fluorophore=absorber.label,
                sweeps=sweeps,
                fits=fits,
                ratio=ratio,
                within_band=within,
            )
        )
    budget = {
        "panel_scale_fraction": panel_scale_error if noise else 0.0,
        "source_asymmetry_fraction": arm_scale_error if noise else 0.0,
        "note": (
            "overall count-scale uncertainty of about "
            f"{panel_scale_error:.0%} per panel; the source-asymmetric "
            f"residual of about {arm_scale_error:.0%} is what enters the "
            "enhancement ratios"
        ),
    }
    return Fig2Report(
        panels=panels,
        master_seed=master_seed,
        noise=noise,
        ratio_band=tuple(ratio_band),
        error_budget=budget,
    )
