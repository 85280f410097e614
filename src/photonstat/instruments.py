"""Measurement-chain models: the two-photon-detector Michelson
interferometer and the fluorescence detection path.

The fluorescence path turns an excitation power into the expected
detected count (fluorescence_counts); power_sweep draws Poisson counts
of that mean.

The interferometer splits the field into two balanced arms, delays one by
tau, recombines, and reads the result with an ideal quadratic (two-photon)
detector:

    raw(tau) = < |E(t) + exp(-i omega tau) E(t + tau)|^4 > / 16

The carrier phase omega*tau produces fringes at the optical period.
Averaging them out over the phase, in closed form, leaves the envelope

    S(tau) = ( <I(t)^2> + <I(t+tau)^2> + 4 <I(t) I(t+tau)> ) / 16

so the zero-delay to large-delay ratio r = S(0)/S(inf) determines
g2(0) = 2 r / (3 - r), and the relation inverts pointwise to a full
g2(tau) curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationEstimate, _repr_rows, _sample_lags, _write_csv
from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    OutOfModelError,
)
from .seeding import thread_map
from .sources import (
    FieldTrace,
    SourceSpec,
    _lag_sums,
    make_trace,
    trace_grid,
)
from .tpa import AbsorberSpec, mollow_rate

__all__ = [
    "DetectionChain",
    "InterferogramScan",
    "HbtEnsemble",
    "hbt_scan",
    "extract_g2",
    "hbt_ensemble",
    "fluorescence_counts",
]


@dataclass(frozen=True)
class DetectionChain:
    """Efficiencies and timing of one photon-counting detection path.

    power_correction_eta rescales measured powers to powers at the sample
    (P_exc = eta * P_meas). The overall efficiency is the product of
    collection and quantum efficiencies.
    """

    collection_efficiency: float
    quantum_efficiency: float
    dark_rate: float = 0.0
    integration_time: float = 1.0
    power_correction_eta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("collection_efficiency", "quantum_efficiency"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise InvalidArgumentError(f"{name} must be in [0, 1]")
        # Chained comparisons are False for NaN, so these refuse NaN and inf.
        if not 0 <= self.dark_rate < np.inf:
            raise InvalidArgumentError("dark_rate must be >= 0 and finite")
        if not 0 < self.integration_time < np.inf:
            raise InvalidArgumentError("integration_time must be positive and finite")
        if not 0 < self.power_correction_eta <= 1:
            raise InvalidArgumentError("power_correction_eta must be in (0, 1]")

    @property
    def overall_efficiency(self) -> float:
        return self.collection_efficiency * self.quantum_efficiency


@dataclass
class InterferogramScan:
    """One interferometer scan: fringe-resolved and fringe-averaged signals."""

    delays: np.ndarray
    raw_signal: np.ndarray
    filtered_signal: np.ndarray
    fringe_period: float

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.raw_signal = np.asarray(self.raw_signal, dtype=float)
        self.filtered_signal = np.asarray(self.filtered_signal, dtype=float)
        if np.any(self.raw_signal < 0):
            raise InvalidArgumentError("raw_signal must be >= 0")
        if self.filtered_signal.shape != self.delays.shape:
            raise InvalidArgumentError("filtered_signal length must match delays")
        if self.raw_signal.shape != self.delays.shape:
            raise InvalidArgumentError("raw_signal length must match delays")
        if self.fringe_period <= 0:
            raise InvalidArgumentError("fringe_period must be positive")

    def to_csv(self, path, metadata: str | None = None) -> None:
        columns = (self.delays, self.raw_signal, self.filtered_signal)
        _write_csv(path, metadata, ["tau_s", "raw", "filtered"], _repr_rows(columns))


def hbt_scan(trace: FieldTrace, delays) -> InterferogramScan:
    """Scan the two-photon Michelson over the given delays.

    For each delay the envelope is shifted by the nearest sample while the
    carrier phase omega*tau is applied exactly, so fringe structure does
    not require sampling the envelope at the optical period. The
    fringe-averaged signal is computed in closed form from the intensity
    moments.

    All delays share one set of FFT lag correlations. With
    a = E(t), b = E(t + tau) and p = exp(-i omega tau),

        |a + p b|^4 = Ia^2 + Ib^2 + 4 Ia Ib
                      + 4 Re(p (Ia + Ib) a* b) + 2 Re(p^2 a*^2 b^2),

    so every time average is a lag correlation read at the rounded lag and
    a scan costs O(n log n) whatever the number of delays. The first three
    terms are the fringe-averaged signal. Near destructive interference
    the exact raw signal is ~0 and the FFT sums cancel to round-off, so raw
    values in [-1e-9 * filtered, 0) are set to 0.
    """
    e = trace.samples
    n = e.size
    delays, lags = _sample_lags(delays, trace.dt, n)
    if np.any(delays < 0):
        raise InvalidArgumentError("delays must be >= 0")
    squares, cross, mixed, quad = _interferogram_lag_sums(e, int(lags.max()))
    phasor = np.exp(-1j * trace.carrier_freq * delays)
    counts = 16.0 * (n - lags)
    envelope = squares[lags] + 4.0 * cross[lags]
    fringes = 4.0 * (phasor * mixed[lags]).real + 2.0 * (phasor**2 * quad[lags]).real
    filtered = envelope / counts
    raw = (envelope + fringes) / counts
    raw[(raw < 0) & (raw >= -1e-9 * filtered)] = 0.0
    fringe_period = 2.0 * np.pi / trace.carrier_freq
    return InterferogramScan(delays, raw, filtered, fringe_period)


def _interferogram_lag_sums(e: np.ndarray, k_max: int):
    """Sums over t < n - k of the interferogram terms, for k = 0..k_max.

    Returns (sum Ia^2 + Ib^2, sum Ia Ib, sum (Ia + Ib) a* b, sum a*^2 b^2)
    with a = e[t], b = e[t + k]. With x = (I / <I>) e (<I> read as 1 for a
    dark trace), the third is <I> (C(x, e) + C(e, x)) for the cross lag sum
    C(x, y) = sum x*[t] y[t + k], and the polarization identity
    A(x + e) - A(x - e) = 2 (C(x, e) + C(e, x)) gives it from two lag sums
    A of _lag_sums. Scaling by <I> keeps x and e of one size, so neither
    swamps the other.
    """
    intensity = e.real**2 + e.imag**2
    sq = intensity**2
    head = np.concatenate(([0.0], np.cumsum(sq[:k_max])))
    tail = np.concatenate(([0.0], np.cumsum(sq[::-1][:k_max])))
    squares = 2.0 * np.sum(sq) - head - tail
    del sq
    cross = _lag_sums(intensity, k_max)
    mean = float(intensity.mean()) or 1.0
    x = (intensity / mean) * e
    del intensity
    mixed = _lag_sums(x + e, k_max) - _lag_sums(x - e, k_max)
    del x
    mixed *= mean / 2.0
    quad = _lag_sums(e * e, k_max)
    return squares, cross, mixed, quad


def extract_g2(
    scan: InterferogramScan,
    tail_window: tuple[float, float],
    coherence_time: float | None = None,
) -> CorrelationEstimate:
    """Invert a filtered interferogram scan into g2 values.

    tail_window = (lo, hi) in seconds selects delays where the field is
    decorrelated; the window mean fixes the large-delay floor. When
    coherence_time is given, lo must sit at or beyond 5 coherence times.
    Returns the full inverted g2(tau) curve; its first point (tau = 0) is
    g2(0) = 2 r / (3 - r). Standard errors carry the tail scatter through
    the inversion; the ratio r >= 3 is outside the classical model.
    """
    lo, hi = tail_window
    if not lo < hi:
        raise InvalidArgumentError("tail_window must satisfy lo < hi")
    if coherence_time is not None and lo < 5.0 * coherence_time:
        raise InvalidArgumentError(
            "tail window starts inside the correlation decay "
            f"(lo = {lo:.3e} s < 5 tau_c = {5.0 * coherence_time:.3e} s)"
        )
    delays = scan.delays
    if delays[0] != 0.0:
        raise InvalidArgumentError("scan must include tau = 0 as its first delay")
    signal = scan.filtered_signal
    mask = (delays >= lo) & (delays <= hi)
    n_tail = int(np.count_nonzero(mask))
    if n_tail < 2:
        raise InvalidArgumentError("tail window contains fewer than 2 scan points")
    tail = signal[mask]
    tail_mean = float(np.mean(tail))
    if tail_mean <= 0:
        raise DegenerateInputError("tail signal is not positive")
    tail_se = float(np.std(tail, ddof=1) / np.sqrt(n_tail))
    r = float(signal[0] / tail_mean)
    if r >= 3.0:
        raise OutOfModelError(
            f"signal ratio r = {r:.3f} >= 3: outside the classical "
            "two-photon interferogram model (extrabunched or corrupted input)"
        )
    if r <= 0:
        raise DegenerateInputError("zero-delay signal is not positive")
    g2_zero = 2.0 * r / (3.0 - r)
    rel_tail = tail_se / tail_mean
    se_zero = (6.0 / (3.0 - r) ** 2) * r * rel_tail
    ratio_curve = signal / tail_mean
    values = (ratio_curve * (2.0 * g2_zero + 4.0) - 2.0 * g2_zero) / 4.0
    errors = (2.0 * g2_zero + 4.0) / 4.0 * ratio_curve * rel_tail
    values[0] = g2_zero
    errors[0] = se_zero
    return CorrelationEstimate(
        2, delays, np.maximum(values, 0.0), errors, n_tail
    )


@dataclass
class HbtEnsemble:
    """What hbt_ensemble measured: the realization-mean scan, the g2 extracted
    from it, and the g2(0) extracted from each realization's own scan."""

    scan: InterferogramScan
    g2: CorrelationEstimate
    realization_g2: np.ndarray
    tail_window: tuple  # (lo, hi) in seconds
    tau_c: float  # nominal coherence time


def hbt_ensemble(
    spec: SourceSpec,
    seeds,
    duration_over_tauc: float,
    samples_per_tauc: float,
    max_delay_over_tauc: float,
    step_over_tauc: float,
    tail_start_over_tauc: float,
    threads: int = 1,
) -> HbtEnsemble:
    """Scan one trace of spec per seed and average the scans.

    Lengths are in units of the nominal coherence time: each trace as in
    trace_grid, the delays 0, step, ..., max_delay and the tail window
    [tail_start, max_delay] of extract_g2. Scans run on up to threads worker
    threads; the result depends on the seeds only.
    """
    if len(seeds) < 1:
        raise InvalidArgumentError("an ensemble needs at least one seed")
    tau_c, duration, dt = trace_grid(spec, duration_over_tauc, samples_per_tauc)
    step = float(step_over_tauc) * tau_c
    max_delay = float(max_delay_over_tauc) * tau_c
    # A grid of more delays than samples would only ask numpy for a huge array.
    n_samples = round(duration / dt)
    if not (0 < step <= max_delay < np.inf and max_delay / step < n_samples):
        raise InvalidArgumentError(
            "step_over_tauc and max_delay_over_tauc must be finite with "
            f"0 < step <= max_delay and at most {n_samples} delays, "
            f"got {step_over_tauc!r}, {max_delay_over_tauc!r}"
        )
    delays = np.arange(0.0, max_delay + step / 2.0, step)
    tail = (float(tail_start_over_tauc) * tau_c, max_delay)
    scans = list(
        thread_map(
            lambda seed: hbt_scan(make_trace(spec, duration, dt, seed), delays),
            seeds,
            threads,
        )
    )
    raw_mean = np.mean([s.raw_signal for s in scans], axis=0)
    filt_mean = np.mean([s.filtered_signal for s in scans], axis=0)
    averaged = InterferogramScan(delays, raw_mean, filt_mean, scans[0].fringe_period)
    g2 = extract_g2(averaged, tail, coherence_time=tau_c)
    per_real = [extract_g2(s, tail, coherence_time=tau_c).values[0] for s in scans]
    return HbtEnsemble(averaged, g2, np.array(per_real), tail, tau_c)


def fluorescence_counts(
    excitation_power_measured: float,
    g2_zero: float,
    absorber: AbsorberSpec,
    chain: DetectionChain,
) -> float:
    """Expected detected fluorescence counts at one excitation power setting.

    The measured power is first corrected to the power at the sample,
    P_exc = eta * P_meas. The absorption rate follows from the two-photon
    model for a source of the given g2(0) on resonance, and the
    fluorescence rate is that times the quantum yield. Over one
    integration window T the expected count is
    (fluorescence rate * overall_efficiency + dark_rate) * T.
    """
    if excitation_power_measured < 0:
        raise InvalidArgumentError("excitation power must be >= 0")
    p_exc = chain.power_correction_eta * excitation_power_measured
    rate = mollow_rate(absorber, float(g2_zero), p_exc, absorber.omega_f / 2.0)
    return float(
        (rate * absorber.quantum_yield * chain.overall_efficiency + chain.dark_rate)
        * chain.integration_time
    )
