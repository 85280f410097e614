"""Synthesis of optical field realizations with prescribed photon statistics.

A field realization is a uniformly sampled complex envelope E(t) in sqrt(W)
units, so |E(t)|^2 is the instantaneous power. Four statistics classes are
supported:

* ``thermal-gaussian``: circular complex Gaussian process with a Gaussian or
  Lorentzian power spectrum, the classical model of chaotic light.
  Intensity moments obey <I^n>/<I>^n -> n!.
* ``coherent``: constant amplitude, optionally with weak Gaussian relative
  amplitude noise epsilon.
* ``pseudo-thermal``: sum of M fixed-amplitude modes with random phases and
  frequencies, the rotating-diffuser analog. <I^2>/<I>^2 -> 2 - 1/M.
* ``tunable``: segment-wise mixture of the coherent and thermal generators
  (or of thermal and dark segments) tuned to a target second-order moment.

Every generator is a pure function of (spec, duration, dt, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .errors import (
    DegenerateInputError,
    EstimationError,
    InvalidArgumentError,
    SamplingError,
)
from .seeding import derive_seed, rng_for

__all__ = [
    "FieldTrace",
    "SourceSpec",
    "make_thermal_trace",
    "make_coherent_trace",
    "make_pseudothermal_trace",
    "make_tunable_trace",
    "make_trace",
    "coherence_time",
    "nominal_coherence_time",
    "estimate_bandwidth_hz",
    "nominal_g2",
]

STATISTICS_CLASSES = ("thermal-gaussian", "coherent", "pseudo-thermal", "tunable")
SPECTRAL_SHAPES = ("gaussian", "lorentzian")

# |g1| threshold below which the field is considered decorrelated; used by
# coherence_time truncation and by its decay precondition.
G1_DECAY_THRESHOLD = 0.05
# Overlap-save geometry of _lag_sums: the shortest block, and the points
# transformed per batch of blocks.
_LAG_BLOCK = 8192
_CHUNK_POINTS = 1 << 20


@dataclass
class FieldTrace:
    """One sampled realization of a complex optical envelope.

    samples are in sqrt(W), dt in seconds, carrier_freq is the optical
    angular frequency in rad/s. seed_id records the seed that produced the
    realization so downstream estimators can derive reproducible substreams.
    """

    samples: np.ndarray
    dt: float
    carrier_freq: float
    seed_id: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.dt <= 0:
            raise InvalidArgumentError("dt must be positive")
        if self.samples.size < 2:
            raise InvalidArgumentError("a trace needs at least 2 samples")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt

    def intensity(self) -> np.ndarray:
        """Instantaneous power |E|^2 in W."""
        return np.abs(self.samples) ** 2

    def mean_power(self) -> float:
        return float(np.mean(self.intensity()))


@dataclass
class SourceSpec:
    """Parametric description of a light source.

    bandwidth_fwhm is interpreted per bandwidth_convention: "frequency"
    means Hz directly, "wavelength" means meters FWHM converted at the
    center wavelength. mode_count applies to pseudo-thermal sources,
    target_g2 to tunable ones, amplitude_noise (relative rms epsilon) to
    coherent ones.
    """

    statistics: str
    center_wavelength: float
    bandwidth_fwhm: float
    spectral_shape: str = "gaussian"
    mean_power: float = 1.0e-3
    bandwidth_convention: str = "frequency"
    mode_count: int = 1
    target_g2: float = 1.0
    amplitude_noise: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.statistics not in STATISTICS_CLASSES:
            raise InvalidArgumentError(
                f"unknown statistics class {self.statistics!r}; "
                f"expected one of {STATISTICS_CLASSES}"
            )
        if self.spectral_shape not in SPECTRAL_SHAPES:
            raise InvalidArgumentError(
                f"unknown spectral shape {self.spectral_shape!r}"
            )
        if self.bandwidth_convention not in ("frequency", "wavelength"):
            raise InvalidArgumentError(
                f"unknown bandwidth convention {self.bandwidth_convention!r}"
            )
        if self.center_wavelength <= 0:
            raise InvalidArgumentError("center_wavelength must be positive")
        if self.bandwidth_fwhm <= 0:
            raise InvalidArgumentError("bandwidth must be positive")
        if self.mean_power <= 0:
            raise InvalidArgumentError("mean_power must be positive")
        if self.mode_count < 1:
            raise InvalidArgumentError("pseudo-thermal mode count must be >= 1")
        if self.target_g2 < 1.0:
            raise InvalidArgumentError(
                "target_g2 < 1 is not reachable by a classical intensity mixture"
            )
        if self.amplitude_noise < 0:
            raise InvalidArgumentError("amplitude_noise must be >= 0")

    @property
    def bandwidth_hz(self) -> float:
        """FWHM optical bandwidth in Hz regardless of input convention."""
        if self.bandwidth_convention == "frequency":
            return self.bandwidth_fwhm
        return SPEED_OF_LIGHT * self.bandwidth_fwhm / self.center_wavelength**2

    @property
    def carrier_freq(self) -> float:
        """Optical angular frequency 2*pi*c/lambda in rad/s."""
        return 2.0 * np.pi * SPEED_OF_LIGHT / self.center_wavelength


def _spectral_density(freqs: np.ndarray, shape: str, fwhm_hz: float) -> np.ndarray:
    """Unnormalized baseband power spectral density evaluated at freqs."""
    if shape == "gaussian":
        return np.exp(-4.0 * np.log(2.0) * (freqs / fwhm_hz) ** 2)
    # Lorentzian with FWHM fwhm_hz
    return 1.0 / (1.0 + (2.0 * freqs / fwhm_hz) ** 2)


def nominal_coherence_time(shape: str, fwhm_hz: float) -> float:
    """Analytic coherence time, equivalent-width convention.

    tau_c = integral of |g1(tau)|^2 over all tau. For a Gaussian spectrum
    of FWHM dnu this is sqrt(2 ln2 / pi)/dnu, for a Lorentzian 1/(pi dnu).
    """
    if fwhm_hz <= 0:
        raise InvalidArgumentError("bandwidth must be positive")
    if shape == "gaussian":
        return float(np.sqrt(2.0 * np.log(2.0) / np.pi) / fwhm_hz)
    if shape == "lorentzian":
        return float(1.0 / (np.pi * fwhm_hz))
    raise InvalidArgumentError(f"unknown spectral shape {shape!r}")


def _check_grid(spec: SourceSpec, duration: float, dt: float) -> int:
    """Validate (duration, dt) against the spectrum; return sample count."""
    if dt <= 0 or duration <= 0:
        raise InvalidArgumentError("duration and dt must be positive")
    dnu = spec.bandwidth_hz
    if dt > 1.0 / (10.0 * dnu):
        raise SamplingError(
            f"dt = {dt:.3e} s too coarse for bandwidth {dnu:.3e} Hz; "
            f"need dt <= {1.0 / (10.0 * dnu):.3e} s"
        )
    n = int(round(duration / dt))
    if n < 2:
        raise InvalidArgumentError("duration/dt must give at least 2 samples")
    tau_c = nominal_coherence_time(spec.spectral_shape, dnu)
    if duration < 100.0 * tau_c:
        warnings.warn(
            f"duration {duration:.3e} s is below 100 coherence times "
            f"({100.0 * tau_c:.3e} s); estimates will be noisy",
            stacklevel=3,
        )
    return n


def _renormalize(envelope: np.ndarray, mean_power: float) -> np.ndarray:
    """Scale the envelope so the realized time-averaged power is exact."""
    p = np.mean(np.abs(envelope) ** 2)
    if p == 0:
        raise DegenerateInputError("generated envelope has zero power")
    return envelope * np.sqrt(mean_power / p)


def make_thermal_trace(
    spec: SourceSpec, duration: float, dt: float, seed: int
) -> FieldTrace:
    """Synthesize a circular-complex-Gaussian (chaotic) field realization.

    White complex Gaussian noise is shaped in the frequency domain by the
    square root of the requested power spectral density and transformed
    back. The result is exactly Gaussian at every sample count, so the
    intensity moments carry no mode-count bias. The realized time-averaged
    power is normalized to spec.mean_power.

    Parameters
    ----------
    spec : SourceSpec
        Must have statistics "thermal-gaussian".
    duration, dt : float
        Trace length and sample interval in seconds. dt must resolve the
        bandwidth (dt <= 1/(10 dnu)); durations under 100 coherence times
        trigger a warning.
    seed : int
        Master seed for this realization.
    """
    if spec.statistics != "thermal-gaussian":
        raise InvalidArgumentError(
            f"make_thermal_trace needs thermal-gaussian statistics, "
            f"got {spec.statistics!r}"
        )
    n = _check_grid(spec, duration, dt)
    rng = rng_for(seed)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    freqs = np.fft.fftfreq(n, dt)
    shaped = z * np.sqrt(_spectral_density(freqs, spec.spectral_shape, spec.bandwidth_hz))
    envelope = np.fft.ifft(shaped)
    samples = _renormalize(envelope, spec.mean_power)
    return FieldTrace(samples, dt, spec.carrier_freq, derive_seed(seed))


def make_coherent_trace(
    spec: SourceSpec, duration: float, dt: float, seed: int
) -> FieldTrace:
    """Synthesize a coherent field: constant amplitude, optional weak noise.

    With spec.amplitude_noise = 0 the envelope is exactly constant, so all
    normalized intensity moments equal 1 to machine precision. A positive
    epsilon adds independent Gaussian relative amplitude fluctuations,
    E = sqrt(P) (1 + eps xi(t)) exp(i phi0), giving
    g2(0) = (1 + 6 eps^2 + 3 eps^4) / (1 + eps^2)^2.
    """
    if spec.statistics != "coherent":
        raise InvalidArgumentError(
            f"make_coherent_trace needs coherent statistics, got {spec.statistics!r}"
        )
    if dt <= 0 or duration <= 0:
        raise InvalidArgumentError("duration and dt must be positive")
    n = int(round(duration / dt))
    if n < 2:
        raise InvalidArgumentError("duration/dt must give at least 2 samples")
    rng = rng_for(seed)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    eps = spec.amplitude_noise
    if eps == 0.0:
        samples = np.full(n, np.sqrt(spec.mean_power) * phase)
    else:
        amp = 1.0 + eps * rng.standard_normal(n)
        samples = _renormalize(amp.astype(np.complex128) * phase, spec.mean_power)
    return FieldTrace(samples, dt, spec.carrier_freq, derive_seed(seed))


def make_pseudothermal_trace(
    spec: SourceSpec, duration: float, dt: float, seed: int
) -> FieldTrace:
    """Synthesize pseudo-thermal light as M fixed-amplitude random modes.

    Each mode has the same amplitude, an independent uniform phase, and a
    frequency drawn from the spectral shape. The expected zero-delay
    second-order coherence is 2 - 1/M; M = 1 is a single mode with g2 = 1.
    """
    if spec.statistics != "pseudo-thermal":
        raise InvalidArgumentError(
            f"make_pseudothermal_trace needs pseudo-thermal statistics, "
            f"got {spec.statistics!r}"
        )
    m = spec.mode_count
    if m < 1:
        raise InvalidArgumentError("mode count must be >= 1")
    n = _check_grid(spec, duration, dt)
    rng = rng_for(seed)
    dnu = spec.bandwidth_hz
    if spec.spectral_shape == "gaussian":
        sigma = dnu / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        nu = rng.normal(0.0, sigma, m)
    else:
        nu = rng.standard_cauchy(m) * dnu / 2.0
    # Redraw mode frequencies the grid cannot represent (Lorentzian tails).
    limit = 0.4 / dt
    for k in range(m):
        while abs(nu[k]) > limit:
            if spec.spectral_shape == "gaussian":
                nu[k] = rng.normal(0.0, sigma)
            else:
                nu[k] = rng.standard_cauchy() * dnu / 2.0
    phases = rng.uniform(0.0, 2.0 * np.pi, m)
    # t = (b L + l) dt splits each mode's phasor into a block factor and an
    # in-block factor, so the mode sum is one (n/L x M) @ (M x L) product.
    block = int(np.ceil(np.sqrt(n)))
    n_blocks = -(-n // block)
    block_phasors = np.exp(
        1j * (phases + 2.0 * np.pi * np.outer(np.arange(n_blocks) * (block * dt), nu))
    )
    inblock_phasors = np.exp(2j * np.pi * np.outer(nu, np.arange(block) * dt))
    envelope = (block_phasors @ inblock_phasors).ravel()[:n]
    samples = _renormalize(envelope, spec.mean_power)
    return FieldTrace(samples, dt, spec.carrier_freq, derive_seed(seed))


def make_tunable_trace(
    target_g2: float,
    duration: float,
    dt: float,
    seed: int,
    spec: SourceSpec | None = None,
) -> FieldTrace:
    """Synthesize a field whose expected g2(0) equals target_g2.

    For 1 <= target_g2 <= 2 the trace is a segment-wise statistical mixture:
    each segment (about 16 coherence times long) is thermal with probability
    p = target_g2 - 1 and coherent with a fresh random phase otherwise. Both
    segment types carry the same mean power, so
    <I^2>/<I>^2 = p*2 + (1-p)*1 = target_g2 and no intensity correlation
    survives beyond the coherence time. For target_g2 > 2 thermal segments
    are gated on with duty cycle q = 2/target_g2 and scaled by 1/sqrt(q),
    giving <I^2>/<I>^2 = 2/q.

    spec, when given, supplies the spectrum, power, and carrier; its
    statistics class must be "tunable" and its target_g2 field is ignored
    in favor of the explicit argument.
    """
    if target_g2 < 1.0:
        raise InvalidArgumentError(
            "target_g2 < 1 is not reachable by a classical intensity mixture"
        )
    if spec is None:
        spec = SourceSpec(
            statistics="tunable",
            center_wavelength=976e-9,
            bandwidth_fwhm=20e-9,
            bandwidth_convention="wavelength",
            spectral_shape="gaussian",
            target_g2=target_g2,
        )
    if spec.statistics != "tunable":
        raise InvalidArgumentError(
            f"make_tunable_trace needs tunable statistics, got {spec.statistics!r}"
        )
    thermal_spec = SourceSpec(
        statistics="thermal-gaussian",
        center_wavelength=spec.center_wavelength,
        bandwidth_fwhm=spec.bandwidth_fwhm,
        spectral_shape=spec.spectral_shape,
        mean_power=spec.mean_power,
        bandwidth_convention=spec.bandwidth_convention,
    )
    if target_g2 == 1.0:
        coherent_spec = SourceSpec(
            statistics="coherent",
            center_wavelength=spec.center_wavelength,
            bandwidth_fwhm=spec.bandwidth_fwhm,
            spectral_shape=spec.spectral_shape,
            mean_power=spec.mean_power,
            bandwidth_convention=spec.bandwidth_convention,
        )
        return make_coherent_trace(coherent_spec, duration, dt, seed)
    base = make_thermal_trace(thermal_spec, duration, dt, seed)
    if target_g2 == 2.0:
        return base
    n = base.n_samples
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    seg = max(2, int(round(16.0 * tau_c / dt)))
    n_seg = (n + seg - 1) // seg
    rng = rng_for(seed, 1)
    if target_g2 <= 2.0:
        p = target_g2 - 1.0
        thermal_mask = np.repeat(rng.random(n_seg) < p, seg)[:n]
        seg_phase = np.repeat(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_seg)), seg)[:n]
        coherent_level = np.sqrt(spec.mean_power) * seg_phase
        envelope = np.where(thermal_mask, base.samples, coherent_level)
    else:
        q = 2.0 / target_g2
        on_mask = np.repeat(rng.random(n_seg) < q, seg)[:n]
        envelope = np.where(on_mask, base.samples / np.sqrt(q), 0.0)
    samples = _renormalize(envelope, spec.mean_power)
    return FieldTrace(samples, dt, spec.carrier_freq, derive_seed(seed))


def make_trace(spec: SourceSpec, duration: float, dt: float, seed: int) -> FieldTrace:
    """Dispatch to the generator matching spec.statistics."""
    if spec.statistics == "thermal-gaussian":
        return make_thermal_trace(spec, duration, dt, seed)
    if spec.statistics == "coherent":
        return make_coherent_trace(spec, duration, dt, seed)
    if spec.statistics == "pseudo-thermal":
        return make_pseudothermal_trace(spec, duration, dt, seed)
    if spec.statistics == "tunable":
        return make_tunable_trace(spec.target_g2, duration, dt, seed, spec=spec)
    raise InvalidArgumentError(f"unknown statistics class {spec.statistics!r}")


def _fft_len(m: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= m, the zero-padded FFT length.

    Padding a length-n sequence to at least n + k_max + 1 points keeps
    circular lag correlations free of wrap-around up to lag k_max.
    """
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _inverse_of_real_spectrum(spec: np.ndarray, k_max: int) -> np.ndarray:
    """ifft(spec)[:k_max + 1] for a real spectrum, via the half-size rfft.

    For real spec, ifft(spec)[k] = conj(fft(spec)[k]) / N. rfft gives every
    k <= N/2, which covers k_max whenever N > 2 k_max.
    """
    return np.conj(np.fft.rfft(spec)[: k_max + 1]) / spec.size


def _lag_sums(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sums over t < n - k of conj(x[t]) x[t + k], for k = 0..max_lag < n.

    The result is real for real x and complex otherwise. One FFT zero-padded
    to _fft_len(n + max_lag + 1) points gives every lag: irfft(|rfft(x)|^2)
    for real x, and for complex x the real power spectrum |fft(x)|^2
    inverted with the half-size rfft. When max_lag is small next to n, x is
    instead cut into blocks of L >= 4 max_lag samples (overlap-save): the
    cross-spectra of every block with its (L + max_lag) window are summed
    and inverted once, and the tail goes through the one-FFT path. Short
    batched transforms stay in cache (at n = 2e6 they ran ~3x faster per
    sample than one long transform), and nothing of size n is allocated.
    """
    n = x.size
    real = not np.iscomplexobj(x)
    block = max(_LAG_BLOCK, 4 * max_lag)
    nb = (n - max_lag) // block
    if nb >= 4:
        m = _fft_len(block + max_lag)
        acc = sum(s.sum(axis=0) for s in _block_spectra(x, block, nb, max_lag, m))
        head = np.fft.irfft(acc, m) if real else np.fft.ifft(acc)
        return head[: max_lag + 1] + _lag_sums(x[nb * block :], max_lag)
    nfft = _fft_len(n + max_lag + 1)
    spec = np.fft.rfft(x, nfft) if real else np.fft.fft(x, nfft)
    del x
    power = spec.real**2
    power += spec.imag**2
    del spec
    if real:
        return np.fft.irfft(power, nfft)[: max_lag + 1].copy()
    return _inverse_of_real_spectrum(power, max_lag)


def _block_spectra(x: np.ndarray, block: int, nb: int, max_lag: int, m: int):
    """Yield cross-spectra conj(F(x_b)) F(w_b) of blocks with their windows.

    x_b = x[b L : (b + 1) L] and w_b = x[b L : (b + 1) L + max_lag] for the
    first nb blocks of L = block samples (nb L + max_lag <= n), in chunks of
    consecutive blocks (one row each). F is an m-point FFT (rfft for real x)
    with m >= L + max_lag, so the inverse of a row at k <= max_lag is the
    block's lag sum over t < L of conj(x_b[t]) w_b[t + k].
    """
    fft = np.fft.rfft if not np.iscomplexobj(x) else np.fft.fft
    windows = np.lib.stride_tricks.sliding_window_view(x, block + max_lag)
    step = max(1, _CHUNK_POINTS // m)
    for b0 in range(0, nb, step):
        b1 = min(nb, b0 + step)
        spec = fft(windows[b0 * block : b1 * block : block], m, axis=1)
        spec *= np.conj(fft(x[b0 * block : b1 * block].reshape(-1, block), m, axis=1))
        yield spec


def _g1_magnitude(trace: FieldTrace, max_lag: int) -> np.ndarray:
    """|g1(k dt)| for k = 0..max_lag from the field's lag sums."""
    counts = trace.n_samples - np.arange(max_lag + 1)
    acorr = _lag_sums(trace.samples, max_lag) / counts
    return np.abs(acorr / acorr[0])


def coherence_time(trace: FieldTrace) -> float:
    """Coherence time of a trace, equivalent-width convention.

    Returns the two-sided integral of |g1(tau)|^2, which for a Lorentzian
    line of FWHM dnu equals 1/(pi dnu) (the full width at 1/e of |g1|^2)
    and for a Gaussian line equals sqrt(2 ln2/pi)/dnu. The integral is
    truncated where |g1| first drops below 0.05; beyond that point the
    estimate is dominated by noise and the true tail contributes under
    0.3 percent.

    Raises EstimationError when |g1| never decays below the threshold
    within half the trace, e.g. for a coherent field.

    The decay is first searched over a short lag range, whose lag sums cost
    block-wise FFTs only; the full half trace is searched only if |g1|
    stays above the threshold there.
    """
    half = trace.n_samples // 2
    for max_lag in sorted({min(_LAG_BLOCK // 4, half), half}):
        g1 = _g1_magnitude(trace, max_lag)
        below = np.flatnonzero(g1 < G1_DECAY_THRESHOLD)
        if below.size:
            k_star = int(below[0])
            return float(2.0 * np.trapezoid(g1[: k_star + 1] ** 2, dx=trace.dt))
    raise EstimationError(
        "field correlation does not decay below "
        f"{G1_DECAY_THRESHOLD} within half the trace"
    )


def estimate_bandwidth_hz(trace: FieldTrace, n_segments: int = 64) -> float:
    """FWHM of the field power spectrum, from a segment-averaged periodogram.

    Used by absorber-model validity checks. A constant (coherent) envelope
    returns one frequency bin, i.e. roughly 1/duration.
    """
    e = trace.samples
    n = e.size
    seg_len = max(16, n // n_segments)
    n_whole = n // seg_len
    if n_whole < 1:
        raise InvalidArgumentError("trace too short for a spectral estimate")
    segs = e[: n_whole * seg_len].reshape(n_whole, seg_len)
    psd = np.mean(np.abs(np.fft.fft(segs, axis=1)) ** 2, axis=0)
    psd = np.fft.fftshift(psd)
    freqs = np.fft.fftshift(np.fft.fftfreq(seg_len, trace.dt))
    df = float(freqs[1] - freqs[0])

    def _width_bins(spectrum: np.ndarray) -> float:
        # Outermost half-maximum crossings. Interior noise dips do not
        # matter; spurious outer bumps are suppressed by the averaging.
        half = spectrum.max() / 2.0
        above = np.flatnonzero(spectrum >= half)
        i_lo, i_hi = int(above[0]), int(above[-1])

        def _cross(i_out: int, i_in: int) -> float:
            p_out, p_in = spectrum[i_out], spectrum[i_in]
            if p_in == p_out:
                return float(i_out)
            return i_out + (half - p_out) / (p_in - p_out) * (i_in - i_out)

        lo = _cross(i_lo - 1, i_lo) if i_lo > 0 else float(i_lo)
        hi = _cross(i_hi + 1, i_hi) if i_hi < spectrum.size - 1 else float(i_hi)
        return max(hi - lo, 1.0)

    # Two passes: a rough width picks the smoothing window, then the FWHM
    # is read off the smoothed spectrum. Per-bin periodogram noise would
    # otherwise bias the peak (and so the half level) upward.
    rough = _width_bins(psd)
    kernel = max(1, int(round(rough / 8.0)))
    if kernel > 1:
        smoothed = np.convolve(psd, np.ones(kernel) / kernel, mode="same")
    else:
        smoothed = psd
    return max(_width_bins(smoothed) * df, df)


def nominal_g2(spec: SourceSpec) -> float:
    """Closed-form expected g2(0) for a source spec."""
    if spec.statistics == "thermal-gaussian":
        return 2.0
    if spec.statistics == "coherent":
        e2 = spec.amplitude_noise**2
        return (1.0 + 6.0 * e2 + 3.0 * e2 * e2) / (1.0 + e2) ** 2
    if spec.statistics == "pseudo-thermal":
        return 2.0 - 1.0 / spec.mode_count
    if spec.statistics == "tunable":
        return spec.target_g2
    raise InvalidArgumentError(f"unknown statistics class {spec.statistics!r}")
