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

make_trace builds every class and is a pure function of
(spec, duration, dt, seed).

On glibc, importing the package fixes malloc's trim and mmap thresholds
(256 and 64 MiB) so freed temporaries stay in the heap instead of being
faulted in afresh; a MALLOC_*_ variable or a glibc.malloc. tunable keeps
the user's own setting. No result depends on it.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import warnings
from dataclasses import InitVar, dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    EstimationError,
    InvalidArgumentError,
    SamplingError,
)
from .seeding import derive_seed, rng_for, thread_map

__all__ = [
    "FieldTrace",
    "SourceSpec",
    "make_trace",
    "coherence_time",
    "nominal_coherence_time",
    "trace_grid",
    "nominal_g2",
]

# Speed of light in vacuum, m/s (exact in SI).
SPEED_OF_LIGHT = 299792458.0
STATISTICS_CLASSES = ("thermal-gaussian", "coherent", "pseudo-thermal", "tunable")
SPECTRAL_SHAPES = ("gaussian", "lorentzian")

# |g1| threshold below which the field is considered decorrelated; used by
# coherence_time truncation and by its decay precondition.
G1_DECAY_THRESHOLD = 0.05
# Block geometry of _lag_sums: the shortest block, and the points of a
# _window_lag_sums call from which it runs on a pool; it transforms
# _CHUNK_POINTS / 16 points at a time.
_LAG_BLOCK = 8192
_CHUNK_POINTS = 1 << 20
# Threads that transform the sub-chunks of _window_lag_sums: the
# process's CPUs.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# glibc's dynamic mmap and trim thresholds give each freed 1-32 MB array
# back to the OS, and the next one faults it in again, zeroed page by page.
# Fixed thresholds keep arrays below 64 MiB in the heap and trim it only
# past 256 MiB free at the top. Both must be set: either one alone turns the
# dynamic threshold off and leaves the other at its small default.
_MALLOC_ENV = (
    "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_MMAP_THRESHOLD_",
    "MALLOC_TOP_PAD_",
    "MALLOC_MMAP_MAX_",
)


def _set_heap_policy() -> None:
    """Fix glibc's trim and mmap thresholds, unless the platform is not
    glibc or the environment configures malloc itself."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc") or any(k in os.environ for k in _MALLOC_ENV):
        return
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD


_set_heap_policy()

# Margin of the no-decay certificate over G1_DECAY_THRESHOLD, far above the
# rounding of the sums it is computed from.
_CERTIFICATE_MARGIN = 1e-9
_SMALLEST_NORMAL = float(np.finfo(np.float64).smallest_normal)


@dataclass(frozen=True, eq=False)
class FieldTrace:
    """One sampled realization of a complex optical envelope.

    samples are in sqrt(W), dt in seconds, carrier_freq is the optical
    angular frequency in rad/s. seed_id records the seed that produced the
    realization so downstream estimators can derive reproducible substreams.

    A trace is an immutable value. samples is a read-only complex128 array:
    a copy of the caller's array, or with copy=False the array itself (the
    generators and read_trace hand over arrays nobody else holds). NaN and
    inf samples are refused, as are a total power sum |E|^2 that overflows,
    a dt that is not a normal float and a duration that is not finite.
    What is derived from the samples is computed on first use and cached:
    intensity(), mean_power(), moment(n), the coherence_time (or its
    EstimationError) and bootstrap_block_len (from that whole-trace
    coherence time). A field dominated by its mean, such as coherent light,
    is shown not to decay in O(n), with no lag sum.
    """

    samples: np.ndarray
    dt: float
    carrier_freq: float
    seed_id: int
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool) -> None:
        convert = np.array if copy else np.asarray
        samples = convert(self.samples, dtype=np.complex128)
        if not math.isfinite(self.carrier_freq):
            raise InvalidArgumentError("carrier_freq must be finite")
        if samples.ndim != 1 or samples.size < 2:
            raise InvalidArgumentError("a trace needs a 1-D array of 2 or more samples")
        if not (_SMALLEST_NORMAL <= self.dt and samples.size * self.dt < math.inf):
            raise InvalidArgumentError(
                "dt must be a positive normal float and the duration finite"
            )
        # One reduction, sum |E|^2, instead of an n-sized boolean temporary:
        # NaN or inf samples make it non-finite, and so does a total power
        # that overflows. einsum, not np.vdot: a BLAS call's threads spin
        # against thread_map's workers (threaded hbt ran ~40 % slower).
        flat = samples.view(np.float64) if samples.flags.c_contiguous else abs(samples)
        if not math.isfinite(np.einsum("i,i->", flat, flat)):
            raise InvalidArgumentError("samples and their total power must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_moments", {})

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt

    @cached_property
    def _intensity(self) -> np.ndarray:
        intensity = np.abs(self.samples)
        intensity **= 2
        intensity.flags.writeable = False
        return intensity

    def intensity(self) -> np.ndarray:
        """Instantaneous power |E|^2 in W, as a cached read-only array."""
        return self._intensity

    def intensity_power(self, n: int) -> np.ndarray:
        """I^n (a new array for n > 1); its mean is cached as moment(n).
        Raises DegenerateInputError where that mean overflows float64."""
        with np.errstate(over="ignore"):
            powered = self._intensity**n if n > 1 else self._intensity
            mean = float(np.mean(powered))
        if mean == math.inf:
            raise DegenerateInputError(f"<I^{n}> overflows float64; rescale the trace")
        self._moments.setdefault(n, mean)
        return powered

    def moment(self, n: int, normalized: bool = False) -> float:
        """<I^n> in W^n, or <I^n>/<I>^n when normalized; cached per n.

        Raw moments are the float of np.mean of I^n over the whole trace, so
        every caller gets the same bits. Normalizing raises
        DegenerateInputError where normalizer(n) does, before I^n is formed.
        """
        if normalized:
            scale = self.normalizer(n)  # first: refuses a scale where I^n overflows
            return self.moment(n) / scale
        if n not in self._moments:
            self.intensity_power(n)
        return self._moments[n]

    def normalizer(self, order: int) -> float:
        """<I>^order, the denominator of an order-`order` coherence.

        Raises DegenerateInputError for zero mean power, and for an
        intensity scale at which <I>^order is not a normal float or at which
        a sum of up to 4N products of `order` intensities (N samples) could
        overflow: each product is at most (N <I>)^order, and the FFT lag
        sums of g2_tau add fewer terms.
        """
        mean = self.moment(1)
        if mean <= 0:
            raise DegenerateInputError("trace has zero mean power")
        n = self.samples.size
        try:
            scale, top = mean**order, 4 * n * (n * mean) ** order
        except OverflowError:
            scale = top = math.inf
        if not (_SMALLEST_NORMAL <= scale and top < math.inf):
            raise DegenerateInputError(
                f"mean power {mean:.3g} W of {n} samples is out of float64 "
                f"range for order-{order} coherence; rescale the trace"
            )
        return scale

    def mean_power(self) -> float:
        """<I> in W, moment(1)."""
        return self.moment(1)

    @cached_property
    def _tau_c(self) -> float | None:
        return _coherence_time(self.samples, self.dt)

    @cached_property
    def bootstrap_block_len(self) -> int:
        """Estimator bootstrap block: >= 10 coherence times and >= n // 200.

        The coherence time is the trace's own cached one, so the block
        length costs no second coherence pass. Without decay (coherent
        light) the intensity is uncorrelated or constant: any split works.
        Where the no-decay certificate of coherence_time applies, the block
        length costs O(n) and no lag sum.
        """
        tau_c = self._tau_c
        ten_tau = 1 if tau_c is None else int(np.ceil(10.0 * tau_c / self.dt))
        return max(ten_tau, self.n_samples // 200, 1)


@dataclass(frozen=True)
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
        # Chained comparisons are False for NaN, so these refuse NaN and inf.
        if not 0 < self.center_wavelength < math.inf:
            raise InvalidArgumentError("center_wavelength must be positive and finite")
        if not 0 < self.bandwidth_fwhm < math.inf:
            raise InvalidArgumentError("bandwidth must be positive and finite")
        if not 0 < self.mean_power < math.inf:
            raise InvalidArgumentError("mean_power must be positive and finite")
        if self.mode_count < 1:
            raise InvalidArgumentError("pseudo-thermal mode count must be >= 1")
        if not 1.0 <= self.target_g2 < math.inf:
            raise InvalidArgumentError(
                "target_g2 must be finite; below 1 it is not reachable by a "
                "classical intensity mixture"
            )
        if not 0 <= self.amplitude_noise < math.inf:
            raise InvalidArgumentError("amplitude_noise must be >= 0 and finite")

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
    """Unnormalized baseband power spectral density at freqs, computed in
    place in the float array freqs, which is returned."""
    if shape == "gaussian":
        freqs /= fwhm_hz
        freqs **= 2
        freqs *= -4.0 * np.log(2.0)
        return np.exp(freqs, out=freqs)
    # Lorentzian with FWHM fwhm_hz
    freqs *= 2.0
    freqs /= fwhm_hz
    freqs **= 2
    freqs += 1.0
    return np.divide(1.0, freqs, out=freqs)


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


def trace_grid(
    spec: SourceSpec, duration_over_tauc: float, samples_per_tauc: float
) -> tuple[float, float, float]:
    """(tau_c, duration, dt) of a trace duration_over_tauc nominal coherence
    times of spec long, sampled samples_per_tauc times per coherence time."""
    over, per = float(duration_over_tauc), float(samples_per_tauc)
    if not (0 < over < math.inf and 0 < per < math.inf):
        raise InvalidArgumentError(
            "duration_over_tauc and samples_per_tauc must be positive and "
            f"finite, got {duration_over_tauc!r} and {samples_per_tauc!r}"
        )
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    return tau_c, over * tau_c, tau_c / per


def _renormalize(envelope: np.ndarray, mean_power: float) -> np.ndarray:
    """Scale the envelope in place so the realized time-averaged power is
    exact; returns it."""
    power = np.abs(envelope)
    power **= 2
    p = np.mean(power)
    if p == 0:
        raise DegenerateInputError("generated envelope has zero power")
    envelope *= np.sqrt(mean_power / p)
    return envelope


def _thermal(spec: SourceSpec, n: int, dt: float, seed: int) -> np.ndarray:
    rng = rng_for(seed)
    z = np.empty(n, dtype=np.complex128)
    z.real = rng.standard_normal(n)
    z.imag = rng.standard_normal(n)
    z /= np.sqrt(2.0)
    density = _spectral_density(np.fft.fftfreq(n, dt), spec.spectral_shape, spec.bandwidth_hz)
    z *= np.sqrt(density, out=density)
    del density
    return _renormalize(np.fft.ifft(z, out=z), spec.mean_power)


def _coherent(spec: SourceSpec, n: int, dt: float, seed: int) -> np.ndarray:
    rng = rng_for(seed)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    eps = spec.amplitude_noise
    if eps == 0.0:
        return np.full(n, np.sqrt(spec.mean_power) * phase)
    amp = rng.standard_normal(n)
    amp *= eps
    amp += 1.0
    envelope = amp.astype(np.complex128)
    del amp
    envelope *= phase
    return _renormalize(envelope, spec.mean_power)


def _pseudothermal(spec: SourceSpec, n: int, dt: float, seed: int) -> np.ndarray:
    m = spec.mode_count
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
    return _renormalize(envelope, spec.mean_power)


def _tunable(spec: SourceSpec, n: int, dt: float, seed: int) -> np.ndarray:
    target_g2 = spec.target_g2
    if target_g2 == 1.0:
        return _coherent(replace(spec, amplitude_noise=0.0), n, dt, seed)
    base = _thermal(spec, n, dt, seed)
    if target_g2 == 2.0:
        return base
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    seg = max(2, int(round(16.0 * tau_c / dt)))
    n_seg = (n + seg - 1) // seg
    full = n // seg
    # The segments as rows of views into base: the whole ones, then the
    # ragged last one (no rows when seg divides n).
    parts = (
        (base[: full * seg].reshape(full, seg), slice(0, full)),
        (base[full * seg :].reshape(n_seg - full, n - full * seg), slice(full, n_seg)),
    )
    rng = rng_for(seed, 1)
    if target_g2 <= 2.0:
        p = target_g2 - 1.0
        thermal = rng.random(n_seg) < p
        level = np.sqrt(spec.mean_power) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_seg))
        for rows, k in parts:
            coherent = ~thermal[k]
            rows[coherent] = level[k][coherent, None]
    else:
        q = 2.0 / target_g2
        on = rng.random(n_seg) < q
        if not on.any():
            raise DegenerateInputError(
                f"tunable g2 {target_g2:g}: all {n_seg} segments of the trace "
                f"drew off at duty cycle 2/g2 = {q:.3g}; a longer trace fixes it"
            )
        base /= np.sqrt(q)
        for rows, k in parts:
            rows[~on[k]] = 0.0
    return _renormalize(base, spec.mean_power)


_BUILDERS = {
    "thermal-gaussian": _thermal,
    "coherent": _coherent,
    "pseudo-thermal": _pseudothermal,
    "tunable": _tunable,
}


def make_trace(spec: SourceSpec, duration: float, dt: float, seed: int) -> FieldTrace:
    """Synthesize one field realization of spec's statistics class.

    Every class takes spec's spectrum and carrier, and its realized
    time-averaged power is normalized to spec.mean_power:

    * thermal-gaussian: white complex Gaussian noise shaped in the
      frequency domain by the square root of the power spectral density.
      The result is exactly Gaussian at every sample count, so the
      intensity moments carry no mode-count bias.
    * coherent: E = sqrt(P) (1 + eps xi(t)) exp(i phi0) with independent
      Gaussian xi and eps = spec.amplitude_noise, so
      g2(0) = (1 + 6 eps^2 + 3 eps^4) / (1 + eps^2)^2. At eps = 0 the
      envelope is exactly constant and every normalized moment is 1.
    * pseudo-thermal: M = spec.mode_count equal-amplitude modes with
      independent uniform phases and frequencies drawn from the spectral
      shape, so g2(0) = 2 - 1/M.
    * tunable: expected g2(0) = spec.target_g2. At 1 it is the coherent
      field with eps = 0, at 2 the thermal one. Between them each segment
      of about 16 coherence times is thermal with probability
      p = target_g2 - 1 and coherent with a fresh random phase otherwise,
      both at the same mean power, so <I^2>/<I>^2 = 2p + (1 - p). Above 2
      thermal segments are gated on with duty cycle q = 2/target_g2 and
      scaled by 1/sqrt(q), giving 2/q. No intensity correlation survives
      beyond the coherence time.

    Each generator works in place in the complex array it returns, with
    no other array of n complex samples: the tracemalloc peak is about 2.5
    times the trace's 16 n bytes for thermal and tunable sources (while
    np.fft.fftfreq builds the frequency grid), 1.5 times for the others.

    duration and dt are in seconds and must give at least 2 samples. Every
    class but the constant-envelope ones (coherent, tunable at 1) must
    resolve the bandwidth: dt > 1/(10 dnu) raises SamplingError, and a
    duration under 100 nominal coherence times warns. A pure function of
    (spec, duration, dt, seed).
    """
    build = _BUILDERS.get(spec.statistics)
    if build is None:
        raise InvalidArgumentError(f"unknown statistics class {spec.statistics!r}")
    if not (0 < duration < math.inf and 0 < dt < math.inf):
        raise InvalidArgumentError("duration and dt must be positive and finite")
    spectral = build is not _coherent and not (build is _tunable and spec.target_g2 == 1.0)
    dnu = spec.bandwidth_hz
    if spectral and dt > 1.0 / (10.0 * dnu):
        raise SamplingError(
            f"dt = {dt:.3e} s too coarse for bandwidth {dnu:.3e} Hz; "
            f"need dt <= {1.0 / (10.0 * dnu):.3e} s"
        )
    n = int(round(duration / dt))
    if n < 2:
        raise InvalidArgumentError("duration/dt must give at least 2 samples")
    tau_c = nominal_coherence_time(spec.spectral_shape, dnu)
    if spectral and duration < 100.0 * tau_c:
        warnings.warn(
            f"duration {duration:.3e} s is below 100 coherence times "
            f"({100.0 * tau_c:.3e} s); estimates will be noisy",
            stacklevel=2,
        )
    samples = build(spec, n, dt, seed)
    return FieldTrace(samples, dt, spec.carrier_freq, derive_seed(seed), copy=False)


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


def _power_lag_sums(power: np.ndarray, m: int, max_lag: int, real: bool) -> np.ndarray:
    """ifft(power)[..., :max_lag + 1] of real m-point spectra (last axis):
    irfft of |rfft|^2 when real, else conj(rfft(power)) / m, which reaches
    max_lag whenever m >= 2 max_lag. The inverse of |F|^2 is a lag sum."""
    if real:
        return np.fft.irfft(power, m)[..., : max_lag + 1]
    return np.conj(np.fft.rfft(power)[..., : max_lag + 1]) / m


def _lag_sums(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sums over t < n - k of conj(x[t]) x[t + k], for k = 0..max_lag.

    Real for real x, complex otherwise. For max_lag small next to n,
    _block_lag_sums covers blocks of max(8192, 4 max_lag) samples and one
    FFT the tail: short batched transforms stay in cache and nothing of
    size n is allocated. Otherwise one FFT of _fft_len(n + max_lag + 1)
    points gives every lag from |F(x)|^2.
    """
    n = x.size
    real = not np.iscomplexobj(x)
    block = max(_LAG_BLOCK, 4 * max_lag)
    nb = (n - max_lag) // block
    if nb >= 4:
        head = _block_lag_sums(x, block, nb, max_lag)
        return head + _lag_sums(x[nb * block :], max_lag)
    nfft = _fft_len(n + max_lag + 1)
    spec = np.fft.rfft(x, nfft) if real else np.fft.fft(x, nfft)
    del x
    power = spec.real**2
    power += spec.imag**2
    del spec
    return _power_lag_sums(power, nfft, max_lag, real).copy()


def _block_lag_sums(x: np.ndarray, block: int, nb: int, max_lag: int, per_block=False):
    """Lag sums of the pairs that start in each of the first nb blocks.

    Row b sums conj(x[bL + t]) x[bL + t + k] over t < L = block, k <= max_lag
    (nb L + max_lag <= n); per_block returns the rows, else their sum. The
    windows x[bL : bL + L + max_lag] are rows of one strided view of x,
    which _window_lag_sums reads a range of rows at a time; nothing is
    copied until a row is transformed.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, block + max_lag)[::block]
    return _window_lag_sums(lambda a, b: windows[a:b], nb, block, max_lag, per_block)


def _window_lag_sums(rows, count: int, block: int, max_lag: int, per_block=False):
    """Lag sums of the pairs that start in the first L = block values of
    each of count window rows, for k <= max_lag.

    rows(a, b) returns rows a..b-1, each a window w of L + max_lag values.
    Every row is transformed once at m = _fft_len(L + 2 max_lag) points and
    |W|^2 inverted, less the lag sums of its overlap w[L:] (from
    _fft_len(2 max_lag) points). per_block returns one row of sums per
    window. Else each sub-chunk's power spectra are summed over its rows,
    the main thread adds these in row order into one spectrum per part,
    and each part is inverted once.

    The rows go through in sub-chunks of about _CHUNK_POINTS / 16
    transformed points. A call of at least _CHUNK_POINTS points made on the
    main thread hands them to _WORKERS threads (numpy's FFTs release the
    GIL). Calls from thread_map workers (hbt --threads,
    reproduce_fig2(threads=...)) stay serial, so no pool is nested. The
    sub-chunks and the order of the additions are the same at any worker
    count, and so are the bits.
    """
    sizes = (_fft_len(block + 2 * max_lag), _fft_len(2 * max_lag))
    span = max(1, (_CHUNK_POINTS >> 4) // sizes[0])
    workers = 1
    if count * sizes[0] >= _CHUNK_POINTS and threading.current_thread() is threading.main_thread():
        workers = _WORKERS

    def work(first):
        chunk = rows(first, min(first + span, count))
        real = not np.iscomplexobj(chunk)
        fft = np.fft.rfft if real else np.fft.fft
        parts = []
        for part, size in zip((chunk, chunk[:, block:]), sizes):
            spec = fft(part, size)
            power = np.square(spec.real)
            power += np.square(spec.imag)
            del spec
            parts.append(
                _power_lag_sums(power, size, max_lag, real) if per_block else power.sum(axis=0)
            )
        return parts[0] - parts[1] if per_block else (real, parts)

    done = thread_map(work, range(0, count, span), workers)
    if per_block:
        return np.concatenate(list(done))
    real, totals = next(done)
    for _, powers in done:
        for total, power in zip(totals, powers):
            total += power
    sums = [_power_lag_sums(t, size, max_lag, real) for t, size in zip(totals, sizes)]
    return sums[0] - sums[1]


def _g1_magnitude(samples: np.ndarray, max_lag: int) -> np.ndarray:
    """|g1(k dt)| for k = 0..max_lag from the field's lag sums."""
    counts = samples.size - np.arange(max_lag + 1)
    acorr = _lag_sums(samples, max_lag) / counts
    return np.abs(acorr / acorr[0])


def _g1_floor(samples: np.ndarray) -> float:
    """A lower bound on |g1(k)| for every k <= n // 2, in O(n) and no lag sum.

    Write x = mu + y with mu the sample mean, P = <|x|^2> and
    s^2 = P - |mu|^2 = <|y|^2>. The lag-k mean of conj(x[t]) x[t + k] over
    t < n - k is |mu|^2 plus two cross terms, each a mean of n - k values
    of y times mu, plus a mean of conj(y[t]) y[t + k]. Cauchy-Schwarz
    bounds each cross term by |mu| s sqrt(n / (n - k)) and the last term by
    s^2 n / (n - k); with n - k >= n / 2 that gives
    |g1(k)| >= (|mu|^2 - 2 sqrt(2) |mu| s - 2 s^2) / P. NaN where P is
    zero or subnormal (its rounding is then not relative), or so large that
    a lag sum, up to 4 n^2 P, could overflow.
    """
    n = samples.size
    mean = complex(samples.mean())
    mean_sq = mean.real * mean.real + mean.imag * mean.imag
    # einsum, not np.vdot: OpenBLAS's idle threads would spin on a second
    # CPU through the threaded lag sums that follow.
    flat = samples.view(np.float64) if samples.flags.c_contiguous else abs(samples)
    power = float(np.einsum("i,i->", flat, flat)) / n
    if not (_SMALLEST_NORMAL <= power and 4.0 * n * n * power < math.inf):
        return math.nan
    spread_sq = max(power - mean_sq, 0.0)
    bound = mean_sq - 2.0 * math.sqrt(2.0 * mean_sq * spread_sq) - 2.0 * spread_sq
    return bound / power


def _coherence_time(samples: np.ndarray, dt: float) -> float | None:
    """coherence_time of these samples, or None if |g1| never decays or is
    out of float64 range (see _g1_floor)."""
    floor = _g1_floor(samples)
    if math.isnan(floor) or floor > G1_DECAY_THRESHOLD + _CERTIFICATE_MARGIN:
        return None
    half = samples.size // 2
    for max_lag in sorted({min(_LAG_BLOCK // 4, half), half}):
        g1 = _g1_magnitude(samples, max_lag)
        below = np.flatnonzero(g1 < G1_DECAY_THRESHOLD)
        if below.size:
            k_star = int(below[0])
            return float(2.0 * np.trapezoid(g1[: k_star + 1] ** 2, dx=dt))
    return None


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

    First an O(n) certificate: with mu the sample mean, P = <|E|^2> and
    s^2 = P - |mu|^2, every |g1| up to half the trace is at least
    (|mu|^2 - 2 sqrt(2) |mu| s - 2 s^2) / P. When that floor clears the
    threshold (coherent light with relative amplitude noise up to about
    0.28, or a constant field plus a fluctuating part under about 7
    percent of the power), the EstimationError is raised without a lag
    sum. Otherwise the decay is searched over a short lag range, whose lag
    sums cost block-wise FFTs only, and the full half trace only if |g1|
    stays above the threshold there. The outcome is cached on the trace.
    """
    tau_c = trace._tau_c
    if tau_c is None:
        raise EstimationError(
            "field correlation does not decay below "
            f"{G1_DECAY_THRESHOLD} within half the trace"
        )
    return tau_c


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
