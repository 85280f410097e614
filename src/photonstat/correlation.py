"""Coherence-function estimators with block-bootstrap uncertainties.

The estimators are plain time averages over one long stationary trace:

    g2(tau)  = <I(t) I(t+tau)> / <I>^2
    gn(0)    = <I^n> / <I>^n

Normalization always uses the global trace mean; per-block normalization
biases g2 low in the presence of slow drifts. Standard errors come from a
moving-block bootstrap whose block length is at least 10 coherence times,
so intra-block correlations are preserved.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    EstimationError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .seeding import rng_for
from .sources import (
    FieldTrace,
    _block_spectra,
    _fft_len,
    _lag_sums,
    coherence_time,
)

__all__ = [
    "CorrelationEstimate",
    "g2_tau",
    "gn_zero",
    "g2_from_counts",
]

DEFAULT_BOOTSTRAP_REPS = 200
# Derivation index for the internal bootstrap stream, chosen once so that
# estimates are reproducible functions of the trace's seed_id.
_BOOTSTRAP_STREAM = 0xB00F
# g2_tau takes direct lag products, O(n) per lag, while their number times n
# stays below this many times the points of its batched block transforms
# (the measured cost ratio of the two per point, 2-vCPU x86, numpy 2.4).
_FFT_COST = 24


@dataclass
class CorrelationEstimate:
    """A g^(n) estimate: values over delays, with per-point standard errors.

    effective_samples counts the independent blocks (or events) behind the
    estimate, not raw samples.
    """

    order: int
    delays: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    effective_samples: int

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.std_errors = np.asarray(self.std_errors, dtype=float)
        if self.order < 2:
            raise InvalidArgumentError("correlation order must be >= 2")
        if self.values.shape != self.delays.shape:
            raise InvalidArgumentError("values and delays must have equal length")
        if self.std_errors.shape != self.delays.shape:
            raise InvalidArgumentError("std_errors and delays must have equal length")
        if np.any(self.values < 0) or np.any(self.std_errors < 0):
            raise InvalidArgumentError("values and std_errors must be >= 0")
        if self.delays.size > 1 and np.any(np.diff(self.delays) <= 0):
            raise InvalidArgumentError("delays must be strictly increasing")

    @property
    def zero_delay_value(self) -> float:
        if self.delays[0] != 0.0:
            raise InvalidArgumentError("estimate does not include tau = 0")
        return float(self.values[0])

    def to_csv(self, path, metadata: str | None = None) -> None:
        with open(path, "w", newline="") as fh:
            if metadata:
                fh.write(f"# {metadata}\n")
            writer = csv.writer(fh)
            writer.writerow(["tau_s", "g_value", "std_err"])
            for tau, val, err in zip(self.delays, self.values, self.std_errors):
                writer.writerow([repr(float(tau)), repr(float(val)), repr(float(err))])

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "delays_s": [float(t) for t in self.delays],
            "values": [float(v) for v in self.values],
            "std_errors": [float(e) for e in self.std_errors],
            "effective_samples": self.effective_samples,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _bootstrap_block_len(trace: FieldTrace) -> int:
    """Block length covering >= 10 coherence times (or a 1/200 trace split)."""
    n = trace.n_samples
    try:
        prefix = trace.samples[: min(n, 1 << 20)]
        tau_c = coherence_time(FieldTrace(prefix, trace.dt, trace.carrier_freq, 0))
        ten_tau = int(np.ceil(10.0 * tau_c / trace.dt))
    except EstimationError:
        # No decay (e.g. coherent light): intensity is uncorrelated or
        # constant, any split works.
        ten_tau = 1
    return max(ten_tau, n // 200, 1)


def _block_means(x: np.ndarray, block_len: int, nb: int) -> np.ndarray:
    """Means of the first nb consecutive blocks of block_len samples."""
    return x[: nb * block_len].reshape(nb, block_len).mean(axis=1)


def _block_bootstrap_se(
    num_blocks: np.ndarray,
    den_blocks: np.ndarray,
    power: int,
    n_reps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """SEs of mean(num)/mean(den)^power under a block bootstrap.

    num_blocks (nb x m) holds per-block means of m numerators, den_blocks
    (nb,) those of the denominator. Each replicate draws nb block indices
    once and resamples every numerator jointly with the denominator, so all
    m estimates share one resampling; the draw counts enter as weights.
    """
    nb = den_blocks.size
    if nb < 2:
        return np.zeros(num_blocks.shape[1])
    idx = rng.integers(0, nb, size=(n_reps, nb))
    idx += nb * np.arange(n_reps)[:, None]
    weights = np.bincount(idx.ravel(), minlength=n_reps * nb).reshape(n_reps, nb) / nb
    reps = (weights @ num_blocks) / (weights @ den_blocks)[:, None] ** power
    return np.std(reps, axis=0, ddof=1)


def _intensity(trace: FieldTrace) -> np.ndarray:
    intensity = trace.intensity()
    if np.mean(intensity) <= 0:
        raise DegenerateInputError("trace has zero mean power")
    return intensity


def g2_tau(
    trace: FieldTrace,
    delays,
    n_bootstrap: int = DEFAULT_BOOTSTRAP_REPS,
    block_len: int | None = None,
) -> CorrelationEstimate:
    """Estimate g2 over a set of delays.

    Delays are rounded to the nearest sample and the rounded values are
    recorded in the output. Negative delays map onto |tau|; the estimator
    is exactly symmetric. The largest requested |delay| must stay below
    half the trace duration.

    All delays share one bootstrap: nb = (n - max lag) // block_len blocks
    from the trace start, and one draw of nb block indices per replicate.
    """
    intensity = _intensity(trace)
    n = intensity.size
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    if delays.size == 0:
        raise InvalidArgumentError("delays must be non-empty")
    if not np.all(np.isfinite(delays)):
        raise InvalidArgumentError("delays must be finite")
    lags = np.round(np.abs(delays) / trace.dt).astype(int) * np.sign(delays).astype(int)
    if np.abs(lags).max() >= n // 2:
        raise InvalidArgumentError(
            "largest delay exceeds half the trace duration"
        )
    rounded = lags * trace.dt
    if rounded.size > 1 and np.any(np.diff(rounded) <= 0):
        raise InvalidArgumentError(
            "delays must be strictly increasing after rounding to the sample grid"
        )
    if block_len is None:
        block_len = _bootstrap_block_len(trace)
    # Every delay shares the blocks that fit below the largest lag.
    abs_lags, inverse = np.unique(np.abs(lags), return_inverse=True)
    nb = (n - int(abs_lags[-1])) // block_len
    totals, num_blocks = _intensity_lag_sums(intensity, abs_lags, block_len, nb)
    mean_i = float(np.mean(intensity))
    values = totals / (n - abs_lags) / mean_i**2
    rng = rng_for(trace.seed_id, _BOOTSTRAP_STREAM)
    errors = _block_bootstrap_se(
        num_blocks, _block_means(intensity, block_len, nb), 2, n_bootstrap, rng
    )
    n_blocks = n // block_len
    return CorrelationEstimate(2, rounded, values[inverse], errors[inverse], n_blocks)


def _intensity_lag_sums(
    intensity: np.ndarray, lags: np.ndarray, block_len: int, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lag products I[t] I[t + k] for ascending distinct lags k.

    Returns their sums over t < n - k, and their per-block means over the
    first nb blocks of block_len samples (nb x lags; nb block_len + k_max
    <= n). With many lags the sums come from one _lag_sums and the block
    means from one batched rfft correlating each block with its
    (block_len + k_max) window, O(n log n) whatever the number of lags.
    A few lags, or a k_max so far beyond block_len that the windows outgrow
    the trace, are cheaper as direct products at O(n) each.
    """
    n = intensity.size
    k_max = int(lags[-1])
    m = _fft_len(block_len + k_max)
    if nb == 0 or lags.size * n <= _FFT_COST * nb * m:
        totals = np.empty(lags.size)
        blocks = np.empty((nb, lags.size))
        for j, k in enumerate(lags):
            products = intensity[: n - k] * intensity[k:]
            totals[j] = products.sum()
            blocks[:, j] = _block_means(products, block_len, nb)
        return totals, blocks
    totals = _lag_sums(intensity, k_max)[lags]
    spectra = _block_spectra(intensity, block_len, nb, k_max, m)
    blocks = [np.fft.irfft(spec, m, axis=1)[:, lags] for spec in spectra]
    return totals, np.concatenate(blocks) / block_len


def gn_zero(
    trace: FieldTrace,
    n: int,
    n_bootstrap: int = DEFAULT_BOOTSTRAP_REPS,
    block_len: int | None = None,
) -> CorrelationEstimate:
    """Estimate the zero-delay n-th order coherence <I^n>/<I>^n, 2 <= n <= 6."""
    if not 2 <= n <= 6:
        raise InvalidArgumentError("order must satisfy 2 <= n <= 6")
    intensity = _intensity(trace)
    if block_len is None:
        block_len = _bootstrap_block_len(trace)
    rng = rng_for(trace.seed_id, _BOOTSTRAP_STREAM, n)
    powered = intensity**n
    value = float(np.mean(powered)) / float(np.mean(intensity)) ** n
    n_blocks = intensity.size // block_len
    err = _block_bootstrap_se(
        _block_means(powered, block_len, n_blocks)[:, None],
        _block_means(intensity, block_len, n_blocks),
        n,
        n_bootstrap,
        rng,
    )[0]
    return CorrelationEstimate(
        n, np.array([0.0]), np.array([value]), np.array([err]), n_blocks
    )


def g2_from_counts(
    timestamps, bin_width: float, max_delay: float
) -> CorrelationEstimate:
    """Estimate g2(tau) from photon arrival times.

    Arrival times are binned at bin_width; the normalized coincidence
    histogram uses the factorial moment n(n-1) in the zero-delay bin and
    corrects finite-duration edge effects by the (T - tau) pair count.
    Standard errors are Poissonian in the per-bin coincidence counts.
    """
    if bin_width <= 0:
        raise InvalidArgumentError("bin_width must be positive")
    if max_delay < bin_width:
        raise InvalidArgumentError("max_delay must be at least one bin")
    times = np.sort(np.asarray(timestamps, dtype=float))
    if times.size < 1000:
        raise InsufficientDataError(
            f"need >= 1000 events, got {times.size}"
        )
    n_unique = np.unique(times).size
    if times.size - n_unique > 0.01 * times.size:
        raise DegenerateInputError(
            "more than 1 percent duplicated timestamps: the zero-delay bin "
            "diverges, input looks corrupted or artificially paired"
        )
    rel = times - times[0]
    bin_idx = np.floor(rel / bin_width).astype(np.int64)
    n_bins = int(bin_idx[-1]) + 1
    k_max = int(round(max_delay / bin_width))
    if k_max >= n_bins // 2:
        raise InvalidArgumentError("max_delay exceeds half the stream duration")
    total = float(times.size)
    mean_per_bin = total / n_bins
    # Autocorrelation of the integer counts. No reference to them is kept
    # here, so a one-FFT _lag_sums frees them before its inverse transform;
    # the block-wise path converts them to float one batch at a time.
    raw = _lag_sums(np.bincount(bin_idx, minlength=n_bins), k_max)
    pair_counts = np.empty(k_max + 1)
    pair_counts[0] = raw[0] - total  # sum n(n-1)
    pair_counts[1:] = raw[1:]
    norm_bins = n_bins - np.arange(k_max + 1, dtype=float)
    values = (pair_counts / norm_bins) / mean_per_bin**2
    errors = np.sqrt(np.maximum(pair_counts, 1.0)) / norm_bins / mean_per_bin**2
    delays = np.arange(k_max + 1) * bin_width
    return CorrelationEstimate(2, delays, np.maximum(values, 0.0), errors, int(total))
