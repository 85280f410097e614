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
from .sources import FieldTrace, _fft_len, coherence_time

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


def _block_bootstrap_ratio(
    num_samples: np.ndarray,
    den_samples: np.ndarray,
    power: int,
    block_len: int,
    n_reps: int,
    rng: np.random.Generator,
) -> float:
    """SE of mean(num)/mean(den)^power under a block bootstrap.

    num_samples and den_samples may have different lengths; blocks are
    resampled jointly by index so numerator and denominator stay coupled.
    """
    nb = min(num_samples.size, den_samples.size) // block_len
    if nb < 2:
        return 0.0
    num_blocks = np.add.reduceat(
        num_samples[: nb * block_len], np.arange(0, nb * block_len, block_len)
    )
    den_blocks = np.add.reduceat(
        den_samples[: nb * block_len], np.arange(0, nb * block_len, block_len)
    )
    idx = rng.integers(0, nb, size=(n_reps, nb))
    num_means = num_blocks[idx].sum(axis=1) / (nb * block_len)
    den_means = den_blocks[idx].sum(axis=1) / (nb * block_len)
    reps = num_means / den_means**power
    return float(np.std(reps, ddof=1))


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
    """
    intensity = _intensity(trace)
    n = intensity.size
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    if not np.all(np.isfinite(delays)):
        raise InvalidArgumentError("delays must be finite")
    lags = np.round(np.abs(delays) / trace.dt).astype(int) * np.sign(delays).astype(int)
    if np.abs(lags).max(initial=0) >= n // 2:
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
    rng = rng_for(trace.seed_id, _BOOTSTRAP_STREAM)
    mean_i = float(np.mean(intensity))
    values = np.empty(rounded.size)
    errors = np.empty(rounded.size)
    for j, lag in enumerate(np.abs(lags)):
        products = intensity[: n - lag] * intensity[lag:] if lag else intensity**2
        values[j] = float(np.mean(products)) / mean_i**2
        errors[j] = _block_bootstrap_ratio(
            products, intensity, 2, block_len, n_bootstrap, rng
        )
    n_blocks = n // block_len
    return CorrelationEstimate(2, rounded, values, errors, n_blocks)


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
    err = _block_bootstrap_ratio(
        powered, intensity, n, block_len, n_bootstrap, rng
    )
    n_blocks = intensity.size // block_len
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
    counts = np.bincount(bin_idx, minlength=n_bins).astype(float)
    total = counts.sum()
    mean_per_bin = total / n_bins
    # Full autocorrelation of the count sequence via FFT.
    nfft = _fft_len(n_bins + k_max + 1)
    ft = np.fft.rfft(counts, nfft)
    raw = np.fft.irfft(ft * np.conj(ft), nfft)[: k_max + 1]
    pair_counts = np.empty(k_max + 1)
    pair_counts[0] = raw[0] - total  # sum n(n-1)
    pair_counts[1:] = raw[1:]
    norm_bins = n_bins - np.arange(k_max + 1, dtype=float)
    values = (pair_counts / norm_bins) / mean_per_bin**2
    errors = np.sqrt(np.maximum(pair_counts, 1.0)) / norm_bins / mean_per_bin**2
    delays = np.arange(k_max + 1) * bin_width
    return CorrelationEstimate(2, delays, np.maximum(values, 0.0), errors, int(total))
