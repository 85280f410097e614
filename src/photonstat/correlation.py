"""Coherence-function estimators with block-bootstrap uncertainties.

The estimators are plain time averages over one long stationary trace:

    g2(tau)  = <I(t) I(t+tau)> / <I>^2
    gn(0)    = <I^n> / <I>^n

Normalization always uses the global trace mean; per-block normalization
biases g2 low in the presence of slow drifts. Standard errors come from a
moving-block bootstrap whose block length is at least 10 coherence times,
so intra-block correlations are preserved.

The intensity, its mean and moments, and the bootstrap block length are
cached on the FieldTrace, so estimators called one after another on one
trace compute each of them once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .seeding import rng_for
from .sources import (
    _CHUNK_POINTS,
    FieldTrace,
    _block_lag_sums,
    _fft_len,
    _lag_sums,
    _window_lag_sums,
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
# stays below this many times the points _block_lag_sums transforms. The
# break-even ratio measured for 4.8e4-2e6 samples, block lengths n/200 and
# 1-20 and k_max 40-2000 ran from 6.4 (2e6) to 19 (1.6e5, k_max = 2.5 L),
# 2-vCPU x86, numpy 2.4; 11, near their geometric middle, keeps either path
# within ~1.7x of the cheaper one.
_FFT_COST = 11


def _write_csv(path, metadata: str | None, header: list, rows) -> None:
    """A "# metadata" line (when given), the header, then the rows."""
    with open(path, "w", newline="") as fh:
        if metadata:
            fh.write(f"# {metadata}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _repr_rows(columns):
    """Rows of repr(float) strings from equal-length numeric columns."""
    return ([repr(float(v)) for v in row] for row in zip(*columns))


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

    def to_csv(self, path, metadata: str | None = None) -> None:
        columns = (self.delays, self.values, self.std_errors)
        _write_csv(path, metadata, ["tau_s", "g_value", "std_err"], _repr_rows(columns))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "delays_s": [float(t) for t in self.delays],
            "values": [float(v) for v in self.values],
            "std_errors": [float(e) for e in self.std_errors],
            "effective_samples": self.effective_samples,
        }


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
    A replicate without light, or out of float64 range, raises
    DegenerateInputError: the SE is then not defined.
    """
    nb = den_blocks.size
    if nb < 2:
        return np.zeros(num_blocks.shape[1])
    idx = rng.integers(0, nb, size=(n_reps, nb))
    idx += nb * np.arange(n_reps)[:, None]
    weights = np.bincount(idx.ravel(), minlength=n_reps * nb).reshape(n_reps, nb) / nb
    with np.errstate(all="ignore"):  # checked below
        reps = (weights @ num_blocks) / (weights @ den_blocks)[:, None] ** power
        errors = np.std(reps, axis=0, ddof=1)
    if not np.all(np.isfinite(errors)):
        raise DegenerateInputError(
            "bootstrap: a resample of the trace blocks has no light or a "
            "moment out of float64 range"
        )
    return errors


def _intensity(trace: FieldTrace, order: int) -> np.ndarray:
    """The intensity, once trace.normalizer(order) accepts its scale."""
    trace.normalizer(order)
    return trace.intensity()


def _sample_lags(delays, dt: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(delays as a 1-D float array, their signed nearest-sample lags).

    Refuses empty or non-finite delays and any |delay| that rounds to half
    the n-sample trace or more. That bound is compared before dividing, so
    a huge delay cannot overflow the lag cast.
    """
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    if delays.size == 0:
        raise InvalidArgumentError("delays must be non-empty")
    if not np.all(np.isfinite(delays)):
        raise InvalidArgumentError("delays must be finite")
    top = np.abs(delays).max()
    if top >= (n // 2) * dt or round(top / dt) >= n // 2:
        raise InvalidArgumentError("largest delay exceeds half the trace duration")
    lags = np.round(np.abs(delays) / dt).astype(int) * np.sign(delays).astype(int)
    return delays, lags


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
    intensity = _intensity(trace, 2)
    n = intensity.size
    delays, lags = _sample_lags(delays, trace.dt, n)
    rounded = lags * trace.dt
    if rounded.size > 1 and np.any(np.diff(rounded) <= 0):
        raise InvalidArgumentError(
            "delays must be strictly increasing after rounding to the sample grid"
        )
    if block_len is None:
        block_len = trace.bootstrap_block_len
    # Every delay shares the blocks that fit below the largest lag.
    abs_lags, inverse = np.unique(np.abs(lags), return_inverse=True)
    nb = (n - int(abs_lags[-1])) // block_len
    totals, num_blocks = _intensity_lag_sums(intensity, abs_lags, block_len, nb)
    values = totals / (n - abs_lags) / trace.normalizer(2)
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
    <= n). With many lags both come from one pass of _block_lag_sums: its
    rows give the block means, and their sum plus the lag sums of the tail
    after the last window the totals, O(n log n) whatever the number of
    lags. A few lags, or a k_max so far beyond block_len that the windows
    outgrow the trace, are cheaper as direct products at O(n) each.
    """
    n = intensity.size
    k_max = int(lags[-1])
    points = nb * (_fft_len(block_len + 2 * k_max) + _fft_len(2 * k_max))
    if nb == 0 or lags.size * n <= _FFT_COST * points:
        totals = np.empty(lags.size)
        blocks = np.empty((nb, lags.size))
        for j, k in enumerate(lags):
            products = intensity[: n - k] * intensity[k:]
            totals[j] = products.sum()
            blocks[:, j] = _block_means(products, block_len, nb)
        return totals, blocks
    rows = _block_lag_sums(intensity, block_len, nb, k_max, per_block=True)
    totals = rows.sum(axis=0) + _lag_sums(intensity[nb * block_len :], k_max)
    # Sums of products of intensities are >= 0; an FFT leaves round-off of
    # either sign where the products are all zero (a sparse trace).
    return np.maximum(totals[lags], 0.0), np.maximum(rows[:, lags], 0.0) / block_len


def gn_zero(
    trace: FieldTrace,
    n: int,
    n_bootstrap: int = DEFAULT_BOOTSTRAP_REPS,
    block_len: int | None = None,
) -> CorrelationEstimate:
    """Estimate the zero-delay n-th order coherence <I^n>/<I>^n, 2 <= n <= 6."""
    if not 2 <= n <= 6:
        raise InvalidArgumentError("order must satisfy 2 <= n <= 6")
    intensity = _intensity(trace, n)
    if block_len is None:
        block_len = trace.bootstrap_block_len
    rng = rng_for(trace.seed_id, _BOOTSTRAP_STREAM, n)
    powered = trace.intensity_power(n)
    value = trace.moment(n, normalized=True)
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


def _count_window(n_events: int, n_bins: int, k_max: int) -> int:
    """The transform length m = L + 2 k_max of _count_lag_sums, 3 * 2^j.

    Batched real transforms of these lengths ran fastest per point (2-vCPU
    x86, numpy 2.4): powers of two from 4096 up were ~25 % slower, and
    2916 = 4 * 3^6 or 10125 = 3^4 5^3 slower too. Of the five such lengths
    from the shortest >= max(6 k_max, 1024), the one of least expected
    transform work:
    m log m plus the same for the overlap per occupied window, with the
    occupied windows counted as if the events were a Poisson stream. Dense
    streams take long windows, so padding and overlaps weigh less; sparse
    ones short, so an isolated event costs little.
    """
    overlap = _fft_len(2 * k_max)

    def cost(m):
        block = m - 2 * k_max
        occupied = -math.expm1(-n_events * block / n_bins) * n_bins / block
        return max(1.0, occupied) * (m * math.log2(m) + overlap * math.log2(overlap))

    shortest = 3 << (-(-max(6 * k_max, 1024) // 3) - 1).bit_length()
    return min((shortest << j for j in range(5)), key=cost)


def _count_lag_sums(bin_idx: np.ndarray, n_bins: int, k_max: int) -> np.ndarray:
    """Sums over t of c[t] c[t + k], k <= k_max, where c[t] counts the
    sorted bin indices equal to t (all below n_bins); exact integers, as
    floats.

    The windows of _window_lag_sums are built from the events: bin e lands
    at offset e - wL of window w = e // L, and at offset L + e - wL of
    window w - 1 when e - wL < k_max (L >= 4 k_max). Only windows holding
    an event are listed (the others sum to zero), one np.bincount per
    batch of about _CHUNK_POINTS points, and bins past the last event
    count as zeros. Memory is O(events + one batch) and time follows the
    occupied windows. Rounding the sums makes the counts independent of
    the window length (_count_window).
    """
    m = _count_window(bin_idx.size, n_bins, k_max)
    block = m - 2 * k_max
    width = block + k_max
    window = bin_idx // block
    starts = np.empty(window.size, dtype=bool)
    starts[0] = True
    np.not_equal(window[1:], window[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    occupied = window[first]
    row = np.repeat(np.arange(first.size), np.diff(first, append=window.size))
    offset = window * block
    np.subtract(bin_idx, offset, out=offset)
    # Events in the first k_max bins of window w whose window w - 1 is
    # listed too, as row - 1.
    lead = np.flatnonzero(offset < k_max)
    lead = lead[row[lead] > 0]
    lead = lead[occupied[row[lead] - 1] == window[lead] - 1]
    del window, starts, first
    # Key row * width + offset; w - 1 holds the same bin at key - k_max.
    keys = row
    keys *= width
    keys += offset
    del offset
    keys = (keys, keys[lead] - k_max)
    step = max(1, _CHUNK_POINTS // m)

    def batches():
        for r0 in range(0, occupied.size, step):
            rows = min(step, occupied.size - r0)
            lo, hi = r0 * width, (r0 + rows) * width
            part = np.concatenate(
                [k[np.searchsorted(k, lo) : np.searchsorted(k, hi)] for k in keys]
            )
            yield np.bincount(part - lo, minlength=rows * width).reshape(rows, width)

    return np.rint(_window_lag_sums(batches(), block, k_max))


# Bin indices below this float (2^63) cast to int64 exactly.
_MAX_BIN_INDEX = 2.0**63


def g2_from_counts(
    timestamps, bin_width: float, max_delay: float
) -> CorrelationEstimate:
    """Estimate g2(tau) from photon arrival times.

    Arrival times are binned at bin_width; the normalized coincidence
    histogram uses the factorial moment n(n-1) in the zero-delay bin and
    corrects finite-duration edge effects by the (T - tau) pair count.
    Standard errors are Poissonian in the per-bin coincidence counts.
    bin_width and max_delay must be positive and finite, and max_delay and
    the stream each span fewer than 2^63 bins (checked before any cast).

    The pair counts are exact integers, taken from the sorted events with
    no histogram of the whole stream (_count_lag_sums): memory follows the
    number of events, not duration / bin_width, and stretches with no
    events cost nothing.
    """
    for name, value in (("bin_width", bin_width), ("max_delay", max_delay)):
        if not 0 < value < np.inf:
            raise InvalidArgumentError(f"{name} must be positive and finite: {value!r}")
    if max_delay < bin_width:
        raise InvalidArgumentError("max_delay must be at least one bin")
    if not max_delay / bin_width < _MAX_BIN_INDEX:
        raise InvalidArgumentError("max_delay / bin_width: over 2^63 bins")
    times = np.sort(np.asarray(timestamps, dtype=float))
    if times.size < 1000:
        raise InsufficientDataError(
            f"need >= 1000 events, got {times.size}"
        )
    # NaN and +inf sort last, -inf first.
    if not (np.isfinite(times[0]) and np.isfinite(times[-1])):
        raise InvalidArgumentError("timestamps must be finite")
    if np.count_nonzero(times[1:] == times[:-1]) > 0.01 * times.size:
        raise DegenerateInputError(
            "more than 1 percent duplicated timestamps: the zero-delay bin "
            "diverges, input looks corrupted or artificially paired"
        )
    if not (times[-1] - times[0]) / bin_width < _MAX_BIN_INDEX:
        raise InvalidArgumentError("bin_width: the stream spans over 2^63 bins")
    # np.sort made times a copy of its own: bin it in place.
    times -= times[0]
    times /= bin_width
    bin_idx = np.floor(times, out=times).astype(np.int64)
    del times
    n_bins = int(bin_idx[-1]) + 1
    k_max = int(round(max_delay / bin_width))
    if k_max >= n_bins // 2:
        raise InvalidArgumentError("max_delay exceeds half the stream duration")
    total = float(bin_idx.size)
    mean_per_bin = total / n_bins
    raw = _count_lag_sums(bin_idx, n_bins, k_max)
    pair_counts = np.empty(k_max + 1)
    pair_counts[0] = raw[0] - total  # sum n(n-1)
    pair_counts[1:] = raw[1:]
    norm_bins = n_bins - np.arange(k_max + 1, dtype=float)
    values = (pair_counts / norm_bins) / mean_per_bin**2
    errors = np.sqrt(np.maximum(pair_counts, 1.0)) / norm_bins / mean_per_bin**2
    delays = np.arange(k_max + 1) * bin_width
    return CorrelationEstimate(2, delays, np.maximum(values, 0.0), errors, int(total))
