"""Coherence-function estimators with block-bootstrap uncertainties.

The estimators are plain time averages over one long stationary trace:

    g2(tau)  = <I(t) I(t+tau)> / <I>^2
    gn(0)    = <I^n> / <I>^n

Standard errors come from a moving-block bootstrap whose block length is
at least 10 coherence times, so intra-block correlations are preserved.
An error bar needs 2 blocks or more. Each g2(tau) value is the statistic
its bootstrap resamples, over the blocks that fit below the largest delay,
normalized by their mean intensity, never per block (that biases g2 low
in the presence of slow drifts).

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
# _count_lag_sums counts pair differences while pairs within k_max number
# at most this many per point the window feeder would transform. Pairs and
# transformed windows, all of them occupied, took equal time at 1.5-2 on
# bunched streams of 2e5 events, k_max 100-1e4 (2-vCPU x86, numpy 2.4).
_PAIR_COST = 1.5


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
    (nb,) those of the denominator, nb >= 2. Each replicate draws nb block
    indices once and resamples every numerator jointly with the denominator,
    so all m estimates share one resampling; the draw counts enter as weights.
    A replicate without light, or out of float64 range, raises
    DegenerateInputError: the SE is then not defined.
    """
    nb = den_blocks.size
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


def _bootstrap_blocks(samples: int, block_len: int, where: str) -> int:
    """samples // block_len, refused below the 2 blocks an error bar needs."""
    if samples // block_len < 2:
        raise InsufficientDataError(f"fewer than 2 bootstrap blocks fit {where}")
    return samples // block_len


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

    All delays share one bootstrap: nb = (n - max lag) // block_len >= 2
    blocks from the trace start, one draw of nb block indices per replicate.
    Each value is its plug-in over those nb * block_len samples: the mean
    of its lag-product block means over the squared mean intensity of the
    same blocks. effective_samples is nb.
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
    nb = _bootstrap_blocks(n - int(abs_lags[-1]), block_len, "below the largest delay")
    num_blocks = _intensity_lag_sums(intensity, abs_lags, block_len, nb)
    den_blocks = _block_means(intensity, block_len, nb)
    rng = rng_for(trace.seed_id, _BOOTSTRAP_STREAM)
    # First: it refuses blocks without light, which the values divide by.
    errors = _block_bootstrap_se(num_blocks, den_blocks, 2, n_bootstrap, rng)
    values = num_blocks.mean(axis=0) / den_blocks.mean() ** 2
    return CorrelationEstimate(2, rounded, values[inverse], errors[inverse], nb)


def _intensity_lag_sums(
    intensity: np.ndarray, lags: np.ndarray, block_len: int, nb: int
) -> np.ndarray:
    """Per-block means of the lag products I[t] I[t + k] for ascending
    distinct lags k, over the first nb blocks of block_len samples (nb x
    lags; nb block_len + k_max <= n).

    With many lags they come from the rows of one pass of _block_lag_sums,
    O(n log n) whatever the number of lags. A few lags, or a k_max so far
    beyond block_len that the windows outgrow the trace, are cheaper as
    direct products of the nb block_len supported samples at O(n) each.
    """
    n = intensity.size
    k_max = int(lags[-1])
    span = nb * block_len
    points = nb * (_fft_len(block_len + 2 * k_max) + _fft_len(2 * k_max))
    if lags.size * n <= _FFT_COST * points:
        blocks = np.empty((nb, lags.size))
        for j, k in enumerate(lags):
            products = intensity[:span] * intensity[k : k + span]
            blocks[:, j] = _block_means(products, block_len, nb)
        return blocks
    rows = _block_lag_sums(intensity, block_len, nb, k_max, per_block=True)
    # Sums of products of intensities are >= 0; an FFT leaves round-off of
    # either sign where the products are all zero (a sparse trace).
    return np.maximum(rows[:, lags], 0.0) / block_len


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
    n_blocks = _bootstrap_blocks(intensity.size, block_len, "in the trace")
    rng = rng_for(trace.seed_id, _BOOTSTRAP_STREAM, n)
    powered = trace.intensity_power(n)
    value = trace.moment(n, normalized=True)
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


def _count_window(n_bins: int, k_max: int) -> int:
    """The transform length m = L + 2 k_max of _count_lag_sums, 3 * 2^j.

    Batched real transforms of these lengths ran fastest per point (2-vCPU
    x86, numpy 2.4): powers of two from 4096 up were ~25 % slower, and
    2916 = 4 * 3^6 or 10125 = 3^4 5^3 slower too. Of the five such lengths
    from the shortest >= max(6 k_max, 1024), the one of least transform
    work over n_bins: m log m plus the same for the overlap, per window of
    L bins and for one window at least.
    """
    overlap = _fft_len(2 * k_max)

    def cost(m):
        windows = max(1.0, n_bins / (m - 2 * k_max))
        return windows * (m * math.log2(m) + overlap * math.log2(overlap))

    shortest = 3 << (-(-max(6 * k_max, 1024) // 3) - 1).bit_length()
    return min((shortest << j for j in range(5)), key=cost)


def _close_gaps(bin_idx: np.ndarray, k_max: int) -> None:
    """Shortens, in place, every gap of more than k_max bins between
    neighbouring sorted bin indices (from 0) to k_max + 1. No pair within
    k_max spans such a gap, so the lag sums to k_max stay, and the span
    is then at most N (k_max + 1) bins for N events."""
    gaps = np.diff(bin_idx)
    # A dense stream often has no such gap: then bin_idx stays as it is.
    if gaps.max() <= k_max:
        return
    np.minimum(gaps, k_max + 1, out=gaps)
    np.cumsum(gaps, out=bin_idx[1:])


def _span_rows(bin_idx: np.ndarray, block: int, k_max: int):
    """The rows(w0, w1) of _window_lag_sums for the windows of L = block
    bins: one np.bincount of the bins [w0 L, w1 L + k_max) per call,
    viewed as overlapping rows (as floats: the transforms read them faster
    than int64). Each batch, or each thread's part of one, builds its own
    histogram. The view is one np.ndarray call: sliding_window_view makes
    a few dozen Python objects, and threads that make them contend for
    the GIL."""

    def rows(w0: int, w1: int) -> np.ndarray:
        lo, hi = np.searchsorted(bin_idx, (w0 * block, w1 * block + k_max))
        hist = np.bincount(
            bin_idx[lo:hi] - w0 * block, minlength=(w1 - w0) * block + k_max
        ).astype(float)
        return np.ndarray((w1 - w0, block + k_max), float, hist, strides=(8 * block, 8))

    return rows


def _pair_floor(events: np.ndarray, block: int, k_max: int) -> float:
    """A lower bound on the event pairs within k_max bins, from the events
    of each window of L = block bins: they pair up within each of
    its cells of k_max + 1 bins, at least n (n / cells - 1) / 2 pairs for
    n events (Cauchy-Schwarz)."""
    cells = -(-block // (k_max + 1))
    return float(events @ (events / cells - 1.0)) / 2


def _pair_reach(bin_idx: np.ndarray, k_max: int, limit: float) -> np.ndarray | None:
    """One past the last event within k_max bins of each event, searched
    per chunk of events; None as soon as the pairs within k_max pass limit."""
    reach = np.empty_like(bin_idx)
    # Bins from the last one less k_max on all reach the end; capping them
    # there keeps b + k_max inside int64.
    cap = int(bin_idx[-1]) - k_max
    pairs = 0
    step = max(1, _CHUNK_POINTS >> 4)
    for lo in range(0, bin_idx.size, step):
        hi = min(lo + step, bin_idx.size)
        ahead = np.minimum(bin_idx[lo:hi], cap)
        ahead += k_max
        reach[lo:hi] = np.searchsorted(bin_idx, ahead, "right")
        # Event i pairs with events i + 1 .. reach[i] - 1.
        pairs += int(reach[lo:hi].sum()) - (hi - lo) * (lo + hi + 1) // 2
        if pairs > limit:
            return None
    return reach


def _pair_lag_sums(bin_idx: np.ndarray, k_max: int, reach: np.ndarray) -> np.ndarray:
    """Sums of c[t] c[t + k] counted from the differences of event pairs;
    reach[i] is one past the last event within k_max bins of event i.

    Only the events with a partner are listed, as lead[r]. With ends[r]
    the pairs of the listed events up to r, event i = lead[r] owns the
    pairs p in [ends[r] - partners[r], ends[r]), and pair p's partner is
    event p + reach[i] - ends[r]. The differences are
    histogrammed in chunks of _CHUNK_POINTS pairs; the N same-event
    products and both orders of each same-bin pair make up lag 0.
    O(N + pairs), with no transform.
    """
    partners = np.arange(1, bin_idx.size + 1)
    np.subtract(reach, partners, out=partners)
    lead = np.flatnonzero(partners)
    partners = partners[lead]
    ends = np.cumsum(partners)
    shift = reach[lead] - ends
    sums = np.zeros(k_max + 1, dtype=np.int64)
    pairs = int(ends[-1]) if ends.size else 0
    for p0 in range(0, pairs, _CHUNK_POINTS):
        p1 = min(p0 + _CHUNK_POINTS, pairs)
        r0, r1 = np.searchsorted(ends, (p0, p1 - 1), "right")
        owners = slice(r0, r1 + 1)
        first = np.maximum(ends[owners] - partners[owners], p0)
        taken = np.minimum(ends[owners], p1) - first
        partner = np.repeat(shift[owners], taken)
        partner += np.arange(p0, p1)
        diffs = bin_idx[partner]
        diffs -= np.repeat(bin_idx[lead[owners]], taken)
        sums += np.bincount(diffs, minlength=k_max + 1)
    sums[0] = bin_idx.size + 2 * sums[0]
    return sums.astype(float)


def _count_lag_sums(bin_idx: np.ndarray, k_max: int) -> np.ndarray:
    """Sums over t of c[t] c[t + k], k <= k_max, where c[t] counts the
    sorted bin indices (from 0) equal to t; exact integers, as floats.

    _close_gaps first shortens the gaps in bin_idx itself, so every
    window of L = m - 2 k_max >= 4 k_max bins (m from _count_window)
    holds an event. _pair_lag_sums then counts pair differences with no
    transform while the pairs within k_max number at most _PAIR_COST
    times the windows * m points _span_rows would transform; any other
    stream takes _span_rows, each batch of windows from one histogram of
    its span (its float sums are rounded). The pairs are counted only if
    a lower bound from the events of each window leaves the pair feeder
    a chance, and the count stops past that limit, so dense streams skip
    it. Beside bin_idx, the window feeder holds per-window counts and one
    batch of about _CHUNK_POINTS points at a time (a sub-chunk per thread
    when _window_lag_sums runs threaded), the pair feeder a few
    event-sized arrays.
    """
    _close_gaps(bin_idx, k_max)
    n_bins = int(bin_idx[-1]) + 1
    m = _count_window(n_bins, k_max)
    block = m - 2 * k_max
    windows = -(-n_bins // block)
    events = np.diff(np.searchsorted(bin_idx, np.arange(windows + 1) * block))
    limit = _PAIR_COST * windows * m
    if _pair_floor(events, block, k_max) <= limit:
        reach = _pair_reach(bin_idx, k_max, limit)
        if reach is not None:
            return _pair_lag_sums(bin_idx, k_max, reach)
    rows = _span_rows(bin_idx, block, k_max)
    return np.rint(_window_lag_sums(rows, windows, block, k_max))


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
    number of events, not duration / bin_width. Gaps longer than max_delay
    are first closed to one bin past it, which changes no pair count, so
    long stretches with no events cost nothing. Then isolated events cost
    O(events + pairs) through their pair differences, and every other
    stream is histogrammed one batch of windows at a time.
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
    raw = _count_lag_sums(bin_idx, k_max)
    pair_counts = np.empty(k_max + 1)
    pair_counts[0] = raw[0] - total  # sum n(n-1)
    pair_counts[1:] = raw[1:]
    norm_bins = n_bins - np.arange(k_max + 1, dtype=float)
    values = (pair_counts / norm_bins) / mean_per_bin**2
    errors = np.sqrt(np.maximum(pair_counts, 1.0)) / norm_bins / mean_per_bin**2
    delays = np.arange(k_max + 1) * bin_width
    return CorrelationEstimate(2, delays, np.maximum(values, 0.0), errors, int(total))
