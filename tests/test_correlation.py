"""Correlation estimators: symmetry, convergence, bootstrap calibration,
photon-count histograms."""

import contextlib
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import correlation, sources
from photonstat.correlation import g2_from_counts, g2_tau, gn_zero
from photonstat.errors import (
    DegenerateInputError,
    EstimationError,
    InsufficientDataError,
    InvalidArgumentError,
)
from photonstat.seeding import rng_for
from photonstat.presets import absorber_preset, source_preset
from photonstat.sources import (
    FieldTrace,
    SourceSpec,
    coherence_time,
    make_trace,
    nominal_coherence_time,
)
from photonstat.tpa import mpa_rate_timedomain, tpa_rate_timedomain

BW = 5.0e12
TAU_C = nominal_coherence_time("gaussian", BW)


def thermal_trace(n_tauc=20_000, per_tauc=8, seed=1):
    spec = SourceSpec(
        statistics="thermal-gaussian",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        spectral_shape="gaussian",
        mean_power=1e-3,
    )
    return make_trace(spec, n_tauc * TAU_C, TAU_C / per_tauc, seed)


def test_g2_symmetric_in_delay():
    trace = thermal_trace(n_tauc=2_000)
    taus = np.array([0.5, 1.0, 2.0]) * TAU_C
    pos = g2_tau(trace, taus)
    neg = g2_tau(trace, -taus[::-1])
    assert np.array_equal(pos.values, neg.values[::-1])


def test_g2_decays_to_one():
    trace = thermal_trace(seed=2)
    est = g2_tau(trace, np.array([0.0, 1.0, 5.0, 10.0, 12.0]) * TAU_C)
    v = est.values
    assert v[0] > v[1] > v[2]
    assert abs(v[3] - 1.0) < 0.05
    assert abs(v[4] - 1.0) < 0.05


def test_g2_delay_bounds():
    trace = thermal_trace(n_tauc=100, per_tauc=8, seed=3)
    with pytest.raises(InvalidArgumentError):
        g2_tau(trace, [60 * TAU_C])
    # The bound is on the rounded lag: n // 2 - 1 samples is the largest.
    half, dt = trace.n_samples // 2, trace.dt
    assert g2_tau(trace, [0.0, (half - 1) * dt]).delays[-1] == (half - 1) * dt
    with pytest.raises(InvalidArgumentError, match="half the trace"):
        g2_tau(trace, [0.0, (half - 0.4) * dt])


def test_g2_refuses_huge_delay_before_the_lag_cast():
    # A delay whose lag overflows int64 raises the bound's error, with no
    # RuntimeWarning from the division or the cast on the way.
    trace = thermal_trace(n_tauc=100, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in ([0.0, 1e300], [-1e300, 0.0]):
            with pytest.raises(InvalidArgumentError, match="half the trace"):
                g2_tau(trace, bad)


def test_g2_rejects_non_finite_delay():
    trace = thermal_trace(n_tauc=100, seed=3)
    for bad in ([np.nan], [0.0, np.inf]):
        with pytest.raises(InvalidArgumentError):
            g2_tau(trace, bad)


def test_g2_rejects_duplicate_delays():
    trace = thermal_trace(n_tauc=100, seed=3)
    dt = trace.dt
    with pytest.raises(InvalidArgumentError):
        g2_tau(trace, [0.0, 0.2 * dt, 0.3 * dt])


def test_gn_order_bounds():
    trace = thermal_trace(n_tauc=100, seed=3)
    for bad in (1, 7):
        with pytest.raises(InvalidArgumentError):
            gn_zero(trace, bad)


def test_estimator_error_scales_with_length():
    # Four decades of trace length: reported errors must fall roughly as
    # 1/sqrt(N). The end-to-end shrinkage over three decades is ~31.6x.
    ses = []
    for k, n_tauc in enumerate((1_000, 10_000, 100_000, 1_000_000)):
        trace = thermal_trace(n_tauc=n_tauc, per_tauc=8, seed=20 + k)
        est = gn_zero(trace, 2, n_bootstrap=100)
        ses.append(est.std_errors[0])
        assert abs(est.values[0] - 2.0) < max(5 * est.std_errors[0], 0.1)
    assert ses[0] > ses[1] > ses[2] > ses[3]
    total = ses[0] / ses[3]
    assert 10.0 < total < 100.0


def test_bootstrap_error_matches_ensemble_scatter():
    values, reported = [], []
    for seed in range(30):
        est = gn_zero(thermal_trace(n_tauc=2_000, seed=100 + seed), 2)
        values.append(est.values[0])
        reported.append(est.std_errors[0])
    empirical = np.std(values, ddof=1)
    mean_reported = np.mean(reported)
    assert 0.5 < mean_reported / empirical < 2.0


def test_g2_deterministic_given_trace():
    trace = thermal_trace(n_tauc=1_000, seed=5)
    a = g2_tau(trace, [0.0, TAU_C])
    b = g2_tau(trace, [0.0, TAU_C])
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.std_errors, b.std_errors)


def test_counts_poisson_baseline():
    # Homogeneous Poisson arrivals carry no bunching: g2 = 1 at all lags.
    rng = rng_for(1234, 1)
    n_events = 200_000
    mean_rate = 5e4
    times = np.sort(rng.uniform(0.0, n_events / mean_rate, n_events))
    est = g2_from_counts(times, bin_width=1e-4, max_delay=2e-3)
    dev = np.abs(est.values - 1.0) / est.std_errors
    assert np.max(dev) < 4.5
    assert abs(est.values[0] - 1.0) < 4 * est.std_errors[0]


def test_counts_doubly_stochastic_matches_field():
    # Thinned arrivals driven by a thermal intensity trace must agree with
    # the direct field estimator at zero delay.
    trace = thermal_trace(n_tauc=50_000, per_tauc=8, seed=6)
    intensity = trace.intensity()
    mean_events = 400_000.0
    lam = intensity / intensity.sum() * mean_events
    rng = rng_for(777, 2)
    counts = rng.poisson(lam)
    idx = np.repeat(np.arange(counts.size), counts)
    times = (idx + rng.uniform(0.0, 1.0, idx.size)) * trace.dt
    # bin_width = dt keeps bin edges on sample edges, so the histogram
    # sees the per-sample intensity without smearing the bunching peak.
    est_counts = g2_from_counts(times, trace.dt, max_delay=40 * trace.dt)
    est_field = g2_tau(trace, [0.0])
    se = np.hypot(est_counts.std_errors[0], est_field.std_errors[0])
    assert abs(est_counts.values[0] - est_field.values[0]) < 3 * se


def test_counts_input_validation():
    rng = rng_for(5, 5)
    with pytest.raises(InsufficientDataError):
        g2_from_counts(rng.uniform(0, 1, 500), 1e-3, 1e-2)
    times = np.concatenate([rng.uniform(0, 1, 2000), np.full(100, 0.5)])
    with pytest.raises(DegenerateInputError):
        g2_from_counts(times, 1e-3, 1e-2)
    good = np.sort(rng.uniform(0, 1, 2000))
    for bad in (np.nan, np.inf, -np.inf):
        for count in (1, 100):
            with pytest.raises(InvalidArgumentError, match="finite"):
                g2_from_counts(np.concatenate([good, np.full(count, bad)]), 1e-3, 1e-2)
    with pytest.raises(InvalidArgumentError):
        g2_from_counts(good, -1e-3, 1e-2)
    with pytest.raises(InvalidArgumentError):
        g2_from_counts(good, 1e-3, 1e-4)
    # Refused before any cast to int64 bin indices, naming the argument.
    for bin_width, max_delay, name in [
        (np.nan, 1e-2, "bin_width"),
        (np.inf, 1e-2, "bin_width"),
        (1e-3, np.nan, "max_delay"),
        (1e-3, np.inf, "max_delay"),
        (1e-3, -1e-2, "max_delay"),
        (1e-3, 1e300, "max_delay"),
        (1e-300, 1e-2, "bin_width"),
        # 1e10 lags fit int64, but the 1 s stream spans 1e300 bins.
        (1e-300, 1e-290, "bin_width"),
    ]:
        with pytest.raises(InvalidArgumentError, match=name):
            g2_from_counts(good, bin_width, max_delay)


def test_estimate_serialization(tmp_path):
    trace = thermal_trace(n_tauc=500, seed=8)
    est = g2_tau(trace, np.array([0.0, 1.0, 2.0]) * TAU_C)
    path = tmp_path / "est.csv"
    est.to_csv(path, metadata="run=3")
    lines = path.read_text().splitlines()
    assert lines[0] == "# run=3"
    assert lines[1] == "tau_s,g_value,std_err"
    assert len(lines) == 5
    d = est.to_json_dict()
    assert d["order"] == 2
    assert len(d["values"]) == 3
    assert np.array_equal(np.asarray(d["delays_s"]), est.delays)


def reference_g2_tau(trace, delays):
    """g2 by its definition, one O(n) product per delay, over the samples
    of the nb = (n - max lag) // L bootstrap blocks from the trace start,
    normalized by their mean."""
    intensity = trace.intensity()
    lags = np.round(np.abs(np.asarray(delays, dtype=float)) / trace.dt).astype(int)
    block_len = trace.bootstrap_block_len
    span = (intensity.size - lags.max()) // block_len * block_len
    head = intensity[:span]
    mean_i = float(np.mean(head))
    return np.array(
        [float(np.mean(head * intensity[k : k + span])) / mean_i**2 for k in lags]
    )


BASE_976 = dict(
    center_wavelength=976e-9,
    bandwidth_fwhm=20e-9,
    bandwidth_convention="wavelength",
    mean_power=1e-3,
)
SLD = source_preset("sld")
TAU_C_976 = nominal_coherence_time(SLD.spectral_shape, SLD.bandwidth_hz)
CLASS_SPECS = {
    "thermal-gaussian": SLD,
    "coherent": SourceSpec(statistics="coherent", amplitude_noise=0.1, **BASE_976),
    "pseudo-thermal": SourceSpec(statistics="pseudo-thermal", mode_count=64, **BASE_976),
    "tunable": SourceSpec(statistics="tunable", target_g2=1.5, **BASE_976),
}


def class_trace(statistics, n_tauc=6_000, seed=21, per_tauc=8):
    # 48 000 samples: enough blocks for the block-wise lag sums.
    return make_trace(
        CLASS_SPECS[statistics], n_tauc * TAU_C_976, TAU_C_976 / per_tauc, seed
    )


@pytest.mark.parametrize("statistics", sorted(CLASS_SPECS))
def test_g2_matches_reference_loop(statistics):
    trace = class_trace(statistics)
    grids = (
        np.linspace(0.0, 15.0, 61) * TAU_C_976,  # the CLI default: FFT path
        np.array([0.0, 1.0, 3.0]) * TAU_C_976,  # a few lags: direct products
        np.linspace(0.0, 2_900.0, 30) * TAU_C_976,  # k_max >> block: direct
    )
    for delays in grids:
        est = g2_tau(trace, delays)
        ref = reference_g2_tau(trace, delays)
        assert np.all(np.abs(est.values - ref) <= 1e-12 * ref)


def test_g2_paths_agree_on_errors(monkeypatch):
    # Direct products and batched block FFTs must give the same block
    # means, hence the same bootstrap draws and errors up to round-off.
    trace = class_trace("thermal-gaussian")
    delays = np.linspace(0.0, 15.0, 61) * TAU_C_976
    monkeypatch.setattr(correlation, "_FFT_COST", 0)
    fft = g2_tau(trace, delays)
    monkeypatch.setattr(correlation, "_FFT_COST", 10**9)
    direct = g2_tau(trace, delays)
    assert np.allclose(fft.values, direct.values, rtol=1e-12, atol=0)
    assert np.allclose(fft.std_errors, direct.std_errors, rtol=1e-9, atol=0)


G2_PROPERTY_TRACE = class_trace("thermal-gaussian", n_tauc=5_000, seed=9)


@st.composite
def delay_grids(draw):
    n = G2_PROPERTY_TRACE.n_samples
    lags = draw(
        st.lists(st.integers(0, n // 2 - 1), min_size=1, max_size=80, unique=True)
    )
    offsets = draw(
        st.lists(st.floats(-0.49, 0.49), min_size=len(lags), max_size=len(lags))
    )
    delays = (np.sort(lags) + np.array(offsets)) * G2_PROPERTY_TRACE.dt
    return np.abs(delays)


@settings(max_examples=50, deadline=None)
@given(delay_grids())
def test_g2_matches_reference_property(delays):
    trace = G2_PROPERTY_TRACE
    est = g2_tau(trace, delays)
    ref = reference_g2_tau(trace, delays)
    assert np.all(np.abs(est.values - ref) <= 1e-12 * ref)
    mirrored = g2_tau(trace, -delays[::-1])
    assert np.array_equal(mirrored.values, est.values[::-1])
    assert np.array_equal(mirrored.std_errors, est.std_errors[::-1])
    if delays[0] >= 0.5 * trace.dt:  # no lag rounds to 0, so -tau < +tau
        both = g2_tau(trace, np.concatenate([-delays[::-1], delays]))
        assert np.array_equal(both.values[: delays.size], est.values[::-1])
        assert np.array_equal(both.values[delays.size :], est.values)
        halves = both.std_errors[: delays.size], both.std_errors[delays.size :]
        assert np.array_equal(halves[0][::-1], halves[1])


def test_g2_bootstrap_error_matches_ensemble_scatter():
    # The CLI's 61-delay grid shares one resampling across delays; at
    # tau = tau_c the mean reported SE must track the realization scatter.
    delays = np.linspace(0.0, 15.0, 61) * TAU_C
    at_tau_c = 4
    values, reported = [], []
    for seed in range(24):
        est = g2_tau(thermal_trace(n_tauc=2_000, seed=400 + seed), delays)
        values.append(est.values[at_tau_c])
        reported.append(est.std_errors[at_tau_c])
    ratio = np.mean(reported) / np.std(values, ddof=1)
    assert 1 / 1.5 < ratio < 1.5


def test_g2_and_gn_refuse_a_block_longer_than_the_trace():
    # An error bar needs 2 blocks: fewer is a refusal, never an SE of 0.
    trace = thermal_trace(n_tauc=500, seed=3)
    delays = np.linspace(0.0, 15.0, 61) * TAU_C
    with pytest.raises(InsufficientDataError, match="2 bootstrap blocks"):
        g2_tau(trace, delays, block_len=trace.n_samples + 1)
    with pytest.raises(InsufficientDataError, match="2 bootstrap blocks"):
        gn_zero(trace, 2, block_len=trace.n_samples + 1)


def test_g2_refuses_a_trace_dark_on_its_blocks():
    # The one lit sample lies past the blocks: no value is defined there,
    # and the refusal comes with no RuntimeWarning from the division.
    samples = np.zeros(4_000, complex)
    samples[-1] = 1.0
    trace = FieldTrace(samples, 1e-15, 1e15, 0)
    with pytest.raises(DegenerateInputError, match="no light"):
        g2_tau(trace, [0.0, 1e-13, 5e-13], block_len=100)


def test_g2_errors_cover_the_samples_of_the_value():
    # Tunable light at target g2 1.0117 has a few thermal segments in 4000
    # tau_c. A value that summed past the bootstrap blocks missed 1 by up
    # to 20 SE on seeds 514-533, and by 7.7e12 on 9001-9020, where the
    # blocks held only coherent light (SE ~0).
    spec = replace(source_preset("sld-residual"), target_g2=1.0117)
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    delays = 20.0 * tau_c * np.arange(1, 31)
    for seed in [*range(514, 534), *range(9001, 9021)]:
        est = g2_tau(make_trace(spec, 4_000 * tau_c, tau_c / 7, seed), delays)
        assert np.all(np.abs(est.values - 1.0) <= 4.0 * est.std_errors), seed


def test_g2_rejects_empty_delays():
    with pytest.raises(InvalidArgumentError):
        g2_tau(thermal_trace(n_tauc=100, seed=3), [])


def reference_pair_counts(times, bin_width, k_max):
    counts = np.bincount(np.floor((times - times[0]) / bin_width).astype(int))
    n = counts.size
    pairs = np.array([np.dot(counts[: n - k], counts[k:]) for k in range(k_max + 1)])
    pairs[0] -= counts.sum()
    return pairs.astype(float), n


@pytest.mark.parametrize("k_max", [30, 12_000])
def test_counts_match_direct_pair_counts(k_max):
    # 40 000 bins: k_max = 30 spreads the events over several windows,
    # 12 000 fits them all in one.
    rng = rng_for(99, 3)
    times = np.sort(rng.uniform(0.0, 1.0, 4_000))
    bin_width = (times[-1] - times[0]) / 39_999.5
    given = times.copy()
    est = g2_from_counts(times, bin_width, k_max * bin_width)
    # Binning works in place on a copy: the caller's sorted array stays.
    assert np.array_equal(times, given)
    pairs, n_bins = reference_pair_counts(times, bin_width, k_max)
    mean_per_bin = times.size / n_bins
    expected = pairs / (n_bins - np.arange(k_max + 1)) / mean_per_bin**2
    assert np.array_equal(est.values, np.maximum(expected, 0.0))


def pair_difference_counts(bin_idx, k_max):
    """sum_t c[t] c[t + k], k <= k_max, of sorted bin indices, from the
    differences of event pairs (no histogram of the stream)."""
    sums = np.zeros(k_max + 1, dtype=np.int64)
    sums[0] = bin_idx.size
    for shift in range(1, bin_idx.size):
        diffs = bin_idx[shift:] - bin_idx[:-shift]
        near = diffs[diffs <= k_max]
        if near.size == 0:
            break
        counts = np.bincount(near, minlength=k_max + 1)
        sums += counts
        sums[0] += counts[0]  # c[t]^2 counts both orders of a same-bin pair
    return sums


def counts_g2(bin_idx, n_bins, k_max):
    """g2_from_counts' values from the pair-difference reference."""
    pairs = pair_difference_counts(bin_idx, k_max).astype(float)
    pairs[0] -= bin_idx.size
    mean_per_bin = bin_idx.size / n_bins
    return np.maximum(pairs / (n_bins - np.arange(k_max + 1)) / mean_per_bin**2, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    n_events=st.integers(1_000, 2_500),
    k_max=st.integers(1, 400),
    spacing_exp=st.floats(-1.5, 4.7),
    n_gaps=st.integers(0, 5),
    n_edges=st.integers(0, 40),
    dup_frac=st.floats(0.0, 0.01),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_lag_sums_are_exact_pair_counts(
    n_events, k_max, spacing_exp, n_gaps, n_edges, dup_frac, seed
):
    # Streams from many events per bin (spacing 0.03 bins) to isolated
    # ones (5e4 bins, far beyond a window), with gaps longer than k_max,
    # events moved onto window edges and up to 1 % repeated timestamps.
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(10.0**spacing_exp, n_events)
    gaps[rng.choice(n_events, n_gaps)] += rng.integers(k_max + 1, 20 * k_max + 2, n_gaps)
    bin_idx = np.floor(np.cumsum(gaps) - gaps[0]).astype(np.int64)
    n_bins = int(bin_idx[-1]) + 1
    k_max = min(k_max, n_bins // 2 - 1)
    # The window length of the span: edges are offsets 0, L - 1 and the
    # first k_max bins of a window. They stay edges in streams with no gap
    # for _close_gaps to close.
    block = correlation._count_window(n_bins, k_max) - 2 * k_max
    moved = rng.choice(np.arange(1, n_events - 1), min(n_edges, n_events - 2), replace=False)
    window = rng.integers(0, (n_bins - 1) // block + 1, moved.size)
    kind = rng.integers(0, 3, moved.size)
    offset = np.choose(kind, [0, block - 1, rng.integers(0, k_max, moved.size)])
    bin_idx[moved] = np.minimum(window * block + offset, n_bins - 1)
    bin_idx.sort()
    # Distinct in-bin positions, except for the repeated timestamps.
    frac = rng.uniform(0.01, 0.99, n_events)
    frac[0] = 0.0
    times = bin_idx + frac
    times.sort()
    repeat = rng.choice(np.arange(1, n_events - 1), int(dup_frac * n_events), replace=False)
    times[repeat] = times[repeat - 1]
    times.sort()
    bin_idx = np.floor(times).astype(np.int64)

    expected = pair_difference_counts(bin_idx, k_max)
    closed = bin_idx.copy()
    correlation._close_gaps(closed, k_max)
    assert closed[-1] < n_events * (k_max + 1)
    assert np.array_equal(pair_difference_counts(closed, k_max), expected)
    sums = correlation._count_lag_sums(bin_idx.copy(), k_max)
    assert np.array_equal(sums, expected)
    est = g2_from_counts(times, 1.0, float(k_max))
    assert np.array_equal(est.values, counts_g2(bin_idx, n_bins, k_max))


def test_close_gaps_rewrites_only_a_stream_with_a_gap():
    # Gaps of 0 to k_max = 120 bins, one of them k_max itself: nothing to
    # close, and the read-only stream is not written. Widening one gap past
    # k_max closes it to k_max + 1 and moves every later bin with it.
    rng = rng_for(18, 4)
    gaps = rng.integers(0, 121, 10_000)
    gaps[[0, 3_000]] = 0, 120
    gapless = np.cumsum(gaps)
    gapless.flags.writeable = False
    correlation._close_gaps(gapless, 120)
    assert np.array_equal(gapless, np.cumsum(gaps))
    gapped = gapless.copy()
    gapped[5_000:] += 1_000
    correlation._close_gaps(gapped, 120)
    expected = gapless.copy()
    expected[5_000:] += 121 - gaps[5_000]
    assert np.array_equal(gapped, expected)


def _alloc_peak_mb(func):
    tracemalloc.start()
    try:
        result = func()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_counts_memory_follows_events_at_picosecond_bins():
    # 2 000 events over 1 s at 1 ps bins span 1e12 bins, a 7.3 TiB
    # histogram; half of them come in bunches within 1 ns, so the pair
    # counts are not all zero.
    rng = rng_for(12, 1)
    starts = rng.uniform(0.0, 1.0, 250)
    bunched = (starts[:, None] + rng.uniform(0.0, 1e-9, (250, 4))).ravel()
    times = np.sort(np.concatenate([rng.uniform(0.0, 1.0, 1_000), bunched]))
    bin_width = 1e-12
    est, peak = _alloc_peak_mb(lambda: g2_from_counts(times, bin_width, 1e-9))
    assert peak < 32
    bin_idx = np.floor((times - times[0]) / bin_width).astype(np.int64)
    expected = counts_g2(bin_idx, int(bin_idx[-1]) + 1, 1_000)
    assert np.array_equal(est.values, expected)
    assert np.count_nonzero(expected[1:]) > 100


def test_counts_memory_at_dense_geometry():
    # 1e6 events over 1.6e7 bins, the size of a 128 MB int64 histogram.
    rng = rng_for(12, 2)
    times = rng.uniform(0.0, 1.6e7, 1_000_000)
    est, peak = _alloc_peak_mb(lambda: g2_from_counts(times, 1.0, 960.0))
    assert peak < 64
    assert abs(est.values[1:].mean() - 1.0) < 1e-3


def test_counts_of_a_million_isolated_tags():
    # 1e6 uniform tags over 1 s at 1 ps bins, out to 10 ns: about 1e4 pairs
    # in 1e12 bins, counted from their differences with no transform.
    times = np.sort(rng_for(16, 2).uniform(0.0, 1.0, 1_000_000))
    est, peak = _alloc_peak_mb(lambda: g2_from_counts(times, 1e-12, 1e-8))
    assert peak < 32
    bin_idx = np.floor((times - times[0]) / 1e-12).astype(np.int64)
    expected = counts_g2(bin_idx, int(bin_idx[-1]) + 1, 10_000)
    assert np.array_equal(est.values, expected)
    assert np.count_nonzero(expected[1:]) > 1_000


def histogram_lag_sums(bin_idx, k_max):
    """sum_t c[t] c[t + k], k <= k_max, from the dense histogram c of the
    sorted bin indices, correlated directly over its occupied bins."""
    hist = np.bincount(bin_idx, minlength=int(bin_idx[-1]) + k_max + 1)
    occupied = np.flatnonzero(hist)
    return np.array([hist[occupied] @ hist[occupied + k] for k in range(k_max + 1)])


def closed_windows(bin_idx, k_max):
    """The stream with its gaps closed, as _count_lag_sums leaves it, and
    its window length, window count and per-window events."""
    closed = bin_idx.copy()
    correlation._close_gaps(closed, k_max)
    n_bins = int(closed[-1]) + 1
    block = correlation._count_window(n_bins, k_max) - 2 * k_max
    windows = -(-n_bins // block)
    events = np.diff(np.searchsorted(closed, np.arange(windows + 1) * block))
    return closed, block, windows, events


def feeder_lag_sums(bin_idx, k_max):
    """Each feeder's lag sums on the closed stream, at the window length
    _count_lag_sums uses."""
    closed, block, windows, _ = closed_windows(bin_idx, k_max)
    span = correlation._span_rows(closed, block, k_max)
    return {
        "span": np.rint(sources._window_lag_sums(span, windows, block, k_max)),
        "pairs": correlation._pair_lag_sums(
            closed, k_max, correlation._pair_reach(closed, k_max, np.inf)
        ),
    }


def count_stream(kind, n_events, k_max, rng):
    """Sorted bin indices from 0 of a dense, clustered or isolated stream,
    within 2e6 bins."""
    if kind == "dense":  # 20 events per bin to one per 3 bins
        span = max(2, int(n_events * rng.uniform(0.05, 3.0)))
        bin_idx = rng.integers(0, span, n_events)
    elif kind == "clustered":  # bunches within k_max bins, far apart
        bunches = int(rng.integers(1, 30))
        gap = max(2 * k_max, 2_000_000 // bunches - k_max)
        starts = np.arange(bunches) * gap
        bin_idx = starts[rng.integers(0, bunches, n_events)] + rng.integers(0, k_max, n_events)
    else:  # about one event per 2-50 k_max bins
        n_events = min(n_events, 2_000_000 // (2 * k_max))
        span = min(2_000_000, int(n_events * k_max * rng.uniform(2.0, 50.0)))
        bin_idx = rng.integers(0, span, n_events)
    bin_idx.sort()
    return bin_idx - bin_idx[0]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["dense", "clustered", "isolated"]),
    n_events=st.integers(2, 3_000),
    k_max=st.integers(1, 3_000),
    dup_frac=st.floats(0.0, 0.3),
    chunk=st.sampled_from([1 << 10, correlation._CHUNK_POINTS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_feeders_match_a_dense_histogram(kind, n_events, k_max, dup_frac, chunk, seed):
    # Every feeder on every kind of stream, with up to 30 % of the events
    # moved onto the bin of the event before them. Chunks of 1024 points
    # put one window in each sub-chunk and split the pairs of a stream.
    rng = np.random.default_rng(seed)
    bin_idx = count_stream(kind, n_events, k_max, rng)
    repeat = rng.choice(np.arange(1, bin_idx.size), int(dup_frac * (bin_idx.size - 1)))
    bin_idx[repeat] = bin_idx[repeat - 1]
    bin_idx.sort()
    expected = histogram_lag_sums(bin_idx, k_max)
    with mock.patch.object(correlation, "_CHUNK_POINTS", chunk), mock.patch.object(
        sources, "_CHUNK_POINTS", chunk
    ):
        feeders = feeder_lag_sums(bin_idx, k_max)
    for name, sums in feeders.items():
        assert np.array_equal(sums, expected), name
    # The counts the feeder is picked from: pairs within k_max, never below
    # their floor from the events of each window of the closed stream.
    pairs = expected[1:].sum() + (expected[0] - bin_idx.size) // 2
    closed, block, _, events = closed_windows(bin_idx, k_max)
    for stream in (bin_idx, closed):
        assert correlation._pair_reach(stream, k_max, pairs) is not None
        assert correlation._pair_reach(stream, k_max, pairs - 0.5) is None
    assert events.sum() == bin_idx.size
    assert correlation._pair_floor(events, block, k_max) <= pairs


def test_counts_near_the_top_of_the_int64_bin_range():
    # The last bin lies 4096 below 2^63, so a bin plus k_max would wrap
    # around in int64. 300 tags a few ulps apart at the end of the stream
    # hold every pair.
    end = 1.0 - np.arange(300) * 2.0**-52
    times = np.sort(np.concatenate([[0.0], rng_for(16, 3).uniform(0.0, 0.9, 800), end]))
    bin_width = 1.0 / (2.0**63 - 4096)
    bin_idx = np.floor(times / bin_width).astype(np.int64)
    n_bins = int(bin_idx[-1]) + 1
    for k_max in (3_000, 20_000, 700_000):
        est = g2_from_counts(times, bin_width, k_max * bin_width)
        assert np.array_equal(est.values, counts_g2(bin_idx, n_bins, k_max))
    assert np.count_nonzero(est.values[1:]) > 100


@pytest.mark.parametrize(
    "kind, feeder",
    [
        ("dense", "_span_rows"),
        ("clustered", "_span_rows"),
        ("burst", "_span_rows"),
        ("isolated", "_pair_lag_sums"),
        ("sparse", "_pair_lag_sums"),
    ],
)
def test_count_lag_sums_takes_the_feeder_of_the_stream(kind, feeder):
    rng = rng_for(16, 1)
    if kind == "dense":  # 0.5 events per bin, as 1e6 arrivals at bin dt
        bin_idx, k_max = rng.integers(0, 200_000, 100_000), 120
    elif kind == "clustered":  # 50 bunches of 400 events within 100 bins
        bunch = rng.integers(0, 100, (50, 400)) + np.arange(50)[:, None] * 10**6
        bin_idx, k_max = bunch.ravel(), 100
    elif kind == "burst":  # 1e5 events in 1e5 bins and one far out, whose
        # gap closes to k_max + 1 bins
        bin_idx = np.append(rng.integers(0, 100_000, 100_000), 129_000_000)
        k_max = 120
    elif kind == "isolated":  # 2 000 events over 1e12 bins
        bin_idx, k_max = rng.integers(0, 10**12, 2_000), 1_000
    else:  # 2e4 events over 1e9 bins, few pairs
        bin_idx, k_max = rng.integers(0, 10**9, 20_000), 10_000
    bin_idx.sort()
    bin_idx -= bin_idx[0]
    names = ("_span_rows", "_pair_lag_sums")
    with contextlib.ExitStack() as stack:
        spies = {
            name: stack.enter_context(
                mock.patch.object(correlation, name, wraps=getattr(correlation, name))
            )
            for name in names
        }
        sums = correlation._count_lag_sums(bin_idx.copy(), k_max)
    assert [name for name in names if spies[name].called] == [feeder]
    assert np.array_equal(sums, pair_difference_counts(bin_idx, k_max))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2_000, 40_000),
    block_len=st.integers(8, 3_000),
    lag_draw=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_intensity_lag_sums_fft_path_matches_direct_products(n, block_len, lag_draw, seed):
    # _FFT_COST = 0 forces the block transforms, a huge one direct products.
    block_len = min(block_len, n // 4)
    k_max = min(n // 2 - 1, 3 * block_len + 7)
    lags = np.unique(np.round(np.array(lag_draw) * k_max).astype(int))
    nb = (n - int(lags[-1])) // block_len
    intensity = rng_for(seed, 6).exponential(1.0, n)
    paths = {}
    for cost in (0, 10**30):
        with mock.patch.object(correlation, "_FFT_COST", cost):
            paths[cost] = correlation._intensity_lag_sums(intensity, lags, block_len, nb)
    for fft_part, direct_part in zip(paths[0], paths[10**30]):
        assert fft_part.shape == direct_part.shape
        assert np.all(np.abs(fft_part - direct_part) <= 1e-12 * np.abs(direct_part))


def test_long_trace_measures_its_coherence_time_once(monkeypatch):
    # Past 2^20 samples, too, the block length reads the one cached
    # coherence pass of the whole trace.
    calls = []
    measure = sources._coherence_time

    def counting(samples, dt):
        calls.append(samples.size)
        return measure(samples, dt)

    monkeypatch.setattr(sources, "_coherence_time", counting)
    trace = class_trace("thermal-gaussian", 1_717, per_tauc=640)
    assert trace.n_samples > 1 << 20
    g2_tau(trace, np.linspace(0.0, 15.0, 61) * TAU_C_976)
    coherence_time(trace)
    for order in (2, 3, 4):
        gn_zero(trace, order)
    assert calls == [trace.n_samples]


# The estimators before FieldTrace cached its statistics: every call
# rebuilt the intensity and re-measured the block length on a fresh trace
# (from the whole trace's coherence time, at any length).
def reference_block_len(trace):
    n = trace.n_samples
    fresh = FieldTrace(trace.samples, trace.dt, trace.carrier_freq, 0)
    try:
        ten_tau = int(np.ceil(10.0 * coherence_time(fresh) / trace.dt))
    except EstimationError:
        ten_tau = 1
    return max(ten_tau, n // 200, 1)


def reference_g2_tau_uncached(trace, delays):
    intensity = np.abs(trace.samples) ** 2
    n = intensity.size
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    lags = np.round(np.abs(delays) / trace.dt).astype(int) * np.sign(delays).astype(int)
    block_len = reference_block_len(trace)
    abs_lags, inverse = np.unique(np.abs(lags), return_inverse=True)
    nb = (n - int(abs_lags[-1])) // block_len
    num_blocks = correlation._intensity_lag_sums(intensity, abs_lags, block_len, nb)
    den_blocks = correlation._block_means(intensity, block_len, nb)
    values = num_blocks.mean(axis=0) / den_blocks.mean() ** 2
    rng = rng_for(trace.seed_id, correlation._BOOTSTRAP_STREAM)
    errors = correlation._block_bootstrap_se(num_blocks, den_blocks, 2, 200, rng)
    return values[inverse], errors[inverse], nb


def reference_gn_zero_uncached(trace, order):
    intensity = np.abs(trace.samples) ** 2
    block_len = reference_block_len(trace)
    rng = rng_for(trace.seed_id, correlation._BOOTSTRAP_STREAM, order)
    powered = intensity**order
    value = float(np.mean(powered)) / float(np.mean(intensity)) ** order
    n_blocks = intensity.size // block_len
    err = correlation._block_bootstrap_se(
        correlation._block_means(powered, block_len, n_blocks)[:, None],
        correlation._block_means(intensity, block_len, n_blocks),
        order,
        200,
        rng,
    )[0]
    return value, err, n_blocks


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("n_tauc, per_tauc", [(750, 64), (1_717, 640)])
@pytest.mark.parametrize("statistics", sorted(CLASS_SPECS))
def test_cached_statistics_match_uncached_reference(statistics, n_tauc, per_tauc):
    # 48 000 and 1 098 880 (> 2^20) samples both take the block length from
    # the whole trace's cached coherence time. The traces span under 2000
    # coherence times, so 10 tau_c outweighs n / 200.
    trace = class_trace(statistics, n_tauc, per_tauc=per_tauc)
    assert (trace.n_samples > 1 << 20) == (per_tauc == 640)
    if statistics != "coherent":
        coherence_time(trace)
        assert trace.bootstrap_block_len > trace.n_samples // 200
    assert trace.bootstrap_block_len == reference_block_len(trace)
    delays = np.linspace(0.0, 15.0, 61) * TAU_C_976
    for grid in (delays, delays[:1]):
        est = g2_tau(trace, grid)
        values, errors, blocks = reference_g2_tau_uncached(trace, grid)
        assert bits(est.values) == bits(values)
        assert bits(est.std_errors) == bits(errors)
        assert est.effective_samples == blocks
    for order in (2, 3, 4):
        est = gn_zero(trace, order)
        value, err, blocks = reference_gn_zero_uncached(trace, order)
        assert bits(est.values) == bits([value])
        assert bits(est.std_errors) == bits([err])
        assert est.effective_samples == blocks


ABSORBER = absorber_preset("DCM")
CACHE_TRACES = {s: class_trace(s, n_tauc=2_500, seed=31) for s in sorted(CLASS_SPECS)}
CACHE_CALLS = {
    "coherence_time": coherence_time,
    "g2_tau": lambda t: g2_tau(t, np.linspace(0.0, 15.0, 61) * TAU_C_976),
    "gn2": lambda t: gn_zero(t, 2),
    "gn3": lambda t: gn_zero(t, 3),
    "gn4": lambda t: gn_zero(t, 4),
    "mpa2": lambda t: mpa_rate_timedomain(t, 2, 1.5),
    "mpa3": lambda t: mpa_rate_timedomain(t, 3, 1.5),
    "mpa4": lambda t: mpa_rate_timedomain(t, 4, 1.5),
    "tpa": lambda t: tpa_rate_timedomain(t, ABSORBER, force=True),
}


def call_bits(name, trace):
    try:
        result = CACHE_CALLS[name](trace)
    except EstimationError as exc:
        return repr(exc)
    if isinstance(result, float):
        return bits(result)
    return bits(result.values), bits(result.std_errors), result.effective_samples


def fresh_copy(trace):
    return FieldTrace(trace.samples, trace.dt, trace.carrier_freq, trace.seed_id)


FRESH_BITS = {
    (s, name): call_bits(name, fresh_copy(trace))
    for s, trace in CACHE_TRACES.items()
    for name in CACHE_CALLS
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CLASS_SPECS)), st.permutations(sorted(CACHE_CALLS)))
def test_cached_calls_in_any_order_match_fresh_traces(statistics, order):
    # One trace serves every call in a random order, each call twice; each
    # result has the bits of the same call on a fresh trace.
    trace = fresh_copy(CACHE_TRACES[statistics])
    for name in order + order[::-1]:
        assert call_bits(name, trace) == FRESH_BITS[statistics, name]


def drawn_trace(spec, per_tauc, seed, n_tauc=4_000):
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    return make_trace(spec, n_tauc * tau_c, tau_c / per_tauc, seed), tau_c


# Sampling from 7 to 16 points per coherence time resolves both shapes
# (dt <= 1 / (10 dnu)). The bounds rest on the order-2 and order-3
# bootstrap SEs, which cover; those of orders >= 4 are too small.
SHAPES = st.sampled_from(["gaussian", "lorentzian"])
BANDWIDTHS = st.floats(10.0**11.5, 10.0**13.5)
PER_TAUC = st.integers(7, 16)


@settings(max_examples=30, deadline=None)
@given(
    statistics=st.sampled_from(["thermal-gaussian", "coherent", "tunable"]),
    level=st.floats(0.0, 1.0),
    shape=SHAPES,
    bandwidth=BANDWIDTHS,
    per_tauc=PER_TAUC,
    seed=st.integers(0, 2**32 - 1),
)
def test_g2_tends_to_one_at_large_delay(statistics, level, shape, bandwidth, per_tauc, seed):
    # Delays of 20-600 coherence times, beyond the 16 tau_c segments of a
    # tunable source. level sets the amplitude noise (up to 0.3) or the
    # target g2 (1 to 4, weighted toward the few-segment regime near 1).
    # Pseudo-thermal light is left out: a finite mode sum is
    # quasi-periodic, so its g2 does not settle.
    spec = SourceSpec(
        statistics=statistics,
        center_wavelength=976e-9,
        bandwidth_fwhm=bandwidth,
        spectral_shape=shape,
        amplitude_noise=0.3 * level,
        target_g2=1.0 + 3.0 * level**4,
    )
    trace, tau_c = drawn_trace(spec, per_tauc, seed)
    est = g2_tau(trace, 20.0 * tau_c * np.arange(1, 31), n_bootstrap=100)
    assert np.all(np.abs(est.values - 1.0) <= 6.0 * est.std_errors + 1e-12)


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, bandwidth=BANDWIDTHS, per_tauc=PER_TAUC, seed=st.integers(0, 2**32 - 1))
def test_thermal_moments_are_factorial(shape, bandwidth, per_tauc, seed):
    # Every sample of a thermal field is complex Gaussian, so <I^n>/<I>^n = n!
    # at any sampling and spectral shape.
    spec = SourceSpec(
        statistics="thermal-gaussian",
        center_wavelength=976e-9,
        bandwidth_fwhm=bandwidth,
        spectral_shape=shape,
    )
    trace, _ = drawn_trace(spec, per_tauc, seed)
    for n, target in ((2, 2.0), (3, 6.0)):
        est = gn_zero(trace, n, n_bootstrap=100)
        assert abs(est.values[0] - target) <= 6.0 * est.std_errors[0]
