"""Correlation estimators: symmetry, convergence, bootstrap calibration,
photon-count histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import correlation
from photonstat.correlation import g2_from_counts, g2_tau, gn_zero
from photonstat.errors import (
    DegenerateInputError,
    InsufficientDataError,
    InvalidArgumentError,
)
from photonstat.seeding import rng_for
from photonstat.presets import source_preset
from photonstat.sources import (
    SourceSpec,
    make_trace,
    nominal_coherence_time,
)

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
    with pytest.raises(InvalidArgumentError):
        g2_from_counts(good, -1e-3, 1e-2)
    with pytest.raises(InvalidArgumentError):
        g2_from_counts(good, 1e-3, 1e-4)


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
    """The per-delay loop g2_tau replaced: one O(n) product per delay."""
    intensity = trace.intensity()
    n = intensity.size
    lags = np.round(np.abs(np.asarray(delays, dtype=float)) / trace.dt).astype(int)
    mean_i = float(np.mean(intensity))
    return np.array(
        [
            float(np.mean(intensity[: n - k] * intensity[k:] if k else intensity**2))
            / mean_i**2
            for k in lags
        ]
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


def class_trace(statistics, n_tauc=6_000, seed=21):
    # 48 000 samples: enough blocks for the block-wise lag sums.
    return make_trace(
        CLASS_SPECS[statistics], n_tauc * TAU_C_976, TAU_C_976 / 8, seed
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


def test_g2_block_longer_than_trace_has_zero_errors():
    trace = thermal_trace(n_tauc=500, seed=3)
    delays = np.linspace(0.0, 15.0, 61) * TAU_C
    est = g2_tau(trace, delays, block_len=trace.n_samples + 1)
    assert np.all(est.std_errors == 0.0)
    ref = reference_g2_tau(trace, delays)
    assert np.all(np.abs(est.values - ref) <= 1e-12 * ref)


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
    # 40 000 bins: k_max = 30 takes the block-wise lag sums, 12 000 the
    # single padded FFT.
    rng = rng_for(99, 3)
    times = np.sort(rng.uniform(0.0, 1.0, 4_000))
    bin_width = (times[-1] - times[0]) / 39_999.5
    est = g2_from_counts(times, bin_width, k_max * bin_width)
    pairs, n_bins = reference_pair_counts(times, bin_width, k_max)
    mean_per_bin = times.size / n_bins
    expected = pairs / (n_bins - np.arange(k_max + 1)) / mean_per_bin**2
    assert np.allclose(est.values, np.maximum(expected, 0.0), rtol=0, atol=1e-9)
