"""Detection chain: counters, interferometer scans, signal-ratio inversion."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat.errors import InvalidArgumentError, OutOfModelError
from photonstat.instruments import (
    DetectionChain,
    InterferogramScan,
    _boxcar_filter,
    extract_g2,
    fluorescence_counts,
    hbt_scan,
    photon_counter,
)
from photonstat.presets import source_preset
from photonstat.sources import SourceSpec, make_trace, nominal_coherence_time
from photonstat.tpa import AbsorberSpec

BW = 5.0e12
TAU_C = nominal_coherence_time("gaussian", BW)


def chain(**overrides):
    kw = dict(
        collection_efficiency=0.2,
        quantum_efficiency=0.9,
        dark_rate=0.0,
        integration_time=1.0,
        power_correction_eta=1.0,
    )
    kw.update(overrides)
    return DetectionChain(**kw)


def thermal_trace(n_tauc=20_000, per_tauc=8, seed=1):
    spec = SourceSpec(
        statistics="thermal-gaussian",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        spectral_shape="gaussian",
        mean_power=1e-3,
    )
    return make_trace(spec, n_tauc * TAU_C, TAU_C / per_tauc, seed)


def test_counter_expectation_noise_off():
    c = chain(dark_rate=25.0, integration_time=2.0)
    out = photon_counter(1000.0, c, seed=1, noise=False)
    assert isinstance(out, float)
    assert out == pytest.approx(1000.0 * 0.18 * 2.0 + 50.0, rel=1e-12)


def test_counter_poisson_statistics():
    c = chain()
    expectation = photon_counter(500.0, c, seed=0, noise=False)
    draws = np.array(
        [photon_counter(500.0, c, seed=k, noise=True) for k in range(20_000)]
    )
    assert draws.dtype.kind == "i" or isinstance(draws[0], (int, np.integer))
    se_mean = np.sqrt(expectation / draws.size)
    assert abs(draws.mean() - expectation) < 4 * se_mean
    # Poisson: variance equals the mean; var(s^2) ~ 2 mu^2 / N for the check
    se_var = expectation * np.sqrt(2.0 / draws.size) * 1.5
    assert abs(draws.var(ddof=1) - expectation) < 4 * se_var


def test_counter_refuses_mean_beyond_poisson_limit():
    c = chain()
    assert photon_counter(1e20, c, seed=1, noise=False) == pytest.approx(1.8e19)
    for bad in (1e20, np.inf, np.nan):
        with pytest.raises(InvalidArgumentError, match="Poisson"):
            photon_counter(bad, c, seed=1)
    assert photon_counter(5e18, c, seed=1) > 0  # 9e17 expected: drawable


def test_counter_dark_only():
    c = chain(dark_rate=100.0, integration_time=2.0)
    assert photon_counter(0.0, c, seed=3, noise=False) == pytest.approx(200.0)


def test_chain_validation():
    with pytest.raises(InvalidArgumentError):
        chain(collection_efficiency=1.5)
    with pytest.raises(InvalidArgumentError):
        chain(quantum_efficiency=-0.1)
    with pytest.raises(InvalidArgumentError):
        chain(integration_time=0.0)


def reference_scan(trace, delays, filter_mode="analytic"):
    """The per-delay loop hbt_scan replaced: one O(n) pass per delay."""
    e = trace.samples
    n = e.size
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    lags = np.round(delays / trace.dt).astype(int)
    omega = trace.carrier_freq
    raw = np.empty(delays.size)
    filtered = np.empty(delays.size)
    for j, (tau, lag) in enumerate(zip(delays, lags)):
        a = e[: n - lag] if lag else e
        b = e[lag:] if lag else e
        combined = a + np.exp(-1j * omega * tau) * b
        raw[j] = np.mean(np.abs(combined) ** 4) / 16.0
        ia = np.abs(a) ** 2
        ib = np.abs(b) ** 2
        filtered[j] = np.mean(ia**2 + ib**2 + 4.0 * ia * ib) / 16.0
    if filter_mode == "numeric":
        filtered = _boxcar_filter(delays, raw, 2.0 * np.pi / omega)
    return raw, filtered


def assert_matches_reference(trace, delays, filter_mode="analytic"):
    # The FFT sums reorder the arithmetic, so agreement is to round-off,
    # measured against the filtered signal (the raw one can cancel to ~0).
    scan = hbt_scan(trace, delays, filter_mode=filter_mode)
    raw, filtered = reference_scan(trace, delays, filter_mode)
    tol = 1e-12 * filtered
    assert np.all(np.abs(scan.raw_signal - raw) <= tol)
    assert np.all(np.abs(scan.filtered_signal - filtered) <= tol)


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


@pytest.mark.parametrize("statistics", sorted(CLASS_SPECS))
def test_scan_matches_reference_loop(statistics):
    dt = TAU_C_976 / 8
    trace = make_trace(CLASS_SPECS[statistics], 4_000 * TAU_C_976, dt, 21)
    assert_matches_reference(trace, np.arange(0.0, 30 * TAU_C_976 + dt, TAU_C_976 / 2))
    fringe = 2 * np.pi / trace.carrier_freq
    resolved = np.arange(0.0, 2.2 * TAU_C_976, fringe / 8.0)
    assert_matches_reference(trace, resolved, filter_mode="numeric")


def test_scan_matches_reference_block_wise():
    # 48 000 samples: the intensity and a^2 lag sums go block-wise.
    dt = TAU_C_976 / 8
    trace = make_trace(SLD, 6_000 * TAU_C_976, dt, 22)
    assert_matches_reference(trace, np.arange(0.0, 30 * TAU_C_976 + dt, TAU_C_976 / 2))


@st.composite
def scan_cases(draw):
    statistics = draw(st.sampled_from(sorted(CLASS_SPECS)))
    kw = {}
    if statistics == "coherent":
        kw["amplitude_noise"] = draw(st.sampled_from([0.0, 0.1]))
    elif statistics == "pseudo-thermal":
        kw["mode_count"] = draw(st.integers(1, 64))
    elif statistics == "tunable":
        kw["target_g2"] = draw(st.floats(1.0, 4.0))
    spec = SourceSpec(statistics=statistics, **kw, **BASE_976)
    n = draw(st.integers(800, 4_096))
    seed = draw(st.integers(0, 2**32 - 1))
    dt = TAU_C_976 / 8
    fringe = 2 * np.pi / spec.carrier_freq
    filter_mode = draw(st.sampled_from(["analytic", "numeric"]))
    if filter_mode == "numeric":
        step = fringe / draw(st.integers(6, 12))
        start = draw(st.integers(0, n // 4)) * dt
        delays = start + step * np.arange(draw(st.integers(13, 80)))
    else:
        # Lags may repeat, each copy with its own sub-sample carrier phase.
        lags = draw(st.lists(st.integers(0, n // 2 - 1), min_size=1, max_size=40))
        offsets = draw(
            st.lists(st.floats(0.0, 0.49), min_size=len(lags), max_size=len(lags))
        )
        delays = np.array(lags) * dt + np.array(offsets) * dt
    return spec, n, dt, seed, np.asarray(delays), filter_mode


@settings(max_examples=60, deadline=None)
@given(scan_cases())
def test_scan_matches_reference_property(case):
    spec, n, dt, seed, delays, filter_mode = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short traces warn about noise
        trace = make_trace(spec, n * dt, dt, seed)
    assert_matches_reference(trace, delays, filter_mode)


def test_scan_destructive_interference_floor():
    # A noise-free coherent field at half a fringe cancels exactly; the FFT
    # sums leave +-round-off that must not surface as a negative signal.
    spec = source_preset("dfb")
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    fringe = 2 * np.pi / spec.carrier_freq
    delays = (np.arange(40) + 0.5) * fringe
    for seed in range(40):
        trace = make_trace(spec, 400 * tau_c, tau_c / 8, seed)
        scan = hbt_scan(trace, delays)
        assert np.all(scan.raw_signal >= 0)
        assert np.all(scan.raw_signal <= 1e-9 * scan.filtered_signal)


def test_scan_rejects_non_finite_delay():
    trace = thermal_trace(n_tauc=500, seed=4)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            hbt_scan(trace, [0.0, bad])


def test_scan_zero_delay_equals_intensity_square():
    trace = thermal_trace(n_tauc=2_000, seed=2)
    scan = hbt_scan(trace, [0.0, 5 * TAU_C])
    intensity = trace.intensity()
    assert scan.raw_signal[0] == pytest.approx(np.mean(intensity**2), rel=1e-12)


def test_fringe_filter_numeric_matches_analytic():
    # Boxcar averaging over one carrier fringe must agree with the
    # closed-form phase average when the delay grid resolves the fringes.
    trace = thermal_trace(n_tauc=2_000, per_tauc=8, seed=3)
    fringe = 2 * np.pi / trace.carrier_freq
    delays = np.arange(0.0, 2.2 * TAU_C, fringe / 8.0)
    analytic = hbt_scan(trace, delays, filter_mode="analytic")
    numeric = hbt_scan(trace, delays, filter_mode="numeric")
    probe = [
        int(np.argmin(np.abs(delays - 0.2 * TAU_C))),
        int(np.argmin(np.abs(delays - 2.0 * TAU_C))),
    ]
    for i in probe:
        assert numeric.filtered_signal[i] == pytest.approx(
            analytic.filtered_signal[i], rel=0.01
        )


def test_numeric_filter_needs_dense_grid():
    trace = thermal_trace(n_tauc=500, seed=4)
    sparse = np.linspace(0.0, 2 * TAU_C, 20)
    with pytest.raises(InvalidArgumentError):
        hbt_scan(trace, sparse, filter_mode="numeric")


def test_scan_rejects_negative_delay():
    trace = thermal_trace(n_tauc=500, seed=4)
    with pytest.raises(InvalidArgumentError):
        hbt_scan(trace, [-TAU_C, 0.0])


def synthetic_scan(g_zero, n=200, tail_start=100):
    # Filtered signal built directly from the stationary-field relation:
    # S(tau) proportional to 2 g(0) + 4 g(tau), normalized mean power 1.
    taus = np.linspace(0.0, 20.0, n)
    g_curve = 1.0 + (g_zero - 1.0) * np.exp(-((taus / 2.0) ** 2))
    g_curve[tail_start:] = 1.0
    filtered = (2.0 * g_zero + 4.0 * g_curve) / 16.0
    return InterferogramScan(
        delays=taus,
        raw_signal=filtered * 1.5,
        filtered_signal=filtered,
        fringe_period=0.01,
    ), g_curve


def test_extract_recovers_known_curve():
    scan, g_curve = synthetic_scan(2.0)
    est = extract_g2(scan, tail_window=(15.0, 20.0))
    assert est.values[0] == pytest.approx(2.0, rel=1e-9)
    assert np.allclose(est.values, g_curve, rtol=1e-9)


def test_extract_identity_for_flat_scan():
    scan, _ = synthetic_scan(1.0)
    est = extract_g2(scan, tail_window=(15.0, 20.0))
    assert est.values[0] == pytest.approx(1.0, rel=1e-9)


def test_extract_ratio_inversion_points():
    # r = 6 g0 / (2 g0 + 4): check the inverse 2r/(3-r) at r = 1 and 1.5.
    for g_zero, r_expected in ((1.0, 1.0), (2.0, 1.5)):
        scan, _ = synthetic_scan(g_zero)
        r = scan.filtered_signal[0] / np.mean(scan.filtered_signal[150:])
        assert r == pytest.approx(r_expected, rel=1e-9)
        est = extract_g2(scan, tail_window=(15.0, 20.0))
        assert est.values[0] == pytest.approx(2 * r / (3 - r), rel=1e-9)


def test_extract_out_of_model_ratio():
    taus = np.linspace(0.0, 20.0, 100)
    filtered = np.full(100, 0.1)
    filtered[0] = 0.35  # r = 3.5 cannot come from a classical field
    scan = InterferogramScan(taus, filtered, filtered, 0.01)
    with pytest.raises(OutOfModelError):
        extract_g2(scan, tail_window=(15.0, 20.0))


def test_extract_tail_must_clear_coherence():
    scan, _ = synthetic_scan(2.0)
    with pytest.raises(InvalidArgumentError):
        extract_g2(scan, tail_window=(15.0, 20.0), coherence_time=4.0)
    est = extract_g2(scan, tail_window=(15.0, 20.0), coherence_time=2.0)
    assert est.values[0] == pytest.approx(2.0, rel=1e-9)


def test_extract_needs_zero_delay_point():
    taus = np.linspace(1.0, 20.0, 100)
    sig = np.full(100, 0.375)
    scan = InterferogramScan(taus, sig, sig, 0.01)
    with pytest.raises(InvalidArgumentError):
        extract_g2(scan, tail_window=(15.0, 20.0))


def test_fluorescence_scalar_vs_trace_consistency():
    absorber = AbsorberSpec(3.86e15, 5.0e14, 1e-20, 0.5, "dye")
    c = chain()
    trace = thermal_trace(n_tauc=50_000, seed=5)
    from_trace = fluorescence_counts(1e-3, trace, absorber, c, seed=1, noise=False)
    from_scalar = fluorescence_counts(1e-3, 2.0, absorber, c, seed=1, noise=False)
    assert from_trace == pytest.approx(from_scalar, rel=0.05)


def test_fluorescence_power_correction_quadratic():
    absorber = AbsorberSpec(3.86e15, 5.0e14, 1e-20, 0.5, "dye")
    c_full = chain()
    c_corr = chain(power_correction_eta=0.5)
    full = fluorescence_counts(1e-3, 1.0, absorber, c_full, seed=1, noise=False)
    corr = fluorescence_counts(1e-3, 1.0, absorber, c_corr, seed=1, noise=False)
    assert corr == pytest.approx(full / 4.0, rel=1e-12)
    double = fluorescence_counts(2e-3, 1.0, absorber, c_full, seed=1, noise=False)
    assert double == pytest.approx(4.0 * full, rel=1e-12)


def test_scan_csv(tmp_path):
    trace = thermal_trace(n_tauc=500, seed=6)
    scan = hbt_scan(trace, [0.0, TAU_C])
    path = tmp_path / "scan.csv"
    scan.to_csv(path, metadata="seed=6")
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=6"
    assert lines[1] == "tau_s,raw,filtered"
    assert len(lines) == 4
