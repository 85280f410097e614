"""Detection chain: expected counts, interferometer scans, signal-ratio inversion."""

import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from photonstat.errors import DegenerateInputError, InvalidArgumentError, OutOfModelError
from photonstat.instruments import (
    DetectionChain,
    InterferogramScan,
    extract_g2,
    fluorescence_counts,
    hbt_ensemble,
    hbt_scan,
)
from photonstat.presets import source_preset
from photonstat.sources import SourceSpec, make_trace, nominal_coherence_time
from photonstat.tpa import AbsorberSpec, lineshape

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


def test_fluorescence_expectation_with_dark_counts():
    # (rate * qy * efficiency + dark) * T, with the rate taken on resonance.
    absorber = AbsorberSpec(3.86e15, 5.0e14, 1e-20, 0.5, "dye")
    c = chain(dark_rate=25.0, integration_time=2.0, power_correction_eta=0.5)
    rate = 2.0 * 1e-20 * lineshape(absorber.omega_f, absorber) * (0.5 * 1e-3) ** 2
    out = fluorescence_counts(1e-3, 2.0, absorber, c)
    assert type(out) is float
    assert out == pytest.approx((rate * 0.5 * 0.18 + 25.0) * 2.0, rel=1e-12)
    assert fluorescence_counts(0.0, 2.0, absorber, c) == pytest.approx(50.0, rel=1e-12)


def test_fluorescence_dark_only():
    # With no excitation only dark counts remain, whatever the source's g2(0).
    absorber = AbsorberSpec(3.86e15, 5.0e14, 1e-20, 0.5, "dye")
    c = chain(dark_rate=100.0, integration_time=2.0)
    for g2 in (1.0, 2.0, 6.0):
        assert fluorescence_counts(0.0, g2, absorber, c) == pytest.approx(200.0, rel=1e-12)


def test_fluorescence_rejects_negative_power():
    absorber = AbsorberSpec(3.86e15, 5.0e14, 1e-20, 0.5, "dye")
    with pytest.raises(InvalidArgumentError, match="excitation power"):
        fluorescence_counts(-1e-6, 1.0, absorber, chain())


def test_chain_validation():
    with pytest.raises(InvalidArgumentError):
        chain(collection_efficiency=1.5)
    with pytest.raises(InvalidArgumentError):
        chain(quantum_efficiency=-0.1)
    with pytest.raises(InvalidArgumentError):
        chain(integration_time=0.0)


def reference_scan(trace, delays):
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
    return raw, filtered


def assert_matches_reference(trace, delays):
    # The FFT sums reorder the arithmetic, so agreement is to round-off,
    # measured against the filtered signal (the raw one can cancel to ~0).
    scan = hbt_scan(trace, delays)
    raw, filtered = reference_scan(trace, delays)
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
    assert_matches_reference(trace, resolved)


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
    if draw(st.booleans()):  # a uniform grid that resolves the fringes
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
    return spec, n, dt, seed, np.asarray(delays)


@settings(max_examples=60, deadline=None)
@given(scan_cases())
def test_scan_matches_reference_property(case):
    spec, n, dt, seed, delays = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short traces warn about noise
        try:
            trace = make_trace(spec, n * dt, dt, seed)
        except DegenerateInputError:
            # A short tunable trace above g2 = 2 can switch every one of its
            # segments off (seed 8593, 800 samples, g2 4: 7 segments, each
            # off with probability 1/2); make_trace refuses it.
            reject()
    assert_matches_reference(trace, delays)


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
    # Boxcar averaging of the raw signal over one carrier fringe must agree
    # with the closed-form phase average when the delay grid resolves the
    # fringes.
    trace = thermal_trace(n_tauc=2_000, per_tauc=8, seed=3)
    fringe = 2 * np.pi / trace.carrier_freq
    delays = np.arange(0.0, 2.2 * TAU_C, fringe / 8.0)
    scan = hbt_scan(trace, delays)
    kernel = np.ones(8)  # one fringe of the grid
    summed = np.convolve(scan.raw_signal, kernel, mode="same")
    numeric = summed / np.convolve(np.ones_like(delays), kernel, mode="same")
    probe = [
        int(np.argmin(np.abs(delays - 0.2 * TAU_C))),
        int(np.argmin(np.abs(delays - 2.0 * TAU_C))),
    ]
    for i in probe:
        assert numeric[i] == pytest.approx(scan.filtered_signal[i], rel=0.01)


def test_scan_rejects_negative_delay():
    trace = thermal_trace(n_tauc=500, seed=4)
    with pytest.raises(InvalidArgumentError):
        hbt_scan(trace, [-TAU_C, 0.0])


def test_scan_refuses_huge_delay_before_the_lag_cast():
    trace = thermal_trace(n_tauc=500, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidArgumentError, match="half the trace"):
            hbt_scan(trace, [0.0, 1e300])


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


def test_fluorescence_power_correction_quadratic():
    absorber = AbsorberSpec(3.86e15, 5.0e14, 1e-20, 0.5, "dye")
    c_full = chain()
    c_corr = chain(power_correction_eta=0.5)
    full = fluorescence_counts(1e-3, 1.0, absorber, c_full)
    corr = fluorescence_counts(1e-3, 1.0, absorber, c_corr)
    assert corr == pytest.approx(full / 4.0, rel=1e-12)
    double = fluorescence_counts(2e-3, 1.0, absorber, c_full)
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


# Lengths in units of the nominal coherence time, as in the hbt config.
ENSEMBLE_GRID = dict(
    duration_over_tauc=2_000,
    samples_per_tauc=8,
    max_delay_over_tauc=30,
    step_over_tauc=0.5,
    tail_start_over_tauc=10,
)


def test_ensemble_averages_the_realization_scans():
    spec = source_preset("sld")
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    seeds = [21, 22]
    ens = hbt_ensemble(spec, seeds, **ENSEMBLE_GRID)
    delays = np.arange(0.0, 30 * tau_c + 0.25 * tau_c, 0.5 * tau_c)
    tail = (10 * tau_c, 30 * tau_c)
    scans = [
        hbt_scan(make_trace(spec, 2_000 * tau_c, tau_c / 8, seed), delays)
        for seed in seeds
    ]
    assert ens.tau_c == tau_c
    assert ens.tail_window == tail
    assert np.array_equal(ens.scan.delays, delays)
    for name in ("raw_signal", "filtered_signal"):
        mean = np.mean([getattr(scan, name) for scan in scans], axis=0)
        assert np.array_equal(getattr(ens.scan, name), mean)
    expected = extract_g2(ens.scan, tail, coherence_time=tau_c)
    assert np.array_equal(ens.g2.values, expected.values)
    assert ens.realization_g2.tolist() == [
        extract_g2(scan, tail, coherence_time=tau_c).values[0] for scan in scans
    ]


def test_ensemble_is_independent_of_thread_count():
    spec = source_preset("sld")
    seeds = [11, 12, 13]
    serial = hbt_ensemble(spec, seeds, **ENSEMBLE_GRID, threads=1)
    threaded = hbt_ensemble(spec, seeds, **ENSEMBLE_GRID, threads=2)
    for name in ("delays", "raw_signal", "filtered_signal"):
        assert np.array_equal(getattr(serial.scan, name), getattr(threaded.scan, name))
    assert np.array_equal(serial.g2.values, threaded.g2.values)
    assert np.array_equal(serial.g2.std_errors, threaded.g2.std_errors)
    assert np.array_equal(serial.realization_g2, threaded.realization_g2)
    assert serial.tail_window == threaded.tail_window


@pytest.mark.parametrize(
    "change",
    [
        dict(step_over_tauc=0.0),
        dict(step_over_tauc=np.nan),
        dict(step_over_tauc=40.0),
        dict(max_delay_over_tauc=np.inf),
        dict(samples_per_tauc=0.0),
        dict(duration_over_tauc=-1.0),
        # 16 000 samples, against about 3e301 and 30 001 delays up to 30 tau_c.
        dict(step_over_tauc=1e-300),
        dict(step_over_tauc=1e-3),
    ],
)
def test_ensemble_refuses_bad_lengths(change):
    with pytest.raises(InvalidArgumentError, match="finite|step_over_tauc"):
        hbt_ensemble(source_preset("sld"), [1], **{**ENSEMBLE_GRID, **change})


def test_ensemble_needs_a_seed():
    with pytest.raises(InvalidArgumentError, match="seed"):
        hbt_ensemble(source_preset("sld"), [], **ENSEMBLE_GRID)
