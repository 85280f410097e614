"""Power sweeps, quadratic fits, enhancement ratios, and the full report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat.errors import InsufficientDataError, InvalidArgumentError
from photonstat.experiments import (
    SweepResult,
    calibrate_dipole,
    enhancement_ratio,
    fit_quadratic,
    power_sweep,
    reproduce_fig2,
)
from photonstat.instruments import DetectionChain, fluorescence_counts
from photonstat.presets import absorber_preset, chain_preset, source_preset

POWERS = np.geomspace(30e-6, 1e-3, 12)


def make_sweep(records):
    return SweepResult(
        source_label="src",
        fluorophore_label="dye",
        records=records,
        seed=0,
    )


def calibrated_absorber(name="DCM"):
    return calibrate_dipole(
        absorber_preset(name), chain_preset("paper-EMCCD"), 1000.0, 300e-6
    )


def test_fit_recovers_exact_quadratic():
    x = np.geomspace(1e-5, 1e-3, 8)
    records = [(float(p), 3e9 * p**2, 0) for p in x]
    fit = fit_quadratic(make_sweep(records))
    assert fit.a == pytest.approx(3e9, rel=1e-12)
    assert fit.exponent_check is not None
    assert fit.exponent_check.b == pytest.approx(2.0, abs=1e-6)
    assert fit.residual_stats["chi2"] == pytest.approx(0.0, abs=1e-16)


def test_fit_exponent_gate():
    # Fewer than 5 distinct powers: no exponent cross-check.
    x = np.geomspace(1e-5, 1e-3, 4)
    fit = fit_quadratic(make_sweep([(float(p), 2e9 * p**2, 0) for p in x]))
    assert fit.exponent_check is None
    # Narrow span: same.
    x = np.linspace(1e-4, 1.5e-4, 6)
    fit = fit_quadratic(make_sweep([(float(p), 2e9 * p**2, 0) for p in x]))
    assert fit.exponent_check is None


def test_fit_needs_data():
    with pytest.raises(InsufficientDataError):
        fit_quadratic(make_sweep([(1e-4, 10.0, 0), (1e-4, 11.0, 1)]))


def test_calibration_anchor():
    absorber = calibrated_absorber()
    counts = fluorescence_counts(
        300e-6, 1.0, absorber, chain_preset("paper-EMCCD"), seed=0, noise=False
    )
    assert counts == pytest.approx(1000.0, rel=1e-9)


def test_nominal_sweep_noise_off_ratio_exactly_two():
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    kw = dict(noise=False, statistics_mode="nominal")
    sw_t = power_sweep(source_preset("sld"), absorber, chain, POWERS, 3, 1, **kw)
    sw_c = power_sweep(source_preset("dfb"), absorber, chain, POWERS, 3, 2, **kw)
    ratio = enhancement_ratio(fit_quadratic(sw_t), fit_quadratic(sw_c))
    assert ratio.value == pytest.approx(2.0, rel=1e-12)


def test_trace_sweep_slope_matches_measured_g2():
    # In trace mode with noise off, every chain factor cancels in the
    # slope ratio; what remains is the measured bunching of the traces.
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    kw = dict(noise=False, statistics_mode="trace")
    sw_t = power_sweep(source_preset("sld"), absorber, chain, POWERS, 2, 3, **kw)
    sw_c = power_sweep(source_preset("dfb"), absorber, chain, POWERS, 2, 4, **kw)
    ratio = enhancement_ratio(fit_quadratic(sw_t), fit_quadratic(sw_c))
    assert ratio.value == pytest.approx(sw_t.g2_value / sw_c.g2_value, rel=1e-9)
    assert sw_c.g2_value == pytest.approx(1.0, abs=1e-12)


def test_sweep_records_shape_and_determinism():
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    a = power_sweep(source_preset("sld"), absorber, chain, POWERS, 4, 9)
    b = power_sweep(source_preset("sld"), absorber, chain, POWERS, 4, 9)
    assert a.records == b.records
    assert len(a.records) == POWERS.size * 4
    reps = sorted({r for _, _, r in a.records})
    assert reps == [0, 1, 2, 3]


@pytest.mark.parametrize("noise", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sweep_rejects_non_finite_powers(noise, bad):
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    for powers in ([1e-4, bad], [1e-4, bad, 1e-3]):
        with pytest.raises(InvalidArgumentError):
            power_sweep(source_preset("sld"), absorber, chain, powers, 2, 1, noise=noise)


def test_sweep_refuses_counts_beyond_poisson_limit():
    # At 1 MW the expected counts (~1e22) exceed what numpy can draw; the
    # noise-off expectation is still a float.
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    powers = [1e-3, 1e6]
    with pytest.raises(InvalidArgumentError, match="Poisson"):
        power_sweep(source_preset("sld"), absorber, chain, powers, 2, 1)
    sweep = power_sweep(source_preset("sld"), absorber, chain, powers, 2, 1, noise=False)
    assert sweep.counts()[-1] > 1e19


def test_sweep_noise_off_records_equal_per_power_expectations():
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD", dark_rate=20.0)
    sweep = power_sweep(
        source_preset("sld"), absorber, chain, POWERS, 3, 5, noise=False
    )
    expected = [
        (
            chain.power_correction_eta * p,
            fluorescence_counts(p, 2.0, absorber, chain, 0, noise=False),
            k,
        )
        for p in POWERS
        for k in range(3)
    ]
    assert sweep.records == expected
    assert all(type(c) is float for _, c, _ in sweep.records)


def test_sweep_counts_match_poisson_moments():
    # One power, many repeats: the counts are Poisson in the expectation.
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    n = 20_000
    sweep = power_sweep(source_preset("dfb"), absorber, chain, [300e-6], n, 21)
    lam = fluorescence_counts(300e-6, 1.0, absorber, chain, 0, noise=False)
    counts = sweep.counts()
    assert all(type(c) is int for _, c, _ in sweep.records)
    mean_se = np.sqrt(lam / n)
    var_se = np.sqrt((lam + 2.0 * lam**2) / n)
    assert abs(counts.mean() - lam) < 5 * mean_se
    assert abs(counts.var(ddof=1) - lam) < 5 * var_se


def test_sweep_seeds_give_different_counts():
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    a = power_sweep(source_preset("sld"), absorber, chain, POWERS, 4, 31)
    b = power_sweep(source_preset("sld"), absorber, chain, POWERS, 4, 32)
    assert a.powers().tolist() == b.powers().tolist()
    assert not np.array_equal(a.counts(), b.counts())


def test_dark_counts_add_constant_offset():
    absorber = calibrated_absorber()
    dark_chain = chain_preset("paper-EMCCD", dark_rate=50.0)
    clean_chain = chain_preset("paper-EMCCD")
    for p in (30e-6, 1e-3):
        with_dark = fluorescence_counts(p, 1.0, absorber, dark_chain, 0, noise=False)
        clean = fluorescence_counts(p, 1.0, absorber, clean_chain, 0, noise=False)
        assert with_dark - clean == pytest.approx(
            50.0 * dark_chain.integration_time, rel=1e-9
        )


def default_report(master_seed, noise=True, threads=1, **kw):
    return reproduce_fig2(
        sources=[source_preset("sld"), source_preset("dfb")],
        absorbers=[
            absorber_preset("DCM"),
            absorber_preset("CdTe-QD"),
            absorber_preset("RhodamineB"),
        ],
        chain=chain_preset("paper-EMCCD"),
        powers=POWERS,
        repeats=5,
        master_seed=master_seed,
        noise=noise,
        threads=threads,
        **kw,
    )


def test_report_noise_off_every_panel_is_two():
    report = default_report(11, noise=False)
    assert len(report.panels) == 3
    for panel in report.panels:
        assert panel.ratio.value == pytest.approx(2.0, rel=1e-12)
        assert panel.within_band
        for fit in panel.fits.values():
            assert fit.exponent_check.b == pytest.approx(2.0, abs=1e-6)
    assert report.all_within_band


def test_report_thread_count_does_not_change_results():
    serial = default_report(13, threads=1)
    threaded = default_report(13, threads=4)
    for p1, p2 in zip(serial.panels, threaded.panels):
        assert p1.ratio.value == p2.ratio.value
        for key in p1.sweeps:
            assert p1.sweeps[key].records == p2.sweeps[key].records


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_report_ratios_independent_of_thread_count(master_seed):
    serial = default_report(master_seed, threads=1)
    threaded = default_report(master_seed, threads=2)
    assert serial.ratios() == threaded.ratios()


def test_reported_ratio_error_tracks_seed_scatter():
    values, errors = [], []
    for seed in range(60):
        report = reproduce_fig2(
            sources=[source_preset("sld"), source_preset("dfb")],
            absorbers=[absorber_preset("DCM")],
            chain=chain_preset("paper-EMCCD"),
            powers=POWERS,
            repeats=5,
            master_seed=1000 + seed,
        )
        values.append(report.panels[0].ratio.value)
        errors.append(report.panels[0].ratio.stderr)
    empirical = np.std(values, ddof=1)
    assert 0.3 < np.mean(errors) / empirical < 3.0


@pytest.mark.parametrize("target", [1.0, 1.5, 2.0])
def test_ratio_tracks_bunching_linearly(target):
    # Swapping the bunched arm for a tunable-statistics source makes the
    # noise-free enhancement ratio equal its g2(0) exactly.
    from photonstat.sources import SourceSpec

    tunable = SourceSpec(
        statistics="tunable",
        center_wavelength=976e-9,
        bandwidth_fwhm=20e-9,
        bandwidth_convention="wavelength",
        mean_power=1e-3,
        target_g2=target,
        label=f"tunable-{target}",
    )
    report = reproduce_fig2(
        sources=[tunable, source_preset("dfb")],
        absorbers=[absorber_preset("DCM")],
        chain=chain_preset("paper-EMCCD"),
        powers=POWERS,
        repeats=2,
        master_seed=8,
        noise=False,
        ratio_band=(0.5, 2.5),
    )
    assert report.panels[0].ratio.value == pytest.approx(target, rel=1e-12)


def test_report_requires_two_distinct_sources():
    with pytest.raises(InvalidArgumentError):
        reproduce_fig2(
            sources=[source_preset("sld"), source_preset("sld")],
            absorbers=[absorber_preset("DCM")],
            chain=chain_preset("paper-EMCCD"),
            powers=POWERS,
            repeats=2,
            master_seed=1,
        )


def test_preset_lookup_unknown_name():
    from photonstat.errors import ConfigError

    with pytest.raises(ConfigError):
        source_preset("nosuch")
    with pytest.raises(ConfigError):
        absorber_preset("nosuch")
    with pytest.raises(ConfigError):
        chain_preset("nosuch")


def test_chain_preset_overall_efficiency():
    chain = chain_preset("paper-EMCCD")
    assert chain.overall_efficiency == pytest.approx(0.12, rel=1e-9)
    assert chain.power_correction_eta == pytest.approx(0.61)
