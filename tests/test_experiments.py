"""Power sweeps, quadratic fits, enhancement ratios, and the full report."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import logsumexp, softmax

from photonstat.errors import (
    EstimationError,
    InsufficientDataError,
    InvalidArgumentError,
    PhotonstatError,
)
from photonstat.experiments import (
    SweepResult,
    calibrate_dipole,
    enhancement_ratio,
    fig2_report,
    fit_quadratic,
    power_sweep,
    reproduce_fig2,
)
from photonstat.instruments import DetectionChain, fluorescence_counts
from photonstat.presets import absorber_preset, chain_preset, source_preset

POWERS = np.geomspace(30e-6, 1e-3, 12)


def make_sweep(records):
    power, count, repeat = np.array(records, dtype=float).reshape(-1, 3).T
    return SweepResult("src", "dye", power, count, repeat.astype(int))


def sweep_rows(sweep):
    """The sweep as (power, count, repeat) tuples of Python numbers."""
    columns = (sweep.power.tolist(), sweep.count.tolist(), sweep.repeat.tolist())
    return list(zip(*columns))


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


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_fit_refuses_powers_whose_fourth_powers_leave_float64(scale):
    # These were a ZeroDivisionError and a fit of NaN and inf.
    x = np.geomspace(1e-5, 1e-3, 8)
    records = [(float(p) * scale, 3e9 * p**2, 0) for p in x]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="out of range for the fit"):
            fit_quadratic(make_sweep(records))


def test_fit_needs_data():
    with pytest.raises(InsufficientDataError):
        fit_quadratic(make_sweep([(1e-4, 10.0, 0), (1e-4, 11.0, 1)]))


def poisson_exponent(sweep):
    """(b, b_stderr) of A x^b by Poisson maximum likelihood, through scipy.

    With A at its maximum for each b, the log-likelihood is, up to a
    constant, l(b) = b sum(y log x) - sum(y) logsumexp(b log x) over the
    records. b is the brentq root of l'(b), and its error is 1/sqrt(-l''),
    the curvature taken by a central second difference, in which the term
    linear in b drops out.
    """
    log_x, y = np.log(sweep.power), sweep.count
    log_x = log_x - log_x.mean()

    def score(b):
        return np.dot(y, log_x) - y.sum() * np.dot(softmax(b * log_x), log_x)

    b = brentq(score, -50.0, 50.0, xtol=1e-14)
    h = 1e-3
    curvature = y.sum() * (
        logsumexp((b + h) * log_x) - 2.0 * logsumexp(b * log_x)
        + logsumexp((b - h) * log_x)
    ) / h**2
    return b, 1.0 / np.sqrt(curvature)


def assert_exponent_matches_poisson_likelihood(sweep):
    check = fit_quadratic(sweep).exponent_check
    b_ref, se_ref = poisson_exponent(sweep)
    assert abs(check.b - b_ref) <= 1e-5 * se_ref
    assert check.b_stderr == pytest.approx(se_ref, rel=1e-5)


@pytest.mark.parametrize("source", ["sld", "dfb"])
@pytest.mark.parametrize("n_powers, repeats", [(12, 5), (200, 50)])
def test_exponent_fit_matches_poisson_likelihood(source, n_powers, repeats):
    powers = np.geomspace(30e-6, 1e-3, n_powers)
    sweep = power_sweep(
        source_preset(source),
        calibrated_absorber(),
        chain_preset("paper-EMCCD"),
        powers,
        repeats,
        seed=2718,
    )
    assert_exponent_matches_poisson_likelihood(sweep)


@settings(max_examples=40, deadline=None)
@given(
    log_scale=st.floats(min_value=0.0, max_value=4.0),
    b=st.floats(min_value=1.5, max_value=2.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exponent_fit_matches_poisson_likelihood_property(log_scale, b, seed):
    # Poisson counts of a power law with 10**log_scale expected counts at
    # the 300 uW calibration power, over the nominal 12 x 5 grid.
    expected = 10.0**log_scale * (POWERS / 300e-6) ** b
    counts = np.random.default_rng(seed).poisson(expected[:, None], (12, 5))
    records = [
        (float(p), int(c), k)
        for p, row in zip(POWERS, counts)
        for k, c in enumerate(row)
    ]
    assert_exponent_matches_poisson_likelihood(make_sweep(records))


def test_exponent_fit_far_from_quadratic_matches_poisson_likelihood():
    # Counts that do not grow with power, over 1.5 decades: a Newton step
    # from b = 2 overshoots the maximum; the bracketed steps still reach it.
    counts = np.random.default_rng(5).poisson(1000.0, (12, 5))
    records = [
        (float(p), int(c), k)
        for p, row in zip(POWERS, counts)
        for k, c in enumerate(row)
    ]
    assert_exponent_matches_poisson_likelihood(make_sweep(records))


@pytest.mark.parametrize(
    "counts",
    [
        [7.0] * 6,  # equal at every power: no power law to fit
        [0.0] * 6,
        [0.0, 0.0, 0.0, 0.0, 0.0, 9.0],  # counts at one power only
        [0.0, -2.0, 0.0, -1.0, 0.0, 0.0],  # no positive count
        [1e200, 2e200, 4e200, 8e200, 1.6e201, 3.2e201],  # normal matrix overflows
    ],
)
def test_degenerate_sweep_raises_package_error(counts):
    x = np.geomspace(1e-4, 1e-3, 6)
    sweep = make_sweep([(float(p), c, 0) for p, c in zip(x, counts)])
    # Refused before any arithmetic can overflow: no RuntimeWarning either.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PhotonstatError):
            fit_quadratic(sweep)


def test_calibration_anchor():
    absorber = calibrated_absorber()
    counts = fluorescence_counts(300e-6, 1.0, absorber, chain_preset("paper-EMCCD"))
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
    assert sweep_rows(a) == sweep_rows(b)
    assert len(sweep_rows(a)) == POWERS.size * 4
    reps = sorted({r for _, _, r in sweep_rows(a)})
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
    assert sweep.count[-1] > 1e19


def test_sweep_noise_off_records_equal_per_power_expectations():
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD", dark_rate=20.0)
    sweep = power_sweep(
        source_preset("sld"), absorber, chain, POWERS, 3, 5, noise=False
    )
    expected = [
        (
            chain.power_correction_eta * p,
            fluorescence_counts(p, 2.0, absorber, chain),
            k,
        )
        for p in POWERS
        for k in range(3)
    ]
    assert sweep_rows(sweep) == expected
    assert all(type(c) is float for _, c, _ in sweep_rows(sweep))


def test_sweep_counts_match_poisson_moments():
    # One power, many repeats: the counts are Poisson in the expectation.
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    n = 20_000
    sweep = power_sweep(source_preset("dfb"), absorber, chain, [300e-6], n, 21)
    lam = fluorescence_counts(300e-6, 1.0, absorber, chain)
    counts = sweep.count
    assert all(type(c) is int for _, c, _ in sweep_rows(sweep))
    mean_se = np.sqrt(lam / n)
    var_se = np.sqrt((lam + 2.0 * lam**2) / n)
    assert abs(counts.mean() - lam) < 5 * mean_se
    assert abs(counts.var(ddof=1) - lam) < 5 * var_se


def test_sweep_seeds_give_different_counts():
    absorber = calibrated_absorber()
    chain = chain_preset("paper-EMCCD")
    a = power_sweep(source_preset("sld"), absorber, chain, POWERS, 4, 31)
    b = power_sweep(source_preset("sld"), absorber, chain, POWERS, 4, 32)
    assert a.power.tolist() == b.power.tolist()
    assert not np.array_equal(a.count, b.count)


def test_dark_counts_add_constant_offset():
    absorber = calibrated_absorber()
    dark_chain = chain_preset("paper-EMCCD", dark_rate=50.0)
    clean_chain = chain_preset("paper-EMCCD")
    for p in (30e-6, 1e-3):
        with_dark = fluorescence_counts(p, 1.0, absorber, dark_chain)
        clean = fluorescence_counts(p, 1.0, absorber, clean_chain)
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


def test_fig2_report_rebuilds_reproduce_fig2_and_skips_incomplete_panels():
    full = default_report(17, ratio_band=(1.9, 2.0))
    pairs = [(p.fluorophore, p.sweeps) for p in full.panels]
    rebuilt = fig2_report(pairs, True, 0.10, 0.02, (1.9, 2.0))
    assert rebuilt.ratios() == full.ratios()
    assert rebuilt.error_budget == full.error_budget
    assert rebuilt.all_within_band == full.all_within_band
    # Drop one sweep of every panel out of band: the rest decide the flag.
    assert not full.all_within_band
    assert any(p.within_band for p in full.panels)
    pairs = [
        (name, sweeps if panel.within_band else dict(list(sweeps.items())[:1]))
        for (name, sweeps), panel in zip(pairs, full.panels)
    ]
    partial = fig2_report(pairs, True, 0.10, 0.02, (1.9, 2.0))
    assert partial.all_within_band
    for panel, whole in zip(partial.panels, full.panels):
        if whole.within_band:
            assert panel.ratio == whole.ratio
        else:
            assert panel.ratio is None and panel.within_band is None
            assert list(panel.fits) == list(panel.sweeps) == [next(iter(whole.fits))]
    assert partial.ratios() == [
        p.ratio.value if p.within_band else None for p in full.panels
    ]


def test_report_thread_count_does_not_change_results():
    serial = default_report(13, threads=1)
    threaded = default_report(13, threads=4)
    for p1, p2 in zip(serial.panels, threaded.panels):
        assert p1.ratio.value == p2.ratio.value
        for key in p1.sweeps:
            assert sweep_rows(p1.sweeps[key]) == sweep_rows(p2.sweeps[key])


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


@pytest.mark.parametrize("target", [3.0, 30.0, 1000.0])
def test_ratio_pull_is_unbiased_at_any_count_level(target):
    # Shot noise only, over 300 panels: the pull of the ratio about 2 has
    # mean 0 within 3 standard errors and unit spread. A fit that weights
    # counts by their observed values read pull means of 0.58 and 0.34 at
    # 3 and 30 counts.
    pulls = []
    for master_seed in range(91000, 91100):
        report = default_report(
            master_seed,
            calibration_target=target,
            panel_scale_error=0.0,
            arm_scale_error=0.0,
            ratio_band=(0.0, 10.0),
        )
        pulls += [(p.ratio.value - 2.0) / p.ratio.stderr for p in report.panels]
    assert abs(np.mean(pulls)) <= 3.0 / np.sqrt(len(pulls))
    assert 0.9 <= np.std(pulls, ddof=1) <= 1.1


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

    with pytest.raises(ConfigError, match=r"known presets: \['dfb', 'sld', 'sld-residual'\]"):
        source_preset("nosuch")
    with pytest.raises(ConfigError, match="known presets: .*'DCM'"):
        absorber_preset("nosuch")
    with pytest.raises(ConfigError, match=r"known presets: \['paper-EMCCD'\]"):
        chain_preset("nosuch", dark_rate=1.0)


def test_chain_preset_overall_efficiency():
    chain = chain_preset("paper-EMCCD")
    assert chain.overall_efficiency == pytest.approx(0.12, rel=1e-9)
    assert chain.power_correction_eta == pytest.approx(0.61)
