"""Absorption rates: lineshape normalization, statistics enhancement,
validity checks, error propagation."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from photonstat.errors import (
    DegenerateInputError,
    DivisionDomainError,
    InvalidArgumentError,
    ModelDomainError,
)
from photonstat import sources
from photonstat.correlation import gn_zero
from photonstat.presets import absorber_preset, source_preset
from photonstat.sources import (
    FieldTrace,
    SourceSpec,
    make_trace,
    nominal_coherence_time,
    trace_grid,
)
from photonstat.tpa import (
    AbsorberSpec,
    lineshape,
    mollow_rate,
    mpa_rate_timedomain,
    rate_ratio,
    tpa_rate_timedomain,
)

OMEGA_F = 3.86e15
DW_F = 5.0e14


def absorber(dipole=1.0):
    return AbsorberSpec(
        omega_f=OMEGA_F,
        delta_omega_f=DW_F,
        dipole_sq=dipole,
        quantum_yield=0.5,
        label="test dye",
    )


def thermal_trace(n_tauc=20_000, seed=1):
    spec = SourceSpec(
        statistics="thermal-gaussian",
        center_wavelength=976e-9,
        bandwidth_fwhm=5.0e12,
        spectral_shape="gaussian",
        mean_power=1e-3,
    )
    tau_c = nominal_coherence_time("gaussian", 5.0e12)
    return make_trace(spec, n_tauc * tau_c, tau_c / 8, seed)


def coherent_trace():
    spec = SourceSpec(
        statistics="coherent",
        center_wavelength=976e-9,
        bandwidth_fwhm=2e6,
        spectral_shape="lorentzian",
        mean_power=1e-3,
    )
    return make_trace(spec, 1e-7, 1e-10, 2)


def test_lineshape_unit_area():
    a = absorber()
    span = 4000 * DW_F
    val, err = quad(
        lineshape, OMEGA_F - span, OMEGA_F + span,
        args=(a,), points=[OMEGA_F], limit=400,
    )
    # Exact integral over a symmetric window, then the full-line limit.
    truncated = 4.0 * np.arctan(span / (DW_F / 2.0))
    assert val == pytest.approx(truncated, rel=1e-9)
    assert val == pytest.approx(2 * np.pi, rel=2e-4)


def test_lineshape_peak():
    a = absorber()
    assert lineshape(OMEGA_F, a) == pytest.approx(4.0 / DW_F, rel=1e-12)
    assert lineshape(OMEGA_F + DW_F / 2, a) == pytest.approx(2.0 / DW_F, rel=1e-12)


def test_rate_linear_in_g2_and_dipole_quadratic_in_intensity():
    a = absorber()
    base = mollow_rate(a, 1.0, 2.0, OMEGA_F / 2)
    assert mollow_rate(a, 2.0, 2.0, OMEGA_F / 2) == pytest.approx(2 * base, rel=1e-12)
    assert mollow_rate(absorber(3.0), 1.0, 2.0, OMEGA_F / 2) == pytest.approx(
        3 * base, rel=1e-12
    )
    assert mollow_rate(a, 1.0, 4.0, OMEGA_F / 2) == pytest.approx(4 * base, rel=1e-12)


def test_rate_rejects_nonclassical_g2():
    with pytest.raises(InvalidArgumentError):
        mollow_rate(absorber(), 0.8, 1.0, OMEGA_F / 2)
    with pytest.raises(InvalidArgumentError):
        mollow_rate(absorber(), 1.0, -1.0, OMEGA_F / 2)


def test_thermal_doubles_coherent_rate():
    a = absorber()
    r_th = tpa_rate_timedomain(thermal_trace(), a)
    ct = coherent_trace()
    co = AbsorberSpec(OMEGA_F, DW_F, 1.0, 0.5, "ref")
    r_co = mollow_rate(co, 1.0, ct.mean_power(), ct.carrier_freq)
    # Same mean power, same absorber: the only difference is the carrier
    # detuning of the two traces (both near 976 nm) and the bunching factor.
    scale = lineshape(2 * thermal_trace(n_tauc=100, seed=1).carrier_freq, a) / lineshape(
        2 * ct.carrier_freq, a
    )
    assert r_th / (r_co * scale) == pytest.approx(2.0, abs=0.05)


def test_square_wave_matches_bunched_rate():
    # 50% duty square modulation has <I^2> = 2 <I>^2, the same enhancement
    # as thermal light, with zero estimator noise.
    a = absorber()
    n = 4096
    amp = np.zeros(n)
    amp[: n // 2] = np.sqrt(2e-3)
    rng_phase = np.exp(1j * 0.3)
    trace = FieldTrace(amp * rng_phase, 1e-15, OMEGA_F / 2, seed_id=0)
    rate = tpa_rate_timedomain(trace, a, force=True)
    expected = mollow_rate(a, 2.0, trace.mean_power(), OMEGA_F / 2)
    assert rate == pytest.approx(expected, rel=1e-12)


def test_mpa_order_two_equals_tpa():
    a = absorber()
    trace = thermal_trace(n_tauc=1_000, seed=4)
    scale = a.dipole_sq * lineshape(2 * trace.carrier_freq, a)
    assert mpa_rate_timedomain(trace, 2, scale) == pytest.approx(
        tpa_rate_timedomain(trace, a), rel=1e-12
    )


def test_mpa_factorial_enhancement():
    trace = thermal_trace(n_tauc=100_000, seed=5)
    intensity_mean = trace.mean_power()
    r3 = mpa_rate_timedomain(trace, 3, 1.0)
    assert r3 / intensity_mean**3 == pytest.approx(6.0, rel=0.10)


def test_mpa_validation():
    trace = thermal_trace(n_tauc=100, seed=6)
    with pytest.raises(InvalidArgumentError):
        mpa_rate_timedomain(trace, 7, 1.0)
    with pytest.raises(InvalidArgumentError):
        mpa_rate_timedomain(trace, 2, 0.0)


def test_raw_moments_refuse_an_overflowing_mean():
    # |E| ~ 1e40 puts I^6 near 1e480: this was inf with an overflow
    # RuntimeWarning, and so an infinite six-photon rate.
    trace = thermal_trace(n_tauc=1_000, seed=9)
    strong = FieldTrace(trace.samples * 1e40, trace.dt, trace.carrier_freq, 9)
    for call in (strong.moment, strong.intensity_power):
        with pytest.raises(DegenerateInputError, match="overflows float64"):
            call(6)
    with pytest.raises(DegenerateInputError, match="overflows float64"):
        mpa_rate_timedomain(strong, 6, 1.0)
    assert strong.moment(3) == pytest.approx(trace.moment(3) * 1e240, rel=1e-12)


def test_narrowband_absorber_rejected():
    narrow = AbsorberSpec(OMEGA_F, 1e13, 1.0, 0.5, "narrow")
    trace = thermal_trace(n_tauc=2_000, seed=7)
    with pytest.raises(ModelDomainError):
        tpa_rate_timedomain(trace, narrow)
    assert tpa_rate_timedomain(trace, narrow, force=True) > 0


def refuse_coherence_pass(*args, **kwargs):
    raise AssertionError("sources._coherence_time called")


def test_forced_rate_skips_the_coherence_pass(monkeypatch):
    # force=True overrides the broadband check, so no coherence pass runs.
    monkeypatch.setattr(sources, "_coherence_time", refuse_coherence_pass)
    trace = thermal_trace(n_tauc=2_000, seed=8)
    narrow = AbsorberSpec(OMEGA_F, 1e13, 1.0, 0.5, "narrow")
    assert tpa_rate_timedomain(trace, narrow, force=True) > 0
    with pytest.raises(AssertionError):
        tpa_rate_timedomain(trace, narrow)


SLD = source_preset("sld")
PT_64 = replace(SLD, statistics="pseudo-thermal", mode_count=64)
LORENTZ_BW = 5.0e12
PRESETS_AND_NARROW = {
    **{name: absorber_preset(name) for name in ("DCM", "CdTe-QD", "RhodamineB")},
    "narrow": AbsorberSpec(OMEGA_F, 1e13, 1.0, 0.5, "narrow"),
}


@pytest.mark.parametrize(
    "spec, absorbers, refused",
    [
        (SLD, PRESETS_AND_NARROW, {"narrow"}),
        (PT_64, PRESETS_AND_NARROW, {"narrow"}),
        # A Lorentzian line reads ~2x its FWHM: refused at 10x, accepted at 25x.
        (
            SourceSpec("thermal-gaussian", 976e-9, LORENTZ_BW, "lorentzian"),
            {k: AbsorberSpec(OMEGA_F, k * 2 * np.pi * LORENTZ_BW, 1.0, 0.5) for k in (10, 25)},
            {10},
        ),
    ],
    ids=["sld", "pt-64", "lorentzian"],
)
def test_broadband_check_is_deterministic_from_the_cached_coherence_time(
    monkeypatch, spec, absorbers, refused
):
    _, duration, dt = trace_grid(spec, 5000.0, 8.0)
    for seed in range(5):
        trace = make_trace(spec, duration, dt, seed)
        gn_zero(trace, 2)
        with monkeypatch.context() as patch:
            # The check reads the coherence time gn_zero cached: no second pass.
            patch.setattr(sources, "_coherence_time", refuse_coherence_pass)
            outcome = set()
            for key, a in absorbers.items():
                try:
                    tpa_rate_timedomain(trace, a)
                except ModelDomainError:
                    outcome.add(key)
        assert outcome == refused, f"seed {seed}"


def test_rate_ratio_propagation():
    r = rate_ratio(6.0, 3.0, stderr_a=0.3, stderr_b=0.3)
    assert r.value == pytest.approx(2.0)
    expected = np.sqrt((0.3 / 3.0) ** 2 + (6.0 * 0.3 / 9.0) ** 2)
    assert r.stderr == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DivisionDomainError):
        rate_ratio(1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        rate_ratio(1.0, 1.0, stderr_a=-0.1)
    # A ratio or error beyond float64: were an OverflowError and a
    # ZeroDivisionError of Python floats.
    for args in [(1e300, 1e-300), (1.0, 1e-200, 1.0, 1.0), (1.0, 1e-170, 0.0, 1.0)]:
        with pytest.raises(DivisionDomainError, match="overflows"):
            rate_ratio(*args)


def test_absorber_validation():
    with pytest.raises(InvalidArgumentError):
        AbsorberSpec(OMEGA_F, -1.0, 1.0, 0.5, "bad")
    with pytest.raises(InvalidArgumentError):
        AbsorberSpec(OMEGA_F, DW_F, 1.0, 1.5, "bad")
    with pytest.raises(InvalidArgumentError):
        AbsorberSpec(OMEGA_F, DW_F, -1.0, 0.5, "bad")
