"""Field synthesis: statistics targets, coherence times, grid validation."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT

from photonstat.correlation import gn_zero
from photonstat.errors import EstimationError, InvalidArgumentError, SamplingError
from photonstat.seeding import rng_for
from photonstat.sources import (
    G1_DECAY_THRESHOLD,
    FieldTrace,
    SourceSpec,
    _fft_len,
    _lag_sums,
    coherence_time,
    estimate_bandwidth_hz,
    make_coherent_trace,
    make_pseudothermal_trace,
    make_thermal_trace,
    make_trace,
    make_tunable_trace,
    nominal_coherence_time,
    nominal_g2,
)

BW = 5.0e12  # Hz, keeps tau_c around 0.13 ps


def thermal_spec(shape="gaussian", power=1e-3):
    return SourceSpec(
        statistics="thermal-gaussian",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        spectral_shape=shape,
        mean_power=power,
        bandwidth_convention="frequency",
    )


def quick_trace(spec, n_tauc=20_000, per_tauc=8, seed=1):
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    return make_trace(spec, n_tauc * tau_c, tau_c / per_tauc, seed)


def test_mean_power_renormalized_exactly():
    trace = quick_trace(thermal_spec(power=2.5e-3), n_tauc=500)
    assert trace.mean_power() == pytest.approx(2.5e-3, rel=1e-12)


def test_thermal_g2_is_two():
    est = gn_zero(quick_trace(thermal_spec()), 2)
    assert abs(est.values[0] - 2.0) < max(4 * est.std_errors[0], 0.05)


def test_coherent_zero_noise_is_constant_intensity():
    spec = SourceSpec(
        statistics="coherent",
        center_wavelength=976e-9,
        bandwidth_fwhm=2e6,
        spectral_shape="lorentzian",
        mean_power=1e-3,
        amplitude_noise=0.0,
    )
    trace = make_coherent_trace(spec, 1e-6, 1e-10, 3)
    intensity = trace.intensity()
    assert np.ptp(intensity) < 1e-12 * intensity.mean()
    for n in range(2, 7):
        assert abs(gn_zero(trace, n).values[0] - 1.0) < 1e-12


def test_coherent_amplitude_noise_g2():
    # (1 + 6 eps^2 + 3 eps^4) / (1 + eps^2)^2 for Gaussian quadrature noise
    eps = 0.1
    expected = (1 + 6 * eps**2 + 3 * eps**4) / (1 + eps**2) ** 2
    assert expected == pytest.approx(1.039408, abs=1e-6)
    spec = SourceSpec(
        statistics="coherent",
        center_wavelength=976e-9,
        bandwidth_fwhm=2e6,
        spectral_shape="lorentzian",
        mean_power=1e-3,
        amplitude_noise=eps,
    )
    trace = make_coherent_trace(spec, 2e-4, 1e-9, 4)  # 2e5 samples
    est = gn_zero(trace, 2)
    assert abs(est.values[0] - expected) < max(4 * est.std_errors[0], 0.002)


@pytest.mark.parametrize("modes", [1, 2, 4, 16, 64])
def test_pseudothermal_g2_target(modes):
    spec = SourceSpec(
        statistics="pseudo-thermal",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        mean_power=1e-3,
        mode_count=modes,
    )
    tau_c = nominal_coherence_time("gaussian", BW)
    n_tauc = 5_000 if modes >= 16 else 20_000
    trace = make_pseudothermal_trace(spec, n_tauc * tau_c, tau_c / 8, 7 + modes)
    est = gn_zero(trace, 2)
    target = 2.0 - 1.0 / modes
    assert abs(est.values[0] - target) < max(3 * est.std_errors[0], 0.02)


def pseudothermal_loop(spec, duration, dt, seed):
    """Reference synthesis: one full-length complex exponential per mode."""
    n = int(round(duration / dt))
    m = spec.mode_count
    rng = rng_for(seed)
    dnu = spec.bandwidth_hz
    if spec.spectral_shape == "gaussian":
        sigma = dnu / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        nu = rng.normal(0.0, sigma, m)
    else:
        nu = rng.standard_cauchy(m) * dnu / 2.0
    limit = 0.4 / dt
    for k in range(m):
        while abs(nu[k]) > limit:
            if spec.spectral_shape == "gaussian":
                nu[k] = rng.normal(0.0, sigma)
            else:
                nu[k] = rng.standard_cauchy() * dnu / 2.0
    phases = rng.uniform(0.0, 2.0 * np.pi, m)
    t = np.arange(n) * dt
    envelope = np.zeros(n, dtype=np.complex128)
    for k in range(m):
        envelope += np.exp(1j * (phases[k] + 2.0 * np.pi * nu[k] * t))
    return envelope * np.sqrt(spec.mean_power / np.mean(np.abs(envelope) ** 2))


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("modes", [1, 3, 64])
def test_pseudothermal_matches_mode_loop(modes, shape):
    spec = SourceSpec(
        statistics="pseudo-thermal",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        spectral_shape=shape,
        mean_power=1e-3,
        mode_count=modes,
    )
    tau_c = nominal_coherence_time(shape, BW)
    dt = tau_c / 8
    for n_tauc in (250, 2_501):
        trace = make_pseudothermal_trace(spec, n_tauc * tau_c, dt, 17)
        expected = pseudothermal_loop(spec, n_tauc * tau_c, dt, 17)
        # Both forms carry the round-off of phase arguments up to
        # 2 pi * 0.4 / dt * duration, relative eps each.
        max_phase = 2.0 * np.pi * 0.4 * trace.n_samples
        tol = 8.0 * np.finfo(float).eps * max_phase * np.sqrt(spec.mean_power)
        assert trace.n_samples == expected.size
        assert np.max(np.abs(trace.samples - expected)) <= tol


def test_pseudothermal_concurrent_synthesis_is_bit_identical():
    spec = SourceSpec(
        statistics="pseudo-thermal",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        mean_power=1e-3,
        mode_count=64,
    )
    seeds = range(30, 38)
    serial = [quick_trace(spec, seed=s).samples for s in seeds]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda s: quick_trace(spec, seed=s).samples, seeds))
    for a, b in zip(serial, threaded):
        assert a.tobytes() == b.tobytes()


def test_fft_len_is_smallest_five_smooth():
    def five_smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for m in range(1, 3_001):
        brute = m
        while not five_smooth(brute):
            brute += 1
        assert _fft_len(m) == brute, m
    for m, length in ((160_241, 162_000), (2_000_241, 2_025_000), (2**20 + 1, 1_049_760)):
        assert _fft_len(m) == length


def tunable_spec(target, power=1e-3):
    return SourceSpec(
        statistics="tunable",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        mean_power=power,
        target_g2=target,
    )


@pytest.mark.parametrize("target", [1.0, 1.25, 1.5, 1.75, 2.0, 3.0])
def test_tunable_g2_target(target):
    tau_c = nominal_coherence_time("gaussian", BW)
    trace = make_tunable_trace(
        target, 30_000 * tau_c, tau_c / 8, int(10 * target), spec=tunable_spec(target)
    )
    est = gn_zero(trace, 2)
    assert abs(est.values[0] - target) < max(4 * est.std_errors[0], 0.04)


def test_tunable_default_spectrum():
    # Without a spec the synthesized field carries a near-IR broadband
    # spectrum; only the grid has to respect it.
    trace = make_tunable_trace(1.5, 2e-10, 1e-14, 3)
    assert trace.mean_power() > 0


def test_tunable_mean_power_preserved():
    spec = tunable_spec(1.5, power=4e-3)
    tau_c = nominal_coherence_time("gaussian", BW)
    trace = make_tunable_trace(1.5, 2_000 * tau_c, tau_c / 8, 11, spec=spec)
    assert trace.mean_power() == pytest.approx(4e-3, rel=1e-12)


def test_coherence_time_gaussian():
    spec = thermal_spec()
    tau_c = nominal_coherence_time("gaussian", spec.bandwidth_hz)
    assert tau_c == pytest.approx(np.sqrt(2 * np.log(2) / np.pi) / BW, rel=1e-12)
    trace = quick_trace(spec, n_tauc=20_000, per_tauc=16, seed=5)
    assert coherence_time(trace) == pytest.approx(tau_c, rel=0.05)


def test_coherence_time_lorentzian():
    # The integrand has slow wings; the 5% check needs a fine grid.
    spec = thermal_spec(shape="lorentzian")
    tau_c = nominal_coherence_time("lorentzian", spec.bandwidth_hz)
    assert tau_c == pytest.approx(1.0 / (np.pi * BW), rel=1e-12)
    trace = quick_trace(spec, n_tauc=20_000, per_tauc=64, seed=6)
    assert coherence_time(trace) == pytest.approx(tau_c, rel=0.05)


def reference_coherence_time(trace):
    """coherence_time from the full fft/ifft autocorrelation it replaced."""
    e = trace.samples
    n = e.size
    max_lag = n // 2
    nfft = _fft_len(n + max_lag + 1)
    spec = np.fft.fft(e, nfft)
    acorr = np.fft.ifft(spec * np.conj(spec))[: max_lag + 1]
    acorr = acorr / (n - np.arange(max_lag + 1))
    g1 = np.abs(acorr / acorr[0])
    k_star = int(np.nonzero(g1 < G1_DECAY_THRESHOLD)[0][0])
    return float(2.0 * np.trapezoid(g1[: k_star + 1] ** 2, dx=trace.dt))


def random_walk_phase_trace(n, step_var, seed):
    # |g1(k)| = exp(-k step_var / 2): decays below 0.05 near k = 6 / step_var.
    phase = np.cumsum(rng_for(seed).normal(0.0, np.sqrt(step_var), n))
    return FieldTrace(np.exp(1j * phase), 1e-15, 1e15, seed)


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
def test_coherence_time_matches_full_autocorrelation(shape):
    # 80 000 samples: the decay is found by the short block-wise search.
    trace = quick_trace(thermal_spec(shape=shape), n_tauc=5_000, per_tauc=16, seed=7)
    assert coherence_time(trace) == pytest.approx(
        reference_coherence_time(trace), rel=1e-12
    )


def test_coherence_time_beyond_short_search():
    # The decay lies past the short search range, so all n/2 lags are used.
    trace = random_walk_phase_trace(60_000, 6.0 / 4_000, seed=2)
    assert coherence_time(trace) == pytest.approx(
        reference_coherence_time(trace), rel=1e-12
    )


@pytest.mark.parametrize("kind", ["real", "complex", "int"])
@pytest.mark.parametrize("n, max_lag", [(40_000, 50), (40_000, 19_999), (3_000, 7)])
def test_lag_sums_match_brute_force(kind, n, max_lag):
    # (40 000, 50) runs the block-wise path, the others one padded FFT.
    rng = rng_for(n + max_lag, 4)
    x = {
        "real": rng.standard_normal(n),
        "complex": rng.standard_normal(n) + 1j * rng.standard_normal(n),
        "int": rng.poisson(2.0, n),
    }[kind]
    sums = _lag_sums(x, max_lag)
    assert sums.shape == (max_lag + 1,)
    assert np.iscomplexobj(sums) == (kind == "complex")
    lags = np.unique([0, 1, 7, max_lag // 2, max_lag - 1, max_lag])
    brute = np.array([np.vdot(x[: n - k], x[k:]) for k in lags])
    tol = 1e-12 * float(np.vdot(x, x).real)
    assert np.all(np.abs(sums[lags] - brute) <= tol)


def test_coherence_time_needs_decay():
    spec = SourceSpec(
        statistics="coherent",
        center_wavelength=976e-9,
        bandwidth_fwhm=2e6,
        spectral_shape="lorentzian",
        mean_power=1e-3,
    )
    trace = make_coherent_trace(spec, 1e-6, 1e-10, 3)
    with pytest.raises(EstimationError):
        coherence_time(trace)


def test_grid_too_coarse_rejected():
    spec = thermal_spec()
    with pytest.raises(SamplingError):
        make_thermal_trace(spec, 1e-9, 1.0 / BW, 1)


def test_short_duration_warns():
    spec = thermal_spec()
    tau_c = nominal_coherence_time("gaussian", BW)
    with pytest.warns(UserWarning):
        make_thermal_trace(spec, 50 * tau_c, tau_c / 8, 1)


def test_bandwidth_estimate_round_trip():
    trace = quick_trace(thermal_spec(), n_tauc=20_000, seed=9)
    assert estimate_bandwidth_hz(trace) == pytest.approx(BW, rel=0.10)


def test_wavelength_bandwidth_convention():
    spec = SourceSpec(
        statistics="thermal-gaussian",
        center_wavelength=976e-9,
        bandwidth_fwhm=20e-9,
        mean_power=1e-3,
        bandwidth_convention="wavelength",
    )
    expected = C_LIGHT * 20e-9 / 976e-9**2
    assert spec.bandwidth_hz == pytest.approx(expected, rel=1e-9)


def test_nominal_g2_closed_forms():
    assert nominal_g2(thermal_spec()) == 2.0
    coherent = SourceSpec(
        statistics="coherent",
        center_wavelength=976e-9,
        bandwidth_fwhm=2e6,
        spectral_shape="lorentzian",
        mean_power=1e-3,
    )
    assert nominal_g2(coherent) == 1.0
    eps = 0.1
    noisy = SourceSpec(
        statistics="coherent",
        center_wavelength=976e-9,
        bandwidth_fwhm=2e6,
        spectral_shape="lorentzian",
        mean_power=1e-3,
        amplitude_noise=eps,
    )
    assert nominal_g2(noisy) == pytest.approx(1.039408, abs=1e-6)
    pt = SourceSpec(
        statistics="pseudo-thermal",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        mean_power=1e-3,
        mode_count=4,
    )
    assert nominal_g2(pt) == 1.75
    tun = SourceSpec(
        statistics="tunable",
        center_wavelength=976e-9,
        bandwidth_fwhm=BW,
        mean_power=1e-3,
        target_g2=1.7,
    )
    assert nominal_g2(tun) == 1.7


def test_trace_determinism():
    spec = thermal_spec()
    a = quick_trace(spec, n_tauc=500, seed=42)
    b = quick_trace(spec, n_tauc=500, seed=42)
    c = quick_trace(spec, n_tauc=500, seed=43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SourceSpec(
            statistics="thermal-gaussian",
            center_wavelength=976e-9,
            bandwidth_fwhm=BW,
            spectral_shape="triangular",
            mean_power=1e-3,
        )
    with pytest.raises(InvalidArgumentError):
        SourceSpec(
            statistics="thermal-gaussian",
            center_wavelength=976e-9,
            bandwidth_fwhm=-1.0,
            mean_power=1e-3,
        )
    with pytest.raises(InvalidArgumentError):
        SourceSpec(
            statistics="tunable",
            center_wavelength=976e-9,
            bandwidth_fwhm=BW,
            mean_power=1e-3,
            target_g2=0.5,
        )
    with pytest.raises(InvalidArgumentError):
        make_tunable_trace(0.9, 1e-9, 1e-14, 1)


def test_make_trace_dispatch_unknown():
    spec = thermal_spec()
    object.__setattr__(spec, "statistics", "squeezed")
    with pytest.raises(InvalidArgumentError):
        make_trace(spec, 1e-9, 1e-14, 1)
