"""Field synthesis: statistics targets, coherence times, grid validation."""

import dataclasses
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT

from photonstat import sources
from photonstat.correlation import gn_zero
from photonstat.errors import (
    DegenerateInputError,
    EstimationError,
    InvalidArgumentError,
    SamplingError,
)
from photonstat.presets import absorber_preset, chain_preset, source_preset
from photonstat.seeding import rng_for
from photonstat.sources import (
    G1_DECAY_THRESHOLD,
    SPEED_OF_LIGHT,
    FieldTrace,
    SourceSpec,
    _fft_len,
    _g1_floor,
    _lag_sums,
    coherence_time,
    make_trace,
    nominal_coherence_time,
    nominal_g2,
    trace_grid,
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
    trace = make_trace(spec, 1e-6, 1e-10, 3)
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
    trace = make_trace(spec, 2e-4, 1e-9, 4)  # 2e5 samples
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
    trace = make_trace(spec, n_tauc * tau_c, tau_c / 8, 7 + modes)
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
        trace = make_trace(spec, n_tauc * tau_c, dt, 17)
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
    trace = make_trace(
        tunable_spec(target), 30_000 * tau_c, tau_c / 8, int(10 * target)
    )
    est = gn_zero(trace, 2)
    assert abs(est.values[0] - target) < max(4 * est.std_errors[0], 0.04)


def test_tunable_mean_power_preserved():
    spec = tunable_spec(1.5, power=4e-3)
    tau_c = nominal_coherence_time("gaussian", BW)
    trace = make_trace(spec, 2_000 * tau_c, tau_c / 8, 11)
    assert trace.mean_power() == pytest.approx(4e-3, rel=1e-12)


# The generators written as out-of-place expressions, a new array per step:
# the reference the in-place generators must match to the last bit.
def reference_renormalize(envelope, mean_power):
    return envelope * np.sqrt(mean_power / np.mean(np.abs(envelope) ** 2))


def reference_thermal(spec, n, dt, seed):
    rng = rng_for(seed)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    freqs, fwhm = np.fft.fftfreq(n, dt), spec.bandwidth_hz
    if spec.spectral_shape == "gaussian":
        density = np.exp(-4.0 * np.log(2.0) * (freqs / fwhm) ** 2)
    else:
        density = 1.0 / (1.0 + (2.0 * freqs / fwhm) ** 2)
    return reference_renormalize(np.fft.ifft(z * np.sqrt(density)), spec.mean_power)


def reference_coherent(spec, n, dt, seed):
    rng = rng_for(seed)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    eps = spec.amplitude_noise
    if eps == 0.0:
        return np.full(n, np.sqrt(spec.mean_power) * phase)
    amp = 1.0 + eps * rng.standard_normal(n)
    return reference_renormalize(amp.astype(np.complex128) * phase, spec.mean_power)


def reference_tunable(spec, n, dt, seed):
    target_g2 = spec.target_g2
    if target_g2 == 1.0:
        return reference_coherent(dataclasses.replace(spec, amplitude_noise=0.0), n, dt, seed)
    base = reference_thermal(spec, n, dt, seed)
    if target_g2 == 2.0:
        return base
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    seg = max(2, int(round(16.0 * tau_c / dt)))
    n_seg = (n + seg - 1) // seg
    rng = rng_for(seed, 1)
    if target_g2 <= 2.0:
        thermal_mask = np.repeat(rng.random(n_seg) < target_g2 - 1.0, seg)[:n]
        seg_phase = np.repeat(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_seg)), seg)[:n]
        envelope = np.where(thermal_mask, base, np.sqrt(spec.mean_power) * seg_phase)
    else:
        q = 2.0 / target_g2
        on_mask = np.repeat(rng.random(n_seg) < q, seg)[:n]
        envelope = np.where(on_mask, base / np.sqrt(q), 0.0)
    return reference_renormalize(envelope, spec.mean_power)


REFERENCE_GENERATORS = {
    "thermal-gaussian": reference_thermal,
    "coherent": reference_coherent,
    # Only the renormalization of this generator works in place: the test
    # swaps in reference_renormalize.
    "pseudo-thermal": sources._pseudothermal,
    "tunable": reference_tunable,
}


def every_class_spec(shape):
    """One spec per generator branch: dfb at eps 0 and 0.1, every tunable one."""
    base = thermal_spec(shape)
    return [
        base,
        dataclasses.replace(base, statistics="coherent"),
        dataclasses.replace(base, statistics="coherent", amplitude_noise=0.1),
        dataclasses.replace(base, statistics="pseudo-thermal", mode_count=5),
        *(
            dataclasses.replace(base, statistics="tunable", target_g2=g2)
            for g2 in (1.0, 1.3, 1.5, 2.0, 3.0)
        ),
    ]


BIT_PIN_SPECS = every_class_spec("gaussian") + every_class_spec("lorentzian")


# Tunable segments are 128 samples long at 8 samples per coherence time:
# 20 001 samples end on a ragged segment of 33, 19 200 on a whole one.
@pytest.mark.parametrize("n", [20_001, 19_200])
@pytest.mark.parametrize("spec", BIT_PIN_SPECS)
def test_make_trace_matches_out_of_place_reference_bits(monkeypatch, spec, n):
    dt = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz) / 8
    trace = make_trace(spec, n * dt, dt, 29)
    monkeypatch.setattr(sources, "_renormalize", reference_renormalize)
    expected = REFERENCE_GENERATORS[spec.statistics](spec, n, dt, 29)
    assert np.array_equal(trace.samples.view(np.uint64), expected.view(np.uint64))
    intensity = np.abs(expected) ** 2
    assert np.array_equal(trace.intensity().view(np.uint64), intensity.view(np.uint64))


@pytest.mark.parametrize("spec", every_class_spec("gaussian") + [thermal_spec("lorentzian")])
def test_make_trace_peak_memory_is_at_most_2_6_traces(spec):
    dt = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz) / 8
    make_trace(spec, 1_000 * dt, dt, 3)  # first-call set-up is not synthesis
    tracemalloc.start()
    try:
        trace = make_trace(spec, 500_000 * dt, dt, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * trace.samples.nbytes


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


def reference_g1(samples):
    """|g1(k)| for k = 0..n // 2 from one full fft/ifft autocorrelation."""
    n = samples.size
    max_lag = n // 2
    nfft = _fft_len(n + max_lag + 1)
    spec = np.fft.fft(samples, nfft)
    acorr = np.fft.ifft(spec * np.conj(spec))[: max_lag + 1]
    acorr = acorr / (n - np.arange(max_lag + 1))
    return np.abs(acorr / acorr[0])


def reference_coherence_time(trace):
    """coherence_time from the full fft/ifft autocorrelation it replaced."""
    g1 = reference_g1(trace.samples)
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
@pytest.mark.parametrize(
    "n, max_lag",
    [
        (40_000, 50),  # blocks of 8192: 4 blocks and a tail of 7 232
        (4 * 8_192 + 80, 50),  # exactly 4 blocks, tail 80
        (6 * 8_192 + 2_048, 2_048),  # (n - K) divisible by L: tail of K samples
        (5 * 8_192, 0),  # K = 0, and no tail at all
        (130 * 8_192 + 90, 40),  # more windows than one transform batch
        (40_000, 19_999),  # one padded FFT
        (3_000, 7),  # one padded FFT
    ],
)
def test_lag_sums_match_brute_force(kind, n, max_lag):
    rng = rng_for(n + max_lag, 4)
    x = {
        "real": rng.standard_normal(n),
        "complex": rng.standard_normal(n) + 1j * rng.standard_normal(n),
        "int": rng.poisson(2.0, n),
    }[kind]
    sums = _lag_sums(x, max_lag)
    assert sums.shape == (max_lag + 1,)
    assert np.iscomplexobj(sums) == (kind == "complex")
    lags = np.unique(np.clip([0, 1, 7, max_lag // 2, max_lag - 1, max_lag], 0, max_lag))
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
    trace = make_trace(spec, 1e-6, 1e-10, 3)
    with pytest.raises(EstimationError):
        coherence_time(trace)


def count_lag_sums(monkeypatch):
    """The max_lag of every _lag_sums call from here on."""
    calls = []

    def counting(x, max_lag):
        calls.append(max_lag)
        return _lag_sums(x, max_lag)

    monkeypatch.setattr(sources, "_lag_sums", counting)
    return calls


def check_certificate(trace):
    """The certificate's floor lies under |g1| at every lag up to n // 2.
    Where it fires (coherence_time takes no lag sum), |g1| stays at or
    above the threshold and coherence_time raises."""
    x = trace.samples
    mu = x.mean()
    s = np.sqrt(np.mean(np.abs(x - mu) ** 2))
    power = np.mean(np.abs(x) ** 2)
    floor = (abs(mu) ** 2 - 2 * np.sqrt(2) * abs(mu) * s - 2 * s**2) / power
    g1 = reference_g1(x)
    assert floor <= g1.min() + 1e-12
    # _g1_floor takes s^2 as P - |mu|^2, which rounds to within ~10 eps P;
    # the square root lifts that to ~1e-7 as s -> 0.
    assert _g1_floor(x) == pytest.approx(floor, rel=0, abs=1e-6)
    with pytest.MonkeyPatch.context() as mp:
        calls = count_lag_sums(mp)
        try:
            coherence_time(trace)
            decays = True
        except EstimationError:
            decays = False
    fired = not calls
    event("certificate fired" if fired else "certificate declined")
    if fired:
        assert not decays
        assert g1.min() >= G1_DECAY_THRESHOLD


@settings(max_examples=60, deadline=None)
@given(
    n_tauc=st.integers(200, 2_500),
    shape=st.sampled_from(["gaussian", "lorentzian"]),
    thermal_fraction=st.floats(0.0, 0.15),
    phase=st.floats(0.0, 2.0 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_decay_certificate_on_coherent_plus_thermal(
    n_tauc, shape, thermal_fraction, phase, seed
):
    # Up to 20 000 samples. The certificate's floor crosses the threshold
    # near a thermal power fraction of 0.07.
    thermal = quick_trace(thermal_spec(shape), n_tauc=n_tauc, seed=seed)
    constant = np.sqrt(thermal.mean_power() * (1.0 - thermal_fraction))
    fluctuation = np.sqrt(thermal_fraction) * thermal.samples
    samples = constant * np.exp(1j * phase) + fluctuation
    check_certificate(FieldTrace(samples, thermal.dt, thermal.carrier_freq, seed))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 20_000),
    eps=st.floats(0.0, 0.35),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_decay_certificate_on_noisy_coherent_light(n, eps, seed):
    # The floor crosses the threshold near eps = 0.28.
    spec = dataclasses.replace(source_preset("dfb"), amplitude_noise=eps)
    _, duration, dt = trace_grid(spec, n / 8, 8)
    check_certificate(make_trace(spec, duration, dt, seed))


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 4_000), min_size=2, max_size=5),
    levels=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=5,
        max_size=5,
    ),
    hop_fraction=st.floats(0.0, 0.3),
)
def test_no_decay_certificate_on_a_hopping_field(lengths, levels, hop_fraction):
    # A constant field plus a few-level step fluctuation (a laser with mode
    # hops): its long-range correlations make the cross terms of the bound
    # matter, where those of white or thermal fluctuations average away.
    steps = np.repeat(levels[: len(lengths)], lengths)
    steps -= steps.mean()
    rms = np.sqrt(np.mean(np.abs(steps) ** 2))
    steps = steps / rms if rms > 0 else steps
    samples = np.sqrt(1.0 - hop_fraction) + np.sqrt(hop_fraction) * steps
    check_certificate(FieldTrace(samples, 1e-12, 1e15, 0))


def test_coherent_trace_costs_no_lag_sum(monkeypatch):
    calls = count_lag_sums(monkeypatch)
    spec = dataclasses.replace(source_preset("dfb"), amplitude_noise=0.1)
    _, duration, dt = trace_grid(spec, 250_000, 8)
    trace = make_trace(spec, duration, dt, 11)
    assert trace.n_samples == 2_000_000
    with pytest.raises(EstimationError):
        coherence_time(trace)
    assert trace.bootstrap_block_len == max(1, trace.n_samples // 200)
    assert calls == []


DFB, SLD = source_preset("dfb"), source_preset("sld")


@pytest.mark.parametrize(
    "spec, certified",
    [
        (dataclasses.replace(DFB, amplitude_noise=0.0), True),
        (dataclasses.replace(DFB, amplitude_noise=0.1), True),
        (dataclasses.replace(DFB, amplitude_noise=0.2), True),
        (dataclasses.replace(SLD, statistics="tunable", target_g2=1.0), True),
        (dataclasses.replace(DFB, amplitude_noise=0.3), False),
        (dataclasses.replace(SLD, statistics="pseudo-thermal", mode_count=1), False),
    ],
    ids=["dfb-eps0", "dfb-eps0.1", "dfb-eps0.2", "tunable-g2-1", "dfb-eps0.3", "pt-1"],
)
def test_no_decay_certificate_or_the_full_search(monkeypatch, spec, certified):
    # 160 000 samples. Where the certificate declines, the two-stage search
    # runs out to n // 2 lags and still finds no decay.
    _, duration, dt = trace_grid(spec, 20_000, 8)
    trace = make_trace(spec, duration, dt, 4)
    calls = count_lag_sums(monkeypatch)
    with pytest.raises(EstimationError):
        coherence_time(trace)
    if certified:
        assert calls == []
    else:
        assert max(calls) == trace.n_samples // 2


def test_grid_too_coarse_rejected():
    spec = thermal_spec()
    with pytest.raises(SamplingError):
        make_trace(spec, 1e-9, 1.0 / BW, 1)


@pytest.mark.parametrize("statistics", ["thermal-gaussian", "coherent"])
def test_make_trace_refuses_grid_values_not_positive_and_finite(statistics):
    spec = SourceSpec(statistics=statistics, center_wavelength=976e-9, bandwidth_fwhm=BW)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            make_trace(spec, bad, 1e-14, 1)
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            make_trace(spec, 1e-9, bad, 1)


def test_short_duration_warns():
    spec = thermal_spec()
    tau_c = nominal_coherence_time("gaussian", BW)
    with pytest.warns(UserWarning):
        make_trace(spec, 50 * tau_c, tau_c / 8, 1)


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


def test_speed_of_light_equals_scipy_constant():
    from photonstat import presets

    assert SPEED_OF_LIGHT == C_LIGHT
    assert presets.SPEED_OF_LIGHT is SPEED_OF_LIGHT


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
    below_one = tunable_spec(1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        below_one.target_g2 = 0.9  # a spec cannot change after its validation


@pytest.mark.parametrize(
    "spec",
    [source_preset("sld"), absorber_preset("DCM"), chain_preset("paper-EMCCD")],
    ids=lambda spec: type(spec).__name__,
)
def test_specs_are_frozen(spec):
    for f in dataclasses.fields(spec):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, f.name, getattr(spec, f.name))


def test_make_trace_dispatch_unknown():
    spec = thermal_spec()
    object.__setattr__(spec, "statistics", "squeezed")
    with pytest.raises(InvalidArgumentError):
        make_trace(spec, 1e-9, 1e-14, 1)


def test_trace_samples_are_read_only():
    trace = quick_trace(thermal_spec(), n_tauc=200)
    assert trace.samples.flags.writeable is False
    assert trace.intensity().flags.writeable is False
    with pytest.raises(ValueError):
        trace.samples[0] = 0.0
    with pytest.raises(AttributeError):
        trace.dt = 1.0


def test_trace_copies_the_callers_array():
    # Writing to the array a trace was built from changes no result.
    field = quick_trace(thermal_spec(), n_tauc=2_000).samples.copy()
    pristine = FieldTrace(field.copy(), 1e-14, 1e15, 5)
    trace = FieldTrace(field, 1e-14, 1e15, 5)
    assert not np.shares_memory(trace.samples, field)
    field *= 3.0
    field[::7] = 0.0
    assert np.array_equal(gn_zero(trace, 2).values, gn_zero(pristine, 2).values)
    assert trace.moment(3) == pristine.moment(3)
    assert coherence_time(trace) == coherence_time(pristine)
    # copy=False adopts the array itself: generators and read_trace hand
    # over arrays nobody else holds.
    adopted = FieldTrace(field, 1e-14, 1e15, 5, copy=False)
    assert np.shares_memory(adopted.samples, field)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_trace_refuses_non_finite_samples(bad):
    field = np.ones(1_000, dtype=complex)
    field[100] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        FieldTrace(field, 1e-14, 1e15, 0)


def test_trace_refuses_overflowing_power_and_abnormal_dt():
    huge = np.full(2_000, 1e160, dtype=complex)
    for samples, copy in ((huge, True), (huge[::2], False)):
        with pytest.raises(InvalidArgumentError, match="total power"):
            FieldTrace(samples, 1e-14, 1e15, 0, copy=copy)
    strided = np.ones(2_000, dtype=complex)[::2]
    assert FieldTrace(strided, 1e-14, 1e15, 0, copy=False).mean_power() == 1.0
    for dt in (5e-324, 1e306):  # subnormal; a duration of 1e309 s
        with pytest.raises(InvalidArgumentError, match="normal float"):
            FieldTrace(np.ones(1_000, dtype=complex), dt, 1e15, 0)


@pytest.mark.parametrize("scale, order", [(1e150, 2), (1e40, 6), (1e-100, 2), (1e-60, 4)])
def test_normalized_moments_refuse_an_intensity_scale_out_of_range(scale, order):
    # <I>^order or (n <I>)^order leaves the normal float64 range; these were
    # an OverflowError (Python float power) or a ZeroDivisionError (0 / 0).
    tau_c = nominal_coherence_time("gaussian", BW)
    trace = make_trace(thermal_spec(), 2_000 * tau_c, tau_c / 8, 3)
    scaled = FieldTrace(trace.samples * scale, trace.dt, trace.carrier_freq, 3)
    with pytest.raises(DegenerateInputError, match="out of float64 range"):
        scaled.moment(order, normalized=True)
    with pytest.raises(DegenerateInputError, match="out of float64 range"):
        gn_zero(scaled, order)
    assert scaled.normalizer(1) == scaled.mean_power()
    assert trace.normalizer(order) == trace.mean_power() ** order


@pytest.mark.parametrize("shape", [(2, 4_000), (4_000, 1), ()])
def test_trace_refuses_samples_that_are_not_1d(shape):
    # A 2-D array used to pass and break the estimators with a numpy
    # broadcasting error.
    with pytest.raises(InvalidArgumentError, match="1-D"):
        FieldTrace(np.ones(shape, dtype=complex), 1e-14, 1e15, 0)


def test_trace_grid_in_units_of_the_coherence_time():
    spec = thermal_spec()
    tau_c = nominal_coherence_time("gaussian", BW)
    assert trace_grid(spec, 5_000.0, 8.0) == (tau_c, 5_000.0 * tau_c, tau_c / 8.0)
    assert trace_grid(spec, "5e3", 8) == trace_grid(spec, 5_000.0, 8.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            trace_grid(spec, bad, 8.0)
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            trace_grid(spec, 5_000.0, bad)


def test_trace_moments():
    trace = quick_trace(thermal_spec(), n_tauc=2_000)
    intensity = np.abs(trace.samples) ** 2
    mean = float(np.mean(intensity))
    assert trace.mean_power() == trace.moment(1) == mean
    for n in (2, 3, 4):
        raw = float(np.mean(intensity**n))
        assert trace.moment(n) == raw
        assert trace.moment(n, normalized=True) == raw / mean**n
    assert trace.intensity() is trace.intensity()
    dark = FieldTrace(np.zeros(8), 1e-14, 1e15, 0)
    assert dark.moment(2) == 0.0
    with pytest.raises(DegenerateInputError):
        dark.moment(2, normalized=True)


def test_coherence_time_outcome_is_cached():
    trace = quick_trace(thermal_spec(), n_tauc=2_000)
    first = coherence_time(trace)
    assert coherence_time(trace) == first
    assert first == coherence_time(FieldTrace(trace.samples, trace.dt, 0.0, 0))
    spec = SourceSpec(
        statistics="coherent",
        center_wavelength=976e-9,
        bandwidth_fwhm=2e6,
        spectral_shape="lorentzian",
        mean_power=1e-3,
    )
    flat = make_trace(spec, 1e-6, 1e-10, 3)
    for _ in range(2):
        with pytest.raises(EstimationError):
            coherence_time(flat)
