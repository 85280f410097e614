"""The four benchmark workloads: inputs, operations and output checks.

Each operation calls public photonstat functions, or runs the CLI as a
child process, and returns the list of its failed checks. An operation
fails if it raises, if a child exits non-zero, or if a check fails.
Tolerances come from the acceptance criteria and the module oracles,
widened to at least 5 standard errors so that a correct program does not
fail them by chance.

A workload repeats a fixed list of operations, a cycle. Every call into
the package sits in a span named after its module and function; spans
cost nothing unless the run is traced.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("trace-analysis", "hbt-roundtrip", "fig2-ensemble", "cli-pipeline")
TA, HBT, FIG2, CLI = WORKLOADS
NPROC = len(os.sched_getaffinity(0))

# trace-analysis: the large-n regime, one 2e6-sample trace per operation.
TA_SAMPLES = 2_000_000
TA_DELAYS_TAUC = np.linspace(0.0, 15.0, 61)  # the `g2` CLI defaults
TA_EVENTS_PER_SAMPLE = 0.5  # about 1e6 arrival times
TA_WARMUP_SAMPLES = 20_000
# hbt-roundtrip: the criterion-6 geometry, 1.6e5 samples per realization.
HBT_DURATION_TAUC = 20_000
HBT_GRIDS = {"d61": np.arange(61) * 0.5, "d241": np.arange(241) * 0.125}
HBT_TAIL_TAUC = (10.0, 30.0)
HBT_ANALYTIC = {"pt-2": 1.5, "pt-8": 1.875, "pt-64": 2.0 - 1.0 / 64}
HBT_FEW_MODES = ("pt-2", "pt-8")
# fig2-ensemble: paper geometry, an ensemble of master seeds per cycle.
FIG2_REPORTS = 20
FIG2_POWERS = np.geomspace(30e-6, 1e-3, 12)
FIG2_REPEATS = 5
FIG2_DENSE_POWERS = np.geomspace(30e-6, 1e-3, 200)
FIG2_DENSE_REPEATS = 50
FIG2_FLUOROPHORES = ("DCM", "CdTe-QD", "RhodamineB")
FIG2_TRACE_TAUC = 100_000
# Realization SE of <I^2>/<I>^2 over T = FIG2_TRACE_TAUC coherence times of
# Gaussian-spectrum thermal light: var = (1/T) * integral of 4|g1|^4 dtau
# = 2 sqrt(2) tau_c / T.
FIG2_TRACE_RATIO_SE = math.sqrt(2.0 * math.sqrt(2.0) / FIG2_TRACE_TAUC)

SEEDS_PER_RUN = 512

# One operation: a name, a callable returning its failed checks, and
# whether it runs in traced runs only.
Op = namedtuple("Op", "name fn extra", defaults=(False,))
# cli-pipeline compares each cycle's artifacts with the first cycle's.
MIN_CYCLES = {TA: 1, HBT: 1, FIG2: 1, CLI: 2}


def seed_list(seed: int, workload: str) -> list[int]:
    """Per-operation seeds, a pure function of the workload seed."""
    ss = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    return [int(s) for s in ss.generate_state(SEEDS_PER_RUN, np.uint32)]


def _seed(inp: dict, i: int) -> int:
    """The i-th operation seed; the last few are kept for inputs and warm-up."""
    return inp["seeds"][i % (SEEDS_PER_RUN - 3)]


@dataclass
class Ctx:
    """What operations share: the package, the tracer, a scratch dir and
    the spawner that starts CLI processes."""

    ps: object
    tracer: object
    work: Path
    spawner: object = None
    cycle_dir: Path | None = None
    cli_rss_mb: list = field(default_factory=list)
    cli_ref: dict = field(default_factory=dict)

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    @contextmanager
    def alloc_peak(self, attrs: dict):
        """Store the block's tracemalloc peak in attrs; traced runs only."""
        if not self.tracer.enabled:
            yield
            return
        tracemalloc.start()
        try:
            yield
        finally:
            attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


# --------------------------------------------------------------- inputs


def build_inputs(ps, workload: str, seed: int) -> dict:
    """Specs, delay grids and seed lists (and arrival times) for a workload."""
    seeds = seed_list(seed, workload)
    sld = ps.source_preset("sld")
    tau_sld = ps.nominal_coherence_time(sld.spectral_shape, sld.bandwidth_hz)
    base = dict(
        center_wavelength=976e-9,
        bandwidth_fwhm=20e-9,
        bandwidth_convention="wavelength",
        mean_power=1e-3,
    )
    if workload == TA:
        dt = tau_sld / 8.0
        # Arrival times: a Poisson stream driven by the intensity of an
        # independent thermal trace, so its g2(0) is that of thermal light.
        # g2_from_counts starts its bins at the first arrival; putting that
        # arrival on a sample boundary lines bins of dt and dt/8 up with the
        # samples, so no bin averages the intensity of two samples.
        trace = ps.make_trace(sld, TA_SAMPLES * dt, dt, seeds[-1])
        intensity = trace.intensity()
        rng = np.random.default_rng(seeds[-2])
        counts = rng.poisson(TA_EVENTS_PER_SAMPLE * intensity / intensity.mean())
        offsets = rng.random(int(counts.sum()))
        offsets[0] = 0.0
        arrivals = (np.repeat(np.arange(TA_SAMPLES), counts) + offsets) * dt
        return dict(
            seeds=seeds,
            specs=[
                sld,
                ps.source_preset("dfb", amplitude_noise=0.1),
                ps.SourceSpec(statistics="pseudo-thermal", mode_count=64, **base),
                ps.SourceSpec(statistics="tunable", target_g2=1.5, **base),
            ],
            dt=dt,
            delays=TA_DELAYS_TAUC * tau_sld,
            arrivals=arrivals,
            absorber=ps.absorber_preset("DCM"),
        )
    if workload == HBT:
        specs = {
            "coherent": ps.source_preset("dfb"),
            "thermal": sld,
            "pt-2": ps.SourceSpec(statistics="pseudo-thermal", mode_count=2, **base),
            "pt-8": ps.SourceSpec(statistics="pseudo-thermal", mode_count=8, **base),
            "pt-64": ps.SourceSpec(statistics="pseudo-thermal", mode_count=64, **base),
            "tunable-1.5": ps.SourceSpec(statistics="tunable", target_g2=1.5, **base),
        }
        tau = {
            name: ps.nominal_coherence_time(s.spectral_shape, s.bandwidth_hz)
            for name, s in specs.items()
        }
        return dict(
            seeds=seeds,
            specs=specs,
            tau_c=tau,
            delays={
                name: {g: grid * tau[name] for g, grid in HBT_GRIDS.items()}
                for name in specs
            },
        )
    if workload == FIG2:
        return dict(
            seeds=seeds,
            sources=[sld, ps.source_preset("dfb")],
            absorbers=[ps.absorber_preset(n) for n in FIG2_FLUOROPHORES],
            chain=ps.chain_preset("paper-EMCCD"),
            tau_c=tau_sld,
        )
    if workload == CLI:
        return dict(seeds=seeds, seed=seeds[0])
    raise ValueError(f"unknown workload {workload!r}")


def sizes(workload: str) -> dict:
    """Array and artifact sizes in bytes, computed from the geometry."""
    if workload == TA:
        bins8 = TA_SAMPLES * 8
        nfft = 1 << math.ceil(math.log2(bins8 + 1))
        return {
            "trace_complex128": 16 * TA_SAMPLES,
            "intensity_float64": 8 * TA_SAMPLES,
            "trace_file": 40 + 16 * TA_SAMPLES,
            "arrival_times_float64": int(8 * TA_EVENTS_PER_SAMPLE * TA_SAMPLES),
            "count_histogram_dt_over_8_float64": 8 * bins8,
            "count_fft_input_padded_float64": 8 * nfft,
        }
    if workload == HBT:
        return {"trace_complex128": 16 * HBT_DURATION_TAUC * 8}
    if workload == FIG2:
        cells = len(FIG2_FLUOROPHORES) * 2
        return {
            "count_draws_nominal_report": FIG2_POWERS.size * FIG2_REPEATS * cells,
            "count_draws_dense_report": FIG2_DENSE_POWERS.size
            * FIG2_DENSE_REPEATS
            * cells,
            "trace_mode_trace_complex128": 16 * FIG2_TRACE_TAUC * 8,
        }
    return {"simulate_trace_file": 40 + 16 * 20_000 * 8}


# --------------------------------------------------------- trace-analysis


def ta_op(ctx: Ctx, inp: dict, spec, seed: int, n: int, arrivals) -> list[str]:
    """One n-sample trace through every trace-analysis call and check."""
    ps = ctx.ps
    dt = inp["dt"]
    fails = []
    with ctx.span("sources.make_trace", cls=spec.statistics, samples=n):
        trace = ps.make_trace(spec, n * dt, dt, seed)

    path = ctx.cycle_dir / "trace.pstt"
    with ctx.span("traceio.write_trace") as attrs:
        ps.write_trace(trace, path)
    attrs["bytes"] = path.stat().st_size
    with ctx.span("traceio.read_trace") as attrs, ctx.alloc_peak(attrs):
        back = ps.read_trace(path)
    path.unlink()
    if not _same_bits(back.samples, trace.samples) or (
        back.dt,
        back.carrier_freq,
        back.seed_id,
    ) != (trace.dt, trace.carrier_freq, trace.seed_id):
        fails.append("read_trace is not bit-equal to what was written")

    coherent = spec.statistics == "coherent"
    try:
        with ctx.span("sources.coherence_time"):
            ps.coherence_time(trace)
        if coherent:
            fails.append("coherence_time decayed for a coherent field")
    except ps.EstimationError:
        if not coherent:
            fails.append("coherence_time found no decay")

    delays = inp["delays"]
    with ctx.span("correlation.g2_tau", samples=n, delays=delays.size) as attrs:
        g2 = ps.g2_tau(trace, delays)
    attrs["blocks"] = g2.effective_samples
    g2_0, se_0 = float(g2.values[0]), float(g2.std_errors[0])
    nominal = ps.nominal_g2(spec)
    if abs(g2_0 - nominal) > max(5 * se_0, 0.02):
        fails.append(f"g2(0) = {g2_0:.4f}, nominal {nominal:.4f} (se {se_0:.4f})")
    # A finite sum of pseudo-thermal modes is quasi-periodic: its g2 does
    # not decay, so the large-delay limit is checked on the other sources.
    if spec.statistics != "pseudo-thermal":
        tail, tail_se = float(g2.values[-1]), float(g2.std_errors[-1])
        if abs(tail - 1.0) > max(0.05, 5 * tail_se):
            fails.append(f"g2(15 tau_c) = {tail:.4f}, expected 1")

    gn = {}
    for order in (2, 3, 4):
        with ctx.span("correlation.gn_zero", order=order):
            gn[order] = ps.gn_zero(trace, order)
    if spec.statistics == "thermal-gaussian":
        for order, tol in ((2, 0.05), (3, 0.05), (4, 0.10)):
            target = math.factorial(order)
            value, se = float(gn[order].values[0]), float(gn[order].std_errors[0])
            if abs(value - target) > max(tol * target, 5 * se):
                fails.append(f"g{order}(0) = {value:.3f}, expected {target}")

    mean_i = trace.mean_power()
    for order in (2, 3, 4):
        with ctx.span("tpa.mpa_rate_timedomain", order=order):
            rate = ps.mpa_rate_timedomain(trace, order, 1.0)
        if not math.isclose(rate / mean_i**order, gn[order].values[0], rel_tol=1e-9):
            fails.append(f"mpa rate n={order} disagrees with g{order}(0)")
    absorber = inp["absorber"]
    # force=True: the measured bandwidth of a 64-mode field scatters from
    # 0.55 to 1.32 times nominal between realizations, so the broadband-
    # domain refusal would fire at random. The check still runs; the rate
    # is compared with g2(0) below.
    with ctx.span("tpa.tpa_rate_timedomain"):
        rate = ps.tpa_rate_timedomain(trace, absorber, force=True)
    scale = absorber.dipole_sq * ps.lineshape(2.0 * trace.carrier_freq, absorber)
    if not math.isclose(rate / (scale * mean_i**2), gn[2].values[0], rel_tol=1e-9):
        fails.append("tpa rate disagrees with g2(0)")

    if arrivals is not None:
        # The arrivals come from an independent thermal trace of this size,
        # whose realization spread equals this trace's bootstrap SE.
        for label, width in (("bin1", dt), ("bin8", dt / 8.0)):
            with ctx.span(
                "correlation.g2_from_counts",
                bin=label,
                events=int(arrivals.size),
                bins=int(round(n * dt / width)),
            ) as attrs, ctx.alloc_peak(attrs):
                est = ps.g2_from_counts(arrivals, width, delays[-1])
            value = float(est.values[0])
            se = math.sqrt(float(est.std_errors[0]) ** 2 + 2.0 * se_0**2)
            if abs(value - g2_0) > 5 * se:
                fails.append(
                    f"g2_from_counts {label} g2(0) = {value:.4f} vs g2_tau {g2_0:.4f}"
                )
    return fails


def _ta_cycle(ctx, inp, k, extras):
    ops = []
    for i, spec in enumerate(inp["specs"]):
        seed = _seed(inp, 4 * k + i)
        arrivals = inp["arrivals"] if spec.statistics == "thermal-gaussian" else None
        ops.append(
            Op(
                f"ta.{spec.statistics}",
                lambda spec=spec, seed=seed, arrivals=arrivals: ta_op(
                    ctx, inp, spec, seed, TA_SAMPLES, arrivals
                ),
            )
        )
    return ops


def _ta_warmup(ctx, inp):
    n = TA_WARMUP_SAMPLES
    arrivals = inp["arrivals"]
    head = arrivals[: np.searchsorted(arrivals, n * inp["dt"])]
    for spec in inp["specs"]:
        ta_op(ctx, inp, spec, inp["seeds"][-3], n, head)


# ---------------------------------------------------------- hbt-roundtrip


def hbt_op(ctx: Ctx, inp: dict, name: str, grid: str, seed: int) -> list[str]:
    """One interferometer realization, checked against the direct g2(0)."""
    ps = ctx.ps
    spec, tau_c = inp["specs"][name], inp["tau_c"][name]
    dt = tau_c / 8.0
    with ctx.span(
        "sources.make_trace", cls=spec.statistics, samples=HBT_DURATION_TAUC * 8
    ):
        trace = ps.make_trace(spec, HBT_DURATION_TAUC * tau_c, dt, seed)
    delays = inp["delays"][name][grid]
    with ctx.span(
        "instruments.hbt_scan", grid=grid, samples=trace.n_samples, delays=delays.size
    ):
        scan = ps.hbt_scan(trace, delays)
    with ctx.span("instruments.extract_g2"):
        extracted = ps.extract_g2(
            scan,
            (HBT_TAIL_TAUC[0] * tau_c, HBT_TAIL_TAUC[1] * tau_c),
            coherence_time=tau_c,
        )
    with ctx.span("correlation.g2_tau", samples=trace.n_samples, delays=1):
        direct = ps.g2_tau(trace, [0.0])
    e0, se_e = float(extracted.values[0]), float(extracted.std_errors[0])
    d0, se_d = float(direct.values[0]), float(direct.std_errors[0])
    fails = []
    analytic = HBT_ANALYTIC.get(name)
    if name in HBT_FEW_MODES:
        # The g2 of one few-mode realization depends on its drawn mode
        # frequencies: when two modes beat slower than the tail window,
        # extract_g2 takes a wrong floor, and pt-8's direct g2(0) strays
        # from 2 - 1/M by several times its bootstrap SE. Criterion 6 holds
        # for a mean over realizations only, so no value is checked here.
        return fails
    # The criterion-6 agreement test, applied to one realization.
    # extract_g2's SE treats the tail points as independent; pseudo-thermal
    # tails oscillate, so one realization's tail mean is bounded by the
    # tail scatter itself: its SE times sqrt(n_tail).
    se_tail = se_e * math.sqrt(extracted.effective_samples)
    tol = max(5 * math.hypot(se_tail, se_d), 0.02)
    if abs(e0 - d0) > tol:
        fails.append(f"{name}: extracted g2(0) {e0:.4f} vs direct {d0:.4f}")
    if analytic is not None and abs(e0 - analytic) > tol:
        fails.append(f"{name}: extracted g2(0) {e0:.4f} vs {analytic}")
    return fails


def _hbt_cycle(ctx, inp, k, extras):
    # Realizations alternate between the two delay grids.
    ops = []
    for g, grid in enumerate(HBT_GRIDS):
        for i, name in enumerate(inp["specs"]):
            seed = _seed(inp, 12 * k + 6 * g + i)
            ops.append(
                Op(
                    f"hbt.{name}.{grid}",
                    lambda name=name, grid=grid, seed=seed: hbt_op(
                        ctx, inp, name, grid, seed
                    ),
                )
            )
    return ops


def _hbt_warmup(ctx, inp):
    hbt_op(ctx, inp, "thermal", "d61", inp["seeds"][-1])


# ---------------------------------------------------------- fig2-ensemble


def _fig2_report(ctx, inp, seed, kind, powers, repeats, noise=True, threads=1):
    draws = powers.size * repeats * len(inp["absorbers"]) * len(inp["sources"])
    with ctx.span(
        "experiments.reproduce_fig2", kind=kind, threads=threads, draws=draws
    ):
        return ctx.ps.reproduce_fig2(
            sources=inp["sources"],
            absorbers=inp["absorbers"],
            chain=inp["chain"],
            powers=powers,
            repeats=repeats,
            master_seed=seed,
            noise=noise,
            threads=threads,
        )


def _report_fails(report) -> list[str]:
    """Every panel inside its ratio band, every exponent within 0.1 of 2."""
    fails = []
    for panel in report.panels:
        if not panel.within_band:
            fails.append(f"{panel.fluorophore}: ratio {panel.ratio.value:.3f} out of band")
        for key, fit in panel.fits.items():
            check = fit.exponent_check
            if check is None or abs(check.b - 2.0) > max(0.1, 5 * check.b_stderr):
                fails.append(f"{panel.fluorophore}/{key}: exponent check {check}")
    return fails


def fig2_nominal_op(ctx, inp, seed):
    report = _fig2_report(ctx, inp, seed, "nominal", FIG2_POWERS, FIG2_REPEATS)
    return _report_fails(report)


def fig2_noise_off_op(ctx, inp, seed):
    report = _fig2_report(
        ctx, inp, seed, "noise-off", FIG2_POWERS, FIG2_REPEATS, noise=False
    )
    return [f"noise-off ratio {r!r} is not 2" for r in report.ratios() if abs(r - 2.0) > 1e-9]


def fig2_trace_pair_op(ctx, inp, seed_sld, seed_dfb):
    """Criterion 1's trace-mode pair: only estimator error remains."""
    ps = ctx.ps
    tau_c = inp["tau_c"]
    kw = dict(
        noise=False,
        statistics_mode="trace",
        trace_duration=FIG2_TRACE_TAUC * tau_c,
        trace_dt=tau_c / 8.0,
    )
    absorber = ps.absorber_preset(FIG2_FLUOROPHORES[0])
    fits = []
    for source, seed in zip(inp["sources"], (seed_sld, seed_dfb)):
        with ctx.span("experiments.power_sweep", mode="trace", source=source.label):
            sweep = ps.power_sweep(
                source, absorber, inp["chain"], FIG2_POWERS, 3, seed, **kw
            )
        with ctx.span("experiments.fit_quadratic"):
            fits.append(ps.fit_quadratic(sweep))
    with ctx.span("experiments.enhancement_ratio"):
        ratio = ps.enhancement_ratio(*fits).value
    if abs(ratio - 2.0) > max(0.02, 5 * FIG2_TRACE_RATIO_SE):
        return [f"trace-mode ratio {ratio:.4f} is not 2"]
    return []


def fig2_dense_op(ctx, inp, seed, threads, ratios: dict):
    """The dense report; every thread count must give the same ratios."""
    report = _fig2_report(
        ctx, inp, seed, "dense", FIG2_DENSE_POWERS, FIG2_DENSE_REPEATS, threads=threads
    )
    fails = _report_fails(report)
    first = ratios.setdefault(seed, report.ratios())
    if report.ratios() != first:
        fails.append(f"threads={threads} ratios differ from the first dense report")
    return fails


def seeding_probe_op(ctx, seed, calls=2000):
    with ctx.span("seeding.derive_seed", calls=calls):
        children = {ctx.ps.derive_seed(seed, i) for i in range(calls)}
    return [] if len(children) == calls else ["derive_seed repeated a child seed"]


def _fig2_cycle(ctx, inp, k, extras):
    base = k * (FIG2_REPORTS + 5)
    ops = [
        Op(
            "fig2.nominal",
            lambda seed=_seed(inp, base + j): fig2_nominal_op(ctx, inp, seed),
        )
        for j in range(FIG2_REPORTS)
    ]
    s = [_seed(inp, base + FIG2_REPORTS + j) for j in range(5)]
    ratios: dict = {}
    ops += [
        Op("fig2.noise-off", lambda: fig2_noise_off_op(ctx, inp, s[0])),
        Op("fig2.trace-pair", lambda: fig2_trace_pair_op(ctx, inp, s[1], s[2])),
        Op("fig2.dense.t1", lambda: fig2_dense_op(ctx, inp, s[3], 1, ratios)),
        Op(
            f"fig2.dense.t{NPROC}",
            lambda: fig2_dense_op(ctx, inp, s[3], NPROC, ratios),
        ),
    ]
    if extras:
        ops.append(Op("probe.seeding", lambda: seeding_probe_op(ctx, s[4]), True))
    return ops


def _fig2_warmup(ctx, inp):
    fig2_nominal_op(ctx, inp, inp["seeds"][-1])


# ----------------------------------------------------------- cli-pipeline

# The README quick start; every step also gets --seed.
CLI_STEPS = (
    ("simulate", ["simulate", "--out", "out"]),
    ("g2", ["g2", "--trace", "out/trace_sld.pstt", "--out", "out"]),
    ("gn", ["gn", "--trace", "out/trace_sld.pstt", "--order", "4", "--out", "out"]),
    ("hbt", ["hbt", "--threads", str(NPROC), "--out", "out"]),
    ("sweep", ["sweep", "--source", "sld", "--fluorophore", "DCM", "--out", "out"]),
    ("reproduce-fig2", ["reproduce-fig2", "--out", "out/fig2"]),
    ("report", ["report", "--out", "out/fig2"]),
)


def run_cli(ctx: Ctx, argv: list, cwd: Path):
    """Run the CLI as a fresh process: (exit code, peak RSS in MB, stderr)."""
    reply = ctx.spawner.run([sys.executable, "-m", "photonstat.cli", *argv], cwd)
    return reply["code"], reply["maxrss_kb"] / 1024, reply["stderr"]


def _snapshot(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _carries_hash(path: Path) -> bool:
    if path.suffix == ".json":
        return "config_hash" in json.loads(path.read_text())
    if path.suffix == ".csv":
        first = path.read_text().split("\n", 1)[0]
        return first.startswith("#") and "config_hash=" in first
    if path.suffix == ".svg":
        return "config_hash=" in path.read_text()
    # The binary trace layout has no metadata field.
    return path.suffix == ".pstt"


def cli_op(ctx: Ctx, inp: dict, step: str, argv: list, key: str | None = None):
    """One CLI call; returns (failures, {artifact: sha256} it wrote)."""
    cwd = ctx.cycle_dir
    before = _snapshot(cwd)
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
    with ctx.span(f"cli.{step}", threads=threads) as attrs:
        code, rss_mb, err = run_cli(ctx, [*argv, "--seed", str(inp["seed"])], cwd)
    attrs["rss_mb"] = rss_mb
    ctx.cli_rss_mb.append(rss_mb)
    if code != 0:
        return [f"{step} exited {code}: {err.strip()[-300:]}"], {}
    written = {p: h for p, h in _snapshot(cwd).items() if before.get(p) != h}
    fails = [f"{step}: {p} lacks config_hash" for p in written if not _carries_hash(cwd / p)]
    if not written:
        fails.append(f"{step} wrote no artifact")
    # Every cycle uses the same seed, so its artifacts must repeat exactly.
    if ctx.cli_ref.setdefault(key or step, written) != written:
        fails.append(f"{step}: artifacts differ from an earlier run with the same seed")
    return fails, written


def cli_report_op(ctx: Ctx, inp: dict) -> list[str]:
    """`report` must rebuild the ratios that `reproduce-fig2` wrote."""
    path = ctx.cycle_dir / "out" / "fig2" / "report.json"
    before = [p["ratio"] for p in json.loads(path.read_text())["panels"]]
    fails, _ = cli_op(ctx, inp, "report", dict(CLI_STEPS)["report"])
    after = [p.get("ratio") for p in json.loads(path.read_text())["panels"]]
    if after != before:
        fails.append(f"report ratios {after} differ from reproduce-fig2's {before}")
    with ctx.span("cli.artifacts") as attrs:
        attrs["bytes"] = sum(
            p.stat().st_size for p in ctx.cycle_dir.rglob("*") if p.is_file()
        )
    return fails


def cli_hbt_threads1_op(ctx: Ctx, inp: dict) -> list[str]:
    """Single-thread baseline of the threaded `hbt`; artifacts must match."""
    fails, written = cli_op(
        ctx, inp, "hbt", ["hbt", "--threads", "1", "--out", "out_t1"], key="hbt.t1"
    )
    by_name = {Path(p).name: h for p, h in written.items()}
    threaded = {Path(p).name: h for p, h in ctx.cli_ref["hbt"].items()}
    if by_name != threaded:
        fails.append("hbt artifacts depend on the thread count")
    return fails


def config_svg_probe_op(ctx: Ctx, inp: dict) -> list[str]:
    """In-process calls into `config` and `svgplot`, as the CLI makes them."""
    ps = ctx.ps
    from photonstat.svgplot import loglog_panel_svg

    path = ctx.cycle_dir / "probe.yaml"
    path.write_text(
        "master_seed: 7\nexperiment:\n  repeats: 3\n"
        "sources:\n  bright-sld:\n    preset: sld\n    mean_power: 5.0e-3\n"
    )
    with ctx.span("config.load_config"):
        data = ps.load_config(str(path))
    with ctx.span("config.config_hash"):
        digest = ps.config_hash(data)
    x = FIG2_POWERS
    y = 1000.0 * (x / 300e-6) ** 2
    with ctx.span("svgplot.loglog_panel_svg"):
        svg = loglog_panel_svg(
            title="DCM",
            series=[
                {"label": "sld", "x": x, "y": 2 * y, "marker": "square"},
                {"label": "dfb", "x": x, "y": y, "marker": "circle"},
            ],
            fit_lines=[{"label": "sld", "a": 2 * y[0] / x[0] ** 2, "b": 2.0}],
            x_label="P_exc (W)",
            y_label="counts",
            metadata=f"config_hash={digest}",
        )
    fails = []
    if data["experiment"]["repeats"] != 3 or data["master_seed"] != 7:
        fails.append("load_config lost a value")
    if digest != ps.config_hash(ps.load_config(str(path))):
        fails.append("config_hash is not stable")
    if not svg.startswith("<svg") or f"config_hash={digest}" not in svg:
        fails.append("svg lacks its metadata")
    return fails


def _cli_cycle(ctx, inp, k, extras):
    ops = []
    for step, argv in CLI_STEPS:
        if step == "report":
            ops.append(Op("cli.report", lambda: cli_report_op(ctx, inp)))
            continue
        ops.append(
            Op(
                f"cli.{step}",
                lambda step=step, argv=argv: cli_op(ctx, inp, step, argv)[0],
            )
        )
        if extras and step == "hbt":
            ops.append(Op("cli.hbt.t1", lambda: cli_hbt_threads1_op(ctx, inp), True))
    if extras:
        ops.append(Op("probe.config-svg", lambda: config_svg_probe_op(ctx, inp), True))
    return ops


def _cli_warmup(ctx, inp):
    run_cli(ctx, ["--version"], ctx.work)


# --------------------------------------------------------------- dispatch

_CYCLES = {TA: _ta_cycle, HBT: _hbt_cycle, FIG2: _fig2_cycle, CLI: _cli_cycle}
_WARMUPS = {TA: _ta_warmup, HBT: _hbt_warmup, FIG2: _fig2_warmup, CLI: _cli_warmup}


def cycle_ops(ctx: Ctx, inp: dict, workload: str, k: int, extras: bool) -> list:
    """The fixed operation list of cycle k. Extra ops run in traced runs only."""
    return _CYCLES[workload](ctx, inp, k, extras)


def warmup(ctx: Ctx, inp: dict, workload: str) -> None:
    """One untimed pass through the workload's code paths at a small size."""
    _WARMUPS[workload](ctx, inp)
