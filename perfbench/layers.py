"""Per-layer metrics: their names, units and what each should move.

Every metric is computed from the spans of one traced cycle of each
workload. Times are the median self time per call; counts repeat exactly
for a given seed. `moves` says which end-to-end metric, on which workload,
a change in the layer metric should show up in.

The cli.import.* metrics come from `python -X importtime` (run.py), and
the bench.* diagnostics from the traced run as a whole (child.py).
"""

from __future__ import annotations

import statistics

from spans import self_times
from workloads import CLI, CLI_STEPS, FIG2, HBT, NPROC, TA

_SRC = "wall_s on trace-analysis and hbt-roundtrip; none on fig2-ensemble except its trace-mode pair"
_IO = "wall_s and peak_rss_mb on trace-analysis and cli-pipeline; none elsewhere"
_COR = "wall_s on trace-analysis (most of it) and hbt-roundtrip (g2_tau([0])); none on fig2-ensemble"
_CNT = "peak_rss_mb and wall_s on trace-analysis"
_INS = "wall_s on hbt-roundtrip and cli-pipeline (hbt); none on trace-analysis"
_TPA = "wall_s on trace-analysis (small)"
_EXP = "wall_s on fig2-ensemble; about none on cli-pipeline"
_SEED = "wall_s on fig2-ensemble (one derivation per count draw)"
_CFG = "wall_s on cli-pipeline (every call loads and hashes its config)"
_IMP = "setup_s on every workload; wall_s on cli-pipeline"
_CLI = "wall_s and peak_rss_mb on cli-pipeline"
_DIAG = "diagnostics only"


class _Spans:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.self_s = self_times(spans)

    def pick(self, workload, name, **attrs):
        found = [
            s
            for s in self.spans
            if s["workload"] == workload
            and s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]
        if not found:
            raise KeyError(f"no span {name} {attrs} in {workload}")
        return found

    def med(self, workload, name, **attrs):
        return statistics.median(
            self.self_s[s["id"]] for s in self.pick(workload, name, **attrs)
        )

    def rate(self, workload, name, work, **attrs):
        """Sum of work(attrs) over the spans, per second of their self time."""
        found = self.pick(workload, name, **attrs)
        return sum(work(s["attrs"]) for s in found) / sum(
            self.self_s[s["id"]] for s in found
        )

    def attr(self, workload, name, key, **attrs):
        return statistics.median(s["attrs"][key] for s in self.pick(workload, name, **attrs))


def _lag_samples(a):
    return a["samples"] * a["delays"]


# (name, unit, better, moves, value from spans or None if computed elsewhere)
METRICS = [
    *[
        (f"sources.make_trace.{cls}.s", "s", "lower", _SRC,
         lambda q, cls=cls: q.med(TA, "sources.make_trace", cls=cls))
        for cls in ("thermal-gaussian", "coherent", "pseudo-thermal", "tunable")
    ],
    ("sources.make_trace.samples_per_s", "1/s", "higher", _SRC,
     lambda q: q.rate(TA, "sources.make_trace", lambda a: a["samples"])),
    ("sources.coherence_time.s", "s", "lower", _SRC,
     lambda q: q.med(TA, "sources.coherence_time")),
    ("traceio.write_trace.s", "s", "lower", _IO, lambda q: q.med(TA, "traceio.write_trace")),
    ("traceio.read_trace.s", "s", "lower", _IO, lambda q: q.med(TA, "traceio.read_trace")),
    ("traceio.bytes", "count", "lower", _IO,
     lambda q: q.attr(TA, "traceio.write_trace", "bytes")),
    ("traceio.read_trace.peak_alloc_mb", "MB", "lower", _IO,
     lambda q: q.attr(TA, "traceio.read_trace", "peak_alloc_mb")),
    ("correlation.g2_tau.s", "s", "lower", _COR,
     lambda q: q.med(TA, "correlation.g2_tau")),
    ("correlation.g2_tau.lag_samples_per_s", "1/s", "higher", _COR,
     lambda q: q.rate(TA, "correlation.g2_tau", _lag_samples)),
    ("correlation.g2_tau.delays", "count", "higher", _COR,
     lambda q: q.attr(TA, "correlation.g2_tau", "delays")),
    ("correlation.g2_tau.blocks", "count", "higher", _COR,
     lambda q: q.attr(TA, "correlation.g2_tau", "blocks")),
    ("correlation.g2_tau.zero_delay.s", "s", "lower", _COR,
     lambda q: q.med(HBT, "correlation.g2_tau")),
    ("correlation.gn_zero.s", "s", "lower", _COR, lambda q: q.med(TA, "correlation.gn_zero")),
    *[
        (f"correlation.g2_from_counts.{b}.s", "s", "lower", _CNT,
         lambda q, b=b: q.med(TA, "correlation.g2_from_counts", bin=b))
        for b in ("bin1", "bin8")
    ],
    ("correlation.g2_from_counts.events", "count", "higher", _CNT,
     lambda q: q.attr(TA, "correlation.g2_from_counts", "events")),
    ("correlation.g2_from_counts.bins", "count", "lower", _CNT,
     lambda q: q.attr(TA, "correlation.g2_from_counts", "bins", bin="bin8")),
    ("correlation.g2_from_counts.peak_alloc_mb", "MB", "lower", _CNT,
     lambda q: q.attr(TA, "correlation.g2_from_counts", "peak_alloc_mb", bin="bin8")),
    *[
        (f"instruments.hbt_scan.{g}.s", "s", "lower", _INS,
         lambda q, g=g: q.med(HBT, "instruments.hbt_scan", grid=g))
        for g in ("d61", "d241")
    ],
    ("instruments.hbt_scan.lag_samples_per_s", "1/s", "higher", _INS,
     lambda q: q.rate(HBT, "instruments.hbt_scan", _lag_samples)),
    ("instruments.hbt_scan.delay_cost_ratio", "ratio", "lower", _INS,
     lambda q: q.med(HBT, "instruments.hbt_scan", grid="d241")
     / q.med(HBT, "instruments.hbt_scan", grid="d61")),
    ("instruments.extract_g2.s", "s", "lower", _INS,
     lambda q: q.med(HBT, "instruments.extract_g2")),
    ("sources.make_trace.hbt.s", "s", "lower", _SRC,
     lambda q: q.med(HBT, "sources.make_trace")),
    ("tpa.mpa_rate_timedomain.s", "s", "lower", _TPA,
     lambda q: q.med(TA, "tpa.mpa_rate_timedomain")),
    ("tpa.tpa_rate_timedomain.s", "s", "lower", _TPA,
     lambda q: q.med(TA, "tpa.tpa_rate_timedomain")),
    *[
        (f"experiments.reproduce_fig2.{kind}.s", "s", "lower", _EXP,
         lambda q, kind=kind: q.med(FIG2, "experiments.reproduce_fig2", kind=kind, threads=1))
        for kind in ("nominal", "noise-off", "dense")
    ],
    ("experiments.power_sweep.trace.s", "s", "lower", _EXP,
     lambda q: q.med(FIG2, "experiments.power_sweep", mode="trace")),
    ("experiments.fit_quadratic.s", "s", "lower", _EXP,
     lambda q: q.med(FIG2, "experiments.fit_quadratic")),
    ("experiments.count_draws", "count", "higher", _EXP,
     lambda q: sum(s["attrs"]["draws"] for s in q.pick(FIG2, "experiments.reproduce_fig2"))),
    ("experiments.draws_per_s", "1/s", "higher", _EXP,
     lambda q: q.rate(FIG2, "experiments.reproduce_fig2", lambda a: a["draws"],
                      kind="dense", threads=1)),
    ("experiments.reproduce_fig2.thread_speedup", "ratio", "higher", _EXP,
     lambda q: q.med(FIG2, "experiments.reproduce_fig2", kind="dense", threads=1)
     / q.med(FIG2, "experiments.reproduce_fig2", kind="dense", threads=NPROC)),
    ("seeding.derive_seed.s", "s", "lower", _SEED,
     lambda q: q.med(FIG2, "seeding.derive_seed") / q.attr(FIG2, "seeding.derive_seed", "calls")),
    ("config.load_config.s", "s", "lower", _CFG, lambda q: q.med(CLI, "config.load_config")),
    ("config.config_hash.s", "s", "lower", _CFG, lambda q: q.med(CLI, "config.config_hash")),
    ("svgplot.loglog_panel_svg.s", "s", "lower", _CLI,
     lambda q: q.med(CLI, "svgplot.loglog_panel_svg")),
    ("cli.import.s", "s", "lower", _IMP, None),
    *[(f"cli.import.{lib}_s", "s", "lower", _IMP, None) for lib in ("scipy", "numpy", "yaml")],
    *[
        (f"cli.{step}.s", "s", "lower", _CLI,
         lambda q, step=step: q.med(CLI, f"cli.{step}", threads=NPROC if step == "hbt" else 1))
        for step, _ in CLI_STEPS
    ],
    *[
        (f"cli.{step}.rss_mb", "MB", "lower", _CLI,
         lambda q, step=step: q.attr(CLI, f"cli.{step}", "rss_mb",
                                     threads=NPROC if step == "hbt" else 1))
        for step, _ in CLI_STEPS
    ],
    ("cli.hbt.threads1.s", "s", "lower", _CLI, lambda q: q.med(CLI, "cli.hbt", threads=1)),
    ("cli.hbt.thread_speedup", "ratio", "higher", _CLI,
     lambda q: q.med(CLI, "cli.hbt", threads=1) / q.med(CLI, "cli.hbt", threads=NPROC)),
    ("cli.bytes_written", "count", "lower", _CLI, lambda q: q.attr(CLI, "cli.artifacts", "bytes")),
    ("bench.warmup_s", "s", "lower", _DIAG, None),
    ("bench.cpu_s", "s", "lower", _DIAG, None),
    ("bench.trace_overhead", "ratio", "lower", _DIAG, None),
]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every span-derived per-layer metric of a traced run."""
    q = _Spans(spans)
    return {name: float(fn(q)) for name, _, _, _, fn in METRICS if fn is not None}
