"""Runs benchmark workloads in a fresh process; started by run.py.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/child.py --workload NAME --seed N --setup-only

The process imports photonstat from the checkout's src/, builds the
workload inputs and prints READY; run.py times set-up up to that line.
It then makes one untimed warm-up pass and repeats the workload's cycle
of operations for --seconds. Its last stdout line is a JSON summary.

With --trace 1 it runs one untraced cycle of the named workload, then one
traced cycle of every workload, so that every per-layer metric is
measured; the two cycles of the named workload give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spawner import Spawner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_op(ctx, op) -> dict:
    """Run one operation in an `op` span; an exception counts as a failure."""
    t_op = time.perf_counter()
    with ctx.span("op", op=op.name):
        try:
            fails = op.fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            fails = [f"{type(exc).__name__}: {exc}"]
    return {
        "name": op.name,
        "wall_s": time.perf_counter() - t_op,
        "failures": fails,
        "extra": op.extra,
    }


def run_cycles(ctx, inp, workload, seconds, min_cycles, extras=False):
    """Repeat the cycle until the next one would end past `seconds`."""
    import workloads as wl

    ctx.tracer.workload = workload
    cycles, ops = [], []
    start = time.perf_counter()
    k = 0
    while True:
        ctx.cycle_dir = Path(tempfile.mkdtemp(dir=ctx.work))
        t_cycle = time.perf_counter()
        for op in wl.cycle_ops(ctx, inp, workload, k, extras):
            ops.append(run_op(ctx, op))
        cycles.append(time.perf_counter() - t_cycle)
        shutil.rmtree(ctx.cycle_dir)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= min_cycles and elapsed + statistics.median(cycles) > seconds:
            return cycles, ops


def _summary(ops: list) -> dict:
    failed = [op for op in ops if op["failures"]]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [f"{op['name']}: {'; '.join(op['failures'])}" for op in failed][:20],
        "op_wall_s": [[op["name"], op["wall_s"]] for op in ops],
    }


def run(ps, inputs: dict, work: Path, spawner, args) -> dict:
    import layers
    import spans
    import workloads as wl

    ctx = wl.Ctx(ps, spans.NullTracer(), work, spawner)
    t0 = time.perf_counter()
    for name, inp in inputs.items():
        ctx.tracer.workload = name
        ctx.cycle_dir = Path(tempfile.mkdtemp(dir=work))
        wl.warmup(ctx, inp, name)
    warmup_s = time.perf_counter() - t0

    if not args.trace:
        cycles, ops = run_cycles(
            ctx, inputs[args.workload], args.workload, args.seconds,
            wl.MIN_CYCLES[args.workload],
        )
        return {
            **_summary(ops),
            "cycles_s": cycles,
            "wall_s": statistics.median(cycles),
            "warmup_s": warmup_s,
            "cli_rss_mb": ctx.cli_rss_mb,
        }

    _, untraced = run_cycles(ctx, inputs[args.workload], args.workload, 0, 1)
    ctx.tracer = spans.Tracer()
    ops = list(untraced)
    for name in wl.WORKLOADS:
        ops += run_cycles(ctx, inputs[name], name, 0, 1, extras=True)[1]
    base = {op["name"] for op in untraced}
    traced_s = sum(
        op["wall_s"] for op in ops[len(untraced):] if op["name"] in base and not op["extra"]
    )
    usage = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    per_layer = layers.layer_metrics(ctx.tracer.spans)
    per_layer.update(
        {
            "bench.warmup_s": warmup_s,
            "bench.cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
            "bench.trace_overhead": traced_s / sum(op["wall_s"] for op in untraced) - 1.0,
        }
    )
    return {
        **_summary(ops),
        "per_layer": per_layer,
        "span_violations": spans.op_self_time_violations(ctx.tracer.spans),
        "spans": ctx.tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Started while this process is small; see spawner.py.
    spawner = None if args.setup_only else Spawner()
    try:
        return _main(args, spawner)
    finally:
        if spawner is not None:
            spawner.close()


def _main(args, spawner) -> int:
    import photonstat as ps

    if Path(ps.__file__).resolve().parent != ROOT / "src" / "photonstat":
        print(f"error: photonstat imported from {ps.__file__}, not {ROOT}/src", file=sys.stderr)
        return 2
    import workloads as wl

    names = wl.WORKLOADS if args.trace else (args.workload,)
    inputs = {name: wl.build_inputs(ps, name, args.seed) for name in names}
    print("READY", flush=True)
    if args.setup_only:
        return 0

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        result = run(ps, inputs, work, spawner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
