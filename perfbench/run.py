"""photonstat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Each workload runs in a fresh child
process (child.py) that imports photonstat from src/. Untraced runs report
the end-to-end metrics:

    setup_s      median over fresh processes of the time from interpreter
                 start to `import photonstat` done and the inputs built
    wall_s       median wall time of one cycle of the workload's operations
    peak_rss_mb  peak RSS of the workload process, read with os.wait4; for
                 cli-pipeline the largest over its CLI child processes

and the failed/attempted operation counts (error_rate). A traced run
(--trace 1) reports the per-layer metrics of layers.py instead. The last
stdout line is one JSON object; a result file with provenance is written
to .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3  # fresh processes timed per run for setup_s
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PHOTONSTAT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(args: list, deadline: float):
    """Run child.py; return (seconds to READY, stdout lines, rusage, exit code)."""
    from spawner import reap

    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = time.perf_counter() - t0
            lines.append(line)
    finally:
        timer.cancel()
        usage = reap(proc)
        proc.stdout.close()
    return ready, lines, usage, proc.returncode


def import_breakdown(reps: int = 3) -> dict:
    """cli.import.* from `python -X importtime -c "import photonstat"`.

    cli.import.s is the cumulative time of photonstat; the per-library
    figures sum the self time of every module of that top-level package.
    """
    runs = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import photonstat"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        self_us: dict[str, int] = {}
        total_us = None
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            own, cumulative, name = int(fields[0]), int(fields[1]), fields[2].strip()
            top = name.split(".")[0]
            self_us[top] = self_us.get(top, 0) + own
            if name == "photonstat":
                total_us = cumulative
        runs.append(
            {
                "cli.import.s": total_us / 1e6,
                **{f"cli.import.{lib}_s": self_us.get(lib, 0) / 1e6 for lib in ("scipy", "numpy", "yaml")},
            }
        )
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def provenance(workload: str) -> dict:
    from workloads import NPROC, WORKLOADS, sizes

    cpu_model = None
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    llc = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read_text(index / "level")
        if level and (llc is None or int(level) >= llc["level"]):
            llc = {
                "level": int(level),
                "size": _read_text(index / "size"),
                "shared_cpu_list": _read_text(index / "shared_cpu_list"),
            }
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the checkout is not a git repository
    names = WORKLOADS if workload == "all" else (workload,)
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model,
        "llc": llc,
        "versions": versions,
        "git_commit": commit,
        "sizes_bytes_computed": {name: sizes(name) for name in names},
    }


def _result(lines: list, code: int, what: str) -> dict:
    if code != 0 or not lines:
        raise SystemExit(f"error: {what} exited with code {code}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its metrics, counts and raw result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        imports = import_breakdown()
        _, lines, _, code = run_child([*base, "--trace", "1"], deadline)
        raw = _result(lines, code, "traced run")
        from layers import METRICS

        values = {**raw.pop("per_layer"), **imports}
        metrics = {
            name: {"value": values[name], "unit": unit, "moves": moves}
            for name, unit, _, moves, _ in METRICS
        }
        correct = raw["failed"] == 0 and not raw["span_violations"]
        return {"metrics": metrics, "correct": correct, "raw": raw}

    setup = []
    for _ in range(SETUP_RUNS - 1):
        ready, _, _, code = run_child([*base, "--setup-only"], deadline)
        if code != 0 or ready is None:
            raise SystemExit(f"error: set-up exited with code {code}")
        setup.append(ready)
    ready, lines, usage, code = run_child(
        [*base, "--seconds", str(seconds), "--trace", "0"], deadline
    )
    raw = _result(lines, code, "workload run")
    setup.append(ready)
    if workload == "cli-pipeline":
        peak, peak_n = max(raw["cli_rss_mb"]), len(raw["cli_rss_mb"])
    else:
        peak, peak_n = usage.ru_maxrss / 1024, 1
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
        "wall_s": {"value": raw["wall_s"], "unit": "s", "n": len(raw["cycles_s"])},
        "peak_rss_mb": {"value": peak, "unit": "MB", "n": peak_n},
    }
    return {"metrics": metrics, "correct": raw["failed"] == 0, "raw": raw}


def _print_table(workload: str, res: dict) -> None:
    raw = res["raw"]
    print(f"{workload}: {raw['attempted']} operations, {raw['failed']} failed")
    for name, m in res["metrics"].items():
        n = f"  n={m['n']}" if "n" in m else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{n}")
    rate = raw["failed"] / raw["attempted"]
    print(f"  {'error_rate':<44} {rate:>14.6g} ratio  n={raw['attempted']}")
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="photonstat benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "photonstat" / "__init__.py").is_file():
        print(f"error: no photonstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_table(name, results[name])

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {
                "args": vars(args),
                "provenance": provenance(args.workload),
                "results": results,
            },
            indent=1,
        )
    )
    print(f"result file: {out.relative_to(ROOT)}")

    prefix = len(names) > 1
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["raw"]["attempted"] for r in results.values()),
                "failed": sum(r["raw"]["failed"] for r in results.values()),
                "metrics": {
                    (f"{name}.{key}" if prefix else key): {"value": m["value"], "unit": m["unit"]}
                    for name, r in results.items()
                    for key, m in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
