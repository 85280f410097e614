"""Command-line front end.

Subcommands: simulate, g2, gn, hbt, sweep, reproduce-fig2, report.
Common flags: --config PATH, --seed U64, --out DIR, --threads N,
--noise {on,off}, --format {csv,json}. The environment variable
PHOTONSTAT_SEED overrides the config seed; the --seed flag wins over both.

Exit codes: 0 ok, 2 config error, 3 data or format error, 4 acceptance
failure, 5 io error. Errors print one machine-parsable line to stderr:
"error [<code-name>]: <message>".
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    config_hash,
    effective_config,
    resolve_absorber,
    resolve_chain,
    resolve_source,
)
from .correlation import _write_csv, g2_tau, gn_zero
from .errors import (
    AcceptanceError,
    ConfigError,
    EstimationError,
    FormatError,
    InsufficientDataError,
    InvalidArgumentError,
    PhotonstatError,
    SamplingError,
)
from .experiments import (
    Fig2Panel,
    Fig2Report,
    SweepResult,
    calibrate_dipole,
    fig2_report,
    fit_quadratic,
    power_sweep,
    reproduce_fig2,
)
from .instruments import hbt_ensemble
from .seeding import derive_seed
from .sources import coherence_time, make_trace, trace_grid
from .svgplot import loglog_panel_svg
from .traceio import read_trace, write_trace

# Derivation indices carving the master seed into per-command streams.
_SEED_SIMULATE = 10
_SEED_SWEEP = 100
_SEED_HBT = 300

_CONFIG_ERRORS = (ConfigError, InvalidArgumentError, SamplingError)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="YAML configuration file")
    sub.add_argument("--seed", type=int, help="master seed (wins over env and config)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--threads", type=int, help="worker threads for independent jobs")
    sub.add_argument("--noise", choices=("on", "off"), help="toggle all randomness in detection")
    sub.add_argument("--format", choices=("csv", "json"), dest="fmt", help="estimator output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonstat",
        description="Stochastic optical fields, coherence estimators, and "
        "two-photon detection simulation",
    )
    parser.add_argument("--version", action="version", version=f"photonstat {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="synthesize a field trace and summarize it")
    _add_common(p)
    p.add_argument("--source", help="source preset name (default from config)")

    p = subs.add_parser("g2", help="estimate g2(tau) from a trace file")
    _add_common(p)
    p.add_argument("--trace", required=True, help="binary trace file")
    p.add_argument("--max-delay", type=float, help="largest delay in seconds")
    p.add_argument("--n-delays", type=int, help="number of delay points")

    p = subs.add_parser("gn", help="estimate the n-th order zero-delay coherence")
    _add_common(p)
    p.add_argument("--trace", required=True, help="binary trace file")
    p.add_argument("--order", type=int, required=True, help="coherence order, 2..6")

    p = subs.add_parser("hbt", help="interferometer scan and g2(0) extraction")
    _add_common(p)
    p.add_argument("--source", help="source preset name (default from config)")

    p = subs.add_parser("sweep", help="one power sweep with a quadratic fit")
    _add_common(p)
    p.add_argument("--source", help="source preset name")
    p.add_argument("--fluorophore", help="absorber preset name")

    p = subs.add_parser("reproduce-fig2", help="full two-source multi-fluorophore report")
    _add_common(p)

    p = subs.add_parser("report", help="rebuild fits and plots from sweep CSVs")
    _add_common(p)
    return parser


def _meta(cfg: dict) -> dict:
    return {
        "schema_version": cfg["schema_version"],
        "master_seed": cfg["master_seed"],
        "config_hash": config_hash(cfg),
    }


def _meta_line(cfg: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in _meta(cfg).items())


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg: dict, args: argparse.Namespace) -> None:
    params = cfg["simulate"]
    name = args.source or params["source"]
    spec = resolve_source(cfg, name)
    tau_c_nom, duration, dt = trace_grid(
        spec, params["duration_over_tauc"], params["samples_per_tauc"]
    )
    trace = make_trace(spec, duration, dt, derive_seed(cfg["master_seed"], _SEED_SIMULATE))
    est = gn_zero(trace, 2)
    out = _out_dir(cfg)
    trace_path = out / f"trace_{name}.pstt"
    write_trace(trace, trace_path)
    try:
        tau_c = coherence_time(trace)
    except EstimationError:
        tau_c = None
    summary = {
        "source": name,
        "statistics": spec.statistics,
        "mean_power_w": trace.mean_power(),
        "g2_zero": float(est.values[0]),
        "g2_zero_stderr": float(est.std_errors[0]),
        "tau_c_s": tau_c,
        "tau_c_nominal_s": tau_c_nom,
        "dt_s": trace.dt,
        "n_samples": trace.n_samples,
        "carrier_rad_s": trace.carrier_freq,
        "trace_file": trace_path.name,
        **_meta(cfg),
    }
    _write_json(out / f"simulate_{name}.json", summary)
    print(
        f"simulate {name}: g2(0) = {est.values[0]:.4f} "
        f"(se {est.std_errors[0]:.4f}), trace -> {trace_path}"
    )


def _write_estimate(cfg: dict, est, stem: str) -> Path:
    out = _out_dir(cfg)
    if cfg["format"] == "csv":
        path = out / f"{stem}.csv"
        est.to_csv(path, metadata=_meta_line(cfg))
    else:
        path = out / f"{stem}.json"
        _write_json(path, {**est.to_json_dict(), **_meta(cfg)})
    return path


def cmd_g2(cfg: dict, args: argparse.Namespace) -> None:
    trace = read_trace(args.trace)
    params = cfg["g2"]
    if args.max_delay is not None:
        max_delay = args.max_delay
    else:
        try:
            tau_c = coherence_time(trace)
        except EstimationError:
            tau_c = 100.0 * trace.dt / params["max_delay_over_tauc"]
        max_delay = params["max_delay_over_tauc"] * tau_c
    n_delays = args.n_delays if args.n_delays is not None else params["n_delays"]
    if n_delays < 2:
        raise ConfigError("n_delays must be >= 2")
    # Checked before the grid is built: the grid below then has at most
    # n_samples / 2 + 1 delays whatever n_delays asks for.
    half = trace.n_samples // 2 * trace.dt
    if not 0 < max_delay < half:
        # A delay range taken from the trace is the trace's fault (exit 3).
        error = ConfigError if args.max_delay is not None else InsufficientDataError
        raise error(
            f"max_delay must be positive and below half the trace duration "
            f"({half:.6g} s), got {max_delay!r}"
        )
    step = max_delay / (n_delays - 1)
    if step < trace.dt:
        # Collapse to the sample grid rather than failing on duplicates.
        n_delays = max(2, int(round(max_delay / trace.dt)) + 1)
    delays = np.linspace(0.0, max_delay, n_delays)
    est = g2_tau(trace, delays)
    path = _write_estimate(cfg, est, "g2")
    print(
        f"g2: g2(0) = {est.values[0]:.4f} (se {est.std_errors[0]:.4f}), "
        f"{est.delays.size} delays -> {path}"
    )


def cmd_gn(cfg: dict, args: argparse.Namespace) -> None:
    trace = read_trace(args.trace)
    est = gn_zero(trace, args.order)
    path = _write_estimate(cfg, est, f"gn{args.order}")
    print(
        f"gn: g{args.order}(0) = {est.values[0]:.4f} "
        f"(se {est.std_errors[0]:.4f}) -> {path}"
    )


def cmd_hbt(cfg: dict, args: argparse.Namespace) -> None:
    params = cfg["hbt"]
    name = args.source or params["source"]
    n_real = params["realizations"]
    ens = hbt_ensemble(
        resolve_source(cfg, name),
        [derive_seed(cfg["master_seed"], _SEED_HBT, k) for k in range(n_real)],
        # The five lengths in units of the nominal coherence time.
        **{key: value for key, value in params.items() if key.endswith("_tauc")},
        threads=cfg["threads"],
    )
    spread = np.std(ens.realization_g2, ddof=1) / np.sqrt(n_real) if n_real > 1 else 0.0
    out = _out_dir(cfg)
    csv_path = out / f"hbt_{name}.csv"
    ens.scan.to_csv(csv_path, metadata=_meta_line(cfg))
    summary = {
        "source": name,
        "g2_zero": float(ens.g2.values[0]),
        "g2_zero_stderr": max(float(ens.g2.std_errors[0]), float(spread)),
        "realizations": n_real,
        "tail_window_s": list(ens.tail_window),
        "tau_c_nominal_s": ens.tau_c,
        "fringe_period_s": ens.scan.fringe_period,
        "scan_file": csv_path.name,
        **_meta(cfg),
    }
    _write_json(out / f"hbt_{name}.json", summary)
    print(
        f"hbt {name}: extracted g2(0) = {summary['g2_zero']:.4f} "
        f"(se {summary['g2_zero_stderr']:.4f}) -> {csv_path}"
    )


def _experiment_pieces(cfg: dict):
    """The experiment section, its chain and its measured powers. Sources
    and absorbers are left to each subcommand, which resolves only those
    it runs."""
    exp = cfg["experiment"]
    chain = resolve_chain(cfg, exp["chain"])
    powers = np.geomspace(exp["power_min_w"], exp["power_max_w"], exp["n_powers"])
    return exp, chain, powers


def cmd_sweep(cfg: dict, args: argparse.Namespace) -> None:
    exp, chain, powers = _experiment_pieces(cfg)
    source_name = args.source or exp["sources"][0]
    fluor_name = args.fluorophore or exp["fluorophores"][0]
    spec = resolve_source(cfg, source_name)
    absorber = calibrate_dipole(
        resolve_absorber(cfg, fluor_name),
        chain,
        exp["calibration_target_counts"],
        exp["calibration_power_w"],
    )
    _, duration, dt = trace_grid(
        spec, exp["trace_duration_over_tauc"], exp["trace_samples_per_tauc"]
    )
    sweep = power_sweep(
        spec,
        absorber,
        chain,
        powers,
        exp["repeats"],
        derive_seed(cfg["master_seed"], _SEED_SWEEP),
        noise=cfg["noise"],
        statistics_mode=exp["statistics_mode"],
        trace_duration=duration,
        trace_dt=dt,
    )
    fit = fit_quadratic(sweep)
    out = _out_dir(cfg)
    csv_path = out / f"sweep_{fluor_name}__{source_name}.csv"
    _write_sweep_csv(csv_path, sweep, _meta_line(cfg))
    payload = {
        "source": source_name,
        "fluorophore": fluor_name,
        "g2_used": sweep.g2_value,
        **_fit_payload(fit),
        **_meta(cfg),
    }
    _write_json(out / f"sweep_{fluor_name}__{source_name}.json", payload)
    print(
        f"sweep {fluor_name}/{source_name}: a = {fit.a:.4e} "
        f"(se {fit.a_stderr:.2e}) -> {csv_path}"
    )


def _write_sweep_csv(path: Path, sweep: SweepResult, metadata: str) -> None:
    # Python floats print as repr, counts as ints (noise on) or floats.
    columns = (sweep.power.tolist(), sweep.count.tolist(), sweep.repeat.tolist())
    _write_csv(path, metadata, ["P_exc_W", "counts", "repeat"], zip(*columns))


def _read_sweep_csv(path: Path, config_hash: str) -> SweepResult:
    """Read a reproduce-fig2 sweep from path. Refuse one that is not UTF-8
    text, or without a "# ..." metadata line naming this run's config_hash:
    nothing else shows that its rows belong to this configuration."""
    records = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a sweep CSV ({exc})") from exc
    meta = ",".join(rows[0]) if rows and rows[0][0].startswith("#") else ""
    written = dict(item.partition("=")[::2] for item in meta.split()).get("config_hash")
    rows = [r for r in rows if not r[0].startswith("#")]
    if not rows or rows[0] != ["P_exc_W", "counts", "repeat"]:
        raise FormatError(f"{path}: not a sweep CSV (bad header)")
    for row in rows[1:]:
        try:
            p_exc, counts, rep = row
            record = (float(p_exc), float(counts), int(rep))
        except ValueError:
            record = None
        ok = record is not None and 0 < record[0] < np.inf and 0 <= record[1] < np.inf
        # A repeat index numbers the records of one power: below the rows.
        if not (ok and 0 <= record[2] < len(rows)):
            raise FormatError(f"{path}: malformed row {row!r}")
        records.append(record)
    if written != config_hash:
        raise FormatError(
            f"{path}: written under config_hash={written}, not this run's "
            f"{config_hash} (another config, seed or --noise)"
        )
    power, count, repeat = np.array(records, dtype=float).reshape(-1, 3).T
    return SweepResult(power, count, repeat.astype(int))


def _panel_svg(cfg: dict, panel: Fig2Panel) -> str:
    markers = ("square", "circle")
    series = [
        {"label": key, "x": sweep.power, "y": sweep.count, "marker": markers[k % 2]}
        for k, (key, sweep) in enumerate(panel.sweeps.items())
    ]
    fit_lines = [{"label": key, "a": fit.a, "b": 2.0} for key, fit in panel.fits.items()]
    return loglog_panel_svg(
        title=panel.fluorophore,
        series=series,
        fit_lines=fit_lines,
        x_label="P_exc (W)",
        y_label="counts",
        metadata=_meta_line(cfg),
    )


def _fit_payload(fit) -> dict:
    exp_check = fit.exponent_check
    return {
        "a": fit.a,
        "a_stderr": fit.a_stderr,
        "b": exp_check.b if exp_check else None,
        "b_stderr": exp_check.b_stderr if exp_check else None,
        "chi2_reduced": fit.residual_stats.get("chi2_reduced"),
    }


def _write_fig2(cfg: dict, out: Path, report: Fig2Report, g2_values=None) -> None:
    """Plots, fits.csv and report.json of a Fig. 2 report whose panels are
    keyed by configured fluorophore name; the absorber's label comes from
    the config. g2_values maps a name to its entry's g2_values. A panel
    without a ratio gets no plot, and an earlier plot of it is removed.
    """
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    columns = ["a", "a_stderr", "b", "b_stderr"]
    table = []
    entries = []
    for panel in report.panels:
        name = panel.fluorophore
        fits = {key: _fit_payload(fit) for key, fit in panel.fits.items()}
        for key, f in fits.items():
            cells = ["" if f[c] is None else repr(float(f[c])) for c in columns]
            table.append([f"{name}/{key}", *cells])
        entry = {"fluorophore": name, "label": resolve_absorber(cfg, name).label, "fits": fits}
        if g2_values is not None:
            entry["g2_values"] = g2_values[name]
        plot = plots / f"{name}.svg"
        if panel.ratio is None:
            plot.unlink(missing_ok=True)
        else:
            with open(plot, "w") as fh:
                fh.write(_panel_svg(cfg, panel))
            entry["ratio"] = panel.ratio.value
            entry["ratio_stderr"] = panel.ratio.stderr
            entry["within_band"] = panel.within_band
        entries.append(entry)
    _write_csv(out / "fits.csv", _meta_line(cfg), ["label", *columns], table)
    _write_json(
        out / "report.json",
        {
            "panels": entries,
            "all_within_band": report.all_within_band,
            "ratio_band": list(report.ratio_band),
            "noise": cfg["noise"],
            "error_budget": report.error_budget,
            "statistics_mode": cfg["experiment"]["statistics_mode"],
            **_meta(cfg),
        },
    )


def cmd_reproduce_fig2(cfg: dict, args: argparse.Namespace) -> None:
    exp, chain, powers = _experiment_pieces(cfg)
    report = reproduce_fig2(
        # Labelled by their configured names, which key every artifact.
        sources=[replace(resolve_source(cfg, n), label=n) for n in exp["sources"]],
        absorbers=[replace(resolve_absorber(cfg, n), label=n) for n in exp["fluorophores"]],
        chain=chain,
        powers=powers,
        repeats=exp["repeats"],
        master_seed=cfg["master_seed"],
        noise=cfg["noise"],
        statistics_mode=exp["statistics_mode"],
        trace_duration_over_tauc=exp["trace_duration_over_tauc"],
        trace_samples_per_tauc=exp["trace_samples_per_tauc"],
        calibration_target=exp["calibration_target_counts"],
        calibration_power=exp["calibration_power_w"],
        panel_scale_error=exp["panel_scale_error"],
        arm_scale_error=exp["arm_scale_error"],
        ratio_band=exp["ratio_band"],
        threads=cfg["threads"],
    )
    out = _out_dir(cfg)
    for panel in report.panels:
        for key, sweep in panel.sweeps.items():
            _write_sweep_csv(out / f"{panel.fluorophore}__{key}.csv", sweep, _meta_line(cfg))
    g2_values = {p.fluorophore: {k: s.g2_value for k, s in p.sweeps.items()} for p in report.panels}
    _write_fig2(cfg, out, report, g2_values)
    for panel in report.panels:
        flag = "ok" if panel.within_band else "OUT OF BAND"
        print(
            f"{panel.fluorophore}: ratio = {panel.ratio.value:.3f} "
            f"(se {panel.ratio.stderr:.3f}) [{flag}]"
        )
    if not report.all_within_band:
        bad = [
            f"{panel.fluorophore}: {panel.ratio.value:.3f}"
            for panel in report.panels
            if not panel.within_band
        ]
        raise AcceptanceError(
            "enhancement ratio outside "
            f"[{report.ratio_band[0]}, {report.ratio_band[1]}]: " + "; ".join(bad)
        )
    print(f"report -> {out / 'report.json'}")


def cmd_report(cfg: dict, args: argparse.Namespace) -> None:
    out = _out_dir(cfg)
    exp = cfg["experiment"]
    # One panel per configured fluorophore, of whichever of its configured
    # sources' sweep CSVs exist: none leaves a panel without fits.
    panels = [
        (fluor, {
            source: _read_sweep_csv(path, config_hash(cfg))
            for source in exp["sources"]
            if (path := out / f"{fluor}__{source}.csv").exists()
        })
        for fluor in exp["fluorophores"]
    ]
    n_files = sum(len(sweeps) for _, sweeps in panels)
    if not n_files:
        raise InsufficientDataError(f"no reproduce-fig2 sweep CSVs in {out}")
    report = fig2_report(
        panels, cfg["noise"], exp["panel_scale_error"], exp["arm_scale_error"], exp["ratio_band"]
    )
    _write_fig2(cfg, out, report)
    print(f"report rebuilt from {n_files} sweep files -> {out / 'report.json'}")


_HANDLERS = {
    "simulate": cmd_simulate,
    "g2": cmd_g2,
    "gn": cmd_gn,
    "hbt": cmd_hbt,
    "sweep": cmd_sweep,
    "reproduce-fig2": cmd_reproduce_fig2,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        noise = None if args.noise is None else args.noise == "on"
        cfg = effective_config(
            args.config, args.seed, threads=args.threads, noise=noise, format=args.fmt,
            output_dir=args.out,
        )
        _HANDLERS[args.command](cfg, args)
        return 0
    except _CONFIG_ERRORS as exc:
        print(f"error [config-error]: {exc}", file=sys.stderr)
        return 2
    except AcceptanceError as exc:
        print(f"error [acceptance-failure]: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error [io-error]: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:  # a configured grid beyond the machine's memory
        print(f"error [config-error]: out of memory: {exc}", file=sys.stderr)
        return 2
    except PhotonstatError as exc:  # every other package error
        print(f"error [data-error]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
