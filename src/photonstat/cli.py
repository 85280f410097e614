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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    load_config,
    resolve_absorber,
    resolve_chain,
    resolve_source,
)
from .correlation import g2_tau, gn_zero
from .errors import (
    AcceptanceError,
    ConfigError,
    DegenerateInputError,
    DivisionDomainError,
    EstimationError,
    FormatError,
    InsufficientDataError,
    InvalidArgumentError,
    ModelDomainError,
    OutOfModelError,
    PhotonstatError,
    SamplingError,
)
from .experiments import (
    SweepResult,
    calibrate_dipole,
    fit_quadratic,
    power_sweep,
    reproduce_fig2,
)
from .instruments import InterferogramScan, extract_g2, hbt_scan
from .seeding import derive_seed
from .sources import coherence_time, make_trace, nominal_coherence_time
from .svgplot import loglog_panel_svg
from .traceio import read_trace, write_trace

# Derivation indices carving the master seed into per-command streams.
_SEED_SIMULATE = 10
_SEED_SWEEP = 100
_SEED_HBT = 300

_CONFIG_ERRORS = (ConfigError, InvalidArgumentError, SamplingError)
_DATA_ERRORS = (
    FormatError,
    DegenerateInputError,
    InsufficientDataError,
    EstimationError,
    OutOfModelError,
    ModelDomainError,
    DivisionDomainError,
)


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


def _effective_config(args: argparse.Namespace) -> RunConfig:
    data = load_config(args.config)
    seed, origin = data["master_seed"], "master_seed"
    env_seed = os.environ.get("PHOTONSTAT_SEED")
    if env_seed is not None:
        seed, origin = env_seed, "PHOTONSTAT_SEED"
    if args.seed is not None:
        seed, origin = args.seed, "--seed"
    try:
        master_seed = int(seed)
    except ValueError:
        master_seed = -1
    if not 0 <= master_seed < 2**64:
        raise ConfigError(f"{origin} must be an integer in [0, 2^64), got {seed!r}")
    noise = data["noise"]
    if args.noise is not None:
        noise = args.noise == "on"
    threads = args.threads if args.threads is not None else int(data["threads"])
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    out_dir = args.out if args.out is not None else data["output_dir"]
    fmt = args.fmt if args.fmt is not None else data["format"]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return RunConfig(
        data=data,
        master_seed=master_seed,
        threads=threads,
        noise=bool(noise),
        out_dir=out_dir,
        fmt=fmt,
    )


def _meta(cfg: RunConfig) -> dict:
    return {
        "schema_version": cfg.data["schema_version"],
        "master_seed": cfg.master_seed,
        "config_hash": cfg.hash,
    }


def _meta_line(cfg: RunConfig) -> str:
    return (
        f"schema_version={cfg.data['schema_version']} "
        f"master_seed={cfg.master_seed} config_hash={cfg.hash}"
    )


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid_for(cfg: RunConfig, section: str, spec) -> tuple[float, float, float]:
    """(tau_c_nominal, dt, duration) for a source under a config section."""
    params = cfg.data[section]
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    dt = tau_c / float(params["samples_per_tauc"])
    duration = float(params["duration_over_tauc"]) * tau_c
    return tau_c, dt, duration


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> None:
    name = args.source or cfg.data["simulate"]["source"]
    spec = resolve_source(cfg.data, name)
    tau_c_nom, dt, duration = _grid_for(cfg, "simulate", spec)
    trace = make_trace(spec, duration, dt, derive_seed(cfg.master_seed, _SEED_SIMULATE))
    out = _out_dir(cfg)
    trace_path = out / f"trace_{name}.pstt"
    write_trace(trace, trace_path)
    est = gn_zero(trace, 2)
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


def _write_estimate(cfg: RunConfig, est, stem: str) -> Path:
    out = _out_dir(cfg)
    if cfg.fmt == "csv":
        path = out / f"{stem}.csv"
        est.to_csv(path, metadata=_meta_line(cfg))
    else:
        path = out / f"{stem}.json"
        _write_json(path, {**est.to_json_dict(), **_meta(cfg)})
    return path


def cmd_g2(cfg: RunConfig, args: argparse.Namespace) -> None:
    trace = read_trace(args.trace)
    params = cfg.data["g2"]
    if args.max_delay is not None:
        max_delay = args.max_delay
    else:
        try:
            tau_c = coherence_time(trace)
        except EstimationError:
            tau_c = 100.0 * trace.dt / float(params["max_delay_over_tauc"])
        max_delay = float(params["max_delay_over_tauc"]) * tau_c
    n_delays = args.n_delays if args.n_delays is not None else int(params["n_delays"])
    if n_delays < 2:
        raise ConfigError("n_delays must be >= 2")
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


def cmd_gn(cfg: RunConfig, args: argparse.Namespace) -> None:
    trace = read_trace(args.trace)
    est = gn_zero(trace, args.order)
    path = _write_estimate(cfg, est, f"gn{args.order}")
    print(
        f"gn: g{args.order}(0) = {est.values[0]:.4f} "
        f"(se {est.std_errors[0]:.4f}) -> {path}"
    )


def cmd_hbt(cfg: RunConfig, args: argparse.Namespace) -> None:
    name = args.source or cfg.data["hbt"]["source"]
    spec = resolve_source(cfg.data, name)
    params = cfg.data["hbt"]
    tau_c_nom, dt, duration = _grid_for(cfg, "hbt", spec)
    step = float(params["step_over_tauc"]) * tau_c_nom
    max_delay = float(params["max_delay_over_tauc"]) * tau_c_nom
    delays = np.arange(0.0, max_delay + step / 2.0, step)
    n_real = int(params["realizations"])
    if n_real < 1:
        raise ConfigError("hbt.realizations must be >= 1")
    tail = (float(params["tail_start_over_tauc"]) * tau_c_nom, max_delay)

    def _one(k: int) -> InterferogramScan:
        trace = make_trace(spec, duration, dt, derive_seed(cfg.master_seed, _SEED_HBT, k))
        return hbt_scan(trace, delays)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            scans = list(pool.map(_one, range(n_real)))
    else:
        scans = [_one(k) for k in range(n_real)]
    raw_mean = np.mean([s.raw_signal for s in scans], axis=0)
    filt_mean = np.mean([s.filtered_signal for s in scans], axis=0)
    averaged = InterferogramScan(delays, raw_mean, filt_mean, scans[0].fringe_period)
    est = extract_g2(averaged, tail, coherence_time=tau_c_nom)
    per_real = np.array(
        [
            extract_g2(s, tail, coherence_time=tau_c_nom).values[0]
            for s in scans
        ]
    )
    spread = float(np.std(per_real, ddof=1) / np.sqrt(n_real)) if n_real > 1 else 0.0
    out = _out_dir(cfg)
    csv_path = out / f"hbt_{name}.csv"
    averaged.to_csv(csv_path, metadata=_meta_line(cfg))
    summary = {
        "source": name,
        "g2_zero": float(est.values[0]),
        "g2_zero_stderr": max(float(est.std_errors[0]), spread),
        "realizations": n_real,
        "tail_window_s": [tail[0], tail[1]],
        "tau_c_nominal_s": tau_c_nom,
        "fringe_period_s": averaged.fringe_period,
        "scan_file": csv_path.name,
        **_meta(cfg),
    }
    _write_json(out / f"hbt_{name}.json", summary)
    print(
        f"hbt {name}: extracted g2(0) = {summary['g2_zero']:.4f} "
        f"(se {summary['g2_zero_stderr']:.4f}) -> {csv_path}"
    )


def _experiment_pieces(cfg: RunConfig):
    exp = cfg.data["experiment"]
    sources = [resolve_source(cfg.data, n) for n in exp["sources"]]
    absorbers = [resolve_absorber(cfg.data, n) for n in exp["fluorophores"]]
    chain = resolve_chain(cfg.data, exp["chain"])
    powers = np.geomspace(
        float(exp["power_min_w"]), float(exp["power_max_w"]), int(exp["n_powers"])
    )
    return exp, sources, absorbers, chain, powers


def _trace_grid(exp: dict, spec) -> tuple[float, float]:
    tau_c = nominal_coherence_time(spec.spectral_shape, spec.bandwidth_hz)
    return (
        float(exp["trace_duration_over_tauc"]) * tau_c,
        tau_c / float(exp["trace_samples_per_tauc"]),
    )


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> None:
    exp, sources, absorbers, chain, powers = _experiment_pieces(cfg)
    source_name = args.source or exp["sources"][0]
    fluor_name = args.fluorophore or exp["fluorophores"][0]
    spec = resolve_source(cfg.data, source_name)
    absorber = calibrate_dipole(
        resolve_absorber(cfg.data, fluor_name),
        chain,
        float(exp["calibration_target_counts"]),
        float(exp["calibration_power_w"]),
    )
    duration, dt = _trace_grid(exp, spec)
    sweep = power_sweep(
        spec,
        absorber,
        chain,
        powers,
        int(exp["repeats"]),
        derive_seed(cfg.master_seed, _SEED_SWEEP),
        noise=cfg.noise,
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


def _format_count(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_sweep_csv(path: Path, sweep: SweepResult, metadata: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {metadata}\n")
        writer = csv.writer(fh)
        writer.writerow(["P_exc_W", "counts", "repeat"])
        for p_exc, counts, rep in sweep.records:
            writer.writerow([repr(float(p_exc)), _format_count(counts), rep])


def _read_sweep_csv(path: Path) -> SweepResult:
    records = []
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0] != ["P_exc_W", "counts", "repeat"]:
        raise FormatError(f"{path}: not a sweep CSV (bad header)")
    for row in rows[1:]:
        try:
            p_exc, counts, rep = row
            record = (float(p_exc), float(counts), int(rep))
        except ValueError:
            record = None
        if record is None or not np.all(np.isfinite(record[:2])):
            raise FormatError(f"{path}: malformed row {row!r}")
        records.append(record)
    stem = path.stem
    fluor, _, source = stem.partition("__")
    return SweepResult(
        source_label=source,
        fluorophore_label=fluor,
        records=records,
        seed=0,
    )


def _panel_svg(
    cfg: RunConfig, fluor_name: str, sweeps: dict, fits: dict
) -> str:
    series = []
    fit_lines = []
    markers = ("square", "circle")
    for k, (key, sweep) in enumerate(sweeps.items()):
        series.append(
            {
                "label": key,
                "x": sweep.powers(),
                "y": sweep.counts(),
                "marker": markers[k % 2],
            }
        )
        fit_lines.append({"label": key, "a": fits[key].a, "b": 2.0})
    return loglog_panel_svg(
        title=fluor_name,
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


def _write_fits_csv(path: Path, rows: list, metadata: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {metadata}\n")
        writer = csv.writer(fh)
        writer.writerow(["label", "a", "a_stderr", "b", "b_stderr"])
        for label, fit in rows:
            exp_check = fit.exponent_check
            writer.writerow(
                [
                    label,
                    repr(float(fit.a)),
                    repr(float(fit.a_stderr)),
                    repr(float(exp_check.b)) if exp_check else "",
                    repr(float(exp_check.b_stderr)) if exp_check else "",
                ]
            )


def cmd_reproduce_fig2(cfg: RunConfig, args: argparse.Namespace) -> None:
    exp, sources, absorbers, chain, powers = _experiment_pieces(cfg)
    trace_duration = trace_dt = None
    if exp["statistics_mode"] == "trace":
        # Grid tied to the first source's spectrum; sources share it here.
        trace_duration, trace_dt = _trace_grid(exp, sources[0])
    report = reproduce_fig2(
        sources=sources,
        absorbers=absorbers,
        chain=chain,
        powers=powers,
        repeats=int(exp["repeats"]),
        master_seed=cfg.master_seed,
        noise=cfg.noise,
        statistics_mode=exp["statistics_mode"],
        trace_duration=trace_duration,
        trace_dt=trace_dt,
        calibration_target=float(exp["calibration_target_counts"]),
        calibration_power=float(exp["calibration_power_w"]),
        panel_scale_error=float(exp["panel_scale_error"]),
        arm_scale_error=float(exp["arm_scale_error"]),
        ratio_band=tuple(exp["ratio_band"]),
        threads=cfg.threads,
    )
    out = _out_dir(cfg)
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    fluor_names = list(exp["fluorophores"])
    fit_rows = []
    panel_payload = []
    for fluor_name, panel in zip(fluor_names, report.panels):
        fits_payload = {}
        g2_values = {}
        for key, sweep in panel.sweeps.items():
            _write_sweep_csv(
                out / f"{fluor_name}__{key}.csv", sweep, _meta_line(cfg)
            )
            fit = panel.fits[key]
            fit_rows.append((f"{fluor_name}/{key}", fit))
            fits_payload[key] = _fit_payload(fit)
            g2_values[key] = sweep.g2_value
        with open(plots / f"{fluor_name}.svg", "w") as fh:
            fh.write(_panel_svg(cfg, fluor_name, panel.sweeps, panel.fits))
        panel_payload.append(
            {
                "fluorophore": fluor_name,
                "label": panel.fluorophore,
                "ratio": panel.ratio.value,
                "ratio_stderr": panel.ratio.stderr,
                "within_band": panel.within_band,
                "fits": fits_payload,
                "g2_values": g2_values,
            }
        )
    _write_fits_csv(out / "fits.csv", fit_rows, _meta_line(cfg))
    _write_json(
        out / "report.json",
        {
            "panels": panel_payload,
            "all_within_band": report.all_within_band,
            "ratio_band": list(report.ratio_band),
            "noise": report.noise,
            "error_budget": report.error_budget,
            "statistics_mode": exp["statistics_mode"],
            **_meta(cfg),
        },
    )
    for fluor_name, panel in zip(fluor_names, report.panels):
        flag = "ok" if panel.within_band else "OUT OF BAND"
        print(
            f"{fluor_name}: ratio = {panel.ratio.value:.3f} "
            f"(se {panel.ratio.stderr:.3f}) [{flag}]"
        )
    if not report.all_within_band:
        bad = [
            f"{name}: {panel.ratio.value:.3f}"
            for name, panel in zip(fluor_names, report.panels)
            if not panel.within_band
        ]
        raise AcceptanceError(
            "enhancement ratio outside "
            f"[{report.ratio_band[0]}, {report.ratio_band[1]}]: " + "; ".join(bad)
        )
    print(f"report -> {out / 'report.json'}")


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> None:
    out = _out_dir(cfg)
    exp = cfg.data["experiment"]
    # reproduce-fig2 writes {fluorophore}__{source}.csv; `sweep` adds "sweep_".
    csvs = out.glob("*__*.csv")
    sweep_files = sorted(p for p in csvs if not p.name.startswith("sweep_"))
    if not sweep_files:
        raise InsufficientDataError(f"no reproduce-fig2 sweep CSVs in {out}")
    panels: dict = {}
    for path in sweep_files:
        sweep = _read_sweep_csv(path)
        panels.setdefault(sweep.fluorophore_label, {})[sweep.source_label] = sweep

    def _config_order(names, configured):
        listed = [n for n in configured if n in names]
        return listed + sorted(set(names) - set(listed))

    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    fit_rows = []
    panel_payload = []
    band = tuple(exp["ratio_band"])
    all_within = True
    for fluor_name in _config_order(panels, exp["fluorophores"]):
        found = panels[fluor_name]
        sweeps = {k: found[k] for k in _config_order(found, exp["sources"])}
        fits = {key: fit_quadratic(sweep) for key, sweep in sweeps.items()}
        fit_rows += [(f"{fluor_name}/{key}", fit) for key, fit in fits.items()]
        payload = {
            "fluorophore": fluor_name,
            "fits": {key: _fit_payload(fit) for key, fit in fits.items()},
        }
        keys = list(sweeps)
        if len(keys) == 2:
            from .experiments import enhancement_ratio

            ratio = enhancement_ratio(fits[keys[0]], fits[keys[1]])
            within = band[0] <= ratio.value <= band[1]
            all_within = all_within and within
            payload.update(
                ratio=ratio.value, ratio_stderr=ratio.stderr, within_band=within
            )
            with open(plots / f"{fluor_name}.svg", "w") as fh:
                fh.write(_panel_svg(cfg, fluor_name, sweeps, fits))
        panel_payload.append(payload)
    _write_fits_csv(out / "fits.csv", fit_rows, _meta_line(cfg))
    _write_json(
        out / "report.json",
        {
            "panels": panel_payload,
            "all_within_band": all_within,
            "ratio_band": list(band),
            **_meta(cfg),
        },
    )
    print(f"report rebuilt from {len(sweep_files)} sweep files -> {out / 'report.json'}")


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
        cfg = _effective_config(args)
        _HANDLERS[args.command](cfg, args)
        return 0
    except _CONFIG_ERRORS as exc:
        print(f"error [config-error]: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error [data-error]: {exc}", file=sys.stderr)
        return 3
    except AcceptanceError as exc:
        print(f"error [acceptance-failure]: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error [io-error]: {exc}", file=sys.stderr)
        return 5
    except PhotonstatError as exc:  # any future subclass
        print(f"error [data-error]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
