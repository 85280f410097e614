"""Configuration loading, hashing, and the command-line surface."""

import dataclasses
import inspect
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photonstat

from photonstat.config import (
    DEFAULT_CONFIG,
    config_hash,
    load_config,
    resolve_chain,
    resolve_source,
)
from photonstat import cli, errors
from photonstat.errors import ConfigError
from photonstat.instruments import DetectionChain
from photonstat.sources import FieldTrace, SourceSpec
from photonstat.traceio import read_trace, write_trace
from photonstat.tpa import AbsorberSpec
from photonstat.cli import main


def test_defaults_load_without_file():
    data = load_config(None)
    assert data["master_seed"] == DEFAULT_CONFIG["master_seed"]
    assert data["experiment"]["chain"] == "paper-EMCCD"


def test_yaml_merge_and_unknown_key(tmp_path):
    good = tmp_path / "ok.yaml"
    good.write_text("master_seed: 5\nexperiment:\n  repeats: 2\n")
    data = load_config(good)
    assert data["master_seed"] == 5
    assert data["experiment"]["repeats"] == 2
    assert data["experiment"]["chain"] == "paper-EMCCD"

    bad = tmp_path / "bad.yaml"
    bad.write_text("master_sed: 5\n")
    with pytest.raises(ConfigError):
        load_config(bad)

    nested = tmp_path / "nested.yaml"
    nested.write_text("experiment:\n  repeatz: 2\n")
    with pytest.raises(ConfigError):
        load_config(nested)


def test_schema_version_check(tmp_path):
    f = tmp_path / "v.yaml"
    f.write_text("schema_version: 99\n")
    with pytest.raises(ConfigError):
        load_config(f)


def test_hash_ignores_execution_keys():
    a = dict(DEFAULT_CONFIG)
    b = dict(DEFAULT_CONFIG)
    b["output_dir"] = "elsewhere"
    b["threads"] = 16
    assert config_hash(a) == config_hash(b)
    c = dict(DEFAULT_CONFIG)
    c["master_seed"] = 999
    assert config_hash(a) != config_hash(c)


def test_resolve_source_with_override(tmp_path):
    f = tmp_path / "o.yaml"
    f.write_text("sources:\n  bright-sld:\n    preset: sld\n    mean_power: 5.0e-3\n")
    data = load_config(f)
    spec = resolve_source(data, "bright-sld")
    assert spec.mean_power == pytest.approx(5e-3)
    assert spec.statistics == "thermal-gaussian"
    base = resolve_source(data, "sld")
    assert base.mean_power == pytest.approx(1e-3)


def test_resolve_chain_override(tmp_path):
    f = tmp_path / "c.yaml"
    f.write_text("chains:\n  dark-EMCCD:\n    preset: paper-EMCCD\n    dark_rate: 30.0\n")
    data = load_config(f)
    chain = resolve_chain(data, "dark-EMCCD")
    assert chain.dark_rate == pytest.approx(30.0)
    assert chain.quantum_efficiency == pytest.approx(0.90)


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_simulate_and_g2(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["simulate", "--out", out, "--seed", 7]) == 0
    trace = out / "trace_sld.pstt"
    summary = json.loads((out / "simulate_sld.json").read_text())
    assert trace.exists()
    assert summary["master_seed"] == 7
    assert abs(summary["g2_zero"] - 2.0) < 0.1
    assert run_cli(["g2", "--trace", trace, "--out", out, "--seed", 7]) == 0
    header = (out / "g2.csv").read_text().splitlines()
    assert header[0].startswith("# schema_version=1 master_seed=7 config_hash=")
    assert header[1] == "tau_s,g_value,std_err"
    assert (
        run_cli(
            ["gn", "--trace", trace, "--order", 3, "--out", out, "--format", "json"]
        )
        == 0
    )
    gn = json.loads((out / "gn3.json").read_text())
    assert gn["order"] == 3
    assert abs(gn["values"][0] - 6.0) < 1.0


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["simulate", "--source", "nosuch", "--out", out]) == 2
    bad = tmp_path / "bad.pstt"
    bad.write_bytes(b"garbage here")
    assert run_cli(["g2", "--trace", bad, "--out", out]) == 3
    assert run_cli(["g2", "--trace", tmp_path / "missing.pstt", "--out", out]) == 5
    assert run_cli(["gn", "--trace", bad, "--order", 3, "--out", out]) == 3
    cfg = tmp_path / "badkey.yaml"
    cfg.write_text("no_such_key: 1\n")
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2


def test_cli_simulate_residual_source(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["simulate", "--source", "sld-residual", "--out", out]) == 0
    summary = json.loads((out / "simulate_sld-residual.json").read_text())
    assert abs(summary["g2_zero"] - 1.9) < 0.1


def test_cli_simulate_coherent_source(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["simulate", "--source", "dfb", "--out", out]) == 0
    summary = json.loads((out / "simulate_dfb.json").read_text())
    assert summary["g2_zero"] == pytest.approx(1.0, abs=1e-9)
    assert summary["tau_c_s"] is None  # no decay within a coherent trace


def test_cli_band_failure_exits_4_with_diagnostics(tmp_path, capsys):
    out = tmp_path / "fig2"
    cfg = tmp_path / "narrow.yaml"
    cfg.write_text("experiment:\n  ratio_band: [1.999, 2.001]\n")
    code = run_cli(["reproduce-fig2", "--config", cfg, "--out", out, "--seed", 19])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error [acceptance-failure]:")
    # The report is still written so the failure can be inspected.
    report = json.loads((out / "report.json").read_text())
    assert not report["all_within_band"]
    assert len(report["panels"]) == 3


def test_cli_seed_precedence(tmp_path, monkeypatch):
    out = tmp_path / "o"
    cfg = tmp_path / "c.yaml"
    cfg.write_text("master_seed: 111\n")
    run_cli(["simulate", "--config", cfg, "--out", out])
    assert json.loads((out / "simulate_sld.json").read_text())["master_seed"] == 111
    monkeypatch.setenv("PHOTONSTAT_SEED", "222")
    run_cli(["simulate", "--config", cfg, "--out", out])
    assert json.loads((out / "simulate_sld.json").read_text())["master_seed"] == 222
    run_cli(["simulate", "--config", cfg, "--seed", 333, "--out", out])
    assert json.loads((out / "simulate_sld.json").read_text())["master_seed"] == 333
    monkeypatch.setenv("PHOTONSTAT_SEED", "not-a-number")
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2


def test_cli_noise_off_report_is_exact(tmp_path):
    out = tmp_path / "fig2"
    assert run_cli(["reproduce-fig2", "--out", out, "--noise", "off"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_within_band"]
    for panel in report["panels"]:
        assert panel["ratio"] == pytest.approx(2.0, rel=1e-12)
    fits = (out / "fits.csv").read_text().splitlines()
    assert fits[1] == "label,a,a_stderr,b,b_stderr"
    assert len(fits) == 8  # header comment + header + 6 rows
    for name in ("DCM", "CdTe-QD", "RhodamineB"):
        assert (out / f"{name}__sld.csv").exists()
        assert (out / f"{name}__dfb.csv").exists()
        assert (out / "plots" / f"{name}.svg").exists()


def test_cli_report_rebuild_matches(tmp_path):
    out = tmp_path / "fig2"
    assert run_cli(["reproduce-fig2", "--out", out, "--seed", 31]) == 0
    first = json.loads((out / "report.json").read_text())
    fits_first = (out / "fits.csv").read_bytes()
    assert run_cli(["report", "--out", out, "--seed", 31]) == 0
    rebuilt = json.loads((out / "report.json").read_text())
    assert (out / "fits.csv").read_bytes() == fits_first
    first_panels, rebuilt_panels = first.pop("panels"), rebuilt.pop("panels")
    assert rebuilt == first
    assert len(rebuilt_panels) == len(first_panels) == 3
    keys = ("fluorophore", "ratio", "ratio_stderr", "within_band", "fits")
    for p1, p2 in zip(first_panels, rebuilt_panels):
        assert {k: p2[k] for k in keys} == {k: p1[k] for k in keys}


def test_cli_report_with_a_missing_sweep_csv(tmp_path, capsys):
    # At seed 7 the ratios are 1.993, 2.045 and 1.905: only CdTe-QD lies
    # outside [1.9, 2.0], and report drops its ratio with its sld sweep.
    out = tmp_path / "fig2"
    cfg = tmp_path / "band.yaml"
    cfg.write_text("experiment:\n  ratio_band: [1.9, 2.0]\n")
    args = ["--config", cfg, "--out", out, "--seed", 7]
    assert run_cli(["reproduce-fig2", *args]) == 4
    first = json.loads((out / "report.json").read_text())
    assert [p["within_band"] for p in first["panels"]] == [True, False, True]
    (out / "CdTe-QD__sld.csv").unlink()
    for plot in (out / "plots").iterdir():
        plot.unlink()
    capsys.readouterr()
    assert run_cli(["report", *args]) == 0
    assert "from 5 sweep files" in capsys.readouterr().out
    rebuilt = json.loads((out / "report.json").read_text())
    dcm, cdte, rhodamine = rebuilt["panels"]
    assert cdte == {
        "fluorophore": "CdTe-QD",
        "label": first["panels"][1]["label"],
        "fits": {"dfb": first["panels"][1]["fits"]["dfb"]},
    }
    assert sorted(p.name for p in (out / "plots").iterdir()) == [
        "DCM.svg",
        "RhodamineB.svg",
    ]
    keys = ("fluorophore", "ratio", "ratio_stderr", "within_band", "fits")
    for p1, p2 in zip([first["panels"][0], first["panels"][2]], [dcm, rhodamine]):
        assert {k: p2[k] for k in keys} == {k: p1[k] for k in keys}
    # Taken over the two complete panels, both within the band.
    assert not first["all_within_band"]
    assert rebuilt["all_within_band"]
    rows = (out / "fits.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == [
        "DCM/sld",
        "DCM/dfb",
        "CdTe-QD/dfb",
        "RhodamineB/sld",
        "RhodamineB/dfb",
    ]


def test_cli_report_removes_the_plot_of_an_incomplete_panel(tmp_path):
    out = tmp_path / "fig2"
    args = ["--out", out, "--seed", 7]
    assert run_cli(["reproduce-fig2", *args]) == 0
    plots = out / "plots"
    first = {p.name: p.read_bytes() for p in plots.iterdir()}
    first_fits = (out / "fits.csv").read_bytes()
    assert sorted(first) == ["CdTe-QD.svg", "DCM.svg", "RhodamineB.svg"]
    # With every sweep CSV in place, report rewrites the same artifacts.
    assert run_cli(["report", *args]) == 0
    assert {p.name: p.read_bytes() for p in plots.iterdir()} == first
    assert (out / "fits.csv").read_bytes() == first_fits
    (out / "CdTe-QD__sld.csv").unlink()
    assert run_cli(["report", *args]) == 0
    del first["CdTe-QD.svg"]
    assert {p.name: p.read_bytes() for p in plots.iterdir()} == first


def test_cli_report_without_a_complete_panel_is_not_within_band(tmp_path):
    out = tmp_path / "fig2"
    args = ["--out", out, "--seed", 7]
    assert run_cli(["reproduce-fig2", *args]) == 0
    assert json.loads((out / "report.json").read_text())["all_within_band"]
    for path in out.glob("*__dfb.csv"):
        path.unlink()
    assert run_cli(["report", *args]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_within_band"] is False
    assert [sorted(p) for p in report["panels"]] == [["fits", "fluorophore", "label"]] * 3
    assert list((out / "plots").iterdir()) == []


def test_cli_report_keeps_a_fluorophore_without_sweep_csvs(tmp_path):
    # Without both CdTe-QD CSVs, report wrote a two-panel report.json and
    # left plots/CdTe-QD.svg showing a ratio that report no longer had.
    out = tmp_path / "fig2"
    args = ["--out", out, "--seed", 7]
    assert run_cli(["reproduce-fig2", *args]) == 0
    first = json.loads((out / "report.json").read_text())
    for path in out.glob("CdTe-QD__*.csv"):
        path.unlink()
    assert run_cli(["report", *args]) == 0
    rebuilt = json.loads((out / "report.json").read_text())
    dcm, cdte, rhodamine = rebuilt["panels"]
    assert cdte == {"fluorophore": "CdTe-QD", "label": first["panels"][1]["label"], "fits": {}}
    for kept, panel in zip([dcm, rhodamine], [first["panels"][0], first["panels"][2]]):
        del panel["g2_values"]
        assert kept == panel
    assert sorted(p.name for p in (out / "plots").iterdir()) == ["DCM.svg", "RhodamineB.svg"]
    assert rebuilt["all_within_band"]


def test_cli_report_ignores_sweep_command_csvs(tmp_path):
    out = tmp_path / "fig2"
    assert run_cli(["sweep", "--out", out, "--seed", 31]) == 0
    assert (out / "sweep_DCM__sld.csv").exists()
    assert run_cli(["reproduce-fig2", "--out", out, "--seed", 31]) == 0
    first = json.loads((out / "report.json").read_text())
    assert run_cli(["report", "--out", out, "--seed", 31]) == 0
    rebuilt = json.loads((out / "report.json").read_text())
    assert [p["fluorophore"] for p in rebuilt["panels"]] == [
        "DCM",
        "CdTe-QD",
        "RhodamineB",
    ]
    assert [p["fits"] for p in rebuilt["panels"]] == [
        p["fits"] for p in first["panels"]
    ]


def test_cli_report_refuses_csvs_of_another_config(tmp_path, capsys):
    out = tmp_path / "fig2"
    assert run_cli(["reproduce-fig2", "--out", out]) == 0
    written = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    # --noise off changes the config hash the sweep CSVs were written under.
    code, err = run_cli_error(capsys, ["report", "--out", out, "--noise", "off"])
    assert code == 3
    assert len(err) == 1
    assert err[0].startswith("error [data-error]:")
    assert "config_hash" in err[0]
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == written
    assert run_cli(["report", "--out", out]) == 0


@pytest.mark.parametrize(
    "row",
    [
        "abc,10,0",
        "1e-4,many,0",
        "1e-4,10,first",
        "1e-4,nan,0",
        "inf,10,0",
        "1e-4,10",
        "-1e-4,10,0",
        "0,10,0",
        "1e-4,-3,0",
    ],
)
def test_cli_report_rejects_malformed_sweep_csv(tmp_path, capsys, row):
    out = tmp_path / "fig2"
    out.mkdir()
    (out / "DCM__sld.csv").write_text(
        "# test\nP_exc_W,counts,repeat\n1e-5,1,0\n" + row + "\n"
    )
    # main() returning the exit code means nothing escaped as a traceback.
    assert run_cli(["report", "--out", out]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error [data-error]:")
    assert "malformed row" in err[0]


def test_cli_report_refuses_a_sweep_csv_that_is_not_utf8(tmp_path, capsys):
    # Was a UnicodeDecodeError traceback.
    out = tmp_path / "fig2"
    out.mkdir()
    (out / "DCM__sld.csv").write_bytes(b"\xff\xfe,")
    code, err = run_cli_error(capsys, ["report", "--out", out])
    assert code == 3
    assert len(err) == 1
    assert err[0].startswith("error [data-error]:")
    assert "not a sweep CSV" in err[0]
    assert [p.name for p in out.iterdir()] == ["DCM__sld.csv"]


def _artifacts(out):
    """Every file under out but report.json, by path relative to out."""
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "report.json")
    return {p.relative_to(out): p.read_bytes() for p in files}


@pytest.mark.parametrize(
    "yaml_text, fluorophores",
    [
        # The README's example: a new name based on a preset keeps the
        # preset's label, "sld".
        (
            "sources: {bright-sld: {preset: sld, mean_power: 5.0e-3}}\n"
            "experiment: {sources: [bright-sld, dfb]}\n",
            ["DCM", "CdTe-QD", "RhodamineB"],
        ),
        ("sources: {sld: {label: Bright SLD}}\n", ["DCM", "CdTe-QD", "RhodamineB"]),
        (
            "absorbers: {my__dye: {preset: DCM}}\nexperiment: {fluorophores: [my__dye]}\n",
            ["my__dye"],
        ),
    ],
    ids=["preset-based-source", "source-label", "double-underscore-fluorophore"],
)
def test_cli_report_rebuilds_configured_names(tmp_path, yaml_text, fluorophores):
    # Fig. 2 files and keys use the configured names whatever a label says,
    # and report reads exactly the configured pairs: no file name is parsed.
    # These configs used to rebuild every ratio upside down (about 0.5).
    cfg = tmp_path / "names.yaml"
    cfg.write_text(yaml_text)
    out = tmp_path / "fig2"
    args = ["--config", cfg, "--out", out, "--seed", 7]
    assert run_cli(["reproduce-fig2", *args]) == 0
    first = json.loads((out / "report.json").read_text())
    written = _artifacts(out)
    assert sorted(p.name for p in (out / "plots").iterdir()) == sorted(
        f"{name}.svg" for name in fluorophores
    )
    assert run_cli(["report", *args]) == 0
    rebuilt = json.loads((out / "report.json").read_text())
    for panel in first["panels"]:
        del panel["g2_values"]
    assert rebuilt == first
    assert [p["fluorophore"] for p in rebuilt["panels"]] == fluorophores
    assert all(1.6 <= p["ratio"] <= 2.3 for p in rebuilt["panels"])
    assert _artifacts(out) == written


def test_cli_report_ignores_csvs_the_config_does_not_name(tmp_path):
    # A CSV of no configured (fluorophore, source) pair cannot enter the
    # report, so its foreign config_hash does not stop report either.
    out = tmp_path / "fig2"
    args = ["--out", out, "--seed", 7]
    assert run_cli(["reproduce-fig2", *args]) == 0
    first = json.loads((out / "report.json").read_text())
    (out / "X__Y.csv").write_text("# config_hash=0\nP_exc_W,counts,repeat\n1e-5,1,0\n")
    written = _artifacts(out)
    assert run_cli(["report", *args]) == 0
    rebuilt = json.loads((out / "report.json").read_text())
    assert [p["fluorophore"] for p in rebuilt["panels"]] == ["DCM", "CdTe-QD", "RhodamineB"]
    assert [p["ratio"] for p in rebuilt["panels"]] == [p["ratio"] for p in first["panels"]]
    assert _artifacts(out) == written


def test_cli_writes_well_formed_svg_whatever_the_names(tmp_path):
    # A fluorophore "R&B <x>" wrote a plot that was not well-formed XML,
    # with exit 0.
    cfg = tmp_path / "names.yaml"
    cfg.write_text(
        'absorbers: {"R&B <x>": {preset: DCM}}\n'
        'sources: {"a>b": {preset: sld}}\n'
        'experiment: {fluorophores: ["R&B <x>", DCM], sources: ["a>b", dfb]}\n'
    )
    out = tmp_path / "fig2"
    assert run_cli(["reproduce-fig2", "--config", cfg, "--out", out, "--seed", 7]) == 0
    plots = sorted((out / "plots").iterdir())
    assert [p.name for p in plots] == ["DCM.svg", "R&B <x>.svg"]
    for plot in plots:
        texts = [el.text for el in ElementTree.parse(plot).iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == plot.stem
        assert ["a>b", "dfb"] == texts[-2:]


@pytest.mark.parametrize("name", ["sub/dir", "nul\\0", "control\\x01", "surrogate\\ud800"])
@pytest.mark.parametrize(
    "entry, experiment",
    [
        ("absorbers: {%s: {preset: DCM}}", "fluorophores: [%s]"),
        ("sources: {%s: {preset: sld}}", "sources: [%s, dfb]"),
    ],
    ids=["absorber", "source"],
)
def test_cli_refuses_a_name_that_cannot_key_a_file(tmp_path, capsys, name, entry, experiment):
    # An absorber "sub/dir" ended in exit 5 (io-error) after the sweeps ran,
    # a NUL or a lone surrogate in a name in a traceback, and a control
    # character in a plot that was not well-formed XML.
    quoted = f'"{name}"'
    cfg = tmp_path / "names.yaml"
    cfg.write_text(f"{entry % quoted}\nexperiment: {{{experiment % quoted}}}\n")
    out = tmp_path / "fig2"
    code, err = run_cli_error(capsys, ["reproduce-fig2", "--config", cfg, "--out", out])
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]:")
    assert "must be printable, without '/'" in err[0]
    assert not out.exists()


def test_cli_sweep_artifacts(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sweep", "--out", out, "--seed", 5, "--source", "dfb"]) == 0
    payload = json.loads((out / "sweep_DCM__dfb.json").read_text())
    assert payload["g2_used"] == pytest.approx(1.0)
    assert 1.9 < payload["b"] < 2.1
    rows = (out / "sweep_DCM__dfb.csv").read_text().splitlines()
    assert rows[1] == "P_exc_W,counts,repeat"
    assert len(rows) == 2 + 12 * 5


def test_cli_sweep_resolves_only_the_pair_it_runs(tmp_path, capsys):
    # An unknown second source stops reproduce-fig2, which runs it, and not
    # a sweep of the first.
    cfg = tmp_path / "c.yaml"
    cfg.write_text("experiment:\n  sources: [sld, nosuch]\n")
    common = ["--config", cfg, "--out", tmp_path / "o", "--seed", 7]
    assert run_cli(["sweep", "--source", "sld", "--fluorophore", "DCM", *common]) == 0
    code, err = run_cli_error(capsys, ["reproduce-fig2", *common])
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]: unknown source 'nosuch'")


def test_module_form_runs_the_cli():
    # `python -m photonstat` is the photonstat script.
    src = str(Path(photonstat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "photonstat", "--version"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"photonstat {photonstat.__version__}\n"


def test_cli_hbt_summary(tmp_path):
    out = tmp_path / "h"
    cfg = tmp_path / "h.yaml"
    cfg.write_text("hbt:\n  realizations: 4\n  duration_over_tauc: 5000\n")
    assert run_cli(["hbt", "--config", cfg, "--out", out, "--seed", 3]) == 0
    summary = json.loads((out / "hbt_sld.json").read_text())
    assert abs(summary["g2_zero"] - 2.0) < 0.15
    assert summary["realizations"] == 4
    scan_rows = (out / "hbt_sld.csv").read_text().splitlines()
    assert scan_rows[1] == "tau_s,raw,filtered"


def run_cli_error(capsys, args):
    """Exit code and the stderr lines of one CLI call."""
    code = run_cli(args)
    return code, capsys.readouterr().err.splitlines()


def test_cli_g2_refuses_max_delay_beyond_half_the_trace(tmp_path, capsys):
    # Refused before the delay grid is built: 1e12 delays would need TiB.
    out = tmp_path / "o"
    assert run_cli(["simulate", "--out", out, "--seed", 7]) == 0
    capsys.readouterr()
    trace = out / "trace_sld.pstt"
    for extra in (
        ["--max-delay", "1e300", "--n-delays", "3"],
        ["--max-delay", "100", "--n-delays", "1000000000000"],
        ["--max-delay=-1e-12"],
    ):
        code, err = run_cli_error(capsys, ["g2", "--trace", trace, "--out", out, *extra])
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error [config-error]:")
        assert "half the trace duration" in err[0]


def test_cli_g2_refuses_a_trace_too_short_for_its_default_delay_range(tmp_path, capsys):
    # Without --max-delay the range is 15 coherence times of the trace, more
    # than half of its first 64 samples: the trace is at fault (was exit 2).
    out = tmp_path / "o"
    assert run_cli(["simulate", "--out", out, "--seed", 7]) == 0
    capsys.readouterr()
    full = read_trace(out / "trace_sld.pstt")
    short = tmp_path / "short.pstt"
    write_trace(FieldTrace(full.samples[:64], full.dt, full.carrier_freq, full.seed_id), short)
    for extra, code, name in (([], 3, "data-error"), (["--max-delay", "1e-9"], 2, "config-error")):
        got, err = run_cli_error(capsys, ["g2", "--trace", short, "--out", out, *extra])
        assert (got, len(err)) == (code, 1)
        assert err[0].startswith(f"error [{name}]: max_delay must be positive and below half")


def test_cli_g2_refuses_fewer_than_two_bootstrap_blocks(tmp_path, capsys):
    # 32 tau_c at 8 samples each: 256 samples, blocks of 10 tau_c. One block
    # fits below a largest delay of 0.49 of the trace, and an SE of 0 at
    # every delay was written with exit 0.
    out = tmp_path / "o"
    cfg = tmp_path / "short.yaml"
    cfg.write_text("simulate: {duration_over_tauc: 32, samples_per_tauc: 8}\n")
    with pytest.warns(UserWarning, match="below 100 coherence times"):
        assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 5]) == 0
    capsys.readouterr()
    trace = out / "trace_sld.pstt"
    full = read_trace(trace)
    max_delay = repr(0.49 * full.n_samples * full.dt)
    args = ["g2", "--trace", trace, "--out", out, "--max-delay", max_delay]
    code, err = run_cli_error(capsys, args)
    assert (code, len(err)) == (3, 1)
    assert err[0].startswith("error [data-error]: fewer than 2 bootstrap blocks")
    assert not (out / "g2.csv").exists()


def test_cli_simulate_refuses_a_trace_of_one_bootstrap_block(tmp_path, capsys):
    # 15 tau_c at 8 samples each: 120 samples, one block of 10 tau_c at
    # seed 1. Refused before the trace is written (was exit 0, SE 0).
    out = tmp_path / "o"
    cfg = tmp_path / "short.yaml"
    cfg.write_text("simulate: {duration_over_tauc: 15, samples_per_tauc: 8}\n")
    with pytest.warns(UserWarning, match="below 100 coherence times"):
        args = ["simulate", "--config", cfg, "--out", out, "--seed", 1]
        code, err = run_cli_error(capsys, args)
    assert (code, len(err)) == (3, 1)
    assert err[0] == "error [data-error]: fewer than 2 bootstrap blocks fit in the trace"
    assert not out.exists()


def test_cli_g2_refuses_a_configured_delay_range_not_positive_and_finite(tmp_path, capsys):
    # A coherent trace has no coherence time; there max_delay_over_tauc 0.0
    # was a ZeroDivisionError, and on other traces a bad value was exit 3.
    out = tmp_path / "o"
    assert run_cli(["simulate", "--source", "dfb", "--out", out, "--seed", 7]) == 0
    capsys.readouterr()
    cfg = tmp_path / "g2.yaml"
    for value in ("0.0", "-1.0", ".nan", ".inf"):
        cfg.write_text(f"g2: {{max_delay_over_tauc: {value}}}\n")
        args = ["g2", "--trace", out / "trace_dfb.pstt", "--config", cfg, "--out", out]
        code, err = run_cli_error(capsys, args)
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error [config-error]: g2.max_delay_over_tauc must be")


def test_cli_grid_beyond_memory_is_config_error(tmp_path, capsys):
    # 1e16 coherence times at 8 samples each is a 569 PiB array, beyond any
    # 64-bit address space, so numpy refuses it at once whatever the
    # kernel's overcommit policy.
    cfg = tmp_path / "huge.yaml"
    cfg.write_text("simulate:\n  duration_over_tauc: 1.0e+16\n")
    code, err = run_cli_error(capsys, ["simulate", "--config", cfg, "--out", tmp_path])
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]: out of memory:")


@pytest.mark.parametrize(
    "command, yaml_text",
    [
        ("simulate", "simulate: {duration_over_tauc: 1.0e+19}"),
        ("simulate", "simulate: {duration_over_tauc: 1e300, samples_per_tauc: 1e300}"),
        ("hbt", "hbt: {duration_over_tauc: 1.0e+19}"),
        (
            "sweep",
            "experiment: {statistics_mode: trace, trace_duration_over_tauc: 1.0e+19}",
        ),
    ],
)
def test_cli_trace_beyond_an_array_is_config_error(tmp_path, capsys, command, yaml_text):
    # 8e19 samples exceed what numpy can index, and 1e600 overflow a float:
    # refused by make_trace before any array is made, where numpy's
    # ValueError and the OverflowError of int(inf) were tracebacks.
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(yaml_text + "\n")
    out = tmp_path / "o"
    code, err = run_cli_error(capsys, [command, "--config", cfg, "--out", out])
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]: duration/dt gives")
    assert not out.exists()


_EXIT_NAMES = {2: "config-error", 3: "data-error", 4: "acceptance-failure"}
_EXIT_CODES = {
    errors.ConfigError: 2,
    errors.InvalidArgumentError: 2,
    errors.SamplingError: 2,
    errors.AcceptanceError: 4,
}


@pytest.mark.parametrize(
    "exc",
    [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.PhotonstatError)
    ],
    ids=lambda cls: cls.__name__,
)
def test_cli_exit_code_of_every_package_error(tmp_path, capsys, monkeypatch, exc):
    def handler(cfg, args):
        raise exc("injected")

    monkeypatch.setitem(cli._HANDLERS, "simulate", handler)
    code, err = run_cli_error(capsys, ["simulate", "--out", tmp_path])
    assert code == _EXIT_CODES.get(exc, 3)
    assert err == [f"error [{_EXIT_NAMES[code]}]: injected"]


def test_cli_sweep_beyond_poisson_limit_is_config_error(tmp_path, capsys):
    # 1 MW gives expected counts near 1e22, past numpy's Poisson limit.
    cfg = tmp_path / "huge.yaml"
    cfg.write_text("experiment:\n  power_max_w: 1.0e+6\n")
    code, err = run_cli_error(capsys, ["sweep", "--config", cfg, "--out", tmp_path])
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]:")
    assert "Poisson" in err[0]


@pytest.mark.parametrize("bad", ["-1", str(2**64), "1.5"])
def test_cli_rejects_seed_out_of_range(tmp_path, capsys, monkeypatch, bad):
    out = tmp_path / "o"
    cfg = tmp_path / "seed.yaml"
    cfg.write_text(f"master_seed: {bad}\n")
    calls = [
        (["simulate", "--config", cfg, "--out", out], None),
        (["simulate", "--out", out], bad),
    ]
    if bad != "1.5":  # argparse itself refuses a non-integer --seed
        calls.append((["simulate", "--seed", bad, "--out", out], None))
    for args, env in calls:
        if env is None:
            monkeypatch.delenv("PHOTONSTAT_SEED", raising=False)
        else:
            monkeypatch.setenv("PHOTONSTAT_SEED", env)
        code, err = run_cli_error(capsys, args)
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error [config-error]:")
    assert not out.exists()


def test_cli_accepts_largest_seed(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["sweep", "--out", out, "--seed", 2**64 - 1]) == 0
    payload = json.loads((out / "sweep_DCM__sld.json").read_text())
    assert payload["master_seed"] == 2**64 - 1


@pytest.mark.parametrize(
    "yaml_text",
    [
        "experiment:\n  n_powers: abc\n",
        "experiment:\n  n_powers: 12.5\n",
        "experiment:\n  power_min_w: low\n",
        "experiment:\n  repeats: [5]\n",
        "experiment:\n  ratio_band: [1.6]\n",
        "experiment:\n  ratio_band: [1.6, high]\n",
        "experiment: 5\n",
        "noise: maybe\n",
        "threads: two\n",
        "g2:\n  n_delays: many\n",
        "hbt:\n  realizations: true\n",
        # Found by the fuzz test below; each ended in a traceback.
        "experiment:\n  power_min_w: 0\n",
        "experiment:\n  power_max_w: -1\n",
        "experiment:\n  power_max_w: .inf\n",
        "experiment:\n  n_powers: -1\n",
        "experiment:\n  chain: [1.0]\n",
        "experiment:\n  fluorophores: 5\n",
        "experiment:\n  sources: []\n",
        "hbt:\n  source: {}\n",
        "sources:\n  sld: {label: 5}\n",
        "absorbers:\n  DCM: {label: .nan}\n",
        "chains:\n  paper-EMCCD: {quantum_efficiency: 0}\n",
        # A repeated name wrote two panels or arms into the same files.
        "experiment:\n  fluorophores: [DCM, DCM]\n",
        "experiment:\n  sources: [sld, sld]\n",
        # Text that is not UTF-8 was a UnicodeDecodeError traceback, and
        # PyYAML's errors took two or three lines.
        b"\xff\xfe\n",
        b"master_seed: \xe9\n",
        ": : :\n",
        "master_seed: 1\x00\n",
        "!!python/object:os.system x\n",
        "experiment: {repeats: 2\n",
    ],
)
def test_cli_rejects_non_numeric_config(tmp_path, capsys, yaml_text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(yaml_text if isinstance(yaml_text, bytes) else yaml_text.encode())
    code, err = run_cli_error(
        capsys, ["reproduce-fig2", "--config", cfg, "--out", tmp_path / "o"]
    )
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]:")


def test_config_numbers_accept_yaml_spellings(tmp_path):
    # PyYAML reads 1e-3 (no dot) as text; the tree holds the number, in the
    # kind of its default.
    cfg = tmp_path / "ok.yaml"
    cfg.write_text("experiment:\n  power_max_w: 1e-3\n  n_powers: 12.0\n")
    data = load_config(cfg)
    assert data["experiment"]["power_max_w"] == 1e-3
    assert type(data["experiment"]["power_max_w"]) is float
    assert data["experiment"]["n_powers"] == 12
    assert type(data["experiment"]["n_powers"]) is int


def test_config_spellings_of_one_value_hash_alike(tmp_path):
    spelled = tmp_path / "spelled.yaml"
    spelled.write_text(
        "experiment:\n  power_max_w: 1e-3\n  n_powers: 12.0\n  ratio_band: [16e-1, 2.3]\n"
        "sources:\n  pt: {preset: sld, mean_power: 2e-3, mode_count: 8.0}\n"
    )
    plain = tmp_path / "plain.yaml"
    plain.write_text(
        "experiment:\n  power_max_w: 0.001\n  n_powers: 12\n  ratio_band: [1.6, 2.3]\n"
        "sources:\n  pt: {preset: sld, mean_power: 0.002, mode_count: 8}\n"
    )
    assert load_config(spelled) == load_config(plain)
    assert config_hash(load_config(spelled)) == config_hash(load_config(plain))


def test_cli_ratio_band_in_yaml_exponent_spelling(tmp_path):
    # [1e0, 3] held the text "1e0" and ended in a TypeError traceback.
    cfg = tmp_path / "band.yaml"
    cfg.write_text("experiment:\n  ratio_band: [1e0, 3]\n")
    out = tmp_path / "fig2"
    code, err, caught = _run_quietly(["reproduce-fig2", "--config", cfg, "--out", out])
    assert code in (0, 4), err
    assert "Traceback" not in err
    assert json.loads((out / "report.json").read_text())["ratio_band"] == [1.0, 3.0]


def test_cli_preset_entry_number_in_yaml_exponent_spelling(tmp_path):
    # mean_power: 2e-3 was text, refused as "'<' not supported".
    cfg = tmp_path / "power.yaml"
    cfg.write_text("simulate: {duration_over_tauc: 2000.0}\nsources:\n  sld: {mean_power: 2e-3}\n")
    out = tmp_path / "o"
    assert run_cli(["simulate", "--config", cfg, "--out", out, "--seed", 7]) == 0
    summary = json.loads((out / "simulate_sld.json").read_text())
    assert summary["mean_power_w"] == pytest.approx(2e-3, rel=1e-12)


def test_cli_pseudo_thermal_mode_count_as_a_float(tmp_path, capsys):
    # mode_count: 64.0 reached numpy as a float (a TypeError traceback).
    # Seed and tolerance (about 5 standard errors) fixed before the first run.
    entry = "sources:\n  pt: {preset: sld, statistics: pseudo-thermal, mode_count: %s}\n"
    out = tmp_path / "o"
    cfg = tmp_path / "pt.yaml"
    cfg.write_text(entry % "64.0")
    assert run_cli(["simulate", "--config", cfg, "--source", "pt", "--out", out, "--seed", 7]) == 0
    summary = json.loads((out / "simulate_pt.json").read_text())
    assert abs(summary["g2_zero"] - (2 - 1 / 64)) < 0.06
    capsys.readouterr()
    cfg.write_text(entry % "64.5")
    code, err = run_cli_error(capsys, ["simulate", "--config", cfg, "--source", "pt", "--out", out])
    assert code == 2
    assert err == ["error [config-error]: sources.pt.mode_count must be an integer, got 64.5"]


_NO_SCIPY = """
import importlib.abc
import runpy
import sys

blocked = []


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            blocked.append(name)
            raise ImportError(f"{name} is not installed")
        return None


sys.meta_path.insert(0, NoScipy())
import photonstat  # noqa: E402,F401

sys.argv = ["photonstat", *sys.argv[1:]]
try:
    runpy.run_module("photonstat.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(f"exit={code} blocked={blocked} loaded={loaded}")
"""


def test_runtime_needs_no_scipy(tmp_path):
    # Imports the package and runs `python -m photonstat.cli sweep` in a
    # fresh interpreter in which any scipy import fails.
    src = str(Path(photonstat.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, "sweep", "--out", str(tmp_path / "o")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit=0 blocked=[] loaded=[]"
    assert (tmp_path / "o" / "sweep_DCM__sld.json").exists()


# The README quick start at --threads 1 without --config, then one threaded
# hbt and one run with a config file, in one fresh interpreter; after each
# stage it prints which of PyYAML and the thread pool are loaded.
_STARTUP = """
import sys
from photonstat.cli import main

def stage(name, *runs):
    for argv in runs:
        assert main([*argv, "--seed", "7"]) == 0, argv
    lazy = [m for m in ("yaml", "concurrent.futures") if m in sys.modules]
    print("loaded", name, lazy)

stage(
    "readme",
    ["simulate", "--out", "out", "--threads", "1"],
    ["g2", "--trace", "out/trace_sld.pstt", "--out", "out", "--threads", "1"],
    ["gn", "--trace", "out/trace_sld.pstt", "--order", "4", "--out", "out", "--threads", "1"],
    ["hbt", "--out", "out", "--threads", "1"],
    ["sweep", "--source", "sld", "--fluorophore", "DCM", "--out", "out", "--threads", "1"],
    ["reproduce-fig2", "--out", "out/fig2", "--threads", "1"],
    ["report", "--out", "out/fig2", "--threads", "1"],
)
stage("threads", ["hbt", "--out", "out", "--threads", "2"])
stage("config", ["gn", "--trace", "out/trace_sld.pstt", "--order", "2", "--config", "c.yaml"])
"""


def test_cli_loads_yaml_and_the_thread_pool_only_when_used(tmp_path):
    (tmp_path / "c.yaml").write_text("output_dir: out\n")
    src = str(Path(photonstat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PHOTONSTAT_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    stages = [line for line in proc.stdout.splitlines() if line.startswith("loaded ")]
    assert stages == [
        "loaded readme []",
        "loaded threads ['concurrent.futures']",
        "loaded config ['yaml', 'concurrent.futures']",
    ]


@pytest.mark.parametrize(
    "command, yaml_text",
    [
        ("simulate", "sources: {bad: {preset: sld, mean_power: .nan}}"),
        ("simulate", "sources: {bad: {preset: sld, mean_power: .inf}}"),
        ("simulate", "sources: {bad: {preset: sld, bandwidth_fwhm: .inf}}"),
        ("simulate", "sources: {bad: {preset: sld, center_wavelength: .nan}}"),
        ("simulate", "sources: {bad: {preset: sld-residual, target_g2: .nan}}"),
        ("simulate", "sources: {bad: {preset: dfb, amplitude_noise: .inf}}"),
        ("sweep", "chains: {paper-EMCCD: {dark_rate: .nan}}"),
        ("sweep", "chains: {paper-EMCCD: {integration_time: .inf}}"),
        ("sweep", "absorbers: {DCM: {omega_f: .inf}}"),
        ("sweep", "absorbers: {DCM: {delta_omega_f: .nan}}"),
        ("sweep", "absorbers: {DCM: {dipole_sq: .nan}}"),
        # Grid lengths, in units of the nominal coherence time.
        ("hbt", "hbt: {step_over_tauc: 0.0}"),
        ("hbt", "hbt: {step_over_tauc: 1.0e-300}"),
        ("hbt", "hbt: {step_over_tauc: .nan}"),
        ("hbt", "hbt: {max_delay_over_tauc: .inf}"),
        ("hbt", "hbt: {duration_over_tauc: .nan}"),
        ("hbt", "hbt: {samples_per_tauc: -8.0}"),
        ("simulate", "sources: {bad: {preset: sld}}\nsimulate: {samples_per_tauc: 0}"),
        (
            "simulate",
            "sources: {bad: {preset: sld}}\nsimulate: {duration_over_tauc: .inf}",
        ),
        ("sweep", "experiment: {trace_samples_per_tauc: 0.0}"),
        ("sweep", "experiment: {trace_duration_over_tauc: -5.0e+3}"),
        (
            "reproduce-fig2",
            "experiment: {statistics_mode: trace, trace_duration_over_tauc: .nan}",
        ),
        (
            "reproduce-fig2",
            "experiment: {statistics_mode: trace, trace_samples_per_tauc: .inf}",
        ),
    ],
)
def test_cli_rejects_non_finite_spec_values(tmp_path, capsys, command, yaml_text):
    cfg = tmp_path / "nan.yaml"
    cfg.write_text(yaml_text)
    args = [command, "--config", cfg, "--out", tmp_path / "o"]
    if command == "simulate":
        args += ["--source", "bad"]
    code, err = run_cli_error(capsys, args)
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]:")
    assert "finite" in err[0]


@pytest.mark.parametrize("command", ["reproduce-fig2", "report"])
@pytest.mark.parametrize(
    "yaml_text",
    [
        "experiment: {arm_scale_error: -0.5}",
        "experiment: {arm_scale_error: .nan}",
        "experiment: {panel_scale_error: -0.1}",
        "experiment: {panel_scale_error: .inf}",
        "experiment: {ratio_band: [.nan, 2.3]}",
        "experiment: {ratio_band: [1.6, .nan]}",
        "experiment: {ratio_band: [2.3, 1.6]}",
    ],
)
def test_cli_rejects_bad_report_settings(tmp_path, capsys, command, yaml_text):
    # A negative scale error used to skip the systematic and fail the band
    # check with exit 4; a NaN band failed every ratio with exit 4.
    out = tmp_path / "fig2"
    assert run_cli(["reproduce-fig2", "--out", out]) == 0
    written = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml_text)
    code, err = run_cli_error(capsys, [command, "--config", cfg, "--out", out])
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]:")
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == written


def test_cli_trace_mode_reference_source_first(tmp_path):
    # Each source's trace grid follows its own coherence time, so the
    # coherent dfb can come first; the ratio is then a(dfb)/a(sld) ~ 1/2.
    # Band and seed were fixed before the first run.
    out = tmp_path / "fig2"
    cfg = tmp_path / "reversed.yaml"
    cfg.write_text(
        "experiment:\n"
        "  statistics_mode: trace\n"
        "  sources: [dfb, sld]\n"
        "  ratio_band: [0.4, 0.6]\n"
    )
    args = ["--config", cfg, "--out", out, "--seed", 23]
    assert run_cli(["reproduce-fig2", *args]) == 0
    first = json.loads((out / "report.json").read_text())
    assert first["all_within_band"]
    for panel in first["panels"]:
        assert 0.4 <= panel["ratio"] <= 0.6
        assert panel["g2_values"]["dfb"] == pytest.approx(1.0, abs=1e-12)
        assert abs(panel["g2_values"]["sld"] - 2.0) < 0.2
    assert run_cli(["report", *args]) == 0
    rebuilt = json.loads((out / "report.json").read_text())
    assert len(rebuilt["panels"]) == len(first["panels"]) == 3
    keys = ("fluorophore", "ratio", "ratio_stderr", "within_band", "fits")
    for p1, p2 in zip(first["panels"], rebuilt["panels"]):
        assert {k: p2[k] for k in keys} == {k: p1[k] for k in keys}


# A configuration small enough that a fuzzed CLI call takes milliseconds.
_FUZZ_BASE = {
    "simulate": {"duration_over_tauc": 2000.0},
    "hbt": {"realizations": 2, "duration_over_tauc": 2000.0},
    "experiment": {"n_powers": 4, "repeats": 2, "trace_duration_over_tauc": 500.0},
}


def _config_leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from _config_leaves(value, (*path, key))
        else:
            yield (*path, key)


# Every value of the configuration, and the fields of one preset of each
# kind (a same-name entry overrides its preset).
_FUZZ_PATHS = sorted(
    [
        *_config_leaves(DEFAULT_CONFIG),
        *(("sources", "sld", f.name) for f in dataclasses.fields(SourceSpec)),
        *(("sources", "dfb", f.name) for f in dataclasses.fields(SourceSpec)),
        *(("absorbers", "DCM", f.name) for f in dataclasses.fields(AbsorberSpec)),
        *(("chains", "paper-EMCCD", f.name) for f in dataclasses.fields(DetectionChain)),
    ]
)
_FUZZ_VALUES = [0, 0.0, -1, -2.5, math.nan, math.inf, -math.inf, "x", "1e0", [], [1.0], {}, True, None]
_FUZZ_COMMANDS = [
    ["simulate"],
    ["g2", "--trace", "trace_sld.pstt"],
    ["gn", "--trace", "trace_sld.pstt", "--order", "3"],
    ["hbt"],
    ["sweep"],
    ["reproduce-fig2"],
    ["report"],
]
_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@pytest.fixture(scope="module")
def fuzz_outputs(tmp_path_factory):
    """A trace and reproduce-fig2 sweep CSVs of the base configuration."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "base.yaml").write_text(yaml.safe_dump(_FUZZ_BASE))
    out = root / "template"
    for command in (["simulate"], ["reproduce-fig2"]):
        assert main([*command, "--config", str(root / "base.yaml"), "--out", str(out)]) == 0
    return out


def _with_value(tree: dict, path: tuple, value) -> dict:
    """A copy of tree with value at path; a value on the path becomes {}."""
    head, *rest = path
    if not rest:
        return {**tree, head: value}
    child = tree.get(head)
    return {**tree, head: _with_value(child if isinstance(child, dict) else {}, rest, value)}


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(_FUZZ_COMMANDS),
    mutations=st.lists(
        st.tuples(st.sampled_from(_FUZZ_PATHS), st.sampled_from(_FUZZ_VALUES)),
        min_size=1,
        max_size=3,
    ),
)
def test_cli_fuzzed_config_exits_with_a_documented_code(fuzz_outputs, command, mutations):
    config = _FUZZ_BASE
    for path, value in mutations:
        config = _with_value(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(fuzz_outputs, out)
        cfg = Path(tmp) / "fuzz.yaml"
        cfg.write_text(yaml.safe_dump(config))
        args = [part.replace("trace_sld.pstt", str(out / "trace_sld.pstt")) for part in command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(stdout), redirect_stderr(stderr):
            os.environ.pop("PHOTONSTAT_SEED", None)
            code = main([*args, "--config", str(cfg), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4, 5), err
        assert "Traceback" not in err
        if code:
            assert len([line for line in err.splitlines() if line.startswith("error [")]) == 1
            return
        for path in out.rglob("*"):
            if path.suffix in (".csv", ".json", ".svg"):
                assert not _NON_FINITE.search(path.read_text()), path.name


def _run_quietly(args: list) -> tuple:
    """(exit code, stderr, warning messages) of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(stdout), redirect_stderr(stderr):
        os.environ.pop("PHOTONSTAT_SEED", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(a) for a in args])
    return code, stderr.getvalue(), [str(w.message) for w in caught]


def _assert_clean_outcome(code: int, err: str, caught: list, out: Path, codes) -> None:
    """A documented exit code, no traceback or warning, one error line on
    failure and no NaN or inf in the text artifacts of a success."""
    assert code in codes, err
    assert "Traceback" not in err
    assert caught == []
    if code:
        assert len([line for line in err.splitlines() if line.startswith("error [")]) == 1
        return
    for path in out.rglob("*"):
        if path.suffix in (".csv", ".json", ".svg"):
            assert not _NON_FINITE.search(path.read_text()), path.name


_TRACE_HEADER = struct.Struct("<4sIddQQ")
_TRACE_COMMANDS = [["g2"], *(["gn", "--order", str(k)] for k in range(2, 7))]


def _fuzzed_trace(template: bytes, fields: dict, keep, scale_exp, lit, flips) -> bytes:
    """template with its header fields replaced, its samples cut to keep,
    scaled by 10^scale_exp or all zero but the samples lit, then flips
    (position, byte) applied to the whole file."""
    header = list(_TRACE_HEADER.unpack(template[: _TRACE_HEADER.size]))
    samples = np.frombuffer(template[_TRACE_HEADER.size :], dtype="<c16")[:keep].copy()
    header[4] = samples.size
    with np.errstate(over="ignore"):
        samples *= 10.0 ** (scale_exp / 2) * 10.0 ** (scale_exp - scale_exp / 2)
    if lit is not None and samples.size:
        dark = np.zeros_like(samples)
        dark[[i % samples.size for i in lit]] = 1e-3
        samples = dark
    for index, value in fields.items():
        header[index] = value
    data = bytearray(_TRACE_HEADER.pack(*header) + samples.tobytes())
    for position, byte in flips:
        data[position % len(data)] = byte
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(_TRACE_COMMANDS),
    # Header slots: 1 version (u32), 2 dt, 3 carrier, 4 count, 5 seed_id (u64).
    fields=st.fixed_dictionaries(
        {},
        optional={
            1: st.integers(0, 2**32 - 1),
            2: st.floats(),
            3: st.floats(),
            4: st.integers(0, 2**64 - 1),
            5: st.integers(0, 2**64 - 1),
        },
    ),
    keep=st.one_of(st.none(), st.integers(0, 400)),
    scale_exp=st.integers(-340, 340),
    lit=st.one_of(st.none(), st.lists(st.integers(0, 2**20), max_size=3)),
    flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=3),
)
def test_cli_fuzzed_trace_exits_with_a_documented_code(
    fuzz_outputs, command, fields, keep, scale_exp, lit, flips
):
    """Trace files with fuzzed header fields, lengths, sample scales,
    sparse samples and bytes through g2 and gn. A trace can only be refused
    as data (exit 3), also where g2's delay range, taken from the trace,
    does not fit in it."""
    template = (fuzz_outputs / "trace_sld.pstt").read_bytes()
    data = _fuzzed_trace(template, fields, keep, scale_exp, lit, flips)
    with tempfile.TemporaryDirectory() as tmp:
        trace, out = Path(tmp) / "t.pstt", Path(tmp) / "out"
        trace.write_bytes(data)
        code, err, caught = _run_quietly([*command, "--trace", trace, "--out", out])
        _assert_clean_outcome(code, err, caught, out, (0, 3))


@pytest.mark.parametrize(
    "scale_exp, lit, fields",
    [
        (150, None, {}),  # |E| ~ 1e147: <I>^2 overflows (was an OverflowError)
        (-100, None, {}),  # <I>^2 underflows (was NaN with exit 0, or a ZeroDivisionError)
        (-170, None, {}),  # |E|^2 underflows to 0
        (0, [7], {}),  # one sample with light: negative FFT round-off (was exit 2)
        (0, [7, 9000], {}),  # a bootstrap resample without light (was NaN)
        (0, None, {2: 5e-324}),  # subnormal dt (was exit 2)
        (0, None, {2: 1e305}),  # the duration overflows
    ],
)
@pytest.mark.parametrize("command", [["g2"], ["gn", "--order", "4"]])
def test_cli_refuses_traces_out_of_range_as_data(
    fuzz_outputs, tmp_path, command, scale_exp, lit, fields
):
    template = (fuzz_outputs / "trace_sld.pstt").read_bytes()
    trace = tmp_path / "t.pstt"
    trace.write_bytes(_fuzzed_trace(template, fields, None, scale_exp, lit, []))
    code, err, caught = _run_quietly([*command, "--trace", trace, "--out", tmp_path / "o"])
    assert code == 3, err
    assert err.startswith("error [data-error]:") and err.count("\n") == 1
    assert caught == []


_SWEEP_CSVS = sorted(
    f"{f}__{s}.csv" for f in ("DCM", "CdTe-QD", "RhodamineB") for s in ("sld", "dfb")
)
_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.text(alphabet=st.characters(codec="ascii"), max_size=6),
    st.binary(max_size=6),
)


def _fuzzed_sweep_csv(data: bytes, scale_exp: int, cells: list, keep, drop_meta: bool) -> bytes:
    """A sweep CSV with its powers scaled by 10^scale_exp, cells replaced
    (row, column, text or bytes), its rows cut to keep and its metadata
    line dropped."""
    meta, header, *lines = data.splitlines()
    rows = [line.split(b",") for line in lines]
    for row in rows:
        row[0] = repr(float(row[0]) * 10.0**scale_exp).encode()
    for i, j, cell in cells:
        rows[i % len(rows)][j % 3] = cell if isinstance(cell, bytes) else cell.encode()
    body = [b",".join(row) for row in rows[:keep]]
    return b"\n".join(([] if drop_meta else [meta]) + [header] + body) + b"\n"


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(_SWEEP_CSVS),
    scale_exp=st.integers(-300, 300),
    cells=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 2), _CELLS), max_size=3),
    keep=st.one_of(st.none(), st.integers(0, 8)),
    drop_meta=st.booleans(),
)
# The fit line of an sld panel scaled by 1e152 overflowed (a RuntimeWarning).
@example(name="DCM__sld.csv", scale_exp=152, cells=[], keep=None, drop_meta=False)
# Bytes that are not UTF-8 were a UnicodeDecodeError traceback.
@example(name="DCM__sld.csv", scale_exp=0, cells=[(0, 0, b"\xff\xfe")], keep=None, drop_meta=False)
def test_cli_fuzzed_sweep_csv_exits_with_a_documented_code(
    fuzz_outputs, name, scale_exp, cells, keep, drop_meta
):
    """reproduce-fig2 sweep CSVs with fuzzed powers, cells, lengths and
    metadata through report: a bad CSV is refused as data (exit 3)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(fuzz_outputs, out)
        path = out / name
        path.write_bytes(_fuzzed_sweep_csv(path.read_bytes(), scale_exp, cells, keep, drop_meta))
        config = fuzz_outputs.parent / "base.yaml"
        code, err, caught = _run_quietly(["report", "--config", config, "--out", out])
        _assert_clean_outcome(code, err, caught, out, (0, 3))


@pytest.mark.parametrize(
    "scale_exp, cells, drop_meta, message",
    [
        (-200, [], False, "out of range for the fit"),  # was a ZeroDivisionError
        (200, [], False, "out of range for the fit"),  # was NaN and inf with exit 0
        (0, [(0, 2, str(10**30))], False, "malformed row"),  # was a cast warning
        (0, [], True, "config_hash=None"),  # skipped the config_hash check
    ],
)
def test_cli_report_refuses_out_of_range_sweep_csvs(
    fuzz_outputs, tmp_path, scale_exp, cells, drop_meta, message
):
    out = tmp_path / "out"
    shutil.copytree(fuzz_outputs, out)
    path = out / "DCM__sld.csv"
    path.write_bytes(_fuzzed_sweep_csv(path.read_bytes(), scale_exp, cells, None, drop_meta))
    config = fuzz_outputs.parent / "base.yaml"
    code, err, caught = _run_quietly(["report", "--config", config, "--out", out])
    assert code == 3, err
    assert err.startswith("error [data-error]:") and err.count("\n") == 1
    assert message in err
    assert caught == []


def test_cli_g2_of_a_sparse_trace_is_never_negative(tmp_path):
    # Light in every 7th sample: the FFT path's lag sums between the lit
    # samples are round-off of either sign (they were exit 2, "values and
    # std_errors must be >= 0").
    samples = np.zeros(16000, dtype="<c16")
    samples[::7] = 1e-3
    trace = tmp_path / "t.pstt"
    header = _TRACE_HEADER.pack(b"PSTT", 1, 1e-13, 1e15, samples.size, 1)
    trace.write_bytes(header + samples.tobytes())
    args = ["--trace", trace, "--out", tmp_path, "--max-delay", "1e-11", "--n-delays", "101"]
    code, err, caught = _run_quietly(["g2", *args])
    assert (code, caught) == (0, []), err
    rows = (tmp_path / "g2.csv").read_text().splitlines()[2:]
    values = np.array([float(row.split(",")[1]) for row in rows])
    between = values[np.arange(101) % 7 != 0]
    assert np.all((0.0 <= between) & (between < 1e-12))
    assert np.allclose(values[::7], 7.0, rtol=0.01)
