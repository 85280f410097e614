"""Configuration loading, hashing, and the command-line surface."""

import json

import numpy as np
import pytest

from photonstat.config import (
    DEFAULT_CONFIG,
    config_hash,
    load_config,
    resolve_chain,
    resolve_source,
)
from photonstat.errors import ConfigError
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
    for p1, p2 in zip(first["panels"], rebuilt["panels"]):
        assert p1["fits"] == p2["fits"]
        assert p1["ratio"] == pytest.approx(p2["ratio"], rel=1e-12)


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


@pytest.mark.parametrize(
    "row",
    ["abc,10,0", "1e-4,many,0", "1e-4,10,first", "1e-4,nan,0", "inf,10,0", "1e-4,10"],
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


def test_cli_sweep_artifacts(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sweep", "--out", out, "--seed", 5, "--source", "dfb"]) == 0
    payload = json.loads((out / "sweep_DCM__dfb.json").read_text())
    assert payload["g2_used"] == pytest.approx(1.0)
    assert 1.9 < payload["b"] < 2.1
    rows = (out / "sweep_DCM__dfb.csv").read_text().splitlines()
    assert rows[1] == "P_exc_W,counts,repeat"
    assert len(rows) == 2 + 12 * 5


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
    ],
)
def test_cli_rejects_non_numeric_config(tmp_path, capsys, yaml_text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml_text)
    code, err = run_cli_error(
        capsys, ["reproduce-fig2", "--config", cfg, "--out", tmp_path / "o"]
    )
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error [config-error]:")


def test_config_numbers_accept_yaml_spellings(tmp_path):
    # PyYAML reads 1e-3 (no dot) as text; float() takes it, as before.
    cfg = tmp_path / "ok.yaml"
    cfg.write_text("experiment:\n  power_max_w: 1e-3\n  n_powers: 12.0\n")
    data = load_config(cfg)
    assert data["experiment"]["power_max_w"] == "1e-3"
    assert data["experiment"]["n_powers"] == 12.0
