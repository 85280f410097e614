"""Binary trace container: round trip and corruption handling."""

import struct

import numpy as np
import pytest

from photonstat.cli import main
from photonstat.errors import FormatError
from photonstat.sources import SourceSpec, make_trace, nominal_coherence_time
from photonstat.traceio import TRACE_MAGIC, read_trace, write_trace


def sample_trace(n_tauc=500):
    spec = SourceSpec(
        statistics="thermal-gaussian",
        center_wavelength=976e-9,
        bandwidth_fwhm=5.0e12,
        spectral_shape="gaussian",
        mean_power=1e-3,
    )
    tau_c = nominal_coherence_time("gaussian", 5.0e12)
    return make_trace(spec, n_tauc * tau_c, tau_c / 8, 21)


def test_round_trip_exact(tmp_path):
    trace = sample_trace()
    path = tmp_path / "t.pstt"
    write_trace(trace, path)
    back = read_trace(path)
    assert np.array_equal(back.samples, trace.samples)
    assert back.dt == trace.dt
    assert back.carrier_freq == trace.carrier_freq
    assert back.seed_id == trace.seed_id


def test_bad_magic(tmp_path):
    trace = sample_trace()
    path = tmp_path / "t.pstt"
    write_trace(trace, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_trace(path)


def test_bad_version(tmp_path):
    trace = sample_trace()
    path = tmp_path / "t.pstt"
    write_trace(trace, path)
    blob = bytearray(path.read_bytes())
    assert blob[:4] == TRACE_MAGIC
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_trace(path)


def test_truncated_payload(tmp_path):
    trace = sample_trace()
    path = tmp_path / "t.pstt"
    write_trace(trace, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(FormatError):
        read_trace(path)


def test_short_header(tmp_path):
    path = tmp_path / "t.pstt"
    path.write_bytes(b"PS")
    with pytest.raises(FormatError):
        read_trace(path)


def cli_data_error(capsys, path):
    """Run `g2` and `gn` on a trace file; each must exit 3 with one error line."""
    g2_args = ["g2", "--trace", str(path)]
    gn_args = ["gn", "--trace", str(path), "--order", "2"]
    for args in (g2_args, gn_args):
        code = main([*args, "--out", str(path.parent / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1
        assert err[0].startswith("error [data-error]:")


@pytest.mark.parametrize("extra", [b"\0", bytes(16), b"trailing junk"])
def test_trailing_bytes_are_a_data_error(tmp_path, capsys, extra):
    path = tmp_path / "t.pstt"
    write_trace(sample_trace(), path)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(FormatError):
        read_trace(path)
    cli_data_error(capsys, path)


@pytest.mark.parametrize(
    "offset, value",
    [(8, 0.0), (8, -1e-15), (8, np.nan), (8, np.inf), (16, np.nan), (16, -np.inf)],
)
def test_bad_header_value_is_a_data_error(tmp_path, capsys, offset, value):
    # offset 8 is dt, offset 16 the carrier angular frequency.
    path = tmp_path / "t.pstt"
    write_trace(sample_trace(), path)
    blob = bytearray(path.read_bytes())
    blob[offset : offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_trace(path)
    cli_data_error(capsys, path)


def test_too_few_samples_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "t.pstt"
    write_trace(sample_trace(), path)
    blob = bytearray(path.read_bytes()[:56])
    blob[24:32] = struct.pack("<Q", 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_trace(path)
    cli_data_error(capsys, path)


def test_non_finite_sample_is_a_data_error(tmp_path, capsys):
    # One NaN in a 16 000-sample thermal trace: no NaN estimate, no artifact.
    trace = sample_trace(n_tauc=2_000)
    assert trace.n_samples == 16_000
    path = tmp_path / "t.pstt"
    write_trace(trace, path)
    blob = bytearray(path.read_bytes())
    offset = 40 + 16 * 100
    blob[offset : offset + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="finite"):
        read_trace(path)
    cli_data_error(capsys, path)
    assert not (tmp_path / "o").exists()
