"""The README quick start against its committed results.

The seven quick-start commands of README.md run in process in a temporary
directory, and every value they write is compared with
tests/snapshot_quickstart.json: text, integers, seeds and hashes exactly,
floats within 1e-9 relative. A trace file enters as its header fields and
a few moments, not its samples. Bytes are not compared, since another CPU
or numpy may move the last bits of FFTs and reductions; CI checks byte
identity on one machine.

A change that moves artifacts on purpose regenerates the snapshot, which
also prints every entry that moved:

    PYTHONPATH=src python tests/test_quickstart_snapshot.py
"""

import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

from photonstat.cli import main
from photonstat.traceio import read_trace

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).with_name("snapshot_quickstart.json")
REL_TOL = 1e-9
# A number that stands alone, not a piece of a word such as a hash or a colour.
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
_ABSENT = "<absent>"


def quickstart_commands() -> list:
    """The argument lists of the README's quick-start commands."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quick start", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("photonstat ")]


def _tokens(line: str) -> list:
    """A text line as its pieces: numbers as int or float, the rest as text."""
    pieces, at = [], 0
    for m in _NUMBER.finditer(line):
        pieces.append(line[at : m.start()])
        number = m.group()
        pieces.append(float(number) if any(c in number for c in ".eE") else int(number))
        at = m.end()
    pieces.append(line[at:])
    return [p for p in pieces if p != ""]


def _trace_values(path: Path) -> dict:
    trace = read_trace(path)
    return {
        "dt": trace.dt,
        "carrier_freq": trace.carrier_freq,
        "n_samples": trace.n_samples,
        "seed_id": trace.seed_id,
        "mean_power": trace.mean_power(),
        **{f"g{n}": trace.moment(n, normalized=True) for n in (2, 3, 4)},
    }


def take_snapshot(workdir: Path) -> dict:
    """Run the quick start in workdir: {artifact path: its values}."""
    commands = quickstart_commands()
    assert len(commands) == 7
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()):
            os.environ.pop("PHOTONSTAT_SEED", None)
            for argv in commands:
                assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    snapshot = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        if path.suffix == ".json":
            values = json.loads(path.read_text())
        elif path.suffix == ".pstt":
            values = _trace_values(path)
        else:
            values = [_tokens(line) for line in path.read_text().splitlines()]
        snapshot[path.relative_to(workdir).as_posix()] = values
    return snapshot


def moved(got, want, where: str = "") -> list:
    """The places where got differs from want beyond the tolerances."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [
            line
            for key in sorted(set(got) | set(want))
            for line in moved(got.get(key, _ABSENT), want.get(key, _ABSENT), f"{where}/{key}")
        ]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        pairs = enumerate(zip(got, want))
        return [line for i, (g, w) in pairs for line in moved(g, w, f"{where}[{i}]")]
    if type(got) is float and type(want) is float:
        same = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where}: {want!r:.80} -> {got!r:.80}"]


def _dump(snapshot: dict) -> str:
    """JSON with one artifact per block and one text line per row."""
    blocks = []
    for name, values in snapshot.items():
        if isinstance(values, list):
            body = "[\n  " + ",\n  ".join(json.dumps(line) for line in values) + "\n ]"
        else:
            body = json.dumps(values, indent=1, sort_keys=True).replace("\n", "\n ")
        blocks.append(f" {json.dumps(name)}: {body}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_quickstart_matches_its_snapshot(tmp_path):
    want = json.loads(SNAPSHOT.read_text())
    assert moved(take_snapshot(tmp_path), want) == []


def test_snapshot_comparison_catches_a_planted_change():
    # A relative change of 1e-8 in one float, or of 1 in one count, is a move.
    want = {"a.csv": [[1.5e-05, ",", 998]], "b.json": {"x": [2.0, "sld"]}}
    assert moved(json.loads(json.dumps(want)), want) == []
    assert moved({**want, "b.json": {"x": [2.0 * (1 + 1e-8), "sld"]}}, want) == [
        "/b.json/x[0]: 2.0 -> 2.00000002"
    ]
    assert moved({**want, "a.csv": [[1.5e-05, ",", 999]]}, want) == ["/a.csv[0][2]: 998 -> 999"]
    assert _tokens("# master_seed=7 config_hash=1e5f0a2b,x") == [
        "# master_seed=",
        7,
        " config_hash=1e5f0a2b,x",
    ]
    assert _tokens('<line x1="70.00" y1="-3"/>') == ['<line x1="', 70.0, '" y1="', -3, '"/>']


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = take_snapshot(Path(tmp))
    if SNAPSHOT.exists():
        print("\n".join(moved(fresh, json.loads(SNAPSHOT.read_text()))) or "nothing moved")
    SNAPSHOT.write_text(_dump(fresh))
