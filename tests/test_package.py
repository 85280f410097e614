"""The package namespace and the README's library examples."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import photonstat

_SRC = str(Path(photonstat.__file__).resolve().parents[1])
_README = Path(__file__).resolve().parents[1] / "README.md"
# The command line and its SVG writer are not library modules.
_NOT_EXPORTED = {"__main__", "cli", "svgplot"}


def test_package_exports_each_library_module_list_once():
    modules = sorted(
        m.name for m in pkgutil.iter_modules(photonstat.__path__) if m.name not in _NOT_EXPORTED
    )
    lists = [importlib.import_module(f"photonstat.{name}").__all__ for name in modules]
    expected = ["__version__", *(name for names in lists for name in names)]
    assert photonstat.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module, names in zip(modules, lists):
        submodule = getattr(photonstat, module)
        for name in names:
            assert getattr(photonstat, name) is getattr(submodule, name)
    # A fresh import loads the library only.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, photonstat; print(*sorted(sys.modules))"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "photonstat.config" in loaded
    assert "photonstat.cli" not in loaded and "photonstat.svgplot" not in loaded


def test_readme_python_examples_run_as_written(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    printed = []
    for block in blocks:
        exec(compile(block, str(_README), "exec"), {})
        printed.append(capsys.readouterr().out.splitlines())
    # The first example's first line is g2(0) of thermal light.
    assert float(printed[0][0]) == pytest.approx(2.0, abs=0.1)
    assert len(printed[1]) >= 1
