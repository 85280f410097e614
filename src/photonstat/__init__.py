"""Stochastic optical fields with prescribed photon statistics.

Synthesis of thermal, coherent, pseudo-thermal, and tunable-statistics
field traces; intensity-correlation estimators with bootstrap errors;
two-photon and multi-photon absorption rates; a simulated detection
chain including an interferometric correlation measurement; and a
power-sweep experiment comparing fluorescence driven by the different
sources.

The package exports the names in its library modules' __all__ lists, in
the order below. The command line (cli, with its SVG writer svgplot) is
not imported with the package.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["__version__"]
for _name in (
    "config", "correlation", "errors", "experiments", "instruments",
    "presets", "seeding", "sources", "tpa", "traceio",
):
    _module = import_module(f".{_name}", __name__)
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _name, _module, import_module
