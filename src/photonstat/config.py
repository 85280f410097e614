"""Run configuration: YAML file, defaults, merging, and preset resolution.

The configuration is a key tree. A run starts from the built-in defaults,
deep-merges the user's YAML file over them, and finally applies CLI flag
overrides (flags win). Every value is converted to its default's kind and
range-checked here, so the tree that effective_config returns is the run's
typed, checked configuration. It is hashed (sha256 over canonical JSON,
execution-only keys excluded) and the hash is embedded in every artifact,
together with schema_version and master_seed.

Sections: sources, absorbers, chains define or override named presets;
simulate, g2, hbt configure the estimator commands; experiment configures
the power-sweep report. Durations and delays are expressed in units of
the source's nominal coherence time so one config works across spectra.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import suppress
from typing import get_type_hints

from .errors import ConfigError
from .instruments import DetectionChain
from .presets import ABSORBER_PRESETS, CHAIN_PRESETS, SOURCE_PRESETS, _resolve
from .sources import SourceSpec
from .tpa import AbsorberSpec

__all__ = [
    "DEFAULT_CONFIG",
    "load_config",
    "effective_config",
    "config_hash",
    "resolve_source",
    "resolve_absorber",
    "resolve_chain",
]

SCHEMA_VERSION = 1

DEFAULT_CONFIG: dict = {
    "schema_version": SCHEMA_VERSION,
    "master_seed": 20260819,
    "output_dir": "out",
    "threads": 1,
    "noise": True,
    "format": "csv",
    "sources": {},
    "absorbers": {},
    "chains": {},
    "simulate": {
        "source": "sld",
        "duration_over_tauc": 20000.0,
        "samples_per_tauc": 8.0,
    },
    "g2": {
        "max_delay_over_tauc": 15.0,
        "n_delays": 61,
    },
    "hbt": {
        "source": "sld",
        "realizations": 8,
        "duration_over_tauc": 20000.0,
        "samples_per_tauc": 8.0,
        "max_delay_over_tauc": 30.0,
        "step_over_tauc": 0.5,
        "tail_start_over_tauc": 10.0,
    },
    "experiment": {
        "fluorophores": ["DCM", "CdTe-QD", "RhodamineB"],
        "sources": ["sld", "dfb"],
        "chain": "paper-EMCCD",
        "power_min_w": 30.0e-6,
        "power_max_w": 1.0e-3,
        "n_powers": 12,
        "repeats": 5,
        "statistics_mode": "nominal",
        "trace_duration_over_tauc": 5000.0,
        "trace_samples_per_tauc": 8.0,
        "calibration_target_counts": 1000.0,
        "calibration_power_w": 300.0e-6,
        "panel_scale_error": 0.10,
        "arm_scale_error": 0.02,
        "ratio_band": [1.6, 2.3],
    },
}

# Keys that describe where/how to execute rather than what to compute;
# excluded from the config hash so identical work hashes identically.
_EXECUTION_KEYS = ("output_dir", "threads")

# The schema of the numbers in each preset section's entries: a default of
# each numeric spec field's type, int or float.
_ENTRY_NUMBERS = {
    section: {k: kind() for k, kind in get_type_hints(spec).items() if kind in (int, float)}
    for section, spec in zip(
        ("sources", "absorbers", "chains"), (SourceSpec, AbsorberSpec, DetectionChain)
    )
}


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    merged = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in base:
            # Unknown keys are allowed only inside the preset sections,
            # where users define their own named entries. An entry's
            # numbers take its spec's field types; the rest of it is left
            # to the preset resolver, which refuses it when it is used.
            top = path.split(".", 1)[0] if path else str(key)
            if top not in _ENTRY_NUMBERS:
                raise ConfigError(f"unknown configuration key {here!r}")
            name = str(key)
            if path in ("sources", "absorbers") and ("/" in name or not name.isprintable()):
                # Source and absorber names key artifact files and show in SVG text.
                raise ConfigError(f"{here!r}: a name that keys files must be printable, without '/'")
            if isinstance(value, dict):
                numbers = _ENTRY_NUMBERS[top]
                value = {
                    k: _convert(numbers[k], v, f"{here}.{k}") if k in numbers else v
                    for k, v in value.items()
                }
            merged[key] = value
        elif isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = _deep_merge(base[key], value, here)
        else:
            merged[key] = _convert(base[key], value, here)
    return merged


def _convert(default, value, path: str):
    """value as the kind of its default, or ConfigError.

    The default is the schema: a mapping needs a mapping (merged into it
    elsewhere), a boolean a boolean, a string a string, an integer a number
    without a fraction, a float any number, a list of numbers as many
    numbers and a list of names one or more strings. Numbers come back as
    int or float whatever their YAML spelling, so that one value has one
    form in the tree and in its hash.
    """
    got = value
    if isinstance(default, dict):
        wanted, ok = "a mapping", False
    elif isinstance(default, bool):
        wanted, ok = "true or false", isinstance(value, bool)
    elif isinstance(default, (int, float)):
        wanted = "an integer" if type(default) is int else "a number"
        got = _number(value, type(default))
        ok = got is not None
    elif isinstance(default, str):
        wanted, ok = "a string", isinstance(value, str)
    elif all(isinstance(d, float) for d in default):
        wanted = f"a list of {len(default)} numbers"
        got = [_number(v, float) for v in value] if isinstance(value, list) else []
        ok = len(got) == len(default) and None not in got
    else:
        wanted = "a non-empty list of names"
        ok = isinstance(value, list) and value and all(isinstance(v, str) for v in value)
    if not ok:
        raise ConfigError(f"{path} must be {wanted}, got {value!r}")
    return got


def _number(value, kind):
    """value as a number of kind, or None: a bool is no number and an int
    has no fraction. Text counts, as PyYAML reads 1e-3 as text."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        if kind is float:
            return float(value)
        if not isinstance(value, float):
            with suppress(ValueError):
                return int(value)  # exact at any size
            value = float(value)  # text such as 1e3
        return int(value) if value.is_integer() else None
    except (ValueError, OverflowError):
        return None


def _merged_file(path) -> dict:
    """The YAML file at path merged over the defaults; None gives the
    defaults. PyYAML is imported only when a file is given, so a run on the
    defaults never loads the parser."""
    data = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is None:
        return data
    import yaml

    try:
        # As bytes, so that PyYAML reports text that is not UTF-8 or UTF-16.
        with open(path, "rb") as fh:
            loaded = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        # PyYAML puts the context, the problem and its place on lines of their own.
        detail = "; ".join(line.strip() for line in str(exc).splitlines() if line.strip())
        raise ConfigError(f"cannot parse config file {path}: {detail}") from exc
    if loaded is None:
        return data
    if not isinstance(loaded, dict):
        raise ConfigError("config file must contain a mapping at top level")
    return _deep_merge(data, loaded)


def load_config(path=None) -> dict:
    """Load a YAML config file over the defaults; None gives pure defaults."""
    return _checked(_merged_file(path))


def effective_config(path=None, seed=None, **flags) -> dict:
    """The configuration of one run: the file over the defaults, then the
    seed and the other flags that are not None, keyed as in the tree
    (threads, noise, format, output_dir). The seed is the seed argument,
    else the PHOTONSTAT_SEED environment variable, else the file's."""
    flags["master_seed"] = os.environ.get("PHOTONSTAT_SEED") if seed is None else seed
    return _checked(
        _deep_merge(_merged_file(path), {k: v for k, v in flags.items() if v is not None})
    )


def _checked(data: dict) -> dict:
    """data, after every range check of a configuration key. The values
    already have their defaults' kinds; NaN fails every comparison."""
    exp = data["experiment"]
    p_max, (lo, hi) = exp["power_max_w"], exp["ratio_band"]
    g2_range = data["g2"]["max_delay_over_tauc"]
    rules = [
        ("schema_version", data["schema_version"] == SCHEMA_VERSION, str(SCHEMA_VERSION)),
        ("master_seed", 0 <= data["master_seed"] < 2**64, "an integer in [0, 2^64)"),
        ("threads", data["threads"] >= 1, ">= 1"),
        ("format", data["format"] in ("csv", "json"), "csv or json"),
        ("g2.max_delay_over_tauc", 0 < g2_range < math.inf, "positive and finite"),
        ("experiment.power_max_w", 0 < p_max < math.inf, "positive and finite"),
        ("experiment.power_min_w", 0 < exp["power_min_w"] <= p_max, "in (0, power_max_w]"),
        ("experiment.n_powers", exp["n_powers"] >= 1, ">= 1"),
        # Names key the Fig. 2 artifacts: a repeated one would overwrite them.
        *(
            (f"experiment.{key}", len(set(exp[key])) == len(exp[key]), "distinct names")
            for key in ("fluorophores", "sources")
        ),
        *(
            (f"experiment.{key}", 0 <= exp[key] < math.inf, ">= 0 and finite")
            for key in ("panel_scale_error", "arm_scale_error")
        ),
        ("experiment.ratio_band", lo <= hi, "[lo, hi] with lo <= hi"),
    ]
    for key, ok, rule in rules:
        if not ok:
            section, _, name = key.rpartition(".")
            value = data[section][name] if section else data[name]
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
    return data


def config_hash(data: dict) -> str:
    """Short stable hash of the effective configuration."""
    reduced = {k: v for k, v in data.items() if k not in _EXECUTION_KEYS}
    canonical = json.dumps(reduced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def resolve_source(data: dict, name: str) -> SourceSpec:
    return _resolve(SOURCE_PRESETS, SourceSpec, "source", name, data.get("sources", {}))


def resolve_absorber(data: dict, name: str) -> AbsorberSpec:
    return _resolve(
        ABSORBER_PRESETS, AbsorberSpec, "absorber", name, data.get("absorbers", {})
    )


def resolve_chain(data: dict, name: str) -> DetectionChain:
    return _resolve(CHAIN_PRESETS, DetectionChain, "chain", name, data.get("chains", {}))
