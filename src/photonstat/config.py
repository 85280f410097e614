"""Run configuration: YAML file, defaults, merging, and preset resolution.

The configuration is a key tree. A run starts from the built-in defaults,
deep-merges the user's YAML file over them, and finally applies CLI flag
overrides (flags win). The effective configuration is hashed (sha256 over
canonical JSON, execution-only keys excluded) and the hash is embedded in
every artifact, together with schema_version and master_seed.

Sections: sources, absorbers, chains define or override named presets;
simulate, g2, hbt configure the estimator commands; experiment configures
the power-sweep report. Durations and delays are expressed in units of
the source's nominal coherence time so one config works across spectra.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .instruments import DetectionChain
from .presets import ABSORBER_PRESETS, CHAIN_PRESETS, SOURCE_PRESETS, _resolve
from .sources import SourceSpec
from .tpa import AbsorberSpec

__all__ = [
    "DEFAULT_CONFIG",
    "RunConfig",
    "load_config",
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


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    merged = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in base:
            # Unknown keys are allowed only inside the preset sections,
            # where users define their own named entries.
            top = path.split(".", 1)[0] if path else str(key)
            if top not in ("sources", "absorbers", "chains"):
                raise ConfigError(f"unknown configuration key {here!r}")
            merged[key] = value
        elif isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = _deep_merge(base[key], value, here)
        else:
            _check_like_default(base[key], value, here)
            merged[key] = value
    return merged


def _check_like_default(default, value, path: str) -> None:
    """Raise ConfigError unless value has the kind of its default.

    The default is the schema: a mapping needs a mapping, a boolean a
    boolean, an integer anything int() takes without rounding, a float
    anything float() takes, a string a string, a list of numbers as many
    numbers and a list of names one or more strings.
    """
    if isinstance(default, dict):
        wanted, ok = "a mapping", False
    elif isinstance(default, bool):
        wanted, ok = "true or false", isinstance(value, bool)
    elif isinstance(default, (int, float)):
        kind = type(default)
        wanted = "an integer" if kind is int else "a number"
        ok = _converts(value, kind)
    elif isinstance(default, str):
        wanted, ok = "a string", isinstance(value, str)
    elif isinstance(default, list) and all(isinstance(d, float) for d in default):
        wanted = f"a list of {len(default)} numbers"
        ok = isinstance(value, list) and len(value) == len(default)
        ok = ok and all(_converts(v, float) for v in value)
    elif isinstance(default, list):
        wanted = "a non-empty list of names"
        ok = isinstance(value, list) and value and all(isinstance(v, str) for v in value)
    else:
        return
    if not ok:
        raise ConfigError(f"{path} must be {wanted}, got {value!r}")


def _converts(value, kind) -> bool:
    """True if kind(value) works, and for int without dropping a fraction."""
    if isinstance(value, bool):
        return False
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return kind is float or not isinstance(value, float) or number == value


def load_config(path=None) -> dict:
    """Load a YAML config file over the defaults; None gives pure defaults.

    PyYAML is imported only when a file is given, so a run on the defaults
    never loads the parser.
    """
    data = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is None:
        return data
    import yaml

    try:
        with open(path) as fh:
            loaded = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if loaded is None:
        return data
    if not isinstance(loaded, dict):
        raise ConfigError("config file must contain a mapping at top level")
    merged = _deep_merge(data, loaded)
    version = merged.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}"
        )
    _check_report_ranges(merged["experiment"])
    return merged


def _check_report_ranges(exp: dict) -> None:
    """Refuse a power grid without 0 < power_min_w <= power_max_w < inf and
    n_powers >= 1, scale errors below 0 or not finite, and a band without
    lo <= hi."""
    p_min, p_max = float(exp["power_min_w"]), float(exp["power_max_w"])
    if not (0 < p_min <= p_max < math.inf and int(exp["n_powers"]) >= 1):
        raise ConfigError(
            "experiment: the power grid needs 0 < power_min_w <= power_max_w, "
            f"finite, and n_powers >= 1, got {p_min}, {p_max}, {exp['n_powers']}"
        )
    scales = [float(exp[key]) for key in ("panel_scale_error", "arm_scale_error")]
    lo, hi = (float(v) for v in exp["ratio_band"])
    if not (all(0 <= s < math.inf for s in scales) and lo <= hi):  # NaN fails
        raise ConfigError(
            "experiment: panel_scale_error and arm_scale_error must be >= 0 and "
            f"finite and ratio_band [lo, hi] needs lo <= hi, got {scales}, {[lo, hi]}"
        )


def config_hash(data: dict) -> str:
    """Short stable hash of the effective configuration."""
    reduced = {k: v for k, v in data.items() if k not in _EXECUTION_KEYS}
    canonical = json.dumps(reduced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class RunConfig:
    """Effective configuration of one CLI invocation."""

    data: dict
    master_seed: int
    threads: int
    noise: bool
    out_dir: str
    fmt: str

    @property
    def hash(self) -> str:
        effective = dict(self.data)
        effective["master_seed"] = self.master_seed
        effective["noise"] = self.noise
        effective["format"] = self.fmt
        return config_hash(effective)


def resolve_source(data: dict, name: str) -> SourceSpec:
    return _resolve(SOURCE_PRESETS, SourceSpec, "source", name, data.get("sources", {}))


def resolve_absorber(data: dict, name: str) -> AbsorberSpec:
    return _resolve(
        ABSORBER_PRESETS, AbsorberSpec, "absorber", name, data.get("absorbers", {})
    )


def resolve_chain(data: dict, name: str) -> DetectionChain:
    return _resolve(CHAIN_PRESETS, DetectionChain, "chain", name, data.get("chains", {}))
