"""Named presets for sources, absorbers, and detection chains.

Source presets model a broadband superluminescent diode ("sld", thermal
statistics, 976 nm center, 20 nm FWHM), the same spectrum with a residual
coherent admixture ("sld-residual", g2(0) = 1.9), and a narrow single-mode
diode laser ("dfb", coherent statistics).

Absorber presets carry the two-photon transition at twice the 976 nm
carrier, broad final-state widths, and nominal quantum yields; their
dipole constants are unit placeholders until count-scale calibration
(experiments.calibrate_dipole) anchors them.

The "paper-EMCCD" chain preset folds solid-angle collection and filter
losses into a 13.3 percent collection efficiency which, together with a
90 percent quantum efficiency, gives the 12 percent overall detection
efficiency of a cooled EMCCD setup; dark rate is negligible and defaults
to zero. Measured powers are corrected to the sample with eta = 0.61.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .instruments import DetectionChain
from .sources import SPEED_OF_LIGHT, SourceSpec
from .tpa import AbsorberSpec

__all__ = [
    "source_preset",
    "absorber_preset",
    "chain_preset",
    "SOURCE_PRESETS",
    "ABSORBER_PRESETS",
    "CHAIN_PRESETS",
]

_CENTER_WAVELENGTH = 976e-9
_OMEGA_CARRIER = 2.0 * np.pi * SPEED_OF_LIGHT / _CENTER_WAVELENGTH

SOURCE_PRESETS = {
    "sld": dict(
        statistics="thermal-gaussian",
        center_wavelength=_CENTER_WAVELENGTH,
        bandwidth_fwhm=20e-9,
        bandwidth_convention="wavelength",
        spectral_shape="gaussian",
        mean_power=1.0e-3,
        label="sld",
    ),
    "sld-residual": dict(
        statistics="tunable",
        center_wavelength=_CENTER_WAVELENGTH,
        bandwidth_fwhm=20e-9,
        bandwidth_convention="wavelength",
        spectral_shape="gaussian",
        mean_power=1.0e-3,
        target_g2=1.9,
        label="sld-residual",
    ),
    "dfb": dict(
        statistics="coherent",
        center_wavelength=_CENTER_WAVELENGTH,
        bandwidth_fwhm=2.0e6,
        bandwidth_convention="frequency",
        spectral_shape="lorentzian",
        mean_power=1.0e-3,
        amplitude_noise=0.0,
        label="dfb",
    ),
}

# Final-state widths are an order of magnitude above the sld field
# bandwidth (2*pi * 6.3 THz = 4.0e13 rad/s), keeping the broadband rate
# reduction valid. Quantum yields are nominal literature-scale values;
# only ratios of detected counts matter.
ABSORBER_PRESETS = {
    "DCM": dict(
        omega_f=2.0 * _OMEGA_CARRIER,
        delta_omega_f=5.0e14,
        dipole_sq=1.0,
        quantum_yield=0.43,
        label="DCM, 5 mmol/l in dimethyl sulfoxide",
    ),
    "CdTe-QD": dict(
        omega_f=2.0 * _OMEGA_CARRIER,
        delta_omega_f=6.0e14,
        dipole_sq=1.0,
        quantum_yield=0.40,
        label="CdTe quantum dots, 250 mmol/l in water",
    ),
    "RhodamineB": dict(
        omega_f=2.0 * _OMEGA_CARRIER,
        delta_omega_f=4.5e14,
        dipole_sq=1.0,
        quantum_yield=0.50,
        label="Rhodamine B, 50 mmol/l in methanol",
    ),
}

CHAIN_PRESETS = {
    "paper-EMCCD": dict(
        collection_efficiency=0.40 / 3.0,
        quantum_efficiency=0.90,
        dark_rate=0.0,
        integration_time=1.0,
        power_correction_eta=0.61,
    ),
}


def _resolve(presets: dict, build, kind: str, name: str, configured: dict, overrides=None):
    """Build a named entry: its configured mapping and then the overrides,
    merged over the preset base."""
    entry = configured.get(name)
    if entry is None and name not in presets:
        raise ConfigError(
            f"unknown {kind} {name!r}; known presets: {sorted(presets)}, "
            f"config-defined: {sorted(configured)}"
        )
    if entry is not None and not isinstance(entry, dict):
        raise ConfigError(f"{kind} entry {name!r} must be a mapping")
    entry = {**(entry or {}), **(overrides or {})}
    # A "preset" key bases a new name on an existing preset; otherwise a
    # same-name preset (if any) is the base and the entry overrides it.
    base_name = entry.pop("preset", name)
    if base_name != name and base_name not in presets:
        raise ConfigError(
            f"{kind} entry {name!r} refers to unknown preset {base_name!r}; "
            f"known presets: {sorted(presets)}"
        )
    params = {**presets.get(base_name, {}), **entry}
    if build is not DetectionChain:  # the specs carry their name as label
        params.setdefault("label", name)
        if not isinstance(params["label"], str):
            raise ConfigError(f"{kind} entry {name!r}: label must be a string")
    try:
        return build(**params)
    except TypeError as exc:
        raise ConfigError(f"bad {kind} definition {name!r}: {exc}") from exc


def source_preset(name: str, **overrides) -> SourceSpec:
    """Build a SourceSpec from a named preset, with field overrides."""
    return _resolve(SOURCE_PRESETS, SourceSpec, "source", name, {}, overrides)


def absorber_preset(name: str, **overrides) -> AbsorberSpec:
    """Build an AbsorberSpec from a named preset, with field overrides."""
    return _resolve(ABSORBER_PRESETS, AbsorberSpec, "absorber", name, {}, overrides)


def chain_preset(name: str, **overrides) -> DetectionChain:
    """Build a DetectionChain from a named preset, with field overrides."""
    return _resolve(CHAIN_PRESETS, DetectionChain, "chain", name, {}, overrides)
