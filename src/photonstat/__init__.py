"""Stochastic optical fields with prescribed photon statistics.

Synthesis of thermal, coherent, pseudo-thermal, and tunable-statistics
field traces; intensity-correlation estimators with bootstrap errors;
two-photon and multi-photon absorption rates; a simulated detection
chain including an interferometric correlation measurement; and a
power-sweep experiment comparing fluorescence driven by the different
sources.
"""

__version__ = "0.1.0"

from .config import (
    DEFAULT_CONFIG,
    RunConfig,
    config_hash,
    load_config,
    resolve_absorber,
    resolve_chain,
    resolve_source,
)
from .correlation import (
    CorrelationEstimate,
    g2_from_counts,
    g2_tau,
    gn_zero,
)
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
    ExponentCheck,
    Fig2Panel,
    Fig2Report,
    FitResult,
    SweepResult,
    calibrate_dipole,
    enhancement_ratio,
    fit_quadratic,
    power_sweep,
    reproduce_fig2,
)
from .instruments import (
    DetectionChain,
    InterferogramScan,
    extract_g2,
    fluorescence_counts,
    hbt_ensemble,
    hbt_scan,
    photon_counter,
)
from .presets import (
    ABSORBER_PRESETS,
    CHAIN_PRESETS,
    SOURCE_PRESETS,
    absorber_preset,
    chain_preset,
    source_preset,
)
from .seeding import derive_seed, rng_for
from .sources import (
    FieldTrace,
    SourceSpec,
    coherence_time,
    make_trace,
    nominal_coherence_time,
    nominal_g2,
    trace_grid,
)
from .tpa import (
    AbsorberSpec,
    RatioEstimate,
    lineshape,
    mollow_rate,
    mpa_rate_timedomain,
    rate_ratio,
    tpa_rate_timedomain,
)
from .traceio import read_trace, write_trace

__all__ = [
    "__version__",
    "ABSORBER_PRESETS",
    "AbsorberSpec",
    "AcceptanceError",
    "CHAIN_PRESETS",
    "ConfigError",
    "CorrelationEstimate",
    "DEFAULT_CONFIG",
    "DegenerateInputError",
    "DetectionChain",
    "DivisionDomainError",
    "EstimationError",
    "ExponentCheck",
    "Fig2Panel",
    "Fig2Report",
    "FieldTrace",
    "FitResult",
    "FormatError",
    "InsufficientDataError",
    "InterferogramScan",
    "InvalidArgumentError",
    "ModelDomainError",
    "OutOfModelError",
    "PhotonstatError",
    "RatioEstimate",
    "RunConfig",
    "SOURCE_PRESETS",
    "SamplingError",
    "SourceSpec",
    "SweepResult",
    "absorber_preset",
    "calibrate_dipole",
    "chain_preset",
    "coherence_time",
    "config_hash",
    "derive_seed",
    "enhancement_ratio",
    "extract_g2",
    "fit_quadratic",
    "fluorescence_counts",
    "g2_from_counts",
    "g2_tau",
    "gn_zero",
    "hbt_ensemble",
    "hbt_scan",
    "load_config",
    "lineshape",
    "make_trace",
    "mollow_rate",
    "mpa_rate_timedomain",
    "nominal_coherence_time",
    "nominal_g2",
    "photon_counter",
    "power_sweep",
    "rate_ratio",
    "read_trace",
    "reproduce_fig2",
    "resolve_absorber",
    "resolve_chain",
    "resolve_source",
    "rng_for",
    "source_preset",
    "tpa_rate_timedomain",
    "trace_grid",
    "write_trace",
]
