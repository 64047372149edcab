"""Resource trade-off models and a trace-driven approximate-cache simulator.

The package has two halves. The analytic half (:mod:`tradeoffs.models`)
prices the three pairwise substitutions between computation, bandwidth,
and memory in generative inference serving: decode compute versus
transmitted bits, interconnect traffic versus missing device memory,
and cache capacity versus recomputed denoising steps. The empirical
half (:mod:`tradeoffs.cache`, :mod:`tradeoffs.workload`,
:mod:`tradeoffs.sim`) replays request traces through a
similarity-matched latent cache with LRU eviction and measures the same
economics instead of modeling them; :func:`tradeoffs.sim.fit_curve`
closes the loop by fitting the analytic hit-rate families to sweep
output.

All randomness flows through NumPy's PCG64 generator with explicit
seeds, and all outputs (JSON, CSV, traces) are byte-deterministic.
"""

from .cache import (
    DEFAULT_DIM,
    DEFAULT_LATENT_BYTES,
    DEFAULT_POLICY,
    DEFAULT_STORED_DEPTHS,
    RESOLUTIONS,
    CacheEntry,
    CacheState,
    LookupResult,
    ReuseDepthPolicy,
    normalize,
    reuse_depth,
)
from .errors import (
    DegeneratePoints,
    DimensionMismatch,
    EntryTooLarge,
    Infeasible,
    NegativeCapacity,
    NonDifferentiableModel,
    NonFiniteEmbedding,
    ParseError,
    TradeoffError,
    ZeroNormEmbedding,
)
from .models import (
    CacheCostParams,
    CacheEconomics,
    DeficitParams,
    EmpiricalHitRate,
    ExponentialSaturation,
    FitResult,
    FrontierResult,
    HitRateModel,
    PowerLaw,
    RateComputeSample,
    comm_cost,
    expected_compute,
    fit_hit_rate,
    frontier_min_bandwidth,
    marginal_benefit,
    memory_deficit,
)
from .sim import (
    CurvePoint,
    PerRequestRecord,
    ReplayReport,
    ReplaySummary,
    SimConfig,
    curve_to_csv,
    fit_curve,
    read_curve_csv,
    replay,
    sweep,
    write_curve_csv,
)
from .workload import (
    GeneratorConfig,
    Trace,
    generate_trace,
    load_trace,
    save_trace,
    serialize_trace,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TradeoffError",
    "Infeasible",
    "NegativeCapacity",
    "NonDifferentiableModel",
    "DegeneratePoints",
    "DimensionMismatch",
    "ZeroNormEmbedding",
    "NonFiniteEmbedding",
    "ParseError",
    "EntryTooLarge",
    # models
    "RateComputeSample",
    "DeficitParams",
    "CacheCostParams",
    "HitRateModel",
    "ExponentialSaturation",
    "PowerLaw",
    "EmpiricalHitRate",
    "FrontierResult",
    "CacheEconomics",
    "FitResult",
    "memory_deficit",
    "comm_cost",
    "frontier_min_bandwidth",
    "expected_compute",
    "marginal_benefit",
    "fit_hit_rate",
    # cache
    "RESOLUTIONS",
    "DEFAULT_LATENT_BYTES",
    "DEFAULT_STORED_DEPTHS",
    "DEFAULT_POLICY",
    "DEFAULT_DIM",
    "normalize",
    "ReuseDepthPolicy",
    "reuse_depth",
    "CacheEntry",
    "LookupResult",
    "CacheState",
    # workload
    "Trace",
    "GeneratorConfig",
    "load_trace",
    "serialize_trace",
    "save_trace",
    "generate_trace",
    # sim
    "SimConfig",
    "PerRequestRecord",
    "ReplaySummary",
    "ReplayReport",
    "CurvePoint",
    "replay",
    "sweep",
    "fit_curve",
    "curve_to_csv",
    "write_curve_csv",
    "read_curve_csv",
]
