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
seeds. The same trace and configuration, run with the same numpy build
and BLAS kernel, give the same output bytes (JSON, CSV, traces); exact
ties between identical embeddings may be decided by row position rather
than recency, because the BLAS rounding of a similarity can depend on
where its row sits in the matrix.

The package resolves its names on first use (PEP 562) from ``_EXPORTS``,
the one table of public names by module, which also gives each module
its ``__all__`` and :mod:`tradeoffs.cli` the names it binds: ``import
tradeoffs`` imports no submodule, and ``tradeoffs.memory_deficit`` (or
``from tradeoffs import memory_deficit``) imports only the module that
defines the name, here :mod:`tradeoffs.models`, which loads numpy only
inside its fits. So the closed-form half starts without numpy, while
``from tradeoffs import *`` imports all five modules, as before.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that exports it, in ``__all__`` order.
_EXPORTS = {
    "errors": (
        "TradeoffError", "Infeasible", "NegativeCapacity", "NonDifferentiableModel",
        "DegeneratePoints", "DimensionMismatch", "ZeroNormEmbedding", "NonFiniteEmbedding",
        "ParseError", "EntryTooLarge",
    ),
    "models": (
        "RateComputeSample", "DeficitParams", "CacheCostParams", "HitRateModel",
        "ExponentialSaturation", "PowerLaw", "EmpiricalHitRate", "FrontierResult",
        "CacheEconomics", "FitResult", "memory_deficit", "comm_cost", "frontier_min_bandwidth",
        "expected_compute", "marginal_benefit", "fit_hit_rate",
    ),
    "cache": (
        "RESOLUTIONS", "DEFAULT_LATENT_BYTES", "DEFAULT_STORED_DEPTHS", "DEFAULT_POLICY",
        "DEFAULT_DIM", "normalize", "ReuseDepthPolicy", "CacheEntry", "LookupResult", "CacheState",
    ),
    "workload": (
        "Trace", "GeneratorConfig", "load_trace", "serialize_trace", "save_trace",
        "generate_trace",
    ),
    "sim": (
        "SimConfig", "PerRequestRecord", "ReplaySummary", "ReplayReport", "CurvePoint", "replay",
        "sweep", "fit_curve", "curve_to_csv", "write_curve_csv", "read_curve_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, bound here by its import
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
