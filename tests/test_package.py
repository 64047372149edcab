import os
import subprocess
import sys
from pathlib import Path

import pytest

import tradeoffs
from tradeoffs import cache, errors, models, sim, workload

# The package's public names before it re-exported its modules' lists,
# less reuse_depth (removed: ReuseDepthPolicy.depth_for does its job).
PUBLIC_NAMES = [
    "__version__",
    "TradeoffError", "Infeasible", "NegativeCapacity", "NonDifferentiableModel",
    "DegeneratePoints", "DimensionMismatch", "ZeroNormEmbedding", "NonFiniteEmbedding",
    "ParseError", "EntryTooLarge",
    "RateComputeSample", "DeficitParams", "CacheCostParams", "HitRateModel",
    "ExponentialSaturation", "PowerLaw", "EmpiricalHitRate", "FrontierResult",
    "CacheEconomics", "FitResult", "memory_deficit", "comm_cost", "frontier_min_bandwidth",
    "expected_compute", "marginal_benefit", "fit_hit_rate",
    "RESOLUTIONS", "DEFAULT_LATENT_BYTES", "DEFAULT_STORED_DEPTHS", "DEFAULT_POLICY",
    "DEFAULT_DIM", "normalize", "ReuseDepthPolicy", "CacheEntry", "LookupResult", "CacheState",
    "Trace", "GeneratorConfig", "load_trace", "serialize_trace", "save_trace", "generate_trace",
    "SimConfig", "PerRequestRecord", "ReplaySummary", "ReplayReport", "CurvePoint", "replay",
    "sweep", "fit_curve", "curve_to_csv", "write_curve_csv", "read_curve_csv",
]


def test_all_is_the_join_of_the_modules_lists():
    joined = ["__version__", *errors.__all__, *models.__all__, *cache.__all__,
              *workload.__all__, *sim.__all__]
    assert tradeoffs.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in (errors, models, cache, workload, sim):
        for name in module.__all__:
            assert getattr(tradeoffs, name) is getattr(module, name), name


def test_the_public_names_still_import_from_the_package():
    namespace = {}
    exec("from tradeoffs import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()
    assert not hasattr(tradeoffs, "reuse_depth")


def test_import_loads_the_same_modules_and_numpy():
    code = ("import sys, tradeoffs; "
            "print(sorted(m for m in sys.modules if m.startswith('tradeoffs')), "
            "'numpy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(tradeoffs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out == ("['tradeoffs', 'tradeoffs._forkmap', 'tradeoffs.cache', 'tradeoffs.errors', "
                   "'tradeoffs.models', 'tradeoffs.sim', 'tradeoffs.workload'] True\n")


DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, demo):
    # capacity_sweep_fit.py replays 20,000 requests by default; 2,000 show it runs.
    args = ["--n", "2000"] if demo == "capacity_sweep_fit.py" else []
    src = os.path.dirname(os.path.dirname(tradeoffs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / demo), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
