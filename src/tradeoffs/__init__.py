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
"""

from . import cache, errors, models, sim, workload
from .errors import *
from .models import *
from .cache import *
from .workload import *
from .sim import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *models.__all__,
    *cache.__all__,
    *workload.__all__,
    *sim.__all__,
]
