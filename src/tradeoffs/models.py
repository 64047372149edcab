"""Closed-form resource trade-off models.

Three analytic models cover the three directions in which one hardware
resource can substitute for another:

* ``frontier_min_bandwidth``: spend decoder compute to shrink the
  transmitted representation (computation for bandwidth).
* ``memory_deficit`` / ``comm_cost``: spill model state over the
  interconnect when aggregate device memory falls short (bandwidth for
  memory).
* ``expected_compute`` / ``marginal_benefit``: reuse cached latents to
  skip denoising steps (memory for computation), driven by a hit-rate
  model ``h(M)``.

``fit_hit_rate`` calibrates the two closed-form hit-rate families against
measured (capacity, hit rate) points, e.g. the output of a capacity sweep.

Unit conventions: GB always means 10^9 bytes, compute is measured in
FLOPs, and bandwidth in bits per pixel. Communication cost is reported in
GB-equivalents per iteration with a dimensionless all-reduce factor.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DegeneratePoints,
    Infeasible,
    NegativeCapacity,
    NonDifferentiableModel,
    _number,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
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
]


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateComputeSample:
    """One measured operating point of a transmission/decoding pipeline.

    ``bandwidth_bpp`` is the transmitted representation size in bits per
    pixel, ``compute_flops`` the decode cost, and ``quality`` an opaque
    score where higher is better.
    """

    bandwidth_bpp: float
    compute_flops: float
    quality: float

    def __post_init__(self):
        _number(self.bandwidth_bpp, "bandwidth_bpp", 0)
        _number(self.compute_flops, "compute_flops", 0)
        _number(self.quality, "quality")


@dataclass(frozen=True)
class DeficitParams:
    """Inputs of the distributed-training memory/communication model.

    ``state_volume_gb`` is the combined volume of parameters, gradients
    and optimizer state that every iteration synchronizes;
    ``deficit_bandwidth_factor`` is the system-dependent bandwidth units
    needed to compensate one unit of missing memory.
    """

    total_memory_gb: float
    device_count: int
    device_memory_gb: float
    allreduce_factor: float = 0.0
    state_volume_gb: float = 0.0
    deficit_bandwidth_factor: float = 0.0

    def __post_init__(self):
        _number(self.total_memory_gb, "total_memory_gb", 0)
        _number(self.device_memory_gb, "device_memory_gb", 0)
        _number(self.device_count, "device_count", 1, whole=True)
        _number(self.allreduce_factor, "allreduce_factor")
        _number(self.state_volume_gb, "state_volume_gb")
        _number(self.deficit_bandwidth_factor, "deficit_bandwidth_factor", 0)


@dataclass(frozen=True)
class CacheCostParams:
    """Cost structure of iterative generation with latent reuse.

    A full generation runs ``total_steps`` denoising steps at
    ``step_cost_flops`` each; a cache hit resumes from a latent saved
    after ``reuse_depth`` steps, skipping that many. ``entry_size_gb``
    is the average cache-entry footprint used for entry-count estimates.
    """

    total_steps: int
    step_cost_flops: float
    reuse_depth: int
    entry_size_gb: float

    def __post_init__(self):
        _number(self.total_steps, "total_steps", 1, whole=True)
        _number(self.step_cost_flops, "step_cost_flops", 0, above=True)
        rule = "finite and lie in [0, total_steps]"
        if _number(self.reuse_depth, "reuse_depth", 0, rule=rule) > self.total_steps:
            raise ValueError(f"reuse_depth must be {rule}")
        _number(self.reuse_depth, "reuse_depth", whole=True)
        _number(self.entry_size_gb, "entry_size_gb", 0, above=True)

    @property
    def full_cost_flops(self) -> float:
        """Cost of an uncached generation: total_steps * step_cost (ValueError if not finite)."""
        return _number(float(self.total_steps) * self.step_cost_flops, "full_cost_flops")

    @property
    def reuse_savings_flops(self) -> float:
        """FLOPs saved by one hit: reuse_depth * step_cost."""
        return float(self.reuse_depth) * self.step_cost_flops


# ---------------------------------------------------------------------------
# Hit-rate models
# ---------------------------------------------------------------------------


class HitRateModel(abc.ABC):
    """Maps cache capacity (GB) to hit probability in [0, 1]."""

    @abc.abstractmethod
    def hit_rate(self, capacity_gb: float) -> float:
        """Hit probability at the given capacity."""

    def marginal_hit_rate(self, capacity_gb: float) -> float:
        """Derivative dh/dM; defined only for the closed-form families."""
        raise NonDifferentiableModel(
            f"{type(self).__name__} has no analytic derivative"
        )

    @staticmethod
    def _check_capacity(capacity_gb: float) -> float:
        if capacity_gb < 0:
            raise NegativeCapacity(f"capacity must be >= 0, got {capacity_gb}")
        return float(_number(capacity_gb, "capacity"))


@dataclass(frozen=True)
class ExponentialSaturation(HitRateModel):
    """h(M) = 1 - exp(-beta * M / entry_size): fast returns, then plateau."""

    beta: float
    entry_size_gb: float

    def __post_init__(self):
        _number(self.beta, "beta", 0, above=True)
        _number(self.entry_size_gb, "entry_size_gb", 0, above=True)
        _number(self.beta / self.entry_size_gb, "beta / entry_size_gb")

    def hit_rate(self, capacity_gb: float) -> float:
        m = self._check_capacity(capacity_gb)
        return 1.0 - math.exp(-self.beta * m / self.entry_size_gb)

    def marginal_hit_rate(self, capacity_gb: float) -> float:
        m = self._check_capacity(capacity_gb)
        scale = self.beta / self.entry_size_gb
        return scale * math.exp(-scale * m)


@dataclass(frozen=True)
class PowerLaw(HitRateModel):
    """h(M) = 1 - (1 + kappa*M)^(-gamma): long tail of rare repeat hits."""

    kappa: float
    gamma: float

    def __post_init__(self):
        _number(self.kappa, "kappa", 0, above=True)
        _number(self.gamma, "gamma", 0, above=True)

    def hit_rate(self, capacity_gb: float) -> float:
        m = self._check_capacity(capacity_gb)
        return 1.0 - (1.0 + self.kappa * m) ** (-self.gamma)

    def marginal_hit_rate(self, capacity_gb: float) -> float:
        m = self._check_capacity(capacity_gb)
        # Where gamma * kappa overflows, the power can underflow to 0: inf * 0 is NaN.
        slope = self.gamma * self.kappa * (1.0 + self.kappa * m) ** (-self.gamma - 1.0)
        return _number(slope, "marginal hit rate")


@dataclass(frozen=True)
class EmpiricalHitRate(HitRateModel):
    """Piecewise-linear interpolation of measured (capacity, hit rate) points.

    Clamped to the first/last point outside the measured range; the
    simplest monotone-preserving interpolant, with no analytic derivative.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(_number(m, "capacities", 0)), h) for m, h in self.points)
        if not pts:
            raise ValueError("at least one point is required")
        caps = [m for m, _ in pts]
        if any(b <= a for a, b in zip(caps, caps[1:])):
            raise ValueError("capacities must be strictly increasing")
        if any(not 0 <= h <= 1 for _, h in pts):  # NaN fails, as does an int beyond float range
            raise ValueError("hit rates must lie in [0, 1]")
        object.__setattr__(self, "points", tuple((m, float(h)) for m, h in pts))

    def hit_rate(self, capacity_gb: float) -> float:
        m = self._check_capacity(capacity_gb)
        caps = [p[0] for p in self.points]
        rates = [p[1] for p in self.points]
        import numpy as np  # here, so that the closed forms launch without it

        return float(np.interp(m, caps, rates))


# ---------------------------------------------------------------------------
# Bandwidth <-> memory: deficit and communication cost
# ---------------------------------------------------------------------------


def memory_deficit(p: DeficitParams) -> float:
    """Model state (GB) that exceeds aggregate device memory; never negative."""
    return max(0.0, p.total_memory_gb - float(p.device_count) * p.device_memory_gb)


def comm_cost(p: DeficitParams) -> float:
    """Per-iteration communication in GB-equivalents.

    Standard synchronization (all-reduce factor times the synchronized
    state volume) plus the bandwidth spent compensating the memory
    deficit. A cost beyond float range is a ``ValueError``.
    """
    sync = float(p.allreduce_factor) * p.state_volume_gb
    return _number(sync + p.deficit_bandwidth_factor * memory_deficit(p), "comm_gb")


# ---------------------------------------------------------------------------
# Computation <-> bandwidth: the minimal-bandwidth frontier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierResult:
    """Minimal feasible bandwidth and the sample that achieves it."""

    bandwidth_bpp: float
    sample: RateComputeSample
    sample_index: int


def frontier_min_bandwidth(
    samples: Sequence[RateComputeSample],
    quality_target: float,
    compute_budget_flops: float,
) -> FrontierResult:
    """Minimal bandwidth among samples meeting quality within the budget.

    Operates on discrete measured samples only; no interpolation between
    them. Ties on bandwidth are broken toward lower compute, then input
    order.

    Raises :class:`Infeasible` when no sample satisfies both constraints,
    and ``ValueError`` for a non-finite quality target or a budget that is
    negative or not finite.
    """
    if not samples:
        raise ValueError("samples must be non-empty")
    _number(quality_target, "quality target")
    _number(compute_budget_flops, "compute budget", 0)
    best: FrontierResult | None = None
    for i, s in enumerate(samples):
        if s.quality < quality_target or s.compute_flops > compute_budget_flops:
            continue
        if (
            best is None
            or (s.bandwidth_bpp, s.compute_flops) < (best.bandwidth_bpp, best.sample.compute_flops)
        ):
            best = FrontierResult(s.bandwidth_bpp, s, i)
    if best is None:
        raise Infeasible(
            f"no sample reaches quality {quality_target} within "
            f"{compute_budget_flops:g} FLOPs"
        )
    return best


# ---------------------------------------------------------------------------
# Memory <-> computation: cache economics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheEconomics:
    """Expected per-request compute at one cache capacity, with breakdown."""

    capacity_gb: float
    hit_rate: float
    full_cost_flops: float
    reuse_savings_flops: float
    expected_saved_flops: float
    expected_cost_flops: float
    entry_count: int
    saved_flops_per_gb: float


def expected_compute(
    cost: CacheCostParams, model: HitRateModel, capacity_gb: float
) -> CacheEconomics:
    """Expected compute per request at the given capacity.

    Expected cost is ``full_cost - h(M) * reuse_savings``. Also reports
    the entry count storable at this capacity (floor of M / entry size)
    and the exchange rate of saved FLOPs per GB of cache (0 at M = 0).
    A result beyond float range is a ``ValueError`` that names it.
    """
    if capacity_gb < 0:
        raise NegativeCapacity(f"capacity must be >= 0, got {capacity_gb}")
    h = model.hit_rate(capacity_gb)
    full = cost.full_cost_flops
    saved = h * cost.reuse_savings_flops
    per_gb = _number(saved / capacity_gb, "saved_flops_per_gb") if capacity_gb > 0 else 0.0
    return CacheEconomics(
        capacity_gb=capacity_gb,
        hit_rate=h,
        full_cost_flops=full,
        reuse_savings_flops=cost.reuse_savings_flops,
        expected_saved_flops=saved,
        expected_cost_flops=full - saved,
        entry_count=int(_number(capacity_gb // cost.entry_size_gb, "entry_count")),
        saved_flops_per_gb=per_gb,
    )


def marginal_benefit(
    cost: CacheCostParams, model: HitRateModel, capacity_gb: float
) -> float:
    """Saved FLOPs per additional GB of cache: -d(expected cost)/dM.

    Requires a model with an analytic derivative (either closed-form
    family); raises :class:`NonDifferentiableModel` for empirical tables,
    and ``ValueError`` for a benefit beyond float range.
    """
    benefit = model.marginal_hit_rate(capacity_gb) * cost.reuse_savings_flops
    return _number(benefit, "marginal_flops_per_gb")


# ---------------------------------------------------------------------------
# Fitting the hit-rate families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """A fitted hit-rate model and its RMS residual in hit-rate units."""

    model: HitRateModel
    residual: float


# Only the fits use numpy, and each function here imports it where it
# runs, so that the closed forms above launch without it.

# Power-law fitting is a deterministic grid search plus local refinement,
# not a general nonlinear solver: 64 log-spaced kappa candidates around
# 1/median(capacity), then 20 step-halving passes.
_KAPPA_GRID_POINTS = 64
_KAPPA_GRID_SPAN = 1e6
_REFINEMENT_HALVINGS = 20


def _validate_fit_points(
    points: Sequence[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    name = "capacities and hit rates"
    caps = np.asarray([_number(m, name) for m, _ in points], dtype=float)
    rates = np.asarray([_number(h, name) for _, h in points], dtype=float)
    if len(points) < 3:
        raise DegeneratePoints("at least 3 points are required")
    if np.any(caps <= 0):
        raise DegeneratePoints("capacities must be positive")
    # Not np.unique, whose first call imports numpy.ma (about 12 ms).
    ordered = np.sort(caps)
    if (ordered[1:] == ordered[:-1]).any():
        raise DegeneratePoints("capacities must be distinct")
    if np.any(rates < 0) or np.any(rates > 1):
        raise ValueError("hit rates must lie in [0, 1]")
    if np.any(rates == 1.0):
        raise DegeneratePoints("hit rate of exactly 1 makes the log-transform undefined")
    if np.all(rates == 0.0):
        raise DegeneratePoints("all hit rates are zero; nothing to fit")
    return caps, rates


def _fit_exponential(caps, rates, entry_size_gb: float) -> ExponentialSaturation:
    import numpy as np

    # ln(1 - h) = -beta * M / s_e is linear through the origin. An entry
    # size that puts M / s_e out of float range leaves no finite beta.
    y = np.log1p(-rates)
    with np.errstate(all="ignore"):
        x = -caps / entry_size_gb
        beta = float(np.dot(x, y) / np.dot(x, x))
    if _number(beta, "beta fitted at this entry size") <= 0:
        raise DegeneratePoints("points do not show an increasing hit rate")
    return ExponentialSaturation(beta=beta, entry_size_gb=entry_size_gb)


def _power_law_gamma(caps, y, kappa: float) -> float:
    import numpy as np

    # With kappa fixed, ln(1 - h) = -gamma * ln(1 + kappa M) is linear
    # through the origin in u = ln(1 + kappa M).
    u = np.log1p(kappa * caps)
    return float(-np.dot(u, y) / np.dot(u, u))


def _power_law_residual(caps, rates, kappa: float, gamma: float) -> float:
    import numpy as np

    fitted = 1.0 - (1.0 + kappa * caps) ** (-gamma)
    return float(np.sqrt(np.mean((fitted - rates) ** 2)))


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of finite values, bit for bit, without
    the numpy.ma import of np.median's first call."""
    import numpy as np

    ordered = np.sort(values).tolist()
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _fit_power_law(caps, rates) -> tuple[PowerLaw, float]:
    import numpy as np

    y = np.log1p(-rates)
    scale = 1.0 / _median(caps)

    def evaluate(kappa: float) -> tuple[float, float]:
        # Where kappa * M overflows, or ln(1 + kappa M) underflows to 0,
        # gamma is not finite and kappa is no candidate.
        with np.errstate(all="ignore"):
            gamma = _power_law_gamma(caps, y, kappa)
            if not 0 < gamma < math.inf:
                return math.inf, gamma
            return _power_law_residual(caps, rates, kappa, gamma), gamma

    with np.errstate(all="ignore"):  # a scale out of float range leaves no candidate
        grid = np.geomspace(scale / _KAPPA_GRID_SPAN, scale * _KAPPA_GRID_SPAN, _KAPPA_GRID_POINTS)
    best_kappa, best_gamma, best_res = None, None, math.inf
    for kappa in grid:
        res, gamma = evaluate(kappa)
        if res < best_res:
            best_kappa, best_gamma, best_res = float(kappa), gamma, res
    if best_kappa is None:
        raise DegeneratePoints("points do not show an increasing hit rate")

    # Local refinement: halve the log-step of the grid repeatedly, moving
    # to a neighbor whenever it improves the residual.
    log_step = math.log(_KAPPA_GRID_SPAN**2) / (_KAPPA_GRID_POINTS - 1)
    for _ in range(_REFINEMENT_HALVINGS):
        log_step /= 2.0
        moved = True
        while moved:
            moved = False
            for candidate in (best_kappa * math.exp(log_step), best_kappa * math.exp(-log_step)):
                res, gamma = evaluate(candidate)
                if not gamma < math.inf:
                    # Better fits lie ever closer to kappa = 0 or infinity:
                    # the points pin down no power law.
                    raise DegeneratePoints("points do not determine a power law: "
                                           "its best kappa leaves float range")
                if res < best_res:
                    best_kappa, best_gamma, best_res = candidate, gamma, res
                    moved = True
    return PowerLaw(kappa=best_kappa, gamma=best_gamma), best_res


def fit_hit_rate(
    points: Sequence[tuple[float, float]],
    family: type[HitRateModel],
    entry_size_gb: float = 1.0,
) -> FitResult:
    """Least-squares fit of one closed-form family to measured points.

    ``points`` are (capacity GB, hit rate) pairs, at least three, with
    positive distinct capacities and rates in [0, 1). ``entry_size_gb``
    parameterizes the exponential family only, but must be positive and
    finite for every family. The returned residual is the RMS misfit in
    hit-rate units.

    Raises :class:`DegeneratePoints` for fewer than three points, a
    capacity that is not positive, a repeated capacity, a rate equal to
    1, or all rates 0, and ``ValueError`` for a capacity or rate that is
    not finite, a rate outside [0, 1], an entry size that is not positive
    and finite, an unsupported family, or an exponential fit that leaves
    no finite beta.
    """
    import numpy as np

    caps, rates = _validate_fit_points(points)
    _number(entry_size_gb, "entry_size_gb", 0, above=True)
    if family is ExponentialSaturation:
        model = _fit_exponential(caps, rates, entry_size_gb)
        fitted = np.array([model.hit_rate(m) for m in caps])
        residual = float(np.sqrt(np.mean((fitted - rates) ** 2)))
        return FitResult(model=model, residual=residual)
    if family is PowerLaw:
        model, residual = _fit_power_law(caps, rates)
        return FitResult(model=model, residual=residual)
    raise ValueError(f"unsupported family: {family!r}")
