"""Trace replay, capacity sweeps, and curve fitting.

``replay`` drives one cache through a trace in timestamp order and
accounts the realized economics: every hit at depth r saves
r * step_cost FLOPs against a full cost of total_steps * step_cost per
request. ``sweep`` repeats the replay over a capacity ladder with a
fresh cache per point, yielding the hit-rate-versus-capacity curve, and
``fit_curve`` fits the closed-form hit-rate families to it.

Identical trace and config bytes give identical reports, CSV output
included, with the same numpy build and BLAS kernel.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_string
from typing import TYPE_CHECKING, Mapping, Sequence

from . import _EXPORTS
from ._forkmap import fork_map
from ._formats import CurvePoint, curve_to_csv, read_curve_csv, write_curve_csv
from .cache import (
    DEFAULT_LATENT_BYTES,
    DEFAULT_POLICY,
    DEFAULT_STORED_DEPTHS,
    RESOLUTIONS,
    ReuseDepthPolicy,
    _checked_rows,
    _entry_sizes,
    _ReplayCache,
    _whole_bytes,
)
from .errors import EntryTooLarge, _number
from .workload import Trace

if TYPE_CHECKING:
    from .models import FitResult, HitRateModel

__all__ = list(_EXPORTS["sim"])


def _default_step_costs() -> dict[str, float]:
    return {res: 1e9 for res in DEFAULT_LATENT_BYTES}


@dataclass(frozen=True)
class SimConfig:
    """Replay parameters: cache geometry, costs, and matching switches.

    ``insert_on_hit`` also caches the incoming request on a hit instead
    of only refreshing the matched entry. ``cross_resolution_match``
    lets a query match entries of any resolution; off by default, since
    a latent of the wrong resolution cannot be resumed from directly.
    Both per-resolution maps must cover every entry of ``RESOLUTIONS``.
    The capacity is kept in whole bytes, as the cache counts it.
    """

    capacity_bytes: int
    policy: ReuseDepthPolicy = DEFAULT_POLICY
    stored_depths: tuple[int, ...] = DEFAULT_STORED_DEPTHS
    total_steps: int = 50
    step_cost_by_resolution: Mapping[str, float] = field(default_factory=_default_step_costs)
    latent_bytes_by_resolution: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENT_BYTES)
    )
    insert_on_hit: bool = False
    cross_resolution_match: bool = False

    def __post_init__(self):
        object.__setattr__(self, "capacity_bytes", _whole_bytes(self.capacity_bytes))
        _number(self.total_steps, "total_steps", 1, whole=True)
        depths, _ = _entry_sizes(self.stored_depths, self.latent_bytes_by_resolution)
        if depths[-1] > self.total_steps:
            raise ValueError("max stored depth exceeds total_steps")
        allowed = set(depths) | {0}
        for _, d in self.policy.bands:
            if d not in allowed:
                raise ValueError(f"policy depth {d} not in stored_depths")
        missing = [res for res in RESOLUTIONS if res not in self.step_cost_by_resolution]
        if missing:
            raise ValueError(f"step_cost_by_resolution lacks {', '.join(missing)}")
        for res, c in self.step_cost_by_resolution.items():
            _number(c, f"step cost for {res}", 0, above=True)
        object.__setattr__(self, "stored_depths", depths)
        object.__setattr__(self, "step_cost_by_resolution", dict(self.step_cost_by_resolution))
        object.__setattr__(
            self, "latent_bytes_by_resolution", dict(self.latent_bytes_by_resolution)
        )

    def with_capacity(self, capacity_bytes: int) -> "SimConfig":
        return replace(self, capacity_bytes=capacity_bytes)


@dataclass(frozen=True)
class PerRequestRecord:
    """Outcome of one replayed request.

    ``outcome`` is "hit", "miss", or "too_large" (a single entry larger
    than the whole cache; treated as a miss that cannot populate).
    ``evicted`` lists entry ids displaced by this request's insert.
    """

    request_id: str
    outcome: str
    matched_id: int | None
    similarity: float | None
    depth: int
    saved_flops: float
    evicted: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "outcome": self.outcome,
            "matched_id": self.matched_id,
            "similarity": self.similarity,
            "depth": self.depth,
            "saved_flops": self.saved_flops,
            "evicted": list(self.evicted),
        }

    def _json(self) -> str:
        """``json.dumps(self.to_dict())``, written without building the dict
        or setting up an encoder, in half the time. It names the fields of
        ``to_dict`` in the same order; a test compares the two."""
        value = _json_value
        return (
            f'{{"request_id": {value(self.request_id)}, "outcome": {value(self.outcome)}, '
            f'"matched_id": {value(self.matched_id)}, "similarity": {value(self.similarity)}, '
            f'"depth": {value(self.depth)}, "saved_flops": {value(self.saved_flops)}, '
            f'"evicted": [{", ".join(map(value, self.evicted))}]}}'
        )


def _json_value(x) -> str:
    """``json.dumps(x)``: a str, int, finite float or None directly, other
    values through ``json.dumps`` itself."""
    kind = type(x)
    if kind is str:
        return _json_string(x)
    if kind is int:
        return int.__repr__(x)
    if kind is float and -math.inf < x < math.inf:
        return float.__repr__(x)
    if x is None:
        return "null"
    return json.dumps(x)


@dataclass(frozen=True)
class ReplaySummary:
    requests: int
    hits: int
    hit_rate: float
    mean_depth_over_hits: float
    total_saved_flops: float
    total_full_flops: float
    expected_cost_flops: float
    peak_occupied_bytes: int
    evictions: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReplayReport:
    """Aggregate replay outcome plus the optional per-request log."""

    capacity_bytes: int
    summary: ReplaySummary
    per_request: tuple[PerRequestRecord, ...] | None

    def to_dict(self, include_records: bool = True) -> dict:
        doc = {
            "capacity_bytes": self.capacity_bytes,
            "summary": self.summary.to_dict(),
        }
        if include_records and self.per_request is not None:
            doc["per_request"] = [r.to_dict() for r in self.per_request]
        return doc


def replay(trace: Trace, config: SimConfig, keep_records: bool = True) -> ReplayReport:
    """Run the trace through one cache at the configured capacity.

    Per request: look up; on a hit, credit depth * step_cost saved
    FLOPs (and optionally insert, per ``insert_on_hit``); on a miss,
    insert. Entries that alone exceed the cache budget yield the
    "too_large" outcome: a miss with no insert. Set ``keep_records``
    False to skip the per-request log in long sweeps. A trace whose
    full cost overflows float range is a ``ValueError``, as is one with a
    request whose own full cost does; an embedding that ``normalize``
    rejects raises its error before the first request.
    """
    # Checked here, once per replay, not kept on the trace: its array may
    # have been made writable and changed since the last replay.
    rows = _checked_rows(trace.embeddings)
    cache = _ReplayCache(
        capacity_bytes=config.capacity_bytes,
        dim=trace.dimension,
        policy=config.policy,
        match_same_resolution=not config.cross_resolution_match,
        stored_depths=config.stored_depths,
        latent_bytes=config.latent_bytes_by_resolution,
    )
    records: list[PerRequestRecord] = []
    hits = 0
    depth_sum = 0
    total_saved = 0.0
    total_full = 0.0
    peak = 0
    # One request's full cost at each resolution the trace uses, checked
    # once: it bounds what any one request adds to a total, so no sum below
    # meets an int beyond float range.
    full_cost = {res: _number(config.total_steps * config.step_cost_by_resolution[res],
                              "total_full_flops")
                 for res in dict.fromkeys(trace.resolutions)}
    # Bound once per replay: every call still goes through whatever
    # CacheState.lookup/insert are when the replay starts, wrappers included.
    lookup, insert = cache.lookup, cache.insert

    for rid, emb, res in zip(trace.request_ids, rows, trace.resolutions):
        step_cost = config.step_cost_by_resolution[res]
        total_full += full_cost[res]

        found = lookup(emb, res)
        evicted: tuple[int, ...] = ()
        if found.hit:
            outcome = "hit"
            saved = found.depth * step_cost
            hits += 1
            depth_sum += found.depth
            total_saved += saved
            if config.insert_on_hit:
                try:
                    evicted = tuple(insert(emb, res)[1])
                except EntryTooLarge:
                    pass
        else:
            saved = 0.0
            try:
                evicted = tuple(insert(emb, res)[1])
                outcome = "miss"
            except EntryTooLarge:
                outcome = "too_large"
        if cache.occupied_bytes > peak:
            peak = cache.occupied_bytes
        if keep_records:
            records.append(
                PerRequestRecord(
                    request_id=rid,
                    outcome=outcome,
                    matched_id=found.matched_id,
                    similarity=found.similarity,
                    depth=found.depth,
                    saved_flops=saved,
                    evicted=evicted,
                )
            )

    # The full cost bounds every other total and each record's saved FLOPs.
    _number(total_full, "total_full_flops")
    n = len(trace)
    summary = ReplaySummary(
        requests=n,
        hits=hits,
        hit_rate=hits / n if n else 0.0,
        mean_depth_over_hits=depth_sum / hits if hits else 0.0,
        total_saved_flops=total_saved,
        total_full_flops=total_full,
        expected_cost_flops=total_full - total_saved,
        peak_occupied_bytes=peak,
        evictions=cache.evictions,
    )
    return ReplayReport(
        capacity_bytes=config.capacity_bytes,
        summary=summary,
        per_request=tuple(records) if keep_records else None,
    )


# ---------------------------------------------------------------------------
# Capacity sweeps
# ---------------------------------------------------------------------------


def _sweep_point(trace: Trace, config: SimConfig, capacity: int) -> CurvePoint:
    report = replay(trace, config.with_capacity(capacity), keep_records=False)
    s = report.summary
    return CurvePoint(
        capacity_bytes=capacity,
        hit_rate=s.hit_rate,
        saved_flops=s.total_saved_flops,
        expected_cost_flops=s.expected_cost_flops,
    )


def sweep(
    trace: Trace,
    config: SimConfig,
    capacities: Sequence[int],
    jobs: int = 1,
) -> list[CurvePoint]:
    """Replay the trace once per capacity with a fresh cache each time.

    Rows come back ordered by capacity ascending regardless of
    completion order. ``jobs`` > 1 shares the points among up to that
    many processes, this one and forked workers, where fork is available
    and the caller is neither daemonic nor running other threads; results
    are identical either way. ``jobs`` below 1, not finite or
    fractional is a ``ValueError``.
    """
    _number(jobs, "jobs", 1, whole=True, rule="at least 1, finite and whole")
    if not capacities:
        raise ValueError("capacities must be non-empty")
    caps = [_whole_bytes(c) for c in capacities]
    if len(set(caps)) != len(caps):
        raise ValueError("capacities must be distinct")
    caps.sort()
    return fork_map(functools.partial(_sweep_point, trace, config), caps, int(jobs))


def fit_curve(
    curve: Sequence[CurvePoint],
    family: type[HitRateModel],
    entry_size_gb: float = 1.0,
) -> FitResult:
    """Fit a hit-rate family to sweep output; see ``fit_hit_rate``."""
    from .models import fit_hit_rate  # only a fit needs the models and numpy

    points = [(p.capacity_gb, p.hit_rate) for p in curve]
    return fit_hit_rate(points, family, entry_size_gb=entry_size_gb)

