"""Approximate latent cache with similarity-graded reuse.

Entries hold denoising latents for a request, snapshotted at several
step depths. A lookup embeds the incoming request, finds the most
similar stored entry by cosine similarity, and maps that similarity to
a reuse depth: the closer the match, the later the snapshot we can
safely resume from, and the more denoising steps are skipped. A depth
of zero is a miss.

Capacity is a byte budget; eviction is LRU over logical ticks that
advance on every lookup and insert, so recency is well defined without
wall clocks. Recency is unique among resident entries, so it settles
every tie on its own, which keeps replays bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, EntryTooLarge, NonFiniteEmbedding, ZeroNormEmbedding

__all__ = [
    "RESOLUTIONS",
    "DEFAULT_LATENT_BYTES",
    "DEFAULT_STORED_DEPTHS",
    "DEFAULT_POLICY",
    "DEFAULT_DIM",
    "normalize",
    "ReuseDepthPolicy",
    "CacheEntry",
    "LookupResult",
    "CacheState",
]

RESOLUTIONS: tuple[str, ...] = ("720p", "1080p", "2k")

# Per-step latent footprints in bytes (GB = 1e9 bytes throughout).
DEFAULT_LATENT_BYTES: dict[str, int] = {
    "720p": 16_000_000,
    "1080p": 40_000_000,
    "2k": 70_000_000,
}

# Snapshot depths kept per entry; an entry's byte size is
# len(stored_depths) * latent_bytes[resolution].
DEFAULT_STORED_DEPTHS: tuple[int, ...] = (5, 10, 15, 20, 25)

DEFAULT_DIM = 768

_RES_CODE = {res: code for code, res in enumerate(RESOLUTIONS)}


# How far from unit norm a vector may be and still pass through
# normalize (and Trace) undivided.
_UNIT_TOL = 1e-9


def normalize(vec) -> np.ndarray:
    """Return ``vec`` as a unit-norm float64 vector.

    Vectors already within 1e-9 of unit norm are passed through
    undivided, so normalizing twice is the identity bit-for-bit; a
    float64 array already within 1e-9 is returned as is, not copied.
    The input is never modified. Raises :class:`ZeroNormEmbedding` for
    the zero vector and :class:`NonFiniteEmbedding` when the norm is
    NaN or infinite.
    """
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {arr.shape}")
    # np.linalg.norm computes exactly this for real 1-d input.
    norm = math.sqrt(arr.dot(arr))
    if not math.isfinite(norm):
        raise NonFiniteEmbedding("embedding has a non-finite norm")
    if norm == 0.0:
        raise ZeroNormEmbedding("cannot normalize the zero vector")
    if abs(norm - 1.0) > _UNIT_TOL:
        arr = arr / norm
    return arr


# A row is certified when its norm, computed in bulk, is within
# _CERTIFY_TOL of 1. Higham (Accuracy and Stability of Numerical
# Algorithms, ch. 3) bounds a d-term dot product computed in any order,
# FMA or not, by |s - S| <= gamma_d * S, where S is the exact sum of
# squares and gamma_d = d u / (1 - d u), u = 2**-53; underflow adds at
# most d * 2**-1075 in all, nothing beside S near 1. The bulk sum
# and normalize's ``dot`` thus differ by a factor within
# (1 +- gamma_d) / (1 -+ gamma_d), their square roots by about gamma_d,
# and the two correctly rounded ``sqrt`` calls by 2u more. Up to
# _CERTIFY_MAX_DIM = 2**20, gamma_d < 1.2e-10, so a bulk norm within
# 5e-10 of 1 puts normalize's norm within 6.3e-10 of 1, inside its
# _UNIT_TOL (and ``norm - 1.0`` is exact there, by Sterbenz's lemma).
# Wider rows are never certified.
_CERTIFY_TOL = 5e-10
_CERTIFY_MAX_DIM = 2**20


def _checked_rows(matrix: np.ndarray) -> list:
    """``[normalize(row) for row in matrix]`` of a 2-d matrix, bit for bit,
    raising what it raises for the first row it rejects. One vectorized
    norm pass certifies rows, which come back as the matrix's own rows
    without a call; only the others go through ``normalize``."""
    if matrix.dtype != np.float64 or matrix.shape[1] > _CERTIFY_MAX_DIM:
        return [normalize(row) for row in matrix]  # normalize copies these, or may divide them
    with np.errstate(all="ignore"):  # a huge or non-finite row is just not certified
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    rows = list(matrix)
    for i in np.flatnonzero(~(np.abs(norms - 1.0) <= _CERTIFY_TOL)).tolist():
        rows[i] = normalize(rows[i])
    return rows


def _whole_bytes(capacity_bytes) -> int:
    """``int(capacity_bytes)``, checked first: NaN, infinite or negative
    capacities are a ``ValueError``."""
    if not 0 <= capacity_bytes < math.inf:
        raise ValueError("capacity_bytes must be nonnegative and finite")
    return int(capacity_bytes)


def _entry_sizes(stored_depths, latent_bytes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted depths and each entry size in whole bytes, indexed by resolution
    code: the one check of ``SimConfig``'s and ``CacheState``'s geometry.
    Written so that NaN fails each check."""
    if not all(1 <= d < math.inf for d in stored_depths):
        raise ValueError("stored depths must be at least 1 and finite")
    if any(d % 1 for d in stored_depths):
        raise ValueError("stored depths must be whole")
    depths = tuple(sorted(int(d) for d in stored_depths))
    if not depths:
        raise ValueError("stored_depths must be non-empty")
    if len(set(depths)) != len(depths):
        raise ValueError("stored depths must be distinct")
    missing = [res for res in RESOLUTIONS if res not in latent_bytes]
    if missing:
        raise ValueError(f"latent_bytes lacks {', '.join(missing)}")
    for res, b in latent_bytes.items():
        if not 1 <= b < math.inf:
            raise ValueError(f"latent size for {res} must be positive and finite, >= 1 byte")
    return depths, tuple(len(depths) * int(latent_bytes[res]) for res in RESOLUTIONS)


@dataclass(frozen=True)
class ReuseDepthPolicy:
    """Maps cosine similarity to reuse depth via threshold bands.

    ``bands`` are (exclusive lower bound, depth) pairs with strictly
    decreasing bounds; a similarity falls into the first band whose
    bound it exceeds, and below every bound the depth is 0.
    """

    bands: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not all(-math.inf < x < math.inf for band in self.bands for x in band):  # NaN fails
            raise ValueError("band bounds and depths must be finite")
        if any(d % 1 for _, d in self.bands):
            raise ValueError("band depths must be whole")
        bands = tuple((float(t), int(d)) for t, d in self.bands)
        if not bands:
            raise ValueError("at least one band is required")
        bounds = [t for t, _ in bands]
        depths = [d for _, d in bands]
        if any(bounds[i] <= bounds[i + 1] for i in range(len(bounds) - 1)):
            raise ValueError("band bounds must be strictly decreasing")
        if any(d < 0 for d in depths):
            raise ValueError("depths must be nonnegative")
        if any(depths[i] < depths[i + 1] for i in range(len(depths) - 1)):
            raise ValueError("depths must be nonincreasing as bounds decrease")
        object.__setattr__(self, "bands", bands)

    def depth_for(self, similarity: float) -> int:
        for bound, depth in self.bands:
            if similarity > bound:
                return depth
        return 0


DEFAULT_POLICY = ReuseDepthPolicy(
    bands=((0.95, 25), (0.90, 20), (0.85, 15), (0.75, 10), (0.65, 5))
)


@dataclass
class CacheEntry:
    """Snapshot of one cached request: embedding, footprint, recency."""

    entry_id: int
    embedding: np.ndarray
    resolution: str
    byte_size: int
    stored_depths: tuple[int, ...]
    last_used: int


class LookupResult(NamedTuple):
    """Outcome of one lookup.

    ``depth`` > 0 means a hit at that reuse depth. ``similarity`` and
    ``matched_id`` describe the best candidate even when its similarity
    was too low to count as a hit; both are None when no entry was a
    candidate.
    """

    hit: bool
    depth: int
    similarity: float | None
    matched_id: int | None
    tick: int


class _Partition:
    """Packed rows of the entries one lookup scores; rows [0, n) are live.

    ``lru`` is the row of the least recently used live entry, or None
    when unknown, and ``lru_used`` is that entry's ``last_used``. It
    stays valid across appends, since a new entry is always the most
    recent, and is forgotten when rows move or when a hit refreshes
    that row.
    """

    COLUMNS = ("emb", "ids", "last_used", "res")

    def __init__(self, dim: int):
        self.n = 0
        self.lru = self.lru_used = None
        self.emb = np.zeros((64, dim))
        self.ids, self.last_used = np.zeros((2, 64), dtype=np.int64)
        self.res = np.zeros(64, dtype=np.int8)  # index into RESOLUTIONS

    def append(self, emb, entry_id: int, last_used: int, res: int) -> None:
        row = self.n
        if row == len(self.ids):
            for name in self.COLUMNS:
                arr = getattr(self, name)
                setattr(self, name, np.resize(arr, (2 * row,) + arr.shape[1:]))
        self.emb[row] = emb
        self.ids[row] = entry_id
        self.last_used[row] = last_used
        self.res[row] = res
        self.n = row + 1

    def swap_remove(self, row: int) -> None:
        self.n = last = self.n - 1
        self.lru = None
        if row != last:
            self.emb[row] = self.emb[last]
            self.ids[row] = self.ids[last]
            self.last_used[row] = self.last_used[last]
            self.res[row] = self.res[last]


class CacheState:
    """Byte-budgeted LRU cache over unit-norm embeddings.

    The packed arrays are the only state. Entries are split into one
    partition per resolution when ``match_same_resolution`` is set, and
    into a single partition otherwise, so a lookup scores its query's
    partition with one matrix-vector product. Evicted rows are
    swap-removed so each partition stays contiguous.

    A logical tick counter advances on every lookup and on every
    successful insert; the operation is stamped with the pre-advance
    value. Every tick stamps at most one entry, so ``last_used`` is
    unique among resident entries: among equal similarities the most
    recently used entry wins, and eviction removes the least recently
    used entry across all partitions, with no further tie-break needed.
    An entry's size is ``len(stored_depths) * int(latent_bytes[resolution])``
    bytes; ``_entry_sizes`` checks both, and ``_whole_bytes`` the capacity.

    ``lookup`` and ``insert`` pass their embedding through ``normalize``
    and check its width (``_check_vec``).
    """

    def __init__(
        self,
        capacity_bytes: int,
        dim: int = DEFAULT_DIM,
        policy: ReuseDepthPolicy = DEFAULT_POLICY,
        match_same_resolution: bool = True,
        stored_depths: Sequence[int] = DEFAULT_STORED_DEPTHS,
        latent_bytes: Mapping[str, int] = DEFAULT_LATENT_BYTES,
    ):
        self.capacity_bytes = _whole_bytes(capacity_bytes)
        if not 1 <= dim < math.inf:
            raise ValueError("dim must be at least 1 and finite")
        if dim % 1:
            raise ValueError("dim must be whole")
        self.dim = int(dim)
        self.policy = policy
        self.stored_depths, self._entry_size = _entry_sizes(stored_depths, latent_bytes)
        self.tick = 0
        self.occupied_bytes = 0
        self.evictions = 0
        self._next_id = 0
        if match_same_resolution:
            self._parts = [_Partition(self.dim) for _ in RESOLUTIONS]
            self._part_of = dict(zip(RESOLUTIONS, self._parts))
        else:
            self._parts = [_Partition(self.dim)]
            self._part_of = dict.fromkeys(RESOLUTIONS, self._parts[0])

    def __len__(self) -> int:
        return sum(part.n for part in self._parts)

    def _partition(self, resolution: str) -> _Partition:
        try:
            return self._part_of[resolution]
        except KeyError:
            raise ValueError(f"unknown resolution {resolution!r}") from None

    def _check_vec(self, embedding) -> np.ndarray:
        vec = normalize(embedding)
        if vec.shape[0] != self.dim:
            raise DimensionMismatch(f"expected dimension {self.dim}, got {vec.shape[0]}")
        return vec

    def entry_byte_size(self, resolution: str) -> int:
        """An entry's footprint: one latent per stored depth."""
        self._partition(resolution)
        return self._entry_size[_RES_CODE[resolution]]

    def resident(self) -> dict[int, CacheEntry]:
        """Snapshots of the resident entries, keyed and ordered by id."""
        rows = sorted((int(p.ids[r]), p, r) for p in self._parts for r in range(p.n))
        return {
            i: CacheEntry(i, p.emb[r].copy(), RESOLUTIONS[p.res[r]], self._entry_size[p.res[r]],
                          self.stored_depths, int(p.last_used[r]))
            for i, p, r in rows
        }

    # -- core operations ----------------------------------------------------

    def lookup(self, embedding, resolution: str) -> LookupResult:
        """Score the query against its partition and grade the best match.

        Always consumes one tick. A hit refreshes the matched entry's
        recency; a below-threshold best match does not.
        """
        vec = self._check_vec(embedding)
        part = self._partition(resolution)
        tick = self.tick
        self.tick += 1

        n = part.n
        if n == 0:
            # LookupResult._make skips the argument parsing of the generated __new__.
            return LookupResult._make((False, 0, None, None, tick))
        # ndarray.dot is the same BLAS matvec as ``@`` without the ufunc dispatch.
        sims = part.emb[:n].dot(vec)
        row = sims.argmax()
        if n - 1 - sims[::-1].argmax() != row:  # the first and last maxima differ: a tie
            tied = np.flatnonzero(sims == sims[row])
            row = tied[part.last_used[tied].argmax()]
        best_sim = sims.item(row)
        matched_id = part.ids.item(row)

        depth = self.policy.depth_for(best_sim)
        if depth > 0:
            part.last_used[row] = tick
            if row == part.lru:
                part.lru = None
            return LookupResult._make((True, depth, best_sim, matched_id, tick))
        return LookupResult._make((False, 0, best_sim, matched_id, tick))

    def insert(self, embedding, resolution: str) -> tuple[int, list[int]]:
        """Add an entry of ``entry_byte_size(resolution)`` bytes, evicting
        LRU victims until it fits.

        Returns the new entry's id and the ids evicted by this insert,
        in eviction order; the embedding is copied into the cache.
        Raises :class:`EntryTooLarge` before consuming a tick or evicting
        anything when the entry alone exceeds the budget.
        """
        vec = self._check_vec(embedding)
        part = self._partition(resolution)
        code = _RES_CODE[resolution]
        byte_size = self._entry_size[code]
        if byte_size > self.capacity_bytes:
            raise EntryTooLarge(
                f"entry of {byte_size} bytes exceeds capacity {self.capacity_bytes} bytes"
            )
        tick = self.tick
        self.tick += 1

        evicted = []
        while self.occupied_bytes + byte_size > self.capacity_bytes:
            evicted.append(self._evict_one())

        entry_id = self._next_id
        self._next_id += 1
        part.append(vec, entry_id, tick, code)
        self.occupied_bytes += byte_size
        return entry_id, evicted

    def _evict_one(self) -> int:
        """Remove the least recently used entry of any partition; return its id.

        Only partitions that do not remember their LRU row rescan for it.
        """
        victim = None
        for part in self._parts:
            if part.n:
                if part.lru is None:
                    part.lru = row = part.last_used[: part.n].argmin()
                    part.lru_used = part.last_used.item(row)
                if victim is None or part.lru_used < victim.lru_used:
                    victim = part
        row = victim.lru
        victim_id = victim.ids.item(row)
        self.occupied_bytes -= self._entry_size[victim.res.item(row)]
        victim.swap_remove(row)
        self.evictions += 1
        return victim_id


class _ReplayCache(CacheState):
    """``replay``'s cache, which takes each embedding as already checked:
    a row of its width that :func:`_checked_rows` returned."""

    def _check_vec(self, embedding) -> np.ndarray:
        return embedding
