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
every tie on its own, which keeps replays bit-reproducible. Each
resident entry is one record, shared by the packed partition row that
lookups score and by one ordered recency index, least recently used
first, so a hit moves its entry to the end and an eviction takes the
head, each in O(1).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import _EXPORTS
from ._formats import DEFAULT_DIM, RESOLUTIONS
from .errors import DimensionMismatch, EntryTooLarge, NonFiniteEmbedding, ZeroNormEmbedding
from .errors import _number, _size

__all__ = list(_EXPORTS["cache"])

# Per-step latent footprints in bytes (GB = 1e9 bytes throughout).
DEFAULT_LATENT_BYTES: dict[str, int] = {
    "720p": 16_000_000,
    "1080p": 40_000_000,
    "2k": 70_000_000,
}

# Snapshot depths kept per entry; an entry's byte size is
# len(stored_depths) * latent_bytes[resolution].
DEFAULT_STORED_DEPTHS: tuple[int, ...] = (5, 10, 15, 20, 25)

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
    """``int(capacity_bytes)`` of a capacity ``_number`` takes as nonnegative."""
    return int(_number(capacity_bytes, "capacity_bytes", 0))


def _entry_sizes(stored_depths, latent_bytes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted depths and each entry size in whole bytes, indexed by resolution
    code: the one check of ``SimConfig``'s and ``CacheState``'s geometry."""
    depths = tuple(sorted(int(_number(d, "stored depths", 1, whole=True)) for d in stored_depths))
    if not depths:
        raise ValueError("stored_depths must be non-empty")
    if len(set(depths)) != len(depths):
        raise ValueError("stored depths must be distinct")
    missing = [res for res in RESOLUTIONS if res not in latent_bytes]
    if missing:
        raise ValueError(f"latent_bytes lacks {', '.join(missing)}")
    for res, b in latent_bytes.items():
        _number(b, f"latent size for {res}", 1, rule="positive and finite, >= 1 byte")
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
        for band in self.bands:
            for x in band:
                _number(x, "band bounds and depths")
        bands = tuple((float(t), int(_number(d, "band depths", whole=True))) for t, d in self.bands)
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
        # Ascending bounds, and the depth of each count of bounds below a
        # similarity: bisect_left counts the bounds strictly below it (none
        # for NaN), so a similarity on a bound gets the band under it.
        object.__setattr__(self, "_bounds", tuple(bounds[::-1]))
        object.__setattr__(self, "_depths", (0, *depths[::-1]))

    def depth_for(self, similarity: float) -> int:
        return self._depths[bisect_left(self._bounds, similarity)]


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
    """The entries one lookup scores: row ``r`` of ``emb`` is the embedding
    of the entry whose record is ``entries[r]``, so rows
    [0, len(entries)) are live."""

    def __init__(self, dim: int):
        self.emb = np.zeros((64, dim))
        self.entries: list[list] = []

    def append(self, emb, record: list) -> None:
        """Add a row after the live ones, and set ``record``'s row to it."""
        record[1] = row = len(self.entries)
        if row == len(self.emb):
            self.emb = np.resize(self.emb, (2 * row, self.emb.shape[1]))
        self.emb[row] = emb
        self.entries.append(record)

    def swap_remove(self, row: int) -> None:
        """Drop ``row`` by moving the last live row, and its record, into it."""
        last = self.entries.pop()
        if last[1] != row:
            self.emb[row] = self.emb[last[1]]
            self.entries[row] = last
            last[1] = row


class CacheState:
    """Byte-budgeted LRU cache over unit-norm embeddings.

    Embeddings live in packed arrays, one partition per resolution when
    ``match_same_resolution`` is set and a single partition otherwise,
    so a lookup scores its query's partition with one matrix-vector
    product. Evicted rows are swap-removed so each partition stays
    contiguous. Each resident entry is one record,
    ``[partition, row, last_used, code, entry_id]`` (``code`` indexes
    ``RESOLUTIONS``), held both by its partition, at its row, and by
    ``_lru``, an ordered index from entry id, least recently used first:
    a hit moves its entry to the end, an eviction pops the head, and a
    swap-remove sets the row of the record it moved.

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
        self.dim = int(_size(dim, "dim", 1))
        if self.dim >= 2**54:  # a first partition of 64 float64 rows reaches 2**63 bytes
            raise ValueError("dim must be below 2**54")
        self.policy = policy
        self.stored_depths, self._entry_size = _entry_sizes(stored_depths, latent_bytes)
        self.tick = 0
        self.occupied_bytes = 0
        self.evictions = 0
        self._next_id = 0
        self._lru: OrderedDict[int, list] = OrderedDict()
        if match_same_resolution:
            self._parts = [_Partition(self.dim) for _ in RESOLUTIONS]
        else:
            self._parts = [_Partition(self.dim)]
        # Each resolution's partition and code, reached with one dict access;
        # without same-resolution matching, the one partition serves every code.
        self._part_of = {res: (self._parts[code % len(self._parts)], code)
                         for res, code in _RES_CODE.items()}

    def __len__(self) -> int:
        return len(self._lru)

    def _check_vec(self, embedding) -> np.ndarray:
        vec = normalize(embedding)
        if vec.shape[0] != self.dim:
            raise DimensionMismatch(f"expected dimension {self.dim}, got {vec.shape[0]}")
        return vec

    def entry_byte_size(self, resolution: str) -> int:
        """An entry's footprint: one latent per stored depth."""
        if resolution not in _RES_CODE:
            raise ValueError(f"unknown resolution {resolution!r}")
        return self._entry_size[_RES_CODE[resolution]]

    def resident(self) -> dict[int, CacheEntry]:
        """Snapshots of the resident entries, keyed and ordered by id."""
        entries = {}
        for i in sorted(self._lru):
            p, r, last_used, code, _ = self._lru[i]
            entries[i] = CacheEntry(i, p.emb[r].copy(), RESOLUTIONS[code],
                                    self._entry_size[code], self.stored_depths, last_used)
        return entries

    # -- core operations ----------------------------------------------------

    def lookup(self, embedding, resolution: str) -> LookupResult:
        """Score the query against its partition and grade the best match.

        Always consumes one tick. A hit refreshes the matched entry's
        recency; a below-threshold best match does not.
        """
        vec = self._check_vec(embedding)
        try:
            part = self._part_of[resolution][0]
        except KeyError:
            raise ValueError(f"unknown resolution {resolution!r}") from None
        tick = self.tick
        self.tick += 1

        entries = part.entries
        n = len(entries)
        if n == 0:
            # LookupResult._make skips the argument parsing of the generated __new__.
            return LookupResult._make((False, 0, None, None, tick))
        # ndarray.dot is the same BLAS matvec as ``@`` without the ufunc dispatch.
        sims = part.emb[:n].dot(vec)
        row = sims.argmax()
        if n - 1 - sims[::-1].argmax() != row:  # the first and last maxima differ: a tie
            tied = np.flatnonzero(sims == sims[row]).tolist()
            row = max(tied, key=lambda r: entries[r][2])
        best_sim = sims.item(row)
        record = entries[row]
        matched_id = record[4]

        depth = self.policy.depth_for(best_sim)
        if depth > 0:
            record[2] = tick
            self._lru.move_to_end(matched_id)
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
        try:
            part, code = self._part_of[resolution]
        except KeyError:
            raise ValueError(f"unknown resolution {resolution!r}") from None
        byte_size = self._entry_size[code]
        if byte_size > self.capacity_bytes:
            raise EntryTooLarge(
                f"entry of {byte_size} bytes exceeds capacity {self.capacity_bytes} bytes"
            )
        tick = self.tick
        self.tick += 1

        lru = self._lru
        evicted = []
        occupied = self.occupied_bytes + byte_size
        while occupied > self.capacity_bytes:
            victim_id, (victim, row, _, victim_code, _) = lru.popitem(last=False)
            occupied -= self._entry_size[victim_code]
            victim.swap_remove(row)
            evicted.append(victim_id)
        self.evictions += len(evicted)
        self.occupied_bytes = occupied

        entry_id = self._next_id
        self._next_id += 1
        lru[entry_id] = record = [part, None, tick, code, entry_id]
        part.append(vec, record)
        return entry_id, evicted


class _ReplayCache(CacheState):
    """``replay``'s cache, which takes each embedding as already checked:
    a row of its width that :func:`_checked_rows` returned."""

    def _check_vec(self, embedding) -> np.ndarray:
        return embedding
