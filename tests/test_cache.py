import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import tradeoffs.cache as cache_module
from _reference import RefCache
from tradeoffs.cache import _checked_rows
from tradeoffs import (
    DEFAULT_LATENT_BYTES,
    DEFAULT_POLICY,
    RESOLUTIONS,
    CacheState,
    DimensionMismatch,
    EntryTooLarge,
    NonFiniteEmbedding,
    ReuseDepthPolicy,
    SimConfig,
    ZeroNormEmbedding,
    normalize,
)

E720 = 5 * DEFAULT_LATENT_BYTES["720p"]  # 80 MB


def unit(i, d=8):
    v = np.zeros(d)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_scales_to_unit():
    v = normalize([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_normalize_unit_passthrough_is_exact():
    v = np.array([0.6, 0.8])
    out = normalize(v)
    assert np.array_equal(out, v)  # no division applied


def test_normalize_leaves_its_input_unchanged():
    v = np.array([3.0, 4.0])
    out = normalize(v)
    assert v.tolist() == [3.0, 4.0]
    assert np.allclose(out, [0.6, 0.8])


def test_mutating_the_caller_array_after_insert_leaves_the_cache_unchanged():
    v = unit(2)
    c = CacheState(capacity_bytes=E720, dim=8)
    entry_id, _ = c.insert(v, "720p")
    v[2] = 0.5
    assert c.resident()[entry_id].embedding.tolist() == unit(2).tolist()
    assert c.lookup(unit(2), "720p").depth == 25


def test_normalize_rejects_zero_and_matrices():
    with pytest.raises(ZeroNormEmbedding):
        normalize([0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        normalize(np.zeros((2, 2)))


def test_normalize_rejects_non_finite():
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1e200, 1e200]):
        with pytest.raises(NonFiniteEmbedding), np.errstate(over="ignore"):
            normalize(bad)
    c = CacheState(capacity_bytes=E720, dim=2)
    with pytest.raises(NonFiniteEmbedding):
        c.lookup([np.nan, 1.0], "720p")
    assert c.tick == 0


# ---------------------------------------------------------------------------
# rows checked in bulk
# ---------------------------------------------------------------------------


def rows_with_norms(rng, dim, norms):
    rows = rng.standard_normal((len(norms), dim))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return rows * np.asarray(norms)[:, None]


# Norm offsets from 1 on a grid that stays clear of the 5e-10 margin and
# the 1e-9 tolerance, plus offsets just inside and outside each.
OFFSETS = np.concatenate([np.linspace(-1.2e-9, 1.2e-9, 48),
                          [4.9e-10, 5.1e-10, 0.99e-9, 1.01e-9],
                          [-4.9e-10, -5.1e-10, -0.99e-9, -1.01e-9]])


def checked_rows_and_calls(monkeypatch, matrix):
    """``_checked_rows(matrix)`` and the rows it passed to ``normalize``."""
    calls = []

    def counted(vec):
        calls.append(vec)
        return normalize(vec)

    with monkeypatch.context() as m:
        m.setattr(cache_module, "normalize", counted)
        rows = _checked_rows(matrix)
    return rows, calls


@pytest.mark.parametrize("dim", [1, 3, 64, 768])
def test_checked_rows_are_normalize_of_each_row_certified_ones_without_a_call(
        monkeypatch, dim):
    matrix = rows_with_norms(np.random.default_rng(dim), dim, 1.0 + OFFSETS)
    rows, calls = checked_rows_and_calls(monkeypatch, matrix)
    assert len(rows) == len(OFFSETS)
    uncertified = []
    for i, (row, offset) in enumerate(zip(rows, OFFSETS)):
        assert row.dtype == np.float64 and np.array_equal(row, normalize(matrix[i]))
        if abs(offset) < 5e-10:
            assert row.base is matrix  # the matrix's own row, not a copy
        else:
            uncertified.append(i)
            # Returned as is inside the tolerance, divided outside.
            assert (row.base is matrix) == (abs(offset) < 1e-9)
    assert [call.tolist() for call in calls] == matrix[uncertified].tolist()


def test_checked_rows_raise_what_normalize_raises_for_the_first_row_it_rejects(monkeypatch):
    odd = np.array([[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0], [1e200, 1e200], [0.6, 0.8]])
    # The bulk pass is quiet and passes every unfit row, and only those, on.
    calls = []
    monkeypatch.setattr(cache_module, "normalize", lambda vec: calls.append(vec) or vec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _checked_rows(odd)
    assert np.array_equal(np.array(calls), odd[:4], equal_nan=True)
    monkeypatch.undo()
    errors = [ZeroNormEmbedding] + [NonFiniteEmbedding] * 3
    for bad, error in enumerate(errors):
        with np.errstate(over="ignore"):
            with pytest.raises(error):
                normalize(odd[bad])
            with pytest.raises(error):
                _checked_rows(np.array([odd[4], odd[bad], [3.0, 4.0], [0.0, 0.0]]))
    # normalize would copy a float32 row, so each row goes through it.
    odd = np.array([[0.6, 0.8], [3.0, 4.0]], dtype=np.float32)
    rows, calls = checked_rows_and_calls(monkeypatch, odd)
    assert len(calls) == 2
    assert all(np.array_equal(row, normalize(r)) and row.dtype == np.float64
               for row, r in zip(rows, odd))
    # The margin holds up to 2**20 columns and no further.
    for dim, certified in ((2**20, True), (2**20 + 1, False)):
        matrix = np.full((1, dim), 1.0 / np.sqrt(dim))
        (row,), calls = checked_rows_and_calls(monkeypatch, matrix)
        assert len(calls) == (0 if certified else 1)
        assert row.base is matrix and normalize(row) is row


# ---------------------------------------------------------------------------
# reuse-depth policy
# ---------------------------------------------------------------------------


def test_depth_table():
    table = {0.96: 25, 0.95: 20, 0.92: 20, 0.90: 15, 0.87: 15,
             0.85: 10, 0.80: 10, 0.75: 5, 0.70: 5, 0.65: 0, 0.50: 0}
    for sim, depth in table.items():
        assert DEFAULT_POLICY.depth_for(sim) == depth, sim


def test_depth_band_bounds_are_exclusive():
    # A similarity exactly at a bound belongs to the band below it.
    assert DEFAULT_POLICY.depth_for(0.95) == 20
    assert DEFAULT_POLICY.depth_for(0.9) == 15
    assert DEFAULT_POLICY.depth_for(0.65) == 0
    assert DEFAULT_POLICY.depth_for(-1.0) == 0


def test_policy_validation():
    with pytest.raises(ValueError):
        ReuseDepthPolicy(bands=())
    with pytest.raises(ValueError):
        ReuseDepthPolicy(bands=((0.5, 10), (0.9, 25)))  # bounds increasing
    with pytest.raises(ValueError):
        ReuseDepthPolicy(bands=((0.9, 10), (0.5, 25)))  # depths increasing
    with pytest.raises(ValueError):
        ReuseDepthPolicy(bands=((0.9, -5),))
    # NaN would make a band that never matches; int() of an infinite depth overflows.
    for bands in (((0.9, 5), (np.nan, 0)), ((np.inf, 5),), ((0.9, np.inf),), ((0.9, np.nan),),
                  ((0.9, 5), (-np.inf, 0))):
        with pytest.raises(ValueError, match="band bounds and depths must be finite"):
            ReuseDepthPolicy(bands=bands)


def loop_depth(bands, similarity):
    """The band rule as the README states it, one band at a time."""
    for bound, depth in bands:
        if similarity > bound:
            return depth
    return 0


EDGE_POLICIES = [DEFAULT_POLICY, ReuseDepthPolicy(((0.5, 7),)),
                 ReuseDepthPolicy(((0.3, 4), (0.0, 4), (-0.3, 2))),
                 ReuseDepthPolicy(((-0.2, 10), (-0.5, 5), (-0.9, 1)))]


@pytest.mark.parametrize("policy", EDGE_POLICIES, ids=lambda p: str(p.bands))
def test_depth_for_grades_band_edges_as_a_plain_loop(policy):
    bands = policy.bands
    below = [d for _, d in bands[1:]] + [0]
    for (bound, depth), lower in zip(bands, below):
        # On a bound is the band under it; the next float up is the band's own.
        assert policy.depth_for(bound) == lower == loop_depth(bands, bound)
        assert policy.depth_for(math.nextafter(bound, 2)) == depth
    lowest = bands[-1][0]
    for s in (math.nextafter(lowest, -2), lowest - 1.0, -math.inf, math.nan):
        assert policy.depth_for(s) == 0 == loop_depth(bands, s)


@pytest.mark.parametrize("policy", EDGE_POLICIES, ids=lambda p: str(p.bands))
@given(s=st.floats(allow_nan=True, allow_infinity=True))
def test_depth_for_agrees_with_a_plain_loop(policy, s):
    assert policy.depth_for(s) == loop_depth(policy.bands, s)


@given(s1=st.floats(-1.0, 1.0), s2=st.floats(-1.0, 1.0))
def test_depth_nonincreasing_in_similarity(s1, s2):
    lo, hi = sorted((s1, s2))
    assert DEFAULT_POLICY.depth_for(hi) >= DEFAULT_POLICY.depth_for(lo)


# ---------------------------------------------------------------------------
# lookups
# ---------------------------------------------------------------------------


def test_identity_lookup_hits_top_band():
    c = CacheState(capacity_bytes=E720, dim=8)
    c.insert(unit(0), "720p")
    r = c.lookup(unit(0), "720p")
    assert r.hit and r.depth == 25 and r.similarity == pytest.approx(1.0)


def test_empty_cache_misses():
    c = CacheState(capacity_bytes=E720, dim=8)
    r = c.lookup(unit(0), "720p")
    assert not r.hit and r.depth == 0
    assert r.similarity is None and r.matched_id is None


def test_lookup_selects_highest_similarity():
    q = unit(0)
    v93 = np.array([0.93, np.sqrt(1 - 0.93**2), 0, 0, 0, 0, 0, 0])
    v97 = np.array([0.97, 0, np.sqrt(1 - 0.97**2), 0, 0, 0, 0, 0])
    c = CacheState(capacity_bytes=2 * E720, dim=8)
    c.insert(v93, "720p")
    id97, _ = c.insert(v97, "720p")
    r = c.lookup(q, "720p")
    assert r.matched_id == id97 and r.depth == 25


def test_similarity_tie_prefers_most_recent():
    # Ticks are unique, so recency always breaks similarity ties, whether
    # the most recent tied row sits after or before the others.
    v = unit(3)
    c = CacheState(capacity_bytes=3 * E720, dim=8)
    x, _ = c.insert(unit(0), "720p")
    e0, _ = c.insert(v, "720p")
    e1, _ = c.insert(v, "720p")
    r = c.lookup(v, "720p")
    assert r.matched_id == e1  # same sim, e1 more recent and last
    r2 = c.lookup(v, "720p")
    assert r2.matched_id == e1  # refresh keeps it in front
    # Evicting x swap-removes its row, which moves e1 in front of e0.
    _, evicted = c.insert(unit(1), "720p")
    assert evicted == [x]
    part = c._parts[0]
    assert part.ids[:2].tolist() == [e1, e0]
    assert c.lookup(v, "720p").matched_id == e1
    assert e0 in c.resident()


def test_hit_refreshes_recency_miss_does_not():
    c = CacheState(capacity_bytes=2 * E720, dim=8)
    e, _ = c.insert(unit(0), "720p")
    before = c.resident()[e].last_used
    r = c.lookup(unit(0), "720p")
    assert r.hit and c.resident()[e].last_used == r.tick > before
    # Sub-threshold best match: similarity known but no recency touch.
    after_hit = c.resident()[e].last_used
    r2 = c.lookup(unit(1), "720p")
    assert not r2.hit and r2.matched_id == e
    assert c.resident()[e].last_used == after_hit


def test_consecutive_identical_lookups_agree():
    c = CacheState(capacity_bytes=3 * E720, dim=8)
    c.insert(unit(0), "720p")
    c.insert(unit(1), "720p")
    q = normalize(np.array([1.0, 0.9, 0, 0, 0, 0, 0, 0]))
    r1 = c.lookup(q, "720p")
    r2 = c.lookup(q, "720p")
    assert (r1.matched_id, r1.depth, r1.similarity) == (r2.matched_id, r2.depth, r2.similarity)


def test_dimension_mismatch():
    c = CacheState(capacity_bytes=E720, dim=8)
    with pytest.raises(DimensionMismatch):
        c.lookup(np.ones(4), "720p")
    with pytest.raises(DimensionMismatch):
        c.insert(np.ones(16), "720p")


def test_same_resolution_matching_default():
    c = CacheState(capacity_bytes=10 * E720, dim=8)
    c.insert(unit(0), "720p")
    r = c.lookup(unit(0), "1080p")
    assert not r.hit and r.matched_id is None
    c_off = CacheState(capacity_bytes=10 * E720, dim=8, match_same_resolution=False)
    c_off.insert(unit(0), "720p")
    assert c_off.lookup(unit(0), "1080p").hit


def test_ticks_advance_on_lookup_and_insert():
    c = CacheState(capacity_bytes=2 * E720, dim=8)
    assert c.tick == 0
    c.lookup(unit(0), "720p")
    assert c.tick == 1
    c.insert(unit(0), "720p")
    assert c.tick == 2


# ---------------------------------------------------------------------------
# inserts and eviction
# ---------------------------------------------------------------------------


def test_entry_byte_sizes():
    c = CacheState(capacity_bytes=10**9, dim=8)
    assert c.entry_byte_size("720p") == 80_000_000
    assert c.entry_byte_size("1080p") == 200_000_000
    assert c.entry_byte_size("2k") == 350_000_000
    e, _ = c.insert(unit(0), "720p")
    assert c.resident()[e].byte_size == 80_000_000
    assert c.occupied_bytes == 80_000_000


@pytest.mark.parametrize("kwargs, message", [
    *(({"capacity_bytes": c}, "capacity_bytes must be nonnegative and finite")
      for c in (-1, np.nan, np.inf)),
    *(({"dim": d}, "dim must be at least 1 and finite") for d in (0, np.nan, np.inf)),
])
def test_cache_geometry_is_checked_before_int(kwargs, message):
    with pytest.raises(ValueError, match=message):
        CacheState(**{"capacity_bytes": E720, "dim": 2, **kwargs})


def test_a_fractional_dim_is_rejected_not_truncated():
    with pytest.raises(ValueError, match="dim must be whole"):
        CacheState(E720, dim=2.5)
    assert CacheState(E720, dim=2.0).dim == 2


def test_a_fractional_band_depth_is_rejected_not_truncated():
    with pytest.raises(ValueError, match="band depths must be whole"):
        ReuseDepthPolicy(((0.9, 5.7),))
    assert ReuseDepthPolicy(((0.9, 5.0),)).bands == ((0.9, 5),)


@pytest.mark.parametrize("build", [
    lambda depths: CacheState(E720, dim=2, stored_depths=depths),
    lambda depths: SimConfig(E720, stored_depths=depths),
], ids=["CacheState", "SimConfig"])
def test_a_fractional_stored_depth_is_rejected_not_truncated(build):
    with pytest.raises(ValueError) as excinfo:
        build((5.5, 10, 15, 20, 25))
    assert str(excinfo.value) == "stored depths must be whole"
    assert build((5.0, 10, 15, 20, 25)).stored_depths == (5, 10, 15, 20, 25)


def test_unknown_resolution_is_a_value_error():
    c = CacheState(capacity_bytes=E720, dim=2)
    for call in (c.lookup, c.insert, lambda _, res: c.entry_byte_size(res)):
        with pytest.raises(ValueError, match="unknown resolution '4k'"):
            call(unit(0, 2), "4k")
    assert c.tick == 0 and len(c) == 0


def test_partial_latent_bytes_map_is_rejected():
    with pytest.raises(ValueError, match="latent_bytes lacks 1080p, 2k"):
        CacheState(capacity_bytes=10**10, dim=2, latent_bytes={"720p": 1})


@pytest.mark.parametrize("stored_depths, size_2k, message", [
    *(((d,), 1, "stored depths must be at least 1 and finite") for d in (np.nan, np.inf, -5)),
    ((5, 5), 1, "stored depths must be distinct"),
    ((), 1, "stored_depths must be non-empty"),
    *(((5,), b, "latent size for 2k must be positive and finite, >= 1 byte")
      for b in (np.nan, np.inf, -np.inf, 0.5, 0.9, 0, -1)),
])
@pytest.mark.parametrize("build", [
    lambda depths, sizes: CacheState(E720, dim=2, stored_depths=depths, latent_bytes=sizes),
    lambda depths, sizes: SimConfig(E720, stored_depths=depths, latent_bytes_by_resolution=sizes),
], ids=["CacheState", "SimConfig"])
def test_cache_and_config_share_one_geometry_rule(build, stored_depths, size_2k, message):
    with pytest.raises(ValueError) as excinfo:
        build(stored_depths, {**DEFAULT_LATENT_BYTES, "2k": size_2k})
    assert str(excinfo.value) == message


def test_entry_sizes_are_whole_bytes_per_resolution():
    c = CacheState(capacity_bytes=10, dim=2, stored_depths=(5, 10),
                   latent_bytes={"720p": 1.5, "1080p": 2, "2k": 3.99})
    assert [c.entry_byte_size(res) for res in RESOLUTIONS] == [2, 4, 6]
    ids = [c.insert(unit(i, 2), res)[0] for i, res in enumerate(("720p", "2k"))]
    assert [e.byte_size for e in c.resident().values()] == [2, 6]
    assert c.occupied_bytes == 8
    _, evicted = c.insert(unit(0, 2), "1080p")  # 8 + 4 > 10: the 2-byte entry goes
    assert evicted == ids[:1] and c.occupied_bytes == 10


def test_lru_hand_trace():
    c = CacheState(capacity_bytes=2 * E720, dim=8)
    a, ev = c.insert(unit(0), "720p")
    assert ev == []
    b, _ = c.insert(unit(1), "720p")
    _, ev = c.insert(unit(2), "720p")
    assert ev == [a]
    assert set(c.resident()) == {b, 2}


def test_lru_respects_lookup_recency():
    c = CacheState(capacity_bytes=2 * E720, dim=8)
    a, _ = c.insert(unit(0), "720p")
    b, _ = c.insert(unit(1), "720p")
    c.lookup(unit(0), "720p")  # touch a; b becomes LRU
    _, ev = c.insert(unit(2), "720p")
    assert ev == [b]


def test_entry_too_large_is_pre_state():
    c = CacheState(capacity_bytes=300_000_000, dim=8)
    c.insert(unit(0), "720p")
    tick_before = c.tick
    with pytest.raises(EntryTooLarge):
        c.insert(unit(1), "2k")  # 350 MB alone exceeds 300 MB
    assert c.tick == tick_before  # failed insert consumes no tick
    assert len(c.resident()) == 1  # and evicts nothing


def test_multi_eviction_for_large_entry():
    c = CacheState(capacity_bytes=500_000_000, dim=8)
    a, _ = c.insert(unit(0), "720p")
    b, _ = c.insert(unit(1), "720p")
    third, _ = c.insert(unit(2), "720p")
    _, ev = c.insert(unit(3), "2k")  # 240 + 350 > 500: two evictions needed
    assert ev == [a, b]
    assert third in c.resident()
    assert c.occupied_bytes <= c.capacity_bytes


def test_remembered_lru_rows_follow_hits_and_swap_removes():
    # The recency index remembers each entry's row. A hit must move its
    # entry to the back of the index, and a swap_remove that moves a row
    # must update the row the index holds for the entry that moved.
    one_byte = dict.fromkeys(RESOLUTIONS, 1)
    c = CacheState(capacity_bytes=5, dim=8, stored_depths=(5,), latent_bytes=one_byte)
    ref = RefCache(5)
    ids = {}

    def insert(name, i, res):
        got, evicted = c.insert(unit(i), res)
        assert evicted == ref.insert(unit(i).tolist(), res, 1)
        ids[name] = got
        return [k for k, v in ids.items() if v in evicted]

    for name, i, res in (("a1", 0, "720p"), ("b1", 1, "1080p"), ("b2", 2, "1080p"),
                         ("a2", 3, "720p"), ("a3", 4, "720p")):
        assert insert(name, i, res) == []
    # 720p holds a1 a2 a3 and 1080p b1 b2. Evicting a1 moves a3 into
    # its row; b1 is now the least recently used entry.
    assert insert("c1", 5, "2k") == ["a1"]
    # Refresh b1: b2 is now the oldest resident.
    assert c.lookup(unit(1), "1080p").matched_id == ids["b1"]
    assert ref.lookup(unit(1).tolist(), "1080p")["matched"] == ids["b1"]
    assert insert("c2", 6, "2k") == ["b2"]
    # a2 is older than a3, which now sits in a1's old row.
    assert insert("c3", 7, "2k") == ["a2"]
    assert list(c.resident()) == sorted(e["id"] for e in ref.entries)


def test_occupancy_invariant_under_random_ops():
    rng = np.random.default_rng(17)
    c = CacheState(capacity_bytes=int(2.5 * E720), dim=8)
    for _ in range(400):
        v = normalize(rng.standard_normal(8))
        res = ("720p", "1080p", "2k")[rng.integers(0, 3)]
        if rng.random() < 0.5:
            c.lookup(v, res)
        else:
            try:
                c.insert(v, res)
            except EntryTooLarge:
                pass
        assert 0 <= c.occupied_bytes <= c.capacity_bytes
        entries = c.resident()
        assert c.occupied_bytes == sum(e.byte_size for e in entries.values())
        assert len(entries) == len(c)  # no id is resident twice


def test_lookup_matches_brute_force_argmax():
    # Oracle equivalence over 1000 random cache states.
    rng = np.random.default_rng(23)
    for _ in range(1000):
        d = int(rng.choice([4, 8]))
        n_entries = int(rng.integers(1, 9))
        c = CacheState(capacity_bytes=20 * E720, dim=d)
        for _ in range(n_entries):
            c.insert(normalize(rng.standard_normal(d)), "720p")
        q = normalize(rng.standard_normal(d))
        r = c.lookup(q, "720p")
        best = max(
            c.resident().values(),
            key=lambda e: (float(np.dot(e.embedding, q)), e.last_used, -e.entry_id),
        )
        # The lookup itself may have refreshed the winner; identity is
        # what the oracle pins down, recency was re-read above.
        assert r.matched_id == best.entry_id


# ---------------------------------------------------------------------------
# stateful oracle: CacheState against the brute-force reference
# ---------------------------------------------------------------------------

# Coordinates 0, +-0.5 and 1 keep every norm and dot product exact, so
# distinct entries often tie on similarity (1, 0.5, 0 or -0.5), and with
# these bands 1 and 0.5 are hits at different depths.
POOL = [unit(i, 4) for i in range(3)] + [
    np.array(v) for v in ([0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, -0.5],
                          [0.5, -0.5, 0.5, -0.5])
]
BANDS = ((0.95, 25), (0.4, 10))
# Per-step latent sizes, each stored at the 5 default depths: entries of
# 5 B, 80, 240 and 400 MB for two resolutions, and always one of 800 MB,
# above every capacity, so that some inserts are too large and large
# entries evict several small ones.
LATENTS = st.lists(st.sampled_from([1, 16_000_000, 48_000_000, 80_000_000]),
                   min_size=2, max_size=2, unique=True).flatmap(
    lambda two: st.permutations([*two, 160_000_000]))


class CacheVersusReference(RuleBasedStateMachine):
    """Drives CacheState and RefCache with the same operations."""

    @initialize(capacity=st.sampled_from([0, E720, 300_000_000, 700_000_000]),
                latents=LATENTS, same_res=st.booleans())
    def start(self, capacity, latents, same_res):
        latent_bytes = dict(zip(RESOLUTIONS, latents))
        self.size = {res: 5 * b for res, b in latent_bytes.items()}
        self.cache = CacheState(capacity, dim=4, policy=ReuseDepthPolicy(BANDS),
                                match_same_resolution=same_res, latent_bytes=latent_bytes)
        self.ref = RefCache(capacity, BANDS, same_res)

    @rule(k=st.integers(0, len(POOL) - 1), res=st.sampled_from(RESOLUTIONS))
    def look_up(self, k, res):
        got = self.cache.lookup(POOL[k], res)
        want = self.ref.lookup(POOL[k].tolist(), res)
        assert got.hit == (want["outcome"] == "hit")
        assert (got.depth, got.matched_id) == (want["depth"], want["matched"])

    @rule(k=st.integers(0, len(POOL) - 1), res=st.sampled_from(RESOLUTIONS))
    def insert(self, k, res):
        want = self.ref.insert(POOL[k].tolist(), res, self.size[res])
        if want is None:
            with pytest.raises(EntryTooLarge):
                self.cache.insert(POOL[k], res)
            return
        entry_id, evicted = self.cache.insert(POOL[k], res)
        assert evicted == want
        assert entry_id == self.ref.next_id - 1

    @invariant()
    def same_residents(self):
        assert self.cache.occupied_bytes == self.ref.occupied()
        assert len(self.cache) == len(self.ref.entries)
        # Each resident's recency, not only their order: the tie-break reads it.
        got = {i: e.last_used for i, e in self.cache.resident().items()}
        want = {e["id"]: e["last_used"] for e in self.ref.entries}
        assert list(got) == sorted(want) and got == want


TestCacheVersusReference = CacheVersusReference.TestCase
TestCacheVersusReference.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
