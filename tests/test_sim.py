import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import tradeoffs.cache as cache_module
import tradeoffs.cli as cli
import tradeoffs.sim as sim
import tradeoffs.workload as workload
from _reference import ref_replay, ref_summary
from tradeoffs import (
    RESOLUTIONS,
    CacheState,
    DegeneratePoints,
    CurvePoint,
    ExponentialSaturation,
    GeneratorConfig,
    NonFiniteEmbedding,
    ParseError,
    PerRequestRecord,
    PowerLaw,
    ReuseDepthPolicy,
    SimConfig,
    Trace,
    curve_to_csv,
    fit_curve,
    generate_trace,
    normalize,
    read_curve_csv,
    replay,
    sweep,
)
from tradeoffs.cache import _checked_rows

E720 = 80_000_000


def identical_trace(n, dim=16):
    v = np.zeros(dim)
    v[0] = 1.0
    return Trace(list(range(n)), [f"q{i}" for i in range(n)], ["720p"] * n,
                 np.stack([v] * n))


def orthogonal_trace(ids, dim=16):
    emb = np.stack([np.eye(dim)[i] for i in ids])
    return Trace(list(range(len(ids))), [f"q{i}" for i in range(len(ids))],
                 ["720p"] * len(ids), emb)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_policy_depth_outside_stored():
    with pytest.raises(ValueError):
        SimConfig(capacity_bytes=0, policy=ReuseDepthPolicy(bands=((0.9, 12),)))


def test_config_requires_stored_depths():
    with pytest.raises(ValueError, match="stored_depths must be non-empty"):
        SimConfig(capacity_bytes=0, stored_depths=())


def test_config_rejects_depth_beyond_total_steps():
    with pytest.raises(ValueError):
        SimConfig(capacity_bytes=0, total_steps=20)  # default depths reach 25


def test_config_rejects_bad_costs():
    with pytest.raises(ValueError, match="step cost for 720p"):
        SimConfig(capacity_bytes=0,
                  step_cost_by_resolution={"720p": 0.0, "1080p": 1e9, "2k": 1e9})
    with pytest.raises(ValueError):
        SimConfig(capacity_bytes=-1)


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_step_cost(cost):
    with pytest.raises(ValueError, match="step cost for 1080p must be positive and finite"):
        SimConfig(capacity_bytes=0,
                  step_cost_by_resolution={"720p": 1e9, "1080p": cost, "2k": 1e9})


def test_fractional_total_steps_are_rejected_not_kept():
    policy = ReuseDepthPolicy(((0.9, 1),))
    with pytest.raises(ValueError, match="total_steps must be whole"):
        SimConfig(0, total_steps=2.5, stored_depths=(1,), policy=policy)
    assert SimConfig(0, total_steps=2.0, stored_depths=(1,), policy=policy).total_steps == 2


@pytest.mark.parametrize("field, value, message", [
    ("total_steps", float("nan"), "total_steps must be at least 1 and finite"),
    ("total_steps", float("inf"), "total_steps must be at least 1 and finite"),
    ("capacity_bytes", float("nan"), "capacity_bytes must be nonnegative and finite"),
    ("capacity_bytes", float("inf"), "capacity_bytes must be nonnegative and finite"),
    ("latent_bytes_by_resolution", float("nan"), "latent size for 2k must be positive and finite"),
    ("latent_bytes_by_resolution", float("inf"), "latent size for 2k must be positive and finite"),
    *(("latent_bytes_by_resolution", size, "latent size for 2k must be positive and finite")
      for size in (0.5, 0.999, 0, -1)),  # under one byte
])
def test_config_rejects_non_finite_sizes(field, value, message):
    if field == "latent_bytes_by_resolution":
        value = {"720p": E720, "1080p": 2 * E720, "2k": value}
    kwargs = {"capacity_bytes": 0, field: value}
    with pytest.raises(ValueError, match=message):
        SimConfig(**kwargs)


def test_fractional_latent_sizes_are_truncated_to_whole_bytes():
    config = SimConfig(capacity_bytes=10**9,
                       latent_bytes_by_resolution=dict.fromkeys(RESOLUTIONS, 1.5))
    report = replay(identical_trace(3), config)
    assert report.summary.peak_occupied_bytes == 5  # one entry: 5 depths of 1 byte


def test_a_fractional_capacity_is_kept_and_reported_in_whole_bytes():
    config = SimConfig(capacity_bytes=2 * E720 + 0.7)
    assert config.capacity_bytes == 2 * E720 and type(config.capacity_bytes) is int
    assert config.with_capacity(E720 + 0.7) == replace(config, capacity_bytes=E720)
    report = replay(identical_trace(3), config)
    assert report.capacity_bytes == 2 * E720
    assert '"capacity_bytes": 160000000,' in json.dumps(report.to_dict())


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), float("-inf"), -1])
def test_curve_point_capacity_must_be_nonnegative_and_finite(capacity):
    with pytest.raises(ValueError, match="capacity must be nonnegative and finite"):
        CurvePoint(capacity, 0.5, 0.0, 0.0)


@pytest.mark.parametrize("step_cost, total_steps, fits", [
    (1e308, 50, 0), (1e308, 1, 1), (1e306, 50, 3), (3e307, 1, 5)])
def test_replay_whose_flop_totals_overflow_is_a_value_error(step_cost, total_steps, fits):
    # ``fits`` requests cost a finite total; one more overflows.
    config = SimConfig(capacity_bytes=E720, total_steps=total_steps,
                       stored_depths=(1,), policy=ReuseDepthPolicy(((0.5, 1),)),
                       step_cost_by_resolution=dict.fromkeys(RESOLUTIONS, step_cost))
    with pytest.raises(ValueError, match="^total_full_flops must be finite$"):
        replay(identical_trace(fits + 1), config)
    with pytest.raises(ValueError, match="^total_full_flops must be finite$"):
        sweep(identical_trace(20), config, [0, E720], jobs=2)
    if fits:
        summary = replay(identical_trace(fits), config).summary
        assert summary.total_full_flops == fits * total_steps * step_cost < float("inf")


def test_a_request_cost_beyond_float_range_is_a_value_error_not_an_overflow():
    # int steps and costs whose product is an int beyond float range
    config = SimConfig(10**9, total_steps=10**300,
                       step_cost_by_resolution=dict.fromkeys(RESOLUTIONS, 10**300))
    with pytest.raises(ValueError, match="^total_full_flops must be finite$"):
        replay(identical_trace(3), config)
    with pytest.raises(ValueError, match="^total_full_flops must be finite$"):
        sweep(identical_trace(3), config, [0, E720], jobs=1)
    # In range, the totals are the sums the loop always made. A cost at a
    # resolution no request has adds nothing, so it is not checked.
    config = replace(config, step_cost_by_resolution={**config.step_cost_by_resolution,
                                                      "720p": 3})
    total = 0.0
    for _ in range(3):
        total += 10**300 * 3
    assert replay(identical_trace(3), config).summary.total_full_flops == total
    empty = Trace([], [], [], np.zeros((0, 16)))
    assert replay(empty, config).summary.total_full_flops == 0.0
    assert [p.expected_cost_flops for p in sweep(empty, config, [0, E720], jobs=1)] == [0.0, 0.0]


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1])
def test_with_capacity_and_sweep_check_capacities_before_int(capacity):
    config = SimConfig(capacity_bytes=0)
    with pytest.raises(ValueError, match="capacity_bytes must be nonnegative and finite"):
        config.with_capacity(capacity)
    trace = identical_trace(3)
    with pytest.raises(ValueError, match="capacity_bytes must be nonnegative and finite"):
        sweep(trace, config, [E720, capacity])


def test_config_requires_every_resolution():
    # A partial map would otherwise fail mid-replay at the first request
    # of a missing resolution.
    with pytest.raises(ValueError, match="step_cost_by_resolution lacks 2k"):
        SimConfig(capacity_bytes=0,
                  step_cost_by_resolution={"720p": 1e9, "1080p": 1e9})
    with pytest.raises(ValueError, match="latent_bytes lacks 1080p, 2k"):
        SimConfig(capacity_bytes=0,
                  latent_bytes_by_resolution={"720p": 16_000_000})


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_three_identical_requests():
    rep = replay(identical_trace(3), SimConfig(capacity_bytes=E720))
    outcomes = [r.outcome for r in rep.per_request]
    assert outcomes == ["miss", "hit", "hit"]
    s = rep.summary
    assert s.hit_rate == pytest.approx(2 / 3)
    assert s.total_saved_flops == 2 * 25 * 1e9
    assert s.mean_depth_over_hits == 25.0
    assert s.total_full_flops == 3 * 50 * 1e9
    assert s.expected_cost_flops == s.total_full_flops - s.total_saved_flops


def test_replay_zero_capacity_all_too_large():
    rep = replay(identical_trace(3), SimConfig(capacity_bytes=0))
    assert [r.outcome for r in rep.per_request] == ["too_large"] * 3
    assert rep.summary.hit_rate == 0.0
    assert rep.summary.total_saved_flops == 0.0
    assert rep.summary.peak_occupied_bytes == 0


def test_replay_cyclic_thrash():
    # A,B,C,D cycled twice through a 3-entry cache: LRU evicts each
    # entry right before its reuse, so the second pass misses entirely.
    trace = orthogonal_trace([0, 1, 2, 3, 0, 1, 2, 3])
    rep = replay(trace, SimConfig(capacity_bytes=3 * E720))
    assert all(r.outcome == "miss" for r in rep.per_request)
    assert rep.summary.evictions == 5


def test_replay_summary_consistent_with_records():
    cfg = GeneratorConfig(num_requests=600, num_clusters=12, dimension=32,
                          noise_sigma=0.05, zipf_exponent=0.9, seed=41,
                          resolution_mix={"720p": 0.6, "1080p": 0.4})
    rep = replay(generate_trace(cfg), SimConfig(capacity_bytes=5 * E720))
    s = rep.summary
    hits = [r for r in rep.per_request if r.outcome == "hit"]
    assert s.requests == len(rep.per_request)
    assert s.hits == len(hits)
    assert s.hit_rate == pytest.approx(len(hits) / len(rep.per_request))
    assert s.total_saved_flops == pytest.approx(sum(r.saved_flops for r in rep.per_request))
    assert s.evictions == sum(len(r.evicted) for r in rep.per_request)
    if hits:
        assert s.mean_depth_over_hits == pytest.approx(
            sum(r.depth for r in hits) / len(hits))


def test_replay_step_cost_by_resolution():
    v = np.zeros(8)
    v[0] = 1.0
    trace = Trace([0, 1], ["a", "b"], ["2k", "2k"], np.stack([v, v]))
    config = SimConfig(capacity_bytes=10**9,
                       step_cost_by_resolution={"720p": 1e9, "1080p": 2e9, "2k": 4e9})
    rep = replay(trace, config)
    assert rep.summary.total_saved_flops == 25 * 4e9
    assert rep.summary.total_full_flops == 2 * 50 * 4e9


def test_replay_insert_on_hit_duplicates_entries():
    rep = replay(identical_trace(3), SimConfig(capacity_bytes=E720, insert_on_hit=True))
    assert [r.outcome for r in rep.per_request] == ["miss", "hit", "hit"]
    # Each hit re-inserts a copy, evicting the previous occupant.
    assert rep.summary.evictions == 2


def test_replay_never_manufactures_hits():
    # Top band only and mutually orthogonal queries: nothing can match.
    policy = ReuseDepthPolicy(bands=((0.95, 25),))
    trace = orthogonal_trace(list(range(8)))
    rep = replay(trace, SimConfig(capacity_bytes=100 * E720, policy=policy))
    assert rep.summary.hits == 0


def test_saved_flops_bounded():
    cfg = GeneratorConfig(num_requests=300, num_clusters=3, dimension=16,
                          noise_sigma=0.1, seed=8)
    rep = replay(generate_trace(cfg), SimConfig(capacity_bytes=10 * E720))
    bound = rep.summary.requests * 25 * 1e9
    assert rep.summary.total_saved_flops <= bound


def test_report_json_round_trip():
    import json

    rep = replay(identical_trace(3), SimConfig(capacity_bytes=E720))
    doc = json.loads(json.dumps(rep.to_dict(), indent=2))
    assert doc["summary"]["hits"] == 2
    assert len(doc["per_request"]) == 3
    slim = json.loads(json.dumps(rep.to_dict(include_records=False), indent=2))
    assert "per_request" not in slim


# ---------------------------------------------------------------------------
# rows checked once per replay
# ---------------------------------------------------------------------------

# One 80 MB entry size for every resolution, the one size ref_replay takes.
EVEN_SIZES = dict.fromkeys(RESOLUTIONS, E720 // 5)


def three_res_trace(seed, n=200, dim=8):
    return generate_trace(GeneratorConfig(
        num_requests=n, num_clusters=12, dimension=dim, noise_sigma=0.05,
        resolution_mix={"720p": 0.5, "1080p": 0.3, "2k": 0.2}, seed=seed))


def straddling_trace(seed):
    """A trace whose rows are, in turn, certified in bulk, normalized per
    call and returned as is, and divided per call; the last kind only
    through an array made writable after construction."""
    trace = three_res_trace(seed)
    trace.embeddings.setflags(write=True)
    trace.embeddings[1::4] *= 1 + 7e-10
    trace.embeddings[2::4] *= 1 - 7e-10
    trace.embeddings[3::4] *= 1 + 3e-9
    return trace


def row_kinds(monkeypatch, trace):
    """How ``_checked_rows`` takes the trace's rows: certified in bulk, or
    passed to ``normalize`` and returned as is, or divided by it."""
    passed = []

    def counted(vec):
        passed.append(vec)
        return normalize(vec)

    with monkeypatch.context() as m:
        m.setattr(cache_module, "normalize", counted)
        _checked_rows(trace.embeddings)
    kinds = {"as is" if normalize(r) is r else "divided" for r in passed}
    return kinds | ({"certified"} if len(passed) < len(trace) else set())


def replay_through_a_plain_cache(monkeypatch):
    """Make ``replay`` pass every row unchecked to a plain ``CacheState``,
    which normalizes it and checks its width on every call."""
    monkeypatch.setattr(sim, "_checked_rows", list)
    monkeypatch.setattr(sim, "_ReplayCache", CacheState)


@pytest.mark.parametrize("insert_on_hit", [False, True])
@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("seed, entries", [(0, 2), (1, 3), (2, 5), ("straddling", 3)])
def test_replay_matches_the_reference_and_a_replay_of_plain_rows(
        monkeypatch, insert_on_hit, cross, seed, entries):
    trace = straddling_trace(3) if seed == "straddling" else three_res_trace(seed)
    kinds = {"certified", "as is", "divided"} if seed == "straddling" else {"certified"}
    assert row_kinds(monkeypatch, trace) == kinds
    capacity = entries * E720
    config = SimConfig(capacity_bytes=capacity, latent_bytes_by_resolution=EVEN_SIZES,
                       insert_on_hit=insert_on_hit, cross_resolution_match=cross)
    report = replay(trace, config)
    assert report.summary.hits and report.summary.evictions

    got = [(r.outcome, r.depth, r.matched_id if r.outcome == "hit" else None, r.evicted)
           for r in report.per_request]
    want = [(o, d, m if o == "hit" else None, ev) for o, d, m, ev in ref_replay(
        [(normalize(row).tolist(), res) for row, res in zip(trace.embeddings, trace.resolutions)],
        capacity, E720, same_res=not cross, insert_on_hit=insert_on_hit)]
    assert got == want

    replay_through_a_plain_cache(monkeypatch)
    assert replay(trace, config) == report


# A step at each resolution costs its own FLOPs, so the totals weigh the
# resolutions apart.
STEP_COSTS = {"720p": 1e9, "1080p": 2.5e9, "2k": 4e9}


@pytest.mark.parametrize("insert_on_hit", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_replay_of_the_default_entry_sizes_matches_the_reference(insert_on_hit, seed):
    trace = three_res_trace(seed)
    default = SimConfig(capacity_bytes=0, insert_on_hit=insert_on_hit,
                        step_cost_by_resolution=STEP_COSTS)
    sizes = {res: len(default.stored_depths) * default.latent_bytes_by_resolution[res]
             for res in RESOLUTIONS}
    assert sizes == {"720p": E720, "1080p": 200_000_000, "2k": 350_000_000}
    rows = [(normalize(row).tolist(), res) for row, res in zip(trace.embeddings, trace.resolutions)]
    capacities = (300_000_000, 700_000_000, 1_200_000_000, 2_500_000_000)  # below a 2k entry first
    outcomes = set()
    curve = []
    for capacity in capacities:
        report = replay(trace, default.with_capacity(capacity))
        got = [(r.outcome, r.depth, r.matched_id if r.outcome == "hit" else None, r.evicted)
               for r in report.per_request]
        want = [(o, d, m if o == "hit" else None, ev) for o, d, m, ev in ref_replay(
            rows, capacity, sizes, insert_on_hit=insert_on_hit)]
        assert got == want
        outcomes |= {r.outcome for r in report.per_request}
        assert any(len(r.evicted) > 1 for r in report.per_request)  # a large entry's victims
        # The accounting as well as the outcomes, to the bit.
        summary = ref_summary(rows, capacity, sizes, STEP_COSTS, insert_on_hit=insert_on_hit)
        assert report.summary.to_dict() == summary
        curve.append(CurvePoint(capacity, summary["hit_rate"], summary["total_saved_flops"],
                                summary["expected_cost_flops"]))
    assert outcomes == {"hit", "miss", "too_large"}
    for jobs in (1, 2):
        assert sweep(trace, default, capacities, jobs=jobs) == curve


@pytest.mark.xfail(strict=True, reason="ROADMAP Direction 2")
def test_replay_decides_ties_between_identical_rows_as_the_reference_does():
    # Without noise every request repeats one of 8 embeddings, so lookups
    # meet exact ties between identical entries, which the reference
    # settles by recency and the BLAS matvec may round apart by position.
    config = SimConfig(capacity_bytes=12 * E720, latent_bytes_by_resolution=EVEN_SIZES,
                       insert_on_hit=True)
    disagree = []
    for seed in range(40):
        trace = generate_trace(GeneratorConfig(num_requests=300, num_clusters=8, dimension=64,
                                               noise_sigma=0.0, seed=seed))
        got = [(r.outcome, r.depth, r.matched_id, r.evicted)
               for r in replay(trace, config).per_request]
        want = ref_replay([(row.tolist(), res) for row, res in zip(trace.embeddings, trace.resolutions)],
                          config.capacity_bytes, E720, insert_on_hit=True)
        if got != want:
            disagree.append(seed)
    assert disagree == []


def test_replay_checks_the_rows_again_on_every_call(monkeypatch):
    trace = three_res_trace(5)
    config = SimConfig(capacity_bytes=3 * E720)
    first = replay(trace, config)
    trace.embeddings.setflags(write=True)
    trace.embeddings[7] *= 3.0
    scaled = replay(trace, config)
    assert scaled != first
    row = trace.embeddings[9].copy()
    trace.embeddings[9] = np.nan
    lookups = []
    with monkeypatch.context() as m:
        m.setattr(CacheState, "lookup", lambda *args: lookups.append(args))
        with pytest.raises(NonFiniteEmbedding):
            replay(trace, config)
    assert lookups == []  # raised before the first request
    trace.embeddings[9] = row
    replay_through_a_plain_cache(monkeypatch)
    assert replay(trace, config) == scaled


def test_replay_of_a_generated_trace_normalizes_no_row_per_call(monkeypatch):
    trace = three_res_trace(6, n=400, dim=64)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_normalize(*args, **kwargs)

    real_normalize = cache_module.normalize
    monkeypatch.setattr(cache_module, "normalize", counted)
    for insert_on_hit in (False, True):
        report = replay(trace, SimConfig(capacity_bytes=4 * E720, insert_on_hit=insert_on_hit))
        assert report.summary.hits
    assert calls == []
    # The counter sees the calls the cache makes for a plain row.
    CacheState(E720, dim=64).lookup(trace.embeddings[0], "720p")
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_cluster_saturates_at_one_entry():
    cfg = GeneratorConfig(num_requests=50, num_clusters=1, dimension=16,
                          noise_sigma=0.0, seed=7)
    trace = generate_trace(cfg)
    curve = sweep(trace, SimConfig(capacity_bytes=0), [E720, 2 * E720])
    assert [p.hit_rate for p in curve] == [49 / 50, 49 / 50]


def test_sweep_orders_rows_by_capacity():
    trace = identical_trace(10)
    curve = sweep(trace, SimConfig(capacity_bytes=0), [4 * E720, E720, 2 * E720])
    assert [p.capacity_bytes for p in curve] == [E720, 2 * E720, 4 * E720]


def test_sweep_validation():
    trace = identical_trace(2)
    with pytest.raises(ValueError):
        sweep(trace, SimConfig(capacity_bytes=0), [])
    with pytest.raises(ValueError):
        sweep(trace, SimConfig(capacity_bytes=0), [E720, E720])


@pytest.mark.parametrize("jobs", [0, -3, float("nan"), float("inf"), float("-inf"), 2.5])
def test_sweep_rejects_jobs_below_one(jobs):
    trace = identical_trace(2)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        sweep(trace, SimConfig(capacity_bytes=0), [E720], jobs=jobs)
    # The default is one process, and a whole float is a count.
    caps = [E720, 2 * E720]
    assert sweep(trace, SimConfig(capacity_bytes=0), caps) == sweep(
        trace, SimConfig(capacity_bytes=0), caps, jobs=1) == sweep(
        trace, SimConfig(capacity_bytes=0), caps, jobs=2.0)


def test_sweep_parallel_matches_sequential():
    cfg = GeneratorConfig(num_requests=400, num_clusters=10, dimension=16,
                          noise_sigma=0.02, seed=19)
    trace = generate_trace(cfg)
    caps = [E720 * k for k in (1, 2, 4, 8)]
    seq = sweep(trace, SimConfig(capacity_bytes=0), caps)
    par = sweep(trace, SimConfig(capacity_bytes=0), caps, jobs=4)
    assert seq == par


@pytest.mark.parametrize("insert_on_hit", [False, True])
def test_sweep_and_replay_make_the_calls_the_benchmark_wraps(monkeypatch, insert_on_hit):
    # perfbench/tracing.py times a sweep through one sim.replay call per
    # capacity and the cache's lookup/insert calls; it breaks if they go.
    trace = generate_trace(GeneratorConfig(
        num_requests=300, num_clusters=10, dimension=8, noise_sigma=0.02,
        resolution_mix={"720p": 0.5, "2k": 0.5}, seed=4))
    counts = {"lookup": 0, "insert": 0}
    seen = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def counted_replay(trace, config, *args, **kwargs):
        counts.update(lookup=0, insert=0)
        report = real_replay(trace, config, *args, **kwargs)
        seen.append((config.capacity_bytes, counts["lookup"], counts["insert"],
                     report.summary.hits))
        return report

    real_replay = sim.replay
    monkeypatch.setattr(sim, "replay", counted_replay)
    monkeypatch.setattr(CacheState, "lookup", counted("lookup", CacheState.lookup))
    monkeypatch.setattr(CacheState, "insert", counted("insert", CacheState.insert))
    caps = [8 * E720, 0, 2 * E720]
    sweep(trace, SimConfig(capacity_bytes=0, insert_on_hit=insert_on_hit), caps, jobs=1)

    assert [cap for cap, *_ in seen] == sorted(caps)
    assert any(hits for *_, hits in seen)
    for _, lookups, inserts, hits in seen:
        assert lookups == len(trace)
        assert inserts == len(trace) - hits + (hits if insert_on_hit else 0)


def test_cli_stages_make_the_calls_the_benchmark_wraps(monkeypatch, tmp_path, capsys):
    # perfbench/tracing.py times the CLI stages through these names, which
    # the handlers look up at call time; it breaks if a call goes.
    calls = []
    targets = [(cli, "generate_trace"), (cli, "save_trace"), (workload, "serialize_trace"),
               (cli, "load_trace"), (cli, "replay"), (sim, "replay"), (cli, "sweep"),
               (cli, "write_curve_csv"), (cli, "read_curve_csv"), (cli, "fit_hit_rate")]
    for owner, name in targets:
        def wrapper(*args, _call=getattr(owner, name), _name=f"{owner.__name__}.{name}", **kw):
            calls.append(_name.removeprefix("tradeoffs."))
            return _call(*args, **kw)
        monkeypatch.setattr(owner, name, wrapper)
    trace, curve = str(tmp_path / "t.jsonl"), str(tmp_path / "c.csv")
    stages = [
        (["gen", "--out", trace, "--n", "300", "--clusters", "5", "--dim", "8"],
         ["cli.generate_trace", "cli.save_trace", "workload.serialize_trace"]),
        (["replay", "--trace", trace, "--capacity", "160MB"], ["cli.load_trace", "cli.replay"]),
        (["sweep", "--trace", trace, "--capacities", "80MB,160MB,320MB", "--jobs", "1",
          "--out", curve],
         ["cli.load_trace", "cli.sweep", *["sim.replay"] * 3, "cli.write_curve_csv"]),
        (["fit", "--curve", curve, "--family", "exp"],
         ["cli.read_curve_csv", "cli.fit_hit_rate"]),
    ]
    for argv, expected in stages:
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == expected


# The benchmark's tracer wraps its names in a process that has imported
# tradeoffs.cli but run no command, so none of the handlers' names is bound
# yet; a name bound at its first call would bypass the wrapper.
_TRACE_FRESH = """
import json, sys
import tradeoffs.cli as cli
assert "tradeoffs.sim" not in sys.modules and "tradeoffs.models" not in sys.modules
import tradeoffs.sim as sim, tradeoffs.workload as workload
calls = []
def wrap(owner, name):
    def wrapper(*args, _call=getattr(owner, name), **kw):
        calls.append(owner.__name__.removeprefix("tradeoffs.") + "." + name)
        return _call(*args, **kw)
    setattr(owner, name, wrapper)
for owner, name in [(cli, "generate_trace"), (cli, "save_trace"), (workload, "serialize_trace"),
                    (cli, "load_trace"), (cli, "replay"), (sim, "replay"), (cli, "sweep"),
                    (cli, "write_curve_csv"), (cli, "read_curve_csv"), (cli, "fit_hit_rate")]:
    wrap(owner, name)
trace, curve = sys.argv[1:]
codes = [cli.main(["gen", "--out", trace, "--n", "300", "--clusters", "5", "--dim", "8"]),
         cli.main(["sweep", "--trace", trace, "--capacities", "80MB,160MB,320MB", "--jobs", "1",
                   "--out", curve]),
         cli.main(["fit", "--curve", curve, "--family", "power"])]
print(json.dumps([codes, calls]))
"""


def test_the_tracers_wrappers_fire_when_set_before_any_command(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _TRACE_FRESH, str(tmp_path / "t.jsonl"),
                           str(tmp_path / "c.csv")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, calls = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert calls == ["cli.generate_trace", "cli.save_trace", "workload.serialize_trace",
                     "cli.load_trace", "cli.sweep", *["sim.replay"] * 3,
                     "cli.write_curve_csv", "cli.read_curve_csv", "cli.fit_hit_rate"]


# ---------------------------------------------------------------------------
# curve CSV and fitting
# ---------------------------------------------------------------------------


def test_curve_csv_round_trip():
    curve = [
        CurvePoint(80_000_000, 0.125, 1.5e11, 8.5e11),
        CurvePoint(160_000_000, 0.25, 3.0e11, 7.0e11),
    ]
    text = curve_to_csv(curve)
    assert text.splitlines()[0] == "capacity_gb,hit_rate,saved_flops,expected_cost_flops"
    assert read_curve_csv(io.StringIO(text)) == curve


def test_curve_csv_rejects_wrong_header():
    with pytest.raises(ParseError, match="line 1"):
        read_curve_csv(io.StringIO("a,b,c\n1,2,3\n"))


@pytest.mark.parametrize("row, fragment", [
    ("0.08,0.5,0", "expected 4 comma-separated values, got 3"),
    ("0.08,0.5,0,0,0", "expected 4 comma-separated values, got 5"),
    ("0.08,half,0,0", "non-numeric"),
    ("inf,0.5,0,0", "values must be finite"),
    ("0.08,nan,0,0", "values must be finite"),
    ("-0.3,0.4,0,0", "capacity must be nonnegative"),
    ("0.08,1.5,0,0", r"hit rate must lie in \[0, 1\]"),
    # Finite in GB, beyond float range in bytes.
    ("1e300,0.5,1,1", "capacity_bytes must be finite"),
    ("-1e300,0.5,1,1", "capacity_bytes must be finite"),
])
def test_curve_csv_rejects_malformed_rows_on_their_line(row, fragment):
    text = "capacity_gb,hit_rate,saved_flops,expected_cost_flops\n\n0.04,0.25,0,0\n" + row + "\n"
    with pytest.raises(ParseError, match=f"line 4: {fragment}"):
        read_curve_csv(io.StringIO(text))


def test_fit_curve_heavy_tail_prefers_power_law():
    cfg = GeneratorConfig(num_requests=20_000, num_clusters=2000, dimension=64,
                          zipf_exponent=1.3, noise_sigma=0.02, seed=21)
    trace = generate_trace(cfg)
    curve = sweep(trace, SimConfig(capacity_bytes=0),
                  [2 * E720 * 2**i for i in range(7)])
    fe = fit_curve(curve, ExponentialSaturation, entry_size_gb=0.08)
    fp = fit_curve(curve, PowerLaw)
    assert fp.residual < fe.residual


def test_fit_curve_light_tail_prefers_exponential():
    # Few clusters and quick saturation: the exponential family is the
    # best fit; the power family can only approach it in the kappa->0
    # limit, so its residual stays at or above the exponential's.
    cfg = GeneratorConfig(num_requests=20_000, num_clusters=50, dimension=64,
                          zipf_exponent=0.8, noise_sigma=0.02, seed=11)
    trace = generate_trace(cfg)
    curve = sweep(trace, SimConfig(capacity_bytes=0),
                  [2 * E720 * 2**i for i in range(7)])
    fe = fit_curve(curve, ExponentialSaturation, entry_size_gb=0.08)
    fp = fit_curve(curve, PowerLaw)
    assert fe.residual <= fp.residual


def test_fit_curve_forwards_degenerate_points():
    curve = [CurvePoint(E720 * k, 0.0, 0.0, 5e10) for k in (1, 2, 4)]
    with pytest.raises(DegeneratePoints):
        fit_curve(curve, ExponentialSaturation, entry_size_gb=0.08)


_MISS = dict(request_id="r", outcome="miss", matched_id=None, similarity=None, depth=0,
             saved_flops=0.0, evicted=())


@pytest.mark.parametrize("fields", [
    {},
    dict(outcome="hit", matched_id=7, similarity=0.9612345678901234, depth=25,
         saved_flops=2.5e10, evicted=(3, 1, 2)),
    dict(request_id='q"\\\x00\x1f\u00e9\u6771\ud800\U0001f600', similarity=-0.0),
    dict(similarity=float("nan"), saved_flops=float("inf")),
    dict(similarity=float("-inf"), saved_flops=1e308, depth=10**30),
    dict(similarity=np.float64(0.25), saved_flops=5, depth=True, matched_id=False),
    dict(saved_flops=5e-324, evicted=(0,), outcome="too_large"),
], ids=["miss", "hit", "odd id", "nan", "huge", "other types", "tiny"])
def test_record_text_is_json_dumps_of_its_dict(fields):
    rec = PerRequestRecord(**{**_MISS, **fields})
    assert rec._json() == json.dumps(rec.to_dict())
