"""Acceptance suite: ten go/no-go checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print. Numeric tolerances are stated inline at each check; where a
check says "exactly" it means float equality, no epsilon.
"""

import math
import time

import numpy as np

from _reference import ref_replay
from tradeoffs import (
    DEFAULT_POLICY,
    CacheCostParams,
    DeficitParams,
    EmpiricalHitRate,
    ExponentialSaturation,
    GeneratorConfig,
    PowerLaw,
    RateComputeSample,
    SimConfig,
    Trace,
    comm_cost,
    expected_compute,
    fit_hit_rate,
    frontier_min_bandwidth,
    generate_trace,
    marginal_benefit,
    memory_deficit,
    replay,
    sweep,
)
from tradeoffs.cli import main as cli_main

E720 = 80_000_000


def _verdict(num, desc, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} ({detail})")
    assert ok, f"criterion {num}: {desc}: {detail}"


def test_c01_memory_deficit_example():
    t0 = time.monotonic()
    p = DeficitParams(total_memory_gb=400, device_count=2, device_memory_gb=100,
                      deficit_bandwidth_factor=0.5)
    deficit = memory_deficit(p)
    comm = comm_cost(p)
    dt = time.monotonic() - t0
    ok = deficit == 200.0 and comm == 100.0 and dt < 1.0
    _verdict(1, "deficit 400 GB over 2x100 GB devices, k=0.5", ok,
             f"deficit={deficit}, comm={comm}, {dt:.3f}s")


def test_c02_cache_economics_example():
    t0 = time.monotonic()
    cost = CacheCostParams(total_steps=50, step_cost_flops=1e9, reuse_depth=20,
                           entry_size_gb=2.0)
    econ = expected_compute(cost, EmpiricalHitRate(((0.0, 0.6),)), 10.0)
    gb_per_2e9 = 2e9 / econ.saved_flops_per_gb
    rate_err = abs(gb_per_2e9 - 1.7) / 1.7
    dt = time.monotonic() - t0
    ok = (econ.expected_saved_flops == 1.2e10
          and econ.expected_cost_flops == 3.8e10
          and rate_err <= 0.02
          and dt < 1.0)
    _verdict(2, "50 steps at 1e9 FLOPs, reuse 20, hit rate 0.6", ok,
             f"saved={econ.expected_saved_flops:g}, cost={econ.expected_cost_flops:g}, "
             f"{gb_per_2e9:.4f} GB per 2e9 FLOPs (err {rate_err:.2%}), {dt:.3f}s")


def test_c03_frontier_example():
    t0 = time.monotonic()
    samples = [RateComputeSample(0.15, 1e9, 0.9),
               RateComputeSample(0.075, 1.4e10, 0.9),
               RateComputeSample(0.0375, 1e11, 0.9)]
    got = [frontier_min_bandwidth(samples, 0.9, b).bandwidth_bpp
           for b in (1e9, 1.4e10, 1e11)]
    dt = time.monotonic() - t0
    ok = got == [0.15, 0.075, 0.0375] and dt < 1.0
    _verdict(3, "bandwidth frontier at budgets 1e9/1.4e10/1e11", ok,
             f"B*={got}, {dt:.3f}s")


def test_c04_retrieval_table():
    sims = (0.96, 0.95, 0.92, 0.90, 0.87, 0.85, 0.80, 0.75, 0.70, 0.65, 0.50)
    want = (25, 20, 20, 15, 15, 10, 10, 5, 5, 0, 0)
    got = tuple(DEFAULT_POLICY.depth_for(s) for s in sims)
    ok = got == want
    _verdict(4, "similarity-to-depth table, 11 probe points", ok, f"depths={got}")


def _random_requests(rng, dim, n):
    # Mix of fresh random directions, exact repeats, and controlled
    # rotations with cosine in [0.45, 1.0] so every policy band fires.
    pool = []
    out = []
    for _ in range(n):
        if pool and rng.random() < 0.55:
            base = pool[rng.integers(0, len(pool))]
            if rng.random() < 0.15:
                q = base.copy()
            else:
                c = rng.uniform(0.45, 1.0)
                w = rng.standard_normal(dim)
                w -= (w @ base) * base
                nw = np.linalg.norm(w)
                if nw < 1e-12:
                    q = base.copy()
                else:
                    q = c * base + math.sqrt(1.0 - c * c) * (w / nw)
                    q /= np.linalg.norm(q)
        else:
            q = rng.standard_normal(dim)
            q /= np.linalg.norm(q)
        pool.append(q)
        out.append(q)
    return out


def test_c05_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    for trial in range(500):
        rng = np.random.default_rng(10_000 + trial)
        dim = int(rng.choice([4, 8, 16]))
        n = int(rng.integers(20, 201))
        cap = int(rng.integers(1, 11)) * E720
        reqs = _random_requests(rng, dim, n)
        trace = Trace(list(range(n)), [f"q{i}" for i in range(n)],
                      ["720p"] * n, np.stack(reqs))
        rep = replay(trace, SimConfig(capacity_bytes=cap))
        got = [(r.outcome, r.depth, r.matched_id if r.outcome == "hit" else None,
                r.evicted) for r in rep.per_request]
        want = [(o, d, m if o == "hit" else None, ev)
                for o, d, m, ev in ref_replay(
                    [(trace.embeddings[i].tolist(), "720p") for i in range(n)],
                    cap, E720)]
        if got != want:
            mismatches += 1
    dt = time.monotonic() - t0
    ok = mismatches == 0 and dt < 30.0
    _verdict(5, "500 random traces match the brute-force reference", ok,
             f"mismatched traces={mismatches}, {dt:.1f}s")


def test_c06_lru_stack_property():
    t0 = time.monotonic()
    violations = 0
    for trial in range(50):
        rng = np.random.default_rng(31_000 + trial)
        cfg = GeneratorConfig(
            num_requests=400,
            num_clusters=int(rng.integers(4, 21)),
            dimension=64,
            zipf_exponent=float(rng.uniform(0.0, 1.2)),
            noise_sigma=float(rng.uniform(0.0, 0.02)),
            seed=int(rng.integers(0, 2**32)),
        )
        curve = sweep(generate_trace(cfg), SimConfig(capacity_bytes=0),
                      [E720 * k for k in range(1, 9)])
        rates = [p.hit_rate for p in curve]
        violations += sum(1 for a, b in zip(rates, rates[1:]) if b < a)
    dt = time.monotonic() - t0
    ok = violations == 0 and dt < 30.0
    _verdict(6, "hit rate nondecreasing over 50 traces x 8 capacities", ok,
             f"violations={violations}, {dt:.1f}s")


def test_c07_fit_recovery():
    t0 = time.monotonic()
    true_exp = ExponentialSaturation(beta=0.5, entry_size_gb=2.0)
    r_exp = fit_hit_rate([(m, true_exp.hit_rate(m)) for m in (1, 2, 4, 8, 16)],
                         ExponentialSaturation, entry_size_gb=2.0)
    beta_err = abs(r_exp.model.beta - 0.5) / 0.5

    true_pow = PowerLaw(kappa=0.1, gamma=0.8)
    caps = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    r_pow = fit_hit_rate([(m, true_pow.hit_rate(m)) for m in caps], PowerLaw)
    kappa_err = abs(r_pow.model.kappa - 0.1) / 0.1
    gamma_err = abs(r_pow.model.gamma - 0.8) / 0.8
    dt = time.monotonic() - t0
    ok = (beta_err < 0.01 and r_exp.residual <= 1e-6
          and kappa_err < 0.02 and gamma_err < 0.02 and r_pow.residual <= 1e-6
          and dt < 5.0)
    _verdict(7, "noiseless fit recovery for both families", ok,
             f"beta err={beta_err:.2e}, kappa err={kappa_err:.2e}, "
             f"gamma err={gamma_err:.2e}, residuals={r_exp.residual:.1e}/"
             f"{r_pow.residual:.1e}, {dt:.2f}s")


def test_c08_marginal_vs_finite_difference():
    t0 = time.monotonic()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        se = float(rng.uniform(0.5, 5.0))
        cost = CacheCostParams(50, float(rng.uniform(1e8, 1e10)),
                               int(rng.integers(1, 51)), se)
        if rng.random() < 0.5:
            beta = float(rng.uniform(0.1, 5.0))
            model = ExponentialSaturation(beta, se)
            m = float(rng.uniform(0.0, 6.0)) * se / beta
        else:
            kappa = float(rng.uniform(0.2, 2.0)) / se
            model = PowerLaw(kappa, float(rng.uniform(0.3, 3.0)))
            m = float(rng.uniform(0.0, 5.0)) / kappa
        h = 1e-4 * se
        m = max(m, h)
        fd = (expected_compute(cost, model, m - h).expected_cost_flops
              - expected_compute(cost, model, m + h).expected_cost_flops) / (2 * h)
        rel = abs(marginal_benefit(cost, model, m) - fd) / abs(fd)
        worst = max(worst, rel)
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and dt < 1.0
    _verdict(8, "analytic marginal vs central FD, 50 draws", ok,
             f"worst rel err={worst:.2e}, {dt:.2f}s")


def test_c09_capacity_sweep_shape():
    t0 = time.monotonic()
    cfg = GeneratorConfig(num_requests=100_000, num_clusters=1000, dimension=64,
                          zipf_exponent=1.1, noise_sigma=0.05, seed=2024)
    trace = generate_trace(cfg)
    caps = [4 * E720 * 2**i for i in range(8)]
    curve = sweep(trace, SimConfig(capacity_bytes=0), caps)
    rates = [p.hit_rate for p in curve]
    nondecreasing = all(b >= a for a, b in zip(rates, rates[1:]))
    deltas = [b - a for a, b in zip(rates, rates[1:])]
    concave_past_half = all(
        deltas[i] <= deltas[i - 1]
        for i in range(1, len(deltas))
        if rates[i] > 0.5
    )
    dt = time.monotonic() - t0
    ok = nondecreasing and concave_past_half and dt < 120.0
    _verdict(9, "100k-request sweep: rising, flattening hit-rate curve", ok,
             f"rates={[round(r, 3) for r in rates]}, {dt:.1f}s")


def test_c10_end_to_end_determinism(tmp_path, capsys):
    paths = {}
    for tag in ("a", "b"):
        trace_path = tmp_path / f"trace_{tag}.jsonl"
        curve_path = tmp_path / f"curve_{tag}.csv"
        assert cli_main(["gen", "--out", str(trace_path), "--n", "2000",
                         "--clusters", "100", "--dim", "32", "--zipf", "1.1",
                         "--sigma", "0.02", "--seed", "424242"]) == 0
        assert cli_main(["sweep", "--trace", str(trace_path),
                         "--capacities", "80MB,160MB,320MB,640MB,1280MB,2560MB",
                         "--jobs", "2", "--out", str(curve_path)]) == 0
        paths[tag] = (trace_path.read_bytes(), curve_path.read_bytes())
    capsys.readouterr()  # swallow the CLI stdout
    traces_equal = paths["a"][0] == paths["b"][0]
    curves_equal = paths["a"][1] == paths["b"][1]
    ok = traces_equal and curves_equal
    _verdict(10, "gen + sweep reruns are byte-identical", ok,
             f"trace bytes equal={traces_equal}, curve bytes equal={curves_equal}")
