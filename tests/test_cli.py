import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tradeoffs
import tradeoffs.cli as cli
import tradeoffs.workload as workload
from tradeoffs import (
    CacheCostParams,
    EmpiricalHitRate,
    ExponentialSaturation,
    GeneratorConfig,
    SimConfig,
    Trace,
    curve_to_csv,
    expected_compute,
    generate_trace,
    load_trace,
    marginal_benefit,
    replay,
    save_trace,
    serialize_trace,
    sweep,
    write_curve_csv,
)
from tradeoffs.cli import main, parse_bytes

E720 = 80_000_000


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def hash_only(monkeypatch, *inputs):
    """Fail the test where a file other than ``inputs`` is hashed: the
    digest of each file a command writes is the one taken as it was written."""
    file_sha256 = workload._file_sha256

    def only(p):
        if os.fspath(p) not in map(os.fspath, inputs):
            pytest.fail(f"{p} hashed again")
        return file_sha256(p)

    monkeypatch.setattr(workload, "_file_sha256", only)
    monkeypatch.setattr(cli, "_file_sha256", only)


def manifest_of(path) -> dict:
    """The manifest beside ``path``, after checking that its ``outputs``
    holds the SHA-256 of ``path``'s bytes."""
    with open(f"{path}.manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    with open(path, "rb") as f:
        assert manifest["outputs"] == {str(path): hashlib.sha256(f.read()).hexdigest()}
    return manifest


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


def test_parse_bytes_suffixes():
    assert parse_bytes("123") == 123
    assert parse_bytes("1GB") == 10**9
    assert parse_bytes("2.5TB") == 2_500_000_000_000
    assert parse_bytes("500MB") == 500_000_000
    assert parse_bytes("1.5e2KB") == 150_000
    assert parse_bytes(" 4 GB ") == 4 * 10**9
    for bad in ("1GiB", "abc", "-1GB", "1e400GB", "1e300TB"):
        with pytest.raises(ValueError):
            parse_bytes(bad)
    # The number's characters match but do not parse as a float.
    for bad in ("1..2", "1eGB"):
        with pytest.raises(ValueError, match="cannot parse byte count"):
            parse_bytes(bad)


def test_out_of_range_capacity_is_usage_error(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text('{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n')
    code, _, err = run(capsys, "replay", "--trace", str(trace_path),
                       "--capacity", "1e400GB")
    assert code == 2 and "error:" in err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# golden agreement with the library
# ---------------------------------------------------------------------------


def test_deficit_matches_library(capsys):
    code, out, _ = run(capsys, "deficit", "--total", "400", "--devices", "2",
                       "--per-device", "100", "--k", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"deficit_gb": 200.0, "comm_gb": 100.0}


def test_expected_compute_matches_library(capsys):
    code, out, _ = run(capsys, "expected-compute", "--steps", "50",
                       "--step-cost", "1e9", "--reuse", "20", "--hit", "0.6",
                       "--capacity", "10", "--entry-size", "2")
    assert code == 0
    doc = json.loads(out)
    econ = expected_compute(
        CacheCostParams(50, 1e9, 20, 2.0), EmpiricalHitRate(((0.0, 0.6),)), 10.0)
    assert doc["expected_saved_flops"] == econ.expected_saved_flops == 1.2e10
    assert doc["expected_cost_flops"] == econ.expected_cost_flops
    assert doc["entry_count"] == econ.entry_count
    assert doc["saved_flops_per_gb"] == econ.saved_flops_per_gb
    assert out == (
        '{\n  "capacity_gb": 10.0,\n  "hit_rate": 0.6,\n'
        '  "full_cost_flops": 50000000000.0,\n  "reuse_savings_flops": 20000000000.0,\n'
        '  "expected_saved_flops": 12000000000.0,\n  "expected_cost_flops": 38000000000.0,\n'
        '  "entry_count": 5,\n  "saved_flops_per_gb": 1200000000.0\n}\n'
    )


def test_marginal_matches_library(capsys):
    code, out, _ = run(capsys, "marginal", "--reuse", "20", "--capacity", "3",
                       "--model", "exp", "--beta", "0.5", "--entry-size", "2")
    assert code == 0
    expect = marginal_benefit(
        CacheCostParams(50, 1e9, 20, 2.0), ExponentialSaturation(0.5, 2.0), 3.0)
    assert json.loads(out)["marginal_flops_per_gb"] == expect


def test_frontier_subcommand(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text(
        "bandwidth_bpp,compute_flops,quality\n"
        "0.15,1e9,0.9\n0.075,1.4e10,0.9\n0.0375,1e11,0.9\n")
    code, out, _ = run(capsys, "frontier", "--samples", str(samples),
                       "--quality", "0.9", "--budget", "1.4e10")
    assert code == 0
    doc = json.loads(out)
    assert doc["bandwidth_bpp"] == 0.075 and doc["sample_index"] == 1


def test_frontier_infeasible_exit_code(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("bandwidth_bpp,compute_flops,quality\n0.15,1e9,0.9\n")
    code, out, err = run(capsys, "frontier", "--samples", str(samples),
                         "--quality", "0.9", "--budget", "1e8")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "Infeasible"


@pytest.mark.parametrize("flag, value", [("--quality", "nan"), ("--budget", "nan"),
                                         ("--quality", "inf"), ("--budget", "inf"),
                                         ("--budget", "-1")])
def test_frontier_non_finite_target_is_usage_error(tmp_path, capsys, flag, value):
    samples = tmp_path / "s.csv"
    samples.write_text("bandwidth_bpp,compute_flops,quality\n0.15,1e9,0.9\n")
    args = {"--quality": "0.9", "--budget": "1e10", flag: value}
    code, out, err = run(capsys, "frontier", "--samples", str(samples),
                         *[x for pair in args.items() for x in pair])
    assert code == 2 and out == "" and "must be" in err


def test_frontier_bad_csv_is_domain_error(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("wrong,header,names\n1,2,3\n")
    code, _, err = run(capsys, "frontier", "--samples", str(samples),
                       "--quality", "0.9", "--budget", "1e9")
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


def test_frontier_non_finite_sample_is_domain_error(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("bandwidth_bpp,compute_flops,quality\n"
                       "0.15,1e9,0.9\nnan,1e9,0.9\n")
    code, out, err = run(capsys, "frontier", "--samples", str(samples),
                         "--quality", "0.9", "--budget", "1e10")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and doc["message"].startswith("line 3:")


def test_frontier_out_of_range_sample_is_domain_error(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("bandwidth_bpp,compute_flops,quality\n"
                       "0.15,1e9,0.9\n-0.1,1e9,0.9\n")
    code, out, err = run(capsys, "frontier", "--samples", str(samples),
                         "--quality", "0.9", "--budget", "1e10")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError"
    assert doc["message"] == "line 3: bandwidth_bpp must be nonnegative and finite"


@pytest.mark.parametrize("row, error, message", [
    *(pytest.param(row, "ParseError", "line 3:", id=row) for row in (
        "0.08,0.5,0", "0.08,0.5,0,0,0", "0.08,x,0,0", "inf,0.5,0,0", "-0.3,0.4,0,0",
        "1e300,0.5,0,0")),
    # A capacity-0 row is one that sweep itself writes.
    pytest.param("0,0.1,0,0", "DegeneratePoints", "capacities must be positive", id="0,0.1,0,0"),
    pytest.param("0.04,0.5,0,0", "DegeneratePoints", "capacities must be distinct",
                 id="0.04,0.5,0,0"),
    pytest.param("", "DegeneratePoints", "at least 3 points", id="two-rows"),
])
def test_fit_malformed_curve_is_domain_error(tmp_path, capsys, row, error, message):
    path = tmp_path / "curve.csv"
    path.write_text("capacity_gb,hit_rate,saved_flops,expected_cost_flops\n"
                    "0.04,0.25,0,0\n" + row + "\n0.16,0.75,0,0\n")
    code, out, err = run(capsys, "fit", "--curve", str(path), "--family", "exp")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == error and doc["message"].startswith(message)


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "replay", "--trace", "no-such.jsonl",
                       "--capacity", "1GB")
    assert code == 1
    assert json.loads(err)["error"] == "IOError"


def test_non_finite_trace_is_domain_error(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text('{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n'
                          '{"ts":1,"id":"y","res":"720p","emb":[NaN,1.0]}\n')
    code, _, err = run(capsys, "replay", "--trace", str(trace_path),
                       "--capacity", "1GB")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and doc["message"].startswith("line 2:")


def test_non_utf8_trace_is_domain_error(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_bytes(b'{"ts":0,"id":"x","res":"720p","emb":[1,0]}\n'
                           b'{"ts":1,"id":"\xff","res":"720p","emb":[0,1]}\n')
    code, out, err = run(capsys, "replay", "--trace", str(trace_path),
                         "--capacity", "1GB")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc == {"error": "ParseError", "message": "line 2: not valid UTF-8"}


def test_bad_flag_value_is_usage_error(capsys):
    code, _, err = run(capsys, "expected-compute", "--reuse", "20",
                       "--hit", "1.5")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["expected-compute", "--reuse", "20", "--hit", "0.5", "--model", "exp"],
     "--hit and --model are mutually exclusive"),
    (["expected-compute", "--reuse", "20", "--hit", "-0.1"], "--hit must lie in [0, 1]"),
    (["expected-compute", "--reuse", "20", "--model", "exp"], "--model exp requires --beta"),
    (["marginal", "--reuse", "20", "--capacity", "4", "--model", "power", "--kappa", "1"],
     "--model power requires --kappa and --gamma"),
    (["marginal", "--reuse", "20", "--capacity", "4"], "specify --model (or --hit where accepted)"),
    (["gen", "--n", "5", "--clusters", "1", "--res-mix", "720p", "--out", "OUT"],
     "bad resolution mix entry '720p'"),
])
def test_flag_combinations_the_parser_accepts_but_the_command_rejects_are_usage_errors(
        tmp_path, capsys, argv, message):
    code, out, err = run(capsys, *(str(tmp_path / "t.jsonl") if a == "OUT" else a for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


_DEFICIT = ["deficit", "--total", "400", "--devices", "2", "--per-device", "100"]
_MARGINAL = ["marginal", "--reuse", "20", "--capacity", "4", "--model", "exp", "--beta", "0.5"]
_POWER = ["marginal", "--reuse", "20", "--capacity", "4", "--model", "power",
          "--kappa", "1", "--gamma", "0.5"]
_EXPECTED = ["expected-compute", "--reuse", "20", "--capacity", "4", "--hit", "0.5"]


@pytest.mark.parametrize("argv, flag", [
    *((_DEFICIT, f) for f in ("--total", "--per-device", "--k", "--allreduce", "--state")),
    *((_MARGINAL, f) for f in ("--beta", "--step-cost", "--entry-size", "--capacity")),
    *((_POWER, f) for f in ("--kappa", "--gamma")),
    *((_EXPECTED, f) for f in ("--step-cost", "--entry-size", "--capacity", "--hit")),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_model_flag_is_usage_error(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert code == 2 and out == "" and "error:" in err


def test_an_exponential_rate_beyond_float_range_is_a_usage_error_that_names_it(capsys):
    code, out, err = run(capsys, "marginal", "--reuse", "20", "--capacity", "1", "--model", "exp",
                         "--beta", "1e308", "--entry-size", "1e-308")
    assert (code, out, err) == (2, "", "error: beta / entry_size_gb must be finite\n")


@pytest.mark.parametrize("argv, name", [
    ("deficit --total 1e308 --devices 1 --per-device 0 --k 10", "comm_gb"),
    ("deficit --total 1 --devices 1 --per-device 0 --allreduce 1e308 --state 1e308", "comm_gb"),
    ("expected-compute --steps 50 --step-cost 1e308 --reuse 20 --hit 0.5", "full_cost_flops"),
    ("expected-compute --steps 50 --step-cost 1e300 --reuse 20 --capacity 5e-324 --hit 0.5",
     "saved_flops_per_gb"),
    # gamma * kappa overflows and the power underflows: inf * 0 is NaN.
    ("marginal --steps 50 --step-cost 1e9 --reuse 20 --capacity 1 --model power "
     "--kappa 1e308 --gamma 2", "marginal hit rate"),
    ("marginal --steps 50 --step-cost 1e308 --reuse 20 --capacity 0 --model power "
     "--kappa 1e308 --gamma 2", "marginal hit rate"),
    ("marginal --steps 50 --step-cost 1e300 --reuse 20 --capacity 0 --model exp "
     "--beta 1e300 --entry-size 1e-5", "marginal_flops_per_gb"),
])
def test_a_result_beyond_float_range_is_a_usage_error_that_names_it(capsys, argv, name):
    # Every flag is in range; the result the command derives from them is not.
    assert run(capsys, *argv.split()) == (2, "", f"error: {name} must be finite\n")


def test_non_finite_result_is_usage_error_not_invalid_json(capsys, monkeypatch):
    import tradeoffs.cli as cli

    monkeypatch.setattr(cli, "memory_deficit", lambda params: float("nan"))
    code, out, err = run(capsys, *_DEFICIT)
    assert code == 2 and out == "" and "not JSON compliant" in err


# ---------------------------------------------------------------------------
# file-producing subcommands
# ---------------------------------------------------------------------------


def test_gen_writes_trace_and_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.jsonl"
    with monkeypatch.context() as patch:
        hash_only(patch)
        code, stdout, _ = run(capsys, "gen", "--out", str(out), "--n", "40",
                              "--clusters", "4", "--dim", "8", "--seed", "6")
    assert code == 0
    assert json.loads(stdout)["requests"] == 40
    trace = load_trace(out)
    assert trace == generate_trace(
        GeneratorConfig(num_requests=40, num_clusters=4, dimension=8, seed=6))
    manifest = manifest_of(out)
    assert manifest["subcommand"] == "gen" and manifest["seed"] == 6
    assert trace.source_sha256 == hashlib.sha256(out.read_bytes()).hexdigest()



def test_counts_whose_product_sizes_too_large_an_array_are_a_usage_error(tmp_path, capsys):
    # 2**80 float64 cluster centers: numpy would refuse them with a message
    # that names no flag.
    out = tmp_path / "t.jsonl"
    code, stdout, err = run(capsys, "gen", "--out", str(out), "--n", "10",
                            "--clusters", "1099511627776", "--dim", "1099511627776")
    assert (code, stdout) == (2, "")
    assert err == "error: num_clusters * dimension must be below 2**60\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "env"])
def test_a_negative_seed_is_a_usage_error_that_names_the_seed(tmp_path, capsys, monkeypatch, where):
    out = tmp_path / "t.jsonl"
    argv = ["gen", "--out", str(out), "--n", "20", "--clusters", "2", "--dim", "8"]
    if where == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("TRINITY_SEED", "-3")
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", "error: seed must be nonnegative, finite and whole\n")
    assert not out.exists()


def test_trinity_seed_env_overrides_flag(tmp_path, capsys, monkeypatch):
    out_env = tmp_path / "env.jsonl"
    monkeypatch.setenv("TRINITY_SEED", "99")
    run(capsys, "gen", "--out", str(out_env), "--n", "20", "--clusters", "2",
        "--dim", "8", "--seed", "1")
    monkeypatch.delenv("TRINITY_SEED")
    out_flag = tmp_path / "flag.jsonl"
    run(capsys, "gen", "--out", str(out_flag), "--n", "20", "--clusters", "2",
        "--dim", "8", "--seed", "99")
    assert out_env.read_bytes() == out_flag.read_bytes()
    monkeypatch.setenv("TRINITY_SEED", "abc")
    out_bad = tmp_path / "bad.jsonl"
    code, out, err = run(capsys, "gen", "--out", str(out_bad), "--n", "20", "--clusters", "2")
    assert (code, out, err) == (2, "", "error: TRINITY_SEED must be an integer, got 'abc'\n")
    assert not out_bad.exists()


def test_replay_outputs_and_records(tmp_path, capsys, monkeypatch):
    trace = generate_trace(GeneratorConfig(num_requests=60, num_clusters=5,
                                           dimension=8, noise_sigma=0.01, seed=2))
    trace_path = tmp_path / "t.jsonl"
    save_trace(trace, trace_path)
    out = tmp_path / "rep.json"
    recs = tmp_path / "recs.jsonl"
    hash_only(monkeypatch, trace_path)
    code, _, _ = run(capsys, "replay", "--trace", str(trace_path),
                     "--capacity", "160MB", "--out", str(out),
                     "--records", str(recs))
    assert code == 0
    expect = replay(trace, SimConfig(capacity_bytes=160_000_000))
    doc = json.loads(out.read_text())
    assert doc["summary"] == expect.summary.to_dict()
    assert out.read_text() == (
        '{\n  "capacity_bytes": 160000000,\n  "summary": {\n    "requests": 60,\n'
        '    "hits": 45,\n    "hit_rate": 0.75,\n    "mean_depth_over_hits": 17.88888888888889,\n'
        '    "total_saved_flops": 805000000000.0,\n    "total_full_flops": 3000000000000.0,\n'
        '    "expected_cost_flops": 2195000000000.0,\n    "peak_occupied_bytes": 160000000,\n'
        '    "evictions": 13\n  }\n}\n'
    )
    lines = [json.loads(ln) for ln in recs.read_text().splitlines()]
    assert lines == [r.to_dict() for r in expect.per_request]
    manifest = manifest_of(out)
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert manifest["inputs"] == {str(trace_path): digest}
    records_manifest = manifest_of(recs)
    del manifest["outputs"], records_manifest["outputs"]
    assert records_manifest == manifest


def test_sweep_csv_matches_library(tmp_path, capsys, monkeypatch):
    trace = generate_trace(GeneratorConfig(num_requests=80, num_clusters=4,
                                           dimension=8, noise_sigma=0.01, seed=3))
    trace_path = tmp_path / "t.jsonl"
    save_trace(trace, trace_path)
    out = tmp_path / "curve.csv"
    hash_only(monkeypatch, trace_path)
    code, stdout, _ = run(capsys, "sweep", "--trace", str(trace_path),
                          "--capacities", "80MB,160MB,320MB",
                          "--jobs", "1", "--out", str(out))
    assert code == 0
    curve = sweep(trace, SimConfig(capacity_bytes=0),
                  [80_000_000, 160_000_000, 320_000_000])
    assert out.read_text() == curve_to_csv(curve)
    assert manifest_of(out)["inputs"] == {
        str(trace_path): hashlib.sha256(trace_path.read_bytes()).hexdigest()}
    rows = json.loads(stdout)
    assert [r["hit_rate"] for r in rows] == [p.hit_rate for p in curve]


@pytest.mark.parametrize("sidecar", ["fresh", "stale", "none"])
@pytest.mark.parametrize("command, extra, outputs", [
    ("replay", ["--capacity", "160MB", "--records", "recs"], ["out", "recs"]),
    ("sweep", ["--capacities", "80MB,160MB", "--jobs", "1"], ["out"]),
])
def test_manifest_records_the_digest_of_the_trace_file(
        tmp_path, capsys, monkeypatch, command, extra, outputs, sidecar):
    monkeypatch.chdir(tmp_path)
    trace = generate_trace(GeneratorConfig(num_requests=30, num_clusters=3, dimension=8, seed=4))
    if sidecar != "none":
        save_trace(trace, "t.jsonl")
    if sidecar != "fresh":
        # Bytes other than the ones the sidecar, if any, was saved for.
        (tmp_path / "t.jsonl").write_bytes(serialize_trace(trace).replace("\n", "\r\n").encode())
    assert (tmp_path / "t.jsonl.cache.npz").exists() == (sidecar != "none")
    code, _, _ = run(capsys, command, "--trace", "t.jsonl", "--out", "out", *extra)
    assert code == 0
    digest = hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest()
    for out in outputs:
        assert manifest_of(out)["inputs"] == {"t.jsonl": digest}


@pytest.mark.parametrize("command, extra", [
    ("replay", ["--capacity", "160MB", "--step-cost", "inf"]),
    ("replay", ["--capacity", "160MB", "--step-cost", "nan"]),
    ("sweep", ["--capacities", "80MB,320MB", "--step-cost", "nan"]),
    ("sweep", ["--capacities", "80MB,320MB", "--step-cost=-inf"]),
    ("sweep", ["--capacities", "80MB,320MB", "--jobs", "0"]),
    ("sweep", ["--capacities", "80MB,320MB", "--jobs", "-3"]),
])
def test_non_finite_step_cost_and_jobs_below_one_are_usage_errors(
        tmp_path, capsys, command, extra):
    trace_path = tmp_path / "t.jsonl"
    save_trace(generate_trace(GeneratorConfig(num_requests=20, num_clusters=2,
                                              dimension=8, seed=1)), trace_path)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, "--trace", str(trace_path),
                            "--out", str(out), *extra)
    assert code == 2 and stdout == "" and "error:" in err
    assert not out.exists()


# The stdout of each command on a tiny input, byte for byte as written
# before the curve's columns and the fit and frontier fields were taken
# from one declaration each.
_PINNED_STDOUT = {
    "sweep": (
        '[\n  {\n    "capacity_gb": 0.08,\n    "hit_rate": 0.1,\n'
        '    "saved_flops": 200000000000.0,\n    "expected_cost_flops": 3800000000000.0\n  },\n'
        '  {\n    "capacity_gb": 0.32,\n    "hit_rate": 0.275,\n'
        '    "saved_flops": 550000000000.0,\n    "expected_cost_flops": 3450000000000.0\n  },\n'
        '  {\n    "capacity_gb": 1.0,\n    "hit_rate": 0.6125,\n'
        '    "saved_flops": 1225000000000.0,\n    "expected_cost_flops": 2775000000000.0\n  }\n]\n'
    ),
    "exp": (
        '{\n  "family": "exp",\n  "params": {\n    "beta": 0.13921988188056578,\n'
        '    "entry_size_gb": 0.08\n  },\n  "residual": 0.12176999813327886\n}\n'
    ),
    "power": (
        '{\n  "family": "power",\n  "params": {\n    "kappa": 13.73439040374459,\n'
        '    "gamma": 0.4266277293142701\n  },\n  "residual": 0.02451458349528979\n}\n'
    ),
    "frontier": (
        '{\n  "bandwidth_bpp": 0.075,\n  "sample_index": 1,\n  "sample": {\n'
        '    "bandwidth_bpp": 0.075,\n    "compute_flops": 14000000000.0,\n'
        '    "quality": 0.9\n  }\n}\n'
    ),
    # Finite results whose terms reach beyond float range: no check of a
    # derived number may reject them.
    "deficit": '{\n  "deficit_gb": 0.0,\n  "comm_gb": 0.0\n}\n',
    "marginal": '{\n  "capacity_gb": 1.0,\n  "marginal_flops_per_gb": 0.0\n}\n',
}


def test_sweep_fit_and_frontier_print_pinned_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_trace(generate_trace(GeneratorConfig(
        num_requests=80, num_clusters=4, dimension=8, noise_sigma=0.01, seed=3,
        resolution_mix={"720p": 0.5, "1080p": 0.3, "2k": 0.2})), "t.jsonl")
    (tmp_path / "curve.csv").write_text(
        "capacity_gb,hit_rate,saved_flops,expected_cost_flops\n0.08,0.25,1e12,3e12\n"
        "0.16,0.4,1.6e12,2.4e12\n0.32,0.55,2.2e12,1.8e12\n0.64,0.6,2.4e12,1.6e12\n")
    (tmp_path / "s.csv").write_text(
        "bandwidth_bpp,compute_flops,quality\n0.15,1e9,0.9\n0.075,1.4e10,0.9\n0.0375,1e11,0.9\n")
    runs = {
        "sweep": ["sweep", "--trace", "t.jsonl", "--capacities", "80MB,320MB,1GB", "--jobs", "1"],
        "exp": ["fit", "--curve", "curve.csv", "--family", "exp"],
        "power": ["fit", "--curve", "curve.csv", "--family", "power"],
        "frontier": ["frontier", "--samples", "s.csv", "--quality", "0.9", "--budget", "1.4e10"],
        "deficit": ["deficit", "--total", "1", "--devices", "2", "--per-device", "1e308"],
        "marginal": ["marginal", "--steps", "50", "--step-cost", "1e308", "--reuse", "0",
                     "--capacity", "1", "--model", "exp", "--beta", "0.04"],
    }
    for name, argv in runs.items():
        assert run(capsys, *argv) == (0, _PINNED_STDOUT[name], ""), name


@pytest.mark.parametrize("command, extra, outputs", [
    ("replay", ["--capacity", "160MB", "--records", "recs"], ["out", "recs"]),
    ("sweep", ["--capacities", "80MB,160MB", "--jobs", "1"], ["out"]),
])
def test_flop_totals_that_overflow_are_usage_errors_that_write_nothing(
        tmp_path, capsys, monkeypatch, command, extra, outputs):
    monkeypatch.chdir(tmp_path)
    save_trace(generate_trace(GeneratorConfig(num_requests=20, num_clusters=2,
                                              dimension=8, seed=1)), "t.jsonl")
    # Each request's full cost, 50 * 1e306 FLOPs, is finite; their sum is not.
    code, stdout, err = run(capsys, command, "--trace", "t.jsonl", "--out", "out",
                            "--step-cost", "1e306", *extra)
    assert (code, stdout, err) == (2, "", "error: total_full_flops must be finite\n")
    for out in outputs:
        assert not (tmp_path / out).exists()
        assert not (tmp_path / f"{out}.manifest.json").exists()


def test_an_empty_trace_replays_at_any_step_cost(tmp_path, capsys, monkeypatch):
    # Its full cost is 0.0, however far one request's full cost overflows.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.jsonl").write_bytes(b"")
    code, stdout, _ = run(capsys, "replay", "--trace", "t.jsonl", "--capacity", "1GB",
                          "--step-cost", "1e307")
    assert code == 0 and json.loads(stdout)["summary"]["total_full_flops"] == 0.0
    code, stdout, _ = run(capsys, "sweep", "--trace", "t.jsonl", "--capacities", "1GB",
                          "--step-cost", "1e307", "--out", "c.csv")
    assert code == 0 and json.loads(stdout)[0]["expected_cost_flops"] == 0.0


def test_fit_recovers_from_csv(tmp_path, capsys):
    from tradeoffs import CurvePoint

    model = ExponentialSaturation(beta=0.7, entry_size_gb=0.08)
    curve = [CurvePoint(int(k * E720), model.hit_rate(k * 0.08), 0.0, 0.0)
             for k in (1, 2, 4, 8, 16)]
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    code, out, _ = run(capsys, "fit", "--curve", str(path), "--family", "exp",
                       "--entry-size", "0.08")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["beta"] == pytest.approx(0.7, rel=1e-6)
    assert doc["residual"] < 1e-9


# ---------------------------------------------------------------------------
# per-request records
# ---------------------------------------------------------------------------

# At 320 MB: four 720p entries (80 MB each) fill the cache, the fifth
# request hits the first, the 1080p entry (200 MB) evicts the three least
# recently used 720p entries, and a 2k entry (350 MB) is too large. The ids
# hold a quote, a backslash, control characters, non-ASCII text and a lone
# surrogate.
_RECORD_ROWS = [
    ('first "miss"', "720p", 0),
    ("back\\slash", "720p", 1),
    ("ctl\x01\x1f\n", "720p", 2),
    ("héllo ✓ 東京", "720p", 3),
    ("hit \udc80 lone", "720p", 0),
    ("wide", "1080p", 4),
    ("too large", "2k", 5),
]


def test_records_lines_are_json_dumps_of_each_record(tmp_path, capsys):
    ids, res, axes = zip(*_RECORD_ROWS)
    trace_path = tmp_path / "t.jsonl"
    save_trace(Trace(range(len(ids)), ids, res, np.eye(8)[list(axes)]), trace_path)
    recs = tmp_path / "recs.jsonl"
    code, _, _ = run(capsys, "replay", "--trace", str(trace_path),
                     "--capacity", "320MB", "--records", str(recs))
    assert code == 0
    expect = replay(load_trace(trace_path), SimConfig(capacity_bytes=320_000_000)).per_request
    assert [r.outcome for r in expect] == ["miss"] * 4 + ["hit", "miss", "too_large"]
    assert (expect[0].matched_id, expect[0].similarity) == (None, None)
    assert len(expect[5].evicted) == 3
    assert recs.read_bytes() == "".join(
        json.dumps(r.to_dict()) + "\n" for r in expect).encode("ascii")


def test_a_failure_of_the_trace_hash_is_a_domain_error(tmp_path, capsys, monkeypatch):
    trace_path = tmp_path / "t.jsonl"
    save_trace(generate_trace(GeneratorConfig(num_requests=20, num_clusters=2,
                                              dimension=8, seed=1)), trace_path)

    def fail(path):
        raise OSError(5, "Input/output error", str(path))

    monkeypatch.setattr(workload, "_file_sha256", fail)
    code, out, err = run(capsys, "replay", "--trace", str(trace_path), "--capacity", "1GB")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "IOError", "message": f"[Errno 5] Input/output error: '{trace_path}'"}


# ---------------------------------------------------------------------------
# the process exit
# ---------------------------------------------------------------------------

# The exit through the interpreter's teardown, as ``python -m tradeoffs``
# left before it exited through ``os._exit``.
_SYS_EXIT = "import sys; from tradeoffs.cli import main; sys.exit(main())"


def _launch(cwd, launcher, argv):
    """Exit code, stdout, stderr and the files written of one CLI process
    run in ``cwd``, its stdout and stderr going to pipes."""
    cwd.mkdir()
    src = os.path.dirname(os.path.dirname(tradeoffs.__file__))
    env = {k: v for k, v in os.environ.items() if k != "TRINITY_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *launcher, *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=120)
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


@pytest.mark.parametrize("argv, code", [
    (["replay", "--capacity", "160MB", "--out", "rep.json", "--records", "recs.jsonl"], 0),
    (["replay", "--capacity", "160MB"], 0),
    (["sweep", "--capacities", "80MB,160MB,320MB", "--jobs", "2", "--out", "curve.csv"], 0),
    (["gen", "--out", "g.jsonl", "--n", "50", "--clusters", "3", "--dim", "8"], 0),
    (["replay", "--capacity", "1GB", "--trace", "no-such.jsonl"], 1),
    # Arrays of 8 and 64 PB, beyond any address space: numpy fails to
    # allocate them before it touches any memory.
    (["gen", "--out", "g.jsonl", "--n", "1000000000000000", "--clusters", "3", "--dim", "8"], 1),
    (["gen", "--out", "g.jsonl", "--n", "50", "--clusters", "1000000000000000", "--dim", "8"], 1),
    (["replay", "--capacity", "1e400GB"], 2),
    (["sweep", "--capacities", "80MB", "--jobs", "0"], 2),
    (["fit", "--curve", "c.csv"], 2),
], ids=["replay files", "replay stdout", "sweep", "gen", "missing trace", "gen requests memory",
        "gen clusters memory", "bad capacity", "bad jobs", "argparse"])
def test_the_exit_without_teardown_keeps_codes_and_bytes(tmp_path, argv, code):
    trace_path = tmp_path / "t.jsonl"
    save_trace(generate_trace(GeneratorConfig(num_requests=60, num_clusters=5,
                                              dimension=8, noise_sigma=0.01, seed=2)),
               trace_path)
    if argv[0] in ("replay", "sweep") and "--trace" not in argv:
        argv = [*argv, "--trace", str(trace_path)]
    fast = _launch(tmp_path / "os_exit", ["-m", "tradeoffs"], argv)
    slow = _launch(tmp_path / "sys_exit", ["-c", _SYS_EXIT], argv)
    assert fast[0] == code
    assert fast == slow
    assert (fast[1] or fast[3]) if code == 0 else fast[2]  # something to compare
    if "1000000000000000" in argv:
        assert json.loads(fast[2])["error"] == "MemoryError"


def test_a_norm_that_overflows_is_one_json_error_line(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text('{"ts":0,"id":"x","res":"720p","emb":[1e200, 1.0]}\n')
    code, out, err, _ = _launch(tmp_path / "run", ["-m", "tradeoffs"],
                                ["replay", "--capacity", "1GB", "--trace", str(trace_path)])
    assert (code, out) == (1, b"")
    line, = err.decode().splitlines()  # no numpy warning ahead of it
    assert json.loads(line) == {"error": "NonFiniteEmbedding",
                                "message": "request 'x' has a non-finite norm"}


# Runs the CLI on its argv, then prints the exit code and the watched
# modules that the launch imported.
_PRINT_IMPORTS = (
    "import sys\n"
    "try:\n"
    "    from tradeoffs.cli import main\n"
    "    code = main()\n"
    "except SystemExit as e:\n"
    "    code = e.code\n"
    "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'tradeoffs' "
    "or m in ('numpy', 'numpy.ma', 'multiprocessing')))"
)
_CLI = ["tradeoffs", "tradeoffs._formats", "tradeoffs.cli", "tradeoffs.errors"]
_MODELS = [*_CLI, "tradeoffs.models"]
_TRACES = ["numpy", *_CLI, "tradeoffs._forkmap", "tradeoffs.cache", "tradeoffs.workload"]
_REPLAY = [*_TRACES, "tradeoffs.sim"]


@pytest.mark.parametrize("argv, code, modules", [
    (["--help"], 0, _CLI),
    (["--version"], 0, _CLI),
    (["fit", "--curve", "curve.csv"], 2, _CLI),
    (["deficit", "--total", "400", "--devices", "2", "--per-device", "100", "--k", "0.5"],
     0, _MODELS),
    (["expected-compute", "--reuse", "20", "--capacity", "1", "--model", "exp", "--beta", "0.04"],
     0, _MODELS),
    (["marginal", "--reuse", "20", "--capacity", "1", "--model", "power", "--kappa", "2",
      "--gamma", "0.5"], 0, _MODELS),
    (["frontier", "--samples", "samples.csv", "--quality", "0.9", "--budget", "1.4e10"],
     0, _MODELS),
    (["fit", "--curve", "curve.csv", "--family", "power"], 0, ["numpy", *_MODELS]),
    (["fit", "--curve", "curve.csv", "--family", "exp"], 0, ["numpy", *_MODELS]),
    (["gen", "--out", "g.jsonl", "--n", "50", "--clusters", "3", "--dim", "8"],
     0, [*_TRACES, "tradeoffs._floatrepr"]),
    (["replay", "--trace", "t.jsonl", "--capacity", "160MB", "--out", "rep.json",
      "--records", "recs.jsonl"], 0, _REPLAY),
    (["sweep", "--trace", "t.jsonl", "--capacities", "80MB,160MB,320MB", "--jobs", "2",
      "--out", "c.csv"], 0, ["multiprocessing", *_REPLAY]),
], ids=["help", "version", "usage", "deficit", "expected-compute", "marginal", "frontier",
        "fit-power", "fit-exp", "gen", "replay", "sweep"])
def test_a_launch_imports_only_what_its_command_runs(tmp_path, argv, code, modules):
    # Only a sweep imports multiprocessing, to count its workers, only gen
    # the trace float formatter, and none numpy.ma; the closed-form
    # commands never import numpy.
    save_trace(generate_trace(GeneratorConfig(num_requests=60, num_clusters=5,
                                              dimension=8, noise_sigma=0.01, seed=2)),
               tmp_path / "t.jsonl")
    write_curve_csv(sweep(load_trace(tmp_path / "t.jsonl"), SimConfig(capacity_bytes=0),
                          [E720, 2 * E720, 4 * E720]), tmp_path / "curve.csv")
    (tmp_path / "samples.csv").write_text(
        "bandwidth_bpp,compute_flops,quality\n0.15,1e9,0.9\n0.075,1.4e10,0.9\n")
    argv = [str(tmp_path / a) if a in ("t.jsonl", "curve.csv", "samples.csv") else a
            for a in argv]
    status, out, err, _ = _launch(tmp_path / "run", ["-c", _PRINT_IMPORTS], argv)
    assert status == 0 and (code == 2) == bool(err), err
    assert out.decode().splitlines()[-1].split() == [str(code), *sorted(modules)]


# Patches a library name before cli has used it, in the orders the tests
# and the tracer use, then undoes them: cli must keep the originals. The
# file hash is bound from _formats as cli is imported, so either order
# holds; a lazily bound name holds when cli is patched first.
_PATCH_FRESH = """
import pytest
import tradeoffs._formats as formats, tradeoffs.cli as cli
import tradeoffs.sim as sim, tradeoffs.workload as workload
replay = sim.replay
with pytest.MonkeyPatch.context() as m:
    m.setattr(workload, "_file_sha256", len)
    m.setattr(cli, "_file_sha256", len)
    m.setattr(cli, "replay", len)
    m.setattr(sim, "replay", len)
assert cli._file_sha256 is workload._file_sha256 is formats._file_sha256
assert cli.replay is sim.replay is replay
"""


def test_a_patch_made_before_cli_runs_is_undone_on_cli(tmp_path):
    code, _, err, _ = _launch(tmp_path / "run", ["-c", _PATCH_FRESH], [])
    assert code == 0, err.decode()


def test_gen_imports_the_float_formatter_once(tmp_path):
    # serialize_trace imports it before forking, so a split's workers
    # inherit it instead of importing it again.
    argv = ["gen", "--out", "t.jsonl", "--n", "2000", "--clusters", "20", "--dim", "64"]
    code, _, err, files = _launch(tmp_path / "gen", ["-X", "importtime", "-m", "tradeoffs"], argv)
    assert code == 0 and "t.jsonl" in files
    assert err.count(b" tradeoffs._floatrepr\n") == 1


def test_the_console_script_is_the_same_entry():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"tradeoffs": "tradeoffs.cli:entry"}
