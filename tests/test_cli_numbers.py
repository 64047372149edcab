"""Every subcommand under hostile numbers: NaN, infinities, -0.0, 0, the
smallest subnormal, 1e308 and -1 in each numeric flag.

A run must end in one of three ways, with no traceback and no warning:
exit 0 with stdout that is JSON without NaN or Infinity; exit 1 with a
JSON error object on stderr; or exit 2, a usage error. A file that a
successful run writes must be accepted by the next stage's reader
(gen -> replay/sweep -> fit).
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tradeoffs import GeneratorConfig, generate_trace, load_trace, save_trace
from tradeoffs.cli import main
from tradeoffs.sim import read_curve_csv

HOSTILE = ("nan", "inf", "-inf", "-0.0", "0", "5e-324", "1e308", "-1")


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def _json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's usage errors
                code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_numbers")
    trace = root / "trace.jsonl"
    save_trace(generate_trace(GeneratorConfig(
        num_requests=40, num_clusters=4, dimension=4, seed=2,
        resolution_mix={"720p": 0.5, "2k": 0.5})), trace)
    curve = root / "curve.csv"
    code, _, err = _run(["sweep", "--trace", str(trace), "--jobs", "1",
                         "--capacities", "80MB,160MB,320MB,640MB", "--out", str(curve)])
    assert code == 0, err
    samples = root / "samples.csv"
    samples.write_text("bandwidth_bpp,compute_flops,quality\n"
                       "0.15,1e9,0.9\n0.075,1.4e10,0.9\n0.0375,1e11,0.9\n")
    return {"root": root, "trace": str(trace), "curve": str(curve), "samples": str(samples)}


# Per subcommand: the fixed arguments, given the files, and each numeric
# flag with a valid value. Sizes stay small, and --jobs runs no workers.
MODELS = {
    "exp": (["--model", "exp"], {"--beta": "0.04"}),
    "power": (["--model", "power"], {"--kappa": "1.2", "--gamma": "0.5"}),
    "hit": ([], {"--hit": "0.6"}),
}
COST = {"--steps": "50", "--step-cost": "1e9", "--reuse": "20", "--entry-size": "0.08"}
REPLAY = {"--steps": "50", "--step-cost": "1e9"}
CASES = {
    "deficit": (lambda f: [], {"--total": "400", "--devices": "2", "--per-device": "100",
                               "--k": "0.5", "--allreduce": "2", "--state": "50"}),
    **{
        f"expected-compute {name}": (lambda f, fixed=fixed: fixed,
                                     {**COST, "--capacity": "10", **flags})
        for name, (fixed, flags) in MODELS.items()
    },
    **{
        f"marginal {name}": (lambda f, fixed=fixed: fixed, {**COST, "--capacity": "4", **flags})
        for name, (fixed, flags) in MODELS.items() if name != "hit"
    },
    "frontier": (lambda f: ["--samples", f["samples"]], {"--quality": "0.9", "--budget": "1.4e10"}),
    "gen": (lambda f: ["--out", str(f["root"] / "gen.jsonl"), "--res-mix", "720p=0.5,2k=0.5"],
            {"--n": "30", "--clusters": "3", "--dim": "4", "--zipf": "1.1", "--sigma": "0.05",
             "--seed": "7"}),
    "replay": (lambda f: ["--trace", f["trace"], "--records", str(f["root"] / "records.jsonl")],
               {**REPLAY, "--capacity": "320MB"}),
    "sweep": (lambda f: ["--trace", f["trace"], "--out", str(f["root"] / "sweep.csv")],
              {**REPLAY, "--jobs": "1", "--capacities": "80MB"}),
    "fit exp": (lambda f: ["--curve", f["curve"], "--family", "exp"], {"--entry-size": "0.08"}),
    "fit power": (lambda f: ["--curve", f["curve"], "--family", "power"],
                  {"--entry-size": "0.08"}),
}


def _value(valid):
    return st.sampled_from(HOSTILE + (valid,))


@st.composite
def _argv(draw, case, files):
    fixed, flags = CASES[case]
    argv = [case.split()[0], *fixed(files)]
    for flag, valid in flags.items():
        if flag == "--capacities":
            value = ",".join(draw(st.lists(_value(valid), min_size=1, max_size=3)))
        else:
            value = draw(_value(valid))
        argv += [flag, value]
    return argv


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_run_exits_0_1_or_2_and_prints_only_json(monkeypatch, files, case, data):
    monkeypatch.delenv("TRINITY_SEED", raising=False)
    argv = data.draw(_argv(case, files), label="argv")
    code, out, err = _run(argv)
    assert "Traceback" not in err
    if code == 0:
        _json(out)
        outputs = {"gen": lambda: load_trace(argv[argv.index("--out") + 1]),
                   "sweep": lambda: read_curve_csv(argv[argv.index("--out") + 1])}
        if argv[0] in outputs:
            outputs[argv[0]]()
        if argv[0] == "replay":
            with open(argv[argv.index("--records") + 1], encoding="utf-8") as f:
                for line in f:
                    _json(line)
    elif code == 1:
        doc = _json(err)
        assert set(doc) == {"error", "message"}
    else:
        assert code == 2, (code, out, err)
        assert out == ""
    if argv[0] == "fit" and not 0 < float(argv[argv.index("--entry-size") + 1]) < math.inf:
        assert code == 2  # checked for both families, though only exp uses it


@pytest.mark.parametrize("family", ["exp", "power"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.0", "-1"])
def test_fit_entry_size_is_checked_for_every_family(files, family, value):
    code, out, err = _run(["fit", "--curve", files["curve"], "--family", family,
                           f"--entry-size={value}"])
    assert (code, out) == (2, "")
    assert err == "error: entry_size_gb must be positive and finite\n"


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(1, 150),
    clusters=st.integers(1, 12),
    dim=st.integers(1, 8),
    zipf=st.sampled_from([0.0, 0.5, 1.1, 3.0]),
    sigma=st.sampled_from([0.0, 0.01, 0.05, 0.3, 2.0]),
    mix=st.sampled_from(["720p=1.0", "1080p=1.0", "720p=0.5,1080p=0.3,2k=0.2", "2k=1.0"]),
    seed=st.integers(0, 2**16),
    steps=st.lists(st.integers(1, 60), min_size=3, max_size=7, unique=True),
    flags=st.sets(st.sampled_from(["--insert-on-hit", "--cross-resolution"])),
)
def test_fit_takes_every_curve_that_sweep_writes(
        tmp_path_factory, n, clusters, dim, zipf, sigma, mix, seed, steps, flags):
    root = tmp_path_factory.mktemp("fit_sweep")
    trace, curve = str(root / "t.jsonl"), str(root / "c.csv")
    code, _, err = _run(["gen", "--out", trace, "--n", str(n), "--clusters", str(clusters),
                         "--dim", str(dim), "--zipf", str(zipf), "--sigma", str(sigma),
                         "--res-mix", mix, "--seed", str(seed)])
    assert code == 0, err
    capacities = ",".join(f"{40 * k}MB" for k in steps)  # 40 MB to 2.4 GB
    code, _, err = _run(["sweep", "--trace", trace, "--capacities", capacities,
                         "--jobs", "1", "--out", curve, *sorted(flags)])
    assert code == 0, err
    for family in ("exp", "power"):
        code, out, err = _run(["fit", "--curve", curve, "--family", family])
        assert code in (0, 1), (family, code, err)
        if code == 0:
            assert set(_json(out)) == {"family", "params", "residual"}
        else:
            assert _json(err)["error"] == "DegeneratePoints", (family, err)
