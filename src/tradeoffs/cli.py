"""Command-line surface.

Every library operation is reachable from a shell: closed-form model
queries print JSON to stdout, trace/curve producers write files, and
every file output gets a ``<out>.manifest.json`` sidecar recording the
subcommand, resolved parameters, input digests, and versions, so a run
can be audited and reproduced byte-for-byte.

Exit codes: 0 success; 1 domain error (infeasible target, degenerate
fit input, unreadable file, an array too large to allocate) with a
machine-readable JSON object on stderr; 2 usage error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
from dataclasses import asdict
from typing import NoReturn

from . import _EXPORTS, _MODULE_OF, __version__
from ._formats import (
    CURVE_COLUMNS,
    DEFAULT_DIM,
    RESOLUTIONS,
    _file_sha256,
    _read_float_csv,
    _write_text,
    read_curve_csv,
    write_curve_csv,
)
from .errors import TradeoffError, _number

# The package's public names that the handlers call are bound here on
# first use (PEP 562), from the module that defines each, so a launch
# imports only the modules its command runs: the closed-form commands
# never load numpy. A name already set here, such as a wrapper a test or
# the benchmark's tracer puts in place before any command has run, is
# kept. A name is bound as its module holds it then, not as the package
# caches it, so a caller that patches both this module and the library
# module patches this one first.
def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __package__)
    return globals().setdefault(name, getattr(module, name))


SAMPLES_CSV_HEADER = "bandwidth_bpp,compute_flops,quality"

_BYTES_SUFFIX = {"": 1, "KB": 10**3, "MB": 10**6, "GB": 10**9, "TB": 10**12}


def parse_bytes(text: str) -> int:
    """Parse a byte count with optional decimal KB/MB/GB/TB suffix."""
    m = re.fullmatch(r"\s*([0-9.eE+-]+)\s*([a-zA-Z]*)\s*", text)
    if not m:
        raise ValueError(f"cannot parse byte count {text!r}")
    suffix = m.group(2).upper()
    if suffix not in _BYTES_SUFFIX:
        raise ValueError(f"unknown unit {m.group(2)!r} in {text!r}")
    try:
        value = float(m.group(1))
    except ValueError:
        raise ValueError(f"cannot parse byte count {text!r}") from None
    return int(round(_number(value * _BYTES_SUFFIX[suffix], f"byte count {text!r}", 0)))


def _input_digest(path: str, trace) -> str | None:
    """The SHA-256 of the trace file for a manifest: the digest
    ``load_trace`` checked the sidecar against, else a hash of the file;
    None for a pipe, whose bytes are gone once read."""
    if trace.source_sha256 is None and os.path.isfile(path):
        return _file_sha256(path)
    return trace.source_sha256


def _json_text(doc: dict | list) -> str:
    """A JSON document as every command prints or writes it. A NaN or an
    infinity in it is a ValueError (exit 2), not invalid JSON."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _write_manifest(
    out_path: str,
    digest: str | None,
    subcommand: str,
    parameters: dict,
    inputs: dict[str, str],
    seed: int | None = None,
) -> None:
    """Write ``<out_path>.manifest.json``; ``inputs`` maps each input
    path to the SHA-256 of the bytes the command read from it, and
    ``outputs`` maps ``out_path`` to ``digest``, that of the bytes written."""
    import numpy as np  # loaded already by every command that writes a file

    doc = {
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": inputs,
        "seed": seed,
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "outputs": {out_path: digest},
    }
    _write_text(out_path + ".manifest.json", _json_text(doc))


def _emit(doc: dict | list) -> None:
    sys.stdout.write(_json_text(doc))


def _add_cost_args(p: argparse.ArgumentParser, marginal: bool) -> None:
    p.add_argument("--steps", type=int, default=50, help="denoising steps per request")
    p.add_argument("--step-cost", type=float, default=1e9, help="FLOPs per step")
    p.add_argument("--reuse", type=int, required=True, help="steps skipped on a hit")
    p.add_argument(
        "--capacity", type=float, default=0.0, required=marginal, help="cache capacity, GB"
    )
    p.add_argument("--entry-size", type=float, default=0.08, help="entry footprint, GB")
    p.add_argument(
        "--model",
        choices=("exp", "power"),
        help="hit-rate family: exp (saturating) or power (long tail)",
    )
    p.add_argument("--beta", type=float, help="exp model rate parameter")
    p.add_argument("--kappa", type=float, help="power model scale parameter")
    p.add_argument("--gamma", type=float, help="power model tail exponent")
    if not marginal:
        p.add_argument(
            "--hit",
            type=float,
            help="force a constant hit rate instead of a model",
        )


def _build_model(args, entry_size_gb: float) -> HitRateModel:
    if getattr(args, "hit", None) is not None:
        if args.model is not None:
            raise ValueError("--hit and --model are mutually exclusive")
        if not 0 <= args.hit <= 1:
            raise ValueError("--hit must lie in [0, 1]")
        return EmpiricalHitRate(points=((0.0, args.hit),))
    if args.model == "exp":
        if args.beta is None:
            raise ValueError("--model exp requires --beta")
        return ExponentialSaturation(beta=args.beta, entry_size_gb=entry_size_gb)
    if args.model == "power":
        if args.kappa is None or args.gamma is None:
            raise ValueError("--model power requires --kappa and --gamma")
        return PowerLaw(kappa=args.kappa, gamma=args.gamma)
    raise ValueError("specify --model (or --hit where accepted)")


def _add_replay_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True, help="input trace (JSON-lines)")
    p.add_argument("--steps", type=int, default=50, help="denoising steps per request")
    p.add_argument(
        "--step-cost", type=float, default=1e9, help="FLOPs per step, all resolutions"
    )
    p.add_argument(
        "--insert-on-hit",
        action="store_true",
        help="also cache the incoming request on a hit",
    )
    p.add_argument(
        "--cross-resolution",
        action="store_true",
        help="allow matches across resolutions",
    )


def _sim_config(args, capacity_bytes: int) -> SimConfig:
    return SimConfig(
        capacity_bytes=capacity_bytes,
        total_steps=args.steps,
        step_cost_by_resolution={res: args.step_cost for res in RESOLUTIONS},
        insert_on_hit=args.insert_on_hit,
        cross_resolution_match=args.cross_resolution,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradeoffs",
        description="Resource trade-off models and an approximate-cache simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deficit", help="memory deficit and communication cost")
    p.add_argument("--total", type=float, required=True, help="model state volume, GB")
    p.add_argument("--devices", type=int, required=True, help="device count")
    p.add_argument("--per-device", type=float, required=True, help="memory per device, GB")
    p.add_argument("--k", type=float, default=0.0, help="bandwidth per GB of deficit")
    p.add_argument("--allreduce", type=float, default=0.0, help="all-reduce factor")
    p.add_argument("--state", type=float, default=0.0, help="synchronized state volume, GB")

    p = sub.add_parser("expected-compute", help="expected per-request compute with a cache")
    _add_cost_args(p, marginal=False)

    p = sub.add_parser("marginal", help="saved FLOPs per additional GB of cache")
    _add_cost_args(p, marginal=True)

    p = sub.add_parser("frontier", help="minimal bandwidth meeting quality within budget")
    p.add_argument("--samples", required=True, help=f"CSV with header {SAMPLES_CSV_HEADER}")
    p.add_argument("--quality", type=float, required=True, help="quality target")
    p.add_argument("--budget", type=float, required=True, help="compute budget, FLOPs")

    p = sub.add_parser("gen", help="generate a synthetic clustered trace")
    p.add_argument("--out", required=True, help="output trace path")
    p.add_argument("--n", type=int, required=True, help="number of requests")
    p.add_argument("--clusters", type=int, required=True, help="number of clusters")
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--zipf", type=float, default=1.1, help="cluster popularity exponent")
    p.add_argument("--sigma", type=float, default=0.05, help="ambient noise scale")
    p.add_argument(
        "--seed", type=int, default=0, help="RNG seed (TRINITY_SEED overrides)"
    )
    p.add_argument(
        "--res-mix",
        default="720p=1.0",
        help="resolution mix, e.g. 720p=0.5,1080p=0.3,2k=0.2",
    )

    p = sub.add_parser("replay", help="replay a trace at one capacity")
    _add_replay_args(p)
    p.add_argument("--capacity", required=True, help="cache capacity, e.g. 4GB")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.add_argument("--records", help="write per-request records as JSON-lines")

    p = sub.add_parser("sweep", help="replay a trace over a capacity ladder")
    _add_replay_args(p)
    p.add_argument(
        "--capacities", required=True, help="comma-separated, e.g. 1GB,2GB,4GB"
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel worker processes",
    )
    p.add_argument("--out", help="write the curve CSV here")

    p = sub.add_parser("fit", help="fit a hit-rate family to a sweep curve")
    p.add_argument("--curve", required=True, help="curve CSV from sweep")
    p.add_argument("--family", choices=("exp", "power"), required=True)
    p.add_argument("--entry-size", type=float, default=0.08, help="entry footprint, GB")

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_deficit(args) -> int:
    params = DeficitParams(
        total_memory_gb=args.total,
        device_count=args.devices,
        device_memory_gb=args.per_device,
        allreduce_factor=args.allreduce,
        state_volume_gb=args.state,
        deficit_bandwidth_factor=args.k,
    )
    _emit({"deficit_gb": memory_deficit(params), "comm_gb": comm_cost(params)})
    return 0


def _cost_params(args) -> CacheCostParams:
    return CacheCostParams(
        total_steps=args.steps,
        step_cost_flops=args.step_cost,
        reuse_depth=args.reuse,
        entry_size_gb=args.entry_size,
    )


def _cmd_expected_compute(args) -> int:
    model = _build_model(args, args.entry_size)
    _emit(asdict(expected_compute(_cost_params(args), model, args.capacity)))
    return 0


def _cmd_marginal(args) -> int:
    model = _build_model(args, args.entry_size)
    value = marginal_benefit(_cost_params(args), model, args.capacity)
    _emit({"capacity_gb": args.capacity, "marginal_flops_per_gb": value})
    return 0


def _cmd_frontier(args) -> int:
    samples = _read_float_csv(args.samples, SAMPLES_CSV_HEADER, RateComputeSample)
    result = frontier_min_bandwidth(samples, args.quality, args.budget)
    _emit(
        {
            "bandwidth_bpp": result.bandwidth_bpp,
            "sample_index": result.sample_index,
            "sample": asdict(result.sample),
        }
    )
    return 0


def _parse_res_mix(text: str) -> dict[str, float]:
    mix = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"bad resolution mix entry {part!r}")
        name, _, prob = part.partition("=")
        mix[name.strip()] = float(prob)
    return mix


def _resolve_seed(args) -> int:
    env = os.environ.get("TRINITY_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"TRINITY_SEED must be an integer, got {env!r}") from None
    return args.seed


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    config = GeneratorConfig(
        num_requests=args.n,
        num_clusters=args.clusters,
        dimension=args.dim,
        zipf_exponent=args.zipf,
        noise_sigma=args.sigma,
        resolution_mix=_parse_res_mix(args.res_mix),
        seed=seed,
    )
    trace = generate_trace(config)
    digest = save_trace(trace, args.out)
    _write_manifest(
        args.out,
        digest,
        "gen",
        {
            "n": args.n,
            "clusters": args.clusters,
            "dim": args.dim,
            "zipf": args.zipf,
            "sigma": args.sigma,
            "res_mix": config.resolution_mix,
            "out": args.out,
        },
        inputs={},
        seed=seed,
    )
    _emit({"out": args.out, "requests": len(trace), "dimension": trace.dimension, "seed": seed})
    return 0


def _replay_params(args, extra: dict) -> dict:
    params = {
        "trace": args.trace,
        "steps": args.steps,
        "step_cost": args.step_cost,
        "insert_on_hit": args.insert_on_hit,
        "cross_resolution": args.cross_resolution,
    }
    params.update(extra)
    return params


def _cmd_replay(args) -> int:
    capacity = parse_bytes(args.capacity)
    trace = load_trace(args.trace)
    config = _sim_config(args, capacity)
    report = replay(trace, config, keep_records=args.records is not None)
    doc = report.to_dict(include_records=False)
    params = _replay_params(args, {"capacity_bytes": capacity})
    if args.records or args.out:
        inputs = {args.trace: _input_digest(args.trace, trace)}
    if args.records:
        text = "".join(f"{rec._json()}\n" for rec in report.per_request)
        _write_manifest(args.records, _write_text(args.records, text), "replay", params, inputs)
    if args.out:
        _write_manifest(args.out, _write_text(args.out, _json_text(doc)), "replay", params, inputs)
    else:
        _emit(doc)
    return 0


def _cmd_sweep(args) -> int:
    capacities = [parse_bytes(part) for part in args.capacities.split(",")]
    trace = load_trace(args.trace)
    config = _sim_config(args, 0)
    curve = sweep(trace, config, capacities, jobs=args.jobs)
    params = _replay_params(args, {"capacities_bytes": sorted(capacities)})
    if args.out:
        digest = write_curve_csv(curve, args.out)
        _write_manifest(args.out, digest, "sweep", params,
                        {args.trace: _input_digest(args.trace, trace)})
    _emit([{name: getattr(p, name) for name in CURVE_COLUMNS} for p in curve])
    return 0


def _cmd_fit(args) -> int:
    curve = read_curve_csv(args.curve)
    family = ExponentialSaturation if args.family == "exp" else PowerLaw
    points = [(p.capacity_gb, p.hit_rate) for p in curve]
    result = fit_hit_rate(points, family, entry_size_gb=args.entry_size)
    _emit({"family": args.family, "params": asdict(result.model), "residual": result.residual})
    return 0


# Each command's handler, and the modules whose names it calls.
_COMMANDS = {
    "deficit": (_cmd_deficit, ("models",)),
    "expected-compute": (_cmd_expected_compute, ("models",)),
    "marginal": (_cmd_marginal, ("models",)),
    "frontier": (_cmd_frontier, ("models",)),
    "gen": (_cmd_gen, ("workload",)),
    "replay": (_cmd_replay, ("workload", "sim")),
    "sweep": (_cmd_sweep, ("workload", "sim")),
    "fit": (_cmd_fit, ("models",)),
}


def _domain_error(error: str, e: Exception) -> int:
    json.dump({"error": error, "message": str(e)}, sys.stderr)
    sys.stderr.write("\n")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, modules = _COMMANDS[args.command]
    for module in modules:
        for name in _EXPORTS[module]:
            __getattr__(name)
    try:
        return handler(args)
    except TradeoffError as e:
        return _domain_error(type(e).__name__, e)
    except OSError as e:
        return _domain_error("IOError", e)
    except MemoryError as e:  # numpy's subclass included: an array too large to allocate
        return _domain_error("MemoryError", e)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def entry() -> NoReturn:
    """The ``tradeoffs`` command and ``python -m tradeoffs``: ``main()``,
    then exit with its code without tearing the interpreter down.

    Every file a command writes is closed by then, and stdout and stderr
    are flushed here; a flush that fails (a closed pipe) leaves through
    ``sys.exit``, whose teardown reports it as it always has.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
