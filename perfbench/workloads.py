"""Benchmark workloads: their CLI stages, reference outputs and output checks.

A workload is one shape of the library's pipeline, ``gen`` -> trace file
-> ``sweep`` or ``replay`` -> curve CSV -> ``fit``. Each names the CLI
arguments of every stage and can compute, in process and through the
library's public functions, the bytes and values those stages must
produce. The same reference checks the CLI run in subprocesses and the
traced in-process run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from tradeoffs.cache import RESOLUTIONS
from tradeoffs.cli import parse_bytes
from tradeoffs.models import ExponentialSaturation, PowerLaw, fit_hit_rate
from tradeoffs.sim import SimConfig, curve_to_csv, replay, sweep
from tradeoffs.workload import GeneratorConfig, generate_trace, serialize_trace

# The c09 capacity ladder: 320 MB doubling to 40.96 GB.
LADDER = ("320MB", "640MB", "1.28GB", "2.56GB", "5.12GB", "10.24GB", "20.48GB", "40.96GB")
FIT_FAMILIES = {"exp": ExponentialSaturation, "power": PowerLaw}
FIT_ENTRY_SIZE_GB = 0.08  # the CLI's --entry-size default


@dataclass(frozen=True)
class Workload:
    """One pipeline shape.

    ``fit`` workloads run gen -> sweep (default --jobs) -> fit exp/power;
    the others run gen -> replay --out --records at their one capacity.
    """

    name: str
    requests: int
    clusters: int
    dim: int
    sigma: float
    capacities: tuple[str, ...]
    fit: bool
    zipf: float = 1.1
    res_mix: dict[str, float] = field(default_factory=lambda: {"720p": 1.0})
    insert_on_hit: bool = False
    default_seed: int = 2024

    def gen_config(self, seed: int, requests: int) -> GeneratorConfig:
        return GeneratorConfig(
            num_requests=requests,
            num_clusters=self.clusters,
            dimension=self.dim,
            zipf_exponent=self.zipf,
            noise_sigma=self.sigma,
            resolution_mix=self.res_mix,
            seed=seed,
        )

    def sim_config(self) -> SimConfig:
        """The SimConfig the CLI builds from its default --steps/--step-cost."""
        return SimConfig(
            capacity_bytes=0,
            total_steps=50,
            step_cost_by_resolution={res: 1e9 for res in RESOLUTIONS},
            insert_on_hit=self.insert_on_hit,
        )

    def capacity_bytes(self) -> list[int]:
        return [parse_bytes(c) for c in self.capacities]

    def stages(self, seed: int, requests: int, paths: "Paths") -> list[tuple[str, list[str]]]:
        """(stage name, CLI argv) in pipeline order."""
        mix = ",".join(f"{res}={p!r}" for res, p in self.res_mix.items())
        gen = [
            "gen", "--out", paths.trace, "--n", str(requests),
            "--clusters", str(self.clusters), "--dim", str(self.dim),
            "--zipf", repr(self.zipf), "--sigma", repr(self.sigma),
            "--seed", str(seed), "--res-mix", mix,
        ]
        flags = ["--insert-on-hit"] if self.insert_on_hit else []
        if not self.fit:
            sim = ["replay", "--trace", paths.trace, "--capacity", self.capacities[0],
                   "--out", paths.report, "--records", paths.records] + flags
            return [("gen", gen), ("sim", sim)]
        sim = ["sweep", "--trace", paths.trace, "--capacities", ",".join(self.capacities),
               "--out", paths.curve] + flags
        fits = [(f"fit.{fam}", ["fit", "--curve", paths.curve, "--family", fam])
                for fam in FIT_FAMILIES]
        return [("gen", gen), ("sim", sim)] + fits


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP's fixed shape; replay dominates, lookups and evictions both run.
        Workload("c09", requests=10_000, clusters=1000, dim=64, sigma=0.05,
                 capacities=LADDER, fit=True),
        # Wide embeddings at one 4-entry capacity: JSON I/O, manifest hashing
        # and the per-request record path dominate; the cache holds 4 entries.
        Workload("io-wide", requests=3_000, clusters=1000, dim=768, sigma=0.02,
                 capacities=("320MB",), fit=False),
        # Three resolutions and insert-on-hit: every request writes and large
        # entries evict several victims.
        Workload("mixed-churn", requests=10_000, clusters=1000, dim=32, sigma=0.05,
                 capacities=LADDER, fit=True, insert_on_hit=True,
                 res_mix={"720p": 0.5, "1080p": 0.3, "2k": 0.2}),
    )
}


@dataclass(frozen=True)
class Paths:
    """Output files of one pipeline run."""

    trace: str
    curve: str
    report: str
    records: str

    @classmethod
    def under(cls, directory: str) -> "Paths":
        names = ("trace.jsonl", "curve.csv", "report.json", "records.jsonl")
        return cls(*(os.path.join(directory, name) for name in names))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return sha256_bytes(f.read())


def fit_doc(curve, family: str) -> dict:
    """The JSON object ``tradeoffs fit`` prints for this curve."""
    points = [(p.capacity_gb, p.hit_rate) for p in curve]
    result = fit_hit_rate(points, FIT_FAMILIES[family], entry_size_gb=FIT_ENTRY_SIZE_GB)
    m = result.model
    if family == "exp":
        params = {"beta": m.beta, "entry_size_gb": m.entry_size_gb}
    else:
        params = {"kappa": m.kappa, "gamma": m.gamma}
    doc = {"family": family, "params": params, "residual": result.residual}
    return json.loads(json.dumps(doc))


@dataclass
class Reference:
    """What every stage of one (workload, seed, size) must output."""

    trace: object
    digests: dict[str, str]
    fits: dict[str, dict]
    curve_csv: str | None

    def pinned(self) -> dict:
        return {"digests": self.digests, "fits": self.fits}


def reference(wl: Workload, seed: int, requests: int) -> Reference:
    """Compute the expected outputs in process through the public API."""
    trace = generate_trace(wl.gen_config(seed, requests))
    digests = {"trace": sha256_bytes(serialize_trace(trace).encode("utf-8"))}
    config = wl.sim_config()
    fits, curve_csv = {}, None
    if wl.fit:
        curve = sweep(trace, config, wl.capacity_bytes(), jobs=1)
        curve_csv = curve_to_csv(curve)
        digests["curve"] = sha256_bytes(curve_csv.encode("utf-8"))
        fits = {fam: fit_doc(curve, fam) for fam in FIT_FAMILIES}
    else:
        report = replay(trace, config.with_capacity(wl.capacity_bytes()[0]), keep_records=True)
        doc = json.dumps(report.to_dict(include_records=False), indent=2) + "\n"
        records = "".join(json.dumps(r.to_dict()) + "\n" for r in report.per_request)
        digests["report"] = sha256_bytes(doc.encode("utf-8"))
        digests["records"] = sha256_bytes(records.encode("utf-8"))
    return Reference(trace, digests, fits, curve_csv)


def check_stage(stage: str, stdout: str, paths: Paths, ref: Reference, requests: int) -> list[str]:
    """Compare one stage's outputs with the reference; return the mismatches."""
    errors = []

    def expect(what: str, got, want) -> None:
        if got != want:
            errors.append(f"{stage}: {what} is {got!r}, expected {want!r}")

    def manifest_input(out_path: str) -> str | None:
        with open(out_path + ".manifest.json", encoding="utf-8") as f:
            return json.load(f)["inputs"].get(paths.trace)

    try:
        if stage == "gen":
            expect("trace sha256", sha256_file(paths.trace), ref.digests["trace"])
            expect("requests", json.loads(stdout)["requests"], requests)
        elif stage == "sim" and "curve" in ref.digests:
            expect("curve sha256", sha256_file(paths.curve), ref.digests["curve"])
            expect("manifest trace sha256", manifest_input(paths.curve), ref.digests["trace"])
            expect("stdout rows", len(json.loads(stdout)), ref.curve_csv.count("\n") - 1)
        elif stage == "sim":
            expect("report sha256", sha256_file(paths.report), ref.digests["report"])
            expect("records sha256", sha256_file(paths.records), ref.digests["records"])
            expect("manifest trace sha256", manifest_input(paths.report), ref.digests["trace"])
        else:
            family = stage.split(".", 1)[1]
            expect("fit", json.loads(stdout), ref.fits[family])
    except (OSError, ValueError, KeyError, TypeError) as e:
        errors.append(f"{stage}: unreadable output: {type(e).__name__}: {e}")
    return errors
