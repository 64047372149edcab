"""Interleaved A/B launches of tradeoffs CLI commands from two source trees.

Run from the repository root, for example against an export of the
parent commit:

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/ab.py --a /tmp/parent/src --b src --rounds 20 \
        --command 'import=-c "import tradeoffs.cli"' \
        --command 'deficit=-m tradeoffs deficit --total 400 --devices 2 --per-device 100' \
        --out ab.json

Each command is the interpreter's argv after ``python``, split as a shell
splits it, and is launched with ``PYTHONPATH`` set to one tree only. Every
round launches each command three times: from tree A, from tree B, and from
tree A again (the A/A control), in an order that rotates from round to
round. Each launch runs in an empty directory of its own, and its wall time
is taken around the child process.

For each command the report gives the median wall time of each side, the
median over rounds of the ratio B/A and of the control's ratio A'/A, each
with a bootstrap 95% interval (2,000 resamples of the rounds, seed 0), and
the rounds that B won. A launch's outputs are its exit code, the SHA-256 of
its stdout and of each file it left in its directory; the report holds
those of A's first launch. When the outputs of any two launches of a
command differ, the command's ratio is refused: ``ratio`` is null and
``refused`` says which output differed.

The JSON report goes to ``--out``; one line per command goes to stderr.
Only the launched processes are measured: nothing is pinned to a CPU and
no cache is dropped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("a", "b", "aa")
# One order of the three sides per round, in turn, so that each side runs
# first, second and third equally often.
ORDERS = (("a", "b", "aa"), ("b", "aa", "a"), ("aa", "a", "b"))
RESAMPLES = 2000
SEED = 0
TIMEOUT_S = 600


def launch(argv: list[str], tree: Path, workdir: Path) -> tuple[float, dict]:
    """Wall seconds and outputs of ``python argv`` run in the empty ``workdir``."""
    workdir.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "TRINITY_SEED"}
    env["PYTHONPATH"] = str(tree)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=TIMEOUT_S)
    wall = time.perf_counter() - start
    outputs = {
        "exit": proc.returncode,
        "stdout": hashlib.sha256(proc.stdout).hexdigest(),
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(workdir.iterdir()) if p.is_file()},
    }
    return wall, outputs


def median_ci(values: list[float], rng: random.Random) -> dict:
    """The median of ``values`` and a bootstrap 95% interval of it."""
    medians = sorted(statistics.median(rng.choices(values, k=len(values)))
                     for _ in range(RESAMPLES))
    lo, hi = medians[int(0.025 * RESAMPLES)], medians[int(0.975 * RESAMPLES) - 1]
    return {"median": statistics.median(values), "ci95": [lo, hi]}


def differing(outputs: list[dict]) -> str | None:
    """The first output that differs between launches, or None."""
    first = outputs[0]
    for key in ("exit", "stdout", "files"):
        if any(o[key] != first[key] for o in outputs):
            return key
    return None


def compare(name: str, argv: list[str], runs: dict[str, list]) -> dict:
    """The report of one command from its launches, (wall, outputs) per round and side."""
    times = {side: [w for w, _ in runs[side]] for side in SIDES}
    refused = differing([o for side in SIDES for _, o in runs[side]])
    rng = random.Random(SEED)
    ratio = [b / a for a, b in zip(times["a"], times["b"])]
    control = [aa / a for a, aa in zip(times["a"], times["aa"])]
    return {
        "argv": argv,
        "median_s": {side: statistics.median(times[side]) for side in SIDES},
        "ratio": None if refused else median_ci(ratio, rng),
        "aa_ratio": median_ci(control, rng),
        "b_wins": None if refused else sum(r < 1 for r in ratio),
        "rounds": len(ratio),
        "refused": refused and f"outputs differ: {refused}",
        "outputs": runs["a"][0][1],
        "times_s": times,
    }


def run(a: Path, b: Path, commands: dict[str, list[str]], rounds: int) -> dict:
    trees = {"a": a, "b": b, "aa": a}
    runs = {name: {side: [] for side in SIDES} for name in commands}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        for r in range(rounds):
            for name, argv in commands.items():
                for side in ORDERS[r % len(ORDERS)]:
                    workdir = Path(tmp, f"{r}-{name}-{side}")
                    runs[name][side].append(launch(argv, trees[side], workdir))
    return {
        "a": str(a),
        "b": str(b),
        "rounds": rounds,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "commands": {name: compare(name, argv, runs[name])
                     for name, argv in commands.items()},
    }


def parse_command(text: str) -> tuple[str, list[str]]:
    name, sep, rest = text.partition("=")
    argv = shlex.split(rest)
    if not sep or not name or not argv:
        raise argparse.ArgumentTypeError(f"expected NAME=ARGV, got {text!r}")
    return name, argv


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="src/ tree of side A (the base)")
    parser.add_argument("--b", type=Path, required=True, help="src/ tree of side B")
    parser.add_argument("--command", type=parse_command, action="append", required=True,
                        help="NAME=ARGV: interpreter arguments, e.g. 'v=-m tradeoffs --version'")
    parser.add_argument("--rounds", type=int, default=20, help="launches per side and command")
    parser.add_argument("--out", type=Path, required=True, help="write the JSON report here")
    args = parser.parse_args(argv)
    commands = dict(args.command)
    if len(commands) != len(args.command):
        parser.error("command names must be distinct")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    report = run(args.a.resolve(), args.b.resolve(), commands, args.rounds)
    for name, c in report["commands"].items():
        aa = c["aa_ratio"]
        if c["ratio"] is None:
            verdict = f"refused ({c['refused']})"
        else:
            lo, hi = c["ratio"]["ci95"]
            verdict = (f"B/A {c['ratio']['median']:.3f} [{lo:.3f}, {hi:.3f}], "
                       f"B won {c['b_wins']}/{c['rounds']}")
        print(f"{name}: exit {c['outputs']['exit']}, A {c['median_s']['a']:.4f} s, "
              f"B {c['median_s']['b']:.4f} s, {verdict}; "
              f"A/A {aa['median']:.3f} [{aa['ci95'][0]:.3f}, {aa['ci95'][1]:.3f}]",
              file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
