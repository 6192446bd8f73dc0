"""Benchmark driver: runs each workload in fresh child interpreters, one at a
time, and prints every metric by name with its unit.

Usage, from the repository root:

    python3 benchmarks/run.py --workload exact-tables --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all

Each child sets up, runs the workload's job (see workloads.py) one or more
times, checks every output and exits, so each child starts from a cold
interpreter and a cold class-order cache.  Children are started one at a
time until the next would overrun --seconds, and at least three are run;
medians over children (set-up, memory) and over jobs (time) are reported.
Times are scaled to reference speed: between operations each child also
times its workload's fixed reference (a pure-Python loop, or numpy's
sampler on the Monte Carlo threads; see workloads.py), and its times are
multiplied by the workload's reference_s over that reference's mean, which
takes out the drift in the speed of a shared host.  Raw times are printed
beside them.
With --trace 1 the driver alternates untraced and traced children on the
same seed and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  Exit status is 0 when the
run completed (also when checks failed; see "correct"), nonzero when it
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("exact-tables", "mc-table", "stream-roundtrip")
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150

# Reported with --trace 0, on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# Reported with --trace 1, on every workload; a layer that does no work on a
# workload reads 0 there.
PER_LAYER = {
    "trace.overhead_s": "s",
    "compositions.self_pct": "%",
    "bijection.self_pct": "%",
    "analyzer.self_pct": "%",
    "montecarlo.self_pct": "%",
    "codec.self_pct": "%",
    "compositions.partitions": "count",
    "compositions.tie_groups": "count",
    "compositions.build_rss_mb": "MB",
    "montecarlo.samples": "count",
    "codec.payload_bits_mean": "bits",
    "codec.redundancy_bits_mean": "bits",
}
class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def unit_of(name: str) -> str:
    for suffix, unit in (
        ("_pct", "%"),
        ("_mb", "MB"),
        ("_s", "s"),
        ("_bits_mean", "bits"),
    ):
        if name.endswith(suffix):
            return unit
    if "_ms." in name:
        return "ms"
    return "count"


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def run_child(workload: str, seed: int, scale: str, trace: bool) -> dict:
    config = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
    }
    config["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(config)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload, seed, scale, seconds, traces, min_rounds) -> list[list[dict]]:
    """Rounds of children (one per entry of `traces`) until time is used up."""
    start = time.monotonic()
    rounds = []
    while True:
        rounds.append([run_child(workload, seed, scale, t) for t in traces])
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def summarize(workload: str, children: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics over untraced children, and lines to print."""
    median = statistics.median
    jobs = [
        (work, wall * c["scale"]) for c in children for work, wall in zip(c["work"], c["wall_s"])
    ]
    metrics = {
        "setup_s": median(c["setup_s"] * c["scale"] for c in children),
        "wall_s": median(wall for _, wall in jobs),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in children),
    }
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    n = len(children)
    notes = {
        "setup_s": f"median of {n} children: start to end of set-up, at reference speed",
        "wall_s": f"median of {len(jobs)} jobs in {n} children: one full job, at reference speed",
        "peak_rss_mb": f"median of {n} children: ru_maxrss of the child itself",
    }
    lines = [f"{k:<28} {v:<16.6g} {END_TO_END[k]:<6} {notes[k]}" for k, v in metrics.items()]
    raw = {
        "setup_raw_s": median(c["setup_s"] for c in children),
        "wall_raw_s": median(w for c in children for w in c["wall_s"]),
        "reference_raw_s": median(statistics.fmean(c["reference_s"]) for c in children),
    }
    lines += [f"{k:<28} {v:<16.6g} {'s':<6} as timed, before scaling" for k, v in raw.items()]
    rate = children[0]["rate"]
    if rate:
        lines.append(
            f"{rate:<28} {median(work / wall for work, wall in jobs):<16.6g} {'1/s':<6} "
            f"median of {len(jobs)} jobs, at reference speed"
        )
    lines.append(
        f"{'error_rate':<28} {failed / attempted:<16.6g} {'1':<6} "
        f"{failed} of {attempted} operations failed"
    )
    if workload == "stream-roundtrip":
        blocks = [t * c["scale"] for c in children for t in c["op_ms"]]
        for q in (50, 99):
            lines.append(
                f"{f'block_p{q}_ms':<28} {percentile(blocks, q):<16.6g} {'ms':<6} "
                f"over {len(blocks)} blocks"
            )
    return metrics, lines


def summarize_trace(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced children, plus the tracing overhead."""
    names = sorted({k for c in traced for k in c["layers"]})
    layers = {
        k: statistics.median(c["layers"][k] for c in traced if k in c["layers"])
        for k in names
    }
    traced_wall = statistics.median(w * c["scale"] for c in traced for w in c["wall_s"])
    untraced_wall = statistics.median(w * c["scale"] for c in untraced for w in c["wall_s"])
    overhead = traced_wall - untraced_wall
    metrics = {k: layers.get(k, 0.0) for k in PER_LAYER}
    metrics["trace.overhead_s"] = overhead
    shown = dict(layers, **metrics)
    lines = [f"{k:<44} {v:<16.6g} {unit_of(k)}" for k, v in sorted(shown.items())]
    lines.append(
        f"{'trace.overhead_share':<44} {overhead / untraced_wall:<16.6g} 1  "
        f"of untraced wall_s {untraced_wall:.6g} s ({len(untraced)} untraced, "
        f"{len(traced)} traced children)"
    )
    return metrics, lines


def write_spans(workload: str, seed: int, traced: list[dict]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as stream:
        for index, child in enumerate(traced):
            for span in child["spans"]:
                stream.write(json.dumps(dict(span, child=index)) + "\n")
    return path


def run_workload(workload: str, args) -> dict:
    """Run one workload, print its metrics, and return its result object."""
    if args.trace:
        rounds = run_rounds(workload, args.seed, args.scale, args.seconds, (False, True), 1)
        untraced = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        metrics, lines = summarize_trace(untraced, traced)
        units = PER_LAYER
        children = untraced + traced
        lines.append(f"spans written to {write_spans(workload, args.seed, traced)}")
    else:
        children = [r[0] for r in run_rounds(
            workload, args.seed, args.scale, args.seconds, (False,), MIN_CHILDREN
        )]
        metrics, lines = summarize(workload, children)
        units = END_TO_END

    provenance = dict(children[0]["provenance"])
    provenance.update(
        nproc=os.cpu_count(),
        platform=platform.platform(),
        git_commit=git_commit(),
        seed=args.seed,
        scale=args.scale,
        run_seconds=args.seconds,
        trace=args.trace,
        children=len(children),
        peak_rss_mb="ru_maxrss of each workload child process alone (RUSAGE_SELF), not the driver",
    )
    print(f"workload {workload}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for line in lines:
        print("  " + line)
    for child in children:
        for failure in child["failures"]:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("seed must be in [0, 2**63)")

    if not (ROOT / "src" / "setshaping" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args)))
            return 0
        results = {w: run_workload(w, args) for w in WORKLOADS}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
