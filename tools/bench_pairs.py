"""Run the benchmark in alternating pairs on a parent commit and on this tree.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --pr 22 --claim stream-roundtrip.peak_rss_mb

The parent is unpacked with `git archive <rev> | tar -x` into a temporary
directory; the change is this working tree.  Each of ten pairs runs
`python3 benchmarks/run.py --workload all --seconds 40` once in each tree,
the parent first in odd pairs and the change first in even pairs, so drift
in the speed of a shared host falls on both alike.  Every end-to-end metric that BENCHMARK.json declares is
summarised by its median and quartiles per tree, the change's median over
the parent's, and how many pairs each side won.  The result is written to
BENCH_<pr>.json at the repository root.

With --claim WORKLOAD.METRIC, its "claim" is that metric and whether the
change met it: won at least nine of the ten pairs (a tie counts for
neither side), and has a median better than the parent's by more than the
parent's q3 - q1.  It also lists, under "worse_than_bound", every
end-to-end metric whose change median is worse than the parent's by more
than its relative BENCHMARK.json bound.  Both are printed as well.

Under "printed" it also summarises, by median and quartiles per tree, the
figures each run prints but the benchmark does not judge: the raw times
setup_raw_s, wall_raw_s and reference_raw_s, and the rate symbols_per_s or
samples_per_s, read from the run's standard output under its `workload
<name>` header.  The end-to-end times are scaled by each child's reference
time, which moves with the heap as well as with the host; the raw times
show whether the job itself moved.  None of them is judged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
CLAIM_WINS = 9
COMMAND = ["benchmarks/run.py", "--workload", "all", "--seconds", "40"]
RUN_TIMEOUT_S = 1800
# Figures a run prints under each workload but does not judge, with their units.
PRINTED = {
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "reference_raw_s": "s",
    "symbols_per_s": "1/s",
    "samples_per_s": "1/s",
}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def unpack(rev: str, into: Path) -> Path:
    """The tree of rev, extracted under into."""
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")
    return into


def printed_figures(stdout: str) -> dict[str, float]:
    """The PRINTED figures of one run's standard output, by "<workload>.<name>"."""
    found = {}
    workload = None
    for line in stdout.splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
        elif workload is not None and line.startswith("  "):
            fields = line.split()
            if fields[0] in PRINTED:
                found[f"{workload}.{fields[0]}"] = float(fields[1])
    return found


def run_benchmark(tree: Path) -> tuple[dict, dict[str, float]]:
    """The last stdout line of one benchmark run in tree, as JSON, and its printed figures."""
    proc = subprocess.run(
        [sys.executable, *COMMAND],
        cwd=tree,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode or not proc.stdout.strip():
        raise SystemExit(f"benchmark in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), printed_figures(proc.stdout)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(name: str, declared: dict, parent: list[dict], change: list[dict]) -> dict:
    """One metric over the pairs: quartiles per tree, ratio of medians, wins."""
    parent_runs = [run["metrics"][name]["value"] for run in parent]
    change_runs = [run["metrics"][name]["value"] for run in change]
    sign = 1 if declared["better"] == "lower" else -1
    change_wins = sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs))
    parent_wins = sum(sign * (p - c) < 0 for p, c in zip(parent_runs, change_runs))
    parent_q, change_q = quartiles(parent_runs), quartiles(change_runs)
    return {
        "unit": declared["unit"],
        "better": declared["better"],
        "bound": declared["bound"],
        "parent": parent_q,
        "change": change_q,
        "change_over_parent": change_q["median"] / parent_q["median"],
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "pairs": len(parent_runs),
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def summarise_printed(name: str, parent: list[dict], change: list[dict]) -> dict:
    """One printed figure over the pairs: quartiles per tree and ratio of medians, unjudged."""
    parent_runs = [run[name] for run in parent]
    change_runs = [run[name] for run in change]
    parent_q, change_q = quartiles(parent_runs), quartiles(change_runs)
    return {
        "unit": PRINTED[name.partition(".")[2]],
        "parent": parent_q,
        "change": change_q,
        "change_over_parent": change_q["median"] / parent_q["median"],
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def judge(name: str, metric: dict) -> dict:
    """The claim that metric name improved, and whether the pairs met it."""
    workload, _, measure = name.partition(".")
    sign = 1 if metric["better"] == "lower" else -1
    gain = sign * (metric["parent"]["median"] - metric["change"]["median"])
    spread = metric["parent"]["q3"] - metric["parent"]["q1"]
    met = metric["change_wins"] >= CLAIM_WINS and gain > spread
    return {"workload": workload, "metric": measure, "met": met}


def worse_than_bound(metrics: dict) -> list[str]:
    """The metrics whose change median is worse than the parent's past their bound."""
    return [
        name
        for name, metric in metrics.items()
        if (1 if metric["better"] == "lower" else -1) * (metric["change_over_parent"] - 1)
        > metric["bound"]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pr", required=True, help="suffix of the BENCH_<pr>.json written")
    parser.add_argument(
        "--claim",
        metavar="WORKLOAD.METRIC",
        help="the end-to-end metric the change claims to improve",
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        f"{w['name']}.{m['name']}": m for w in spec["workloads"] for m in spec["end_to_end"]
    }
    if args.claim is not None and args.claim not in declared:
        parser.error(f"--claim {args.claim} is no end-to-end metric of BENCHMARK.json")
    runs = {"parent": [], "change": []}
    printed = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": unpack(args.parent, Path(scratch) / "parent"), "change": ROOT}
        for pair in range(1, PAIRS + 1):
            sides = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in sides:
                print(f"pair {pair}/{PAIRS}: {side}", file=sys.stderr, flush=True)
                result, figures = run_benchmark(trees[side])
                runs[side].append(result)
                printed[side].append(figures)

    result = {
        "command": " ".join(["python3", *COMMAND]),
        "parent_commit": git("rev-parse", args.parent),
        "change": "the tree of the commit that adds this file",
        "pairs": PAIRS,
        "order": "alternating: the parent ran first in odd pairs, the change in even pairs",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "correct": all(run["correct"] for side in runs.values() for run in side),
        "failed": {side: sum(run["failed"] for run in r) for side, r in runs.items()},
        "attempted": {side: sum(run["attempted"] for run in r) for side, r in runs.items()},
        "metrics": {
            name: summarise(name, declared[name], runs["parent"], runs["change"])
            for name in sorted(declared)
        },
        "printed": {
            name: summarise_printed(name, printed["parent"], printed["change"])
            for name in sorted(set.intersection(*map(set, printed["parent"] + printed["change"])))
        },
        "claim": None,
    }
    if args.claim is not None:
        result["claim"] = judge(args.claim, result["metrics"][args.claim])
        result["worse_than_bound"] = worse_than_bound(result["metrics"])
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(
            f"{name:<32} parent {metric['parent']['median']:<12.6g} "
            f"change {metric['change']['median']:<12.6g} "
            f"ratio {metric['change_over_parent']:.4f} "
            f"wins {metric['change_wins']}/{metric['pairs']}",
            file=sys.stderr,
        )
    for name, figure in result["printed"].items():
        print(
            f"{name:<32} parent {figure['parent']['median']:<12.6g} "
            f"change {figure['change']['median']:<12.6g} "
            f"ratio {figure['change_over_parent']:.4f} (printed, not judged)",
            file=sys.stderr,
        )
    if args.claim is not None:
        print(f"claim {args.claim} met: {result['claim']['met']}", file=sys.stderr)
        print(f"worse than bound: {result['worse_than_bound'] or 'none'}", file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
