"""Run the benchmark of two trees in alternating pairs and summarize the runs.

    python3 tools/ab.py PARENT CHANGE --workload infer_mid --seeds 1 \\
        --pairs 10 --seconds 30 --out BENCH_<n>.json

PARENT and CHANGE are the roots of two checkouts. Each run is a fresh
process of that tree's own ``bench/run.py --trace 0``, started in the
tree's root, so each side measures its own ``src/`` with its own
benchmark code. Pair i runs seed ``seeds[i % len(seeds)]``; the parent
runs first in even pairs and the change first in odd ones. With several
workloads, all pairs of one workload run before the next workload.

The output (``--out``, rewritten after every pair, so that an interrupted
run keeps the pairs done so far) holds the host, each tree's commit and whether its
working tree differs from it, the commands, every run in one flat shape

    {"workload", "tree", "seed", "pair", "correct", "attempted", "failed",
     "metrics": {name: value}}

whether each pair's outputs were bitwise equal (``prob_sha256``, or the
losses on the steps both runs made), and a summary per workload and
end-to-end metric: each side's median and inclusive quartiles, the ratio
of the medians (change over parent), in how many pairs the change read
lower, and ``shift_inside_parent_spread``: whether the medians differ by
no more than the distance between the parent's quartiles, so that the
pairs cannot tell the two trees apart on that metric. Without ``--out``
the summary is printed. It uses the standard library alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def git(tree, *args):
    """Output of a git command in ``tree``, or None outside a repository."""
    done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def commit_of(tree):
    head = git(tree, "rev-parse", "HEAD")
    status = git(tree, "status", "--porcelain") if head else None
    return {"commit": head, "dirty": None if status is None else bool(status)}


def bench_command(workload, seed, seconds):
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def run_bench(tree, workload, seed, seconds):
    """(host, record, result) of one untraced run of ``tree``'s benchmark."""
    cmd = [sys.executable, *bench_command(workload, seed, seconds)[1:]]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"ab: {' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    host = record = None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
        elif line.startswith("record "):
            record = json.loads(line[len("record "):])
    return host, record, json.loads(lines[-1])


def same_outputs(a, b):
    """How the two runs' output records compare, in words."""
    if a is None or b is None:
        return "no record"
    if "losses" in a:
        n = min(len(a["losses"]), len(b["losses"]))
        same = n > 0 and a["losses"][:n] == b["losses"][:n]
        return f"losses: {'equal' if same else 'differ'} on the {n} common steps"
    return " ".join(f"{k} {'equal' if a[k] == b.get(k) else 'differ'}" for k in a)


def quartiles(values):
    """Inclusive quartiles; one value is all three."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs):
    """Per workload and end-to-end metric, the pair statistics of ``runs``."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["tree"]] = r
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        summary = {}
        for name in pairs[0]["parent"]["metrics"] if pairs else ():
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            pq, cq = quartiles(parent), quartiles(change)
            pm, cm = statistics.median(parent), statistics.median(change)
            summary[name] = {
                "parent_median": pm,
                "parent_quartiles": pq,
                "change_median": cm,
                "change_quartiles": cq,
                "ratio_of_medians": cm / pm,
                "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(pairs),
                "shift_inside_parent_spread": abs(cm - pm) <= pq[2] - pq[0],
            }
        summary["failed"] = {tree: sum(p[tree]["failed"] for p in pairs)
                             for tree in ("parent", "change")}
        summary["correct_all"] = all(p[t]["correct"] for p in pairs for t in p)
        out[workload] = summary
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    doc = {
        "description": args.description,
        "trees": {side: {"path": str(tree), **commit_of(tree)} for side, tree in trees.items()},
        "host": None,
        "commands": {"run": " ".join(bench_command("W", "S", args.seconds)),
                     "ab": " ".join(["python3", "tools/ab.py", *(argv or sys.argv[1:])])},
        "runs": [],
        "records_parent_vs_change": {},
        "summary": {},
    }
    for workload in args.workload:
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            records = {}
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                host, records[side], result = run_bench(trees[side], workload, seed, args.seconds)
                doc["host"] = doc["host"] or {k: v for k, v in host.items() if k != "seed"}
                run = {"workload": workload, "tree": side, "seed": seed, "pair": pair,
                       "correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
                doc["runs"].append(run)
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
                      + f" failed={run['failed']}/{run['attempted']}", flush=True)
            key = f"{workload}_pair{pair}_seed{seed}"
            doc["records_parent_vs_change"][key] = same_outputs(records["parent"], records["change"])
            doc["summary"] = summarize(doc["runs"])
            if args.out:
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if not args.out:
        print(json.dumps({"summary": doc["summary"],
                          "records_parent_vs_change": doc["records_parent_vs_change"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
