#!/usr/bin/env python3
"""Benchmark command for ynetr: one workload, one seed, one process.

Run from the root of a checkout:

    python3 bench/run.py --workload train_mid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload infer_mid --seed 1 --seconds 20 --report

``--trace 0`` measures the end-to-end metrics (``end_to_end`` in
BENCHMARK.json) untraced. ``--trace 1`` is a separate traced run that
gives the per-layer metrics (``per_layer``) and prints the span table,
sorted by self time. ``--report`` makes both runs in turn and also prints
the tracing overhead and whether the traced run's outputs equal the
untraced run's bitwise. Every line but the last is for people; the last
line is the JSON result with the keys correct, attempted, failed, metrics.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"  # checkpoint files of the infer set-up


def pin_blas_threads():
    """One BLAS thread per usable core; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def host_record(seed, threads):
    import numpy as np  # only after pin_blas_threads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "seed": seed,
    }


def describe(res, units):
    """Human-readable lines for one run."""
    from tracer import format_table, percentile_tail  # imports numpy: after pinning

    lines = [f"run workload={res.workload} seed={res.seed} trace={int(res.trace)}"]
    for name, ok, detail in res.checks:
        lines.append(f"check {name} {'ok' if ok else 'FAIL'}: {detail}")
    lines.append("record " + json.dumps(res.record))
    for name, values in res.samples.items():
        if not values:
            continue
        s = sorted(values)
        line = f"samples {name} n={len(s)} min={s[0]:.4f} median={statistics.median(s):.4f} max={s[-1]:.4f}"
        tail = percentile_tail(s)
        if tail:
            line += f" p{round(100 * tail[0])}={tail[1]:.4f}"
        lines.append(line)
    lines += [f"note {n}" for n in res.notes]
    for title, unit, rows in res.tables:
        lines.append(f"table {title}")
        lines += format_table(rows, unit)
    for name, value in res.metrics.items():
        lines.append(f"metric {name} {value:.6g} {units(name)}")
    if not res.trace:
        lines.append(f"metric error_rate {res.failed / res.attempted:.6g} ratio"
                     f" ({res.failed} of {res.attempted} operations failed)")
    return lines


def same_outputs(a, b):
    """Traced and untraced runs gave bitwise-equal outputs (common prefix)."""
    if "losses" in a:
        n = min(len(a["losses"]), len(b["losses"]))
        return n > 0 and a["losses"][:n] == b["losses"][:n]
    return a == b


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run untraced, then traced, and print both with the overhead")
    args = parser.parse_args(argv)

    if not (SRC / "ynetr" / "__init__.py").is_file():
        print(f"bench: no ynetr package under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import ynetr
    import workloads

    if Path(ynetr.__file__).resolve().parent != SRC / "ynetr":
        print(f"bench: imported ynetr from {ynetr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    def units(name):
        return workloads.END_TO_END_UNITS.get(name) or workloads.unit_of(name)

    print("host " + json.dumps(host_record(args.seed, threads)))
    SCRATCH.mkdir(exist_ok=True)
    try:
        traces = (False, True) if args.report else (bool(args.trace),)
        results = []
        for trace in traces:
            res = workloads.run(w, args.seed, args.seconds, trace, SCRATCH)
            print("\n".join(describe(res, units)), flush=True)
            results.append(res)
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:  # left to another run that is still using it
            pass

    correct = all(r.correct for r in results)
    metrics = {}
    for r in results:
        metrics.update(r.metrics)
    if args.report:
        plain, traced = results
        overhead = traced.metrics["trace.op_s"] - plain.metrics["op_s"]
        print(f"overhead op_s traced-untraced {overhead:+.4f} s "
              f"({100 * overhead / plain.metrics['op_s']:+.1f}% of {plain.metrics['op_s']:.4f} s)")
        same = same_outputs(plain.record, traced.record)
        print(f"check traced_equals_untraced {'ok' if same else 'FAIL'}")
        correct = correct and same
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
