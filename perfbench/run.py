"""Layered benchmark of rgc: build, store-c9, store-s15 and cli workloads.

Run from the repository root:

    python3 perfbench/run.py --workload store-c9 --seed 1 --seconds 20
    python3 perfbench/run.py --workload store-c9 --trace 1   # per layer
    python3 perfbench/run.py --workload all                  # all four

The program is imported from ``src/`` next to this directory, never from
an installed copy.  Every line but the last is for people; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The exit code is 0 only when every operation was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

END_TO_END = (("setup_s", "s"), ("op_cost", "x"), ("peak_rss_mb", "MB"))


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, seed, seconds, trace) -> dict:
    from rgc import _kernel
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": _kernel.BACKEND,
        "RGC_KERNEL": os.environ.get("RGC_KERNEL"),
        "RGC_JOBS": os.environ.get("RGC_JOBS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def end_to_end(run) -> dict[str, float]:
    """The fastest set-up, the operation cost in calibration loops, and
    the peak memory; workloads.py says why."""
    return {
        "setup_s": min(run.setup_s, default=0.0),
        "op_cost": run.op_cost() if run.op_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run) -> dict[str, float]:
    out = run.tracer.layer_metrics(run.traced_ops)
    out["cli.import_s"] = run.import_s
    traced, untraced = run.traced_op_s, run.untraced_op_s
    out["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1
        if traced and untraced else 0.0)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def measure(workload, seed, seconds, trace) -> dict:
    """Run one workload; return its full result document."""
    import workloads
    from spans import LAYER_METRICS, Tracer

    tracer = Tracer() if trace else None
    run = workloads.run_workload(workload, seed, seconds, tracer)
    if trace:
        units = dict(LAYER_METRICS)
        values = per_layer(run)
    else:
        units = dict(END_TO_END)
        values = end_to_end(run)
    doc = {
        "meta": metadata(workload, seed, seconds, trace),
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted if run.attempted else 1.0,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "detail": dict(
            run.detail, ops=run.ops, window_s=run.window_s,
            ops_per_s=len(run.op_s) / run.window_s if run.window_s else 0.0,
            op_p50_ms=(statistics.median(run.op_s) * 1e3 if run.op_s
                       else None),
            setup_median_s=statistics.median(run.setup_s)
            if run.setup_s else None,
            op_best_ms=run.best_op_s() * 1e3 if run.op_s else None,
            calibration_best_ms=min(run.cal_s) * 1e3,
            calibration_p50_ms=statistics.median(run.cal_s) * 1e3,
            step_best_ms={k: min(v) * 1e3 for k, v in run.steps.items()}),
        "problems": run.problems,
    }
    if trace:
        doc["census"] = sorted(
            ([*shape, calls] for shape, calls in tracer.census().items()),
            key=lambda row: -row[-1])
        doc["traced_ops"] = run.traced_ops
    return doc


def report(doc) -> None:
    meta = doc["meta"]
    print(f"# perfbench {meta['workload']} seed={meta['seed']} "
          f"seconds={meta['seconds']} trace={meta['trace']}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, m in doc["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, value in doc["detail"].items():
        if isinstance(value, (int, float)):
            print(f"  {name:<42} {value:>14.6g} {unit_of(name)}")
    print(f"fail_frac {doc['fail_frac']:.6g} "
          f"({doc['failed']} of {doc['attempted']} operations)")
    for row in doc.get("census", [])[:12]:
        op, rows, cols, rhs, calls = row
        shape = f"{rows}x{cols}" + (f" rhs {rhs}" if rhs else "")
        print(f"  census {op:<10} {shape:<18} {calls} calls")
    for problem in doc["problems"]:
        print(f"FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="build, store-c9, store-s15, cli or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result "
                                      "documents here, as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rgc" / "__init__.py").is_file():
        print(f"error: no rgc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import rgc
    if not Path(rgc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported rgc from {rgc.__file__}", file=sys.stderr)
        return 2
    import workloads

    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    docs = []
    for name in names:
        doc = measure(name, args.seed, args.seconds, args.trace)
        report(doc)
        docs.append(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(docs, fh, indent=1)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['meta']['workload']}.{k}": v
                   for d in docs for k, v in d["metrics"].items()}
    result = {"correct": all(d["correct"] for d in docs),
              "attempted": sum(d["attempted"] for d in docs),
              "failed": sum(d["failed"] for d in docs),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
