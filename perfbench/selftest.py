"""Self-test of the benchmark: its inputs, its checks and its output.

    python3 perfbench/selftest.py

It bounds no timing.  It checks that

1. the same seed gives the same inputs and another seed other inputs;
2. a stored symbol flipped before a read, or a call that raises, is
   recorded as a failed operation rather than crashing the run;
3. every workload, untraced and traced, prints a last line that follows
   the schema of BENCHMARK.json, exits 0 and reports no failure;
4. without the rgc sources the benchmark exits non-zero and prints no
   result.

Takes a few minutes; prints one line per check and exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def validate(result, trace: int, bench: dict) -> list[str]:
    """Schema errors of one result line; no timing is judged."""
    if not isinstance(result, dict):
        return ["result is not an object"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if type(result[key]) is not int or result[key] < 0:
            errors.append(f"{key} is not a whole number")
    if result["attempted"] == 0:
        errors.append("attempted is 0")
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(want):
        errors.append(f"metric names differ: missing "
                      f"{sorted(set(want) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(m)}")
            continue
        value = m["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            errors.append(f"{name}: value {value!r} is not a number")
        if name in want and m["unit"] != want[name]:
            errors.append(f"{name}: unit {m['unit']} != {want[name]}")
    return errors


def check_schedules() -> list[str]:
    errors = []
    for w in workloads.WORKLOADS:
        if workloads.schedule(w, 5, 1) != workloads.schedule(w, 5, 1):
            errors.append(f"{w}: seed 5 gave two different schedules")
        if workloads.schedule(w, 5, 1) == workloads.schedule(w, 6, 1):
            errors.append(f"{w}: seeds 5 and 6 gave the same schedule")
    return errors


def check_failures_recorded() -> list[str]:
    spec = workloads.build_reference("golden").spec
    msg = workloads.rgc.MessageVector.random(3, spec.params.M, seed=1)
    read = (1, 2, 3, 5, 6, 7, 8)
    cases = (("flipped symbol", dict(failed=4, corrupt=True), "read of"),
             ("raising repair", dict(failed=99), "ValueError"),
             ("clean op", dict(failed=4), None))
    errors = []
    for label, kwargs, expect in cases:
        run = workloads.Run()
        try:
            workloads.store_op(run, spec, msg, read=read, **kwargs)()
        except Exception as exc:
            errors.append(f"{label}: the op raised {exc!r}")
            continue
        failed = run.failed == 1 and expect in " ".join(run.problems)
        if (expect is None and run.failed) or (expect and not failed):
            errors.append(f"{label}: recorded {run.failed} failures "
                          f"{run.problems}")
    return errors


def last_line(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_outputs(bench) -> list[str]:
    errors = []
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = last_line(proc)
            problems = validate(result, trace, bench)
            if proc.returncode != 0 or not problems and (
                    result["failed"] or not result["correct"]):
                problems.append(f"exit {proc.returncode}, "
                                f"{proc.stdout[-300:]}{proc.stderr[-300:]}")
            errors += [f"{w} trace={trace}: {p}" for p in problems]
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "build",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    if proc.returncode == 0 or last_line(proc) is not None:
        return [f"exit {proc.returncode} with output {proc.stdout[-200:]}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = (("schedules follow the seed", check_schedules),
              ("failures are recorded", check_failures_recorded),
              ("outputs follow the schema", lambda: check_outputs(bench)),
              ("no sources, no result", check_bare_directory))
    ok = True
    for label, check in checks:
        errors = check()
        print(f"{'ok  ' if not errors else 'FAIL'} {label}")
        for error in errors:
            print(f"     {error}")
        ok &= not errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
