"""Compare benchmark results of a base commit and a change.

    python3 perfbench/run.py --workload all --seed 1 --out base-1.json
    ...                                   (repeat per seed, per commit)
    python3 perfbench/compare.py --base base-*.json --new new-*.json

Each file is what ``run.py --out`` writes.  For every workload and
end-to-end metric it prints the median and quartiles of both sides and
the change of the median, judged against the bound in BENCHMARK.json:
"worse" beyond the bound, "better" when both sides have ten runs and
the median moved the right way by more than the base's own quartile
spread, else "same".  Runs whose metadata differ in Python, kernel
backend, RGC_KERNEL, RGC_JOBS or CPU count are not comparable: the
comparison is flagged and reports no gain.
Exits 1 when a comparable metric is worse beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_RUNS = 10   # runs per side before a gain is reported
COMPARABLE = ("python", "implementation", "backend", "RGC_KERNEL",
              "RGC_JOBS", "nproc", "machine")


def load(paths) -> list[dict]:
    docs = []
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        docs += data if isinstance(data, list) else [data]
    return docs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(args.base), load(args.new)

    setups = {tuple((k, d["meta"].get(k)) for k in COMPARABLE)
              for d in base + new}
    comparable = len(setups) == 1
    if not comparable:
        print("FLAGGED: runs differ in "
              + ", ".join(k for k in COMPARABLE
                          if len({d["meta"].get(k) for d in base + new}) > 1)
              + "; medians are shown, no gain or regression is reported")
    worse = False
    workloads = sorted({d["meta"]["workload"] for d in base + new})
    print(f"{'workload':<10} {'metric':<12} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'change':>8}  verdict")
    for w in workloads:
        for name, m in metrics.items():
            sides = [[d["metrics"][name]["value"] for d in docs
                      if d["meta"]["workload"] == w and not d["meta"]["trace"]
                      and name in d["metrics"]] for docs in (base, new)]
            if not all(sides):
                continue
            (b1, b2, b3), (n1, n2, n3) = map(quartiles, sides)
            sign = 1 if m["better"] == "lower" else -1
            change = (n2 - b2) / b2 if b2 else 0.0
            if not comparable:
                verdict = "not comparable"
            elif sign * change > m["bound"]:
                verdict, worse = "worse", True
            elif (-sign * (n2 - b2) > (b3 - b1)
                  and min(map(len, sides)) >= MIN_RUNS):
                verdict = "better"
            else:
                verdict = "same"
            print(f"{w:<10} {name:<12} "
                  f"{b1:>10.4g}/{b2:.4g}/{b3:<10.4g} "
                  f"{n1:>10.4g}/{n2:.4g}/{n3:<10.4g} {change:>+8.1%}  "
                  f"{verdict} (n={len(sides[0])}/{len(sides[1])}, "
                  f"bound {m['bound']:.0%})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
