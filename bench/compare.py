"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py bench/out/base.json bench/out/new.json

For each workload and each end-to-end metric in BENCHMARK.json it prints
both medians, each side's spread (distance between the first and third
quartile over the median) and the change of the new median against the
base, signed so that a positive share is worse.  A change beyond the
metric's bound reads WORSE; where the base's own spread is wider than the
bound the result reads unresolved unless every new run beats every base
run.  The exit code is 1 if any metric reads WORSE, else 0.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(base, new, better, bound):
    mb, mn = statistics.median(base), statistics.median(new)
    worse = (mn - mb) / mb if better == "lower" else (mb - mn) / mb
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if worse > bound:
        return worse, "WORSE"
    if spread(base) > bound and not all_better:
        return worse, "unresolved"
    return worse, "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text())["results"] for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    status = 0
    print(f"{'workload':9s} {'metric':12s} {'base':>12s} {'new':>12s} "
          f"{'spread b':>8s} {'spread n':>8s} {'worse by':>9s}  verdict")
    for workload in base:
        if workload not in new:
            print(f"{workload:9s} missing from the new file")
            status = 1
            continue
        runs_b, runs_n = base[workload], new[workload]
        share_b = {r["failed"] / r["attempted"] for r in runs_b}
        share_n = {r["failed"] / r["attempted"] for r in runs_n}
        for m in spec:
            name = m["name"]
            vb = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
            vn = [r["metrics"][name]["value"] for r in runs_n if name in r["metrics"]]
            if not vb or not vn:
                continue
            worse, text = verdict(vb, vn, m["better"], m["bound"])
            status |= text == "WORSE"
            print(f"{workload:9s} {name:12s} {statistics.median(vb):12.6g} "
                  f"{statistics.median(vn):12.6g} {spread(vb):8.3f} {spread(vn):8.3f} "
                  f"{worse:+9.3f}  {text} (bound {m['bound']})")
        correct = all(r["correct"] for r in runs_b + runs_n)
        print(f"{workload:9s} failed share base {sorted(share_b)} new {sorted(share_n)}, "
              f"all correct: {correct}")
        status |= not correct
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
