"""Compare two sets of benchmark runs.

Each set is a directory of ``result-<workload>-seed<n>-trace<t>.json``
records as ``run.py`` writes them to ``benchmarks/out/`` (copy that
directory away after measuring one commit).  For every workload and metric
the script prints both medians over the runs, their quartile spreads and the
change, and flags a change worse than the metric's bound in BENCHMARK.json:

    python3 benchmarks/compare.py parent_runs/ change_runs/
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load(argv[0]), load(argv[1])
    worse = 0
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'untraced'}): "
              f"{len(a[key])} vs {len(b[key])} runs")
        print(f"  {'metric':36s} {'A median':>12s} {'A iqr':>7s} {'B median':>12s} "
              f"{'B iqr':>7s} {'change':>8s}")
        for name in a[key][0]["metrics"]:
            va = [r["metrics"][name]["value"] for r in a[key]]
            vb = [r["metrics"][name]["value"] for r in b[key] if name in r["metrics"]]
            if not vb:
                continue
            (ma, sa), (mb, sb) = spread(va), spread(vb)
            change = (mb - ma) / ma if ma else 0.0
            m = info.get(name, {})
            sign = -1.0 if m.get("better") == "higher" else 1.0
            flag = ""
            if "bound" in m and sign * change > m["bound"]:
                flag = "  WORSE"
                worse += 1
            print(f"  {name:36s} {ma:12.6g} {sa:7.3f} {mb:12.6g} {sb:7.3f} "
                  f"{change:+8.1%}{flag}")
        fa = sum(r["failed"] for r in a[key]), sum(r["attempted"] for r in a[key])
        fb = sum(r["failed"] for r in b[key]), sum(r["attempted"] for r in b[key])
        print(f"  failed/attempted: {fa[0]}/{fa[1]} vs {fb[0]}/{fb[1]}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
