"""Compare two result sets of the benchmark.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` files that
``perfbench/run.py`` writes (copy ``perfbench/results`` away between
commits).  For every workload and end-to-end metric this prints both sides'
median and quartiles and a verdict under the bounds in ``BENCHMARK.json``:

- worse: the new side's runs failed a larger share of their ops than the
  base side's (an op fails if it raises, exits non-zero or fails an output
  check), whatever the metric reads; or the new median is worse than the
  base median by more than the bound;
- better: the new side wins at least nine tenths of the runs paired by seed
  (ties count for neither) and the medians differ by more than the base
  side's quartile distance;
- unresolved: either side's quartile distance, as a share of its median,
  exceeds the bound, unless every new run reads better than every base run;
- unchanged: otherwise.

Failures are compared as shares, not counts, because a run is timed and
a faster program attempts more ops; with no failure on the base side any
failure on the new side is worse.

Then it prints each per-layer metric from the traced runs as base median,
new median and the change relative to the base.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> tuple[dict, dict]:
    """From a result directory: {(workload, trace): {seed: {metric: value}}}
    and {workload: [failed, attempted]} summed over the untraced runs."""
    runs, ops = defaultdict(dict), defaultdict(lambda: [0, 0])
    for path in sorted(Path(directory).glob("*-seed*-trace[01].json")):
        result = json.loads(path.read_text())
        metrics = {m: v["value"] for m, v in result["metrics"].items()}
        runs[(result["workload"], result["trace"])][result["seed"]] = metrics
        if result["trace"] == 0:
            ops[result["workload"]][0] += result["failed"]
            ops[result["workload"]][1] += result["attempted"]
    return runs, ops


def fails_more(base_ops, new_ops) -> bool:
    """True if the new side failed a larger share of its ops than the base side."""
    (bf, ba), (nf, na) = base_ops, new_ops
    return nf > 0 and nf * ba > bf * na


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, new: dict, better: str, bound: float, more_fails: bool = False) -> str:
    """Verdict for one metric; ``base`` and ``new`` map seed to value.

    ``more_fails`` is true when the new side failed a larger share of its
    ops; the verdict is then worse, so no gain is read off failing runs.
    """
    if more_fails:
        return "worse"
    sign = 1.0 if better == "higher" else -1.0
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    seeds = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in seeds] or list(zip(sorted(b), sorted(n)))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (nmed - bmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        return "better"
    if -gain > bound * abs(bmed):
        return "worse"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    all_better = min(sign * y for y in n) > max(sign * x for x in b)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    (base, base_ops), (new, new_ops) = load(args[0]), load(args[1])
    workloads = sorted({w for w, t in base if t == 0} & {w for w, t in new if t == 0})
    print(f"{'workload':14s} {'metric':16s} {'base q1/median/q3':>32s} {'new q1/median/q3':>32s}  verdict")
    for workload in workloads:
        b, n = base[(workload, 0)], new[(workload, 0)]
        more_fails = fails_more(base_ops[workload], new_ops[workload])
        for side, (f, a) in (("base", base_ops[workload]), ("new", new_ops[workload])):
            if f:
                print(f"{workload:14s} {side} side: {f} of {a} ops failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = {s: m[name] for s, m in b.items() if name in m}
            nv = {s: m[name] for s, m in n.items() if name in m}
            if not bv or not nv:
                continue
            cells = ["/".join(f"{x:.4g}" for x in quartiles(list(v.values()))) for v in (bv, nv)]
            print(f"{workload:14s} {name:16s} {cells[0]:>32s} {cells[1]:>32s}  "
                  f"{verdict(bv, nv, metric['better'], metric['bound'], more_fails)}"
                  f"  (runs {len(bv)} vs {len(nv)})")
    print()
    print(f"{'workload':14s} {'per-layer metric':34s} {'base':>12s} {'new':>12s} {'change':>9s}")
    for workload in sorted({w for w, t in base if t == 1} & {w for w, t in new if t == 1}):
        b, n = base[(workload, 1)], new[(workload, 1)]
        for metric in spec["per_layer"]:
            name = metric["name"]
            bv = [m[name] for m in b.values() if name in m]
            nv = [m[name] for m in n.values() if name in m]
            if not bv or not nv:
                continue
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            if bmed == 0.0 and nmed == 0.0:
                continue
            rel = f"{(nmed - bmed) / abs(bmed):+.1%}" if bmed else "n/a"
            print(f"{workload:14s} {name:34s} {bmed:12.5g} {nmed:12.5g} {rel:>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
