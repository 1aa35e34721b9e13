#!/usr/bin/env python3
"""Compare two sets of mcbench runs: a parent (base) and a change.

    python3 mcbench/compare.py BASE.jsonl CHANGE.jsonl

Each file is a run log written by run.py (--log); only untraced runs
(--trace 0) are compared. Runs pair up by (workload, seed); unmatched runs
still count towards medians and quartiles.

For every workload and end-to-end metric of BENCHMARK.json this applies a
paired-run rule:

  better      the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's own
              quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's quartile spread, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run;
  same        otherwise.

It prints one row per workload, then the medians, quartiles and win shares
behind each verdict, then whether the simulated statistics (result_digest)
are identical per seed. Exits 1 when any metric is worse.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        if r.get("trace") == 0:
            runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, pairs, lower_better, bound):
    """Returns (verdict, detail dict) for one metric."""
    sign = 1.0 if lower_better else -1.0

    def beats(c, b):
        return sign * (b - c) > 0

    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / mb if mb else float("inf")
    wins = sum(1 for b, c in pairs if beats(c, b))
    share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (mc - mb) / mb if mb else 0.0
    all_better = all(beats(c, b) for c in change for b in base)
    if share >= 0.9 and beats(mc, mb) and abs(mc - mb) > (q3 - q1):
        v = "better"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return v, {"base_median": mb, "change_median": mc, "base_q1": q1,
               "base_q3": q3, "base_spread": spread, "win_share": share,
               "pairs": len(pairs), "delta": (mc - mb) / mb if mb else 0.0}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    base, change = load(argv[1]), load(argv[2])
    metrics = spec["end_to_end"]
    rows, details, any_worse = [], [], False
    for w in spec["workloads"]:
        name = w["name"]
        b_runs, c_runs = base.get(name, []), change.get(name, [])
        if not b_runs or not c_runs:
            rows.append((name, ["no runs"] * len(metrics)))
            continue
        by_seed = {r["seed"]: r for r in b_runs}
        matched = [(by_seed[r["seed"]], r) for r in c_runs if r["seed"] in by_seed]
        cells = []
        for m in metrics:
            key = m["name"]
            bv = [r["metrics"][key]["value"] for r in b_runs]
            cv = [r["metrics"][key]["value"] for r in c_runs]
            pv = [(b["metrics"][key]["value"], c["metrics"][key]["value"])
                  for b, c in matched]
            v, d = verdict(bv, cv, pv, m["better"] == "lower", m["bound"])
            any_worse = any_worse or v == "worse"
            cells.append(f"{v} {d['delta']:+.1%}")
            details.append((name, key, m["unit"], v, d, len(bv), len(cv)))
        rows.append((name, cells))

    width = max(len(m["name"]) for m in metrics) + 12
    print(f"{'workload':<10} " + " ".join(f"{m['name']:<{width}}" for m in metrics))
    for name, cells in rows:
        print(f"{name:<10} " + " ".join(f"{c:<{width}}" for c in cells))
    print()
    for name, key, unit, v, d, nb, nc in details:
        print(f"{name:<10} {key:<18} {v:<10} base median {d['base_median']:.6g} {unit} "
              f"(q1 {d['base_q1']:.6g}, q3 {d['base_q3']:.6g}, spread "
              f"{d['base_spread']:.1%}, n={nb})  change median "
              f"{d['change_median']:.6g} (n={nc})  wins {d['win_share']:.0%} "
              f"of {d['pairs']} pairs")
    print()
    for w in spec["workloads"]:
        name = w["name"]
        b = {r["seed"]: r["info"].get("result_digest") for r in base.get(name, [])}
        c = {r["seed"]: r["info"].get("result_digest") for r in change.get(name, [])}
        common = sorted(set(b) & set(c))
        if not common:
            continue
        changed = [s for s in common if b[s] != c[s]]
        state = (f"CHANGED on seeds {changed}" if changed
                 else "identical")
        print(f"{name:<10} simulated statistics {state} ({len(common)} seeds)")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
