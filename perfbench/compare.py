#!/usr/bin/env python3
"""Compares two benchmark result sets, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files one set of runs wrote to
``perfbench/out/results/`` (copy that directory away after measuring each
commit). Runs pair up by workload and seed. For every metric and workload
the table gives the parent median (the base), the change median and their
ratio, both sides' quartiles, the pairs the change won, and a verdict:

* ``gain``: the change won at least 9/10 of the pairs and the medians differ
  by more than the parent's quartile spread;
* ``unresolved``: the parent's own spread exceeds the metric's bound, and
  not every change run beat every parent run;
* ``regression``: the change median is worse than the base by more than
  the bound;
* ``ok``: within the bound; ``-``: a per-layer metric, which has no bound.

Bounds come from ``BENCHMARK.json``. The exit code is 1 when any metric
regressed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """``{(workload, trace, metric): row facts + {seed: value}}`` of one set."""
    out = {}
    for f in sorted(Path(directory).glob("*.json")):
        d = json.loads(f.read_text())
        for row in d["rows"]:
            if row["value"] is None:
                continue
            k = (d["workload"], d["trace"], row["metric"])
            e = out.setdefault(k, {
                "unit": row["unit"], "clock": row["clock"], "better": row["better"],
                "key": row["key"], "values": {},
            })
            e["values"][d["seed"]] = row["value"]
    return out


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent, change, better, bound):
    """Compares two ``{seed: value}`` maps of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p = list(parent.values())
    c = list(change.values())
    p_q = quartiles(p)
    c_q = quartiles(c)
    base = p_q[1]
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    spread = (p_q[2] - p_q[0]) / abs(base) if base else float("inf")
    worse_by = sign * (base - c_q[1]) / abs(base) if base else 0.0
    every_run_better = (min(c) > max(p)) if sign > 0 else (max(c) < min(p))
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_q[1] - base) > (p_q[2] - p_q[0]):
        verdict = "gain"
    elif bound is None:
        verdict = "-"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "ok"
    return {
        "base": base,
        "change": c_q[1],
        "ratio": c_q[1] / base if base else float("nan"),
        "parent_q": p_q,
        "change_q": c_q,
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "verdict": verdict,
    }


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parent, change = load(argv[1]), load(argv[2])
    regressed = False
    header = (f"{'workload':<19} {'metric':<30} {'unit':>7} {'clock':>5} {'base':>14} "
              f"{'change':>14} {'ratio':>8} {'parent q1..q3':>25} {'change q1..q3':>25} "
              f"{'wins':>7}  verdict")
    print(header)
    for k in sorted(set(parent) & set(change)):
        workload, _, metric = k
        e = parent[k]
        r = compare(e["values"], change[k]["values"], e["better"], bounds.get(e["key"]))
        regressed |= r["verdict"] == "regression"
        pq = f"{r['parent_q'][0]:.5g}..{r['parent_q'][2]:.5g}"
        cq = f"{r['change_q'][0]:.5g}..{r['change_q'][2]:.5g}"
        print(f"{workload:<19} {metric:<30} {e['unit']:>7} {e['clock']:>5} {r['base']:>14.6g} "
              f"{r['change']:>14.6g} {r['ratio']:>8.4f} {pq:>25} {cq:>25} "
              f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    only = sorted(set(parent) ^ set(change))
    for k in only:
        print(f"{k[0]:<19} {k[2]:<30} only in {'parent' if k in parent else 'change'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
