"""Compare two sets of benchmark results, e.g. parent vs change.

    python3 wirebench/compare.py PARENT CHANGE [--json]

``PARENT`` and ``CHANGE`` are result files written by ``run.py`` or
directories holding them (``.wirebench/results/`` of two checkouts).
Run both sides with the same ``--seconds`` and seeds, alternating which
side goes first. Runs are paired by seed: both sides must hold the
same seeds, once each per workload and trace setting. For every
(workload, metric) it prints each side's median and quartiles, the
share of pairs the change wins (ties count for neither), and a verdict:

- ``incorrect``: a run of that workload, on either side, failed its
  correctness check; no figure of the workload is compared;

- ``improved``: the change wins at least nine tenths of all pairs and
  the medians differ by more than the parent's quartile spread;
- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's own spread is wider than the bound and
  not every change run beats every parent run;
- ``unchanged``: otherwise.

Per-layer metrics (from ``--trace 1`` results) have no direction or
bound; they get medians and quartiles only. The exit code is 1 when a
workload is ``incorrect`` or its seeds do not pair, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load(path: str) -> list:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    results = []
    for name in files:
        with open(name) as handle:
            results.append(json.load(handle))
    return results


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list, change: list) -> list:
    """``[(base value, change value)]`` of runs with the same seed."""
    by_seed = dict(change)
    return [(v, by_seed[seed]) for seed, v in base if seed in by_seed]


def unpaired(base: list, change: list) -> str:
    """Why the runs of one (workload, trace) cannot be paired by seed,
    or ``""`` when every seed appears once on each side."""
    b, c = [r["seed"] for r in base], [r["seed"] for r in change]
    if len(set(b)) < len(b) or len(set(c)) < len(c):
        return "a seed appears more than once on one side"
    if set(b) != set(c):
        return f"seeds differ: parent only {sorted(set(b) - set(c))}, " \
               f"change only {sorted(set(c) - set(b))}"
    return ""


def verdict(base: list, change: list, better: str, bound: float) -> dict:
    b_vals, c_vals = [v for _s, v in base], [v for _s, v in change]
    bq, cq = quartiles(b_vals), quartiles(c_vals)
    sign = 1.0 if better == "higher" else -1.0
    matched = pairs(base, change)
    wins = sum(1 for b, c in matched if sign * (c - b) > 0)
    win_frac = wins / len(matched) if matched else 0.0
    spread = bq[2] - bq[0]
    gain = sign * (cq[1] - bq[1])
    all_better = all(sign * (c - b) > 0 for c in c_vals for b in b_vals)
    if win_frac >= 0.9 and gain > spread:
        call = "improved"
    elif -gain > bound * abs(bq[1]):
        call = "worse"
    elif spread > bound * abs(bq[1]) and not all_better:
        call = "unresolved"
    else:
        call = "unchanged"
    return {"parent": bq, "change": cq, "win_frac": win_frac, "pairs": len(matched),
            "verdict": call}


def compare(base: list, change: list, spec: dict) -> list:
    directions = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for workload in workloads:
        for traced in (0, 1):
            b = [r for r in base if r["workload"] == workload and r["trace"] == traced]
            c = [r for r in change if r["workload"] == workload and r["trace"] == traced]
            if not b or not c:
                continue
            broken = [side for side, runs in (("parent", b), ("change", c))
                      if not all(r["correct"] for r in runs)]
            why = ("run(s) failed the correctness check on the " + " and ".join(broken)
                   if broken else unpaired(b, c))
            if why:
                rows.append({"workload": workload, "metric": "*", "unit": "",
                             "parent": (), "change": (), "win_frac": None,
                             "pairs": 0, "trace": traced,
                             "verdict": "incorrect" if broken else "unpaired",
                             "why": why})
                continue
            for name in b[0]["metrics"]:
                bv = [(r["seed"], r["metrics"][name]["value"]) for r in b if name in r["metrics"]]
                cv = [(r["seed"], r["metrics"][name]["value"]) for r in c if name in r["metrics"]]
                if not bv or not cv:
                    continue
                row = {"workload": workload, "metric": name, "trace": traced,
                       "unit": b[0]["metrics"][name]["unit"]}
                if name in directions and not traced:
                    row.update(verdict(bv, cv, directions[name]["better"],
                                       directions[name]["bound"]))
                else:
                    row.update({"parent": quartiles([v for _s, v in bv]),
                                "change": quartiles([v for _s, v in cv]),
                                "win_frac": None, "pairs": 0, "verdict": "-"})
                rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of wirebench results.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default="BENCHMARK.json")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        spec = json.load(handle)
    rows = compare(load(args.parent), load(args.change), spec)
    status = 1 if any(row["verdict"] in ("incorrect", "unpaired") for row in rows) else 0
    if args.json:
        print(json.dumps(rows, indent=1))
        return status
    fmt = "{:<14} {:<34} {:>30} {:>30} {:>5} {}"
    print(fmt.format("workload", "metric", "parent q1/med/q3", "change q1/med/q3", "win", "verdict"))
    for row in rows:
        win = "" if row["win_frac"] is None else f"{row['win_frac']:.2f}"
        print(fmt.format(
            row["workload"], f"{row['metric']} [{row['unit']}]",
            "/".join(f"{v:.4g}" for v in row["parent"]),
            "/".join(f"{v:.4g}" for v in row["change"]),
            win, row["verdict"],
        ))
        if "why" in row:
            print(f"  {row['why']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
