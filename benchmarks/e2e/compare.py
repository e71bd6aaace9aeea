"""Compare two end-to-end benchmark results: parent commit vs change.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--claim WORKLOAD:METRIC]

``PARENT`` and ``CHANGE`` are results files written by an untraced
``run.py --out``, or directories of them (merged in file-name order, so
alternating runs of the two commits can be written one file per run).
Both sides must come from the same benchmark settings.

For every workload and end-to-end metric the verdict is ``better``,
``same``, ``worse`` or ``unresolved``, judged against the metric's
bound in ``BENCHMARK.json`` (a share of the parent's median), widened
to the absolute floor in ``ABS_FLOOR`` where the metric has one:
``unresolved`` when either side's run-to-run interquartile range
exceeds the allowance, unless every change run beats every parent run.
Simulated-clock
results are deterministic for a seed; with equal seeds they must match
within ``SIM_BOUND``.  ``--claim`` applies the claim rule: the change
wins at least 9 of every 10 index-aligned (parent, change) pairs, with
at least 10 pairs, and the medians differ by more than the parent's
interquartile range.  Every ratio is printed with its base.  Exits 1
if any metric is worse or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Relative drift allowed in a simulated-clock result between two
#: results files with the same seed.
SIM_BOUND = 0.005

#: Absolute differences (in the metric's unit) a metric may always move
#: by, however small its median: set-up times of a few tens of
#: milliseconds move by more than their relative bound from the host
#: alone.  ``BENCHMARK.json`` holds only the relative bounds.
ABS_FLOOR = {"setup_s": 0.05}


def load(path: pathlib.Path) -> dict:
    """One results document; a directory's files are merged run-wise."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = [json.loads(f.read_text()) for f in files]
    docs = [d for d in docs if d.get("benchmark") == "e2e"]
    if not docs:
        raise SystemExit(f"error: no results files in {path}")
    if any(doc["settings"]["trace"] for doc in docs):
        raise SystemExit(f"error: {path} holds a traced run; end-to-end "
                         "metrics come only from untraced runs")
    merged = {"settings": docs[0]["settings"], "workloads": {}}
    for doc in docs:
        for key in ("seconds", "smoke"):
            if doc["settings"][key] != merged["settings"][key]:
                raise SystemExit(f"error: {path} mixes runs with different "
                                 f"{key!r} settings")
        for name, entry in doc["workloads"].items():
            into = merged["workloads"].setdefault(
                name, {"end_to_end": {}, "sim": {}, "seeds": []})
            into["seeds"].append(doc["settings"]["seed"])
            for metric, row in entry["end_to_end"].items():
                slot = into["end_to_end"].setdefault(
                    metric, {"unit": row["unit"], "values": []})
                slot["values"].extend(row["values"])
            for metric, row in entry["sim"].items():
                into["sim"].setdefault(metric, row)
    return merged


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better: str, bound: float,
            floor: float = 0.0) -> str:
    """better / same / worse / unresolved for one metric: a median may
    move by ``bound`` times the parent's median, or by ``floor`` in the
    metric's unit if that is more."""
    p, c = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    allowed = max(bound * abs(p), floor)
    if (iqr(parent) > allowed
            or iqr(change) > max(bound * abs(c), floor)):
        beats = all(sign * (y - x) < 0 for x in parent for y in change)
        return "better" if beats else "unresolved"
    worse_by = sign * (c - p)
    if worse_by > allowed:
        return "worse"
    if worse_by < -allowed:
        return "better"
    return "same"


def claim(parent, change, better: str) -> tuple:
    """(met, explanation) of a claimed gain on one metric."""
    pairs = list(zip(parent, change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    p, c = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    met = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
           and sign * (c - p) < 0 and abs(c - p) > spread)
    return met, (f"change wins {wins}/{len(pairs)} pairs (need >= 9/10 "
                 f"of >= 10); |median diff| {abs(c - p):.6g} vs parent "
                 f"IQR {spread:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    for key in ("seconds", "smoke"):
        if parent["settings"][key] != change["settings"][key]:
            raise SystemExit(f"error: parent and change differ in the "
                             f"{key!r} setting")

    names = [w for w in parent["workloads"] if w in change["workloads"]]
    width = max(len(n) for n in names) if names else 8
    print(f"{'workload':<{width}} " + " ".join(
        f"{m['name']:>20}" for m in metrics))
    worse = False
    details = []
    for name in names:
        pw, cw = parent["workloads"][name], change["workloads"][name]
        cells = []
        for m in metrics:
            pv = pw["end_to_end"][m["name"]]["values"]
            cv = cw["end_to_end"][m["name"]]["values"]
            floor = ABS_FLOOR.get(m["name"], 0.0)
            v = verdict(pv, cv, m["better"], m["bound"], floor)
            worse |= v == "worse"
            p, c = statistics.median(pv), statistics.median(cv)
            ratio = c / p if p else float("nan")
            cells.append(f"{v} {ratio:.3f}x".rjust(20))
            bound = f"{m['bound']:.0%}"
            if floor:
                bound += f" or {floor:g} {m['unit']}, whichever is larger"
            details.append(
                f"{name} {m['name']}: change/parent = {ratio:.4f} (parent "
                f"{p:.6g} {m['unit']} median of {len(pv)}, change "
                f"{c:.6g} {m['unit']} median of {len(cv)}; bound "
                f"{bound}) -> {v}")
        print(f"{name:<{width}} " + " ".join(cells))
    print()
    print("\n".join(details))

    print()
    for name in names:
        pw, cw = parent["workloads"][name], change["workloads"][name]
        if pw["seeds"] != cw["seeds"]:
            print(f"{name} simulated: seeds differ, not compared")
            continue
        for metric, prow in pw["sim"].items():
            crow = cw["sim"].get(metric)
            if crow is None:
                print(f"{name} {metric}: missing in change")
                continue
            p, c = prow["value"], crow["value"]
            drift = (c - p) / abs(p) if p else float(c != p)
            sign = 1.0 if prow["better"] == "lower" else -1.0
            if c == p:
                v = "identical"
            elif abs(drift) <= SIM_BOUND:
                v = "within bound"
            else:
                v = "worse" if sign * drift > 0 else "better"
                worse |= v == "worse"
            print(f"{name} {metric}: change/parent = "
                  f"{c / p if p else float('nan'):.6f} (parent {p!r}, "
                  f"change {c!r} {prow['unit']}) -> {v}")

    unmet = False
    by_name = {m["name"]: m for m in metrics}
    for spec in args.claim:
        name, _, metric = spec.partition(":")
        if name not in names or metric not in by_name:
            raise SystemExit(f"error: unknown claim {spec!r}")
        pv = parent["workloads"][name]["end_to_end"][metric]["values"]
        cv = change["workloads"][name]["end_to_end"][metric]["values"]
        met, why = claim(pv, cv, by_name[metric]["better"])
        unmet |= not met
        print(f"claim {spec}: {'met' if met else 'NOT met'} ({why})")
    return 1 if worse or unmet else 0


if __name__ == "__main__":
    sys.exit(main())
