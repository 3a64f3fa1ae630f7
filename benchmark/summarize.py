#!/usr/bin/env python3
"""Summarises sets of benchmark runs against the bounds in BENCHMARK.json.

    summarize.py SET_DIR            spread of one set of runs
    summarize.py SET_DIR SET_DIR    also: is the second set's median worse?

A set directory holds one file per run, `<workload>.<seed>.json`, whose last
line is the run's JSON result. For each end-to-end metric and workload the
spread is the distance between the first and third quartile of its values
(`statistics.quantiles(values, n=4)`) as a share of their median. Exits 1 if
a spread (other than `setup_s`'s) exceeds the metric's bound, or if a second
set's median is worse than the first's by more than the bound.
"""
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in DECLARED["end_to_end"]}
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def load(set_dir):
    """{workload: {metric: [values in seed order]}} of one set."""
    values = {}
    for path in sorted(pathlib.Path(set_dir).glob("*.json")):
        workload = path.name.split(".")[0]
        result = json.loads(path.read_text().strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{path}: the run reports failed operations")
        for name, metric in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(
                metric["value"]
            )
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    sets = [load(d) for d in sys.argv[1:3]]
    if not sets:
        sys.exit(__doc__)
    bad = 0
    print(
        f"{'workload':<15} {'metric':<24} {'runs':>4} {'median':>14} "
        f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict"
    )
    for workload in WORKLOADS:
        for name, declared in END_TO_END.items():
            first = sets[0].get(workload, {}).get(name)
            if not first or len(first) < 2:
                continue
            median = statistics.median(first)
            iqr = spread(first)
            full = (max(first) - min(first)) / median
            bound = declared["bound"]
            verdict = "ok" if iqr <= bound or name == "setup_s" else "SPREAD"
            if len(sets) == 2:
                second = statistics.median(sets[1][workload][name])
                worse = (second - median) / median
                if declared["better"] == "higher":
                    worse = -worse
                verdict += f" second={second:.6g} worse_by={worse:+.3f}"
                if worse > bound:
                    verdict += " WORSE"
            if "SPREAD" in verdict or "WORSE" in verdict:
                bad += 1
            print(
                f"{workload:<15} {name:<24} {len(first):>4} {median:>14.6g} "
                f"{iqr:>8.3f} {full:>9.3f} {bound:>6.2f}  {verdict}"
            )
    print(f"{bad} metric x workload pairs outside their bound")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
