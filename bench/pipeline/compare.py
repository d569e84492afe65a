#!/usr/bin/env python3
"""Compare two sets of bench_pipeline runs, metric by metric.

    python3 bench/pipeline/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are each a directory of .jsonl files or one .jsonl file of
run records (written by run.py --record). Each metric's bound and direction
come from BENCHMARK.json. For every workload x end-to-end metric it prints
the median and quartiles of each side, the share of run pairs the change
won, and a verdict:

  better        over at least ten pairs, the change wins at least 9 in 10 and
                the medians differ by more than the base's own quartile spread
  worse         the change's median is worse than the base's by more than the
                bound
  within bound  neither of the above
  unresolved    a side's quartile spread (as a share of its median) is wider
                than the bound, so the bound cannot be judged; unless every
                change run beats, or loses to, every base run

Runs are paired in file order within a workload. Exact outputs (the
"quality" map of each record: coverage, test frames, ...) must be equal
across every run of a seed, on either side. Exits 1 if any row is worse,
any exact output differs or any run failed. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_records(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".jsonl"))
    records = []
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if "workload" in record and "result" in record:
                    records.append(record)
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base, change, better, bound):
    """better is "lower" or "higher"; returns (wins, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    share = wins / len(pairs) if pairs else 0.0
    med_b, med_c = statistics.median(base), statistics.median(change)
    worse_by = sign * (med_c - med_b) / med_b if med_b else 0.0
    if max(spread(base), spread(change)) > bound:
        if all(sign * (c - b) < 0 for b in base for c in change):
            return share, "better"
        if all(sign * (c - b) > 0 for b in base for c in change):
            return share, "worse"
        return share, "unresolved"
    if worse_by > bound:
        return share, "worse"
    q1, _, q3 = quartiles(base)
    if len(pairs) >= 10 and share >= 0.9 and abs(med_c - med_b) > (q3 - q1):
        return share, "better"
    return share, "within bound"


def untraced_by_workload(records):
    out = {}
    for r in records:
        if not r.get("traced"):
            out.setdefault(r["workload"], []).append(r)
    return out


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    base = load_records(args.base)
    change = load_records(args.change)
    bad = False

    print("%-9s %-13s %-34s %-34s %6s  %s" % ("workload", "metric", "base median [q1, q3]",
                                             "change median [q1, q3]", "won", "verdict"))
    base_w, change_w = untraced_by_workload(base), untraced_by_workload(change)
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = base_w.get(workload, []), change_w.get(workload, [])
        if not a or not b:
            print("%-9s (no untraced runs on %s side)" % (workload, "base" if not a else "change"))
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = [r["result"]["metrics"][name]["value"] for r in a]
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            won, v = verdict(va, vb, metric["better"], metric["bound"])
            bad = bad or v == "worse"
            print("%-9s %-13s %-34s %-34s %5.0f%%  %s" % (workload, name, fmt(va), fmt(vb),
                                                         100 * won, v))
        # Exact outputs: every run of a seed, on either side, equal.
        by_seed = {}
        for r in a + b:
            by_seed.setdefault(r["seed"], []).append(json.dumps(r.get("quality", {}), sort_keys=True))
        common = sorted({r["seed"] for r in a} & {r["seed"] for r in b})
        differ = [s for s in sorted(by_seed) if len(set(by_seed[s])) > 1]
        bad = bad or bool(differ)
        print("%-9s %-13s %s" % (workload, "exact outputs",
                                 "differ for seeds %s" % differ if differ else
                                 "identical over %d seed(s)" % len(common)))
        failed = sum(r["result"]["failed"] for r in a + b)
        if failed:
            bad = True
            print("%-9s %-13s %d failed call(s) or gate(s)" % (workload, "failures", failed))

    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
