#!/usr/bin/env python3
"""Compare two perfbench binaries in alternating pairs of runs.

    scripts/bench_pairs.py --parent OLD/perfbench --change NEW/perfbench
        [--seeds 10] [--seconds 25] [--claim WORKLOAD:METRIC]
        --out BENCH.json
        [--pr N] [--title TEXT] [--parent-commit REV] [--host TEXT]

For every workload in BENCHMARK.json and every seed 1..N the script
runs one pair, `perfbench --workload W --seed N --seconds S --trace 0`
on each side, one process at a time: parent first on odd seeds and
change first on even ones, so slow drift of the host hits both sides
alike.  It writes
the BENCH_<pr>.json schema: per end-to-end metric the median and
quartiles of each side, the change/parent ratio of the medians and the
number of pairs the change won; whether every op fingerprint matched
on every seed; ops attempted and failed; and every run.

It then prints two verdicts.  The claim rule (for --claim): the change
wins at least 9 of every 10 pairs and the medians lie further apart
than the parent's interquartile range.  The bound rule (for every
other end-to-end metric in BENCHMARK.json): the change's median is not
worse than the parent's by more than the metric's bound.

Exits 1 when a run yields no result, an op fails, or fingerprints
differ between the two sides; the verdicts do not move the exit code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(binary, workload, seed, seconds):
    """One perfbench process: its result line and {op: fingerprint}."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # perfbench reports getrusage's ru_maxrss, which Linux carries over
    # exec from the forking process.  Forked straight from Python it
    # would read Python's RSS; a shell that forks it in turn does not.
    proc = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh"] + cmd,
                          stdout=subprocess.PIPE, text=True,
                          timeout=4 * seconds + 120)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if proc.returncode not in (0, 1) or not lines or "op" in lines[-1]:
        raise RuntimeError("%s: no result (exit %d)"
                           % (" ".join(cmd), proc.returncode))
    fingerprints = {line["op"]: line["fingerprint"]
                    for line in lines[:-1] if "op" in line}
    return lines[-1], fingerprints


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4,
                                          method="exclusive")
    return {"median": median, "q1": q1, "q3": q3}


def better(metric, change, parent):
    if metric["better"] == "higher":
        return change > parent
    return change < parent


def summarize(metrics, runs):
    summary = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [run[side]["metrics"][name]["value"]
                        for run in runs]
                 for side in ("parent", "change")}
        parent = quartiles(sides["parent"])
        change = quartiles(sides["change"])
        summary[name] = {
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "change_over_parent_median":
                change["median"] / parent["median"]
                if parent["median"] else None,
            "pairs_change_better": sum(
                better(metric, c, p)
                for c, p in zip(sides["change"], sides["parent"])),
            "pairs": len(runs),
        }
    return summary


def compare_workload(args, metrics, workload):
    runs = []
    fingerprints_equal = True
    for seed in range(1, args.seeds + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        results = {}
        prints = {}
        for side in order:
            binary = args.parent if side == "parent" else args.change
            results[side], prints[side] = run_once(
                binary, workload, seed, args.seconds)
        fingerprints_equal &= prints["parent"] == prints["change"]
        runs.append({"seed": seed, "parent": results["parent"],
                     "change": results["change"]})
        print("%s seed %d: %s" % (workload, seed, ", ".join(
            "%s %.4g" % (side, results[side]["metrics"]
                         ["sim_cycles_per_s"]["value"])
            for side in ("parent", "change"))), file=sys.stderr)
    return {
        "summary": summarize(metrics, runs),
        "op_fingerprints_equal_every_seed": fingerprints_equal,
        "ops_failed": {side: sum(run[side]["failed"] for run in runs)
                       for side in ("parent", "change")},
        "ops_attempted": {side: sum(run[side]["attempted"]
                                    for run in runs)
                          for side in ("parent", "change")},
        "runs": runs,
    }


def print_verdicts(metrics, workloads, claim):
    for workload, result in workloads.items():
        for metric in metrics:
            name = metric["name"]
            row = result["summary"][name]
            parent, change = row["parent"], row["change"]
            if (workload, name) == claim:
                iqr = parent["q3"] - parent["q1"]
                apart = abs(change["median"] - parent["median"])
                holds = (better(metric, change["median"],
                                parent["median"])
                         and 10 * row["pairs_change_better"]
                         >= 9 * row["pairs"]
                         and apart > iqr)
                print("claim %s %s: %d/%d pairs won, medians %.4g -> "
                      "%.4g (x%.3f), apart %.4g vs parent IQR %.4g: %s"
                      % (workload, name, row["pairs_change_better"],
                         row["pairs"], parent["median"],
                         change["median"],
                         row["change_over_parent_median"], apart, iqr,
                         "holds" if holds else "FAILS"))
                continue
            if not parent["median"]:
                continue
            worse = (change["median"] - parent["median"]) / \
                parent["median"]
            if metric["better"] == "higher":
                worse = -worse
            within = worse <= metric["bound"]
            print("bound %s %s: median %.4g -> %.4g, worse by %+.1f%% "
                  "(bound %.0f%%): %s"
                  % (workload, name, parent["median"], change["median"],
                     100 * worse, 100 * metric["bound"],
                     "within" if within else "OUTSIDE"))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="perfbench binary built from the parent")
    parser.add_argument("--change", required=True,
                        help="perfbench binary built from the change")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--claim", default="",
                        help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--out", required=True,
                        help="where to write the JSON report")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--title", default="")
    parser.add_argument("--parent-commit", default="")
    parser.add_argument("--host", default="")
    args = parser.parse_args()
    if args.seeds < 1 or args.seconds < 1:
        parser.error("--seeds and --seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    metrics = benchmark["end_to_end"]
    names = [workload["name"] for workload in benchmark["workloads"]]
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in names or
                  claim[1] not in [m["name"] for m in metrics]):
        parser.error("--claim must name a workload and an end-to-end "
                     "metric of BENCHMARK.json")

    workloads = {name: compare_workload(args, metrics, name)
                 for name in names}
    report = {
        "pr": args.pr,
        "change": args.title,
        "parent_commit": args.parent_commit,
        "host": args.host,
        "protocol": "perfbench --workload W --seed N --seconds %d "
                    "--trace 0 for seeds 1-%d, one parent/change pair "
                    "per seed, one process at a time; the side that "
                    "runs first alternates with the seed (parent first "
                    "on odd seeds)" % (args.seconds, args.seeds),
        "workloads": workloads,
    }
    with open(args.out, "w") as handle:
        handle.write(json.dumps(report, indent=1) + "\n")

    print_verdicts(metrics, workloads, claim)
    sound = True
    for name, result in workloads.items():
        if not result["op_fingerprints_equal_every_seed"]:
            print("%s: op fingerprints differ" % name)
            sound = False
        if any(result["ops_failed"].values()):
            print("%s: failed ops %s" % (name, result["ops_failed"]))
            sound = False
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main())
