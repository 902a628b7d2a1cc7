"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 --out set1.json
    python3 perfbench/steadiness.py --compare set1.json set2.json ... --out perfbench/steadiness.json

Runs ``run.py`` once per seed and workload, one run at a time, and reports
for each end-to-end metric the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median, beside the bound BENCHMARK.json fixes for it. The bound of
every metric except ``setup_s`` must exceed the spread; the benchmark aims
for spreads below a third of the bound.

``--compare`` takes such sets of the same code and reports, for each set and
the next and per metric, how much worse one set's median is than the
other's, as a share of the other, in both directions; it must stay within
the bound for every metric, ``setup_s`` too.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

import harness


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, str(harness.BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=harness.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def compare(spec, first, second):
    """Per workload and metric: how much worse the second set's median is
    than the first's, and the first's than the second's."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def worse_by(old, new, name):
        change = (new - old) / old
        return change if better[name] == "lower" else -change

    rows = {}
    for workload, sets in second["workloads"].items():
        for name, b in sets["metrics"].items():
            a = first["workloads"][workload]["metrics"][name]
            worse = worse_by(a["median"], b["median"], name)
            reverse = worse_by(b["median"], a["median"], name)
            ok = max(worse, reverse) <= bound[name]
            rows.setdefault(workload, {})[name] = {
                "first_median": a["median"], "second_median": b["median"],
                "worse_by": worse, "reverse_worse_by": reverse, "bound": bound[name],
                "within_bound_both_ways": ok}
            print(f"{workload:13s} {name:14s} {a['median']:.6g} -> {b['median']:.6g} "
                  f"worse by {worse:+.4f}, reverse {reverse:+.4f}, bound {bound[name]}"
                  f"{'' if ok else '  <-- outside the bound'}")
    return rows


def main():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--out", default=None, help="write the report here as JSON")
    ap.add_argument("--compare", nargs="+", metavar="SET",
                    help="compare saved sets, each with the next, instead of running")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        report = {"sets": sets, "between_sets": []}
        for k in range(len(sets) - 1):
            print(f"# set {k} -> set {k + 1}")
            report["between_sets"].append({"first": k, "second": k + 1,
                                           "metrics": compare(spec, sets[k], sets[k + 1])})
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
        return
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"runs": args.runs, "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "run_seconds": spec["run_seconds"], "python": platform.python_version(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        results = []
        for seed in report["seeds"]:
            res, run_wall = run_once(workload, seed, spec["run_seconds"])
            results.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                            "failed": res["failed"], "run_wall_s": run_wall})
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload:13s} seed {seed} ({run_wall:.1f} s, {res['attempted']} ops): " + " ".join(
                f"{name}={vals[-1]:.6g}" for name, vals in values.items()), flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            rows[m["name"]] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"],
                               "within_third_of_bound": spread < m["bound"] / 3,
                               "values": vals}
            print(f"{workload:13s} {m['name']:14s} median {statistics.median(vals):.6g} "
                  f"spread {spread:.4f} bound {m['bound']}"
                  f"{'' if spread < m['bound'] / 3 else '  <-- above a third of the bound'}",
                  flush=True)
        report["workloads"][workload] = {"metrics": rows, "runs": results}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
