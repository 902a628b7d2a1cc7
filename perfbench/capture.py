"""Capture the golden reports the benchmark checks every operation against.

Runs every valid operation any seed can draw (each CLI op on every pool
member, in every format its workload uses) as a cold process and stores its
exit code and stdout, byte for byte. For lib-stream it stores a digest of each
pool member's pipeline summary. Every captured decision is checked against
the input's known answer first, so a wrong golden is not written.

Run from the repository root, at the commit whose outputs define
correctness: ``python3 perfbench/capture.py [workload ...]``.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import corpus
import harness


def capture_cli(workload):
    work = harness.WORK / "capture" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    items = corpus.pool_members(workload)
    corpus.write_inputs(items, work)
    by_id = {it["id"]: it for it in items}
    ops = corpus.cli_ops(workload, items)
    # two workers: the machine has two cores and every op is one process
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda op: harness.spawn_cli(op, work), ops))
    table, problems = {}, []
    for op, proc in zip(ops, procs):
        stdout = proc.stdout.decode("utf-8")
        if proc.code != 0:
            problems.append(f"{op['key']}: exit {proc.code}: {proc.stderr.decode()[-300:]}")
            continue
        why = harness.known_answer(op, by_id.get(op["item"]), stdout)
        if why:
            problems.append(f"{op['key']}: {why}")
            continue
        table[op["key"]] = {"exit": proc.code, "stdout": stdout}
    return table, problems


def capture_stream():
    sys.path.insert(0, str(harness.SRC))
    import child
    import toricroots as tr

    table, problems = {}, []
    for item in corpus.pool_members("lib-stream"):
        if item["kind"] == "fan":
            summary = child.fan_summary(tr, child.fan_pipeline(tr, item["data"]))
        else:
            summary = child.polytope_summary(tr, child.polytope_pipeline(tr, item["data"]))
        digest = child.summary_digest(summary)
        decision = {f: summary[f] for f in child.DECISION_FIELDS[item["kind"]]}
        why = harness.check_summary(item, digest, decision, {item["id"]: {"sha256": digest}})
        if why:
            problems.append(f"{item['id']}: {why}")
        else:
            table[item["id"]] = {"sha256": digest}
    return table, problems


def main():
    workloads = sys.argv[1:] or list(corpus.WORKLOADS)
    failed = False
    for workload in workloads:
        table, problems = capture_stream() if workload == "lib-stream" else capture_cli(workload)
        for p in problems:
            print(f"{workload}: {p}", file=sys.stderr)
        failed |= bool(problems)
        harness.GOLDEN.mkdir(exist_ok=True)
        with open(harness.golden_path(workload), "w", encoding="utf-8") as fh:
            json.dump(table, fh, sort_keys=True, indent=0)
            fh.write("\n")
        print(f"{workload}: {len(table)} golden entries")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
