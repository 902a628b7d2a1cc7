"""The toricroots benchmark: one command runs one workload.

    python3 perfbench/run.py --workload cli-heavy --seed 1 --seconds 34 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

``cli-small``   every command, JSON and text, on dim <= 2 inputs, plus
                hostile inputs that must be rejected with exit code 2;
``cli-heavy``   fan commands on dim 3-5 fans, polytope commands and the
                ``normalfan | additive -`` pipe on dim 2-4 polytopes;
``lib-stream``  the public-API pipeline on a stream of fans and polytopes
                in one long-lived process.

Load model: one closed-loop client, one operation in flight. In the CLI
workloads every operation is a fresh ``python -m toricroots`` process, so
the library's caches start cold each time, as they do for a user.

The seed fixes one pass: a list of CLI operations, or a stream of items
that one lib-stream worker process runs. With ``--trace 0`` the run repeats
the pass for ``--seconds`` (at least once; lib-stream at least three times,
each time in a fresh worker) and prints the end-to-end metrics. Each operation of
the pass is taken at the mean of its repeats, so every run weighs the same
mix of operations, however far it gets into its last pass. Times are scaled
to a reference machine by calibration processes run between operations. With
``--trace 1`` it runs the pass once, each operation once untraced and once
through the tracing children in child.py, and prints the per-layer metrics,
writing spans and a full per-layer report under ``.perfbench_work/trace/``.
Either way every operation is checked against the golden reports and known
answers. The last line of stdout is one JSON object with keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import shutil
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import child
import corpus
import harness

SETUP_LAUNCHES = 16
CALIBRATE_EVERY = 3  # CLI workloads: one calibration process per this many operations
# Wall time of a calibration process (harness.CALIBRATION) on the reference
# machine. Each timed sample is scaled by this over the median of the
# CALIBRATION_WINDOW calibrations nearest to it in time.
REFERENCE_CALIBRATION_S = 0.06
CALIBRATION_WINDOW = 5
MIN_STREAM_PASSES = 3  # a CLI run makes at least one pass
MAX_RUN_S = 150.0  # no new pass or operation starts after this, even short of a full pass
CLIFF_BUDGET_S = 20.0
MODULES = ("cli", "fan", "demazure", "additive", "cox", "polytope", "lattice")

perf = time.perf_counter


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def reset(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def setup_launch(work):
    """Wall time of a fresh interpreter that imports toricroots.cli and exits."""
    proc = harness.spawn(["-c", "import toricroots.cli"], work)
    if proc.code != 0:
        raise RuntimeError("import toricroots.cli failed: " + proc.stderr.decode()[-500:])
    return proc.wall


def setup_probe(work, cal):
    """A set-up launch and, right after it, a calibration process, which is
    also added to ``cal`` as (time, wall)."""
    wall = setup_launch(work)
    cal.append((perf(), harness.calibrate(work)))
    return wall, cal[-1][1]


def setup_due(setup, elapsed, seconds):
    """Set-up launches are spread evenly over the run's measured time."""
    return len(setup) < SETUP_LAUNCHES and elapsed >= len(setup) * seconds / SETUP_LAUNCHES


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, key, why):
        self.attempted += 1
        if why:
            self.failures.append((key, why))


# ---------------------------------------------------------------------------
# timed runs


def cli_pass(workload, seed, work):
    """The seed's pass of CLI operations, with its inputs written under
    ``work``; also the cli-small known-defect probes."""
    items, rng = corpus.draw_items(workload, seed)
    corpus.write_inputs(items, work)
    ops, probes = corpus.cli_ops(workload, items, rng), []
    if workload == "cli-small":
        corpus.write_hostile(work)
        ops = corpus.hostile_ops() + ops
        probes = corpus.hostile_ops(corpus.DEFECT_PROBES)
    return ops, {it["id"]: it for it in items}, probes


def run_probes(probes, work):
    """Run each known-defect probe once, outside the counted operations, and
    say whether the program now gives the expected result."""
    lines = []
    for op in probes:
        why = harness.check_cli(op, harness.spawn_cli(op, work), {}, {})
        lines.append(f"known-defect probe {op['key']}: "
                     + (f"still wrong ({why})" if why else "now rejected as expected"))
    return lines


def timed_cli(workload, seed, seconds, work, golden):
    """Repeat the pass's cold operations until ``seconds`` have passed and
    every operation has run at least once."""
    ops, by_id, probes = cli_pass(workload, seed, work)
    notes = run_probes(probes, work)
    setup_launch(work)  # warms the file cache and bytecode; not counted
    samples = [[] for _ in ops]
    setup, cal, tally, rss = [], [], Tally(), 0
    start = perf()
    k = 0
    while True:
        elapsed = perf() - start
        if k >= len(ops) and elapsed >= seconds or elapsed >= MAX_RUN_S:
            break
        if setup_due(setup, elapsed, seconds):
            setup.append(setup_probe(work, cal))
            continue
        op = ops[k % len(ops)]
        proc = harness.spawn_cli(op, work)
        tally.add(op["key"], harness.check_cli(op, proc, golden, by_id))
        samples[k % len(ops)].append((perf(), proc.wall))
        rss = max(rss, proc.rss_kb)
        k += 1
        if k % CALIBRATE_EVERY == 0:
            cal.append((perf(), harness.calibrate(work)))
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_probe(work, cal))
    notes.insert(0, f"{k / len(ops):.2f} passes of {len(ops)} cold operations in {elapsed:.2f} s")
    return setup, samples, rss / 1024, tally, notes, cal


def stream_spec(seed):
    seq = corpus.lib_stream(seed)
    return {"warmup": [[it["kind"], it["data"]] for it in corpus.warmup_items()],
            "sequence": [[it["id"], it["kind"], it["data"]] for it, _ in seq]}, seq


def run_stream(spec, seq, work, golden, trace):
    """One pass in a fresh worker process; its output and the checks."""
    proc, out = harness.spawn_child("stream", work, stdin=dict(spec, trace=trace))
    if out is None:
        raise RuntimeError("lib-stream worker failed: " + proc.stderr.decode()[-2000:])
    tally = Tally()
    for (item, _), (ident, _, digest, decision, _) in zip(seq, out["results"]):
        tally.add(ident, harness.check_summary(item, digest, decision, golden))
    return out, tally


def timed_stream(seed, seconds, work, golden):
    """Replay the seed's stream in fresh workers, at least MIN_STREAM_PASSES
    times, and again while at least half of another pass fits in ``seconds``."""
    spec, seq = stream_spec(seed)
    setup_launch(work)  # warms the file cache and bytecode; not counted
    samples = [[] for _ in seq]
    setup, cal, tally, rss, passes = [], [], Tally(), 0, 0
    start = perf()
    last = 0.0
    while True:
        elapsed = perf() - start
        if passes >= MIN_STREAM_PASSES and elapsed + last / 2 > seconds or elapsed >= MAX_RUN_S:
            break
        while setup_due(setup, elapsed, seconds):
            setup.append(setup_probe(work, cal))
            elapsed = perf() - start
        t0 = perf()
        out, one = run_stream(spec, seq, work, golden, trace=False)
        last = perf() - t0
        passes += 1
        tally.attempted += one.attempted
        tally.failures += one.failures
        for s, row in zip(samples, out["results"]):
            s.append((row[4], row[1]))
        cal += [tuple(c) for c in out["calibration"]]
        rss = max(rss, out["rss_kb"])
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_probe(work, cal))
    repeats = sum(1 for _, rep in seq if rep)
    notes = [f"{passes} passes of {len(seq)} items in {elapsed:.2f} s, each in a fresh worker",
             f"{repeats} of {len(seq)} items re-submit an earlier input"]
    return setup, samples, rss / 1024, tally, notes, cal


def scaler(cal):
    """Scale a (time, wall) sample to the reference machine by the median of
    the CALIBRATION_WINDOW calibrations (time, wall) nearest to it in time
    (perf_counter is one clock for every process)."""
    cal = sorted(cal)
    times = [t for t, _ in cal]

    def scale(sample):
        t, wall = sample
        i = bisect.bisect_left(times, t) - CALIBRATION_WINDOW // 2
        lo = max(0, min(i, len(cal) - CALIBRATION_WINDOW))
        return wall * REFERENCE_CALIBRATION_S / statistics.median(
            w for _, w in cal[lo:lo + CALIBRATION_WINDOW])

    return scale


def end_to_end(setup, samples, rss_mb, cal=None):
    """Metrics over the pass: each operation at the mean of its repeats (a
    mean, so that runs with different numbers of repeats agree on average).
    With ``cal``, the run's calibrations, every time is scaled to the
    reference machine: each operation sample by the calibrations around it,
    each set-up launch by the calibration right after it."""
    scale = scaler(cal) if cal else (lambda sample: sample[1])
    per_op = [statistics.fmean(map(scale, s)) for s in samples if s]
    return {
        "setup_s": statistics.median(
            s * (REFERENCE_CALIBRATION_S / c if cal else 1.0) for s, c in setup),
        "latency_p50_s": statistics.median(per_op),
        "latency_p90_s": p90(per_op),
        "ops_per_s": len(per_op) / sum(per_op),
        "peak_rss_mb": rss_mb,
    }


# ---------------------------------------------------------------------------
# traced runs


class Trace:
    """Per-layer sums, spans and per-operation rows of one traced run."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.self_s = {}
        self.counts = {}
        self.spans = []
        self.rows = []

    def add_spans(self, proc_kind, spans):
        for name, t in child.self_times(spans).items():
            self.self_s[name] = self.self_s.get(name, 0.0) + t
        self.spans += [{"proc": proc_kind, "id": s[0], "name": s[1], "parent": s[2],
                        "op": s[3], "start": s[4], "end": s[5]} for s in spans]

    def add_counts(self, counts):
        for name, n in counts.items():
            self.counts[name] = self.counts.get(name, 0) + n

    def write(self, report):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        with open(self.out_dir / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)


def traced_cli(workload, seed, work, golden, trace):
    """Each op once untraced and once in traced ``child.py main`` processes
    (one per stage of a pipe), both checked."""
    ops, by_id, probes = cli_pass(workload, seed, work)
    notes = run_probes(probes, work)
    tally, cold_walls, traced_walls = Tally(), [], []
    for k, op in enumerate(ops):
        cold = harness.spawn_cli(op, work)
        why = harness.check_cli(op, cold, golden, by_id)
        stages = ([op["stdin_argv"]] if op["stdin_argv"] else []) + [op["argv"]]
        traced_wall = main_span = top = 0.0
        stdin = None
        for argv in stages:
            proc, out = harness.spawn_child("main", work, {"op": k, "argv": argv}, stdin=stdin)
            if out is None:
                why = why or "traced cli.main failed: " + proc.stderr.decode()[-300:]
                break
            trace.add_spans("main", out["spans"])
            trace.add_counts(out["counts"])
            main = next(s for s in out["spans"] if s[1] == "cli.main")
            traced_wall += proc.wall
            main_span += main[5] - main[4]
            top += sum(s[5] - s[4] for s in out["spans"] if s[2] == main[0])
            stdin = out["stdout"].encode()
        else:
            traced = harness.Proc(traced_wall, out["exit"], stdin, 0, b"")
            why = why or harness.check_cli(op, traced, golden, by_id)
            trace.add_counts({"cli.report_bytes": len(stdin)})
            startup = cold.wall - main_span
            trace.self_s["cli.startup"] = trace.self_s.get("cli.startup", 0.0) + startup
            trace.rows.append({"op": k, "key": op["key"], "cold_wall_s": cold.wall,
                               "traced_wall_s": traced_wall, "startup_s": startup,
                               "main_s": main_span, "top_spans_s": top,
                               "unaccounted_s": main_span - top})
            cold_walls.append(cold.wall)
            traced_walls.append(traced_wall)
        tally.add(op["key"], why)
    kernel_inputs = {}
    for op in ops:
        item = by_id.get(op["item"])
        if item is not None:
            kernel_inputs[item["id"]] = [item["kind"], item["data"], corpus.ROOT_BOUNDS.get(item["id"])]
    extra = cliff(work) if workload == "cli-heavy" else {}
    return tally, cold_walls, traced_walls, list(kernel_inputs.values()), extra, notes


def cliff(work):
    """``polytope normalfan`` on cube 5, once, under a wall-time budget."""
    item = corpus.FIXED["cube5"]
    corpus.write_inputs([item], work)
    op = {"argv": ["polytope", "normalfan", item["path"]], "stdin_argv": None}
    proc = harness.spawn_cli(op, work, timeout=CLIFF_BUDGET_S)
    over = proc.code != 0 or proc.wall >= CLIFF_BUDGET_S
    return {"polytope.cliff_cube5_s": proc.wall, "polytope.cliff_cube5_over_budget": int(over),
            "polytope.cliff_cube5_budget_s": CLIFF_BUDGET_S}


def traced_stream(seed, work, golden, trace):
    spec, seq = stream_spec(seed)
    plain, tally = run_stream(spec, seq, work, golden, trace=False)
    traced, tally_traced = run_stream(spec, seq, work, golden, trace=True)
    tally.attempted += tally_traced.attempted
    tally.failures += tally_traced.failures
    trace.add_spans("stream", traced["spans"])
    trace.add_counts(traced["counts"])
    tops = {}
    for s in traced["spans"]:
        if s[2] is None:
            tops[s[3]] = tops.get(s[3], 0.0) + s[5] - s[4]
    for k, (ident, t, _, _, _) in enumerate(traced["results"]):
        trace.rows.append({"op": k, "key": ident, "item_s": t, "top_spans_s": tops.get(k, 0.0),
                           "unaccounted_s": t - tops.get(k, 0.0)})
    inputs = {it["id"]: [it["kind"], it["data"], None] for it, _ in seq}
    return (tally, [row[1] for row in plain["results"]], [row[1] for row in traced["results"]],
            list(inputs.values()), {}, [])


def run_trace(workload, seed, work, golden):
    trace = Trace(harness.WORK / "trace" / f"{workload}-seed{seed}")
    run = traced_stream if workload == "lib-stream" else partial(traced_cli, workload)
    tally, untraced, traced, kernel_inputs, extra, notes = run(seed, work, golden, trace)
    proc, out = harness.spawn_child("kernels", work, stdin={"inputs": kernel_inputs})
    if out is None:
        raise RuntimeError("lattice kernel set failed: " + proc.stderr.decode()[-2000:])
    trace.add_spans("kernels", out["spans"])
    trace.add_counts(out["counts"])

    layer = {}
    names = [f"{m}.{f}" for m, fs in child.TRACED.items() for f in fs]
    names = [child.METRIC_NAME.get(n, n) for n in names]
    names += ["lattice." + f for f in ("rank", "smith_normal_form", "hermite_column_form",
                                       "determinant", "lattice_points")]
    names += ["cli.startup", "cli.import", "cli.main"]
    for name in names:
        layer[name + "_s"] = trace.self_s.get(name, 0.0)
    for name in ("fan.faces", "fan.max_cone_pairs", "additive.collections",
                 "additive.ray_subsets", "demazure.roots", "lattice.points",
                 "polytope.facets", "polytope.vertex_subsets", "cli.report_bytes"):
        layer[name] = trace.counts.get(name, 0)
    for name, n in trace.counts.items():
        if name.endswith("_calls"):
            layer[child.METRIC_NAME.get(name[:-6], name[:-6]) + ".calls"] = n
    subsets = layer["additive.ray_subsets"]
    layer["additive.collection_yield"] = layer["additive.collections"] / subsets if subsets else 0.0
    for m in MODULES:
        path = harness.SRC / "toricroots" / f"{m}.py"
        layer[f"src.lines.{m}"] = len(path.read_text(encoding="utf-8").splitlines())
    layer["trace.ops"] = len(untraced)
    layer.update(extra)

    unaccounted = [r["unaccounted_s"] for r in trace.rows if "unaccounted_s" in r]
    report = {
        "workload": workload, "seed": seed, "per_layer": layer,
        "tracing_overhead_s": statistics.median(traced) - statistics.median(untraced),
        "untraced_latency_p50_s": statistics.median(untraced),
        "traced_latency_p50_s": statistics.median(traced),
        "unaccounted_p50_s": statistics.median(unaccounted),
        "per_op": trace.rows,
        "computed_counts": ["fan.max_cone_pairs", "additive.ray_subsets",
                            "polytope.vertex_subsets", "additive.collection_yield"],
    }
    trace.write(report)
    return layer, report, tally, trace.out_dir, notes


# ---------------------------------------------------------------------------


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    ap = argparse.ArgumentParser(description="toricroots benchmark")
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (harness.SRC / "toricroots" / "cli.py").is_file():
        sys.exit(f"error: {harness.SRC / 'toricroots'} not found; run from a checkout of the repository")
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = harness.load_golden(args.workload)
    work = harness.WORK / args.workload
    reset(work)

    if args.trace:
        layer, report, tally, out_dir, notes = run_trace(args.workload, args.seed, work, golden)
        wanted = spec["per_layer"]
        print(f"# traced run of {args.workload}, seed {args.seed}: spans and report in {out_dir}")
        for name in sorted(layer):
            print(f"  {name:42s} {_fmt(layer[name])}")
        print(f"  tracing overhead (traced - untraced latency_p50_s): "
              f"{report['tracing_overhead_s']:.6f} s "
              f"({report['traced_latency_p50_s']:.6f} - {report['untraced_latency_p50_s']:.6f})")
        print(f"  unaccounted time per op, median over {len(report['per_op'])} ops: "
              f"{report['unaccounted_p50_s']:.6f} s")
    else:
        timed = timed_stream if args.workload == "lib-stream" else partial(timed_cli, args.workload)
        setup, samples, rss_mb, tally, notes, cal = timed(args.seed, args.seconds, work, golden)
        layer = end_to_end(setup, samples, rss_mb, cal)
        raw = end_to_end(setup, samples, rss_mb)
        wanted = spec["end_to_end"]
        ops = sum(1 for s in samples if s)
        base = f"over {ops} operations of the pass, {sum(map(len, samples))} samples"
        counts = {"setup_s": f"n={len(setup)} launches", "peak_rss_mb": "max over all processes"}
        print(f"# {args.workload}, seed {args.seed}; scaled to the reference machine "
              f"(raw value in brackets)")
        for m in wanted:
            print(f"  {m['name']:16s} {layer[m['name']]:.6f} {m['unit']:6s} "
                  f"[{raw[m['name']]:.6f}] ({counts.get(m['name'], base)})")
        walls = [w for _, w in cal]
        print(f"  calibration      {statistics.median(walls):.6f} s median (n={len(walls)}, "
              f"ranged {min(walls):.6f}-{max(walls):.6f}); reference {REFERENCE_CALIBRATION_S} s")
        print(f"  {'error_rate':16s} {len(tally.failures) / tally.attempted:.6f} ratio  "
              f"({len(tally.failures)} of {tally.attempted} operations)")
        # a wide band means the machine's speed changed during the run
        print(f"  set-up launches ranged {min(s for s, _ in setup):.6f}-"
              f"{max(s for s, _ in setup):.6f} s")
        if ops < len(samples):
            notes.append(f"WARNING: {len(samples) - ops} operations of the pass did not run "
                         f"within {MAX_RUN_S:.0f} s")
    for note in notes:
        print(f"  {note}")
    for key, why in tally.failures:
        print(f"  FAILED {key}: {why}")
    metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
