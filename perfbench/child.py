"""Child processes of the toricroots benchmark.

Each mode runs in a fresh interpreter started by ``run.py`` with the
checkout's ``src`` on ``PYTHONPATH``, and prints one JSON object as its last
line of standard output:

``main``     imports ``toricroots.cli`` (one span), installs the span
             recorder on the package's public functions, and calls
             ``cli.main(argv)`` (one span, the library calls nested in it),
             with the report captured instead of printed.
``kernels``  times the public ``lattice`` kernels on data harvested from the
             given inputs.
``stream``   the lib-stream worker: the whole public-API pipeline on each item
             of one pass of the stream, timed per item, optionally traced.

Spans are kept in memory and printed when the child ends.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from math import comb

perf = time.perf_counter

# lib-stream: one calibration process after this many items.
CALIBRATE_EVERY = 8

# Public functions wrapped in spans, per module. ``lattice`` is not wrapped:
# its kernels are timed on their own in ``kernels`` mode, so the self time of
# a caller such as fan.validate_fan includes the rank calls it makes.
TRACED = {
    "fan": ["fan_from_json_dict", "build_fan", "validate_fan", "is_complete",
            "is_fan_automorphism", "fan_to_json_dict", "builtin_fan"],
    "demazure": ["all_roots", "he_connected_pairs", "is_demazure_root", "demazure_root",
                 "derivation", "format_derivation"],
    "additive": ["admits_additive", "complete_collections", "theorem3con_report",
                 "find_equivalence", "condition4_distinguished_span", "verify_witness"],
    "cox": ["cox_presentation", "canonical_degrees", "action_formulas", "format_formula"],
    "polytope": ["polytope_from_json_dict", "facets", "inscribed_in_rectangle", "normal_fan",
                 "check_polytope_theorem", "scale", "edge_directions_at",
                 "polytope_to_json_dict", "builtin_polytope"],
}

# Span names whose metric name differs from "<module>.<function>".
METRIC_NAME = {"polytope.polytope_from_json_dict": "polytope.construct"}


class Recorder:
    """Spans as [id, name, parent, op, start, end], plus exact counts."""

    def __init__(self, op=None):
        self.op = op
        self.spans = []
        self.stack = []
        self.counts = {}
        self.enabled = True

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def begin(self, name):
        span = [len(self.spans), name, self.stack[-1][0] if self.stack else None,
                self.op, perf(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span[5] = perf()
        self.stack.pop()

    def wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            self.count(name + "_calls", 1)
            if hook:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every reference to a traced function in the package's
        modules, so calls between modules are traced too."""
        import toricroots
        from toricroots import additive, cli, cox, demazure, fan, polytope

        modules = {"fan": fan, "demazure": demazure, "additive": additive,
                   "cox": cox, "polytope": polytope}
        wrapped = {}
        for mod_name, funcs in TRACED.items():
            for f in funcs:
                original = getattr(modules[mod_name], f)
                wrapped[id(original)] = self.wrap(f"{mod_name}.{f}", original)
        for mod in (toricroots, fan, demazure, additive, cox, polytope, cli):
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])


def _fan_hook(rec, args, fan):
    rec.count("fan.faces", len(fan.all_faces))
    rec.count("fan.max_cone_pairs", comb(len(fan.max_cones), 2))


def _collections_hook(rec, args, cols):
    fan = args[0]
    rec.count("additive.collections", len(cols))
    rec.count("additive.ray_subsets", comb(len(fan.rays), fan.dim))


def _roots_hook(rec, args, rs):
    rec.count("demazure.roots", sum(len(rr.roots) for rr in rs.per_ray))


def _facets_hook(rec, args, fs):
    p = args[0]
    rec.count("polytope.facets", len(fs))
    rec.count("polytope.vertex_subsets", comb(len(p.vertices), p.dim))


def _construct_hook(rec, args, p):
    # construction scans every dim-subset of the vertices once
    rec.count("polytope.vertex_subsets", comb(len(p.vertices), p.dim))


COUNT_HOOKS = {
    "fan.build_fan": _fan_hook,
    "additive.complete_collections": _collections_hook,
    "demazure.all_roots": _roots_hook,
    "polytope.facets": _facets_hook,
    "polytope.polytope_from_json_dict": _construct_hook,
    "polytope.scale": _construct_hook,
}


def self_times(spans):
    """Summed self time per span name: duration minus the time covered by
    child spans (children of one span never overlap: one thread)."""
    child_time = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + (s[5] - s[4])
    out = {}
    for s in spans:
        name = METRIC_NAME.get(s[1], s[1])
        out[name] = out.get(name, 0.0) + (s[5] - s[4]) - child_time.get(s[0], 0.0)
    return out


# ---------------------------------------------------------------------------
# lib-stream pipeline


def fan_pipeline(tr, data):
    f = tr.fan_from_json_dict(data)
    complete = tr.is_complete(f)
    rs = tr.all_roots(f)
    decision = tr.admits_additive(f)
    cols = tr.complete_collections(f)
    witnesses = [tr.find_equivalence(f, cols[0], c) for c in cols[1:]]
    pres = tr.cox_presentation(f)
    canon = tr.canonical_degrees(pres)
    rules = tr.action_formulas(f, decision.witness) if decision.witness else ()
    return (f, complete, rs, decision, cols, witnesses, pres, canon, rules)


def _jsonable(obj):
    return json.loads(json.dumps(obj))


def summary_digest(summary):
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


# Fields of a pipeline summary that the construction's known answer checks.
DECISION_FIELDS = {"fan": ("admits",), "polytope": ("inscribed", "fan_admits")}


def fan_summary(tr, out):
    f, complete, rs, decision, cols, witnesses, pres, canon, rules = out
    return _jsonable({
        "complete": complete,
        "roots": [[rr.status, [r.vector for r in rr.roots]] for rr in rs.per_ray],
        "admits": decision.admits, "reading": decision.reading,
        "collections": [c.ray_indices for c in cols],
        "witnesses": [w.matrix for w in witnesses],
        "torsion": pres.torsion, "degrees_canonical": canon,
        "formulas": [tr.format_formula(r) for r in rules],
    })


def polytope_pipeline(tr, data):
    p = tr.polytope_from_json_dict(data)
    witness = tr.inscribed_in_rectangle(p)
    nf = tr.normal_fan(p)
    report = tr.check_polytope_theorem(p)
    return (p, witness, nf, report)


def polytope_summary(tr, out):
    p, witness, nf, report = out
    return _jsonable({
        "vertices": p.vertices,
        "witness": [witness.vertex, witness.edge_basis] if witness else None,
        "normal_fan": tr.fan_to_json_dict(nf),
        "inscribed": report.inscribed, "fan_admits": report.fan_admits,
    })


def stream(spec, trace):
    """Run one pass of the lib-stream sequence after the warm-up items. Each
    item keeps only its time, the digest of its summary and its decision
    fields; building and hashing the summary is left out of the measured
    wall. After every CALIBRATE_EVERY items a calibration process is timed,
    outside the items' times; items and calibrations carry their end time.
    The max-RSS is read at the end of the pass, whose contents the seed
    fixes."""
    import harness
    import toricroots as tr

    rec = Recorder()
    pipelines = {"fan": (fan_pipeline, fan_summary),
                 "polytope": (polytope_pipeline, polytope_summary)}
    for kind, data in spec["warmup"]:
        pipelines[kind][0](tr, data)
    if trace:
        rec.install()
    results, calibration = [], []
    for k, (ident, kind, data) in enumerate(spec["sequence"]):
        rec.op = k
        run, summarize = pipelines[kind]
        t0 = perf()
        out = run(tr, data)
        t1 = perf()
        rec.enabled = False  # the summary for the golden check is not traced
        summary = summarize(tr, out)
        results.append([ident, t1 - t0, summary_digest(summary),
                        {f: summary[f] for f in DECISION_FIELDS[kind]}, t1])
        del out, summary
        if (k + 1) % CALIBRATE_EVERY == 0:
            calibration.append([perf(), harness.calibrate(".")])
        rec.enabled = True
    return {"results": results, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "calibration": calibration, "spans": rec.spans, "counts": rec.counts}


# ---------------------------------------------------------------------------
# lattice kernel set


def kernels(spec):
    """Time the public lattice kernels on data harvested from each input:
    rank on the stacked dual descriptions of every pair of maximal cones,
    smith_normal_form on the ray matrix, hermite_column_form on the Cox
    degrees, determinant on every collection basis, and lattice_points on
    every ray's condition-1 system (inside the --bound box if the op has
    one)."""
    import toricroots as tr
    from toricroots import lattice

    rec = Recorder()
    timed = {name: rec.wrap("lattice." + name, getattr(lattice, name))
             for name in ("rank", "smith_normal_form", "hermite_column_form",
                          "determinant", "lattice_points")}
    for k, (kind, data, bound) in enumerate(spec["inputs"]):
        rec.op = k
        if kind == "polytope":
            f = tr.normal_fan(tr.polytope_from_json_dict(data))
        else:
            f = tr.fan_from_json_dict(data)
        n = f.dim
        for i, a in enumerate(f.max_cones):
            for b in f.max_cones[i + 1:]:
                timed["rank"](a.inequalities + b.inequalities + a.equations + b.equations, n)
        timed["smith_normal_form"](f.rays)
        try:
            degrees = tr.cox_presentation(f).degrees
        except tr.RaysDoNotSpan:
            degrees = None
        if degrees is not None:
            timed["hermite_column_form"](degrees)
        for c in tr.complete_collections(f):
            timed["determinant"](c.basis_matrix(f))
        for ray in range(len(f.rays)):
            system = [tr.Constraint(f.rays[ray], "=", -1)]
            system += [tr.Constraint(p, ">=", 0) for i, p in enumerate(f.rays) if i != ray]
            if bound is not None:
                for axis in range(n):
                    u = tuple(int(axis == j) for j in range(n))
                    system.append(tr.Constraint(u, ">=", -bound))
                    system.append(tr.Constraint(tuple(-x for x in u), ">=", -bound))
            points = timed["lattice_points"](system, n)
            if points is not tr.UNBOUNDED:
                rec.count("lattice.points", len(points))
    return {"spans": rec.spans, "counts": rec.counts}


# ---------------------------------------------------------------------------


def main():
    mode = sys.argv[1]
    if mode == "main":
        spec = json.loads(sys.argv[2])
        rec = Recorder(spec["op"])
        span = rec.begin("cli.import")
        from toricroots import cli
        rec.end(span)
        rec.install()
        buf, real = io.StringIO(), sys.stdout
        sys.stdout = buf
        span = rec.begin("cli.main")
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code
        finally:
            rec.end(span)
            sys.stdout = real
        out = {"exit": code, "stdout": buf.getvalue(), "spans": rec.spans, "counts": rec.counts}
    elif mode == "kernels":
        out = kernels(json.load(sys.stdin))
    elif mode == "stream":
        spec = json.load(sys.stdin)
        out = stream(spec, spec["trace"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
