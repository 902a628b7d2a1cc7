"""Command-line front end.

Every command reads fan/polytope JSON (a file path or ``-`` for stdin), runs
one analysis, and prints a deterministic report. Reports are JSON by default
(sorted keys, two-space indent) or ``--format text`` tables; integers beyond
the 53-bit range are serialized as decimal strings.

``collections --equivalence`` reports all collections as one class, by the
uniqueness theorem (any two normalized additive actions are isomorphic), with
a fan automorphism from the first collection to each other one; a missing
witness is an internal error.

Each command imports the library modules it runs inside its own function,
so a cold process compiles no module it does not use (``fan-check`` and
``gen`` of a fan load only ``fan`` and ``lattice``), and ``hashlib`` is
imported only to write the input digest of a JSON report. Library functions
are read as module attributes at call time.

Exit codes: 0 success, 1 "answer is no" for decision commands under
``--strict``, 2 invalid input, 3 internal error (a consistency check inside
the library failed; never expected, reported with ``status: "internal"``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import InternalError, InvalidFan, ToricError

if TYPE_CHECKING:
    from .additive import CompleteCollection, EquivalenceWitness
    from .demazure import DemazureRoot, RayRoots

_INT_LIMIT = 2 ** 53


def _json_safe(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _INT_LIMIT else obj
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dumps(payload) -> str:
    return json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n"


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load_json(path: str):
    """The parsed JSON and the raw bytes, which a JSON report hashes."""
    raw = _read_bytes(path)
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ToricError(f"not valid JSON: {exc}") from None
    return data, raw


def _unwrap(data, kind: str):
    """Accept bare objects or report envelopes (for piping between commands).

    Envelopes are searched depth first, under "result", "fan", "polytope"
    and "object" in that order, on an explicit stack, so no nesting depth
    exhausts the interpreter's stack.
    """
    stack = [data]
    while stack:
        data = stack.pop()
        if not isinstance(data, dict):
            continue
        if kind == "fan" and {"dim", "rays", "max_cones"} <= set(data):
            return data
        if kind == "polytope" and {"dim", "vertices"} <= set(data):
            return data
        stack += [data[key] for key in reversed(("result", "fan", "polytope", "object"))
                  if key in data]
    raise ToricError(f"no {kind} object found in input JSON")


def _load_fan(path: str):
    from . import fan as fans

    data, raw = _load_json(path)
    return fans.fan_from_json_dict(_unwrap(data, "fan")), raw


def _load_polytope(path: str):
    from . import polytope as polytopes

    data, raw = _load_json(path)
    return polytopes.polytope_from_json_dict(_unwrap(data, "polytope")), raw


# ---------------------------------------------------------------------------
# serialization helpers


def _root_dict(r: DemazureRoot) -> dict:
    return {"vector": list(r.vector), "ray": r.ray}


def _ray_roots_dict(rr: RayRoots) -> dict:
    out = {"ray": rr.ray, "status": rr.status,
           "roots": [_root_dict(r) for r in rr.roots]}
    if rr.bound is not None:
        out["bound"] = rr.bound
    return out


def _collection_dict(fan_obj, c: CompleteCollection) -> dict:
    from . import demazure

    return {
        "rays": list(c.ray_indices),
        "roots": [list(v) for v in c.root_vectors],
        "derivations": [demazure.format_derivation(demazure.derivation(fan_obj, r))
                        for r in c.roots],
    }


def _witness_dict(w: EquivalenceWitness) -> dict:
    return {"matrix": [list(row) for row in w.matrix],
            "ray_map": [list(pair) for pair in w.ray_map]}


def _cone_dict(c) -> dict:
    return {"rays": list(c.ray_indices), "dim": c.dim}


# ---------------------------------------------------------------------------
# report plumbing


def _report(args, command: str, result, status: str, exit_code: int,
            raw: bytes | None, text_lines) -> int:
    """Print the report; a JSON envelope names the input by the SHA-256 of
    its raw bytes (none for a command without input)."""
    if args.format == "json":
        source = None
        if raw is not None:
            import hashlib

            source = {"path": getattr(args, "file", None),
                      "sha256": hashlib.sha256(raw).hexdigest()}
        envelope = {"command": command, "input": source, "result": result,
                    "status": status, "exit_code": exit_code}
        sys.stdout.write(_dumps(envelope))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")
    return exit_code


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# commands


def _cmd_fan_check(args) -> int:
    from . import fan as fans

    data, raw = _load_json(args.file)
    payload = _unwrap(data, "fan")
    try:
        fan_obj = fans.fan_from_json_dict(payload)
    except InvalidFan as exc:
        result = {"valid": False, "violations": exc.violations, "complete": None}
        lines = ["valid: no"] + [f"violation: {v}" for v in exc.violations]
        return _report(args, "fan-check", result, "invalid", 2, raw, lines)
    complete = fans.is_complete(fan_obj)
    result = {"valid": True, "violations": [], "complete": complete}
    lines = ["valid: yes", f"complete: {_yesno(complete)}"]
    return _report(args, "fan-check", result, "ok", 0, raw, lines)


def _cmd_roots(args) -> int:
    from . import demazure

    fan_obj, raw = _load_fan(args.file)
    rs = demazure.all_roots(fan_obj, args.bound)
    per_ray = [_ray_roots_dict(rr) for rr in rs.per_ray]
    result = {"per_ray": per_ray, "finite": rs.finite,
              "total_listed": sum(len(rr.roots) for rr in rs.per_ray)}
    lines = []
    for rr in rs.per_ray:
        ray = fan_obj.rays[rr.ray]
        vecs = ", ".join(str(list(r.vector)) for r in rr.roots)
        suffix = f" (bound {rr.bound})" if rr.bound is not None else ""
        lines.append(f"ray {rr.ray} {list(ray)}: {rr.status}{suffix} [{vecs}]")
    lines.append(f"total listed roots: {result['total_listed']}")
    return _report(args, "roots", result, "ok", 0, raw, lines)


def _cmd_collections(args) -> int:
    from . import additive

    fan_obj, raw = _load_fan(args.file)
    cols = additive.complete_collections(fan_obj)
    result = {"count": len(cols),
              "collections": [_collection_dict(fan_obj, c) for c in cols]}
    lines = [f"complete collections: {len(cols)}"]
    for c in cols:
        lines.append(f"  rays {list(c.ray_indices)} roots {[list(v) for v in c.root_vectors]}")
    if args.equivalence and cols:
        found = [additive.find_equivalence(fan_obj, cols[0], c) for c in cols[1:]]
        witnesses = [{"from": 0, "to": i, **_witness_dict(w)} for i, w in enumerate(found, 1)]
        result["equivalence"] = {"classes": [list(range(len(cols)))], "witnesses": witnesses}
        lines.append("equivalence classes: 1")
        for w in witnesses:
            lines.append(f"  witness {w['from']} -> {w['to']}: matrix {w['matrix']}")
    status, code = "ok", 0
    if args.strict and not cols:
        status, code = "no", 1
    return _report(args, "collections", result, status, code, raw, lines)


def _cmd_additive(args) -> int:
    from . import additive, cox

    fan_obj, raw = _load_fan(args.file)
    decision = additive.admits_additive(fan_obj)
    result = {
        "admits": decision.admits,
        "reading": decision.reading,
        "witness": _collection_dict(fan_obj, decision.witness) if decision.witness else None,
        "formulas": [],
        "theorem3con": None,
    }
    lines = [f"admits additive action: {_yesno(decision.admits)} ({decision.reading})"]
    if decision.witness:
        rules = cox.action_formulas(fan_obj, decision.witness)
        result["formulas"] = [cox.format_formula(r) for r in rules]
        lines.extend(f"  {s}" for s in result["formulas"])
    if decision.fan_complete:  # the two flags of additive.theorem3con_report
        span = additive.condition4_distinguished_span(fan_obj)
        result["theorem3con"] = {
            "complete_collection_exists": decision.admits,
            "distinguished_span": span,
        }
        lines.append(
            f"theorem flags: collection {_yesno(decision.admits)}, span {_yesno(span)}")
    status, code = "ok", 0
    if args.strict and not decision.admits:
        status, code = "no", 1
    return _report(args, "additive", result, status, code, raw, lines)


def _cmd_cox(args) -> int:
    from . import cox

    fan_obj, raw = _load_fan(args.file)
    pres = cox.cox_presentation(fan_obj)
    canon = cox.canonical_degrees(pres)
    result = {
        "num_vars": pres.num_vars,
        "class_rank": pres.class_rank,
        "torsion": list(pres.torsion),
        "degrees": [list(v) for v in pres.degrees],
        "degrees_canonical": [list(v) for v in canon],
    }
    lines = [f"variables: {pres.num_vars}", f"class rank: {pres.class_rank}",
             f"torsion: {list(pres.torsion)}"]
    for i, v in enumerate(canon):
        lines.append(f"deg x{i + 1} = {list(v)}")
    return _report(args, "cox", result, "ok", 0, raw, lines)


def _parse_root(fan_obj, spec: str) -> DemazureRoot:
    from . import demazure

    try:
        ray_part, vec_part = spec.split(":", 1)
        ray = int(ray_part)
        coords = tuple(int(x) for x in vec_part.split(","))
    except ValueError:
        raise ToricError(f"bad root spec {spec!r}; expected 'rayIndex:c1,c2,...'") from None
    if not 0 <= ray < len(fan_obj.rays):
        raise ToricError(f"no ray with index {ray}")
    if len(coords) != fan_obj.dim:
        raise ToricError(f"root vector has dimension {len(coords)}, expected {fan_obj.dim}")
    try:
        return demazure.demazure_root(fan_obj, coords, ray)
    except ValueError as exc:
        raise ToricError(str(exc)) from None


def _cmd_pairs(args) -> int:
    from . import demazure

    fan_obj, raw = _load_fan(args.file)
    root = _parse_root(fan_obj, args.root)
    pairs = demazure.he_connected_pairs(fan_obj, root)
    result = {
        "root": _root_dict(root),
        "pairs": [{"facet": _cone_dict(a), "cone": _cone_dict(b)} for a, b in pairs],
    }
    lines = [f"root {list(root.vector)} (ray {root.ray}): {len(pairs)} pair(s)"]
    for a, b in pairs:
        lines.append(f"  facet {list(a.ray_indices)} (dim {a.dim}) "
                     f"< cone {list(b.ray_indices)} (dim {b.dim})")
    return _report(args, "pairs", result, "ok", 0, raw, lines)


def _cmd_polytope(args) -> int:
    from . import fan as fans, polytope as polytopes

    poly, raw = _load_polytope(args.file)
    if args.action == "check":
        report = polytopes.check_polytope_theorem(poly)
        witness = report.witness
        result = {
            "inscribed": report.inscribed,
            "fan_admits": report.fan_admits,
            "agree": report.inscribed == report.fan_admits,
            "witness": ({"vertex": list(witness.vertex),
                         "edge_basis": [list(e) for e in witness.edge_basis]}
                        if witness else None),
        }
        lines = [f"inscribed in a rectangle: {_yesno(report.inscribed)}",
                 f"normal fan admits additive action: {_yesno(report.fan_admits)}"]
        if witness:
            lines.append(f"witness vertex {list(witness.vertex)} "
                         f"edge basis {[list(e) for e in witness.edge_basis]}")
        status, code = "ok", 0
        if args.strict and not report.inscribed:
            status, code = "no", 1
        return _report(args, "polytope check", result, status, code, raw, lines)
    if args.action == "normalfan":
        fan_obj = polytopes.normal_fan(poly)
        payload = fans.fan_to_json_dict(fan_obj)
        result = {"fan": payload}
        lines = [json.dumps(_json_safe(payload), sort_keys=True)]
        return _report(args, "polytope normalfan", result, "ok", 0, raw, lines)
    scaled = polytopes.scale(poly, args.k)
    payload = polytopes.polytope_to_json_dict(scaled)
    result = {"polytope": payload}
    lines = [json.dumps(_json_safe(payload), sort_keys=True)]
    return _report(args, "polytope scale", result, "ok", 0, raw, lines)


def _cmd_gen(args) -> int:
    from . import fan as fans

    params = tuple(int(x) for x in args.params)
    if args.name in fans._BUILTIN_FANS:
        obj = fans.builtin_fan(args.name, *params)
        payload = fans.fan_to_json_dict(obj)
        kind = "fan"
    else:
        from . import polytope as polytopes

        if args.name not in polytopes._BUILTIN_POLYTOPES:
            known = sorted(fans._BUILTIN_FANS) + sorted(polytopes._BUILTIN_POLYTOPES)
            raise ToricError(f"unknown generator {args.name!r}; known: {', '.join(known)}")
        obj = polytopes.builtin_polytope(args.name, *params)
        payload = polytopes.polytope_to_json_dict(obj)
        kind = "polytope"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dumps(payload))
    result = {"kind": kind, "object": payload, "written": args.out}
    lines = [json.dumps(_json_safe(payload), sort_keys=True)]
    if args.out:
        lines.append(f"written: {args.out}")
    return _report(args, "gen", result, "ok", 0, None, lines)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricroots",
        description="Exact additive-action analysis of toric varieties "
                    "given as fans or lattice polytopes.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default: json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fan-check", parents=[common],
                       help="validate a fan and decide completeness")
    p.add_argument("file")
    p.set_defaults(func=_cmd_fan_check)

    p = sub.add_parser("roots", parents=[common], help="Demazure roots per ray")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=None,
                   help="truncate infinite root sets at this sup-norm")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("collections", parents=[common],
                       help="complete collections of Demazure roots")
    p.add_argument("file")
    p.add_argument("--equivalence", action="store_true",
                   help="also give a fan automorphism from the first collection "
                        "to each other one (all form one class)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when no collection exists")
    p.set_defaults(func=_cmd_collections)

    p = sub.add_parser("additive", parents=[common],
                       help="decide existence of an additive action")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true", help="exit 1 on a negative answer")
    p.set_defaults(func=_cmd_additive)

    p = sub.add_parser("cox", parents=[common], help="Cox presentation (degrees, torsion)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_cox)

    p = sub.add_parser("pairs", parents=[common],
                       help="orbit-connecting cone pairs of one root")
    p.add_argument("file")
    p.add_argument("--root", required=True, metavar="RAY:C1,C2,...",
                   help="root as distinguished ray index and vector")
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("polytope", parents=[common], help="lattice polytope analyses")
    psub = p.add_subparsers(dest="action", required=True)
    pc = psub.add_parser("check", parents=[common],
                         help="inscribed-in-a-rectangle test plus the fan-side answer")
    pc.add_argument("file")
    pc.add_argument("--strict", action="store_true", help="exit 1 when not inscribed")
    pc.set_defaults(func=_cmd_polytope, action="check")
    pn = psub.add_parser("normalfan", parents=[common], help="emit the normal fan as fan JSON")
    pn.add_argument("file")
    pn.set_defaults(func=_cmd_polytope, action="normalfan")
    ps = psub.add_parser("scale", parents=[common], help="dilate the polytope by k")
    ps.add_argument("file")
    ps.add_argument("k", type=int)
    ps.set_defaults(func=_cmd_polytope, action="scale")

    p = sub.add_parser("gen", parents=[common], help="write a builtin fan or polytope")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--out", default=None, help="write the object JSON to this file")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    status, code = "invalid", 2
    try:
        return args.func(args)
    except InvalidFan as exc:
        error = {"type": type(exc).__name__, "message": str(exc),
                 "violations": exc.violations}
    except InternalError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        status, code = "internal", 3
    except (ToricError, OSError, ValueError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    envelope = {"command": args.command, "input": None, "result": None,
                "error": error, "status": status, "exit_code": code}
    if args.format == "json":
        sys.stdout.write(_dumps(envelope))
    else:
        sys.stdout.write(f"error: {error['message']}\n")
        for v in error.get("violations", []):
            sys.stdout.write(f"violation: {v}\n")
    return code


def run() -> None:
    raise SystemExit(main())
