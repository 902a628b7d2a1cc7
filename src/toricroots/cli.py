"""Command-line front end.

Every command reads fan/polytope JSON (a file path or ``-`` for stdin), runs
one analysis, and prints a deterministic report. Reports are JSON by default
(sorted keys, two-space indent) or ``--format text`` tables; integers beyond
the 53-bit range are serialized as decimal strings. ``--format`` goes after
the command, and after the action for ``polytope``.

One table, ``_COMMANDS``, declares the commands. Each entry gives the report
name, the help text, the input kind (``"fan"``, ``"polytope"`` or None), the
handler and any extra arguments. A command builds its own parser alone from
its entry; the argparse tree of every command's parser is built only for an
argv that names no command (help, no argument, an unknown word) or leaves
arguments over, so help, usage errors and exit codes are the tree's own. A
handler only computes: it takes the parsed arguments and the loaded input
and returns the JSON result, the text lines and its answer (True or False
for a decision, else None). There is one report path. ``main`` reads and
unwraps the input by kind, runs the handler, maps the answer and
``--strict`` to the status and exit code, and ``_write`` prints the report,
or the error envelope that ``_error`` builds when the command fails; a JSON
report names its input by the SHA-256 of the raw bytes.

``fan-check`` reports an invalid fan as its answer on the input (status
``"invalid"``, the violations in its result); every other command reports
it, like any other error, in the error envelope, whose ``command`` is the
top-level command (``"polytope"`` for the polytope actions).

``collections --equivalence`` reports all collections as one class, by the
uniqueness theorem (any two normalized additive actions are isomorphic), with
a fan automorphism from the first collection to each other one; a missing
witness is an internal error.

Each handler imports the library modules it runs inside its own function,
and ``main`` imports only the module that reads its input kind, so a cold
process compiles no module it does not use (``fan-check`` and ``gen`` of a
fan load only ``fan`` and ``lattice``, and ``cox`` adds only ``cox``), and
``hashlib`` is imported only to write the input digest of a JSON report.
Library functions are read as module attributes at call time.

Exit codes: 0 success, 1 "answer is no" for decision commands under
``--strict``, 2 invalid input (argparse usage errors included), 3 internal
error (a consistency check inside the library failed; never expected,
reported with ``status: "internal"``).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InternalError, InvalidFan, ToricError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .additive import CompleteCollection
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


def _line(payload) -> str:
    """A JSON object on one line, the text report of a command that emits one."""
    return json.dumps(_json_safe(payload), sort_keys=True)


def _decimal(text: str) -> int:
    """The int that `text` writes in ASCII decimal digits, after an optional
    minus sign, the integers the strict JSON reader takes; ValueError for
    any other text that int() would read, such as '1_0', a full-width digit
    or surrounding space. argparse names the type in its message as int."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


_decimal.__name__ = "int"


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


def _cone_dict(c) -> dict:
    return {"rays": list(c.ray_indices), "dim": c.dim}


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# handlers: (args, input) -> (result, text lines, answer)


def _fan_check(args, fan_obj):
    from . import fan as fans

    complete = fans.is_complete(fan_obj)
    return ({"valid": True, "violations": [], "complete": complete},
            ["valid: yes", f"complete: {_yesno(complete)}"], None)


def _roots(args, fan_obj):
    from . import demazure

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
    return result, lines, None


def _collections(args, fan_obj):
    from . import additive

    cols = additive.complete_collections(fan_obj)
    result = {"count": len(cols),
              "collections": [_collection_dict(fan_obj, c) for c in cols]}
    lines = [f"complete collections: {len(cols)}"]
    for c in cols:
        lines.append(f"  rays {list(c.ray_indices)} roots {[list(v) for v in c.root_vectors]}")
    if args.equivalence and cols:
        found = enumerate((additive.find_equivalence(fan_obj, cols[0], c) for c in cols[1:]), 1)
        witnesses = [{"from": 0, "to": i, "matrix": [list(row) for row in w.matrix],
                      "ray_map": [list(pair) for pair in w.ray_map]} for i, w in found]
        result["equivalence"] = {"classes": [list(range(len(cols)))], "witnesses": witnesses}
        lines.append("equivalence classes: 1")
        for w in witnesses:
            lines.append(f"  witness {w['from']} -> {w['to']}: matrix {w['matrix']}")
    return result, lines, bool(cols)


def _additive(args, fan_obj):
    from . import additive, cox

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
    if decision.fan_complete:
        flags = additive.theorem3con_report(fan_obj)
        result["theorem3con"] = {"complete_collection_exists": flags.complete_collection_exists,
                                 "distinguished_span": flags.distinguished_span}
        lines.append(f"theorem flags: collection {_yesno(flags.complete_collection_exists)}, "
                     f"span {_yesno(flags.distinguished_span)}")
    return result, lines, decision.admits


def _cox(args, fan_obj):
    from . import cox

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
    return result, lines, None


def _pairs(args, fan_obj):
    from . import demazure

    try:
        ray_part, vec_part = args.root.split(":", 1)
        ray = _decimal(ray_part)
        coords = tuple(map(_decimal, vec_part.split(",")))
    except ValueError:
        raise ToricError(f"bad root spec {args.root!r}; expected 'rayIndex:c1,c2,...'") from None
    if not 0 <= ray < len(fan_obj.rays):
        raise ToricError(f"no ray with index {ray}")
    if len(coords) != fan_obj.dim:
        raise ToricError(f"root vector has dimension {len(coords)}, expected {fan_obj.dim}")
    try:
        root = demazure.demazure_root(fan_obj, coords, ray)
    except ValueError as exc:
        raise ToricError(str(exc)) from None
    pairs = demazure.he_connected_pairs(fan_obj, root)
    result = {
        "root": _root_dict(root),
        "pairs": [{"facet": _cone_dict(a), "cone": _cone_dict(b)} for a, b in pairs],
    }
    lines = [f"root {list(root.vector)} (ray {root.ray}): {len(pairs)} pair(s)"]
    for a, b in pairs:
        lines.append(f"  facet {list(a.ray_indices)} (dim {a.dim}) "
                     f"< cone {list(b.ray_indices)} (dim {b.dim})")
    return result, lines, None


def _polytope_check(args, poly):
    from . import polytope as polytopes

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
    return result, lines, report.inscribed


def _polytope_normalfan(args, poly):
    from . import fan as fans, polytope as polytopes

    payload = fans.fan_to_json_dict(polytopes.normal_fan(poly))
    return {"fan": payload}, [_line(payload)], None


def _polytope_scale(args, poly):
    from . import polytope as polytopes

    payload = polytopes.polytope_to_json_dict(polytopes.scale(poly, args.k))
    return {"polytope": payload}, [_line(payload)], None


def _gen(args, _):
    from . import fan as fans

    if args.name in fans._BUILTIN_FANS:
        payload = fans.fan_to_json_dict(fans.builtin_fan(args.name, *args.params))
        kind = "fan"
    else:
        from . import polytope as polytopes

        if args.name not in polytopes._BUILTIN_POLYTOPES:
            known = sorted(fans._BUILTIN_FANS) + sorted(polytopes._BUILTIN_POLYTOPES)
            raise ToricError(f"unknown generator {args.name!r}; known: {', '.join(known)}")
        payload = polytopes.polytope_to_json_dict(
            polytopes.builtin_polytope(args.name, *args.params))
        kind = "polytope"
    lines = [_line(payload)] + ([f"written: {args.out}"] if args.out else [])
    return {"kind": kind, "object": payload, "written": args.out}, lines, None


# ---------------------------------------------------------------------------
# the command table and the one report path


# (report name, help, input kind, handler, extra arguments by name with their
# add_argument keywords); a two-word name is an action under the first word's
# command group.
_COMMANDS = (
    ("fan-check", "validate a fan and decide completeness", "fan", _fan_check, {}),
    ("roots", "Demazure roots per ray", "fan", _roots, {
        "--bound": dict(type=_decimal, default=None,
                        help="truncate infinite root sets at this sup-norm")}),
    ("collections", "complete collections of Demazure roots", "fan", _collections, {
        "--equivalence": dict(action="store_true",
                              help="also give a fan automorphism from the first collection "
                                   "to each other one (all form one class)"),
        "--strict": dict(action="store_true", help="exit 1 when no collection exists")}),
    ("additive", "decide existence of an additive action", "fan", _additive, {
        "--strict": dict(action="store_true", help="exit 1 on a negative answer")}),
    ("cox", "Cox presentation (degrees, torsion)", "fan", _cox, {}),
    ("pairs", "orbit-connecting cone pairs of one root", "fan", _pairs, {
        "--root": dict(required=True, metavar="RAY:C1,C2,...",
                       help="root as distinguished ray index and vector")}),
    ("polytope check", "inscribed-in-a-rectangle test plus the fan-side answer",
     "polytope", _polytope_check, {
         "--strict": dict(action="store_true", help="exit 1 when not inscribed")}),
    ("polytope normalfan", "emit the normal fan as fan JSON", "polytope",
     _polytope_normalfan, {}),
    ("polytope scale", "dilate the polytope by k", "polytope", _polytope_scale, {
        "k": dict(type=_decimal)}),
    ("gen", "write a builtin fan or polytope", None, _gen, {
        "name": {}, "params": dict(nargs="*", type=_decimal),
        "--out": dict(default=None, help="write the object JSON to this file")}),
)


def _misplaced_format(value: str):
    raise argparse.ArgumentTypeError(
        f"goes after the action, as in 'toricroots polytope check FILE --format {value}'")


def _add_arguments(p: argparse.ArgumentParser, name, _, kind, handler, extra) -> None:
    """Declare one command's ``--format``, input file and extra arguments on
    its parser, and the defaults that name the command: ``entry``, and the
    tree's ``command`` and, for a polytope action, ``action``."""
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="report format (default: json)")
    if kind:
        p.add_argument("file")
    for arg, kwargs in extra.items():
        p.add_argument(arg, **kwargs)
    p.set_defaults(entry=(name, kind, handler), **dict(zip(("command", "action"), name.split())))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricroots",
        description="Exact additive-action analysis of toric varieties "
                    "given as fans or lattice polytopes.")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for row in _COMMANDS:
        group, _, command = row[0].rpartition(" ")
        if group not in groups:  # "polytope", the one group
            actions = groups[""].add_parser(group, help="lattice polytope analyses")
            # --format before the action is a usage error that says where it goes
            actions.add_argument("--format", type=_misplaced_format,
                                 default=argparse.SUPPRESS, help=argparse.SUPPRESS)
            groups[group] = actions.add_subparsers(dest="action", required=True)
        _add_arguments(groups[group].add_parser(command, help=row[1]), *row)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, from the parser of the command
    that the first words of argv name, built alone. The tree parses an argv
    that names no command or leaves arguments over, so help, usage errors
    and exit codes stay argparse's own."""
    for row in _COMMANDS:
        if argv[:len(words := row[0].split())] == words:
            _add_arguments(p := argparse.ArgumentParser(prog="toricroots " + row[0]), *row)
            args, rest = p.parse_known_args(argv[len(words):])
            return _build_parser().parse_args(argv) if rest else args
    return _build_parser().parse_args(argv)


def _load(kind: str, raw: bytes):
    """The fan or polytope in the raw input, bare or in a report envelope."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ToricError(f"not valid JSON: {exc}") from None
    except ValueError:  # the decoder's limit on the digits of one integer
        raise ToricError("input has an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if kind == "fan":
        from . import fan as fans

        return fans.fan_from_json_dict(_unwrap(data, kind))
    from . import polytope as polytopes

    return polytopes.polytope_from_json_dict(_unwrap(data, kind))


def _write(args, envelope: dict, lines, raw: bytes | None = None) -> int:
    """Print one report and return its exit code. A JSON envelope names the
    input by the SHA-256 of its raw bytes (none for ``gen`` or an error)."""
    if args.format == "json":
        if raw is not None:
            import hashlib

            envelope["input"] = {"path": args.file,
                                 "sha256": hashlib.sha256(raw).hexdigest()}
        sys.stdout.write(_dumps(envelope))
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    return envelope["exit_code"]


def _error(args, exc) -> int:
    """Print the error envelope. Its command is the top-level command
    (``"polytope"`` for the polytope actions)."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    lines = [f"error: {exc}"]
    if isinstance(exc, InvalidFan):
        error["violations"] = exc.violations
        lines += [f"violation: {v}" for v in exc.violations]
    status, code = ("internal", 3) if isinstance(exc, InternalError) else ("invalid", 2)
    return _write(args, {"command": args.command, "input": None, "result": None,
                         "error": error, "status": status, "exit_code": code}, lines)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    name, kind, handler = args.entry
    raw = None
    try:
        if kind:
            if args.file == "-":
                raw = sys.stdin.buffer.read()
            else:
                with open(args.file, "rb") as fh:
                    raw = fh.read()
        result, lines, answer = handler(args, _load(kind, raw) if kind else None)
        if getattr(args, "out", None):  # gen --out FILE gets the object alone
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_dumps(result["object"]))
        status, code = "ok", 0
        if answer is False and getattr(args, "strict", False):
            status, code = "no", 1
    except (ToricError, OSError, ValueError) as exc:
        if not (isinstance(exc, InvalidFan) and name == "fan-check"):
            return _error(args, exc)
        # fan-check reports an invalid fan as its answer on the input
        result = {"valid": False, "violations": exc.violations, "complete": None}
        lines = ["valid: no"] + [f"violation: {v}" for v in exc.violations]
        status, code = "invalid", 2
    return _write(args, {"command": name, "input": None, "result": result,
                         "status": status, "exit_code": code}, lines, raw)


def run() -> None:
    raise SystemExit(main())
