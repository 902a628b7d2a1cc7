"""Seeded input corpus and operation lists for the toricroots benchmark.

Every input is a member of a fixed pool: named fixtures (``pn 3``, ``cube 4``,
...) plus, per random family, a numbered pool whose members are generated from
the family name and index alone. A run's ``--seed`` chooses which pool members
enter the run and in which order the operations run, so the same seed gives
the same inputs, and every input that can ever appear has a golden report
captured by ``capture.py``.

This module does not import the library under test: the inputs, the known
answers and the root specs for ``pairs`` are built with the small exact
helpers below.

Run ``python3 perfbench/corpus.py --workload cli-heavy --seed 7 --out DIR`` to
write one run's input files and print its operation list.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from itertools import combinations
from math import atan2, gcd, pi
from pathlib import Path

WORKLOADS = ("cli-small", "cli-heavy", "lib-stream")

# Members per seeded family that the CLI workloads draw from; lib-stream
# draws from a larger pool (PLAN). Goldens exist for every member, so a run
# may draw any of them.
POOL = 16

# Share of lib-stream items that re-submit an earlier item of the same run.
REPEAT_SHARE = 0.25


# ---------------------------------------------------------------------------
# exact helpers, independent of the library


def _solve_inverse(m):
    """Inverse of a square integer matrix as Fractions, or None if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _det(m):
    """Laplace expansion; the matrices here are at most 5 x 5."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def _mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _gl_matrix(rng: random.Random, n: int, steps: int):
    """A random unimodular matrix: a product of elementary moves with small
    coefficients, so coordinates stay small."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def additive_witness(fan: dict):
    """(basis ray indices, roots) of the first n-subset of rays that is a
    lattice basis with every other ray in its negative orthant, or None.

    For a complete fan such a subset exists iff the variety admits an
    additive action (condition (2) on roots is implied by completeness).
    The roots are the negated dual basis."""
    n, rays = fan["dim"], [tuple(r) for r in fan["rays"]]
    for subset in combinations(range(len(rays)), n):
        basis = [rays[i] for i in subset]
        if abs(_det(basis)) != 1:
            continue
        inv = _solve_inverse(basis)
        # coordinates of v in the basis: solve sum c_j basis_j = v, i.e. c = v * inv
        ok = True
        for k, v in enumerate(rays):
            if k in subset:
                continue
            coords = [sum(v[r] * inv[r][c] for r in range(n)) for c in range(n)]
            if any(c > 0 for c in coords):
                ok = False
                break
        if ok:
            roots = [tuple(-int(inv[r][c]) for r in range(n)) for c in range(n)]
            return subset, roots
    return None


# ---------------------------------------------------------------------------
# fans as JSON dicts


def _fan(dim, rays, cones):
    return {"dim": dim, "rays": [list(r) for r in rays],
            "max_cones": [sorted(c) for c in cones]}


def _unit(n, i, s=1):
    return tuple(s * int(i == j) for j in range(n))


def projective(n):
    rays = [_unit(n, i) for i in range(n)] + [tuple([-1] * n)]
    return _fan(n, rays, combinations(range(n + 1), n))


def product_p1(n):
    rays = []
    for i in range(n):
        rays += [_unit(n, i), _unit(n, i, -1)]
    cones = [[2 * i + ((mask >> i) & 1) for i in range(n)] for mask in range(2 ** n)]
    return _fan(n, rays, cones)


def hirzebruch(d):
    return _fan(2, [(1, 0), (0, 1), (-1, d), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])


def wps_one(*weights):
    n = len(weights)
    rays = [_unit(n, i) for i in range(n)] + [tuple(-d for d in weights)]
    return _fan(n, rays, combinations(range(n + 1), n))


def p235():
    return _fan(2, [(1, 0), (1, 5), (-1, -3)], [(0, 1), (1, 2), (0, 2)])


def orthant(n):
    return _fan(n, [_unit(n, i) for i in range(n)], [range(n)])


def _by_angle(rays):
    return sorted(rays, key=lambda r: atan2(r[1], r[0]) % (2 * pi))


def _complete_2d(rays):
    """Consecutive-by-angle cones, or None if some gap is not below pi."""
    rays = _by_angle(rays)
    angles = [atan2(r[1], r[0]) % (2 * pi) for r in rays]
    gaps = [(angles[(i + 1) % len(rays)] - angles[i]) % (2 * pi) for i in range(len(rays))]
    if len(rays) < 3 or any(g <= 1e-9 or g >= pi - 1e-9 for g in gaps):
        return None
    return _fan(2, rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))])


def _random_primitive(rng, box, quadrant=None):
    while True:
        v = (rng.randint(-box, box), rng.randint(-box, box))
        if quadrant == "negative":
            v = (-abs(v[0]), -abs(v[1]))
        if v != (0, 0) and _primitive(v) == v:
            return v


def gl_image(fan, rng):
    m = _gl_matrix(rng, fan["dim"], steps=fan["dim"] + 1)
    return {"dim": fan["dim"], "rays": [list(_mat_vec(m, r)) for r in fan["rays"]],
            "max_cones": fan["max_cones"]}


def rand2d_positive(rng):
    """Basis e1, e2 plus rays in the negative quadrant, then a GL_2(Z) map:
    positive by the paper's characterization."""
    while True:
        extra = {_random_primitive(rng, 4, "negative") for _ in range(rng.randint(1, 4))}
        fan = _complete_2d([(1, 0), (0, 1)] + sorted(extra))
        if fan is not None:
            return gl_image(fan, rng)


def rand2d_general(rng):
    while True:
        rays = {_random_primitive(rng, 5) for _ in range(rng.randint(3, 7))}
        if len({_primitive(r) for r in rays}) == len(rays):
            fan = _complete_2d(sorted(rays))
            if fan is not None:
                return fan


def times_p1(fan2d):
    """Product of a complete surface fan with P^1."""
    rays = [tuple(r) + (0,) for r in fan2d["rays"]] + [(0, 0, 1), (0, 0, -1)]
    top, bottom = len(rays) - 2, len(rays) - 1
    cones = [c + [top] for c in fan2d["max_cones"]] + [c + [bottom] for c in fan2d["max_cones"]]
    return _fan(3, rays, cones)


# ---------------------------------------------------------------------------
# polytopes as JSON dicts


def _poly(dim, verts):
    return {"dim": dim, "vertices": [list(v) for v in sorted(set(map(tuple, verts)))]}


def cube(n):
    return _poly(n, [tuple((mask >> i) & 1 for i in range(n)) for mask in range(2 ** n)])


def dsimplex(n, d):
    return _poly(n, [tuple([0] * n)] + [_unit(n, i, d) for i in range(n)])


def trapezoid():
    return _poly(2, [(0, 0), (2, 0), (2, 1), (0, 3)])


def triangle():
    return _poly(2, [(0, 0), (1, 2), (2, 1)])


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points):
    pts = sorted(set(points))
    lower, upper = [], []
    for seq, out in ((pts, lower), (reversed(pts), upper)):
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
    return lower[:-1] + upper[:-1]


def polygon(rng):
    while True:
        pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(4, 9))]
        hull = _hull_2d(pts)
        if len(hull) >= 3:
            return _poly(2, hull)


def paraboloid(rng):
    """Lifts of distinct lattice points to z = x^2 + y^2: every lifted point is
    a vertex, since the paraboloid is strictly convex."""
    while True:
        pts = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(5, 7))}
        verts = [(x, y, x * x + y * y) for x, y in sorted(pts)]
        base = verts[0]
        diffs = [tuple(a - b for a, b in zip(v, base)) for v in verts[1:]]
        if any(_det(list(t)) != 0 for t in combinations(diffs, 3)):
            return _poly(3, verts)


def corner_cut_box(rng, n):
    """Box [0,a_1] x ... x [0,a_n] with the corner (a_1..a_n) cut off, then a
    GL_n(Z) map and a shift: inscribed in a rectangle at the origin vertex."""
    sides = [rng.randint(2, 4) for _ in range(n)]
    t = rng.randint(1, min(sides) - 1)
    corner = tuple(sides)
    verts = [tuple(s * ((mask >> i) & 1) for i, s in enumerate(sides))
             for mask in range(2 ** n)]
    verts = [v for v in verts if v != corner]
    verts += [tuple(c - t * int(i == j) for j, c in enumerate(corner)) for i in range(n)]
    m = _gl_matrix(rng, n, steps=n)
    shift = [rng.randint(-2, 2) for _ in range(n)]
    return _poly(n, [tuple(x + s for x, s in zip(_mat_vec(m, v), shift)) for v in verts])


# ---------------------------------------------------------------------------
# items


def _item(ident, kind, data, known=None, complete=True):
    """One input: ``known`` is the construction's answer (admits for fans,
    inscribed for polytopes), or None where the construction fixes none."""
    item = {"id": ident, "kind": kind, "data": data, "known": known,
            "path": f"{kind}s/{ident}.json"}
    if kind == "fan":
        item["complete"] = complete
        wit = additive_witness(data)
        if wit is not None:
            subset, roots = wit
            item["root"] = f"{subset[0]}:" + ",".join(str(x) for x in roots[0])
    return item


def _fixed_fans():
    return {
        "pn1": _item("pn1", "fan", projective(1), True),
        "pn2": _item("pn2", "fan", projective(2), True),
        "pn3": _item("pn3", "fan", projective(3), True),
        "pn4": _item("pn4", "fan", projective(4), True),
        "pn5": _item("pn5", "fan", projective(5), True),
        "p1n2": _item("p1n2", "fan", product_p1(2), True),
        "p1n3": _item("p1n3", "fan", product_p1(3), True),
        "p1n4": _item("p1n4", "fan", product_p1(4), True),
        "hirz1": _item("hirz1", "fan", hirzebruch(1), True),
        "hirz10": _item("hirz10", "fan", hirzebruch(10), True),
        "hirz50": _item("hirz50", "fan", hirzebruch(50), True),
        "hirz200": _item("hirz200", "fan", hirzebruch(200), True),
        "wps23": _item("wps23", "fan", wps_one(2, 3), True),
        "wps235": _item("wps235", "fan", wps_one(2, 3, 5), True),
        "wps1235": _item("wps1235", "fan", wps_one(1, 2, 3, 5), True),
        "p235": _item("p235", "fan", p235(), False),
        "quadrant": _item("quadrant", "fan", orthant(2), True, complete=False),
        "orthant3": _item("orthant3", "fan", orthant(3), True, complete=False),
        "orthant4": _item("orthant4", "fan", orthant(4), True, complete=False),
    }


def _fixed_polytopes():
    return {
        "cube2": _item("cube2", "polytope", cube(2), True),
        "cube3": _item("cube3", "polytope", cube(3), True),
        "cube4": _item("cube4", "polytope", cube(4), True),
        # cube 5 is used only once per traced cli-heavy run, under a budget
        "cube5": _item("cube5", "polytope", cube(5), True),
        "dsimplex23": _item("dsimplex23", "polytope", dsimplex(2, 3), True),
        "dsimplex34": _item("dsimplex34", "polytope", dsimplex(3, 4), True),
        "dsimplex42": _item("dsimplex42", "polytope", dsimplex(4, 2), True),
        "trapezoid": _item("trapezoid", "polytope", trapezoid(), True),
        "triangle": _item("triangle", "polytope", triangle(), False),
    }


FIXED = {**_fixed_fans(), **_fixed_polytopes()}

_GL_BASES = {"pn3": projective(3), "pn4": projective(4), "p1n3": product_p1(3),
             "wps235": wps_one(2, 3, 5)}


def pool_item(family: str, index: int):
    """Member ``index`` of a seeded family; depends on nothing else."""
    rng = random.Random(f"toricroots-bench:{family}:{index}")
    if family == "rand2d-pos":
        return _item(f"{family}-{index:02d}", "fan", rand2d_positive(rng), True)
    if family == "rand2d-gen":
        # answer from additive_witness, an independent implementation of the
        # paper's criterion for complete fans
        data = rand2d_general(rng)
        return _item(f"{family}-{index:02d}", "fan", data, additive_witness(data) is not None)
    if family.startswith("gl-"):
        base = family[3:]
        return _item(f"{family}-{index:02d}", "fan", gl_image(_GL_BASES[base], rng), True)
    if family == "p1xrand2d":
        data = times_p1(rand2d_positive(rng))
        return _item(f"{family}-{index:02d}", "fan", data, True)
    if family == "polygon":
        return _item(f"{family}-{index:02d}", "polytope", polygon(rng), None)
    if family == "cutbox2":
        return _item(f"{family}-{index:02d}", "polytope", corner_cut_box(rng, 2), True)
    if family == "cutbox3":
        return _item(f"{family}-{index:02d}", "polytope", corner_cut_box(rng, 3), True)
    if family == "paraboloid":
        return _item(f"{family}-{index:02d}", "polytope", paraboloid(rng), None)
    raise KeyError(family)


# ---------------------------------------------------------------------------
# hostile inputs (cli-small): each must be rejected with exit code 2


HOSTILE = {
    "not-json": b"{\"dim\": 2, \"rays\": [[1, 0], [0, 1]\n",
    "non-primitive": json.dumps(_fan(2, [(2, 0), (0, 1), (-1, -1)],
                                     [(0, 1), (1, 2), (0, 2)])).encode(),
    "overlap": json.dumps(_fan(2, [(1, 0), (0, 1), (1, 1), (-1, -1)],
                               [(0, 1), (0, 2), (1, 3), (0, 3)])).encode(),
    # Float and string coercion: rejected by a strict reader (see DEFECT_PROBES).
    "float-coercion": b'{"dim": 2.9, "rays": [[1,0],[0,1],[-1,-1]], '
                      b'"max_cones": [[0,1],[1.7,2],["2",0]]}\n',
}

# (command, input, expected error.type; None where the report has no error
# object because fan-check reports violations itself)
HOSTILE_OPS = [
    (["fan-check"], "not-json", "ToricError"),
    (["fan-check"], "non-primitive", None),
    (["additive"], "non-primitive", "InvalidFan"),
    (["fan-check"], "overlap", None),
    (["additive"], "overlap", "InvalidFan"),
]

# Hostile operations the program does not reject at the commit the goldens
# come from. Each run of cli-small runs them once, outside the counted and
# timed operations, and prints whether each is rejected yet; move one into
# HOSTILE_OPS once its defect is fixed.
DEFECT_PROBES = [
    (["fan-check"], "float-coercion", None),
]


# ---------------------------------------------------------------------------
# operations


def _op(argv, item=None, fmt="json", stdin_argv=None):
    """A CLI operation. ``key`` names its golden report."""
    argv = list(argv) + (["--format", "text"] if fmt == "text" else [])
    key = " ".join(argv)
    if stdin_argv is not None:
        key = " ".join(stdin_argv) + " | " + key
    return {"key": key, "argv": argv, "stdin_argv": stdin_argv, "format": fmt,
            "item": item["id"] if item else None, "expect": "golden"}


# Sup-norm bound for ``roots`` on the non-complete orthants, whose root sets
# are infinite.
ROOT_BOUNDS = {"quadrant": 6, "orthant3": 5, "orthant4": 3}


def fan_commands(item, small: bool):
    """Commands run on one fan input. Non-complete orthants get bounded roots."""
    p = item["path"]
    bounded = ROOT_BOUNDS.get(item["id"])
    cmds = [["fan-check", p],
            ["roots", p] + (["--bound", str(bounded)] if bounded else []),
            ["collections", "--equivalence", p],
            ["additive", p],
            ["cox", p]]
    if small and "root" in item:
        cmds.append(["pairs", p, "--root", item["root"]])
    only = HEAVY_ONLY.get(item["id"])
    return [c for c in cmds if only is None or c[0] in only]


def polytope_commands(item, pipe: bool):
    p = item["path"]
    cmds = [(["polytope", "check", p], None), (["polytope", "normalfan", p], None),
            (["polytope", "scale", p, "2"], None)]
    if pipe:
        cmds.append((["additive", "-"], ["polytope", "normalfan", p]))
    only = HEAVY_ONLY.get(item["id"])
    return [c for c in cmds if only is None or c[1] is None and c[0][1] in only]


# The heaviest inputs (0.4-1.2 s per op) run only the commands their workload
# is about, so one pass over cli-heavy's operations takes 35-45 s.
HEAVY_ONLY = {"pn5": ("fan-check", "collections", "additive"),
              "cube4": ("check", "normalfan")}


GEN_ARGS = [["gen", "pn", "2"], ["gen", "p1n", "2"], ["gen", "hirzebruch", "3"],
            ["gen", "wps1", "2"], ["gen", "wps1", "2", "3"], ["gen", "p235"],
            ["gen", "cube", "2"], ["gen", "dsimplex", "2", "3"], ["gen", "trapezoid"],
            ["gen", "triangle"]]

# Which fixed inputs and how many members of each seeded family a run draws.
PLAN = {
    "cli-small": {
        "fixed": ["pn1", "pn2", "p1n2", "hirz1", "hirz10", "hirz50", "hirz200",
                  "wps23", "p235", "quadrant",
                  "cube2", "dsimplex23", "trapezoid", "triangle"],
        "draw": {"rand2d-pos": 3, "rand2d-gen": 3, "polygon": 3, "cutbox2": 1},
    },
    "cli-heavy": {
        "fixed": ["pn3", "pn4", "pn5", "p1n3", "p1n4", "wps235", "wps1235",
                  "orthant3", "orthant4",
                  "cube2", "cube3", "cube4", "dsimplex34", "dsimplex42"],
        "draw": {"gl-pn3": 1, "gl-pn4": 1, "gl-p1n3": 1, "gl-wps235": 1, "p1xrand2d": 2,
                 "paraboloid": 4, "cutbox3": 4},
    },
    "lib-stream": {
        "pool": 96,
        "fixed": ["pn2", "pn3", "pn4", "p1n2", "p1n3", "hirz10", "wps23", "wps235",
                  "wps1235", "p235", "cube2", "cube3", "dsimplex34", "trapezoid", "triangle"],
        "draw": {family: 14 for family in (
            "rand2d-pos", "rand2d-gen", "polygon", "cutbox2", "gl-pn3", "gl-p1n3",
            "gl-wps235", "p1xrand2d", "cutbox3", "paraboloid")},
    },
}

# lib-stream warm-up draws from pool indices no timed run uses.
WARMUP_INDICES = range(1000, 1004)
WARMUP_FAMILIES = ("rand2d-pos", "rand2d-gen", "polygon", "cutbox3")


def pool_members(workload):
    """Every input the workload can ever draw (the golden corpus)."""
    plan = PLAN[workload]
    items = [FIXED[name] for name in plan["fixed"]]
    for family in plan["draw"]:
        items += [pool_item(family, i) for i in range(plan.get("pool", POOL))]
    return items


def _size(item):
    """Number of rays or vertices, then the sum of their absolute coordinates:
    within a family, a rough order of an input's cost."""
    points = item["data"].get("rays") or item["data"]["vertices"]
    return len(points), sum(abs(x) for p in points for x in p), item["id"]


def _draw(family, pool, count, rng):
    """``count`` pool indices, one from each of ``count`` equal strata of the
    pool sorted by _size, so that every seed draws the same spread of sizes."""
    members = sorted(range(pool), key=lambda i: _size(pool_item(family, i)))
    return sorted(members[rng.randrange(k * pool // count, (k + 1) * pool // count)]
                  for k in range(count))


def draw_items(workload, seed):
    rng = random.Random(f"toricroots-bench:{workload}:{seed}")
    plan = PLAN[workload]
    items = [FIXED[name] for name in plan["fixed"]]
    for family, count in plan["draw"].items():
        items += [pool_item(family, i) for i in _draw(family, plan.get("pool", POOL), count, rng)]
    return items, rng


def cli_ops(workload, items, rng=None):
    """Valid operations on ``items``. With ``rng`` the format of each op is
    drawn (cli-small) and the list is shuffled; without, every format is
    listed (golden capture)."""
    small = workload == "cli-small"
    formats = ("json", "text") if small else ("json",)
    ops = []
    for item in items:
        if item["kind"] == "fan":
            specs = [(argv, None) for argv in fan_commands(item, small)]
        else:
            specs = polytope_commands(item, pipe=workload == "cli-heavy")
        for argv, stdin_argv in specs:
            chosen = [rng.choice(formats)] if rng else formats
            ops += [_op(argv, item, fmt, stdin_argv) for fmt in chosen]
    if small:
        for argv in GEN_ARGS:
            chosen = [rng.choice(formats)] if rng else formats
            ops += [_op(argv, None, fmt) for fmt in chosen]
    if rng:
        ops = _spread(ops, rng, lambda op: op["item"] or "gen")
    return ops


def _spread(things, rng, group_of):
    """Seeded order in which each group's members are spread evenly over the
    sequence, so a run that stops part-way still has the whole mix."""
    groups = {}
    for t in things:
        groups.setdefault(group_of(t), []).append(t)
    keyed = []
    for group in groups.values():
        rng.shuffle(group)
        offset = rng.random()
        keyed += [((i + offset) / len(group), rng.random(), t) for i, t in enumerate(group)]
    keyed.sort(key=lambda k: k[:2])
    return [t for _, _, t in keyed]


def _family(item):
    ident = item["id"]
    return ident.rsplit("-", 1)[0] if ident[-2:].isdigit() and "-" in ident else "fixed"


def hostile_ops(table=HOSTILE_OPS):
    ops = []
    for argv, name, etype in table:
        path = f"hostile/{name}.json"
        ops.append({"key": " ".join(argv + [path]), "argv": argv + [path],
                    "stdin_argv": None, "format": "json", "item": name,
                    "expect": "reject", "error_type": etype})
    return ops


def lib_stream(seed):
    """One pass of lib-stream: each drawn item once, each family spread
    evenly in seeded order, and after every (1 - REPEAT_SHARE) / REPEAT_SHARE
    items a re-submission of an earlier item of the last item's family. A
    run replays the whole pass in fresh worker processes."""
    items, rng = draw_items("lib-stream", seed)
    every = round((1 - REPEAT_SHARE) / REPEAT_SHARE)
    seq, seen = [], {}
    for k, item in enumerate(_spread(items, rng, _family), start=1):
        seq.append((item, False))
        seen.setdefault(_family(item), []).append(item)
        if k % every == 0:
            seq.append((rng.choice(seen[_family(item)]), True))
    return seq


def warmup_items():
    return [pool_item(f, i) for f in WARMUP_FAMILIES for i in WARMUP_INDICES]


def write_inputs(items, out: Path):
    for item in items:
        path = out / item["path"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(item["data"], sort_keys=True) + "\n", encoding="utf-8")


def write_hostile(out: Path):
    (out / "hostile").mkdir(parents=True, exist_ok=True)
    for name, raw in HOSTILE.items():
        (out / "hostile" / f"{name}.json").write_bytes(raw)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.workload == "lib-stream":
        seq = lib_stream(args.seed)
        write_inputs(list({it["id"]: it for it, _ in seq}.values()), args.out)
        for it, repeat in seq:
            print(it["path"] + ("  (repeat)" if repeat else ""))
        return
    items, rng = draw_items(args.workload, args.seed)
    write_inputs(items, args.out)
    ops = cli_ops(args.workload, items, rng)
    if args.workload == "cli-small":
        write_hostile(args.out)
        ops = hostile_ops() + ops
        for op in hostile_ops(DEFECT_PROBES):
            print(op["key"] + "  (known-defect probe, not counted)")
    for op in ops:
        print(op["key"])


if __name__ == "__main__":
    main()
