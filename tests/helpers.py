"""Shared fixtures: the bundled fan corpus, products of fans with shuffled
rays, and seeded random generators; and the code-line count of ``src/``
(``python tests/helpers.py codelines``)."""

from __future__ import annotations

import ast
import functools
import io
import random
import tokenize
from itertools import permutations, product
from pathlib import Path

from toricroots import (
    Fan,
    LatticePolytope,
    build_fan,
    hirzebruch,
    p235_model,
    product_p1,
    projective_space,
    wps_one,
)
from toricroots.errors import InvalidFan
from toricroots.lattice import identity, is_primitive, primitive


def quadrant_fan() -> Fan:
    """Affine plane fan: one quadrant with its faces (roots are infinite)."""
    return build_fan(2, [(1, 0), (0, 1)], [(0, 1)])


def torsion_fan() -> Fan:
    """Rays (1,1), (1,-1) with one maximal cone: class group Z/2."""
    return build_fan(2, [(1, 1), (1, -1)], [(0, 1)])


def bundled_complete_fans() -> list[tuple[str, Fan]]:
    fans = [
        ("P1", projective_space(1)),
        ("P2", projective_space(2)),
        ("P3", projective_space(3)),
        ("P1xP1", product_p1(2)),
        ("(P1)^3", product_p1(3)),
        ("(P1)^4", product_p1(4)),
        ("wps(2)", wps_one(2)),
        ("wps(2,3)", wps_one(2, 3)),
        ("wps(1,2,3)", wps_one(1, 2, 3)),
        ("P(2,3,5) model", p235_model()),
    ]
    fans.extend((f"F_{d}", hirzebruch(d)) for d in range(1, 6))
    return fans


def bundled_fans() -> list[tuple[str, Fan]]:
    return bundled_complete_fans() + [
        ("quadrant", quadrant_fan()),
        ("torsion", torsion_fan()),
    ]


def product_fan(*factors: Fan) -> Fan:
    """The product of fans in the sum of their lattices: each factor's rays
    padded by zeros, in factor order, and one maximal cone per choice of a
    maximal cone from each factor (itertools.product order)."""
    dim = sum(f.dim for f in factors)
    rays, blocks, before = [], [], 0
    for f in factors:
        first = len(rays)
        rays += [(0,) * before + r + (0,) * (dim - before - f.dim) for r in f.rays]
        blocks.append([[first + i for i in c.ray_indices] for c in f.max_cones])
        before += f.dim
    return build_fan(dim, rays, [sum(choice, []) for choice in product(*blocks)])


def shuffled(fan: Fan, rng: random.Random) -> Fan:
    """The same fan with its rays listed in a random order."""
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    return build_fan(fan.dim, [fan.rays[i] for i in order],
                     [[pos[i] for i in c.ray_indices] for c in fan.max_cones],
                     allow_nonprimitive=not all(map(is_primitive, fan.rays)))


@functools.lru_cache(maxsize=None)
def shuffled_products() -> dict[str, Fan]:
    """Product fans in dims 7 to 9, rays shuffled by random.Random(1); built
    once. Listed in builder order, the second collection's own ray order is
    an equivalence witness from the first; shuffled, it mostly is not, and a
    search over every ray order took 8,607 witness checks on the dim-7 fan
    and ran past 20 s on the dim-9 one."""
    p1, p2 = projective_space(1), projective_space(2)
    f1, f2, f3, f4 = (hirzebruch(a) for a in range(1, 5))
    return {
        "F1xF2xF3xP1": shuffled(product_fan(f1, f2, f3, p1), random.Random(1)),
        "P2xP2xP1xP1xF1": shuffled(product_fan(p2, p2, p1, p1, f1), random.Random(1)),
        "F1xF2xF3xF4xP1": shuffled(product_fan(f1, f2, f3, f4, p1), random.Random(1)),
    }


def _angle_half(v) -> int:
    # 0 for the open upper half plane plus the positive x-axis, 1 otherwise
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_cmp(u, v) -> int:
    hu, hv = _angle_half(u), _angle_half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def random_complete_fan_2d(rng: random.Random) -> Fan | None:
    """Sort random primitive vectors by angle; consecutive pairs become the
    maximal cones. Returns None when the sample is rejected."""
    k = rng.randint(3, 8)
    rays = set()
    for _ in range(k):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        if v != (0, 0):
            rays.add(primitive(v))
    if len(rays) < 3:
        return None
    ordered = sorted(rays, key=functools.cmp_to_key(_angle_cmp))
    n = len(ordered)
    for i in range(n):
        u, v = ordered[i], ordered[(i + 1) % n]
        if u[0] * v[1] - u[1] * v[0] <= 0:
            return None  # gap >= pi: support would not cover the plane
    cones = [(i, (i + 1) % n) for i in range(n)]
    try:
        return build_fan(2, ordered, cones)
    except InvalidFan:
        return None


def random_complete_fans_2d(seed: int, count: int) -> list[Fan]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        fan = random_complete_fan_2d(rng)
        if fan is not None:
            out.append(fan)
    return out


def _hull_2d(points):
    """Andrew's monotone chain with strict turns: extreme points only."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def random_lattice_polygon(rng: random.Random) -> LatticePolytope | None:
    """Random 2D lattice polygon with vertices in [0, 6]^2, or None."""
    pts = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(4, 10))]
    hull = _hull_2d(pts)
    if len(hull) < 3:
        return None
    return LatticePolytope(2, tuple(hull))


def random_lattice_polygons(seed: int, count: int) -> list[LatticePolytope]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        poly = random_lattice_polygon(rng)
        if poly is not None:
            out.append(poly)
    return out


def permutohedron(n: int) -> list[tuple[int, ...]]:
    """Vertices of the permutohedron of order n in dimension n - 1: the
    permutations of 0..n-1 without their last coordinate. It is simple, with
    n! vertices and 2^n - 2 facets."""
    return [p[:-1] for p in permutations(range(n))]


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of a Python source: the lines that hold a
    token other than a comment, outside every module, class and function
    docstring. So blank lines, comment lines and docstrings do not count,
    and each line of a statement continued over several lines does."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def src_code_lines() -> dict[str, int]:
    """code_lines of each module of the package, by module name."""
    package = Path(__file__).resolve().parent.parent / "src" / "toricroots"
    return {path.stem: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


if __name__ == "__main__":
    # python tests/helpers.py codelines prints the code lines of each module
    # of src/toricroots (no blanks, comments or docstrings) and their total.
    # python tests/helpers.py NAME prints one scaling fixture: the fan JSON
    # of product9, cross4, glcross5, glcross5-1, p1n8-1, blowup, z5 or
    # orthant6 (the cone of the unit vectors of Z^6), or the polytope JSON
    # of perm6, cross5, cross7 or cross8 (the 5-, 7- and 8-dimensional
    # cross-polytopes, each vertex on 16 of 32, 64 of 128 and 128 of 256
    # facets).
    # cross4 and glcross5 are the images of the cross-polytope's normal fan
    # by random_unimodular(random.Random(1), n); glcross5-1 is glcross5
    # without its first maximal cone, and p1n8-1 is (P^1)^8 without its
    # first maximal cone (255 cones, so 32,385 pairs), fans that are not
    # complete. The test modules are imported here, so importing helpers
    # imports none of them.
    import json
    import sys

    from toricroots import fan_to_json_dict

    def _product9():
        return fan_to_json_dict(shuffled_products()["F1xF2xF3xF4xP1"])

    def _gl_cross(n, drop=0):
        from test_face_index import cross_polytope_fan
        from test_kernel import random_unimodular
        from toricroots import LatticeAutomorphism, apply_automorphism
        g = LatticeAutomorphism(random_unimodular(random.Random(1), n))
        data = fan_to_json_dict(apply_automorphism(cross_polytope_fan(n), g))
        return {**data, "max_cones": data["max_cones"][drop:]}

    def _p1n8_1():
        data = fan_to_json_dict(product_p1(8))
        return {**data, "max_cones": data["max_cones"][1:]}

    def _blowup():
        from test_elimination import BLOWUP_FAN
        return BLOWUP_FAN

    def _z5():
        from test_elimination import SMITH_BLOWUP
        from toricroots.lattice import primitive
        return {"dim": 5, "rays": [list(primitive(r)) for r in SMITH_BLOWUP],
                "max_cones": [[i] for i in range(len(SMITH_BLOWUP))]}

    def _perm6():
        return {"dim": 5, "vertices": [list(v) for v in permutohedron(6)]}

    def _cross(n):
        from test_polytope_faces import cross_polytope
        return {"dim": n, "vertices": [list(v) for v in cross_polytope(n)]}

    fixtures = {"product9": _product9, "cross4": lambda: _gl_cross(4),
                "glcross5": lambda: _gl_cross(5), "glcross5-1": lambda: _gl_cross(5, 1),
                "p1n8-1": _p1n8_1, "blowup": _blowup, "z5": _z5,
                "orthant6": lambda: {"dim": 6, "rays": [list(u) for u in identity(6)],
                                     "max_cones": [list(range(6))]},
                "perm6": _perm6, "cross5": lambda: _cross(5), "cross7": lambda: _cross(7),
                "cross8": lambda: _cross(8)}
    if sys.argv[1:] == ["codelines"]:
        counts = src_code_lines()
        for name, count in counts.items():
            print(f"{name:<10} {count:>5}")
        print(f"{'total':<10} {sum(counts.values()):>5}")
        sys.exit(0)
    if len(sys.argv) != 2 or sys.argv[1] not in fixtures:
        sys.exit(f"usage: python tests/helpers.py {{codelines,{','.join(fixtures)}}}")
    print(json.dumps(fixtures[sys.argv[1]]()))
