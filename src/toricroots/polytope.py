"""Lattice polytopes: facets, the inscribed-in-a-rectangle test, normal fans.

Facet inequalities are stored with outer normals (<p, x> <= a); the normal
fan uses inner normals (-p), with the maximal cone at a vertex generated by
the inner normals of the facets through it.
"""

from __future__ import annotations

from . import lattice
from .errors import BadParams, DegeneratePolytope, InvalidPolytope
from .fan import Fan, _is_face, build_fan
from .lattice import Value, Vec, dot, neg, primitive, sub, vec


class FacetInequality(Value):
    """<normal, x> <= rhs, tight on the facet; normal is primitive and outer."""

    __slots__ = _fields = ("normal", "rhs")

    def __init__(self, normal: Vec, rhs: int):
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "rhs", rhs)


def _hull_facets(points: tuple[Vec, ...], dim: int) -> tuple[FacetInequality, ...] | None:
    """Facets of conv(points), or None when the points are not full-dimensional.

    The facet <p, x> <= a is the extreme ray (-p, a) of the cone dual to the
    cone over the lifted points (v, 1).
    """
    rays = lattice.dual_rays([v + (1,) for v in points], dim + 1)
    if rays is None:
        return None
    return tuple(FacetInequality(u, a) for u, a in sorted((neg(r[:dim]), r[dim]) for r in rays))


class LatticePolytope(Value):
    """A full-dimensional lattice polytope given by its vertex set.

    Vertices are stored sorted, with the indices of those on each facet,
    which the fan's face test :func:`toricroots.fan._is_face` reads. Every
    face is an intersection of facets, so construction rejects a listed
    point that is not the only one on the facets through it: the stored set
    is exactly the hull's vertex set. A dim or a coordinate that is not an
    int raises InvalidPolytope, with the messages of the JSON reader.
    """

    _fields = ("dim", "vertices")
    # derived on construction: the facets, and per facet the indices of the
    # vertices on it; the normal fan is stored on first use
    __slots__ = (*_fields, "_facets", "_on", "_normal_fan", "__weakref__")

    def __init__(self, dim: int, vertices: tuple[Vec, ...]):
        if not lattice.is_integer(dim):
            raise InvalidPolytope(f"bad polytope data: dim must be an integer, got {dim!r}")
        try:
            pts = tuple(vec(v) for v in vertices)
        except TypeError as exc:
            raise InvalidPolytope(f"bad polytope data: {exc}") from None
        if dim < 1:
            raise DegeneratePolytope("dimension must be positive")
        if any(len(v) != dim for v in pts):
            raise InvalidPolytope("vertex of wrong dimension")
        if len(set(pts)) != len(pts):
            raise InvalidPolytope("vertices are not pairwise distinct")
        pts = tuple(sorted(pts))
        fs = _hull_facets(pts, dim)
        if fs is None:
            raise DegeneratePolytope("polytope is not full-dimensional")
        on = tuple(frozenset(i for i, v in enumerate(pts) if dot(f.normal, v) == f.rhs)
                   for f in fs)
        for i, v in enumerate(pts):
            if not _is_face((i,), range(len(pts)), on):
                raise InvalidPolytope(f"listed point {list(v)} is not a vertex")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "_facets", fs)
        object.__setattr__(self, "_on", on)
        object.__setattr__(self, "_normal_fan", None)


def facets(p: LatticePolytope) -> tuple[FacetInequality, ...]:
    """All facet inequalities, in lexicographic order on the normals."""
    return p._facets


def edge_directions_at(p: LatticePolytope, v: Vec) -> tuple[Vec, ...]:
    """Primitive directions of the edges of p containing the vertex v.

    Two vertices span an edge iff they are the only vertices on the facets
    through both (a face with two vertices is an edge), the closure test of
    :func:`toricroots.fan._is_face`; this works for non-simple polytopes too.
    ValueError when v is not a vertex of p.
    """
    if v not in p.vertices:
        raise ValueError(f"point {list(v)} is not a vertex of the polytope")
    i = p.vertices.index(v)
    every = range(len(p.vertices))
    return tuple(sorted(primitive(sub(w, v)) for j, w in enumerate(p.vertices)
                        if j != i and _is_face((i, j), every, p._on)))


class RectangleWitness(Value):
    """A vertex whose primitive edge directions are a lattice basis pairing
    nonnegatively with every facet normal away from it."""

    __slots__ = _fields = ("vertex", "edge_basis")

    def __init__(self, vertex: Vec, edge_basis: tuple[Vec, ...]):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "edge_basis", edge_basis)


def inscribed_in_rectangle(p: LatticePolytope) -> RectangleWitness | None:
    """First witness in vertex order that p is inscribed in a rectangle, or None."""
    fs = facets(p)
    for i, v in enumerate(p.vertices):
        dirs = edge_directions_at(p, v)
        if len(dirs) != p.dim or abs(lattice.determinant(dirs)) != 1:
            continue
        away = [f for f, on in zip(fs, p._on) if i not in on]
        if all(dot(f.normal, e) >= 0 for f in away for e in dirs):
            return RectangleWitness(v, dirs)
    return None


def normal_fan(p: LatticePolytope) -> Fan:
    """The complete fan with rays the inner facet normals and one maximal cone
    per vertex, generated by the inner normals of its facets. It is built once
    per polytope and stored on it."""
    if p._normal_fan is None:
        # negation reverses the lexicographic order of the facet normals
        inner = [neg(f.normal) for f in reversed(facets(p))]
        last = len(inner) - 1
        cones = sorted(tuple(sorted(last - k for k, on in enumerate(p._on) if i in on))
                       for i in range(len(p.vertices)))
        object.__setattr__(p, "_normal_fan", build_fan(p.dim, inner, cones))
    return p._normal_fan


def scale(p: LatticePolytope, k: int) -> LatticePolytope:
    """The dilated polytope k*p; its normal fan is unchanged.

    For k >= dim - 1 the result is very ample, so the fan-side analysis of
    k*p speaks for the projective embedding even when p itself is not.
    """
    if k < 1:
        raise BadParams("scale factor must be a positive integer")
    return LatticePolytope(p.dim, tuple(tuple(k * x for x in v) for v in p.vertices))


class PolytopeTheoremReport(Value):
    __slots__ = _fields = ("inscribed", "fan_admits", "witness")

    def __init__(self, inscribed: bool, fan_admits: bool, witness: RectangleWitness | None):
        object.__setattr__(self, "inscribed", inscribed)
        object.__setattr__(self, "fan_admits", fan_admits)
        object.__setattr__(self, "witness", witness)


def check_polytope_theorem(p: LatticePolytope) -> PolytopeTheoremReport:
    """Both sides of the polytope criterion, and the rectangle witness if any;
    the two sides must agree."""
    from .additive import admits_additive

    witness = inscribed_in_rectangle(p)
    return PolytopeTheoremReport(
        inscribed=witness is not None,
        fan_admits=admits_additive(normal_fan(p)).admits,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# builtin polytopes


def segment(d: int) -> LatticePolytope:
    if d < 1:
        raise BadParams("segment needs d >= 1")
    return LatticePolytope(1, ((0,), (d,)))


def cube(n: int) -> LatticePolytope:
    if n < 1:
        raise BadParams("cube needs n >= 1")
    verts = []
    for mask in range(2 ** n):
        verts.append(tuple((mask >> i) & 1 for i in range(n)))
    return LatticePolytope(n, tuple(verts))


def dilated_simplex(n: int, d: int) -> LatticePolytope:
    """conv{0, d*e_1, ..., d*e_n}."""
    if n < 1 or d < 1:
        raise BadParams("dilated_simplex needs n >= 1 and d >= 1")
    verts = [tuple([0] * n)]
    for i in range(n):
        verts.append(tuple(d * int(i == j) for j in range(n)))
    return LatticePolytope(n, tuple(verts))


def trapezoid() -> LatticePolytope:
    """conv{(0,0),(2,0),(2,1),(0,3)}: the polytope of a Hirzebruch surface."""
    return LatticePolytope(2, ((0, 0), (2, 0), (2, 1), (0, 3)))


def skew_triangle() -> LatticePolytope:
    """conv{(0,0),(1,2),(2,1)}: not inscribed in a rectangle."""
    return LatticePolytope(2, ((0, 0), (1, 2), (2, 1)))


_BUILTIN_POLYTOPES = {
    "segment": (segment, 1),
    "cube": (cube, 1),
    "dsimplex": (dilated_simplex, 2),
    "trapezoid": (trapezoid, 0),
    "triangle": (skew_triangle, 0),
}


def builtin_polytope(name: str, *params: int) -> LatticePolytope:
    if name not in _BUILTIN_POLYTOPES:
        raise BadParams(f"unknown polytope generator {name!r}")
    func, arity = _BUILTIN_POLYTOPES[name]
    if len(params) != arity:
        raise BadParams(f"{name} takes {arity} parameter(s), got {len(params)}")
    return func(*params)


# ---------------------------------------------------------------------------
# JSON interchange


def polytope_to_json_dict(p: LatticePolytope) -> dict:
    return {"dim": p.dim, "vertices": [list(v) for v in p.vertices]}


def polytope_from_json_dict(data: dict) -> LatticePolytope:
    """Strict reader: listed points must all be vertices of the hull."""
    if not isinstance(data, dict):
        raise InvalidPolytope("polytope JSON must be an object")
    missing = {"dim", "vertices"} - set(data)
    if missing:
        raise InvalidPolytope(f"polytope JSON lacks keys {sorted(missing)}")
    return LatticePolytope(data["dim"], data["vertices"])
