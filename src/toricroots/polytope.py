"""Lattice polytopes: facets, the inscribed-in-a-rectangle test, normal fans.

Facet inequalities are stored with outer normals (<p, x> <= a), each with
the bitmask of the vertices on it, both from one double description of the
hull; the normal fan uses inner normals (-p), with the maximal cone at a
vertex generated by the inner normals of the facets through it. The edge
directions at a vertex are the stored inequalities of that cone, and the
rectangle test reads whether they are a lattice basis off those
inequalities and the cone's rays, with no determinant. The
normal fan is assembled from that incidence alone (:func:`normal_fan`):
the edges are found by the closure test on it, and the fan is complete by
theorem, so no cone gets a double description and nothing is validated
again.
"""

from __future__ import annotations

from bisect import bisect_left

from . import lattice
from .errors import BadParams, DegeneratePolytope, InvalidPolytope
from .fan import Cone, Fan, _is_face, _simplicial_inverse
from .lattice import Value, Vec, dot, neg, primitive, sub, vec


class FacetInequality(Value):
    """<normal, x> <= rhs, tight on the facet; normal is primitive and outer."""

    __slots__ = _fields = ("normal", "rhs")


def _hull_facets(points: tuple[Vec, ...], dim: int) -> tuple[tuple, tuple]:
    """The facets of conv(points) in lexicographic order, and for each the
    bitmask of the points on it (bit i for points[i]). DegeneratePolytope
    when the points are not full-dimensional.

    The facet <p, x> <= a is the extreme ray (-p, a) of the cone dual to the
    cone over the lifted points (v, 1), and the points on it are those whose
    lifts vanish on that ray, as the double description reports.
    """
    dd = lattice._double_description([v + (1,) for v in points], dim + 1)
    if dd is None:
        raise DegeneratePolytope("polytope is not full-dimensional")
    fs = sorted((neg(r[:dim]), r[dim], on) for r, on in zip(*dd))
    return tuple(FacetInequality(u, a) for u, a, _ in fs), tuple(on for *_, on in fs)


class LatticePolytope(Value):
    """A full-dimensional lattice polytope given by its vertex set.

    Vertices are stored sorted, with the bitmask of those on each facet,
    which the hull's double description reports and the fan's face test
    :func:`toricroots.fan._is_face` reads. Every
    face is an intersection of facets, so construction rejects a listed
    point that is not the only one on the facets through it: the stored set
    is exactly the hull's vertex set. A dim or a coordinate that is not an
    int raises InvalidPolytope, with the messages of the JSON reader.
    """

    _fields = ("dim", "vertices")
    # derived on construction: the facets, and per facet the bitmask of the
    # vertices on it; the normal fan is stored on first use, with the
    # position of each vertex's cone among its maximal cones
    __slots__ = (*_fields, "_facets", "_on", "_normal_fan", "_cone_at", "__weakref__")

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
        fs, on = _hull_facets(pts, dim)
        for i, v in enumerate(pts):
            if not _is_face(1 << i, (1 << len(pts)) - 1, on):
                raise InvalidPolytope(f"listed point {list(v)} is not a vertex")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "_facets", fs)
        object.__setattr__(self, "_on", on)
        object.__setattr__(self, "_normal_fan", None)
        object.__setattr__(self, "_cone_at", None)


def facets(p: LatticePolytope) -> tuple[FacetInequality, ...]:
    """All facet inequalities, in lexicographic order on the normals."""
    return p._facets


def edge_directions_at(p: LatticePolytope, v: Vec) -> tuple[Vec, ...]:
    """Primitive directions of the edges of p containing the vertex v, sorted.

    They are the stored inequalities of v's maximal cone in the normal fan,
    which :func:`normal_fan` reads off the hull's incidence, and they are
    that cone's facet normals. Proof: let F_v be the facets
    <p_k, x> <= a_k through v. Near v the other facet inequalities are
    strict, so the tangent cone T = cone(p - v) is
    {x : <p_k, x> <= 0 for k in F_v}, and the faces of T are the cones
    cone(G - v) over the faces G of p through v (Ziegler, *Lectures on
    Polytopes*, Lecture 7). Its rays are therefore the half-lines from v
    along the edges at v, and no two edges at v share a direction, since the
    shorter would lie inside the longer. The normal cone at v is
    cone(-p_k : k in F_v), and T is its dual (Cox-Little-Schenck, §2.3).
    v is a vertex, so T is pointed and the normal cone full-dimensional,
    and the facets of a full-dimensional cone correspond one to one to the
    rays of its dual, each facet's primitive normal spanning its ray. The
    cone's canonical description (:func:`toricroots.fan._dual_description`)
    is these primitive normals, sorted, with no equation. Nothing here asks
    that v lie on exactly dim facets or have exactly dim edges, so this
    holds for polytopes that are not simple.

    The cone is found without the fan's face index (:func:`_normal_cone`),
    and v by bisection in the sorted vertices. v is any sequence of ints;
    ValueError when it is not a vertex of p.
    """
    v = vec(v)
    i = bisect_left(p.vertices, v)
    if i == len(p.vertices) or p.vertices[i] != v:
        raise ValueError(f"point {list(v)} is not a vertex of the polytope")
    return _normal_cone(p, i).inequalities


class RectangleWitness(Value):
    """A vertex whose primitive edge directions are a lattice basis pairing
    nonnegatively with every facet normal away from it."""

    __slots__ = _fields = ("vertex", "edge_basis")


def inscribed_in_rectangle(p: LatticePolytope) -> RectangleWitness | None:
    """First witness in vertex order that p is inscribed in a rectangle, or None.

    The facets through a vertex are read off its normal cone, whose ray r
    is the inner normal of facet F - 1 - r of the F facets, and the check
    of the others stops at the first one that fails.

    The edge directions at v are the facet normals A of v's normal cone
    (:func:`edge_directions_at`). They are a lattice basis iff there are
    dim of them and |det A| = 1, that is iff the cone is simplicial and the
    inverse (basis, W, D) read off its stored normals has D = 1: the normal
    fan's rays are primitive, so :func:`toricroots.fan._simplicial_inverse`
    proves the two tests the same, and no determinant is computed. A
    full-dimensional cone has dim facets iff it has dim rays, both meaning
    that it is simplicial."""
    fs = facets(p)
    last = len(fs) - 1
    rays = normal_fan(p).rays
    for i, v in enumerate(p.vertices):
        cone = _normal_cone(p, i)
        inverse = _simplicial_inverse(cone, rays, cone.ray_indices)
        if inverse is None or inverse[2] != 1:
            continue
        dirs = cone.inequalities  # the edge directions at v
        through = {last - r for r in cone.ray_indices}
        if all(dot(f.normal, e) >= 0
               for k, f in enumerate(fs) if k not in through for e in dirs):
            return RectangleWitness(v, dirs)
    return None


def normal_fan(p: LatticePolytope) -> Fan:
    """The complete fan with rays the inner facet normals and one maximal cone
    per vertex, generated by the inner normals of its facets. It is built once
    per polytope and stored on it.

    It is assembled from the hull's vertex-facet incidence, with no double
    description and no validation, and equals what
    :func:`toricroots.fan.build_fan` returns on the same rays and cones. The rays are the inner normals in
    reverse facet order, and vertex i's cone has as rays the facets through
    i. Its inequalities are the primitive directions w - v of the edges vw
    at v, sorted (:func:`_edges` finds them), with no equation: by
    :func:`edge_directions_at` these are the facet normals of the normal
    cone, which is full-dimensional, and the canonical description of a
    full-dimensional cone (:func:`toricroots.fan._dual_description`) is its
    primitive facet normals, sorted. The cones are sorted by ray set, as
    build_fan sorts them; distinct vertices lie on distinct facet sets.

    *Completeness.* The normal fan of a full-dimensional lattice polytope is
    a complete fan (Cox-Little-Schenck, Theorem 2.3.2): for u in N_R, the
    linear function <u, x> attains its minimum over p at some vertex v, so
    <u, w - v> >= 0 for every vertex w, and in particular for every edge
    direction at v: u lies in v's cone. That the cones meet in common faces
    is the same theorem, and the rays of each cone are its minimal
    generators, since each facet through v gives a facet of the tangent
    cone at v, so a ray of the dual. :func:`toricroots.fan._certify_complete`
    holds exactly when the maximal cones form a complete fan, so build_fan
    would store True: this stores True.
    """
    if p._normal_fan is None:
        on = p._on[::-1]  # negation reverses the lexicographic order of the normals
        through: list[list[int]] = [[] for _ in p.vertices]  # each vertex's ray indices
        for r, mask in enumerate(on):
            for i in _indices(mask):
                through[i].append(r)
        full = (1 << len(p.vertices)) - 1
        cones = []
        for i, (v, rs) in enumerate(zip(p.vertices, through)):
            edges = _edges(full, [on[r] for r in rs], i, p.dim)
            dirs = tuple(sorted(primitive(sub(p.vertices[j], v)) for j in edges))
            cones.append(Cone(tuple(rs), dirs, (), p.dim))
        order = sorted(range(len(cones)), key=through.__getitem__)
        cone_at = [0] * len(cones)
        for k, i in enumerate(order):
            cone_at[i] = k
        fan = Fan(p.dim, tuple(neg(f.normal) for f in reversed(p._facets)),
                  tuple(cones[i] for i in order))
        object.__setattr__(fan, "_complete", True)
        object.__setattr__(p, "_normal_fan", fan)
        object.__setattr__(p, "_cone_at", tuple(cone_at))
    return p._normal_fan


def _indices(mask: int):
    """The positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edges(full: int, facets: list[int], i: int, dim: int) -> list[int]:
    """The indices of the vertices w such that vw is an edge, where v is
    vertex i of a polytope p of dimension dim, `full` the bitmask of all its
    vertices and `facets` the bitmasks of the vertices on each facet
    through v.

    *Edge test.* vw is an edge iff the vertices on every facet through both
    v and w are exactly v and w (all vertices if no facet holds both). The
    set is the vertex set of G, the intersection of p with those facets,
    since every face of p is the intersection of p with the facets
    containing it (p itself if there are none). G is the smallest face
    holding v and w. If vw is an edge, G lies in it and holds both ends, so
    it is the edge; if G has the vertices v and w only, it is the segment
    vw, a face of dimension 1. This is the closure test of
    :func:`toricroots.fan._is_face` on the facets through v, since a facet
    through v holds w iff it holds both.

    *Candidates.* Only a vertex on at least dim - 1 of v's facets is tested.
    Proof: let y = (v + w) / 2 and S the facets through v and w, which are
    the facets whose inequalities are tight at y, as both ends satisfy
    them. Let V be the affine space where the inequalities of S are tight;
    each lowers the dimension by at most one, so dim V >= dim - |S|. Every
    other inequality is strict at y, so a neighbourhood of y in V lies in
    p, and so in G. If vw is an edge, G is that edge, so
    dim - |S| <= dim V <= 1. The count is kept by bitmasks: after v's
    facets r_1..r_k, near[s] holds the vertices on at least s of them, as a
    vertex is on s of r_1..r_k iff it is on s of r_1..r_(k-1), or on s - 1
    of them and on r_k. Counting stops at dim - 1, and near[s] is updated
    before near[s - 1] so that it reads the previous count.
    """
    near = [full] + [0] * (dim - 1)
    for k, mask in enumerate(facets, 1):
        for s in range(min(k, dim - 1), 0, -1):
            near[s] |= near[s - 1] & mask
    v = 1 << i
    return [j for j in _indices(near[dim - 1] & ~v) if _is_face(v | 1 << j, near[0], facets)]


def _normal_cone(p: LatticePolytope, i: int) -> Cone:
    """Vertex i's maximal cone in the normal fan, at the position that
    :func:`normal_fan` stored for it. No face index is built."""
    return normal_fan(p).max_cones[p._cone_at[i]]


def scale(p: LatticePolytope, k: int) -> LatticePolytope:
    """The dilated polytope k*p; its normal fan is unchanged.

    For k >= dim - 1 the result is very ample, so the fan-side analysis of
    k*p speaks for the projective embedding even when p itself is not.
    """
    if k < 1:
        raise BadParams("scale factor must be a positive integer")
    return LatticePolytope(p.dim, tuple(tuple(k * x for x in v) for v in p.vertices))


class PolytopeTheoremReport(Value):
    """Both sides of the polytope criterion: inscribed in a rectangle, and
    the normal fan admits an additive action; the rectangle witness or None."""

    __slots__ = _fields = ("inscribed", "fan_admits", "witness")


def check_polytope_theorem(p: LatticePolytope) -> PolytopeTheoremReport:
    """Both sides of the polytope criterion, and the rectangle witness if any;
    the two sides must agree.

    They are decided by separate code, the rectangle test on the edge
    directions (:func:`inscribed_in_rectangle`) and the complete-collection
    scan of the normal fan (:func:`toricroots.additive.admits_additive`),
    so the report is a cross-check. Both read the same stored descriptions
    of the normal fan's maximal cones, the edge directions being each
    cone's inequalities (:func:`edge_directions_at`).
    """
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
    return LatticePolytope(n, tuple(tuple((mask >> i) & 1 for i in range(n))
                                    for mask in range(2 ** n)))


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
