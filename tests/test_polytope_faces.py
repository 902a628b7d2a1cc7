"""Vertices, edges and pointedness against the tests they replaced.

``LatticePolytope`` keeps, per facet, the set of vertices on it, and decides
by ``fan._is_face`` which listed points are vertices;
``cone_dual_description`` decides pointedness by the same test. A vertex's
edges are the stored inequalities of its cone in the normal fan.
``oracles.py`` keeps the tests they replaced: a vertex is a point whose
tight facet normals have rank n, an edge a vertex pair whose common normals
have rank n - 1 or, by the closure test, a vertex pair that are the only
vertices on the facets through both, and a cone is pointed iff its
inequalities and equations have rank n. The polytopes are seeded, in
dimensions 2 to 5, with non-simple ones (cross-polytopes and the 24-cell),
the permutohedra of orders 4 and 5, and GL_n(Z) images. The rectangle test
and the complete collections of the normal fan then agree vertex by vertex.
"""

import random

import pytest

import oracles
from helpers import permutohedron, random_lattice_polygons
from test_cli import counting
from test_faces import TWENTY_FOUR_CELL
from test_kernel import random_cone_gens, random_unimodular
from toricroots import (
    LatticePolytope,
    RectangleWitness,
    build_fan,
    check_polytope_theorem,
    complete_collections,
    cone_dual_description,
    edge_directions_at,
    inscribed_in_rectangle,
    normal_fan,
)
from toricroots import polytope
from toricroots.errors import InvalidPolytope, NotStronglyConvex, ToricError
from toricroots.lattice import determinant, dot, mat_vec, neg, rank
from toricroots.polytope import cube, dilated_simplex, skew_triangle, trapezoid


def cross_polytope(n):
    return [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]


def box(n, side):
    return [tuple(side * ((mask >> i) & 1) for i in range(n)) for mask in range(2 ** n)]


def vertex_sets(dim, rng):
    """Vertex lists: the cross-polytope, the cube of side 2, the 24-cell in
    dimension 4, seeded hulls of random points, the permutohedron of order 4
    or 5 in dimensions 3 and 4, and a GL_n(Z) image of each."""
    out = [cross_polytope(dim), box(dim, 2)] + ([list(TWENTY_FOUR_CELL)] if dim == 4 else [])
    while len(out) < 5:
        count = rng.randint(dim + 2, dim + (6 if dim < 5 else 4))
        points = sorted({tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(count)})
        if rank([tuple(x - y for x, y in zip(p, points[0])) for p in points], dim) == dim:
            out.append(oracle_vertices(points, dim))
    if dim in (3, 4):
        out.append(permutohedron(dim + 1))
    for verts in list(out):
        g = random_unimodular(rng, dim)
        out.append([mat_vec(g, v) for v in verts])
    return out


def oracle_vertices(points, dim):
    """The points on dim independent facets of the hull."""
    fs, _ = polytope._hull_facets(tuple(sorted(points)), dim)
    return [v for v in points
            if rank([f.normal for f in fs if dot(f.normal, v) == f.rhs], dim) == dim]


def rejection(make):
    """(type, message) of the error make() raises, or None."""
    try:
        make()
    except ToricError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("dim", (2, 3, 4, 5))
def test_vertices_and_edges_match_the_rank_tests(dim):
    """Every vertex list builds, as the rank test accepts it; the edges at
    each vertex, read off its normal cone, are those of the rank test and of
    the vertex-pair closure scan; the normal fan is the one read off the
    rank test's vertex->facet map."""
    rng = random.Random(1100 + dim)
    non_simple = 0
    for verts in vertex_sets(dim, rng):
        p = LatticePolytope(dim, tuple(verts))
        fs, tight = oracles.rank_vertex_tight(dim, verts)
        assert polytope.facets(p) == fs
        for v in p.vertices:
            dirs = edge_directions_at(p, v)
            assert dirs == oracles.pair_edge_directions_at(p, v)
            assert dirs == oracles.rank_edge_directions_at(dim, verts, v)
        non_simple += any(len(t) > dim for t in tight.values())
        inner = sorted(neg(f.normal) for f in fs)
        cones = [[inner.index(neg(fs[k].normal)) for k in tight[v]] for v in p.vertices]
        assert polytope.normal_fan(p) == build_fan(dim, inner, cones)
    assert non_simple >= 2 or dim == 2  # polygons are simple; cross-polytopes are not


def passes_rectangle_test(p, v, dirs):
    """The rectangle condition at v on the given edge directions: a lattice
    basis pairing nonnegatively with every facet normal away from v."""
    return (len(dirs) == p.dim and abs(determinant(dirs)) == 1
            and all(dot(f.normal, e) >= 0
                    for f in polytope.facets(p) if dot(f.normal, v) != f.rhs for e in dirs))


def test_rectangle_vertices_are_the_normal_cones_with_a_collection():
    """A vertex passes the rectangle test, on the edges of the vertex-pair
    scan, iff its cone in the normal fan carries a complete collection, and
    that collection's roots are the negated edge basis; the first passing
    vertex is the witness, and the two sides of the theorem agree."""
    polytopes = ([cube(n) for n in (2, 3, 4)] + [dilated_simplex(3, 2), trapezoid(), skew_triangle()]
                 + random_lattice_polygons(5, 300))
    witnesses = misses = 0
    for p in polytopes:
        fan = normal_fan(p)
        carried = {c.ray_indices: c for c in complete_collections(fan)}
        first = None
        for v in p.vertices:
            dirs = oracles.pair_edge_directions_at(p, v)
            cone = tuple(sorted(fan.rays.index(neg(f.normal))
                                for f in polytope.facets(p) if dot(f.normal, v) == f.rhs))
            passes = passes_rectangle_test(p, v, dirs)
            assert passes == (cone in carried), (p, v)
            if passes:
                assert sorted(carried[cone].root_vectors) == sorted(neg(e) for e in dirs)
                first = first or RectangleWitness(v, dirs)
            witnesses += passes
            misses += not passes
        assert inscribed_in_rectangle(p) == first
        report = check_polytope_theorem(p)
        assert report.inscribed == report.fan_admits == (first is not None)
    assert witnesses >= 50 and misses >= 50


def test_edges_read_no_vertex_pair_and_build_no_face_index(monkeypatch):
    """On the order-5 permutohedron (120 vertices, no witness, so every
    vertex is tried), the only closure tests are those of the normal fan's
    assembly: one per vertex and candidate neighbour, and on this simple
    polytope the candidates are the 4 neighbours, not the 119 other
    vertices. The edges at every vertex then make none, and the normal
    fan's face index stays unbuilt."""
    p = LatticePolytope(4, tuple(permutohedron(5)))
    closures = counting(monkeypatch, polytope, "_is_face")
    assert inscribed_in_rectangle(p) is None
    assert len(closures) == 120 * 4
    closures.clear()
    for v in p.vertices:
        assert len(edge_directions_at(p, v)) == 4
    assert closures == []
    assert normal_fan(p)._by_rays is None


@pytest.mark.parametrize("dim", (2, 3, 4, 5))
def test_non_vertices_are_rejected_like_the_rank_test(dim):
    """An interior point, an edge midpoint and seeded non-extreme points:
    both tests reject the list with the same error type and message (the
    first non-vertex in sorted order), and accept it without them."""
    rng = random.Random(1200 + dim)
    cases = []
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(2)]
    cross = [tuple(2 * x for x in v) for v in cross_polytope(dim)]
    for verts, interior, midpoint in ((box(dim, 2), (1,) * dim, unit[0]),
                                      (cross, (0,) * dim, tuple(map(sum, zip(*unit))))):
        cases += [verts + [interior], verts + [midpoint], verts + [interior, midpoint]]
    while len(cases) < 12:
        points = sorted({tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(3 * dim)})
        if rank([tuple(x - y for x, y in zip(p, points[0])) for p in points], dim) < dim:
            continue
        if len(oracle_vertices(points, dim)) < len(points):
            cases.append(points)
    for points in cases:
        want = rejection(lambda: oracles.rank_vertex_tight(dim, points))
        assert want is not None and want[0] is InvalidPolytope
        assert rejection(lambda: LatticePolytope(dim, tuple(points))) == want, points
        assert "is not a vertex" in want[1]
        LatticePolytope(dim, tuple(oracle_vertices(points, dim)))


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5))
def test_pointedness_matches_the_rank_test(dim):
    """Pointed cones, cones with a line (full-dimensional or not) and the
    zero cone: both tests return the same description or raise
    NotStronglyConvex with the same message."""
    rng = random.Random(1300 + dim)
    outcomes = set()
    cases = [((), dim), (((1,) + (0,) * (dim - 1), (-1,) + (0,) * (dim - 1)), dim)]
    for k in range(30):
        gens = random_cone_gens(rng, dim, "pointed") if dim > 1 else [(rng.choice((1, -1)),)]
        if k % 3 == 1:  # a line through a generator
            gens = gens + [neg(gens[0])]
        elif k % 3 == 2 and len(gens) > 1:  # a lower-dimensional cone with a line
            gens = [gens[0], neg(gens[0]), gens[1]]
        cases.append((tuple(gens), dim))
    for gens, d in cases:
        want = rejection(lambda: oracles.rank_cone_dual_description(gens, d))
        got = rejection(lambda: cone_dual_description(gens, d))
        assert got == want, gens
        if want is None:
            assert cone_dual_description(gens, d) == oracles.rank_cone_dual_description(gens, d)
        else:
            assert want == (NotStronglyConvex, "cone contains a line")
        outcomes.add(want is None)
    assert outcomes == {True, False}
