"""Vertices, edges and pointedness by the closure test, against rank.

``LatticePolytope`` keeps, per facet, the set of vertices on it, and decides
by ``fan._is_face`` which listed points are vertices and which vertex pairs
span edges; ``cone_dual_description`` decides pointedness by the same test.
``oracles.py`` keeps the rank tests they replaced: a vertex is a point whose
tight facet normals have rank n, an edge a vertex pair whose common normals
have rank n - 1, and a cone is pointed iff its inequalities and equations
have rank n. The polytopes are seeded, in dimensions 2 to 5, with
non-simple ones (cross-polytopes and the 24-cell) and GL_n(Z) images.
"""

import random

import pytest

import oracles
from test_faces import TWENTY_FOUR_CELL
from test_kernel import random_cone_gens, random_unimodular
from toricroots import LatticePolytope, build_fan, cone_dual_description, edge_directions_at
from toricroots import polytope
from toricroots.errors import InvalidPolytope, NotStronglyConvex, ToricError
from toricroots.lattice import dot, mat_vec, neg, rank


def cross_polytope(n):
    return [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]


def box(n, side):
    return [tuple(side * ((mask >> i) & 1) for i in range(n)) for mask in range(2 ** n)]


def vertex_sets(dim, rng):
    """Vertex lists: the cross-polytope, the cube of side 2, the 24-cell in
    dimension 4, seeded hulls of random points, and a GL_n(Z) image of each."""
    out = [cross_polytope(dim), box(dim, 2)] + ([list(TWENTY_FOUR_CELL)] if dim == 4 else [])
    while len(out) < 5:
        count = rng.randint(dim + 2, dim + (6 if dim < 5 else 4))
        points = sorted({tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(count)})
        if rank([tuple(x - y for x, y in zip(p, points[0])) for p in points], dim) == dim:
            out.append(oracle_vertices(points, dim))
    for verts in list(out):
        g = random_unimodular(rng, dim)
        out.append([mat_vec(g, v) for v in verts])
    return out


def oracle_vertices(points, dim):
    """The points on dim independent facets of the hull."""
    fs = polytope._hull_facets(tuple(sorted(points)), dim)
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
    each vertex are those of the rank test; the normal fan is the one read
    off the rank test's vertex->facet map."""
    rng = random.Random(1100 + dim)
    non_simple = 0
    for verts in vertex_sets(dim, rng):
        p = LatticePolytope(dim, tuple(verts))
        fs, tight = oracles.rank_vertex_tight(dim, verts)
        assert polytope.facets(p) == fs
        for v in p.vertices:
            assert edge_directions_at(p, v) == oracles.rank_edge_directions_at(dim, verts, v)
        non_simple += any(len(t) > dim for t in tight.values())
        inner = sorted(neg(f.normal) for f in fs)
        cones = [[inner.index(neg(fs[k].normal)) for k in tight[v]] for v in p.vertices]
        assert polytope.normal_fan(p) == build_fan(dim, inner, cones)
    assert non_simple >= 2 or dim == 2  # polygons are simple; cross-polytopes are not


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
