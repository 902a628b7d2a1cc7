"""Lattice polytopes: facets, the rectangle criterion, normal fans."""

import time

import pytest

from helpers import random_lattice_polygons
from toricroots import (
    LatticeAutomorphism,
    LatticePolytope,
    builtin_polytope,
    check_polytope_theorem,
    edge_directions_at,
    facets,
    hirzebruch,
    inscribed_in_rectangle,
    is_complete,
    normal_fan,
    polytope_from_json_dict,
    polytope_to_json_dict,
    product_p1,
    projective_space,
    scale,
)
from toricroots.errors import (
    BadParams,
    DegeneratePolytope,
    InvalidPolytope,
)
from toricroots.polytope import (
    cube,
    dilated_simplex,
    segment,
    skew_triangle,
    trapezoid,
)


def same_fan(f1, f2) -> bool:
    if set(f1.rays) != set(f2.rays):
        return False
    sets1 = {frozenset(f1.rays[i] for i in c.ray_indices) for c in f1.max_cones}
    sets2 = {frozenset(f2.rays[i] for i in c.ray_indices) for c in f2.max_cones}
    return sets1 == sets2


# ---------------------------------------------------------------------------
# construction and facets


def test_segment_facets():
    fs = facets(segment(3))
    assert [(f.normal, f.rhs) for f in fs] == [((-1,), 0), ((1,), 3)]


def test_square_facets():
    fs = facets(cube(2))
    assert {(f.normal, f.rhs) for f in fs} == {
        ((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)}


def test_trapezoid_facets():
    fs = facets(trapezoid())
    assert {(f.normal, f.rhs) for f in fs} == {
        ((-1, 0), 0), ((0, -1), 0), ((1, 0), 2), ((1, 1), 3)}


def test_facets_roundtrip_vertices():
    # vertices are exactly the points where the tight facet normals have full rank
    for poly in [trapezoid(), cube(2), dilated_simplex(3, 2), skew_triangle()]:
        fs = facets(poly)
        for v in poly.vertices:
            tight = [f.normal for f in fs if sum(a * b for a, b in zip(f.normal, v)) == f.rhs]
            assert len(tight) >= poly.dim


def test_rejects_non_extreme_point():
    with pytest.raises(InvalidPolytope):
        LatticePolytope(2, ((0, 0), (2, 0), (1, 0), (0, 2)))
    with pytest.raises(InvalidPolytope):
        LatticePolytope(1, ((0,), (1,), (2,)))


def test_rejects_degenerate():
    with pytest.raises(DegeneratePolytope):
        LatticePolytope(2, ((0, 0), (1, 1), (2, 2)))


@pytest.mark.parametrize("points", [0, 1])
def test_fewer_points_than_dim_plus_one_are_refused_with_no_elimination(points):
    """Fewer than dim + 1 lifted points cannot span Q^(dim + 1), so the
    hull refuses them before the elimination: at dim 10^6 the identity
    block of the basis inverse alone would have 10^12 entries."""
    dim = 10 ** 6
    vertices = tuple(tuple(int(i == k) for i in range(dim)) for k in range(points))
    start = time.perf_counter()
    with pytest.raises(DegeneratePolytope, match="not full-dimensional"):
        LatticePolytope(dim, vertices)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# inscribed in a rectangle


def test_segment_witness():
    w = inscribed_in_rectangle(segment(4))
    assert w.vertex == (0,) and w.edge_basis == ((1,),)


def test_trapezoid_witness():
    w = inscribed_in_rectangle(trapezoid())
    assert w.vertex == (0, 0)
    assert set(w.edge_basis) == {(1, 0), (0, 1)}


def test_skew_triangle_not_inscribed():
    poly = skew_triangle()
    # every vertex has edge pairs of determinant +-3
    for v in poly.vertices:
        dirs = edge_directions_at(poly, v)
        assert len(dirs) == 2
        det = dirs[0][0] * dirs[1][1] - dirs[0][1] * dirs[1][0]
        assert abs(det) == 3
    assert inscribed_in_rectangle(poly) is None


def test_edge_directions_at_a_point_that_is_no_vertex():
    with pytest.raises(ValueError, match=r"point \[5, 5\] is not a vertex"):
        edge_directions_at(cube(2), (5, 5))


def test_edge_directions_at_a_vertex_given_as_a_list():
    p = cube(2)
    for v in p.vertices:
        assert edge_directions_at(p, list(v)) == edge_directions_at(p, v)
    assert edge_directions_at(p, [0, 0]) == ((0, 1), (1, 0))
    with pytest.raises(ValueError, match=r"point \[5, 5\] is not a vertex"):
        edge_directions_at(p, [5, 5])


def test_edge_directions_at_points_between_and_beyond_the_vertices():
    """The vertex is found by bisection in the sorted vertices: a point
    before the first, after the last, between two, or of another length
    is not one."""
    p = cube(3)
    for bad in [(-1, 0, 0), (2, 2, 2), (0, 0, 2), (0, 1), (0, 0, 0, 0), ()]:
        with pytest.raises(ValueError, match="is not a vertex"):
            edge_directions_at(p, bad)
    assert edge_directions_at(p, (1, 1, 1)) == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_simplex_witness_at_origin():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            w = inscribed_in_rectangle(dilated_simplex(n, d))
            assert w is not None and w.vertex == tuple([0] * n)


# ---------------------------------------------------------------------------
# normal fans


def test_normal_fan_segment():
    assert same_fan(normal_fan(segment(4)), projective_space(1))


def test_normal_fan_square():
    assert same_fan(normal_fan(cube(2)), product_p1(2))


def test_normal_fan_simplex():
    assert same_fan(normal_fan(dilated_simplex(2, 3)), projective_space(2))


def test_normal_fan_trapezoid_is_hirzebruch1():
    nf = normal_fan(trapezoid())
    assert set(nf.rays) == {(1, 0), (0, 1), (-1, 0), (-1, -1)}
    f1 = hirzebruch(1)
    # search a unimodular map carrying one fan onto the other
    basis_idx = (nf.rays.index((1, 0)), nf.rays.index((0, 1)))
    found = None
    for a in f1.rays:
        for b in f1.rays:
            if a == b:
                continue
            gamma = tuple(zip(a, b))  # columns a, b
            try:
                g = LatticeAutomorphism(gamma)
            except Exception:
                continue
            image = [g.apply(r) for r in nf.rays]
            if set(image) == set(f1.rays):
                cones_img = {frozenset(image[i] for i in c.ray_indices)
                             for c in nf.max_cones}
                cones_f1 = {frozenset(f1.rays[i] for i in c.ray_indices)
                            for c in f1.max_cones}
                if cones_img == cones_f1:
                    found = g
                    break
        if found:
            break
    assert found is not None, "no unimodular identification with the F_1 fan"


def test_normal_fans_validate_and_complete():
    polys = [segment(2), cube(2), trapezoid(), skew_triangle(), dilated_simplex(3, 2)]
    polys += random_lattice_polygons(seed=3, count=15)
    for poly in polys:
        nf = normal_fan(poly)
        assert is_complete(nf)


# ---------------------------------------------------------------------------
# scaling


@pytest.mark.parametrize("name,params", [
    ("cube", (2.5,)), ("cube", (True,)), ("segment", ("3",)), ("dsimplex", (2, 2.0)),
    ("dsimplex", (False, 1))])
def test_builtin_params_must_be_ints(name, params):
    with pytest.raises(BadParams, match=f"^{name} takes integer parameters"):
        builtin_polytope(name, *params)


def test_scale_examples():
    assert scale(segment(1), 3).vertices == ((0,), (3,))
    assert scale(cube(2), 2).vertices == tuple(sorted(
        (2 * x, 2 * y) for x in (0, 1) for y in (0, 1)))
    with pytest.raises(BadParams):
        scale(cube(2), 0)


def test_scale_preserves_normal_fan():
    for poly in [trapezoid(), cube(2), dilated_simplex(2, 2)]:
        for k in (2, 3):
            assert normal_fan(scale(poly, k)) == normal_fan(poly)


# ---------------------------------------------------------------------------
# the polytope criterion


def test_check_polytope_theorem_examples():
    r = check_polytope_theorem(trapezoid())
    assert (r.inscribed, r.fan_admits) == (True, True)
    r = check_polytope_theorem(skew_triangle())
    assert (r.inscribed, r.fan_admits) == (False, False)
    r = check_polytope_theorem(dilated_simplex(3, 2))
    assert (r.inscribed, r.fan_admits) == (True, True)


def test_criterion_agrees_on_random_polygons():
    for poly in random_lattice_polygons(seed=17, count=40):
        r = check_polytope_theorem(poly)
        assert r.inscribed == r.fan_admits, poly.vertices


# ---------------------------------------------------------------------------
# JSON


def test_polytope_json_roundtrip():
    poly = trapezoid()
    data = polytope_to_json_dict(poly)
    assert data == {"dim": 2, "vertices": [[0, 0], [0, 3], [2, 0], [2, 1]]}
    assert polytope_from_json_dict(data) == poly


def test_polytope_json_rejects_non_extreme():
    with pytest.raises(InvalidPolytope):
        polytope_from_json_dict({"dim": 1, "vertices": [[0], [1], [2]]})


def test_polytope_json_ignores_unknown_keys():
    """Keys other than dim and vertices are ignored, as the README states,
    whatever their values."""
    data = polytope_to_json_dict(trapezoid())
    extra = dict(data, name="trapezoid", facets=[[1, 0]], points=[[9, 9]], dims=3)
    assert polytope_from_json_dict(extra) == polytope_from_json_dict(data) == trapezoid()


def test_polytope_json_rejects_non_integer_dim():
    """The reader and the constructor reject a non-integer dim or
    coordinate alike, with the same message."""
    def read(dim, vertices):
        return polytope_from_json_dict({"dim": dim, "vertices": vertices})

    for make in (read, LatticePolytope):
        for dim in (2.5, 2.0, "2", True):
            with pytest.raises(InvalidPolytope, match="bad polytope data: dim must be an integer"):
                make(dim, [[0, 0], [1, 0], [0, 1]])
        for point in ([1.5, 0], [True, 0], ["1", 0]):
            with pytest.raises(InvalidPolytope,
                               match="bad polytope data: integer coordinate expected, got"):
                make(2, [[0, 0], point, [0, 1]])
        with pytest.raises(InvalidPolytope, match="bad polytope data: "):
            make(2, [[0, 0], 1, [0, 1]])


def test_derived_facet_data_is_stored_not_compared():
    poly = cube(3)
    assert facets(poly) is facets(poly)
    assert poly == cube(3) and hash(poly) == hash(cube(3))
    assert repr(poly) == f"LatticePolytope(dim=3, vertices={poly.vertices!r})"
    r = check_polytope_theorem(poly)
    assert r.witness == inscribed_in_rectangle(poly) and r.inscribed


def test_octahedron_non_simplicial_normal_fan():
    # every maximal cone of the normal fan has 4 generators (non-simplicial)
    octa = LatticePolytope(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                               (0, -1, 0), (0, 0, 1), (0, 0, -1)))
    nf = normal_fan(octa)
    assert sorted(len(c.ray_indices) for c in nf.max_cones) == [4] * 6
    assert is_complete(nf)
    assert len(nf.all_faces) == 27  # 1 + 8 + 12 + 6
    r = check_polytope_theorem(octa)
    assert (r.inscribed, r.fan_admits) == (False, False)


def test_cube3_normal_fan_is_p1_cubed():
    assert same_fan(normal_fan(cube(3)), product_p1(3))
