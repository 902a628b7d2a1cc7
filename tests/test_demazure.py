"""Demazure roots, the commuting criterion and its symbolic oracle, orbit pairs."""

import pytest

from helpers import bundled_complete_fans, quadrant_fan, random_complete_fans_2d
from oracles import bracket_oracle
from test_cli import counting
from toricroots import (
    all_roots,
    build_fan,
    commute,
    complete_collections,
    demazure_root,
    derivation,
    format_derivation,
    he_connected_pairs,
    hirzebruch,
    is_demazure_root,
    product_p1,
    projective_space,
    roots_for_ray,
)
from toricroots import demazure
from toricroots.demazure import satisfies_condition1, satisfies_condition2
from toricroots.errors import BadParams, InvalidFan
from toricroots.lattice import UNBOUNDED, Constraint, dot, identity, lattice_points


def _root_vectors(fan):
    return {(rr.ray, r.vector) for rr in all_roots(fan).per_ray for r in rr.roots}


# ---------------------------------------------------------------------------
# roots per ray


@pytest.mark.parametrize("d", range(1, 6))
def test_hirzebruch_down_ray_roots(d):
    fan = hirzebruch(d)
    rr = roots_for_ray(fan, 3)  # ray (0, -1)
    assert rr.status == "finite"
    assert [r.vector for r in rr.roots] == [(k, 1) for k in range(d + 1)]


def test_quadrant_roots_infinite():
    fan = quadrant_fan()
    rr = roots_for_ray(fan, 0)
    assert rr.status == "infinite"
    assert rr.roots == ()


def test_quadrant_roots_truncated():
    fan = quadrant_fan()
    rr = roots_for_ray(fan, 0, bound=3)
    assert rr.status == "truncated" and rr.bound == 3
    assert [r.vector for r in rr.roots] == [(-1, c) for c in range(4)]


@pytest.mark.parametrize("e", [(1.5, 0), ("a", 0), (True, 0), (-1.0, 0)])
def test_a_root_vector_with_a_coordinate_that_is_not_an_int_is_refused(e):
    """(1.5, 0) read False and ("a", 0) raised an untyped TypeError; the
    vector is read by lattice.vec, as cone_dual_description reads its
    generators."""
    fan = projective_space(2)
    for check in (is_demazure_root, demazure_root):
        with pytest.raises(TypeError, match="integer coordinate expected"):
            check(fan, e, 0)


def test_empty_condition1_polyhedron_is_finite():
    """Ray e1 + e2 of the fan with cones {e1, e1+e2, e3} and {e1+e2, e2, e3}:
    <e1 + e2, e> = -1 with <e1, e>, <e2, e> >= 0 has no solution, so the ray
    has no roots and is "finite", with or without a bound; the rays e1, e2,
    e3 have non-empty unbounded polyhedra."""
    fan = build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], [(0, 3, 2), (3, 1, 2)])
    for bound in (None, 2):
        rr = roots_for_ray(fan, 3, bound)
        assert (rr.status, rr.roots, rr.bound) == ("finite", (), None)
    assert [roots_for_ray(fan, i).status for i in range(3)] == ["infinite"] * 3


def test_p2_ray_roots_against_enumeration_oracle():
    fan = projective_space(2)
    # oracle: raw condition-(1) lattice points for ray 0, before the cone filter
    sys = [Constraint((1, 0), "=", -1), Constraint((0, 1), ">=", 0),
           Constraint((-1, -1), ">=", 0)]
    raw = lattice_points(sys, 2)
    assert raw is not UNBOUNDED
    rr = roots_for_ray(fan, 0)
    assert [r.vector for r in rr.roots] == list(raw) == [(-1, 0), (-1, 1)]


def test_all_roots_counts():
    assert len(_root_vectors(hirzebruch(1))) == 4
    assert len(_root_vectors(projective_space(2))) == 6
    p1sq = _root_vectors(product_p1(2))
    assert len(p1sq) == 4
    # distinguished ray of each root is the ray opposite to the root vector
    fan = product_p1(2)
    for ray_idx, vector in p1sq:
        assert fan.rays[ray_idx] == tuple(-x for x in vector)


def test_root_listing_is_sorted_and_unique():
    for name, fan in bundled_complete_fans():
        for rr in all_roots(fan).per_ray:
            vecs = [r.vector for r in rr.roots]
            assert vecs == sorted(set(vecs)), name


# ---------------------------------------------------------------------------
# conditions (1) and (2)


def test_emitted_roots_satisfy_condition1():
    for name, fan in bundled_complete_fans():
        for rr in all_roots(fan).per_ray:
            for r in rr.roots:
                assert satisfies_condition1(fan, r.vector, r.ray), name
                assert r.pairings == tuple(dot(p, r.vector) for p in fan.rays)


def test_condition1_implies_condition2_on_complete_fans():
    fans = [f for _, f in bundled_complete_fans()]
    fans += random_complete_fans_2d(seed=11, count=30)
    for fan in fans:
        for ray in range(len(fan.rays)):
            sys = [Constraint(fan.rays[ray], "=", -1)]
            sys += [Constraint(p, ">=", 0) for i, p in enumerate(fan.rays) if i != ray]
            points = lattice_points(sys, fan.dim)
            assert points is not UNBOUNDED
            for e in points:
                assert satisfies_condition2(fan, e, ray)


def test_condition2_can_fail_on_nonconvex_support():
    # two opposite quadrants: e = (-1, 0) on ray (1, 0) satisfies (1) but the
    # ray (0, 1) cone extended by (1, 0) is missing from the fan
    fan = build_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (2, 3)])
    assert satisfies_condition1(fan, (-1, 0), 0)
    assert not satisfies_condition2(fan, (-1, 0), 0)
    assert not is_demazure_root(fan, (-1, 0), 0)


# ---------------------------------------------------------------------------
# commuting criterion and its oracle


def test_commute_examples():
    for d in (1, 2, 3):
        fan = hirzebruch(d)
        r_right = demazure_root(fan, (1, 0), 2)
        r_top = demazure_root(fan, (d, 1), 3)
        r_left = demazure_root(fan, (-1, 0), 0)
        assert commute(r_right, r_top)
        assert not commute(r_right, r_left)
        same_ray = [demazure_root(fan, (k, 1), 3) for k in range(d + 1)]
        for a in same_ray:
            for b in same_ray:
                assert commute(a, b)


def test_bracket_oracle_examples():
    fan = hirzebruch(2)
    d_right = derivation(fan, demazure_root(fan, (1, 0), 2))
    d_top = derivation(fan, demazure_root(fan, (2, 1), 3))
    d_left = derivation(fan, demazure_root(fan, (-1, 0), 0))
    assert bracket_oracle(d_right, d_right)
    assert bracket_oracle(d_right, d_top)
    assert not bracket_oracle(d_right, d_left)


def test_commute_matches_bracket_oracle_everywhere():
    for name, fan in bundled_complete_fans():
        roots = all_roots(fan).roots()
        derivs = {r: derivation(fan, r) for r in roots}
        for a in roots:
            for b in roots:
                assert commute(a, b) == bracket_oracle(derivs[a], derivs[b]), name


# ---------------------------------------------------------------------------
# derivations


def test_derivation_formula_affine():
    # single-quadrant fan: exponents of the derivation are the root coordinates
    fan = quadrant_fan()
    rr = roots_for_ray(fan, 0, bound=2)
    for r in rr.roots:
        d = derivation(fan, r)
        assert d.target == 0
        assert dict(d.exponents) == {1: r.vector[1]}


def test_derivation_rendering_hirzebruch():
    fan = hirzebruch(3)
    rendered = [format_derivation(derivation(fan, r)) for r in all_roots(fan).roots()]
    assert "x2*x3^3 d/dx4" in rendered      # k = 0
    assert "x1*x2*x3^2 d/dx4" in rendered   # k = 1
    assert "x1^3*x2 d/dx4" in rendered      # k = 3
    assert "x3 d/dx1" in rendered
    assert "x1 d/dx3" in rendered


def test_derivation_rendering_p2():
    fan = projective_space(2)
    r = demazure_root(fan, (-1, 0), 0)
    assert format_derivation(derivation(fan, r)) == "x3 d/dx1"


# ---------------------------------------------------------------------------
# orbit pairs


def test_pairs_p1():
    fan = projective_space(1)
    root = demazure_root(fan, (-1,), 0)
    pairs = he_connected_pairs(fan, root)
    assert len(pairs) == 1
    facet, cone = pairs[0]
    assert facet.ray_indices == () and cone.ray_indices == (0,)


def test_pairs_p2():
    fan = projective_space(2)
    root = demazure_root(fan, (-1, 0), 0)
    pairs = he_connected_pairs(fan, root)
    got = {(a.ray_indices, b.ray_indices) for a, b in pairs}
    assert got == {((), (0,)), ((1,), (0, 1))}


def test_pairs_f1():
    fan = hirzebruch(1)
    root = demazure_root(fan, (0, 1), 3)
    pairs = he_connected_pairs(fan, root)
    got = {(tuple(fan.rays[i] for i in a.ray_indices),
            tuple(fan.rays[i] for i in b.ray_indices)) for a, b in pairs}
    assert got == {((), ((0, -1),)), (((1, 0),), ((1, 0), (0, -1)))}


def test_pairs_dimension_law():
    for name, fan in bundled_complete_fans():
        for root in all_roots(fan).roots():
            for facet, cone in he_connected_pairs(fan, root):
                assert cone.dim == facet.dim + 1, name


def test_bound_must_be_positive():
    with pytest.raises(BadParams):
        roots_for_ray(quadrant_fan(), 0, bound=0)


@pytest.mark.parametrize("bound", [True, False, 2.5, 2.0, "3", 0, -1])
def test_a_bound_that_is_not_a_positive_int_is_refused(bound):
    """On a fan whose roots are infinite and on a complete one, where the
    bound is not used: a bool is no bound, and neither is a float or a
    string. all_roots checks it once per call, so a fan with no ray, which
    has no root to enumerate, refuses it too."""
    for fan in (quadrant_fan(), projective_space(2)):
        with pytest.raises(BadParams, match="^bound must be a positive integer$"):
            roots_for_ray(fan, 0, bound)
        with pytest.raises(BadParams, match="^bound must be a positive integer$"):
            all_roots(fan, bound)
    with pytest.raises(BadParams, match="^bound must be a positive integer$"):
        all_roots(build_fan(2, [], []), bound)


@pytest.mark.parametrize("ray", [True, False, 1.0, "0", None, -1, 3])
def test_a_ray_index_that_is_not_an_int_in_range_is_refused(ray):
    """A bool ray index is refused like one out of range, by the root
    enumeration and by the root tests."""
    for fan in (quadrant_fan(), projective_space(2)):
        for call in (lambda: roots_for_ray(fan, ray), lambda: roots_for_ray(fan, ray, 2),
                     lambda: is_demazure_root(fan, (0, -1), ray),
                     lambda: demazure_root(fan, (0, -1), ray)):
            with pytest.raises(InvalidFan, match="no ray with index"):
                call()


def test_a_bound_whose_box_is_too_large_is_refused(monkeypatch):
    """A truncated enumeration refuses a bound for which the box may hold
    more than MAX_BOX_POINTS points on <p_rho, e> = -1, that is
    (2 * bound + 1)^(dim - 1), before it builds the box; a bound at the
    limit is enumerated. Roots that are finite ignore the bound."""
    quadrant, octant = quadrant_fan(), build_fan(3, identity(3), [(0, 1, 2)])
    with pytest.raises(BadParams, match="^bound 100000000000000000000 is too large"):
        roots_for_ray(quadrant, 0, bound=10 ** 20)
    assert all_roots(projective_space(2), bound=10 ** 20) == all_roots(projective_space(2))
    for dim, bound in ((2, 6), (3, 5), (4, 3)):  # the largest boxes the benchmark asks for
        assert (2 * bound + 1) ** (dim - 1) <= demazure.MAX_BOX_POINTS
    monkeypatch.setattr(demazure, "MAX_BOX_POINTS", 9)
    assert roots_for_ray(quadrant, 0, bound=4).roots[-1].vector == (-1, 4)
    assert len(roots_for_ray(octant, 0, bound=1).roots) == 4
    for fan, bound in ((quadrant, 5), (octant, 2)):  # 11 and 25 points
        with pytest.raises(BadParams, match="more than 9$"):
            roots_for_ray(fan, 0, bound=bound)


def test_complete_fan_roots_ignore_bound():
    for name, fan in bundled_complete_fans():
        assert all_roots(fan, bound=2) == all_roots(fan), name


# ---------------------------------------------------------------------------
# one pairing row per candidate


def test_ray_index_out_of_range_is_an_invalid_fan():
    fan = projective_space(2)
    for ray in (7, 3, -1):
        with pytest.raises(InvalidFan):
            is_demazure_root(fan, (-1, 0), ray)
        with pytest.raises(InvalidFan):
            demazure_root(fan, (-1, 0), ray)
    assert is_demazure_root(fan, (-1, 0), 0)


def test_one_pairing_row_per_candidate(monkeypatch):
    """is_demazure_root and demazure_root compute one pairing row; the roots
    of a ray one per candidate vector, and the complete collections one per
    distinct candidate (vector, ray), however many cones share it."""
    rows = counting(monkeypatch, demazure, "pairing_row")
    fan = hirzebruch(2)
    assert is_demazure_root(fan, (-1, 0), 0) and len(rows) == 1
    assert not is_demazure_root(fan, (1, 0), 0) and len(rows) == 2
    assert demazure_root(fan, (-1, 0), 0).pairings == (-1, 0, 1, 0) and len(rows) == 3
    rows.clear()
    found = roots_for_ray(fan, 3)  # e = (k, 1), k = 0, 1, 2
    assert len(rows) == len(found.roots) > 1
    cube = product_p1(3)  # every maximal cone carries a collection
    rows.clear()
    assert len(complete_collections(cube)) == 8 and len(rows) == 2 * 3
