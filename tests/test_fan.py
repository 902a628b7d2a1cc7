"""Fan validation, dual descriptions, completeness, automorphisms, builtins."""

import random
from itertools import combinations

import pytest

from helpers import (
    bundled_complete_fans,
    quadrant_fan,
    random_complete_fans_2d,
)
from toricroots import (
    LatticeAutomorphism,
    apply_automorphism,
    build_fan,
    builtin_fan,
    cone_dual_description,
    fan_from_json_dict,
    fan_to_json_dict,
    hirzebruch,
    is_complete,
    is_fan_automorphism,
    product_p1,
    projective_space,
    validate_fan,
    wps_one,
)
from toricroots.errors import (
    BadParams,
    DimensionMismatch,
    InvalidFan,
    NotStronglyConvex,
    NotUnimodular,
)
from toricroots.polytope import cube, dilated_simplex, scale, segment
from toricroots.lattice import dot


def same_fan(f1, f2) -> bool:
    """Equality as a fan: same ray set and same maximal-cone generator sets."""
    if set(f1.rays) != set(f2.rays):
        return False
    sets1 = {frozenset(f1.rays[i] for i in c.ray_indices) for c in f1.max_cones}
    sets2 = {frozenset(f2.rays[i] for i in c.ray_indices) for c in f2.max_cones}
    return sets1 == sets2


# ---------------------------------------------------------------------------
# dual descriptions


def test_dual_description_quadrant():
    ineqs, eqs = cone_dual_description([(1, 0), (0, 1)])
    assert set(ineqs) == {(1, 0), (0, 1)}
    assert eqs == ()


def test_dual_description_skew_cone():
    # subset-scan oracle: normals orthogonal to one generator, nonnegative on both
    gens = [(1, 0), (1, 5)]
    expected = set()
    for g in gens:
        for cand in [(g[1], -g[0]), (-g[1], g[0])]:
            if all(dot(cand, h) >= 0 for h in gens):
                expected.add(cand)
    assert expected == {(0, 1), (5, -1)}
    ineqs, eqs = cone_dual_description(gens)
    assert set(ineqs) == expected
    assert eqs == ()


def test_dual_description_rejects_line():
    with pytest.raises(NotStronglyConvex):
        cone_dual_description([(1, 0), (-1, 0)])


def test_a_generator_of_another_dimension_is_named():
    """Generators of one length that differs from dim are not of mixed
    dimension: the message names the first one and both dimensions."""
    with pytest.raises(DimensionMismatch, match=r"^generator 0 has dimension 2, expected 3$"):
        cone_dual_description([(1, 0), (0, 1)], 3)
    with pytest.raises(DimensionMismatch, match=r"^generator 1 has dimension 3, expected 2$"):
        cone_dual_description([(1, 0), (0, 1, 0)])


@pytest.mark.parametrize("gens, dim", [
    ([], True), ([(1,)], True), ([], 0), ([], -1), ([(1, 0)], -1),
    ([], 2.5), ([(1, 0)], 2.5), ([(1, 0)], 2.0), ([], "2"),
])
def test_dual_description_rejects_a_dim_that_is_not_a_positive_int(gens, dim):
    """An explicit dim must be an int, not a bool, and at least 1: the zero
    cone, a cone with generators, and a float equal to an int are all
    refused with BadParams, not described or failed with a TypeError."""
    with pytest.raises(BadParams, match=r"^dim must be a positive integer, got "):
        cone_dual_description(gens, dim)


def test_dual_description_single_ray():
    ineqs, eqs = cone_dual_description([(1, 0)])
    assert ineqs == ((1, 0),)
    assert eqs == ((0, 1),)


def test_dual_description_cone_over_square():
    gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    ineqs, eqs = cone_dual_description(gens)
    assert eqs == ()
    assert len(ineqs) == 4
    for g in gens:
        assert sum(1 for a in ineqs if dot(a, g) == 0) == 2


# ---------------------------------------------------------------------------
# validation


def test_validate_p2_ok():
    assert validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)]) == []


def test_validate_improper_overlap():
    violations = validate_fan(
        2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (0, 1, 2)])
    assert any("not strongly convex" in v for v in violations)


def test_validate_overlap_not_face():
    # two 2D cones overlapping in a 2D region that is a face of neither
    violations = validate_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    assert any("not a face" in v or "contained in another" in v for v in violations)


def test_validate_nonprimitive_ray():
    violations = validate_fan(2, [(2, 0), (0, 1)], [(0, 1)])
    assert any("not primitive" in v for v in violations)


def test_validate_missing_ray_use():
    violations = validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1)])
    assert any("does not appear" in v for v in violations)


def test_a_ray_listed_in_a_skipped_cone_appears():
    """A cone refused for a missing ray or a non-integer index still lists
    its in-range integer indices, so those rays are not reported unused."""
    assert validate_fan(1, [(1,), (-1,)], [(0,), (1, 5)]) == [
        "maximal cone 1 references a missing ray"]
    assert validate_fan(1, [(1,), (-1,)], [(0,), (1, 1.5)]) == [
        "maximal cone 1 has non-integer ray indices"]


def test_validate_a_cone_that_lists_a_ray_twice():
    """A repeated index is a violation, as repeated rays and cones are; it
    is not read as the cone on the distinct indices."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    assert validate_fan(2, rays, [(0, 0, 1), (1, 2), (2, 0)]) == [
        "maximal cone 0 lists a ray more than once"]
    assert validate_fan(2, rays, [(0, 1), (1, 2, 2, 1), (2, 0, 2)]) == [
        "maximal cone 1 lists a ray more than once",
        "maximal cone 2 lists a ray more than once"]
    with pytest.raises(InvalidFan):
        build_fan(2, rays, [(0, 0, 1), (1, 2), (2, 0)])


def test_build_fan_raises():
    with pytest.raises(InvalidFan):
        build_fan(2, [(2, 0), (0, 1)], [(0, 1)])


def test_all_faces_closed_under_faces():
    fan = projective_space(2)
    assert () in fan.face_sets
    for cone in fan.all_faces:
        for sub in combinations(cone.ray_indices, max(len(cone.ray_indices) - 1, 0)):
            # faces of simplicial cones are all index subsets
            assert tuple(sub) in fan.face_sets


# ---------------------------------------------------------------------------
# completeness


def test_is_complete_examples():
    assert is_complete(projective_space(2))
    assert not is_complete(quadrant_fan())
    for d in range(1, 5):
        assert is_complete(hirzebruch(d))


def coverage_oracle(fan, samples=200, seed=123):
    rng = random.Random(seed)
    for _ in range(samples):
        v = tuple(rng.randint(-40, 40) for _ in range(fan.dim))
        if all(x == 0 for x in v):
            continue
        if not fan.contains_point(v):
            return False
    return True


def test_complete_agrees_with_coverage_oracle():
    for name, fan in bundled_complete_fans():
        assert is_complete(fan), name
        assert coverage_oracle(fan), name
    assert not coverage_oracle(quadrant_fan())


def test_random_fans_complete():
    for fan in random_complete_fans_2d(seed=7, count=25):
        assert is_complete(fan)
        assert coverage_oracle(fan)


# ---------------------------------------------------------------------------
# automorphisms


def test_identity_automorphism():
    fan = hirzebruch(3)
    g = LatticeAutomorphism(((1, 0), (0, 1)))
    assert is_fan_automorphism(fan, g)
    assert same_fan(apply_automorphism(fan, g), fan)


def test_swap_on_p1xp1():
    fan = product_p1(2)
    swap = LatticeAutomorphism(((0, 1), (1, 0)))
    assert is_fan_automorphism(fan, swap)


def test_swap_on_f2_is_not_automorphism():
    fan = hirzebruch(2)
    swap = LatticeAutomorphism(((0, 1), (1, 0)))
    assert not is_fan_automorphism(fan, swap)  # (-1,2) maps to (2,-1), not a ray


@pytest.mark.parametrize("matrix", [
    ((2, 0), (0, 0.5)), ((1.0, 0), (0, 1)), ((1, 0), (0, True)), ((0, "1"), (1, 0))])
def test_an_automorphism_matrix_with_an_entry_that_is_not_an_int_is_refused(matrix):
    """A float (even 1.0, or a product of floats with determinant 1.0), a
    bool or a string is refused with NotUnimodular, as N is Z^n."""
    with pytest.raises(NotUnimodular, match="not an int"):
        LatticeAutomorphism(matrix)


@pytest.mark.parametrize("matrix", [5, None, "ab", (1, 0), ((1, 0), 5), ({0: 1}, (0, 1))])
def test_an_automorphism_matrix_that_is_not_rows_of_ints_is_refused(matrix):
    with pytest.raises(NotUnimodular, match="not a tuple or list of rows"):
        LatticeAutomorphism(matrix)


def test_apply_automorphism_roundtrip():
    fan = hirzebruch(2)
    g = LatticeAutomorphism(((1, 1), (0, 1)))
    back = apply_automorphism(apply_automorphism(fan, g), g.inverse())
    assert back == fan


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_automorphism(projective_space(3), LatticeAutomorphism(((1, 0), (0, 1))))


# ---------------------------------------------------------------------------
# builtins


def test_builtin_hirzebruch():
    fan = builtin_fan("hirzebruch", 2)
    assert fan.rays == ((1, 0), (0, 1), (-1, 2), (0, -1))
    assert len(fan.max_cones) == 4


def test_builtin_p2():
    fan = builtin_fan("pn", 2)
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))


def test_builtin_wps():
    fan = builtin_fan("wps1", 2, 3)
    assert fan.rays == ((1, 0), (0, 1), (-2, -3))
    assert is_complete(fan)


def test_builtin_bad_params():
    with pytest.raises(BadParams):
        builtin_fan("hirzebruch", 0)
    with pytest.raises(BadParams):
        builtin_fan("pn")
    with pytest.raises(BadParams):
        builtin_fan("nope", 1)
    with pytest.raises(BadParams):
        wps_one()


@pytest.mark.parametrize("name,params", [
    ("pn", (2.5,)), ("pn", ("2",)), ("p1n", (True,)), ("p1n", (2.0,)),
    ("hirzebruch", (False,)), ("wps1", (2, 2.5)), ("wps1", (True, 3))])
def test_builtin_params_must_be_ints(name, params):
    """A float, a string or a bool is refused with BadParams naming the
    generator, before the generator runs."""
    with pytest.raises(BadParams, match=f"^{name} takes integer parameters"):
        builtin_fan(name, *params)


@pytest.mark.parametrize("make,good", [
    (projective_space, (2,)), (product_p1, (2,)), (hirzebruch, (3,)), (wps_one, (2, 3)),
    (segment, (2,)), (cube, (2,)), (dilated_simplex, (2, 3)),
    (lambda k: scale(cube(2), k), (2,))],
    ids=["pn", "p1n", "hirzebruch", "wps1", "segment", "cube", "dsimplex", "scale"])
def test_generators_called_directly_refuse_parameters_that_are_not_ints(make, good):
    """Each generator that takes parameters, and scale, called without
    builtin_fan or builtin_polytope, refuses a float, a string or a bool in
    any position with BadParams, and builds from the ints."""
    make(*good)
    for k in range(len(good)):
        for bad in (2.0, 2.5, "3", True, False):
            with pytest.raises(BadParams):
                make(*good[:k], bad, *good[k + 1:])


@pytest.mark.parametrize("n", range(1, 7))
def test_projective_space_is_wps_one_of_ones(n):
    fan = projective_space(n)
    assert fan == wps_one(*(1,) * n)
    assert fan.all_faces == wps_one(*(1,) * n).all_faces


def test_projective_space_rejects_n_zero():
    with pytest.raises(BadParams, match=r"^projective_space needs n >= 1$"):
        projective_space(0)


def test_builtins_validate_and_complete():
    for name, fan in bundled_complete_fans():
        assert is_complete(fan), name


# ---------------------------------------------------------------------------
# JSON


def test_fan_json_roundtrip():
    fan = hirzebruch(2)
    data = fan_to_json_dict(fan)
    assert data == {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
                    "max_cones": [[0, 1], [0, 3], [1, 2], [2, 3]]}
    assert fan_from_json_dict(data) == fan


def test_fan_json_rejects_nonprimitive():
    data = {"dim": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}
    with pytest.raises(InvalidFan):
        fan_from_json_dict(data)


def test_fan_json_rejects_missing_keys():
    with pytest.raises(InvalidFan):
        fan_from_json_dict({"dim": 2})


def test_fan_json_ignores_unknown_keys():
    """Keys other than dim, rays and max_cones are ignored, as the README
    states, whatever their values."""
    data = fan_to_json_dict(hirzebruch(2))
    extra = dict(data, name="F_2", cones=[[0]], weights=None, ray=[[2, 0]])
    assert fan_from_json_dict(extra) == fan_from_json_dict(data) == hirzebruch(2)


def test_mixed_incomplete_fan_roots_work():
    # P^1 x affine line: one ray has a finite root set, the others infinite
    from toricroots import all_roots

    fan = build_fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 2), (1, 2)])
    assert not is_complete(fan)
    statuses = {rr.ray: rr.status for rr in all_roots(fan).per_ray}
    assert statuses == {0: "infinite", 1: "infinite", 2: "finite"}


def test_validate_fan_rejects_non_integer_dim_and_indices():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [(0, 1), (1, 2), (2, 0)]
    for dim in (2.0, "2", True, None):
        assert validate_fan(dim, rays, cones) == ["dim must be an integer"]
    for bad in ((1.0, 2), ("1", 2), (False, 2)):
        assert validate_fan(2, rays, [(0, 1), bad, (2, 0)])[0] == (
            "maximal cone 1 has non-integer ray indices")
    for bad in (7, None):
        assert validate_fan(2, rays, [(0, 1), bad, (2, 0)])[0] == (
            "maximal cone 1 is not a list of ray indices")
    for bad in (7, None, {"0": 1}):
        assert validate_fan(2, rays, bad) == ["max_cones must be a list"]
    assert validate_fan(2, rays, cones) == []
