"""Faces read off their maximal cones, and the answers stored on a Fan or a
LatticePolytope.

``build_fan`` computes a dual description for the maximal cones only; every
other face takes one facet normal of its maximal cone per facet and, as
equations, that cone's equations plus independent normals vanishing on it.
Each face is compared with ``oracles.dual_description`` (the subset scan in
Smith-form coordinates) on its dimension, its number of facets and its
``contains`` answer on every point of [-2, 2]^n; each maximal cone with it
as ``test_kernel.assert_matches_oracle`` does.
"""

import gc
import random
import weakref
from itertools import compress, permutations, product
from operator import add

import pytest

import oracles
from helpers import quadrant_fan
from test_cli import counting
from test_face_index import COMPLETE, fans_in_dim
from test_kernel import assert_matches_oracle, random_unimodular
from toricroots import (
    LatticeAutomorphism,
    all_roots,
    apply_automorphism,
    build_fan,
    check_polytope_theorem,
    complete_collections,
    he_connected_pairs,
    hirzebruch,
    is_complete,
    normal_fan,
    product_p1,
    projective_space,
)
from toricroots import fan as fan_module
from toricroots import lattice, polytope
from toricroots.polytope import LatticePolytope, cube, trapezoid


E3 = lattice.identity(3)
SQUARE = [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)]
# Fans with maximal cones of lower dimension: a 2D cone beside a 3D one, a
# cone over a square spanning a 3-space of Z^4 beside a plane cone, and the
# three rays of a 3D cone as a fan of rays.
LOWER_DIMENSIONAL = (
    lambda: build_fan(3, list(E3) + [(-1, 0, 0), (0, -1, 0)], [(0, 1, 2), (3, 4)]),
    lambda: build_fan(4, SQUARE + [(0, 0, -1, 1), (0, 0, -1, -1)], [(0, 1, 2, 3), (4, 5)]),
    lambda: build_fan(3, E3, [(0,), (1,), (2,)]),
)


TWENTY_FOUR_CELL = sorted({tuple(s * x for s, x in zip(signs, v))
                           for v in permutations((1, 1, 0, 0))
                           for signs in product((1, -1), repeat=4)})


def twenty_four_cell_fan():
    """Normal fan of the 24-cell conv(permutations of (+-1, +-1, 0, 0)): each
    maximal cone is a cone over an octahedron, so each ray lies on four of
    its cone's facets though it has codimension 3."""
    return normal_fan(LatticePolytope(4, tuple(TWENTY_FOUR_CELL)))


def cone_over_twenty_four_cell():
    """The cone over the 24-cell at height 1, alone: the vertex figure of the
    24-cell is a cube, so a ray lies on six facets forming a cone over an
    octahedron, and four of them (an equator) have rank 3 only."""
    return build_fan(5, [v + (1,) for v in TWENTY_FOUR_CELL], [tuple(range(24))])


def fans_to_check(dim):
    """fans_in_dim (builtin fans, GL_n(Z) images, subfans, an orthant; in
    dimension 3 also the octahedron's normal fan, cones over squares), the
    24-cell's normal fan and the lower-dimensional fans, each with a GL_n(Z)
    image, and the cone over the 24-cell."""
    rng = random.Random(1100 + dim)
    out = fans_in_dim(dim, 700 + dim)
    if dim == 4:
        fan = twenty_four_cell_fan()
        out += [fan, apply_automorphism(fan, LatticeAutomorphism(random_unimodular(rng, dim)))]
    if dim == 5:  # no image: the oracle's subset scan on its 24 rays takes a second
        out.append(cone_over_twenty_four_cell())
    for make in LOWER_DIMENSIONAL:
        fan = make()
        if fan.dim == dim:
            out += [fan, apply_automorphism(fan, LatticeAutomorphism(random_unimodular(rng, dim)))]
    return out


def box_scan(points):
    """inside(rows_ge, rows_eq): the indices of the points where every row
    of rows_eq vanishes and every row of rows_ge is >= 0.

    The faces of a fan share most of their rows, so each row's points are
    found once, and a cone's are the intersection of its rows'."""
    every = frozenset(range(len(points)))
    cols = list(zip(*points))
    found = {}

    def on(row, equal):
        if (row, equal) not in found:
            vals = [0] * len(points)  # row . v for every point v, column by column
            for c, col in zip(row, cols):
                vals = list(map(add, vals, map(c.__mul__, col)))
            keep = map((0).__eq__ if equal else (0).__le__, vals)
            found[row, equal] = frozenset(compress(range(len(points)), keep))
        return found[row, equal]

    def inside(rows_ge, rows_eq):
        sets = sorted([on(b, True) for b in rows_eq] + [on(a, False) for a in rows_ge], key=len)
        return sets[0].intersection(*sets[1:]) if sets else every
    return inside


@pytest.mark.parametrize("dim", (2, 3, 4, 5))
def test_faces_match_the_oracle_description(dim):
    box = list(product(range(-2, 3), repeat=dim))
    inside = box_scan(box)
    # a subfan shares most faces, and many of their descriptions, with its
    # fan: the box is scanned once per oracle row and once per description,
    # and the oracle's subset scan runs once per cone (it is cached)
    want, got = {}, {}
    lower = 0
    for fan in fans_to_check(dim):
        maximal = {c.ray_indices for c in fan.max_cones}
        lower += any(c.dim < dim for c in fan.max_cones)
        for face in fan.all_faces:
            gens = tuple(fan.rays[i] for i in face.ray_indices)
            ineqs, eqs = oracles.dual_description(gens, dim)
            assert face.dim == (oracles.rank(gens, dim) if gens else 0) == dim - len(eqs)
            assert len(face.inequalities) == len(ineqs), (fan.rays, face)
            assert len(face.equations) == dim - face.dim
            cone = frozenset(gens)
            if cone not in want:
                want[cone] = inside(ineqs, eqs)
            key = (face.inequalities, face.equations)
            if key not in got:
                got[key] = frozenset(i for i, v in enumerate(box) if face.contains(v))
            assert got[key] == want[cone], (fan.rays, face)
            if face.ray_indices in maximal:
                assert_matches_oracle((face.inequalities, face.equations), gens, dim)
    assert lower or dim in (2, 5)


def he_pairs_by_rank(fan, root):
    """he_connected_pairs with every dimension a rank of the cones' rays."""
    def rank(cone):
        gens = [fan.rays[i] for i in cone.ray_indices]
        return oracles.rank(gens, fan.dim) if gens else 0

    out = []
    for c2 in fan.all_faces:
        vals = [lattice.dot(fan.rays[i], root.vector) for i in c2.ray_indices]
        if not vals or any(v > 0 for v in vals) or all(v == 0 for v in vals):
            continue
        c1 = fan.cone(i for i, v in zip(c2.ray_indices, vals) if v == 0)
        if rank(c1) == rank(c2) - 1:
            out.append((c1, c2))
    return tuple(out)


@pytest.mark.parametrize("dim", (3, 4, 5))
def test_he_connected_pairs_match_rank_oracle(dim):
    rng = random.Random(1200 + dim)
    seen = 0
    for fan in COMPLETE[dim]:
        image = apply_automorphism(fan, LatticeAutomorphism(random_unimodular(rng, dim)))
        for f in (fan, image):
            for root in all_roots(f).roots():
                pairs = he_connected_pairs(f, root)
                assert pairs == he_pairs_by_rank(f, root)
                seen += len(pairs)
    assert seen


def test_maximal_cones_only_get_a_dual_description(monkeypatch):
    descriptions = counting(monkeypatch, fan_module, "_dual_description")
    smith = counting(monkeypatch, lattice, "smith_normal_form")
    # the normal fans go through build_fan: normal_fan describes no cone
    cross4 = lattice.identity(4) + tuple(map(lattice.neg, lattice.identity(4)))
    full = (lambda: product_p1(4), lambda: projective_space(5),
            lambda: oracles.built_normal_fan(LatticePolytope(4, cross4)),
            lambda: oracles.built_normal_fan(cube(4)),
            lambda: oracles.built_normal_fan(LatticePolytope(4, tuple(TWENTY_FOUR_CELL))))
    lower = 0
    for make in full + LOWER_DIMENSIONAL:
        fan = make()
        lower += sum(c.dim < fan.dim for c in fan.max_cones)
        assert len(descriptions) == len(fan.max_cones)
        assert smith == []
        descriptions.clear()
    assert lower == 6  # lower-dimensional maximal cones, none through the Smith form


# ---------------------------------------------------------------------------
# containment


def test_containment_rejects_a_vector_of_the_wrong_length():
    fan = hirzebruch(2)
    for cone in fan.all_faces:  # the zero cone has equations only
        for v in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                cone.contains(v)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fan.contains_point((1, 0, 0))
    assert fan.contains_point((1, 0))


# ---------------------------------------------------------------------------
# answers stored on the object


def test_is_complete_makes_no_dot_certificate_or_build_call(monkeypatch):
    """build_fan stores the certificate's answer; is_complete only reads it."""
    fans = [product_p1(3), twenty_four_cell_fan(), quadrant_fan(), build_fan(2, [], [])]
    calls = [counting(monkeypatch, fan_module, name)
             for name in ("dot", "_certify_complete", "build_fan")]
    assert [is_complete(f) for f in fans] == [True, True, False, False]
    assert calls == [[], [], []]


def test_normal_fan_is_built_once_per_polytope(monkeypatch):
    """Counted by the assembly of the Fan: normal_fan calls no build_fan."""
    builds = counting(monkeypatch, polytope, "Fan")
    p = cube(3)
    nf = normal_fan(p)
    assert normal_fan(p) is nf
    report = check_polytope_theorem(p)
    assert report.inscribed and report.fan_admits
    assert len(builds) == 1
    assert normal_fan(cube(3)) is not nf and len(builds) == 2


def test_stored_fields_do_not_change_equality_hash_or_repr(monkeypatch):
    """Every fan stores the certificate's answer at build, so the same data
    built with the certificate forced off stores False and is still equal.
    A fan whose collections are stored equals one not yet scanned."""
    built = projective_space(3)
    with monkeypatch.context() as mp:
        mp.setattr(fan_module, "_certify_complete", lambda *_: False)
        scanned = projective_space(3)
    assert built._complete is True and scanned._complete is False
    assert built == scanned and hash(built) == hash(scanned) and repr(built) == repr(scanned)
    assert quadrant_fan()._complete is False
    p, q = trapezoid(), trapezoid()
    normal_fan(p)
    assert p._normal_fan is not None and q._normal_fan is None
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert "_normal_fan" not in repr(p)
    assert "_complete" not in repr(built)
    fresh = projective_space(3)
    assert len(complete_collections(built)) == 4 and fresh._collections is None
    assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
    assert "_collections" not in repr(built)


def test_polytope_and_its_normal_fan_are_freed():
    p = LatticePolytope(3, tuple(product((0, 1), repeat=3)))
    nf = normal_fan(p)
    assert is_complete(nf)
    refs = (weakref.ref(p), weakref.ref(nf))
    del p, nf
    gc.collect()
    assert all(ref() is None for ref in refs)
