"""Each simplicial maximal cone keeps its basis inverse (basis, W, D).

``build_fan`` stores, on every full-dimensional maximal cone with dim rays,
the start inverse of the cone's double description: P W = D I for the
matrix P of its rays in order, with D = |det P|. A cone that no double
description built, as those of a polytope's normal fan, gets its inverse
from ``fan._simplicial_inverse`` on first use, read off its stored facet
normals with D = lcm(c_j), and keeps it. On a corpus of simplicial fans in
dimensions 2 to 6 (``wps_one(2, 3, 7, 11)``, the tetrahedron fan whose first
cone has c = (15, 6, 10), a tetrahedron fan whose cones all have
|det P| = 4 and lcm(c_j) = 2, and GL_n(Z) images), the stored inverse is
checked against ``lattice._basis_inverse`` and against the one read off the
normals, and the root search's bound on each pairing with a ray k, read
off the stored normals of the cone of -p_k, against ``oracles.peel``, the
decomposition one face at a time, which stays the reference. Counting
tests check that the readers, the roots, the collections and the
rectangle test, derive nothing again.
"""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations

import oracles
from test_cli import counting
from test_complete_roots import (
    TETRAHEDRON,
    assert_roots_match_elimination,
    simplicial_corpus,
    skewed,
)
from test_normal_fan import NAMED
from toricroots import (
    Cone,
    LatticePolytope,
    all_roots,
    build_fan,
    check_polytope_theorem,
    complete_collections,
    inscribed_in_rectangle,
    normal_fan,
)
from toricroots import demazure, lattice, polytope
from toricroots import fan as fan_module
from toricroots.fan import _simplicial_inverse
from toricroots.lattice import identity, neg

# Every cone of this tetrahedron fan has |det P| = 4 and c = (2, 2, 2), so
# the double description's D is twice lcm(c_j): the rays are the identity
# modulo 2 in one coordinate, so every 2 x 2 minor of P is even.
SQUASHED = build_fan(3, [(1, 0, 0), (1, 2, 0), (1, 0, 2), (-3, -2, -2)],
                     list(combinations(range(4), 3)))


def corpus():
    fans = simplicial_corpus() + [SQUASHED, skewed(SQUASHED, "squashed")]
    assert {fan.dim for fan in fans} == {2, 3, 4, 5, 6}
    return fans


def fresh(cone):
    """The same cone with no stored inverse, as a normal fan's cones start."""
    return Cone(*cone._values())


def quotient(inverse):
    """W / D as rational columns: all that a reader may depend on."""
    _, cols, d = inverse
    return [[Fraction(x, d) for x in col] for col in cols]


def assert_inverts(fan, inverse):
    basis, cols, d = inverse
    assert d > 0
    assert [[sum(p * x for p, x in zip(fan.rays[i], col)) for col in cols] for i in basis] \
        == [[d * int(i == j) for j in basis] for i in basis]


def test_the_corpus_has_both_kinds_of_cones():
    dets = {abs(oracles.bareiss_determinant([fan.rays[i] for i in c.ray_indices]))
            for fan in corpus() for c in fan.max_cones}
    assert 1 in dets and max(dets) > 1
    assert TETRAHEDRON.max_cones[0]._inverse[2] == 30


def test_built_cones_keep_their_double_description_inverse():
    """P W = D I with D = |det P| on every maximal cone, in the order of its
    rays and, with W's columns permuted as its rows are, in shuffled
    orders, as the root search reorders them; W and D are exactly those of
    lattice._basis_inverse on the rays, and W / D is the inverse read off
    the normals with D = lcm(c_j). D = 1 for both exactly when the cone is
    unimodular, and the two D differ on some cones."""
    rng = random.Random(2900)
    differ = 0
    for fan in corpus():
        for cone in fan.max_cones:
            stored = cone._inverse
            basis, cols, d = stored
            assert basis is cone.ray_indices
            assert_inverts(fan, stored)
            assert lattice._basis_inverse(fan.rays, basis, fan.dim) == (list(basis), cols, d)
            det = abs(oracles.bareiss_determinant([fan.rays[i] for i in basis]))
            assert d == det
            paired = _simplicial_inverse(fresh(cone), fan.rays)
            assert_inverts(fan, paired)
            assert quotient(paired) == quotient(stored)
            assert (d == 1) == (paired[2] == 1) == (det == 1)
            differ += paired[2] != d
            order = list(basis)
            rng.shuffle(order)
            assert _simplicial_inverse(cone, fan.rays) is stored
            assert_inverts(fan, (order, [cols[basis.index(i)] for i in order], d))
    assert differ


def test_a_cone_without_an_inverse_derives_it_once_and_keeps_it(monkeypatch):
    lcms = counting(monkeypatch, fan_module, "lcm")
    for cone in SQUASHED.max_cones:
        bare = fresh(cone)
        first = _simplicial_inverse(bare, SQUASHED.rays)
        assert bare._inverse[0] is bare.ray_indices and first[2] == 2
        assert _simplicial_inverse(bare, SQUASHED.rays) is first
    assert len(lcms) == len(SQUASHED.max_cones)


def test_cones_that_are_not_simplicial_store_nothing():
    """The octahedron's normal cones have 4 rays in dimension 3, as its
    normal fan assembles them and as build_fan builds them."""
    octahedron = LatticePolytope(3, tuple(v for e in identity(3) for v in (e, neg(e))))
    nf = normal_fan(octahedron)
    for fan in (nf, build_fan(3, nf.rays, [c.ray_indices for c in nf.max_cones])):
        assert all(len(c.ray_indices) == 4 for c in fan.max_cones)
        for cone in fan.max_cones:
            assert _simplicial_inverse(cone, fan.rays) is None
            assert getattr(cone, "_inverse", None) is None


def test_the_opposite_bounds_match_the_peel():
    """The bound on <p_k, e> over the roots e of a ray rho, read off the
    stored facet normals of the first maximal cone that holds x = -p_k
    (``demazure._top``), is floor(c_rho) for the peel's decomposition
    x = sum c_i p_i in that cone (``oracles.peel``, c_rho = 0 off its
    support) wherever the cone is simplicial or x is a ray, and at least
    that on the other cones, whose decompositions are not unique; over
    built fans (D = |det P|) and normal fans (D = lcm(c_j)), some of whose
    cones are not simplicial."""
    fans = corpus() + [normal_fan(LatticePolytope(p.dim, p.vertices)) for _, p in NAMED]
    exact = above = fractional = 0
    for fan in fans:
        for k, p in enumerate(fan.rays):
            x = neg(p)
            cone = next(c for c in fan.max_cones if c.contains(x))
            peeled = {i: Fraction(num, den)
                      for i, (num, den) in oracles.peel(x, cone, fan.rays).items()}
            unique = x in fan.rays or _simplicial_inverse(cone, fan.rays) is not None
            for ray in range(len(fan.rays)):
                if ray == k:
                    continue
                got, want = demazure._top(fan, {}, k, ray), math.floor(peeled.get(ray, 0))
                assert got == want if unique else got >= want, (fan.rays, k, ray)
                exact += unique and ray in peeled
                above += got > want
                fractional += unique and peeled.get(ray, 0).denominator > 1
    assert exact > 100 and above and fractional > 10


def test_built_simplicial_fans_derive_no_inverse_and_peel_nothing(monkeypatch):
    """all_roots and complete_collections read every inverse that the build
    stored: no pairing derivation (its lcm) and no Gauss-Jordan pass. Each
    opposite's bound is read off a cone's stored facet normals, so nothing
    is peeled: the peel is a test oracle only."""
    fans = corpus()
    lcms = counting(monkeypatch, fan_module, "lcm")
    passes = counting(monkeypatch, lattice, "_basis_inverse")
    for fan in fans:
        all_roots(fan)
        complete_collections(fan)
    assert lcms == [] and passes == []
    assert not hasattr(demazure, "_peel")


def test_the_roots_are_unchanged_where_the_two_d_differ():
    assert_roots_match_elimination(SQUASHED)
    assert_roots_match_elimination(skewed(SQUASHED, "squashed"))


def test_the_polytope_check_derives_each_inverse_at_most_once(monkeypatch):
    """inscribed_in_rectangle reads each simplicial normal cone's inverse
    off its normals once and stores it; check_polytope_theorem then reads
    the stored witness and the collection scan the stored inverses, so
    neither derives an inverse or scans the vertices again."""
    lcms = counting(monkeypatch, fan_module, "lcm")
    scans = counting(monkeypatch, polytope, "_rectangle_witnesses")
    for _, named in NAMED:
        p = LatticePolytope(named.dim, named.vertices)
        fan = normal_fan(p)
        simplicial = [c for c in fan.max_cones if len(c.ray_indices) == p.dim]
        witness = inscribed_in_rectangle(p)
        assert witness == oracles.determinant_inscribed_in_rectangle(p)
        derived = len(lcms)
        assert derived <= len(simplicial) and len(scans) == 1
        report = check_polytope_theorem(p)
        assert report.witness is witness and report.inscribed is report.fan_admits
        assert inscribed_in_rectangle(p) is witness
        assert len(lcms) <= len(simplicial) and len(scans) == 1
        assert all(c._inverse is not None for c in simplicial)
        lcms.clear()
        scans.clear()


def test_stored_inverses_survive_copy_and_pickle():
    """A built cone keeps its inverse through copy and pickle; a normal
    fan's cone that has none comes back with None and derives it on use."""
    fan = normal_fan(LatticePolytope(3, TETRAHEDRON.rays))
    bare = fan.max_cones[0]
    tested = LatticePolytope(3, TETRAHEDRON.rays)
    inscribed_in_rectangle(tested)
    for trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        for cone in TETRAHEDRON.max_cones:
            r = trip(cone)
            assert r == cone and r._inverse == cone._inverse
        r = trip(bare)
        assert r == bare and r._inverse is None
        assert_inverts(fan, _simplicial_inverse(r, fan.rays))
        assert trip(LatticePolytope(3, TETRAHEDRON.rays))._witness is False
        assert trip(tested)._witness == tested._witness is not False
    assert getattr(bare, "_inverse", None) is None


def test_a_unimodular_start_is_not_made_primitive(monkeypatch):
    """With D = 1 the start's columns are primitive already (det W = +-1),
    so the double description passes them on as they are; with D > 1 each
    is made primitive."""
    calls = counting(monkeypatch, lattice, "primitive")
    rows = [(1, 0, 0), (1, 1, 0), (2, 3, 1)]
    rays, _, (basis, cols, d) = lattice._double_description(rows, 3)
    assert d == 1 and calls == [] and rays == tuple(sorted(cols))
    rays, _, (_, cols, d) = lattice._double_description([(1, 0, 0), (1, 2, 0), (1, 0, 2)], 3)
    assert d == 4 and len(calls) == 3 and rays == tuple(sorted(map(lattice.primitive, cols)))
