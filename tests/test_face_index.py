"""The fan's face index against the geometric routines it replaced.

Root condition (2), the faces of each maximal cone and the complete
collections are read off the fan's face index; ``oracles.py`` keeps the
minimal-generator check, the 2^k face scan and the C(m, n) collection scan
they replaced, and the scan of condition (2) over every face that the
maximal-cone test replaced. The fans cover dimensions 2 to 5, and 6 for the
collection scan: GL_n(Z) images of builtin fans, normal fans of
cross-polytopes (cones over squares and cubes), orthants, and subfans with
maximal cones dropped, which are not complete and whose support is not
convex.
"""

import gc
import random
import weakref
from itertools import product

import pytest

import oracles
from test_cli import counting
from test_kernel import random_unimodular
from toricroots import (
    Fan,
    LatticeAutomorphism,
    LatticePolytope,
    admits_additive,
    apply_automorphism,
    build_fan,
    complete_collections,
    hirzebruch,
    is_complete,
    normal_fan,
    p235_model,
    product_p1,
    projective_space,
    theorem3con_report,
    validate_fan,
    wps_one,
)
from toricroots import additive
from toricroots.demazure import pairing_row, satisfies_condition1, satisfies_condition2
from toricroots.lattice import identity, is_primitive


def cross_polytope_fan(n):
    """Normal fan of the n-dimensional cross-polytope: 2^n rays (+-1, ..., +-1),
    one cone over an (n-1)-cube per vertex; not simplicial for n >= 3."""
    verts = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    return normal_fan(LatticePolytope(n, tuple(verts)))


def orthant(n):
    return build_fan(n, identity(n), [tuple(range(n))])


def subfan(fan, keep):
    """The fan of the maximal cones numbered in `keep`, on the rays they use."""
    cones = [fan.max_cones[k].ray_indices for k in keep]
    used = sorted(set().union(*cones))
    pos = {r: i for i, r in enumerate(used)}
    rays = [fan.rays[r] for r in used]
    return build_fan(fan.dim, rays, [[pos[r] for r in c] for c in cones],
                     allow_nonprimitive=not all(map(is_primitive, rays)))


COMPLETE = {
    2: [projective_space(2), product_p1(2), hirzebruch(3), wps_one(2, 3), p235_model()],
    3: [projective_space(3), product_p1(3), wps_one(1, 2, 3), cross_polytope_fan(3)],
    4: [projective_space(4), product_p1(4), cross_polytope_fan(4)],
    5: [projective_space(5), product_p1(5)],
}
# for the collection scans only; the completeness tests read COMPLETE
SIX_DIMENSIONAL = [projective_space(6), product_p1(6)]


def fans_in_dim(dim, seed):
    """Complete fans and an orthant, their images under GL_n(Z), and subfans
    of the complete fans with maximal cones dropped."""
    rng = random.Random(seed)
    out = []
    for fan in [orthant(dim)] + (COMPLETE[dim] if dim in COMPLETE else SIX_DIMENSIONAL):
        out += [fan, apply_automorphism(fan, LatticeAutomorphism(random_unimodular(rng, dim)))]
        count = len(fan.max_cones)
        for size in (1, count // 2, count - 1) if count > 1 else ():
            out.append(subfan(fan, sorted(rng.sample(range(count), max(size, 1)))))
    return out


def candidates(fan, rng):
    """(e, ray) pairs: every e of sup-norm <= 2 with the ray it satisfies
    condition (1) for, plus random pairs, which mostly do not."""
    out = []
    for e in product(range(-2, 3), repeat=fan.dim):
        row = pairing_row(fan, e)
        below = [i for i, v in enumerate(row) if v < 0]
        if len(below) == 1 and row[below[0]] == -1:
            out.append((e, below[0]))
    for ray in range(len(fan.rays)):
        out += [(tuple(rng.randint(-2, 2) for _ in range(fan.dim)), ray) for _ in range(3)]
    return out


@pytest.mark.parametrize("dim", (2, 3, 4, 5))
def test_face_sets_match_the_face_scan(dim):
    for fan in fans_in_dim(dim, 700 + dim):
        union = {()}
        for cone in fan.max_cones:
            want = oracles.cone_face_sets(cone, fan.rays)
            inside = [f for f in fan.face_sets if set(f) <= set(cone.ray_indices)]
            assert tuple(sorted(inside, key=lambda s: (len(s), s))) == want
            union.update(want)
        assert fan.face_sets == union
        for face in fan.all_faces:
            assert fan.cone(reversed(face.ray_indices)) is face


@pytest.mark.parametrize("dim", (2, 3, 4, 5))
def test_condition2_matches_minimal_generator_check(dim):
    """The maximal-cone test agrees with both oracles on every vector that
    satisfies condition (1); the oracles agree with each other on all."""
    rng = random.Random(800 + dim)
    seen, seen_by_oracles = set(), set()
    for fan in fans_in_dim(dim, 700 + dim):
        for e, ray in candidates(fan, rng):
            want = oracles.condition2_on_all_faces(fan, e, ray)
            assert want == oracles.satisfies_condition2(fan, e, ray), (fan.rays, e, ray)
            cond1 = satisfies_condition1(fan, e, ray)
            seen_by_oracles.add((cond1, want))
            if cond1:
                assert satisfies_condition2(fan, e, ray) == want, (fan.rays, e, ray)
                seen.add((cond1, want))
    # both answers occur; the oracles see them with and without condition (1)
    assert seen == {(True, True), (True, False)}
    assert seen_by_oracles == {(True, True), (True, False), (False, True), (False, False)}


def test_condition2_requires_condition1():
    fan = product_p1(2)  # rays (1, 0), (-1, 0), (0, 1), (0, -1)
    assert satisfies_condition2(fan, (-1, 0), 0)
    for e, ray in [((1, 0), 0), ((0, 0), 0), ((-1, -1), 0), ((-2, 0), 0), ((-1, 0), 2)]:
        with pytest.raises(ValueError):
            satisfies_condition2(fan, e, ray)


class CountingDict(dict):
    """A dict that counts membership tests and refuses any other read."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        raise AssertionError(f"face {key} read")

    def __iter__(self):
        raise AssertionError("faces iterated")

    keys = values = items = __iter__


def test_condition2_reads_only_the_maximal_cones():
    """On (P^1)^7 each check makes at most one face index lookup per maximal
    cone not through the distinguished ray (64 of 128, of 2,187 faces), and
    reads no other face."""
    fan = product_p1(7)
    bare = Fan(fan.dim, fan.rays, fan.max_cones)  # not certified complete
    object.__setattr__(bare, "_by_rays", CountingDict(fan._index))
    for ray in range(len(fan.rays)):
        e = tuple(-x for x in fan.rays[ray])  # the rays are the +-unit vectors
        outside = sum(ray not in c.ray_indices for c in fan.max_cones)
        bare._by_rays.lookups = 0
        assert satisfies_condition2(bare, e, ray)
        assert 0 < bare._by_rays.lookups <= outside == 64


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
def test_complete_collections_match_the_subset_scan(dim):
    counts = {True: [], False: []}
    for fan in fans_in_dim(dim, 700 + dim):
        got = complete_collections(fan)
        assert got == oracles.complete_collections(fan)
        counts[is_complete(fan)].append(len(got))
    # non-complete fans with and without collections
    assert 0 in counts[False] and max(counts[False]) >= 1 and max(counts[True]) >= 1


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_complete_collections_check_each_candidate_once(n, monkeypatch):
    """(P^1)^n has 2^n maximal cones, each with n candidates (-q, ray), but
    only 2n distinct ones: the negated unit vector of each ray. Each is
    checked once, however many cones share it."""
    checks = counting(monkeypatch, additive, "_root")
    fan = product_p1(n)
    assert len(complete_collections(fan)) == 2 ** n
    assert len(checks) == len({(e, ray) for _, e, ray in checks}) == 2 * n


def test_collections_are_scanned_once_per_fan(monkeypatch):
    """The first complete_collections call stores the tuple on the fan. A
    second call, admits_additive and theorem3con_report return it with no
    scan of the maximal cones and no root check."""
    fan = product_p1(3)
    assert fan._collections is None
    first = complete_collections(fan)
    scans = counting(monkeypatch, additive, "_simplicial_normals")
    checks = counting(monkeypatch, additive, "_root")
    assert complete_collections(fan) is first and fan._collections is first
    assert admits_additive(fan).witness is first[0]
    assert theorem3con_report(fan).complete_collection_exists
    assert scans == [] and checks == []


@pytest.mark.parametrize("dim", (2, 3, 4, 5))
def test_subfans_and_orthants_are_not_complete(dim):
    rng = random.Random(900 + dim)
    assert not is_complete(orthant(dim))
    for fan in COMPLETE[dim]:
        assert is_complete(fan)
        count = len(fan.max_cones)
        assert not is_complete(subfan(fan, sorted(rng.sample(range(count), count - 1))))


def test_minimal_generator_violations():
    # (1, 1) lies inside the quadrant; (1, 1, 1) inside a cone over a square
    assert validate_fan(2, [(1, 0), (1, 1), (0, 1)], [(0, 1, 2)]) == [
        "cone [0, 1, 2]: listed rays are not its minimal generators"]
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    assert validate_fan(3, square, [(0, 1, 2, 3)]) == []
    assert validate_fan(3, square + [(0, 0, 1)], [(0, 1, 2, 3, 4)]) == [
        "cone [0, 1, 2, 3, 4]: listed rays are not its minimal generators"]
    assert validate_fan(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [(0, 1, 2)]) == [
        "cone [0, 1, 2] is not strongly convex"]


def test_fan_is_freed_after_the_decision():
    """No module-level cache keeps a fan alive."""
    fan = product_p1(3)
    ref = weakref.ref(fan)
    assert admits_additive(fan).admits
    del fan
    gc.collect()
    assert ref() is None
