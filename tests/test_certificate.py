"""The completeness certificate of ``build_fan`` against the pair scan.

``fan._certify_complete`` certifies n-dimensional maximal cones as a
complete fan by pairing their facets and testing one point of degree one,
on the cones that ``build_fan`` made as it validated them; ``build_fan``
then skips the scan that intersects every pair of maximal cones, and
stores the answer as the fan's completeness. With
the certificate forced off, that scan runs on every fan, and serves as the
oracle of validity: on complete fans in dimensions 1 to 6 (the bundled
fans, the root corpus's face fans, normal fans of random polytopes and
GL_n(Z) images of all of these) both paths must build equal fans with the
same validation answers, and ``oracles.is_complete`` and
``oracles.ridge_count_complete`` must call them complete. Near misses must
fail the certificate and get exactly the scan's violations, and the number
of ``_intersection_rays`` calls shows which path ran.
"""

import random
from math import comb

import pytest

import oracles
from helpers import bundled_complete_fans, random_complete_fans_2d
from test_cli import counting
from test_face_index import COMPLETE, orthant, subfan
from test_faces import LOWER_DIMENSIONAL
from test_kernel import random_unimodular
from test_root_corpus import corpus
from toricroots import (
    LatticeAutomorphism,
    LatticePolytope,
    apply_automorphism,
    build_fan,
    is_complete,
    normal_fan,
    product_p1,
    projective_space,
    validate_fan,
    wps_one,
)
from toricroots import fan as fan_module
from toricroots.errors import DegeneratePolytope
from toricroots.lattice import dot, is_primitive, rank
from toricroots.polytope import _hull_facets, cube


def fan_data(fan):
    """(dim, rays, max_cones, allow_nonprimitive) that rebuild the fan."""
    return (fan.dim, fan.rays, [c.ray_indices for c in fan.max_cones],
            not all(map(is_primitive, fan.rays)))


def by_pair_scan(run, *args):
    """run(*args) with the certificate rejecting every fan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan_module, "_certify_complete", lambda *_: False)
        return run(*args)


def certificate_answers(monkeypatch):
    """Record every answer of the certificate; return the record."""
    answers = []
    original = fan_module._certify_complete

    def recorded(*args):
        answers.append(original(*args))
        return answers[-1]

    monkeypatch.setattr(fan_module, "_certify_complete", recorded)
    return answers


def random_normal_fans(dim, rng, count):
    """Normal fans of the hulls of dim + 3 random points of [-2, 2]^dim."""
    out = []
    while len(out) < count:
        points = tuple(sorted({tuple(rng.randint(-2, 2) for _ in range(dim))
                               for _ in range(dim + 3)}))
        try:
            fs, _ = _hull_facets(points, dim)
        except DegeneratePolytope:
            continue
        verts = [v for v in points
                 if rank([f.normal for f in fs if dot(f.normal, v) == f.rhs], dim) == dim]
        out.append(normal_fan(LatticePolytope(dim, tuple(verts))))
    return out


def complete_fans(dim, rng):
    if dim == 1:
        fans = [projective_space(1), wps_one(3)]
        return fans + [apply_automorphism(f, LatticeAutomorphism(((-1,),))) for f in fans]
    fans = [f for _, f in bundled_complete_fans() if f.dim == dim]
    fans += [f for f in COMPLETE.get(dim, ()) if f not in fans]
    if dim == 2:
        fans += random_complete_fans_2d(seed=1500, count=10)
    if dim == 6:
        fans.append(projective_space(6))
    fans += [f for f, _ in corpus(dim, rng, pairs=2 if dim < 5 else 1)]
    fans += random_normal_fans(dim, rng, 4 if dim < 5 else 2)
    return fans + [apply_automorphism(f, LatticeAutomorphism(random_unimodular(rng, dim)))
                   for f in fans]


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5, 6))
def test_certified_fans_match_the_pair_scan(dim):
    """Every complete fan is certified whatever the order of its maximal
    cones (which fixes the degree-one point) and equals the fan the pair
    scan builds; validation and the oracles' completeness agree. In
    dimension 1 the one-ray fan is a negative case."""
    rng = random.Random(1600 + dim)
    cases = [(fan, True) for fan in complete_fans(dim, rng)]
    for fan, want in cases + ([(orthant(1), False)] if dim == 1 else []):
        assert fan._complete is want, fan
        dim_, rays, cones, allow = fan_data(fan)
        rng.shuffle(cones)
        assert build_fan(dim_, rays, cones, allow)._complete is want
        scanned = by_pair_scan(build_fan, dim_, rays, cones, allow)
        assert scanned == fan and scanned._complete is False
        assert oracles.is_complete(fan) is want is oracles.ridge_count_complete(fan)
        assert validate_fan(dim_, rays, cones, allow) == []
        assert by_pair_scan(validate_fan, dim_, rays, cones, allow) == []


E3 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
OCTANTS = [(i, 2 + j, 4 + k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
# Five rays in angular order; each cone joins a ray to the next but one, so
# the cones wind twice around the origin.
PENTAGRAM_RAYS = [(1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)]
PENTAGRAM = (2, PENTAGRAM_RAYS, [(k, (k + 2) % 5) for k in range(5)])
NEAR_MISSES = {
    # the octant (e1, e2, e3) split by (1, 1, 0): its facet cone(e1, e2) is
    # split in two on that side only
    "split ridge": (3, E3 + [(1, 1, 0)], OCTANTS[1:] + [(0, 6, 4), (6, 2, 4)]),
    "pentagram": PENTAGRAM,
    # P^2 plus three cones folded over each other inside its first quadrant:
    # every ray lies on two cones, but at two of them on the same side, and
    # the first cone's rays sum to (-1, 0), which no other cone holds
    "folded cones": (2, [(1, 0), (0, 1), (-1, -1), (5, 1), (1, 1), (2, 1)],
                     [(1, 2), (2, 0), (0, 1), (3, 4), (4, 5), (5, 3)]),
    # P^2 plus a cone over (1, 0) and (-1, 2), which overlaps two of its cones
    "overlap": (2, [(1, 0), (0, 1), (-1, -1), (-1, 2)], [(0, 1), (1, 2), (2, 0), (0, 3)]),
    # two octants of Z^3 and a cone across both
    "two overlapping cones": (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                                  (-1, 1, 1)], [(0, 2, 3), (1, 2, 3), (4, 5, 2)]),
    # a complete fan plus a cone over its rays (1, 0) and (-3, -1), which
    # covers the lower half-plane again: rays 0 and 2 lie on three cones
    "ridge on three cones": (2, [(1, 0), (0, 1), (-3, -1), (0, -1)],
                             [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    # (P^1)^3 with one octant listed twice over, as two of its halves
    "octant and its half": (3, E3 + [(1, 1, 0)], OCTANTS + [(0, 6, 4)]),
}


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_near_misses_fail_the_certificate_and_get_the_scans_violations(name, monkeypatch):
    data = NEAR_MISSES[name]
    answers = certificate_answers(monkeypatch)
    violations = validate_fan(*data)
    assert answers == [False]
    assert violations and violations == by_pair_scan(validate_fan, *data)


def test_the_pentagram_pairs_every_ridge():
    """Each ray of the pentagram lies on exactly two cones, whose other rays
    lie on opposite sides of it: only the degree test rejects it."""
    _, rays, cones = PENTAGRAM
    for k, r in enumerate(rays):
        others = [c[1 - c.index(k)] for c in cones if k in c]
        sides = {r[0] * rays[j][1] - r[1] * rays[j][0] > 0 for j in others}
        assert len(others) == 2 and sides == {True, False}


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_subfans_fail_the_certificate_and_build_as_by_the_scan(dim, monkeypatch):
    """A complete fan with one maximal cone dropped is a fan, not complete."""
    rng = random.Random(1700 + dim)
    answers = certificate_answers(monkeypatch)
    for fan in COMPLETE[dim]:
        count = len(fan.max_cones)
        keep = sorted(rng.sample(range(count), count - 1))
        answers.clear()
        part = subfan(fan, keep)
        assert answers == [False] and part._complete is False
        data = fan_data(part)
        assert validate_fan(*data) == [] == by_pair_scan(validate_fan, *data)
        assert by_pair_scan(build_fan, *data) == part
        assert not is_complete(part)


def test_certified_fans_intersect_no_pair_of_cones(monkeypatch):
    calls = counting(monkeypatch, fan_module, "_intersection_rays")
    g = LatticeAutomorphism(random_unimodular(random.Random(1800), 4))
    fans = [product_p1(6), normal_fan(cube(4)), apply_automorphism(projective_space(4), g)]
    assert all(f._complete is True for f in fans)
    assert calls == []


def test_rejected_fans_intersect_every_pair_of_cones(monkeypatch):
    """A subfan of (P^1)^3 (7 cones) and a fan with a lower-dimensional
    maximal cone, which the certificate does not try."""
    full = product_p1(3)
    lower = LOWER_DIMENSIONAL[0]()
    calls = counting(monkeypatch, fan_module, "_intersection_rays")
    part = subfan(full, range(7))
    assert len(calls) == comb(7, 2)
    again = build_fan(*fan_data(lower))
    assert len(calls) == comb(7, 2) + comb(len(lower.max_cones), 2)
    assert part._complete is False and again._complete is False



def test_a_wrong_certificate_is_caught_by_the_coverage_check(monkeypatch):
    """A certificate that accepted a subfan would store it as complete; the
    coverage check of test_coverage.py finds directions it misses."""
    from test_coverage import draws

    data = fan_data(subfan(projective_space(3), range(3)))
    monkeypatch.setattr(fan_module, "_certify_complete", lambda *_: True)
    fan = build_fan(*data)
    assert is_complete(fan)
    assert oracles.first_uncovered(fan, draws(3, random.Random(0))[0]) is not None
