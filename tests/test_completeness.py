"""Completeness stored at build against the tests it replaced.

``is_complete`` returns the answer of the certificate that ``build_fan``
runs (``fan._certify_complete``). ``oracles.ridge_count_complete`` keeps the
ridge count over the face index that decided the fans the certificate
rejected (every maximal cone n-dimensional, every (n-1)-dimensional face in
exactly two maximal cones), and ``oracles.is_complete`` the test before it
(ridges from each maximal cone's inequalities, then a connected
facet-adjacency graph). The fans cover dimensions 1 to 5: builtin complete
fans, the normal fans of the cross-polytopes and of the 24-cell, orthants,
subfans with maximal cones dropped, fans with lower-dimensional maximal
cones and the zero fan, each with a GL_n(Z) image that must get the same
answer.
"""

import random

import pytest

import oracles
from test_cli import counting
from test_face_index import COMPLETE, orthant, subfan
from test_faces import LOWER_DIMENSIONAL, twenty_four_cell_fan
from test_kernel import random_unimodular
from toricroots import (
    Fan,
    LatticeAutomorphism,
    apply_automorphism,
    build_fan,
    is_complete,
    product_p1,
    projective_space,
    wps_one,
)
from toricroots import fan as fan_module

ONE_DIMENSIONAL = (
    lambda: projective_space(1),
    lambda: wps_one(3),  # rays 1 and -3
    lambda: orthant(1),
    lambda: build_fan(1, [(-1,)], [(0,)]),
)


def base_fans(dim, rng):
    """Complete fans, their subfans with 1, half and all but one maximal
    cones kept, an orthant, the lower-dimensional fans and the zero fan."""
    if dim == 1:
        out = [make() for make in ONE_DIMENSIONAL]
    else:
        complete = list(COMPLETE[dim]) + ([twenty_four_cell_fan()] if dim == 4 else [])
        out = [orthant(dim)]
        for fan in complete:
            count = len(fan.max_cones)
            out.append(fan)
            out += [subfan(fan, sorted(rng.sample(range(count), size)))
                    for size in (1, count // 2, count - 1)]
        out += [f for f in (make() for make in LOWER_DIMENSIONAL) if f.dim == dim]
    return out + [build_fan(dim, [], [])]


def ridge_on_three_cones():
    """In a fan a ridge lies on at most two n-dimensional maximal cones, one
    on each side, so this data is assembled by hand: build_fan rejects it.
    The cones of the blow-up of P^2 at a point plus the quadrant it
    subdivides cover the plane, and rays 0 and 1 lie on three cones each."""
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1)]
    blowup = build_fan(2, rays, [(0, 3), (3, 1), (1, 2), (2, 0)])
    quadrant = build_fan(2, rays[:3], [(0, 1), (1, 2), (2, 0)]).cone((0, 1))
    return Fan(2, blowup.rays, blowup.max_cones + (quadrant,))


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5))
def test_completeness_matches_the_ridge_scan_and_is_invariant(dim):
    rng = random.Random(1300 + dim)
    answers = set()
    for fan in base_fans(dim, rng):
        g = ((-1,),) if dim == 1 else random_unimodular(rng, dim)
        image = apply_automorphism(fan, LatticeAutomorphism(g))
        want = oracles.is_complete(fan)
        assert is_complete(fan) == want == oracles.ridge_count_complete(fan), fan
        assert is_complete(image) == want == oracles.is_complete(image), (fan, g)
        assert oracles.ridge_count_complete(image) == want, (fan, g)
        answers.add(want)
    assert answers == {True, False}
    if dim == 2:  # "exactly two" is the criterion of both oracles
        overlap = ridge_on_three_cones()
        assert not oracles.is_complete(overlap)
        assert not oracles.ridge_count_complete(overlap)


def test_completeness_makes_no_dot_call(monkeypatch):
    """The answer is stored at build; no pairing is recomputed."""
    fans = [projective_space(3), product_p1(3), twenty_four_cell_fan()]
    calls = counting(monkeypatch, fan_module, "dot")
    assert all(is_complete(f) for f in fans)
    assert calls == []
