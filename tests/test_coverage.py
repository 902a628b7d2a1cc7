"""The coverage check of ``is_complete`` against the loop it replaced.

``fan._first_uncovered`` tests all directions against one inequality at
once, in fixed-width fields of packed integers; ``oracles.first_uncovered``
keeps the loop of one ``Fan.contains_point`` call per direction. Both must
name the same first uncovered direction on the same draws, in dimensions 1
to 5, on fans with n-dimensional maximal cones: builtin complete fans, the
normal fans of the cross-polytopes and of the 24-cell, orthants, their
GL_n(Z) images (some by products of +-3 elementary steps), fans with
normals near 10^15, and subfans with maximal cones dropped, where
directions are missed.
"""

import random

import pytest

import oracles
from helpers import folded_quadrant_fan
from test_completeness import ONE_DIMENSIONAL
from test_face_index import COMPLETE, orthant, subfan
from test_faces import twenty_four_cell_fan
from test_kernel import random_unimodular
from toricroots import (
    LatticeAutomorphism,
    apply_automorphism,
    hirzebruch,
    is_complete,
    projective_space,
    wps_one,
)
from toricroots import fan as fan_module
from toricroots.errors import InternalError
from toricroots.lattice import identity


def big_normal_fans():
    return [hirzebruch(10**15), wps_one(10**9, 3)]


def big_unimodular(rng, n):
    """A product of 2n elementary matrices adding +-3 times one row to another."""
    m = [list(row) for row in identity(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-3, 3))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def coverage_fans(dim, rng):
    """Fans with n-dimensional maximal cones, each with two GL_n(Z) images,
    and two subfans of each of those (in dimension 1, the fans as they are)."""
    if dim == 1:
        return [make() for make in ONE_DIMENSIONAL]
    full = [orthant(dim)] + list(COMPLETE[dim])
    if dim == 2:
        full += big_normal_fans()
    if dim == 4:
        full.append(twenty_four_cell_fan())
    out = []
    for fan in full:
        out.append(fan)
        for g in (random_unimodular(rng, dim), big_unimodular(rng, dim)):
            out.append(apply_automorphism(fan, LatticeAutomorphism(g)))
    for fan in list(out):
        count = len(fan.max_cones)
        for size in (1, max(count // 2, 1)) if count > 1 else ():
            out.append(subfan(fan, sorted(rng.sample(range(count), size))))
    return out


def draws(dim, rng):
    """The check's own draw and two more of the same distribution."""
    out = [fan_module._coverage_directions(dim)]
    for _ in range(2):
        coords = rng.choices(range(-9, 10), k=200 * dim)
        out.append([tuple(coords[k:k + dim]) for k in range(0, len(coords), dim)])
    return out


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5))
def test_first_uncovered_matches_the_loop(dim):
    rng = random.Random(1400 + dim)
    fans = coverage_fans(dim, rng)
    misses = several = 0
    for fan in fans:
        assert all(c.dim == dim for c in fan.max_cones)
        for directions in draws(dim, rng):
            want = oracles.first_uncovered(fan, directions)
            assert fan_module._first_uncovered(fan, directions) == want, (fan.rays, want)
            if want is not None:
                misses += 1
                rest = directions[directions.index(want) + 1:]
                several += oracles.first_uncovered(fan, rest) is not None
    assert misses and several


def test_every_corner_of_the_box_against_big_normals():
    """Directions at the corners of [-9, 9]^n give the largest |<a, v>| a
    field must hold: 9|a|_1 for the normal a itself."""
    for fan in big_normal_fans() + [projective_space(3)]:
        dim, count = fan.dim, len(fan.max_cones)
        corners = [tuple(9 if (k >> j) & 1 else -9 for j in range(dim)) for k in range(2 ** dim)]
        for drop in range(count):
            part = subfan(fan, [k for k in range(count) if k != drop])
            assert fan_module._first_uncovered(part, corners) == (
                oracles.first_uncovered(part, corners))
        assert fan_module._first_uncovered(fan, corners) is None


def test_an_uncovered_direction_is_reported_in_draw_order():
    fan = folded_quadrant_fan()
    miss = oracles.first_uncovered(fan, fan_module._coverage_directions(2))
    assert miss is not None
    with pytest.raises(InternalError, match=rf"fails to cover direction \({miss[0]}, {miss[1]}\)"):
        is_complete(fan)
