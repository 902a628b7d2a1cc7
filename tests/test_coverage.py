"""Coverage of the stored completeness answer by seeded directions.

``build_fan`` decides completeness by its certificate alone. Here
``oracles.first_uncovered`` (one ``Fan.contains_point`` call per direction)
checks that answer on the fans of the completeness and certificate tests:
on the seeded draw of 200 directions uniform on [-9, 9]^n that the library
used to check at build, and on two more draws of the same distribution,
every fan stored as complete covers every direction, and every subfan and
orthant with n-dimensional maximal cones misses at least one.
"""

import random

import pytest

import oracles
from test_certificate import complete_fans
from test_completeness import base_fans
from test_face_index import subfan
from toricroots import hirzebruch, is_complete, projective_space, wps_one
from toricroots.lattice import dot

COVERAGE_SEED = 0x5EED
COVERAGE_SAMPLES = 200


def draws(dim, rng):
    """The seeded draw and two more of the same distribution."""
    out = []
    for source in (random.Random(COVERAGE_SEED), rng, rng):
        coords = source.choices(range(-9, 10), k=COVERAGE_SAMPLES * dim)
        out.append([tuple(coords[k:k + dim]) for k in range(0, len(coords), dim)])
    return out


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5))
def test_stored_completeness_agrees_with_coverage(dim):
    rng = random.Random(1400 + dim)
    fans = base_fans(dim, rng) + complete_fans(dim, rng)
    directions = draws(dim, rng)
    complete = missing = 0
    for fan in fans:
        if is_complete(fan):
            complete += 1
            assert all(oracles.first_uncovered(fan, d) is None for d in directions), fan
        elif all(c.dim == dim for c in fan.max_cones):
            missing += 1
            assert any(oracles.first_uncovered(fan, d) is not None for d in directions), fan
    assert complete and missing


def test_every_corner_of_the_box_against_big_normals():
    """Fans with normals near 10^15 are certified complete and cover every
    corner of [-9, 9]^n. With one maximal cone dropped they are not
    complete, and the corners they miss are those inside the dropped cone
    (a point on its boundary lies on a facet that another cone shares)."""
    for fan in [hirzebruch(10**15), wps_one(10**9, 3), projective_space(3)]:
        dim, count = fan.dim, len(fan.max_cones)
        corners = [tuple(9 if (k >> j) & 1 else -9 for j in range(dim)) for k in range(2 ** dim)]
        assert is_complete(fan) and oracles.first_uncovered(fan, corners) is None
        missed = 0
        for drop in range(count):
            part = subfan(fan, [k for k in range(count) if k != drop])
            normals = fan.max_cones[drop].inequalities
            inside = [v for v in corners if all(dot(a, v) > 0 for a in normals)]
            assert not is_complete(part)
            assert oracles.first_uncovered(part, corners) == (inside[0] if inside else None)
            missed += bool(inside)
        assert missed >= count - 1
