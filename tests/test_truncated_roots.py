"""Truncated roots of fans that are not complete: the box search.

When the condition-(1) polyhedron of a ray is unbounded, a bound b lists
its lattice points of sup-norm at most b that satisfy condition (2).
``demazure._roots_for_ray`` searches that box directly with
``lattice._search``: its basis is the ray and the first n - 1 unit vectors
independent of it, the ray's pairing fixed at -1 and each unit coordinate
in [-b, b], and the other unit vectors, their opposites and the other rays
are the rows it prunes by. So it visits at most (2b + 1)^(n - 1) leaves,
the bound ``MAX_BOX_POINTS`` is checked against, and it runs no second
double description. ``oracles.box_roots_for_ray`` is the route it
replaced: the condition-(1) system with 2n box rows added, run through
``lattice_points`` again, whose basis and bounds come from the double
description of that system. Where the box holds few points, the roots
are also checked against a scan of every point of the box.
"""

import random
from itertools import product

import pytest

import oracles
from helpers import quadrant_fan, torsion_fan
from test_cli import counting
from test_elimination import BLOWUP_FAN, SMITH_BLOWUP
from test_face_index import cross_polytope_fan, orthant
from test_kernel import random_unimodular
from toricroots import (
    LatticeAutomorphism,
    all_roots,
    apply_automorphism,
    build_fan,
    fan_from_json_dict,
    is_demazure_root,
    product_p1,
    roots_for_ray,
)
from toricroots import lattice
from toricroots.lattice import primitive


def without_first_cone(fan):
    return build_fan(fan.dim, fan.rays, [c.ray_indices for c in fan.max_cones[1:]])


def glcross5():
    g = LatticeAutomorphism(random_unimodular(random.Random(1), 5))
    return apply_automorphism(cross_polytope_fan(5), g)


CORPUS = {
    "quadrant": quadrant_fan,
    "torsion": torsion_fan,
    **{f"orthant{n}": (lambda n=n: orthant(n)) for n in range(2, 7)},
    "blowup": lambda: fan_from_json_dict(BLOWUP_FAN),
    "z5": lambda: build_fan(5, [primitive(r) for r in SMITH_BLOWUP],
                            [[i] for i in range(len(SMITH_BLOWUP))]),
    "glcross5-1": lambda: without_first_cone(glcross5()),
    "p1n3-1": lambda: without_first_cone(product_p1(3)),
    "p1n4-1": lambda: without_first_cone(product_p1(4)),
}
TRUNCATED = [name for name in CORPUS if not name.startswith(("glcross5", "p1n"))]


def bounds(name):
    """1 to 4; on the 6-dimensional orthant 1 and 2, as bound 4 alone costs
    each route some 0.3 s (CI runs ``roots --bound 4`` on it)."""
    return (1, 2) if name == "orthant6" else range(1, 5)


@pytest.mark.parametrize("name", CORPUS)
def test_the_box_search_lists_the_roots_of_the_box_rows(name):
    """The same RootSet as the route that added the box rows, for each
    bound of :func:`bounds`; the fans minus one cone have bounded
    polyhedra only, so there the bound is not used."""
    fan = CORPUS[name]()
    for bound in bounds(name):
        got = all_roots(fan, bound)
        assert got == oracles.box_all_roots(fan, bound), (name, bound)
        truncated = [r.status == "truncated" for r in got.per_ray]
        assert all(truncated) if name in TRUNCATED else not any(truncated)


@pytest.mark.parametrize("name", TRUNCATED)
def test_the_box_search_lists_every_root_of_a_small_box(name):
    """Each root of sup-norm at most b found by testing every point of the
    box, where it holds at most 5^5 points."""
    fan = CORPUS[name]()
    for bound in (1, 2):
        if (2 * bound + 1) ** fan.dim > 5 ** 5:
            continue
        box = list(product(range(-bound, bound + 1), repeat=fan.dim))
        for ray in range(len(fan.rays)):
            want = [e for e in box if is_demazure_root(fan, e, ray)]
            got = [r.vector for r in roots_for_ray(fan, ray, bound).roots]
            assert got == want, (name, bound, ray)


@pytest.mark.parametrize("name", TRUNCATED)
def test_the_box_search_visits_at_most_the_box_of_its_basis(monkeypatch, name):
    """At most (2b + 1)^(n - 1) leaves per ray, the count MAX_BOX_POINTS
    bounds: the basis is the ray, fixed at -1, and n - 1 unit vectors. On
    an orthant every leaf is a root: the ray at -1 and every other
    coordinate in [0, b]."""
    fan = CORPUS[name]()
    leaves = []
    descend = lattice._descend

    def counted(steps, level, *rest):
        if level == len(steps):
            leaves.append(level)
        return descend(steps, level, *rest)

    monkeypatch.setattr(lattice, "_descend", counted)
    for bound in bounds(name):
        for ray in range(len(fan.rays)):
            leaves.clear()
            roots = roots_for_ray(fan, ray, bound).roots
            assert len(roots) <= len(leaves) <= (2 * bound + 1) ** (fan.dim - 1)
            if name.startswith("orthant"):
                assert len(leaves) == len(roots) == (bound + 1) ** (fan.dim - 1)


@pytest.mark.parametrize("name", CORPUS)
def test_one_lattice_points_call_per_ray_with_a_bound(monkeypatch, name):
    """The box is searched without a second lattice_points call."""
    fan = CORPUS[name]()
    calls = counting(monkeypatch, lattice, "lattice_points")
    all_roots(fan, 2)
    assert len(calls) == len(fan.rays)
