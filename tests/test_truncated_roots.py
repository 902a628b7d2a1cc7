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
from toricroots import demazure, lattice
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
    """The box is searched without a second double description: one
    ``lattice._points`` call per ray."""
    fan = CORPUS[name]()
    calls = counting(monkeypatch, lattice, "_points")
    all_roots(fan, 2)
    assert len(calls) == len(fan.rays)


@pytest.mark.parametrize("name,bound", [
    ("quadrant", 6), ("orthant3", 5), ("glcross5-1", None), ("p1n3-1", None)])
def test_each_listed_vector_is_paired_once(monkeypatch, name, bound):
    """The floors of the searched rows are condition (1), so no listed
    vector is tested for it again: all_roots makes no ``_root`` and no
    ``_condition1`` call, and one ``pairing_row`` call per vector that
    ``lattice._search`` lists, in its order; condition (2) then filters
    them (on ``p1n 3`` minus one cone it drops 3 of the 6)."""
    fan = CORPUS[name]()
    listed = []
    search = lattice._search

    def recorded(*args):
        found = search(*args)
        listed.extend(found)
        return found

    monkeypatch.setattr(lattice, "_search", recorded)
    rebuilds = counting(monkeypatch, demazure, "_root")
    retests = counting(monkeypatch, demazure, "_condition1")
    pairings = counting(monkeypatch, demazure, "pairing_row")
    got = all_roots(fan, bound)
    assert rebuilds == retests == []
    assert [args[1] for args in pairings] == listed
    assert len(got.roots()) <= len(listed)


@pytest.mark.parametrize("name", ["orthant3", "orthant4", "p1n3-1"])
def test_gl_images_match_the_box_rows(name):
    """On these GL_n(Z) images no ray is on a coordinate axis (seed 50 is
    the first that gives that for all three), so the box of sup-norm b is
    not the image of the original fan's box: the same RootSet as the route
    that added the box rows, bounds 1 and 2, and on the image of the
    3-dimensional orthant every root of the box found by a scan of it. The
    orthants' rays are truncated; ``p1n 3`` minus one cone has bounded
    polyhedra only."""
    fan = CORPUS[name]()
    g = LatticeAutomorphism(random_unimodular(random.Random(50), fan.dim))
    fan = apply_automorphism(fan, g)
    units = set(lattice.identity(fan.dim))
    assert not units & {r for p in fan.rays for r in (p, lattice.neg(p))}
    for bound in (1, 2):
        got = all_roots(fan, bound)
        assert got == oracles.box_all_roots(fan, bound), bound
        truncated = {r.status == "truncated" for r in got.per_ray}
        assert truncated == {name.startswith("orthant")}
        if name == "orthant3":
            box = list(product(range(-bound, bound + 1), repeat=fan.dim))
            for ray in range(len(fan.rays)):
                want = [e for e in box if is_demazure_root(fan, e, ray)]
                assert [r.vector for r in got.per_ray[ray].roots] == want, (bound, ray)


def recession_directions(fan, ray):
    """Nonzero integral r with <p_ray, r> = 0 and <p_i, r> >= 0 for every
    other ray: a basis of the rays' kernel and its opposites when the
    kernel is not zero, and otherwise the extreme rays of that cone, which
    is then pointed."""
    kernel = lattice.kernel_basis(fan.rays, fan.dim)
    if kernel:
        return [*kernel, *map(lattice.neg, kernel)]
    return lattice.dual_rays([*fan.rays, lattice.neg(fan.rays[ray])], fan.dim)


@pytest.mark.parametrize("name", [n for n in TRUNCATED if n.startswith("orthant")]
                         + ["blowup", "z5"])
def test_a_truncated_ray_with_a_root_has_infinitely_many(name):
    """For every root x listed at bound 2 and every recession direction r
    of its ray's condition-(1) polyhedron, x + r is a root too
    (``demazure.roots_for_ray`` proves it), so a ray whose polyhedron is
    unbounded has no root or infinitely many. Every ray of these fans is
    truncated, with a recession direction, and each fan has roots in the
    box."""
    fan = CORPUS[name]()
    checked = 0
    for ray_roots in all_roots(fan, 2).per_ray:
        assert ray_roots.status == "truncated"
        directions = recession_directions(fan, ray_roots.ray)
        assert directions
        for x in ray_roots.roots:
            for r in directions:
                y = tuple(a + b for a, b in zip(x.vector, r))
                assert is_demazure_root(fan, y, ray_roots.ray), (name, x, r)
                checked += 1
    assert checked
