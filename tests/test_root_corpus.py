"""Additive actions on a generated corpus of fans in dimensions 3 to 6.

By the paper's characterization, a complete fan admits an additive action
iff some maximal cone is generated by a lattice basis p_1..p_n and every
other ray lies in the negative orthant of that basis. So the face fan of
conv(e_1..e_n, q_1..q_k), with each q_j primitive in the negative orthant
and -(1, ..., 1) among them, admits one: conv(e_1..e_n) is a facet, on the
hyperplane where the coordinates sum to 1, and the origin is interior.
Moving one q_j out of the orthant gives a candidate that may not. Each fan
is decided with its image under a random GL_n(Z) map, which must give the
same answer and collection count, and with a subfan that drops one maximal
cone (not complete, so root condition (2) does real work). The collections
must match the C(m, n) subset scan in ``oracles.py``, whose condition (2)
is the minimal-generator check.

The normal fans of the cross-polytopes in dimensions 3 to 5 and their
GL_n(Z) images are decided too, with their roots: each image's roots must
be the images of the fan's. On the GL_4(Z) image by
``random_unimodular(random.Random(1), 4)``, Fourier-Motzkin without
Chernikov's rule ran for minutes, and with it each GL_5(Z) image took
about a second; a complete fan's roots are now read in pairing
coordinates, which a GL_n(Z) image leaves as they are.

Complete fans whose maximal cones are not all simplicial take the pairing
search too, with bounds read off the stored facet normals: the products of
the octahedron's normal fan with P^2, F_3 and (P^1)^2, a GL_5(Z) image, a
product with shuffled rays, the normal fans of paraboloid lifts and of the
5- and 6-dimensional cross-polytopes. Their roots are checked against the
``lattice_points`` route, forced, against the Fourier-Motzkin points of
each ray's condition-(1) system (``oracles.chernikov_lattice_points``) and
against the root test on minimal generators (``oracles.is_demazure_root``),
and their collections against the subset scan.

Cox degrees are left out: ``smith_normal_form`` can blow up on GL_n(Z)
images (see ``test_kernel.py``).
"""

import random

import pytest

import oracles
from oracles import _condition1_system
from helpers import product_fan, shuffled
from test_face_index import cross_polytope_fan, subfan
from test_kernel import random_unimodular
from test_normal_fan import NAMED
from toricroots import (
    LatticeAutomorphism,
    LatticePolytope,
    admits_additive,
    all_roots,
    apply_automorphism,
    build_fan,
    complete_collections,
    hirzebruch,
    is_complete,
    normal_fan,
    product_p1,
    projective_space,
)
from toricroots import demazure
from toricroots.lattice import dot, invert_unimodular, mat_vec, primitive, rank, transpose
from toricroots.polytope import _hull_facets


def face_fan(points, dim):
    """The fan of cones over the facets of conv(points), on its vertices;
    the origin must be interior and the vertices primitive."""
    fs, _ = _hull_facets(tuple(points), dim)
    verts = [v for v in points
             if rank([f.normal for f in fs if dot(f.normal, v) == f.rhs], dim) == dim]
    cones = [[i for i, v in enumerate(verts) if dot(f.normal, v) == f.rhs] for f in fs]
    return build_fan(dim, verts, cones)


def corpus(dim, rng, pairs=2):
    """(fan, admits) pairs, with admits True or None (not known). Each
    positive fan has the points -(1, ..., 1), q_1 and q_2, q_2 with every
    coordinate negative; its candidate has one coordinate of q_2 made 1."""
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    out = []
    for _ in range(pairs):
        q1 = (0,) * dim
        while not any(q1):
            q1 = tuple(rng.choice((-2, -1, 0)) for _ in range(dim))
        q2 = [rng.choice((-2, -1)) for _ in range(dim)]
        for want in (True, None):
            fan = face_fan(units + sorted({(-1,) * dim, primitive(q1), primitive(tuple(q2))}), dim)
            assert is_complete(fan)
            out.append((fan, want))
            q2[rng.randrange(dim)] = 1
    return out


@pytest.mark.parametrize("dim", (3, 4, 5, 6))
def test_corpus_answers_are_invariant_and_match_the_subset_scan(dim):
    """One pair in dimensions 5 and 6, where the subset scan is slow (0.25 s
    a fan in dimension 6). With these seeds both answers occur among the
    complete fans of every dimension."""
    rng = random.Random(1400 + dim)
    seen = set()
    for fan, want in corpus(dim, rng, pairs=2 if dim < 5 else 1):
        got = complete_collections(fan)
        assert got == oracles.complete_collections(fan), fan.rays
        assert want in (None, bool(got))
        image = apply_automorphism(fan, LatticeAutomorphism(random_unimodular(rng, dim)))
        assert admits_additive(image).admits == bool(got)
        assert len(complete_collections(image)) == len(got)
        seen.add(bool(got))
        count = len(fan.max_cones)
        part = subfan(fan, rng.sample(range(count), count - 1))
        assert complete_collections(part) == oracles.complete_collections(part), part.rays
    assert seen == {True, False}


@pytest.mark.parametrize("dim", (3, 4, 5))
def test_cross_polytope_fans_and_their_images_have_the_same_roots(dim):
    """On GL_n(Z) images of the cross-polytope's normal fan, each ray has
    the roots g^-T e of the fan's roots e for the same ray, with the same
    status. There are none: the rays are the 2^n sign vectors, whose
    pairings with e all have the parity of sum(e), so a root's would be -1
    and 2^n - 1 values >= 1, yet the rays sum to 0. Every system is empty,
    so no image has a complete collection or an additive action."""
    fan = cross_polytope_fan(dim)
    roots = all_roots(fan)
    assert all(r.status == "finite" and not r.roots for r in roots.per_ray)
    images = [random_unimodular(random.Random(1), dim),
              random_unimodular(random.Random(dim), dim, 3 * dim)]
    for g in images:
        image = apply_automorphism(fan, LatticeAutomorphism(g))
        dual = transpose(invert_unimodular(g))
        for want, got in zip(roots.per_ray, all_roots(image).per_ray):
            assert (got.ray, got.status) == (want.ray, want.status)
            assert (sorted(r.vector for r in got.roots)
                    == sorted(mat_vec(dual, r.vector) for r in want.roots))
        assert complete_collections(image) == () and not admits_additive(image).admits


def paraboloid_lifts(seed, count):
    """Normal fans of seeded lifts of 5 to 7 distinct points of [-2, 2]^2
    to z = x^2 + y^2, each lifted point a vertex; those with a normal cone
    that is not simplicial (a vertex on four or more facets)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pts = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(5, 7))}
        verts = [(x, y, x * x + y * y) for x, y in sorted(pts)]
        if rank([tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]], 3) < 3:
            continue
        fan = normal_fan(LatticePolytope(3, tuple(verts)))
        if any(len(c.ray_indices) > 3 for c in fan.max_cones):
            out.append(fan)
    return out


def octahedron_products():
    octahedron = cross_polytope_fan(3)
    fans = {"octxP2": product_fan(octahedron, projective_space(2)),
            "octxF3": product_fan(octahedron, hirzebruch(3)),
            "octx(P1)^2": product_fan(octahedron, product_p1(2))}
    g = LatticeAutomorphism(random_unimodular(random.Random(5), 5))
    fans["gl5(octxP2)"] = apply_automorphism(fans["octxP2"], g)
    fans["shuffledF3xoct"] = shuffled(product_fan(hirzebruch(3), octahedron), random.Random(1))
    return fans


NOT_SIMPLICIAL = {**octahedron_products(), "paraboloid": normal_fan(dict(NAMED)["paraboloid"]),
                  **{f"lift{k}": fan for k, fan in enumerate(paraboloid_lifts(3000, 4))}}


@pytest.mark.parametrize("name", NOT_SIMPLICIAL)
def test_complete_fans_that_are_not_simplicial_match_the_oracles(name):
    """Each ray's roots are "finite", sorted, and exactly the oracle's
    points, each of them a root on minimal generators, as the lattice_points
    route reports them when the fan is forced onto it (no search caches);
    the collections are those of the subset scan. The products have roots
    on the rays of the second factor, and so do some lifts."""
    fan = NOT_SIMPLICIAL[name]
    assert is_complete(fan) and any(len(c.ray_indices) > fan.dim for c in fan.max_cones)
    roots = all_roots(fan)
    for ray, got in enumerate(roots.per_ray):
        points = oracles.chernikov_lattice_points(_condition1_system(fan, ray), fan.dim)
        assert demazure._roots_for_ray(fan, ray, None, None) == got
        assert (got.ray, got.status, got.bound) == (ray, "finite", None)
        assert [r.vector for r in got.roots] == list(points), (name, ray)
        assert all(oracles.is_demazure_root(fan, r.vector, ray) for r in got.roots)
    assert complete_collections(fan) == oracles.complete_collections(fan)
    if name.startswith(("oct", "gl5", "shuffled")):
        assert roots.roots()


@pytest.mark.parametrize("dim", (5, 6))
def test_cross_polytope_normal_fans_match_the_lattice_points_route(dim):
    """The 5- and 6-dimensional cross-polytope normal fans have 16 and 32
    rays in each maximal cone. Each ray's report of the pairing search is
    the one of the lattice_points route, forced, and has no roots, by the
    parity argument above; in dimension 5 it is also the oracle's. The
    oracle took 38 s on one ray of the 6-dimensional one, so it is left
    out there."""
    fan = cross_polytope_fan(dim)
    assert fan._complete and {len(c.ray_indices) for c in fan.max_cones} == {2 ** (dim - 1)}
    for ray, got in enumerate(all_roots(fan).per_ray):
        assert demazure._roots_for_ray(fan, ray, None, None) == got
        assert (got.ray, got.status, got.roots, got.bound) == (ray, "finite", (), None)
        if dim == 5:
            assert oracles.chernikov_lattice_points(_condition1_system(fan, ray), dim) == ()
