"""The double description's incidences against dot products.

``lattice._double_description`` returns each extreme ray with the bitmask of
the input rows that vanish on it. Fan validation, the completeness
certificate and the polytope read those masks; nothing pairs a ray with a
row again to find them. Here every mask is recomputed with ``dot``, by the
code it replaced (``oracles.cone_tight_sets``, ``oracles.vertex_facet_sets``
and ``oracles.dot_hull_facets``), on fans and polytopes in dimensions 2 to
9: the face-index fans and their GL_n(Z) images, the shuffled product fans,
non-simplicial cones (cross-polytope fans, the 24-cell), lower-dimensional
cones (``BLOWUP_FAN``, the Z^5 fixture) and the hulls of cubes,
cross-polytopes, permutohedra and random polygons. The Motzkin step
(``lattice._motzkin``) drops a pair tight together on fewer than d - 2 rows
before its adjacency scan, for a cone of dimension d; with d the rank of the
start rays it must still return what the step without that filter, the old
``cut_cone`` (``oracles.motzkin_cut_cone``), returned on seeded systems.
Building a fan or a polytope computes no incidence by a dot product at all.
"""

import random

import pytest

import oracles
from helpers import permutohedron, random_lattice_polygons, shuffled_products
from test_cli import counting
from test_elimination import BLOWUP_FAN, SMITH_BLOWUP
from test_face_index import fans_in_dim
from test_faces import LOWER_DIMENSIONAL, cone_over_twenty_four_cell, twenty_four_cell_fan
from test_kernel import random_unimodular, random_vectors
from test_polytope_faces import cross_polytope
from toricroots import (
    LatticeAutomorphism,
    LatticePolytope,
    apply_automorphism,
    build_fan,
    normal_fan,
    product_p1,
)
from toricroots import fan as fan_module
from toricroots import lattice, polytope
from toricroots.lattice import dot, is_primitive, mat_vec, primitive, rank
from toricroots.polytope import cube


def masks_by_dot(rows, rays):
    """Per ray, the bitmask of the rows that vanish on it."""
    return tuple(sum(1 << k for k, a in enumerate(rows) if dot(a, r) == 0) for r in rays)


def rebuilt(fan):
    return build_fan(fan.dim, fan.rays, [c.ray_indices for c in fan.max_cones],
                     allow_nonprimitive=not all(map(is_primitive, fan.rays)))


def fans(dim):
    """The face-index fans of the dimension (complete fans and an orthant,
    each with a GL_n(Z) image, and subfans), and the other fixtures of the
    dimension, each with a GL_n(Z) image."""
    rng = random.Random(2300 + dim)
    out = []
    if dim == 4:
        out.append(twenty_four_cell_fan())
    if dim == 5:
        out.append(cone_over_twenty_four_cell())
        out.append(build_fan(5, [primitive(r) for r in SMITH_BLOWUP],
                             [[i] for i in range(len(SMITH_BLOWUP))]))
    if dim == 6:
        out.append(build_fan(**BLOWUP_FAN))
    out += [f for f in (make() for make in LOWER_DIMENSIONAL) if f.dim == dim]
    out += [f for f in shuffled_products().values() if f.dim == dim]
    images = [apply_automorphism(f, LatticeAutomorphism(random_unimodular(rng, dim)))
              for f in out]
    return (fans_in_dim(dim, 2400 + dim) if dim <= 6 else []) + out + images


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6, 7, 8, 9))
def test_fan_incidences_match_dot_products(dim, monkeypatch):
    """Each maximal cone's description carries, per inequality, the mask of
    the generators on which it vanishes, and _check_fan hands the
    certificate those sets as masks of ray indices, with no other bit set."""
    seen = []
    certify = fan_module._certify_complete

    def spy(rays, cones, descs, tights):
        seen.append((rays, cones, descs, tights))
        return certify(rays, cones, descs, tights)

    monkeypatch.setattr(fan_module, "_certify_complete", spy)
    cones = 0
    for fan in fans(dim):
        seen.clear()
        rebuilt(fan)
        ((rays, idxs, descs, tights),) = seen
        for idx in idxs:
            ineqs, eqs = descs[idx]
            gens = tuple(rays[i] for i in idx)
            assert fan_module._dual_description(gens, dim) == (
                ineqs, eqs, masks_by_dot(gens, ineqs)), (fan, idx)
            sets = oracles.cone_tight_sets(idx, ineqs, rays)
            assert tights[idx] == [fan_module._bits(s) for s in sets], (fan, idx)
            cones += 1
    assert cones > 20


def hulls(dim, rng):
    """Vertex lists: the cube, the cross-polytope (not simple) and the
    permutohedron of order dim + 1 (dims 3 and 4), each with a GL_n(Z)
    image; in dimension 2, seeded lattice polygons."""
    out = [cube(dim).vertices, cross_polytope(dim)]
    if dim in (3, 4):
        out.append(permutohedron(dim + 1))
    for verts in list(out):
        g = random_unimodular(rng, dim)
        out.append([mat_vec(g, v) for v in verts])
    if dim == 2:
        out += [p.vertices for p in random_lattice_polygons(2500, 60)]
    return out


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
def test_polytope_incidences_match_dot_products(dim):
    """The hull's facets are those of the dot-product code it replaced, and
    bit i of a facet's mask is set iff vertex i lies on it; the polytope
    stores the same."""
    rng = random.Random(2600 + dim)
    for verts in hulls(dim, rng):
        pts = tuple(sorted(map(tuple, verts)))
        fs, on = polytope._hull_facets(pts, dim)
        assert fs == oracles.dot_hull_facets(pts, dim)
        assert on == tuple(map(fan_module._bits, oracles.vertex_facet_sets(pts, fs)))
        p = LatticePolytope(dim, pts)
        assert p._facets == fs and p._on == on


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
def test_double_description_masks_match_dot_products(dim):
    """On seeded rows (spanning or not, with repeated and opposite rows):
    the rays are dual_rays', and each mask is the rows vanishing on its ray."""
    rng = random.Random(2700 + dim)
    spans = set()
    for k in range(60):
        rows = random_vectors(rng, rng.randint(dim - 1, dim + 6), dim, -2, 2)
        if k % 5 == 0:
            rows.append(tuple(-x for x in rows[0]))
        if k % 7 == 0:
            rows.append(rows[-1])
        dd = lattice._double_description(rows, dim)
        assert (dd and dd[0]) == lattice.dual_rays(rows, dim) == oracles.dual_rays(rows, dim)
        if dd is not None:
            assert dd[1] == masks_by_dot(rows, dd[0]), rows
        spans.add(dd is not None)
    assert spans == {True, False}


def cut_systems(dim, rng):
    """(rays, rows, cuts): the orthant, and a simplicial cone of each lower
    dimension inside a random sublattice (its rows cut it out within its
    span), with seeded cuts; and pairs of maximal cones of the fans of the
    dimension and of the lower-dimensional fans, as fan validation
    intersects them."""
    out = []
    unit = lattice.identity(dim)
    for _ in range(25):
        out.append((unit, unit, random_vectors(rng, rng.randint(1, 2 * dim), dim, -2, 2)))
    for k in range(1, dim):
        while True:
            basis = [primitive(v) for v in random_vectors(rng, k, dim, -2, 2)]
            if rank(basis, dim) == k:
                break
        rows = fan_module._dual_description(tuple(basis), dim)[0]
        for _ in range(5):
            out.append((sorted(basis), rows, random_vectors(rng, rng.randint(1, 2 * dim), dim)))
    pairs = [f for f in fans_in_dim(dim, 2800 + dim) if len(f.max_cones) > 1][:4]
    for fan in pairs + [f for f in (make() for make in LOWER_DIMENSIONAL) if f.dim == dim]:
        for a, b in zip(fan.max_cones, fan.max_cones[1:]):
            gens = tuple(sorted(primitive(fan.rays[i]) for i in a.ray_indices))
            out.append((gens, a.inequalities,
                        b.inequalities + b.equations + tuple(map(lattice.neg, b.equations))))
    return out


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
def test_filtered_motzkin_step_matches_the_unfiltered_step(dim):
    """Given the rank of the start rays as d, the filtered step returns the
    old cut_cone's rays, each with the mask of the rows and cuts vanishing
    on it."""
    rng = random.Random(2900 + dim)
    nonempty = 0
    for rays, rows, cuts in cut_systems(dim, rng):
        want = oracles.motzkin_cut_cone(rays, rows, cuts)
        got, tight = lattice._motzkin(list(rays), list(masks_by_dot(rows, rays)),
                                      enumerate(cuts, len(rows)), rank(rays, dim))
        assert tuple(sorted(got)) == want, (rays, rows, cuts)
        assert tuple(tight) == masks_by_dot(tuple(rows) + tuple(cuts), got)
        nonempty += len(got) > 1
    assert nonempty >= 10


def fail(*_):
    pytest.fail("an incidence was computed by a dot product")


def test_building_computes_no_incidence_by_a_dot_product(monkeypatch):
    """Building (P^1)^5 and the normal fan of the 4-cube through build_fan
    (oracles.built_normal_fan) runs no dot product in the double
    description (every cone is simplicial, so nothing is cut) and in the fan
    only those of the certificate: one per shared facet (the partner's ray
    off it) and, for the degree test, one per inequality of each other cone
    until one is negative at the sum p of the first cone's rays.
    Constructing the 4-cube pairs no vertex with a facet; its hull's double
    description pairs each cut with the current rays only. normal_fan, which
    assembles the same fan from the hull's incidence, runs no dot product."""
    monkeypatch.setattr(polytope, "dot", fail)
    p = cube(4)
    calls = counting(monkeypatch, fan_module, "dot")
    monkeypatch.setattr(lattice, "dot", fail)
    for make in (lambda: product_p1(5), lambda: oracles.built_normal_fan(p)):
        calls.clear()
        fan = make()
        assert fan._complete
        cones = fan.max_cones
        shared = sum(len(c.inequalities) for c in cones) // 2
        p_sum = tuple(map(sum, zip(*(fan.rays[i] for i in cones[0].ray_indices))))
        degree = sum(next(k for k, a in enumerate(c.inequalities, 1)
                          if sum(x * y for x, y in zip(a, p_sum)) < 0) for c in cones[1:])
        assert len(calls) == shared + degree
        assert [args[1] for args in calls[shared:]] == [p_sum] * degree
    calls.clear()
    assert normal_fan(p) == fan and calls == []
