"""The normal fan assembled from the hull's incidence against build_fan.

``polytope.normal_fan`` builds no cone's double description and validates
nothing: each vertex's cone has as rays the facets through the vertex and
as inequalities the primitive directions of its edges, found by the closure
test on the vertex-facet incidence, and the fan is stored as complete by
theorem. ``oracles.built_normal_fan`` is the route it replaced, through
``build_fan``, which describes, validates and certifies every cone. Both
must give the same fan, cone by cone, on cubes, dilated simplices and a
segment, polytopes that are not simple (cross-polytopes, a paraboloid lift
whose lower facets are squares, a pyramid over an octagon), permutohedra
of orders 3 to 5, seeded lattice polygons, and a GL_n(Z) image of each.
The rectangle test, which reads the same normal cones, is checked on that
corpus against its determinant version
(``oracles.determinant_inscribed_in_rectangle``).
"""

import random

import pytest

import oracles
from helpers import permutohedron, random_lattice_polygons
from test_cli import counting
from test_kernel import random_unimodular
from test_polytope_faces import cross_polytope
from toricroots import LatticePolytope, is_complete, normal_fan
from toricroots import fan as fan_module
from toricroots import lattice, polytope
from toricroots.lattice import mat_vec
from toricroots.polytope import cube, dilated_simplex, segment


def named_polytopes():
    """(name, polytope) pairs of the corpus above, without the images."""
    out = [(f"cube{n}", cube(n)) for n in range(1, 6)]
    out += [(f"dsimplex{n},{d}", dilated_simplex(n, d)) for n in range(1, 5) for d in (1, 3)]
    out.append(("segment", segment(4)))
    out += [(f"cross{n}", LatticePolytope(n, tuple(cross_polytope(n)))) for n in (3, 4, 5)]
    out.append(("paraboloid", LatticePolytope(
        3, tuple((x, y, x * x + y * y) for x in range(-2, 3) for y in range(-2, 3)))))
    octagon = [(1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2)]
    out.append(("octagon pyramid", LatticePolytope(3, tuple((x, y, 0) for x, y in octagon)
                                                   + ((0, 0, 1),))))
    out += [(f"perm{n}", LatticePolytope(n - 1, tuple(permutohedron(n)))) for n in (3, 4, 5)]
    return out


def image(p, rng):
    g = random_unimodular(rng, p.dim)
    return LatticePolytope(p.dim, tuple(mat_vec(g, v) for v in p.vertices))


def assert_matches_oracle(p):
    got, want = normal_fan(p), oracles.built_normal_fan(p)
    assert got.dim == want.dim and got.rays == want.rays
    assert [(c.ray_indices, c.inequalities, c.equations, c.dim) for c in got.max_cones] \
        == [(c.ray_indices, c.inequalities, c.equations, c.dim) for c in want.max_cones]
    assert is_complete(got) is is_complete(want) is True
    assert got == want


NAMED = named_polytopes()


@pytest.mark.parametrize("name,p", NAMED, ids=[n for n, _ in NAMED])
def test_normal_fan_matches_build_fan(name, p):
    assert_matches_oracle(p)
    assert_matches_oracle(image(p, random.Random(name)))


def test_normal_fans_of_polygons_match_build_fan():
    rng = random.Random(24)
    for p in random_lattice_polygons(5, 300):
        assert_matches_oracle(p)
        assert_matches_oracle(image(p, rng))


def test_the_corpus_has_polytopes_that_are_not_simple():
    """In the cross-polytopes, the paraboloid lift and the pyramid some
    vertex lies on more facets than the dimension: 16 in cross5."""
    most = {name: max(len(c.ray_indices) for c in normal_fan(p).max_cones) for name, p in NAMED}
    assert most["cross5"] == 16
    for name in ("cross3", "cross4", "paraboloid", "octagon pyramid"):
        assert most[name] > dict(NAMED)[name].dim, name


def test_normal_fan_makes_no_elimination_and_no_build(monkeypatch):
    """On the order-5 permutohedron, once the hull is built, normal_fan runs
    no dual description, no Gauss-Jordan pass and no build_fan."""
    p = LatticePolytope(4, tuple(permutohedron(5)))
    calls = [counting(monkeypatch, module, name) for module, name in (
        (fan_module, "_dual_description"), (fan_module, "build_fan"),
        (fan_module, "_check_fan"), (lattice, "_gauss_jordan"),
        (lattice, "_double_description"), (lattice, "_motzkin"))]
    fan = normal_fan(p)
    assert calls == [[]] * 6 and not hasattr(polytope, "build_fan")
    assert len(fan.max_cones) == 120 and is_complete(fan)


@pytest.mark.parametrize("name,p", NAMED, ids=[n for n, _ in NAMED])
def test_each_vertex_finds_its_own_cone(name, p):
    """The position normal_fan stores for each vertex is that of the cone
    whose rays are the facets through the vertex, as the rescan of every
    facet found it; the rectangle test and the edge directions read it."""
    fan = normal_fan(p)
    for i, v in enumerate(p.vertices):
        cone = polytope._normal_cone(p, i)
        assert cone.ray_indices == oracles.cone_rays(p, i)
        assert polytope.edge_directions_at(p, v) == cone.inequalities
    assert sorted(p._cone_at) == list(range(len(fan.max_cones)))


def rectangle_corpus():
    """The corpus above and seeded polygons, and a GL_n(Z) image of each
    member of dimension 2 to 5."""
    rng = random.Random(27)
    out = [p for _, p in NAMED] + random_lattice_polygons(27, 100)
    return out + [image(p, rng) for p in out if 2 <= p.dim <= 5]


def test_the_rectangle_test_matches_the_determinant_test(monkeypatch):
    """inscribed_in_rectangle returns the witness of the determinant
    version (``oracles.determinant_inscribed_in_rectangle``) and computes no
    determinant. At each vertex the test D = 1 on the inverse (basis, W, D)
    read off its normal cone agrees with |det| = 1 of its dim edge
    directions; the corpus has unimodular cones, simplicial cones that are
    not, and cones that are not simplicial, and polytopes with a witness
    and without one."""
    determinants = counting(monkeypatch, lattice, "determinant")
    kinds, answers = set(), set()
    for p in rectangle_corpus():
        got = polytope.inscribed_in_rectangle(p)
        assert determinants == []
        assert got == oracles.determinant_inscribed_in_rectangle(p)
        answers.add(got is None)
        rays = normal_fan(p).rays
        for i in range(len(p.vertices)):
            cone = polytope._normal_cone(p, i)
            found = fan_module._simplicial_inverse(cone, rays, cone.ray_indices)
            dirs = cone.inequalities
            unimodular = len(dirs) == p.dim and abs(lattice.determinant(dirs)) == 1
            assert (found is not None and found[2] == 1) == unimodular
            assert (found is None) == (len(dirs) != p.dim)
            kinds.add("not simplicial" if found is None else unimodular)
        determinants.clear()
    assert kinds == {"not simplicial", True, False} and answers == {True, False}
