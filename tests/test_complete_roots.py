"""Roots of complete fans in pairing coordinates, against Fourier-Motzkin.

On a fan certified complete, ``roots_for_ray`` enumerates a ray's roots
by their pairings with n independent rays of the first maximal cone
through it, each bounded by the stored facet normals of the cone that
holds the opposite of that basis ray (the proofs are in its docstring),
and runs no double description. A fan that is not complete takes
``lattice._points``. ``oracles.chernikov_lattice_points`` on the
ray's condition-(1) system is the oracle of both routes: on a complete fan
condition (1) alone decides, so its points are exactly the roots. It is
the Fourier-Motzkin elimination that ``lattice.lattice_points`` ran
before; ``lattice_points`` now shares its lattice search
(``lattice._search``) with the pairing search, so it is not the oracle
here. The corpus: the bundled complete fans, seeded random
complete surfaces, products with shuffled rays, weighted projective
spaces, GL_n(Z) images built from at least 25 elementary steps, the
cross-polytope fans of dimensions 3 to 5 (not simplicial) and the normal
fans of the polytopes of ``test_normal_fan.py``, some of which are not
simple. The basis inverse (basis, W, D) of a simplicial cone is read off
its stored facet normals (``fan._simplicial_inverse``); on a corpus of
simplicial fans it is checked against ``lattice._basis_inverse``, the
Gauss-Jordan pass of the double description. ``oracles.peel``, the
decomposition of a point of a cone one face at a time, is checked here on
cones that are simplicial and cones that are not.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import oracles
from oracles import _condition1_system
from helpers import (
    bundled_complete_fans,
    product_fan,
    random_complete_fans_2d,
    shuffled_products,
)
from test_cli import counting
from test_face_index import cross_polytope_fan, orthant, subfan
from test_kernel import random_unimodular
from test_normal_fan import NAMED
from toricroots import (
    Cone,
    LatticeAutomorphism,
    all_roots,
    apply_automorphism,
    build_fan,
    hirzebruch,
    normal_fan,
    product_p1,
    projective_space,
    roots_for_ray,
    wps_one,
)
from toricroots import demazure, lattice
from toricroots.demazure import pairing_row
from toricroots.fan import _simplicial_inverse
from toricroots.lattice import UNBOUNDED, kernel_basis, transpose


def weighted_projective_space(*weights):
    """The fan of P(q_0, ..., q_n), the weights coprime: rays p_i spanning
    Z^n with sum q_i p_i = 0, the columns of a basis of the integer kernel
    of q, and every n of them a maximal cone."""
    n = len(weights) - 1
    rays = transpose(kernel_basis([weights], n + 1))
    cones = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    return build_fan(n, rays, cones, allow_nonprimitive=True)


def assert_roots_match_elimination(fan):
    assert fan._complete
    for ray in range(len(fan.rays)):
        got = roots_for_ray(fan, ray)
        points = oracles.chernikov_lattice_points(_condition1_system(fan, ray), fan.dim)
        assert points is not UNBOUNDED
        assert (got.ray, got.status, got.bound) == (ray, "finite", None)
        assert [r.vector for r in got.roots] == list(points), (fan.rays, ray)
        assert all(r.ray == ray and r.pairings == pairing_row(fan, r.vector) for r in got.roots)


def skewed(fan, seed, steps=25):
    g = random_unimodular(random.Random(repr(seed)), fan.dim, max(steps, 5 * fan.dim))
    return apply_automorphism(fan, LatticeAutomorphism(g))


BUNDLED = bundled_complete_fans()


@pytest.mark.parametrize("name,fan", BUNDLED, ids=[n for n, _ in BUNDLED])
def test_bundled_fans_and_their_images(name, fan):
    assert_roots_match_elimination(fan)
    assert_roots_match_elimination(skewed(fan, name))


def test_random_complete_surfaces_and_their_images():
    for k, fan in enumerate(random_complete_fans_2d(25, 20)):
        assert_roots_match_elimination(fan)
        assert_roots_match_elimination(skewed(fan, k))


def test_products_with_shuffled_rays():
    for fan in shuffled_products().values():
        assert_roots_match_elimination(fan)


@pytest.mark.parametrize("weights", [(1, 2, 3, 5), (2, 3, 7, 11), (1, 1, 2, 3, 5), (3, 5, 7)])
def test_weighted_projective_spaces_and_their_images(weights):
    """No cone of P(2, 3, 7, 11) is unimodular: each basis has D > 1, and
    the search steps through the pairings of integral vectors only."""
    fan = weighted_projective_space(*weights)
    assert [sum(q * p[t] for q, p in zip(weights, fan.rays)) for t in range(fan.dim)] \
        == [0] * fan.dim
    assert_roots_match_elimination(fan)
    assert_roots_match_elimination(skewed(fan, weights))


@pytest.mark.parametrize("dim", (3, 4, 5, 6))
def test_products_and_projective_spaces_under_long_gl_images(dim):
    for fan in (projective_space(dim), product_p1(dim)):
        assert_roots_match_elimination(skewed(fan, dim, 25))


@pytest.mark.parametrize("dim", (3, 4, 5))
def test_cross_polytope_fans_and_their_images(dim):
    """Every maximal cone has 2^(dim-1) rays, so each basis comes from a
    Gauss-Jordan pass over the cone's rays. The image is the one of the CI
    fixtures (cross4, glcross5); on a longer one the oracle takes seconds
    in dimension 5."""
    fan = cross_polytope_fan(dim)
    assert all(len(c.ray_indices) == 2 ** (dim - 1) for c in fan.max_cones)
    assert_roots_match_elimination(fan)
    g = LatticeAutomorphism(random_unimodular(random.Random(1), dim))
    assert_roots_match_elimination(apply_automorphism(fan, g))


@pytest.mark.parametrize("make", [lambda: product_fan(cross_polytope_fan(3), projective_space(2)),
                                  lambda: product_fan(hirzebruch(2), cross_polytope_fan(3))],
                         ids=["cross3xP2", "F2xcross3"])
def test_products_with_a_factor_that_is_not_simplicial(make):
    """No maximal cone is simplicial, so each bound is the least of those
    of several facet normals, and the rays of the other factor have roots."""
    fan = make()
    assert all(len(c.ray_indices) > fan.dim for c in fan.max_cones)
    assert all_roots(fan).roots()
    assert_roots_match_elimination(fan)


@pytest.mark.parametrize("name,p", NAMED, ids=[n for n, _ in NAMED])
def test_normal_fans_of_the_polytope_corpus(name, p):
    fan = normal_fan(p)
    assert_roots_match_elimination(fan)
    if p.dim <= 4:
        assert_roots_match_elimination(skewed(fan, name))


def test_hirzebruch_surfaces_with_large_parameter():
    """F_a has a + 1 roots on its last ray: the box grows with a, the
    number of nodes with it."""
    for a in (7, 20):
        fan = hirzebruch(a)
        assert_roots_match_elimination(fan)
        assert len(roots_for_ray(fan, 3).roots) == a + 1


PEELED = [(n, p) for n, p in NAMED
          if n.startswith(("cross", "paraboloid", "octagon", "perm", "dsimplex3"))]


@pytest.mark.parametrize("name,p", PEELED, ids=[n for n, _ in PEELED])
def test_peel_decomposes_points_of_maximal_cones(name, p):
    """x = sum (num / den) p_r with positive coefficients over distinct rays
    of the cone, at most dim of them, for seeded integer combinations x of
    the cone's rays, in cones that are simplicial and cones that are not."""
    fan = normal_fan(p)
    rng = random.Random(name)
    for cone in rng.sample(fan.max_cones, min(6, len(fan.max_cones))):
        for _ in range(8):
            x = [0] * fan.dim
            for i in rng.sample(cone.ray_indices, rng.randint(1, len(cone.ray_indices))):
                k = rng.randint(0, 3)
                x = [a + k * b for a, b in zip(x, fan.rays[i])]
            coeffs = oracles.peel(tuple(x), cone, fan.rays)
            assert len(coeffs) <= fan.dim and set(coeffs) <= set(cone.ray_indices)
            assert all(num > 0 and den > 0 for num, den in coeffs.values())
            assert [sum(Fraction(num, den) * fan.rays[i][t] for i, (num, den) in coeffs.items())
                     for t in range(fan.dim)] == x


def test_the_peeled_cones_include_simplicial_ones_and_others():
    cones = [c for _, p in PEELED for c in normal_fan(p).max_cones]
    assert {len(c.ray_indices) == len(c.inequalities) for c in cones} == {True, False}


def test_a_complete_fan_makes_no_elimination(monkeypatch):
    """Not one ``lattice._points`` call on a complete fan, the bundled
    fans, a skewed weighted projective space and a simple polytope's normal
    fan included, and no ``_condition2`` call, as condition (1) decides
    there; a fan that is not complete still takes that route."""
    calls = counting(monkeypatch, lattice, "_points")
    checks = counting(monkeypatch, demazure, "_condition2")
    fans = [fan for _, fan in BUNDLED] + [
        skewed(wps_one(2, 3, 7, 11), 1), normal_fan(NAMED[-1][1]), product_p1(10)]
    for fan in fans:
        all_roots(fan)
        roots_for_ray(fan, len(fan.rays) - 1)
    assert calls == checks == []
    all_roots(orthant(3), bound=2)
    assert calls
    calls.clear()
    fan = projective_space(3)
    all_roots(subfan(fan, range(len(fan.max_cones) - 1)))
    assert len(calls) == 4


def test_the_route_is_decided_once_per_call(monkeypatch):
    """all_roots and roots_for_ray decide the route once per call, by the
    completeness certificate alone: a certified complete fan sends every
    ray to the pairing search and makes no ``lattice._points`` call,
    whatever its cones (the octahedron's normal fan, a GL_3(Z) image of it,
    its product with P^1, glcross5 and a paraboloid normal fan, each with
    maximal cones of more than n rays), and a fan that is not complete
    sends every ray to ``lattice._points``. The pairing search of one
    all_roots call shares its caches across the rays."""
    searches = counting(monkeypatch, demazure, "_complete_roots")
    points = counting(monkeypatch, lattice, "_points")
    routes = counting(monkeypatch, demazure, "_route")
    octahedron = cross_polytope_fan(3)
    glcross5 = apply_automorphism(cross_polytope_fan(5),
                                  LatticeAutomorphism(random_unimodular(random.Random(1), 5)))
    for fan in (octahedron, skewed(octahedron, 3), product_fan(octahedron, projective_space(1)),
                glcross5, normal_fan(dict(NAMED)["paraboloid"])):
        assert fan._complete and any(len(c.ray_indices) > fan.dim for c in fan.max_cones)
        all_roots(fan)
        assert points == [] and len(searches) == len(fan.rays) and len(routes) == 1
        assert len({id(args[3]) for args in searches}) == 1
        searches.clear()
        routes.clear()
        roots_for_ray(fan, 0)
        assert points == [] and len(searches) == len(routes) == 1
        searches.clear()
        routes.clear()
    fan = subfan(octahedron, range(len(octahedron.max_cones) - 1))
    all_roots(fan)
    assert searches == [] and len(points) == len(fan.rays) and len(routes) == 1


@pytest.mark.parametrize("make,count", [
    (lambda: wps_one(1, 2, 3, 100), 33508), (lambda: wps_one(2, 3, 7, 11), 60),
    (lambda: product_p1(6), 12), (lambda: projective_space(6), 147)],
    ids=["P(1,1,2,3,100)", "P(1,2,3,7,11)", "(P^1)^6", "P^6"])
def test_simplicial_fans_visit_as_many_nodes_as_with_the_inverse_bounds(monkeypatch, make,
                                                                        count):
    """On a simplicial cone only the facet normal opposite the ray is
    positive on it, so the bound read off the normals is floor(c_rho), the
    one the cone's stored inverse gave, and the search visits the same
    nodes: these are the counts of the search whose bounds were read off
    the stored inverses."""
    fan = make()
    nodes = counting(monkeypatch, lattice, "_descend")
    all_roots(fan)
    assert len(nodes) == count


def large_index_surface(index, a):
    """The complete fan with rays (0,-1), (index,1), (0,1), (-1,a): ray 0
    takes the cone [0, 1], of the given index, as its basis, and its
    pairing with (index, 1) is bounded by index * a + 1, of which only the
    a + 1 values 1 mod index are pairings of integral vectors."""
    return build_fan(2, [(0, -1), (index, 1), (0, 1), (-1, a)], [[0, 1], [1, 2], [2, 3], [3, 0]])


@pytest.mark.parametrize("make", [
    lambda s: s,
    lambda s: product_fan(s, projective_space(1)),
    lambda s: product_fan(projective_space(1), s),
    lambda s: skewed(s, "large index")], ids=["surface", "surfacexP1", "P1xsurface", "image"])
@pytest.mark.parametrize("index", (10 ** 3, 10 ** 6))
def test_a_basis_of_large_index_walks_only_pairings_of_integral_vectors(monkeypatch, index,
                                                                         make):
    """With index 10^6 the box of ray 0 holds 10^7 + 2 values and 11 roots.
    The search steps by the Hermite diagonal, so it makes one call per ray
    and one per root, whatever the index; walking the box would not end
    (with index 10^3 it would make some 10^4 calls)."""
    fan = make(large_index_surface(index, 10))
    nodes = counting(monkeypatch, lattice, "_descend")
    roots = all_roots(fan)
    assert sorted(len(r.roots) for r in roots.per_ray)[-1] == 11
    assert len(nodes) <= len(fan.rays) + len(roots.roots())
    assert_roots_match_elimination(fan)


@pytest.mark.parametrize("n", range(1, 9))
def test_projective_space_visits_few_nodes(monkeypatch, n):
    """P^n has n roots on each of its n + 1 rays. Each bound is 1, so the
    box of one ray has 2^(n-1) points; the cut keeps the search near the
    roots, at most about n nodes per root. A GL_n(Z) image visits the same
    nodes: the bounds and the rows are pairings."""
    nodes = counting(monkeypatch, lattice, "_descend")
    fan = projective_space(n)
    roots = all_roots(fan).roots()
    assert len(roots) == n * (n + 1)
    assert len(nodes) <= 2 * n * len(roots)
    visited = len(nodes)
    nodes.clear()
    assert len(all_roots(skewed(fan, n)).roots()) == len(roots)
    assert len(nodes) == visited


# A complete fan over the faces of a tetrahedron whose cone [0, 1, 2], the
# first through rays 0, 1 and 2, has the coefficients c = (15, 6, 10):
# D = lcm(c_j) = 30 exceeds every c_j.
TETRAHEDRON = build_fan(3, [(-1, 2, 2), (2, -1, 2), (2, 1, -4), (-1, -1, 1)],
                        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def simplicial_corpus():
    """Complete fans whose maximal cones are all simplicial, many of them
    not unimodular: P(1, 2, 3, 7, 11) as ``wps_one`` builds it (and
    P(1, 2, 4, 6), whose last ray is not primitive), the weighted
    projective spaces above, the tetrahedron fan, P^4 and (P^1)^4, seeded
    random surfaces and GL_n(Z) images up to dimension 6."""
    fans = [wps_one(2, 3, 7, 11), wps_one(2, 4, 6), TETRAHEDRON, projective_space(4),
            product_p1(4)]
    fans += [weighted_projective_space(*w) for w in ((1, 2, 3, 5), (2, 3, 7, 11), (3, 5, 7))]
    fans += random_complete_fans_2d(25, 20)
    fans += [skewed(fan, k) for k, fan in enumerate(fans[:8])]
    fans += [skewed(make(dim), dim) for dim in (5, 6) for make in (projective_space, product_p1)]
    return fans


def assert_gauss_jordan_inverse(fan, order, cols, d):
    """W / D, W given by its columns, is the inverse that
    lattice._basis_inverse computes for the rays in `order`, as a rational
    matrix, and P W = D I."""
    basis, want, e = lattice._basis_inverse(fan.rays, order, fan.dim)
    assert basis == list(order)
    assert [[Fraction(x, d) for x in col] for col in cols] \
        == [[Fraction(x, e) for x in col] for col in want]
    assert [[sum(p * x for p, x in zip(fan.rays[i], col)) for col in cols] for i in order] \
        == [[d * int(i == j) for j in order] for i in order]


def test_the_stored_normals_give_the_gauss_jordan_inverse():
    """On every simplicial maximal cone of the corpus, in the cone's order
    and with each ray of it moved first as the root search moves it (W's
    columns permuted as the rows are), the inverse W / D read off the
    stored normals, with D = lcm(c_j), is the Gauss-Jordan one (the cone is
    copied without the inverse that build_fan stored on it, so that it is
    read off the normals); so is each inverse that the roots of the fan's
    rays were searched with. Some D are 1, some exceed 1, and one exceeds
    every c_j of its cone: column j of W is (D / c_j) a_j with a_j
    primitive, so its content is D / c_j."""
    denominators, gaps = set(), 0
    for fan in simplicial_corpus():
        assert fan._complete
        for cone in fan.max_cones:
            assert len(cone.ray_indices) == fan.dim
            basis, cols, d = _simplicial_inverse(Cone(*cone._values()), fan.rays)
            assert basis == cone.ray_indices
            assert_gauss_jordan_inverse(fan, basis, cols, d)
            denominators.add(d)
            gaps += d > max(d // gcd(*col) for col in cols)
            for ray in basis:
                order = [ray, *(i for i in basis if i != ray)]
                assert_gauss_jordan_inverse(fan, order, [cols[basis.index(i)] for i in order], d)
        inverses = {}
        for ray in range(len(fan.rays)):
            demazure._roots_for_ray(fan, ray, None, ({}, inverses))
        for basis, cols, d in inverses.values():
            assert_gauss_jordan_inverse(fan, basis, cols, d)
    assert 1 in denominators and max(denominators) > 1 and gaps
    assert_roots_match_elimination(TETRAHEDRON)


def test_simplicial_complete_fans_take_no_gauss_jordan_pass(monkeypatch):
    """all_roots reads every basis inverse of a simplicial complete fan off
    its cones, which stored them when the fan was built; the cross-polytope
    image glcross5, whose cones have 16 rays, takes each basis inverse from
    a Gauss-Jordan pass over a cone's rays. The fans are built before the
    count starts, as each cone's double description starts from
    ``_basis_inverse``."""
    fans = simplicial_corpus()
    g = LatticeAutomorphism(random_unimodular(random.Random(1), 5))
    glcross5 = apply_automorphism(cross_polytope_fan(5), g)
    calls = counting(monkeypatch, lattice, "_basis_inverse")
    for fan in fans:
        all_roots(fan)
    assert calls == []
    all_roots(glcross5)
    assert calls
