"""The double-description kernel and fraction-free elimination against oracles.

The oracles are the subset scans and the rational rank the kernel replaced
(``oracles.py``) and sympy, a test-only dependency. Every random case is
drawn from a fixed seed, in dimensions 2 to 5 (1 to 6 for the start rays
of ``dual_rays``, against the cofactor start it replaced).

The scans call ``smith_normal_form``, whose entries grow exponentially on
some matrices with two-digit entries in dimension 5 (see
``test_full_dimensional_cone_skips_the_smith_form``). So the random cones
and fans below are moved by GL_n(Z) maps of n elementary steps, which keep
their entries small enough for the oracles to finish.

A lower-dimensional cone's facet normals are unique only up to adding rows
orthogonal to its span, and its equations only up to GL(Z): the oracle
takes both from Smith-form coordinates, the library from pivot coordinates
and the Hermite kernel. ``assert_matches_oracle`` compares them as such.
"""

import random
from itertools import combinations

import pytest
import sympy

import oracles
from helpers import bundled_fans
from toricroots import LatticeAutomorphism, apply_automorphism, lattice
from toricroots.errors import InvalidPolytope, NotStronglyConvex
from toricroots.fan import _dual_description, _intersection_rays, cone_dual_description
from toricroots.lattice import (
    UNBOUNDED,
    Constraint,
    determinant,
    dot,
    dual_rays,
    hermite_row_form,
    identity,
    invert_unimodular,
    lattice_points,
    mat_mul,
    mat_vec,
    primitive,
    rank,
)
from toricroots.polytope import LatticePolytope, facets

DIMS = (2, 3, 4, 5)


def random_unimodular(rng, n, steps=None):
    """A product of `steps` (default n) random elementary integer matrices
    and sign flips."""
    m = [list(row) for row in identity(n)]
    for _ in range(steps or n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.2:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def random_vectors(rng, count, dim, lo=-3, hi=3):
    out = []
    while len(out) < count:
        v = tuple(rng.randint(lo, hi) for _ in range(dim))
        if any(v):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# elimination


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_sympy_and_fraction_rank(seed):
    rng = random.Random(seed)
    for _ in range(60):
        width = rng.randint(1, 6)
        nrows = rng.randint(0, 7)
        # low-rank products as well as generic rows
        if nrows and rng.random() < 0.5:
            k = rng.randint(1, max(1, min(nrows, width) - 1))
            a = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(nrows)]
            b = [tuple(rng.randint(-3, 3) for _ in range(width)) for _ in range(k)]
            rows = list(mat_mul(tuple(a), tuple(b)))
        else:
            rows = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(nrows)]
        got = rank(rows, width)
        assert got == oracles.rank(rows, width)
        if rows:
            assert got == sympy.Matrix(rows).rank()


@pytest.mark.parametrize("seed", range(4))
def test_determinant_matches_sympy(seed):
    rng = random.Random(100 + seed)
    for n in range(1, 7):
        for _ in range(8):
            m = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
            if rng.random() < 0.3:  # force a dependent row
                m = m[:-1] + (tuple(x + y for x, y in zip(m[0], m[-2 if n > 1 else 0])),)
            assert determinant(m) == sympy.Matrix(m).det()


@pytest.mark.parametrize("seed", range(4))
def test_invert_unimodular_matches_sympy(seed):
    rng = random.Random(200 + seed)
    for n in range(1, 7):
        for _ in range(6):
            m = random_unimodular(rng, n, 3 * n)
            inv = invert_unimodular(m)
            assert sympy.Matrix(inv) == sympy.Matrix(m).inv()
            assert mat_mul(m, inv) == identity(n)


# ---------------------------------------------------------------------------
# cones


def random_cone_gens(rng, dim, kind):
    """Generators of a cone in Z^dim of the given kind."""
    if kind == "pointed":  # inside the positive orthant, then moved by GL_n(Z)
        g = random_unimodular(rng, dim)
        count = rng.randint(1, dim + 4)
        gens = random_vectors(rng, count, dim, 0, 3)
        return [mat_vec(g, v) for v in gens]
    if kind == "flat":  # spans a proper subspace
        k = rng.randint(1, dim - 1)
        basis = random_vectors(rng, k, dim)
        coeffs = random_vectors(rng, rng.randint(1, k + 3), k, 0, 3)
        gens = [tuple(sum(c * b[t] for c, b in zip(cs, basis)) for t in range(dim))
                for cs in coeffs]
        return [v for v in gens if any(v)] or [basis[0]]
    return random_vectors(rng, rng.randint(1, dim + 4), dim)  # anything, lines too


def assert_matches_oracle(got, gens, dim):
    """`got`, a dual description of cone(gens), describes the oracle's cone
    the oracle's way: exactly for a full-dimensional cone; otherwise with
    equations of the same Hermite form, and as many facets, each with the
    oracle's tight set and values on the generators that are a positive
    multiple of the oracle's (the same primitive value vector). If `got`
    carries incidences, bit k of each is set iff its inequality vanishes on
    gens[k]."""
    want = oracles.dual_description(gens, dim)
    if len(got) == 3:
        assert got[2] == tuple(sum(1 << k for k, g in enumerate(gens) if dot(a, g) == 0)
                               for a in got[0]), gens
        got = got[:2]
    if not want[1]:
        assert got == want, gens
        return

    def values(ineqs):
        return sorted(primitive(tuple(dot(a, g) for g in gens)) for a in ineqs)

    assert hermite_row_form(got[1]) == hermite_row_form(want[1]), gens
    assert len(got[0]) == len(want[0]) and values(got[0]) == values(want[0]), gens


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", ["pointed", "flat", "any"])
def test_dual_description_matches_subset_scan(dim, kind):
    rng = random.Random(1000 * dim + len(kind))
    for _ in range(25 if dim < 5 else 12):
        gens = tuple(random_cone_gens(rng, dim, kind))
        assert_matches_oracle(_dual_description(gens, dim), gens, dim)


@pytest.mark.parametrize("dim", (3, 4, 5))
def test_lower_dimensional_descriptions_do_not_depend_on_generator_order(dim):
    """Reversed, shuffled or repeated, the generators of a lower-dimensional
    cone give the same description: its pivot coordinates and Hermite
    kernel depend on its span only."""
    rng = random.Random(3 + dim)
    seen = 0
    for _ in range(40):
        gens = tuple(random_cone_gens(rng, dim, rng.choice(["flat", "any"])))
        if rank(gens, dim) == dim:
            continue
        want = _dual_description(gens, dim)[:2]
        shuffled = list(gens) + [gens[0]]
        rng.shuffle(shuffled)
        assert _dual_description(gens[::-1], dim)[:2] == want, gens
        assert _dual_description(tuple(shuffled), dim)[:2] == want, gens
        seen += 1
    assert seen > 20


@pytest.mark.parametrize("dim", DIMS)
def test_cones_with_a_line_are_rejected(dim):
    rng = random.Random(77 + dim)
    for _ in range(15):
        gens = random_cone_gens(rng, dim, "pointed")
        line = gens[0]
        gens = gens + [tuple(-x for x in line)]
        with pytest.raises(NotStronglyConvex):
            cone_dual_description(gens, dim)
        assert_matches_oracle(_dual_description(tuple(gens), dim), tuple(gens), dim)


@pytest.mark.parametrize("dim", DIMS)
def test_dual_rays_of_pointed_cones(dim):
    """dual_rays on the generators gives the facet normals the oracle finds."""
    rng = random.Random(300 + dim)
    for _ in range(20):
        gens = [tuple(v) for v in random_cone_gens(rng, dim, "pointed")]
        if rank(gens, dim) < dim:
            assert dual_rays(gens, dim) is None
            continue
        ineqs, eqs = oracles.dual_description(tuple(gens), dim)
        assert eqs == ()
        assert dual_rays(gens, dim) == ineqs


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5, 6))
def test_dual_rays_start_matches_the_cofactor_start(dim):
    """The Gauss-Jordan start gives what the adjugate's cofactors gave, on
    seeded rows: rows that span and rows that do not, rows with a dependent
    one before the basis is full, and entries up to 40."""
    rng = random.Random(350 + dim)
    outcomes = set()
    for k in range(120):
        count = rng.randint(max(dim - 1, 1), dim + 4)
        size = 3 if k % 3 else 40
        rows = random_vectors(rng, count, dim, -size, size)
        if k % 4 == 0 and count > 1:  # a multiple of an earlier row first
            rows[1] = tuple(2 * x for x in rows[0])
        got = dual_rays(rows, dim)
        assert got == oracles.dual_rays(rows, dim), rows
        outcomes.add(got is None)
    assert False in outcomes and (True in outcomes or dim == 1)


def test_full_dimensional_cone_skips_the_smith_form():
    """The Smith form's entries explode on these generators (over a thousand
    bits after a few dozen steps); the dual description of a
    full-dimensional cone never computes it. The facets are checked against
    a subset scan on sympy's nullspaces."""
    gens = ((-30, 25, 12, -10, 52), (-47, 36, 17, -10, 59), (-30, 28, 14, -10, 52),
            (-39, 34, 16, -10, 55), (-1, 12, 6, -9, 35), (-33, 29, 14, -9, 49))
    want = set()
    for subset in combinations(gens, 4):
        space = sympy.Matrix(subset).nullspace()
        if len(space) != 1:
            continue
        u = space[0] * sympy.ilcm(*[x.q for x in space[0]])
        u = primitive(tuple(int(x) for x in u))
        vals = [dot(u, g) for g in gens]
        if all(x >= 0 for x in vals):
            want.add(u)
        elif all(x <= 0 for x in vals):
            want.add(tuple(-x for x in u))
    assert _dual_description(gens, 5)[:2] == (tuple(sorted(want)), ())


@pytest.mark.parametrize("dim", (1, 2, 3, 4))
def test_trivial_homogeneous_cone_matches_fourier_motzkin(dim):
    """lattice_points finds a homogeneous system UNBOUNDED iff both oracles
    (double description, and Fourier-Motzkin onto each axis) say its cone
    is not {0}; otherwise the origin is its only solution. lattice_points
    runs the double description too, so the Fourier-Motzkin verdicts
    (trivial_homogeneous_cone, and the points of the Chernikov
    elimination) are the independent ones."""
    rng = random.Random(400 + dim)
    seen = set()
    for _ in range(80):
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(0, dim + 3))]
        trivial = oracles.trivial_homogeneous_cone(rows, dim)
        assert trivial == oracles.recession_cone_is_zero(rows, dim)
        system = [Constraint(a, ">=", 0) for a in rows]
        got = lattice_points(system, dim)
        assert got == (UNBOUNDED if not trivial else ((0,) * dim,)), rows
        assert got == oracles.chernikov_lattice_points(system, dim), rows
        seen.add(trivial)
    assert seen == {True, False}


def motzkin(rays, rows, cuts, d):
    """The sorted extreme rays that lattice._motzkin leaves of the cone on
    `rays`, of dimension d, cut out by `rows` within its span, after the
    `cuts`; the incidences of the start rays are found by dot products."""
    tight = [sum(1 << k for k, a in enumerate(rows) if dot(a, r) == 0) for r in rays]
    return tuple(sorted(lattice._motzkin(list(rays), tight, enumerate(cuts, len(rows)), d)[0]))


def farkas_empty(rows, dim):
    """Is {x : a.x >= b for every (a, b) in rows} empty over Q? By Farkas'
    lemma, iff some y >= 0 with sum y_i a_i = 0 has sum y_i b_i > 0; the
    extreme rays of that pointed cone come from the Motzkin step on the
    orthant, of dimension len(rows)."""
    unit = [tuple(int(i == j) for j in range(len(rows))) for i in range(len(rows))]
    cols = [tuple(a[j] for a, _ in rows) for j in range(dim)]
    ys = motzkin(unit, unit, cols + [tuple(-x for x in c) for c in cols], len(rows))
    return any(dot(y, tuple(b for _, b in rows)) > 0 for y in ys)


@pytest.mark.parametrize("dim", (1, 2, 3, 4))
def test_lattice_points_boundedness_on_inhomogeneous_systems(dim):
    """Random systems a.x >= b: lattice_points finds none when Farkas' lemma
    says the polyhedron is empty, and otherwise UNBOUNDED iff its recession
    cone is not {0}; all three outcomes occur. Farkas' lemma and the
    recession test run the double description, as lattice_points does, so
    each verdict is also checked by Fourier-Motzkin (the Chernikov
    elimination's answer, and trivial_homogeneous_cone)."""
    rng = random.Random(500 + dim)
    seen = set()
    for _ in range(60):
        rows = [(tuple(rng.randint(-2, 2) for _ in range(dim)), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 2 * dim + 1))]
        system = [Constraint(a, ">=", b) for a, b in rows]
        got = lattice_points(system, dim)
        assert got == oracles.chernikov_lattice_points(system, dim), rows
        trivial = oracles.trivial_homogeneous_cone([a for a, _ in rows], dim)
        assert trivial == oracles.recession_cone_is_zero([a for a, _ in rows], dim)
        if farkas_empty(rows, dim):
            want = "empty"
            assert got == (), rows
        elif trivial:
            want = "bounded"
            assert got is not UNBOUNDED, rows
            assert all(dot(a, x) >= b for x in got for a, b in rows)
        else:
            want = "unbounded"
            assert got is UNBOUNDED, rows
        seen.add(want)
    assert seen == {"empty", "bounded", "unbounded"}


def test_motzkin_hand_examples():
    """The Motzkin step on the quadrant, of dimension 2."""
    quadrant = [(1, 0), (0, 1)]
    assert motzkin(quadrant, quadrant, [], 2) == ((0, 1), (1, 0))
    # the diagonal cut keeps one ray and crosses the edge at (1, 1)
    assert motzkin(quadrant, quadrant, [(-1, 1)], 2) == ((0, 1), (1, 1))
    # a cut and its opposite leave the ray on the hyperplane
    assert motzkin(quadrant, quadrant, [(-1, 1), (1, -1)], 2) == ((1, 1),)
    # a cut missing the interior leaves only the origin
    assert motzkin(quadrant, quadrant, [(-1, -1)], 2) == ()


def _image_fans(seed):
    rng = random.Random(seed)
    for name, fan in bundled_fans():
        if len(fan.max_cones) > 16:
            continue
        g = LatticeAutomorphism(random_unimodular(rng, fan.dim))
        yield name, apply_automorphism(fan, g)


def intersection_rays(fan, c1, c2):
    """fan._intersection_rays on two cones of the fan, sorted, with the
    incidences of c1's rays and inequalities found by dot products and its
    dimension as the filter's d."""
    gens = [primitive(fan.rays[i]) for i in c1.ray_indices]
    start = [sum(1 << m for m, a in enumerate(c1.inequalities) if dot(a, g) == 0) for g in gens]
    got = _intersection_rays(gens, start, len(c1.inequalities), c1.dim,
                             c2.inequalities, c2.equations)
    return tuple(sorted(got))


@pytest.mark.parametrize("seed", (5, 6))
def test_intersections_of_maximal_cones_match_subset_scan(seed):
    pairs = 0
    for name, fan in _image_fans(seed):
        for a, b in combinations(fan.max_cones, 2):
            for c1, c2 in ((a, b), (b, a)):
                got = intersection_rays(fan, c1, c2)
                assert got == oracles.intersection_rays(c1, c2, fan.dim), (name, c1, c2)
                pairs += 1
    assert pairs > 100


def test_intersections_of_faces_match_subset_scan():
    """Lower-dimensional cones: every pair of faces of a fan in dimension 3."""
    fan = next(f for name, f in _image_fans(9) if name == "(P1)^3")
    for c1, c2 in combinations(fan.all_faces, 2):
        assert intersection_rays(fan, c1, c2) == oracles.intersection_rays(c1, c2, fan.dim)


# ---------------------------------------------------------------------------
# polytopes


def random_polytope_points(rng, dim):
    count = rng.randint(dim + 2, dim + (6 if dim < 5 else 4))
    return sorted({tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(count)})


def oracle_vertices(points, dim):
    """The points on dim independent facets of the oracle's hull."""
    fs = oracles.hull_facets(tuple(points), dim)
    return [v for v in points
            if oracles.rank([f.normal for f in fs if dot(f.normal, v) == f.rhs], dim) == dim]


@pytest.mark.parametrize("dim", DIMS)
def test_polytope_facets_match_subset_scan(dim):
    rng = random.Random(500 + dim)
    checked = rejected = 0
    while checked < (12 if dim < 5 else 6):
        points = random_polytope_points(rng, dim)
        if oracles.rank([tuple(x - y for x, y in zip(p, points[0])) for p in points], dim) < dim:
            continue
        verts = oracle_vertices(points, dim)
        poly = LatticePolytope(dim, tuple(verts))
        assert facets(poly) == oracles.hull_facets(tuple(verts), dim)
        checked += 1
        extra = [p for p in points if p not in verts]
        if extra:  # a listed point that is not a vertex must be rejected
            with pytest.raises(InvalidPolytope):
                LatticePolytope(dim, tuple(verts + extra[:1]))
            rejected += 1
    assert rejected > 0
