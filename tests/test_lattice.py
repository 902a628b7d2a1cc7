"""Tests for exact linear algebra and lattice-point enumeration.

Derived expectations are frozen from independent oracles implemented here:
Laplace expansion for determinants, gcd-of-minors invariant factors for the
Smith form, and brute-force box scans for integer points.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_cli import counting
from toricroots import lattice
from toricroots.errors import NotSquare, NotUnimodular, ZeroVector
from toricroots.lattice import (
    UNBOUNDED,
    Constraint,
    determinant,
    dot,
    hermite_column_form,
    hermite_row_form,
    identity,
    invert_unimodular,
    kernel_basis,
    lattice_points,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    smith_normal_form,
    transpose,
)


# ---------------------------------------------------------------------------
# oracles


def laplace_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * laplace_det(minor)
    return total


def invariant_factors(m):
    """d_k = gcd(k-minors) / gcd((k-1)-minors); zero once minors vanish."""
    nrows, ncols = len(m), len(m[0])
    out = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                sub = [[m[i][j] for j in cs] for i in rs]
                g = math.gcd(g, abs(laplace_det(sub)))
        if g == 0:
            out.append(0)
            continue
        out.append(g // prev)
        prev = g
    return out


def box_scan(constraints, dim, radius):
    pts = []
    for p in product(range(-radius, radius + 1), repeat=dim):
        ok = True
        for c in constraints:
            val = dot(c.normal, p)
            if c.relation == "=" and val != c.rhs:
                ok = False
            if c.relation == ">=" and val < c.rhs:
                ok = False
        if ok:
            pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# dot


def test_dot_matches_the_generator_form_and_checks_lengths():
    rng = random.Random(7)
    for bits in (3, 40, 64, 65, 200):
        for n in range(6):
            u = tuple(rng.randint(-2**bits, 2**bits) for _ in range(n))
            v = tuple(rng.randint(-2**bits, 2**bits) for _ in range(n))
            assert dot(u, v) == sum(a * b for a, b in zip(u, v))
    for u, v in (((1, 2), (1, 2, 3)), ((), (0,)), ((2**70,), ())):
        with pytest.raises(ValueError, match=f"dimension mismatch: {len(u)} vs {len(v)}"):
            dot(u, v)


def test_matrix_products_check_the_inner_dimension():
    """mat_vec and mat_mul compare the length of the first row with the
    vector, or with the rows of the right factor, once per call; the
    automorphism's apply and compose and the public root tests, which pair
    a vector with every ray of a fan, raise ValueError on a wrong length
    too."""
    from toricroots.demazure import is_demazure_root, satisfies_condition1
    from toricroots.fan import LatticeAutomorphism, projective_space

    m = ((1, 2), (3, 4), (5, 6))
    assert mat_vec(m, (1, -1)) == (-1, -1, -1)
    assert mat_mul(m, ((1, 0, 2), (0, 1, 1))) == ((1, 2, 4), (3, 4, 10), (5, 6, 16))
    assert mat_vec((), (1, 2)) == () and mat_mul((), m) == ()
    for v in ((), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match=f"dimension mismatch: 2 vs {len(v)}"):
            mat_vec(m, v)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        mat_mul(m, m)
    g = LatticeAutomorphism(((1, 1), (0, 1)))
    for v in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match=f"dimension mismatch: 2 vs {len(v)}"):
            g.apply(v)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        g.compose(LatticeAutomorphism(identity(3)))
    fan = projective_space(2)
    assert is_demazure_root(fan, (-1, 0), 0)
    for e in ((-1,), (-1, 0, 0)):
        with pytest.raises(ValueError, match=f"dimension mismatch: 2 vs {len(e)}"):
            is_demazure_root(fan, e, 0)
        with pytest.raises(ValueError, match=f"dimension mismatch: 2 vs {len(e)}"):
            satisfies_condition1(fan, e, 0)


# ---------------------------------------------------------------------------
# primitive


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((0, -3)) == (0, -1)
    with pytest.raises(ZeroVector):
        primitive((0, 0))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
def test_primitive_idempotent(coords):
    v = tuple(coords)
    if all(c == 0 for c in v):
        return
    p = primitive(v)
    assert primitive(p) == p
    assert math.gcd(*p) == 1


# ---------------------------------------------------------------------------
# determinant


def test_determinant_examples():
    assert determinant(identity(3)) == 1
    assert determinant(((1, 0), (1, 5))) == 5
    with pytest.raises(NotSquare):
        determinant(((1, 0), (0, 1), (-1, -1)))


@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_determinant_matches_laplace(rows):
    m = tuple(tuple(r) for r in rows)
    assert determinant(m) == laplace_det([list(r) for r in m])


def test_a_ragged_matrix_names_the_row_of_another_length():
    """determinant and invert_unimodular share one square check, whose
    message names the first row whose length is not the number of rows."""
    for f in (determinant, invert_unimodular):
        with pytest.raises(NotSquare, match="it has 2 rows but row 1 has length 1"):
            f(((1, 0), (0,)))
        with pytest.raises(NotSquare, match="it has 3 rows but row 0 has length 2"):
            f(((1, 0), (0, 1), (-1, -1)))
    assert determinant(()) == 1 and invert_unimodular(()) == ()


# ---------------------------------------------------------------------------
# dual basis


def test_dual_basis_examples():
    assert oracles.dual_basis(((1, 0), (0, 1))) == ((1, 0), (0, 1))
    assert oracles.dual_basis(((1, 0), (1, 1))) == ((1, -1), (0, 1))
    with pytest.raises(NotUnimodular):
        oracles.dual_basis(((1, 0), (1, 5)))


def test_dual_basis_pairing_identity():
    basis = ((1, 2, 3), (1, 3, 3), (1, 2, 4))
    assert abs(determinant(basis)) == 1
    dual = oracles.dual_basis(basis)
    for i, p in enumerate(basis):
        for j, q in enumerate(dual):
            assert dot(p, q) == int(i == j)


# ---------------------------------------------------------------------------
# basis inverse


def fraction_inverse(m):
    """m^-1 over Q, by Gauss-Jordan elimination on Fractions."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            f = a[i][k]
            if i != k and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def basis_inverse_cases(rng, dim):
    """Seeded integer matrices with dim columns: some of full rank, some
    whose rows lie in a sublattice of lower rank, each with a repeated row
    and a row that is the sum of two others, in shuffled row order."""
    for k in range(30):
        r = dim if k % 3 else rng.randint(1, dim)
        gens = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(r)]
        rows = []
        for _ in range(rng.randint(max(1, dim - 1), dim + 3)):
            c = [rng.randint(-2, 2) for _ in gens]
            rows.append(tuple(sum(ci * g[t] for ci, g in zip(c, gens)) for t in range(dim)))
        rows += [rows[0], tuple(a + b for a, b in zip(rows[0], rows[-1]))]
        rng.shuffle(rows)
        yield rows


def test_basis_inverse_contract(monkeypatch):
    """_basis_inverse(rows, order, width) picks the first independent rows
    in `order` (those that raise the rank of the rows before them), and
    when there are width of them returns (basis, W, D) with B W = D I,
    D = |det B| and W / D = B^-1. _double_description returns None when
    fewer than width rows are independent, and otherwise starts from the
    primitive columns of W, each positive on its own basis row and zero on
    the others. Dims 1 to 6, several orders of each matrix, some of rank
    below the dim."""
    starts = counting(monkeypatch, lattice, "_motzkin")
    short = 0
    for dim in range(1, 7):
        rng = random.Random(3300 + dim)
        for rows in basis_inverse_cases(rng, dim):
            for _ in range(3):
                order = list(range(len(rows)))
                rng.shuffle(order)
                want = [i for j, i in enumerate(order)
                        if oracles.bareiss_rank([rows[t] for t in order[:j + 1]], dim)
                        > oracles.bareiss_rank([rows[t] for t in order[:j]], dim)]
                basis, cols, d = lattice._basis_inverse(rows, order, dim)
                assert basis == want, (rows, order)
                if len(basis) < dim:
                    continue
                b = [rows[i] for i in basis]
                w = transpose(cols)
                assert d > 0
                assert mat_mul(b, w) == tuple(tuple(d * x for x in e) for e in identity(dim))
                assert d == abs(oracles.bareiss_determinant(b))
                assert [[Fraction(x, d) for x in row] for row in w] == fraction_inverse(b)
            starts.clear()
            dd = lattice._double_description(rows, dim)
            if oracles.bareiss_rank(rows, dim) < dim:
                assert dd is None and starts == [], rows
                short += 1
                continue
            basis, cols, _ = lattice._basis_inverse(rows, range(len(rows)), dim)
            start = starts[0][0]
            assert start == [primitive(c) for c in cols]
            for j, u in enumerate(start):
                assert [(dot(rows[i], u) > 0) - (dot(rows[i], u) < 0) for i in basis] \
                    == [int(i == j) for i in range(dim)]
    assert short > 10
    assert lattice._double_description([], 2) is None


# ---------------------------------------------------------------------------
# Smith normal form


def _diag(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def test_snf_examples():
    _, d, _ = smith_normal_form(identity(2))
    assert _diag(d) == [1, 1]
    # hand elimination: gcd of entries 1, |det| 2, so invariant factors (1, 2)
    m = ((1, 1), (1, -1))
    assert invariant_factors(m) == [1, 2]
    _, d, _ = smith_normal_form(m)
    assert _diag(d) == [1, 2]
    m = ((2, 0), (0, 3))
    assert invariant_factors(m) == [1, 6]
    _, d, _ = smith_normal_form(m)
    assert _diag(d) == [1, 6]


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_snf_properties(nrows, ncols, data):
    m = tuple(tuple(data.draw(st.integers(-9, 9)) for _ in range(ncols))
              for _ in range(nrows))
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = _diag(d)
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and (a == 0 and b == 0 or b % a == 0 if a else b == 0)
    assert diag == invariant_factors(m)


def test_normal_forms_match_the_replaced_code():
    """The Smith form on one working matrix returns the (U, D, V) of the
    four-closure form it replaced, and the Hermite form on the shared
    Euclid step the matrix of the smallest-pivot form, on 1,000 seeded
    matrices of 1-6 rows and 1-5 columns and on their [M^T | I]
    augmentations (the input that kernel_basis builds). Every third matrix
    has entries in [-1, 1], so zero columns and rows are common."""
    rng = random.Random(2201)
    for k in range(1000):
        nrows, ncols, size = rng.randint(1, 6), rng.randint(1, 5), 1 if k % 3 == 0 else 6
        m = tuple(tuple(rng.randint(-size, size) for _ in range(ncols)) for _ in range(nrows))
        aug = tuple(col + e for col, e in zip(transpose(m), identity(ncols)))
        for x in (m, aug):
            assert smith_normal_form(x) == oracles.smith_normal_form(x), x
            assert hermite_row_form(x) == oracles.hermite_row_form(x), x


def test_kernel_basis():
    ker = kernel_basis(((1, 0, -1),), 3)
    assert len(ker) == 2
    for k in ker:
        assert dot((1, 0, -1), k) == 0
    assert rank(ker, 3) == 2
    assert kernel_basis((), 2) == ((1, 0), (0, 1))


# ---------------------------------------------------------------------------
# Hermite canonical form


def test_hermite_column_form_canonicalizes():
    # two unimodularly column-equivalent matrices must hit the same form
    a = ((1, 0), (0, 1), (1, 0), (3, 1))
    b = tuple(tuple(dot(row, col) for col in ((1, 0), (-2, 1))) for row in a)
    assert hermite_column_form(a) == hermite_column_form(b) == a


def test_hermite_row_props():
    m = ((4, 2), (2, 0), (0, 2))
    h = hermite_column_form(m)
    assert h == hermite_column_form(h)


# ---------------------------------------------------------------------------
# lattice points


def test_lattice_points_interval():
    sys = [Constraint((1,), ">=", 0), Constraint((-1,), ">=", -2)]
    assert lattice_points(sys, 1) == ((0,), (1,), (2,))


def test_lattice_points_p2_ray_system():
    sys = [
        Constraint((1, 0), "=", -1),
        Constraint((0, 1), ">=", 0),
        Constraint((-1, -1), ">=", 0),
    ]
    expected = box_scan(sys, 2, 3)
    assert expected == [(-1, 0), (-1, 1)]
    assert lattice_points(sys, 2) == tuple(expected)


def test_lattice_points_unbounded():
    sys = [Constraint((1, 0), "=", -1), Constraint((0, 1), ">=", 0)]
    assert lattice_points(sys, 2) is UNBOUNDED


def test_lattice_points_infeasible():
    sys = [Constraint((1,), ">=", 3), Constraint((-1,), ">=", -1)]
    assert lattice_points(sys, 1) == ()


def test_lattice_points_empty_with_unbounded_recession_cone():
    """Empty over Q although the homogenized system has nonzero solutions:
    x + y = -1 with x, y, z >= 0 (z is free upward), and x + y <= -1 in 2D."""
    sys = [Constraint((1, 1, 0), "=", -1)] + [Constraint(e, ">=", 0) for e in identity(3)]
    assert lattice_points(sys, 3) == ()
    sys = [Constraint((-1, -1), ">=", 1), Constraint((1, 0), ">=", 0), Constraint((0, 1), ">=", 0)]
    assert lattice_points(sys, 2) == ()
    # empty over Z only: 2x = 1, y >= 0 is non-empty over Q and unbounded
    assert lattice_points([Constraint((2, 0), "=", 1), Constraint((0, 1), ">=", 0)], 2) is UNBOUNDED


@pytest.mark.parametrize("normal,rhs", [
    ((1.5, 0), 0), ((True, 0), 0), ((1, "0"), 0), ((1, 0), "0"), ((1, 0), 0.0), ((1, 0), False)])
def test_a_constraint_with_data_that_is_not_an_int_is_refused(normal, rhs):
    """A float or string entry raised an untyped TypeError from math.gcd or
    from the rhs, and a bool entry was read as 1: each is a ValueError, the
    type a bad relation raises."""
    for relation in (">=", "="):
        with pytest.raises(ValueError, match="integer normal and rhs expected"):
            Constraint(normal, relation, rhs)


@pytest.mark.parametrize("dim", [2.0, True, "2", None, 0, -1])
def test_lattice_points_refuses_a_dim_that_is_not_a_positive_int(dim):
    system = [Constraint((1, 0), ">=", 0), Constraint((-1, 0), ">=", -2)]
    with pytest.raises(ValueError, match="dimension must be a positive int"):
        lattice_points(system, dim)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.data())
def test_lattice_points_match_box_scan(dim, data):
    n_extra = data.draw(st.integers(0, 4))
    constraints = []
    for _ in range(n_extra):
        normal = tuple(data.draw(st.integers(-5, 5)) for _ in range(dim))
        rel = data.draw(st.sampled_from([">=", "="]))
        rhs = data.draw(st.integers(-5, 5))
        constraints.append(Constraint(normal, rel, rhs))
    radius = 3
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        constraints.append(Constraint(e, ">=", -radius))
        constraints.append(Constraint(tuple(-x for x in e), ">=", -radius))
    result = lattice_points(constraints, dim)
    assert result is not UNBOUNDED
    assert list(result) == box_scan(constraints, dim, radius)
    assert list(result) == sorted(set(result))


def test_invert_unimodular_roundtrip():
    m = ((1, 2, 0), (0, 1, 4), (0, 0, 1))
    inv = invert_unimodular(m)
    assert mat_mul(m, inv) == identity(3)
    assert transpose(transpose(m)) == m
