"""The Gauss-Jordan kernel and the face walk against the code they replaced.

``lattice._gauss_jordan`` gives rank, determinant, the inverse of a
unimodular matrix and the start of the double description; ``oracles.py``
keeps the forward Bareiss elimination, the Hermite-form inverse and the
per-row rank start it replaced (and the cofactor start before that), and
sympy checks all of them. Matrices are seeded, in dimensions 1 to 7, with
entries up to 40: square, rectangular, rank-deficient and with repeated
rows.

``build_fan`` walks down from each maximal cone through facets and decides
faces during validation by the closure of their rays (``fan._is_face``);
``oracles.build_fan_by_closure`` keeps the closure of all facet ray sets
and the owner/dims assembly it replaced. Every fan of the face and
certificate corpora must build equal to it, face for face.

``oracles._eliminate``, the elimination of ``lattice_points`` before it
came to run on the double description, drops, by Chernikov's rule, the
combinations of more input rows than it has eliminated variables plus one;
``oracles.chernikov_lattice_points`` must find what
``oracles.fm_lattice_points`` finds, Fourier-Motzkin without the rule, and
``lattice_points`` the same. ``kernel_basis`` reads the kernel off the
Hermite form of [rows^T | I], and sympy checks its rank and saturation.
"""

import json
import random
import time
from itertools import combinations

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

import oracles
from test_certificate import complete_fans, fan_data
from test_cli import counting
from test_face_index import COMPLETE, subfan
from test_faces import LOWER_DIMENSIONAL, fans_to_check
from test_kernel import farkas_empty, random_unimodular
from toricroots import (
    cli,
    cone_dual_description,
    cox_presentation,
    fan_from_json_dict,
    lattice,
    product_p1,
    validate_fan,
)
from toricroots import fan as fan_module
from toricroots.errors import NotSquare, NotUnimodular, RaysDoNotSpan
from toricroots.lattice import (
    UNBOUNDED,
    Constraint,
    determinant,
    dot,
    dual_rays,
    identity,
    invert_unimodular,
    kernel_basis,
    lattice_points,
    mat_mul,
    primitive,
    rank,
    transpose,
)
from toricroots.polytope import cube

DIMS = (1, 2, 3, 4, 5, 6, 7)


def random_matrix(rng, nrows, width, size):
    """A seeded matrix of one of four kinds, by a draw: generic, a product
    of lower rank, one with a repeated (or scaled) row, or one with a zero
    row."""
    def entries(n, w, s):
        return [tuple(rng.randint(-s, s) for _ in range(w)) for _ in range(n)]

    kind = rng.randrange(4)
    if kind == 1 and nrows > 1 and width > 1:
        k = rng.randint(1, min(nrows, width) - 1)
        rows = list(mat_mul(tuple(entries(nrows, k, 6)), tuple(entries(k, width, 6))))
    else:
        rows = entries(nrows, width, size)
    if kind == 2 and nrows > 1:
        i, j = rng.sample(range(nrows), 2)
        rows[j] = tuple(rng.choice((1, -1, 2)) * x for x in rows[i])
    if kind == 3 and nrows:
        rows[rng.randrange(nrows)] = (0,) * width
    return rows


@pytest.mark.parametrize("dim", DIMS)
def test_rank_and_determinant_match_bareiss_and_sympy(dim):
    rng = random.Random(2000 + dim)
    seen = set()
    for k in range(40):
        size = 40 if k % 2 else 3
        square = random_matrix(rng, dim, dim, size)
        want = oracles.bareiss_determinant(square)
        assert determinant(square) == want == sympy.Matrix(square).det(), square
        nrows = rng.randint(0, dim + 3)
        rows = random_matrix(rng, nrows, dim, size)
        got = rank(rows, dim)
        assert got == oracles.bareiss_rank(rows, dim) == oracles.rank(rows, dim), rows
        if rows:
            assert got == sympy.Matrix(rows).rank()
        seen.add(("singular", want == 0))
        seen.add(("deficient", got < min(nrows, dim)))
    assert len(seen) == 4


@pytest.mark.parametrize("dim", DIMS)
def test_invert_unimodular_matches_the_hermite_inverse(dim):
    """Unimodular matrices invert as by the Hermite form of [m | I]; others
    raise NotUnimodular with the same determinant in the message."""
    rng = random.Random(2100 + dim)
    for k in range(15):
        m = random_unimodular(rng, dim, 3 * dim)
        inv = invert_unimodular(m)
        assert inv == oracles.hermite_invert_unimodular(m)
        assert mat_mul(m, inv) == identity(dim) == mat_mul(inv, m)
        bad = random_matrix(rng, dim, dim, 40 if k % 2 else 3)
        if abs(oracles.bareiss_determinant(bad)) == 1:
            continue
        with pytest.raises(NotUnimodular) as got:
            invert_unimodular(bad)
        with pytest.raises(NotUnimodular) as want:
            oracles.hermite_invert_unimodular(bad)
        assert str(got.value) == str(want.value)
    with pytest.raises(NotSquare):
        invert_unimodular(((1, 0, 0), (0, 1, 0)))


@pytest.mark.parametrize("dim", DIMS)
def test_dual_rays_match_both_old_starts(dim):
    """The one-pass start on [rows^T | I] gives what the per-row rank start
    and the cofactor start gave, on rows that span and rows that do not."""
    rng = random.Random(2200 + dim)
    outcomes = set()
    for k in range(30 if dim < 7 else 15):
        count = rng.randint(max(dim - 1, 1), dim + 3)
        rows = [r for r in random_matrix(rng, count, dim, 40 if k % 3 == 0 else 3) if any(r)]
        got = dual_rays(rows, dim)
        assert got == oracles.basis_dual_rays(rows, dim) == oracles.dual_rays(rows, dim), rows
        outcomes.add(got is None)
    assert outcomes == {True, False} or dim == 1 and outcomes == {False}


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        rank([(1, 0), (0,)], 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        rank([(1, 0, 0)], 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernel_basis([(1, 0, 0)], 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernel_basis([(1, 0), (1,)])
    for form in (lattice.hermite_row_form, lattice.hermite_column_form,
                 lattice.smith_normal_form):
        for m in (((1,), (3, 4)), ((1, 2), (3,)), ((), (1,))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                form(m)
    assert kernel_basis([(1, 0, 0)], 3) == ((0, 1, 0), (0, 0, 1))


# The generator matrix on which the Smith form's entries explode (see
# test_kernel.test_full_dimensional_cone_skips_the_smith_form).
SMITH_BLOWUP = ((-30, 25, 12, -10, 52), (-47, 36, 17, -10, 59), (-30, 28, 14, -10, 52),
                (-39, 34, 16, -10, 55), (-1, 12, 6, -9, 35), (-33, 29, 14, -9, 49))


@pytest.mark.parametrize("dim", DIMS)
def test_kernel_basis_is_the_saturated_kernel(dim):
    """On seeded matrices the basis has sympy's nullity, lies in the kernel
    and is saturated: its Smith form (sympy's) has only units."""
    rng = random.Random(2300 + dim)
    empty = 0
    for k in range(43):
        rows = random_matrix(rng, rng.randint(1, dim + 2), dim, 40 if k % 3 == 0 else 3)
        ker = kernel_basis(rows, dim)
        assert len(ker) == len(sympy.Matrix(rows).nullspace()), rows
        assert all(dot(r, x) == 0 for r in rows for x in ker)
        if not ker:
            empty += 1
            continue
        snf = smith_normal_form(sympy.Matrix(ker), domain=ZZ)
        assert all(abs(snf[i, i]) == 1 for i in range(len(ker))), (rows, ker)
    assert 0 < empty < 43 or dim == 1


def test_kernel_basis_skips_the_smith_form():
    """Both kernels of the matrix that hangs the Smith form, in well under a
    second: none for its six rows of rank 5, one line for its transpose."""
    start = time.perf_counter()
    assert kernel_basis(SMITH_BLOWUP) == ()
    (u,) = kernel_basis(transpose(SMITH_BLOWUP))
    assert time.perf_counter() - start < 1
    (want,) = sympy.Matrix(transpose(SMITH_BLOWUP)).nullspace()
    want = primitive(tuple(int(x) for x in want * sympy.ilcm(*[x.q for x in want])))
    assert u in (want, tuple(-x for x in want))


# The rows of SMITH_BLOWUP made primitive, in Z^6 with a last coordinate 0:
# one 5-dimensional cone, which fan-check, additive, roots and collections
# take as a fan (the CI runs them on it under a timeout).
BLOWUP_FAN = {"dim": 6, "rays": [list(primitive(r)) + [0] for r in SMITH_BLOWUP],
              "max_cones": [list(range(6))]}


def test_lower_dimensional_cone_skips_the_smith_form():
    """The fan on BLOWUP_FAN validates, and its cone gets its description,
    in well under a second each; the Smith form ran for minutes on both.
    The normals are those of the 5-dimensional cone on SMITH_BLOWUP (as
    test_kernel.test_full_dimensional_cone_skips_the_smith_form checks
    them), lifted by a zero last coordinate; the equation is e_6."""
    start = time.perf_counter()
    assert validate_fan(**BLOWUP_FAN) == []
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    ineqs, eqs = cone_dual_description(BLOWUP_FAN["rays"])
    assert time.perf_counter() - start < 1
    assert eqs == ((0, 0, 0, 0, 0, 1),)
    assert ineqs == tuple(a + (0,) for a in dual_rays(SMITH_BLOWUP, 5))


def test_cox_refuses_rays_that_do_not_span_before_the_smith_form(tmp_path, capsys):
    """The rays of BLOWUP_FAN have rank 5 in Z^6, so the Cox presentation is
    refused with RaysDoNotSpan, in well under a second, also by the ``cox``
    command (exit 2); the Smith form that used to run first did not finish
    in minutes."""
    fan = fan_from_json_dict(BLOWUP_FAN)
    start = time.perf_counter()
    with pytest.raises(RaysDoNotSpan, match="^the rays do not span N_Q$"):
        cox_presentation(fan)
    assert time.perf_counter() - start < 1
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(BLOWUP_FAN))
    start = time.perf_counter()
    assert cli.main(["cox", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "RaysDoNotSpan"


# ---------------------------------------------------------------------------
# Fourier-Motzkin with Chernikov's rule


def random_system(rng, dim):
    """Seeded rows a.x >= b and a.x = b with entries in [-2, 2] and
    [-3, 3]. Half are bounded by a box around the origin, or in dimensions
    4 and 5 by a small simplex and at most two more rows; a few repeat a row and
    add the sum of two rows. Small enough for Fourier-Motzkin without the
    rule to finish."""
    bounded = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(1, dim + 3 if dim < 4 else 2 if bounded else dim)):
        a = tuple(rng.randint(-2, 2) for _ in range(dim))
        rows.append(Constraint(a, "=" if rng.random() < 0.15 else ">=", rng.randint(-3, 3)))
    if bounded:
        r = rng.randint(1, 3) if dim < 4 else 1
        rows += [Constraint(e, ">=", -r) for e in identity(dim)]
        if dim < 4:
            rows += [Constraint(tuple(-x for x in e), ">=", -r) for e in identity(dim)]
        else:
            rows.append(Constraint((-1,) * dim, ">=", -r))
    if len(rows) > 1 and rng.random() < 0.3:
        first, second = rows[:2]
        rows += [first, Constraint(tuple(map(sum, zip(first.normal, second.normal))), ">=",
                                   first.rhs + second.rhs)]
    return rows


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5))
def test_chernikov_rule_keeps_the_points_of_fourier_motzkin(dim):
    """Fourier-Motzkin with the rule finds what it finds without, on seeded
    systems with equations: the same points, UNBOUNDED or none; and so does
    lattice_points."""
    rng = random.Random(2400 + dim)
    seen = set()
    for _ in range(600):
        rows = random_system(rng, dim)
        got = oracles.chernikov_lattice_points(rows, dim)
        assert got == oracles.fm_lattice_points(rows, dim) == lattice_points(rows, dim), rows
        seen.add("unbounded" if got is UNBOUNDED else "points" if got else "empty")
    assert seen == {"unbounded", "points", "empty"}


def test_rows_with_two_histories_are_both_kept():
    """A row reached with two histories keeps both. Here the combinations of
    row 0 and of its repeat (row 6) give equal rows; keeping only the
    smaller history of each loses a bound, and this bounded system with 54
    points would read UNBOUNDED."""
    rows = [Constraint(a, rel, b) for a, rel, b in (
        ((-1, 2, -2, 1, 1), ">=", -2), ((1, 2, -2, 2, 2), ">=", 0), ((-2, 2, -2, 1, 2), "=", 2),
        ((2, -1, 0, -1, 2), ">=", -2), ((-2, -2, 0, 2, -2), ">=", 2), ((-2, 0, 1, -1, 0), "=", -3),
        ((-1, 2, -2, 1, 1), ">=", -2), ((0, 4, -4, 3, 3), ">=", -2))]
    got = oracles.chernikov_lattice_points(rows, 5)
    assert got is not UNBOUNDED and len(got) == 54
    assert got == oracles.fm_lattice_points(rows, 5) == lattice_points(rows, 5)


def test_the_seeded_twelve_row_system_is_fast():
    """Without the rule the rows of this system grew 12 -> 35 -> 250 -> 1,346
    and the elimination took about 2 s; with it, 12 -> 35 -> 54 -> 28. It
    is empty, by Farkas' lemma, and lattice_points finds it so, each
    within the same bound."""
    rng = random.Random(28)
    rows = [Constraint(tuple(rng.randint(-2, 2) for _ in range(4)), ">=", rng.randint(-3, 3))
            for _ in range(12)]
    start = time.perf_counter()
    assert oracles.chernikov_lattice_points(rows, 4) == ()
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    assert lattice_points(rows, 4) == ()
    assert time.perf_counter() - start < 1
    assert farkas_empty([(c.normal, c.rhs) for c in rows], 4)


# ---------------------------------------------------------------------------
# the face walk


def corpus_fans():
    """The face corpus (dimensions 2 to 5, with the lower-dimensional fans)
    and the certificate corpus (complete fans in dimensions 1 to 5, and
    subfans of the complete builtin fans)."""
    for dim in (2, 3, 4, 5):
        yield from fans_to_check(dim)
    for dim in (1, 2, 3, 4, 5):
        rng = random.Random(1600 + dim)
        yield from complete_fans(dim, rng)
        for fan in COMPLETE.get(dim, ()):
            count = len(fan.max_cones)
            yield subfan(fan, sorted(rng.sample(range(count), count - 1)))


def test_corpus_fans_equal_the_closure_assembly():
    built = 0
    for fan in corpus_fans():
        old = oracles.build_fan_by_closure(*fan_data(fan))
        assert old == fan and old.all_faces == fan.all_faces
        assert old.max_cones == fan.max_cones and old.face_sets == fan.face_sets
        assert hash(old) == hash(fan) and repr(old) == repr(fan)
        assert old._complete is fan._complete
        built += 1
    assert built > 100


def test_the_walk_describes_each_face_once(monkeypatch):
    """The build describes no face; the first all_faces access makes one
    _face_cone call per face other than the zero cone, never two for the
    same face, and a second access makes none. A certified fan makes one
    closure test per ray of each maximal cone (minimal generators, which
    implies strong convexity), none per face. The 4-cube's normal fan is
    built through build_fan (oracles.built_normal_fan), as normal_fan
    assembles it without validation."""
    calls = counting(monkeypatch, fan_module, "_face_cone")
    closures = counting(monkeypatch, fan_module, "_is_face")
    for make in (lambda: product_p1(5), lambda: oracles.built_normal_fan(cube(4)),
                 *LOWER_DIMENSIONAL):
        calls.clear()
        closures.clear()
        fan = make()
        assert calls == [] and fan._by_rays is None
        if fan._complete:
            assert len(closures) == sum(len(c.ray_indices) for c in fan.max_cones)
        faces = fan.all_faces
        described = [args[0] for args in calls]
        assert len(described) == len(set(described)) == len(faces) - 1
        assert set(described) | {()} == fan.face_sets
        assert fan.all_faces == faces and len(calls) == len(described)
    assert len(product_p1(5).all_faces) == 3 ** 5


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_closure_test_matches_the_face_scan(dim):
    """On every subset of each maximal cone's rays, _is_face on bitmasks
    agrees with oracles.cone_face_sets and with the closure on sets it
    replaced (oracles.set_is_face); sets with a ray outside the cone are no
    face."""
    checked = 0
    for fan in fans_to_check(dim):
        for cone in fan.max_cones:
            idx = cone.ray_indices
            tight = oracles.cone_tight_sets(idx, cone.inequalities, fan.rays)
            masks = [fan_module._bits(t) for t in tight]
            want = set(oracles.cone_face_sets(cone, fan.rays))
            for k in range(len(idx) + 1):
                for s in combinations(idx, k):
                    got = fan_module._is_face(fan_module._bits(s), fan_module._bits(idx), masks)
                    assert got == (s in want) == oracles.set_is_face(s, idx, tight), (idx, s)
                    checked += 1
            outside = next((i for i in range(len(fan.rays)) if i not in idx), None)
            if outside is not None:
                assert not fan_module._is_face(1 << outside, fan_module._bits(idx), masks)
                assert not oracles.set_is_face((outside,), idx, tight)
    assert checked > 200
