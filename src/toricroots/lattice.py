"""Exact integer linear algebra and lattice-point enumeration.

Vectors are tuples of Python ints and matrices are tuples of row vectors.
Every computation is done in integers: Gauss-Jordan elimination is
fraction-free, and the inverse of a basis is one pass of it on
[rows^T | I], returned as (basis, W, D) with B W = D I
(:func:`_basis_inverse`); the Hermite and Smith normal forms share one
unimodular Euclid step (each row loses its floor multiple of the pivot
row), and cones are converted between their ray and inequality
descriptions by an integer double-description kernel, which returns each
extreme ray with the bitmask of the input rows that vanish on it, so that
its callers need not pair rays with rows again to find them. Lattice
points of a polyhedron come from the same kernel: the double description
of its homogenization decides whether it is empty or unbounded and gives
its vertices, which bound each row, and one depth-first search over the
lattice of a basis of rows lists the points (:func:`lattice_points`
reads its constraints into the rows of :func:`_points`, which the roots
of fans that are not complete call directly; the roots of complete fans
and the truncated roots use the same search, :func:`_search`, with bounds
of their own). No floating point or rational number is used anywhere in
this package.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import NotSquare, NotUnimodular, ZeroVector

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


class Value:
    """Base of the package's frozen value types.

    A subclass declares ``__slots__`` and names its fields in ``_fields``.
    If it declares ``_fields`` in its own body and defines no ``__init__``,
    it gets a generated ``__init__(self, <fields in order>)`` that stores
    each argument with ``object.__setattr__``; a subclass that adds no
    fields inherits that constructor. A type whose constructor checks its
    arguments, derives data or has a default writes its own ``__init__``
    and stores its fields the same way. ``==`` and ``hash`` read the fields
    as one tuple and only objects of the same class compare equal; ``repr``
    shows the fields. Assigning or deleting an attribute raises
    AttributeError. Copy and pickle restore every slot of every class in
    the MRO, stored derived data included (a slot never set comes back as
    None), without running ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        if "_fields" in body and "__init__" not in body:
            cls.__init__ = _storing_init(cls)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return {name: getattr(self, name, None) for cls in type(self).__mro__
                for name in vars(cls).get("__slots__", ()) if name != "__weakref__"}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


def _storing_init(cls):
    """``__init__(self, <cls._fields>)`` storing each argument, compiled
    once per class the way ``collections.namedtuple`` builds its ``__new__``."""
    fields = cls._fields
    stores = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):{stores}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


# ---------------------------------------------------------------------------
# vectors


def is_integer(x) -> bool:
    """True for an int that is not a bool: what the strict readers accept."""
    return isinstance(x, int) and not isinstance(x, bool)


def vec(coords: Iterable[int]) -> Vec:
    """Coerce an iterable to a tuple of ints, rejecting non-integers."""
    out = tuple(coords)
    for c in out:
        if not is_integer(c):
            raise TypeError(f"integer coordinate expected, got {c!r}")
    return out


def dot(u: Vec, v: Vec) -> int:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def content(v: Vec) -> int:
    """gcd of the coordinates (0 for the zero vector)."""
    return math.gcd(*v) if v else 0


def primitive(v: Vec) -> Vec:
    """The primitive vector on the ray through v: v divided by its content."""
    g = content(v)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive representative")
    return tuple(c // g for c in v)


def is_primitive(v: Vec) -> bool:
    return content(v) == 1


# ---------------------------------------------------------------------------
# matrices


def identity(n: int) -> Mat:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Mat, v: Vec) -> Vec:
    """m v; ValueError when m's rows and v differ in length (m is read as
    rectangular, so only its first row is measured)."""
    if m and len(m[0]) != len(v):
        raise ValueError(f"dimension mismatch: {len(m[0])} vs {len(v)}")
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a b; ValueError when a's rows and b's columns differ in length."""
    if a and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _gauss_jordan(rows: Sequence[Vec], width: int) -> tuple[list[int], list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination on the first `width` columns.

    Returns the pivot columns, the reduced rows (a longer row carries the
    rest along) and the last pivot d signed by the row swaps. Row k has its
    pivot in column pivots[k]; each pivot column ends as d (unsigned) there
    and 0 elsewhere. Every entry is a minor of the input, so each division
    is exact. The pivot columns are the first independent columns; for a
    square matrix of full rank the signed d is its determinant.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p, row = a[r][col], a[r]
        for i in range(len(a)):
            f = a[i][col]
            if i != r and (f or p != prev):  # else the update leaves row i as it is
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(a):
            break
    return pivots, a, sign * prev


def _check_width(rows: Sequence[Vec], width: int) -> None:
    if any(len(row) != width for row in rows):
        raise ValueError(f"dimension mismatch: every row must have length {width}")


def _check_square(m: Mat) -> int:
    """The order of a square matrix; NotSquare names a row of another length."""
    n = len(m)
    for k, row in enumerate(m):
        if len(row) != n:
            raise NotSquare(f"matrix is not square: it has {n} rows but row {k} "
                            f"has length {len(row)}")
    return n


def determinant(m: Mat) -> int:
    """Exact determinant by fraction-free Gauss-Jordan elimination."""
    n = _check_square(m)
    pivots, _, d = _gauss_jordan(m, n)
    return d if len(pivots) == n else 0


def rank(rows: Sequence[Vec], width: int | None = None) -> int:
    """Rank over Q; ValueError for a row whose length is not `width`."""
    rows = list(rows)
    if width is None:
        if not rows:
            raise ValueError("rank of an empty matrix needs an explicit width")
        width = len(rows[0])
    _check_width(rows, width)
    return len(_gauss_jordan(rows, width)[0])


def invert_unimodular(m: Mat) -> Mat:
    """Inverse of a matrix with determinant +-1; exact and integral.

    :func:`_basis_inverse` on the rows of m, in order, picks all n of them
    when m has full rank, and then gives m W = D I with D = |det m|. So m is
    unimodular iff D = 1, and then m^-1 = W. The determinant is computed
    for the message only.
    """
    n = _check_square(m)
    picked, w, d = _basis_inverse(m, range(n), n)
    if len(picked) < n or d != 1:
        raise NotUnimodular(f"determinant is {determinant(m)}, expected +-1")
    return transpose(w)


# ---------------------------------------------------------------------------
# Smith and Hermite normal forms


def _euclid(a: list[list[int]], t: int, col: int, stop: int) -> bool:
    """One Euclidean pass on column `col`: rows t+1..stop-1 each lose their
    floor multiple of row t, and a row left with a nonzero remainder is
    swapped into row t. Returns whether a row was swapped; the entry of row
    t then shrank, so repeating the pass ends with zeros below it.
    """
    swapped = False
    for i in range(t + 1, stop):
        if a[i][col] != 0:
            q = a[i][col] // a[t][col]
            a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][col] != 0:
                a[t], a[i] = a[i], a[t]
                swapped = True
    return swapped


def smith_normal_form(m: Mat) -> tuple[Mat, Mat, Mat]:
    """(U, D, V) with U*m*V = D, U and V unimodular, D diagonal, d_i | d_{i+1}.

    Deterministic: pivots are chosen as the smallest-magnitude nonzero entry,
    ties broken by position. The reduction runs on one working matrix
    [[m | I], [I | 0]]: row operations on its first rows carry U along and
    column operations on its first columns carry V, so U, D and V are its
    blocks.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    _check_width(m, ncols)
    w = ([[*row, *e] for row, e in zip(m, identity(nrows))]
         + [[*e] + [0] * nrows for e in identity(ncols)])
    for t in range(min(nrows, ncols)):
        best = min(((abs(x), i, j) for i in range(t, nrows)
                    for j, x in enumerate(w[i][t:ncols], t) if x != 0), default=None)
        if best is None:
            break
        _, i0, j0 = best
        w[t], w[i0] = w[i0], w[t]
        for row in w:
            row[t], row[j0] = row[j0], row[t]
        while True:
            # clear the pivot row and column, shrinking the pivot via gcd steps
            changed = True
            while changed:
                changed = _euclid(w, t, t, nrows)
                for j in range(t + 1, ncols):
                    if w[t][j] != 0:
                        q = w[t][j] // w[t][t]
                        for row in w:
                            row[j] -= q * row[t]
                        if w[t][j] != 0:
                            for row in w:
                                row[t], row[j] = row[j], row[t]
                            changed = True
            piv = w[t][t]
            bad = next((i for i in range(t + 1, nrows) for x in w[i][t + 1:ncols]
                        if x % piv != 0), None)
            if bad is None:
                break
            # fold the offending row into the pivot row and re-clear
            w[t] = [x + y for x, y in zip(w[t], w[bad])]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
    return (tuple(tuple(row[ncols:]) for row in w[:nrows]),
            tuple(tuple(row[:ncols]) for row in w[:nrows]),
            tuple(tuple(row[:ncols]) for row in w[nrows:]))


def kernel_basis(rows: Sequence[Vec], width: int | None = None) -> Mat:
    """Basis of the saturated integer kernel {x : rows * x = 0}, in Hermite
    form.

    The Hermite form of [rows^T | I] is [H | U] with U unimodular and
    U rows^T = H. H has rank r, so its last width - r rows are zero, and the
    matching rows of U lie in the kernel; as rows of a unimodular matrix
    they span a saturated sublattice, of the kernel's rank, so all of it.
    """
    rows = [tuple(r) for r in rows]
    if width is None:
        if not rows:
            raise ValueError("kernel of an empty matrix needs an explicit width")
        width = len(rows[0])
    _check_width(rows, width)
    m = len(rows)
    cols = [tuple(r[t] for r in rows) for t in range(width)]
    h = hermite_row_form(tuple(c + e for c, e in zip(cols, identity(width))))
    return tuple(row[m:] for row in h if is_zero(row[:m]))


def hermite_row_form(m: Mat) -> Mat:
    """Unique row-style Hermite normal form (left-multiplication by GL_n(Z)).

    Echelon with positive pivots; entries above each pivot are reduced into
    [0, pivot).
    """
    if not m:
        return ()
    nrows, ncols = len(m), len(m[0])
    _check_width(m, ncols)
    h = [list(row) for row in m]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if h[i][col] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        while _euclid(h, r, col, nrows):
            pass
        if h[r][col] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][col] // h[r][col]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in h)


def hermite_column_form(m: Mat) -> Mat:
    """Canonical representative of m under right-multiplication by GL(Z)."""
    _check_width(m, len(m[0]) if m else 0)
    if not m or not m[0]:
        return tuple(tuple(row) for row in m)
    return transpose(hermite_row_form(transpose(m)))


# ---------------------------------------------------------------------------
# cones: the double description


def _motzkin(rays: list[Vec], tight: list[int], cuts, d: int) -> tuple[list[Vec], list[int]]:
    """Motzkin's double description method: the rays of a pointed cone P in a
    space L of dimension d, each with its incidence (bit k of tight[i] is set
    iff the k-th row vanishes on rays[i]), cut by each (k, c) of `cuts` in
    turn, the cut <c, x> >= 0 taking bit k. Returns the extreme rays of the
    result with their incidences, in no particular order. L need not be the
    whole space: it is any linear space that holds P and in which the rows
    cut P out, as {x in L : <a, x> >= 0 for every row a}. So it may be the
    span of the start cone (as in :func:`toricroots.fan._intersection_rays`),
    whose inequalities cut it out within its span; each cut keeps the cone
    in L and cut out there by the rows so far.

    Two rays of the current cone are adjacent iff no third ray is tight on
    every row tight on both (exact, as every row so far is kept); each
    adjacent pair on opposite sides of the cut yields the ray where their
    edge crosses it. A pair tight together on fewer than d - 2 rows is
    dropped before that scan over all rays, as it is not adjacent (a 2-face
    of P is cut out by rows of rank d - 2). Proof: let y = r_i + r_j and S
    the rows tight on both, which are the rows vanishing on y, as every row
    is >= 0 on P. Let V be the subspace of L where the rows of S vanish;
    each row lowers the dimension by at most one, so dim V >= d - |S|.
    Every row not in S is > 0 at y, so, as the rows cut P out within L, a
    neighbourhood of y in V lies in P, and so in the face G = P cut by
    <a, x> = 0 for the rows a in S. If cone(r_i, r_j) is a face of P, it is
    G, the smallest face holding y, so d - |S| <= dim V <= dim G = 2. The
    proof reads only points of L, so it holds for any such L. The lengths of
    the cuts are not checked: each must have the rays' length.
    """
    for k, c in cuts:
        bit = 1 << k
        vals = [sum(map(mul, c, r)) for r in rays]
        pos = [(i, v) for i, v in enumerate(vals) if v > 0]
        negs = [(j, v) for j, v in enumerate(vals) if v < 0]
        new_rays, new_tight = [], []
        for i, vi in pos:
            for j, vj in negs:
                common = tight[i] & tight[j]
                if common.bit_count() < d - 2 or any(
                        common & t == common for m, t in enumerate(tight) if m != i and m != j):
                    continue
                new_rays.append(primitive(tuple(vi * y - vj * x for x, y in zip(rays[i], rays[j]))))
                new_tight.append(common | bit)
        keep = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in keep] + new_rays
        tight = [tight[i] | (bit if vals[i] == 0 else 0) for i in keep] + new_tight
    return rays, tight


def _double_description(rows: Sequence[Vec], width: int) -> tuple[tuple, tuple, tuple] | None:
    """The sorted rays of :func:`dual_rays`; for each, the bitmask of the
    rows that vanish on it (bit k for rows[k]); and the start inverse
    (basis, W, D) of :func:`_basis_inverse`. None when fewer than `width`
    rows are independent, at once when there are fewer than `width` rows.

    The first `width` independent rows B bound a simplicial cone, whose rays
    are the columns of B^-1 (each orthogonal to all rows but one);
    :func:`_motzkin` cuts it with the rest. :func:`_basis_inverse` picks B
    and gives B W = D I with D > 0, so column k of W, made primitive, is the
    k-th ray (<b_k, w_k> = D > 0), tight on every row of B but b_k. When
    D = 1 the columns are primitive already: B W = I makes det W = +-1, and
    the content of a column divides det W.
    """
    if len(rows) < width:  # they cannot span Q^width
        return None
    start = picked, cols, d = _basis_inverse(rows, range(len(rows)), width)
    if len(picked) < width:
        return None
    basis = sum(1 << k for k in picked)
    cuts = [(k, r) for k, r in enumerate(rows) if not basis >> k & 1]
    rays, tight = _motzkin(cols if d == 1 else [primitive(w) for w in cols],
                           [basis ^ (1 << k) for k in picked], cuts, width)
    order = sorted(range(len(rays)), key=rays.__getitem__)
    return tuple(rays[i] for i in order), tuple(tight[i] for i in order), start


def dual_rays(rows: Sequence[Vec], width: int) -> tuple[Vec, ...] | None:
    """Primitive extreme rays of {x : <a, x> >= 0 for every row a}, sorted, or
    None when the rows do not span Q^width (the cone then contains a line).
    Computed by :func:`_double_description`."""
    dd = _double_description(rows, width)
    return None if dd is None else dd[0]


# ---------------------------------------------------------------------------
# lattice-point enumeration


class Constraint(Value):
    """One linear condition <normal, x> REL rhs with REL in {">=", "="};
    ValueError for another relation, or for a normal entry or rhs that is
    not an int (bools included)."""

    __slots__ = _fields = ("normal", "relation", "rhs")

    def __init__(self, normal: Vec, relation: str, rhs: int):
        if relation not in (">=", "="):
            raise ValueError(f"relation must be '>=' or '=', got {relation!r}")
        if not all(map(is_integer, normal)) or not is_integer(rhs):
            raise ValueError(f"integer normal and rhs expected, got {normal!r} and {rhs!r}")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", rhs)


class Unbounded:
    """Marker value: the solution set of the system is unbounded."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = Unbounded()


def lattice_points(constraints: Sequence[Constraint], dim: int):
    """All integer solutions, in lexicographic order, or UNBOUNDED;
    ValueError for a `dim` that is not a positive int (bools included) or
    a constraint of another length.

    Each equation a.x = b is taken as the two rows a.x >= b and -a.x >= -b,
    and P is the polyhedron of all rows, which :func:`_points` reads from
    there on (the roots of fans that are not complete call it with their
    rows directly).

    *Status.* P is the slice t = 1 of the cone C of the homogenized rows
    a.x - b t >= 0 and t >= 0. When the normals a span Q^dim, so do those
    rows in Q^(dim + 1) (a vector orthogonal to all of them has t = 0 and
    is orthogonal to every a), so C is pointed, the sum of its extreme
    rays, which :func:`dual_rays` finds. A point x of P puts
    (x, 1) in C, a sum of extreme rays, one of which then has t > 0; a ray
    (x, t) with t > 0 gives the point x / t. So P is empty iff no extreme
    ray has t > 0. The recession cone {x : a.x >= 0 for every row} of P is
    C cut by t = 0, a face of C as t >= 0 on C, so it is spanned by the
    extreme rays with t = 0: a non-empty P is bounded iff no ray has
    t = 0, and then its vertices are the x / t.

    *Lines.* P is always cut by <l, x> = 0 for each l of a basis of the
    space L on which the normals vanish (:func:`kernel_basis`), a basis
    that is empty when the normals span Q^dim. The cut normals span Q^dim,
    so the test above applies to the cut P. P + L = P, so a point of P
    less its projection onto L is again in P: the cut P is empty iff P is.
    When there is a cut, L is nonzero and a non-empty P holds a line, so
    it is unbounded. When there is none, the cut P is P.

    *Search.* A linear function takes its least and greatest values on a
    polytope at vertices. So on every integral point x of a bounded P, each
    row's a.x is an integer in [lo, hi], lo the least ceiling and hi the
    greatest floor of <a, x> / t over the rays (x, t), both integer
    divisions; lo >= b, as the vertices satisfy the row. Conversely an
    integral x with a.x >= lo for every row lies in P. The first dim
    independent normals in order of increasing width hi - lo are a basis
    B, and :func:`_search` lists exactly the integral x with every B row in
    its [lo, hi] and every other row's a.x >= lo (its proofs are there): so
    it misses no point of P and lists nothing outside it. Narrow rows
    first keep the search tree small: the equations fix the first
    coordinates of the search, and the widest rows branch last.
    """
    if not is_integer(dim) or dim < 1:
        raise ValueError(f"dimension must be a positive int, got {dim!r}")
    for c in constraints:
        if len(c.normal) != dim:
            raise ValueError(f"constraint dimension {len(c.normal)} != {dim}")
    rows = [(tuple(c.normal), c.rhs) for c in constraints]
    rows += [(neg(c.normal), -c.rhs) for c in constraints if c.relation == "="]
    return _points([a for a, _ in rows], [b for _, b in rows], dim)


def _points(normals: Sequence[Vec], floors: Sequence[int], dim: int):
    """:func:`lattice_points` of the rows <normals[k], x> >= floors[k],
    each normal of length `dim`; the proofs are there."""
    cone = [(*a, -b) for a, b in zip(normals, floors)] + [(0,) * dim + (1,)]
    cuts = [(*u, 0) for u in kernel_basis(normals, dim)]
    rays = dual_rays(cone + cuts + [neg(u) for u in cuts], dim + 1)
    if not any(r[-1] for r in rays):
        return ()
    if cuts or not all(r[-1] for r in rays):
        return UNBOUNDED
    values = [[(sum(map(mul, a, r)), r[-1]) for r in rays] for a in normals]
    lows = [min(-(-v // t) for v, t in vals) for vals in values]
    highs = [max(v // t for v, t in vals) for vals in values]
    order = sorted(range(len(normals)), key=lambda k: highs[k] - lows[k])
    return tuple(_search(normals, lows, highs, _basis_inverse(normals, order, dim)))


def _basis_inverse(rows: Sequence[Vec], order: Sequence[int], width: int) -> tuple:
    """(basis, W, D): `basis` lists the first independent rows in `order`
    (indices into rows, each of length `width`). When there are `width` of
    them, B W = D I with D > 0 for the matrix B of those rows, W given by
    its columns in the same order; when there are fewer, W and D mean
    nothing, and a caller that does not know that the rows span Q^width
    checks len(basis). This is the package's one inverse of a basis: the
    double description starts from it, and :func:`invert_unimodular`,
    :func:`_points` and the box search of truncated roots read it.
    The pairing search for the roots of complete fans calls it for a basis
    through a maximal cone that is not simplicial, and reads the inverse
    that a simplicial cone stores (:func:`toricroots.fan._simplicial_inverse`).

    One fraction-free Gauss-Jordan pass (:func:`_gauss_jordan`) on [G | I],
    G the rows in `order` as columns, picks the first independent columns,
    so B^T is G restricted to them, and left-multiplies by some E with
    E B^T = p I, p the last pivot, which is +-det B. So the rows of E
    signed by p are the columns of W, and D = |p| = |det B|.
    """
    m = len(order)
    columns = zip(*[rows[i] for i in order])
    picked, a, _ = _gauss_jordan([c + u for c, u in zip(columns, identity(width))], m)
    p = a[0][picked[0]] if picked else 1
    return [order[j] for j in picked], [tuple(r[m:]) if p > 0 else neg(r[m:]) for r in a], abs(p)


def _search(rows: Sequence[Vec], lows: Sequence[int], highs: Sequence[int],
            inverse: tuple) -> list[Vec]:
    """The integral x with lows[k] <= <rows[k], x> <= highs[k] for every row
    k of the basis and <rows[k], x> >= lows[k] for every other row, sorted.

    `inverse` is (basis, W, D) of :func:`_basis_inverse` for n rows whose
    indices into `rows` are `basis`: they are the rows of an invertible
    matrix B with B W = D I and D > 0, W given by its columns in basis
    order. highs is read at the basis rows alone (a mapping from them will
    do), and the bounds of every basis row are finite. The basis rows with
    equal bounds are searched first, then the others, each group in basis
    order; B below is the basis in that order. An integral x is W y / D for y = B x in the lattice
    B Z^n, and D <a, x> = L_a y with L_a the integers <a, w_i>. The column
    Hermite form H of B is lower triangular with a positive diagonal and
    H Z^n = B Z^n (H = I when D = 1), so the y in the lattice are the H z
    with z integral, and z is read off y one coordinate at a time: given
    z_0 .. z_(i-1), the values of y_i are the r_i + H_ii t, r_i =
    sum H_im z_m over m < i. The leading run of fixed coordinates (equal
    bounds) either gives its z or shows that there is no point. The others
    are searched depth first (:func:`_descend`), each over the values
    r_i + H_ii t in its bounds, so every full y is B x for an integral x,
    and no point of the box off the lattice is visited. The coordinates
    not yet taken can add at most sum max(lo L_ai, hi L_ai) to L_a y over
    their bounds [lo, hi], and a value is taken only if every other row's
    L_a y can still reach D lows[a] with that much. So every full y meets
    every row, and no y that does is cut; there are at most as many as the
    box of the basis bounds holds.

    Only W / D enters: scaling W and D by one factor k > 0 scales every L_a,
    every sum L_a y - D lows[a] and every tail by k, and
    floor(k s / (k c)) = floor(s / c), so each interval of :func:`_descend`
    is unchanged and the same nodes are visited; the last division by D is
    exact either way. Any such W / D with D = 1 makes B^-1 integral, so B is
    unimodular and H = I is its Hermite form.
    """
    picked, columns, d = inverse
    n = len(picked)
    basis, cols = zip(*sorted(zip(picked, columns), key=lambda bc: lows[bc[0]] != highs[bc[0]]))
    others = [k for k in range(len(rows)) if k not in basis]
    h = identity(n) if d == 1 else hermite_column_form([rows[k] for k in basis])
    y, z = [0] * n, [0] * n
    fixed = 0
    while fixed < n and lows[basis[fixed]] == highs[basis[fixed]]:
        y[fixed] = lows[basis[fixed]]
        z[fixed], off = divmod(y[fixed] - sum(map(mul, h[fixed], z)), h[fixed][fixed])
        if off:
            return []
        fixed += 1
    w = list(zip(*cols))
    start = [sum(map(mul, y, row)) for row in w]  # W y, y fixed so far
    sums = [sum(map(mul, rows[k], start)) - d * lows[k] for k in others]
    steps, tail = [], [0] * len(others)
    for pos in range(n - 1, fixed - 1, -1):
        lo, hi = lows[basis[pos]], highs[basis[pos]]
        coeffs = [sum(map(mul, rows[k], cols[pos])) for k in others]
        steps.append((pos, lo, hi, coeffs, h[pos], tail))
        tail = [t + max(lo * c, hi * c) for t, c in zip(tail, coeffs)]
    steps.reverse()
    found: list[list[int]] = []
    if steps or min(sums, default=0) >= 0:  # with no step, _descend checks no row
        _descend(steps, 0, sums, y, z, found)
    return sorted(tuple(sum(map(mul, pairings, row)) // d for row in w) for pairings in found)


def _descend(steps, level: int, sums: list[int], y: list[int], z: list[int], found: list) -> None:
    """Extend y = H z at steps[level:] (each a position, its bounds, its
    column of the rows L, its row of H and the most that the later steps
    add to each row), collecting every full y. The values of y at the
    position that keep every row of `sums` = L y - d lows within reach of
    0 form an interval, cut by the bounds; y steps through it by H's
    diagonal entry from the value the earlier z allow."""
    if level == len(steps):
        found.append(list(y))
        return
    pos, lo, hi, coeffs, hrow, tail = steps[level]
    for s, t, c in zip(sums, tail, coeffs):
        if c > 0:
            lo = max(lo, -((s + t) // c))
        elif c < 0:
            hi = min(hi, (s + t) // -c)
        elif s + t < 0:
            return
    z[pos] = 0
    r, step = sum(map(mul, hrow, z)), hrow[pos]
    for v in range(lo + (r - lo) % step, hi + 1, step):
        y[pos], z[pos] = v, (v - r) // step
        _descend(steps, level + 1, [s + v * c for s, c in zip(sums, coeffs)], y, z, found)
