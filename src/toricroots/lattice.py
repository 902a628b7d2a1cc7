"""Exact integer linear algebra and lattice-point enumeration.

Vectors are tuples of Python ints and matrices are tuples of row vectors.
Every computation is done in integers: elimination is fraction-free
(Gauss-Jordan, Hermite, Smith) and cones are converted between their ray and
inequality descriptions by an integer double-description kernel. No
floating point or rational number is used anywhere in this package.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import InternalError, NotSquare, NotUnimodular, ZeroVector

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


class Value:
    """Base of the package's frozen value types.

    A subclass declares ``__slots__``, names its fields in ``_fields`` and
    sets them in its ``__init__`` with ``object.__setattr__``. ``==`` and
    ``hash`` read the fields as one tuple and only objects of the same class
    compare equal; ``repr`` shows the fields named in ``_shown`` (all of
    them by default). Assigning or deleting an attribute raises
    AttributeError. Copy and pickle restore every slot, stored derived data
    included, without running ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] | None = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown or self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__ if name != "__weakref__"}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


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
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


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
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(a):
            break
    return pivots, a, sign * prev


def _check_width(rows: Sequence[Vec], width: int) -> None:
    if any(len(row) != width for row in rows):
        raise ValueError(f"dimension mismatch: every row must have length {width}")


def determinant(m: Mat) -> int:
    """Exact determinant by fraction-free Gauss-Jordan elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquare(f"matrix is {len(m)}x{len(m[0]) if m else 0}, not square")
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

    One fraction-free Gauss-Jordan pass takes [m | I] to [d I | d m^-1],
    with d = +-det m when m has full rank; m is unimodular iff d = +-1,
    and then the right block divided by d is m^-1.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquare(f"matrix is {n}x{len(m[0]) if m else 0}, not square")
    pivots, a, d = _gauss_jordan([tuple(row) + e for row, e in zip(m, identity(n))], n)
    if len(pivots) < n or abs(d) != 1:
        raise NotUnimodular(f"determinant is {d if len(pivots) == n else 0}, expected +-1")
    return tuple(tuple(x // row[k] for x in row[n:]) for k, row in enumerate(a))


def dual_basis(basis: Sequence[Vec]) -> Mat:
    """Vectors q_1..q_n with <p_i, q_j> = delta_ij for a unimodular basis."""
    return transpose(invert_unimodular(basis))


# ---------------------------------------------------------------------------
# Smith and Hermite normal forms


def smith_normal_form(m: Mat) -> tuple[Mat, Mat, Mat]:
    """(U, D, V) with U*m*V = D, U and V unimodular, D diagonal, d_i | d_{i+1}.

    Deterministic: pivots are chosen as the smallest-magnitude nonzero entry,
    ties broken by position.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    _check_width(m, ncols)
    a = [list(row) for row in m]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i: int, k: int, q: int) -> None:  # row_i -= q * row_k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_op(j: int, k: int, q: int) -> None:  # col_j -= q * col_k
        for r in range(nrows):
            a[r][j] -= q * a[r][k]
        for r in range(ncols):
            v[r][j] -= q * v[r][k]

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j: int, k: int) -> None:
        for r in range(nrows):
            a[r][j], a[r][k] = a[r][k], a[r][j]
        for r in range(ncols):
            v[r][j], v[r][k] = v[r][k], v[r][j]

    t = 0
    while True:
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            # clear the pivot row and column, shrinking the pivot via gcd steps
            changed = True
            while changed:
                changed = False
                for i in range(t + 1, nrows):
                    if a[i][t] != 0:
                        q = a[i][t] // a[t][t]
                        row_op(i, t, q)
                        if a[i][t] != 0:
                            row_swap(t, i)
                            changed = True
                for j in range(t + 1, ncols):
                    if a[t][j] != 0:
                        q = a[t][j] // a[t][t]
                        col_op(j, t, q)
                        if a[t][j] != 0:
                            col_swap(t, j)
                            changed = True
            piv = a[t][t]
            bad = next(((i, j) for i in range(t + 1, nrows) for j in range(t + 1, ncols)
                        if a[i][j] % piv != 0), None)
            if bad is None:
                break
            # fold the offending row into the pivot row and re-clear
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
            u[t] = [x + y for x, y in zip(u[t], u[bad[0]])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return (tuple(tuple(r) for r in u),
            tuple(tuple(r) for r in a),
            tuple(tuple(r) for r in v))


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
        while True:
            nz = [i for i in range(r, nrows) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            h[r], h[i0] = h[i0], h[r]
            done = True
            for i in range(r + 1, nrows):
                if h[i][col] != 0:
                    q = h[i][col] // h[r][col]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if r < nrows and h[r][col] != 0:
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


def cut_cone(rays: Sequence[Vec], rows: Sequence[Vec], cuts: Iterable[Vec]) -> tuple[Vec, ...]:
    """Primitive extreme rays of {x in C : <c, x> >= 0 for every cut c}, sorted.

    Motzkin's double description method: `rays` are the primitive extreme
    rays of a pointed cone C, and `rows` inequalities that cut C out within
    its span. The cuts are applied one at a time. Two rays of the current
    cone are adjacent iff no third ray is tight on every row tight on both
    (exact, as every row so far is kept); each adjacent pair on opposite
    sides of the cut yields the ray where their edge crosses it.
    """
    rays, rows = list(rays), list(rows)
    # bit k of tight[i] is set iff rows[k] vanishes on rays[i]
    tight = [sum(1 << k for k, a in enumerate(rows) if dot(a, r) == 0) for r in rays]
    for c in cuts:
        bit = 1 << len(rows)
        rows.append(c)
        vals = [dot(c, r) for r in rays]
        new_rays, new_tight = [], []
        for i, vi in enumerate(vals):
            if vi <= 0:
                continue
            for j, vj in enumerate(vals):
                if vj >= 0:
                    continue
                common = tight[i] & tight[j]
                if any(common & t == common for k, t in enumerate(tight) if k != i and k != j):
                    continue
                new_rays.append(primitive(tuple(vi * y - vj * x for x, y in zip(rays[i], rays[j]))))
                new_tight.append(common | bit)
        keep = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in keep] + new_rays
        tight = [tight[i] | (bit if vals[i] == 0 else 0) for i in keep] + new_tight
    return tuple(sorted(rays))


def dual_rays(rows: Sequence[Vec], width: int) -> tuple[Vec, ...] | None:
    """Primitive extreme rays of {x : <a, x> >= 0 for every row a}, sorted, or
    None when the rows do not span Q^width (the cone then contains a line).

    The first `width` independent rows B bound a simplicial cone, whose rays
    are the columns of B^-1 (each orthogonal to all rows but one);
    :func:`cut_cone` cuts it with the rest. One fraction-free Gauss-Jordan
    pass on [rows^T | I] finds both: its pivot columns pick B, and its right
    block E ends with E B^T = d I, so row k of E, made primitive and signed
    by the pivot d, is the k-th ray (<b_k, u> > 0).
    """
    m = len(rows)
    pivots, a, _ = _gauss_jordan(
        [[r[t] for r in rows] + [int(i == t) for i in range(width)] for t in range(width)], m)
    if len(pivots) < width:
        return None
    start = [primitive(row[m:] if row[k] > 0 else neg(row[m:])) for row, k in zip(a, pivots)]
    rest = [r for k, r in enumerate(rows) if k not in pivots]
    return cut_cone(start, [rows[k] for k in pivots], rest)


# ---------------------------------------------------------------------------
# lattice-point enumeration


class Constraint(Value):
    """One linear condition <normal, x> REL rhs with REL in {">=", "="}."""

    __slots__ = _fields = ("normal", "relation", "rhs")

    def __init__(self, normal: Vec, relation: str, rhs: int):
        if relation not in (">=", "="):
            raise ValueError(f"relation must be '>=' or '=', got {relation!r}")
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

# internal row representation: (coeffs, rhs) meaning coeffs . x >= rhs (or
# = rhs, for an equation); a row of the elimination also carries the
# bitmask of the input inequalities it combines
_Ineq = tuple[Vec, int]
_Row = tuple[Vec, int, int]


def _reduce_ineq(coeffs: Vec, rhs: int) -> _Ineq:
    g = math.gcd(content(coeffs), abs(rhs))
    if g > 1:
        return tuple(c // g for c in coeffs), rhs // g
    return coeffs, rhs


def _substitute(row: _Ineq, pivot: _Ineq, k: int) -> _Ineq:
    """row minus a multiple of the equation `pivot`, with x_k cancelled; the
    row is scaled by |pivot[k]| > 0, so an inequality keeps its direction."""
    (a, b), (p, c) = row, pivot
    m1, m2 = (p[k], a[k]) if p[k] > 0 else (-p[k], -a[k])
    return _reduce_ineq(tuple(m1 * x - m2 * y for x, y in zip(a, p)), m1 * b - m2 * c)


def _eliminate(rows: Sequence[_Row], k: int, done: int) -> list[_Row]:
    """Fourier-Motzkin elimination of variable k, the `done`-th elimination;
    exact over Q, with Chernikov's rule.

    A row (a, b, h) is a.x >= b, a positive combination of the input rows
    (inequalities, with equations substituted into them) whose bits are set
    in h. Rows with a[k] = 0 pass, each pair with opposite signs at k gives
    one combination, and a combination of more than done + 1 input rows is
    dropped (Chernikov's rule; Fukuda and Prodon, "Double description method
    revisited", 1996). It is implied by the rows kept. Proof: the weights lambda >= 0 on the m input rows that
    cancel the `done` eliminated variables form a pointed cone C in Q^m,
    cut out by `done` equations, and each row is the combination by some
    lambda in C whose support is its h. On the support S of an extreme ray
    of C, those equations have a kernel of dimension one, so |S| <= done + 1;
    a lambda with larger support is a sum of extreme rays, and its row the
    sum of theirs. Without the rule, elimination forms every extreme ray of
    C from two adjacent extreme rays of the cone before it, whose supports
    lie inside its own (Motzkin's double description lemma); by induction
    each is formed, with its support as h, and none is dropped. So each
    system still cuts out its projection exactly. Rows are kept apart by
    their histories too, so that each h is the support of its own lambda:
    keeping one history per row can lose a bound.
    """
    pos, negs, zero = [], [], []
    for a, b, h in rows:
        if a[k] > 0:
            pos.append((a, b, h))
        elif a[k] < 0:
            negs.append((a, b, h))
        elif not is_zero(a) or b > 0:  # keep infeasibility witnesses 0 >= b > 0
            zero.append((a, b, h))
    out = set(zero)
    for ap, bp, hp in pos:
        for an, bn, hn in negs:
            h = hp | hn
            if h.bit_count() > done + 1:
                continue
            m1, m2 = ap[k], -an[k]
            coeffs = tuple(m2 * x + m1 * y for x, y in zip(ap, an))
            rhs = m2 * bp + m1 * bn
            if is_zero(coeffs) and rhs <= 0:
                continue
            out.add(_reduce_ineq(coeffs, rhs) + (h,))
    return sorted(out)


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def lattice_points(constraints: Sequence[Constraint], dim: int):
    """All integer solutions, in lexicographic order, or UNBOUNDED.

    The polyhedron P is projected onto its leading coordinates, exactly over
    Q: ``systems[k + 1]`` cuts out the projection P_k of P onto x_0..x_k.
    Variables go from the last. An equation with a nonzero coefficient at
    x_k fixes x_k on P_k, so substituting it into the other rows projects
    exactly (:func:`_substitute`); otherwise Fourier-Motzkin elimination
    with Chernikov's rule (:func:`_eliminate`) projects the inequalities,
    each still one input inequality after any substitution. When every
    variable is gone, P is empty iff a row 0 >= b > 0 or 0 = b != 0 is
    left. A non-empty P is bounded iff for every k, ``systems[k + 1]`` has
    a row with a[k] > 0 and a row with a[k] < 0 (an equation gives one of
    each). Proof: if no row has a[k] < 0, then moving x_k up from any point
    of P_k keeps every row satisfied, so P_k, and hence P, is unbounded;
    likewise for a[k] > 0 downwards. If both signs occur at every k, then
    by induction on k, P_{k-1} is bounded and x_k lies between affine
    functions of x_0..x_{k-1}, so P_k is bounded. Enumeration takes those
    per-coordinate bounds from the projections and descends recursively.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    for c in constraints:
        if len(c.normal) != dim:
            raise ValueError(f"constraint dimension {len(c.normal)} != {dim}")
    eqs = [_reduce_ineq(tuple(c.normal), c.rhs) for c in constraints if c.relation == "="]
    rows = [_reduce_ineq(tuple(c.normal), c.rhs) + (1 << i,)
            for i, c in enumerate(c for c in constraints if c.relation == ">=")]
    systems: list[list[_Ineq]] = [[] for _ in range(dim + 1)]
    done = 0
    for k in range(dim - 1, -1, -1):
        systems[k + 1] = list(dict.fromkeys([(a, b) for a, b, _ in rows] + eqs
                                            + [(neg(a), -b) for a, b in eqs]))
        pivot = next((e for e in eqs if e[0][k]), None)
        if pivot is None:
            done += 1
            rows = _eliminate(rows, k, done)
            continue
        eqs.remove(pivot)
        eqs = [_substitute(e, pivot, k) for e in eqs]
        rows = [_substitute((a, b), pivot, k) + (h,) for a, b, h in rows]
        rows = [(a, b, h) for a, b, h in rows if not is_zero(a) or b > 0]
    if rows or any(b for _, b in eqs):  # only rows 0 >= b > 0 and 0 = b are left
        return ()
    if any(len({a[k] > 0 for a, _ in systems[k + 1] if a[k]}) < 2 for k in range(dim)):
        return UNBOUNDED

    out: list[Vec] = []
    point = [0] * dim

    def descend(k: int) -> None:
        lo: int | None = None
        hi: int | None = None
        for a, b in systems[k + 1]:
            partial = sum(a[j] * point[j] for j in range(k))
            coeff = a[k]
            if coeff == 0:
                if partial < b:
                    return
            elif coeff > 0:
                cand = _ceil_div(b - partial, coeff)
                lo = cand if lo is None else max(lo, cand)
            else:
                cand = (b - partial) // coeff
                hi = cand if hi is None else min(hi, cand)
        if lo is None or hi is None:
            raise InternalError("unbounded slice inside a bounded polyhedron")
        for x in range(lo, hi + 1):
            point[k] = x
            if k + 1 == dim:
                out.append(tuple(point))
            else:
                descend(k + 1)

    # an empty 1-variable system would mean an unbounded axis, caught above
    descend(0)
    return tuple(out)
