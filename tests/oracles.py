"""Reference implementations kept as test oracles.

These are the brute-force subset scans and the rational-arithmetic rank
that the double-description kernel and the fraction-free elimination in
``toricroots.lattice`` replaced, and the geometric routines that the fan's
face index replaced: root condition (2) decided on minimal generators, the
2^k face scan of a cone, the C(m, n) scan for complete collections and the
ridge-and-adjacency completeness test (without its coverage check). The
build-time certificate replaced two more tests of completeness: the ridge
count over the face index (``ridge_count_complete``, without its coverage
check) and the coverage check itself (``first_uncovered``, the loop over
directions that packed integers had replaced). Two
more were replaced by local tests: root condition (2) on every face of the
fan (``condition2_on_all_faces``; the library now checks the maximal
cones) and the double-description test that a homogeneous system has only
the zero solution (``recession_cone_is_zero``; ``lattice_points`` now reads
boundedness off its Fourier-Motzkin projections). ``dual_rays`` keeps the
start of the double description it had before one Gauss-Jordan pass
replaced it: one cofactor determinant of order n - 1 per entry of the
adjugate. The
code is kept as it was; only the module references differ, and only the
cache of ``minimal_rays`` (keyed on vectors, not on fans) is kept. Every rank inside the oracles is the
``Fraction`` rank below and every dual description the subset scan, so the
oracles share no elimination code with what they check. The exceptions are
``condition2_on_all_faces``, which reads the fan's face index;
``recession_cone_is_zero``, which runs the library's double-description
kernel and so shares no code with the Fourier-Motzkin scan it checks; and
``dual_rays``, which shares the library's ``rank`` and ``cut_cone`` and
differs from ``lattice.dual_rays`` only in how it finds the start rays.

One fraction-free Gauss-Jordan kernel then replaced three eliminations of
``lattice``, and a walk down through facets the closure of each maximal
cone's facets in ``fan.build_fan``; the replaced code is kept below, with
only its names changed: the forward Bareiss elimination with its ``rank``
and ``determinant`` (``bareiss``, ``bareiss_rank``,
``bareiss_determinant``), the inverse read off the Hermite form of
[m | I] (``hermite_invert_unimodular``), ``dual_rays`` with its start basis
found by one rank per row (``basis_dual_rays``), and the face closure
(``faces``) with the owner/dims assembly of ``build_fan``
(``build_fan_by_closure``, which calls ``face_cone_by_rank``). These call
each other, so they share no elimination code with the kernel; the
assembly runs the library's validation and dual descriptions.

Then the closure test on a facet incidence replaced rank in the
polytope's vertex and edge tests and in the pointedness test of
``cone_dual_description``, and Chernikov's rule with the substitution of
equations replaced plain Fourier-Motzkin elimination in ``lattice_points``.
Kept below, unchanged but for names and for taking the data they read off
the polytope as arguments: the vertex test with its vertex->facet map
(``rank_vertex_tight``), the edge test (``rank_edge_directions_at``) and
the pointedness test (``rank_cone_dual_description``), which use the
library's ``rank`` and so share no code with the closure test; and the
splitting of equations into two rows (``split``), the elimination
(``eliminate``) and ``lattice_points`` on them (``fm_lattice_points``),
which share only ``_reduce_ineq`` and ``_ceil_div`` with the library.

Last, plain ``__slots__`` classes on ``lattice.Value`` replaced the
``@dataclass(frozen=True)`` value types, so that no command imports
``dataclasses``. The class ``dataclass_values`` holds the eighteen
definitions unchanged; they are nested in it so that their names do not
shadow the library's, and their ``repr`` reads ``dataclass_values.Fan(...)``
where the library's reads ``Fan(...)``. Their methods run the library's
code, but their ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` are
the ones ``dataclasses`` generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Sequence

from toricroots import lattice
from toricroots.additive import CompleteCollection
from toricroots.demazure import DemazureRoot, pairing_row, satisfies_condition1
from toricroots import fan as fan_module
from toricroots.errors import (
    DegeneratePolytope,
    DimensionMismatch,
    InternalError,
    InvalidPolytope,
    NotSquare,
    NotStronglyConvex,
    NotUnimodular,
)
from toricroots.fan import Cone, Fan, LatticeAutomorphism, _is_face
from toricroots.lattice import (
    UNBOUNDED,
    Constraint,
    Mat,
    Vec,
    _ceil_div,
    _reduce_ineq,
    content,
    dot,
    is_zero,
    neg,
    primitive,
    sub,
    vec,
)
from toricroots.polytope import FacetInequality, _hull_facets


def rank(rows: Sequence[Vec], width: int | None = None) -> int:
    """Rank over Q, by exact rational elimination."""
    rows = list(rows)
    if width is None:
        if not rows:
            raise ValueError("rank of an empty matrix needs an explicit width")
        width = len(rows[0])
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def trivial_homogeneous_cone(ineqs: Sequence[Vec], dim: int) -> bool:
    """True iff {x : a.x >= 0 for all a} is exactly {0}.

    Decided coordinate by coordinate: project onto each axis by eliminating
    the other variables and check the axis is pinned to 0 from both sides.
    """
    rows = []
    for a in ineqs:
        a = tuple(a)
        if not is_zero(a):
            g = content(a)
            rows.append((tuple(c // g for c in a), 0))
    for i in range(dim):
        cur = rows
        for j in range(dim):
            if j != i:
                cur = eliminate(cur, j)
        has_pos = any(a[i] > 0 for a, _ in cur)
        has_neg = any(a[i] < 0 for a, _ in cur)
        if not (has_pos and has_neg):
            return False
    return True


def recession_cone_is_zero(ineqs: Sequence[Vec], dim: int) -> bool:
    """True iff {x : a.x >= 0 for all a} is exactly {0}: the rows have rank
    dim and the double description leaves no ray."""
    return lattice.dual_rays(ineqs, dim) == ()


def dual_rays(rows: Sequence[Vec], width: int) -> tuple[Vec, ...] | None:
    """Primitive extreme rays of {x : <a, x> >= 0 for every row a}, sorted, or
    None when the rows do not span Q^width (the cone then contains a line).

    The first `width` independent rows bound a simplicial cone, whose rays
    are the columns of the adjugate of those rows (cofactor vectors, each
    orthogonal to all rows but one); :func:`cut_cone` cuts it with the rest.
    """
    basis: list[Vec] = []
    rest: list[Vec] = []
    for a in rows:
        if len(basis) < width and lattice.rank(basis + [a], width) > len(basis):
            basis.append(a)
        else:
            rest.append(a)
    if len(basis) < width:
        return None
    sign = 1 if lattice.determinant(basis) > 0 else -1
    start = []
    for k in range(width):
        minor = basis[:k] + basis[k + 1:]
        u = tuple((-1) ** (k + t) * lattice.determinant([r[:t] + r[t + 1:] for r in minor])
                  for t in range(width))
        start.append(primitive(u if sign > 0 else neg(u)))
    return lattice.cut_cone(start, basis, rest)


def _canonical_rows(rows) -> tuple[Vec, ...]:
    """The rows, each signed to a positive first nonzero entry, sorted: the
    oracle's form of a cone's equations."""
    out = []
    for row in rows:
        row = tuple(row)
        nz = next((x for x in row if x != 0), 0)
        out.append(neg(row) if nz < 0 else row)
    return tuple(sorted(out))


def dual_description(gens: tuple[Vec, ...], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(inequalities, equations) cutting out cone(gens), exactly.

    Candidate facet normals come from kernels of (d-1)-subsets of the
    generators inside the saturated span (d = rank); span equations are a
    kernel basis of the generator matrix. Works for non-pointed cones too.
    """
    if not gens:
        return (), _canonical_rows(lattice.identity(dim))
    a = tuple(gens)
    _, d_mat, v = lattice.smith_normal_form(a)
    r = min(len(a), dim)
    d = sum(1 for j in range(r) if d_mat[j][j] != 0)
    cols = lattice.transpose(v)
    equations = _canonical_rows(cols[j] for j in range(d, dim))

    if d == dim:
        coords = list(gens)

        def lift(w: Vec) -> Vec:
            return w
    else:
        def coord(g: Vec) -> Vec:
            img = tuple(dot(g, col) for col in cols)  # g * V
            return img[:d]

        coords = [coord(g) for g in gens]

        def lift(w: Vec) -> Vec:
            return tuple(sum(v[t][j] * w[j] for j in range(d)) for t in range(dim))

    prim = []
    seen = set()
    for c in coords:
        if is_zero(c):
            continue
        p = primitive(c)
        if p not in seen:
            seen.add(p)
            prim.append(p)

    normals: set[Vec] = set()
    if d == 1:
        signs = {1 if c[0] > 0 else -1 for c in prim}
        if len(signs) == 1:
            normals.add((signs.pop(),))
    else:
        for subset in combinations(prim, d - 1):
            ker = lattice.kernel_basis(subset, d)
            if len(ker) != 1:
                continue
            u = ker[0]
            vals = [dot(c, u) for c in coords]
            if all(x >= 0 for x in vals):
                normals.add(primitive(u))
            elif all(x <= 0 for x in vals):
                normals.add(primitive(neg(u)))

    inequalities = tuple(sorted(lift(w) for w in normals))
    return inequalities, equations


def intersection_rays(c1: Cone, c2: Cone, dim: int) -> tuple[Vec, ...]:
    """Primitive extreme rays of the intersection of two pointed cones."""
    ineqs = tuple(dict.fromkeys(c1.inequalities + c2.inequalities))
    eqs = tuple(dict.fromkeys(c1.equations + c2.equations))
    base = rank(eqs, dim) if eqs else 0
    want = dim - 1 - base
    if want < 0:
        return ()
    out = set()
    for subset in combinations(ineqs, want):
        rows = eqs + subset
        if rank(rows, dim) != dim - 1:
            continue
        ker = lattice.kernel_basis(rows, dim)
        if len(ker) != 1:
            continue
        for u in (ker[0], neg(ker[0])):
            if all(dot(a, u) >= 0 for a in ineqs) and all(dot(a, u) == 0 for a in eqs):
                out.add(primitive(u))
                break
    return tuple(sorted(out))


def hull_facets(points: tuple[Vec, ...], dim: int) -> tuple[FacetInequality, ...]:
    """Facets of conv(points) by scanning dim-subsets for supporting hyperplanes."""
    found = set()
    for subset in combinations(points, dim):
        diffs = tuple(sub(q, subset[0]) for q in subset[1:])
        kernel = lattice.kernel_basis(diffs, dim)
        if len(kernel) != 1:
            continue  # affinely dependent subset: no unique hyperplane
        u = primitive(kernel[0])
        a = dot(u, subset[0])
        vals = [dot(u, q) - a for q in points]
        if all(v <= 0 for v in vals):
            found.add((u, a))
        elif all(v >= 0 for v in vals):
            found.add((neg(u), -a))
    return tuple(FacetInequality(u, a) for u, a in sorted(found))


@lru_cache(maxsize=None)
def minimal_rays(gens: tuple[Vec, ...], dim: int):
    """Primitive extreme-ray generators of cone(gens), or None if not pointed."""
    ineqs, eqs = dual_description(gens, dim)
    if rank(ineqs + eqs, dim) < dim:
        return None
    prim = sorted({primitive(g) for g in gens if not is_zero(g)})
    out = []
    for g in prim:
        active = list(eqs) + [a for a in ineqs if dot(a, g) == 0]
        if rank(active, dim) == dim - 1:
            out.append(g)
    return tuple(out)


def generated_cone_in_fan(fan: Fan, gens: tuple[Vec, ...]) -> bool:
    """Is cone(gens) a cone of the fan? Decided on minimal generators."""
    minimal = minimal_rays(gens, fan.dim)
    if minimal is None:
        return False
    prim_index = {primitive(r): i for i, r in enumerate(fan.rays)}
    try:
        idx = tuple(sorted(prim_index[r] for r in minimal))
    except KeyError:
        return False
    return idx in fan.face_sets


def satisfies_condition2(fan: Fan, e: Vec, ray: int) -> bool:
    for face in fan.all_faces:
        if all(dot(fan.rays[i], e) == 0 for i in face.ray_indices):
            gens = tuple(fan.rays[i] for i in face.ray_indices) + (fan.rays[ray],)
            if not generated_cone_in_fan(fan, tuple(sorted(gens))):
                return False
    return True


def condition2_on_all_faces(fan: Fan, e: Vec, ray: int) -> bool:
    """For every cone sigma on which e vanishes, cone(sigma + ray) is in the fan."""
    zero = {i for i, p in enumerate(fan.rays) if dot(p, e) == 0}
    return all(tuple(sorted({*face.ray_indices, ray})) in fan.face_sets
               for face in fan.all_faces if zero.issuperset(face.ray_indices))


def is_demazure_root(fan: Fan, e, ray: int) -> bool:
    e = tuple(e)
    return satisfies_condition1(fan, e, ray) and satisfies_condition2(fan, e, ray)


def cone_face_sets(cone: Cone, rays: tuple[Vec, ...]) -> tuple[tuple[int, ...], ...]:
    """Ray-index sets of all faces of `cone` (every face is an intersection
    of facets, so subsets of the facet normals enumerate them all)."""
    found = {cone.ray_indices}
    for k in range(1, len(cone.inequalities) + 1):
        for subset in combinations(cone.inequalities, k):
            facial = tuple(i for i in cone.ray_indices
                           if all(dot(a, rays[i]) == 0 for a in subset))
            found.add(facial)
    return tuple(sorted(found, key=lambda s: (len(s), s)))


def complete_collections(fan: Fan) -> tuple[CompleteCollection, ...]:
    """All complete collections, ordered by their sorted ray-index tuples.

    A collection is forced by its distinguished rays: those must be a
    unimodular basis and the roots are the negated dual basis, so it
    suffices to scan n-subsets of rays.
    """
    n = fan.dim
    out = []
    for subset in combinations(range(len(fan.rays)), n):
        basis = tuple(fan.rays[i] for i in subset)
        if abs(lattice.determinant(basis)) != 1:
            continue
        dual = lattice.dual_basis(basis)
        roots = []
        for pos, ray_idx in enumerate(subset):
            e = neg(dual[pos])
            if not is_demazure_root(fan, e, ray_idx):
                break
            roots.append(DemazureRoot(e, ray_idx, pairing_row(fan, e)))
        else:
            out.append(CompleteCollection(tuple(roots)))
    return tuple(out)


def is_complete(fan: Fan) -> bool:
    """Completeness by ridges and adjacency, without the coverage check: all
    maximal cones full-dimensional, every ridge (one per facet inequality)
    shared by exactly two maximal cones, facet-adjacency graph connected."""
    if not fan.max_cones or any(c.dim != fan.dim for c in fan.max_cones):
        return False
    ridge_owners: dict[tuple[int, ...], list[int]] = {}
    for k, c in enumerate(fan.max_cones):
        for a in c.inequalities:
            ridge = tuple(i for i in c.ray_indices if dot(a, fan.rays[i]) == 0)
            ridge_owners.setdefault(ridge, []).append(k)
    if not ridge_owners or any(len(owners) != 2 for owners in ridge_owners.values()):
        return False
    adj: dict[int, set[int]] = {k: set() for k in range(len(fan.max_cones))}
    for a, b in ridge_owners.values():
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(fan.max_cones)


def ridge_count_complete(fan: Fan) -> bool:
    """Completeness by the ridge count over the face index: every maximal
    cone n-dimensional and every (n-1)-dimensional face (a ridge) in exactly
    two maximal cones, those whose ray sets contain its rays.

    No connectivity test is needed. The support S is closed. Let V be N_R
    minus the spans of the cones of dimension at most n-2. A point of S in
    V lies in the relative interior of a maximal cone or of a ridge, and
    the two maximal cones on a ridge lie on opposite sides of it (else
    their intersection, a face of both, would be n-dimensional). So S is
    open in V as well as closed; V is connected, so V lies in S, and so
    does its closure N_R.
    """
    if not fan.max_cones or any(c.dim != fan.dim for c in fan.max_cones):
        return False
    cones = [frozenset(c.ray_indices) for c in fan.max_cones]
    for f in fan.all_faces:
        if f.dim == fan.dim - 1 and sum(c.issuperset(f.ray_indices) for c in cones) != 2:
            return False
    return True


def first_uncovered(fan: Fan, directions) -> Vec | None:
    """The first nonzero direction in no maximal cone of the fan, or None:
    the coverage check as one Fan.contains_point call per direction."""
    for v in directions:
        if is_zero(v):
            continue
        if not fan.contains_point(v):
            return v
    return None


def bareiss(rows: Sequence[Vec], width: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) forward elimination of the rows.

    Returns (rank, last pivot signed by the row swaps). Every intermediate
    entry is a minor of the input, so each division is exact; for a square
    matrix of full rank the second value is its determinant.
    """
    a = [list(row) for row in rows]
    r, sign, prev = 0, 1, 1
    for col in range(width):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][col]
        for i in range(r + 1, len(a)):
            f = a[i][col]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[r])]
        prev, r = p, r + 1
        if r == len(a):
            break
    return r, sign * prev


def bareiss_determinant(m: Mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquare(f"matrix is {len(m)}x{len(m[0]) if m else 0}, not square")
    r, d = bareiss(m, n)
    return d if r == n else 0


def bareiss_rank(rows: Sequence[Vec], width: int | None = None) -> int:
    """Rank over Q, by fraction-free (Bareiss) elimination."""
    rows = list(rows)
    if width is None:
        if not rows:
            raise ValueError("rank of an empty matrix needs an explicit width")
        width = len(rows[0])
    return bareiss(rows, width)[0]


def hermite_invert_unimodular(m: Mat) -> Mat:
    """Inverse of a matrix with determinant +-1; exact and integral.

    The Hermite form of [m | I] is [I | m^-1]: its left block is echelon with
    positive pivots of product |det m| = 1, each reduced above.
    """
    d = bareiss_determinant(m)
    if abs(d) != 1:
        raise NotUnimodular(f"determinant is {d}, expected +-1")
    n = len(m)
    h = lattice.hermite_row_form(tuple(tuple(row) + e for row, e in zip(m, lattice.identity(n))))
    return tuple(row[n:] for row in h)


def basis_dual_rays(rows: Sequence[Vec], width: int) -> tuple[Vec, ...] | None:
    """Primitive extreme rays of {x : <a, x> >= 0 for every row a}, sorted, or
    None when the rows do not span Q^width (the cone then contains a line).

    The first `width` independent rows B bound a simplicial cone, whose rays
    are the columns of B^-1 (each orthogonal to all rows but one);
    :func:`cut_cone` cuts it with the rest. They are read off one
    fraction-free Gauss-Jordan pass on [B | I]: every entry after pivot
    step k is a minor of order k + 1 of the input, so each division is
    exact, and the pass ends at [d I | d B^-1] with d = +-det B. Column k of
    the right block, made primitive and signed so that <b_k, u> > 0, is the
    k-th ray.
    """
    basis: list[Vec] = []
    rest: list[Vec] = []
    for a in rows:
        if len(basis) < width and bareiss_rank(basis + [a], width) > len(basis):
            basis.append(a)
        else:
            rest.append(a)
    if len(basis) < width:
        return None
    m = [list(b) + [int(i == j) for j in range(width)] for i, b in enumerate(basis)]
    prev = 1
    for k in range(width):
        piv = next(i for i in range(k, width) if m[i][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        p, row = m[k][k], m[k]
        for i in range(width):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], row)]
        prev = p
    start = [primitive(u if prev > 0 else neg(u)) for u in zip(*(r[width:] for r in m))]
    return lattice.cut_cone(start, basis, rest)


def faces(idx: tuple[int, ...], facets) -> set[tuple[int, ...]]:
    """Ray-index sets of all faces of the cone with rays `idx`, given the ray
    sets of its facets: every face is an intersection of facets, so close the
    facets under intersection."""
    faces = {idx}
    for facet in facets:
        faces |= {tuple(i for i in f if i in facet) for f in faces}
    return faces


def face_cone_by_rank(face: tuple[int, ...], ineqs, eqs, tight, dims: dict, dim: int) -> Cone:
    """The face of a maximal cone with rays `face`, described by the maximal
    cone's rows: `tight[k]` is the set of rays on which ineqs[k] vanishes.

    The face's span is cut out by the cone's equations and the normals that
    vanish on the face, so an independent subset of those is its equations.
    Its facets are the inclusion-maximal sets face & tight[k] over the other
    normals, and each facet keeps the first such normal. `dims` holds the
    dimensions of the smaller faces, a facet's being one less than the face's.
    """
    on = set(face)
    rows = list(eqs)
    cuts: dict[frozenset, Vec] = {}
    for a, z in zip(ineqs, tight):
        if on <= z:
            rows.append(a)
        else:
            cuts.setdefault(z & on, a)
    facets = [s for s in cuts if not any(s < t for t in cuts)]
    d = dims[tuple(sorted(facets[0]))] + 1
    if len(rows) > dim - d:  # dependent: keep an independent subset, the cone's equations first
        rows, normals = list(eqs), rows[len(eqs):]
        for a in normals:
            if len(rows) == dim - d:
                break
            if bareiss_rank(rows + [a], dim) > len(rows):
                rows.append(a)
    return Cone(face, tuple(cuts[s] for s in facets), tuple(rows), d)


def build_fan_by_closure(dim, rays, max_cones, allow_nonprimitive: bool = False) -> Fan:
    """Validate and assemble a Fan: every face, with its dual description,
    indexed by its ray-index set. Maximal cones and faces are sorted. The
    answer of :func:`_certify_complete` is stored on the fan as its
    completeness. (The face sets are closed here, from the facet ray sets
    that the library's validation returns.)"""
    rays, cones, certified = fan_module._check_fan(dim, rays, max_cones, allow_nonprimitive)
    owner = {}
    for idx in sorted(cones):
        for f in faces(idx, cones[idx][1]):
            owner.setdefault(f, idx)
    dims = {(): 0}
    all_faces = []
    for f in sorted(owner, key=lambda s: (len(s), s)):
        (ineqs, eqs), tight = cones[owner[f]]
        if f == owner[f]:
            cone = Cone(f, ineqs, eqs, dim - len(eqs))  # the equations are independent
        elif not f:
            cone = Cone((), (), _canonical_rows(lattice.identity(dim)), 0)
        else:
            cone = face_cone_by_rank(f, ineqs, eqs, tight, dims, dim)
        dims[f] = cone.dim
        all_faces.append(cone)
    max_cones = tuple(c for c in all_faces if c.ray_indices in cones)
    fan = Fan(dim, rays, tuple(sorted(max_cones, key=lambda c: c.ray_indices)),
              tuple(all_faces), frozenset(owner))
    object.__setattr__(fan, "_complete", certified)
    return fan


def split(constraints: Sequence[Constraint], dim: int):
    out = []
    for c in constraints:
        if len(c.normal) != dim:
            raise ValueError(f"constraint dimension {len(c.normal)} != {dim}")
        out.append(_reduce_ineq(tuple(c.normal), c.rhs))
        if c.relation == "=":
            out.append(_reduce_ineq(neg(c.normal), -c.rhs))
    return out


def eliminate(ineqs, k: int):
    """Fourier-Motzkin elimination of variable k; exact over Q."""
    pos, negs, zero = [], [], []
    for a, b in ineqs:
        if a[k] > 0:
            pos.append((a, b))
        elif a[k] < 0:
            negs.append((a, b))
        elif not is_zero(a) or b > 0:  # keep infeasibility witnesses 0 >= b > 0
            zero.append((a, b))
    out = set(zero)
    for ap, bp in pos:
        for an, bn in negs:
            m1, m2 = ap[k], -an[k]
            coeffs = tuple(m2 * x + m1 * y for x, y in zip(ap, an))
            rhs = m2 * bp + m1 * bn
            if is_zero(coeffs) and rhs <= 0:
                continue
            out.add(_reduce_ineq(coeffs, rhs))
    return sorted(out)


def fm_lattice_points(constraints: Sequence[Constraint], dim: int):
    """All integer solutions, in lexicographic order, or UNBOUNDED.

    Fourier-Motzkin elimination projects the polyhedron P onto its leading
    coordinates, exactly over Q: ``systems[k + 1]`` cuts out the projection
    P_k of P onto x_0..x_k. If eliminating every variable leaves a row
    0 >= b > 0, P is empty and there are no solutions. A non-empty P is
    bounded iff for every k, ``systems[k + 1]`` has a row with a[k] > 0 and
    a row with a[k] < 0. Proof: if no row has a[k] < 0, then moving x_k up
    from any point of P_k keeps every row satisfied, so P_k, and hence P,
    is unbounded; likewise for a[k] > 0 downwards. If both signs occur at
    every k, then by induction on k, P_{k-1} is bounded and x_k lies
    between affine functions of x_0..x_{k-1}, so P_k is bounded. Enumeration
    takes those per-coordinate bounds from the projections and descends
    recursively.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    ineqs = split(constraints, dim)
    systems = [[] for _ in range(dim + 1)]
    systems[dim] = ineqs
    for d in range(dim - 1, -1, -1):
        systems[d] = eliminate(systems[d + 1], d)
    if systems[0]:  # only rows 0 >= b > 0 survive the last elimination
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


def rank_vertex_tight(dim: int, points) -> tuple[tuple[FacetInequality, ...], dict]:
    """The facets of conv(points) and, per point, the indices of the facets
    through it; InvalidPolytope for a listed point that is not a vertex,
    where the normals of the facets through it have rank below dim. The
    sorted points must be full-dimensional."""
    pts = tuple(sorted(vec(v) for v in points))
    fs = _hull_facets(pts, dim)
    tight = {v: tuple(k for k, f in enumerate(fs) if dot(f.normal, v) == f.rhs) for v in pts}
    for v in pts:
        if lattice.rank([fs[k].normal for k in tight[v]], dim) != dim:
            raise InvalidPolytope(f"listed point {list(v)} is not a vertex")
    return fs, tight


def rank_edge_directions_at(dim: int, vertices, v: Vec) -> tuple[Vec, ...]:
    """Primitive directions of the edges of conv(vertices) containing the
    vertex v.

    A vertex pair spans an edge iff their common tight facet normals have
    rank dim-1; this works for non-simple polytopes too.
    """
    fs, tight = rank_vertex_tight(dim, vertices)
    mine = set(tight[v])
    dirs = []
    for w in sorted(vertices):
        if w == v:
            continue
        common = [fs[k].normal for k in tight[w] if k in mine]
        if lattice.rank(common, dim) == dim - 1:
            dirs.append(primitive(sub(w, v)))
    return tuple(sorted(dirs))


def rank_cone_dual_description(generators, dim: int | None = None):
    """Public dual description of a strongly convex cone.

    Raises NotStronglyConvex when the generated cone contains a line.
    """
    gens = tuple(vec(g) for g in generators)
    if dim is None:
        if not gens:
            raise ValueError("explicit dim required for the zero cone")
        dim = len(gens[0])
    for g in gens:
        if len(g) != dim:
            raise DimensionMismatch("generators of mixed dimension")
        if is_zero(g):
            raise ValueError("zero vector is not a cone generator")
    ineqs, eqs = fan_module._dual_description(gens, dim)
    if lattice.rank(ineqs + eqs, dim) < dim:
        raise NotStronglyConvex("cone contains a line")
    return ineqs, eqs


# ---------------------------------------------------------------------------
# the value types as frozen dataclasses


class dataclass_values:
    """The value types of ``lattice``, ``fan``, ``demazure``, ``cox``,
    ``additive`` and ``polytope`` as they were defined before ``Value``."""

    @dataclass(frozen=True)
    class Constraint:
        """One linear condition <normal, x> REL rhs with REL in {">=", "="}."""

        normal: Vec
        relation: str
        rhs: int

        def __post_init__(self):
            if self.relation not in (">=", "="):
                raise ValueError(f"relation must be '>=' or '=', got {self.relation!r}")

    @dataclass(frozen=True)
    class Cone:
        """A cone of a fan: generating ray indices plus its dual description.

        The cone is {x : <a, x> >= 0 for a in inequalities, <b, x> = 0 for b in
        equations}, with one inequality per facet. A maximal cone's description
        is its own, the canonical one of :func:`_dual_description` (a nonzero
        cone's equations are the Hermite basis of its orthogonal lattice). Any
        other face's inequalities are one normal per facet, taken from its
        maximal cone, and its equations are independent rows that span its
        orthogonal complement over Q, not necessarily a lattice basis.
        """

        ray_indices: tuple[int, ...]
        inequalities: tuple[Vec, ...]
        equations: tuple[Vec, ...]
        dim: int

        def contains(self, v: Vec) -> bool:
            """True iff v lies in the cone; ValueError for a vector of the wrong length."""
            first = self.inequalities[:1] or self.equations[:1]
            if first and len(first[0]) != len(v):
                raise ValueError(f"dimension mismatch: {len(first[0])} vs {len(v)}")
            for a in self.inequalities:
                if sum(map(mul, a, v)) < 0:
                    return False
            for b in self.equations:
                if sum(map(mul, b, v)):
                    return False
            return True

    @dataclass(frozen=True)
    class LatticeAutomorphism:
        """A unimodular integer matrix acting on N by left multiplication."""

        matrix: Mat

        def __post_init__(self):
            d = lattice.determinant(self.matrix)
            if abs(d) != 1:
                raise NotUnimodular(f"automorphism matrix has determinant {d}")

        @property
        def dim(self) -> int:
            return len(self.matrix)

        def apply(self, v: Vec) -> Vec:
            return lattice.mat_vec(self.matrix, v)

        def inverse(self) -> "LatticeAutomorphism":
            return LatticeAutomorphism(lattice.invert_unimodular(self.matrix))

        def compose(self, other: "LatticeAutomorphism") -> "LatticeAutomorphism":
            return LatticeAutomorphism(lattice.mat_mul(self.matrix, other.matrix))

    @dataclass(frozen=True)
    class Fan:
        """A validated fan. Construct through :func:`build_fan`."""

        dim: int
        rays: tuple[Vec, ...]
        max_cones: tuple[Cone, ...]
        all_faces: tuple[Cone, ...]
        face_sets: frozenset[tuple[int, ...]] = field(repr=False)
        _by_rays: dict = field(init=False, repr=False, compare=False)
        _complete: bool = field(default=False, init=False, repr=False, compare=False)  # see is_complete

        def __post_init__(self):
            object.__setattr__(self, "_by_rays", {c.ray_indices: c for c in self.all_faces})

        def cone(self, ray_indices) -> Cone:
            key = tuple(sorted(ray_indices))
            if key not in self._by_rays:
                raise KeyError(f"no cone with rays {key}")
            return self._by_rays[key]

        def contains_point(self, v: Vec) -> bool:
            return any(c.contains(v) for c in self.max_cones)

    @dataclass(frozen=True)
    class DemazureRoot:
        """A root e with its distinguished ray index and cached pairing row."""

        vector: Vec
        ray: int
        pairings: Vec  # <p_rho', e> over all rays, in ray order

    @dataclass(frozen=True)
    class RayRoots:
        """Roots attached to one ray: a finite list, or an infinite/truncated marker."""

        ray: int
        status: str  # "finite" | "infinite" | "truncated"
        roots: tuple[DemazureRoot, ...]
        bound: int | None = None

    @dataclass(frozen=True)
    class RootSet:
        per_ray: tuple[RayRoots, ...]

        @property
        def finite(self) -> bool:
            return all(r.status == "finite" for r in self.per_ray)

        def roots(self) -> tuple[DemazureRoot, ...]:
            return tuple(r for ray in self.per_ray for r in ray.roots)

    @dataclass(frozen=True)
    class CoxDerivation:
        """monomial * d/dx_target, the monomial given by per-variable exponents."""

        target: int
        exponents: tuple[tuple[int, int], ...]  # (variable index, power), target omitted

        @property
        def num_vars(self) -> int:
            return len(self.exponents) + 1

    @dataclass(frozen=True)
    class CoxPresentation:
        num_vars: int
        class_rank: int
        degrees: tuple[Vec, ...]  # free-part degree of each variable, in ray order
        torsion: tuple[int, ...]  # invariant factors > 1

    @dataclass(frozen=True)
    class GaActionFormula:
        """One coordinate rule x_target -> x_target + s_k * monomial."""

        target: int
        param_index: int  # 1-based k of the parameter s_k
        exponents: tuple[tuple[int, int], ...]  # (variable, power), target omitted

    @dataclass(frozen=True)
    class CompleteCollection:
        """n roots e_1..e_n with <p_i, e_j> = -delta_ij; sorted by ray index."""

        roots: tuple[DemazureRoot, ...]

        @property
        def ray_indices(self) -> tuple[int, ...]:
            return tuple(r.ray for r in self.roots)

        @property
        def root_vectors(self) -> tuple[Vec, ...]:
            return tuple(r.vector for r in self.roots)

        def basis_matrix(self, fan: Fan) -> Mat:
            return tuple(fan.rays[i] for i in self.ray_indices)

        def pairing_matrix(self, fan: Fan) -> Mat:
            return tuple(tuple(dot(fan.rays[i], r.vector) for r in self.roots)
                         for i in self.ray_indices)

    @dataclass(frozen=True)
    class AdditiveDecision:
        admits: bool
        witness: CompleteCollection | None
        fan_complete: bool

        @property
        def reading(self) -> str:
            """Which statement the answer decides for this fan.

            On complete fans a collection settles arbitrary additive actions;
            otherwise only the torus-normalized ones.
            """
            return "additive" if self.fan_complete else "normalized_additive"

    @dataclass(frozen=True)
    class EquivalenceWitness:
        """A fan automorphism carrying one collection onto another."""

        matrix: Mat  # gamma, acting on N; gamma(p_i) = p'_{pi(i)}
        ray_map: tuple[tuple[int, int], ...]

        def automorphism(self) -> LatticeAutomorphism:
            return LatticeAutomorphism(self.matrix)

    @dataclass(frozen=True)
    class ThreeConReport:
        complete_collection_exists: bool
        distinguished_span: bool

    @dataclass(frozen=True)
    class FacetInequality:
        """<normal, x> <= rhs, tight on the facet; normal is primitive and outer."""

        normal: Vec
        rhs: int

    @dataclass(frozen=True)
    class LatticePolytope:
        """A full-dimensional lattice polytope given by its vertex set.

        Vertices are stored sorted, with the indices of those on each facet,
        which the fan's face test :func:`toricroots.fan._is_face` reads. Every
        face is an intersection of facets, so construction rejects a listed
        point that is not the only one on the facets through it: the stored set
        is exactly the hull's vertex set. A dim or a coordinate that is not an
        int raises InvalidPolytope, with the messages of the JSON reader.
        """

        dim: int
        vertices: tuple[Vec, ...]
        # derived on construction: the facets, and per facet the indices of the
        # vertices on it; the normal fan is stored on first use
        _facets: tuple[FacetInequality, ...] = field(init=False, repr=False, compare=False)
        _on: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
        _normal_fan: Fan | None = field(init=False, repr=False, compare=False)

        def __post_init__(self):
            if not lattice.is_integer(self.dim):
                raise InvalidPolytope(f"bad polytope data: dim must be an integer, got {self.dim!r}")
            try:
                pts = tuple(vec(v) for v in self.vertices)
            except TypeError as exc:
                raise InvalidPolytope(f"bad polytope data: {exc}") from None
            if self.dim < 1:
                raise DegeneratePolytope("dimension must be positive")
            if any(len(v) != self.dim for v in pts):
                raise InvalidPolytope("vertex of wrong dimension")
            if len(set(pts)) != len(pts):
                raise InvalidPolytope("vertices are not pairwise distinct")
            pts = tuple(sorted(pts))
            fs = _hull_facets(pts, self.dim)
            if fs is None:
                raise DegeneratePolytope("polytope is not full-dimensional")
            on = tuple(frozenset(i for i, v in enumerate(pts) if dot(f.normal, v) == f.rhs)
                       for f in fs)
            for i, v in enumerate(pts):
                if not _is_face((i,), range(len(pts)), on):
                    raise InvalidPolytope(f"listed point {list(v)} is not a vertex")
            object.__setattr__(self, "vertices", pts)
            object.__setattr__(self, "_facets", fs)
            object.__setattr__(self, "_on", on)
            object.__setattr__(self, "_normal_fan", None)

    @dataclass(frozen=True)
    class RectangleWitness:
        """A vertex whose primitive edge directions are a lattice basis pairing
        nonnegatively with every facet normal away from it."""

        vertex: Vec
        edge_basis: tuple[Vec, ...]

    @dataclass(frozen=True)
    class PolytopeTheoremReport:
        inscribed: bool
        fan_admits: bool
        witness: RectangleWitness | None
