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
the zero solution (``recession_cone_is_zero``; ``lattice_points`` then
read boundedness off its Fourier-Motzkin projections, and now reads it off
the double description of its homogenized system). ``dual_rays`` keeps the
start of the double description it had before one Gauss-Jordan pass
replaced it: one cofactor determinant of order n - 1 per entry of the
adjugate. The
code is kept as it was; only the module references differ, and only the
cache of ``minimal_rays`` (keyed on vectors, not on fans) is kept, and
``dual_description`` is cached on its generators, so a cone that several
fans or tests share is scanned once. Two
changes since make the C(m, n) collection scan fast enough for dimension 6
without changing an answer: ``generated_cone_in_fan`` reads the primitive
ray index from ``primitive_index``, cached on the ray tuple, where it built
it on each call, and ``satisfies_condition2`` finds the rays on which e
vanishes once per call, where it paired e with each face's rays. Every
rank inside the oracles is the ``Fraction`` rank below and every dual
description the subset scan, so the oracles share no elimination code with
what they check. The exceptions are
``condition2_on_all_faces``, which reads the fan's face index;
``recession_cone_is_zero``, which runs the library's double-description
kernel, as ``lattice_points`` now does too, so that a test of
``lattice_points`` needs the Fourier-Motzkin verdicts below
(``trivial_homogeneous_cone``, ``chernikov_lattice_points``) beside it to
stay independent; and ``dual_rays``, which shares the library's ``rank``
and differs from ``lattice.dual_rays`` in how it finds the start rays.

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
which share only ``_reduce_ineq`` and ``_ceil_div`` with the Chernikov
route below.

Last, plain ``__slots__`` classes on ``lattice.Value`` replaced the
``@dataclass(frozen=True)`` value types, so that no command imports
``dataclasses``. The class ``dataclass_values`` holds the eighteen
definitions unchanged; they are nested in it so that their names do not
shadow the library's, and their ``repr`` reads ``dataclass_values.Fan(...)``
where the library's reads ``Fan(...)``. Their methods run the library's
code, but their ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` are
the ones ``dataclasses`` generates. ``Fan`` then became the value of its
dim, rays and maximal cones, with one face index; its dataclass follows it
(the index is built on first use, outside ``__init__``, compare and repr,
and ``face_sets`` is a view of it).

Two routines that only tests called moved here unchanged from ``src/``:
the symbolic check that two Cox derivations commute (``bracket_oracle``,
with ``_apply``), the oracle of ``demazure.commute``; and
``degree_zero_check``, which checks that an action rule is homogeneous of
degree zero in the Cox grading.

After that, the collections and the equivalence check stopped inverting
matrices: ``additive.complete_collections`` reads each unimodular cone's
dual basis off its stored facet normals, and ``additive.verify_witness``
pulls the second collection's roots back by the transpose of the witness.
Kept below unchanged but for names: the maximal-cone scan that inverted
each n-ray cone through ``dual_basis`` (``dual_basis_collections``)
and the witness check that pushed the first collection's roots forward by
the transposed inverse (``pushforward_verify_witness``).

Then the witness search stopped trying every ray order, and the
automorphism test stopped building a set. ``additive.find_equivalence``
tries only the orders of the second collection's rays that the roots'
pairing rows allow, and ``fan.is_fan_automorphism`` looks each maximal
cone's image up in the face index. Kept below unchanged but for names: the
loop over ``itertools.permutations`` (``permutation_find_equivalence``,
which runs the library's ``verify_witness``) and the test against the set
of maximal cones built per call (``cone_set_is_fan_automorphism``).

Then a polytope's edges stopped being found by testing vertex pairs:
``polytope.edge_directions_at`` reads them off the stored inequalities of
the vertex's cone in the normal fan. Kept below unchanged but for its name:
the closure test of each other vertex together with v on the facet
incidence (``pair_edge_directions_at``), which reads the polytope's
``_on`` (as sets, from its bitmasks) and shares nothing else with the
library. The rank edge
test is asked once per vertex, which on the order-5 permutohedron meant
120 hulls of one polytope; it now takes the hull and the vertex->facet map
from a small cache keyed on the sorted points (``_vertex_tight_of``), with
the same answers.

Last, the Hermite and Smith forms came to share one Euclidean row step
(``lattice._euclid``), and the Smith form came to run on one working matrix
[[m | I], [I | 0]] whose blocks are U, D and V. Kept below unchanged: the
Smith form that kept the matrix and both transforms in step with four
closures (``smith_normal_form``) and the Hermite form that took the
smallest nonzero entry of a column as pivot on each pass
(``hermite_row_form``). Both read only the library's ``_check_width``. The
new Smith form makes the same operations in the same order, so it returns
the same (U, D, V); the new Hermite form takes the first nonzero entry as
pivot, and the row-style Hermite form is unique, so it returns the same
matrix.

Then the double description came to hand back, with each extreme ray, the
bitmask of the input rows that vanish on it, and fan validation, the
completeness certificate and the polytope read those incidences where they
paired rays with rows by ``dot``. Kept below, unchanged but for names: the
closure test on sets (``set_is_face``; the library's ``fan._is_face`` now
takes bitmasks), the Motzkin step without the filter that drops a pair
tight together on fewer than d - 2 rows (``motzkin_cut_cone``, the old
``cut_cone``), the tight sets of a maximal cone (``cone_tight_sets``), the
hull's facets without incidences (``dot_hull_facets``) and the vertices on
each facet (``vertex_facet_sets``). ``rank_vertex_tight``, the dataclass
``LatticePolytope`` and ``pair_edge_directions_at`` now call these in place
of the library's ``_hull_facets`` and ``_is_face``, and
``rank_cone_dual_description`` takes the first two entries of
``fan._dual_description``.

Then ``polytope.normal_fan`` stopped building the normal fan through
``fan.build_fan``: it assembles each vertex's cone from the hull's
incidence, with the edges at the vertex as its inequalities, and stores the
fan as complete by theorem. Kept below, unchanged but for module
references: the route through ``build_fan`` (``built_normal_fan``), which
gives each maximal cone a double description and validates and certifies
the fan.

Then ``lattice_points`` stopped eliminating: the double description of the
homogenized system decides emptiness and boundedness and gives the
vertices, and one lattice search, shared with the roots of complete fans,
lists the points within the vertex bounds of each row. Kept below,
unchanged but for its name: Fourier-Motzkin elimination with Chernikov's
rule and the substitution of equations (``chernikov_lattice_points``, with
``_reduce_ineq``, ``_substitute``, ``_eliminate`` and ``_ceil_div``). It
runs no double description and no code of the library's search, so it is
the independent oracle of ``lattice_points``.

Then the rectangle test stopped computing a determinant: a vertex's edge
directions are a lattice basis iff its normal cone is simplicial and each
ray pairs to 1 with the one facet normal not vanishing on it, which
``fan._simplicial_normals`` (now ``_simplicial_inverse``) reads off the
stored normals. Kept below
unchanged but for module references: the test by ``lattice.determinant``
(``determinant_inscribed_in_rectangle``).

Then every inverse of a basis came to be one format, (basis, W, D) with
B W = D I and D > 0, from one routine (``lattice._basis_inverse``, or
``fan._simplicial_inverse`` on a simplicial cone), and ``lattice.cut_cone``,
which no library code called, was deleted. ``dual_rays`` and
``basis_dual_rays`` now cut their start cones with ``motzkin_cut_cone``, so
neither runs the library's Motzkin step, which they are compared against.

Then the pairing search for the roots of complete fans came to take only
fans whose maximal cones are all simplicial, and every other complete fan
takes ``lattice_points``. Each opposite -p_k is then decomposed in a
simplicial cone, read off its stored inverse, and the decomposition of a
point of any full-dimensional cone, one face at a time, left
``demazure``. Kept below unchanged but for its name and module references
(``peel``); on a simplicial cone it gives the one decomposition that the
stored inverse gives, so it stays the reference for that reading.

Then the truncated roots of a fan that is not complete stopped building a
second system: ``demazure._roots_for_ray`` searches the box of the bound
directly, with the ray and n - 1 unit vectors as its basis. Kept below
unchanged but for its name and module references: the branch that added
2n box rows to the condition-(1) system and ran ``lattice_points`` on it
again (``box_roots_for_ray``, with ``box_all_roots`` over every ray). It
shares the library's ``lattice_points`` and so its search, but not the
basis or the bounds: those come from the double description of the box
system, its narrowest rows first.

Then root condition (2) on a fan that is not certified complete stopped
reading the face index: ``demazure._condition2`` tests that the rays of
each maximal cone without the ray on which e vanishes all lie in one
maximal cone with the ray, so no decision builds the index. Kept below
unchanged but for its name: the lookup of each such ray set, with the ray
added, in ``fan._index`` (``condition2_by_face_index``, on the pairing
row).

Then ``lattice.dual_basis`` left the package, with no caller there: it is
kept below unchanged but for its module references (``dual_basis``), for
the two collection scans here that invert each basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from operator import mul
from typing import Sequence

from toricroots import lattice
from toricroots.additive import CompleteCollection, EquivalenceWitness, verify_witness
from toricroots.cox import CoxPresentation, GaActionFormula
from toricroots.demazure import (
    MAX_BOX_POINTS,
    CoxDerivation,
    DemazureRoot,
    RayRoots,
    RootSet,
    _root,
    pairing_row,
    satisfies_condition1,
)
from toricroots import fan as fan_module
from toricroots.errors import (
    BadParams,
    DegeneratePolytope,
    DimensionMismatch,
    InternalError,
    InvalidPolytope,
    NoWitness,
    NotSquare,
    NotStronglyConvex,
    NotUnimodular,
    TorsionClassGroup,
)
from toricroots.fan import Cone, Fan, LatticeAutomorphism, is_fan_automorphism
from toricroots.lattice import (
    UNBOUNDED,
    Constraint,
    Mat,
    Vec,
    _check_width,
    content,
    dot,
    is_zero,
    neg,
    primitive,
    sub,
    vec,
)
from toricroots import polytope as polytope_module
from toricroots.polytope import FacetInequality, LatticePolytope


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
    orthogonal to all rows but one); :func:`motzkin_cut_cone` cuts it with
    the rest.
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
    return motzkin_cut_cone(start, basis, rest)


def _canonical_rows(rows) -> tuple[Vec, ...]:
    """The rows, each signed to a positive first nonzero entry, sorted: the
    oracle's form of a cone's equations."""
    out = []
    for row in rows:
        row = tuple(row)
        nz = next((x for x in row if x != 0), 0)
        out.append(neg(row) if nz < 0 else row)
    return tuple(sorted(out))


@lru_cache(maxsize=4096)
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


@lru_cache(maxsize=None)
def primitive_index(rays: tuple[Vec, ...]) -> dict[Vec, int]:
    return {primitive(r): i for i, r in enumerate(rays)}


def generated_cone_in_fan(fan: Fan, gens: tuple[Vec, ...]) -> bool:
    """Is cone(gens) a cone of the fan? Decided on minimal generators."""
    minimal = minimal_rays(gens, fan.dim)
    if minimal is None:
        return False
    prim_index = primitive_index(fan.rays)
    try:
        idx = tuple(sorted(prim_index[r] for r in minimal))
    except KeyError:
        return False
    return idx in fan.face_sets


def satisfies_condition2(fan: Fan, e: Vec, ray: int) -> bool:
    zero = {i for i, p in enumerate(fan.rays) if dot(p, e) == 0}
    for face in fan.all_faces:
        if zero.issuperset(face.ray_indices):
            gens = tuple(fan.rays[i] for i in face.ray_indices) + (fan.rays[ray],)
            if not generated_cone_in_fan(fan, tuple(sorted(gens))):
                return False
    return True


def condition2_on_all_faces(fan: Fan, e: Vec, ray: int) -> bool:
    """For every cone sigma on which e vanishes, cone(sigma + ray) is in the fan."""
    zero = {i for i, p in enumerate(fan.rays) if dot(p, e) == 0}
    return all(tuple(sorted({*face.ray_indices, ray})) in fan.face_sets
               for face in fan.all_faces if zero.issuperset(face.ray_indices))


def condition2_by_face_index(fan: Fan, row: Vec, ray: int) -> bool:
    if fan._complete:
        return True
    faces = fan._index
    return all(tuple(sorted([ray, *(i for i in c.ray_indices if row[i] == 0)])) in faces
               for c in fan.max_cones if ray not in c.ray_indices)


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
        dual = dual_basis(basis)
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
    :func:`motzkin_cut_cone` cuts it with the rest. They are read off one
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
    return motzkin_cut_cone(start, basis, rest)


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
    of the dual descriptions of the maximal cones that the library's
    build_fan makes as it validates them.)"""
    built = fan_module.build_fan(dim, rays, max_cones, allow_nonprimitive)
    rays = built.rays
    cones = {c.ray_indices: ((c.inequalities, c.equations),
                             [frozenset(i for i in c.ray_indices if dot(a, rays[i]) == 0)
                              for a in c.inequalities])
             for c in built.max_cones}
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
    fan = Fan(dim, rays, tuple(sorted(max_cones, key=lambda c: c.ray_indices)))
    object.__setattr__(fan, "_by_rays", {c.ray_indices: c for c in all_faces})
    object.__setattr__(fan, "_complete", built._complete)
    return fan


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


def chernikov_lattice_points(constraints: Sequence[Constraint], dim: int):
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
    fs = dot_hull_facets(pts, dim)
    tight = {v: tuple(k for k, f in enumerate(fs) if dot(f.normal, v) == f.rhs) for v in pts}
    for v in pts:
        if lattice.rank([fs[k].normal for k in tight[v]], dim) != dim:
            raise InvalidPolytope(f"listed point {list(v)} is not a vertex")
    return fs, tight


@lru_cache(maxsize=4)
def _vertex_tight_of(dim: int, points: tuple[Vec, ...]):
    """rank_vertex_tight, cached on the sorted points: the edge test asks it
    once per vertex of the same polytope."""
    return rank_vertex_tight(dim, points)


def rank_edge_directions_at(dim: int, vertices, v: Vec) -> tuple[Vec, ...]:
    """Primitive directions of the edges of conv(vertices) containing the
    vertex v.

    A vertex pair spans an edge iff their common tight facet normals have
    rank dim-1; this works for non-simple polytopes too.
    """
    fs, tight = _vertex_tight_of(dim, tuple(sorted(vec(w) for w in vertices)))
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
    ineqs, eqs = fan_module._dual_description(gens, dim)[:2]
    if lattice.rank(ineqs + eqs, dim) < dim:
        raise NotStronglyConvex("cone contains a line")
    return ineqs, eqs


def pair_edge_directions_at(p: LatticePolytope, v: Vec) -> tuple[Vec, ...]:
    """Primitive directions of the edges of p containing the vertex v.

    Two vertices span an edge iff they are the only vertices on the facets
    through both (a face with two vertices is an edge), the closure test of
    :func:`set_is_face`; this works for non-simple polytopes too.
    ValueError when v is not a vertex of p.
    """
    if v not in p.vertices:
        raise ValueError(f"point {list(v)} is not a vertex of the polytope")
    i = p.vertices.index(v)
    every = range(len(p.vertices))
    on = [frozenset(k for k in every if t >> k & 1) for t in p._on]
    return tuple(sorted(primitive(sub(w, v)) for j, w in enumerate(p.vertices)
                        if j != i and set_is_face((i, j), every, on)))


def cone_rays(p: LatticePolytope, i: int) -> tuple[int, ...]:
    """The sorted ray indices of vertex i's cone in the normal fan, whose
    rays are the facets' inner normals in reverse order."""
    return tuple(r for r, on in enumerate(reversed(p._on)) if on >> i & 1)


def built_normal_fan(p: LatticePolytope) -> Fan:
    """The complete fan with rays the inner facet normals and one maximal cone
    per vertex, generated by the inner normals of its facets."""
    # negation reverses the lexicographic order of the facet normals
    inner = [neg(f.normal) for f in reversed(polytope_module.facets(p))]
    cones = sorted(cone_rays(p, i) for i in range(len(p.vertices)))
    return fan_module.build_fan(p.dim, inner, cones)


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
        _by_rays: dict = field(default=None, init=False, repr=False, compare=False)
        _complete: bool = field(default=False, init=False, repr=False, compare=False)  # see is_complete

        @property
        def _index(self) -> dict:
            if self._by_rays is None:
                object.__setattr__(self, "_by_rays", fan_module._face_index(self))
            return self._by_rays

        @property
        def face_sets(self):
            return self._index.keys()

        def cone(self, ray_indices) -> Cone:
            key = tuple(sorted(ray_indices))
            if key not in self._index:
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
            fs = dot_hull_facets(pts, self.dim)
            if fs is None:
                raise DegeneratePolytope("polytope is not full-dimensional")
            on = tuple(frozenset(i for i, v in enumerate(pts) if dot(f.normal, v) == f.rhs)
                       for f in fs)
            for i, v in enumerate(pts):
                if not set_is_face((i,), range(len(pts)), on):
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


# ---------------------------------------------------------------------------
# the commutation and degree checks that only tests call


def _apply(d: CoxDerivation, poly: dict[tuple, int]) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for mono, coeff in poly.items():
        k = mono[d.target]
        if k == 0:
            continue
        new = list(mono)
        new[d.target] -= 1
        for var, power in d.exponents:
            new[var] += power
        key = tuple(new)
        out[key] = out.get(key, 0) + coeff * k
    return {m: c for m, c in out.items() if c}


def bracket_oracle(a: CoxDerivation, b: CoxDerivation) -> bool:
    """Symbolically check [a, b] = 0 by applying both orders to each variable.

    Independent of :func:`commute`; serves as its oracle.
    """
    if a.num_vars != b.num_vars:
        raise ValueError("derivations live on different polynomial rings")
    m = a.num_vars
    for j in range(m):
        x_j = {tuple(int(i == j) for i in range(m)): 1}
        if _apply(a, _apply(b, x_j)) != _apply(b, _apply(a, x_j)):
            return False
    return True


def degree_zero_check(pres: CoxPresentation, f: GaActionFormula) -> bool:
    """True iff the rule's monomial degree equals the target variable degree."""
    if pres.torsion:
        raise TorsionClassGroup("degree check requires a free class group")
    total = [0] * pres.class_rank
    for var, power in f.exponents:
        for i, x in enumerate(pres.degrees[var]):
            total[i] += power * x
    return tuple(total) == pres.degrees[f.target]


# ---------------------------------------------------------------------------
# the collection scan and the witness check that inverted matrices


def dual_basis(basis: Sequence[Vec]) -> Mat:
    """Vectors q_1..q_n with <p_i, q_j> = delta_ij for a unimodular basis."""
    return lattice.transpose(lattice.invert_unimodular(basis))


def dual_basis_collections(fan: Fan) -> tuple[CompleteCollection, ...]:
    """All complete collections, ordered by their sorted ray-index tuples.

    A collection is forced by its distinguished rays: those must be a
    unimodular basis and the roots are the negated dual basis. The rays
    span a maximal cone of the fan, complete or not, so it suffices to scan
    the maximal cones with n rays. Proof: let e_1..e_n have distinguished
    rays p_1..p_n. For k = n down to 1, e_k vanishes on cone(p_{k+1}..p_n),
    a cone of the fan (the zero cone for k = n), so by root condition (2)
    cone(p_k..p_n) is in the fan. So cone(p_1..p_n) is an n-dimensional
    cone of the fan, hence maximal, and by the lemma in
    :mod:`toricroots.fan` its rays are exactly p_1..p_n.

    A candidate (q, ray) recurs on every cone through the ray that has q in
    its dual basis, so each distinct one is checked once per call.
    """
    n = fan.dim
    out = []
    checked: dict[tuple[Vec, int], DemazureRoot | None] = {}
    for cone in fan.max_cones:
        if len(cone.ray_indices) != n:
            continue
        try:
            dual = dual_basis([fan.rays[i] for i in cone.ray_indices])
        except NotUnimodular:
            continue
        roots = []
        for key in zip(dual, cone.ray_indices):
            if key not in checked:
                checked[key] = _root(fan, neg(key[0]), key[1])
            roots.append(checked[key])
            if roots[-1] is None:
                break
        else:
            out.append(CompleteCollection(tuple(roots)))
    return tuple(out)


def pushforward_verify_witness(fan: Fan, c1: CompleteCollection, c2: CompleteCollection,
                               witness: EquivalenceWitness) -> bool:
    """Check the witness: fan automorphism, ray bijection, and that the dual
    map carries the first root set onto the second."""
    try:
        g = witness.automorphism()
    except (NotSquare, NotUnimodular):
        return False
    if not is_fan_automorphism(fan, g):
        return False
    for i, j in witness.ray_map:
        if g.apply(fan.rays[i]) != fan.rays[j]:
            return False
    pushforward = lattice.transpose(lattice.invert_unimodular(witness.matrix))
    image = {lattice.mat_vec(pushforward, e) for e in c1.root_vectors}
    return image == set(c2.root_vectors)


# ---------------------------------------------------------------------------
# the witness search over every ray order and the automorphism test on a set


def permutation_find_equivalence(fan: Fan, c1: CompleteCollection,
                                 c2: CompleteCollection) -> EquivalenceWitness:
    """Search ray bijections for an automorphism mapping c1 onto c2.

    The automorphism is solved exactly from gamma(p_i) = p'_{pi(i)} over the
    unimodular basis P_1 of c1. No elimination is needed: c1's roots are
    the negated dual basis of P_1, so P_1^-1 is the matrix whose columns are
    the negated roots. Each candidate is then verified unconditionally, so a
    c1 whose roots are not that dual basis yields no witness. A witness
    always exists for two complete collections of the same fan, so failure
    raises NoWitness loudly.
    """
    rays1 = c1.ray_indices
    p1_inv = lattice.transpose(tuple(neg(e) for e in c1.root_vectors))
    for perm in permutations(c2.ray_indices):
        p2 = tuple(fan.rays[j] for j in perm)
        gamma = lattice.transpose(lattice.mat_mul(p1_inv, p2))
        witness = EquivalenceWitness(gamma, tuple(zip(rays1, perm)))
        if verify_witness(fan, c1, c2, witness):
            return witness
    raise NoWitness(
        f"no automorphism maps collection {rays1} onto {c2.ray_indices}; "
        "this contradicts uniqueness of normalized actions and means the "
        "input fan or the collections are corrupt")


def cone_set_is_fan_automorphism(fan: Fan, g: LatticeAutomorphism) -> bool:
    """True iff g permutes the rays and the maximal-cone set of the fan."""
    if g.dim != fan.dim:
        raise DimensionMismatch(f"automorphism dim {g.dim} != fan dim {fan.dim}")
    index = {r: i for i, r in enumerate(fan.rays)}
    perm = {}
    for i, p in enumerate(fan.rays):
        img = g.apply(p)
        if img not in index:
            return False
        perm[i] = index[img]
    cone_sets = {c.ray_indices for c in fan.max_cones}
    return all(tuple(sorted(perm[i] for i in c.ray_indices)) in cone_sets
               for c in fan.max_cones)


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


# ---------------------------------------------------------------------------
# incidences recomputed by dot products


def set_is_face(s: tuple[int, ...], idx: tuple[int, ...], facets) -> bool:
    """True iff the rays `s` are the ray set of a face of the cone with rays
    `idx`, given the ray sets of its facets: every face is an intersection
    of facets, so iff s equals its closure, the intersection of the facet
    ray sets that contain it (all of idx if none does)."""
    return set(idx).intersection(*(t for t in facets if t.issuperset(s))) == set(s)


def motzkin_cut_cone(rays: Sequence[Vec], rows: Sequence[Vec], cuts) -> tuple[Vec, ...]:
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


def cone_tight_sets(idx: tuple[int, ...], ineqs, rays) -> list[frozenset]:
    """Per inequality of the cone with rays `idx`, the indices of the rays on
    which it vanishes."""
    return [frozenset(i for i in idx if dot(a, rays[i]) == 0) for a in ineqs]


def dot_hull_facets(points: tuple[Vec, ...], dim: int) -> tuple[FacetInequality, ...] | None:
    """Facets of conv(points), or None when the points are not full-dimensional.

    The facet <p, x> <= a is the extreme ray (-p, a) of the cone dual to the
    cone over the lifted points (v, 1).
    """
    rays = lattice.dual_rays([v + (1,) for v in points], dim + 1)
    if rays is None:
        return None
    return tuple(FacetInequality(u, a) for u, a in sorted((neg(r[:dim]), r[dim]) for r in rays))


def vertex_facet_sets(pts: tuple[Vec, ...], fs) -> tuple[frozenset, ...]:
    """Per facet, the indices of the points on it."""
    return tuple(frozenset(i for i, v in enumerate(pts) if dot(f.normal, v) == f.rhs)
                 for f in fs)


def determinant_inscribed_in_rectangle(p: LatticePolytope):
    """First witness in vertex order that p is inscribed in a rectangle, or None.

    The facets through a vertex are read off its normal cone, whose ray r
    is the inner normal of facet F - 1 - r of the F facets, and the check
    of the others stops at the first one that fails."""
    fs = polytope_module.facets(p)
    last = len(fs) - 1
    for i, v in enumerate(p.vertices):
        cone = polytope_module._normal_cone(p, i)
        dirs = cone.inequalities  # the edge directions at v
        if len(dirs) != p.dim or abs(lattice.determinant(dirs)) != 1:
            continue
        through = {last - r for r in cone.ray_indices}
        if all(dot(f.normal, e) >= 0
               for k, f in enumerate(fs) if k not in through for e in dirs):
            return polytope_module.RectangleWitness(v, dirs)
    return None


def peel(x: Vec, cone: Cone, rays: tuple[Vec, ...]) -> dict[int, tuple[int, int]]:
    """x in a full-dimensional cone as sum (num / den) p_r over rays of the
    cone, each coefficient positive, taken off one ray of the smallest face
    holding x at a time. The rest r / scale is carried by its pairings with
    the inequalities, integers that are all 0 iff r = 0, as the normals
    span the dual space. A ray passed over, or taken, has a tight
    inequality that does not vanish on it, and the rest stays tight there,
    so the rays are scanned once.

    Let F be the face of C cut out by the inequalities tight at x, the
    smallest face that holds x. While x != 0, F has a ray p_r. The normals
    of the pointed full-dimensional C span the dual space and are >= 0 on
    p_r, so some a has <a, p_r> > 0; no such a is tight at x, as the tight
    ones vanish on F. So t = min <a, x> / <a, p_r> over them is positive,
    x - t p_r lies in C, and it is tight where x was and at the minimizing
    a, which does not vanish on p_r. Its smallest face is then a proper
    face of F, of lower dimension, so after at most n steps x = 0, and x
    is the sum of the t p_r, each ray used once (exact over the integers).
    """
    ineqs = cone.inequalities
    out = {}
    vals, scale = [sum(map(mul, a, x)) for a in ineqs], 1
    candidates = iter(cone.ray_indices)
    while any(vals):
        for r in candidates:
            col = [sum(map(mul, a, rays[r])) for a in ineqs]
            if not any(c for c, v in zip(col, vals) if not v):
                break
        else:
            raise InternalError(f"{list(x)} has left the cone {cone.ray_indices}")
        num, den = None, None
        for ap, ax in zip(col, vals):
            if ap > 0 and (num is None or ax * den < num * ap):
                num, den = ax, ap
        out[r] = (num, scale * den)
        vals = [den * v - num * c for v, c in zip(vals, col)]
        scale *= den
    return out


def _condition1_system(fan: Fan, ray: int) -> list[Constraint]:
    sys = [Constraint(fan.rays[ray], "=", -1)]
    for i, p in enumerate(fan.rays):
        if i != ray:
            sys.append(Constraint(p, ">=", 0))
    return sys


def box_roots_for_ray(fan: Fan, ray: int, bound: int | None) -> RayRoots:
    """The roots of a ray of a fan that is not complete, a valid ray and
    bound: the lattice points of the condition-(1) polyhedron that satisfy
    condition (2), and with a bound, when it is unbounded, those of the
    polyhedron cut by the 2n rows of the box of that sup-norm."""
    system = _condition1_system(fan, ray)
    points = lattice.lattice_points(system, fan.dim)
    status = "finite"
    if points is UNBOUNDED:
        if bound is None:
            return RayRoots(ray, "infinite", ())
        status = "truncated"
        if min(2 * bound + 1, MAX_BOX_POINTS + 1) ** (fan.dim - 1) > MAX_BOX_POINTS:
            raise BadParams(f"bound {bound} is too large in dimension {fan.dim}: up to "
                            f"(2*bound+1)^{fan.dim - 1} points, more than {MAX_BOX_POINTS}")
        for u in lattice.identity(fan.dim):
            system.append(Constraint(u, ">=", -bound))
            system.append(Constraint(tuple(-x for x in u), ">=", -bound))
        points = lattice.lattice_points(system, fan.dim)
        if points is UNBOUNDED:
            raise InternalError(f"root polyhedron of ray {ray} is unbounded inside a box")
    roots = tuple(r for r in (_root(fan, e, ray) for e in points) if r is not None)
    return RayRoots(ray, status, roots, bound if status == "truncated" else None)


def box_all_roots(fan: Fan, bound: int | None) -> RootSet:
    """``all_roots`` of a fan that is not complete by ``box_roots_for_ray``."""
    return RootSet(tuple(box_roots_for_ray(fan, i, bound) for i in range(len(fan.rays))))
