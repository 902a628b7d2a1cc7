"""Rational polyhedral fans: validation, completeness, automorphisms, builtins.

The lattice N is identified with Z^n and its dual M with Z^n via the standard
dot pairing. Cones are stored by indices into the fan's ray list together
with an exact dual description (facet inequalities plus span equations), so
non-simplicial cones are supported throughout. :func:`build_fan` computes
the maximal cones' descriptions and nothing else; a simplicial one keeps
the basis inverse that its double description starts from
(:func:`_simplicial_inverse`). A lower-dimensional cone
is described in pivot coordinates, not by the Smith form
(:func:`_dual_description`).

A :class:`Fan` is the value of its defining data, the dimension, the rays
and the maximal cones: it compares, hashes and prints by those alone, since
every other cone is derived from them. The other faces are derived on
demand: the first use of ``all_faces``, ``face_sets`` or ``Fan.cone``
walks down through facets from the first maximal cone (in sorted order)
that contains each face, reads its description off that cone (see
:class:`Cone`), and keeps the faces in one index by ray-index set
(:func:`_face_index`). One lemma relates cones to ray sets: in a fan, a
ray rho meets any cone tau in a face of tau, so a ray of the fan that lies
in tau is one of tau's rays. Hence a cone generated by some rays S of the
fan is a cone of the fan iff S is a face's ray-index set
(``S in fan.face_sets``), and it lies in a maximal cone iff S is among
that cone's rays. No decision builds the index: root condition (2) is a
containment of ray sets in the maximal cones (see
:func:`toricroots.demazure.satisfies_condition2`), so the roots, the
collections, the equivalence witnesses and the additive decision read the
maximal cones alone, on any fan. Only the faces themselves and the orbit
pairs of :func:`toricroots.demazure.he_connected_pairs` are read off it.

:func:`build_fan` validates and builds in one pass: it makes each maximal
cone as it checks it on its own, then checks that any two meet in a common
face. Each maximal cone's facet ray sets come with its dual description,
as the double description reports them, and validation, the completeness
certificate and the pair scan read them as bitmasks of ray indices. When
every maximal cone is n-dimensional, a local certificate is tried first
(:func:`_certify_complete`): every facet is shared by exactly one other
maximal cone, on its other side, and one point of the first cone lies in
no other. It holds exactly when the cones form a
complete fan, so a certified fan needs no pair of its cones intersected,
and any other fan intersects every pair. The certificate is also the one
decision of completeness: :func:`build_fan` stores its answer on the fan,
and :func:`is_complete` returns it. The one fan built otherwise is a
polytope's normal fan, which :func:`toricroots.polytope.normal_fan`
assembles from the hull's incidence, complete by theorem.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from operator import attrgetter, mul

from . import lattice
from .errors import (
    BadParams,
    DimensionMismatch,
    InvalidFan,
    NotStronglyConvex,
    NotUnimodular,
)
from .lattice import Mat, Value, Vec, dot, is_zero, neg, primitive, vec


class Cone(Value):
    """A cone of a fan: generating ray indices plus its dual description.

    The cone is {x : <a, x> >= 0 for a in inequalities, <b, x> = 0 for b in
    equations}, with one inequality per facet. A maximal cone's description
    is its own, the canonical one of :func:`_dual_description` (a nonzero
    cone's equations are the Hermite basis of its orthogonal lattice). Any
    other face's inequalities are one normal per facet, taken from its
    maximal cone, and its equations are independent rows that span its
    orthogonal complement over Q, not necessarily a lattice basis.

    Stored beside the fields, and neither compared nor shown: a simplicial
    full-dimensional cone's basis inverse (see :func:`_simplicial_inverse`),
    set by :func:`build_fan` and otherwise on first use.
    """

    _fields = ("ray_indices", "inequalities", "equations", "dim")
    __slots__ = (*_fields, "_inverse")

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


class LatticeAutomorphism(Value):
    """A unimodular integer matrix acting on N by left multiplication.
    NotUnimodular for a matrix that is not a tuple or list of tuples or
    lists, or has an entry that is not an int (bools included), or a
    determinant other than +-1."""

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix: Mat):
        if not isinstance(matrix, (tuple, list)) or not all(
                isinstance(row, (tuple, list)) and all(map(lattice.is_integer, row))
                for row in matrix):
            raise NotUnimodular("automorphism matrix is not a tuple or list of rows, or has "
                                "an entry that is not an int")
        d = lattice.determinant(matrix)
        if abs(d) != 1:
            raise NotUnimodular(f"automorphism matrix has determinant {d}")
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, v: Vec) -> Vec:
        return lattice.mat_vec(self.matrix, v)

    def inverse(self) -> "LatticeAutomorphism":
        return LatticeAutomorphism(lattice.invert_unimodular(self.matrix))

    def compose(self, other: "LatticeAutomorphism") -> "LatticeAutomorphism":
        return LatticeAutomorphism(lattice.mat_mul(self.matrix, other.matrix))


class Fan(Value):
    """A validated fan. Construct through :func:`build_fan`; the one other
    constructor is :func:`toricroots.polytope.normal_fan`, which assembles a
    polytope's normal fan from the hull's incidence, with the same value and
    completeness that build_fan gives it.

    A fan is its dim, rays and maximal cones: ``==``, ``hash`` and ``repr``
    read those alone. Stored beside them, and neither compared nor shown:
    the face index by ray-index set in (size, indices) order, None until the
    first use of ``all_faces``, ``face_sets`` or ``cone`` builds it
    (:func:`_face_index`), which no decision makes; whether the fan is
    certified complete (see :func:`is_complete`); and its complete
    collections, None until :func:`toricroots.additive.complete_collections`
    first scans the fan. Copy and pickle keep all three.
    """

    _fields = ("dim", "rays", "max_cones")
    __slots__ = (*_fields, "_by_rays", "_complete", "_collections", "__weakref__")

    def __init__(self, dim: int, rays: tuple[Vec, ...], max_cones: tuple[Cone, ...]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", max_cones)
        object.__setattr__(self, "_by_rays", None)
        object.__setattr__(self, "_complete", False)
        object.__setattr__(self, "_collections", None)

    @property
    def _index(self) -> dict:
        """The face index, built on first use."""
        if self._by_rays is None:
            object.__setattr__(self, "_by_rays", _face_index(self))
        return self._by_rays

    @property
    def all_faces(self) -> tuple[Cone, ...]:
        return tuple(self._index.values())

    @property
    def face_sets(self):
        """The faces' ray-index sets, a set-like view of the index."""
        return self._index.keys()

    def cone(self, ray_indices) -> Cone:
        key = tuple(sorted(ray_indices))
        if key not in self._index:
            raise KeyError(f"no cone with rays {key}")
        return self._index[key]

    def contains_point(self, v: Vec) -> bool:
        return any(c.contains(v) for c in self.max_cones)


# ---------------------------------------------------------------------------
# dual descriptions


def _dual_description(gens: tuple[Vec, ...], dim: int) -> tuple[tuple, tuple, tuple, tuple]:
    """(inequalities, equations) cutting out cone(gens) exactly, in a
    canonical form that depends on the cone, not on how it is listed; for
    each inequality the bitmask of the generators on which it vanishes
    (bit k for gens[k]), which the double description reports; and for a
    full-dimensional cone the double description's start inverse (basis,
    W, D), basis indexing gens (:func:`lattice._basis_inverse`), else None.

    The facet normals are the primitive extreme rays of the dual cone (the
    double description). For a cone of lower dimension d with span L, the
    pivot columns J of one Gauss-Jordan pass on the generators are the
    first d coordinates independent on L, so they depend only on L. The
    normals are the rays w of the dual of pi_J(cone) in Q^d, lifted to a by
    zeros off J; the equations are the Hermite basis of the lattice
    orthogonal to L (:func:`lattice.kernel_basis`). Proof: pi_J is injective
    on L and a.x = w.pi_J(x) for every x, so x is in the cone iff it is in
    L and every a is >= 0 on it, and a vanishes on the generators on which
    w does; each a is primitive because w is. Lifting keeps the
    lexicographic order, as J is increasing. Works for non-pointed cones
    too.
    """
    if not gens:  # the unit vectors, sorted
        return (), lattice.identity(dim)[::-1], (), None
    dd = lattice._double_description(gens, dim)
    if dd is not None:  # full-dimensional: no change of coordinates
        return dd[0], (), dd[1], dd[2]
    at = {j: k for k, j in enumerate(lattice._gauss_jordan(gens, dim)[0])}  # J, in order
    normals, tight, _ = lattice._double_description([[g[j] for j in at] for g in gens], len(at))
    lifted = tuple(tuple(w[at[t]] if t in at else 0 for t in range(dim)) for w in normals)
    return lifted, lattice.kernel_basis(gens, dim), tight, None


def cone_dual_description(generators, dim: int | None = None):
    """Public dual description of a strongly convex cone.

    Raises NotStronglyConvex when the generated cone contains a line, and
    BadParams when `dim` is given and is not a positive int.
    """
    gens = tuple(vec(g) for g in generators)
    if dim is None:
        if not gens:
            raise ValueError("explicit dim required for the zero cone")
        dim = len(gens[0])
    elif not lattice.is_integer(dim) or dim < 1:
        raise BadParams(f"dim must be a positive integer, got {dim!r}")
    for k, g in enumerate(gens):
        if len(g) != dim:
            raise DimensionMismatch(f"generator {k} has dimension {len(g)}, expected {dim}")
        if is_zero(g):
            raise ValueError("zero vector is not a cone generator")
    ineqs, eqs, tight, _ = _dual_description(gens, dim)
    if not _is_face(0, (1 << len(gens)) - 1, tight):  # a generator on every facet: a line
        raise NotStronglyConvex("cone contains a line")
    return ineqs, eqs


def _simplicial_inverse(cone: Cone, rays: tuple[Vec, ...]) -> tuple | None:
    """(basis, W, D) with P W = D I and D > 0, for the matrix P whose rows
    are the rays of a simplicial full-dimensional cone in their own order
    (basis is the cone's ray_indices, indices into `rays`): the format of
    :func:`toricroots.lattice._basis_inverse`. None for any other cone,
    that is unless the cone has n = dim rays and no equations.

    A cone that :func:`build_fan` made keeps the start inverse of its
    double description, whose basis is all its rays in order, with
    D = |det P|. Any other cone, as those of
    :func:`toricroots.polytope.normal_fan`, reads it off its stored normals
    on first use, with D = lcm(c_j) (below, no elimination), and stores it.
    A reader that wants another order of the rows, as the root search with
    its ray first, permutes the columns of W the same way and keeps D: if
    P W = D I and S is a permutation matrix, (S P)(W S^T) = D S S^T = D I.

    *Normals.* Such a cone's n rays span Q^n, so they are independent: each
    of its n facets holds n - 1 of them and misses one, and its stored
    inequalities are its primitive facet normals, one per facet. So exactly
    one normal a_j is nonzero on p_j, c_j = <a_j, p_j> > 0, and
    A P^T = diag(c) for the matrix A of the a_j and P of the p_j (rows, in
    the cone's order). Three readings follow.

    (1) *Inverse.* With D = lcm(c_j) and W the matrix with columns
        (D / c_j) a_j, P W = D I, since entry (i, j) is
        (D / c_j) <p_i, a_j> = D delta_ij: P^-1 = W / D. A column with
        c_j = D is a_j itself.
    (2) *Unimodular.* D = 1, that is every c_j = 1, iff the p_j are a
        lattice basis, and then the a_j, the columns of W, are its dual
        basis. If A P^T = I then det A det P = 1 over Z. Conversely, if P is
        unimodular its dual vectors q_j are integral and primitive (q_j
        pairs to 1 with p_j), and q_j is a positive multiple of a_j (both
        vanish on the other rays and are positive on p_j); two primitive
        vectors on one ray are equal, so a_j = q_j and c_j = 1.
    (3) *Determinant.* When the p_j are primitive, |det A| = 1 iff every
        c_j = 1, that is iff D = 1. det A det P = prod c_j gives one way.
        If |det A| = 1, then A^-1 is integral and P^T = A^-1 diag(c), so
        p_j is c_j times an integral vector, and c_j = 1 as p_j is
        primitive.

    *Either D.* The two D can differ (the cone over (1, 0, 0), (1, 2, 0),
    (1, 0, 2) has every c_j = 2 and |det P| = 4), but every reader sees
    only W / D and whether D = 1, which agree. W / D = P^-1 for both.
    |det P| = 1 iff P is unimodular, and so, by (2), iff lcm(c_j) = 1; and
    when D = 1, W = P^-1 for both. The root search reads W / D
    (:func:`toricroots.lattice._search` proves it), and the collection scan
    and the rectangle test whether D = 1, and then W. So search nodes and
    reports do not depend on which D a cone stored.

    A cone with equations need not single out one ray per normal (the cone
    over the unit square in Z^4 has 4 rays, and each normal pairs to 0 or 1
    with every one of them); a cone with more than n rays is not simplicial.
    """
    if cone.equations or len(cone.ray_indices) != cone.dim:
        return None
    inverse = getattr(cone, "_inverse", None)
    if inverse is None:  # (a_j, c_j) for each ray p_j
        pairs = [next((a, c) for a in cone.inequalities if (c := sum(map(mul, a, rays[i]))))
                 for i in cone.ray_indices]
        d = lcm(*[c for _, c in pairs])
        inverse = cone.ray_indices, [tuple([d // c * x for x in a]) for a, c in pairs], d
        object.__setattr__(cone, "_inverse", inverse)
    return inverse


def _is_face(s: int, rays: int, facets) -> bool:
    """True iff the rays `s` are the ray set of a face of the cone with rays
    `rays`, given the ray sets of its facets, each set a bitmask of ray
    indices: every face is an intersection of facets, so iff s equals its
    closure, the intersection of the facet ray sets that contain it (all of
    `rays` if none does)."""
    for t in facets:
        if s & t == s:
            rays &= t
    return rays == s


def _bits(indices) -> int:
    """The bitmask with bit i set for each index i."""
    return sum(1 << i for i in indices)


def _intersection_rays(gens: list[Vec], start: list[int], nrows: int, d: int,
                       ineqs, eqs) -> list[Vec]:
    """Primitive extreme rays of the intersection of two pointed cones, in
    no particular order: the first cone, of dimension d, with extreme rays
    `gens` and `nrows` inequalities, bit m of start[k] set iff the m-th
    vanishes on gens[k], cut by the second cone's inequalities `ineqs` and
    by its equations `eqs` in both signs. :func:`lattice._motzkin` filters
    pairs by d, the dimension of the first cone's span, in which its
    inequalities cut it out."""
    cuts = enumerate(ineqs + eqs + tuple(neg(e) for e in eqs), nrows)
    return lattice._motzkin(gens, start, cuts, d)[0]


# ---------------------------------------------------------------------------
# construction and validation


def build_fan(dim, rays, max_cones, allow_nonprimitive: bool = False) -> Fan:
    """Validate and assemble a Fan in one pass; raise InvalidFan with every
    violation.

    Each maximal cone is made as soon as its dual description is known
    (its equations are independent, so its dimension is dim minus their
    number), and a full-dimensional cone with dim rays keeps its double
    description's start inverse, whose basis is all its rays in order, as
    its basis inverse (:func:`_simplicial_inverse`). The certificate
    (:func:`_certify_complete`) and the pair scan read those cones. A
    certified fan is a fan by that certificate, and its answer is stored as
    the fan's completeness; any other runs the scan of all pairs of maximal
    cones, which checks that they meet in a common face. The Fan holds the
    maximal cones sorted; the other faces are described on first use
    (:func:`_face_index`).
    """
    if not lattice.is_integer(dim):
        raise InvalidFan(["dim must be an integer"])
    if dim < 1:
        raise InvalidFan(["dim must be positive"])
    if not isinstance(max_cones, (list, tuple)):
        raise InvalidFan(["max_cones must be a list"])
    try:
        rays = tuple(vec(r) for r in rays)
    except TypeError as exc:
        raise InvalidFan([f"bad ray data: {exc}"]) from None
    violations: list[str] = []
    for i, r in enumerate(rays):
        if len(r) != dim:
            violations.append(f"ray {i} has dimension {len(r)}, expected {dim}")
        elif is_zero(r):
            violations.append(f"ray {i} is the zero vector")
        elif not allow_nonprimitive and not lattice.is_primitive(r):
            violations.append(f"ray {i} = {list(r)} is not primitive")
    if violations:
        raise InvalidFan(violations)
    if len(set(rays)) != len(rays):
        violations.append("rays are not pairwise distinct")
    prims = [primitive(r) for r in rays] if allow_nonprimitive else rays  # checked primitive above
    if len(set(prims)) != len(prims):
        violations.append("two rays lie on the same half-line")
    cones = []
    used = set()
    for k, c in enumerate(max_cones):
        try:
            c = tuple(c)
        except TypeError:
            violations.append(f"maximal cone {k} is not a list of ray indices")
            continue
        try:
            idx = tuple(sorted(set(vec(c))))
            bad = "references a missing ray" if any(i < 0 or i >= len(rays) for i in idx) else None
        except TypeError:
            bad = "has non-integer ray indices"
        if bad:
            violations.append(f"maximal cone {k} {bad}")
            # the rays that the skipped cone does list still appear in it
            used.update(i for i in c if lattice.is_integer(i) and 0 <= i < len(rays))
            continue
        if len(idx) < len(c):
            violations.append(f"maximal cone {k} lists a ray more than once")
        cones.append(idx)
    if len(set(cones)) != len(cones):
        violations.append("maximal cones are not pairwise distinct")
    used.update(*cones)
    for i in range(len(rays)):
        if i not in used:
            violations.append(f"ray {i} does not appear in any maximal cone")
    if violations:
        raise InvalidFan(violations)

    built, tights = [], []
    for idx in cones or [()]:  # no maximal cones: the fan of the zero cone
        ineqs, eqs, local, start = _dual_description(tuple(rays[i] for i in idx), dim)
        built.append(Cone(idx, ineqs, eqs, dim - len(eqs)))
        if len(idx) == dim and not eqs:  # simplicial: its start is its inverse
            object.__setattr__(built[-1], "_inverse", (idx, *start[1:]))
        tights.append([_bits(i for k, i in enumerate(idx) if t >> k & 1) for t in local])
        # the closure of the empty set lies in each ray's closure, so if
        # every ray is a face, the smallest face, the lineality space, holds
        # at most one ray; a nonzero linear space needs two: no line
        full = (1 << len(idx)) - 1
        if not all(_is_face(1 << k, full, local) for k in range(len(idx))):
            violations.append(f"cone {list(idx)}: listed rays are not its minimal generators"
                              if _is_face(0, full, local) else
                              f"cone {list(idx)} is not strongly convex")
    if violations:
        raise InvalidFan(violations)

    certified = _certify_complete(rays, built, tights)
    prim_index = {p: i for i, p in enumerate(prims)}
    # per ray of each cone, the bitmask of the cone's facets through it
    starts = [] if certified else [[sum(1 << m for m, t in enumerate(ts) if t >> i & 1)
                                    for i in c.ray_indices] for c, ts in zip(built, tights)]
    for j, k in () if certified else combinations(range(len(built)), 2):
        a, b = built[j].ray_indices, built[k].ray_indices
        meet = _intersection_rays([prims[i] for i in a], starts[j], len(tights[j]), built[j].dim,
                                  built[k].inequalities, built[k].equations)
        # a meet ray that is no ray of the fan (index len(rays)) is in no face
        meet_idx = tuple(sorted(prim_index.get(r, len(rays)) for r in meet))
        s = _bits(meet_idx)
        if not (_is_face(s, _bits(a), tights[j]) and _is_face(s, _bits(b), tights[k])):
            violations.append(
                f"intersection of cones {list(a)} and {list(b)} is not a face of both")
        elif meet_idx in (a, b):
            violations.append(
                f"maximal cone {list(meet_idx)} is contained in another maximal cone")
    if violations:
        raise InvalidFan(violations)
    fan = Fan(dim, rays, tuple(sorted(built, key=attrgetter("ray_indices"))))
    object.__setattr__(fan, "_complete", certified)
    return fan


def _certify_complete(rays, cones, tights) -> bool:
    """True iff the maximal cones C_1..C_m (`cones`, in the order given) are
    n-dimensional and pass the two local tests below; then, and only then,
    they are the maximal cones of a complete fan. The cones are pointed and
    listed by their minimal generators, with their facet normals and the
    ray set T of each facet (`tights[k]` for C_k, bitmasks of ray indices,
    in the order of its inequalities): the checks of :func:`build_fan`
    before this one. The fan of the zero cone alone has equations, so it is
    not certified.

    (a) *Facet pairing.* Each facet ray set T of a cone C_k is a facet ray
        set of exactly one other maximal cone C_j, and <a, r> < 0 for every
        ray r of C_j not in T, where a is C_k's normal on T.
    (b) *Degree one.* The sum p of C_1's rays lies in no other maximal cone.

    This is the pseudo-manifold characterisation of subdivisions (De Loera,
    Rambau and Santos, *Triangulations*, 2010, section 4.5). It costs one
    ``dot`` per ray of each partner and per inequality for p; no two cones
    are intersected. The proof follows.

    *Pairing.* T spans the hyperplane a^perp, so by (a) C_j's normal on T is
    a negative multiple of a: the partners lie on opposite sides of their
    common facet cone(T), and (C_k, T) <-> (C_j, T) is an involution without
    fixed points on the pairs (cone, facet).

    *Lemma (degree).* Let K_1..K_s be pointed n-dimensional cones in a real
    space W of dimension n, and let their facets be paired as above: each
    (K, F) with a partner (K', F), K' != K, on the other side of F, and the
    partner of (K', F) being (K, F). Then the number of cones containing x
    is the same for every x off the union H of the facets' hyperplanes.
    Proof: let Z be the union of the spans of the faces of dimension at most
    n - 2. Each lies in a facet's hyperplane, so Z is in H; and W \\ Z, the
    complement of finitely many subspaces of codimension at least 2, is
    connected (Z is empty if n = 1). Take y in W \\ Z. If y is on the
    boundary of K, it lies on exactly one facet F of K, in its relative
    interior (else it lies on a smaller face, in Z), so near y, K agrees
    with a closed half-space of F's hyperplane; the partner K' of (K, F)
    has y in the relative interior of its facet F too, and near y agrees
    with the other half-space. So the cones with y on their boundary pair
    off, and each pair contains each point near y off H exactly once; a
    cone with y in its interior contains a ball around y, and a cone
    missing y misses one. The count off H is thus constant near each y in
    W \\ Z, hence on all of W \\ H, since W \\ Z is connected.

    *Coverage.* By the lemma in N_R, the count is constant off H. Each
    normal of C_1 is nonnegative on its rays and positive on one, so p is
    in the interior of C_1, and by (b) outside the closed C_j, j != 1; a
    small ball around p lies in C_1 and meets no other cone, so the count
    is 1. The cones therefore cover the dense set N_R \\ H, hence N_R (their
    union is closed), and no two of them share an interior point (any open
    set meets N_R \\ H).

    *Face to face.* Let G be a face of C_k, y in its relative interior, and
    S the set of maximal cones having G as a face. For K in S and a facet F
    of K containing G, the partner of (K, F) has F as a facet and G as a
    face of F, so it is in S. In W = N_R / span G, the images of the cones
    of S are pointed and n - dim G dimensional, their facets are the images
    of the facets containing G, and a, which vanishes on span G, still
    separates partners: the lemma applies in W. The count there is at
    least 1, as the image of C_k has interior, so the cones K + span G, K
    in S, cover N_R. Near y each K in S agrees with K + span G (y is in the
    relative interior of its face G), so the cones of S cover a ball B
    around y. A maximal cone C_j through y not in S would be n-dimensional,
    so its interior would meet B in an open set, which the finitely many
    closed cones of S cover, so it would meet one of their interiors,
    against coverage. So every maximal cone through y has G as a face.

    Now let x be in the relative interior of C_i /\\ C_j and G the face of
    C_i with x in its relative interior. G is a face of C_j, and G lies in
    C_i /\\ C_j. For z in C_i /\\ C_j, x - e(z - x) is in it too for a small
    e > 0, so x is inside a segment of C_i from z, and the face G of C_i
    holds the whole segment: z is in G. So C_i /\\ C_j = G, a face of both,
    whose rays are the rays of the fan in it; it is not all of C_i, since
    n-dimensional C_i and C_j differ. The pair scan finds no violation, and
    the fan is complete.

    *Completeness implies (a) and (b).* Let the cones be the maximal cones
    of a complete fan. For a facet cone(T) of C_k with normal a and y in its
    relative interior, the points y - e a for small e > 0 are not in C_k
    but are covered, so one cone C_j, j != k, holds points y - e a with e
    tending to 0, and y. C_k /\\ C_j is a proper face of C_k (C_k is not in
    C_j) through y, so it is cone(T), a facet of C_j too (of dimension
    n - 1), with ray set T; C_j holds y - e a, so its rays off T are
    negative on a. A third cone with the facet cone(T) would agree near y
    with one of the two half-spaces and share interior points with C_k or
    C_j, whose intersection is a proper face: so (a) holds. If p, interior
    to C_1, were in C_j, j != 1, then C_1 /\\ C_j would be a face of C_1
    with an interior point, that is C_1 itself; then C_1 would be an
    n-dimensional face of C_j, hence equal to it: (b) holds.
    """
    if any(c.equations for c in cones):
        return False
    owners: dict[int, list] = {}
    for c, ts in zip(cones, tights):
        for a, t in zip(c.inequalities, ts):
            owners.setdefault(t, []).append((c.ray_indices, a))
    for t, pair in owners.items():
        if len(pair) != 2:
            return False
        (_, a), (other, _) = pair
        if any(dot(a, rays[i]) >= 0 for i in other if not t >> i & 1):
            return False
    p = tuple(map(sum, zip(*(rays[i] for i in cones[0].ray_indices))))
    return not any(all(dot(a, p) >= 0 for a in c.inequalities) for c in cones[1:])


def validate_fan(dim, rays, max_cones, allow_nonprimitive: bool = False) -> list[str]:
    """Check fan data; return a list of human-readable violations (empty = ok)."""
    try:
        build_fan(dim, rays, max_cones, allow_nonprimitive)
    except InvalidFan as exc:
        return exc.violations
    return []


def _face_cone(face: tuple[int, ...], ineqs, eqs, tight, d: int, dim: int):
    """The face with rays `face`, of dimension d, of a maximal cone, described
    by the cone's rows (ineqs[k] vanishes on the rays tight[k]), and the ray
    sets of its facets. Its equations are the first independent rows among
    the cone's equations and the normals vanishing on it (one Gauss-Jordan
    pass on their transpose); its facets are the inclusion-maximal sets
    face & tight[k] over the other normals, each with the first such normal.
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
    if len(rows) > dim - d:
        rows = [rows[k] for k in lattice._gauss_jordan(lattice.transpose(rows), len(rows))[0]]
    return Cone(face, tuple(cuts[s] for s in facets), tuple(rows), d), facets


def _face_index(fan: Fan) -> dict:
    """Every face of the fan with its dual description, keyed by its
    ray-index set in (size, indices) order. A walk from each maximal cone,
    in sorted order, down through the facets of its faces
    (:func:`_face_cone`) skips the faces already described, so each face is
    described once, by the first maximal cone containing it. Each maximal
    cone's tight sets are read off its stored inequalities."""
    faces = {(): Cone((), *_dual_description((), fan.dim)[:2], 0)}
    for c in fan.max_cones:
        tight = [frozenset(i for i in c.ray_indices if dot(a, fan.rays[i]) == 0)
                 for a in c.inequalities]
        stack = [(c.ray_indices, c.dim)]
        while stack:
            f, d = stack.pop()
            if f not in faces:
                faces[f], facets = _face_cone(f, c.inequalities, c.equations, tight, d, fan.dim)
                stack.extend((tuple(sorted(s)), d - 1) for s in facets)
    return {f: faces[f] for f in sorted(faces, key=lambda s: (len(s), s))}


# ---------------------------------------------------------------------------
# completeness


def is_complete(fan: Fan) -> bool:
    """True iff the support of the fan is all of N_Q.

    :func:`build_fan` decides this once, by :func:`_certify_complete`, whose
    docstring proves that the certificate holds exactly when the maximal
    cones form a complete fan; this returns the stored answer.
    :func:`toricroots.polytope.normal_fan` assembles the normal fan without
    build_fan and stores True, as a polytope's normal fan is complete by
    theorem (the proof is in its docstring). Any other Fan assembled without
    build_fan has no answer stored and reads as not complete.
    """
    return fan._complete


# ---------------------------------------------------------------------------
# automorphisms


def apply_automorphism(fan: Fan, g: LatticeAutomorphism) -> Fan:
    if g.dim != fan.dim:
        raise DimensionMismatch(f"automorphism dim {g.dim} != fan dim {fan.dim}")
    images = [g.apply(p) for p in fan.rays]
    allow = any(not lattice.is_primitive(r) for r in fan.rays)
    return build_fan(fan.dim, images, [c.ray_indices for c in fan.max_cones],
                     allow_nonprimitive=allow)


def is_fan_automorphism(fan: Fan, g: LatticeAutomorphism) -> bool:
    """True iff g permutes the rays and the maximal cones of the fan.

    Once g permutes the rays, the image of a maximal cone is the cone over
    the images of its rays, so it is a maximal cone iff their index set is
    one of the maximal cones' ray-index sets. Distinct maximal cones have
    distinct ray sets, and so distinct images: a map of the maximal cones
    into themselves that is one-to-one is a permutation.
    """
    return _ray_permutation(fan, g) is not None


def _ray_permutation(fan: Fan, g: LatticeAutomorphism) -> list[int] | None:
    """For a fan automorphism g (:func:`is_fan_automorphism`), the index of
    g(p_i) among the rays for each ray p_i; None when g is not one."""
    if g.dim != fan.dim:
        raise DimensionMismatch(f"automorphism dim {g.dim} != fan dim {fan.dim}")
    index = {r: i for i, r in enumerate(fan.rays)}
    perm = [index.get(g.apply(p)) for p in fan.rays]
    cones = {c.ray_indices for c in fan.max_cones}
    ok = None not in perm and all(tuple(sorted(perm[i] for i in c.ray_indices)) in cones
                                  for c in fan.max_cones)
    return perm if ok else None


# ---------------------------------------------------------------------------
# builtin fans


def projective_space(n: int) -> Fan:
    """Fan of P^n: rays e_1..e_n and -(e_1+...+e_n), all n-subsets as cones."""
    if not lattice.is_integer(n) or n < 1:
        raise BadParams("projective_space needs n >= 1")
    return wps_one(*[1] * n)


def product_p1(n: int) -> Fan:
    """Fan of (P^1)^n: rays +-e_i interleaved, one cone per sign pattern."""
    if not lattice.is_integer(n) or n < 1:
        raise BadParams("product_p1 needs n >= 1")
    rays = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    cones = [tuple(2 * i + ((mask >> i) & 1) for i in range(n)) for mask in range(2 ** n)]
    return build_fan(n, rays, cones)


def hirzebruch(d: int) -> Fan:
    """Fan of the Hirzebruch surface F_d."""
    if not lattice.is_integer(d) or d < 1:
        raise BadParams("hirzebruch needs d >= 1")
    rays = [(1, 0), (0, 1), (-1, d), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return build_fan(2, rays, cones)


def wps_one(*weights: int) -> Fan:
    """Fan with rays e_1..e_n and (-d_1,...,-d_n): weighted projective P(1,d_1..d_n).

    Weights with a common factor leave the last generator non-primitive; the
    fan keeps it as given so the weighted Cox grading and action formulas come
    out with the stated exponents.
    """
    if not weights or not all(lattice.is_integer(d) and d >= 1 for d in weights):
        raise BadParams("wps_one needs weights d_i >= 1")
    n = len(weights)
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-d for d in weights))
    cones = list(combinations(range(n + 1), n))
    return build_fan(n, rays, cones, allow_nonprimitive=gcd(*weights) != 1)


def p235_model() -> Fan:
    """The complete surface fan with rays (1,0), (1,5), (-1,-3).

    No pair of rays is a lattice basis, so no additive action exists; a handy
    negative fixture.
    """
    return build_fan(2, [(1, 0), (1, 5), (-1, -3)], [(0, 1), (1, 2), (0, 2)])


_BUILTIN_FANS = {
    "pn": (projective_space, 1),
    "p1n": (product_p1, 1),
    "hirzebruch": (hirzebruch, 1),
    "wps1": (wps_one, None),
    "p235": (p235_model, 0),
}


def _builtin(kind: str, table: dict, name: str, params: tuple):
    """The generator `name` of `table` (name -> (function, arity), arity
    None for one or more parameters) called on `params`, after checking
    the name, the number of parameters and that each is an int (bools
    excluded); BadParams otherwise. `kind` names the table in the message
    for an unknown name."""
    if name not in table:
        raise BadParams(f"unknown {kind} generator {name!r}")
    func, arity = table[name]
    if arity is None and not params:
        raise BadParams(f"{name} needs at least one parameter")
    if arity is not None and len(params) != arity:
        raise BadParams(f"{name} takes {arity} parameter(s), got {len(params)}")
    if not all(map(lattice.is_integer, params)):
        raise BadParams(f"{name} takes integer parameters, got {list(params)}")
    return func(*params)


def builtin_fan(name: str, *params: int) -> Fan:
    return _builtin("fan", _BUILTIN_FANS, name, params)


# ---------------------------------------------------------------------------
# JSON interchange


def fan_to_json_dict(fan: Fan) -> dict:
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c.ray_indices) for c in fan.max_cones],
    }


def fan_from_json_dict(data: dict) -> Fan:
    """Strict reader for the fan JSON schema.

    Rejects non-primitive rays rather than normalizing them silently.
    """
    if not isinstance(data, dict):
        raise InvalidFan(["fan JSON must be an object"])
    missing = {"dim", "rays", "max_cones"} - set(data)
    if missing:
        raise InvalidFan([f"fan JSON lacks key {k!r}" for k in sorted(missing)])
    return build_fan(data["dim"], data["rays"], data["max_cones"])
