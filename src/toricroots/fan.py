"""Rational polyhedral fans: validation, completeness, automorphisms, builtins.

The lattice N is identified with Z^n and its dual M with Z^n via the standard
dot pairing. Cones are stored by indices into the fan's ray list together
with an exact dual description (facet inequalities plus span equations), so
non-simplicial cones are supported throughout. Only the maximal cones'
descriptions are computed; every other face is found by walking down
through facets from the first maximal cone (in sorted order) that contains
it, and reads its description off that cone (see :class:`Cone`). A
lower-dimensional cone is described in pivot coordinates, not by the Smith
form (:func:`_dual_description`).

A :class:`Fan` indexes all its cones by their ray-index sets, computed once
in :func:`build_fan`. Questions about cones of the fan are lookups in that
index, by one lemma: in a fan, a ray rho meets any cone tau in a face of
tau, so a ray of the fan that lies in tau is one of tau's rays. Hence a
cone generated by some rays S of the fan is a cone of the fan iff S is a
face's ray-index set (``S in fan.face_sets``).

Validation checks each maximal cone on its own, then that any two meet in
a common face. When every maximal cone is n-dimensional, a local
certificate is tried first (:func:`_certify_complete`): every facet is
shared by exactly one other maximal cone, on its other side, and one point
of the first cone lies in no other. It holds exactly when the cones form a
complete fan, so a certified fan needs no pair of its cones intersected,
and any other fan intersects every pair. The certificate is also the one
decision of completeness: :func:`build_fan` stores its answer on the fan,
and :func:`is_complete` returns it.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import mul

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
    """

    __slots__ = _fields = ("ray_indices", "inequalities", "equations", "dim")

    def __init__(self, ray_indices: tuple[int, ...], inequalities: tuple[Vec, ...],
                 equations: tuple[Vec, ...], dim: int):
        object.__setattr__(self, "ray_indices", ray_indices)
        object.__setattr__(self, "inequalities", inequalities)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "dim", dim)

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
    """A unimodular integer matrix acting on N by left multiplication."""

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix: Mat):
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
    """A validated fan. Construct through :func:`build_fan`."""

    _fields = ("dim", "rays", "max_cones", "all_faces", "face_sets")
    _shown = _fields[:4]
    # stored, not compared: the faces by ray indices, and whether the fan
    # is certified complete (see is_complete)
    __slots__ = (*_fields, "_by_rays", "_complete", "__weakref__")

    def __init__(self, dim: int, rays: tuple[Vec, ...], max_cones: tuple[Cone, ...],
                 all_faces: tuple[Cone, ...], face_sets: frozenset[tuple[int, ...]]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", max_cones)
        object.__setattr__(self, "all_faces", all_faces)
        object.__setattr__(self, "face_sets", face_sets)
        object.__setattr__(self, "_by_rays", {c.ray_indices: c for c in all_faces})
        object.__setattr__(self, "_complete", False)

    def cone(self, ray_indices) -> Cone:
        key = tuple(sorted(ray_indices))
        if key not in self._by_rays:
            raise KeyError(f"no cone with rays {key}")
        return self._by_rays[key]

    def contains_point(self, v: Vec) -> bool:
        return any(c.contains(v) for c in self.max_cones)


# ---------------------------------------------------------------------------
# dual descriptions


def _dual_description(gens: tuple[Vec, ...], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(inequalities, equations) cutting out cone(gens) exactly, in a
    canonical form: it depends on the cone, not on how it is listed.

    The facet normals are the primitive extreme rays of the dual cone (the
    double description). For a cone of lower dimension d with span L, the
    pivot columns J of one Gauss-Jordan pass on the generators are the
    first d coordinates independent on L, so they depend only on L. The
    normals are the rays w of the dual of pi_J(cone) in Q^d, lifted to a by
    zeros off J; the equations are the Hermite basis of the lattice
    orthogonal to L (:func:`lattice.kernel_basis`). Proof: pi_J is injective
    on L and a.x = w.pi_J(x) for every x, so x is in the cone iff it is in
    L and every a is >= 0 on it; each a is primitive because w is. Works
    for non-pointed cones too.
    """
    if not gens:  # the unit vectors, sorted
        return (), lattice.identity(dim)[::-1]
    normals = lattice.dual_rays(gens, dim)
    if normals is not None:  # full-dimensional: no change of coordinates
        return normals, ()
    at = {j: k for k, j in enumerate(lattice._gauss_jordan(gens, dim)[0])}  # J, in order
    normals = lattice.dual_rays([tuple(g[j] for j in at) for g in gens], len(at))
    lifted = (tuple(w[at[t]] if t in at else 0 for t in range(dim)) for w in normals)
    return tuple(sorted(lifted)), lattice.kernel_basis(gens, dim)


def cone_dual_description(generators, dim: int | None = None):
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
    ineqs, eqs = _dual_description(gens, dim)
    on = [frozenset(i for i, g in enumerate(gens) if dot(a, g) == 0) for a in ineqs]
    if not _is_face((), range(len(gens)), on):  # a generator on every facet: a line
        raise NotStronglyConvex("cone contains a line")
    return ineqs, eqs


def _is_face(s: tuple[int, ...], idx: tuple[int, ...], facets) -> bool:
    """True iff the rays `s` are the ray set of a face of the cone with rays
    `idx`, given the ray sets of its facets: every face is an intersection
    of facets, so iff s equals its closure, the intersection of the facet
    ray sets that contain it (all of idx if none does)."""
    return set(idx).intersection(*(t for t in facets if t.issuperset(s))) == set(s)


def _intersection_rays(gens: tuple[Vec, ...], rows, ineqs, eqs) -> tuple[Vec, ...]:
    """Primitive extreme rays of the intersection of two pointed cones: the
    first cone's rays `gens` (its inequalities `rows`) cut by the second
    cone's inequalities `ineqs` and by its equations `eqs` in both signs."""
    return lattice.cut_cone(gens, rows, ineqs + eqs + tuple(neg(e) for e in eqs))


# ---------------------------------------------------------------------------
# construction and validation


def _check_fan(dim, rays, max_cones, allow_nonprimitive: bool):
    """Validate fan data in one pass; raise InvalidFan with every violation.

    Returns the rays; keyed by each maximal cone's sorted ray indices, its
    dual description and the ray sets its facet normals vanish on (one set
    per inequality); and whether :func:`_certify_complete` certified the fan
    complete. A certified fan is a fan by that certificate; any other runs
    the scan of all pairs of maximal cones, which checks that they meet in a
    common face.
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
    prims = [primitive(r) for r in rays]
    if len(set(prims)) != len(prims):
        violations.append("two rays lie on the same half-line")
    cones = []
    for k, c in enumerate(max_cones):
        try:
            c = tuple(c)
        except TypeError:
            violations.append(f"maximal cone {k} is not a list of ray indices")
            continue
        try:
            idx = tuple(sorted(set(vec(c))))
        except TypeError:
            violations.append(f"maximal cone {k} has non-integer ray indices")
            continue
        if any(i < 0 or i >= len(rays) for i in idx):
            violations.append(f"maximal cone {k} references a missing ray")
            continue
        cones.append(idx)
    if len(set(cones)) != len(cones):
        violations.append("maximal cones are not pairwise distinct")
    used = set().union(*cones) if cones else set()
    for i in range(len(rays)):
        if i not in used:
            violations.append(f"ray {i} does not appear in any maximal cone")
    if violations:
        raise InvalidFan(violations)

    descs, tights = {}, {}
    for idx in cones or [()]:  # no maximal cones: the fan of the zero cone
        ineqs, _ = descs[idx] = _dual_description(tuple(rays[i] for i in idx), dim)
        tights[idx] = [frozenset(i for i in idx if dot(a, rays[i]) == 0) for a in ineqs]
        if not _is_face((), idx, tights[idx]):  # the smallest face is the lineality space
            violations.append(f"cone {list(idx)} is not strongly convex")
        elif any(not _is_face((i,), idx, tights[idx]) for i in idx):
            violations.append(f"cone {list(idx)}: listed rays are not its minimal generators")
    if violations:
        raise InvalidFan(violations)

    certified = _certify_complete(rays, cones, descs, tights)
    prim_index = {p: i for i, p in enumerate(prims)}
    for a, b in () if certified else combinations(cones, 2):
        gens = tuple(sorted({prims[i] for i in a}))
        meet = _intersection_rays(gens, descs[a][0], *descs[b])
        # a meet ray that is no ray of the fan (index -1) is in no face
        meet_idx = tuple(sorted(prim_index.get(r, -1) for r in meet))
        if not (_is_face(meet_idx, a, tights[a]) and _is_face(meet_idx, b, tights[b])):
            violations.append(
                f"intersection of cones {list(a)} and {list(b)} is not a face of both")
        elif meet_idx in (a, b) and a != b:
            violations.append(
                f"maximal cone {list(meet_idx)} is contained in another maximal cone")
    if violations:
        raise InvalidFan(violations)
    return rays, {idx: (descs[idx], tights[idx]) for idx in descs}, certified


def _certify_complete(rays, cones, descs, tights) -> bool:
    """True iff the maximal cones C_1..C_m (`cones`, in the order given) are
    n-dimensional and pass the two local tests below; then, and only then,
    they are the maximal cones of a complete fan. The cones are pointed and
    listed by their minimal generators, with their facet normals and the
    ray set T of each facet (`tights`): the checks of :func:`_check_fan`
    before this one.

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
    if not cones or any(descs[idx][1] for idx in cones):
        return False
    owners: dict[frozenset, list] = {}
    for idx in cones:
        for a, t in zip(descs[idx][0], tights[idx]):
            owners.setdefault(t, []).append((idx, a))
    for t, pair in owners.items():
        if len(pair) != 2:
            return False
        (_, a), (other, _) = pair
        if any(dot(a, rays[i]) >= 0 for i in other if i not in t):
            return False
    first = cones[0]
    p = tuple(map(sum, zip(*(rays[i] for i in first))))
    return not any(all(dot(a, p) >= 0 for a in descs[idx][0])
                   for idx in cones if idx != first)


def validate_fan(dim, rays, max_cones, allow_nonprimitive: bool = False) -> list[str]:
    """Check fan data; return a list of human-readable violations (empty = ok)."""
    try:
        _check_fan(dim, rays, max_cones, allow_nonprimitive)
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


def build_fan(dim, rays, max_cones, allow_nonprimitive: bool = False) -> Fan:
    """Validate and assemble a Fan: every face, with its dual description,
    indexed by its ray-index set; maximal cones and faces sorted. A walk
    from each maximal cone, in sorted order, down through the facets of its
    faces (:func:`_face_cone`) skips the faces already described, so each
    face is described once, by the first maximal cone containing it. The
    answer of :func:`_certify_complete` is stored as the fan's completeness.
    """
    rays, cones, certified = _check_fan(dim, rays, max_cones, allow_nonprimitive)
    faces = {(): Cone((), (), lattice.identity(dim)[::-1], 0)}
    for idx in sorted(cones):
        (ineqs, eqs), tight = cones[idx]
        stack = [(idx, dim - len(eqs))]  # a maximal cone's equations are independent
        while stack:
            f, d = stack.pop()
            if f not in faces:
                faces[f], facets = _face_cone(f, ineqs, eqs, tight, d, dim)
                stack.extend((tuple(sorted(s)), d - 1) for s in facets)
    fan = Fan(dim, rays, tuple(faces[idx] for idx in sorted(cones)),
              tuple(sorted(faces.values(), key=lambda c: (len(c.ray_indices), c.ray_indices))),
              frozenset(faces))
    object.__setattr__(fan, "_complete", certified)
    return fan


# ---------------------------------------------------------------------------
# completeness


def is_complete(fan: Fan) -> bool:
    """True iff the support of the fan is all of N_Q.

    :func:`build_fan` decides this once, by :func:`_certify_complete`, whose
    docstring proves that the certificate holds exactly when the maximal
    cones form a complete fan; this returns the stored answer. A Fan
    assembled without :func:`build_fan` has none and reads as not complete.
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


# ---------------------------------------------------------------------------
# builtin fans


def projective_space(n: int) -> Fan:
    """Fan of P^n: rays e_1..e_n and -(e_1+...+e_n), all n-subsets as cones."""
    if n < 1:
        raise BadParams("projective_space needs n >= 1")
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple([-1] * n))
    cones = list(combinations(range(n + 1), n))
    return build_fan(n, rays, cones)


def product_p1(n: int) -> Fan:
    """Fan of (P^1)^n: rays +-e_i interleaved, one cone per sign pattern."""
    if n < 1:
        raise BadParams("product_p1 needs n >= 1")
    rays = []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        rays.extend([e, neg(e)])
    cones = []
    for mask in range(2 ** n):
        cones.append(tuple(2 * i + ((mask >> i) & 1) for i in range(n)))
    return build_fan(n, rays, cones)


def hirzebruch(d: int) -> Fan:
    """Fan of the Hirzebruch surface F_d."""
    if d < 1:
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
    if not weights or any(d < 1 for d in weights):
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


def builtin_fan(name: str, *params: int) -> Fan:
    if name not in _BUILTIN_FANS:
        raise BadParams(f"unknown fan generator {name!r}")
    func, arity = _BUILTIN_FANS[name]
    if arity is None:
        if not params:
            raise BadParams(f"{name} needs at least one parameter")
        return func(*params)
    if len(params) != arity:
        raise BadParams(f"{name} takes {arity} parameter(s), got {len(params)}")
    return func(*params)


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
