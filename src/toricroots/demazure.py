"""Demazure roots of a fan, their Cox-ring derivations, and orbit pairs.

A root is a lattice vector e pairing to -1 with exactly one ray generator
(its distinguished ray) and nonnegatively with every other, such that for
every cone on which e vanishes, the cone spanned together with the
distinguished ray is again in the fan.

Given the first condition, the second is local to the maximal cones: for
each maximal cone C not containing the distinguished ray rho, the face of C
on which e vanishes, spanned together with rho, must be a cone of the fan.
On a fan certified complete it always is, so the first condition alone
decides (Demazure 1970 defines the roots of a complete fan by it; Cox,
Little and Schenck, section 3.4); both proofs are in
:func:`satisfies_condition2`. On any other fan each test is a lookup in the
fan's face index, by the lemma in :mod:`toricroots.fan`: a ray of a fan
that lies in a cone tau of the fan is one of tau's rays, so cone(sigma +
rho) is a cone of the fan iff the ray-index set of sigma plus rho is in
``fan.face_sets``. The index is built on the first such test.

The roots of a ray are found in one of two ways, which share one search
(:func:`toricroots.lattice._search`): the integral vectors whose pairings
with n independent rays lie in given bounds and whose pairings with the
other rays are >= 0. On a fan certified complete the fan gives the
bounds itself: each root's pairings with n rays of a maximal cone through
its ray are bounded by the cones that hold the opposites of those rays
(:func:`roots_for_ray` has the proofs). On any other fan the
condition-(1) polyhedron may be unbounded, and
:func:`toricroots.lattice.lattice_points` decides that by its double
description and bounds each pairing over its vertices.
"""

from __future__ import annotations

from operator import mul

from . import lattice
from .errors import BadParams, InternalError, InvalidFan
from .fan import Cone, Fan, _simplicial_inverse
from .lattice import UNBOUNDED, Constraint, Value, Vec, neg

# The most lattice points a truncated root enumeration may have to visit
# for one ray. A root e lies on <p_rho, e> = -1, and a hyperplane meets the
# box of sup-norm `bound` in at most (2 * bound + 1)^(dim - 1) lattice
# points (drop a coordinate where p_rho is nonzero); a bound for which that
# exceeds this limit is refused with BadParams.
MAX_BOX_POINTS = 10 ** 5


class DemazureRoot(Value):
    """A root e with its distinguished ray index and cached pairing row:
    ``pairings`` holds <p_rho', e> over all rays rho', in ray order."""

    __slots__ = _fields = ("vector", "ray", "pairings")


class RayRoots(Value):
    """Roots attached to one ray: a finite list, or an infinite/truncated
    marker. ``status`` is "finite", "infinite" or "truncated"; ``bound`` is
    the sup-norm bound of a truncated enumeration and None otherwise."""

    __slots__ = _fields = ("ray", "status", "roots", "bound")

    def __init__(self, ray: int, status: str, roots: tuple[DemazureRoot, ...],
                 bound: int | None = None):
        object.__setattr__(self, "ray", ray)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "bound", bound)


class RootSet(Value):
    """The roots of a fan: one :class:`RayRoots` per ray, in ray order."""

    __slots__ = _fields = ("per_ray",)

    @property
    def finite(self) -> bool:
        return all(r.status == "finite" for r in self.per_ray)

    def roots(self) -> tuple[DemazureRoot, ...]:
        return tuple(r for ray in self.per_ray for r in ray.roots)


def pairing_row(fan: Fan, e: Vec) -> Vec:
    if len(e) != fan.dim:
        raise ValueError(f"dimension mismatch: {fan.dim} vs {len(e)}")
    return tuple(sum(map(mul, p, e)) for p in fan.rays)


def _condition1(row: Vec, ray: int) -> bool:
    return row[ray] == -1 and all(v >= 0 for i, v in enumerate(row) if i != ray)


def satisfies_condition1(fan: Fan, e: Vec, ray: int) -> bool:
    return _condition1(pairing_row(fan, e), ray)


def satisfies_condition2(fan: Fan, e: Vec, ray: int) -> bool:
    """For every cone sigma on which e vanishes, cone(sigma + rho) is in the
    fan, where rho is the distinguished ray. e must satisfy condition (1)
    for rho, else ValueError.

    Decided on the maximal cones alone: condition (2) holds iff for every
    maximal cone C not containing rho, with Z_C the face of C on which e
    vanishes, the rays of Z_C plus rho are the ray set of a cone of the fan.
    Write p_rho for the generator of rho. Proof:

    (a) Let D be a cone of the fan with ray rho, and sigma a face of D with
        e = 0 on sigma. Then cone(sigma + rho) is a face of D. Take u in
        the dual of D with D & u^perp = sigma and set w = u + u(p_rho) * e.
        Then w = 0 on sigma and on p_rho. On every other ray of D, w > 0,
        since u > 0 there and e >= 0 there by condition (1). So w cuts
        cone(sigma + rho) out of D.
    (=>) For C not containing rho, e >= 0 on C by condition (1), so
        Z_C = C & e^perp is a face of C: a cone of the fan on which e
        vanishes.
    (<=) Let sigma be a cone of the fan with e = 0 on sigma, and C a
        maximal cone containing it. If rho is in C, apply (a) with D = C.
        Otherwise sigma is a face of Z_C, and Z_C is a face of the cone
        D = cone(Z_C + rho) of the fan, since -e >= 0 on D and vanishes
        exactly on Z_C. So sigma is a face of D, and (a) applies.

    By the lemma in :mod:`toricroots.fan`, the ray set of cone(sigma + rho)
    is exactly the rays of sigma plus rho, so each test is one lookup in
    ``fan.face_sets``.

    On a complete fan every test passes, so nothing is looked up (and the
    face index is not built). Let C be a maximal cone not containing rho
    and x a point of the relative interior of Z_C. The segment x + t p_rho,
    t in [0, 1], is covered by the finitely many closed maximal cones, each
    of which meets it in a closed subsegment. Those through x meet it in
    pieces t in [0, a], and those that miss x miss all t in some [0, s]
    with s > 0, so the pieces [0, a] cover [0, s]: one maximal cone D
    holds x + t p_rho for all t in some [0, t1] with t1 > 0. The point
    y = x + t1 p_rho has <y, e> = -t1 < 0, while e >= 0 on every ray of
    the fan but rho: as y is a nonnegative combination of D's rays, rho is
    one of them. D & C is a face of C that holds x, and a face of C through
    a relative interior point of its face Z_C contains Z_C; so Z_C is a
    face of D & C, hence of D. By (a), cone(Z_C + rho) is a face of D, a
    cone of the fan. The fans read as complete are those
    :func:`toricroots.fan.is_complete` certifies; any other fan takes the
    lookups.
    """
    row = pairing_row(fan, e)
    if not _condition1(row, ray):
        raise ValueError(f"{list(e)} does not satisfy condition (1) for ray {ray}")
    return _condition2(fan, row, ray)


def _condition2(fan: Fan, row: Vec, ray: int) -> bool:
    if fan._complete:
        return True
    faces = fan._index
    return all(tuple(sorted([ray, *(i for i in c.ray_indices if row[i] == 0)])) in faces
               for c in fan.max_cones if ray not in c.ray_indices)


def _root(fan: Fan, e: Vec, ray: int) -> DemazureRoot | None:
    """The root e of the ray, or None if its one pairing row fails condition
    (1) or (2); InvalidFan for a ray index out of range."""
    if not 0 <= ray < len(fan.rays):
        raise InvalidFan([f"no ray with index {ray}"])
    row = pairing_row(fan, e)
    if _condition1(row, ray) and _condition2(fan, row, ray):
        return DemazureRoot(e, ray, row)
    return None


def is_demazure_root(fan: Fan, e, ray: int) -> bool:
    return _root(fan, tuple(e), ray) is not None


def demazure_root(fan: Fan, e, ray: int) -> DemazureRoot:
    root = _root(fan, tuple(e), ray)
    if root is None:
        raise ValueError(f"{list(e)} is not a Demazure root with distinguished ray {ray}")
    return root


def _condition1_system(fan: Fan, ray: int) -> list[Constraint]:
    sys = [Constraint(fan.rays[ray], "=", -1)]
    for i, p in enumerate(fan.rays):
        if i != ray:
            sys.append(Constraint(p, ">=", 0))
    return sys


def roots_for_ray(fan: Fan, ray: int, bound: int | None = None) -> RayRoots:
    """Roots with the given distinguished ray rho.

    The roots are the lattice points of the condition-(1) polyhedron that
    satisfy condition (2). On a fan that is not complete they are its
    points by :func:`toricroots.lattice.lattice_points`, from its double
    description and the search over its vertex bounds. "infinite" means
    that polyhedron is non-empty and unbounded; then a supplied bound gives
    a "truncated" enumeration of its points with sup-norm <= bound, refused
    with BadParams when the box could hold more than MAX_BOX_POINTS of
    them. An empty polyhedron is "finite" with no roots.

    A complete fan is always "finite", and its roots are enumerated in
    pairing coordinates with no double description (the bound is not
    used). Write y_i = <p_i, e>, so a root has y_rho = -1 and y_i >= 0 for
    i != rho, and on a complete fan that is all
    (:func:`satisfies_condition2`). Every maximal cone of a fan certified
    complete is full-dimensional: the certificate is tried only then, and
    a polytope's normal cones are.

    *Bound* (Demazure 1970, section 3; Cox-Little-Schenck, section 3.4).
    For k != rho, -p_k lies in some maximal cone, as the fan is complete:
    -p_k = sum c_i p_i with c_i >= 0 over that cone's rays, among which k
    is not, since a strongly convex cone does not hold both p_k and -p_k.
    Pairing with a root e gives -y_k = sum c_i y_i >= -c_rho, so
    0 <= y_k <= floor(c_rho), with c_rho = 0 when rho is not in that cone.
    The bounds are pairings, so a GL_n(Z) image of the fan has the same.

    *Search.* Take n independent rays of the first maximal cone through
    rho, rho first, as a basis B, with its inverse as (B, W, D), B W = D I
    and D > 0. On a simplicial cone it is read off the cone's stored facet
    normals (:func:`toricroots.fan._simplicial_inverse` has the proofs);
    only a cone with more than n rays takes the Gauss-Jordan pass of
    :func:`toricroots.lattice._basis_inverse`, which gives the same
    format. The search reads W / D alone, so it visits the same nodes
    either way. A
    root e is B^-1 y_B, y_B its pairings with those rays, so the roots are
    the integral e with y_rho = -1, 0 <= y_b <= floor(c_rho) for the other
    basis rays b, and every other pairing >= 0:
    :func:`toricroots.lattice._search` lists them, over the lattice B Z^n
    of pairing vectors of integral e, with the proofs. Its order is rho
    first, then the rays whose bound is 0, then the others, so the fixed
    pairings come first and give the first coordinates of its lattice
    search with no branching.

    *Peel.* -p_k is decomposed in the first maximal cone C whose stored
    inequalities hold it, and 1 * p_j when it is itself the ray p_j. Let
    x = -p_k and F the face of C cut out by the inequalities tight at x,
    the smallest face that holds x. While x != 0, F has a ray p_r. The
    normals of the pointed full-dimensional C span the dual space and are
    >= 0 on p_r, so some a has <a, p_r> > 0; no such a is tight at x, as
    the tight ones vanish on F. So t = min <a, x> / <a, p_r> over them is
    positive, x - t p_r lies in C, and it is tight where x was and at the
    minimizing a, which does not vanish on p_r. Its smallest face is then a
    proper face of F, of lower dimension, so after at most n steps x = 0,
    and x is the sum of the t p_r, each ray used once (:func:`_peel`,
    exact over the integers). Within one :func:`all_roots` call the
    decomposition of each -p_k is computed once, and only for the rays
    some basis uses, and a basis with its inverse serves every ray in it.

    The roots are sorted, as lattice_points lists them.
    """
    return _roots_for_ray(fan, ray, bound, {}, {})


def _roots_for_ray(fan: Fan, ray: int, bound: int | None, opposite: dict,
                   inverses: dict) -> RayRoots:
    """roots_for_ray, with the decompositions of the -p_k kept in `opposite`
    and in `inverses`, for each ray, a basis inverse whose basis holds it."""
    if not 0 <= ray < len(fan.rays):
        raise InvalidFan([f"no ray with index {ray}"])
    if bound is not None and bound < 1:
        raise BadParams("bound must be a positive integer")
    if fan._complete:
        return RayRoots(ray, "finite", _complete_roots(fan, ray, opposite, inverses))
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


def all_roots(fan: Fan, bound: int | None = None) -> RootSet:
    opposite: dict = {}
    inverses: dict = {}
    return RootSet(tuple(_roots_for_ray(fan, i, bound, opposite, inverses)
                         for i in range(len(fan.rays))))


def _complete_roots(fan: Fan, ray: int, opposite: dict,
                    inverses: dict) -> tuple[DemazureRoot, ...]:
    """The roots of the ray on a complete fan, sorted; the proofs are in
    :func:`roots_for_ray`."""
    n, rays = fan.dim, fan.rays
    if ray not in inverses:
        cone = next(c for c in fan.max_cones if ray in c.ray_indices)
        order = [ray, *(i for i in cone.ray_indices if i != ray)]
        inverse = _simplicial_inverse(cone, rays, order) or lattice._basis_inverse(rays, order, n)
        for b in inverse[0]:
            inverses.setdefault(b, inverse)
    basis, cols, d = inverses[ray]
    tops = []
    for b in basis:
        if b == ray:
            tops.append(-1)
            continue
        if b not in opposite:
            opposite[b] = _decompose(fan, neg(rays[b]))
        num, den = opposite[b].get(ray, (0, 1))
        tops.append(num // den)
    # search order: the ray, the pairings held at 0, then the bounded ones
    order = sorted(range(n), key=lambda pos: (tops[pos] >= 0, tops[pos] > 0))
    basis, cols, tops = ([seq[pos] for pos in order] for seq in (basis, cols, tops))
    others = [rays[j] for j in range(len(rays)) if j not in basis]
    vectors = lattice._search([rays[b] for b in basis], cols, d, [min(t, 0) for t in tops],
                              tops, others, [0] * len(others))
    return tuple(DemazureRoot(e, ray, pairing_row(fan, e)) for e in vectors)


def _decompose(fan: Fan, x: Vec) -> dict[int, tuple[int, int]]:
    """x = sum (num / den) p_i with every coefficient >= 0, over the rays of
    the first maximal cone that holds x, as {i: (num, den)} with den > 0;
    {j: (1, 1)} when x is the ray p_j. x must be in the fan's support."""
    if x in fan.rays:
        return {fan.rays.index(x): (1, 1)}
    cone = next((c for c in fan.max_cones if c.contains(x)), None)
    if cone is None:
        raise InternalError(f"{list(x)} lies in no maximal cone of a complete fan")
    return _peel(x, cone, fan.rays)


def _peel(x: Vec, cone: Cone, rays: tuple[Vec, ...]) -> dict[int, tuple[int, int]]:
    """x in a full-dimensional cone as sum (num / den) p_r over rays of the
    cone, each coefficient positive, taken off one ray of the smallest face
    holding x at a time (the proof is in :func:`roots_for_ray`). The rest
    r / scale is carried by its pairings with the inequalities, integers
    that are all 0 iff r = 0, as the normals span the dual space. A ray
    passed over, or taken, has a tight inequality that does not vanish on
    it, and the rest stays tight there, so the rays are scanned once."""
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


def commute(a: DemazureRoot, b: DemazureRoot) -> bool:
    """Whether the derivations of two roots commute.

    True iff the distinguished rays coincide, or each root vanishes on the
    other's distinguished ray generator.
    """
    if a.ray == b.ray:
        return True
    return b.pairings[a.ray] == 0 and a.pairings[b.ray] == 0


# ---------------------------------------------------------------------------
# Cox-ring derivations


class CoxDerivation(Value):
    """monomial * d/dx_target, the monomial given by per-variable exponents:
    ``exponents`` holds (variable index, power) pairs, the target omitted."""

    __slots__ = _fields = ("target", "exponents")

    @property
    def num_vars(self) -> int:
        return len(self.exponents) + 1


def derivation(fan: Fan, root: DemazureRoot) -> CoxDerivation:
    expo = tuple((i, root.pairings[i]) for i in range(len(fan.rays)) if i != root.ray)
    return CoxDerivation(root.ray, expo)


def _monomial(exponents: tuple[tuple[int, int], ...]) -> str:
    """``x1^2*x3`` from (variable, power) pairs: variables 1-based, in order,
    power 1 omitted; "" for the constant monomial."""
    return "*".join(f"x{var + 1}" if power == 1 else f"x{var + 1}^{power}"
                    for var, power in sorted(exponents) if power != 0)


def format_derivation(d: CoxDerivation) -> str:
    """ASCII rendering, e.g. ``x1^2*x3 d/dx4``; variables are 1-based."""
    return f"{_monomial(d.exponents) or '1'} d/dx{d.target + 1}"


# ---------------------------------------------------------------------------
# orbit pairs


def he_connected_pairs(fan: Fan, root: DemazureRoot) -> tuple[tuple[Cone, Cone], ...]:
    """All cone pairs (sigma1, sigma2) with e <= 0 on sigma2, e not identically
    zero there, and sigma1 the facet of sigma2 cut out by <., e> = 0.

    The zero cone counts as the facet of a ray. The values of e on the rays
    are read off the root's stored pairing row, so the root must be one of
    this fan's.
    """
    out = []
    for c2 in fan.all_faces:
        vals = [root.pairings[i] for i in c2.ray_indices]
        if not vals or any(v > 0 for v in vals) or all(v == 0 for v in vals):
            continue
        sub = tuple(i for i, v in zip(c2.ray_indices, vals) if v == 0)
        c1 = fan.cone(sub)
        if c1.dim == c2.dim - 1:
            out.append((c1, c2))
    return tuple(out)
