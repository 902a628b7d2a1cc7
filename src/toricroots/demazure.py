"""Demazure roots of a fan, their Cox-ring derivations, and orbit pairs.

A root is a lattice vector e pairing to -1 with exactly one ray generator
(its distinguished ray) and nonnegatively with every other, such that for
every cone on which e vanishes, the cone spanned together with the
distinguished ray is again in the fan.

Given the first condition, the second is local to the maximal cones: for
each maximal cone C not containing the distinguished ray rho, the rays of C
on which e vanishes must all be rays of one maximal cone through rho. On a
fan certified complete they always are, so the first condition alone
decides (Demazure 1970 defines the roots of a complete fan by it; Cox,
Little and Schenck, section 3.4); the proofs are in
:func:`satisfies_condition2`. On any other fan the test reads the ray sets
of the maximal cones and nothing else, so no decision builds the fan's
face index: only a reader of the faces themselves does, as
:func:`he_connected_pairs` does.

The roots of a ray are found in one of three ways, which share one search
(:func:`toricroots.lattice._search`): the integral vectors whose pairings
with n independent rows lie in given bounds and whose pairings with the
other rows are at least given floors. Condition (1) is one list of floors
on the rays, -1 at the ray and 0 elsewhere, which all three read. On a fan
certified complete the fan gives the bounds itself: each root's pairings
with the rays of a basis through its ray are bounded by the stored facet
normals of the maximal cones that hold the opposites of those rays
(:func:`roots_for_ray` has the proofs). On any other fan
:func:`toricroots.lattice._points` decides by its double description
whether the condition-(1) polyhedron is bounded and bounds each pairing
over its vertices. When it is unbounded, a bound gives the box of that
sup-norm, which is searched directly, the ray and n - 1 unit vectors its
basis. Each listed vector is paired with the rays once, and off a fan
certified complete condition (2) filters them.
"""

from __future__ import annotations

from operator import mul

from . import lattice
from .errors import BadParams, InternalError, InvalidFan
from .fan import Cone, Fan, _simplicial_inverse
from .lattice import UNBOUNDED, Value, Vec, neg

# The most leaves a truncated root enumeration may visit for one ray. Its
# search fixes <p_rho, e> = -1 and takes each of n - 1 unit coordinates in
# [-bound, bound] (see roots_for_ray), so it has at most
# (2 * bound + 1)^(dim - 1) leaves; a bound for which that exceeds this
# limit is refused with BadParams.
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
    vanishes, cone(Z_C + rho) is a cone of the fan; and that holds iff the
    rays of Z_C are among the rays of some maximal cone D that has rho.
    Write p_rho for the generator of rho. The first step:

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

    The second step, for one such C. (=>) cone(Z_C + rho), a cone of the
    fan, lies in some maximal cone D, and by the lemma in
    :mod:`toricroots.fan` the rays of the fan that lie in D are rays of D:
    rho and the rays of Z_C among them. (<=) Z_C is a cone of the fan that
    lies in D, so Z_C = Z_C & D is a face of D, as two cones of a fan meet
    in a face of each; e vanishes on it and rho is a ray of D, so by (a)
    cone(Z_C + rho) is a face of D, a cone of the fan. So each test reads
    the ray sets of the maximal cones alone, and no face is described.

    On a complete fan every test passes, so none is made. Let C be a
    maximal cone not containing rho and x a point of the relative interior
    of Z_C. The segment x + t p_rho, t in [0, 1], is covered by the
    finitely many closed maximal cones, each of which meets it in a closed
    subsegment. Those through x meet it in pieces t in [0, a], and those
    that miss x miss all t in some [0, s] with s > 0, so the pieces
    [0, a] cover [0, s]: one maximal cone D holds x + t p_rho for all t
    in some [0, t1] with t1 > 0. The point
    y = x + t1 p_rho has <y, e> = -t1 < 0, while e >= 0 on every ray of
    the fan but rho: as y is a nonnegative combination of D's rays, rho is
    one of them. D & C is a face of C that holds x, and a face of C through
    a relative interior point of its face Z_C contains Z_C; so Z_C is a
    face of D & C, hence of D. By (a), cone(Z_C + rho) is a face of D, a
    cone of the fan. The fans read as complete are those
    :func:`toricroots.fan.is_complete` certifies; any other fan takes the
    containment test.
    """
    row = pairing_row(fan, e)
    if not _condition1(row, ray):
        raise ValueError(f"{list(e)} does not satisfy condition (1) for ray {ray}")
    return _condition2(fan, row, ray)


def _condition2(fan: Fan, row: Vec, ray: int) -> bool:
    if fan._complete:
        return True
    holds = [set(c.ray_indices) for c in fan.max_cones if ray in c.ray_indices]
    zeros = {frozenset(i for i in c.ray_indices if row[i] == 0)
             for c in fan.max_cones if ray not in c.ray_indices}
    return all(any(z <= d for d in holds) for z in zeros)


def _root(fan: Fan, e: Vec, ray: int) -> DemazureRoot | None:
    """The root e of the ray, or None if its one pairing row fails condition
    (1) or (2); InvalidFan for a ray index that is not an int in range."""
    if not lattice.is_integer(ray) or not 0 <= ray < len(fan.rays):
        raise InvalidFan([f"no ray with index {ray}"])
    row = pairing_row(fan, e)
    if _condition1(row, ray) and _condition2(fan, row, ray):
        return DemazureRoot(e, ray, row)
    return None


def is_demazure_root(fan: Fan, e, ray: int) -> bool:
    return _root(fan, lattice.vec(e), ray) is not None


def demazure_root(fan: Fan, e, ray: int) -> DemazureRoot:
    root = _root(fan, lattice.vec(e), ray)
    if root is None:
        raise ValueError(f"{list(e)} is not a Demazure root with distinguished ray {ray}")
    return root


def roots_for_ray(fan: Fan, ray: int, bound: int | None = None) -> RayRoots:
    """Roots with the given distinguished ray rho.

    The roots are the lattice points of the condition-(1) polyhedron that
    satisfy condition (2). Unless the fan is certified complete, they are
    its points by :func:`toricroots.lattice._points`, from its double
    description and the search over its vertex bounds.
    "infinite" means that polyhedron is non-empty and unbounded: it is the
    status of the polyhedron, not of the root set, which is then empty or
    infinite, never finite and non-empty. Proof: let x be a root and r != 0
    an integral direction of the polyhedron's recession cone, so
    <p_rho, r> = 0 and <p_i, r> >= 0 for every other ray. Each x + t r,
    t = 1, 2, ..., pairs to -1 with p_rho and to at least <p_i, x> >= 0
    with every other p_i, so it vanishes only on rays where x does, and it
    passes the containment test of :func:`satisfies_condition2` with the
    same cones D as x: these distinct points are all roots. A supplied
    bound then gives a "truncated" enumeration of the polyhedron's points
    with sup-norm <= bound that satisfy condition (2), refused with
    BadParams when the search could visit more than MAX_BOX_POINTS
    leaves. An empty polyhedron is "finite" with
    no roots. A ray index that is not an int in range raises InvalidFan,
    and a bound that is not a positive int BadParams (bool included, as
    the strict readers refuse it), whether or not it is used.

    A complete fan is always "finite" (the bound is not used). Write
    y_i = <p_i, e>, so a root has y_rho = -1 and y_i >= 0 for i != rho,
    and on a complete fan that is all (:func:`satisfies_condition2`).
    Every maximal cone of a fan certified complete is full-dimensional:
    the certificate is tried only then, and a polytope's normal cones are.

    *Bound* (Demazure 1970, section 3; Cox-Little-Schenck, section 3.4).
    Let b != rho be a ray and x = -p_b. :func:`_decompose` gives a cone of
    the fan that holds x, with ray set S, and vectors a >= 0 on its rays:
    the one ray p_j with a = p_j when x = p_j, and otherwise the first
    maximal cone whose stored inequalities hold x, with those inequalities,
    its facet normals. x = sum c_i p_i over i in S with every c_i >= 0, and
    pairing with a root e gives -y_b = sum c_i y_i >= -c_rho, with c_rho = 0
    when rho is not in S. So y_b = 0 when rho is not in S. When it is,
    <a, x> = sum c_i <a, p_i> >= c_rho <a, p_rho> for each a, so
    0 <= y_b <= floor(<a, x> / <a, p_rho>) for every a with
    <a, p_rho> > 0, and the least of these is the bound. There is such an
    a: for x = p_j it is p_j, and a maximal cone is full-dimensional and
    pointed, cut out by its facet normals, so if all of them vanished on
    p_rho it would hold -p_rho too. On a simplicial cone only the normal
    a_rho opposite p_rho is nonzero on p_rho, and the coefficients c are
    unique, with c_rho = <a_rho, x> / <a_rho, p_rho>: the bound is
    floor(c_rho), which is <w_rho, x> / D, read off the cone's stored
    inverse, rounded down. The bounds are pairings, so a GL_n(Z) image of
    the fan has the same.

    *Route.* On a complete fan the condition-(1) polyhedron is bounded:
    y_rho = -1, each other y_b is bounded as above, and the rays span Q^n,
    as their cones cover it, so e is fixed by its pairings. The search
    below is taken exactly when the fan is certified complete, decided once
    per call for all rays, and :func:`toricroots.lattice._points` serves
    every other fan.

    *Search.* The first maximal cone through rho gives the basis B and its
    inverse (B, W, D), B W = D I and D > 0: the cone's n rays in its own
    order with the inverse it stores, when it is simplicial
    (:func:`toricroots.fan._simplicial_inverse` has the proofs), and
    otherwise the first n independent rays of rho and the cone's rays, the
    rays with no basis yet before the others, so that one basis serves as
    many rays as it can, from :func:`toricroots.lattice._basis_inverse`;
    the cone is full-dimensional, so there are n of them. The search reads
    W / D alone, so it visits the same nodes whichever D the cone stored. A
    root e is B^-1 y_B, y_B its pairings with those rays, so the roots are
    the integral e with y_rho = -1, each other y_b between 0 and its bound,
    and every other pairing >= 0: :func:`toricroots.lattice._search` lists
    them, sorted, over the lattice B Z^n of pairing vectors of integral e,
    with the proofs. It searches rho and the rays whose bound is 0 first,
    as their bounds are equal, then the others, so the fixed pairings give
    the first coordinates of its lattice search with no branching. Within
    one :func:`all_roots` call the cone of each -p_b is found once, and
    only for the rays some basis uses, and a basis with its inverse serves
    every ray in it.

    *Box.* A truncated enumeration searches the box with the same search,
    and no second double description: its rows are the rays, then the unit
    vectors u_i, then their opposites. The basis is p_rho and the first
    n - 1 unit vectors independent of it (p_rho is nonzero, so the unit
    vectors complete it to n independent rows), from
    :func:`toricroots.lattice._basis_inverse`; the pairing with p_rho is
    fixed at -1 and each basis u_i ranges over [-bound, bound]. The other
    rows are floors: <u_i, e> >= -bound and <-u_i, e> >= -bound hold every
    coordinate in the box, the one unit vector outside the basis
    included, and <p_i, e> >= 0 is condition (1) for the other rays. So
    the search lists exactly the integral e of the polyhedron in the box,
    sorted, and its leaves are among the (2 bound + 1)^(n - 1) values of
    the basis coordinates.
    """
    if not lattice.is_integer(ray) or not 0 <= ray < len(fan.rays):
        raise InvalidFan([f"no ray with index {ray}"])
    return _roots_for_ray(fan, ray, bound, _route(fan, bound))


def _route(fan: Fan, bound: int | None) -> tuple[dict, dict] | None:
    """What one roots_for_ray or all_roots call does first: refuse a bound
    that is not a positive int, then decide the route of every ray. The
    caches of the pairing search when the fan takes it (see
    :func:`roots_for_ray`), the cones that hold the -p_k and for each ray a
    basis inverse whose basis holds it; None for lattice._points."""
    if bound is not None and (not lattice.is_integer(bound) or bound < 1):
        raise BadParams("bound must be a positive integer")
    return ({}, {}) if fan._complete else None


def _roots_for_ray(fan: Fan, ray: int, bound: int | None,
                   search: tuple[dict, dict] | None) -> RayRoots:
    """roots_for_ray for a valid ray and bound. Condition (1) is the floors
    `lows` on the rays, -1 at the ray and 0 elsewhere, which every route
    reads: the pairing search with the caches `search`, or when it is None
    :func:`toricroots.lattice._points` with the ray's pairing also at most
    -1, and then the box search when the polyhedron is unbounded and there
    is a bound. Each listed e is paired once; off the pairing search,
    condition (2) filters the roots."""
    m, n = len(fan.rays), fan.dim
    lows = [-1 if j == ray else 0 for j in range(m)]
    status = "finite"
    if search is not None:
        vectors = _complete_roots(fan, ray, lows, *search)
    else:
        vectors = lattice._points([*fan.rays, neg(fan.rays[ray])], [*lows, 1], n)
        if vectors is UNBOUNDED:
            if bound is None:
                return RayRoots(ray, "infinite", ())
            status = "truncated"
            if min(2 * bound + 1, MAX_BOX_POINTS + 1) ** (n - 1) > MAX_BOX_POINTS:
                raise BadParams(f"bound {bound} is too large in dimension {n}: up to "
                                f"(2*bound+1)^{n - 1} points, more than {MAX_BOX_POINTS}")
            units = lattice.identity(n)
            rows = [*fan.rays, *units, *map(neg, units)]
            highs = {ray: -1, **dict.fromkeys(range(m, m + n), bound)}
            vectors = lattice._search(rows, lows + [-bound] * (2 * n), highs,
                                      lattice._basis_inverse(rows, (ray, *range(m, m + n)), n))
    roots = [DemazureRoot(e, ray, pairing_row(fan, e)) for e in vectors]
    if search is None:
        roots = [r for r in roots if _condition2(fan, r.pairings, ray)]
    return RayRoots(ray, status, tuple(roots), bound if status == "truncated" else None)


def all_roots(fan: Fan, bound: int | None = None) -> RootSet:
    search = _route(fan, bound)
    return RootSet(tuple(_roots_for_ray(fan, i, bound, search) for i in range(len(fan.rays))))


def _complete_roots(fan: Fan, ray: int, lows: list[int], opposite: dict,
                    inverses: dict) -> list[Vec]:
    """The roots of the ray on a fan certified complete, as vectors, sorted,
    `lows` the floors of condition (1); the proofs are in
    :func:`roots_for_ray`."""
    n, rays = fan.dim, fan.rays
    if ray not in inverses:
        cone = next(c for c in fan.max_cones if ray in c.ray_indices)
        inverse = _simplicial_inverse(cone, rays) or lattice._basis_inverse(
            rays, (ray, *sorted(cone.ray_indices, key=inverses.__contains__)), n)
        for b in inverse[0]:
            inverses.setdefault(b, inverse)
    highs = {b: lows[b] if b == ray else _top(fan, opposite, b, ray) for b in inverses[ray][0]}
    return lattice._search(rays, lows, highs, inverses[ray])


def _top(fan: Fan, opposite: dict, b: int, ray: int) -> int:
    """The bound of :func:`roots_for_ray` on <p_b, e> over the roots e of
    the ray, b != ray, read off the cone of -p_b that :func:`_decompose`
    gives, once per b: `opposite` keeps it."""
    if b not in opposite:
        opposite[b] = _decompose(fan, neg(fan.rays[b]))
    held, normals = opposite[b]
    p = fan.rays[ray]
    return min(v // c for a, v in normals if (c := sum(map(mul, a, p))) > 0) if ray in held else 0


def _decompose(fan: Fan, x: Vec) -> tuple[tuple[int, ...], list[tuple[Vec, int]]]:
    """A cone of the fan that holds x, as its ray indices S and pairs
    (a, <a, x>) for vectors a that are >= 0 on its rays: the first maximal
    cone whose stored inequalities hold x, with those inequalities, or
    ((j,), [(p_j, <p_j, p_j>)]) when x is the ray p_j. x must be in the
    support of the fan; the bounds read off the pairs are proved in
    :func:`roots_for_ray`."""
    if x in fan.rays:
        return (fan.rays.index(x),), [(x, sum(map(mul, x, x)))]
    cone = next((c for c in fan.max_cones if c.contains(x)), None)
    if cone is None:
        raise InternalError(f"{list(x)} lies in no maximal cone of a complete fan")
    return cone.ray_indices, [(a, sum(map(mul, a, x))) for a in cone.inequalities]


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
    zero there, and sigma1 the facet of sigma2 cut out by <., e> = 0, in the
    order of ``fan.all_faces``.

    The zero cone counts as the facet of a ray. The values of e on the rays
    are read off the root's stored pairing row, so the root must satisfy
    condition (1) for its ray rho on this fan's rays: <p_rho, e> = -1 and
    e >= 0 on every other ray. Then e <= 0 on sigma2 and e not identically
    zero there say exactly that sigma2 has rho and e vanishes on its other
    rays, and sigma1 is the cone of those. It is a face of sigma2, cut out
    by -e >= 0, so a cone of the fan, and a facet: e vanishes on the span
    of sigma1 but not on p_rho, so p_rho is not in that span.
    """
    ray, row = root.ray, root.pairings
    return tuple((fan.cone([i for i in c.ray_indices if i != ray]), c) for c in fan.all_faces
                 if ray in c.ray_indices and not any(row[i] for i in c.ray_indices if i != ray))
