"""Demazure roots of a fan, their Cox-ring derivations, and orbit pairs.

A root is a lattice vector e pairing to -1 with exactly one ray generator
(its distinguished ray) and nonnegatively with every other, such that for
every cone on which e vanishes, the cone spanned together with the
distinguished ray is again in the fan. The second condition is implied by
the first on fans with convex support (Demazure 1970 defines the roots of a
complete fan by the first alone), but no branch depends on that.

Given the first condition, the second is local to the maximal cones: for
each maximal cone C not containing the distinguished ray rho, the face of C
on which e vanishes, spanned together with rho, must be a cone of the fan
(the proof is in :func:`satisfies_condition2`). Each test is a lookup in
the fan's face index, by the lemma in :mod:`toricroots.fan`: a ray of a
fan that lies in a cone tau of the fan is one of tau's rays, so
cone(sigma + rho) is a cone of the fan iff the ray-index set of sigma plus
rho is in ``fan.face_sets``.
"""

from __future__ import annotations

from . import lattice
from .errors import InternalError, InvalidFan
from .fan import Cone, Fan
from .lattice import UNBOUNDED, Constraint, Value, Vec, dot


class DemazureRoot(Value):
    """A root e with its distinguished ray index and cached pairing row."""

    __slots__ = _fields = ("vector", "ray", "pairings")

    def __init__(self, vector: Vec, ray: int, pairings: Vec):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "ray", ray)
        object.__setattr__(self, "pairings", pairings)  # <p_rho', e> over all rays, in ray order


class RayRoots(Value):
    """Roots attached to one ray: a finite list, or an infinite/truncated marker."""

    __slots__ = _fields = ("ray", "status", "roots", "bound")

    def __init__(self, ray: int, status: str, roots: tuple[DemazureRoot, ...],
                 bound: int | None = None):
        object.__setattr__(self, "ray", ray)
        object.__setattr__(self, "status", status)  # "finite" | "infinite" | "truncated"
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "bound", bound)


class RootSet(Value):
    __slots__ = _fields = ("per_ray",)

    def __init__(self, per_ray: tuple[RayRoots, ...]):
        object.__setattr__(self, "per_ray", per_ray)

    @property
    def finite(self) -> bool:
        return all(r.status == "finite" for r in self.per_ray)

    def roots(self) -> tuple[DemazureRoot, ...]:
        return tuple(r for ray in self.per_ray for r in ray.roots)


def pairing_row(fan: Fan, e: Vec) -> Vec:
    return tuple(dot(p, e) for p in fan.rays)


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
    """
    row = pairing_row(fan, e)
    if not _condition1(row, ray):
        raise ValueError(f"{list(e)} does not satisfy condition (1) for ray {ray}")
    return _condition2(fan, row, ray)


def _condition2(fan: Fan, row: Vec, ray: int) -> bool:
    return all(tuple(sorted([ray, *(i for i in c.ray_indices if row[i] == 0)])) in fan.face_sets
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
    """Roots with the given distinguished ray.

    The roots are the lattice points of the condition-(1) polyhedron that
    satisfy condition (2). "infinite" means that polyhedron is non-empty and
    unbounded; then a supplied bound gives a "truncated" enumeration of its
    points with sup-norm <= bound. An empty polyhedron is "finite" with no
    roots. Complete fans always land in the "finite" case.
    """
    if not 0 <= ray < len(fan.rays):
        raise InvalidFan([f"no ray with index {ray}"])
    if bound is not None and bound < 1:
        raise ValueError("bound must be a positive integer")
    system = _condition1_system(fan, ray)
    points = lattice.lattice_points(system, fan.dim)
    status = "finite"
    if points is UNBOUNDED:
        if bound is None:
            return RayRoots(ray, "infinite", ())
        status = "truncated"
        unit = [tuple(int(i == j) for j in range(fan.dim)) for i in range(fan.dim)]
        for u in unit:
            system.append(Constraint(u, ">=", -bound))
            system.append(Constraint(tuple(-x for x in u), ">=", -bound))
        points = lattice.lattice_points(system, fan.dim)
        if points is UNBOUNDED:
            raise InternalError(f"root polyhedron of ray {ray} is unbounded inside a box")
    roots = tuple(r for r in (_root(fan, e, ray) for e in points) if r is not None)
    return RayRoots(ray, status, roots, bound if status == "truncated" else None)


def all_roots(fan: Fan, bound: int | None = None) -> RootSet:
    return RootSet(tuple(roots_for_ray(fan, i, bound) for i in range(len(fan.rays))))


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
    """monomial * d/dx_target, the monomial given by per-variable exponents."""

    __slots__ = _fields = ("target", "exponents")

    def __init__(self, target: int, exponents: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "exponents", exponents)  # (variable index, power), target omitted

    @property
    def num_vars(self) -> int:
        return len(self.exponents) + 1


def derivation(fan: Fan, root: DemazureRoot) -> CoxDerivation:
    expo = tuple((i, root.pairings[i]) for i in range(len(fan.rays)) if i != root.ray)
    return CoxDerivation(root.ray, expo)


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

    The zero cone counts as the facet of a ray.
    """
    e = root.vector
    out = []
    for c2 in fan.all_faces:
        vals = [dot(fan.rays[i], e) for i in c2.ray_indices]
        if not vals or any(v > 0 for v in vals) or all(v == 0 for v in vals):
            continue
        sub = tuple(i for i, v in zip(c2.ray_indices, vals) if v == 0)
        c1 = fan.cone(sub)
        if c1.dim == c2.dim - 1:
            out.append((c1, c2))
    return tuple(out)
