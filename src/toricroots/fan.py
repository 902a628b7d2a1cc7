"""Rational polyhedral fans: validation, completeness, automorphisms, builtins.

The lattice N is identified with Z^n and its dual M with Z^n via the standard
dot pairing. Cones are stored by indices into the fan's ray list together
with an exact dual description (facet inequalities plus span equations), so
non-simplicial cones are supported throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import gcd

from . import lattice
from .errors import (
    BadParams,
    DimensionMismatch,
    InternalError,
    InvalidFan,
    NotStronglyConvex,
    NotUnimodular,
)
from .lattice import Mat, Vec, dot, is_zero, neg, primitive, vec

_COVERAGE_SEED = 0x5EED
_COVERAGE_SAMPLES = 200


@dataclass(frozen=True)
class Cone:
    """A cone of a fan: generating ray indices plus its dual description."""

    ray_indices: tuple[int, ...]
    inequalities: tuple[Vec, ...]
    equations: tuple[Vec, ...]
    dim: int

    def contains(self, v: Vec) -> bool:
        return (all(dot(a, v) >= 0 for a in self.inequalities)
                and all(dot(a, v) == 0 for a in self.equations))


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

    def cone(self, ray_indices) -> Cone:
        key = tuple(sorted(ray_indices))
        for c in self.all_faces:
            if c.ray_indices == key:
                return c
        raise KeyError(f"no cone with rays {key}")

    def contains_point(self, v: Vec) -> bool:
        return any(c.contains(v) for c in self.max_cones)


# ---------------------------------------------------------------------------
# dual descriptions


@lru_cache(maxsize=None)
def _dual_description(gens: tuple[Vec, ...], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(inequalities, equations) cutting out cone(gens), exactly.

    The facet normals are the extreme rays of the dual cone, found by the
    double description. For a cone of lower dimension d, the Smith form V
    of the generator matrix gives coordinates on the saturated span (its
    first d columns) to find them in, and the span equations (the rest).
    Works for non-pointed cones too.
    """
    if not gens:
        return (), _canonical_rows(lattice.identity(dim))
    normals = lattice.dual_rays(gens, dim)
    if normals is not None:  # full-dimensional: no change of coordinates
        return normals, ()
    _, d_mat, v = lattice.smith_normal_form(gens)
    d = sum(1 for j in range(min(len(gens), dim)) if d_mat[j][j] != 0)
    cols = lattice.transpose(v)
    coords = [tuple(dot(g, col) for col in cols[:d]) for g in gens]
    normals = lattice.dual_rays(coords, d)
    inequalities = tuple(sorted(tuple(sum(v[t][j] * w[j] for j in range(d)) for t in range(dim))
                                for w in normals))
    return inequalities, _canonical_rows(cols[d:])


def _canonical_rows(rows) -> tuple[Vec, ...]:
    out = []
    for row in rows:
        row = tuple(row)
        nz = next((x for x in row if x != 0), 0)
        out.append(neg(row) if nz < 0 else row)
    return tuple(sorted(out))


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
    if lattice.rank(ineqs + eqs, dim) < dim:
        raise NotStronglyConvex("cone contains a line")
    return ineqs, eqs


@lru_cache(maxsize=None)
def _minimal_rays(gens: tuple[Vec, ...], dim: int):
    """Primitive extreme-ray generators of cone(gens), or None if not pointed."""
    ineqs, eqs = _dual_description(gens, dim)
    if lattice.rank(ineqs + eqs, dim) < dim:
        return None
    prim = sorted({primitive(g) for g in gens if not is_zero(g)})
    out = []
    for g in prim:
        active = list(eqs) + [a for a in ineqs if dot(a, g) == 0]
        if lattice.rank(active, dim) == dim - 1:
            out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def _cone_face_sets(cone: Cone, rays: tuple[Vec, ...]) -> tuple[tuple[int, ...], ...]:
    """Ray-index sets of all faces of `cone` (every face is an intersection
    of facets, so subsets of the facet normals enumerate them all)."""
    found = {cone.ray_indices}
    for k in range(1, len(cone.inequalities) + 1):
        for subset in combinations(cone.inequalities, k):
            facial = tuple(i for i in cone.ray_indices
                           if all(dot(a, rays[i]) == 0 for a in subset))
            found.add(facial)
    return tuple(sorted(found, key=lambda s: (len(s), s)))


def _intersection_rays(gens: tuple[Vec, ...], c1: Cone, c2: Cone) -> tuple[Vec, ...]:
    """Primitive extreme rays of the intersection of two pointed cones:
    c1's rays `gens` cut by c2's inequalities and by its equations in both signs."""
    cuts = c2.inequalities + c2.equations + tuple(neg(e) for e in c2.equations)
    return lattice.cut_cone(gens, c1.inequalities, cuts)


# ---------------------------------------------------------------------------
# construction and validation


def _make_cone(idx: tuple[int, ...], rays: tuple[Vec, ...], dim: int) -> Cone:
    gens = tuple(rays[i] for i in idx)
    ineqs, eqs = _dual_description(gens, dim)
    cdim = dim - lattice.rank(eqs, dim) if eqs else dim
    return Cone(idx, ineqs, eqs, cdim)


def validate_fan(dim, rays, max_cones, allow_nonprimitive: bool = False) -> list[str]:
    """Check fan data; return a list of human-readable violations (empty = ok)."""
    violations: list[str] = []
    if not lattice.is_integer(dim):
        return ["dim must be an integer"]
    if dim < 1:
        return ["dim must be positive"]
    if not isinstance(max_cones, (list, tuple)):
        return ["max_cones must be a list"]
    try:
        rays = tuple(vec(r) for r in rays)
    except TypeError as exc:
        return [f"bad ray data: {exc}"]
    for i, r in enumerate(rays):
        if len(r) != dim:
            violations.append(f"ray {i} has dimension {len(r)}, expected {dim}")
        elif is_zero(r):
            violations.append(f"ray {i} is the zero vector")
        elif not allow_nonprimitive and not lattice.is_primitive(r):
            violations.append(f"ray {i} = {list(r)} is not primitive")
    if violations:
        return violations
    if len(set(rays)) != len(rays):
        violations.append("rays are not pairwise distinct")
    prims = [primitive(r) for r in rays]
    if len(set(prims)) != len(prims):
        violations.append("two rays lie on the same half-line")
    cones = []
    for k, c in enumerate(max_cones):
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
        return violations

    descs = {}
    for idx in cones:
        gens = tuple(rays[i] for i in idx)
        ineqs, eqs = _dual_description(gens, dim)
        descs[idx] = (ineqs, eqs)
        if idx and lattice.rank(ineqs + eqs, dim) < dim:
            violations.append(f"cone {list(idx)} is not strongly convex")
            continue
        minimal = _minimal_rays(gens, dim) if idx else ()
        if idx and set(minimal) != {primitive(g) for g in gens}:
            violations.append(f"cone {list(idx)}: listed rays are not its minimal generators")
    if violations:
        return violations

    prim_index = {primitive(r): i for i, r in enumerate(rays)}
    cone_of = {idx: Cone(idx, *descs[idx], dim=0) for idx in cones}  # dim unused here
    face_sets = {idx: set(_cone_face_sets(c, rays)) for idx, c in cone_of.items()}
    for a, b in combinations(cones, 2):
        gens = tuple(sorted({prims[i] for i in a}))
        meet = _intersection_rays(gens, cone_of[a], cone_of[b])
        try:
            meet_idx = tuple(sorted(prim_index[r] for r in meet))
        except KeyError:
            violations.append(
                f"intersection of cones {list(a)} and {list(b)} is not a face of both")
            continue
        if meet_idx not in face_sets[a] or meet_idx not in face_sets[b]:
            violations.append(
                f"intersection of cones {list(a)} and {list(b)} is not a face of both")
        elif meet_idx in (a, b) and a != b:
            violations.append(
                f"maximal cone {list(meet_idx)} is contained in another maximal cone")
    return violations


def build_fan(dim, rays, max_cones, allow_nonprimitive: bool = False) -> Fan:
    """Validate and assemble a Fan, deriving the full (deduplicated) face list."""
    violations = validate_fan(dim, rays, max_cones, allow_nonprimitive)
    if violations:
        raise InvalidFan(violations)
    rays = tuple(vec(r) for r in rays)
    idx_sets = sorted(tuple(sorted(set(c))) for c in max_cones)
    if not idx_sets:
        idx_sets = [()]
    maxc = tuple(_make_cone(idx, rays, dim) for idx in idx_sets)
    face_idx = set()
    for c in maxc:
        face_idx.update(_cone_face_sets(c, rays))
    face_idx.add(())
    faces = tuple(_make_cone(idx, rays, dim)
                  for idx in sorted(face_idx, key=lambda s: (len(s), s)))
    return Fan(dim, rays, maxc, faces, frozenset(face_idx))


# ---------------------------------------------------------------------------
# completeness


def is_complete(fan: Fan) -> bool:
    """True iff the support of the fan is all of N_Q.

    Criterion: all maximal cones full-dimensional, every ridge shared by
    exactly two maximal cones, facet-adjacency graph connected. A seeded
    random direction-coverage check cross-validates positive answers.
    """
    if not fan.max_cones or any(c.dim != fan.dim for c in fan.max_cones):
        return False
    ridge_owners: dict[tuple[int, ...], list[int]] = {}
    for k, c in enumerate(fan.max_cones):
        for fs in _cone_face_sets(c, fan.rays):
            face = fan.cone(fs)
            if face.dim == fan.dim - 1:
                ridge_owners.setdefault(fs, []).append(k)
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
    if len(seen) != len(fan.max_cones):
        return False
    rng = random.Random(_COVERAGE_SEED)
    for _ in range(_COVERAGE_SAMPLES):
        v = tuple(rng.randint(-9, 9) for _ in range(fan.dim))
        if is_zero(v):
            continue
        if not fan.contains_point(v):
            raise InternalError(f"complete fan fails to cover direction {v}")
    return True


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
