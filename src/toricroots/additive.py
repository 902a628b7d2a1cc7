"""Existence of additive actions: complete collections and their equivalence.

A complete collection is a set of n Demazure roots pairing with their
distinguished ray generators as -identity; such collections classify the
torus-normalized actions of the n-dimensional vector group, and on complete
fans their existence also settles the non-normalized question.
"""

from __future__ import annotations

from itertools import permutations

from . import lattice
from .demazure import DemazureRoot, _root, all_roots
from .errors import InfiniteRoots, NoWitness, NotComplete, NotSquare, NotUnimodular
from .fan import Fan, LatticeAutomorphism, is_complete, is_fan_automorphism
from .lattice import Mat, Value, Vec, dot, neg


class CompleteCollection(Value):
    """n roots e_1..e_n with <p_i, e_j> = -delta_ij; sorted by ray index."""

    __slots__ = _fields = ("roots",)

    def __init__(self, roots: tuple[DemazureRoot, ...]):
        object.__setattr__(self, "roots", roots)

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


def complete_collections(fan: Fan) -> tuple[CompleteCollection, ...]:
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
    """
    n = fan.dim
    out = []
    for cone in fan.max_cones:
        if len(cone.ray_indices) != n:
            continue
        try:
            dual = lattice.dual_basis([fan.rays[i] for i in cone.ray_indices])
        except NotUnimodular:
            continue
        roots = []
        for q, ray_idx in zip(dual, cone.ray_indices):
            roots.append(_root(fan, neg(q), ray_idx))
            if roots[-1] is None:
                break
        else:
            out.append(CompleteCollection(tuple(roots)))
    return tuple(out)


class AdditiveDecision(Value):
    __slots__ = _fields = ("admits", "witness", "fan_complete")

    def __init__(self, admits: bool, witness: CompleteCollection | None, fan_complete: bool):
        object.__setattr__(self, "admits", admits)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "fan_complete", fan_complete)

    @property
    def reading(self) -> str:
        """Which statement the answer decides for this fan.

        On complete fans a collection settles arbitrary additive actions;
        otherwise only the torus-normalized ones.
        """
        return "additive" if self.fan_complete else "normalized_additive"


def admits_additive(fan: Fan) -> AdditiveDecision:
    """Decide existence, returning the lexicographically first collection."""
    collections = complete_collections(fan)
    witness = collections[0] if collections else None
    return AdditiveDecision(bool(collections), witness, is_complete(fan))


def condition4_distinguished_span(fan: Fan, bound: int | None = None) -> bool:
    """Do distinguished ray generators of the roots span N_Q?

    Raises InfiniteRoots when a ray has an infinite root set and no bound
    was supplied.
    """
    roots = all_roots(fan, bound)
    if any(r.status == "infinite" for r in roots.per_ray):
        raise InfiniteRoots("some root set is infinite; pass a bound to truncate")
    vectors = [fan.rays[r.ray] for r in roots.per_ray if r.roots]
    if not vectors:
        return False
    return lattice.rank(vectors, fan.dim) == fan.dim


class EquivalenceWitness(Value):
    """A fan automorphism carrying one collection onto another."""

    __slots__ = _fields = ("matrix", "ray_map")

    def __init__(self, matrix: Mat, ray_map: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "matrix", matrix)  # gamma, acting on N; gamma(p_i) = p'_{pi(i)}
        object.__setattr__(self, "ray_map", ray_map)

    def automorphism(self) -> LatticeAutomorphism:
        return LatticeAutomorphism(self.matrix)


def verify_witness(fan: Fan, c1: CompleteCollection, c2: CompleteCollection,
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


def find_equivalence(fan: Fan, c1: CompleteCollection,
                     c2: CompleteCollection) -> EquivalenceWitness:
    """Search ray bijections for an automorphism mapping c1 onto c2.

    The automorphism is solved exactly from gamma(p_i) = p'_{pi(i)} over the
    unimodular basis of c1 and then verified unconditionally. A witness
    always exists for two complete collections of the same fan, so failure
    raises NoWitness loudly.
    """
    rays1 = c1.ray_indices
    p1_inv = lattice.invert_unimodular(c1.basis_matrix(fan))
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


class ThreeConReport(Value):
    __slots__ = _fields = ("complete_collection_exists", "distinguished_span")

    def __init__(self, complete_collection_exists: bool, distinguished_span: bool):
        object.__setattr__(self, "complete_collection_exists", complete_collection_exists)
        object.__setattr__(self, "distinguished_span", distinguished_span)


def theorem3con_report(fan: Fan) -> ThreeConReport:
    """The two decidable flags; on complete fans they must agree."""
    if not is_complete(fan):
        raise NotComplete("the report is only defined for complete fans")
    return ThreeConReport(
        complete_collection_exists=bool(complete_collections(fan)),
        distinguished_span=condition4_distinguished_span(fan),
    )
