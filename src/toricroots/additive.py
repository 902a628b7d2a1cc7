"""Existence of additive actions: complete collections and their equivalence.

A complete collection is a set of n Demazure roots pairing with their
distinguished ray generators as -identity; such collections classify the
torus-normalized actions of the n-dimensional vector group, and on complete
fans their existence also settles the non-normalized question. Each one
is read off the basis inverse that a unimodular maximal cone stores
(:func:`toricroots.fan._simplicial_inverse`), and a witness of equivalence
is checked with the transpose of its matrix: neither inverts a matrix.
"""

from __future__ import annotations

from . import lattice
from .demazure import DemazureRoot, _root, all_roots
from .errors import (DimensionMismatch, InfiniteRoots, NoWitness, NotComplete, NotSquare,
                     NotUnimodular)
from .fan import Fan, LatticeAutomorphism, _ray_permutation, _simplicial_inverse, is_complete
from .lattice import Mat, Value, Vec, neg


class CompleteCollection(Value):
    """n roots e_1..e_n with <p_i, e_j> = -delta_ij; sorted by ray index."""

    __slots__ = _fields = ("roots",)

    @property
    def ray_indices(self) -> tuple[int, ...]:
        return tuple(r.ray for r in self.roots)

    @property
    def root_vectors(self) -> tuple[Vec, ...]:
        return tuple(r.vector for r in self.roots)

    def basis_matrix(self, fan: Fan) -> Mat:
        return tuple(fan.rays[i] for i in self.ray_indices)

    def pairing_matrix(self, fan: Fan) -> Mat:
        """<p_i, e_j>, read off the roots' stored pairing rows (the fan's rays)."""
        return tuple(tuple(r.pairings[i] for r in self.roots) for i in self.ray_indices)


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

    The dual basis is the inverse that the cone stores, with no elimination
    (:func:`toricroots.fan._simplicial_inverse`): a maximal cone with n
    rays and no equations is simplicial, and its inverse (basis, W, D) has
    D = 1 iff the cone is unimodular, when W is the inverse of its ray
    matrix, so W's columns are its dual basis, whichever D the cone stored
    (the proofs are there). So each cone costs one lookup and one test of
    D. Any other maximal cone is skipped: one with equations is not
    full-dimensional, and one with more than n rays is not a basis, so by
    the above neither holds a collection.

    A candidate (q, ray) recurs on every cone through the ray that has q in
    its dual basis, so each distinct one is checked once. The first call
    stores the collections on the fan (``Fan._collections``), and every
    later call, :func:`admits_additive` and :func:`theorem3con_report`
    included, returns the stored tuple without a scan.
    """
    if fan._collections is not None:
        return fan._collections
    out = []
    checked: dict[tuple[Vec, int], DemazureRoot | None] = {}
    for cone in fan.max_cones:
        inverse = _simplicial_inverse(cone, fan.rays)
        if inverse is None or inverse[2] != 1:
            continue
        roots = []
        for a, ray in zip(inverse[1], cone.ray_indices):
            if (a, ray) not in checked:
                checked[a, ray] = _root(fan, neg(a), ray)
            roots.append(checked[a, ray])
            if roots[-1] is None:
                break
        else:
            out.append(CompleteCollection(tuple(roots)))
    object.__setattr__(fan, "_collections", tuple(out))
    return fan._collections


class AdditiveDecision(Value):
    """Whether the fan admits a complete collection, the first one (or
    None), and whether the fan is complete."""

    __slots__ = _fields = ("admits", "witness", "fan_complete")

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

    Raises InfiniteRoots when a ray reads "infinite" and no bound was
    supplied. That is the status of the ray's condition-(1) polyhedron
    (non-empty and unbounded), not of its root set, which condition (2)
    may leave finite or empty (:func:`toricroots.demazure.roots_for_ray`).
    """
    roots = all_roots(fan, bound)
    if any(r.status == "infinite" for r in roots.per_ray):
        raise InfiniteRoots("some root set is infinite; pass a bound to truncate")
    vectors = [fan.rays[r.ray] for r in roots.per_ray if r.roots]
    if not vectors:
        return False
    return lattice.rank(vectors, fan.dim) == fan.dim


class EquivalenceWitness(Value):
    """A fan automorphism carrying one collection onto another: ``matrix``
    is gamma acting on N, with gamma(p_i) = p'_{pi(i)}, and ``ray_map``
    holds the pairs (i, pi(i))."""

    __slots__ = _fields = ("matrix", "ray_map")

    def automorphism(self) -> LatticeAutomorphism:
        return LatticeAutomorphism(self.matrix)


def verify_witness(fan: Fan, c1: CompleteCollection, c2: CompleteCollection,
                   witness: EquivalenceWitness) -> bool:
    """Check the witness: fan automorphism, ray bijection, and that the dual
    map carries the first root set onto the second.

    Building the automorphism checks that g is unimodular (one
    elimination, the determinant), so the dual map g^-T is a bijection of
    M. It carries c1's roots onto c2's iff g^T carries c2's roots onto
    c1's, which is what is checked: no inverse is computed. A matrix that
    is not a tuple or list of tuples or lists of ints, not square, not
    unimodular or not of the fan's dimension is no witness, nor is a ray
    map that is not a tuple or list, or has a pair that is not two ints
    (bools excluded) in range(len(fan.rays)), or is not a bijection of
    c1's rays onto c2's: its first entries must be c1's rays and its
    second entries c2's, each once. False for each.
    """
    try:
        perm = _ray_permutation(fan, witness.automorphism())
    except (DimensionMismatch, NotSquare, NotUnimodular):
        return False
    pairs = witness.ray_map
    if perm is None or not isinstance(pairs, (tuple, list)) or not all(
            _maps_ray(pair, perm) for pair in pairs):
        return False
    if any(sorted(q[k] for q in pairs) != sorted(c.ray_indices) for k, c in enumerate((c1, c2))):
        return False
    pullback = lattice.transpose(witness.matrix)
    image = {lattice.mat_vec(pullback, e) for e in c2.root_vectors}
    return image == set(c1.root_vectors)


def _maps_ray(pair, perm: list[int]) -> bool:
    """Whether pair is (i, perm[i]), two ints (bools excluded) with i an
    index of perm."""
    return (isinstance(pair, tuple) and len(pair) == 2 and all(map(lattice.is_integer, pair))
            and 0 <= pair[0] < len(perm) and perm[pair[0]] == pair[1])


def find_equivalence(fan: Fan, c1: CompleteCollection,
                     c2: CompleteCollection) -> EquivalenceWitness:
    """Search ray bijections for an automorphism mapping c1 onto c2.

    The automorphism is solved exactly from gamma(p_i) = p'_{pi(i)} over the
    unimodular basis P_1 of c1. No elimination is needed: c1's roots are
    the negated dual basis of P_1, so P_1^-1 is the matrix whose columns are
    the negated roots. Each candidate is then verified unconditionally, so a
    c1 whose roots are not that dual basis yields no witness. A witness
    always exists for two complete collections of the same fan, so failure
    raises NoWitness loudly. The candidates are the ray orders of
    :func:`_ray_orders`: those of ``itertools.permutations(c2.ray_indices)``
    that no pairing row rules out, in that order, so the first witness is
    the first one in permutation order.
    """
    rays1 = c1.ray_indices
    p1_inv = lattice.transpose(tuple(neg(e) for e in c1.root_vectors))
    for perm in _ray_orders(fan, c1, c2):
        p2 = tuple(fan.rays[j] for j in perm)
        gamma = lattice.transpose(lattice.mat_mul(p1_inv, p2))
        witness = EquivalenceWitness(gamma, tuple(zip(rays1, perm)))
        if verify_witness(fan, c1, c2, witness):
            return witness
    raise NoWitness(
        f"no automorphism maps collection {rays1} onto {c2.ray_indices}; "
        "this contradicts uniqueness of normalized actions and means the "
        "input fan or the collections are corrupt")


def _ray_orders(fan: Fan, c1: CompleteCollection, c2: CompleteCollection):
    """The orders pi of c2's rays that the roots' pairing rows allow, in
    ``itertools.permutations`` order, so c2's own order comes first if it
    is allowed.

    A witness gamma with gamma(p_i) = p'_pi(i) permutes the fan's rays, and
    its dual map gamma^-T carries c1's root e_i to e'_pi(i), c2's root of
    the ray p'_pi(i): both collections are the negated dual bases of their
    rays. So <gamma(rho), e'_pi(i)> = <rho, e_i> for every ray rho, and for
    each k the rays' rows (<rho, e_1>, .., <rho, e_k>) and
    (<rho, e'_pi(1)>, .., <rho, e'_pi(k)>) are the same multiset. Orders
    are assigned one position at a time, trying c2's rays in their own
    order, and a prefix whose multisets differ is cut with every order that
    extends it: it belongs to no witness. The rows are the roots' stored
    ``pairings``, extended by one root per position.
    """
    wanted, rows = [], [()] * len(fan.rays)
    for root in c1.roots:
        rows = [row + (v,) for row, v in zip(rows, root.pairings)]
        wanted.append(sorted(rows))
    pairings = {root.ray: root.pairings for root in c2.roots}

    def extend(prefix, rows):
        k = len(prefix)
        if k == len(wanted):
            yield prefix
            return
        for j in c2.ray_indices:
            if j not in prefix:
                longer = [row + (v,) for row, v in zip(rows, pairings[j])]
                if sorted(longer) == wanted[k]:
                    yield from extend(prefix + (j,), longer)

    return extend((), [()] * len(fan.rays))


class ThreeConReport(Value):
    """The two decidable flags of a complete fan: a complete collection
    exists, and the distinguished rays of its roots span N_Q."""

    __slots__ = _fields = ("complete_collection_exists", "distinguished_span")


def theorem3con_report(fan: Fan) -> ThreeConReport:
    """The two decidable flags; on complete fans they must agree."""
    if not is_complete(fan):
        raise NotComplete("the report is only defined for complete fans")
    return ThreeConReport(
        complete_collection_exists=bool(complete_collections(fan)),
        distinguished_span=condition4_distinguished_span(fan),
    )
