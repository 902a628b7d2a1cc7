"""Complete collections, the additive-action decision, equivalence witnesses."""

import pytest

from helpers import bundled_complete_fans, quadrant_fan, random_complete_fans_2d
from toricroots import (
    admits_additive,
    commute,
    complete_collections,
    condition4_distinguished_span,
    find_equivalence,
    hirzebruch,
    p235_model,
    product_p1,
    projective_space,
    theorem3con_report,
    verify_witness,
    wps_one,
)
from toricroots.additive import EquivalenceWitness
from toricroots.errors import InfiniteRoots, NotComplete
from toricroots.lattice import invert_unimodular, mat_mul, mat_vec


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("d", range(1, 6))
def test_hirzebruch_collections(d):
    fan = hirzebruch(d)
    cols = complete_collections(fan)
    assert [set(c.root_vectors) for c in cols] == [{(-1, 0), (0, 1)}, {(1, 0), (d, 1)}]
    assert [c.ray_indices for c in cols] == [(0, 3), (2, 3)]


def test_p2_collections():
    fan = projective_space(2)
    cols = complete_collections(fan)
    assert len(cols) == 3
    assert [c.ray_indices for c in cols] == [(0, 1), (0, 2), (1, 2)]
    by_rays = {c.ray_indices: set(c.root_vectors) for c in cols}
    # rays {(1,0), (-1,-1)} force the roots {(-1,1), (0,1)}
    assert by_rays[(0, 2)] == {(-1, 1), (0, 1)}


def test_p235_has_no_collections():
    assert complete_collections(p235_model()) == ()


def test_collection_pairing_matrix():
    for name, fan in bundled_complete_fans():
        for c in complete_collections(fan):
            n = fan.dim
            expected = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
            assert c.pairing_matrix(fan) == expected, name
            for a in c.roots:
                for b in c.roots:
                    assert commute(a, b), name


def test_nonbasis_rays_have_nonpositive_coordinates():
    for name, fan in bundled_complete_fans():
        for c in complete_collections(fan):
            inv = invert_unimodular(c.basis_matrix(fan))
            for i, ray in enumerate(fan.rays):
                if i in c.ray_indices:
                    continue
                coords = mat_vec(tuple(zip(*inv)), ray)  # solve x * basis = ray
                assert all(x <= 0 for x in coords), (name, ray, coords)


# ---------------------------------------------------------------------------
# decision


def test_admits_additive_examples():
    for weights in [(2,), (2, 3), (1, 2, 3)]:
        decision = admits_additive(wps_one(*weights))
        assert decision.admits and decision.reading == "additive"
    assert admits_additive(projective_space(3)).admits
    decision = admits_additive(p235_model())
    assert not decision.admits and decision.witness is None


def test_admits_additive_reading_on_affine_fan():
    decision = admits_additive(quadrant_fan())
    assert decision.admits and decision.reading == "normalized_additive"


def test_condition4_examples():
    assert condition4_distinguished_span(projective_space(2))
    assert not condition4_distinguished_span(p235_model())
    assert condition4_distinguished_span(product_p1(2))


def test_condition4_infinite_roots():
    with pytest.raises(InfiniteRoots):
        condition4_distinguished_span(quadrant_fan())
    assert condition4_distinguished_span(quadrant_fan(), bound=2)


def test_theorem3con_report():
    report = theorem3con_report(projective_space(2))
    assert (report.complete_collection_exists, report.distinguished_span) == (True, True)
    report = theorem3con_report(p235_model())
    assert (report.complete_collection_exists, report.distinguished_span) == (False, False)
    report = theorem3con_report(hirzebruch(3))
    assert (report.complete_collection_exists, report.distinguished_span) == (True, True)
    with pytest.raises(NotComplete):
        theorem3con_report(quadrant_fan())


def test_flags_agree_on_random_complete_fans():
    for fan in random_complete_fans_2d(seed=5, count=40):
        report = theorem3con_report(fan)
        assert report.complete_collection_exists == report.distinguished_span


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("d", range(1, 6))
def test_hirzebruch_witness_matrix(d):
    fan = hirzebruch(d)
    c1, c2 = complete_collections(fan)
    w = find_equivalence(fan, c1, c2)
    assert w.matrix == ((-1, 0), (d, 1))
    assert verify_witness(fan, c1, c2, w)
    # the witness swaps (1,0) <-> (-1,d) and fixes (0,1), (0,-1)
    g = w.automorphism()
    assert g.apply((1, 0)) == (-1, d)
    assert g.apply((-1, d)) == (1, 0)
    assert g.apply((0, 1)) == (0, 1)
    assert g.apply((0, -1)) == (0, -1)


@pytest.mark.parametrize("matrix", [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),  # square and unimodular, but of dim 3
    ((1,),),
    (),
    ((1, 0), (0, 1), (0, 0)),  # not square
    ((2, 0), (0, 1)),  # not unimodular
    ((1.0, 0), (0, 1)),  # the identity, with a float entry
    ((1, 0), (0, True)),  # the identity, with a bool entry
])
def test_a_witness_that_is_no_automorphism_of_the_fan_is_refused(matrix):
    """verify_witness returns False, and raises nothing, for a matrix of
    the wrong dimension, as for one that is not square, not unimodular or
    has an entry that is not an int."""
    fan = projective_space(2)
    c = complete_collections(fan)[0]
    w = EquivalenceWitness(matrix, ((0, 0), (1, 1)))
    assert verify_witness(fan, c, c, w) is False


def test_identity_witness():
    fan = projective_space(2)
    c = complete_collections(fan)[0]
    w = find_equivalence(fan, c, c)
    assert w.matrix == ((1, 0), (0, 1))
    assert verify_witness(fan, c, c, w)


def test_p2_witness_between_ray_pairs():
    fan = projective_space(2)
    cols = {c.ray_indices: c for c in complete_collections(fan)}
    w = find_equivalence(fan, cols[(0, 1)], cols[(0, 2)])
    assert w.matrix == ((1, -1), (0, -1))
    assert verify_witness(fan, cols[(0, 1)], cols[(0, 2)], w)


def test_all_collection_pairs_equivalent():
    for name, fan in bundled_complete_fans():
        cols = complete_collections(fan)
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                w = find_equivalence(fan, cols[i], cols[j])
                assert verify_witness(fan, cols[i], cols[j], w), name


def test_witness_composition_on_p2():
    fan = projective_space(2)
    c1, c2, c3 = complete_collections(fan)
    w12 = find_equivalence(fan, c1, c2)
    w23 = find_equivalence(fan, c2, c3)
    composed = mat_mul(w23.matrix, w12.matrix)
    from toricroots.additive import EquivalenceWitness

    ray_map = dict(w23.ray_map)
    chained = tuple((i, ray_map[j]) for i, j in w12.ray_map)
    assert verify_witness(fan, c1, c3, EquivalenceWitness(composed, chained))


def test_verify_witness_rejects_bad_matrices_and_lets_other_errors_through(monkeypatch):
    """A matrix that is not square or not unimodular is not a witness; any
    other error raised while checking it is not an answer and propagates."""
    from toricroots import lattice
    from toricroots.additive import EquivalenceWitness
    from toricroots.errors import InternalError

    fan = projective_space(2)
    c1, c2, _ = complete_collections(fan)
    w = find_equivalence(fan, c1, c2)
    assert not verify_witness(fan, c1, c2, EquivalenceWitness(((1, 0),), w.ray_map))
    assert not verify_witness(fan, c1, c2, EquivalenceWitness(((2, 0), (0, 1)), w.ray_map))

    def broken(m):
        raise InternalError("determinant failed")

    monkeypatch.setattr(lattice, "determinant", broken)
    with pytest.raises(InternalError, match="determinant failed"):
        verify_witness(fan, c1, c2, w)


@pytest.mark.parametrize("ray_map", [((5, 0),), ((0, 5),), ((-3, 0),), ((0, -3),),
                                     ((False, 0),), ((0, False),), ((True, 1),), ((0.0, 0),),
                                     ((0, 0, 0),), ((0,),), (0,), ([0, 0],)])
def test_a_ray_map_pair_that_is_not_two_ray_indices_is_no_witness(ray_map):
    """With the identity matrix, a true automorphism of P^2, every pair of
    the ray map must be two ints (bools excluded) in range(3). An index out
    of range raised IndexError, and a negative index or a bool one read
    True, as it indexed the ray permutation."""
    from toricroots.additive import EquivalenceWitness

    fan = projective_space(2)
    c = complete_collections(fan)[0]
    identity = ((1, 0), (0, 1))
    assert verify_witness(fan, c, c, EquivalenceWitness(identity, ((0, 0), (1, 1))))
    assert verify_witness(fan, c, c, EquivalenceWitness(identity, ray_map)) is False


@pytest.mark.parametrize("matrix,ray_map", [
    (5, ((0, 0), (1, 1))), (None, ((0, 0), (1, 1))), ("ab", ((0, 0), (1, 1))),
    ((1, 0), ((0, 0), (1, 1))), (((1, 0), 5), ((0, 0), (1, 1))),
    (5, ()), (None, ()), (((1, 0), (0, 1)), None), (((1, 0), (0, 1)), 5),
    (((1, 0), (0, 1)), {(0, 0): 1, (1, 1): 1})])
def test_a_malformed_witness_is_no_witness(matrix, ray_map):
    """A matrix that is not a tuple or list of rows, or a ray map that is
    not a tuple or list, reads False: each raised TypeError."""
    from toricroots.additive import EquivalenceWitness

    fan = projective_space(2)
    c = complete_collections(fan)[0]
    assert verify_witness(fan, c, c, EquivalenceWitness(matrix, ray_map)) is False


def test_a_ray_map_that_is_not_a_bijection_of_the_collections_is_no_witness():
    """With the identity matrix on P^2, the ray map must pair each ray of
    the collection with itself, each once: a map with no pairs, with one
    pair or with one pair twice read True, as every pair it listed was
    right. The order of the pairs does not matter; swapping their images
    does, and so does a pair of rays outside the collection."""
    fan = projective_space(2)
    c = complete_collections(fan)[0]
    assert c.ray_indices == (0, 1)
    identity = ((1, 0), (0, 1))
    for ray_map in ((), ((0, 0),), ((0, 0), (0, 0)), ((0, 1), (1, 0)),
                    ((0, 0), (1, 1), (2, 2)), ((0, 0), (1, 1), (1, 1))):
        assert verify_witness(fan, c, c, EquivalenceWitness(identity, ray_map)) is False
    assert verify_witness(fan, c, c, EquivalenceWitness(identity, ((1, 1), (0, 0))))


def test_verify_witness_rejects_each_corruption():
    """One matrix that is not unimodular, one unimodular matrix that is not
    a fan automorphism, a true automorphism with a wrong ray map, and a
    true witness checked against the wrong collection: each is rejected."""
    from toricroots.additive import EquivalenceWitness

    fan = projective_space(2)
    c1, c2, c3 = complete_collections(fan)
    w = find_equivalence(fan, c1, c2)
    assert verify_witness(fan, c1, c2, w)
    (i, j), (k, l) = w.ray_map
    for bad in (EquivalenceWitness(((2, 0), (0, 1)), w.ray_map),
                EquivalenceWitness(((1, 1), (0, 1)), w.ray_map),
                EquivalenceWitness(w.matrix, ((i, l), (k, j)))):
        assert not verify_witness(fan, c1, c2, bad)
    assert not verify_witness(fan, c1, c3, w)


def test_equivalence_count_p1n():
    for n in range(1, 5):
        fan = product_p1(n)
        cols = complete_collections(fan)
        assert len(cols) == 2 ** n
        first = cols[0]
        for other in cols[1:]:
            w = find_equivalence(fan, first, other)
            assert verify_witness(fan, first, other, w)
