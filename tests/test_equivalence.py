"""Fan automorphisms and equivalence witnesses against the routines they
replaced.

``fan.is_fan_automorphism`` looks each maximal cone's image up in the face
index; ``oracles.cone_set_is_fan_automorphism`` tests it against a set of
the maximal cones built per call. ``additive.find_equivalence`` tries only
the ray orders that the roots' pairing rows allow;
``oracles.permutation_find_equivalence`` tries every permutation. The fans
are those of ``test_faces.fans_to_check`` (lower-dimensional fans included)
for the automorphisms, those of ``test_dual_normals.corpus`` (builtin fans,
GL_n(Z) images, subfans and an orthant, each also with shuffled rays) for
the witnesses, and the shuffled product fans of ``helpers``.
"""

import random
from itertools import permutations, product

import pytest

import oracles
from helpers import shuffled_products
from test_cli import counting
from test_dual_normals import corpus
from test_faces import fans_to_check
from test_kernel import random_unimodular
from toricroots import (
    LatticeAutomorphism,
    complete_collections,
    find_equivalence,
    is_fan_automorphism,
)
from toricroots import additive


def signed_permutations(dim):
    for perm in permutations(range(dim)):
        for signs in product((1, -1), repeat=dim):
            yield tuple(tuple(signs[i] * (perm[i] == j) for j in range(dim))
                        for i in range(dim))


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_automorphisms_match_the_cone_set_check(dim):
    """Every signed permutation matrix and 20 random GL_n(Z) matrices per
    fan; both answers occur."""
    rng = random.Random(2200 + dim)
    seen = set()
    for fan in fans_to_check(dim):
        matrices = [*signed_permutations(dim), *(random_unimodular(rng, dim) for _ in range(20))]
        for m in matrices:
            g = LatticeAutomorphism(m)
            want = oracles.cone_set_is_fan_automorphism(fan, g)
            assert is_fan_automorphism(fan, g) == want, (fan.rays, m)
            seen.add(want)
    assert seen == {True, False}


def witnesses(fan, search):
    cols = complete_collections(fan)
    return [search(fan, cols[0], c) for c in cols[1:]]


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
def test_witnesses_match_the_permutation_search(dim):
    found = 0
    for fan in corpus(dim):
        got = witnesses(fan, find_equivalence)
        assert got == witnesses(fan, oracles.permutation_find_equivalence), fan.rays
        found += len(got)
    assert found


def test_witnesses_on_a_shuffled_product_match_the_permutation_search():
    """F_1 x F_2 x F_3 x P^1 with shuffled rays: the permutation search
    makes 8,607 witness checks for its 15 witnesses."""
    fan = shuffled_products()["F1xF2xF3xP1"]
    got = witnesses(fan, find_equivalence)
    assert len(got) == 15 and got == witnesses(fan, oracles.permutation_find_equivalence)


@pytest.mark.parametrize("name, count", [("F1xF2xF3xP1", 16), ("P2xP2xP1xP1xF1", 72),
                                         ("F1xF2xF3xF4xP1", 32)])
def test_at_most_two_witness_checks_per_witness(name, count, monkeypatch):
    """A product has the products of its factors' collections (2 for each
    F_a and P^1, 3 for P^2). The pairing rows cut every ray order but a few
    before it is verified, where the permutation search made 8,607 checks
    in dim 7 and ran past 20 s in dim 9."""
    fan = shuffled_products()[name]
    checks = counting(monkeypatch, additive, "verify_witness")
    assert len(witnesses(fan, find_equivalence)) == count - 1
    assert len(checks) <= 2 * (count - 1)
