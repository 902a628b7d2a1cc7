"""Dual bases read off the stored facet normals, against the inversions they
replaced.

``complete_collections`` reads each unimodular maximal cone's dual basis off
its facet normals, ``find_equivalence`` reads c1's inverse basis off its
roots, and ``verify_witness`` pulls c2's roots back by the transpose of the
witness. ``oracles.py`` keeps the maximal-cone scan through
``oracles.dual_basis`` and the witness check through the transposed inverse.
The fans are those of ``test_face_index.fans_in_dim`` in dimensions 2 to 6
(builtin fans, GL_n(Z) images, subfans, an orthant), each also with its rays
listed in a shuffled order.
"""

import functools
import random
from itertools import islice, permutations

import pytest

import oracles
from helpers import shuffled
from test_cli import counting
from test_face_index import fans_in_dim
from test_kernel import random_unimodular
from toricroots import (
    LatticeAutomorphism,
    apply_automorphism,
    build_fan,
    complete_collections,
    find_equivalence,
    p235_model,
    product_p1,
    projective_space,
    verify_witness,
    wps_one,
)
from toricroots import additive, lattice
from toricroots.additive import CompleteCollection, EquivalenceWitness
from toricroots.demazure import DemazureRoot, pairing_row
from toricroots.errors import NoWitness


@functools.lru_cache(maxsize=None)
def corpus(dim):
    """fans_in_dim and its fans with shuffled rays; built once per dim, as
    both comparisons read it."""
    rng = random.Random(1900 + dim)
    fans = fans_in_dim(dim, 700 + dim)
    return fans + [shuffled(fan, rng) for fan in fans]


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
def test_collections_match_the_dual_basis_scan(dim):
    counts = []
    for fan in corpus(dim):
        got = complete_collections(fan)
        assert got == oracles.dual_basis_collections(fan), fan.rays
        counts.append(len(got))
    assert 0 in counts and max(counts) >= 1


def test_a_cone_over_a_square_has_no_dual_basis(monkeypatch):
    """The cone over the unit square in Z^4 has 4 rays, but it is not
    full-dimensional: each of its normals pairs to 0 or 1 with every ray, so
    no normal singles out a ray. It is skipped before any root check."""
    rays = [(0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0)]
    fan = build_fan(4, rays, [(0, 1, 2, 3)])
    (cone,) = fan.max_cones
    assert len(cone.ray_indices) == 4 and cone.equations
    assert all(lattice.dot(a, p) in (0, 1) for a in cone.inequalities for p in rays)
    assert all(sum(lattice.dot(a, p) != 0 for a in cone.inequalities) == 2 for p in rays)
    assert oracles.dual_basis_collections(fan) == () == oracles.complete_collections(fan)
    checks = counting(monkeypatch, additive, "_root")
    assert complete_collections(fan) == () and checks == []


@pytest.mark.parametrize("fan", [wps_one(2, 4), p235_model(), wps_one(1, 2, 3)],
                         ids=["wps(2,4)", "p235", "wps(1,2,3)"])
def test_non_primitive_and_non_unimodular_cones(fan, monkeypatch):
    """wps(2, 4) has the non-primitive ray (-2, -4); the P(2,3,5) model has no
    unimodular cone; wps(1, 2, 3) has unimodular and non-unimodular ones. A
    cone that is not unimodular is skipped before any root check: every
    candidate checked pairs to -1 with its ray."""
    unimodular = [c.ray_indices for c in fan.max_cones
                  if abs(lattice.determinant([fan.rays[i] for i in c.ray_indices])) == 1]
    checks = counting(monkeypatch, additive, "_root")
    got = complete_collections(fan)
    assert got == oracles.dual_basis_collections(fan) == oracles.complete_collections(fan)
    assert len(got) <= len(unimodular) < len(fan.max_cones)
    assert all(lattice.dot(e, fan.rays[ray]) == -1 and any(ray in c for c in unimodular)
               for _, e, ray in checks)
    assert len(checks) <= fan.dim * len(unimodular)


def non_witnesses(fan, w, rng):
    """Matrices and ray maps near the witness w that mostly are not witnesses:
    random unimodular matrices, singular and non-square matrices, and the
    witness matrix with its ray map permuted."""
    n = fan.dim
    out = [EquivalenceWitness(random_unimodular(rng, n), w.ray_map) for _ in range(3)]
    singular = [list(row) for row in w.matrix]
    singular[-1] = list(singular[0])
    out.append(EquivalenceWitness(tuple(map(tuple, singular)), w.ray_map))
    out.append(EquivalenceWitness(tuple(tuple(2 * x for x in row) for row in w.matrix),
                                  w.ray_map))
    out.append(EquivalenceWitness(w.matrix[:-1], w.ray_map))
    out.append(EquivalenceWitness(tuple(row[:-1] for row in w.matrix), w.ray_map))
    targets = [j for _, j in w.ray_map]
    for perm in islice(permutations(targets), 1, 4):
        out.append(EquivalenceWitness(w.matrix, tuple(zip((i for i, _ in w.ray_map), perm))))
    return out


@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
def test_verify_witness_matches_the_pushforward_check(dim):
    """On witnesses, on witnesses checked against another collection (the
    automorphism and ray map pass, only the roots decide), and on
    non-witnesses, the two checks agree; each answer occurs."""
    rng = random.Random(2000 + dim)
    seen = set()
    for fan in corpus(dim):
        cols = complete_collections(fan)
        if not cols:
            continue
        picks = [cols[0], cols[-1], rng.choice(cols)]
        for c1 in picks:
            for c2 in picks:
                w = find_equivalence(fan, c1, c2)
                cases = [(c2, w)] + [(c2, x) for x in non_witnesses(fan, w, rng)]
                cases += [(c3, w) for c3 in picks if c3 != c2]
                for target, x in cases:
                    want = oracles.pushforward_verify_witness(fan, c1, target, x)
                    assert verify_witness(fan, c1, target, x) == want, (fan.rays, x)
                    seen.add(want)
    assert seen == {True, False}


def gl_image(fan, seed):
    g = LatticeAutomorphism(random_unimodular(random.Random(seed), fan.dim))
    return apply_automorphism(fan, g)


@pytest.mark.parametrize("fan", [product_p1(n) for n in (3, 4, 5, 6)]
                         + [gl_image(product_p1(4), 2100)],
                         ids=["p1^3", "p1^4", "p1^5", "p1^6", "GL(p1^4)"])
def test_no_elimination_in_collections_one_per_witness_check(fan, monkeypatch):
    """complete_collections eliminates nothing; find_equivalence runs one
    elimination (the witness's determinant) per candidate it verifies."""
    inversions = counting(monkeypatch, lattice, "invert_unimodular")
    eliminations = counting(monkeypatch, lattice, "_gauss_jordan")
    cols = complete_collections(fan)
    assert len(cols) == 2 ** fan.dim
    assert inversions == [] and eliminations == []
    checks = counting(monkeypatch, additive, "verify_witness")
    for other in cols:
        find_equivalence(fan, cols[0], other)
    assert len(checks) >= len(cols)
    assert len(eliminations) == len(checks) and inversions == []


def corrupt(fan, rays, vectors):
    return CompleteCollection(tuple(DemazureRoot(e, i, pairing_row(fan, e))
                                    for e, i in zip(vectors, rays)))


def test_a_corrupt_first_collection_has_no_witness():
    """Roots that are not the negated dual basis of their rays yield no
    witness, whether the rays form a unimodular basis or not."""
    fan = projective_space(2)
    c1, c2, _ = complete_collections(fan)
    wrong_roots = corrupt(fan, c1.ray_indices, c2.root_vectors)
    with pytest.raises(NoWitness, match="corrupt"):
        find_equivalence(fan, wrong_roots, c2)
    fan = wps_one(2, 3)  # rays (1, 0), (0, 1), (-2, -3); cone {0, 2} has det -3
    (good,) = [c for c in complete_collections(fan) if c.ray_indices == (0, 1)]
    non_unimodular = corrupt(fan, (0, 2), good.root_vectors)
    with pytest.raises(NoWitness, match="corrupt"):
        find_equivalence(fan, non_unimodular, good)
