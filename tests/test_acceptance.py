"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion. Every comparison is an exact integer/string equality; there are
no numeric tolerances anywhere.
"""

from helpers import (
    bundled_complete_fans,
    random_complete_fans_2d,
    random_lattice_polygons,
)
from oracles import bracket_oracle
from toricroots import (
    action_formulas,
    admits_additive,
    all_roots,
    canonical_degrees,
    commute,
    complete_collections,
    cox_presentation,
    demazure_root,
    derivation,
    find_equivalence,
    format_derivation,
    format_formula,
    he_connected_pairs,
    hirzebruch,
    inscribed_in_rectangle,
    normal_fan,
    p235_model,
    product_p1,
    projective_space,
    theorem3con_report,
    verify_witness,
    wps_one,
)
from toricroots.demazure import satisfies_condition2
from toricroots.lattice import UNBOUNDED, Constraint, lattice_points
from toricroots.polytope import (
    cube,
    dilated_simplex,
    segment,
    skew_triangle,
    trapezoid,
)


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_hirzebruch_fixtures():
    """Roots, collections, witness, derivations and degrees of F_d, d = 1..5."""
    for d in range(1, 6):
        fan = hirzebruch(d)
        roots = all_roots(fan)
        assert roots.finite
        vectors = {r.vector for r in roots.roots()}
        assert vectors == {(1, 0), (-1, 0)} | {(k, 1) for k in range(d + 1)}
        assert len(vectors) == d + 3

        cols = complete_collections(fan)
        assert [set(c.root_vectors) for c in cols] == [
            {(-1, 0), (0, 1)}, {(1, 0), (d, 1)}]

        witness = find_equivalence(fan, cols[0], cols[1])
        assert verify_witness(fan, cols[0], cols[1], witness)

        rendered = {format_derivation(derivation(fan, r)) for r in roots.roots()}
        for k in range(d + 1):
            parts = []
            if k >= 1:
                parts.append("x1" if k == 1 else f"x1^{k}")
            parts.append("x2")
            if d - k >= 1:
                parts.append("x3" if d - k == 1 else f"x3^{d - k}")
            assert "*".join(parts) + " d/dx4" in rendered, (d, k)

        assert canonical_degrees(cox_presentation(fan)) == (
            (1, 0), (0, 1), (1, 0), (d, 1))
    _report("1", "F_1..F_5: d+3 roots, 2 collections, verified witness, "
                 "derivations and canonical degrees exact")


def test_criterion_02_p2():
    fan = projective_space(2)
    assert len(all_roots(fan).roots()) == 6
    cols = complete_collections(fan)
    assert len(cols) == 3
    for i in range(3):
        for j in range(3):
            w = find_equivalence(fan, cols[i], cols[j])
            assert verify_witness(fan, cols[i], cols[j], w)
    assert canonical_degrees(cox_presentation(fan)) == ((1,), (1,), (1,))
    _report("2", "P^2: 6 roots, 3 pairwise-equivalent collections, equal degrees")


def test_criterion_03_p1_powers():
    for n in range(1, 5):
        fan = product_p1(n)
        assert len(all_roots(fan).roots()) == 2 * n
        cols = complete_collections(fan)
        assert len(cols) == 2 ** n
        for other in cols[1:]:
            w = find_equivalence(fan, cols[0], other)
            assert verify_witness(fan, cols[0], other, w)
    _report("3", "(P^1)^n, n=1..4: 2n roots, 2^n equivalent collections")


def test_criterion_04_weighted_projective():
    for weights in [(2,), (2, 3), (1, 2, 3)]:
        fan = wps_one(*weights)
        decision = admits_additive(fan)
        assert decision.admits
        rendered = [format_formula(f) for f in action_formulas(fan, decision.witness)]
        n = len(weights)
        expected = []
        for i, w in enumerate(weights, start=1):
            power = "" if w == 1 else f"^{w}"
            expected.append(f"x{i} -> x{i} + s{i}*x{n + 1}{power}")
        assert rendered == expected, weights
    _report("4", "P(1,d...): admits, formulas xi -> xi + si*x{n+1}^di exact")


def test_criterion_05_p235_model():
    fan = p235_model()
    roots = all_roots(fan)
    assert len(roots.roots()) == 1
    assert roots.roots()[0].vector == (1, 0)
    assert complete_collections(fan) == ()
    assert not admits_additive(fan).admits
    report = theorem3con_report(fan)
    assert (report.complete_collection_exists, report.distinguished_span) == (False, False)
    _report("5", "P(2,3,5) model: 1 root, 0 collections, no action, flags (false,false)")


def test_criterion_06_flag_equivalence():
    fans = [fan for _, fan in bundled_complete_fans()]
    fans += random_complete_fans_2d(seed=60, count=100)
    for fan in fans:
        report = theorem3con_report(fan)
        assert report.complete_collection_exists == report.distinguished_span
    _report("6", f"collection-existence == distinguished-span on {len(fans)} complete fans")


def test_criterion_07_polytope_theorem():
    polys = [segment(d) for d in range(1, 5)]
    polys.append(cube(2))
    polys += [dilated_simplex(n, d) for n in (1, 2, 3) for d in (1, 2, 3)]
    polys.append(trapezoid())
    positives = len(polys)
    polys.append(skew_triangle())
    polys += random_lattice_polygons(seed=70, count=50)
    agree = 0
    for i, poly in enumerate(polys):
        inscribed = inscribed_in_rectangle(poly) is not None
        admits = admits_additive(normal_fan(poly)).admits
        assert inscribed == admits, poly.vertices
        if i < positives:
            assert inscribed, poly.vertices
        if i == positives:
            assert not inscribed
        agree += 1
    _report("7", f"inscribed <=> fan admits on {agree} polytopes")


def test_criterion_08_commute_oracle():
    pairs = 0
    for name, fan in bundled_complete_fans():
        roots = all_roots(fan).roots()
        derivs = {r: derivation(fan, r) for r in roots}
        for a in roots:
            for b in roots:
                assert commute(a, b) == bracket_oracle(derivs[a], derivs[b]), name
                pairs += 1
    assert pairs >= 200
    _report("8", f"commute == symbolic bracket on {pairs} ordered root pairs")


def test_criterion_09_condition1_implies_condition2():
    fans = [fan for _, fan in bundled_complete_fans()]
    fans += random_complete_fans_2d(seed=90, count=30)
    checked = 0
    for fan in fans:
        for ray in range(len(fan.rays)):
            system = [Constraint(fan.rays[ray], "=", -1)]
            system += [Constraint(p, ">=", 0)
                       for i, p in enumerate(fan.rays) if i != ray]
            points = lattice_points(system, fan.dim)
            assert points is not UNBOUNDED
            for e in points:
                assert satisfies_condition2(fan, e, ray)
                checked += 1
    _report("9", f"every condition-(1) vector passed condition (2) ({checked} vectors)")


def test_criterion_10_he_connected_pairs():
    p1 = projective_space(1)
    assert len(he_connected_pairs(p1, demazure_root(p1, (-1,), 0))) == 1
    p2 = projective_space(2)
    assert len(he_connected_pairs(p2, demazure_root(p2, (-1, 0), 0))) == 2
    f1 = hirzebruch(1)
    assert len(he_connected_pairs(f1, demazure_root(f1, (0, 1), 3))) == 2
    total = 0
    for name, fan in bundled_complete_fans():
        for root in all_roots(fan).roots():
            for facet, cone in he_connected_pairs(fan, root):
                assert cone.dim == facet.dim + 1, name
                total += 1
    _report("10", f"pair counts exact; dim law held on {total} pairs")
