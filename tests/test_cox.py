"""Cox presentations, degree canonicalization, action formulas."""

import pytest

from helpers import bundled_complete_fans, torsion_fan
from oracles import degree_zero_check
from test_cli import counting
from test_elimination import BLOWUP_FAN
from toricroots import (
    action_formulas,
    admits_additive,
    all_roots,
    canonical_degrees,
    complete_collections,
    cox_presentation,
    derivation,
    format_formula,
    hermite_column_form,
    hirzebruch,
    product_p1,
    projective_space,
    wps_one,
)
from toricroots import lattice
from toricroots.cox import GaActionFormula
from toricroots.errors import RaysDoNotSpan, TorsionClassGroup
from toricroots.fan import build_fan
from toricroots.lattice import determinant, dot


@pytest.mark.parametrize("d", range(1, 6))
def test_hirzebruch_degrees(d):
    pres = cox_presentation(hirzebruch(d))
    assert pres.num_vars == 4 and pres.class_rank == 2 and pres.torsion == ()
    assert canonical_degrees(pres) == ((1, 0), (0, 1), (1, 0), (d, 1))


def test_wps_degrees():
    for weights in [(2,), (2, 3), (1, 2, 3)]:
        pres = cox_presentation(wps_one(*weights))
        assert pres.class_rank == 1 and pres.torsion == ()
        assert canonical_degrees(pres) == tuple((w,) for w in weights) + ((1,),)


def test_p2_degrees_all_equal():
    pres = cox_presentation(projective_space(2))
    assert canonical_degrees(pres) == ((1,), (1,), (1,))


def test_torsion_class_group():
    pres = cox_presentation(torsion_fan())
    assert pres.torsion == (2,)
    assert pres.class_rank == 0
    assert pres.degrees == ((), ())


def test_rays_do_not_span():
    fan = build_fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
    with pytest.raises(RaysDoNotSpan):
        cox_presentation(fan)


def test_a_full_dimensional_cone_skips_the_rank(monkeypatch):
    """A maximal cone with no equations spans N_Q, so no rank is computed;
    without one the rank decides, and RaysDoNotSpan comes before any Smith
    form (the blowup fixture, whose Smith form blows up)."""
    fans = [fan for _, fan in bundled_complete_fans()] + [
        build_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)])]
    spanning = build_fan(2, [(1, 0), (-1, 1)], [(0,), (1,)])
    flat = [build_fan(BLOWUP_FAN["dim"], BLOWUP_FAN["rays"], BLOWUP_FAN["max_cones"]),
            build_fan(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [(0, 1), (1, 2), (2, 0)])]
    ranks = counting(monkeypatch, lattice, "rank")
    smiths = counting(monkeypatch, lattice, "smith_normal_form")
    for fan in fans:
        cox_presentation(fan)
    assert ranks == [] and len(smiths) == len(fans)
    cox_presentation(spanning)
    assert len(ranks) == 1
    smiths.clear()
    for fan in flat:
        with pytest.raises(RaysDoNotSpan):
            cox_presentation(fan)
    assert len(ranks) == 3 and smiths == []


def test_degree_map_kills_pairing_image():
    # composing the degree map with m -> (<p_rho, m>)_rho is identically zero
    for name, fan in bundled_complete_fans():
        pres = cox_presentation(fan)
        for i in range(fan.dim):
            basis_vec = tuple(int(i == j) for j in range(fan.dim))
            image = [dot(p, basis_vec) for p in fan.rays]
            total = [0] * pres.class_rank
            for var, coeff in enumerate(image):
                for i, x in enumerate(pres.degrees[var]):
                    total[i] += coeff * x
            assert all(x == 0 for x in total), name


# ---------------------------------------------------------------------------
# action formulas


def test_pn_formulas():
    for n in (1, 2, 3):
        fan = projective_space(n)
        witness = admits_additive(fan).witness
        rendered = [format_formula(f) for f in action_formulas(fan, witness)]
        assert rendered == [f"x{i} -> x{i} + s{i}*x{n + 1}" for i in range(1, n + 1)]


def test_hirzebruch_formulas():
    fan = hirzebruch(2)
    first, second = complete_collections(fan)
    assert [format_formula(f) for f in action_formulas(fan, second)] == [
        "x3 -> x3 + s1*x1",
        "x4 -> x4 + s2*x1^2*x2",
    ]
    assert [format_formula(f) for f in action_formulas(fan, first)] == [
        "x1 -> x1 + s1*x3",
        "x4 -> x4 + s2*x2*x3^2",
    ]


def test_wps_formulas():
    for weights in [(2,), (2, 3), (1, 2, 3)]:
        fan = wps_one(*weights)
        witness = admits_additive(fan).witness
        rendered = [format_formula(f) for f in action_formulas(fan, witness)]
        n = len(weights)
        expected = []
        for i, w in enumerate(weights, start=1):
            power = f"^{w}" if w > 1 else ""
            expected.append(f"x{i} -> x{i} + s{i}*x{n + 1}{power}")
        assert rendered == expected


def test_p1n_formulas_pair_consecutive_variables():
    fan = product_p1(2)
    witness = admits_additive(fan).witness
    assert [format_formula(f) for f in action_formulas(fan, witness)] == [
        "x1 -> x1 + s1*x2",
        "x3 -> x3 + s2*x4",
    ]


# ---------------------------------------------------------------------------
# degree-zero checks


def test_formulas_are_degree_zero():
    for name, fan in bundled_complete_fans():
        pres = cox_presentation(fan)
        for c in complete_collections(fan):
            for f in action_formulas(fan, c):
                assert degree_zero_check(pres, f), name


def test_every_root_derivation_is_degree_zero():
    for name, fan in bundled_complete_fans():
        pres = cox_presentation(fan)
        for root in all_roots(fan).roots():
            d = derivation(fan, root)
            f = GaActionFormula(d.target, 1, d.exponents)
            assert degree_zero_check(pres, f), name


def test_bad_rule_is_not_degree_zero():
    fan = hirzebruch(1)
    pres = cox_presentation(fan)
    bad = GaActionFormula(target=3, param_index=1, exponents=((0, 1), (1, 0), (2, 0)))
    assert not degree_zero_check(pres, bad)


def test_degree_zero_check_rejects_torsion():
    pres = cox_presentation(torsion_fan())
    rule = GaActionFormula(target=0, param_index=1, exponents=((1, 1),))
    with pytest.raises(TorsionClassGroup):
        degree_zero_check(pres, rule)


def test_complement_degrees_form_a_basis():
    # degrees of the m-n variables outside a collection's basis span Z^{m-n}
    for name, fan in bundled_complete_fans():
        pres = cox_presentation(fan)
        for c in complete_collections(fan):
            rest = [pres.degrees[i] for i in range(len(fan.rays))
                    if i not in c.ray_indices]
            if not rest:
                continue
            assert abs(determinant(tuple(rest))) == 1, name


def test_canonicalization_is_basis_invariant():
    pres = cox_presentation(hirzebruch(3))
    changed = tuple(tuple(dot(row, col) for col in ((2, 1), (1, 1))) for row in pres.degrees)
    assert hermite_column_form(changed) == canonical_degrees(pres)
