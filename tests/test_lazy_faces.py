"""Faces on demand: a fan's face index is built on first use, and the
decision engine does not use it on a complete fan.

``build_fan`` describes the maximal cones alone. On a fan certified
complete, root condition (2) follows from condition (1)
(``demazure.satisfies_condition2`` has the proof), so the roots, the
collections, the equivalence witnesses, the Cox data and the action
formulas describe no other face: the counting tests below hold
``fan._face_cone`` to zero calls. The oracle test checks the shortcut
against ``oracles.condition2_on_all_faces``, which reads every face, and
against the index lookup that a fan not certified complete still takes.
"""

import json
import random

import pytest

import oracles
from oracles import _condition1_system
from helpers import shuffled_products
from test_cli import counting
from test_face_index import fans_in_dim, orthant, subfan
from test_kernel import random_unimodular
from toricroots import (
    Fan,
    LatticeAutomorphism,
    action_formulas,
    admits_additive,
    all_roots,
    apply_automorphism,
    cli,
    complete_collections,
    cox_presentation,
    fan_from_json_dict,
    fan_to_json_dict,
    find_equivalence,
    is_complete,
    lattice,
    normal_fan,
    product_p1,
)
from toricroots import fan as fan_module
from toricroots.demazure import satisfies_condition2
from toricroots.polytope import cube


def gl4_image():
    g = LatticeAutomorphism(random_unimodular(random.Random(1), 4))
    return apply_automorphism(product_p1(4), g)


COMPLETE_FANS = {
    "p1n5": lambda: product_p1(5),
    "normal_fan(cube4)": lambda: normal_fan(cube(4)),
    "F1xF2xF3xP1": lambda: shuffled_products()["F1xF2xF3xP1"],
    "GL4(p1n4)": gl4_image,
}


@pytest.mark.parametrize("name", sorted(COMPLETE_FANS))
def test_the_pipeline_describes_no_face_on_a_complete_fan(name, monkeypatch):
    calls = counting(monkeypatch, fan_module, "_face_cone")
    data = fan_to_json_dict(COMPLETE_FANS[name]())
    fan = fan_from_json_dict(data)
    assert is_complete(fan)
    all_roots(fan)
    decision = admits_additive(fan)
    cols = complete_collections(fan)
    assert decision.admits and cols
    for c in cols[1:]:
        find_equivalence(fan, cols[0], c)
    cox_presentation(fan)
    action_formulas(fan, decision.witness)
    assert calls == [] and fan._by_rays is None


@pytest.mark.parametrize("command", [["additive"], ["collections", "--equivalence"],
                                     ["roots"], ["cox"]])
def test_the_commands_describe_no_face_on_a_complete_fan(command, tmp_path, monkeypatch,
                                                         capsys):
    path = tmp_path / "p1n4.json"
    path.write_text(json.dumps(fan_to_json_dict(product_p1(4))))
    calls = counting(monkeypatch, fan_module, "_face_cone")
    assert cli.main([command[0], str(path), *command[1:]]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert calls == []


@pytest.mark.parametrize("make", [lambda: orthant(3),
                                  lambda: subfan(product_p1(3), [0, 1, 2, 5])])
def test_a_fan_not_complete_builds_the_index_on_its_first_condition2_test(make, monkeypatch):
    fan = make()
    assert not is_complete(fan) and fan._by_rays is None
    calls = counting(monkeypatch, fan_module, "_face_cone")
    e = tuple(-x for x in fan.rays[0])  # the rays are unit vectors here
    assert satisfies_condition2(fan, e, 0)
    described = {args[0] for args in calls}
    assert len(calls) == len(described) == len(fan.face_sets) - 1
    assert satisfies_condition2(fan, e, 0) and len(calls) == len(fan.face_sets) - 1


def complete_fans():
    for dim in (2, 3, 4, 5, 6):
        yield from (f for f in fans_in_dim(dim, 700 + dim) if is_complete(f))
    yield from shuffled_products().values()


def test_condition1_implies_condition2_on_complete_fans():
    """Every lattice point of every ray's condition-(1) polyhedron passes
    condition (2) on every face, and the roots equal those of a copy that
    is not certified complete, which looks the faces up in its index."""
    fans = points = 0
    for fan in complete_fans():
        before = points
        for ray in range(len(fan.rays)):
            found = lattice.lattice_points(_condition1_system(fan, ray), fan.dim)
            assert found is not lattice.UNBOUNDED
            for e in found:
                assert oracles.condition2_on_all_faces(fan, e, ray), (fan.rays, e, ray)
            points += len(found)
        bare = Fan(fan.dim, fan.rays, fan.max_cones)
        assert not bare._complete
        assert all_roots(fan) == all_roots(bare)
        # the copy looked its faces up iff some point passed condition (1)
        assert (bare._by_rays is not None) == (points > before)
        fans += 1
    # 16 complete fans in dims 2 to 6 with their GL_n(Z) images, and 3 products
    assert fans == 2 * (5 + 4 + 3 + 2 + 2) + 3 and points > 400

