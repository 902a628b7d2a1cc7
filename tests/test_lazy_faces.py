"""Faces on demand: a fan's face index is built on first use, and no
decision builds it.

``build_fan`` describes the maximal cones alone. Root condition (2) reads
the ray sets of the maximal cones and no other face
(``demazure.satisfies_condition2`` has the proofs), and on a fan certified
complete it follows from condition (1). So the roots, the collections, the
equivalence witnesses and the additive decision describe no other face on
any fan, nor do the Cox data and the action formulas on a complete fan:
the counting tests below hold ``fan._face_cone`` to zero calls. Only the
faces themselves (``all_faces``, ``face_sets``, ``Fan.cone``) and the
orbit pairs of ``pairs`` build the index. The oracle test checks the
complete-fan shortcut against ``oracles.condition2_on_all_faces``, which
reads every face, and against a copy that is not certified complete.
"""

import json
import random

import pytest

import oracles
from oracles import _condition1_system
from helpers import shuffled_products
from test_cli import counting
from test_face_index import fans_in_dim, orthant, subfan
from test_truncated_roots import glcross5, without_first_cone
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
    he_connected_pairs,
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
def test_a_fan_not_complete_decides_condition2_without_the_index(make, monkeypatch):
    fan = make()
    assert not is_complete(fan) and fan._by_rays is None
    calls = counting(monkeypatch, fan_module, "_face_cone")
    e = tuple(-x for x in fan.rays[0])  # the rays are unit vectors here
    assert satisfies_condition2(fan, e, 0)
    assert calls == [] and fan._by_rays is None


def uncertified(fan):
    """A copy of the fan with no completeness stored: it reads as not
    complete, so its roots take the routes of a fan that is not."""
    return Fan(fan.dim, fan.rays, fan.max_cones)


NOT_CERTIFIED = {
    "orthant3": lambda: orthant(3),
    "p1n3-sub": lambda: subfan(product_p1(3), [0, 1, 2, 5]),
    "glcross5-1": lambda: without_first_cone(glcross5()),
    "uncertified-p1n5": lambda: uncertified(product_p1(5)),
}


@pytest.mark.parametrize("name", sorted(NOT_CERTIFIED))
def test_the_decisions_describe_no_face_on_a_fan_not_certified_complete(name, monkeypatch):
    """The roots, with and without a bound, the collections, the additive
    decision and the equivalence witnesses build no face index; the orbit
    pairs of a root, which list faces, do."""
    fan = NOT_CERTIFIED[name]()
    assert not is_complete(fan)
    calls = counting(monkeypatch, fan_module, "_face_cone")
    roots = all_roots(fan, 2)
    all_roots(fan)
    cols = complete_collections(fan)
    assert admits_additive(fan).admits == bool(cols)
    for c in cols[1:]:
        find_equivalence(fan, cols[0], c)
    assert calls == [] and fan._by_rays is None
    if name != "glcross5-1":  # which has no root
        he_connected_pairs(fan, roots.roots()[0])
        assert calls and fan._by_rays is not None


def test_the_commands_describe_no_face_on_a_fan_not_complete(tmp_path, monkeypatch, capsys):
    path = tmp_path / "p1n3-sub.json"
    path.write_text(json.dumps(fan_to_json_dict(NOT_CERTIFIED["p1n3-sub"]())))
    calls = counting(monkeypatch, fan_module, "_face_cone")
    for command in (["roots", "--bound", "2"], ["collections", "--equivalence"], ["additive"]):
        assert cli.main([command[0], str(path), *command[1:]]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert calls == []
    assert cli.main(["pairs", str(path), "--root", "0:-1,0,0"]) == 0
    assert calls


def complete_fans():
    for dim in (2, 3, 4, 5, 6):
        yield from (f for f in fans_in_dim(dim, 700 + dim) if is_complete(f))
    yield from shuffled_products().values()


def test_condition1_implies_condition2_on_complete_fans():
    """Every lattice point of every ray's condition-(1) polyhedron passes
    condition (2) on every face, and the roots equal those of a copy that
    is not certified complete, which decides condition (2) on its maximal
    cones without building its face index."""
    fans = points = 0
    for fan in complete_fans():
        for ray in range(len(fan.rays)):
            found = lattice.lattice_points(_condition1_system(fan, ray), fan.dim)
            assert found is not lattice.UNBOUNDED
            for e in found:
                assert oracles.condition2_on_all_faces(fan, e, ray), (fan.rays, e, ray)
            points += len(found)
        bare = uncertified(fan)
        assert not bare._complete
        assert all_roots(fan) == all_roots(bare)
        assert bare._by_rays is None
        fans += 1
    # 16 complete fans in dims 2 to 6 with their GL_n(Z) images, and 3 products
    assert fans == 2 * (5 + 4 + 3 + 2 + 2) + 3 and points > 400

