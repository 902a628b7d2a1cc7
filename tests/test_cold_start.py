"""Cold start: which modules a command loads, and the lazy public API.

``import toricroots`` and ``import toricroots.cli`` load no analysis module;
each CLI command imports the modules it runs, and the package resolves its
public names on first access (PEP 562). No command loads ``dataclasses``,
``inspect`` or ``typing``: the value types are plain classes and type names
are imported only for the type checker. The import checks run in fresh
interpreters, since this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricroots

SRC = str(Path(__file__).resolve().parent.parent / "src")

ANALYSIS = ("lattice", "fan", "demazure", "additive", "cox", "polytope")

# The public names of the package, by defining module, as they were when every
# module was imported eagerly by the package, less the two test oracles
# (bracket_oracle, degree_zero_check) and lattice.dual_basis, which no module
# of the package called, that moved to tests/oracles.py.
EXPORTS = {
    "errors": [
        "BadParams", "DegeneratePolytope", "DimensionMismatch", "InfiniteRoots",
        "InternalError", "InvalidFan", "InvalidPolytope", "NoWitness", "NotComplete",
        "NotSquare", "NotStronglyConvex", "NotUnimodular", "RaysDoNotSpan",
        "ToricError", "TorsionClassGroup", "ZeroVector",
    ],
    "lattice": [
        "UNBOUNDED", "Constraint", "Unbounded", "determinant", "hermite_column_form",
        "kernel_basis", "lattice_points", "primitive", "smith_normal_form",
    ],
    "fan": [
        "Cone", "Fan", "LatticeAutomorphism", "apply_automorphism", "build_fan",
        "builtin_fan", "cone_dual_description", "fan_from_json_dict", "fan_to_json_dict",
        "hirzebruch", "is_complete", "is_fan_automorphism", "p235_model", "product_p1",
        "projective_space", "validate_fan", "wps_one",
    ],
    "demazure": [
        "CoxDerivation", "DemazureRoot", "RayRoots", "RootSet", "all_roots",
        "commute", "demazure_root", "derivation", "format_derivation",
        "he_connected_pairs", "is_demazure_root", "roots_for_ray",
    ],
    "additive": [
        "AdditiveDecision", "CompleteCollection", "EquivalenceWitness", "ThreeConReport",
        "admits_additive", "complete_collections", "condition4_distinguished_span",
        "find_equivalence", "theorem3con_report", "verify_witness",
    ],
    "cox": [
        "CoxPresentation", "GaActionFormula", "action_formulas", "canonical_degrees",
        "cox_presentation", "format_formula",
    ],
    "polytope": [
        "FacetInequality", "LatticePolytope", "PolytopeTheoremReport", "RectangleWitness",
        "builtin_polytope", "check_polytope_theorem", "edge_directions_at", "facets",
        "inscribed_in_rectangle", "normal_fan", "polytope_from_json_dict",
        "polytope_to_json_dict", "scale",
    ],
}


def loaded_after(code: str) -> set[str]:
    """The analysis modules loaded once ``code`` has run in a fresh
    interpreter with the checkout's ``src`` on the path."""
    code += ("\nimport sys\nprint(__import__('json').dumps("
             "sorted(m for m in sys.modules if m.startswith('toricroots.'))))")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    modules = json.loads(proc.stdout.splitlines()[-1])
    return {m.split(".", 1)[1] for m in modules} & set(ANALYSIS)


def stdlib_loaded_after(code: str) -> set[str]:
    """Which of ``dataclasses``, ``inspect`` and ``typing`` are loaded once
    ``code`` has run in a fresh ``python -S`` interpreter. Without -S, a
    ``.pth`` file in site-packages may import ``typing`` during ``site``."""
    code += ("\nimport sys\nprint(__import__('json').dumps(sorted(m for m in sys.modules "
             "if m in ('dataclasses', 'inspect', 'typing'))))")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_main(*argv: str) -> str:
    """Code that runs cli.main on argv, discards the report and fails on a
    non-zero exit code."""
    return ("import io, sys\nfrom toricroots import cli\nreal, sys.stdout = sys.stdout, io.StringIO()\n"
            f"code = cli.main({list(argv)!r})\nsys.stdout = real\nassert code == 0, code")


@pytest.fixture(scope="module")
def p2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "p2.json"
    path.write_text(json.dumps(toricroots.fan_to_json_dict(toricroots.projective_space(2))))
    return str(path)


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "square.json"
    path.write_text(json.dumps(toricroots.polytope_to_json_dict(
        toricroots.builtin_polytope("cube", 2))))
    return str(path)


# ---------------------------------------------------------------------------
# which modules each command loads


def test_importing_the_cli_loads_no_analysis_module():
    assert loaded_after("import toricroots") == set()
    code = "import sys, toricroots.cli\nassert 'hashlib' not in sys.modules"
    assert loaded_after(code) == set()
    assert stdlib_loaded_after("import toricroots.cli") == set()


def test_fan_check_loads_only_the_fan_layer(p2_file):
    assert loaded_after(run_main("fan-check", p2_file)) == {"fan", "lattice"}
    code = run_main("fan-check", p2_file, "--format", "text")
    code += "\nassert 'hashlib' not in sys.modules"
    assert loaded_after(code) == {"fan", "lattice"}


def test_gen_of_a_fan_loads_no_polytope():
    assert loaded_after(run_main("gen", "pn", "2")) == {"fan", "lattice"}


@pytest.mark.parametrize("command", [["roots"], ["pairs", "--root", "0:-1,0"]])
def test_roots_and_pairs_add_only_demazure(p2_file, command):
    argv = [command[0], p2_file, *command[1:]]
    assert loaded_after(run_main(*argv)) == {"fan", "lattice", "demazure"}


def test_cox_loads_no_demazure(p2_file):
    """Only the action formulas of cox read derivations, so the cox command
    compiles no demazure; additive, which writes the formulas, loads both."""
    assert loaded_after(run_main("cox", p2_file)) == {"fan", "lattice", "cox"}
    assert {"demazure", "cox"} <= loaded_after(run_main("additive", p2_file))


@pytest.mark.parametrize("action", [["normalfan"], ["scale", "2"]])
def test_polytope_normalfan_and_scale_load_no_roots(square_file, action):
    argv = ["polytope", action[0], square_file, *action[1:]]
    assert loaded_after(run_main(*argv)) == {"polytope", "fan", "lattice"}


def parsers_built(*argv: str) -> int:
    """The number of argparse.ArgumentParser objects that cli.main builds on
    argv in a fresh interpreter, the report discarded and an exit caught."""
    code = ("import argparse, io, sys\nbuilt = []\ninit = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\nfrom toricroots import cli\n"
            "real, sys.stdout = sys.stdout, io.StringIO()\n"
            f"try:\n    cli.main({list(argv)!r})\nexcept SystemExit:\n    pass\n"
            "sys.stdout = real\nprint(len(built))")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return int(proc.stdout.splitlines()[-1])


def test_a_command_builds_its_own_parser_and_help_the_tree(p2_file, square_file):
    """A valid command builds its parser alone; the tree of every command's
    parser is built for help and for arguments left over."""
    from toricroots import cli

    tree = 2 + len(cli._COMMANDS)  # the top level, the polytope group, each command
    assert parsers_built("roots", p2_file) <= 2
    assert parsers_built("polytope", "check", square_file, "--format", "text") <= 2
    assert parsers_built("--help") == tree
    assert parsers_built("cox", p2_file, "extra") == tree + 1


COMMANDS = [
    ["fan-check", "FAN"], ["gen", "pn", "2"], ["gen", "cube", "2"], ["roots", "FAN"],
    ["pairs", "FAN", "--root", "0:-1,0"], ["collections", "FAN"], ["additive", "FAN"],
    ["cox", "FAN"], ["polytope", "check", "POLYTOPE"], ["polytope", "normalfan", "POLYTOPE"],
    ["polytope", "scale", "POLYTOPE", "2"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_no_command_loads_dataclasses_inspect_or_typing(p2_file, square_file, argv):
    argv = [{"FAN": p2_file, "POLYTOPE": square_file}.get(a, a) for a in argv]
    assert stdlib_loaded_after(run_main(*argv)) == set()
    assert stdlib_loaded_after(run_main(*argv, "--format", "text")) == set()


# ---------------------------------------------------------------------------
# the public API


def test_exported_names_are_unchanged():
    names = [n for names in EXPORTS.values() for n in names]
    assert sorted(toricroots.__all__) == sorted([*names, *EXPORTS])
    assert len(toricroots.__all__) == len(set(toricroots.__all__))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_name_is_its_defining_modules_object(module):
    defining = __import__(f"toricroots.{module}", fromlist=["_"])
    for name in EXPORTS[module]:
        assert getattr(toricroots, name) is getattr(defining, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from toricroots import *", namespace)
    assert set(toricroots.__all__) <= set(namespace)
    for module in EXPORTS:
        assert namespace[module] is sys.modules[f"toricroots.{module}"], module


def test_dir_lists_every_name():
    assert set(toricroots.__all__) <= set(dir(toricroots))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        toricroots.no_such_name  # noqa: B018
    assert not hasattr(toricroots, "no_such_name")


def test_submodules_stay_reachable():
    from toricroots import lattice

    assert lattice is sys.modules["toricroots.lattice"]
    code = ("import toricroots\nassert toricroots.lattice.rank([(1, 0)], 2) == 1\n"
            "from toricroots import cox\nassert cox.__name__ == 'toricroots.cox'")
    assert loaded_after(code) == {"lattice", "cox", "fan"}


def test_a_name_is_resolved_once():
    code = ("import toricroots\nf = toricroots.hirzebruch\n"
            "assert 'hirzebruch' in vars(toricroots) and toricroots.hirzebruch is f")
    assert loaded_after(code) == {"fan", "lattice"}
