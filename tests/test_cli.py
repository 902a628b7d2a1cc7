"""End-to-end CLI tests: reports, exit codes, determinism, piping."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, stdin: bytes | None = None):
    proc = subprocess.run(
        [sys.executable, "-m", "toricroots", *args],
        input=stdin, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args, stdin: bytes | None = None):
    code, out, err = run_cli(*args, stdin=stdin)
    assert err == b"", err.decode()
    return code, json.loads(out.decode())


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; return the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    code, report = run_json("gen", "hirzebruch", "2", "--out", str(path))
    assert code == 0 and report["result"]["written"] == str(path)
    return str(path)


@pytest.fixture
def quadrant_file(tmp_path):
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1]],
                                "max_cones": [[0, 1]]}))
    return str(path)


@pytest.fixture
def p235_file(tmp_path):
    path = tmp_path / "p235.json"
    run_json("gen", "p235", "--out", str(path))
    return str(path)


# ---------------------------------------------------------------------------
# fan-check


def test_fan_check_valid_complete(f2_file):
    code, report = run_json("fan-check", f2_file)
    assert code == 0
    assert report["result"] == {"valid": True, "violations": [], "complete": True}
    assert report["input"]["sha256"]


def test_fan_check_valid_incomplete(quadrant_file):
    code, report = run_json("fan-check", quadrant_file)
    assert code == 0
    assert report["result"]["complete"] is False


def test_fan_check_nonprimitive_ray(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[2, 0], [0, 1]],
                                "max_cones": [[0, 1]]}))
    code, report = run_json("fan-check", str(path))
    assert code == 2
    assert report["status"] == "invalid"
    assert any("not primitive" in v for v in report["result"]["violations"])


def test_fan_check_rejects_a_cone_that_lists_a_ray_twice(tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                                "max_cones": [[0, 0, 1], [1, 2], [2, 0]]}))
    code, report = run_json("fan-check", str(path))
    assert code == 2 and report["status"] == "invalid"
    assert report["result"]["violations"] == ["maximal cone 0 lists a ray more than once"]


def test_fan_check_validates_once(f2_file, tmp_path, monkeypatch, capsys):
    from toricroots import cli, fan

    checks = counting(monkeypatch, fan, "_check_fan")
    assert cli.main(["fan-check", f2_file]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["complete"] is True
    assert len(checks) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [1, 1]],
                               "max_cones": [[0, 1], [0, 2]]}))
    assert cli.main(["fan-check", str(bad)]) == 2
    assert json.loads(capsys.readouterr().out)["result"]["violations"] == [
        "intersection of cones [0, 1] and [0, 2] is not a face of both"]
    assert len(checks) == 2


def test_bad_json_exits_2(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json {")
    code, report = run_json("roots", str(path))
    assert code == 2 and report["status"] == "invalid"
    # nesting too deep for the decoder, or for a recursive envelope search
    for depth, text in [(100000, "[" * 100000 + "]" * 100000),
                        (990, '{"result": ' * 990 + "{}" + "}" * 990)]:
        path.write_text(text)
        code, report = run_json("fan-check", str(path))
        assert code == 2 and report["status"] == "invalid", depth
        assert report["error"]["type"] == "ToricError"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits")
                    or sys.get_int_max_str_digits() == 0,
                    reason="this Python has no limit on the digits of a parsed int")
def test_an_integer_past_the_digit_limit_is_a_typed_refusal(tmp_path, capsys):
    """Python's decoder refuses an int of more digits than its limit with a
    ValueError that advises sys.set_int_max_str_digits(); the reader reports
    a ToricError (exit 2) that names the limit and gives no such advice."""
    from toricroots import cli

    limit = sys.get_int_max_str_digits()
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1, "rays": [[1], [-1' + "0" * limit + ']], "max_cones": [[0], [1]]}')
    for fmt, read in (("json", json.loads), ("text", str)):
        assert cli.main(["fan-check", str(path), "--format", fmt]) == 2
        out = read(capsys.readouterr().out)
        message = f"input has an integer of more than {limit} digits"
        if fmt == "json":
            assert out["status"] == "invalid" and out["exit_code"] == 2
            assert out["error"] == {"type": "ToricError", "message": message}
        else:
            assert out == f"error: {message}\n"


def test_envelopes_are_unwrapped_at_any_depth():
    from toricroots import cli
    from toricroots.errors import ToricError

    fan = {"dim": 1, "rays": [[1]], "max_cones": [[0]]}
    nested = {"object": {"result": {}}, "fan": fan}
    for _ in range(5000):
        nested = {"result": {"dim": 1}, "fan": nested}
    assert cli._unwrap(nested, "fan") is fan
    # depth first, "result" before "fan"
    other = dict(fan, rays=[[-1]])
    assert cli._unwrap({"fan": other, "result": {"object": fan}}, "fan") is fan
    with pytest.raises(ToricError, match="no polytope object"):
        cli._unwrap(nested, "polytope")


def test_fan_check_rejects_float_and_string_coercion(tmp_path):
    path = tmp_path / "coerce.json"
    path.write_bytes(b'{"dim": 2.9, "rays": [[1,0],[0,1],[-1,-1]], '
                     b'"max_cones": [[0,1],[1.7,2],["2",0]]}')
    code, report = run_json("fan-check", str(path))
    assert code == 2 and report["status"] == "invalid"
    assert report["result"]["violations"] == ["dim must be an integer"]
    # with an integer dim, each coerced cone is reported instead
    path.write_bytes(b'{"dim": 2, "rays": [[1,0],[0,1],[-1,-1]], '
                     b'"max_cones": [[0,1],[1.7,2],["2",0],[true,2]]}')
    code, report = run_json("fan-check", str(path))
    assert code == 2
    assert report["result"]["violations"][:3] == [
        f"maximal cone {k} has non-integer ray indices" for k in (1, 2, 3)]


def test_a_bound_below_one_is_bad_params(quadrant_file, capsys):
    """roots --bound 0 is refused with exit 2 and a BadParams envelope."""
    from toricroots import cli

    assert cli.main(["roots", quadrant_file, "--bound", "0"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "invalid" and report["error"]["type"] == "BadParams"


def test_a_bound_too_large_for_the_box_is_refused(quadrant_file):
    """roots --bound 10^20 on the quadrant asked for 10^20 roots per ray and
    ran until it was killed; it is refused at once, with exit 2."""
    code, report = run_json("roots", quadrant_file, "--bound", str(10 ** 20))
    assert code == 2 and report["status"] == "invalid"
    assert report["error"]["type"] == "BadParams"
    assert report["error"]["message"].startswith("bound 100000000000000000000 is too large")


def test_maximal_cone_that_is_not_a_list(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_bytes(b'{"dim": 2, "rays": [[1,0],[0,1]], "max_cones": [[0,1], 5]}')
    message = "maximal cone 1 is not a list of ray indices"
    code, report = run_json("fan-check", str(path))
    assert code == 2 and report["status"] == "invalid"
    assert report["result"]["violations"] == [message]
    code, report = run_json("roots", str(path))
    assert code == 2 and report["error"]["type"] == "InvalidFan"
    assert report["error"]["violations"] == [message]


def test_internal_error_exits_3(f2_file, monkeypatch, capsys):
    """A failed consistency check is exit 3 with status "internal", not a
    traceback, and survives python -O (it is not an assert)."""
    from toricroots import cli, fan as fans
    from toricroots.errors import InternalError

    def broken(fan):
        raise InternalError("face index is inconsistent")

    monkeypatch.setattr(fans, "is_complete", broken)
    for fmt, check in (("json", json.loads), ("text", str)):
        code = cli.main(["fan-check", f2_file, "--format", fmt])
        out = check(capsys.readouterr().out)
        assert code == 3
        if fmt == "json":
            assert out["status"] == "internal" and out["exit_code"] == 3
            assert out["error"]["type"] == "InternalError"
            assert out["error"]["message"] == "face index is inconsistent"
        else:
            assert out.startswith("error: face index is inconsistent")


# ---------------------------------------------------------------------------
# roots


def test_roots_f3(tmp_path):
    path = tmp_path / "f3.json"
    run_json("gen", "hirzebruch", "3", "--out", str(path))
    code, report = run_json("roots", str(path))
    assert code == 0
    assert report["result"]["total_listed"] == 6
    statuses = {r["status"] for r in report["result"]["per_ray"]}
    assert statuses == {"finite"}


def test_roots_p2(tmp_path):
    path = tmp_path / "p2.json"
    run_json("gen", "pn", "2", "--out", str(path))
    code, report = run_json("roots", str(path))
    assert report["result"]["total_listed"] == 6


def test_roots_infinite_markers(quadrant_file):
    code, report = run_json("roots", quadrant_file)
    assert code == 0
    assert [r["status"] for r in report["result"]["per_ray"]] == ["infinite", "infinite"]
    code, report = run_json("roots", quadrant_file, "--bound", "2")
    assert [r["status"] for r in report["result"]["per_ray"]] == ["truncated", "truncated"]
    assert all(r["bound"] == 2 for r in report["result"]["per_ray"])


def test_roots_empty_polyhedron_is_finite(tmp_path):
    """Ray 3 = e1 + e2 needs x + y = -1 with x, y >= 0: no roots, not infinite."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
                                "max_cones": [[0, 3, 2], [3, 1, 2]]}))
    code, report = run_json("roots", str(path))
    assert code == 0
    assert [r["status"] for r in report["result"]["per_ray"]] == ["infinite"] * 3 + ["finite"]
    assert report["result"]["per_ray"][3]["roots"] == []
    code, report = run_json("roots", str(path), "--bound", "2")
    assert [r["status"] for r in report["result"]["per_ray"]] == ["truncated"] * 3 + ["finite"]
    assert "bound" not in report["result"]["per_ray"][3]


# ---------------------------------------------------------------------------
# collections


def test_collections_f1(tmp_path):
    path = tmp_path / "f1.json"
    run_json("gen", "hirzebruch", "1", "--out", str(path))
    code, report = run_json("collections", str(path), "--equivalence")
    assert code == 0
    assert report["result"]["count"] == 2
    eq = report["result"]["equivalence"]
    assert eq["classes"] == [[0, 1]]
    assert eq["witnesses"][0]["matrix"] == [[-1, 0], [1, 1]]


def test_collections_p2(tmp_path):
    path = tmp_path / "p2.json"
    run_json("gen", "pn", "2", "--out", str(path))
    code, report = run_json("collections", str(path), "--equivalence")
    assert report["result"]["count"] == 3
    assert report["result"]["equivalence"]["classes"] == [[0, 1, 2]]


def test_collections_equivalence_is_one_verified_class(tmp_path):
    """All collections form one class; every witness checks out."""
    from toricroots import EquivalenceWitness, complete_collections, fan_from_json_dict
    from toricroots.additive import verify_witness

    path = tmp_path / "p1n3.json"
    run_json("gen", "p1n", "3", "--out", str(path))
    code, report = run_json("collections", str(path), "--equivalence")
    assert code == 0 and report["result"]["count"] == 8
    eq = report["result"]["equivalence"]
    assert eq["classes"] == [list(range(8))]
    assert [(w["from"], w["to"]) for w in eq["witnesses"]] == [(0, i) for i in range(1, 8)]
    fan = fan_from_json_dict(json.loads(path.read_text()))
    cols = complete_collections(fan)
    for w in eq["witnesses"]:
        witness = EquivalenceWitness(tuple(map(tuple, w["matrix"])),
                                     tuple(map(tuple, w["ray_map"])))
        assert verify_witness(fan, cols[w["from"]], cols[w["to"]], witness)
    code, out, _ = run_cli("collections", str(path), "--equivalence", "--format", "text")
    assert b"equivalence classes: 1\n" in out


def test_missing_witness_exits_3(f2_file, monkeypatch, capsys):
    """NoWitness contradicts the uniqueness theorem: an internal error."""
    from toricroots import additive, cli
    from toricroots.errors import InternalError, NoWitness

    assert issubclass(NoWitness, InternalError)

    def no_witness(fan, c1, c2):
        raise NoWitness("no automorphism")

    monkeypatch.setattr(additive, "find_equivalence", no_witness)
    code = cli.main(["collections", f2_file, "--equivalence"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["exit_code"] == 3 and out["status"] == "internal"
    assert out["error"] == {"type": "NoWitness", "message": "no automorphism"}


def test_collections_empty_strict(p235_file):
    code, report = run_json("collections", p235_file)
    assert code == 0 and report["result"]["count"] == 0
    code, report = run_json("collections", p235_file, "--strict")
    assert code == 1 and report["status"] == "no"


# ---------------------------------------------------------------------------
# additive


def test_additive_wps(tmp_path):
    path = tmp_path / "wps.json"
    run_json("gen", "wps1", "2", "3", "--out", str(path))
    code, report = run_json("additive", str(path))
    assert code == 0
    assert report["result"]["admits"] is True
    assert report["result"]["formulas"] == [
        "x1 -> x1 + s1*x3^2", "x2 -> x2 + s2*x3^3"]
    assert report["result"]["theorem3con"] == {
        "complete_collection_exists": True, "distinguished_span": True}


def test_additive_p3(tmp_path):
    path = tmp_path / "p3.json"
    run_json("gen", "pn", "3", "--out", str(path))
    code, report = run_json("additive", str(path))
    assert report["result"]["formulas"] == [
        "x1 -> x1 + s1*x4", "x2 -> x2 + s2*x4", "x3 -> x3 + s3*x4"]


def test_additive_no(p235_file):
    code, report = run_json("additive", p235_file)
    assert code == 0
    assert report["result"]["admits"] is False
    assert report["result"]["theorem3con"] == {
        "complete_collection_exists": False, "distinguished_span": False}
    code, report = run_json("additive", p235_file, "--strict")
    assert code == 1


def test_additive_decides_once(f2_file, monkeypatch, capsys):
    """The decision and the theorem flags read one scan of the maximal
    cones: one dual basis per 2-ray maximal cone of F_2, four in all."""
    from toricroots import additive, cli

    scanned = counting(monkeypatch, additive, "_simplicial_inverse")
    assert cli.main(["additive", f2_file]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert len(scanned) == 4
    assert result["theorem3con"] == {
        "complete_collection_exists": True, "distinguished_span": True}


# ---------------------------------------------------------------------------
# cox


def test_cox_f2(f2_file):
    code, report = run_json("cox", f2_file)
    assert code == 0
    assert report["result"]["degrees_canonical"] == [[1, 0], [0, 1], [1, 0], [2, 1]]
    assert report["result"]["torsion"] == []


def test_cox_wps(tmp_path):
    path = tmp_path / "wps.json"
    run_json("gen", "wps1", "2", "3", "--out", str(path))
    code, report = run_json("cox", str(path))
    assert report["result"]["degrees_canonical"] == [[2], [3], [1]]


def test_cox_torsion(tmp_path):
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 1], [1, -1]],
                                "max_cones": [[0, 1]]}))
    code, report = run_json("cox", str(path))
    assert code == 0
    assert report["result"]["torsion"] == [2]


# ---------------------------------------------------------------------------
# pairs


def test_pairs_p2(tmp_path):
    path = tmp_path / "p2.json"
    run_json("gen", "pn", "2", "--out", str(path))
    code, report = run_json("pairs", str(path), "--root", "0:-1,0")
    assert code == 0
    assert len(report["result"]["pairs"]) == 2
    for pair in report["result"]["pairs"]:
        assert pair["cone"]["dim"] == pair["facet"]["dim"] + 1


def test_pairs_rejects_non_root(tmp_path):
    path = tmp_path / "p2.json"
    run_json("gen", "pn", "2", "--out", str(path))
    code, report = run_json("pairs", str(path), "--root", "0:1,1")
    assert code == 2 and report["status"] == "invalid"


def test_pairs_bad_syntax(f2_file):
    code, report = run_json("pairs", f2_file, "--root", "zero")
    assert code == 2


# ---------------------------------------------------------------------------
# polytope commands


def test_polytope_check_trapezoid(tmp_path):
    path = tmp_path / "trap.json"
    run_json("gen", "trapezoid", "--out", str(path))
    code, report = run_json("polytope", "check", str(path))
    assert code == 0
    assert report["result"]["inscribed"] is True
    assert report["result"]["fan_admits"] is True
    assert report["result"]["witness"]["vertex"] == [0, 0]


def test_polytope_check_triangle_strict(tmp_path):
    path = tmp_path / "tri.json"
    run_json("gen", "triangle", "--out", str(path))
    code, report = run_json("polytope", "check", str(path), "--strict")
    assert code == 1
    assert report["result"]["inscribed"] is False


def test_polytope_scale(tmp_path):
    path = tmp_path / "seg.json"
    run_json("gen", "segment", "1", "--out", str(path))
    code, report = run_json("polytope", "scale", str(path), "3")
    assert report["result"]["polytope"]["vertices"] == [[0], [3]]


def test_normalfan_pipes_into_additive(tmp_path):
    for name, params, inscribed in [
        ("trapezoid", [], True),
        ("triangle", [], False),
        ("cube", ["2"], True),
        ("dsimplex", ["2", "3"], True),
    ]:
        path = tmp_path / f"{name}.json"
        run_json("gen", name, *params, "--out", str(path))
        _, check = run_json("polytope", "check", str(path))
        assert check["result"]["inscribed"] is inscribed
        code, out, err = run_cli("polytope", "normalfan", str(path))
        assert code == 0
        code, piped = run_json("additive", "-", stdin=out)
        assert code == 0
        assert piped["result"]["admits"] is inscribed


def test_polytope_rejects_non_extreme(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "vertices": [[0], [1], [2]]}))
    code, report = run_json("polytope", "check", str(path))
    assert code == 2 and report["status"] == "invalid"


def test_polytope_rejects_float_dim(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2.5, "vertices": [[0, 0], [1, 0], [0, 1]]}))
    code, report = run_json("polytope", "check", str(path))
    assert code == 2 and report["status"] == "invalid"
    assert report["error"]["type"] == "InvalidPolytope"


def test_polytope_check_finds_the_witness_once(tmp_path, monkeypatch, capsys):
    from toricroots import cli, polytope

    path = tmp_path / "trap.json"
    run_json("gen", "trapezoid", "--out", str(path))
    calls = []
    original = polytope.inscribed_in_rectangle

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(polytope, "inscribed_in_rectangle", counted)
    assert cli.main(["polytope", "check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert report["result"]["inscribed"] is True
    assert report["result"]["witness"] == {"vertex": [0, 0], "edge_basis": [[0, 1], [1, 0]]}


# ---------------------------------------------------------------------------
# gen and determinism


def test_gen_unknown_name():
    code, report = run_json("gen", "nonsense")
    assert code == 2


def test_gen_writes_readable_file(tmp_path):
    path = tmp_path / "p1n.json"
    run_json("gen", "p1n", "3", "--out", str(path))
    data = json.loads(path.read_text())
    assert data["dim"] == 3 and len(data["rays"]) == 6


def test_reports_are_byte_identical(f2_file):
    first = run_cli("additive", f2_file)
    second = run_cli("additive", f2_file)
    assert first == second
    first = run_cli("roots", f2_file, "--format", "text")
    second = run_cli("roots", f2_file, "--format", "text")
    assert first == second


def test_text_format(f2_file):
    code, out, err = run_cli("additive", f2_file, "--format", "text")
    assert code == 0
    text = out.decode()
    assert "admits additive action: yes" in text
    assert "x1 -> x1 + s1*x3" in text


def test_big_integers_serialize_as_strings():
    from toricroots.cli import _json_safe

    assert _json_safe(2 ** 53 - 1) == 2 ** 53 - 1
    assert _json_safe(2 ** 53) == str(2 ** 53)
    assert _json_safe([-(2 ** 60), 3]) == [str(-(2 ** 60)), 3]
    assert _json_safe({"k": (1, 2 ** 90)}) == {"k": [1, str(2 ** 90)]}


# ---------------------------------------------------------------------------
# the command table, in process


# One argv per table entry; FAN and POLYTOPE name the input files below.
TABLE_ARGV = {
    "fan-check": ["fan-check", "FAN"],
    "roots": ["roots", "FAN"],
    "collections": ["collections", "FAN", "--equivalence"],
    "additive": ["additive", "FAN"],
    "cox": ["cox", "FAN"],
    "pairs": ["pairs", "FAN", "--root", "0:-1,0"],
    "polytope check": ["polytope", "check", "POLYTOPE"],
    "polytope normalfan": ["polytope", "normalfan", "POLYTOPE"],
    "polytope scale": ["polytope", "scale", "POLYTOPE", "2"],
    "gen": ["gen", "pn", "2"],
}

# Decision commands on an input whose answer is no, and their first text line.
NEGATIVE_ARGV = [
    (["collections", "P235"], "complete collections: 0"),
    (["additive", "P235"], "admits additive action: no"),
    (["polytope", "check", "TRIANGLE"], "inscribed in a rectangle: no"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files by placeholder: P^2, the square, the P(2,3,5) model and
    a triangle not inscribed in a rectangle."""
    import toricroots

    out = tmp_path_factory.mktemp("table")
    objects = {
        "FAN": toricroots.fan_to_json_dict(toricroots.projective_space(2)),
        "POLYTOPE": toricroots.polytope_to_json_dict(toricroots.builtin_polytope("cube", 2)),
        "P235": toricroots.fan_to_json_dict(toricroots.p235_model()),
        "TRIANGLE": toricroots.polytope_to_json_dict(toricroots.builtin_polytope("triangle")),
    }
    paths = {}
    for key, obj in objects.items():
        paths[key] = out / f"{key}.json"
        paths[key].write_text(json.dumps(obj))
    return paths


def run_in_process(argv, inputs, capsys):
    from toricroots import cli

    code = cli.main([str(inputs.get(a, a)) for a in argv])
    return code, capsys.readouterr().out


def test_every_table_entry_has_a_case():
    from toricroots import cli

    assert [entry[0] for entry in cli._COMMANDS] == list(TABLE_ARGV)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", list(TABLE_ARGV))
def test_every_command_reports_in_both_formats(name, fmt, inputs, capsys):
    import hashlib

    argv = TABLE_ARGV[name]
    code, out = run_in_process([*argv, "--format", fmt], inputs, capsys)
    assert code == 0
    if fmt == "text":
        assert out.endswith("\n") and '"exit_code"' not in out
        return
    report = json.loads(out)
    assert (report["command"], report["status"], report["exit_code"]) == (name, "ok", 0)
    if name == "gen":
        assert report["input"] is None
    else:
        path = next(inputs[a] for a in argv if a in inputs)
        assert report["input"] == {"path": str(path),
                                   "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    # an unreadable input is an error envelope named by the top-level command
    if name != "gen":
        missing = [a if a not in inputs else "missing.json" for a in argv]
        code, out = run_in_process(missing, inputs, capsys)
        report = json.loads(out)
        assert code == 2 and report["exit_code"] == 2 and report["status"] == "invalid"
        assert report["command"] == argv[0] and report["input"] is None
        assert report["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv, first_line", NEGATIVE_ARGV,
                         ids=[" ".join(argv[:-1]) for argv, _ in NEGATIVE_ARGV])
def test_strict_turns_a_negative_answer_into_exit_1(argv, first_line, fmt, inputs, capsys):
    code, out = run_in_process([*argv, "--format", fmt], inputs, capsys)
    assert code == 0
    code, out = run_in_process([*argv, "--strict", "--format", fmt], inputs, capsys)
    assert code == 1
    if fmt == "json":
        report = json.loads(out)
        assert report["status"] == "no" and report["exit_code"] == 1
    else:
        assert out.startswith(first_line)


@pytest.mark.parametrize("argv", [name.split() for name in TABLE_ARGV] + [["polytope"]],
                         ids=" ".join)
def test_help_exits_0(argv, capsys):
    from toricroots import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: toricroots " + " ".join(argv))


def test_format_goes_after_the_polytope_action(inputs, capsys):
    from toricroots import cli

    code, out = run_in_process(["polytope", "check", "POLYTOPE", "--format", "text"],
                               inputs, capsys)
    assert code == 0 and out.startswith("inscribed in a rectangle: yes\n")
    # before the action, --format is a usage error that says where it goes
    with pytest.raises(SystemExit) as exc:
        cli.main(["polytope", "--format", "text", "check", str(inputs["POLYTOPE"])])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: toricroots" in captured.err
    assert "error: argument --format: goes after the action" in captured.err
    assert "invalid choice" not in captured.err


def test_gen_parameters_are_integers(capsys):
    from toricroots import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "pn", "1.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument params: invalid int value: '1.5'" in captured.err
