"""One command's parser against the whole argparse tree.

``cli.main`` parses an argv that names a command with that command's parser
alone (``cli._parse``), and gives every other argv to the tree that
``cli._build_parser`` builds. Each argv of a fixed corpus goes through both,
and both must give the same namespace, standard output, standard error and
exit code. No file is read: the parse never opens its input.

The module needs no pytest: ``PYTHONPATH=src python tests/test_parse.py``
checks the corpus on any supported interpreter, prints each argv whose two
parses differ and exits 1 if one does.
"""

import contextlib
import io

from toricroots import cli

CORPUS = [
    # every command's valid forms, and its -h
    ["fan-check", "f.json"], ["fan-check", "-", "--format", "text"], ["fan-check", "-h"],
    ["roots", "f.json"], ["roots", "f.json", "--bound", "3"], ["roots", "--bound", "-2", "f.json"],
    ["roots", "-h"],
    ["collections", "f.json"], ["collections", "f.json", "--equivalence", "--strict"],
    ["collections", "--help"],
    ["additive", "f.json", "--strict", "--format", "json"], ["additive", "-h"],
    ["cox", "f.json"], ["cox", "-h"],
    ["pairs", "f.json", "--root", "0:-1,0"], ["pairs", "--root=1:0,-1", "f.json"], ["pairs", "-h"],
    ["polytope", "check", "p.json", "--strict"], ["polytope", "check", "-h"],
    ["polytope", "normalfan", "p.json", "--format", "text"], ["polytope", "normalfan", "-h"],
    ["polytope", "scale", "p.json", "2"], ["polytope", "scale", "p.json", "-3"],
    ["polytope", "scale", "-h"],
    ["gen", "pn", "2"], ["gen", "cube", "2", "--out", "o.json"], ["gen", "hirzebruch", "-1"],
    ["gen", "-h"],
    # top-level help, no argument, unknown commands and actions
    ["--help"], ["-h"], [], ["frobnicate", "f.json"], ["Roots", "f.json"], ["polytope"],
    ["polytope", "-h"], ["polytope", "frobnicate", "p.json"], ["polytope check", "p.json"],
    # usage errors of one command
    ["roots", "f.json", "--bound"], ["roots", "f.json", "--bound", "x"],
    ["roots", "f.json", "--bound", "1_0"], ["roots", "f.json", "--format", "yaml"],
    ["pairs", "f.json"], ["fan-check"], ["gen"], ["polytope", "scale", "p.json"],
    ["polytope", "scale", "p.json", "x"], ["polytope", "check"],
    # abbreviations, --opt=value and --
    ["roots", "f.json", "--form", "text"], ["collections", "f.json", "--equiv"],
    ["roots", "f.json", "--format=text"], ["roots", "--", "f.json"], ["fan-check", "--", "-"],
    ["gen", "pn", "--", "2"], ["roots", "f.json", "--fo", "text"],
    # arguments left over
    ["roots", "f.json", "extra"], ["cox", "f.json", "--bound", "3"],
    ["polytope", "check", "p.json", "q.json"], ["fan-check", "f.json", "--", "g.json"],
    # --format before a polytope action, or before the command
    ["polytope", "--format", "text", "check", "p.json"], ["--format", "text", "roots", "f.json"],
]


def outcome(parse, argv: list[str]):
    """The namespace (None after an exit), stdout, stderr and exit code (None
    when the parse returns) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return namespace, out.getvalue(), err.getvalue(), code


def tree(argv: list[str]):
    return cli._build_parser().parse_args(argv)


def pytest_generate_tests(metafunc):
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")


def test_main_parses_as_the_tree(argv):
    assert outcome(cli._parse, argv) == outcome(tree, argv)


def test_the_corpus_holds_valid_commands_help_and_usage_errors():
    """Parses that return, exits with code 0 (help) and with code 2 (usage
    errors) all occur in the corpus."""
    codes = [outcome(tree, argv)[3] for argv in CORPUS]
    assert {None, 0, 2} == set(codes)


if __name__ == "__main__":
    import sys

    differ = [argv for argv in CORPUS if outcome(cli._parse, argv) != outcome(tree, argv)]
    for argv in differ:
        print("differs:", argv)
    print(f"{len(CORPUS) - len(differ)} of {len(CORPUS)} argvs parse alike "
          f"on Python {sys.version.split()[0]}")
    sys.exit(1 if differ else 0)
