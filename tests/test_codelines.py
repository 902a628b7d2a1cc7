"""The code-line counter behind ``python tests/helpers.py codelines``, the
count of ``src/`` lines that CHANGES.md and ROADMAP.md quote: no blank
lines, comments or docstrings; and ``python tests/helpers.py compile``,
which times compile() on each module beside that count."""

import subprocess
import sys
from pathlib import Path

from helpers import code_lines, src_code_lines, src_compile_seconds

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    y = (x +
         1)
    return math.sqrt(y)


class C:
    """Class docstring."""

    text = """not a docstring,
    over two lines"""
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    """The import, def, both lines of the continued assignment, return,
    class, and both lines of the string that is not a docstring."""
    assert code_lines(SOURCE) == 8
    assert code_lines("") == 0


def test_codelines_prints_each_module_and_the_total():
    helpers = Path(__file__).resolve().parent / "helpers.py"
    out = subprocess.run([sys.executable, str(helpers), "codelines"], capture_output=True,
                         text=True, check=True).stdout
    rows = dict(line.split() for line in out.splitlines())
    counts = src_code_lines()
    assert {"__init__", "fan", "lattice", "demazure"} <= set(counts)
    assert rows == {**{name: str(n) for name, n in counts.items()},
                    "total": str(sum(counts.values()))}


def test_compile_prints_each_modules_lines_and_compile_time():
    helpers = Path(__file__).resolve().parent / "helpers.py"
    out = subprocess.run([sys.executable, str(helpers), "compile"], capture_output=True,
                         text=True, check=True).stdout
    header, *lines = out.splitlines()
    assert header.split() == ["module", "lines", "compile_ms", "us_per_line"]
    rows = {name: (int(count), float(ms), float(per_line))
            for name, count, ms, per_line in map(str.split, lines)}
    counts = src_code_lines()
    assert {name: row[0] for name, row in rows.items()} == {**counts,
                                                           "total": sum(counts.values())}
    assert all(ms > 0 and per_line > 0 for _, ms, per_line in rows.values())
    assert rows["total"][1] >= max(ms for name, (_, ms, _) in rows.items() if name != "total")


def test_compile_seconds_cover_every_module():
    seconds = src_compile_seconds(repeat=1)
    assert set(seconds) == set(src_code_lines())
    assert all(s > 0 for s in seconds.values())
