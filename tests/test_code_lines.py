"""Tests for `tools/code_lines.py`, the code-line count that `src` size claims cite."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

# a comment line

import os


class Thing:
    """A class docstring."""

    size = 3  # a trailing comment keeps its line

    def method(self):
        """A method docstring,

        over three lines.
        """
        return os.path.join(
            "a",
            "b",
        )


def helper():
    """One line."""
    label = """a string that is not a docstring
    spans two lines"""
    "an expression statement after the first is not a docstring"
    return label
'''

# by hand: import os; class Thing:; size = 3; def method(self):; the four lines of
# the call; def helper():; label's two lines; the later string; return label
MODULE_CODE_LINES = 13


def test_counts_code_outside_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == MODULE_CODE_LINES


def test_docstring_lines_are_those_of_module_class_and_function_docstrings():
    lines = sorted(code_lines.docstring_lines(code_lines.ast.parse(MODULE)))
    assert lines == [1, 2, 10, 15, 16, 17, 18, 26]


def test_main_prints_per_module_counts_that_sum_to_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n\n\ndef f():\n    pass\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", str(MODULE_CODE_LINES)], ["b.py", "3"],
                    ["total", str(MODULE_CODE_LINES + 3)]]
    assert sum(int(n) for _, n in rows[:-1]) == int(rows[-1][1])


def test_main_counts_the_package_by_default(capsys):
    assert code_lines.main(["code_lines.py"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [name for name, _ in rows[:-1]]
    assert "simmodel.py" in names and rows[-1][0] == "total"
    assert sum(int(n) for _, n in rows[:-1]) == int(rows[-1][1])
