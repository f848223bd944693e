import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_and_docstring_lines(tmp_path):
    source = '''"""Module docstring,
over two lines."""

# a comment
import math


class A:
    """Class docstring."""

    def f(self):
        """Method
        docstring."""
        x = "not a docstring"  # trailing comment
        return math.pi + len(x)
'''
    path = tmp_path / "m.py"
    path.write_text(source)
    # code: import, class, def, assignment, return; docstrings: 2 + 1 + 2
    assert load_tool().count(path) == (5, 5)


def test_package_total_matches_the_rows(capsys):
    load_tool().main(["code_lines.py"])
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    total = lines[-1].split()
    assert "fourier.py" in [row[0] for row in rows]
    assert int(total[1]) == sum(int(row[1]) for row in rows)
    assert int(total[2]) == sum(int(row[2]) for row in rows)
