"""Count the code lines and docstring lines of each module of the package.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/fractal_fourier next to this script's
directory.  A docstring line is a line of a module, class or function
docstring (found with ``ast``).  A code line is a non-blank line that is
neither a comment nor part of a docstring.  Prints one row per module and
a total.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree) -> set:
    """Line numbers spanned by the docstrings of ``tree``'s module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path):
    """(code lines, docstring lines) of the module at ``path``."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    code = 0
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if text and not text.startswith("#") and number not in docs:
            code += 1
    return code, len(docs)


def main(argv):
    default = Path(__file__).resolve().parents[1] / "src" / "fractal_fourier"
    package = Path(argv[1]) if len(argv) > 1 else default
    rows = [(path.name, *count(path)) for path in sorted(package.glob("*.py"))]
    print(f"{'module':<16}{'code':>8}{'docstring':>11}")
    for name, code, docs in rows:
        print(f"{name:<16}{code:>8}{docs:>11}")
    print(f"{'total':<16}{sum(r[1] for r in rows):>8}{sum(r[2] for r in rows):>11}")


if __name__ == "__main__":
    main(sys.argv)
