"""Statements of the gzflows package that a pytest run never executes.

    python3 tools/unreached.py [PYTEST_ARGS ...]

Run from the root of a gzflows checkout.  It runs pytest in this process (by default
the tier-1 suite, ``-q --continue-on-collection-errors tests``) under ``sys.settrace``,
limited to frames whose code lives in ``src/gzflows``, and then prints

    module:line  source

for each statement of the package that no traced frame ran, in module and line order,
and a last line ``N unreached``.  Docstrings, ``def`` and ``class`` lines, and
``global``/``nonlocal`` declarations (they have no bytecode) are not listed.  A compound
statement (``if``, ``for``, ``try``, ...) counts as run when its header ran.  Code run in a
child interpreter (``subprocess``) is not seen.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gzflows"
TIER_1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SILENT = DEFINITIONS + (ast.Global, ast.Nonlocal)


def statement_lines(source: str) -> dict[int, range]:
    """Each listed statement's first line and the lines whose line events count for it: a
    simple statement's own lines, a compound statement's header up to its first child."""
    lines = {}
    for node in ast.walk(ast.parse(source)):
        docstring = None
        if isinstance(node, (ast.Module, *DEFINITIONS)) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt) or child is docstring or isinstance(child, SILENT):
                continue
            inner = [s.lineno for s in ast.iter_child_nodes(child) if isinstance(s, ast.stmt)]
            end = min(inner) - 1 if inner else child.end_lineno
            lines[child.lineno] = range(child.lineno, max(end, child.lineno) + 1)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(prefix):
            hits.setdefault(name, set()).add(frame.f_lineno)
            return local
        return None

    sys.settrace(tracer)
    try:
        code = pytest.main(argv or TIER_1)
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = hits.get(str(path), set())
        for first, span in sorted(statement_lines(source).items()):
            if ran.isdisjoint(span):
                missed += 1
                print(f"{path.stem}:{first}  {text[first - 1].strip()}")
    print(f"{missed} unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
