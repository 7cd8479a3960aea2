"""Each refusal rule of the package is written once.

The source is read, not run: a ToleranceError that carries a tolerance is raised
only by the gate ``errors._gate``, and the flow-index text ``invalid for n =`` is
stated only by ``gzcore._gz_position``.  A second copy of either rule fails here.
"""

import ast
from pathlib import Path

import gzflows

GATE = ("errors.py", "_gate")
INDEX_CHECK = ("gzcore.py", "_gz_position")
INDEX_TEXT = "invalid for n ="


def rule_sites(module: str, source: str) -> tuple[set, set]:
    """The (module, function) of every ToleranceError raised with ``tolerance=``, and of
    every string that states INDEX_TEXT; code outside any function is at function None."""
    gates, index_texts = set(), set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and ast.unparse(node.exc.func).endswith("ToleranceError")
                and any(kw.arg == "tolerance" for kw in node.exc.keywords)):
            gates.add((module, function))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and INDEX_TEXT in node.value:
            index_texts.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return gates, index_texts


def test_the_guard_sees_a_second_copy_of_each_rule():
    source = (
        "def check(n, m, i):\n"
        "    if not 1 <= i <= m <= n:\n"
        "        raise ValueError(f'index ({m}, {i}) invalid for n = {n}')\n"
        "def gate(step):\n"
        "    if step > 2.78:\n"
        "        raise errors.ToleranceError('unstable', defect=step, tolerance=2.78)\n"
        "    raise ToleranceError('overflowed')\n"
    )
    assert rule_sites("m.py", source) == ({("m.py", "gate")}, {("m.py", "check")})


def test_each_rule_has_one_routine():
    package = Path(gzflows.__file__).resolve().parent
    gates, index_texts = set(), set()
    for path in sorted(package.glob("*.py")):
        found = rule_sites(path.name, path.read_text())
        gates |= found[0]
        index_texts |= found[1]
    assert gates == {GATE}
    assert index_texts == {INDEX_CHECK}
