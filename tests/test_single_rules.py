"""Each refusal rule of the package is written once, and each flow acts through its block.

The source is read, not run: a ToleranceError that carries a tolerance is raised
only by the gate ``errors._gate``, and the flow-index text ``invalid for n =`` is
stated only by ``gzcore._gz_position``.  A second copy of either rule fails here.
The flows of ``gzcore`` and ``spaces`` take no full inverse and build no identity
around a flow factor: they move the off-diagonal blocks by the (m, m) factor.  The
rank cut ``max(p, q) * RANK_RTOL`` is written once, in ``matpoly._rank``, so the SVD's
cut and the threshold of the full-span proof come from one product.  The unit shift,
an ``eye`` off its diagonal, is built only by ``matpoly._shift``.  The functions
kept behind a cache are a listed set: a new cache is listed in the change that
measures what it saves.  Every ``raise`` names an exception the CLI maps to an exit
code (``ValueError`` and ``TypeError`` to 65, ``ValidationError`` to 2,
``ToleranceError`` to 3), calls ``gzcore._singular_factor``, which builds a
ToleranceError, or re-raises: a new exception type cannot escape as a traceback.
Within ``ratmodel``, the refusals of a non-finite model point are raised only by its
intake, ``ratmodel._intake``.  A polynomial is monic by one rule: ``_MONIC_TOL`` is compared
only in ``matpoly._monic``, and no other module names it.  The junctions of
``fixture_from_polar`` are closed form: no function calls ``_charpoly_adjugate`` or calls
``solve`` inside a loop, and the ``could not realize`` refusal is raised in one function,
``ratmodel._solve_gcomp``.  There is one Faddeev-LeVerrier routine: its step, a trace
divided by the loop index, is written only in ``matpoly._charpoly``.  No helper is
kept for the tests alone: every private function of the package is read by package
code, and every ``__all__`` name that no code in ``src``, ``bench`` or ``tools`` reads
is listed in README's "Public names kept for the paper's statements".
"""

import ast
import re
from pathlib import Path

import gzflows

GATE = ("errors.py", "_gate")
INDEX_CHECK = ("gzcore.py", "_gz_position")
INDEX_TEXT = "invalid for n ="
FLOW_MODULES = ("gzcore.py", "spaces.py")
# a function that calls one of these builds or takes a flow factor
FLOW_FACTOR_CALLS = {"_expm", "flow_factor"}
RANK_CUT = ("matpoly.py", "_rank")
SHIFT = ("matpoly.py", "_shift")
CACHED = {
    ("gzcore.py", "_minor_frames"),
    ("matpoly.py", "_identities"),
    ("matpoly.py", "_shift"),
    ("ratmodel.py", "_sizes"),
    ("ratmodel.py", "_shape_table"),
}
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}
# what a raise may name: an exception cli.run maps to its exit code, or the one function
# that builds a refusal, gzcore._singular_factor (a ToleranceError)
RAISABLE = {"ValueError", "TypeError", "ValidationError", "ToleranceError", "_singular_factor"}
MONIC_RULE = ("matpoly.py", "_monic")
FL_STEP = ("matpoly.py", "_charpoly")
REALIZE = ("ratmodel.py", "_solve_gcomp")
INTAKE = ("ratmodel.py", "_intake")
INTAKE_TEXTS = ("matrix entries must be finite", "scale overflows")
KEPT_HEADING = "### Public names kept for the paper's statements"


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


def full_factor_sites(module: str, source: str) -> set:
    """The (module, function) of every call of a full inverse (``inv``), and of every
    function that builds an identity (``eye``, ``identity``) and calls FLOW_FACTOR_CALLS."""
    sites = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        called = {ast.unparse(call.func).rpartition(".")[2]
                  for call in ast.walk(node) if isinstance(call, ast.Call)}
        if "inv" in called or (called & {"eye", "identity"} and called & FLOW_FACTOR_CALLS):
            sites.add((module, node.name))
    return sites


def rank_cut_sites(module: str, source: str) -> list:
    """The (module, function) of every product with ``RANK_RTOL``, once per product."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(side, (ast.Name, ast.Attribute)) and ast.unparse(side).rpartition(".")[2] == "RANK_RTOL"
                        for side in (node.left, node.right))):
            sites.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


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


def test_the_guard_sees_a_full_flow_factor():
    source = (
        "def flow_factor(B, m, i, z):\n"
        "    h = np.eye(B.shape[0], dtype=complex)\n"
        "    h[:m, :m] = _expm(z * B[:m, :m])\n"
        "    return h\n"
        "def _flow_step(B, m, i, z):\n"
        "    h = flow_factor(B, m, i, z)\n"
        "    return h, h @ B @ np.linalg.inv(h)\n"
        "def frames(n):\n"
        "    return np.eye(n)\n"
    )
    assert full_factor_sites("m.py", source) == {("m.py", "flow_factor"), ("m.py", "_flow_step")}


def test_flows_act_through_their_block():
    package = Path(gzflows.__file__).resolve().parent
    assert set().union(*(full_factor_sites(name, (package / name).read_text()) for name in FLOW_MODULES)) == set()


def test_the_guard_sees_a_second_rank_cut():
    source = (
        "def _rank(M, bound):\n"
        "    cut = bound * (max(M.shape[-2:]) * RANK_RTOL)\n"
        "def _spans_rows(M, bound):\n"
        "    tau = (max(M.shape) * matpoly.RANK_RTOL * bound) ** 2\n"
        "    return RANK_RTOL\n"
    )
    assert rank_cut_sites("m.py", source) == [("m.py", "_rank"), ("m.py", "_spans_rows")]


def test_the_rank_cut_is_written_once():
    package = Path(gzflows.__file__).resolve().parent
    assert [site for path in sorted(package.glob("*.py"))
            for site in rank_cut_sites(path.name, path.read_text())] == [RANK_CUT]


def shift_sites(module: str, source: str) -> list:
    """The (module, function) of every call of ``eye`` off its diagonal (a ``k`` keyword or a
    third argument), once per call."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "eye"
                and (len(node.args) > 2 or any(kw.arg == "k" for kw in node.keywords))):
            sites.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_the_guard_sees_a_second_shift():
    source = (
        "def _shift(n):\n"
        "    return np.eye(n, k=-1, dtype=complex)\n"
        "def companion(X, km):\n"
        "    B[m:, m:] = eye(km, km, -1)\n"
        "    return np.eye(km, dtype=complex)\n"
    )
    assert shift_sites("m.py", source) == [("m.py", "_shift"), ("m.py", "companion")]


def test_the_shift_is_built_once():
    package = Path(gzflows.__file__).resolve().parent
    assert [site for path in sorted(package.glob("*.py"))
            for site in shift_sites(path.name, path.read_text())] == [SHIFT]


def cached_sites(module: str, source: str) -> set:
    """The (module, function) of every function decorated by a cache of ``functools``."""
    return {
        (module, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(ast.unparse(d.func if isinstance(d, ast.Call) else d).rpartition(".")[2] in CACHE_DECORATORS
                for d in node.decorator_list)
    }


def test_the_guard_sees_each_cache():
    source = (
        "@functools.cache\n"
        "def _table(n):\n"
        "    return tuple(range(n))\n"
        "@lru_cache(maxsize=None)\n"
        "def _frames(n):\n"
        "    return n\n"
        "@staticmethod\n"
        "def plain(n):\n"
        "    return n\n"
    )
    assert cached_sites("m.py", source) == {("m.py", "_table"), ("m.py", "_frames")}


def test_the_cached_functions_are_the_listed_ones():
    package = Path(gzflows.__file__).resolve().parent
    assert set().union(*(cached_sites(path.name, path.read_text()) for path in package.glob("*.py"))) == CACHED


def unmapped_raises(module: str, source: str) -> list:
    """(module, line, exception) of every raise that names nothing in RAISABLE and is not a
    bare re-raise, in line order."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        named = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        if named.rpartition(".")[2] not in RAISABLE:
            sites.append((module, node.lineno, named))
    return sorted(sites)


def test_the_guard_sees_an_unmapped_raise():
    source = (
        "def decode(obj):\n"
        "    if not obj:\n"
        "        raise InputError('empty')\n"
        "    try:\n"
        "        return table[obj]\n"
        "    except LookupError:\n"
        "        raise\n"
        "    raise KeyError(obj) from None\n"
        "def refuse(m, i):\n"
        "    if m:\n"
        "        raise errors.ValueError('no')\n"
        "    raise gzcore._singular_factor(m, i)\n"
        "def gate(d):\n"
        "    raise ToleranceError('above', defect=d)\n"
    )
    assert unmapped_raises("m.py", source) == [("m.py", 3, "InputError"), ("m.py", 8, "KeyError")]


def test_every_raise_has_an_exit_code():
    package = Path(gzflows.__file__).resolve().parent
    assert [site for path in sorted(package.glob("*.py"))
            for site in unmapped_raises(path.name, path.read_text())] == []


def raised_text_sites(module: str, source: str, texts) -> list:
    """(module, function, text) of every string in a ``raise`` that holds one of texts, once
    per string, in source order; code outside any function is at function None."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            sites.extend((module, function, text) for string in ast.walk(node.exc)
                         if isinstance(string, ast.Constant) and isinstance(string.value, str)
                         for text in texts if text in string.value)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_the_guard_sees_a_second_intake_refusal():
    source = (
        "def _intake(points):\n"
        "    raise ValueError('matrix entries must be finite')\n"
        "    raise ValueError('model data too large: its scale overflows')\n"
        "class MatricialData:\n"
        "    def scale(self):\n"
        "        raise ValueError(f'model data too large: its scale overflows at {self.k}')\n"
        "def _classified(points):\n"
        "    'a point whose scale overflows is refused by the intake'\n"
        "    warnings.warn('matrix entries must be finite')\n"
    )
    assert raised_text_sites("m.py", source, INTAKE_TEXTS) == [
        ("m.py", "_intake", "matrix entries must be finite"), ("m.py", "_intake", "scale overflows"),
        ("m.py", "scale", "scale overflows")]


def test_the_intake_refusals_are_written_once():
    source = (Path(gzflows.__file__).resolve().parent / INTAKE[0]).read_text()
    assert raised_text_sites(INTAKE[0], source, INTAKE_TEXTS) == [INTAKE + (text,) for text in INTAKE_TEXTS]


def monic_tol_sites(module: str, source: str) -> list:
    """(module, function) of every comparison with ``_MONIC_TOL`` in matpoly, and of every
    use of the name (an import, say) in another module, once each, in source order."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if module == "matpoly.py":
            if isinstance(node, ast.Compare) and any(
                    ast.unparse(side).rpartition(".")[2] == "_MONIC_TOL" for side in (node.left, *node.comparators)):
                sites.append((module, function))
        elif ((isinstance(node, ast.Name) and node.id == "_MONIC_TOL")
                or (isinstance(node, ast.alias) and node.name == "_MONIC_TOL")
                or (isinstance(node, ast.Attribute) and node.attr == "_MONIC_TOL")):
            sites.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_the_guard_sees_a_second_monic_rule():
    matpoly = (
        "_MONIC_TOL = 1e-9\n"
        "def _monic(p):\n"
        "    return abs(p[-1] - 1.0) <= _MONIC_TOL\n"
        "def is_monic(p):\n"
        "    return d >= 0 and abs(p[d] - 1.0) <= matpoly._MONIC_TOL\n"
    )
    gzcore = (
        "from .matpoly import _MONIC_TOL\n"
        "def _checked_monic(p):\n"
        "    if not abs(p[-1] - 1.0) <= _MONIC_TOL:\n"
        "        raise ValidationError('not monic')\n"
    )
    assert monic_tol_sites("matpoly.py", matpoly) == [("matpoly.py", "_monic"), ("matpoly.py", "is_monic")]
    assert monic_tol_sites("gzcore.py", gzcore) == [("gzcore.py", None), ("gzcore.py", "_checked_monic")]


def test_the_monic_tolerance_is_compared_once():
    package = Path(gzflows.__file__).resolve().parent
    assert [site for path in sorted(package.glob("*.py"))
            for site in monic_tol_sites(path.name, path.read_text())] == [MONIC_RULE]


def adjugate_sites(module: str, source: str) -> tuple[list, list]:
    """(module, function) of every function that takes adjugate coefficients (calls
    ``_charpoly_adjugate``) or calls ``solve`` inside a ``for`` loop, and of every function
    that raises a text holding ``could not realize``, each in source order."""
    takes, refuses = [], []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(ast.walk(node))
        loops = [n for n in own if isinstance(n, ast.For)]
        called = {id(n): ast.unparse(n.func).rpartition(".")[2] for n in own if isinstance(n, ast.Call)}
        if "_charpoly_adjugate" in called.values() or any(
                called.get(id(n)) == "solve" for loop in loops for n in ast.walk(loop)):
            takes.append((module, node.name))
        if any(isinstance(n, ast.Raise) and n.exc is not None and "could not realize" in ast.unparse(n.exc)
               for n in own):
            refuses.append((module, node.name))
    return tuple(sorted(sites, key=lambda site: source.index(f"def {site[1]}(")) for sites in (takes, refuses))


def test_the_guard_sees_adjugate_terms_and_a_second_refusal():
    source = (
        "def _charpoly(A):\n"
        "    for k in range(1, n + 1):\n"
        "        coeffs[n - k] = c = -(A @ M).trace() / k\n"
        "def _solve_gcomp(X, target, rng):\n"
        "    qx, H = _charpoly_adjugate(X)\n"
        "    raise ValidationError('could not realize the requested polar polynomial')\n"
        "def _solve_rank_one(b_plus, target, rng):\n"
        "    for _ in range(20):\n"
        "        w = np.linalg.solve(M, gap)\n"
        "    raise ValidationError('could not realize the requested rank-one update')\n"
        "def _conjugator(b_plus, b_minus, rng):\n"
        "    for _ in range(20):\n"
        "        g = K_minus @ np.linalg.inv(K_plus)\n"
        "    raise ValidationError('could not build a well-conditioned conjugator')\n"
    )
    takes, refuses = adjugate_sites("m.py", source)
    assert takes == [("m.py", "_solve_gcomp"), ("m.py", "_solve_rank_one")]
    assert refuses == [("m.py", "_solve_gcomp"), ("m.py", "_solve_rank_one")]


def test_junctions_take_no_adjugate_and_refuse_once():
    package = Path(gzflows.__file__).resolve().parent
    found = [adjugate_sites(path.name, path.read_text()) for path in sorted(package.glob("*.py"))]
    assert [site for takes, _ in found for site in takes] == []
    assert [site for _, refuses in found for site in refuses] == [REALIZE]


def fl_step_sites(module: str, source: str) -> list:
    """(module, function) of every Faddeev-LeVerrier step, a division whose numerator calls
    ``trace`` and whose denominator is the index of a ``for`` loop or comprehension it sits
    in, once per division, in source order; code outside any function is at function None."""
    sites = []

    def visit(node, function, indices):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, indices = node.name, frozenset()
        loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
        indices |= {t.id for loop in loops for t in ast.walk(loop.target) if isinstance(t, ast.Name)}
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.Name) and node.right.id in indices
                and any(isinstance(n, ast.Call) and ast.unparse(n.func).rpartition(".")[2] == "trace"
                        for n in ast.walk(node.left))):
            sites.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function, indices)

    visit(ast.parse(source), None, frozenset())
    return sites


def test_the_guard_sees_a_second_faddeev_leverrier_step():
    source = (
        "def _charpoly(A):\n"
        "    for k in range(1, n + 1):\n"
        "        AM = A @ M\n"
        "        coeffs[..., n - k] = c = -AM.trace(axis1=-2, axis2=-1) / k\n"
        "def _adjugate_terms(A):\n"
        "    for j, k in enumerate(range(1, n + 1)):\n"
        "        c = -np.trace(A @ M) / k\n"
        "def _coefficients(P):\n"
        "    return [-np.trace(P[k], axis1=-2, axis2=-1) / k for k in range(1, n + 1)]\n"
        "def newton(psums, n):\n"
        "    for k in range(1, n + 1):\n"
        "        elem[k] = acc / k\n"
        "    return np.trace(B) / n\n"
    )
    assert fl_step_sites("m.py", source) == [
        ("m.py", "_charpoly"), ("m.py", "_adjugate_terms"), ("m.py", "_coefficients")]


def test_one_faddeev_leverrier_routine():
    package = Path(gzflows.__file__).resolve().parent
    assert [site for path in sorted(package.glob("*.py"))
            for site in fl_step_sites(path.name, path.read_text())] == [FL_STEP]


def code_references(source: str) -> set:
    """Every name that code reads, as a name or as an attribute: not a definition, an import,
    a store or a string, nor a function's own name inside its body."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
            found.add(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), frozenset())
    return found


def helpers_nothing_uses(package: dict, others: dict, kept: set) -> tuple[list, list]:
    """From sources by module name: (module, name) of every private function of the package
    (one leading underscore, methods included) that no package code reads, and of every
    ``__all__`` name that no code of the package or of others reads and kept does not list."""
    in_package = set().union(*(code_references(source) for source in package.values()))
    anywhere = in_package.union(*(code_references(source) for source in others.values()))
    private, public = [], []
    for module, source in sorted(package.items()):
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_")
                    and not node.name.endswith("__") and node.name not in in_package):
                private.append((module, node.name))
            if isinstance(node, ast.Assign) and any(ast.unparse(t) == "__all__" for t in node.targets):
                public.extend((module, name) for name in ast.literal_eval(node.value)
                              if name not in anywhere and name not in kept)
    return private, public


def kept_names(readme: str) -> set:
    """The code names, in backquotes, of README's section of public names kept for the paper."""
    section = readme.split(KEPT_HEADING, 1)[1].split("\n## ", 1)[0]
    return {name.rpartition(".")[2] for name in re.findall(r"`([A-Za-z_][\w.]*)`", section)}


def test_the_guard_sees_a_helper_only_a_test_uses():
    package = {
        "gzcore.py": (
            "__all__ = ['gz_flow', 'flow_factor', 'matexp']\n"
            "def flow_factor(B, m, i, z):\n"
            "    return _expm(z * B[:m, :m])\n"
            "def _move(B, g, m, i):\n"
            "    return g @ B\n"
            "def _flow_step(B, m, i, z):\n"
            "    g = flow_factor(B, m, i, z)\n"
            "    return g, _move(B, g, m, i)\n"
            "def _chain(k):\n"
            "    return _chain(k - 1) if k else 0\n"
            "def gz_flow(B, lam):\n"
            "    return [_move(B, flow_factor(B, m, i, z), m, i) for m, i, z in lam]\n"
        ),
        "spaces.py": "from .gzcore import _flow_step\n'_chain and matexp are named here only in a string'\n",
    }
    others = {"cli.py": "from gzflows import gzcore\nprint(gzcore.gz_flow(B, lam))\n"}
    # flow_factor has a user in the package and gz_flow one outside it; matexp has none
    assert helpers_nothing_uses(package, others, set()) == (
        [("gzcore.py", "_flow_step"), ("gzcore.py", "_chain")], [("gzcore.py", "matexp")])
    assert helpers_nothing_uses(package, others, {"matexp"})[1] == []
    assert kept_names(f"## Layout\n`gz_map`\n{KEPT_HEADING}\n- `matpoly.matexp`: `tests/x.py::t`\n## CLI\n`run`\n") == {"matexp"}


def test_every_helper_has_a_user_in_the_code():
    root = Path(gzflows.__file__).resolve().parents[2]
    package = {path.name: path.read_text() for path in (root / "src" / "gzflows").glob("*.py")}
    others = {str(path): path.read_text() for folder in ("bench", "tools") for path in (root / folder).glob("*.py")}
    assert helpers_nothing_uses(package, others, kept_names((root / "README.md").read_text())) == ([], [])
