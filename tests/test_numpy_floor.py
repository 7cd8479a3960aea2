"""The package keeps to the numpy floor that pyproject.toml declares (numpy>=1.24).

The installed numpy may be newer and cannot catch a call that only exists there,
so the source is read instead: no module of gzflows may name a numpy function
that numpy 2.x added (or, as np.bool, brought back after 1.24 removed it).
"""

import ast
from pathlib import Path

import gzflows

# added to the numpy namespace in 2.0-2.2 (methods such as ndarray.astype are older),
# and to numpy.linalg in 2.0
NUMPY2_ONLY = frozenset(
    [f"numpy.{name}" for name in (
        "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype",
        "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "bool", "concat",
        "cumulative_prod", "cumulative_sum", "isdtype", "long", "matrix_transpose", "matvec",
        "permute_dims", "pow", "trapezoid", "ulong", "unique_all", "unique_counts",
        "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat")]
    + [f"numpy.linalg.{name}" for name in (
        "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer", "svdvals",
        "tensordot", "trace", "vecdot", "vector_norm")]
)


def numpy2_names(source: str) -> list[str]:
    """Every numpy-2-only name that the module source imports or reads, as written."""
    tree = ast.parse(source)
    # each name the module binds to numpy by `import numpy [as name]`
    roots = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            found += [f"from {node.module} import {alias.name}" for alias in node.names
                      if f"{node.module}.{alias.name}" in NUMPY2_ONLY]
        elif isinstance(node, ast.Attribute):
            root, _, rest = ast.unparse(node).partition(".")
            if root in roots and f"numpy.{rest}" in NUMPY2_ONLY:
                found.append(f"{root}.{rest}")
    return found


def test_the_guard_sees_numpy2_names():
    source = ("import numpy as np\nfrom numpy import concat\nx = np.vecdot(a, b)\n"
              "y = a.astype(complex)\nz = np.linalg.vector_norm(a)\nw = np.linalg.norm(a) + np.abs(a)\n")
    assert numpy2_names(source) == ["from numpy import concat", "np.vecdot", "np.linalg.vector_norm"]


def test_the_package_names_no_numpy2_only_function():
    package = Path(gzflows.__file__).resolve().parent
    found = {path.name: names for path in sorted(package.glob("*.py"))
             if (names := numpy2_names(path.read_text()))}
    assert found == {}
