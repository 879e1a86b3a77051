"""No floating point anywhere in the package: a syntax scan of every
module in src/crcodes for the ways Python code reaches a float."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crcodes"

INEXACT_MODULES = {"math", "cmath", "statistics", "decimal"}
# Names that may be imported from math, with why each is exact.
EXACT_MATH = {
    "comb": "binomial coefficient of two ints, an int",
    "isqrt": "floor square root of an int, an int",
}


def float_uses(source: str) -> list[tuple[int, str]]:
    """(line, finding) for every float or complex constant, every use of
    the names float and complex, every import from an inexact module
    other than the EXACT_MATH names, and every true division, in source
    order."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (float, complex)
        ):
            found.append((node.lineno, f"constant {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] in INEXACT_MODULES:
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.module in INEXACT_MODULES:
            for alias in node.names:
                if node.module != "math" or alias.name not in EXACT_MATH:
                    found.append(
                        (node.lineno, f"from {node.module} import {alias.name}")
                    )
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            found.append((node.lineno, f"true division in {func or 'module'}"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_module_has_no_floating_point(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source,finding",
    [
        ("x = 0.5", "constant 0.5"),
        ("x = 2j", "constant 2j"),
        ("x = float(3)", "name float"),
        ("def f(x: complex): pass", "name complex"),
        ("import math", "import math"),
        ("import decimal as d", "import decimal"),
        ("from math import sqrt", "from math import sqrt"),
        ("from statistics import mean", "from statistics import mean"),
        ("from cmath import comb", "from cmath import comb"),
        ("x = 1 / 2", "true division in module"),
        ("def f(a):\n    a /= 2", "true division in f"),
        ("def solve(a):\n    return a / 2", "true division in solve"),
    ],
)
def test_scan_flags_each_way_to_a_float(source, finding):
    assert [what for _, what in float_uses(source)] == [finding]


def test_scan_passes_exact_code():
    source = (
        "from math import comb, isqrt\n"
        "def solve(a, b):\n"
        "    return a // b + comb(4, 2) // isqrt(9)\n"
    )
    assert float_uses(source) == []
