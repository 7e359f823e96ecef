"""Every name `glattice` exports serves the library, the benchmark or an acceptance test.

A name counts as used when the other modules of the package, `perfbench/*.py` or
`tests/test_acceptance.py` refer to it (a name, an attribute or an import); unit
tests alone do not keep a public name alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "glattice"

# exported names that no user below refers to yet, each with why it stays public
ALLOWED = {
    "grid_sup_of_linear_minus": "the numeric conjugate engine's public entry",
    "solve": "the g-expectation field, the primal counterpart of `utility_solution`",
    "accumulated_cost": "the pathwise cost A of the Doob check (ROADMAP item 17)",
    "first_order_optimality": "the dual minimiser's optimality check (ROADMAP item 17)",
    "upper_bound_check": "the penalty's upper bound (ROADMAP item 6)",
    "window_penalty_process": "the window value process R (ROADMAP item 7)",
}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names() -> set[str]:
    users = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    users += [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_user():
    unused = exported_names() - referenced_names() - ALLOWED.keys()
    assert not unused, f"exported but used only by unit tests: {sorted(unused)}"


def test_allowlist_names_only_exports_without_a_user():
    assert ALLOWED.keys() <= exported_names()
    assert not ALLOWED.keys() & referenced_names()  # a name that gained a user leaves the list
