"""The oracle's numeric modules share no code with the production numerics."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import radialqm.oracle

ORACLE_DIR = Path(radialqm.oracle.__file__).parent

# the special-function kernel, the solvers and the radial numerics; the
# model classes in radialqm.radial.model are shared vocabulary, not numerics
PRODUCTION_NUMERICS = (
    "radialqm.specfun",
    "radialqm.solvers",
    "radialqm.radial.norms",
    "radialqm.radial.quadrature",
    "radialqm.radial.wavefunction",
)

MPMATH_CYLINDER_ROUTINES = {"besselj", "bessely", "besseli", "besselk", "hyp0f1", "hyper"}


def _imported(tree: ast.AST, package: str = "radialqm.oracle"):
    """Each module an import names, and each module its from-imported names could be."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _production_imports(tree: ast.AST):
    return sorted(
        name
        for name in _imported(tree)
        if any(name == p or name.startswith(p + ".") for p in PRODUCTION_NUMERICS)
    )


@pytest.mark.parametrize("module", ["series.py", "fd.py", "fixtures.py"])
def test_oracle_module_imports_no_production_numerics(module):
    tree = ast.parse((ORACLE_DIR / module).read_text())
    assert _production_imports(tree) == []


def test_the_import_check_sees_relative_and_absolute_forms():
    source = (
        "from ..specfun import bessel_j\n"
        "from ..radial import norms\n"
        "from ..radial.model import Dimension\n"
        "import radialqm.solvers.rootfind\n"
    )
    assert _production_imports(ast.parse(source)) == [
        "radialqm.radial.norms",
        "radialqm.solvers.rootfind",
        "radialqm.specfun",
        "radialqm.specfun.bessel_j",
    ]


def test_series_names_no_mpmath_cylinder_routine():
    tree = ast.parse((ORACLE_DIR / "series.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert not names & MPMATH_CYLINDER_ROUTINES
