"""Source hygiene: every module uses each name it imports, and every name a
module exports resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import sl2prop

MODULES = sorted(p for p in Path(sl2prop.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    """The names the module's imports bind (``import a.b`` binds ``a``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the names its ``__all__`` lists."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def test_an_unused_import_is_caught():
    tree = ast.parse("from .numerics import bessel_j, gauss_legendre_panels\n"
                     "import numpy as np\n"
                     "np.sum(bessel_j(0.0, 1.0))\n")
    assert _imported(tree) - _referenced(tree) == {"gauss_legendre_panels"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_imported(tree) - _referenced(tree)) == []


@pytest.mark.parametrize("module", ["sl2prop", *(f"sl2prop.{p.stem}" for p in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def _imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, and every ``module.name`` it
    imports from one."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
    return imported


def test_the_oracle_imports_nothing_from_the_kernels():
    # The oracles check the closed forms, so they must not share their code.
    imported = _imported_modules(Path(sl2prop.__file__).parent / "oracle.py")
    assert [m for m in sorted(imported) if "kernels" in m.split(".")] == []


@pytest.mark.parametrize("path", sorted(Path(sl2prop.__file__).resolve().parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    # Nothing needs LAPACK since the eigenbasis oracle replaced the
    # Crank-Nicolson evolver, and its import slows every start of the CLI.
    imported = _imported_modules(path)
    assert [m for m in sorted(imported) if m.split(".")[:2] == ["scipy", "linalg"]] == []


@pytest.mark.parametrize("path", sorted(Path(sl2prop.__file__).resolve().parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy_fft(path):
    # numpy.fft runs the same pocketfft for the one convolution that needs
    # it, and importing scipy.fft adds about 37 ms to every start of the CLI.
    imported = _imported_modules(path)
    assert [m for m in sorted(imported) if m.split(".")[:2] == ["scipy", "fft"]] == []
