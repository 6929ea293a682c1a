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


def _private_imports(source: str) -> list[str]:
    """The underscore names a module takes from another sl2prop module:
    ``from .m import _x``, and ``m._x`` on a module bound by ``from . import m``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "sl2prop"):
            if node.module in (None, "sl2prop"):
                modules.update(a.asname or a.name for a in node.names)
            else:
                found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")]
    return found


def test_a_private_import_is_caught():
    source = ("from .sl2rep import _TRACE_TOL, factor_coeffs\n"
              "from . import kernels as kn\n"
              "import numpy as np\n"
              "kn._factors(np._NoValue, kn.kernel_values)\n")
    assert _private_imports(source) == ["sl2rep._TRACE_TOL", "kn._factors"]


@pytest.mark.parametrize("path", sorted(Path(sl2prop.__file__).resolve().parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    # A helper another module needs is part of its owner's interface, and
    # is named without the underscore (as sl2rep.FACTOR_ORDER is for kernels).
    assert _private_imports(path.read_text(encoding="utf-8")) == []


POOL_NAMES = {"ProcessPoolExecutor", "ThreadPoolExecutor", "cancel_futures"}


def _users(source: str, wanted: set[str]) -> list[str]:
    """The top-level functions (and methods) that name one of ``wanted``, as
    a name, an attribute or a keyword; code outside any function counts as
    ``<module>``.  Imports do not count."""
    def names(node: ast.AST) -> set[str]:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.keyword) and sub.arg:
                found.add(sub.arg)
        return found

    return sorted({name for name, scope in _scopes(source) if names(scope) & wanted})


def _scopes(source: str):
    """(name, node) for each top-level function and method, and for each
    other top-level statement as ``<module>``; imports are skipped."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            yield "<module>", node


def _pool_users(source: str) -> list[str]:
    """The functions that name an executor class or ``cancel_futures``."""
    return _users(source, POOL_NAMES)


def test_a_pool_user_is_caught():
    source = ("from concurrent.futures import ThreadPoolExecutor\n"
              "def a(pool):\n    pool.shutdown(cancel_futures=True)\n"
              "def b():\n    return ThreadPoolExecutor(2)\n"
              "def c():\n    return 1\n")
    assert _pool_users(source) == ["a", "b"]


def test_one_cli_function_runs_every_pool():
    # Starting, cancelling and joining a pool is one helper's job; the
    # commands hand it their tasks.
    source = (Path(sl2prop.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert len(_pool_users(source)) == 1


def test_a_report_writer_is_caught():
    source = ("def cmd_a(args):\n    _write(args.output, [])\n"
              "def cmd_b(args):\n    return [], True, ''\n"
              "def main():\n    write = _write\n")
    assert _users(source, {"_write"}) == ["cmd_a", "main"]


def test_main_alone_writes_the_reports():
    # The commands return their entries; main writes them and decides the
    # exit status.
    source = (Path(sl2prop.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert _users(source, {"_write"}) == ["main"]


def _name(node: ast.AST) -> str | None:
    """The name a ``Name`` or an ``Attribute`` ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _caustic_sites(source: str) -> list[str]:
    """The functions that decide where t lies among the caustics: they read
    ``CAUSTIC_TOL`` other than to format it into a message, or take the
    floor or the round of a quotient by pi."""
    def decides(scope: ast.AST) -> bool:
        formatted = {id(sub) for f in ast.walk(scope) if isinstance(f, ast.FormattedValue)
                     for sub in ast.walk(f)}
        for sub in ast.walk(scope):
            if (_name(sub) == "CAUSTIC_TOL" and isinstance(sub.ctx, ast.Load)
                    and id(sub) not in formatted):
                return True
            if isinstance(sub, ast.Call) and _name(sub.func) in {"floor", "round"} and any(
                    isinstance(d, ast.BinOp) and isinstance(d.op, ast.Div)
                    and _name(d.right) == "pi" for arg in sub.args for d in ast.walk(arg)):
                return True
        return False

    return sorted({name for name, scope in _scopes(source) if decides(scope)})


def test_a_caustic_site_is_caught():
    source = ("CAUSTIC_TOL = 1e-8\n"
              "def a(t, omega, dt):\n"
              "    return math.floor(omega * (t - dt) / math.pi)\n"
              "def b(k):\n    return round(k / np.pi)\n"
              "def c(x):\n    return abs(x) <= kn.CAUSTIC_TOL\n"
              "class E:\n    def __init__(self):\n        self.m = f'{CAUSTIC_TOL:g}'\n"
              "def d(t):\n    return math.floor(t / 2.0) + round(math.pi)\n")
    assert _caustic_sites(source) == ["a", "b", "c"]


@pytest.mark.parametrize("module,owners", [("kernels", ["caustic_position"]), ("evolve", [])])
def test_one_function_decides_where_t_lies_among_the_caustics(module, owners):
    # The caustic index, the nearest caustic and the window have one owner,
    # which the kernels' refusal and the PDE check's stencil test both read.
    source = (Path(sl2prop.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert _caustic_sites(source) == owners
