"""Package surface: every name a module exports exists, no module imports
a name it never uses, and no coefficient path falls back to adaptive
quadrature."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import qme

MODULES = sorted(m.name for m in pkgutil.iter_modules(qme.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qme.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("src/qme/*.py"))


def unused_imports(path: pathlib.Path) -> list:
    """Names a module imports but never reads; ``__future__`` imports and the
    package ``__init__`` re-exports are exempt."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a string in __all__ re-exports the name
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# scipy.integrate names a module other than baths may import: the ODE
# integrator and the cumulative trapezoid of the time-local reference
NON_QUADRATURE = {"solve_ivp", "cumulative_trapezoid"}
# the functions of baths that may call scipy.integrate: the timescale
# integrals and ToyBath's normalisation (in its __init__)
BATHS_QUADRATURE = {"_compute_timescales", "__init__"}


def scipy_integrate_uses(path: pathlib.Path):
    """(names imported from scipy.integrate, whether the module itself is
    imported, the functions reading that module's name)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, module_alias = set(), None
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.integrate":
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            for a in node.names:
                if a.name == "integrate":
                    module_alias = a.asname or a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "scipy.integrate":
                    module_alias = a.asname or "scipy"
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(isinstance(n, ast.Name) and n.id == module_alias
                       for n in ast.walk(fn))}
    return names, module_alias is not None, readers


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/qme/*.py")), ids=lambda p: p.name)
def test_no_adaptive_quadrature(path):
    names, whole_module, readers = scipy_integrate_uses(path)
    if path.name == "baths.py":
        assert names == set()
        assert readers <= BATHS_QUADRATURE
    else:
        assert not whole_module
        assert names <= NON_QUADRATURE
