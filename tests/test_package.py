"""Package surface: every name a module exports exists, every name the
benchmark's tracer wraps exists, no module imports a name it never uses, no
module imports scipy, and importing the package and its
CLI, propagating a drive schedule, evolving a state or sampling the
generator norm loads no scipy module."""

import ast
import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def _perfbench_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    # ``perfbench/run.py --trace 1`` wraps these by name; a deleted one
    # breaks the traced run
    tracing = _perfbench_tracing()
    missing = [f"{mod}.{attr}" for targets in tracing.FUNCTIONS.values()
               for mod, attr in targets
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_traced_bath_methods_exist():
    from qme.baths import Bath

    classes = (Bath, *Bath.__subclasses__())
    missing = [method for method in _perfbench_tracing().BATH_METHODS.values()
               if not any(method in vars(cls) for cls in classes)]
    assert missing == []


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


def scipy_imports(path: pathlib.Path):
    """The line of every import of scipy or of a scipy submodule."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
            or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy"
                                                    for a in node.names)]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/qme/*.py")), ids=lambda p: p.name)
def test_no_adaptive_quadrature(path):
    # no module imports scipy: every integral runs on qme.quadrature, every
    # time-dependent generator on CFM4 steps and every exponential on the
    # Taylor kernel of qme.evolve; scipy is a test dependency only
    assert scipy_imports(path) == []


def scipy_modules_after(code: str) -> str:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter
    (this one has scipy loaded by the tests), as a printed sorted list."""
    code = ("import sys\n" + code + "\nprint(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["qme", "qme.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules_after(f"import {module}") == "[]"


def test_drive_propagation_loads_no_scipy():
    # every drive propagation reads the segments' eigensystems, so a
    # schedule with H != 0 needs no matrix exponential
    assert scipy_modules_after("""
import numpy as np
from qme.baths import OhmicBath
from qme.driving import DriveSchedule, propagator
from qme.evolve import td_cgme_superoperator
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
sched = DriveSchedule(segments=((0.0, 1.0, Z), (1.0, 2.0, 0.3 * X + Z)),
                      pulses=((0.5, -1j * X),))
propagator(sched, 0.2, 1.7)
td_cgme_superoperator(sched, X, OhmicBath(0.1, 1.0, 2.0), 1.0, 0.8,
                      quadrature_order=6, grid_order=6)
""") == "[]"


def test_evolution_loads_no_scipy():
    # every exponential is the numpy Taylor kernel of ``qme.evolve``, so no
    # trajectory and no norm sample needs scipy
    assert scipy_modules_after("""
import numpy as np
from qme.baths import ToyBath
from qme.diagnostics import lambda_estimate
from qme.evolve import evolve, evolve_ore
from qme.generators import davies_generator, decompose_coupling
from qme.operators import DensityMatrix, HermitianOperator, eigensystem, vectorize_generator
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H, A = HermitianOperator(Z + 0.4 * X), HermitianOperator(Z)
bath = ToyBath()
rho0 = DensityMatrix.from_pure([1.0, 1.0])
grid = np.linspace(0.0, 2.0, 5)
jd = decompose_coupling(eigensystem(H), A)
evolve(davies_generator(jd, bath), rho0, grid).dense(0.3)
M = vectorize_generator(H.entries, [(0.2, Z)]).matrix
evolve(lambda ts: np.array([(1.0 + t) * M for t in ts]), rho0, grid).dense(0.3)
evolve_ore(H, A, bath, rho0, grid)
lambda_estimate(H, A, bath, n_samples=100)
""") == "[]"
