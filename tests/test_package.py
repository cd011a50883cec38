"""Package surface: every name a module exports exists, every name the
benchmark's tracer wraps exists, no module imports a name it never uses or
assigns a module-level name it never reads, no module imports scipy, only
``qme.quadrature`` sizes panels and chunks and builds doubling ladders and
one function reads a bath's kink, no superoperator but the Hamiltonian one
is built with ``np.kron``, no ``einsum`` takes three or more operands, and
importing the package and its CLI, propagating a drive schedule, evolving a
state or sampling the generator norm loads no scipy module."""

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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def exported(tree) -> set:
    """The strings of a module's ``__all__``: each re-exports its name."""
    return {c.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for c in ast.walk(node.value) if isinstance(c, ast.Constant)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def unread_globals(path: pathlib.Path) -> list:
    """Names a module assigns at module level but never reads and does not
    list in ``__all__``; the package ``__init__`` is exempt."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    assigned = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name):
                    assigned.setdefault(n.id, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in assigned.items()
                  if name not in read | exported(tree) | {"__all__"})


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/qme/*.py")), ids=lambda p: p.name)
def test_no_unread_globals(path):
    # a module logger nothing logs to, or a constant nothing reads, is dead
    assert unread_globals(path) == []


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


QUADRATURE_KNOBS = {"PANEL_PHASE", "CHUNK_ELEMENTS"}


def names_used(tree) -> set:
    """Every name a module reads, imports or reads as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {a.asname or a.name for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names})


def reads_tau_c(function) -> bool:
    """Whether a function reads ``tau_c`` off an object other than ``self``,
    as an attribute or through ``getattr``."""
    for n in ast.walk(function):
        if (isinstance(n, ast.Attribute) and n.attr == "tau_c"
                and not (isinstance(n.value, ast.Name) and n.value.id == "self")):
            return True
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "getattr"
                and any(isinstance(a, ast.Constant) and a.value == "tau_c" for a in n.args)):
            return True
    return False


def test_one_quadrature_layer():
    # starting panels and chunk sizes are decided in qme.quadrature alone,
    # and one duck-typed probe reads a bath's kink
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(ROOT.glob("src/qme/*.py"))}
    knobs = {name: sorted(QUADRATURE_KNOBS & names_used(tree))
             for name, tree in trees.items() if name != "quadrature.py"}
    assert {name: used for name, used in knobs.items() if used} == {}
    probes = [f"{name}:{f.name}" for name, tree in trees.items() for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and reads_tau_c(f)]
    assert len(probes) <= 1, probes


def doubling_ladders(tree) -> list:
    """The line of every ``2 ** np.arange(...)`` or ``2 ** -np.arange(...)``
    a module builds."""
    def arange(node):
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "arange"
            or isinstance(node.func, ast.Name) and node.func.id == "arange")

    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
            and isinstance(n.left, ast.Constant) and n.left.value == 2 and arange(n.right)]


def test_one_doubling_ladder():
    # every ladder start 2^k, of a graded grid or a bath search, comes from
    # ``quadrature.doublings``
    found = {p.name: doubling_ladders(ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(ROOT.glob("src/qme/*.py"))}
    assert [name for name, lines in found.items() if lines] == ["quadrature.py"]


def kron_callers(tree) -> list:
    """The function around every ``kron`` a module reads, innermost first,
    or ``<module>``."""
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "kron"
                or isinstance(node, ast.Name) and node.id == "kron"):
            callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return callers


def test_one_superoperator_layout():
    # the column-stacked layout of every superoperator is decided by
    # ``operators._superop`` alone: ``hamiltonian_superop`` keeps the
    # np.kron expression its byte pin compares against, and the Pauli
    # strings of a config are tensor products of d x d operators, not
    # superoperators
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(ROOT.glob("src/qme/*.py"))}
    found = sorted(f"{name}:{where}" for name, tree in trees.items()
                   for where in kron_callers(tree))
    assert found == ["config.py:pauli_string_matrix"] + ["operators.py:hamiltonian_superop"] * 2


def many_operand_einsums(path: pathlib.Path) -> list:
    """The line of every ``einsum`` call with three or more operands.
    Without ``optimize``, numpy contracts those in one C loop over every
    index; as a matrix product the Davies Lamb shift of the 4-qubit ladder
    took 0.31 ms instead of 1.95 ms."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum" and len(node.args) >= 4]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/qme/*.py")), ids=lambda p: p.name)
def test_no_many_operand_einsum(path):
    assert many_operand_einsums(path) == []


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
td_cgme_superoperator(sched, X, OhmicBath(0.1, 1.0, 2.0), 1.0, 0.8, quadrature_order=6)
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
