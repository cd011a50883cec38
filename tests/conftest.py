"""Shared fixtures: the two-qubit benchmark model and baths.

Session scope keeps the expensive objects (bath timescale integrals, jump
decompositions) shared across test modules.
"""

import numpy as np
import pytest

from qme.baths import OhmicBath, RectangleBath, ToyBath
from qme.generators import decompose_coupling
from qme.operators import DensityMatrix, HermitianOperator, eigensystem

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENT = np.eye(2, dtype=complex)


@pytest.fixture(scope="session")
def toy_bath():
    return ToyBath()


@pytest.fixture(scope="session")
def ohmic_bath():
    return OhmicBath(kappa=1.0, omega_c=1.0, beta=1.0)


@pytest.fixture(scope="session")
def rectangle_bath():
    return RectangleBath(g=0.5, tau_c=1.0)


@pytest.fixture(scope="session")
def benchmark_hamiltonian():
    h = (
        0.5 * np.kron(PAULI_Z, IDENT)
        - 0.7 * np.kron(IDENT, PAULI_Z)
        + 0.3 * np.kron(PAULI_Z, PAULI_Z)
        + np.kron(PAULI_X, IDENT)
        + np.kron(IDENT, PAULI_X)
    )
    return HermitianOperator(h)


@pytest.fixture(scope="session")
def benchmark_coupling():
    return HermitianOperator(np.kron(PAULI_Z, IDENT))


@pytest.fixture(scope="session")
def benchmark_initial():
    return DensityMatrix.from_pure([0.0, 0.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def benchmark_jd(benchmark_hamiltonian, benchmark_coupling):
    return decompose_coupling(eigensystem(benchmark_hamiltonian), benchmark_coupling)


@pytest.fixture(scope="session")
def parity_jd():
    """A 3-qubit Pauli model whose terms all commute with ZZZ, coupled
    through ZII: two parity sectors of 4 levels, 25 Bohr frequencies."""
    paulis = {"I": IDENT, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    terms = {"ZII": 0.768349, "IZI": 1.0218, "IIZ": -0.308396, "XXI": -0.597012,
             "YYI": -0.438379, "ZZI": -0.227511, "IXX": -0.684532,
             "IYY": -0.732595, "IZZ": 0.42013, "ZYX": 0.181048}

    def string(label):
        out = np.ones((1, 1), dtype=complex)
        for c in label:
            out = np.kron(out, paulis[c])
        return out

    H = sum(c * string(label) for label, c in terms.items())
    return decompose_coupling(eigensystem(HermitianOperator(H)),
                              HermitianOperator(string("ZII")))
