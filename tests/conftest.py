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


def pauli_string(label):
    """The Kronecker product of the Pauli matrices named by ``label``."""
    paulis = {"I": IDENT, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    out = np.ones((1, 1), dtype=complex)
    for c in label:
        out = np.kron(out, paulis[c])
    return out


@pytest.fixture(scope="session")
def parity_jd():
    """A 3-qubit Pauli model whose terms all commute with ZZZ, coupled
    through ZII: two parity sectors of 4 levels, 25 Bohr frequencies."""
    terms = {"ZII": 0.768349, "IZI": 1.0218, "IIZ": -0.308396, "XXI": -0.597012,
             "YYI": -0.438379, "ZZI": -0.227511, "IXX": -0.684532,
             "IYY": -0.732595, "IZZ": 0.42013, "ZYX": 0.181048}
    H = sum(c * pauli_string(label) for label, c in terms.items())
    return decompose_coupling(eigensystem(HermitianOperator(H)),
                              HermitianOperator(pauli_string("ZII")))


def _ladder_hamiltonian(rng, n):
    """A parity-preserving n-qubit Pauli Hamiltonian: Z on every qubit; XX,
    YY and ZZ on neighbours; two more even-weight strings.  Every term
    commutes with Z^n, so a generic draw has d(d/2 - 1) + 1 Bohr frequencies
    for a coupling Z on qubit 0."""
    labels = ["I" * i + "Z" + "I" * (n - i - 1) for i in range(n)]
    labels += ["I" * i + pair + "I" * (n - i - 2) for i in range(n - 1) for pair in ("XX", "YY", "ZZ")]
    while len(labels) < 4 * n - 1:
        label = "".join(rng.choice(list("IXYZ"), size=n))
        if set(label) != {"I"} and sum(c in "XY" for c in label) % 2 == 0 and label not in labels:
            labels.append(label)
    H = sum(rng.choice([-1, 1]) * rng.uniform(0.2, 1.2) * pauli_string(label) for label in labels)
    return HermitianOperator(H), HermitianOperator(pauli_string("Z" + "I" * (n - 1)))


@pytest.fixture(scope="session")
def ladder_jds():
    """One seeded draw of 2-, 3- and 4-qubit models of the family the
    benchmark's many-frequency Pauli ladder draws from: {n: jump
    decomposition}, with 5, 25 and 113 Bohr frequencies."""
    rng = np.random.default_rng(301)
    jds = {}
    for n in (2, 3, 4):
        H, A = _ladder_hamiltonian(rng, n)
        jds[n] = decompose_coupling(eigensystem(H), A)
    assert [len(jd.frequencies) for jd in jds.values()] == [5, 25, 113]
    return jds
