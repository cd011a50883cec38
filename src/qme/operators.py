"""Dense complex linear algebra primitives.

Hermitian operators, eigendecompositions with degeneracy clustering, the
trace/operator norms used for all state and generator comparisons, the
column-stacking vectorization that turns a master-equation right-hand side
into a dim^2 x dim^2 superoperator matrix, and the real coordinates of a
Hermitian operator in an orthonormal Hermitian basis, in which a generator
that preserves Hermiticity is a real matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HermitianOperator",
    "DensityMatrix",
    "EigenSystem",
    "Superoperator",
    "eigensystem",
    "trace_norm",
    "operator_norm",
    "vectorize_generator",
    "vectorize_redfield",
    "choi_matrix",
    "choi_min_eigenvalue",
    "to_real",
    "from_real",
    "to_real_superop",
]

HERMITICITY_TOL = 1e-12
# a state may have eigenvalues down to -POSITIVITY_TOL
POSITIVITY_TOL = 1e-8
# eigenvalues closer than DEGENERACY_RTOL * max(1, ||H||) share one level
DEGENERACY_RTOL = 1e-9


def _as_square_complex(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix (Hamiltonians, couplings, observables)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries)
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", 0.5 * (m + m.conj().T))
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        return operator_norm(self.entries)


@dataclass(frozen=True)
class DensityMatrix:
    """A physical state: Hermitian, unit trace, positive semidefinite."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries)
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > 1e-10 * scale:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > 1e-9 or abs(np.trace(m).imag) > 1e-9:
            raise ValueError("density matrix trace differs from 1 beyond 1e-9")
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if min_eig < -POSITIVITY_TOL:
            raise ValueError(
                f"density matrix has eigenvalue {min_eig:.3e} below -{POSITIVITY_TOL:g}"
            )
        object.__setattr__(self, "entries", m)
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def from_pure(psi) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition H = sum_n E_n P_n after degeneracy clustering."""

    energies: np.ndarray            # ascending, one entry per cluster
    projectors: tuple               # Hermitian projectors, same order
    degeneracy_tol: float

    @property
    def level_spacing(self) -> float:
        """Minimum gap between distinct (clustered) energies."""
        e = self.energies
        if len(e) < 2:
            return np.inf
        return float(np.min(np.diff(e)))

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.projectors[0], dtype=complex)
        for en, p in zip(self.energies, self.projectors):
            out += en * p
        return out


def eigensystem(H: HermitianOperator) -> EigenSystem:
    """Eigendecompose H, merging eigenvalues closer than
    DEGENERACY_RTOL * max(1, ||H||): floating-point eigenvalues of a
    degenerate level are never exactly equal, but must share one projector.
    """
    degeneracy_tol = DEGENERACY_RTOL * max(1.0, H.norm())
    try:
        vals, vecs = np.linalg.eigh(H.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        cond = np.linalg.cond(H.entries)
        raise ArithmeticError(
            f"eigensolver failed to converge (condition number {cond:.3e})"
        ) from exc

    # cluster ascending eigenvalues
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[clusters[-1][0]] < degeneracy_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    energies = []
    projectors = []
    for idx in clusters:
        v = vecs[:, idx]
        projectors.append(v @ v.conj().T)
        energies.append(float(np.mean(vals[idx])))
    return EigenSystem(
        energies=np.array(energies),
        projectors=tuple(projectors),
        degeneracy_tol=degeneracy_tol,
    )


def trace_norm(X) -> float:
    """Sum of singular values (valid for non-Hermitian differences too)."""
    m = _as_square_complex(X)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norm sum |lambda| of every matrix in a (..., d, d) stack of
    Hermitian matrices, by one batched ``eigvalsh``.  The input must be
    Hermitian (up to rounding): only its lower triangle is read."""
    return np.abs(np.linalg.eigvalsh(stack)).sum(axis=-1)


def operator_norm(X) -> float:
    """Largest singular value."""
    m = _as_square_complex(X)
    return float(np.linalg.svd(m, compute_uv=False).max())


@dataclass(frozen=True)
class Superoperator:
    """dim^2 x dim^2 matrix acting on column-stacked density matrices."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        if m.shape[0] != self.dim ** 2:
            raise ValueError("superoperator size does not match dim^2")
        object.__setattr__(self, "matrix", m)
        self.matrix.setflags(write=False)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        v = self.matrix @ np.asarray(rho, dtype=complex).reshape(-1, order="F")
        return v.reshape(self.dim, self.dim, order="F")


def hamiltonian_superop(H_eff: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i [H_eff, rho]."""
    H = np.asarray(H_eff, dtype=complex)
    eye = np.eye(H.shape[0])
    return -1j * (np.kron(eye, H) - np.kron(H.T, eye))


def _superop(P, Q, left, right) -> np.ndarray:
    """The (..., d^2, d^2) matrices of rho -> sum_k Q_k rho P_k^T + left rho +
    rho right, i.e. sum_k P_k kron Q_k + I kron left + right^T kron I, for
    (..., K, d, d) stacks P, Q and (..., d, d) left and right terms that
    broadcast against them.  sum_k P_k[a, b] Q_k[i, j] is the (a b),(i j)
    entry of one (d^2, K) x (K, d^2) product per leading index, transposed
    to the (a i),(b j) entry of the Kronecker sum; the left and right terms
    are added in place on its block diagonals, so no other (d^2 x d^2)
    array is built (Havel, J. Math. Phys. 44, 534 (2003))."""
    *batch, K, d, _ = P.shape
    # the product is a temporary, freed once transposed
    flat = (np.swapaxes(P.reshape(*batch, K, d * d), -1, -2)
            @ Q.reshape(*batch, K, d * d)).reshape(*batch, d, d, d, d)
    mat = np.swapaxes(flat, -3, -2).reshape(*batch, d * d, d * d)
    blocks, k = mat.reshape(*batch, d, d, d, d), np.arange(d)
    blocks[..., k, :, k, :] += left
    blocks[..., :, k, :, k] += np.swapaxes(right, -1, -2)
    return mat


def vectorize_generator(H_eff, lindblad_ops) -> Superoperator:
    """Vectorize -i[H_eff, rho] + sum_k w_k (L rho L^+ - 1/2 {L^+L, rho}).

    ``lindblad_ops`` is a list of (weight >= 0, L) pairs. Negative weights are
    rejected here; use :func:`vectorize_redfield` for non-Lindblad generators.
    The sandwiches L rho L^+ are the Kronecker sum sum_k w_k conj(L_k) kron
    L_k of ``_superop``; -i[H, rho] - 1/2 {L^+L, rho} is its left term
    -iH - L^+L/2 and right term iH - L^+L/2.
    """
    H = H_eff.entries if isinstance(H_eff, HermitianOperator) else np.asarray(H_eff, complex)
    d = H.shape[0]
    ops = list(lindblad_ops)
    w = np.array([wk for wk, _ in ops], dtype=float)
    if np.any(w < 0):
        raise ValueError(f"negative Lindblad weight {w.min()}")
    if any(np.shape(L) != (d, d) for _, L in ops):
        raise ValueError("Lindblad operator dimension mismatch")
    L = np.array([L for _, L in ops], dtype=complex).reshape(len(w), d, d)
    wLc = w[:, None, None] * L.conj()
    # sum_k w_k L_k^+ L_k
    LdL = wLc.reshape(-1, d).T @ L.reshape(-1, d)
    return Superoperator(_superop(wLc, L, -1j * H - 0.5 * LdL, 1j * H - 0.5 * LdL), d)


def _redfield_matrix(H, A, A_f) -> np.ndarray:
    """The column-stacked matrix of rho -> -i[H, rho] + (A rho A_f -
    rho A_f A + h.c.) for every A_f of a (..., d, d) stack: the Kronecker
    sum of ``_superop`` with P = [A_f^T, A^T] and Q = [A, A_f^+], left term
    -iH - A A_f^+ and right term iH - A_f A."""
    A_fd = np.swapaxes(A_f, -1, -2).conj()
    P = np.stack(np.broadcast_arrays(np.swapaxes(A_f, -1, -2), A.T), axis=-3)
    Q = np.stack(np.broadcast_arrays(A, A_fd), axis=-3)
    return _superop(P, Q, -1j * H - A @ A_fd, 1j * H - A_f @ A)


def vectorize_redfield(H, A, A_f) -> Superoperator:
    """Vectorize -i[H, rho] + (A rho A_f - rho A_f A + h.c.).

    The filtered operator ``A_f`` carries arbitrary complex coefficients, so
    this entry point does not require Lindblad-form weights; the matrix is
    ``_redfield_matrix``'s.
    """
    H = H.entries if isinstance(H, HermitianOperator) else np.asarray(H, complex)
    A = A.entries if isinstance(A, HermitianOperator) else np.asarray(A, complex)
    A_f = np.asarray(A_f, dtype=complex)
    d = H.shape[0]
    if A.shape != (d, d) or A_f.shape != (d, d):
        raise ValueError("dimension mismatch")
    return Superoperator(_redfield_matrix(H, A, A_f), d)


def choi_matrix(sop: Superoperator) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) Phi(|i><j|) of the map Phi, by
    realignment: entry (i a),(j b) is Phi(|i><j|)[a, b], entry (a + d b),
    (i + d j) of the column-stacked matrix."""
    d = sop.dim
    return sop.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def choi_min_eigenvalue(sop: Superoperator, dt: float) -> float:
    """Minimum Choi eigenvalue of (identity + dt * generator).

    A Lindblad-form generator yields a completely positive short-time map, so
    this should be >= -O(dt^2).
    """
    step = Superoperator(np.eye(sop.dim ** 2) + dt * sop.matrix, sop.dim)
    C = choi_matrix(step)
    C = 0.5 * (C + C.conj().T)
    return float(np.linalg.eigvalsh(C).min())


# ---------------------------------------------------------------------------
# real coordinates in the orthonormal Hermitian basis
# ---------------------------------------------------------------------------

_SQRT_HALF = math.sqrt(0.5)


@lru_cache(maxsize=None)
def _real_basis(n: int):
    """Column-stacked positions for the basis of d x d Hermitian matrices,
    d^2 = n: E_ii, then (E_ij + E_ji)/sqrt2, then i (E_ij - E_ji)/sqrt2 for
    i < j.  Returns (d, diag, up, lo): the entries (i, i), and (i, j) and
    (j, i) of every i < j.  Row k of the unitary Q with coordinates x = Q v
    has at most two nonzeros, so Q is applied by index gathers."""
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"length {n} is not the square of a dimension")
    i, j = np.triu_indices(d, 1)
    diag, up, lo = np.arange(d) * (d + 1), i + j * d, j + i * d
    for a in (diag, up, lo):
        a.setflags(write=False)
    return d, diag, up, lo


def _gather(v: np.ndarray, axis: int, phase: complex) -> np.ndarray:
    """Q (phase 1j) or conj(Q) (phase -1j) applied along ``axis`` of the
    complex array v: the diagonal entries, sqrt(1/2) (u + l) and
    phase sqrt(1/2) (l - u) of the upper and lower entries u, l, written
    into one output with the lower entries the only temporary.  The
    indices are in range, and ``mode="clip"`` lets ``np.take`` write into
    a strided slice unbuffered."""
    d, diag, up, lo = _real_basis(v.shape[axis])
    out = np.empty(v.shape, dtype=complex)
    first, sym, anti = np.split(out, [d, d + len(up)], axis=axis)
    np.take(v, diag, axis=axis, out=first, mode="clip")
    np.take(v, up, axis=axis, out=sym, mode="clip")
    l = np.take(v, lo, axis=axis, mode="clip")
    np.subtract(l, sym, out=anti)
    sym += l
    sym *= _SQRT_HALF
    anti *= phase * _SQRT_HALF
    return out


def _real_part(z: np.ndarray, what: str) -> np.ndarray:
    """Re z, or ValueError when Im z exceeds HERMITICITY_TOL * max(1, max|Re z|):
    dropping it would misread the input."""
    scale = max(1.0, float(np.max(np.abs(z.real), initial=0.0)))
    if np.max(np.abs(z.imag), initial=0.0) > HERMITICITY_TOL * scale:
        raise ValueError(f"{what} beyond {HERMITICITY_TOL:g} relative")
    return np.ascontiguousarray(z.real)


def to_real(v) -> np.ndarray:
    """Real coordinates x = Q v of column-stacked Hermitian matrices, a
    (..., d^2) array, in the basis E_ii, (E_ij + E_ji)/sqrt2,
    i (E_ij - E_ji)/sqrt2 (i < j): x_k = Tr(B_k rho)."""
    z = _gather(np.asarray(v, dtype=complex), -1, 1j)
    return _real_part(z, "matrix is not Hermitian")


def from_real(x) -> np.ndarray:
    """Column-stacked complex entries v = Q^+ x of real coordinates x, a
    (..., d^2) array: the inverse of ``to_real``."""
    x = np.asarray(x, dtype=float)
    d, diag, up, lo = _real_basis(x.shape[-1])
    m = len(up)
    sym, anti = _SQRT_HALF * x[..., d:d + m], _SQRT_HALF * x[..., d + m:]
    v = np.empty(x.shape, dtype=complex)
    v[..., diag] = x[..., :d]
    # not conj() of the upper entries: that would print a zero imaginary
    # part as -0
    v[..., up] = sym + 1j * anti
    v[..., lo] = sym - 1j * anti
    return v


def to_real_superop(M) -> np.ndarray:
    """The real matrix Q M Q^+ of a column-stacked superoperator, or of a
    (..., d^2, d^2) stack of them, acting on ``to_real`` coordinates.
    ValueError if M does not preserve Hermiticity."""
    z = _gather(_gather(np.asarray(M, dtype=complex), -2, 1j), -1, -1j)
    return _real_part(z, "superoperator does not preserve Hermiticity")
