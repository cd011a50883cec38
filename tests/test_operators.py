"""Linear-algebra layer: norms, eigensystems, vectorization, Choi checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qme.operators import (
    DensityMatrix,
    HermitianOperator,
    Superoperator,
    choi_matrix,
    choi_min_eigenvalue,
    eigensystem,
    from_real,
    hamiltonian_superop,
    operator_norm,
    to_real,
    to_real_superop,
    trace_norm,
    vectorize_generator,
    vectorize_redfield,
    _gather,
    _redfield_matrix,
    _trace_norms,
)
from qme.generators import cgme_generator, davies_generator, GeneratorConfig, redfield_generator

from conftest import PAULI_X
import oracles


def _random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def _random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_symmetrizes_roundoff(self):
        m = PAULI_X + 1e-14 * np.array([[0, 1j], [0, 0]])
        op = HermitianOperator(m)
        assert np.allclose(op.entries, op.entries.conj().T)


class TestDensityMatrix:
    def test_pure_state_normalized(self):
        rho = DensityMatrix.from_pure([1.0, 1.0])
        assert np.isclose(np.trace(rho.entries), 1.0)
        assert np.isclose(np.trace(rho.entries @ rho.entries).real, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]))


class TestNorms:
    def test_trace_norm_diag(self):
        assert np.isclose(trace_norm(np.diag([3.0, -4.0])), 7.0)

    def test_operator_norm_diag(self):
        assert np.isclose(operator_norm(np.diag([3.0, -4.0])), 4.0)

    def test_trace_norm_dominates_operator_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = _random_hermitian(rng, 4)
            assert trace_norm(m) >= operator_norm(m) - 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_trace_norm_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_hermitian(rng, 3)
        b = _random_hermitian(rng, 3)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_trace_norm_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = _random_hermitian(rng, 3)
        q, _ = np.linalg.qr(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        assert np.isclose(trace_norm(q @ m @ q.conj().T), trace_norm(m), atol=1e-10)

    def test_stacked_trace_norms_match_svd(self):
        # the stacked norms sum |eigenvalue| of Hermitian input; a batched
        # SVD is the general-matrix reference
        rng = np.random.default_rng(3)
        stack = np.array([_random_hermitian(rng, 4) for _ in range(129)]).reshape(3, 43, 4, 4)
        ref = np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
        got = _trace_norms(stack)
        assert got.shape == (3, 43)
        assert np.max(np.abs(got - ref) / ref) < 1e-14


class TestEigenSystem:
    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        h = HermitianOperator(_random_hermitian(rng, 5))
        eig = eigensystem(h)
        assert np.allclose(eig.reconstruct(), h.entries, atol=1e-10)

    def test_projectors_orthogonal_complete(self):
        rng = np.random.default_rng(2)
        h = HermitianOperator(_random_hermitian(rng, 4))
        eig = eigensystem(h)
        total = sum(eig.projectors)
        assert np.allclose(total, np.eye(4), atol=1e-10)
        for i, p in enumerate(eig.projectors):
            for j, q in enumerate(eig.projectors):
                expected = p if i == j else np.zeros_like(p)
                assert np.allclose(p @ q, expected, atol=1e-10)

    def test_degeneracy_clustering(self):
        h = HermitianOperator(np.diag([1.0, 1.0 + 1e-12, 2.0]))
        eig = eigensystem(h)
        assert len(eig.energies) == 2
        assert np.isclose(np.trace(eig.projectors[0]).real, 2.0)

    def test_level_spacing(self):
        h = HermitianOperator(np.diag([0.0, 0.5, 2.0]))
        assert np.isclose(eigensystem(h).level_spacing, 0.5)


class TestVectorization:
    def test_hamiltonian_superop_matches_commutator(self):
        rng = np.random.default_rng(3)
        h = _random_hermitian(rng, 3)
        rho = _random_state(rng, 3)
        sop = Superoperator(hamiltonian_superop(h), 3)
        assert np.allclose(sop.apply(rho), -1j * (h @ rho - rho @ h), atol=1e-12)

    def test_lindblad_action(self):
        rng = np.random.default_rng(4)
        h = _random_hermitian(rng, 3)
        L = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = _random_state(rng, 3)
        sop = vectorize_generator(h, [(0.7, L)])
        ldl = L.conj().T @ L
        expected = (
            -1j * (h @ rho - rho @ h)
            + 0.7 * (L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
        )
        assert np.allclose(sop.apply(rho), expected, atol=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            vectorize_generator(np.zeros((2, 2)), [(-0.1, PAULI_X)])

    def test_matches_kron_loop(self):
        rng = np.random.default_rng(11)
        h = _random_hermitian(rng, 4)
        ops = [(rng.uniform(0.0, 2.0),
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
               for _ in range(30)]
        ref = oracles.lindblad_superop_kron(h, ops)
        assert np.max(np.abs(vectorize_generator(h, ops).matrix - ref)) < 1e-13
        assert np.max(np.abs(vectorize_generator(h, []).matrix - hamiltonian_superop(h))) == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            vectorize_generator(np.zeros((2, 2)), [(0.1, PAULI_X), (0.2, np.eye(3))])

    def test_redfield_action(self):
        rng = np.random.default_rng(5)
        h = _random_hermitian(rng, 3)
        a = _random_hermitian(rng, 3)
        af = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = _random_state(rng, 3)
        sop = vectorize_redfield(h, a, af)
        half = a @ rho @ af - rho @ af @ a
        expected = -1j * (h @ rho - rho @ h) + half + half.conj().T
        assert np.allclose(sop.apply(rho), expected, atol=1e-12)

    def test_hamiltonian_superop_bytes(self, benchmark_jd):
        # the commutator as first written, with np.kron
        h = benchmark_jd.operators[0] + benchmark_jd.operators[0].conj().T
        eye = np.eye(h.shape[0])
        assert hamiltonian_superop(h).tobytes() == (
            -1j * (np.kron(eye, h) - np.kron(h.T, eye))).tobytes()

    @pytest.mark.parametrize("model", ["benchmark_jd", "parity_jd"])
    def test_batched_redfield_rows_bit_identical(self, request, model):
        # every row of a stack of filtered operators, as the time-local
        # reference builds it, is vectorize_redfield of that operator, byte
        # for byte, with the Hamiltonian as a matrix and as the scalar 0
        jd = request.getfixturevalue(model)
        ops = np.asarray(jd.operators)
        stack = np.concatenate((ops, 1j * ops, ops + 0.3j * ops.conj()))
        zero = np.zeros_like(jd.hamiltonian)
        for h, rows in ((jd.hamiltonian, _redfield_matrix(jd.hamiltonian, jd.coupling, stack)),
                        (zero, _redfield_matrix(0.0, jd.coupling, stack))):
            assert rows.shape == (len(stack), jd.dim ** 2, jd.dim ** 2)
            for row, af in zip(rows, stack):
                assert row.tobytes() == vectorize_redfield(h, jd.coupling, af).matrix.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_redfield_matches_kron(self, dim):
        rng = np.random.default_rng(20 + dim)
        h, a = _random_hermitian(rng, dim), _random_hermitian(rng, dim)
        af = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ref = oracles.redfield_superop_kron(h, a, af)
        assert np.max(np.abs(vectorize_redfield(h, a, af).matrix - ref)) < 1e-13

    def test_ladder_redfield_matches_kron(self, ladder_jds, toy_bath):
        jd = ladder_jds[4]
        af = redfield_generator(jd, toy_bath).redfield_pair[1]
        ref = oracles.redfield_superop_kron(jd.hamiltonian, jd.coupling, af)
        assert np.max(np.abs(vectorize_redfield(jd.hamiltonian, jd.coupling, af).matrix
                             - ref)) < 1e-13

    def test_redfield_peak_memory(self, ladder_jds, toy_bath):
        # d = 16: the (d^2, 2) x (2, d^2) product and its transposed copy,
        # 1 MiB each, traced at 2.03 MiB; six Kronecker products and their
        # sums took 5.00 MiB
        jd = ladder_jds[4]
        af = redfield_generator(jd, toy_bath).redfield_pair[1]
        tracemalloc.start()
        try:
            vectorize_redfield(jd.hamiltonian, jd.coupling, af)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2 ** 20

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lindblad_bytes_on_ladder(self, ladder_jds, toy_bath, n):
        # the Lindblad superoperators of the ladder's Davies and CGME
        # generators, byte for byte as vectorized before the Redfield one
        # shared their builder
        cgme = GeneratorConfig("cgme_frequency", T_a=1.0)
        for gen in (davies_generator(ladder_jds[n], toy_bath),
                    cgme_generator(ladder_jds[n], toy_bath, cgme)):
            ref = oracles.lindblad_superop_sandwich(gen.H_eff, gen.lindblad_ops)
            assert vectorize_generator(gen.H_eff, gen.lindblad_ops).matrix.tobytes() == ref.tobytes()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_generator_preserves_trace_and_hermiticity(self, seed):
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, 3)
        L = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = _random_state(rng, 3)
        out = vectorize_generator(h, [(0.3, L)]).apply(rho)
        assert abs(np.trace(out)) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10


class TestChoi:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_realignment_matches_apply_loop(self, dim):
        rng = np.random.default_rng(40 + dim)
        n = dim * dim
        sop = Superoperator(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), dim)
        assert choi_matrix(sop).tobytes() == oracles.choi_matrix_loop(sop).tobytes()

    def test_identity_map_choi_psd(self):
        sop = Superoperator(np.eye(4), 2)
        c = choi_matrix(sop)
        assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() > -1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_lindblad_step_choi_positive(self, seed):
        # normalized operators keep the O(dt^2) Euler negativity below the
        # fixed constant; the bound scales with the squared generator norm
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, 2)
        h = h / np.linalg.norm(h, 2)
        L = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        L = L / np.linalg.norm(L, 2)
        sop = vectorize_generator(h, [(0.5, L)])
        dt = 1e-3
        assert choi_min_eigenvalue(sop, dt) >= -10 * dt**2

    def test_non_cp_map_detected(self):
        # transposition is positive but not completely positive
        d = 2
        mat = np.zeros((4, 4))
        for i in range(d):
            for j in range(d):
                E = np.zeros((d, d))
                E[i, j] = 1.0
                mat[:, i + d * j] = E.T.reshape(-1, order="F")
        sop = Superoperator(mat, 2)
        c = choi_matrix(sop)
        assert c.tobytes() == oracles.choi_matrix_loop(sop).tobytes()
        assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() < -0.5


class TestRealBasis:
    """Real coordinates in the orthonormal Hermitian basis E_ii,
    (E_ij + E_ji)/sqrt2, i (E_ij - E_ji)/sqrt2, against the dense unitary
    built from the basis matrices."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_round_trip(self, dim):
        rng = np.random.default_rng(dim)
        stack = np.array([_random_hermitian(rng, dim) for _ in range(3)])
        v = stack.transpose(0, 2, 1).reshape(3, -1)   # column-stacked rows
        x = to_real(v)
        assert x.dtype == np.float64 and x.shape == v.shape
        assert np.max(np.abs(from_real(x) - v)) < 1e-15 * np.max(np.abs(v)) * dim
        assert np.max(np.abs(x - (oracles.hermitian_basis_unitary(dim) @ v.T).T.real)) < 1e-14
        # the coordinates are Tr(B_k rho): the diagonal comes first, unchanged
        assert np.array_equal(x[:, :dim], np.diagonal(stack, axis1=1, axis2=2).real)
        # a real symmetric matrix comes back with every imaginary part +0,
        # so a table prints no -0
        sym = to_real(v.real)
        assert not np.any(np.signbit(from_real(sym).imag))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_superoperator_matches_dense_oracle(self, dim):
        rng = np.random.default_rng(10 + dim)
        Q = oracles.hermitian_basis_unitary(dim)
        mats = []
        for _ in range(2):
            h = _random_hermitian(rng, dim)
            L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mats.append(vectorize_generator(h, [(0.4, L)]).matrix)
        mats = np.array(mats)
        R = to_real_superop(mats)
        assert R.dtype == np.float64 and R.shape == mats.shape
        assert np.max(np.abs(R - (Q @ mats @ Q.conj().T).real)) < 1e-14 * np.max(np.abs(mats))
        assert np.array_equal(to_real_superop(mats[0]), R[0])

    def test_gather_bytes_unchanged(self, ladder_jds, toy_bath, benchmark_jd,
                                    benchmark_coupling, benchmark_initial):
        # the in-place gathers against the three gathers, fresh arithmetic
        # and concatenate they replace: the 4-qubit Redfield superoperator,
        # the time-local reference's stacked dissipators and vectors
        jd = ladder_jds[4]
        M = redfield_generator(jd, toy_bath).to_superoperator().matrix
        ops = np.asarray(benchmark_jd.operators)
        stack = _redfield_matrix(0.0, benchmark_coupling.entries, np.concatenate((ops, 1j * ops)))
        assert stack.shape == (26, 16, 16)
        rho = benchmark_initial.entries.reshape(-1, order="F")
        vectors = np.random.default_rng(8).standard_normal((3, 2, 16)) + 0j
        for v, axis in ((M, -2), (M, -1), (stack, -2), (stack, -1), (rho, -1), (vectors, -1)):
            for phase in (1j, -1j):
                ref = oracles.real_basis_gather(v, axis, phase)
                assert _gather(v, axis, phase).tobytes() == ref.tobytes()
        for v in (M, stack):
            ref = oracles.real_basis_gather(oracles.real_basis_gather(v, -2, 1j), -1, -1j)
            assert to_real_superop(v).tobytes() == np.ascontiguousarray(ref.real).tobytes()
        assert to_real(rho).tobytes() == np.ascontiguousarray(
            oracles.real_basis_gather(rho, -1, 1j).real).tobytes()

    def test_rejects_non_hermitian_state(self):
        v = np.array([[1.0, 1e-9j], [0.0, 0.0]]).reshape(-1, order="F")
        with pytest.raises(ValueError, match="not Hermitian"):
            to_real(v)

    def test_rejects_generator_not_preserving_hermiticity(self):
        # rho -> -i Z rho maps Hermitian matrices to non-Hermitian ones
        M = -1j * np.kron(np.eye(2), np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            to_real_superop(M)

    def test_rejects_length_not_square(self):
        with pytest.raises(ValueError, match="not the square"):
            from_real(np.zeros(5))
