"""Generator construction: jump decompositions, Redfield/Davies, coarse-grained
coefficients against independent quadrature oracles, and limit relations."""

import re

import numpy as np
import pytest

from qme import quadrature
from qme.baths import kinks
from qme.generators import (
    LAMB_PHASE_CUT,
    WEIGHT_CLIP_TOL,
    DiscretizationParams,
    _lindblad_from_kossakowski,
    GeneratorConfig,
    _cgme_coefficients,
    cgme_gamma,
    cgme_generator,
    cgme_lamb_F,
    cgme_lamb_shift,
    davies_generator,
    decompose_coupling,
    discretization_params,
    kossakowski_matrix,
    redfield_filtered,
    redfield_generator,
)
from qme.diagnostics import BoundParams, bound_summary
from qme.evolve import evolve, evolve_ore, trace_distance_series
from qme.operators import DensityMatrix, HermitianOperator, eigensystem, operator_norm

from conftest import IDENT, PAULI_X, PAULI_Z
import oracles


class TestJumpDecomposition:
    def test_sums_to_coupling(self, benchmark_jd):
        total = sum(op for op in benchmark_jd.operators)
        assert np.allclose(total, benchmark_jd.coupling, atol=1e-12)

    def test_frequencies_antisymmetric(self, benchmark_jd):
        f = benchmark_jd.frequencies
        assert np.allclose(np.sort(f), np.sort(-f), atol=1e-10)

    def test_conjugation_identity(self, benchmark_jd):
        # e^{iHt} A_w e^{-iHt} = e^{-iwt} A_w, summed over w
        assert benchmark_jd.conjugation_residual() < 1e-10

    def test_adjoint_pairing(self, benchmark_jd):
        for w, Aw in benchmark_jd.terms():
            Am = benchmark_jd.operator_at(-w)
            assert np.allclose(Aw.conj().T, Am, atol=1e-10)

    def test_single_qubit_sigma_z_coupling_x(self):
        jd = decompose_coupling(eigensystem(HermitianOperator(PAULI_Z)),
                                HermitianOperator(PAULI_X))
        freqs = sorted(np.round(jd.frequencies, 10))
        assert freqs in ([-2.0, 2.0], [-2.0, 0.0, 2.0])
        a_plus = jd.operator_at(2.0)
        assert np.allclose(a_plus, [[0, 0], [1, 0]], atol=1e-12)


class TestRedfieldAndDavies:
    def test_filtered_operator_coefficients(self, benchmark_jd, toy_bath):
        A_f = redfield_filtered(benchmark_jd, toy_bath)
        expected = np.zeros_like(A_f)
        for w, Aw in benchmark_jd.terms():
            expected += np.conj(oracles.half_fourier_reference(toy_bath.correlation, -w)) * Aw
        assert np.max(np.abs(A_f - expected)) < 1e-6

    def test_lambless_uses_half_gamma(self, benchmark_jd, toy_bath):
        A_f = redfield_filtered(benchmark_jd, toy_bath, lambless=True)
        expected = sum(0.5 * float(toy_bath.gamma(-w)) * Aw
                       for w, Aw in benchmark_jd.terms())
        assert np.max(np.abs(A_f - expected)) < 1e-10

    def test_davies_weights_are_gamma(self, benchmark_jd, toy_bath):
        gen = davies_generator(benchmark_jd, toy_bath)
        weights = sorted(w for w, _ in gen.lindblad_ops)
        expected = sorted(float(toy_bath.gamma(w)) for w in benchmark_jd.frequencies)
        assert np.allclose(weights, expected, rtol=1e-10)

    def test_davies_lamb_is_secular_redfield_drift(self, benchmark_jd, toy_bath):
        # the anti-Hermitian part of the Redfield drift, projected on the
        # energy diagonal, must reproduce the Davies Lamb shift
        A, A_f = benchmark_jd.coupling, redfield_filtered(benchmark_jd, toy_bath)
        drift = (A @ A_f.conj().T - A_f @ A) / 2j
        eig = eigensystem(HermitianOperator(benchmark_jd.hamiltonian))
        secular = sum(p @ drift @ p for p in eig.projectors)
        H_LS = davies_generator(benchmark_jd, toy_bath).meta["H_LS"]
        assert np.max(np.abs(0.5 * (secular + secular.conj().T) - H_LS)) < 1e-10

    def test_s_error_estimate_reported(self, benchmark_jd, toy_bath):
        for build in (davies_generator, redfield_generator):
            err = build(benchmark_jd, toy_bath).meta["lamb_quad_error"]
            assert 0.0 <= err <= max(quadrature.EPSABS, quadrature.EPSREL)
            assert build(benchmark_jd, toy_bath, lambless=True).meta["lamb_quad_error"] is None

    def test_davies_commutes_with_hamiltonian_part(self, benchmark_jd, toy_bath):
        H_LS = davies_generator(benchmark_jd, toy_bath).meta["H_LS"]
        comm = benchmark_jd.hamiltonian @ H_LS - H_LS @ benchmark_jd.hamiltonian
        assert np.max(np.abs(comm)) < 1e-9


class TestCoarseGrainedCoefficients:
    T_A = 1.12

    def test_gamma_matches_tensor_oracle(self, toy_bath):
        for w, wp in ((0.0, 0.0), (1.7, -1.7), (2.4, 0.9), (-3.1, 1.2)):
            ref = oracles.cgme_gamma_tensor(w, wp, self.T_A, toy_bath.correlation)
            assert abs(ref.imag) < 1e-7
            ours = cgme_gamma(w, wp, self.T_A, toy_bath)
            assert abs(ours - ref.real) < 1e-7 * max(1.0, abs(ref.real))

    def test_gamma_methods_agree(self, toy_bath):
        for w, wp in ((0.0, 0.0), (2.4, 0.9), (-1.3, -1.3)):
            a = cgme_gamma(w, wp, self.T_A, toy_bath)
            b = oracles.cgme_gamma_reduced(w, wp, self.T_A, toy_bath.correlation)
            assert abs(a - b) < 1e-7 * max(1.0, abs(a))

    def test_x_matches_nested_oracle(self, toy_bath):
        for w, wp in ((0.0, 0.0), (1.7, -0.4)):
            ref = oracles.cgme_x_nested(w, wp, self.T_A, toy_bath.correlation)
            ours = oracles.cgme_x_reduced(w, wp, self.T_A, toy_bath.correlation)
            assert abs(ours - ref) < 1e-6 * max(1.0, abs(ref))

    def test_coefficient_identity(self, toy_bath):
        # gamma_{w w'} = 2 Re x_{w w'} and x_{w w'} = x_{-w' -w} for random triples
        rng = np.random.default_rng(7)
        for _ in range(20):
            w, wp = rng.uniform(-4, 4, size=2)
            t_a = rng.uniform(0.4, 3.0)
            g = oracles.cgme_gamma_reduced(w, wp, t_a, toy_bath.correlation)
            x1 = oracles.cgme_x_reduced(w, wp, t_a, toy_bath.correlation)
            assert abs(g - 2.0 * x1.real) < 1e-6 * max(1.0, abs(g))
            x2 = oracles.cgme_x_reduced(-wp, -w, t_a, toy_bath.correlation)
            assert abs(x1 - x2) < 1e-8 * max(1.0, abs(x1))

    def test_lamb_F_matches_direct_oracle(self, toy_bath):
        for w, wp in ((1.0, 2.0), (-1.4, 0.6), (2.0, -2.0)):
            ref = oracles.lamb_f_direct(w, wp, self.T_A, toy_bath.correlation)
            ours = cgme_lamb_F(w, wp, self.T_A, toy_bath)
            assert abs(ours - ref) < 1e-5 * max(1.0, abs(ref))

    def test_lamb_F_removable_singularity(self, toy_bath):
        # w+ = 0 exactly, |w+| T_a = 1e-7, and just below and above the cut
        # between the sinc form and the transform form: each against the
        # direct oracle, and F continuous across the cut
        phases = (0.0, 1e-7, LAMB_PHASE_CUT * (1 - 1e-9), LAMB_PHASE_CUT * (1 + 1e-9))
        F = []
        for phase in phases:
            w, wp = 2.0 + phase / self.T_A, -2.0 + phase / self.T_A
            assert (abs(0.5 * (w + wp)) * self.T_A < LAMB_PHASE_CUT) == (phase < LAMB_PHASE_CUT)
            F.append(cgme_lamb_F(w, wp, self.T_A, toy_bath))
            ref = oracles.lamb_f_direct(w, wp, self.T_A, toy_bath.correlation)
            assert abs(F[-1] - ref) < 1e-8 * max(1.0, abs(ref))
        assert abs(F[1] - F[0]) < 1e-12
        assert abs(F[3] - F[2]) < 1e-12 * abs(F[3])


def _lamb_shift_oracle(jd, bath, t_a):
    """sum_{w w'} F_{w w'} A_{w'} A_w with one scalar oracle call per pair."""
    H = np.zeros((jd.dim, jd.dim), dtype=complex)
    for w, Aw in jd.terms():
        for wp, Awp in jd.terms():
            F = oracles.lamb_f_direct(w, wp, t_a, bath.correlation)
            H += F * (Awp @ Aw)
    return 0.5 * (H + H.conj().T)


class _HiddenJumpBath:
    """C(t) jumps at |t| = 0.7 but the bath declares no tau_c, so the Lamb
    grid has no edge there and panel halving converges only linearly."""

    def correlation(self, t):
        return np.where(np.abs(t) < 0.7, 0.25, 0.0).astype(complex)


def _sinc_lamb_coefficients(w, wp, T_a, bath):
    """F[i, j] as one (pair x node) contraction per chunk, on the grid and
    refinement of ``_cgme_coefficients``: the reference the transform form
    replaced.  Re[i e^{i w- th} C(th)] = -Im[e^{i w th/2} e^{-i w' th/2}
    C(th)], and sin(w+ x)/w+ = x sinc(w+ x / pi) with x = th - T_a."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wp = np.atleast_1d(np.asarray(wp, dtype=float))
    w_max = max(float(np.max(np.abs(w))), float(np.max(np.abs(wp))))
    edges = quadrature.panel_edges([0.0, T_a, *kinks(bath, 0.0, T_a)], w_max)
    w_plus = 0.5 * (w[:, None] + wp[None, :])

    def term(theta, wt, scaled_corr):
        left = np.exp(0.5j * np.outer(w, theta))
        right = np.exp(-0.5j * np.outer(wp, theta)) * (wt * scaled_corr)
        phase = (left[:, None, :] * right[None, :, :]).imag
        sinc = np.sinc(w_plus[:, :, None] * (theta - T_a) / np.pi)
        return -np.einsum("ijk,ijk->ij", phase, sinc) / T_a

    return quadrature.refine(term, lambda theta: (theta - T_a) * np.asarray(
        bath.correlation(theta), dtype=complex), edges)


class TestLambTransform:
    """The transform form of every F_{w w'} against the (pair x node) sinc
    contraction it replaced, on the same grids."""

    @pytest.mark.parametrize("t_a", [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 1.17])
    def test_matches_sinc_path_benchmark(self, benchmark_jd, toy_bath, t_a):
        w = benchmark_jd.frequencies
        _, ours, err = _cgme_coefficients(w, w, t_a, toy_bath)
        ref, ref_err = _sinc_lamb_coefficients(w, w, t_a, toy_bath)
        assert np.max(np.abs(ours - ref)) <= 1e-15
        assert err <= max(quadrature.EPSABS, quadrature.EPSREL * np.max(np.abs(ours)))

    @pytest.mark.parametrize("t_a", [1.0, 5.25])
    def test_matches_sinc_path_parity_model(self, parity_jd, toy_bath, t_a):
        w = parity_jd.frequencies
        assert len(w) == 25
        _, ours, _ = _cgme_coefficients(w, w, t_a, toy_bath)
        ref, _ = _sinc_lamb_coefficients(w, w, t_a, toy_bath)
        assert np.max(np.abs(ours - ref)) <= 1e-15

    def test_unequal_frequency_sets(self, ohmic_bath):
        # w and w' need not mirror each other: every transform row serves
        # its own sign, and the near pairs sit off the anti-diagonal
        w = np.array([-2.3, -0.4, 0.0, 1.1, 3.2])
        wp = np.array([2.3 + 1e-4, 0.5, -1.1, 0.7])
        _, ours, _ = _cgme_coefficients(w, wp, 1.5, ohmic_bath)
        ref, _ = _sinc_lamb_coefficients(w, wp, 1.5, ohmic_bath)
        assert ours.shape == (5, 4)
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestLambShiftGrid:
    @pytest.mark.parametrize("t_a", [0.5, 1.17, 5.25, 55.0])
    def test_matches_pair_oracle_toy(self, benchmark_jd, toy_bath, t_a):
        ours, _ = cgme_lamb_shift(benchmark_jd, toy_bath, t_a)
        ref = _lamb_shift_oracle(benchmark_jd, toy_bath, t_a)
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_matches_pair_oracle_ohmic(self, benchmark_jd, ohmic_bath):
        ours, _ = cgme_lamb_shift(benchmark_jd, ohmic_bath, 1.5)
        ref = _lamb_shift_oracle(benchmark_jd, ohmic_bath, 1.5)
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_matches_pair_oracle_rectangle_kink(self, benchmark_jd, rectangle_bath):
        # C(t) jumps at tau_c = 1, inside (0, T_a): the grid puts a panel edge there
        ours, _ = cgme_lamb_shift(benchmark_jd, rectangle_bath, 1.5)
        ref = _lamb_shift_oracle(benchmark_jd, rectangle_bath, 1.5)
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_error_estimate_reported_below_tolerance(self, benchmark_jd, toy_bath):
        cfg = GeneratorConfig(equation_kind="cgme_frequency", T_a=5.25)
        gen = cgme_generator(benchmark_jd, toy_bath, cfg)
        err = gen.meta["lamb_quad_error"]
        assert err == cgme_lamb_shift(benchmark_jd, toy_bath, 5.25)[1]
        assert 0.0 <= err <= max(quadrature.EPSABS, quadrature.EPSREL)
        lambless = cgme_generator(benchmark_jd, toy_bath, GeneratorConfig(
            equation_kind="cgme_frequency", T_a=5.25, lambless=True))
        assert lambless.meta["lamb_quad_error"] is None

    def test_unresolved_kink_raises(self):
        jd = decompose_coupling(eigensystem(HermitianOperator(PAULI_Z)),
                                HermitianOperator(PAULI_X))
        with pytest.raises(ArithmeticError, match="not converged"):
            cgme_lamb_shift(jd, _HiddenJumpBath(), 2.0)


class TestGapClosing:
    """Small level spacing: H = (1 + d/2) ZI + (1 - d/2) IZ with
    A = (XI + IX)/2 has Bohr frequencies +-(2 + d) and +-(2 - d), so its
    pairs have w+ = +-d; at d = 0 they merge to +-2.  The coarse-grained
    Lamb shift must approach the merged one continuously, while the
    secular (Davies) Lamb shift keeps a finite jump."""

    T_A = 5.25
    DELTAS = (1e-1, 1e-2, 1e-3)

    @staticmethod
    def _model(delta):
        H = (1 + delta / 2) * np.kron(PAULI_Z, IDENT) + (1 - delta / 2) * np.kron(IDENT, PAULI_Z)
        A = 0.5 * (np.kron(PAULI_X, IDENT) + np.kron(IDENT, PAULI_X))
        return HermitianOperator(H), HermitianOperator(A)

    @classmethod
    def _jd(cls, delta):
        H, A = cls._model(delta)
        return decompose_coupling(eigensystem(H), A)

    def test_cgme_lamb_shift_continuous(self, toy_bath):
        merged = self._jd(0.0)
        assert np.allclose(merged.frequencies, [-2.0, 2.0], atol=1e-12)
        H_merged, _ = cgme_lamb_shift(merged, toy_bath, self.T_A)
        davies_merged = davies_generator(merged, toy_bath).meta["H_LS"]
        gaps, davies_gaps = [], []
        for delta in self.DELTAS:
            jd = self._jd(delta)
            assert len(jd.frequencies) == 4 and delta > jd.freq_tol
            H_LS, _ = cgme_lamb_shift(jd, toy_bath, self.T_A)
            gaps.append(np.linalg.norm(H_LS - H_merged, 2))
            davies = davies_generator(jd, toy_bath).meta["H_LS"]
            davies_gaps.append(np.linalg.norm(davies - davies_merged, 2))
        for k in range(len(self.DELTAS) - 1):
            shrink = self.DELTAS[k + 1] / self.DELTAS[k]
            assert gaps[k + 1] <= 1.05 * shrink * gaps[k]
        assert gaps[-1] < 1e-5
        assert min(davies_gaps) > 1e3 * gaps[-1]

    def test_trajectory_error_continuous(self, toy_bath):
        # max trace distance to the time-local reference from |++> over
        # 2.56 tau_SB: the coarse-grained error at d = 0.01 stays at its
        # merged (d = 0) value, 0.068; Davies jumps from 0.043 to 0.381,
        # below its a-priori bound, which grows as 1/sqrt(tau_SB d)
        ts = toy_bath.timescales()
        grid = np.linspace(0.0, 2.56 * ts.tau_SB, 65)
        rho0 = DensityMatrix.from_pure(np.full(4, 0.5))

        def errors(delta):
            H, A = self._model(delta)
            jd = decompose_coupling(eigensystem(H), A)
            ref = evolve_ore(H, A, toy_bath, rho0, grid)
            cgme = cgme_generator(jd, toy_bath, GeneratorConfig("cgme_frequency", T_a=self.T_A))
            return [float(np.max(trace_distance_series(evolve(gen, rho0, grid), ref)[0]))
                    for gen in (cgme, davies_generator(jd, toy_bath))]

        cgme_merged, davies_merged = errors(0.0)
        bp = BoundParams(tau_b=ts.tau_B, tau_sb=ts.tau_SB, t_a=self.T_A)
        bounds = []
        for delta in self.DELTAS:
            cgme, davies = errors(delta)
            if delta == 1e-2:
                assert abs(cgme - cgme_merged) < 1e-3
                assert davies > 5.0 * davies_merged
            # the bound grows with t, so at t = 0 it is its smallest
            bounds.append(bound_summary(bp, 0.0, delta_e=delta)["davies"].value)
            assert bounds[-1] > davies
        assert bounds == sorted(bounds)


class TestKossakowski:
    def test_positive_semidefinite(self, benchmark_jd, toy_bath):
        K = kossakowski_matrix(benchmark_jd, toy_bath, 1.12)
        vals = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
        assert vals.min() > -1e-9

    def test_entries_are_gamma_coefficients(self, benchmark_jd, toy_bath):
        K = kossakowski_matrix(benchmark_jd, toy_bath, 1.12)
        freqs = benchmark_jd.frequencies
        for i in (0, 2):
            for j in (1, 3):
                ref = oracles.cgme_gamma_reduced(freqs[i], -freqs[j], 1.12, toy_bath.correlation)
                assert abs(K[i, j] - ref) < 1e-6 * max(1.0, abs(ref))

    @pytest.mark.parametrize("t_a", [0.5, 1.12, 12.24])
    def test_every_pair_matches_reduced_oracle(self, benchmark_jd, toy_bath, t_a):
        # K[i, j] = gamma_{w_i, -w_j}, the double time integral reduced to
        # one dimension and integrated adaptively
        K = kossakowski_matrix(benchmark_jd, toy_bath, t_a)
        freqs = benchmark_jd.frequencies
        ref = np.array([[oracles.cgme_gamma_reduced(w, -wp, t_a, toy_bath.correlation)
                         for wp in freqs] for w in freqs])
        assert K.dtype == float and K.flags.owndata
        assert np.max(np.abs(K - ref)) < 1e-11

    @pytest.mark.parametrize("t_a", [0.5, 1.12, 12.24])
    def test_equals_filter_form(self, benchmark_jd, toy_bath, t_a):
        # the filter overlap on the eps-grid equals the time-domain K
        K = kossakowski_matrix(benchmark_jd, toy_bath, t_a)
        freqs = benchmark_jd.frequencies
        ref = np.array([[oracles.cgme_gamma_filter(w, -wp, t_a, toy_bath) for wp in freqs]
                        for w in freqs])
        assert np.max(np.abs(K - ref)) < 1e-12

    @pytest.mark.parametrize("bath", ["toy_bath", "ohmic_bath"])
    @pytest.mark.parametrize("t_a", [0.5, 1.12, 12.24])
    def test_cgme_gamma_is_kossakowski_entry(self, request, benchmark_jd, bath, t_a):
        # one pair on its own grid against the matrix on the grid of all pairs
        bath = request.getfixturevalue(bath)
        K = kossakowski_matrix(benchmark_jd, bath, t_a)
        freqs = benchmark_jd.frequencies
        ref = np.array([[cgme_gamma(w, -wp, t_a, bath) for wp in freqs] for w in freqs])
        assert np.max(np.abs(K - ref)) <= 1e-12 * max(1.0, np.max(np.abs(K)))

    def test_near_degenerate_pairs_continuous(self, toy_bath):
        # d T_a = 0, 1e-7, and just below and above the cut between the
        # sinc form and the transform form: each against the reduced oracle
        # (except at 1e-7, where the oracle's own inner integral cancels),
        # and K continuous across the cut
        t_a = 1.12
        K = []
        for phase in (0.0, 1e-7, LAMB_PHASE_CUT * (1 - 1e-9), LAMB_PHASE_CUT * (1 + 1e-9)):
            w, wp = 2.0, 2.0 + phase / t_a
            assert (abs(wp - w) * t_a < LAMB_PHASE_CUT) == (phase < LAMB_PHASE_CUT)
            K.append(_cgme_coefficients(w, wp, t_a, toy_bath, lamb=False)[0][0, 0])
            if phase != 1e-7:
                ref = oracles.cgme_gamma_reduced(w, -wp, t_a, toy_bath.correlation)
                assert abs(K[-1] - ref) < 1e-11
        # K moves to first order in d (unlike F at w+ = 0, where the pair
        # mirrors about the removable point): by at most the phase itself
        assert abs(K[1] - K[0]) < 1e-7
        assert abs(K[3] - K[2]) < 1e-12 * abs(K[3])

    def test_one_correlation_call_per_level(self, benchmark_jd, toy_bath):
        # K and F share one refined grid: the generator evaluates C once per
        # level, on the grids of the Lamb shift alone, and never gamma
        calls = {"correlation": [], "gamma": []}

        class CountingBath:
            def __getattr__(self, name):
                return getattr(toy_bath, name)

            def correlation(self, t):
                calls["correlation"].append(np.size(t))
                return toy_bath.correlation(t)

            def gamma(self, w):
                calls["gamma"].append(np.size(w))
                return toy_bath.gamma(w)

        bath = CountingBath()
        cgme_generator(benchmark_jd, bath, GeneratorConfig("cgme_frequency", T_a=12.24))
        sizes = list(calls["correlation"])
        assert len(sizes) >= 2 and calls["gamma"] == []
        assert sizes == [sizes[0] * 2 ** k for k in range(len(sizes))]
        calls["correlation"].clear()
        cgme_lamb_shift(benchmark_jd, bath, 12.24)
        assert calls["correlation"] == sizes

    def test_error_estimates_and_clipped_eigenvalue_recorded(self, benchmark_jd, toy_bath):
        for lambless in (False, True):
            gen = cgme_generator(benchmark_jd, toy_bath, GeneratorConfig(
                "cgme_frequency", T_a=1.12, lambless=lambless))
            err = gen.meta["kossakowski_quad_error"]
            assert 0.0 <= err <= max(quadrature.EPSABS, quadrature.EPSREL)
            K = gen.meta["kossakowski"]
            assert abs(gen.meta["kossakowski_min_eigenvalue"] - np.linalg.eigvalsh(K)[0]) < 1e-15
            assert gen.meta["kossakowski_min_eigenvalue"] > -WEIGHT_CLIP_TOL
        disc = cgme_generator(benchmark_jd, toy_bath, GeneratorConfig(
            "cgme_discrete", T_a=1.12, lambless=True,
            discretization=DiscretizationParams(delta_epsilon=0.05, k_star=800, T_a=1.12)))
        assert disc.meta["kossakowski_quad_error"] is None
        assert disc.meta["lamb_quad_error"] is None

    @pytest.mark.parametrize("kind", ["cgme_frequency", "cgme_discrete"])
    def test_rejects_bath_that_is_not_cp_admissible(self, benchmark_jd, rectangle_bath, kind):
        # gamma < 0 somewhere: the filter form would clip it to 0 and so
        # compute another equation
        disc = DiscretizationParams(delta_epsilon=0.05, k_star=80, T_a=1.5)
        cfg = GeneratorConfig(kind, T_a=1.5, discretization=disc)
        message = re.escape(rectangle_bath.not_cp_message)
        with pytest.raises(ValueError, match=message):
            cgme_generator(benchmark_jd, rectangle_bath, cfg)
        with pytest.raises(ValueError, match=message):
            kossakowski_matrix(benchmark_jd, rectangle_bath, 1.5, cfg.discretization
                               if kind == "cgme_discrete" else None)

    def test_dissipator_from_weights_matches_matrix_form(self, benchmark_jd, toy_bath):
        # diagonalized Lindblad form reproduces sum_{ww'} K A X A^dag - ...
        cfg = GeneratorConfig(equation_kind="cgme_frequency", T_a=1.12, lambless=True)
        gen = cgme_generator(benchmark_jd, toy_bath, cfg)
        K = gen.meta["kossakowski"]
        rng = np.random.default_rng(11)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        direct = np.zeros((4, 4), dtype=complex)
        ops = benchmark_jd.operators
        for i in range(len(ops)):
            for j in range(len(ops)):
                L, M = ops[i], ops[j]
                direct += K[i, j] * (L @ rho @ M.conj().T
                                     - 0.5 * (M.conj().T @ L @ rho + rho @ M.conj().T @ L))
        via_lindblad = np.zeros_like(direct)
        for wgt, L in gen.lindblad_ops:
            ldl = L.conj().T @ L
            via_lindblad += wgt * (L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
        assert np.max(np.abs(direct - via_lindblad)) < 1e-8


class TestLindbladFromKossakowski:
    """The one-contraction Lindblad terms against the per-weight loop."""

    @staticmethod
    def _case(eigenvalues, seed=5):
        rng = np.random.default_rng(seed)
        n = len(eigenvalues)
        ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(n)]
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return ops, (q * np.asarray(eigenvalues)) @ q.conj().T

    @pytest.mark.parametrize("eigenvalues", [
        (2.0, 0.7, 0.1, 0.03, 1e-4, 0.5),
        (2.0, 0.7, 0.0, -3e-12, -5e-10, 0.5),     # clipped weights are dropped
    ])
    def test_matches_loop(self, eigenvalues):
        ops, K = self._case(eigenvalues)
        got, _ = _lindblad_from_kossakowski(ops, K)
        ref = oracles.lindblad_from_kossakowski_loop(ops, K, WEIGHT_CLIP_TOL)
        assert [w for w, _ in got] == [w for w, _ in ref]
        tol = 8 * len(ops) * np.finfo(float).eps * max(np.max(np.abs(a)) for a in ops)
        for (_, a), (_, b) in zip(got, ref):
            assert np.max(np.abs(a - b)) <= tol

    def test_matches_loop_on_benchmark(self, benchmark_jd, toy_bath):
        K = kossakowski_matrix(benchmark_jd, toy_bath, 1.12)
        got, _ = _lindblad_from_kossakowski(benchmark_jd.operators, K)
        ref = oracles.lindblad_from_kossakowski_loop(benchmark_jd.operators, K, WEIGHT_CLIP_TOL)
        assert [w for w, _ in got] == [w for w, _ in ref]
        for (_, a), (_, b) in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 8 * len(got) * np.finfo(float).eps

    def test_raises_below_clip_tolerance(self):
        ops, K = self._case((2.0, 0.7, -2e-9, 0.5))
        with pytest.raises(ArithmeticError):
            oracles.lindblad_from_kossakowski_loop(ops, K, WEIGHT_CLIP_TOL)
        with pytest.raises(ArithmeticError, match="positivity violated"):
            _lindblad_from_kossakowski(ops, K)


class TestCgmeGenerator:
    def test_discrete_close_to_frequency_form(self, benchmark_jd, toy_bath):
        t_a = 1.12
        freq = cgme_generator(
            benchmark_jd, toy_bath,
            GeneratorConfig(equation_kind="cgme_frequency", T_a=t_a),
        ).to_superoperator()
        disc_params = DiscretizationParams(delta_epsilon=0.05, k_star=800, T_a=t_a)
        disc = cgme_generator(
            benchmark_jd, toy_bath,
            GeneratorConfig(equation_kind="cgme_discrete", T_a=t_a,
                            discretization=disc_params),
        ).to_superoperator()
        diff = np.linalg.norm(freq.matrix - disc.matrix, 2)
        assert diff < 1e-3

    def test_converges_to_davies(self, benchmark_jd, toy_bath):
        davies = davies_generator(benchmark_jd, toy_bath).to_superoperator().matrix
        dist = []
        for t_a in (5.0 * 0.6858, 80.0 * 0.6858):
            cg = cgme_generator(
                benchmark_jd, toy_bath,
                GeneratorConfig(equation_kind="cgme_frequency", T_a=t_a),
            ).to_superoperator().matrix
            dist.append(np.linalg.norm(cg - davies, 2))
        assert dist[1] < dist[0]
        assert dist[1] < 0.02

    def test_lamb_shift_converges_to_davies(self, benchmark_jd, toy_bath):
        H_davies = davies_generator(benchmark_jd, toy_bath).meta["H_LS"]
        H_cg, _ = cgme_lamb_shift(benchmark_jd, toy_bath, 80.0 * 0.6858)
        assert np.max(np.abs(H_cg - H_davies)) < 0.02

    def test_requires_ta(self, benchmark_jd, toy_bath):
        with pytest.raises(ValueError):
            GeneratorConfig(equation_kind="cgme_frequency")

    def test_discrete_requires_params(self, benchmark_jd, toy_bath):
        with pytest.raises(ValueError):
            cgme_generator(benchmark_jd, toy_bath,
                           GeneratorConfig(equation_kind="cgme_discrete", T_a=1.0))


class TestDiscretizationParams:
    def test_worst_case_sizes(self, toy_bath, benchmark_hamiltonian, benchmark_coupling):
        comm = benchmark_hamiltonian.entries @ benchmark_coupling.entries - \
            benchmark_coupling.entries @ benchmark_hamiltonian.entries
        dp = discretization_params(toy_bath.timescales(), operator_norm(comm))
        assert dp.delta_epsilon > 0
        assert dp.k_star >= 1
        # the grid must span well past the filter width 1/T_a
        assert dp.delta_epsilon * dp.k_star > 1.0 / dp.T_a

    def test_rejects_zero_tau_b(self):
        class TS:
            tau_SB, tau_B = 10.0, 0.0
        with pytest.raises(ValueError):
            discretization_params(TS(), 1.0)
