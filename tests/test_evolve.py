"""Trajectory integration: analytic dephasing, convergence, monitors,
the time-local growing-filter equation, and positivity-crossing detection."""

import numpy as np
import pytest

from qme.evolve import (
    EvolutionResult,
    IntegratorConfig,
    evolve,
    evolve_ore,
    ore_filter_spline,
    positivity_crossing,
    trace_distance_series,
)
from qme.generators import (
    GeneratorConfig,
    cgme_generator,
    davies_generator,
    redfield_filtered,
    redfield_generator,
)
from qme.operators import (
    DensityMatrix,
    Superoperator,
    hamiltonian_superop,
    vectorize_generator,
)

from conftest import PAULI_X, PAULI_Z
import oracles


def _plus_state():
    return DensityMatrix(0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))


class TestEvolveBasics:
    def test_zero_generator_is_identity(self):
        gen = Superoperator(np.zeros((4, 4), dtype=complex), 2)
        rho0 = _plus_state()
        res = evolve(gen, rho0, np.linspace(0.0, 3.0, 7))
        assert np.max(np.abs(res.states[-1] - rho0.entries)) < 1e-10

    def test_dephasing_matches_analytic(self):
        rate = 0.35
        gen = vectorize_generator(np.zeros((2, 2)), [(rate, PAULI_Z)])
        res = evolve(gen, _plus_state(), np.linspace(0.0, 4.0, 21))
        for i, t in enumerate(res.times):
            # Lindblad weight r with L = Z decays the coherence as e^{-2rt}
            expected = 0.5 * oracles.dephasing_offdiagonal(t, rate)
            assert abs(res.states[i][0, 1].real - expected) < 1e-7

    def test_unitary_precession(self):
        gen = vectorize_generator(0.5 * 1.3 * PAULI_Z, [])
        res = evolve(gen, _plus_state(), np.linspace(0.0, 2.0, 9),
                     IntegratorConfig(abs_tol=1e-12, rel_tol=1e-10))
        for i, t in enumerate(res.times):
            assert abs(res.states[i][0, 1] - 0.5 * np.exp(-1.3j * t)) < 1e-8

    def test_rk4_step_halving_converges(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = 0.5 * (h + h.conj().T)
        L = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gen = vectorize_generator(h, [(0.4, L)])
        grid = np.linspace(0.0, 2.0, 5)
        coarse = evolve(gen, _plus_state(), grid,
                        IntegratorConfig(method="rk4_fixed", step=0.01))
        fine = evolve(gen, _plus_state(), grid,
                      IntegratorConfig(method="rk4_fixed", step=0.005))
        diff = np.max(np.abs(coarse.states[-1] - fine.states[-1]))
        assert diff < 1e-8

    def test_rk4_matches_reference_oracle(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = 0.5 * (h + h.conj().T)
        gen = vectorize_generator(h, [(0.2, PAULI_X)])
        M = gen.matrix
        v0 = _plus_state().entries.reshape(-1, order="F")
        ref = oracles.rk4_reference(lambda t, v: M @ v, v0, 0.0, 1.5, 300)
        res = evolve(gen, _plus_state(), np.array([0.0, 1.5]),
                     IntegratorConfig(method="rk4_fixed", step=1.5 / 300))
        assert np.max(np.abs(res.states[-1].reshape(-1, order="F") - ref)) < 1e-12

    def test_monitors_clean_for_lindblad(self, benchmark_jd, toy_bath, benchmark_initial):
        gen = davies_generator(benchmark_jd, toy_bath)
        res = evolve(gen, benchmark_initial, np.linspace(0.0, 10.0, 41))
        assert np.max(res.trace_deviation) < 1e-7
        assert np.max(res.hermiticity_deviation) < 1e-7
        assert np.min(res.min_eigenvalue) > -1e-7

    def test_grid_validation(self):
        gen = Superoperator(np.zeros((4, 4), dtype=complex), 2)
        with pytest.raises(ValueError):
            evolve(gen, _plus_state(), np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError):
            evolve(gen, _plus_state(), np.array([0.0]))

    def test_dimension_mismatch(self):
        gen = Superoperator(np.zeros((16, 16), dtype=complex), 4)
        with pytest.raises(ValueError):
            evolve(gen, _plus_state(), np.linspace(0, 1, 3))

    def test_metadata_from_generator(self, benchmark_jd, toy_bath, benchmark_initial):
        gen = cgme_generator(
            benchmark_jd, toy_bath,
            GeneratorConfig(equation_kind="cgme_frequency", T_a=1.12),
        )
        res = evolve(gen, benchmark_initial, np.linspace(0.0, 1.0, 3))
        assert res.metadata["equation_kind"] == "cgme_frequency"
        assert res.metadata["T_a"] == 1.12


class TestGrowingFilterEquation:
    def test_filter_tends_to_stationary(self, benchmark_jd, toy_bath):
        splines = ore_filter_spline(benchmark_jd, toy_bath, 60.0)
        A_f_inf = redfield_filtered(benchmark_jd, toy_bath)
        A_f_late = np.zeros_like(A_f_inf)
        for w, Aw in benchmark_jd.terms():
            A_f_late += complex(splines[float(w)](60.0)) * Aw
        assert np.max(np.abs(A_f_late - A_f_inf)) < 1e-3
        # and starts from zero: no initial filter transient
        for w in benchmark_jd.frequencies:
            assert abs(complex(splines[float(w)](0.0))) < 1e-12

    def test_agrees_with_redfield_at_late_times(self, benchmark_hamiltonian,
                                                benchmark_coupling, toy_bath,
                                                benchmark_initial, benchmark_jd):
        grid = np.linspace(0.0, 12.0, 25)
        res_ore = evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                             benchmark_initial, grid)
        res_red = evolve(redfield_generator(benchmark_jd, toy_bath),
                         benchmark_initial, grid)
        series, _ = trace_distance_series(res_ore, res_red)
        # identical start, transient difference while the filter builds up,
        # then the two equations run close together
        assert series[0] < 1e-12
        assert series[-1] < 0.05
        assert np.max(series) < 0.2

    def test_trace_preserved(self, benchmark_hamiltonian, benchmark_coupling,
                             toy_bath, benchmark_initial):
        grid = np.linspace(0.0, 20.0, 21)
        res = evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                         benchmark_initial, grid)
        assert np.max(res.trace_deviation) < 1e-7
        assert np.max(res.hermiticity_deviation) < 1e-8


class TestPositivityCrossing:
    @staticmethod
    def _shrinking_eigenvalue_result():
        # synthetic trajectory: one eigenvalue crosses zero at exactly t = 1.0
        times = np.linspace(0.0, 2.0, 21)
        states, mineig = [], []
        for t in times:
            rho = np.diag([1.0 - 0.1 * (1.0 - t), 0.1 * (1.0 - t)]).astype(complex)
            states.append(rho)
            mineig.append(min(np.linalg.eigvalsh(rho.real)))

        class Dense:
            def __call__(self, t):
                return np.diag([1.0 - 0.1 * (1.0 - t), 0.1 * (1.0 - t)]).astype(
                    complex).reshape(-1, order="F")

        return EvolutionResult(
            times=times, states=np.array(states),
            trace_deviation=np.zeros_like(times),
            hermiticity_deviation=np.zeros_like(times),
            min_eigenvalue=np.array(mineig),
            dense=Dense(),
        )

    def test_bisection_refines_crossing(self):
        res = self._shrinking_eigenvalue_result()
        t_cross = positivity_crossing(res, tol=1e-10, resolution=1e-6)
        assert abs(t_cross - 1.0) < 1e-4

    def test_none_when_positive(self, benchmark_jd, toy_bath, benchmark_initial):
        gen = davies_generator(benchmark_jd, toy_bath)
        res = evolve(gen, benchmark_initial, np.linspace(0.0, 5.0, 11))
        assert positivity_crossing(res) is None


class TestTraceDistanceSeries:
    def test_identical_trajectories(self, benchmark_jd, toy_bath, benchmark_initial):
        gen = davies_generator(benchmark_jd, toy_bath)
        res = evolve(gen, benchmark_initial, np.linspace(0.0, 2.0, 5))
        series, avg = trace_distance_series(res, res)
        assert np.max(series) == 0.0 and avg == 0.0

    def test_grid_mismatch_rejected(self, benchmark_jd, toy_bath, benchmark_initial):
        gen = davies_generator(benchmark_jd, toy_bath)
        res_a = evolve(gen, benchmark_initial, np.linspace(0.0, 2.0, 5))
        res_b = evolve(gen, benchmark_initial, np.linspace(0.0, 2.0, 9))
        with pytest.raises(ValueError):
            trace_distance_series(res_a, res_b)

    def test_average_of_constant_offset(self):
        times = np.linspace(0.0, 1.0, 11)
        mk = lambda p: EvolutionResult(
            times=times,
            states=np.array([np.diag([p, 1 - p]).astype(complex)] * len(times)),
            trace_deviation=np.zeros_like(times),
            hermiticity_deviation=np.zeros_like(times),
            min_eigenvalue=np.full_like(times, min(p, 1 - p)),
        )
        series, avg = trace_distance_series(mk(0.8), mk(0.6))
        assert np.allclose(series, 0.4)
        assert np.isclose(avg, 0.4)


class TestInteractionRateBound:
    def test_lindblad_rate_bounded_by_norm_sum(self, benchmark_jd, toy_bath):
        # for any unit-trace-norm X, ||L_dissipator(X)||_1 <= 2 sum_k w_k ||L_k||^2
        gen = davies_generator(benchmark_jd, toy_bath, lambless=True)
        sop = gen.to_superoperator()
        budget = 2.0 * sum(w * np.linalg.norm(L, 2) ** 2 for w, L in gen.lindblad_ops)
        rng = np.random.default_rng(12)
        from qme.operators import trace_norm
        for _ in range(10):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            X = 0.5 * (g + g.conj().T)
            X /= trace_norm(X)
            HX = hamiltonian_superop(benchmark_jd.hamiltonian) @ X.reshape(-1, order="F")
            LX = sop.matrix @ X.reshape(-1, order="F") - HX
            assert trace_norm(LX.reshape(4, 4, order="F")) <= budget + 1e-9
