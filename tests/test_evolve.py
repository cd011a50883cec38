"""Trajectory integration: analytic dephasing, exact propagation against an
ODE oracle, monitors, the time-local growing-filter equation, and
positivity-crossing detection."""

import numpy as np
import pytest
from scipy.linalg import expm

from qme.evolve import (
    EvolutionResult,
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

from conftest import PAULI_Z
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
        res = evolve(gen, _plus_state(), np.linspace(0.0, 2.0, 9))
        for i, t in enumerate(res.times):
            assert abs(res.states[i][0, 1] - 0.5 * np.exp(-1.3j * t)) < 1e-8

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


TAU_SB = 10.0


def _constant_generator(kind, jd, bath):
    if kind == "davies":
        return davies_generator(jd, bath)
    if kind == "redfield":
        return redfield_generator(jd, bath)
    return cgme_generator(jd, bath, GeneratorConfig(equation_kind="cgme_frequency", T_a=5.25))


class TestExactPropagation:
    """Constant generators run through one matrix exponential per distinct step."""

    GRIDS = {
        "linspace": np.linspace(0.0, 2.56 * TAU_SB, 129),
        "nonuniform": 2.56 * TAU_SB * np.linspace(0.0, 1.0, 41) ** 2,
    }

    @pytest.mark.parametrize("grid_kind", sorted(GRIDS))
    @pytest.mark.parametrize("kind", ["davies", "redfield", "cgme"])
    def test_matches_ode_oracle(self, kind, grid_kind, benchmark_jd, toy_bath,
                                benchmark_initial):
        gen = _constant_generator(kind, benchmark_jd, toy_bath)
        grid = self.GRIDS[grid_kind]
        res = evolve(gen, benchmark_initial, grid)
        v0 = benchmark_initial.entries.reshape(-1, order="F")
        ref = oracles.linear_ode_reference(gen.to_superoperator().matrix, v0, grid)
        got = np.array([rho.reshape(-1, order="F") for rho in res.states])
        assert np.max(np.abs(got - ref)) < 1e-9
        assert res.metadata["integrator"] == "expm"

    def test_one_exponential_per_distinct_step(self, benchmark_jd, toy_bath,
                                               benchmark_initial):
        gen = davies_generator(benchmark_jd, toy_bath)
        res = evolve(gen, benchmark_initial, self.GRIDS["linspace"])
        assert res.metadata["n_expm"] == 1
        res = evolve(gen, benchmark_initial, np.array([0.0, 1.0, 2.0, 2.5, 3.5, 4.0]))
        assert res.metadata["n_expm"] == 2

    def test_dense_output_is_exact(self, benchmark_jd, toy_bath, benchmark_initial):
        gen = redfield_generator(benchmark_jd, toy_bath)
        M = gen.to_superoperator().matrix
        v0 = benchmark_initial.entries.reshape(-1, order="F")
        res = evolve(gen, benchmark_initial, np.linspace(0.0, 4.0, 5))
        for t in (0.3, 1.0, 2.71, 4.0):
            assert np.max(np.abs(res.dense(t) - expm(M * t) @ v0)) < 1e-12

    def test_redfield_positivity_crossing(self, benchmark_jd, toy_bath, benchmark_initial):
        # Redfield loses positivity at once from the excited state; bisection
        # on the exact dense output finds the same dyadic point as before
        gen = redfield_generator(benchmark_jd, toy_bath)
        res = evolve(gen, benchmark_initial, np.linspace(0.0, 4.0 * TAU_SB, 161))
        crossing = positivity_crossing(res, tol=1e-8, resolution=1e-3 * TAU_SB)
        assert crossing == pytest.approx(0.00390625, abs=1e-12)


class TestEvolutionMetadata:
    def test_rk45_counts_for_time_dependent(self, benchmark_hamiltonian,
                                            benchmark_coupling, toy_bath,
                                            benchmark_initial):
        res = evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                         benchmark_initial, np.linspace(0.0, 5.0, 11))
        assert res.metadata["integrator"] == "rk45_adaptive"
        assert res.metadata["nfev"] >= 6 * res.metadata["n_steps"] > 0

    def test_health_summary_matches_per_state_monitors(self, benchmark_hamiltonian,
                                                       benchmark_coupling, toy_bath,
                                                       benchmark_initial):
        res = evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                         benchmark_initial, np.linspace(0.0, TAU_SB, 11))
        for k, rho in enumerate(res.states):
            sym = 0.5 * (rho + rho.conj().T)
            assert res.trace_deviation[k] == pytest.approx(abs(np.trace(rho) - 1.0),
                                                           abs=1e-15)
            assert res.hermiticity_deviation[k] == pytest.approx(
                np.max(np.abs(rho - rho.conj().T)), abs=1e-15)
            assert res.min_eigenvalue[k] == pytest.approx(
                np.linalg.eigvalsh(sym).min(), abs=1e-15)
        meta = res.metadata
        assert meta["max_trace_deviation"] == np.max(res.trace_deviation)
        assert meta["max_hermiticity_deviation"] == np.max(res.hermiticity_deviation)
        assert meta["min_eigenvalue"] == np.min(res.min_eigenvalue)


class TestGrowingFilterEquation:
    def test_filter_tends_to_stationary(self, benchmark_jd, toy_bath):
        spline = ore_filter_spline(benchmark_jd, toy_bath, 60.0)
        A_f_inf = redfield_filtered(benchmark_jd, toy_bath)
        A_f_late = np.zeros_like(A_f_inf)
        for k, Aw in enumerate(benchmark_jd.operators):
            A_f_late += complex(spline(60.0)[k]) * Aw
        assert np.max(np.abs(A_f_late - A_f_inf)) < 1e-3
        # and starts from zero: no initial filter transient
        for k in range(len(benchmark_jd.frequencies)):
            assert abs(complex(spline(0.0)[k])) < 1e-12

    def test_vector_spline_matches_per_frequency_oracle(self, benchmark_jd, toy_bath):
        spline = ore_filter_spline(benchmark_jd, toy_bath, 5.0)
        ref = oracles.ore_filter_splines(benchmark_jd.frequencies, toy_bath.correlation,
                                         toy_bath.timescales().tau_B, 5.0)
        t = np.concatenate((np.linspace(0.0, 5.0, 41),
                            np.random.default_rng(2).uniform(0.0, 5.0, 40)))
        got = spline(t)
        for k, w in enumerate(benchmark_jd.frequencies):
            assert np.max(np.abs(got[:, k] - ref[float(w)](t))) < 1e-14

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
