"""End-to-end acceptance checks on the published two-qubit benchmark.

Each test pins the published target windows verbatim and enforces its runtime
budget.  Three checks (the reference-solution positivity-crossing window, the
sampled generator-norm window, and the averaging-time argmin window) are known
to fail against the self-consistent bath normalization; the measured values and
the full elimination record live in the project decision notes, and regression
tests elsewhere pin the achieved values so drift is still caught.
"""

import time

import numpy as np
import pytest

from qme.baths import OhmicBath, ToyBath
from qme.diagnostics import BoundParams, lambda_estimate, optimal_ta, strongest_bound
from qme.driving import DriveSchedule, dd_suppression_xi, dd_suppression_xi_general
from qme.evolve import (
    evolve,
    evolve_ore,
    positivity_crossing,
    trace_distance_series,
)
from qme.generators import (
    GeneratorConfig,
    cgme_a_epsilon,
    cgme_gamma,
    cgme_generator,
    davies_generator,
    decompose_coupling,
    discretization_params,
    redfield_generator,
)
from qme.operators import (
    DensityMatrix,
    HermitianOperator,
    choi_min_eigenvalue,
    eigensystem,
    hamiltonian_superop,
    operator_norm,
)

import oracles

TAU_SB = 10.0


class _Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s over budget {self.limit}s"


@pytest.fixture(scope="module")
def benchmark_grid():
    return np.linspace(0.0, 2.56 * TAU_SB, 129)


@pytest.fixture(scope="module")
def reference_trajectory(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                         benchmark_initial, benchmark_grid):
    """Time-local reference solution on [0, 2.56 tau_SB]."""
    return evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                      benchmark_initial, benchmark_grid)


def test_criterion_01_toy_bath_characterization():
    budget = _Budget(10.0)
    bath = ToyBath(a=1.01, b=0.6, beta=4.0, tau_SB=TAU_SB)
    assert abs(bath.normalization - 21.0) <= 0.02 * 21.0
    assert abs(bath.timescales().tau_B - 0.69) <= 0.03 * 0.69
    w = np.linspace(0.0, 15.0, 30_001)
    g = np.asarray(bath.gamma(w))
    peak = w[np.argmax(g)]
    assert abs(peak - 2.0) <= 0.05 * 2.0
    above = w[g >= 0.5 * g.max()]
    assert abs(above[0] - 0.15) <= 0.05 * 0.15
    assert abs(above[-1] - 6.08) <= 0.05 * 6.08
    budget.check()


def test_criterion_02_kms_and_positivity(toy_bath, ohmic_bath):
    budget = _Budget(5.0)
    w = np.linspace(-10.0, 10.0, 401)
    for bath in (toy_bath, ohmic_bath):
        g = np.asarray(bath.gamma(w))
        assert np.min(g) >= 0.0
        report = bath.kms_report(w)
        assert report["max_relative_deviation"] < 1e-8
        assert report["slope_relative_residual"] < 1e-4
    budget.check()


def test_criterion_03_reference_positivity_crossing(benchmark_hamiltonian,
                                                    benchmark_coupling, toy_bath,
                                                    benchmark_initial):
    budget = _Budget(120.0)
    grid = np.linspace(0.0, 4.0 * TAU_SB, 161)
    res = evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                     benchmark_initial, grid)
    crossing = positivity_crossing(res, tol=1e-8, resolution=1e-3 * TAU_SB)
    assert crossing is not None
    budget.check()
    # published window; the self-consistent bath gives ~3.47 tau_SB instead
    # (see the decision notes for the amplitude-inconsistency analysis)
    assert 2.4 <= crossing / TAU_SB <= 2.7


def test_criterion_04_sampled_generator_norm(benchmark_hamiltonian,
                                             benchmark_coupling, toy_bath):
    budget = _Budget(300.0)
    est = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                          n_samples=10_000, rng_seed=0)
    # every sample respects the proven cap (quoted as approximately 0.58)
    assert est.max_norm <= 0.58
    budget.check()
    # published window; the verified implementation gives ~0.267
    # (see the decision notes)
    assert 0.41 <= est.max_norm <= 0.47


@pytest.fixture(scope="module")
def ta_sweep(benchmark_jd, toy_bath, benchmark_initial, benchmark_grid,
             reference_trajectory):
    start = time.monotonic()
    ta_values = np.linspace(0.5, 6.0, 23)
    averages = []
    for t_a in ta_values:
        gen = cgme_generator(
            benchmark_jd, toy_bath,
            GeneratorConfig(equation_kind="cgme_frequency", T_a=float(t_a)),
        )
        res = evolve(gen, benchmark_initial, benchmark_grid)
        _, avg = trace_distance_series(res, reference_trajectory)
        averages.append(avg)
    return ta_values, np.array(averages), time.monotonic() - start


def test_criterion_05a_averaging_time_argmin(ta_sweep):
    ta_values, averages, elapsed = ta_sweep
    assert elapsed < 1800.0
    argmin = float(ta_values[np.argmin(averages)])
    # published window; the measured error curve is flat with its minimum
    # near T_a ~ 5.25 (see the decision notes)
    assert 2.4 <= argmin <= 3.4


def test_criterion_05b_coarse_grained_beats_davies(ta_sweep, benchmark_jd, toy_bath,
                                                   benchmark_initial, benchmark_grid,
                                                   reference_trajectory):
    ta_values, averages, _ = ta_sweep
    budget = _Budget(1800.0)
    res_d = evolve(davies_generator(benchmark_jd, toy_bath),
                   benchmark_initial, benchmark_grid)
    _, davies_avg = trace_distance_series(res_d, reference_trajectory)
    assert float(np.min(averages)) < davies_avg
    budget.check()


def test_criterion_06_davies_as_averaging_limit(benchmark_jd, toy_bath):
    budget = _Budget(120.0)
    tau_b = toy_bath.timescales().tau_B
    davies_sop = davies_generator(benchmark_jd, toy_bath).to_superoperator().matrix
    unitary = hamiltonian_superop(benchmark_jd.hamiltonian)
    reference = np.linalg.norm(davies_sop - unitary, 2)
    distances = []
    for mult in (5.0, 20.0, 80.0):
        cg = cgme_generator(
            benchmark_jd, toy_bath,
            GeneratorConfig(equation_kind="cgme_frequency", T_a=mult * tau_b),
        ).to_superoperator().matrix
        distances.append(np.linalg.norm(cg - davies_sop, 2))
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] < 0.10 * reference
    budget.check()


def test_criterion_07_pulse_suppression():
    budget = _Budget(120.0)
    quarter_pi = np.pi / 4.0
    # suppression whenever the cutoff-spacing product is below pi/4
    for beta in (0.2, 5.0):
        for omega_c in (0.5, 1.0, 2.0 * quarter_pi):
            for dt in (0.2, 0.4, 0.6, 0.8, 1.0):
                if omega_c * dt < quarter_pi:
                    bath = OhmicBath(kappa=1.0, omega_c=omega_c, beta=beta)
                    assert dd_suppression_xi(bath, dt) < 1.0
    # counterintuitive regime: slow pulsing accelerates decoherence
    bath = OhmicBath(kappa=1.0, omega_c=2.0 * quarter_pi, beta=5.0)
    xis = [dd_suppression_xi(bath, dt) for dt in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert any(x > 1.0 for x in xis)
    # closed form consistent with the general window-filter protocol
    for dt, kp in ((0.5, 1), (0.8, 2)):
        closed = dd_suppression_xi(bath, dt, k_prime=kp)
        general = dd_suppression_xi_general(bath, 2.0 * dt, T_a=4.0 * kp * dt)
        assert np.isclose(closed, general, rtol=2e-3)
    budget.check()


def test_criterion_08_complete_positivity_suite(toy_bath):
    budget = _Budget(600.0)
    dt = 1e-3
    redfield_violations = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = 2 if seed % 2 == 0 else 4
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Hm = 0.5 * (g + g.conj().T)
        # fix the model scale so the O(dt^2) Choi tolerance is meaningful
        H = HermitianOperator(2.0 * Hm / operator_norm(Hm.astype(complex)))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        A = 0.5 * (g + g.conj().T)
        A = HermitianOperator(A / operator_norm(A.astype(complex)))
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        rho0 = DensityMatrix.from_pure(vec)
        jd = decompose_coupling(eigensystem(H), A)
        grid = np.linspace(0.0, 10.0, 21)

        for gen in (
            davies_generator(jd, toy_bath),
            cgme_generator(jd, toy_bath,
                           GeneratorConfig(equation_kind="cgme_frequency", T_a=1.17)),
        ):
            sop = gen.to_superoperator()
            assert choi_min_eigenvalue(sop, dt) >= -10.0 * dt**2
            res = evolve(gen, rho0, grid)
            assert np.min(res.min_eigenvalue) >= -1e-8

        res_r = evolve(redfield_generator(jd, toy_bath), rho0, grid)
        if np.min(res_r.min_eigenvalue) < -1e-8:
            redfield_violations += 1
    assert redfield_violations >= 1
    budget.check()


def test_criterion_09_coefficient_and_limit_equivalences(
        benchmark_jd, benchmark_hamiltonian, benchmark_coupling, toy_bath,
        benchmark_initial, benchmark_grid):
    budget = _Budget(600.0)
    # filter-factorized coefficients equal the direct double integral
    rng = np.random.default_rng(42)
    for _ in range(20):
        w, wp = rng.uniform(-4.0, 4.0, size=2)
        t_a = rng.uniform(0.4, 3.0)
        a = cgme_gamma(w, wp, t_a, toy_bath)
        b = oracles.cgme_gamma_reduced(w, wp, t_a, toy_bath.correlation)
        assert abs(a - b) < 1e-6 * max(1.0, abs(a))

    # worst-case discretized filter grid reproduces the exact-integral
    # generator's final state
    comm = benchmark_hamiltonian.entries @ benchmark_coupling.entries \
        - benchmark_coupling.entries @ benchmark_hamiltonian.entries
    dp = discretization_params(toy_bath.timescales(), operator_norm(comm))
    freq = cgme_generator(
        benchmark_jd, toy_bath,
        GeneratorConfig(equation_kind="cgme_frequency", T_a=dp.T_a),
    )
    disc = cgme_generator(
        benchmark_jd, toy_bath,
        GeneratorConfig(equation_kind="cgme_discrete", T_a=dp.T_a,
                        discretization=dp),
    )
    res_f = evolve(freq, benchmark_initial, benchmark_grid)
    res_d = evolve(disc, benchmark_initial, benchmark_grid)
    series, _ = trace_distance_series(res_f, res_d)
    assert float(series[-1]) < 1e-3

    # driven machinery with a pulse-free schedule reduces to the stationary form
    from qme.driving import td_a_epsilon
    sched = DriveSchedule(segments=((0.0, 20.0, benchmark_hamiltonian),))
    for eps in (0.0, 1.7, -2.4):
        td = td_a_epsilon(sched, benchmark_coupling, toy_bath, 5.0, eps, 1.17)
        ti = cgme_a_epsilon(benchmark_jd, eps, 1.17, toy_bath)
        assert np.max(np.abs(td - ti)) < 1e-7
    budget.check()


def test_criterion_10_bound_dominance(benchmark_hamiltonian, benchmark_coupling,
                                      toy_bath, benchmark_jd, benchmark_initial,
                                      benchmark_grid, reference_trajectory):
    budget = _Budget(300.0)
    ts = toy_bath.timescales()
    est = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                          n_samples=2000, rng_seed=0)
    lam = min(est.max_norm, 4.0 / ts.tau_SB)
    bp = BoundParams(tau_b=ts.tau_B, tau_sb=ts.tau_SB,
                     t_a=optimal_ta(
                         BoundParams(tau_b=ts.tau_B, tau_sb=ts.tau_SB,
                                     t_a=1.0, lamb=lam),
                         variant="adjusted"),
                     lamb=lam, epsilon_t=ts.epsilon_T)
    gen = cgme_generator(
        benchmark_jd, toy_bath,
        GeneratorConfig(equation_kind="cgme_frequency", T_a=bp.t_a),
    )
    res = evolve(gen, benchmark_initial, benchmark_grid)
    measured, _ = trace_distance_series(res, reference_trajectory)
    assert strongest_bound(bp, 0.0) == 0.0
    for t, m in zip(benchmark_grid, measured):
        assert strongest_bound(bp, float(t)) >= m - 1e-12
    budget.check()
