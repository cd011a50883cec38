"""Trajectory integration: analytic dephasing, exact propagation against an
ODE oracle, the CFM4 integrator for time-dependent generators, monitors, the
time-local growing-filter equation, and positivity-crossing detection."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qme.evolve import (
    CFM4_TOL,
    TAYLOR_THETA,
    EvolutionResult,
    _cfm4_propagators,
    _expm_taylor,
    _forms_first,
    _one_norms,
    _taylor_degree,
    _taylor_polynomial,
    _taylor_series,
    evolve,
    evolve_ore,
    ore_filter,
    positivity_crossing,
    trace_distance_series,
)
from qme.quadrature import EPSABS, EPSREL
from qme.generators import (
    GeneratorConfig,
    GeneratorSet,
    cgme_generator,
    davies_generator,
    redfield_generator,
)
from qme.operators import (
    DensityMatrix,
    Superoperator,
    hamiltonian_superop,
    to_real_superop,
    vectorize_generator,
    vectorize_redfield,
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

    @pytest.mark.parametrize("points", (129, 1001, 4001))
    def test_trace_deviation(self, points, benchmark_jd, toy_bath, benchmark_initial):
        # the propagator is formed once, unshifted, with the identity added
        # last, and reused at every step: the largest trace deviation over
        # Davies, Redfield and CGME at T_a 0.5, 1.17, 5.25 and 12 read
        # 1.07e-13 (4,001 points), as with the term-by-term series and its
        # Kahan sum; the bound is twice that
        gens = [davies_generator(benchmark_jd, toy_bath),
                redfield_generator(benchmark_jd, toy_bath)]
        gens += [cgme_generator(benchmark_jd, toy_bath,
                                GeneratorConfig(equation_kind="cgme_frequency", T_a=t_a))
                 for t_a in (0.5, 1.17, 5.25, 12.0)]
        grid = np.linspace(0.0, 2.56 * TAU_SB, points)
        worst = max(evolve(gen, benchmark_initial, grid).metadata["max_trace_deviation"]
                    for gen in gens)
        assert worst <= 2.2e-13

    def test_redfield_positivity_crossing(self, benchmark_jd, toy_bath, benchmark_initial):
        # Redfield loses positivity at once from the excited state; bisection
        # on the exact dense output finds the same dyadic point as before
        gen = redfield_generator(benchmark_jd, toy_bath)
        res = evolve(gen, benchmark_initial, np.linspace(0.0, 4.0 * TAU_SB, 161))
        crossing = positivity_crossing(res, tol=1e-8, resolution=1e-3 * TAU_SB)
        assert crossing == pytest.approx(0.00390625, abs=1e-12)


def _stacked(fn):
    """A per-time generator t -> d^2 x d^2 matrix as the vectorised callable
    ``evolve`` takes."""
    return lambda ts: np.array([fn(t) for t in np.atleast_1d(ts)])


def _cfm4_states(L, v0, grid, counts):
    """The states at grid[1:] through the CFM4 interval propagators at
    counts[i] substeps in grid interval i."""
    props, _ = _cfm4_propagators(L, len(v0), grid[:-1], np.diff(grid), counts)
    states = [v0]
    for P in props:
        states.append(P @ states[-1])
    return np.array(states[1:])


def _driven_dephasing(t):
    # H(t) = w(t) Z / 2 and Lindblad weight gamma(t) on Z: every L(t) is
    # diagonal, so rho_01(t) = rho_01(0) exp(-i int w - 2 int gamma)
    return vectorize_generator(0.5 * (1.0 + 0.5 * np.cos(3.0 * t)) * PAULI_Z,
                               [(0.3 * (1.0 + np.sin(2.0 * t)), PAULI_Z)]).matrix


def _driven_decay(t):
    # non-commuting: a transverse drive beside amplitude damping at a
    # time-dependent rate
    h = 0.5 * PAULI_Z + 0.4 * np.cos(1.7 * t) * PAULI_X
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return vectorize_generator(h, [(0.2 * (1.0 + 0.5 * np.sin(t)), lower)]).matrix


class TestCFM4:
    """Time-dependent generators run on halved commutator-free Magnus steps.
    Tolerances: the halving stops at an error estimate <= CFM4_TOL, which
    tracks the error of a fourth-order method up to higher-order terms; a
    factor 2 covers those."""

    GRID = np.linspace(0.0, 6.0, 13)

    def test_dephasing_matches_closed_form(self):
        res = evolve(_stacked(_driven_dephasing), _plus_state(), self.GRID)
        t = self.GRID
        phase = t + np.sin(3.0 * t) / 6.0
        decay = 0.3 * (t + 0.5 * (1.0 - np.cos(2.0 * t)))
        expected = 0.5 * np.exp(-1j * phase) * np.array(
            [oracles.dephasing_offdiagonal(x, 1.0) for x in decay])
        assert np.max(np.abs(res.states[:, 0, 1] - expected)) < 2 * CFM4_TOL
        assert res.metadata["error_estimate"] <= CFM4_TOL

    def test_non_commuting_matches_ode_oracle(self):
        res = evolve(_stacked(_driven_decay), _plus_state(), self.GRID)
        v0 = _plus_state().entries.reshape(-1, order="F")
        ref = oracles.time_dependent_ode_reference(_driven_decay, v0, self.GRID)
        got = np.array([rho.reshape(-1, order="F") for rho in res.states])
        err = np.max(np.abs(got - ref))
        assert err < 2 * CFM4_TOL
        assert err < 2 * res.metadata["error_estimate"]

    def test_fourth_order_convergence(self):
        # the error falls by 2^4 per halving; the factors applied in the
        # swapped order would leave a second-order method
        L = _stacked(_driven_decay)
        v0 = _plus_state().entries.reshape(-1, order="F")
        ref = oracles.time_dependent_ode_reference(_driven_decay, v0, self.GRID)[1:]
        errs = [np.max(np.abs(_cfm4_states(L, v0, self.GRID, np.full(12, n)) - ref))
                for n in (1, 2, 4)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 4.0) < 0.5)

    @pytest.mark.parametrize("grid", [[0.0, 6.0], [0.0, 0.1, 6.0, 6.05]])
    def test_wide_intervals_converge(self, grid):
        # every interval starts at one substep against two, however wide:
        # the control must still double the wide one until it is resolved
        grid = np.array(grid)
        res = evolve(_stacked(_driven_decay), _plus_state(), grid)
        v0 = _plus_state().entries.reshape(-1, order="F")
        ref = oracles.time_dependent_ode_reference(_driven_decay, v0, grid)
        got = np.array([rho.reshape(-1, order="F") for rho in res.states])
        assert np.max(np.abs(got - ref)) < 2 * CFM4_TOL
        assert res.metadata["error_estimate"] <= CFM4_TOL

    def test_constant_generator_needs_no_doubling(self):
        # one substep and two are both exact for a constant L: the starting
        # pair is accepted in every interval, and the trajectory is the
        # exact propagation's
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        M = vectorize_generator(0.5 * PAULI_Z + 0.4 * PAULI_X, [(0.2, lower)]).matrix
        grid = np.array([0.0, 0.5, 1.7, 4.0, 4.1])
        res = evolve(lambda ts: np.broadcast_to(M, (len(ts),) + M.shape),
                     _plus_state(), grid)
        exact = evolve(Superoperator(M, 2), _plus_state(), grid)
        assert np.array_equal(res.metadata["interval_substeps"], np.full(4, 2))
        assert res.metadata["n_expm"] == 2 * 3 * 4
        assert np.max(np.abs(res.states - exact.states)) < 1e-12

    def test_non_finite_generator_raises(self):
        def blows_up(ts):
            out = np.array([_driven_decay(t) for t in ts])
            out[ts > 3.0] = np.nan
            return out

        with pytest.raises(ArithmeticError, match="not finite"):
            evolve(blows_up, _plus_state(), self.GRID)

    def test_dense_output(self):
        res = evolve(_stacked(_driven_decay), _plus_state(), self.GRID)
        for t, rho in zip(res.times, res.states):
            assert np.array_equal(res.dense(t), rho.reshape(-1, order="F"))
        v0 = _plus_state().entries.reshape(-1, order="F")
        off = np.array([0.0, 0.3, 1.37, 4.9, 5.99])
        ref = oracles.time_dependent_ode_reference(_driven_decay, v0, off)
        for t, v in zip(off[1:], ref[1:]):
            assert np.max(np.abs(res.dense(t) - v)) < 2 * CFM4_TOL


def _random_generator(d, rng):
    """A random d-level Lindblad generator: H and two jump operators with
    Gaussian entries, column-stacked."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ops = [(rng.uniform(0.1, 1.0), rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
           for _ in range(2)]
    return vectorize_generator(0.5 * (g + g.conj().T), ops).matrix


def _relative(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestTaylorKernel:
    """``_expm_taylor`` against scipy's ``expm`` on real-basis Lindblad
    generators scaled to a given 1-norm, and the constant-generator
    propagation on both sides of its rule for forming a step's propagator
    or applying it to the state."""

    NORMS = (0.0, 1e-3, 0.5, 5.0, 50.0, 1e4, 1e7)

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("n", (16, 64, 256))
    def test_matches_scipy_expm(self, n, norm):
        # a (2, 2, n, n) stack of four generators at norm, norm/2, norm/4
        # and norm/8; the vector and the identity take the first.  The
        # exponential's relative condition number is at least ||X||
        # (Van Loan 1977), so past ||X||_1 = 1e3 the bound grows with it
        tol = max(1e-13, 1e-16 * norm)
        rng = np.random.default_rng(n)
        d = int(round(np.sqrt(n)))
        X = []
        for f in (1.0, 0.5, 0.25, 0.125):
            M = to_real_superop(_random_generator(d, rng))
            X.append(M * (f * norm / np.abs(M).sum(axis=0).max()))
        X = np.array(X).reshape(2, 2, n, n)
        ref = np.array([expm(x) for x in X.reshape(-1, n, n)])
        v = rng.standard_normal(n)
        # the kernel overwrites X
        assert _relative(_expm_taylor(X[0, 0].copy(), v)[0], ref[0] @ v) <= tol
        assert _relative(_expm_taylor(X[0, 0].copy())[0], ref[0]) <= tol
        assert _relative(_expm_taylor(X[0, 0].copy(), reused=True)[0], ref[0]) <= tol
        stack = _expm_taylor(X)[0].reshape(-1, n, n)
        assert max(_relative(a, b) for a, b in zip(stack, ref)) <= tol

    @pytest.mark.parametrize("norm", (1e-3, 0.5, 5.0, 50.0))
    def test_paterson_stockmeyer_matches_term_by_term(self, norm):
        # T_m(X/s) on a (2, 2, 16, 16) stack for every degree m, at the
        # scaling s that brings the norm within theta_m, against the series
        # summed term by term (measured: <= 3.0e-15 relative)
        rng = np.random.default_rng(24)
        X = []
        for f in (1.0, 0.5, 0.25, 0.125):
            M = to_real_superop(_random_generator(4, rng))
            X.append(M * (f * norm / np.abs(M).sum(axis=0).max()))
        X = np.array(X).reshape(2, 2, 16, 16)
        for m, theta in TAYLOR_THETA.items():
            s = max(1, math.ceil(norm / theta))
            got, _ = _taylor_polynomial(X.copy(), m, s)
            ref, _ = oracles.taylor_terms(X, None, m, s)
            assert max(_relative(a, b) for a, b in zip(got.reshape(-1, 16, 16),
                                                       ref.reshape(-1, 16, 16))) <= 1e-14
        # the vector path still sums term by term, as before
        v = rng.standard_normal(16)
        m, s = _taylor_degree(norm)
        got, count = _taylor_series(X[0, 0], v, m, s)
        ref, ref_count = oracles.taylor_terms(X[0, 0], v, m, s)
        assert np.array_equal(got, ref) and count == ref_count

    @pytest.mark.parametrize("norm", (1e-3, 0.5, 5.0, 50.0, 1e4))
    def test_product_count(self, norm):
        # per matrix of the stack: (p - 1) + floor(m / p) - [p | m]
        # products at the best block size p, and log2 s squarings
        rng = np.random.default_rng(3)
        X = np.array([to_real_superop(_random_generator(4, rng)) for _ in range(3)])
        shifted = X - np.trace(X, axis1=1, axis2=2)[:, None, None] / 16 * np.eye(16)
        X *= norm / np.abs(shifted).sum(axis=-2).max()
        m, s = _taylor_degree(norm, squaring=True)
        ps = min(p - 1 + m // p - (m % p == 0) for p in range(1, m + 1))
        assert _expm_taylor(X)[1] == 3 * (ps + int(math.log2(s)))
        if m == 16:
            assert ps == 6

    def test_one_pass_norms(self, ladder_jds, benchmark_jd, toy_bath):
        # both 1-norms from one pass over |M|, the shifted one corrected on
        # the diagonal, against the direct formulas
        for jd in (*ladder_jds.values(), benchmark_jd):
            for gen in (davies_generator(jd, toy_bath), redfield_generator(jd, toy_bath)):
                M = to_real_superop(gen.to_superoperator().matrix)
                n = len(M)
                shifted, formed = _one_norms(M)
                direct = np.abs(M - np.trace(M) / n * np.eye(n)).sum(axis=0).max()
                assert abs(shifted - direct) <= 4 * np.finfo(float).eps * direct
                assert formed == np.abs(M).sum(axis=0).max()

    def test_products_unchanged_by_one_pass_norms(self, ladder_jds, benchmark_jd, toy_bath,
                                                 benchmark_initial):
        # the kernel's product counts as with two passes over M, on the
        # Davies, Redfield and CGME generators of the ladder (its benchmark
        # grid) and of the benchmark model (the T_a sweep's grid)
        cgme = GeneratorConfig("cgme_frequency", T_a=1.0)
        cases = [(jd, DensityMatrix.from_pure(np.eye(jd.dim)[-1]), np.linspace(0.0, 2.5, 6))
                 for jd in ladder_jds.values()]
        cases.append((benchmark_jd, benchmark_initial, np.linspace(0.0, 25.6, 129)))
        counts = [[evolve(gen, rho0, grid).metadata["n_products"]
                   for gen in (davies_generator(jd, toy_bath), redfield_generator(jd, toy_bath),
                               cgme_generator(jd, toy_bath, cgme))]
                  for jd, rho0, grid in cases]
        assert counts == [[10] * 3, [12] * 3, [165] * 3, [7] * 3]

    def test_form_or_apply_rule(self):
        # at ||X||_1 = 4, without scaling, the flops alone would form from
        # u = n uses; the Paterson-Stockmeyer form (10 products and 7 block
        # sums at m = 35, where the series took 34 products) and a numpy
        # call's overhead move that to u = 1 at n = 16, 2 at n = 64 and ~26
        # at n = 256.  Timed on the Davies generators of the seed-301 Pauli
        # ladder (one BLAS thread), forming won from u = 1, 2 and 20-28.
        # A step that needs scaling is formed for one use, and X = 0 is
        # never formed
        assert _forms_first(4.0, 16, 1) and not _forms_first(0.05, 16, 1)
        assert [_forms_first(4.0, 64, u) for u in (1, 2)] == [False, True]
        assert [_forms_first(4.0, 256, u) for u in (5, 256)] == [False, True]
        assert _forms_first(1e4, 16, 1) and _forms_first(1e4, 256, 1)
        assert not _forms_first(0.0, 16, 100)

    def test_non_finite_input_gives_non_finite_output(self):
        X = np.full((2, 2, 4, 4), np.nan)
        assert not np.any(np.isfinite(_expm_taylor(X)[0]))
        assert not np.any(np.isfinite(_expm_taylor(X[0, 0], np.ones(4))[0]))

    def test_ladder_size_trajectory_both_sides_of_the_rule(self, monkeypatch):
        # a 4-qubit generator (n = 256 real coordinates): the step h recurs
        # 256 times and is formed once on the identity, the step 0.3 h
        # recurs 3 times and is applied to the state; the reference is the
        # complex propagator expm(M h) stepped as before the Taylor kernel
        rng = np.random.default_rng(16)
        M = _random_generator(16, rng)
        h = 0.5 / np.abs(to_real_superop(M)).sum(axis=0).max()
        grid = np.concatenate((h * np.arange(257), 256 * h + 0.3 * h * np.arange(1, 4)))
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        rho0 = DensityMatrix.from_pure(psi)
        module = importlib.import_module("qme.evolve")
        kernel, applied_to = module._expm_taylor, []

        def spy(X, B=None, **kwargs):
            applied_to.append("identity" if B is None else "state")
            return kernel(X, B, **kwargs)

        monkeypatch.setattr(module, "_expm_taylor", spy)
        res = evolve(Superoperator(M, 16), rho0, grid)
        assert sorted(applied_to) == ["identity", "state", "state", "state"]
        assert res.metadata["n_expm"] == 2
        long, short = expm(M * h), expm(M * 0.3 * h)
        v = [rho0.entries.reshape(-1, order="F")]
        for step in np.diff(grid):
            v.append((long if step > 0.5 * h else short) @ v[-1])
        got = np.array([rho.reshape(-1, order="F") for rho in res.states])
        assert np.max(np.abs(got - np.array(v))) <= 1e-13
        # the dense output is one use, applied to the state
        for i, frac in ((3, 0.4), (257, 0.7)):
            t = grid[i] + frac * (grid[i + 1] - grid[i])
            ref = expm(M * (t - grid[i])) @ v[i]
            assert np.max(np.abs(res.dense(t) - ref)) <= 1e-13
        assert applied_to[4:] == ["state", "state"]

    def test_long_step_is_formed_by_squaring(self):
        # one step of ||M h||_1 = 1e4 on a two-point grid: applied to the
        # state it would take s = 1,011 Taylor steps of up to 55 products;
        # formed on the identity it takes m - 1 products and 10 squarings.
        # The exponential's relative condition number is at least ||M h||
        # (Van Loan, SIAM J. Numer. Anal. 14, 971 (1977)), hence 1e-12
        rng = np.random.default_rng(4)
        M = _random_generator(4, rng)
        T = 1e4 / np.abs(to_real_superop(M)).sum(axis=0).max()
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho0 = DensityMatrix.from_pure(psi)
        v0 = rho0.entries.reshape(-1, order="F")
        res = evolve(Superoperator(M, 4), rho0, np.array([0.0, T]))
        assert np.max(np.abs(res.states[-1].reshape(-1, order="F") - expm(M * T) @ v0)) <= 1e-12
        assert res.metadata["n_products"] <= 70
        assert np.max(np.abs(res.dense(0.6 * T) - expm(M * 0.6 * T) @ v0)) <= 1e-12


class TestRealBasis:
    """``evolve`` integrates in the real coordinates of the orthonormal
    Hermitian basis: every exponential is of a real matrix, and a generator
    that does not preserve Hermiticity is rejected, not misread."""

    MINUS_I_Z_LEFT = -1j * np.kron(np.eye(2), PAULI_Z)     # rho -> -i Z rho

    def test_rejects_superoperator_not_preserving_hermiticity(self):
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            evolve(Superoperator(self.MINUS_I_Z_LEFT, 2), _plus_state(), np.linspace(0, 1, 3))

    def test_rejects_callable_not_preserving_hermiticity(self):
        M = self.MINUS_I_Z_LEFT
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            evolve(lambda ts: np.broadcast_to(M, (len(ts),) + M.shape),
                   _plus_state(), np.linspace(0, 1, 3))

    def test_generator_set_keeps_hermitian_part_of_h_eff(self):
        # GeneratorSet admits a 1e-10 relative anti-Hermitian part in H_eff,
        # beyond what the real-basis transform accepts; it stores the
        # Hermitian part, so a set that passes its own check evolves
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        h = 0.5 * PAULI_Z + 0.4 * PAULI_X
        skewed = GeneratorSet(H_eff=h + 1e-11j * PAULI_Z, kind="davies",
                              lindblad_ops=((0.2, lower),))
        assert np.array_equal(skewed.H_eff, h)
        grid = np.linspace(0.0, 2.0, 5)
        res = evolve(skewed, _plus_state(), grid)
        exact = evolve(GeneratorSet(H_eff=h, kind="davies", lindblad_ops=((0.2, lower),)),
                       _plus_state(), grid)
        assert np.array_equal(res.states, exact.states)

    def test_three_qubits_match_complex_expm(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = 0.25 * (g + g.conj().T)
        ops = [(0.3, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
               for _ in range(2)]
        M = vectorize_generator(h, ops).matrix
        rho0 = DensityMatrix.from_pure(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        grid = np.array([0.0, 0.1, 0.35, 0.6, 1.0])
        res = evolve(Superoperator(M, 8), rho0, grid)
        v0 = rho0.entries.reshape(-1, order="F")
        for t, rho in zip(grid, res.states):
            assert np.max(np.abs(rho.reshape(-1, order="F") - expm(M * t) @ v0)) < 1e-12
        assert np.max(np.abs(res.dense(0.8) - expm(M * 0.8) @ v0)) < 1e-12
        assert res.metadata["max_hermiticity_deviation"] == 0.0

    def test_every_exponential_is_real(self, monkeypatch, benchmark_jd, benchmark_hamiltonian,
                                       benchmark_coupling, toy_bath, benchmark_initial):
        dtypes = []
        # the package exports the function ``evolve`` under the module's name
        module = importlib.import_module("qme.evolve")
        kernel = module._expm_taylor

        def spy(X, *args, **kwargs):
            dtypes.append(np.asarray(X).dtype)
            return kernel(X, *args, **kwargs)

        monkeypatch.setattr(module, "_expm_taylor", spy)
        grid = np.linspace(0.0, 2.0, 5)
        runs = {
            "GeneratorSet": lambda: evolve(davies_generator(benchmark_jd, toy_bath),
                                           benchmark_initial, grid),
            "callable": lambda: evolve(_stacked(_driven_decay), _plus_state(), grid),
            "evolve_ore": lambda: evolve_ore(benchmark_hamiltonian, benchmark_coupling,
                                             toy_bath, benchmark_initial, grid),
        }
        for name, run in runs.items():
            dtypes.clear()
            run()
            assert dtypes and all(dt == np.float64 for dt in dtypes), name


class TestEvolutionMetadata:
    def test_zero_generator_takes_no_products(self, benchmark_initial):
        res = evolve(Superoperator(np.zeros((16, 16)), 4), benchmark_initial,
                     np.linspace(0.0, 1.0, 40))
        assert res.metadata["n_products"] == 0
        assert np.array_equal(res.states[-1], benchmark_initial.entries)

    def test_cfm4_counts_for_time_dependent(self, benchmark_hamiltonian,
                                            benchmark_coupling, toy_bath,
                                            benchmark_initial):
        grid = np.linspace(0.0, 5.0, 11)
        res = evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                         benchmark_initial, grid)
        meta = res.metadata
        assert meta["integrator"] == "cfm4"
        # each interval's accepted count is a power of 2; reaching 2c it ran
        # 1 + 2 + ... + 2c = 2 (2c) - 1 substeps of two exponentials each
        counts = meta["interval_substeps"]
        assert len(counts) == len(grid) - 1
        assert np.all(counts >= 1) and np.all(counts & (counts - 1) == 0)
        assert meta["n_substeps"] == counts.sum()
        assert meta["n_expm"] == 2 * int(np.sum(2 * counts - 1))
        assert meta["error_estimate"] <= CFM4_TOL
        assert 0.0 <= meta["filter_quad_error"] <= EPSABS

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
    @pytest.fixture(scope="class")
    def ta_sweep_reference(self, benchmark_hamiltonian, benchmark_coupling, toy_bath,
                           benchmark_initial):
        # the ta_sweep model and grid
        return evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                          benchmark_initial, np.linspace(0.0, 2.56 * TAU_SB, 129))

    def test_filter_tends_to_stationary(self, benchmark_jd, toy_bath):
        g, _ = ore_filter(benchmark_jd, toy_bath, 60.0)
        A_f_inf = redfield_generator(benchmark_jd, toy_bath).redfield_pair[1]
        A_f_late = np.zeros_like(A_f_inf)
        for k, Aw in enumerate(benchmark_jd.operators):
            A_f_late += complex(g(60.0)[k]) * Aw
        assert np.max(np.abs(A_f_late - A_f_inf)) < 1e-3
        # and starts from zero: no initial filter transient
        assert np.max(np.abs(g(0.0))) == 0.0

    def test_filter_matches_per_frequency_quad(self, benchmark_jd, toy_bath):
        # the running sums converge to max(EPSABS, EPSREL |g|) with |g| < 0.1,
        # and a partial panel integrates the interpolant on the converged
        # panel's nodes, within 1e-14 of a fresh Gauss rule (test_quadrature)
        g, error = ore_filter(benchmark_jd, toy_bath, 5.0)
        t = np.concatenate((np.linspace(0.0, 5.0, 6),
                            np.random.default_rng(2).uniform(0.0, 5.0, 5)))
        got = g(t)
        assert got.shape == (len(t), len(benchmark_jd.frequencies))
        assert error <= EPSABS
        for k, w in enumerate(benchmark_jd.frequencies):
            ref = [oracles.ore_filter_quad(float(w), toy_bath.correlation, x) for x in t]
            assert np.max(np.abs(got[:, k] - ref)) < max(EPSABS, 0.1 * EPSREL)

    @pytest.mark.parametrize("model, n_w", [("benchmark_jd", 13), ("parity_jd", 25)])
    def test_filter_matches_all_columns_integrand(self, request, toy_bath, model, n_w):
        # one exponential column per distinct |w|, conjugated where w < 0,
        # against the integrand that takes e^{i w t'} for every column, on
        # the benchmark model (w = 0 and six +-w pairs) and the 3-qubit
        # parity model
        jd = request.getfixturevalue(model)
        assert len(jd.frequencies) == n_w and 0.0 in jd.frequencies
        g, _ = ore_filter(jd, toy_bath, 25.6)
        ref, _ = oracles.ore_filter_direct(jd, toy_bath, 25.6)
        t = np.concatenate(([0.0, 25.6], np.random.default_rng(13).uniform(0.0, 25.6, 500)))
        assert np.max(np.abs(g(t) - ref(t))) <= 1e-16

    @pytest.mark.parametrize("model", ["benchmark_jd", "parity_jd"])
    def test_matches_redfield_with_running_filter(self, request, toy_bath, model):
        # the real-linear stack against vectorize_redfield of the running
        # filter A_f(t) = sum_w g_w(t) A_w, one matrix per time, through the
        # callable form of evolve
        jd = request.getfixturevalue(model)
        rho0 = DensityMatrix.from_pure(np.arange(1.0, jd.dim + 1))
        grid = np.linspace(0.0, 2.56 * TAU_SB, 65)
        g, _ = ore_filter(jd, toy_bath, grid[-1])
        ops = np.asarray(jd.operators)

        def generator(t):
            return np.array([vectorize_redfield(jd.hamiltonian, jd.coupling,
                                                np.tensordot(gt, ops, axes=1)).matrix
                             for gt in g(t)])

        res = evolve_ore(jd.hamiltonian, jd.coupling, toy_bath, rho0, grid, jd=jd)
        ref = evolve(generator, rho0, grid)
        assert np.max(np.abs(res.states - ref.states)) < 1e-12

    def test_reference_matches_ode_oracle(self, benchmark_hamiltonian, benchmark_coupling,
                                          toy_bath, benchmark_initial, benchmark_jd):
        # the ta_sweep model and grid against DOP853 on an order-24 Gauss filter
        grid = np.linspace(0.0, 2.56 * TAU_SB, 129)
        res = evolve_ore(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                         benchmark_initial, grid)
        ref = oracles.ore_reference(benchmark_hamiltonian.entries, benchmark_coupling.entries,
                                    benchmark_jd.terms(), toy_bath.correlation,
                                    benchmark_initial.entries, grid)
        err = np.max(np.abs(res.states - ref))
        assert err <= 5e-8
        assert err <= res.metadata["error_estimate"]

    def test_substeps_follow_the_filter(self, ta_sweep_reference):
        # the generator moves while the filter builds up (t of order tau_B)
        # and hardly at all later
        counts = ta_sweep_reference.metadata["interval_substeps"]
        assert counts[0] > counts[-1]

    def test_exponential_count(self, ta_sweep_reference):
        # per-interval control computes 920 exponentials on this grid;
        # halving every interval alike computed 1,536
        assert ta_sweep_reference.metadata["n_expm"] <= 1000
        # and the Taylor kernel runs 5,368 matrix products for them, 5.8 per
        # exponential, by Paterson-Stockmeyer (11,504 term by term)
        assert ta_sweep_reference.metadata["n_products"] == 5368

    def test_peak_memory(self, benchmark_hamiltonian, benchmark_coupling, toy_bath,
                         benchmark_initial):
        # the CFM4 chunks are sized for the kernel's powers: the traced peak
        # of a second run on the ta_sweep grid read 3.69 MiB (3.82 MiB with
        # the term-by-term series; 5.32 MiB with its chunks and the powers)
        args = (benchmark_hamiltonian, benchmark_coupling, toy_bath, benchmark_initial,
                np.linspace(0.0, 2.56 * TAU_SB, 129))
        evolve_ore(*args)
        tracemalloc.start()
        try:
            evolve_ore(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.82 * 2 ** 20

    def test_step_control_pinned(self, ta_sweep_reference):
        # the local estimates are taken in matrix entries, not in the real
        # coordinates, whose max-abs norm weighs off-diagonals up to sqrt2
        # more (a control on those grew the count to 1,024)
        counts = ta_sweep_reference.metadata["interval_substeps"]
        assert np.array_equal(counts, np.repeat([4, 2], [19, 109]))
        assert ta_sweep_reference.metadata["n_expm"] == 920

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
