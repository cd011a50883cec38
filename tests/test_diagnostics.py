"""Error-bound formulas, averaging-time optimization, and the sampled
generator-norm estimate."""

import numpy as np
import pytest

from qme.diagnostics import (
    BoundParams,
    _ginibre_draws,
    bound_summary,
    c_bm_bound,
    interaction_picture_action,
    lambda_estimate,
    optimal_ta,
    strongest_bound,
    ta_discrepancy_report,
)
from qme.operators import HermitianOperator, trace_norm
from qme.quadrature import EPSABS

import oracles


def _bp(**kw):
    base = dict(tau_b=0.6858, tau_sb=10.0, t_a=1.17)
    base.update(kw)
    return BoundParams(**base)


class TestBoundParams:
    def test_default_lambda(self):
        bp = _bp()
        assert np.isclose(bp.lamb, 4.0 / bp.tau_sb)
        assert np.isclose(bp.c_lambda, 1.0)

    def test_c_lambda_floor(self):
        # a measured rate above the proven cap 4/tau_sb is rejected
        with pytest.raises(ValueError):
            _bp(lamb=1.0)
        assert np.isclose(_bp(lamb=0.1).c_lambda, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            _bp(tau_b=-1.0)
        with pytest.raises(ValueError):
            _bp(tau_sb=0.0)


class TestOptimalTa:
    def test_theory_value(self):
        bp = _bp()
        assert np.isclose(optimal_ta(bp, variant="theory"),
                          np.sqrt(0.6858 * 10.0 / 5.0), rtol=1e-12)

    def test_adjusted_scales_with_c_lambda(self):
        bp = _bp(lamb=0.2)  # c_lambda = 2
        assert np.isclose(optimal_ta(bp, variant="adjusted"),
                          np.sqrt(2.0) * optimal_ta(bp, variant="theory"))

    def test_discrepancy_report(self):
        rep = ta_discrepancy_report(_bp())
        assert np.isclose(rep["formula_value"], 1.1711, atol=2e-4)
        assert np.isclose(rep["reported_value"], 0.97)
        assert rep["ratio"] > 1.2
        # the correlation time that would reconcile the reported value
        assert np.isclose(rep["tau_b_reconciling"],
                          5.0 * 0.97**2 / 10.0, rtol=1e-10)


class TestClosedFormBounds:
    def test_cgme_simple_at_zero(self):
        s = bound_summary(_bp(), 0.0)
        r = 0.6858 / 10.0
        assert np.isclose(s["cgme_simple"].value, 13.0 * np.sqrt(r))

    def test_cgme_detailed_at_zero(self):
        s = bound_summary(_bp(), 0.0)
        r = 0.6858 / 10.0
        assert np.isclose(s["cgme_detailed"].value,
                          13.0 * np.sqrt(r) * (1.0 + 29.0 * r))

    def test_bounds_monotone_in_time(self):
        bp = _bp()
        for key in ("cgme_simple", "cgme_detailed", "redfield_log"):
            vals = [bound_summary(bp, t)[key].value for t in (0.0, 2.0, 5.0, 10.0)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_davies_requires_level_spacing(self):
        s = bound_summary(_bp(), 1.0)
        assert "davies" not in s
        s2 = bound_summary(_bp(), 1.0, delta_e=0.5)
        assert s2["davies"].value > 0

    def test_redfield_log_dominates_integral_oracle(self):
        bp = _bp(epsilon_t=1e-3)
        for t in (0.5, 2.0, 6.0, 12.0):
            printed = bound_summary(bp, t)["redfield_log"].value
            raw = oracles.redfield_log_bracket_integral(
                bp.tau_b, bp.tau_sb, bp.epsilon_t, t)
            # the closed bracket upper-bounds the un-relaxed integral
            # (c_bm = 1 here, so the comparison is prefactor-free)
            assert printed >= raw - 1e-9


class TestAmplificationBound:
    def test_b2_matches_ode_oracle(self):
        bp = _bp(c_bm=1.3)
        from qme.diagnostics import _b2_small
        for t in (0.1, 0.3, 0.55):
            ours = _b2_small(bp, t)
            ref = oracles.b2_ode_numeric(t, bp.lamb, bp.t_a, 1.3)
            assert abs(ours - ref) < 2e-4 * max(1.0, abs(ref))

    def test_strongest_zero_at_zero(self):
        assert strongest_bound(_bp(), 0.0) == 0.0

    def test_strongest_continuous_at_half_ta(self):
        bp = _bp()
        h = bp.t_a / 2.0
        left = strongest_bound(bp, h - 1e-8)
        right = strongest_bound(bp, h + 1e-8)
        assert abs(left - right) < 1e-6

    def test_strongest_monotone(self):
        bp = _bp()
        ts = np.linspace(0.0, 12.0, 40)
        vals = [strongest_bound(bp, t) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_c_bm_matches_fixed_point_oracle(self):
        bp = _bp()
        for t in (0.0, 1.0, 3.0):
            c = c_bm_bound(bp, t)
            x = 4.0 * bp.c_lambda * (bp.tau_b / bp.tau_sb) \
                * (np.exp(bp.lamb * t + 1.0) - 3.0 / 5.0) ** 2
            assert np.isclose(c, oracles.c_bm_numeric(x), rtol=1e-10)
            # fixed point: (c-1)^2 = x (3c+2)
            assert abs((c - 1.0) ** 2 - x * (3.0 * c + 2.0)) < 1e-8 * max(1.0, c**2)


class TestLambdaEstimate:
    def test_deterministic(self, benchmark_hamiltonian, benchmark_coupling, toy_bath):
        a = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                            n_samples=200, rng_seed=3)
        b = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                            n_samples=200, rng_seed=3)
        assert a.max_norm == b.max_norm
        assert np.array_equal(a.histogram_counts, b.histogram_counts)

    def test_zero_coupling_gives_zero(self, benchmark_hamiltonian, toy_bath):
        zero = HermitianOperator(np.zeros((4, 4)))
        with pytest.warns(UserWarning, match="norm"):
            est = lambda_estimate(benchmark_hamiltonian, zero, toy_bath,
                                  n_samples=150, rng_seed=0)
        assert est.max_norm < 1e-12

    def test_max_dominates_typical(self, benchmark_hamiltonian, benchmark_coupling,
                                   toy_bath):
        est = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                              n_samples=300, rng_seed=1)
        assert est.max_norm >= est.typical_norm > 0
        assert est.bound >= est.max_norm

    def test_records_filter_error(self, benchmark_hamiltonian, benchmark_coupling,
                                  toy_bath):
        # the filter's running sums converge to EPSABS (|g| < 0.1, so the
        # relative part EPSREL |g| is smaller)
        est = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                              n_samples=100, rng_seed=1)
        assert 0.0 <= est.filter_quad_error <= EPSABS

    def test_chunked_action_matches_one_chunk(self, monkeypatch, benchmark_hamiltonian,
                                              benchmark_coupling, toy_bath):
        # the action runs in chunks of samples; their size must not move a norm
        import qme.quadrature
        whole = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                                n_samples=300, rng_seed=2)
        monkeypatch.setattr(qme.quadrature, "CHUNK_ELEMENTS", 1)
        single = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                                 n_samples=300, rng_seed=2)
        assert single.max_norm == whole.max_norm
        assert single.typical_norm == whole.typical_norm
        assert np.array_equal(single.histogram_counts, whole.histogram_counts)

    @pytest.mark.parametrize("seed, n_samples, dim, t_lo, t_hi", [
        # the ids of the (0.5, 25.6) cases name the sample only
        pytest.param(seed, n, dim, lo, hi, id=f"{seed}-{n}-{dim}" + (
            "" if (lo, hi) == (0.5, 25.6) else f"-{lo:g}-{hi:g}"))
        for seed, n, dim in [(0, 500, 4), (3, 300, 2), (71, 200, 8)]
        for lo, hi in [(0.5, 25.6), (0.0, 25.6), (1.3, 7.7)]])
    def test_draws_match_per_sample_loop(self, seed, n_samples, dim, t_lo, t_hi):
        # one (2, d, d) draw per sample is the stream of two (d, d) draws,
        # the stacked symmetrization is exact, and t_lo + (t_hi - t_lo) u of
        # one random() u per live sample is Generator.uniform's arithmetic:
        # the draws are bit-identical
        got = _ginibre_draws(np.random.default_rng(seed), n_samples, dim, t_lo, t_hi)
        ref = oracles.ginibre_draws_loop(seed, n_samples, dim, t_lo, t_hi)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_zero_draw_takes_no_time(self):
        # samples 1 and 2 have a_00 = 0, so the full X = 0 test decides:
        # sample 1 has a + a^T != 0; sample 2 has an antisymmetric a and a
        # symmetric b, so X = 0 and no time is drawn for it
        draws = iter(np.array([
            [[[0.3, 1.0], [2.0, 4.0]], [[0.5, -1.0], [0.7, 0.2]]],
            [[[0.0, 1.0], [2.0, 0.0]], [[1.0, 2.0], [2.0, 3.0]]],
            [[[0.0, 1.0], [-1.0, 0.0]], [[1.0, 2.0], [2.0, 3.0]]],
            [[[-1.2, 0.1], [0.4, 0.9]], [[0.0, 0.6], [-0.3, 1.1]]],
        ]))
        calls = []

        class StubRng:
            def standard_normal(self, out):
                calls.append("normal")
                out[...] = next(draws)
                return out

            def random(self):
                calls.append("random")
                return 0.5

        xs, ts, live = _ginibre_draws(StubRng(), 4, 2, 0.5, 25.6)
        assert live.tolist() == [True, True, False, True]
        assert ts[2] == 0.0 and np.all(ts[[0, 1, 3]] == 13.05)
        assert np.all(xs[2] == 0.0)
        assert calls == ["normal", "random", "normal", "random", "normal",
                         "normal", "random"]

    def test_requires_enough_samples(self, benchmark_hamiltonian, benchmark_coupling,
                                     toy_bath):
        with pytest.raises(ValueError):
            lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                            n_samples=10)

    def test_action_trace_free(self, benchmark_jd, toy_bath, benchmark_hamiltonian):
        from qme.evolve import ore_filter
        g, _ = ore_filter(benchmark_jd, toy_bath, 5.0)
        action = interaction_picture_action(benchmark_jd, g)
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        X = 0.5 * (g + g.conj().T)
        X /= trace_norm(X)
        out = action(X, 2.0)
        assert abs(np.trace(out)) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_matches_per_sample_oracle(self, benchmark_jd, benchmark_hamiltonian,
                                       benchmark_coupling, toy_bath):
        # the filter is within ~1e-11 of a tight quad (|g| < 0.1 at EPSREL
        # 1e-10), and a norm moves by at most sum_w ||A_w|| 4 ||A|| times that.
        # A first pass records the sample times; each frequency's filter is
        # then one adaptive quad per gap between them, summed
        t_hi = 5.0
        est = lambda_estimate(benchmark_hamiltonian, benchmark_coupling, toy_bath,
                              n_samples=100, rng_seed=5, time_interval=(0.0, t_hi))
        freqs = [float(w) for w in benchmark_jd.frequencies]
        times = set()
        oracles.generator_norm_samples(benchmark_jd.terms(),
                                       {w: lambda t: times.add(t) or 0.0 for w in freqs},
                                       4, 100, 5, 0.0, t_hi)
        times = sorted(times)
        filters = {w: dict(zip(times, oracles.ore_filter_quad_running(
                       w, toy_bath.correlation, times))).__getitem__ for w in freqs}
        norms = oracles.generator_norm_samples(benchmark_jd.terms(), filters, 4, 100,
                                               5, 0.0, t_hi)
        counts, edges = np.histogram(norms, bins=60)
        mode = int(np.argmax(counts))
        assert abs(est.max_norm - norms.max()) < 1e-9
        assert abs(est.typical_norm - 0.5 * (edges[mode] + edges[mode + 1])) < 1e-9

    def test_action_broadcasts_over_stack(self, benchmark_jd, toy_bath):
        from qme.evolve import ore_filter
        action = interaction_picture_action(
            benchmark_jd, ore_filter(benchmark_jd, toy_bath, 5.0)[0])
        rng = np.random.default_rng(6)
        g = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        xs = 0.5 * (g + g.conj().transpose(0, 2, 1))
        ts = rng.uniform(0.0, 5.0, 7)
        stacked = action(xs, ts)
        for x, t, out in zip(xs, ts, stacked):
            assert np.max(np.abs(out - action(x, t))) < 1e-15
