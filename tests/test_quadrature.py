"""The running integral of the quadrature layer against closed forms and
against a fresh Gauss rule on every partial panel."""

import importlib
import weakref

import numpy as np
import pytest

from qme import quadrature
from qme.quadrature import EPSABS, EPSREL, cumulative

import oracles


def _integrand(x):
    return np.stack([np.cos(3.0 * x), x ** 2], axis=-1)


class TestCumulative:
    def test_matches_closed_form(self):
        # converged to max(EPSABS, EPSREL |G|) at the starting edges; a
        # partial panel integrates the interpolant on the converged panel's
        # nodes, which TestInterpolantEvaluator holds to a fresh Gauss rule
        G, error = cumulative(_integrand, np.linspace(0.0, 3.0, 4))
        t = np.concatenate(([0.0, 1.0, 3.0], np.random.default_rng(7).uniform(0.0, 3.0, 20)))
        exact = np.stack([np.sin(3.0 * t) / 3.0, t ** 3 / 3.0], axis=-1)
        assert np.max(np.abs(G(t) - exact)) < max(EPSABS, 9.0 * EPSREL)
        assert 0.0 <= error <= max(EPSABS, 9.0 * EPSREL)
        assert G(2.0).shape == (2,)
        assert G(t.reshape(-1, 1)).shape == (len(t), 1, 2)
        assert np.all(G(0.0) == 0.0)

    def test_outside_range_refused(self):
        G, _ = cumulative(_integrand, [0.0, 1.0])
        with pytest.raises(ValueError):
            G(np.array([0.5, 1.5]))

    def test_jump_not_converged(self):
        # a jump off every dyadic edge converges only linearly in the width
        with pytest.raises(ArithmeticError):
            cumulative(lambda x: (x > np.pi / 4)[:, None].astype(float), [0.0, 1.0])


def qme_evolve():
    # the package's ``evolve`` function shadows the module of that name
    return importlib.import_module("qme.evolve")


def _captured_filter(monkeypatch, jd, bath, t_max):
    """ore_filter's (g, error) with the integrand and starting edges it
    handed to ``cumulative``."""
    seen = []

    def capture(integrand, edges):
        seen.append((integrand, edges))
        return cumulative(integrand, edges)

    monkeypatch.setattr(qme_evolve(), "cumulative", capture)
    g, error = qme_evolve().ore_filter(jd, bath, t_max)
    return (g, error) + seen[0]


class TestInterpolantEvaluator:
    @pytest.mark.parametrize("bath, t_max", [("toy_bath", 25.6), ("ohmic_bath", 20.0),
                                             ("rectangle_bath", 4.7)])
    def test_matches_fresh_gauss_oracle(self, request, monkeypatch, benchmark_jd, bath, t_max):
        # the same converged grid; at its edges both return the running sum
        # itself, elsewhere the interpolant's integral agrees with a fresh
        # Gauss rule on the partial panel to 1e-14
        bath = request.getfixturevalue(bath)
        g, error, integrand, edges = _captured_filter(monkeypatch, benchmark_jd, bath, t_max)
        ref, ref_error, fine = oracles.cumulative_fresh_gauss(integrand, edges)
        assert error == ref_error
        assert np.array_equal(g(fine[:-1]), ref(fine[:-1]))
        t = np.concatenate(([0.0, t_max], np.random.default_rng(11).uniform(0.0, t_max, 500)))
        tau_c = getattr(bath, "tau_c", None)
        if tau_c is not None:
            # just past the kink, where the oracle's rule on [tau_c, t] has
            # every node within t - tau_c of it
            assert tau_c in edges
            t = np.concatenate((t, tau_c + np.geomspace(1e-9, 1e-2, 15)))
        assert np.max(np.abs(g(t) - ref(t))) <= 1e-14
        assert np.all(g(0.0) == 0.0)

    def test_rectangle_filter_matches_closed_form(self, benchmark_jd, rectangle_bath):
        # g_w(t) = g^2 (e^{i w min(t, tau_c)} - 1) / (i w): constant past the
        # kink at tau_c, where the converged nodes all read C = 0
        tau_c = rectangle_bath.tau_c
        g, _ = qme_evolve().ore_filter(benchmark_jd, rectangle_bath, 4.7)
        t = np.concatenate(([0.0, tau_c, 4.7], tau_c + np.geomspace(1e-9, 1e-2, 15),
                            np.random.default_rng(12).uniform(0.0, 4.7, 200)))
        w = np.asarray(benchmark_jd.frequencies)
        s = np.minimum(t, tau_c)[:, None]
        safe = np.where(w == 0.0, 1.0, w)
        exact = rectangle_bath.g ** 2 * np.where(
            w == 0.0, s, (np.exp(1j * safe * s) - 1.0) / (1j * safe))
        assert np.max(np.abs(g(t) - exact)) <= 1e-14
        assert np.all(g(t[t >= tau_c]) == g(tau_c))

    def test_evaluation_calls_no_integrand(self):
        calls = []

        def integrand(x):
            calls.append(len(x))
            return _integrand(x)

        G, _ = cumulative(integrand, np.linspace(0.0, 3.0, 4))
        assert calls
        calls.clear()
        G(np.random.default_rng(3).uniform(0.0, 3.0, 1000))
        G(1.5)
        assert calls == []

    def test_holds_only_the_converged_level(self):
        # no earlier level's integrand values are alive while the next level
        # is evaluated; G keeps the last level's
        levels = []

        def integrand(x):
            assert all(level() is None for level in levels)
            f = np.stack([np.cos(40.0 * x), x ** 2], axis=-1)
            levels.append(weakref.ref(f))
            return f

        G, _ = cumulative(integrand, np.linspace(0.0, 3.0, 4))
        assert len(levels) >= 3
        assert [level() is None for level in levels] == [True] * (len(levels) - 1) + [False]

    def test_queries_chunked(self, monkeypatch):
        # at most CHUNK_ELEMENTS (query x node x entry) terms per batch
        sizes = []
        basis = quadrature._basis_integrals

        def spy(tau, order):
            sizes.append(len(tau))
            return basis(tau, order)

        G, _ = cumulative(_integrand, np.linspace(0.0, 3.0, 4))
        monkeypatch.setattr(quadrature, "_basis_integrals", spy)
        G(np.random.default_rng(5).uniform(0.0, 3.0, 5000))
        assert sum(sizes) == 5000 and len(sizes) > 1
        assert max(sizes) * quadrature.ORDER * 2 <= quadrature.CHUNK_ELEMENTS


class TestRefineFinish:
    def test_finish_combines_each_level(self):
        # the term returns two transforms int_0^2 e^{i f x} dx; the linear
        # finish combines them into the entries that refine tests
        f = np.array([1.0, 3.0])

        def term(x, w, _):
            return np.exp(1j * np.outer(f, x)) @ w

        def finish(total):
            return np.array([total[0].real, (total[0] - total[1]).imag])

        value, err = quadrature.refine(term, lambda x: x, [0.0, 2.0], finish=finish)
        exact = (np.exp(2j * f) - 1.0) / (1j * f)
        assert np.max(np.abs(value - finish(exact))) < 1e-14
        assert 0.0 <= err <= max(EPSABS, EPSREL * np.max(np.abs(value)))
        plain, _ = quadrature.refine(term, lambda x: x, [0.0, 2.0])
        assert np.max(np.abs(finish(plain) - value)) < 1e-14
