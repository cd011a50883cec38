"""The quadrature layer: the running integral against closed forms and
against a fresh Gauss rule on every partial panel, the starting panels
against the rules each integral once applied itself, the doubling ladders
against the ladders each bath search and graded grid once built itself, and
the chunks."""

import importlib
import weakref

import numpy as np
import pytest

from qme import baths, quadrature
from qme.baths import Bath, RectangleBath
from qme.cli import _plot_radius
from qme.driving import DriveSchedule
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


class TestRefineLevels:
    """One term call per grid that fits in one chunk, after the first grid's
    one-node probe, and each grid's edges interleaved with no sort."""

    # int_0^L cos(5x) and int_0^L x cos(5x): 60 radians on one starting
    # panel, so the loop runs several levels
    L = 12.0
    EXACT = [np.sin(5.0 * L) / 5.0, L * np.sin(5.0 * L) / 5.0 + (np.cos(5.0 * L) - 1.0) / 25.0]

    @staticmethod
    def _counted(calls):
        def factor(x):
            calls.append(0)
            return np.cos(5.0 * x)

        def term(x, w, f):
            calls[-1] += 1
            return np.stack([w @ f, w @ (x * f)])

        return term, factor

    def test_term_calls_per_level(self):
        calls = []
        value, _ = quadrature.refine(*self._counted(calls), [0.0, self.L])
        assert len(calls) >= 4
        assert calls == [2] + [1] * (len(calls) - 1)
        assert np.max(np.abs(value - self.EXACT)) < 1e-12

    def test_one_node_chunks_match_one_chunk(self, monkeypatch):
        # with CHUNK_ELEMENTS = 1 every chunk is one node: the same levels
        # and, summed node by node, the same value to roundoff
        calls = []
        value, error = quadrature.refine(*self._counted(calls), [0.0, self.L])
        monkeypatch.setattr(quadrature, "CHUNK_ELEMENTS", 1)
        chunked_calls = []
        chunked, chunked_error = quadrature.refine(*self._counted(chunked_calls),
                                                   [0.0, self.L])
        assert len(chunked_calls) == len(calls)
        nodes = [quadrature.ORDER << k for k in range(len(calls))]
        assert chunked_calls == nodes
        assert np.all(np.abs(chunked - value) <= 1e-14 * np.abs(value))
        assert abs(chunked_error - error) <= 1e-14 * np.max(np.abs(value))

    @pytest.mark.parametrize("edges", [
        [0.0, 1.0],
        [-7.5, 0.0, 7.5],
        np.linspace(-3.0, 11.0, 8),
        np.sort(np.random.default_rng(28).uniform(-1e3, 1e3, 40)),
        np.concatenate([[-40.0], -40.0 * 2.0 ** -np.arange(1, 53), [0.0],
                        40.0 * 2.0 ** -np.arange(52, 0, -1), [40.0]]),
        [1.0, np.nextafter(1.0, 2.0), 2.0],
    ], ids=["one-panel", "xi", "uniform", "random", "graded", "adjacent-floats"])
    def test_halved_edges_bytes(self, edges):
        edges = np.asarray(edges, dtype=float)
        for _ in range(4):
            halved = quadrature._halved(edges)
            expected = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
            assert halved.dtype == expected.dtype
            assert halved.tobytes() == expected.tobytes()
            edges = halved


class _Candidates(Bath):
    """A bath built with no validation, for any initial radius r."""

    def __init__(self, r):
        super().__init__()
        self.r = r

    def _initial_radius(self):
        return self.r

    def gamma(self, w):
        return np.exp(-np.abs(w) / self.r)


def _same_bytes(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


class TestDoublings:
    """Every ladder start 2^k built on ``quadrature.doublings`` is the
    ladder its caller once built itself (oracles), byte for byte."""

    @pytest.mark.parametrize("start, stop", [
        (1.0, 1.0), (1.0, 0.5), (1.0, 8.0), (1.0, np.nextafter(8.0, 9.0)),
        (1.0, np.nextafter(8.0, 0.0)), (0.3, 1e7), (2.0 ** -40, 3.0), (1e-300, 1e-290)])
    def test_ladder(self, start, stop):
        ladder = quadrature.doublings(start, stop)
        k = np.arange(ladder.size)
        assert np.all(ladder == np.ldexp(start, k)) and np.all(ladder < stop)
        assert np.ldexp(start, ladder.size) >= stop

    @pytest.mark.parametrize("r", [1e-3, 0.3, 1.0, 12.5, 5e6, np.nextafter(1e7, 0.0),
                                   1e7, 3e7])
    def test_support_candidates(self, r):
        assert _same_bytes(_Candidates(r)._profile[1], oracles.support_candidates(r))

    @pytest.mark.parametrize("w", [
        [0.0], [0.0, -0.0], [1e-300], [-1e-300, 2.0], np.linspace(-6.0, 6.0, 61),
        [0.3], [0.25], np.geomspace(1e-12, 1.0, 7), [-100.0, 3.0]],
        ids=["zero", "zeros", "cap", "cap-mixed", "S-grid", "one", "power-of-two",
             "geometric", "past-W"])
    def test_pv_edges(self, ohmic_bath, w):
        w = np.asarray(w, dtype=float)
        expected = oracles.pv_edges_ladder(ohmic_bath.support_radius(), w)
        assert _same_bytes(ohmic_bath._pv_edges(w), expected)

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (3.0, np.inf), (0.0, 20.0),
                                      (2.5, 40.0), (0.0, 0.05), (0.0, 0.1), (5.0, 5.05)],
                             ids=["half-line", "tail", "first-moment", "a>0", "top<s",
                                  "top=s", "a>0-top<s"])
    def test_abs_moment_edges(self, monkeypatch, toy_bath, a, b):
        # s = 1/_initial_radius() = 0.1 for the default toy bath
        seen = []
        monkeypatch.setattr(baths, "refine",
                            lambda term, factor, edges, **kw: seen.append(edges) or (1.0, 0.0))
        toy_bath._abs_moment(toy_bath.correlation, 0, a, b)
        s = 1.0 / toy_bath._initial_radius()
        assert _same_bytes(seen[0], oracles.abs_moment_ladder(s, a, b))

    @pytest.mark.parametrize("g, tau_c", [(0.5, 1.0), (1.0, 0.3), (0.2, 3.0), (2.0, 0.05),
                                          (1.0, 0.01)])
    def test_plot_radius(self, g, tau_c):
        # sinc decays only like 1/omega, so every rectangle takes the window
        # search; tau_c 0.01 passes no window and takes the 2^14 fallback
        expected = oracles.plot_radius_loop(RectangleBath(g, tau_c))
        assert _same_bytes(_plot_radius(RectangleBath(g, tau_c)), expected)
        if tau_c == 0.01:
            assert expected == 2.0 ** 14


class TestPanelEdges:
    """The starting edges the coarse-grained coefficients hand to ``refine``
    and the time-local filter hands to ``cumulative``, from
    ``panel_edges``, against the rules each built itself."""

    @staticmethod
    def _cgme_edges(monkeypatch, w, t_a, bath):
        generators = importlib.import_module("qme.generators")
        seen = []

        def capture(term, factor, edges, **kwargs):
            seen.append(edges)
            return quadrature.refine(term, factor, edges, **kwargs)

        monkeypatch.setattr(generators, "refine", capture)
        generators._cgme_coefficients(w, w, t_a, bath)
        return seen[0]

    @pytest.mark.parametrize("bath", ["toy_bath", "ohmic_bath"])
    @pytest.mark.parametrize("span", [0.5, 1.12, 2.0, 5.25, 12.24, 25.6])
    def test_stationary_rules_without_kink(self, request, monkeypatch, benchmark_jd,
                                           bath, span):
        bath = request.getfixturevalue(bath)
        w = benchmark_jd.frequencies
        w_max = float(np.max(np.abs(w)))
        assert np.array_equal(self._cgme_edges(monkeypatch, w, span, bath),
                              oracles.stationary_edges(span, w_max))
        edges = _captured_filter(monkeypatch, benchmark_jd, bath, span)[3]
        assert np.array_equal(edges, oracles.stationary_edges(
            span, max(w_max, bath._initial_radius())))

    @pytest.mark.parametrize("span", [1.5, 2.0, 4.7])
    def test_rectangle_kink_cuts_the_span(self, monkeypatch, benchmark_jd, rectangle_bath,
                                          span):
        # the kink at tau_c = 1 is a cut, as in the driven windows' rule
        # (``oracles.window_edges``): equal panels on either side of it,
        # where ``oracles.stationary_edges`` adds it to the uniform grid
        w = benchmark_jd.frequencies
        w_max = float(np.max(np.abs(w)))
        flat = DriveSchedule(segments=((0.0, span, np.zeros((2, 2))),))
        captured = ((self._cgme_edges(monkeypatch, w, span, rectangle_bath), w_max),
                    (_captured_filter(monkeypatch, benchmark_jd, rectangle_bath, span)[3],
                     max(w_max, rectangle_bath._initial_radius())))
        for edges, rate in captured:
            assert rectangle_bath.tau_c in edges
            assert np.array_equal(edges, oracles.window_edges(
                flat, 0.0, 0.0, span, (rectangle_bath.tau_c,), quadrature.PANEL_PHASE / rate))


@pytest.mark.parametrize("n, per_item", [(0, 4), (1, 1 << 20), (5, 0), (65_536, 1),
                                         (70_000, 1), (10_000, 16 * 13), (999, 3 << 14)])
def test_chunks_partition(n, per_item):
    parts = list(quadrature.chunks(n, per_item))
    covered = [i for k in parts for i in range(n)[k]]
    assert covered == list(range(n))
    assert all(k.stop > k.start for k in parts)
    assert all(k.stop - k.start == 1 or (k.stop - k.start) * per_item <= quadrature.CHUNK_ELEMENTS
               for k in parts)
