"""Bath layer: spectral densities, correlation functions, timescales, KMS."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.integrate import IntegrationWarning

from qme.baths import Bath, OhmicBath, ToyBath, _trigamma, make_bath

import oracles


class TestToyBath:
    def test_correlation_matches_rational_oracle(self, toy_bath):
        # the closed rational form with the bath's own gamma prefactor
        for t in (0.0, 0.5, 1.0, 2.3, 7.7):
            ours = toy_bath.correlation(t)
            ref = oracles.toy_rational_correlation(t, normalization=toy_bath.gamma_prefactor)
            assert abs(ours - ref) <= 1e-8 * abs(ref)

    def test_correlation_matches_inverse_transform_of_gamma(self, toy_bath):
        radius = toy_bath.support_radius(tol=1e-14)
        ref = oracles.correlation_from_gamma(toy_bath.gamma, 1.0, radius)
        ours = toy_bath.correlation(1.0)
        assert abs(ours - ref) <= 1e-8 * abs(ref)

    def test_gamma_matches_transform_of_correlation(self, toy_bath):
        for w in (-2.0, 0.3, 2.0, 5.0):
            two_re_f, _ = oracles.gamma_from_correlation(toy_bath.correlation, w)
            assert np.isclose(two_re_f, float(toy_bath.gamma(w)), rtol=5e-7)

    def test_tau_sb_is_exact(self, toy_bath):
        ts = toy_bath.timescales()
        assert np.isclose(ts.tau_SB, 10.0, rtol=1e-8)

    def test_tau_b_value(self, toy_bath):
        assert np.isclose(toy_bath.timescales().tau_B, 0.68580, rtol=1e-4)

    def test_normalization_constant(self, toy_bath):
        assert np.isclose(toy_bath.normalization, 21.034, rtol=1e-3)
        assert np.isclose(toy_bath.gamma_prefactor, 3 * toy_bath.normalization)

    def test_gamma_peak_and_half_maximum(self, toy_bath):
        w = np.linspace(0.0, 20.0, 40_001)
        g = np.asarray(toy_bath.gamma(w))
        peak = w[np.argmax(g)]
        assert np.isclose(peak, 2.013, atol=5e-3)
        above = w[g >= 0.5 * g.max()]
        assert np.isclose(above[0], 0.1485, atol=2e-3)
        assert np.isclose(above[-1], 6.0896, atol=2e-3)

    def test_kms(self, toy_bath):
        report = toy_bath.kms_report(np.linspace(-10, 10, 201))
        assert report["max_relative_deviation"] < 1e-8
        assert report["slope_relative_residual"] < 1e-4

    def test_power_law_tail(self, toy_bath):
        # |C(t)| ~ 1/t^4 at late times
        ratio = abs(toy_bath.correlation(40.0)) / abs(toy_bath.correlation(20.0))
        assert np.isclose(ratio, 2.0**-4, rtol=0.1)


class TestOhmicBath:
    def test_gamma_formula(self, ohmic_bath):
        for w in (-3.0, -0.5, 0.4, 2.0):
            ref = oracles.ohmic_gamma_reference(w, 1.0, 1.0, 1.0)
            assert np.isclose(float(ohmic_bath.gamma(w)), ref, rtol=1e-12)

    def test_gamma_zero_frequency_limit(self, ohmic_bath):
        assert np.isclose(float(ohmic_bath.gamma(1e-9)), float(ohmic_bath.gamma(0.0)), rtol=1e-6)

    @pytest.mark.parametrize("w", [1e-9, -1e-9, 1e-6, -1e-6])
    def test_gamma_near_zero_matches_series(self, w):
        # w / (1 - e^{-beta w}) = (1/beta)(1 + beta w/2 + (beta w)^2/12) + O(w^4)
        kappa, omega_c, beta = 1.0, 1.0, 2.0
        bath = OhmicBath(kappa=kappa, omega_c=omega_c, beta=beta)
        x = beta * w
        ref = 2 * np.pi * kappa * np.exp(-abs(w) / omega_c) * (1 + x / 2 + x * x / 12) / beta
        assert abs(float(bath.gamma(w)) - ref) <= 1e-14 * ref

    def test_support_radius_searched_once_per_tol(self, monkeypatch):
        bath = OhmicBath(kappa=1.0, omega_c=1.0, beta=1.0)
        calls = []
        gamma = bath.gamma
        monkeypatch.setattr(bath, "gamma", lambda w: calls.append(w) or gamma(w))
        W = bath.support_radius()
        assert calls
        calls.clear()
        assert bath.support_radius() == W
        assert bath.support_radius(tol=1e-12) == W
        assert bath.support_radius(tol=1e-10) > 0
        assert calls == []

    def test_correlation_matches_mpmath(self):
        # C = (kappa/beta^2) (psi_1(x) + psi_1(conj(x) + 1)), x = (1/omega_c + i t)/beta,
        # to 1e-14 of the size of the two terms, which cancel at late t
        mpmath = pytest.importorskip("mpmath")
        kappa, omega_c, beta = 0.3, 2.0, 5.0
        bath = OhmicBath(kappa=kappa, omega_c=omega_c, beta=beta)
        t = np.concatenate([np.linspace(-3.0, 3.0, 61), np.geomspace(1e-3, 200.0, 30)])
        with mpmath.workdps(30):
            terms = []
            for s in t:
                x = (1 / mpmath.mpf(omega_c) + 1j * mpmath.mpf(s)) / beta
                terms.append((complex(mpmath.polygamma(1, x)),
                              complex(mpmath.polygamma(1, mpmath.conj(x) + 1))))
        a, b = (kappa / beta ** 2) * np.array(terms).T
        assert np.all(np.abs(bath.correlation(t) - (a + b)) <= 1e-14 * (np.abs(a) + np.abs(b)))

    def test_correlation_of_empty_array(self, ohmic_bath):
        out = ohmic_bath.correlation(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_correlation_matches_inverse_transform(self, ohmic_bath):
        radius = ohmic_bath.support_radius(tol=1e-12)
        for t in (0.3, 1.0, 2.5):
            ref = oracles.correlation_from_gamma(ohmic_bath.gamma, t, radius)
            ours = ohmic_bath.correlation(t)
            assert abs(ours - ref) <= 1e-7 * max(abs(ref), 1e-12)

    def test_kms(self, ohmic_bath):
        report = ohmic_bath.kms_report(np.linspace(-10, 10, 201))
        assert report["max_relative_deviation"] < 1e-8

    def test_timescales_require_cutoff(self, ohmic_bath):
        ts = ohmic_bath.timescales(T_cutoff=50.0)
        assert ts.tau_B > 0 and np.isfinite(ts.tau_B)
        assert ts.epsilon_T > 0

    def test_tau_b_grows_with_cutoff(self, ohmic_bath):
        # the first-moment integral diverges logarithmically: no finite limit
        t1 = ohmic_bath.timescales(T_cutoff=20.0).tau_B
        t2 = ohmic_bath.timescales(T_cutoff=200.0).tau_B
        assert t2 > t1


class TestTrigamma:
    """psi_1 for the Ohmic C(t): the recurrence from |z| >= 12 and the
    asymptotic series through B_18."""

    def test_reflection(self):
        # psi_1(z) + psi_1(1 - z) = pi^2 / sin^2(pi z), for 0 < Re z < 1
        rng = np.random.default_rng(21)
        z = rng.uniform(0.02, 0.98, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
        lhs = _trigamma(z) + _trigamma(1.0 - z)
        rhs = np.pi ** 2 / np.sin(np.pi * z) ** 2
        scale = np.abs(_trigamma(z)) + np.abs(_trigamma(1.0 - z))
        assert np.all(np.abs(lhs - rhs) <= 1e-14 * scale)

    def test_recurrence(self):
        # psi_1(z + 1) = psi_1(z) - 1/z^2, each z on its own so that the
        # shift count runs from 12 down to 0
        rng = np.random.default_rng(22)
        z = rng.uniform(0.05, 20.0, 200) + 1j * rng.uniform(-20.0, 20.0, 200)
        here = np.array([_trigamma(x) for x in z])
        up = np.array([_trigamma(x + 1.0) for x in z])
        assert np.all(np.abs(up - (here - 1.0 / z ** 2))
                      <= 1e-14 * (np.abs(here) + 1.0 / np.abs(z) ** 2))

    def test_at_one(self):
        assert abs(_trigamma(1.0) - np.pi ** 2 / 6.0) <= 1e-15 * np.pi ** 2 / 6.0

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        z = np.concatenate([rng.uniform(0.01, 5.0, 150) + 1j * rng.uniform(-40.0, 40.0, 150),
                            0.25 + 1j * np.linspace(-10.0, 10.0, 41),
                            np.linspace(0.01, 30.0, 40) + 0j])
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.polygamma(1, mpmath.mpc(x.real, x.imag)))
                            for x in z])
        assert np.max(np.abs(_trigamma(z) - ref) / np.abs(ref)) <= 2e-15


class TestRectangleBath:
    def test_gamma_is_sinc(self, rectangle_bath):
        g, tau_c = 0.5, 1.0
        for w in (0.0, 0.7, 3.0):
            expected = 2 * g**2 * tau_c * np.sinc(w * tau_c / np.pi)
            assert np.isclose(float(rectangle_bath.gamma(w)), expected, rtol=1e-12)

    def test_gamma_goes_negative(self, rectangle_bath):
        w = np.linspace(0, 10, 1001)
        assert np.min(np.asarray(rectangle_bath.gamma(w))) < 0

    def test_not_cp_admissible(self, rectangle_bath):
        with pytest.raises(ValueError):
            rectangle_bath.validate()

    def test_correlation_is_rectangle(self, rectangle_bath):
        assert np.isclose(rectangle_bath.correlation(0.5), 0.25)
        assert np.isclose(rectangle_bath.correlation(1.5), 0.0)

    def test_half_weight_only_on_the_edge(self, rectangle_bath):
        # g^2 = 0.25 inside, 0 outside, g^2/2 at |t| = tau_c exactly
        t = np.array([1.0 - 1e-7, 1.0, 1.0 + 1e-7])
        for sign in (1.0, -1.0):
            assert np.array_equal(rectangle_bath.correlation(sign * t), [0.25, 0.125, 0.0])

    def test_timescales(self, rectangle_bath):
        ts = rectangle_bath.timescales()
        assert np.isclose(ts.tau_SB, 1.0 / 0.25)
        assert np.isclose(ts.tau_B, 0.5)


class TestTimescaleIntegrals:
    """The timescale integrals on the refined Gauss layer against tight
    adaptive quadrature (epsrel 1e-14, no absolute floor), to 1e-12
    relative."""

    RTOL = 1e-12

    @staticmethod
    def tight_quad(f, a, b):
        with warnings.catch_warnings():
            # the tight request is at the edge of double precision
            warnings.simplefilter("ignore", IntegrationWarning)
            # an absolute floor of 1e-15 would stop ToyBath's tail beyond
            # T 1e4 (~3e-14 before the prefactor) 2e-5 relative off; quad
            # rejects epsabs 0 at this epsrel
            return integrate.quad(f, a, b, limit=2000, epsabs=np.finfo(float).tiny,
                                  epsrel=1e-14)[0]

    def assert_close(self, ours, ref):
        assert abs(ours - ref) <= self.RTOL * abs(ref)

    def test_toy_prefactor(self, toy_bath):
        inv_A = self.tight_quad(lambda t: abs(toy_bath._c0(t)), 0.0, np.inf)
        self.assert_close(toy_bath.gamma_prefactor, 1.0 / inv_A)

    # 1e3 and 1e4: the peak of t|C| near 0 and the 1/t^4 tail far from it
    @pytest.mark.parametrize("T", [np.inf, 5.0, 20.0, 1e3, 1e4])
    def test_toy_timescales(self, toy_bath, T):
        A = toy_bath.gamma_prefactor
        absc = lambda t: abs(toy_bath._c0(t))
        ts = toy_bath.timescales(T)
        self.assert_close(ts.tau_B, A * self.tight_quad(lambda t: t * absc(t), 0.0, T))
        if np.isfinite(T):
            self.assert_close(ts.epsilon_T, A * self.tight_quad(absc, T, np.inf))
        else:
            assert ts.epsilon_T == 0.0

    @pytest.mark.parametrize("kappa, omega_c, beta, T", [
        (0.1, 1.0, 2.0, 20.0),
        (1.0, 0.5, 0.5, 20.0),
        (0.01, 1.0, 2.0, 50.0),
        (0.1, 2.0, 5.0, 10.0),
        (0.1, 10.0, 0.05, 5.0),
        # a cutoff 1e5 times the width 1/omega_c of the peak at 0
        (0.1, 10.0, 2.0, 1e4),
        (0.1, 10.0, 0.05, 1e4),
    ])
    def test_ohmic_timescales(self, kappa, omega_c, beta, T):
        bath = OhmicBath(kappa, omega_c, beta)
        absC = lambda t: abs(bath.correlation(t))
        norm = self.tight_quad(absC, 0.0, np.inf)
        ts = bath.timescales(T)
        self.assert_close(ts.tau_SB, 1.0 / norm)
        self.assert_close(ts.tau_B, self.tight_quad(lambda t: t * absC(t), 0.0, T) / norm)
        self.assert_close(ts.epsilon_T, self.tight_quad(absC, T, np.inf) / norm)

    def test_zero_cutoff(self, toy_bath):
        # an empty range: tau_B is 0 and the tail is the whole norm
        ts = toy_bath.timescales(0.0)
        assert ts.tau_B == 0.0
        self.assert_close(ts.epsilon_T, 1.0)

    def test_divergent_integral_raises(self):
        class SlowBath(Bath):
            # int_0^inf |C| diverges logarithmically
            def correlation(self, t):
                return 1.0 / (1.0 + np.asarray(t, dtype=float))

        with pytest.raises(ArithmeticError):
            SlowBath().timescales(5.0)


class TestLambAmplitude:
    """S(w) from the refined grid against the adaptive Cauchy-weight oracle
    on the same window, at the benchmark's Bohr frequencies, 0 and +-1e-3
    (next to the kink of gamma at 0)."""

    @staticmethod
    def frequencies(benchmark_jd):
        return np.union1d(benchmark_jd.frequencies, [0.0, 1e-3, -1e-3])

    @pytest.mark.parametrize("bath", [
        ToyBath(),
        OhmicBath(kappa=1.0, omega_c=1.0, beta=1.0),
        OhmicBath(kappa=0.1, omega_c=2.0, beta=0.5),
    ], ids=["toy", "ohmic-1-1-1", "ohmic-0.1-2-0.5"])
    def test_grid_matches_cauchy_oracle(self, bath, benchmark_jd):
        w = self.frequencies(benchmark_jd)
        S, err = bath.lamb_amplitude_S(w)
        W = bath.support_radius()
        ref = np.array([oracles.lamb_s_cauchy(bath.gamma, x, -W, W) for x in w])
        assert np.all(np.abs(S - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
        assert 0.0 <= err <= 1e-10

    def test_rectangle_closed_form_matches_cauchy_oracle(self, rectangle_bath, benchmark_jd):
        # gamma = 2 g^2 sin(w tau_c)/w decays only like 1/w; gamma is even, so
        # cutting the window at W leaves (1/2pi) int_W^inf gamma 2w/(x^2 - w^2),
        # which integration by parts bounds by 4 g^2 |w| / (pi tau_c W (W^2 - w^2))
        g2, tau_c, W = 0.25, 1.0, 200.0 * np.pi
        w = self.frequencies(benchmark_jd)
        S, err = rectangle_bath.lamb_amplitude_S(w)
        ref = np.array([oracles.lamb_s_cauchy(rectangle_bath.gamma, x, -W, W) for x in w])
        bound = 4 * g2 * np.abs(w) / (np.pi * tau_c * W * (W ** 2 - w ** 2)) + 1e-12
        assert np.all(np.abs(S - ref) <= bound)
        assert err == 0.0


class TestFactoryAndProperties:
    def test_make_bath_kinds(self):
        assert make_bath("toy").kind == "toy"
        assert make_bath("ohmic", kappa=1.0, omega_c=1.0, beta=1.0).kind == "ohmic"
        assert make_bath("rectangle", g=1.0, tau_c=0.5).kind == "rectangle"

    def test_make_bath_unknown(self):
        for kind in ("lorentzian", "tabulated"):
            with pytest.raises(ValueError):
                make_bath(kind)

    @given(st.floats(min_value=0.2, max_value=3.0), st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=15, deadline=None)
    def test_ohmic_kms_property(self, omega_c, beta):
        bath = OhmicBath(kappa=1.0, omega_c=omega_c, beta=beta)
        w = np.linspace(0.1, 8.0, 50)
        lhs = np.asarray(bath.gamma(-w))
        rhs = np.exp(-beta * w) * np.asarray(bath.gamma(w))
        assert np.allclose(lhs, rhs, rtol=1e-9)

    @given(st.floats(min_value=1.001, max_value=1.2), st.floats(min_value=0.51, max_value=1.5))
    @settings(max_examples=10, deadline=None)
    def test_toy_gamma_nonnegative_property(self, a, b):
        bath = ToyBath(a=a, b=b)
        w = np.linspace(-15, 15, 301)
        assert np.min(np.asarray(bath.gamma(w))) >= 0

    def test_half_fourier_consistency(self, toy_bath):
        # f(w) = gamma(w)/2 + i S(w), against direct half-line quadrature
        for w in (-1.5, 0.5, 2.0):
            ref = oracles.half_fourier_reference(toy_bath.correlation, w)
            ours = toy_bath.half_fourier_f(w)
            assert abs(ours - ref) < 1e-7
            assert np.isclose(ours.real, 0.5 * float(toy_bath.gamma(w)), rtol=1e-7)
