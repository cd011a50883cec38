"""Bath models: spectral density, correlation function, and timescales.

Each bath is defined by its spectral density gamma(omega) >= 0 (frequency
units, hbar = 1).  The correlation function is the inverse Fourier transform

    C(t) = (1/2pi) integral gamma(omega) exp(-i omega t) d omega,

and two derived quantities control every error estimate downstream:

    1/tau_SB = integral_0^inf |C(t)| dt        (system-bath coupling time)
    tau_B    = tau_SB * integral_0^T t |C(t)| dt   (bath correlation time)

Thermal baths satisfy the detailed-balance (KMS) relation
gamma(-omega) = exp(-beta omega) gamma(omega).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .quadrature import refine

logger = logging.getLogger(__name__)

__all__ = [
    "Bath",
    "BathTimescales",
    "OhmicBath",
    "ToyBath",
    "RectangleBath",
    "make_bath",
]

@dataclass(frozen=True)
class BathTimescales:
    """Derived bath timescales; see module docstring for definitions."""

    tau_SB: float
    tau_B: float
    T_cutoff: float
    epsilon_T: float

    def __post_init__(self):
        if not self.tau_SB > 0:
            raise ValueError("tau_SB must be positive")
        if self.tau_B < 0 or self.epsilon_T < 0:
            raise ValueError("tau_B and epsilon_T must be nonnegative")


class Bath:
    """Base class; subclasses implement gamma() and correlation()."""

    kind = "abstract"
    thermal_flag = False
    beta = None
    cp_admissible = True

    def __init__(self):
        self._timescales_cache = {}
        self._support_radius_cache = {}

    # -- spectral density -------------------------------------------------

    def gamma(self, w):
        raise NotImplementedError

    def support_radius(self, tol=1e-12):
        """Half-width W such that gamma is negligible outside [-W, W],
        searched once per tol."""
        key = float(tol)
        if key not in self._support_radius_cache:
            self._support_radius_cache[key] = self._search_radius(key)
        return self._support_radius_cache[key]

    def _search_radius(self, tol):
        """The first W = r 2^k below 1e7, r = ``_initial_radius()``, with
        max(|gamma(W)|, |gamma(-W)|) < tol * ``gamma_scale()``: every
        candidate is evaluated at +-W in one gamma call."""
        r = self._initial_radius()
        W = r * 2.0 ** np.arange(max(int(np.ceil(np.log2(1e7 / r))), 0) + 1)
        W = W[W < 1e7]
        g = np.abs(np.asarray(self.gamma(np.concatenate([W, -W])), dtype=float))
        g_pos, g_neg = g[:W.size], g[W.size:]
        # max(g_pos, g_neg) as Python's max takes it: a NaN g_neg loses
        passed = np.where(g_neg > g_pos, g_neg, g_pos) < tol * self.gamma_scale()
        if not passed.any():
            raise ValueError("spectral density does not decay: no finite support radius")
        return float(W[np.argmax(passed)])

    def _initial_radius(self):
        return 1.0

    def gamma_scale(self):
        if not hasattr(self, "_gamma_scale"):
            w = np.linspace(-self._initial_radius() * 32, self._initial_radius() * 32, 2049)
            self._gamma_scale = float(np.max(np.abs(self.gamma(w))))
        return self._gamma_scale

    # -- correlation function --------------------------------------------

    def correlation(self, t):
        raise NotImplementedError

    # -- half-Fourier transform and Lamb amplitude ------------------------

    def lamb_amplitude_S(self, w):
        """Dispersive part S(w) = (1/2pi) PV int gamma(x)/(w - x) dx for a
        scalar or an array of w, and the grid's error estimate.

        The pole is subtracted on one refined Gauss grid over [lo, hi] (the
        edges of ``_pv_edges``), with gamma evaluated once per grid:

            S(w_k) = (1/2pi) [sum_n w_n (gamma(x_n) - gamma(w_k))/(w_k - x_n)
                              + gamma(w_k) ln((w_k - lo)/(hi - w_k))].

        Returns (S with the shape of w, the largest change of any S over the
        last panel halving).
        """
        w = np.asarray(w, dtype=float)
        flat = w.ravel()
        edges = self._pv_edges(flat)
        lo, hi = edges[0], edges[-1]
        g_w = np.asarray(self.gamma(flat), dtype=float)

        def term(x, wt, g_x):
            d = flat[:, None] - x[None, :]
            # a node exactly on some w_k adds the removable limit's weight
            # w_n gamma'(w_k) / 2pi; leaving it out costs no more than that
            ratio = np.divide(g_x[None, :] - g_w[:, None], d,
                              out=np.zeros(d.shape), where=d != 0.0)
            return ratio @ wt / (2 * np.pi)

        total, err = refine(term, self.gamma, edges)
        S = total + g_w * np.log((flat - lo) / (hi - flat)) / (2 * np.pi)
        return (float(S[0]) if w.ndim == 0 else S.reshape(w.shape)), err

    def _pv_edges(self, w):
        """Starting panel edges of the principal-value grid: [-W, W] wide
        enough for every w, with an edge at 0, where gamma has a kink.  The
        subtracted integrand of a w near the kink varies on the scale |w|,
        so the edges are graded geometrically toward 0 (W 2^-k) down to the
        smallest nonzero |w|, at most to the float resolution of W."""
        a = np.abs(w)
        W = self.support_radius()
        if np.max(a) >= W:
            W = 2.0 * np.max(a) + W
        near = a[a > 0.0]
        depth = 0 if near.size == 0 else int(min(
            np.finfo(float).nmant, np.ceil(np.log2(W / near.min()))))
        graded = W * 2.0 ** -np.arange(1, depth + 1)
        return np.concatenate([[-W], -graded, [0.0], graded[::-1], [W]])

    def half_fourier_f(self, w):
        """f(w) = integral_0^inf C(t) exp(i w t) dt = gamma(w)/2 + i S(w)."""
        return 0.5 * self.gamma(w) + 1j * self.lamb_amplitude_S(w)[0]

    # -- timescales -------------------------------------------------------

    def timescales(self, T_cutoff=np.inf):
        key = float(T_cutoff)
        if key not in self._timescales_cache:
            self._timescales_cache[key] = self._compute_timescales(float(T_cutoff))
        return self._timescales_cache[key]

    def _compute_timescales(self, T_cutoff):
        """The module docstring's integrals of |C| on the refined Gauss layer;
        ``correlation`` must take an array of t.  Raises ArithmeticError when
        an integral does not converge."""
        tau_SB = 1.0 / self._abs_moment(self.correlation, 0, 0.0, np.inf)
        first = self._abs_moment(self.correlation, 1, 0.0, T_cutoff)
        tail = self._abs_moment(self.correlation, 0, T_cutoff, np.inf) if np.isfinite(T_cutoff) else 0.0
        return BathTimescales(tau_SB=tau_SB, tau_B=tau_SB * first,
                              T_cutoff=T_cutoff, epsilon_T=tau_SB * tail)

    def _abs_moment(self, corr, power, a, b):
        """int_a^b t^power |corr(t)| dt on the refined Gauss layer, converged
        relative to its own size (a tail can be far below the absolute
        tolerance).  With s = 1/_initial_radius(), the width of the peak of
        |C| at 0, the starting edges are t = a and a + s 2^k, graded up to b
        or, on [a, inf), up to L = 8 max(a, s), the scale of the map
        t = a + L u/(1 - u), u in [0, 1], that carries the rest of the half
        line.  A tail decaying from a is smooth in u, and its mass lies at u
        well below 1, where t keeps its relative precision."""
        s = 1.0 / self._initial_radius()
        top = b - a if np.isfinite(b) else 8.0 * max(a, s)
        x = s * 2.0 ** np.arange(int(np.ceil(np.log2(top / s))) if top > s else 0)
        x = np.concatenate([[0.0], x[x < top], [top]])

        def term(t, wt, absC):
            return wt @ (t ** power * absC)

        if np.isfinite(b):
            value, _ = refine(term, lambda t: np.abs(corr(t)), a + x, epsabs=0.0)
        else:
            def at(u):
                return a + top * u / (1.0 - u)

            value, _ = refine(lambda u, wu, absC: term(at(u), wu * top / (1.0 - u) ** 2, absC),
                              lambda u: np.abs(corr(at(u))), np.append(x / (top + x), 1.0),
                              epsabs=0.0)
        return float(value)

    # -- thermal diagnostics ---------------------------------------------

    def kms_report(self, w_grid):
        """Per-omega relative deviation from detailed balance, plus the
        zero-frequency slope identity gamma'(0) = (beta/2) gamma(0)."""
        if not self.thermal_flag:
            raise ValueError(f"{self.kind} bath is not thermal: no KMS relation to check")
        w = np.asarray(w_grid, dtype=float)
        lhs = self.gamma(-w)
        rhs = np.exp(-self.beta * w) * self.gamma(w)
        denom = np.maximum(np.abs(rhs), 1e-300)
        deviation = np.abs(lhs - rhs) / denom
        h = 1e-4
        slope = float(self.gamma(h) - self.gamma(-h)) / (2 * h)
        target = 0.5 * self.beta * float(self.gamma(0.0))
        return {
            "omega": w,
            "relative_deviation": deviation,
            "max_relative_deviation": float(np.max(deviation)),
            "gamma_prime_0": slope,
            "half_beta_gamma_0": target,
            "slope_residual": abs(slope - target),
            "slope_relative_residual": abs(slope - target) / max(abs(target), 1e-300),
        }

    # -- validation -------------------------------------------------------

    def validate(self):
        """Positivity of gamma on a probe grid, and KMS for thermal baths."""
        W = self.support_radius(tol=1e-10)
        w = np.linspace(-W, W, 2001)
        g = np.asarray(self.gamma(w), dtype=float)
        gmax = float(np.max(np.abs(g)))
        if self.cp_admissible and np.min(g) < -1e-12 * gmax:
            raise ValueError(
                f"{self.kind} bath: gamma(omega) dips to {np.min(g):.3e} < 0"
            )
        if self.thermal_flag:
            probe = np.linspace(-min(W, 10.0 / self.beta), min(W, 10.0 / self.beta), 101)
            rep = self.kms_report(probe)
            mask = np.abs(self.gamma(probe)) > 1e-10 * gmax
            worst = float(np.max(rep["relative_deviation"][mask])) if mask.any() else 0.0
            if worst > 1e-8:
                raise ValueError(
                    f"{self.kind} bath: KMS relative deviation {worst:.3e} exceeds 1e-8"
                )


# Bernoulli numbers B_2 ... B_18 of the trigamma asymptotic series
_BERNOULLI_2K = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
                 -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0)


def _trigamma(z):
    """Trigamma function for complex z with Re z > 0, vectorized.

    The recurrence psi_1(z) = psi_1(z + 1) + 1/z^2 pushes each argument up by
    its own K to |z + K| >= 12, where the asymptotic series
    psi_1(z) ~ 1/z + 1/(2 z^2) + sum_{k=1}^{9} B_2k / z^(2k+1), truncated
    after B_18, is accurate to ~1e-19 relative.  Step k of the recurrence
    runs on every entry while all need it, then only on those with K > k.
    """
    z = np.asarray(z, dtype=complex)
    K = np.maximum(0.0, np.ceil(12.0 - np.abs(z))).astype(int)
    acc = np.zeros_like(z)
    shared, longest = K.min(initial=12), K.max(initial=0)      # K <= 12
    for k in range(shared):
        acc += 1.0 / (z + k) ** 2
    for k in range(shared, longest):
        live = K > k
        acc[live] += 1.0 / (z[live] + k) ** 2
    inv = 1.0 / (z + K)
    inv2 = inv * inv
    tail = _BERNOULLI_2K[-1]
    for b in _BERNOULLI_2K[-2::-1]:
        tail = b + inv2 * tail
    return acc + inv * (1.0 + inv * (0.5 + inv * tail))


class OhmicBath(Bath):
    """Ohmic spectral density with exponential cutoff at temperature 1/beta:

    gamma(omega) = 2 pi kappa omega exp(-|omega|/omega_c) / (1 - exp(-beta omega)).
    """

    kind = "ohmic"
    thermal_flag = True

    def __init__(self, kappa, omega_c, beta):
        super().__init__()
        if kappa <= 0 or omega_c <= 0 or beta <= 0:
            raise ValueError("kappa, omega_c, beta must all be positive")
        self.kappa = float(kappa)
        self.omega_c = float(omega_c)
        self.beta = float(beta)
        self.validate()

    def _initial_radius(self):
        return max(self.omega_c, 1.0 / self.beta, 1.0)

    def gamma(self, w):
        w = np.asarray(w, dtype=float)
        # expm1 keeps w / (1 - e^{-beta w}) accurate near 0, where the exact
        # limit 1/beta is taken; far below 0 it overflows to a harmless 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = w / -np.expm1(-self.beta * w)
        ratio = np.where(w == 0.0, 1.0 / self.beta, ratio)
        out = 2 * np.pi * self.kappa * ratio * np.exp(-np.abs(w) / self.omega_c)
        return out if out.ndim else float(out)

    def correlation(self, t):
        t = np.asarray(t, dtype=float)
        x = (1.0 / self.omega_c + 1j * t) / self.beta
        # psi_1(x) + psi_1(conj(x) + 1) with psi_1(x) = psi_1(x + 1) + 1/x^2
        # and psi_1(conj(z)) = conj(psi_1(z)): one trigamma per t
        C = (self.kappa / self.beta ** 2) * (2.0 * _trigamma(x + 1.0).real + 1.0 / x ** 2)
        return C if C.ndim else complex(C)

    def _compute_timescales(self, T_cutoff):
        if not np.isfinite(T_cutoff):
            raise ValueError(
                "Ohmic bath: t|C(t)| decays only like 1/t, so tau_B diverges "
                "logarithmically; pass a finite T_cutoff"
            )
        return super()._compute_timescales(T_cutoff)


class ToyBath(Bath):
    """Double-exponential thermal bath with |C(t)| ~ 1/t^4:

    gamma(omega) = (A/tau_SB) exp(beta omega/2)
                   (exp(-b beta |omega|) - exp(-a b beta |omega|)/a),

    with a > 1, b > 1/2.  The prefactor A is fixed self-consistently so that
    integral_0^inf |C(t)| dt = 1/tau_SB holds exactly; that integral and the
    timescales run on the refined Gauss layer and raise ArithmeticError if
    they do not converge.  The ``normalization`` attribute reports A/3, the
    constant conventionally quoted for this bath's rational-function C(t)
    parameterization (approximately 21.0 at a=1.01, b=0.6, beta=4).
    """

    kind = "toy"
    thermal_flag = True

    def __init__(self, a=1.01, b=0.6, beta=4.0, tau_SB=10.0):
        super().__init__()
        if a <= 1:
            raise ValueError("toy bath requires a > 1")
        if b <= 0.5:
            raise ValueError("toy bath requires b > 1/2")
        if beta <= 0 or tau_SB <= 0:
            raise ValueError("beta and tau_SB must be positive")
        self.a = float(a)
        self.b = float(b)
        self.beta = float(beta)
        self.tau_SB = float(tau_SB)
        self.gamma_prefactor = 1.0 / self._abs_moment(self._c0, 0, 0.0, np.inf)
        self.normalization = self.gamma_prefactor / 3.0
        self.validate()

    def _initial_radius(self):
        return max(4.0 / ((self.b - 0.5) * self.beta), 1.0)

    def _c0(self, t):
        """Unit-prefactor correlation: inverse FT of
        exp(beta w/2)(exp(-b beta |w|) - exp(-a b beta |w|)/a), over 2 pi."""
        bb = self.b * self.beta
        ab = self.a * self.b * self.beta
        h = self.beta / 2.0
        t = np.asarray(t, dtype=complex)
        # 1/D_bb - 1/D_ab over one denominator, D_c = (c - h + it)(c + h - it):
        # the difference of the two terms would cancel to ~1/t^4
        out = (bb / np.pi) * (ab - bb) * (ab + bb) / (
            (bb - h + 1j * t) * (bb + h - 1j * t) * (ab - h + 1j * t) * (ab + h - 1j * t))
        return out if out.ndim else complex(out)

    def gamma(self, w):
        w = np.asarray(w, dtype=float)
        # combined exponents avoid overflow of exp(beta w/2) on its own
        g = (np.exp(self.beta * w / 2.0 - self.b * self.beta * np.abs(w))
             - np.exp(self.beta * w / 2.0 - self.a * self.b * self.beta * np.abs(w)) / self.a)
        out = (self.gamma_prefactor / self.tau_SB) * g
        return out if out.ndim else float(out)

    def correlation(self, t):
        return (self.gamma_prefactor / self.tau_SB) * self._c0(t)

    def _compute_timescales(self, T_cutoff):
        A = self.gamma_prefactor
        first = self._abs_moment(self._c0, 1, 0.0, T_cutoff)
        tail = self._abs_moment(self._c0, 0, T_cutoff, np.inf) if np.isfinite(T_cutoff) else 0.0
        return BathTimescales(tau_SB=self.tau_SB, tau_B=A * first,
                              T_cutoff=T_cutoff, epsilon_T=A * tail)


class RectangleBath(Bath):
    """Flat-in-time correlation C(t) = g^2 for |t| < tau_c, zero outside.

    Its spectral density 2 g^2 tau_c sinc(omega tau_c) goes negative, so this
    bath is not CP-admissible and carries no thermal (KMS) structure.  It is
    the standard worked example for dynamical-decoupling filters.
    """

    kind = "rectangle"
    thermal_flag = False
    cp_admissible = False

    def __init__(self, g, tau_c):
        super().__init__()
        if g <= 0 or tau_c <= 0:
            raise ValueError("g and tau_c must be positive")
        self.g = float(g)
        self.tau_c = float(tau_c)
        self.not_cp_message = "gamma(omega) < 0 for some omega: not CP-admissible"

    def _initial_radius(self):
        return 1.0 / self.tau_c

    def gamma(self, w):
        w = np.asarray(w, dtype=float)
        out = 2.0 * self.g ** 2 * self.tau_c * np.sinc(w * self.tau_c / np.pi)
        return out if out.ndim else float(out)

    def correlation(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) < self.tau_c, self.g ** 2, 0.0).astype(complex)
        # half weight exactly on the edge, as the Fourier inversion gives
        out[np.abs(t) == self.tau_c] = 0.5 * self.g ** 2
        return out if out.ndim else complex(out)

    def lamb_amplitude_S(self, w):
        """Closed form S(w) = g^2 (1 - cos(w tau_c))/w, written with sinc to
        stay analytic at w = 0; exact, so its error estimate is 0."""
        x = np.asarray(w, dtype=float) * self.tau_c
        S = self.g ** 2 * self.tau_c * 0.5 * x * np.sinc(x / (2 * np.pi)) ** 2
        return (S if S.ndim else float(S)), 0.0

    def _compute_timescales(self, T_cutoff):
        g2, tc = self.g ** 2, self.tau_c
        tau_SB = 1.0 / (g2 * tc)
        T_eff = min(T_cutoff, tc)
        tau_B = tau_SB * g2 * T_eff ** 2 / 2.0
        eps = tau_SB * g2 * max(tc - T_cutoff, 0.0) if np.isfinite(T_cutoff) else 0.0
        return BathTimescales(tau_SB=tau_SB, tau_B=tau_B,
                              T_cutoff=T_cutoff, epsilon_T=eps)


_KINDS = {
    "ohmic": OhmicBath,
    "toy": ToyBath,
    "rectangle": RectangleBath,
}


def make_bath(kind, **params):
    """Factory keyed by bath kind name."""
    if kind not in _KINDS:
        raise ValueError(f"unknown bath kind {kind!r}; choose from {sorted(_KINDS)}")
    return _KINDS[kind](**params)

