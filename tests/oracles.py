"""Frozen, independent reference implementations used as test oracles.

Everything here is deliberately written from first principles with only
numpy/scipy — no imports from the package under test — using the slowest,
most transparent method available (matrix exponentials, nested adaptive
quadrature, explicit Riemann sums, explicit pulse counting).  These values
were frozen before the production implementations and must not be edited to
make tests pass.
"""

from __future__ import annotations

import cmath
import csv
import math

import numpy as np
from scipy import integrate
from scipy.linalg import expm
from scipy.optimize import brentq

# ---------------------------------------------------------------------------
# bath functions


def gamma_from_correlation(corr, w, t_max=200.0):
    """gamma(w) = int_{-inf}^{inf} C(t) e^{iwt} dt via C(-t) = C*(t)."""
    f = integrate.quad(lambda t: (corr(t) * cmath.exp(1j * w * t)).real, 0, t_max, limit=600)[0]
    g = integrate.quad(lambda t: (corr(t) * cmath.exp(1j * w * t)).imag, 0, t_max, limit=600)[0]
    # int_{-inf}^0 C(t)e^{iwt} dt = conj(int_0^inf C(t)e^{iwt} dt)
    return 2.0 * f, g  # gamma = 2*Re f ; Im part returned for diagnostics


def correlation_from_gamma(gamma_fn, t, radius):
    """C(t) = (1/2pi) int e^{-iwt} gamma(w) dw on [-radius, radius]."""
    re = integrate.quad(lambda w: gamma_fn(w) * math.cos(w * t), -radius, radius, limit=800)[0]
    im = integrate.quad(lambda w: -gamma_fn(w) * math.sin(w * t), -radius, radius, limit=800)[0]
    return (re + 1j * im) / (2.0 * math.pi)


def toy_rational_correlation(t, normalization=21.0337, a=1.01, b=0.6, beta=4.0, tau_sb=10.0):
    """Closed rational form of the toy correlation function, derived by
    contour-free direct integration of the two-sided exponentials:

    C(t) = (N b beta / (pi tau_sb)) * [ 1/((b beta - beta/2 + it)(b beta + beta/2 - it))
                                        - (b -> ab, with the 1/a prefactor absorbed) ]
    """
    n = normalization
    term1 = 1.0 / ((b * beta - beta / 2.0 + 1j * t) * (b * beta + beta / 2.0 - 1j * t))
    term2 = 1.0 / ((a * b * beta - beta / 2.0 + 1j * t) * (a * b * beta + beta / 2.0 - 1j * t))
    return (n * b * beta / (math.pi * tau_sb)) * (term1 - term2)


def half_fourier_reference(corr, w, t_max=300.0):
    """f(w) = int_0^inf C(t) e^{iwt} dt by adaptive quadrature."""
    re = integrate.quad(lambda t: (corr(t) * cmath.exp(1j * w * t)).real, 0, t_max, limit=800)[0]
    im = integrate.quad(lambda t: (corr(t) * cmath.exp(1j * w * t)).imag, 0, t_max, limit=800)[0]
    return re + 1j * im


def ohmic_gamma_reference(w, kappa, omega_c, beta):
    """Thermal ohmic spectral density with exponential cutoff."""
    if w == 0.0:
        return 2.0 * math.pi * kappa / beta
    return 2.0 * math.pi * kappa * w * math.exp(-abs(w) / omega_c) / (1.0 - math.exp(-beta * w))


def support_radius_loop(gamma, gamma_scale, r, tol):
    """The support-radius search as first written: double W from r while
    W < 1e7 until max(|gamma(W)|, |gamma(-W)|) < tol * gamma_scale, one
    scalar gamma call per sign; ValueError when no W passes."""
    W = r
    while W < 1e7:
        if max(abs(float(gamma(W))), abs(float(gamma(-W)))) < tol * gamma_scale:
            return W
        W *= 2.0
    raise ValueError("spectral density does not decay: no finite support radius")


def support_candidates(r):
    """The support search's candidates W = r 2^k below 1e7 as first built,
    from one power of an arange."""
    W = r * 2.0 ** np.arange(max(int(np.ceil(np.log2(1e7 / r))), 0) + 1)
    return W[W < 1e7]


def pv_edges_ladder(W, w):
    """The principal-value grid's starting edges as first built: [-W, W],
    widened past every |w|, graded W 2^-k toward the kink at 0 down to the
    smallest nonzero |w|, at most 52 rungs."""
    a = np.abs(w)
    if np.max(a) >= W:
        W = 2.0 * np.max(a) + W
    near = a[a > 0.0]
    depth = 0 if near.size == 0 else int(min(
        np.finfo(float).nmant, np.ceil(np.log2(W / near.min()))))
    graded = W * 2.0 ** -np.arange(1, depth + 1)
    return np.concatenate([[-W], -graded, [0.0], graded[::-1], [W]])


def abs_moment_ladder(s, a, b):
    """The starting edges of int_a^b t^p |C(t)| dt as first built: a and
    a + s 2^k up to b, or, for b = inf, the ladder up to L = 8 max(a, s)
    carried to u = x/(L + x) in [0, 1]."""
    top = b - a if np.isfinite(b) else 8.0 * max(a, s)
    x = s * 2.0 ** np.arange(int(np.ceil(np.log2(top / s))) if top > s else 0)
    x = np.concatenate([[0.0], x[x < top], [top]])
    return a + x if np.isfinite(b) else np.append(x / (top + x), 1.0)


def plot_radius_loop(bath):
    """The ``bath-info`` table's half-window as first written: the support
    radius, or 2W for the first window [W, 2W], W = 1, 2, 4, ... below 1e4,
    whose 64 points keep |gamma| below 1e-3 of its scale, one gamma call per
    window; 2^14 when none does."""
    try:
        return bath.support_radius()
    except ValueError:
        scale = bath.gamma_scale()
        W = 1.0
        while W < 1e4:
            envelope = float(np.max(np.abs(
                np.asarray(bath.gamma(np.linspace(W, 2.0 * W, 64))))))
            if envelope < 1e-3 * scale:
                return 2.0 * W
            W *= 2.0
        return W


# ---------------------------------------------------------------------------
# coarse-graining coefficients


def _gauss_nodes(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def cgme_gamma_tensor(w, wp, t_a, corr, order=160):
    """gamma_{w w'} = (1/T_a) iint_{[-T_a/2,T_a/2]^2} C(tau'-t')
    e^{-i(w t' + w' tau')} dt' dtau' by a 2-D tensor Gauss rule."""
    xs, ws = _gauss_nodes(order, -t_a / 2.0, t_a / 2.0)
    total = 0.0 + 0.0j
    cvals = {}

    def c(u):
        key = round(u, 14)
        if key not in cvals:
            cvals[key] = corr(abs(u)) if u >= 0 else np.conj(corr(abs(u)))
        return cvals[key]

    for i, tp in enumerate(xs):
        for j, taup in enumerate(xs):
            total += ws[i] * ws[j] * c(taup - tp) * cmath.exp(-1j * (w * tp + wp * taup))
    return total / t_a


def cgme_x_nested(w, wp, t_a, corr):
    """x_{w w'} = (1/T_a) int dt1 int_{-T_a/2}^{t1} dt2 C(t2-t1)
    e^{-i(w t1 + w' t2)} by nested adaptive quadrature.

    (Correction to the first frozen version, which integrated C(t1-t2):
    the outer variable must carry the *later* time, so the inner argument
    is non-positive and C(-u) = conj(C(u)).  The wrong orientation fails
    the defining identity gamma_{w w'} = 2 Re x_{w w'}, which the corrected
    form satisfies; see the decisions ledger.)"""

    def inner(t1, part):
        val = integrate.quad(
            lambda t2: getattr(
                np.conj(corr(t1 - t2)) * cmath.exp(-1j * (w * t1 + wp * t2)), part),
            -t_a / 2.0,
            t1,
            limit=300,
        )[0]
        return val

    re = integrate.quad(lambda t1: inner(t1, "real"), -t_a / 2.0, t_a / 2.0, limit=300)[0]
    im = integrate.quad(lambda t1: inner(t1, "imag"), -t_a / 2.0, t_a / 2.0, limit=300)[0]
    return (re + 1j * im) / t_a


def epsilon_grid(bath, t_a, order=24):
    """Composite Gauss-Legendre filter grid (nodes, weights) on a window
    [-W, W] covering the support of gamma(eps), W = ``bath.support_radius()``,
    outside which every filter product vanishes.  Its equal panels of width
    min(pi / T_a, W / 16) resolve the sinc oscillation of period 4 pi / T_a;
    the panel edges include eps = 0."""
    W = bath.support_radius()
    width = min(np.pi / max(t_a, 1e-9), max(W / 16.0, 1e-12))
    n_half = int(np.ceil(W / width))
    edges = np.linspace(-n_half * width, n_half * width, 2 * n_half + 1)
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def cgme_gamma_filter(w, wp, t_a, bath):
    """gamma_{w w'} = int f(eps, w) f(eps, -w') d eps on ``epsilon_grid``,
    f(eps, w) = sqrt(gamma(eps) T_a / 2 pi) sinc[T_a (eps - w) / 2]: the
    filter factorization of the square-domain double integral (gamma >= 0)."""
    eps, wt = epsilon_grid(bath, t_a)
    amplitude = np.sqrt(np.maximum(bath.gamma(eps), 0.0) * t_a / (2 * np.pi))
    f, fp = (amplitude * np.sinc(t_a * (eps - x) / (2 * np.pi)) for x in (w, -wp))
    return float(np.sum(wt * f * fp))


def lamb_f_direct(w, wp, t_a, corr):
    """F_{w w'} = (1/(2 T_a w+)) Re int_0^{T_a} (e^{i(w theta - T_a w+)}
    - e^{-i(w' theta - T_a w+)}) C(theta) dtheta.

    At the removable point w+ = 0 it integrates the exact limit: with
    w' = -w + 2 w+ the phase difference is -2i w+ e^{iw theta} (T_a - theta)
    + O(w+^2), so F_{w,-w} = (1/T_a) Re int_0^{T_a} i e^{iw theta}
    (theta - T_a) C(theta) dtheta."""
    wplus = 0.5 * (w + wp)
    if abs(wplus) < 1e-9:
        val = integrate.quad(
            lambda th: (1j * cmath.exp(1j * w * th) * (th - t_a) * corr(th)).real,
            0.0, t_a, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
        return val / t_a

    def integrand(theta):
        phase = (
            cmath.exp(1j * (w * theta - t_a * wplus))
            - cmath.exp(-1j * (wp * theta - t_a * wplus))
        )
        return (phase * corr(theta)).real

    val = integrate.quad(integrand, 0.0, t_a, limit=400)[0]
    return val / (2.0 * t_a * wplus)


def _reduced_quad(wp, t_a, corr, inner, a, b, limit):
    """(1/T_a) int_a^b C(u) e^{-i w' u} inner(u) du by adaptive quadrature,
    real part first, then imaginary part."""
    def f(u):
        return corr(u) * np.exp(-1j * wp * u) * inner(u)

    opts = dict(limit=limit, epsabs=1e-12, epsrel=1e-10)
    re = integrate.quad(lambda u: f(u).real, a, b, **opts)[0]
    im = integrate.quad(lambda u: f(u).imag, a, b, **opts)[0]
    return (re + 1j * im) / t_a


def cgme_x_reduced(w, wp, t_a, corr):
    """x_{w w'} = (1/T_a) int_{-T_a/2}^{T_a/2} dt' int_{-T_a/2}^{t'} dtau'
    C(tau' - t') e^{-i(w t' + w' tau')}, reduced exactly to one dimension in
    u = tau' - t' (the inner integral over t' is elementary)."""
    s = w + wp

    def inner(u):
        if abs(s) > 1e-12:
            return (np.exp(1j * s * (t_a / 2.0 + u)) - np.exp(-1j * s * t_a / 2.0)) / (1j * s)
        return t_a + u

    return _reduced_quad(wp, t_a, corr, inner, -t_a, 0.0, 400)


def cgme_gamma_reduced(w, wp, t_a, corr):
    """gamma_{w w'} = (1/T_a) iint_{[-T_a/2,T_a/2]^2} C(tau'-t')
    e^{-i(w t' + w' tau')} dt' dtau', reduced exactly to one dimension in
    u = tau' - t'; raises when the imaginary part, zero in exact arithmetic,
    is not negligible."""
    s = w + wp

    def inner(u):
        lo = max(-t_a / 2.0, -t_a / 2.0 - u)
        hi = min(t_a / 2.0, t_a / 2.0 - u)
        if abs(s) > 1e-12:
            return (np.exp(-1j * s * lo) - np.exp(-1j * s * hi)) / (1j * s)
        return hi - lo

    val = _reduced_quad(wp, t_a, corr, inner, -t_a, t_a, 800)
    if abs(val.imag) > 1e-7 * max(1.0, abs(val.real)):
        raise ArithmeticError(
            f"gamma_ww' should be real; got imaginary part {val.imag:.3e}")
    return float(val.real)


def lamb_s_cauchy(gamma, w, lo, hi, kinks=(0.0,)):
    """S(w) = (1/2pi) PV int_lo^hi gamma(x)/(w - x) dx by adaptive
    quadrature split at the ``kinks`` of gamma (0 for a thermal bath): the
    piece holding the pole with quad's Cauchy
    weight (QAWC), the others plainly.  At w = 0 (a symmetric window,
    lo = -hi) it uses the regular symmetric form
    int_0^hi (gamma(-x) - gamma(x))/x dx."""
    opts = dict(limit=800, epsabs=1e-14, epsrel=1e-13)
    inner = sorted({k for k in kinks if lo < k < hi})
    if w == 0.0:
        if lo != -hi:
            raise ValueError("the w = 0 form needs a symmetric window")
        pts = sorted({abs(k) for k in inner if k != 0.0})
        val = integrate.quad(lambda x: (gamma(-x) - gamma(x)) / x, 0.0, hi,
                             points=pts or None, **opts)[0]
        return val / (2.0 * math.pi)
    total = 0.0
    edges = [lo, *inner, hi]
    for a, b in zip(edges[:-1], edges[1:]):
        if a < w < b:
            # QAWC returns PV int f(x)/(x - w) dx
            total -= integrate.quad(gamma, a, b, weight="cauchy", wvar=w, **opts)[0]
        else:
            total += integrate.quad(lambda x: gamma(x) / (w - x), a, b, **opts)[0]
    return total / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# pulse sequences


def dd_sign_bruteforce(t_prime, t, dt):
    """(-1)^(pulses applied in the window between t' and t), counting pulses
    at strictly positive multiples j*dt with t' <= j*dt < t (time-ordered
    either way)."""
    lo, hi = (t_prime, t) if t_prime <= t else (t, t_prime)
    count = 0
    j = 1
    while j * dt < hi - 1e-12:
        if j * dt >= lo - 1e-12:
            count += 1
        j += 1
    return -1 if count % 2 else 1


def dd_signed_integral(corr, t, dt, cutoff, n=200_000):
    """c(t) = int_0^cutoff C(-u) * s(t-u, t) du with s the bruteforce pulse
    parity, by the midpoint rule (for the rectangle bath C is constant so the
    integrand is piecewise constant and midpoint converges quickly)."""
    us = (np.arange(n) + 0.5) * (cutoff / n)
    total = 0.0 + 0.0j
    for u in us:
        total += np.conj(corr(u)) * dd_sign_bruteforce(t - u, t, dt)
    return total * (cutoff / n)


def window_filter_riemann(eps, dt, t_a, n=400_000):
    """zeta(eps) = (1/T_a) int_{-T_a/2}^{T_a/2} s(t') e^{-i eps t'} dt' where
    s flips sign at every integer multiple of dt (bi-infinite protocol,
    s = +1 on [0, dt)), by the midpoint rule."""
    ts = -t_a / 2.0 + (np.arange(n) + 0.5) * (t_a / n)
    signs = np.where(np.floor(ts / dt).astype(int) % 2 == 0, 1.0, -1.0)
    vals = signs * np.exp(-1j * eps * ts)
    return vals.sum() * (t_a / n) / t_a


def tan_sinc_direct(x, k_prime):
    """|sinc(2 k' x) tan(x)| evaluated naively away from cos(x) = 0."""
    s = np.sinc(2 * k_prime * x / np.pi)
    return abs(s * math.tan(x))


def dd_xi_filters(dt, w, k_prime):
    """The numerator filter [sinc(2k'x) tan x]^2 and the denominator filter
    sinc^2(2k'x) of the DD suppression ratio at x = dt (x) w, each its own
    pass, as the ratio took them before one pass formed both: tan's poles
    removed by sin(2k'x)/cos(x) = 2 sum_{j=1}^{k'} (-1)^(j+1)
    sin((2(k'-j)+1) x), and every sinc through np.sinc."""
    def tan_sinc(x):
        x = np.asarray(x, dtype=float)
        j = np.arange(1, k_prime + 1)
        s = np.sum((-1.0) ** (j + 1) * np.sin(np.multiply.outer(x, 2 * (k_prime - j) + 1)),
                   axis=-1)
        return 2.0 * s * np.sinc(x / math.pi) / (2.0 * k_prime)

    numerator = tan_sinc(np.multiply.outer(dt, w)) ** 2
    denominator = np.sinc(2 * k_prime * np.multiply.outer(dt, w) / math.pi) ** 2
    return numerator, denominator


# ---------------------------------------------------------------------------
# propagators and integration


def expm_propagator(hamiltonians, durations, pulses=()):
    """Product of exact matrix exponentials: U = ... P2 e^{-iH2 d2} P1 e^{-iH1 d1}.

    ``pulses`` lists unitaries applied after the corresponding segment
    (padded with identity when shorter than ``hamiltonians``).
    """
    dim = np.asarray(hamiltonians[0]).shape[0]
    u = np.eye(dim, dtype=complex)
    for k, (h, d) in enumerate(zip(hamiltonians, durations)):
        u = expm(-1j * np.asarray(h, dtype=complex) * d) @ u
        if k < len(pulses):
            u = np.asarray(pulses[k], dtype=complex) @ u
    return u


def schedule_propagator_direct(sched, t_from, t_to):
    """U(t_to, t_from) for t_to >= t_from of a drive schedule (its
    ``segments`` (t0, t1, H) and ``pulses`` (t_p, U_p)): one matrix
    exponential per stretch between consecutive segment boundaries and pulse
    instants.  A pulse at t_from acts, one at t_to does not; the first and
    last segments extend beyond the schedule."""
    segments = sched.segments
    pulses = dict(sched.pulses)
    inside = [x for t0, t1, _ in segments for x in (t0, t1)] + list(pulses)
    cuts = sorted({t_from, t_to, *(x for x in inside if t_from < x < t_to)})
    u = np.eye(segments[0][2].shape[0], dtype=complex)
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a in pulses:
            u = pulses[a] @ u
        h = segments[0][2] if a < segments[0][1] else segments[-1][2]
        for t0, t1, hs in segments:
            if t0 <= a < t1:
                h = hs
        u = expm(-1j * h * (b - a)) @ u
    return u


def heisenberg_direct(sched, a, t_prime, t):
    """A(t', t) = U(t', t)^+ A U(t', t), U(t', t) = U(t, t')^+ for t' < t."""
    if t_prime >= t:
        u = schedule_propagator_direct(sched, t, t_prime)
    else:
        u = schedule_propagator_direct(sched, t_prime, t).conj().T
    return u.conj().T @ a @ u


def _window_panels_direct(sched, t, lo, hi):
    """Panels of offsets from t on [lo, hi], cut where t + offset is a
    segment boundary or a pulse instant."""
    times = [x for t0, t1, _ in sched.segments for x in (t0, t1)]
    times += [tp for tp, _ in sched.pulses]
    edges = sorted({lo, hi, *(x - t for x in times if t + lo < x < t + hi)})
    return list(zip(edges[:-1], edges[1:]))


def stationary_edges(span, rate, tau_c=None, phase=2.0):
    """Starting edges of the stationary coarse-grained grid on [0, T_a] and
    of the time-local filter on [0, t_max], as each built them itself:
    ceil(span rate / phase) equal panels, at least one, plus an edge at a
    kink tau_c inside the span."""
    n = max(1, int(np.ceil(span * rate / phase)))
    edges = np.linspace(0.0, span, n + 1)
    if tau_c is not None and 0.0 < tau_c < span:
        edges = np.union1d(edges, [tau_c])
    return edges


def window_edges(sched, t, lo, hi, kinks, max_width, phase=2.0):
    """Starting edges of a window of offsets from t on [lo, hi] of a drive
    schedule, as the driven coefficients built them: cut at segment
    boundaries, pulse instants and the ``kinks`` inside, each piece split
    into equal panels at most min(max_width, phase / spread) wide, spread the
    largest spectral spread of the segment Hamiltonians."""
    spread = max(float(np.ptp(np.linalg.eigh(h)[0])) for _, _, h in sched.segments)
    max_width = min(max_width, phase / max(spread, 1e-12))
    inner = [x - t for x in schedule_breakpoints_scan(sched, t + lo, t + hi)]
    edges = np.array(sorted({lo, hi, *inner, *(k for k in kinks if lo < k < hi)}))
    counts = np.maximum(1, np.ceil(np.diff(edges) / max_width)).astype(int)
    parts = [np.linspace(a, b, n + 1)[:-1] for a, b, n in zip(edges[:-1], edges[1:], counts)]
    return np.concatenate(parts + [edges[-1:]])


def td_lamb_direct(sched, a, bath, t, t_a, order):
    """H_LS(t) = (i / 2 T_a)(M - M^+), M = int_{t2 < t1} C(t2 - t1)
    A(t + t2, t) A(t + t1, t), by a double loop over the outer nodes and the
    inner nodes on [-T_a/2, t1), one scalar C call per pair.  Each distinct
    inner node's Heisenberg operator is computed once: the full earlier
    panels repeat their nodes for every outer node."""
    m = np.zeros(a.shape, dtype=complex)
    lo0 = -t_a / 2.0
    inner = {}
    for lo, hi in _window_panels_direct(sched, t, lo0, t_a / 2.0):
        n1, w1 = _gauss_nodes(order, lo, hi)
        for t1, wa in zip(n1, w1):
            a1 = heisenberg_direct(sched, a, t + t1, t)
            for ilo, ihi in _window_panels_direct(sched, t, lo0, t1):
                n2, w2 = _gauss_nodes(order, ilo, ihi)
                for t2, wb in zip(n2, w2):
                    c = bath.correlation(t2 - t1)
                    if t2 not in inner:
                        inner[t2] = heisenberg_direct(sched, a, t + t2, t)
                    m += (wa * wb * c) * (inner[t2] @ a1)
    return (1j / (2.0 * t_a)) * (m - m.conj().T)


def td_cgme_nodes_direct(sched, a, bath, t, t_a, order):
    """Column-stacked time-dependent coarse-grained generator on the window's
    Gauss nodes t_j and weights w_j: sum_jk K_jk (A_j . A_k - 1/2 {A_k A_j, .})
    with K_jk = w_j w_k C(t_k - t_j) / T_a, one scalar C call and one
    Kronecker product per node pair (the anticommutator takes the sum of
    K_jk A_k A_j once), plus -i[H(t) + H_LS(t), .] with the Lamb shift of
    ``td_lamb_direct`` at the same order."""
    d = a.shape[0]
    eye = np.eye(d)
    nodes, weights = [], []
    for lo, hi in _window_panels_direct(sched, t, -t_a / 2.0, t_a / 2.0):
        x, w = _gauss_nodes(order, lo, hi)
        nodes, weights = nodes + list(x), weights + list(w)
    ops = [heisenberg_direct(sched, a, t + x, t) for x in nodes]
    mat = np.zeros((d * d, d * d), dtype=complex)
    kaa = np.zeros((d, d), dtype=complex)
    for tj, wj, aj in zip(nodes, weights, ops):
        for tk, wk, ak in zip(nodes, weights, ops):
            kjk = wj * wk * bath.correlation(tk - tj) / t_a
            mat += kjk * np.kron(ak.T, aj)
            kaa += kjk * (ak @ aj)
    mat -= 0.5 * (np.kron(eye, kaa) + np.kron(kaa.T, eye))
    h = sched.segments[0][2] if t < sched.segments[0][1] else sched.segments[-1][2]
    for t0, t1, hs in sched.segments:
        if t0 <= t < t1:
            h = hs
    h = h + td_lamb_direct(sched, a, bath, t, t_a, order)
    return mat - 1j * (np.kron(eye, h) - np.kron(h.T, eye))


def hermitian_basis_unitary(d):
    """The d^2 x d^2 unitary Q with rows vec(B_k)^+ (column stacking), B_k
    running over E_ii, then (E_ij + E_ji)/sqrt2, then i (E_ij - E_ji)/sqrt2
    for i < j (row-major): Q v holds the coordinates Tr(B_k rho)."""
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for phase, sign in ((1.0, 1.0), (1j, -1.0)):
        for i, j in pairs:
            e = np.zeros((d, d), dtype=complex)
            e[i, j], e[j, i] = phase, sign * phase
            basis.append(e / math.sqrt(2.0))
    return np.array([b.reshape(-1, order="F").conj() for b in basis])


def schedule_breakpoints_scan(sched, lo, hi):
    """Every segment boundary and pulse instant of a drive schedule strictly
    inside (lo, hi), sorted, by a scan over the whole schedule."""
    times = [x for t0, t1, _ in sched.segments for x in (t0, t1)]
    times += [tp for tp, _ in sched.pulses]
    return sorted({x for x in times if lo < x < hi})


def linear_ode_reference(M, v0, grid, rtol=1e-12, atol=1e-14):
    """dv/dt = M v sampled on ``grid`` by adaptive DOP853 at tight tolerances."""
    sol = integrate.solve_ivp(lambda t, v: M @ v, (grid[0], grid[-1]),
                              np.asarray(v0, dtype=complex), method="DOP853",
                              t_eval=grid, rtol=rtol, atol=atol)
    return sol.y.T


def time_dependent_ode_reference(M_of_t, v0, grid, rtol=1e-12, atol=1e-14):
    """dv/dt = M(t) v sampled on ``grid`` by adaptive DOP853 at tight
    tolerances, M(t) evaluated per right-hand-side call."""
    sol = integrate.solve_ivp(lambda t, v: M_of_t(t) @ v, (grid[0], grid[-1]),
                              np.asarray(v0, dtype=complex), method="DOP853",
                              t_eval=grid, rtol=rtol, atol=atol)
    return sol.y.T


def lindblad_superop_kron(h, lindblad_ops):
    """-i[h, .] + sum_k w_k (L . L^+ - 1/2 {L^+ L, .}) in column stacking,
    one Kronecker product per operator."""
    d = h.shape[0]
    eye = np.eye(d)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for w, L in lindblad_ops:
        ldl = L.conj().T @ L
        mat = mat + w * (np.kron(L.conj(), L) - 0.5 * np.kron(eye, ldl)
                         - 0.5 * np.kron(ldl.T, eye))
    return mat


def redfield_superop_kron(h, a, a_f):
    """-i[h, .] + (a . a_f - . a_f a + h.c.) in column stacking, one
    Kronecker product per term."""
    eye = np.eye(h.shape[0])
    a_fd = a_f.conj().T
    return (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
            + np.kron(a_f.T, a) - np.kron((a_f @ a).T, eye)
            + np.kron(a.T, a_fd) - np.kron(eye, a @ a_fd))


def lindblad_superop_sandwich(h, lindblad_ops):
    """The Lindblad superoperator of ``lindblad_superop_kron`` as first
    vectorized without Kronecker products: the sandwiches from one
    (d^2, K) x (K, d^2) product, transposed, and -i[h, .] - 1/2 {L^+L, .}
    added on the block diagonals."""
    d = h.shape[0]
    w = np.array([wk for wk, _ in lindblad_ops], dtype=float)
    L = np.array([L for _, L in lindblad_ops], dtype=complex).reshape(len(w), d, d)
    wLc = w[:, None, None] * L.conj()
    sandwich = wLc.reshape(len(w), d * d).T @ L.reshape(len(w), d * d)
    mat = sandwich.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    LdL = wLc.reshape(-1, d).T @ L.reshape(-1, d)
    blocks, k = mat.reshape(d, d, d, d), np.arange(d)
    blocks[k, :, k, :] += -1j * h - 0.5 * LdL
    blocks[:, k, :, k] += (1j * h - 0.5 * LdL).T
    return mat


def choi_matrix_loop(sop):
    """Choi matrix sum_ij |i><j| (x) Phi(|i><j|), one ``apply`` per matrix
    unit, as first written."""
    d = sop.dim
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            C[i * d:(i + 1) * d, j * d:(j + 1) * d] = sop.apply(E)
    return C


def decompose_coupling_loop(eig, a, freq_tol, norm_a):
    """(frequencies, operators) of A = sum_w A_w by the double loop over
    level pairs, as first written: P_n A P_m at w = E_m - E_n where it is
    not ~0, sorted stably by w, with w within ``freq_tol`` of the previous
    cluster's first value merged into it."""
    raw = []
    for n, Pn in enumerate(eig.projectors):
        for m, Pm in enumerate(eig.projectors):
            w = eig.energies[m] - eig.energies[n]
            term = Pn @ a @ Pm
            if np.max(np.abs(term)) > 1e-14 * max(norm_a, 1.0):
                raw.append((w, term))
    raw.sort(key=lambda p: p[0])
    freqs, ops = [], []
    for w, term in raw:
        if freqs and w - freqs[-1] <= freq_tol:
            ops[-1] = ops[-1] + term
        else:
            freqs.append(w)
            ops.append(term.astype(complex))
    return np.array(freqs), ops


def davies_lamb_shift_einsum(S, ops):
    """sum_w S(w) A_w^+ A_w over a (n, d, d) stack of A_w, as one
    three-operand einsum."""
    return np.einsum("k,kba,kbc->ac", S, ops.conj(), ops)


def lamb_operator_einsum(F, ops):
    """sum_{w w'} F_{w w'} A_{w'} A_w over a (n, d, d) stack of A_w:
    B_j = sum_i F_ij A_i, then sum_j A_j B_j by einsum."""
    B = np.tensordot(F, ops, axes=(0, 0))
    return np.einsum("jab,jbc->ac", ops, B)


def real_basis_gather(v, axis, phase):
    """Q (phase 1j) or conj(Q) (phase -1j) of the orthonormal Hermitian
    basis E_ii, (E_ij + E_ji)/sqrt2, i (E_ij - E_ji)/sqrt2 (i < j) applied
    along ``axis`` of column-stacked entries: three gathers, the block
    arithmetic on fresh arrays and one concatenate."""
    d = math.isqrt(v.shape[axis])
    i, j = np.triu_indices(d, 1)
    diag, up, lo = np.arange(d) * (d + 1), i + j * d, j + i * d
    half = math.sqrt(0.5)
    u, l = np.take(v, up, axis=axis), np.take(v, lo, axis=axis)
    return np.concatenate((np.take(v, diag, axis=axis), half * (u + l),
                           (phase * half) * (l - u)), axis=axis)


def ore_filter_quad(w, corr, t, epsabs=1e-14, lo=0.0):
    """g_w(t) = int_lo^t C(-t') e^{iwt'} dt' (lo = 0: the filter integral) by
    two adaptive quad calls (real and imaginary part) on scalar correlation
    values."""
    def part(f):
        return integrate.quad(lambda x: f(corr(-x) * cmath.exp(1j * w * x)), lo, t,
                              epsabs=epsabs, epsrel=1e-13, limit=800)[0]

    return complex(part(lambda z: z.real), part(lambda z: z.imag))


def ore_filter_quad_running(w, corr, times):
    """g_w at every t of the increasing ``times`` (t >= 0) as a running sum
    of ``ore_filter_quad`` over the gaps between them, so each gap is
    integrated once whatever the number of times."""
    edges = np.r_[0.0, times]
    return np.cumsum([ore_filter_quad(w, corr, b, lo=a) for a, b in zip(edges[:-1], edges[1:])])


def ore_filter_direct(jd, bath, t_max):
    """qme.evolve.ore_filter as first written: the same starting panels and
    running sum, with an integrand that takes e^{i w t'} for every column
    w = jd.frequencies[k], negative w included.  Returns (g, error)."""
    from qme.baths import kinks
    from qme.quadrature import cumulative, panel_edges

    w = np.asarray(jd.frequencies, dtype=float)
    rate = max(float(np.max(np.abs(w), initial=0.0)), bath._initial_radius())
    edges = panel_edges([0.0, t_max, *kinks(bath, 0.0, t_max)], rate)

    def integrand(t):
        return (np.asarray(bath.correlation(-t), dtype=complex)[:, None]
                * np.exp(1j * np.multiply.outer(t, w)))

    return cumulative(integrand, edges)


def taylor_terms(X, B, m, s):
    """T_m(X/s) B, for B None the identity, and the number of matrix
    products it took, term by term as first written: m - 1 products on the
    identity (the first term, X/s, takes none), m on a vector.  The series
    stops once two consecutive terms fall below 2^-53 of the partial sum, in
    max-abs entries, in every matrix of the stack."""
    tol = 2.0 ** -53

    def smallest_max_abs(F):
        size = F.shape[-1] * (F.shape[-2] if F.ndim > 1 else 1)
        return float(np.abs(F).reshape(-1, size).max(axis=1).min())

    if B is None:
        term = X / s
        F = term + np.eye(X.shape[-1])
        c1 = float(np.abs(term).max())
        bound, first = 1.0 + c1, 2
    else:
        term, F = B, B.astype(np.result_type(X, B))
        c1 = bound = float(np.abs(B).max())
        first = 1
    per_product, products = X[..., 0, 0].size, 0
    for j in range(first, m + 1):
        term = X @ term
        term /= s * j
        products += per_product
        F += term
        c2 = float(np.abs(term).max())
        bound += c2
        if c1 + c2 <= tol * bound and c1 + c2 <= tol * smallest_max_abs(F):
            break
        c1 = c2
    return F, products


def cumulative_fresh_gauss(integrand, edges, order=16, epsabs=1e-12, epsrel=1e-10):
    """The running integral G(t) = int_{edges[0]}^t integrand on a composite
    order-``order`` Gauss rule, every panel halved until no running sum at a
    starting edge moves by more than max(epsabs, epsrel |G|); G(t) is the sum
    to the converged edge below t plus a fresh order-``order`` Gauss rule on
    the partial panel [edge, t], which evaluates the integrand at ``order``
    new nodes per query.  Returns (G, error, converged edges); G takes a 1-D
    array of t."""
    x, w = np.polynomial.legendre.leggauss(order)

    def running_sums(edges):
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        nodes = (mid[:, None] + half[:, None] * x).ravel()
        f = integrand(nodes)
        f = f.reshape((len(edges) - 1, order) + f.shape[1:])
        panels = np.einsum("pk,pk...->p...", half[:, None] * w, f)
        return np.concatenate([np.zeros((1,) + panels.shape[1:], panels.dtype),
                               np.cumsum(panels, axis=0)])

    edges = np.asarray(edges, dtype=float)
    sums = running_sums(edges)
    while True:
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
        fine = running_sums(edges)
        change = np.abs(fine[::2] - sums)
        if np.all(change <= np.maximum(epsabs, epsrel * np.abs(fine[::2]))):
            break
        sums = fine

    def G(t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(edges) - 2)
        half = 0.5 * (t - edges[k])
        nodes = (edges[k] + half)[:, None] + half[:, None] * x
        f = integrand(nodes.ravel()).reshape(nodes.shape + fine.shape[1:])
        return fine[k] + np.einsum("nk,nk...->n...", half[:, None] * w, f)

    return G, float(np.max(change, initial=0.0)), edges


def ore_reference(h, a, terms, corr, rho0, grid, panel=0.05, order=24):
    """The time-local equation d rho/dt = -i[h, rho] + (a rho a_f - rho a_f a)
    + h.c., a_f(t) = sum_w g_w(t) a_w, by DOP853 at rtol 1e-12 on the state
    matrix; g_w(t) is a fixed order-``order`` Gauss rule on panels of width
    ``panel``, summed over the panels below t plus the partial one."""
    freqs = np.array([float(w) for w, _ in terms])
    ops = np.array([aw for _, aw in terms], dtype=complex)
    x, wx = np.polynomial.legendre.leggauss(order)
    edges = np.arange(0.0, grid[-1] + panel, panel)

    def rule(lo, hi):
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        vals = np.array([corr(-s) for s in nodes])[:, None] * np.exp(1j * np.outer(nodes, freqs))
        return 0.5 * (hi - lo) * (wx @ vals)

    table = np.cumsum([np.zeros(len(freqs))] + [rule(lo, hi) for lo, hi in
                                                 zip(edges[:-1], edges[1:])], axis=0)
    d = h.shape[0]

    def rhs(t, v):
        k = min(int(t // panel), len(edges) - 2)
        g = table[k] + rule(edges[k], t)
        af = np.tensordot(g, ops, axes=1)
        rho = v.reshape(d, d)
        half = a @ rho @ af - rho @ af @ a
        return (-1j * (h @ rho - rho @ h) + half + half.conj().T).ravel()

    sol = integrate.solve_ivp(rhs, (grid[0], grid[-1]), np.asarray(rho0, complex).ravel(),
                              method="DOP853", t_eval=grid, rtol=1e-12, atol=1e-14)
    return sol.y.T.reshape(len(grid), d, d)


def generator_norm_samples(terms, filters, dim, n_samples, seed, t_lo, t_hi):
    """Trace norms of the interaction-picture dissipator on random unit-trace-
    norm Hermitian X at random t, one sample at a time: per sample, a complex
    Ginibre draw symmetrized to X, then (unless X = 0) a uniform t.
    ``filters[w](t)`` is the filter integral g_w(t)."""
    rng = np.random.default_rng(seed)
    terms = [(float(w), aw) for w, aw in terms]

    def trace_norm(x):
        return float(np.linalg.svd(x, compute_uv=False).sum())

    norms = np.empty(n_samples)
    for k in range(n_samples):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = (g + g.conj().T) / 2.0
        nrm = trace_norm(x)
        if nrm == 0.0:
            norms[k] = 0.0
            continue
        x /= nrm
        t = rng.uniform(t_lo, t_hi)
        zero = np.zeros_like(x)
        a_t = sum((aw * np.exp(-1j * w * t) for w, aw in terms), zero)
        af_t = sum((aw * np.exp(-1j * w * t) * complex(filters[w](t)) for w, aw in terms),
                   zero)
        half = a_t @ x @ af_t - x @ af_t @ a_t
        norms[k] = trace_norm(half + half.conj().T)
    return norms


def lindblad_from_kossakowski_loop(operators, K, clip_tol):
    """Lindblad terms from the eigenpairs of the Hermitian part of K, one
    weight and one sum over the operators at a time, as first written:
    ArithmeticError below -clip_tol, and weights clipped at 0 dropped."""
    K = 0.5 * (K + np.conj(K).T)
    vals, vecs = np.linalg.eigh(K)
    if np.min(vals) < -clip_tol:
        raise ArithmeticError("Kossakowski matrix positivity violated")
    ops = []
    for mu in range(len(vals)):
        wgt = max(float(vals[mu]), 0.0)
        if wgt == 0.0:
            continue
        L = np.zeros(operators[0].shape, dtype=complex)
        for i, Aw in enumerate(operators):
            L += vecs[i, mu] * Aw
        ops.append((wgt, L))
    return tuple(ops)


def ginibre_draws_loop(seed, n_samples, dim, t_lo, t_hi):
    """The generator-norm draws one sample at a time, as first written: per
    sample a complex Ginibre G from two (dim, dim) draws, X = (G + G^+)/2,
    then (unless X = 0) a uniform t.  Returns (X stack, t, X != 0)."""
    rng = np.random.default_rng(seed)
    xs = np.empty((n_samples, dim, dim), dtype=complex)
    ts = np.zeros(n_samples)
    live = np.ones(n_samples, dtype=bool)
    for k in range(n_samples):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        xs[k] = (g + g.conj().T) / 2.0
        live[k] = xs[k].any()
        if live[k]:
            ts[k] = rng.uniform(t_lo, t_hi)
    return xs, ts, live


def dephasing_offdiagonal(t, rate):
    """Single-qubit pure dephasing: off-diagonal decays as e^{-2 rate t}
    for the Lindblad term rate * (Z rho Z - rho)."""
    return math.exp(-2.0 * rate * t)


# ---------------------------------------------------------------------------
# bound formulas (independent re-evaluations)


def redfield_log_bracket_integral(tau_b, tau_sb, eps_t, t):
    """The un-relaxed integral form of the integration-limit error:
    e^{4t/tau_sb} int_0^{4t/tau_sb} min(1, 4 tau_b/(x tau_sb) + eps_t) e^{-x} dx.
    The printed closed bracket upper-bounds this for all t."""
    upper = 4.0 * t / tau_sb

    def integrand(x):
        return min(1.0, 4.0 * tau_b / (max(x, 1e-300) * tau_sb) + eps_t) * math.exp(-x)

    val = integrate.quad(integrand, 0.0, upper, limit=400)[0]
    return math.exp(upper) * val


def c_bm_numeric(x):
    """Root >= 1 of (c - 1)^2 = x (3c + 2) found by bracketing."""
    if x == 0.0:
        return 1.0
    f = lambda c: (c - 1.0) ** 2 - x * (3.0 * c + 2.0)
    hi = 2.0
    while f(hi) < 0:
        hi *= 2.0
    return brentq(f, 1.0, hi, xtol=1e-14)


def b2_ode_numeric(t, lam, t_a, c_bm, steps=40_000):
    """Direct Euler integration of the amplification-bound ODE:
    b' = c Lam^2 T_a/4 + c Lam (2 - 4 s/T_a) * [s < T_a/2] + Lam b, b(0) = 0."""
    b = 0.0
    h = t / steps
    s = 0.0
    for _ in range(steps):
        drive = c_bm * lam**2 * t_a / 4.0 + lam * b
        if s < t_a / 2.0:
            drive += c_bm * lam * (2.0 - 4.0 * s / t_a)
        b += h * drive
        s += h
    return b


# ---------------------------------------------------------------------------
# qme CLI tables, built and written row by row as the CLI first wrote them


def write_csv_rows(path, header, rows):
    """One csv row per tuple: a Python float as %.12g, anything else as the
    csv module writes it."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def write_gamma_table(out_dir, w, g):
    """bath-info's gamma.csv."""
    write_csv_rows(f"{out_dir}/gamma.csv", ["omega[1/time]", "gamma[1/time]"],
                   zip(w.tolist(), g.tolist()))


def write_trajectory_table(path, res, projectors):
    """evolve's trajectory_<tag>.csv: t, Tr(P rho) per projector, the two
    monitors, then Re and Im of every rho entry."""
    dim = res.states.shape[1]
    header = ["t[abs]"] + [f"pop_E{n}[prob]" for n in range(len(projectors))]
    header += ["trace_deviation", "min_eigenvalue"]
    header += [f"{part}_rho_{a}{b}" for a in range(dim) for b in range(dim)
               for part in ("re", "im")]
    rows = []
    for i, t in enumerate(res.times):
        rho = res.states[i]
        row = [float(t)]
        row.extend(float(np.real(np.trace(p @ rho))) for p in projectors)
        row.append(float(res.trace_deviation[i]))
        row.append(float(res.min_eigenvalue[i]))
        for a in range(dim):
            for b in range(dim):
                row.append(float(rho[a, b].real))
                row.append(float(rho[a, b].imag))
        rows.append(row)
    write_csv_rows(path, header, rows)


def write_compare_tables(out_dir, grid, equations, tags, results, distance):
    """compare.csv, compare_averages.csv and ta_sweep.csv.  ``equations``
    are (kind, T_a) pairs; distance(a, b) -> (series, average).  The sweep
    is scored against ore, else the first non-CGME equation."""
    rows, averages = [], {}
    for i in range(len(equations)):
        for j in range(i + 1, len(equations)):
            series, average = distance(results[i], results[j])
            averages[i, j] = average
            for t, v in zip(grid, series):
                rows.append((float(t), tags[i], tags[j], float(v)))
    write_csv_rows(f"{out_dir}/compare.csv",
                   ["t[abs]", "equation_a", "equation_b", "trace_distance"], rows)
    write_csv_rows(f"{out_dir}/compare_averages.csv",
                   ["equation_a", "equation_b", "time_average_trace_distance"],
                   [(tags[i], tags[j], v) for (i, j), v in averages.items()])
    others = [k for k, (kind, _) in enumerate(equations) if not kind.startswith("cgme")]
    others.sort(key=lambda k: equations[k][0] != "ore")
    ref = others[0]
    write_csv_rows(f"{out_dir}/ta_sweep.csv", ["T_a[abs]", "time_average_trace_distance"],
                   [(float(t_a), averages[min(k, ref), max(k, ref)])
                    for k, (kind, t_a) in enumerate(equations) if kind.startswith("cgme")])


def write_bounds_table(out_dir, grid, measured, summary, strongest):
    """bounds.csv; summary(t) is the bound map, strongest(t) a float."""
    rows = []
    for t, m in zip(grid, measured):
        s = summary(float(t))
        rows.append((float(t), float(m), strongest(float(t)),
                     s["cgme_simple"].value, s["redfield_log"].value))
    write_csv_rows(f"{out_dir}/bounds.csv", ["t[abs]", "measured_trace_distance",
                                             "strongest_bound", "cgme_simple", "redfield_log"],
                   rows)


def write_dd_table(out_dir, betas, omegas, dts, xi):
    """dd.csv; xi(beta, omega_c) gives xi for every dt."""
    rows = []
    for beta in betas:
        for omega_c in omegas:
            rows.extend((float(beta), float(omega_c), float(dt), float(v))
                        for dt, v in zip(dts, xi(beta, omega_c)))
    write_csv_rows(f"{out_dir}/dd.csv",
                   ["beta[time]", "omega_c[1/time]", "dt[time]", "xi[dimensionless]"], rows)
