"""Time-dependent machinery.

Propagators for piecewise-constant Hamiltonians interrupted by instantaneous
pulses, the window coefficients of the time-dependent coarse-grained
generator (Kossakowski matrix, Lamb shift, A_eps; window sliding with t),
the time-dependent Redfield filter, and the DD suppression-ratio analysis.

A ``DriveSchedule`` diagonalizes each segment Hamiltonian once,
H = V diag(Lambda) V^+, and every propagation reads that eigensystem:
e^{-i H tau} = V e^{-i Lambda tau} V^+.  A propagator walks the pieces
between segment boundaries and pulse instants, applying each pulse at the
start of its piece.

The window coefficients share one stack: the window is cut into panels at
pulse instants and segment boundaries, so H is constant inside each panel and
no pulse lies strictly inside one, and each panel is split further until it
carries at most ~2 radians of the fastest Bohr oscillation.  Per panel, one
propagator call to its midpoint m and the segment's eigensystem give
U(t + tau, t) = V e^{-i Lambda (tau - m)} V^+ U(t + m, t) for all its Gauss
nodes at once, and the (n, d, d) stack A(t + tau, t) follows.  One
correlation call on the node differences serves the driven generator's
Kossakowski matrix and its Lamb shift (``evolve.td_cgme_superoperator``).
A_eps(t) for every eps is one (eps x node) phase-matrix contraction with
the stack, and the Redfield filter one weighted sum over it.
``heisenberg_A`` and ``propagator`` stay as the per-point API.  The DD
suppression ratios integrate over frequency on the refined Gauss grid of
``quadrature.refine``, one grid for every dt of a call.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .operators import HermitianOperator
from .quadrature import PANEL_PHASE, gauss_panels, refine

__all__ = [
    "DriveSchedule",
    "DDSequence",
    "dd_schedule",
    "propagator",
    "heisenberg_A",
    "td_a_epsilon",
    "td_lamb",
    "td_redfield_filter",
    "dd_sign",
    "dd_window_filter",
    "dd_suppression_xi",
    "dd_suppression_xi_general",
]

UNITARY_TOL = 1e-12
# td_redfield_filter warns when the share of int_0^inf |C| beyond its
# history cutoff, the bath's epsilon_T there, exceeds this
TRUNCATION_WARN = 1e-2


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, HermitianOperator):
        return op.entries
    return np.asarray(op, dtype=complex)


@dataclass(frozen=True)
class DriveSchedule:
    """Piecewise-constant Hamiltonian segments plus instantaneous pulses.

    ``segments`` is a tuple of (t_start, t_end, H) covering [0, duration]
    contiguously; ``pulses`` is a tuple of (t_pulse, U_pulse) with strictly
    increasing pulse times strictly inside (0, duration).  A pulse acts at its
    exact instant; windows use the half-open convention [t_from, t_to), i.e. a
    pulse at t_from belongs to the window and one at t_to does not.  Each
    segment's eigensystem (lam, V), H = V diag(lam) V^+, is computed once
    here and serves every propagation through the segment, as do the sorted
    ``cut_times`` (every segment boundary and pulse instant) and the
    ``pulse_at`` map from pulse time to unitary, so a window's cost grows
    with the cuts inside it, not with the schedule's length.
    """

    segments: tuple
    pulses: tuple = ()
    duration: float = field(init=False, default=0.0)
    eigensystems: tuple = field(init=False, default=(), repr=False, compare=False)
    cut_times: tuple = field(init=False, default=(), repr=False, compare=False)
    pulse_at: dict = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        segs = []
        prev_end = None
        for t0, t1, H in self.segments:
            t0, t1 = float(t0), float(t1)
            if not t1 > t0:
                raise ValueError(f"segment ({t0}, {t1}) has non-positive length")
            if prev_end is None:
                if abs(t0) > 1e-12:
                    raise ValueError("first segment must start at t = 0")
            elif abs(t0 - prev_end) > 1e-12 * max(1.0, abs(t1)):
                raise ValueError("segments must be contiguous and non-overlapping")
            segs.append((t0, t1, _as_matrix(H)))
            prev_end = t1
        dim = segs[0][2].shape[0]
        for _, _, H in segs:
            if H.shape != (dim, dim):
                raise ValueError("all segment Hamiltonians must share one dimension")

        pls = []
        prev_t = 0.0
        for tp, U in self.pulses:
            tp = float(tp)
            U = _as_matrix(U)
            if not (0.0 < tp < prev_end):
                raise ValueError(f"pulse time {tp} not strictly inside (0, duration)")
            if pls and tp <= prev_t:
                raise ValueError("pulse times must be strictly increasing")
            if U.shape != (dim, dim):
                raise ValueError("pulse unitary dimension mismatch")
            if np.max(np.abs(U.conj().T @ U - np.eye(dim))) > UNITARY_TOL:
                raise ValueError(f"pulse at t = {tp} is not unitary within {UNITARY_TOL}")
            pls.append((tp, U))
            prev_t = tp

        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "pulses", tuple(pls))
        object.__setattr__(self, "duration", prev_end)
        object.__setattr__(self, "eigensystems", tuple(np.linalg.eigh(H) for _, _, H in segs))
        object.__setattr__(self, "cut_times", tuple(sorted(
            {t for t0, t1, _ in segs for t in (t0, t1)} | {tp for tp, _ in pls})))
        object.__setattr__(self, "pulse_at", dict(pls))

    @property
    def dim(self) -> int:
        return self.segments[0][2].shape[0]

    def _segment(self, t: float) -> int:
        """Index of the segment holding t, the boundary segments extended
        beyond [0, duration] (sliding averaging windows may poke outside)."""
        return bisect_right(self.segments, t, hi=len(self.segments) - 1, key=lambda s: s[1])

    def hamiltonian_at(self, t: float) -> np.ndarray:
        """Segment Hamiltonian at time t, boundary segments extended."""
        return self.segments[self._segment(t)][2]

    def eigensystem_at(self, t: float):
        """(lam, V) of the segment Hamiltonian at time t, boundary segments
        extended."""
        return self.eigensystems[self._segment(t)]

    def breakpoints(self, lo: float, hi: float) -> list:
        """Times in (lo, hi) where the integrand of a window quadrature loses
        smoothness: segment boundaries (kinks) and pulse instants (jumps)."""
        cuts = self.cut_times
        return list(cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)])


@dataclass(frozen=True)
class DDSequence:
    """Periodic instantaneous pulses spaced by dt; averaging time 4*k_prime*dt.

    Here dt is the pulse spacing itself.  The closed form
    ``dd_suppression_xi(bath, dt_xi, k')`` takes half the spacing: it
    describes ``DDSequence(dt=2*dt_xi)`` with T_a = 4 k' dt_xi, half of
    that sequence's ``averaging_time``.
    """

    dt: float
    k_prime: int = 1
    pulse: np.ndarray = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if int(self.k_prime) != self.k_prime or self.k_prime < 1:
            raise ValueError("k_prime must be an integer >= 1")
        if self.pulse is None:
            # exp(-i (pi/2) X) = -i X
            object.__setattr__(
                self, "pulse", -1j * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
            )
        else:
            object.__setattr__(self, "pulse", _as_matrix(self.pulse))

    @property
    def averaging_time(self) -> float:
        return 4.0 * self.k_prime * self.dt


def dd_schedule(dd: DDSequence, duration: float) -> DriveSchedule:
    """Zero system Hamiltonian with the DD pulse applied at every multiple of dt."""
    dim = dd.pulse.shape[0]
    n = int(math.floor(duration / dd.dt - 1e-12))
    pulses = tuple((j * dd.dt, dd.pulse) for j in range(1, n + 1) if j * dd.dt < duration)
    return DriveSchedule(
        segments=((0.0, float(duration), np.zeros((dim, dim), dtype=complex)),),
        pulses=pulses,
    )


def _evolution(lam: np.ndarray, V: np.ndarray, tau) -> np.ndarray:
    """e^{-i H tau} = V e^{-i lam tau} V^+ for H = V diag(lam) V^+."""
    return (V * np.exp(-1j * lam * tau)) @ V.conj().T


def _propagator_either(sched: DriveSchedule, t_prime: float, t: float) -> np.ndarray:
    """U(t', t) for t' on either side of t, boundary segments extended.

    The forward map over [lo, hi) walks the pieces between segment
    boundaries and pulse instants; a pulse acts at the start of its piece,
    so one at lo belongs to the window and one at hi does not, and the
    empty window is the identity.  The backward map is its adjoint."""
    lo, hi = min(t, t_prime), max(t, t_prime)
    U = np.eye(sched.dim, dtype=complex)
    cuts = [lo, *sched.breakpoints(lo, hi), hi] if hi > lo else []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a in sched.pulse_at:
            U = sched.pulse_at[a] @ U
        U = _evolution(*sched.eigensystem_at(a), b - a) @ U
    return U if t_prime >= t else U.conj().T


def propagator(sched: DriveSchedule, t_from: float, t_to: float) -> np.ndarray:
    """Unitary mapping states at t_from to states at t_to.

    Reverse ordering is handled by the adjoint.  Times must lie within the
    schedule domain [0, duration]; window quadratures that need to peek
    outside use the boundary-extended internal path instead.
    """
    for t in (t_from, t_to):
        if not (-1e-12 <= t <= sched.duration + 1e-12):
            raise ValueError(f"time {t} outside schedule domain [0, {sched.duration}]")
    return _propagator_either(sched, t_to, t_from)


def heisenberg_A(sched: DriveSchedule, A, t_prime: float, t: float) -> np.ndarray:
    """A(t', t) = U(t', t)^dagger A U(t', t), boundary segments extended."""
    U = _propagator_either(sched, t_prime, t)
    return U.conj().T @ _as_matrix(A) @ U


def _panels(sched: DriveSchedule, t: float, lo: float, hi: float, kinks,
            max_width: float) -> np.ndarray:
    """Panel edges for the integrand tau -> A(t + tau, t) on [lo, hi]: cut at
    pulse instants, segment boundaries and the ``kinks`` inside, so H is
    constant inside each panel and no pulse lies strictly inside one, then
    split into equal parts at most ``max_width`` wide and carrying at most
    PANEL_PHASE radians of the fastest oscillation of A(t + tau, t), the
    spectral spread of the schedule's Hamiltonians."""
    spread = max(float(np.ptp(lam)) for lam, _ in sched.eigensystems)
    max_width = min(max_width, PANEL_PHASE / max(spread, 1e-12))
    inner = [x - t for x in sched.breakpoints(t + lo, t + hi)]
    edges = np.array(sorted({lo, hi, *inner, *(k for k in kinks if lo < k < hi)}))
    counts = np.maximum(1, np.ceil(np.diff(edges) / max_width)).astype(int)
    parts = [np.linspace(a, b, n + 1)[:-1] for a, b, n in zip(edges[:-1], edges[1:], counts)]
    return np.concatenate(parts + [edges[-1:]])


def _panel_basis(sched: DriveSchedule, t: float, lo: float, hi: float):
    """(m, V, lam, W) for the panel [lo, hi] of offsets from t: with m its
    midpoint, H = V diag(lam) V^+ the panel's Hamiltonian and
    W = V^+ U(t + m, t), every offset tau inside the panel has
    U(t + tau, t) = V diag(e^{-i lam (tau - m)}) W."""
    m = 0.5 * (lo + hi)
    lam, V = sched.eigensystem_at(t + m)
    return m, V, lam, V.conj().T @ _propagator_either(sched, t + m, t)


def _heisenberg_stack(basis, A: np.ndarray, taus) -> np.ndarray:
    """A(t + tau, t) for offsets ``taus`` (any shape) inside one panel,
    stacked as taus.shape + (d, d)."""
    m, V, lam, W = basis
    phase = np.exp(-1j * np.multiply.outer(np.asarray(taus) - m, lam))
    U = V @ (phase[..., None] * W)
    return U.conj().swapaxes(-1, -2) @ A @ U


@dataclass(frozen=True)
class _Window:
    """Gauss nodes (offsets from t) and weights on a window's panels, each
    node's panel index, the (n, d, d) stack A(t + tau, t), the per-panel
    bases that extend the stack to further offsets, and the panel edges."""

    nodes: np.ndarray
    weights: np.ndarray
    panel: np.ndarray
    stack: np.ndarray
    bases: list
    edges: np.ndarray

    def correlation(self, bath) -> np.ndarray:
        """Cm[i, j] = C(tau_j - tau_i) on the nodes, in one vectorised call."""
        return np.asarray(bath.correlation(self.nodes - self.nodes[:, None]))

    def kossakowski(self, Cm, T_a: float) -> np.ndarray:
        """G = S K S^+ on the matrix units, K_jk = w_j w_k Cm_jk / T_a and S the
        (d^2 x n) stack of vec A_j; PSD for gamma >= 0 (Bochner)."""
        S = self.stack.reshape(len(self.nodes), -1)
        return S.T @ (np.outer(self.weights, self.weights) * Cm / T_a) @ S.conj()


def _window(sched: DriveSchedule, A: np.ndarray, t: float, edges, order: int) -> _Window:
    """One propagator call per panel between ``edges``; with the segment's
    eigensystem the Heisenberg operators at the panel's Gauss nodes follow
    in one batch."""
    edges = np.asarray(edges, dtype=float)
    nodes, weights = gauss_panels(edges, order)
    bases = [_panel_basis(sched, t, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    by_panel = nodes.reshape(len(bases), order)
    stack = np.concatenate([_heisenberg_stack(b, A, x) for b, x in zip(bases, by_panel)])
    panel = np.repeat(np.arange(len(bases)), order)
    return _Window(nodes, weights, panel, stack, bases, edges)


def _check_window_args(T_a: float, quadrature_order: int):
    if quadrature_order < 2:
        raise ValueError("quadrature order must be >= 2")
    if T_a <= 0:
        raise ValueError("T_a must be > 0")


def _sliding_window(sched, A: np.ndarray, t: float, T_a: float, order: int) -> _Window:
    """The window [t - T_a/2, t + T_a/2] at ``order`` Gauss nodes per panel."""
    _check_window_args(T_a, order)
    return _window(sched, A, t, _panels(sched, t, -T_a / 2.0, T_a / 2.0, (), np.inf), order)


def td_a_epsilon(sched: DriveSchedule, A, bath, t: float, eps, T_a: float,
                 quadrature_order: int = 32) -> np.ndarray:
    """Time-dependent coarse-grained Lindblad operator at frequency eps:

        A_eps(t) = sqrt(gamma(eps) / (2 pi T_a))
                   * int_{-T_a/2}^{T_a/2} e^{i eps t1} A(t + t1, t) dt1

    Per-panel Gauss-Legendre quadrature, subdivided where the integrand is
    non-smooth (pulse instants and segment boundaries).  ``eps`` may be an
    array: the stack A(t + t1, t) is built once and every A_eps is one row
    of the (eps x node) phase matrix contracted with it, so the result has
    shape eps.shape + (d, d).
    """
    eps = np.asarray(eps, dtype=float)
    win = _sliding_window(sched, _as_matrix(A), t, T_a, quadrature_order)
    phase = win.weights * np.exp(1j * np.multiply.outer(eps, win.nodes))
    g = np.maximum(np.real(np.asarray(bath.gamma(eps))), 0.0)
    scale = np.sqrt(g / (2.0 * math.pi * T_a))
    return scale[..., None, None] * np.tensordot(phase, win.stack, axes=1)


def td_lamb(sched: DriveSchedule, A, bath, t: float, T_a: float,
            quadrature_order: int = 16) -> HermitianOperator:
    """Time-dependent Lamb shift over the sliding window [t - T_a/2, t + T_a/2]:

        H_LS(t) = (i / 2 T_a) * int int sgn(t1 - t2) C(t2 - t1)
                                  A(t + t2, t) A(t + t1, t) dt1 dt2

    at ``quadrature_order`` Gauss nodes per panel (``_lamb_shift``).
    """
    A = _as_matrix(A)
    win = _sliding_window(sched, A, t, T_a, quadrature_order)
    return HermitianOperator(_lamb_shift(win, A, bath, T_a, win.correlation(bath)))


def _lamb_shift(win: _Window, A: np.ndarray, bath, T_a: float, Cm) -> np.ndarray:
    """``td_lamb`` on a window, with Cm = ``win.correlation(bath)``.

    The sgn kernel makes the double integral equal M - M^dagger with M the
    t1 > t2 triangle, so the result is Hermitian by construction.  For an
    outer node t1 the inner range [-T_a/2, t1) is the outer panels before
    t1's own, B_i = sum_j w_i w_j Cm_ij A_j over their nodes j, plus the
    partial panel [edge, t1), whose Gauss rule of the window's order takes
    its Heisenberg operators from the basis of t1's panel and its C from one
    more vectorised call; then M = sum_i B_i A_i.
    """
    nodes, weights, panel, edges = win.nodes, win.weights, win.panel, win.edges

    # full earlier panels
    W = np.where(panel[None, :] < panel[:, None], np.outer(weights, weights) * Cm, 0.0)
    B = np.tensordot(W, win.stack, axes=1)

    # the partial panel [edge, t1) of every outer node t1
    x, wx = gauss_panels((-1.0, 1.0), len(nodes) // len(win.bases))
    mid, half = 0.5 * (edges[panel] + nodes), 0.5 * (nodes - edges[panel])
    inner = mid[:, None] + half[:, None] * x
    c = np.asarray(bath.correlation((inner - nodes[:, None]).ravel())).reshape(inner.shape)
    W_part = (weights * half)[:, None] * wx * c
    for k, basis in enumerate(win.bases):
        rows = panel == k
        B[rows] += np.einsum("ik,ikab->iab", W_part[rows],
                             _heisenberg_stack(basis, A, inner[rows]))

    M = np.einsum("iab,ibc->ac", B, win.stack)
    H = (1j / (2.0 * T_a)) * (M - M.conj().T)
    residual = float(np.max(np.abs(H - H.conj().T)))
    if residual > 1e-9 * max(1.0, float(np.max(np.abs(H)))):
        raise ArithmeticError(f"Lamb-shift Hermiticity residual {residual:.3e}")
    return H


def td_redfield_filter(sched: DriveSchedule, A, bath, t: float,
                       history_cutoff: float) -> np.ndarray:
    """Time-dependent Redfield filter

        A_f(t) = int_0^cutoff C(-t') A(t - t', t) dt'

    by pulse-subdivided Gauss quadrature on the same Heisenberg stack as the
    coarse-grained coefficients (offsets tau = -t'), with C evaluated in one
    vectorised call.  A cutoff that leaves more than ``TRUNCATION_WARN`` of
    int_0^inf |C| beyond it (the bath's epsilon_T, the term the Redfield
    bound adds in full) truncates the memory integral; that triggers a
    warning.
    """
    if history_cutoff <= 0:
        raise ValueError("history_cutoff must be > 0")
    epsilon_T = bath.timescales(history_cutoff).epsilon_T
    if epsilon_T > TRUNCATION_WARN:
        warnings.warn(
            f"history_cutoff {history_cutoff:.3g} leaves epsilon_T = {epsilon_T:.3g} "
            f"> {TRUNCATION_WARN:g} of int |C| beyond it: memory integral truncated early",
            stacklevel=2,
        )
    A = _as_matrix(A)
    # offsets tau = -t'; a sharp-cutoff correlation function is
    # discontinuous at t' = tau_c, so that is a panel edge too
    tau_c = getattr(bath, "tau_c", None)
    kinks = () if tau_c is None else (-float(tau_c),)
    edges = _panels(sched, t, -history_cutoff, 0.0, kinks, history_cutoff / 16.0)
    win = _window(sched, A, t, edges, 16)
    c = np.asarray(bath.correlation(win.nodes))
    return np.tensordot(win.weights * c, win.stack, axes=1)


# ---------------------------------------------------------------------------
# dynamical decoupling suppression ratio
# ---------------------------------------------------------------------------

def dd_sign(t_prime: float, t: float, dt: float) -> int:
    """Parity sign (-1)^(number of pulse instants in [min, max) of t, t').

    Pulses sit at dt, 2*dt, ... (matching ``dd_schedule``: no pulse at t = 0);
    the half-open window matches the propagator convention (pulse at the
    earlier endpoint included, at the later excluded).
    """
    lo, hi = (t, t_prime) if t_prime >= t else (t_prime, t)
    first = max(math.ceil(lo / dt - 1e-9), 1)
    count = max(0, math.ceil(hi / dt - 1e-9) - first)
    return -1 if count % 2 else 1


def dd_window_filter(eps, dt: float, T_a: float, t: float = 0.0):
    """Exact window integral (1/T_a) int_{-T_a/2}^{T_a/2} e^{i eps t1} s(t1) dt1
    with s(t1) the DD parity sign of the stretch between t and t + t1, for a
    scalar or an array of eps.

    This models the bi-infinite periodic protocol (pulses at every integer
    multiple of dt, negative ones included), so the ratio is invariant under
    t -> t + dt.  The sign is piecewise constant between pulse instants, so
    the integral is a finite sum of elementary exponential integrals.
    """

    def parity_sign(x: float) -> int:
        a_, b_ = (t, x) if x >= t else (x, t)
        count = math.ceil(b_ / dt - 1e-9) - math.ceil(a_ / dt - 1e-9)
        return -1 if count % 2 else 1

    eps = np.asarray(eps, dtype=float)
    lo, hi = t - T_a / 2.0, t + T_a / 2.0
    j_lo = math.floor(lo / dt - 1e-9) + 1
    j_hi = math.ceil(hi / dt + 1e-9) - 1
    cuts = [lo] + [j * dt for j in range(j_lo, j_hi + 1) if lo < j * dt < hi] + [hi]
    total = np.zeros(eps.shape, dtype=complex)
    for a, b in zip(cuts[:-1], cuts[1:]):
        # (e^{i eps (b-t)} - e^{i eps (a-t)}) / (i eps), analytic at eps = 0
        seg = (b - a) * np.exp(1j * eps * (0.5 * (a + b) - t)) \
            * np.sinc(eps * (b - a) / (2 * math.pi))
        total += parity_sign(0.5 * (a + b)) * seg
    out = total / T_a
    return out if out.ndim else complex(out)


def _tan_sinc_factor(x, k_prime: int):
    """Stable evaluation of sinc(2 k' x) * tan(x), elementwise over x.

    tan's poles are removable against sinc's zeros; the identity
    sin(2k'x)/cos(x) = 2 * sum_{j=1}^{k'} (-1)^(j+1) sin((2(k'-j)+1) x)
    removes them analytically.
    """
    x = np.asarray(x, dtype=float)
    j = np.arange(1, k_prime + 1)
    s = np.sum((-1.0) ** (j + 1) * np.sin(np.multiply.outer(x, 2 * (k_prime - j) + 1)), axis=-1)
    # sinc(2k'x) tan(x) = [sin(2k'x)/cos(x)] * sin(x)/(2k'x)
    return 2.0 * s * np.sinc(x / math.pi) / (2.0 * k_prime)


def _xi_ratio(bath, num_filter, den_filter):
    """int gamma num_filter / int gamma den_filter over [-W, W], both on one
    refined Gauss grid (``quadrature.refine``) with an edge at w = 0, where
    the integrands peak and gamma has a kink.  Each filter maps the nodes w
    to an array of shape (..., len(w)), one row per ratio, so every ratio
    shares the grid and its gamma values, and the grid is refined until
    each numerator and denominator meets the tolerance on its own.  gamma
    is scaled by its maximum, which leaves the ratios unchanged and keeps
    the absolute tolerance of the refinement negligible against every
    integral.  Returns a float for 0-d rows, else an array of their shape."""
    W = bath.support_radius()
    scale = bath.gamma_scale()

    def term(w, wt, g):
        wg = wt * g
        return np.stack([num_filter(w) @ wg, den_filter(w) @ wg], axis=-1)

    total, _ = refine(
        term, lambda w: np.real(np.asarray(bath.gamma(w))) / scale, (-W, 0.0, W))
    numerator, denominator = total[..., 0], total[..., 1]
    if np.any(denominator <= 0):
        raise ArithmeticError("vanishing reference decoherence rate")
    ratio = numerator / denominator
    return float(ratio) if ratio.ndim == 0 else ratio


def dd_suppression_xi(bath, dt, k_prime: int = 1):
    """DD suppression ratio at pulse-aligned times with averaging time
    T_a = 4 k' dt:

        xi = int gamma(w) |sinc(2k' w dt) tan(w dt)|^2 dw
           / int gamma(w) |sinc(2k' w dt)|^2 dw

    over the bath's support [-W, W].  ``dt`` may be a scalar, which gives a
    float, or an array, which gives an array of its shape: every xi of one
    call shares one refined composite Gauss grid and one set of gamma
    values, refined until each integral of each dt has converged.  xi < 1
    is guaranteed when the bath's high-frequency cutoff satisfies
    omega_c * dt < pi/4.

    dt is half the pulse spacing: xi equals
    ``dd_suppression_xi_general(bath, 2*dt, T_a=4*k_prime*dt)``, pulses
    every 2 dt (``DDSequence(dt=2*dt)``), to roundoff.
    """
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt > 0):
        raise ValueError("dt must be > 0")
    if int(k_prime) != k_prime or k_prime < 1:
        raise ValueError("k_prime must be an integer >= 1")
    return _xi_ratio(
        bath,
        lambda w: _tan_sinc_factor(np.multiply.outer(dt, w), k_prime) ** 2,
        lambda w: np.sinc(2 * k_prime * np.multiply.outer(dt, w) / math.pi) ** 2)


def dd_suppression_xi_general(bath, dt: float, T_a: float, t: float = 0.0) -> float:
    """DD suppression ratio from the general window-filter form, valid for any
    averaging time and evaluation time (not just T_a = 4 k' dt, t = l dt),
    on the same refined grid as ``dd_suppression_xi``."""
    if dt <= 0 or T_a <= 0:
        raise ValueError("dt and T_a must be > 0")
    return _xi_ratio(
        bath,
        lambda w: np.abs(dd_window_filter(w, dt, T_a, t)) ** 2,
        lambda w: np.sinc(w * T_a / (2 * math.pi)) ** 2)
