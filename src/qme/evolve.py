"""Density-matrix time integration and trajectory monitors.

Every generator preserves Hermiticity, so it is integrated as a real matrix
on the state's real coordinates in the orthonormal Hermitian basis of
``operators.to_real`` (the coherence vector of Alicki & Lendi, Quantum
Dynamical Semigroups, LNP 286 (1987)).  Propagates a constant generator
exactly by matrix exponentials,
integrates a time-dependent one (among them the time-local equation whose
filter integral grows with t, the pre-limit form of the Redfield equation) by
the commutator-free fourth-order Magnus step of Blanes & Moan, Appl. Numer.
Math. 56, 1519 (2006), on one propagator per grid interval whose substeps
are doubled only in the intervals where the generator still moves, and
assembles the time-dependent coarse-grained generator from the driving
machinery.  Every trajectory carries per-point monitors: trace deviation,
Hermiticity deviation, and minimum eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DensityMatrix,
    HermitianOperator,
    Superoperator,
    from_real,
    hamiltonian_superop,
    redfield_halves,
    to_real,
    to_real_superop,
    vectorize_generator,
    _trace_norms,
)
from .generators import GeneratorSet, JumpDecomposition
from .quadrature import CHUNK_ELEMENTS, MAX_PANELS, PANEL_PHASE, cumulative
from . import driving as drv

__all__ = [
    "EvolutionResult",
    "evolve",
    "evolve_ore",
    "ore_filter",
    "td_cgme_superoperator",
    "positivity_crossing",
    "trace_distance_series",
]

# grid steps closer than this (relative) share one propagator exp(M h)
STEP_RTOL = 1e-12
# the commutator-free fourth-order Magnus (CFM4) step from t to t + h:
# exp(h (a2 L1 + a1 L2)) exp(h (a1 L1 + a2 L2)) with L1, L2 the generator at
# the Gauss nodes t + CFM4_NODES h and a1,2 = 1/4 +- sqrt(3)/6; row k of
# CFM4_WEIGHTS weights (L1, L2) in the k-th exponential applied, so the one
# weighting the earlier node more acts first
CFM4_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
CFM4_WEIGHTS = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * math.sqrt(3.0) / 6.0
# substeps are doubled per grid interval until the sum of the local error
# estimates, each interval's largest change over 15 (the error estimate of a
# fourth-order method), is at most CFM4_TOL: the error RK45 reached at its
# old tolerances on the benchmark model
CFM4_TOL = 2e-8


@dataclass(frozen=True)
class EvolutionResult:
    """Trajectory on a fixed time grid with per-point health monitors."""

    times: np.ndarray
    states: np.ndarray                    # shape (n_times, dim, dim)
    trace_deviation: np.ndarray
    hermiticity_deviation: np.ndarray
    min_eigenvalue: np.ndarray
    metadata: dict = field(default_factory=dict)
    dense: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 1 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        s = np.asarray(self.states, dtype=complex)
        if s.ndim != 3 or s.shape[0] != len(t) or s.shape[1] != s.shape[2]:
            raise ValueError("states shape inconsistent with times")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _propagate_expm(matrix_fn, v0, grid):
    """Exact propagation of dv/dt = M v for a constant M: one expm(M h) per
    distinct step h (steps within STEP_RTOL of each other share one), and the
    dense output expm(M (t - t_i)) v_i from the last grid point t_i <= t.
    ``matrix_fn()`` returns M; a ``GeneratorSet`` is vectorized on each call
    rather than kept, so the dense output of a stored result does not hold a
    d^2 x d^2 matrix."""
    from scipy.linalg import expm
    M = matrix_fn()
    steps = np.diff(grid)
    reps, which = [], np.empty(len(steps), dtype=int)
    for k in np.argsort(steps, kind="stable"):
        if not reps or steps[k] - reps[-1] > STEP_RTOL * steps[k]:
            reps.append(steps[k])
        which[k] = len(reps) - 1
    props = [expm(M * h) for h in reps]
    vs = np.empty((len(grid), len(v0)), dtype=np.result_type(M, v0))
    vs[0] = v0
    for i, j in enumerate(which):
        vs[i + 1] = props[j] @ vs[i]

    def dense(t):
        i = int(np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2))
        return expm(matrix_fn() * (t - grid[i])) @ vs[i]

    return vs, dense, {"integrator": "expm", "n_expm": len(props)}


def _cfm4_substeps(L, n, t, h):
    """The CFM4 propagator of every substep [t[s], t[s] + h[s]], an
    (len(t), n, n) stack of L's dtype, from one stacked ``expm`` call.  The
    weighted exponents replace the L(t) stack and die on return.  On a full
    chunk (2^16 = CHUNK_ELEMENTS entries of L(t), 4 x 4 states) the
    ``tracemalloc`` peak of this call, ``expm`` included, is 1.25 MiB for
    a real callable (one product per call) and 4.75 MiB for a column-stacked
    callable that ``evolve`` wraps in ``to_real_superop``: its complex
    stack (1 MiB) and the transform's gathers live beside the real one."""
    from scipy.linalg import expm
    X = np.asarray(L((t[:, None] + h[:, None] * CFM4_NODES).ravel()))
    X = CFM4_WEIGHTS @ X.reshape(-1, 2, n * n)
    X *= h[:, None, None]
    E = expm(X.reshape(-1, 2, n, n))
    return E[:, 1] @ E[:, 0]


def _cfm4_propagators(L, n, t0, widths, counts):
    """CFM4 propagator over [t0[i], t0[i] + widths[i]] in counts[i] equal
    substeps, for every i: an (len(t0), n, n) stack.  The substeps run in
    chunks of at most CHUNK_ELEMENTS matrix entries; each substep's
    propagator multiplies its interval's from the left."""
    which = np.repeat(np.arange(len(counts)), counts)
    h = np.repeat(widths / counts, counts)
    # the position of every substep within its interval
    pos = np.arange(len(h)) - np.repeat(np.cumsum(counts) - counts, counts)
    t = np.repeat(t0, counts) + pos * h
    props = None
    step = max(1, CHUNK_ELEMENTS // (2 * n * n))
    for lo in range(0, len(h), step):
        k = slice(lo, lo + step)
        P = _cfm4_substeps(L, n, t[k], h[k])
        if props is None:
            props = np.empty((len(counts), n, n), dtype=P.dtype)
        for p in np.unique(pos[k]):
            at = np.nonzero(pos[k] == p)[0]
            j = which[k][at]
            props[j] = P[at] if p == 0 else P[at] @ props[j]
    return props


def _integrate_cfm4(L, v0, grid):
    """CFM4 on the grid with its substeps controlled per grid interval.

    Every interval starts at c = 1: its propagators at c and 2c substeps are
    built, the state is carried through the 2c ones, one matrix-vector
    product per interval, and the interval's local estimate is
    max|(P_2c - P_c) v_i| / 15 with v_i the state at its start.  L and v0
    are in the real coordinates of ``operators.to_real``; the estimate is
    taken in matrix entries, through ``from_real``, since the max-abs norm
    of the coordinates weighs off-diagonals up to sqrt2 more.  While the
    sum of the local estimates, the ``error_estimate``, exceeds CFM4_TOL,
    every interval whose own estimate exceeds CFM4_TOL / (number of
    intervals) doubles its c.  The dense output takes CFM4 substeps of at
    most the interval's final width from the last grid point t_i <= t."""
    starts, widths = grid[:-1], np.diff(grid)
    m, n = len(widths), len(v0)
    counts = np.full(m, 2)     # 2c: the substeps of the accepted propagators
    both = _cfm4_propagators(L, n, np.tile(starts, 2), np.tile(widths, 2),
                             np.concatenate((counts // 2, counts)))
    coarse, fine = both[:m], both[m:]
    computed = 3 * m
    vs = np.empty((m + 1, n))
    vs[0] = v0
    while True:
        for i, P in enumerate(fine):
            vs[i + 1] = P @ vs[i]
        change = vs[1:] - np.einsum("ijk,ik->ij", coarse, vs[:-1])
        local = np.max(np.abs(from_real(change)), axis=1) / 15.0
        estimate = float(local.sum())
        if not math.isfinite(estimate):
            raise ArithmeticError("CFM4 trajectory is not finite")
        if estimate <= CFM4_TOL:
            break
        grow = np.nonzero(local > CFM4_TOL / m)[0]
        counts[grow] *= 2
        if counts.max() > MAX_PANELS:
            raise ArithmeticError(
                f"CFM4 not converged within {MAX_PANELS} substeps per grid interval")
        coarse[grow] = fine[grow]
        fine[grow] = _cfm4_propagators(L, n, starts[grow], widths[grow], counts[grow])
        computed += int(counts[grow].sum())
    width = widths / counts

    def dense(t):
        i = int(np.clip(np.searchsorted(grid, t, side="right") - 1, 0, m))
        span = t - grid[i]
        if span == 0.0:
            return vs[i].copy()
        k = int(np.ceil(span / width[min(i, m - 1)]))
        return _cfm4_propagators(L, n, grid[i:i + 1], np.array([span]), np.array([k]))[0] @ vs[i]

    info = {"integrator": "cfm4", "n_substeps": int(counts.sum()),
            "interval_substeps": counts, "n_expm": 2 * computed,
            "error_estimate": estimate}
    return vs, dense, info


def evolve(gen, rho0: DensityMatrix, grid, metadata: dict | None = None) -> EvolutionResult:
    """Integrate d rho/dt = L(t)[rho] on the given strictly increasing grid.

    L must preserve Hermiticity: the state and the generator are converted
    once, at entry, to the real coordinates of ``operators.to_real`` and
    the real matrix Q L Q^+ (ValueError if L has an imaginary part there
    beyond ``HERMITICITY_TOL``), so every state is Hermitian by construction
    and ``hermiticity_deviation`` is ~0.  A constant generator (a
    ``GeneratorSet`` or ``Superoperator``) is propagated exactly, with one
    matrix exponential per distinct step.  A time-dependent one is a
    callable taking a 1-D array of n times to the (n, d^2, d^2) stack of
    column-stacked generator matrices; it runs on CFM4 substeps, doubled in
    each grid interval whose local error estimate is too large until the
    estimates sum to at most CFM4_TOL.  ``res.dense(t)`` returns the
    column-stacked state at t.

    ``metadata`` records the integrator that ran (``expm`` or ``cfm4``), its
    cost (``n_expm`` exponentials; for CFM4 also the accepted substeps, in
    all (``n_substeps``) and per grid interval (``interval_substeps``), and
    the ``error_estimate``, the sum of the intervals' local estimates) and
    the trajectory's health: the largest trace and Hermiticity deviations
    and the smallest eigenvalue over the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    meta = dict(metadata or {})
    if isinstance(gen, GeneratorSet):
        meta.setdefault("equation_kind", gen.kind)
        if "T_a" in gen.meta:
            meta.setdefault("T_a", gen.meta["T_a"])
        dim, integrate = gen.dim, _propagate_expm
        real_gen = lambda: to_real_superop(gen.to_superoperator().matrix)
    elif isinstance(gen, Superoperator):
        dim, integrate = gen.dim, _propagate_expm
        real_gen = lambda: to_real_superop(gen.matrix)
    elif callable(gen):
        dim = int(round(math.sqrt(np.shape(gen(grid[:1]))[-1])))
        integrate = _integrate_cfm4
        real_gen = lambda t: to_real_superop(gen(t))
    else:
        raise TypeError("gen must be a GeneratorSet, Superoperator, or callable "
                        "array of t -> stack of matrices")
    if rho0.dim != dim:
        raise ValueError("initial state dimension does not match generator")
    return _evolve_real(integrate, real_gen, rho0, grid, meta)


def _evolve_real(integrate, real_gen, rho0: DensityMatrix, grid, meta: dict) -> EvolutionResult:
    """The trajectory of ``integrate(real_gen, x0, grid)``, ``_propagate_expm``
    or ``_integrate_cfm4`` on the real coordinates x0 of rho0, with its
    monitors.  ``DensityMatrix`` admits a Hermiticity deviation of 1e-10, so
    x0 holds the state's Hermitian part."""
    rho = rho0.entries
    x0 = to_real((0.5 * (rho + rho.conj().T)).reshape(-1, order="F"))
    xs, dense_real, info = integrate(real_gen, x0, grid)

    # real coordinates to column-stacked vectors to matrices, then the
    # monitors on the stack
    dim = rho0.dim
    states = np.ascontiguousarray(from_real(xs).reshape(len(grid), dim, dim).transpose(0, 2, 1))
    dag = states.conj().transpose(0, 2, 1)
    tr = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    herm = np.max(np.abs(states - dag), axis=(1, 2))
    mineig = np.linalg.eigvalsh(0.5 * (states + dag))[:, 0]
    meta.update(info)
    meta.update(max_trace_deviation=float(tr.max()),
                max_hermiticity_deviation=float(herm.max()),
                min_eigenvalue=float(mineig.min()))
    return EvolutionResult(
        times=grid,
        states=states,
        trace_deviation=tr,
        hermiticity_deviation=herm,
        min_eigenvalue=mineig,
        metadata=meta,
        dense=lambda t: from_real(dense_real(t)),
    )


# ---------------------------------------------------------------------------
# time-local equation with growing filter integral
# ---------------------------------------------------------------------------

def ore_filter(jd: JumpDecomposition, bath, t_max: float):
    """The filter integrals g_w(t) = int_0^t C(-t') e^{i w t'} dt' of every
    w = jd.frequencies[k] on [0, t_max], as a running composite-Gauss sum
    (``quadrature.cumulative``).  Returns ``(g, error)``: g takes an array of
    t and returns shape t.shape + (n_w,), column k for jd.frequencies[k];
    ``error`` is the largest change of any running sum over the last panel
    halving.

    The starting panels carry at most PANEL_PHASE radians of the fastest of
    e^{i w t'} and of the bath's own frequency scale, with an edge at the
    kink tau_c of a finite-support correlation function.  g_w(infinity)
    equals the half-range transform f(-w)* used by the stationary Redfield
    filter.
    """
    w = np.asarray(jd.frequencies, dtype=float)
    scale = max(float(np.max(np.abs(w), initial=0.0)), bath._initial_radius())
    edges = np.linspace(0.0, t_max, max(1, int(np.ceil(t_max * scale / PANEL_PHASE))) + 1)
    tau_c = getattr(bath, "tau_c", None)
    if tau_c is not None and 0.0 < tau_c < t_max:
        edges = np.union1d(edges, [tau_c])

    def integrand(t):
        return (np.asarray(bath.correlation(-t), dtype=complex)[:, None]
                * np.exp(1j * np.multiply.outer(t, w)))

    return cumulative(integrand, edges)


def evolve_ore(H, A, bath, rho0: DensityMatrix, grid,
               jd: JumpDecomposition | None = None) -> EvolutionResult:
    """Integrate the time-local equation

        d rho/dt = -i[H, rho] + (A rho A_f(t) - rho A_f(t) A) + h.c.,
        A_f(t) = sum_w g_w(t) A_w,   g_w(t) = int_0^t C(-t') e^{i w t'} dt'.

    The filter starts at zero (no initial transient) and tends to the
    stationary Redfield filter; the generator is not completely positive, so
    the positivity monitor is active but non-fatal.  The filter comes from
    ``ore_filter`` and its error is recorded as ``filter_quad_error``.
    """
    from .operators import eigensystem
    from .generators import decompose_coupling

    H = H if isinstance(H, HermitianOperator) else HermitianOperator(H)
    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    if rho0.dim != H.dim:
        raise ValueError("initial state dimension does not match generator")
    if jd is None:
        jd = decompose_coupling(eigensystem(H), A)
    grid = np.asarray(grid, dtype=float)
    g, filter_error = ore_filter(jd, bath, grid[-1])

    n = H.dim ** 2
    H_r = to_real_superop(hamiltonian_superop(H.entries))
    # L(t) = L_H + sum_w g_w(t) M_w + conj(g_w(t)) N_w with
    # M_w rho = A rho A_w - rho A_w A and N_w rho = A_w^+ rho A - A A_w^+ rho,
    # i.e. L_H + sum_w Re g_w(t) (M_w + N_w) + Im g_w(t) i (M_w - N_w), both
    # of which preserve Hermiticity.  With M'_w = Q M_w Q^+, N_w becomes
    # conj(M'_w): the rows of ``stack`` are every 2 Re M'_w, then every
    # -2 Im M'_w
    M, N = np.moveaxis(np.array([redfield_halves(A.entries, Aw) for Aw in jd.operators]), 1, 0)
    stack = to_real_superop(np.concatenate((M + N, 1j * (M - N)))).reshape(-1, n * n)

    def generator(t):
        gt = g(t)
        return H_r + (np.concatenate((gt.real, gt.imag), axis=-1) @ stack).reshape(-1, n, n)

    meta = {"equation_kind": "ore", "filter_quad_error": filter_error}
    return _evolve_real(_integrate_cfm4, generator, rho0, grid, meta)


# ---------------------------------------------------------------------------
# time-dependent coarse-grained generator
# ---------------------------------------------------------------------------

def td_cgme_superoperator(sched: "drv.DriveSchedule", A, bath, t: float, T_a: float,
                          lambless: bool = False, quadrature_order: int = 32,
                          grid_order: int = 24) -> Superoperator:
    """Assemble the time-dependent coarse-grained generator at time t:

        L(t) rho = -i[H(t) + H_LS(t), rho]
                   + int d_eps (A_eps(t) rho A_eps(t)^+ - 1/2 {A_eps^+ A_eps, rho})

    with the frequency integral discretized on a composite Gauss grid of
    order ``grid_order``.  The window's Heisenberg stack A(t + t1, t) is built
    once at ``quadrature_order`` nodes per panel; every A_eps is one row of
    the (eps x node) phase contraction with it, and ``vectorize_generator``
    sums the dissipator over eps with one matrix product.  The Lamb shift
    uses ``td_lamb`` at its own default order 16; ``quadrature_order`` does
    not reach it.
    """
    from .generators import _epsilon_grid

    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    eps_nodes, eps_weights = _epsilon_grid(bath, T_a, order=grid_order)
    L = drv.td_a_epsilon(sched, A.entries, bath, t, eps_nodes, T_a, quadrature_order)
    H_eff = np.asarray(sched.hamiltonian_at(t), dtype=complex)
    if not lambless:
        H_eff = H_eff + drv.td_lamb(sched, A.entries, bath, t, T_a).entries
    return vectorize_generator(H_eff, zip(eps_weights, L))


# ---------------------------------------------------------------------------
# trajectory analysis
# ---------------------------------------------------------------------------

def positivity_crossing(res: EvolutionResult, tol: float = 1e-8,
                        resolution: float | None = None):
    """First time the minimum state eigenvalue drops below -tol, or None.

    Refined between neighboring grid points by bisection on the dense
    solution; default resolution is 1e-3 of the grid span (callers working in
    units of a decoherence time should pass 1e-3 * tau_SB).
    """
    below = np.nonzero(res.min_eigenvalue < -tol)[0]
    if len(below) == 0:
        return None
    i = int(below[0])
    if i == 0 or res.dense is None:
        return float(res.times[i])
    if resolution is None:
        resolution = 1e-3 * (res.times[-1] - res.times[0])

    d = res.dim

    def min_eig(t):
        rho = np.asarray(res.dense(t)).reshape(d, d, order="F")
        return float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())

    lo, hi = float(res.times[i - 1]), float(res.times[i])
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if min_eig(mid) < -tol:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def trace_distance_series(res_a: EvolutionResult, res_b: EvolutionResult):
    """Per-time trace distance ||rho_a(t) - rho_b(t)||_1 and its time average
    (trapezoid rule divided by the grid span)."""
    if len(res_a.times) != len(res_b.times) or np.max(np.abs(res_a.times - res_b.times)) > 1e-12:
        raise ValueError("trajectories must share one time grid")
    series = _trace_norms(res_a.states - res_b.states)
    span = res_a.times[-1] - res_a.times[0]
    average = float(np.trapezoid(series, res_a.times) / span) if span > 0 else float(series[0])
    return series, average
