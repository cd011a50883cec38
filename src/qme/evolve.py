"""Density-matrix time integration and trajectory monitors.

Propagates a constant vectorized generator exactly by matrix exponentials,
integrates a time-dependent one (among them the time-local equation whose
filter integral grows with t, the pre-limit form of the Redfield equation) by
adaptive Runge-Kutta, and assembles the time-dependent coarse-grained
generator from the driving machinery.  Every trajectory carries per-point
monitors: trace deviation, Hermiticity deviation, and minimum eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DensityMatrix,
    HermitianOperator,
    Superoperator,
    hamiltonian_superop,
    vectorize_generator,
    _sandwich,
    _trace_norms,
    _left,
    _right,
)
from .generators import GeneratorSet, JumpDecomposition
from . import driving as drv

__all__ = [
    "EvolutionResult",
    "evolve",
    "evolve_ore",
    "ore_filter_spline",
    "td_cgme_superoperator",
    "positivity_crossing",
    "trace_distance_series",
]

# spacing of the time-local filter tabulation: points per bath correlation time
ORE_POINTS_PER_TAU_B = 400
# grid steps closer than this (relative) share one propagator exp(M h)
STEP_RTOL = 1e-12
# RK45 tolerances for time-dependent generators (constant ones are exact)
RK45_ATOL = 1e-10
RK45_RTOL = 1e-8


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


def _generator_callable(gen):
    """Normalize the generator argument to (dim, matrix_fn(t), is_constant).

    A constant generator's matrix_fn ignores t.  A ``GeneratorSet`` is
    vectorized on each call rather than kept, so the dense output of a stored
    result does not hold a d^2 x d^2 matrix.
    """
    if isinstance(gen, GeneratorSet):
        return gen.dim, (lambda t: gen.to_superoperator().matrix), True
    if isinstance(gen, Superoperator):
        return gen.dim, (lambda t: gen.matrix), True
    if callable(gen):
        probe = gen(0.0)
        mat0 = probe.matrix if isinstance(probe, Superoperator) else np.asarray(probe, complex)
        dim = int(round(math.sqrt(mat0.shape[0])))

        def fn(t):
            out = gen(t)
            return out.matrix if isinstance(out, Superoperator) else np.asarray(out, complex)

        return dim, fn, False
    raise TypeError("gen must be a GeneratorSet, Superoperator, or callable t -> matrix")


def _propagate_expm(matrix_fn, v0, grid):
    """Exact propagation of dv/dt = M v for a constant M: one expm(M h) per
    distinct step h (steps within STEP_RTOL of each other share one), and the
    dense output expm(M (t - t_i)) v_i from the last grid point t_i <= t."""
    from scipy.linalg import expm
    M = matrix_fn(0.0)
    steps = np.diff(grid)
    reps, which = [], np.empty(len(steps), dtype=int)
    for k in np.argsort(steps, kind="stable"):
        if not reps or steps[k] - reps[-1] > STEP_RTOL * steps[k]:
            reps.append(steps[k])
        which[k] = len(reps) - 1
    props = [expm(M * h) for h in reps]
    vs = np.empty((len(grid), len(v0)), dtype=complex)
    vs[0] = v0
    for i, j in enumerate(which):
        vs[i + 1] = props[j] @ vs[i]

    def dense(t):
        i = int(np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2))
        return expm(matrix_fn(t) * (t - grid[i])) @ vs[i]

    return vs, dense, {"integrator": "expm", "n_expm": len(props)}


def _integrate_rk45(matrix_fn, v0, grid):
    from scipy.integrate import solve_ivp
    sol = solve_ivp(
        lambda t, v: matrix_fn(t) @ v,
        (grid[0], grid[-1]),
        v0,
        method="RK45",
        t_eval=grid,
        atol=RK45_ATOL,
        rtol=RK45_RTOL,
        dense_output=True,
    )
    if not sol.success:
        raise ArithmeticError(f"integration failed near t = {sol.t[-1]:.6g}: {sol.message}")
    info = {"integrator": "rk45_adaptive", "nfev": int(sol.nfev),
            "n_steps": len(sol.sol.ts) - 1}
    return sol.y.T, sol.sol, info


def evolve(gen, rho0: DensityMatrix, grid, metadata: dict | None = None) -> EvolutionResult:
    """Integrate d rho/dt = L(t)[rho] on the given strictly increasing grid:
    a constant generator (a ``GeneratorSet`` or ``Superoperator``) exactly,
    with one matrix exponential per distinct step, a time-dependent one (a
    callable t -> matrix) by RK45 at RK45_ATOL / RK45_RTOL.

    ``metadata`` records the integrator that ran (``expm`` or
    ``rk45_adaptive``), its cost (``n_expm`` distinct exponentials, or RK45's
    ``nfev`` and ``n_steps``) and the trajectory's health: the largest trace
    and Hermiticity deviations and the smallest eigenvalue over the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    dim, matrix_fn, constant = _generator_callable(gen)
    if rho0.dim != dim:
        raise ValueError("initial state dimension does not match generator")

    v0 = rho0.entries.reshape(-1, order="F").astype(complex)
    if constant:
        vs, dense, info = _propagate_expm(matrix_fn, v0, grid)
    else:
        vs, dense, info = _integrate_rk45(matrix_fn, v0, grid)

    # column-stacked vectors back to matrices, then the monitors on the stack
    states = np.ascontiguousarray(vs.reshape(len(grid), dim, dim).transpose(0, 2, 1))
    dag = states.conj().transpose(0, 2, 1)
    tr = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    herm = np.max(np.abs(states - dag), axis=(1, 2))
    mineig = np.linalg.eigvalsh(0.5 * (states + dag))[:, 0]
    meta = dict(metadata or {})
    if isinstance(gen, GeneratorSet):
        meta.setdefault("equation_kind", gen.kind)
        if "T_a" in gen.meta:
            meta.setdefault("T_a", gen.meta["T_a"])
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
        dense=dense,
    )


# ---------------------------------------------------------------------------
# time-local equation with growing filter integral
# ---------------------------------------------------------------------------

def ore_filter_spline(jd: JumpDecomposition, bath, t_max: float, timescales=None):
    """One vector-valued piecewise cubic (a scipy ``PPoly``) whose column k is

        g_w(t) = int_0^t C(-t') e^{i w t'} dt',   w = jd.frequencies[k],

    tabulated from one vectorized correlation call by cumulative trapezoid
    quadrature on a grid of ORE_POINTS_PER_TAU_B points per tau_B, and
    interpolated by a not-a-knot cubic spline per column.  ``timescales``
    supplies tau_B; the default ``bath.timescales()`` has an infinite cutoff,
    which an Ohmic bath refuses.

    g_w(infinity) equals the half-range transform f(-w)* used by the
    stationary Redfield filter.
    """
    from scipy.integrate import cumulative_trapezoid
    from scipy.interpolate import CubicSpline, PPoly
    tau_B = (timescales or bath.timescales()).tau_B
    if not np.isfinite(tau_B) or tau_B <= 0:
        raise ValueError("bath correlation time unavailable for kernel tabulation")
    h = tau_B / ORE_POINTS_PER_TAU_B
    n = int(math.ceil(t_max / h)) + 1
    tgrid = np.linspace(0.0, max(t_max, h), n + 1)
    C = np.asarray(bath.correlation(-tgrid), dtype=complex)
    # column by column: a 2-D table of every g_w beside the coefficients
    # would raise the peak memory above that of the separate splines
    c = np.empty((4, n, len(jd.frequencies)), dtype=complex)
    for k, w in enumerate(jd.frequencies):
        g = cumulative_trapezoid(C * np.exp(1j * w * tgrid), tgrid, initial=0)
        c[:, :, k] = CubicSpline(tgrid, g).c
    return PPoly(c, tgrid)


def evolve_ore(H, A, bath, rho0: DensityMatrix, grid,
               jd: JumpDecomposition | None = None, timescales=None) -> EvolutionResult:
    """Integrate the time-local equation

        d rho/dt = -i[H, rho] + (A rho A_f(t) - rho A_f(t) A) + h.c.,
        A_f(t) = sum_w g_w(t) A_w,   g_w(t) = int_0^t C(-t') e^{i w t'} dt'.

    The filter starts at zero (no initial transient) and tends to the
    stationary Redfield filter; the generator is not completely positive, so
    the positivity monitor is active but non-fatal.  ``timescales`` supplies
    the tau_B of the filter tabulation (see ``ore_filter_spline``).
    """
    from .operators import eigensystem
    from .generators import decompose_coupling

    H = H if isinstance(H, HermitianOperator) else HermitianOperator(H)
    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    if jd is None:
        jd = decompose_coupling(eigensystem(H), A)
    grid = np.asarray(grid, dtype=float)
    spline = ore_filter_spline(jd, bath, grid[-1], timescales)

    d = H.dim
    H_sop = hamiltonian_superop(H.entries)
    Amat = A.entries
    # L(t) = L_H + sum_w g_w(t) * M_w + conj(g_w(t)) * N_w with
    # M_w rho = A rho A_w - rho A_w A,  N_w rho = A_w^+ rho A - A A_w^+ rho;
    # the rows of ``stack`` are every M_w, then every N_w
    Ms = [_sandwich(Amat, Aw) - _right(Aw @ Amat) for Aw in jd.operators]
    Ns = [_sandwich(Aw.conj().T, Amat) - _left(Amat @ Aw.conj().T) for Aw in jd.operators]
    stack = np.array(Ms + Ns, dtype=complex).reshape(-1, d ** 4)

    def matrix_fn(t):
        g = spline(min(max(t, 0.0), grid[-1]))
        return H_sop + (np.concatenate((g, g.conj())) @ stack).reshape(d * d, d * d)

    meta = {"equation_kind": "ore", "points_per_tau_B": ORE_POINTS_PER_TAU_B}
    return evolve(matrix_fn, rho0, grid, metadata=meta)


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
