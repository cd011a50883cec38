"""Density-matrix time integration and trajectory monitors.

Integrates any vectorized generator (constant or time-dependent), the
time-local equation whose filter integral grows with t (the pre-limit form of
the Redfield equation), and assembles the time-dependent coarse-grained
generator from the driving machinery.  Every trajectory carries per-point
monitors: trace deviation, Hermiticity deviation, and minimum eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp, cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .operators import (
    DensityMatrix,
    HermitianOperator,
    Superoperator,
    hamiltonian_superop,
    trace_norm,
    _sandwich,
    _left,
    _right,
)
from .generators import GeneratorSet, JumpDecomposition
from . import driving as drv

__all__ = [
    "IntegratorConfig",
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


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration method and tolerances.

    ``rk45_adaptive`` uses an embedded Runge-Kutta pair with the given
    absolute/relative tolerances; ``rk4_fixed`` takes uniform steps of size
    ``step`` (used for step-halving convergence checks).
    """

    method: str = "rk45_adaptive"
    step: float | None = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in ("rk45_adaptive", "rk4_fixed"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.method == "rk4_fixed" and (self.step is None or self.step <= 0):
            raise ValueError("rk4_fixed requires step > 0")


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


def _monitors(rho: np.ndarray):
    tr = abs(np.trace(rho) - 1.0)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    sym = 0.5 * (rho + rho.conj().T)
    mineig = float(np.linalg.eigvalsh(sym).min())
    return tr, herm, mineig


def _generator_callable(gen):
    """Normalize the generator argument to (dim, matrix_fn(t), is_constant)."""
    if isinstance(gen, GeneratorSet):
        sop = gen.to_superoperator()
        return sop.dim, (lambda t, m=sop.matrix: m), True
    if isinstance(gen, Superoperator):
        return gen.dim, (lambda t, m=gen.matrix: m), True
    if callable(gen):
        probe = gen(0.0)
        mat0 = probe.matrix if isinstance(probe, Superoperator) else np.asarray(probe, complex)
        dim = int(round(math.sqrt(mat0.shape[0])))

        def fn(t):
            out = gen(t)
            return out.matrix if isinstance(out, Superoperator) else np.asarray(out, complex)

        return dim, fn, False
    raise TypeError("gen must be a GeneratorSet, Superoperator, or callable t -> matrix")


def _integrate_rk45(matrix_fn, v0, grid, cfg, constant):
    if constant:
        M = matrix_fn(0.0)

        def rhs(t, v):
            return M @ v
    else:
        def rhs(t, v):
            return matrix_fn(t) @ v

    sol = solve_ivp(
        rhs,
        (grid[0], grid[-1]),
        v0,
        method="RK45",
        t_eval=grid,
        atol=cfg.abs_tol,
        rtol=cfg.rel_tol,
        dense_output=True,
    )
    if not sol.success:
        raise ArithmeticError(f"integration failed near t = {sol.t[-1]:.6g}: {sol.message}")
    return sol.y.T, sol.sol


def _integrate_rk4(matrix_fn, v0, grid, cfg, constant):
    M_const = matrix_fn(0.0) if constant else None

    def rhs(t, v):
        return (M_const if constant else matrix_fn(t)) @ v

    fine_t = [grid[0]]
    fine_v = [v0.copy()]
    v = v0.copy()
    for a, b in zip(grid[:-1], grid[1:]):
        n = max(1, int(math.ceil((b - a) / cfg.step - 1e-12)))
        h = (b - a) / n
        t = a
        for _ in range(n):
            k1 = rhs(t, v)
            k2 = rhs(t + h / 2, v + h / 2 * k1)
            k3 = rhs(t + h / 2, v + h / 2 * k2)
            k4 = rhs(t + h, v + h * k3)
            v = v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            fine_t.append(t)
            fine_v.append(v.copy())
    fine_t = np.array(fine_t)
    fine_v = np.array(fine_v)

    class _LinearDense:
        def __call__(self, t):
            i = np.clip(np.searchsorted(fine_t, t) - 1, 0, len(fine_t) - 2)
            w = (t - fine_t[i]) / (fine_t[i + 1] - fine_t[i])
            return (1 - w) * fine_v[i] + w * fine_v[i + 1]

    idx = np.searchsorted(fine_t, grid)
    idx = np.clip(idx, 0, len(fine_t) - 1)
    return fine_v[idx], _LinearDense()


def evolve(gen, rho0: DensityMatrix, grid, cfg: IntegratorConfig | None = None,
           metadata: dict | None = None) -> EvolutionResult:
    """Integrate d rho/dt = L(t)[rho] on the given strictly increasing grid."""
    cfg = cfg or IntegratorConfig()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    dim, matrix_fn, constant = _generator_callable(gen)
    if rho0.dim != dim:
        raise ValueError("initial state dimension does not match generator")

    v0 = rho0.entries.reshape(-1, order="F").astype(complex)
    if cfg.method == "rk45_adaptive":
        vs, dense = _integrate_rk45(matrix_fn, v0, grid, cfg, constant)
    else:
        vs, dense = _integrate_rk4(matrix_fn, v0, grid, cfg, constant)

    states = np.array([v.reshape(dim, dim, order="F") for v in vs])
    tr, herm, mineig = [], [], []
    for rho in states:
        a, b, c = _monitors(rho)
        tr.append(a)
        herm.append(b)
        mineig.append(c)
    meta = dict(metadata or {})
    if isinstance(gen, GeneratorSet):
        meta.setdefault("equation_kind", gen.kind)
        if "T_a" in gen.meta:
            meta.setdefault("T_a", gen.meta["T_a"])
    meta.setdefault("integrator", cfg.method)
    return EvolutionResult(
        times=grid,
        states=states,
        trace_deviation=np.array(tr),
        hermiticity_deviation=np.array(herm),
        min_eigenvalue=np.array(mineig),
        metadata=meta,
        dense=dense,
    )


# ---------------------------------------------------------------------------
# time-local equation with growing filter integral
# ---------------------------------------------------------------------------

def ore_filter_spline(jd: JumpDecomposition, bath, t_max: float):
    """Cubic splines of g_w(t) = int_0^t C(-t') e^{i w t'} dt' for each jump
    frequency w, tabulated by cumulative quadrature on a grid of
    ORE_POINTS_PER_TAU_B points per tau_B.

    g_w(infinity) equals the half-range transform f(-w)* used by the
    stationary Redfield filter.
    """
    ts = bath.timescales()
    tau_B = ts.tau_B
    if not np.isfinite(tau_B) or tau_B <= 0:
        raise ValueError("bath correlation time unavailable for kernel tabulation")
    h = tau_B / ORE_POINTS_PER_TAU_B
    n = int(math.ceil(t_max / h)) + 1
    tgrid = np.linspace(0.0, max(t_max, h), n + 1)
    C = np.array([bath.correlation(-x) for x in tgrid])
    splines = {}
    for w in jd.frequencies:
        integrand = C * np.exp(1j * w * tgrid)
        g = np.concatenate(([0.0], cumulative_trapezoid(integrand, tgrid)))
        splines[float(w)] = CubicSpline(tgrid, g)
    return splines


def evolve_ore(H, A, bath, rho0: DensityMatrix, grid,
               cfg: IntegratorConfig | None = None,
               jd: JumpDecomposition | None = None) -> EvolutionResult:
    """Integrate the time-local equation

        d rho/dt = -i[H, rho] + (A rho A_f(t) - rho A_f(t) A) + h.c.,
        A_f(t) = sum_w g_w(t) A_w,   g_w(t) = int_0^t C(-t') e^{i w t'} dt'.

    The filter starts at zero (no initial transient) and tends to the
    stationary Redfield filter; the generator is not completely positive, so
    the positivity monitor is active but non-fatal.
    """
    from .operators import eigensystem
    from .generators import decompose_coupling

    cfg = cfg or IntegratorConfig()
    H = H if isinstance(H, HermitianOperator) else HermitianOperator(H)
    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    if jd is None:
        jd = decompose_coupling(eigensystem(H), A)
    grid = np.asarray(grid, dtype=float)
    splines = ore_filter_spline(jd, bath, grid[-1])

    d = H.dim
    H_sop = hamiltonian_superop(H.entries)
    Amat = A.entries
    # L(t) = L_H + sum_w g_w(t) * M_w + conj(g_w(t)) * N_w with
    # M_w rho = A rho A_w - rho A_w A,  N_w rho = A_w^+ rho A - A A_w^+ rho
    blocks = []
    for w, Aw in jd.terms():
        M = _sandwich(Amat, Aw) - _right(Aw @ Amat)
        N = _sandwich(Aw.conj().T, Amat) - _left(Amat @ Aw.conj().T)
        blocks.append((float(w), M, N))

    def matrix_fn(t):
        out = H_sop.copy()
        tt = min(max(t, 0.0), grid[-1])
        for w, M, N in blocks:
            g = splines[w](tt)
            out += g * M + np.conj(g) * N
        return out

    meta = {"equation_kind": "ore", "points_per_tau_B": ORE_POINTS_PER_TAU_B}
    return evolve(matrix_fn, rho0, grid, cfg, metadata=meta)


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
    the (eps x node) phase contraction with it, and the dissipator is one
    weighted sum over eps.  The Lamb shift uses ``td_lamb`` at its own
    default order 16; ``quadrature_order`` does not reach it.
    """
    from .generators import _epsilon_grid

    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    eps_nodes, eps_weights = _epsilon_grid(bath, T_a, order=grid_order)
    d = sched.dim
    L = drv.td_a_epsilon(sched, A.entries, bath, t, eps_nodes, T_a, quadrature_order)
    Lc = L.conj()
    # sum_eps w (conj(L) kron L) and sum_eps w L^+ L
    mat = np.einsum("e,eab,eij->aibj", eps_weights, Lc, L).reshape(d * d, d * d)
    LdL = np.einsum("e,eba,ebc->ac", eps_weights, Lc, L)
    mat -= 0.5 * (_left(LdL) + _right(LdL))
    H_eff = np.asarray(sched.hamiltonian_at(t), dtype=complex)
    if not lambless:
        H_eff = H_eff + drv.td_lamb(sched, A.entries, bath, t, T_a).entries
    mat += hamiltonian_superop(H_eff)
    return Superoperator(mat, d)


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
    series = np.array([
        trace_norm(ra - rb) for ra, rb in zip(res_a.states, res_b.states)
    ])
    span = res_a.times[-1] - res_a.times[0]
    average = float(np.trapezoid(series, res_a.times) / span) if span > 0 else float(series[0])
    return series, average
