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

Every exponential is one numpy kernel, ``_expm_taylor``: the scaled Taylor
series exp(X) B = T_m(X/s)^s B of Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 488 (2011), applied either to a state, term by term, or to the
identity, where T_m(X/s) takes the ~2 sqrt(m) products of Paterson &
Stockmeyer, SIAM J. Comput. 2, 60 (1973), and exp(X) = T_m(X/s)^s is formed
by squaring, so its cost grows with log2 ||X||_1.  A constant generator's
step h that recurs u times on the grid is formed once, on the identity,
when that costs less than applying it to the state at each of its u uses;
``_forms_first`` prices both sides with numpy's cost per call counted
(PRODUCT_OVERHEAD), which forms from u = 1-2 for n = d^2 <= 64
coordinates.  CFM4 needs every substep's propagator and forms the kernel
on a stacked identity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

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
from .baths import kinks
from .generators import (
    GeneratorSet, JumpDecomposition, _lindblad_from_kossakowski, _require_cp_admissible)
from .quadrature import MAX_PANELS, chunks, cumulative, panel_edges
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
# theta_m, the largest ||X||_1 for which the degree-m Taylor polynomial of
# exp(X) has a backward error of at most TAYLOR_TOL = 2^-53: Higham,
# Functions of Matrices (2008), Table A.3 (m <= 30), and Al-Mohy & Higham
# (2011), Table 3.1 (m >= 35)
TAYLOR_TOL = 2.0 ** -53
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# the cost of one of the kernel's products or block sums beyond its own
# multiply-adds, in multiply-adds: ~8 us at the ~17e9 multiply-adds/s the BLAS
# runs on n = 64 and 256 (2-core x86-64 Xeon, OpenBLAS); a Taylor term on a
# vector takes ~2 us at n <= 64 and ~10 us at n = 256, below the BLAS rate
PRODUCT_OVERHEAD = 1.3e5


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


def _taylor_degree(norm: float, squaring: bool = False):
    """The degree m and scaling s of the Taylor kernel for ||X||_1 = norm,
    with norm / s <= theta_m.  Applied to a state, the s steps of m
    products are chosen at the fewest products m s; the costs are compared
    as floats and only the chosen s is made an integer, so no norm
    overflows the m = 1 entry, and a tie goes to the smaller m.  Formed on
    the identity and squared log2 s times, s is the smallest power of two
    with norm / s <= theta_55 and m the smallest degree that then reaches:
    each squaring can double the relative rounding error, and choosing the
    fewest products m - 1 + log2 s instead squares ten times at norm 50,
    and was 10-30 times less accurate there against a 40-digit exponential.
    X = 0 takes (0, 1).  A non-finite X takes one term, which carries it
    into the result for the caller to detect."""
    if norm == 0.0 or not math.isfinite(norm):
        return int(norm != 0.0), 1
    m = np.fromiter(TAYLOR_THETA, dtype=int)
    theta = np.fromiter(TAYLOR_THETA.values(), dtype=float)
    if squaring:
        s = 1
        while norm / s > theta[-1]:
            s *= 2
        return int(m[np.argmax(theta >= norm / s)]), s
    with np.errstate(over="ignore"):
        s = np.ceil(norm / theta)
    k = int(np.argmin(m * s))
    return int(m[k]), int(s[k])


@lru_cache(maxsize=None)
def _ps_plan(m: int):
    """The Paterson-Stockmeyer evaluation of T_m - I = sum_i (Y^p)^i B_i,
    B_i = sum_(k=1..p) c_(ip+k) Y^k, m >= 1: its block size p, its
    (p - 1) + ceil(m / p) - 1 matrix products (the powers up to Y^p, then
    Horner's rule in Y^p), its ceil(m / p) block sums and the read-only
    coefficients c_j = 1/j!, zero past m.  p is the smallest with the
    fewest products: m = 16 takes p = 4, 6 products and 4 block sums, where
    the term-by-term series took 15 products."""
    p = min(range(1, m + 1), key=lambda p: p - 1 - (-m // p))
    blocks = -(-m // p)
    c = np.zeros(blocks * p + 1)
    c[:m + 1] = [1.0 / math.factorial(j) for j in range(m + 1)]
    c.setflags(write=False)
    return p, p + blocks - 2, blocks, c


def _diagonal(X):
    """A writable view of the diagonal of every matrix in the stack X."""
    return np.einsum("...ii->...i", X)


def _forms_first(norm: float, n: int, uses: int, norm_formed: float | None = None) -> bool:
    """Whether exp(X), n x n with ||X - tr(X)/n||_1 = norm, costs less
    formed once on the identity and then multiplied into ``uses`` vectors,
    the products and block sums of ``_ps_plan`` and log2 s squarings with
    (m, s) for squaring and ``uses`` matrix-vector products, than applied
    to each vector, uses s m matrix-vector products with its own (m, s).
    ``norm_formed`` is the 1-norm of the exponent that is formed, when it
    differs (a reused one is unshifted).  A product costs its n^3 or n^2
    multiply-adds, a block sum its p n^2, and each PRODUCT_OVERHEAD
    more.  On the Davies generators of the 2-, 3- and 4-qubit Pauli ladder
    (||X||_1 ~ 4) this forms from uses = 1, 2 and ~26 at n = 16, 64 and
    256; timed, forming wins from uses = 1, 2 and 20-28."""
    m, s = _taylor_degree(norm)
    m_id, s_id = _taylor_degree(norm if norm_formed is None else norm_formed, squaring=True)
    p, products, blocks, _ = _ps_plan(max(m_id, 1))
    product, matvec = n ** 3 + PRODUCT_OVERHEAD, n ** 2 + PRODUCT_OVERHEAD
    block = p * n ** 2 + PRODUCT_OVERHEAD
    formed = (products + math.log2(s_id)) * product + blocks * block + uses * matvec
    return formed <= uses * m * s * matvec


def _taylor_series(X, B, m, s):
    """T_m(X/s) B for a vector B, term by term, and the number of
    matrix-vector products it took.  The series stops once two consecutive
    terms fall below TAYLOR_TOL of the partial sum, in max-abs entries;
    the terms' running bound is tested first, so the partial sum's entries
    are only read once that bound passes."""
    term, F = B, B.astype(np.result_type(X, B))
    c1 = bound = float(np.abs(B).max())
    products = 0
    for j in range(1, m + 1):
        term = X @ term
        term /= s * j
        products += 1
        F += term
        c2 = float(np.abs(term).max())
        bound += c2
        if (c1 + c2 <= TAYLOR_TOL * bound
                and c1 + c2 <= TAYLOR_TOL * float(np.abs(F).max())):
            break
        c1 = c2
    return F, products


def _taylor_polynomial(X, m, s):
    """T_m(X/s) for an (..., n, n) stack X, m >= 1, and the number of
    matrix products it took, by ``_ps_plan``: the powers Y ... Y^p of
    Y = X/s in one (p, ..., n, n) array, and each block one contraction of
    a coefficient row with it.  The identity is added last, so where the
    exponent's first row is zero (a trace-preserving one), that row of
    T_m - I is exactly zero."""
    p, products, blocks, c = _ps_plan(m)
    powers = np.empty((p,) + X.shape, dtype=X.dtype)
    np.divide(X, s, out=powers[0])
    for k in range(1, p):
        np.matmul(powers[k - 1], powers[0], out=powers[k])
    flat = powers.reshape(p, X.size)
    F = (c[(blocks - 1) * p + 1:] @ flat).reshape(X.shape)
    for i in range(blocks - 2, -1, -1):
        F = F @ powers[-1]
        F += (c[i * p + 1:(i + 1) * p + 1] @ flat).reshape(X.shape)
    _diagonal(F)[...] += 1.0
    return F, products * X[..., 0, 0].size


def _expm_taylor(X, B=None, reused=False):
    """exp(X) B for X an (n, n) float or complex matrix and B a vector of n
    coordinates, or exp(X) itself for B None and X an (n, n) matrix or an
    (..., n, n) stack, and the number of matrix and matrix-vector products
    it took.  X is shifted in place: every caller passes a temporary, so
    no shifted copy of a stack is held beside it.

    Al-Mohy & Higham (2011): X is shifted by mu = tr X / n, and (m, s) come
    from ``_taylor_degree`` at the largest ||X - mu||_1 of the stack.  On a
    vector, each of the s steps is B <- e^(mu/s) T_m((X - mu)/s) B, summed
    term by term, unless ``_forms_first`` finds exp(X) cheaper to form for
    this one use.  exp(X) itself is (e^(mu/s) T_m((X - mu)/s))^s, s a power
    of two, by ``_taylor_polynomial`` and squaring.

    A ``reused`` exp(X), a propagator taken on many steps, is formed
    unshifted: the shift's factor e^(mu/s) rounds every entry, and a
    trace-preserving trajectory carries that into its trace on each reuse.
    With the identity added last, the median largest trace deviation of
    216 benchmark-model Davies, Redfield and CGME trajectories (129 to 4,001
    points) read 6.9e-15, and 7.0e-15 with the term-by-term series and
    Kahan's compensated sum."""
    n = X.shape[-1]
    mu = np.zeros(X.shape[:-2]) if reused else np.trace(X, axis1=-2, axis2=-1) / n
    _diagonal(X)[...] -= mu[..., None]
    norm = float(np.max(np.abs(X).sum(axis=-2)))
    if B is not None and not _forms_first(norm, n, 1):
        m, s = _taylor_degree(norm)
        eta, products = np.exp(mu / s), 0
        for _ in range(s):
            B, count = _taylor_series(X, B, m, s)
            B *= eta
            products += count
        return B, products
    m, s = _taylor_degree(norm, squaring=True)
    F, products = _taylor_polynomial(X, max(m, 1), s)
    F *= np.exp(mu / s)[..., None, None]
    for _ in range(s.bit_length() - 1):
        F = F @ F
        products += X[..., 0, 0].size
    if B is None:
        return F, products
    return F @ B, products + 1


def _propagate_expm(matrix_fn, v0, grid):
    """Exact propagation of dv/dt = M v for a constant M by exp(M h) for
    every distinct step h (steps within STEP_RTOL of each other share one).
    A step used u times is formed once, on the identity and as a reused
    propagator, when ``_forms_first`` finds that cheaper than
    applying it to the state at each use (without scaling, when u >= n =
    len(v0)); otherwise it is applied to the state at each use.  The dense
    output exp(M (t - t_i)) v_i from the last grid point t_i <= t is a
    single use of the kernel on v_i.  ``matrix_fn()`` returns M; a
    ``GeneratorSet`` is vectorized on each call rather than kept, so the
    dense output of a stored result does not hold a d^2 x d^2 matrix."""
    M = matrix_fn()
    n = len(v0)
    # the 1-norms at h = 1 of the exponent the kernel applies (shifted) and
    # of the one it forms for reuse (unshifted)
    norm = float(np.abs(M - np.trace(M) / n * np.eye(n)).sum(axis=0).max())
    norm_formed = float(np.abs(M).sum(axis=0).max())
    steps = np.diff(grid)
    reps, which = [], np.empty(len(steps), dtype=int)
    for k in np.argsort(steps, kind="stable"):
        if not reps or steps[k] - reps[-1] > STEP_RTOL * steps[k]:
            reps.append(steps[k])
        which[k] = len(reps) - 1
    props, products = [], 0
    for h, uses in zip(reps, np.bincount(which)):
        P = None
        if _forms_first(h * norm, n, uses, h * norm_formed):
            P, count = _expm_taylor(M * h, reused=True)
            products += count
        props.append(P)
    vs = np.empty((len(grid), n), dtype=np.result_type(M, v0))
    vs[0] = v0
    for i, j in enumerate(which):
        if props[j] is None:
            vs[i + 1], count = _expm_taylor(M * reps[j], vs[i])
            products += count
        else:
            vs[i + 1] = props[j] @ vs[i]

    def dense(t):
        i = int(np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2))
        return _expm_taylor(matrix_fn() * (t - grid[i]), vs[i])[0]

    return vs, dense, {"integrator": "expm", "n_expm": len(reps), "n_products": products}


def _cfm4_substeps(L, n, t, h):
    """The CFM4 propagator of every substep [t[s], t[s] + h[s]], an
    (len(t), n, n) stack of L's dtype, and the kernel's product count, from
    one ``_expm_taylor`` call on the stacked identity.  The weighted
    exponents replace the L(t) stack and die on return.  On a full chunk
    of ``_cfm4_propagators`` (2^15 entries of L(t), 4 x 4 states) the
    ``tracemalloc`` peak of this call, the kernel included, is 1.75 MiB for
    a real callable (the kernel holds the exponents, their powers, the
    Horner sum and a block) and 2.38 MiB for a column-stacked callable that
    ``evolve`` wraps in ``to_real_superop``: its complex stack and the
    transform's gathers live beside the real one."""
    X = np.asarray(L((t[:, None] + h[:, None] * CFM4_NODES).ravel()))
    X = CFM4_WEIGHTS @ X.reshape(-1, 2, n * n)
    X *= h[:, None, None]
    E, products = _expm_taylor(X.reshape(-1, 2, n, n))
    return E[:, 1] @ E[:, 0], products


def _cfm4_propagators(L, n, t0, widths, counts):
    """CFM4 propagator over [t0[i], t0[i] + widths[i]] in counts[i] equal
    substeps, for every i: an (len(t0), n, n) stack, and the exponential
    kernel's product count.  The substeps run in the quadrature layer's
    chunks of matrix entries; each substep's propagator multiplies its
    interval's from the left; a chunk holds 4 n^2 entries per substep, room
    for the kernel's powers."""
    which = np.repeat(np.arange(len(counts)), counts)
    h = np.repeat(widths / counts, counts)
    # the position of every substep within its interval
    pos = np.arange(len(h)) - np.repeat(np.cumsum(counts) - counts, counts)
    t = np.repeat(t0, counts) + pos * h
    props, products = None, 0
    for k in chunks(len(h), 4 * n * n):
        P, count = _cfm4_substeps(L, n, t[k], h[k])
        products += count
        if props is None:
            props = np.empty((len(counts), n, n), dtype=P.dtype)
        for p in np.unique(pos[k]):
            at = np.nonzero(pos[k] == p)[0]
            j = which[k][at]
            props[j] = P[at] if p == 0 else P[at] @ props[j]
    return props, products


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
    both, products = _cfm4_propagators(L, n, np.tile(starts, 2), np.tile(widths, 2),
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
        fine[grow], count = _cfm4_propagators(L, n, starts[grow], widths[grow], counts[grow])
        computed += int(counts[grow].sum())
        products += count
    width = widths / counts

    def dense(t):
        i = int(np.clip(np.searchsorted(grid, t, side="right") - 1, 0, m))
        span = t - grid[i]
        if span == 0.0:
            return vs[i].copy()
        k = int(np.ceil(span / width[min(i, m - 1)]))
        props, _ = _cfm4_propagators(L, n, grid[i:i + 1], np.array([span]), np.array([k]))
        return props[0] @ vs[i]

    info = {"integrator": "cfm4", "n_substeps": int(counts.sum()),
            "interval_substeps": counts, "n_expm": 2 * computed,
            "n_products": products, "error_estimate": estimate}
    return vs, dense, info


def evolve(gen, rho0: DensityMatrix, grid, metadata: dict | None = None) -> EvolutionResult:
    """Integrate d rho/dt = L(t)[rho] on the given strictly increasing grid.

    L must preserve Hermiticity: the state and the generator are converted
    once, at entry, to the real coordinates of ``operators.to_real`` and
    the real matrix Q L Q^+ (ValueError if L has an imaginary part there
    beyond ``HERMITICITY_TOL``), so every state is Hermitian by construction
    and ``hermiticity_deviation`` is ~0.  A constant generator (a
    ``GeneratorSet`` or ``Superoperator``) is propagated exactly, with one
    matrix exponential per distinct step, formed once or applied to the
    state at each use (see the module docstring).  A time-dependent one is a
    callable taking a 1-D array of n times to the (n, d^2, d^2) stack of
    column-stacked generator matrices; it runs on CFM4 substeps, doubled in
    each grid interval whose local error estimate is too large until the
    estimates sum to at most CFM4_TOL.  ``res.dense(t)`` returns the
    column-stacked state at t.

    ``metadata`` records the integrator that ran (``expm`` or ``cfm4``), its
    cost (``n_expm`` exponentials: one per distinct step, or two per CFM4
    substep computed; ``n_products``, the matrix and matrix-vector products
    the exponential kernel ran; for CFM4 also the accepted substeps, in all
    (``n_substeps``) and per grid interval (``interval_substeps``), and the
    ``error_estimate``, the sum of the intervals' local estimates) and
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
    halving.  g evaluates no C(t): it holds the integrand on the converged
    grid, panels x 16 x n_w complex (0.82 MiB for the 13 frequencies of
    the benchmark model on [0, 25.6]), and integrates its interpolant over
    the partial panel.

    The integrand takes one exponential column per distinct |w| (7 for the
    13 frequencies of the benchmark model: 0 and six +-w pairs), as
    ``generators._cgme_coefficients`` does, and conjugates the columns of
    w < 0 in place; C(-t') is the first operand of the product, whose
    rounding depends on the operand order.  The filter is bit-identical to
    the one that took e^{i w t'} for every column.

    The starting panels (``quadrature.panel_edges``) are cut at the bath's
    kinks and resolve the fastest of e^{i w t'} and of the bath's own
    frequency scale.  g_w(infinity) equals the half-range transform f(-w)*
    used by the stationary Redfield filter.
    """
    w = np.asarray(jd.frequencies, dtype=float)
    rate = max(float(np.max(np.abs(w), initial=0.0)), bath._initial_radius())
    edges = panel_edges([0.0, t_max, *kinks(bath, 0.0, t_max)], rate)
    mags, column = np.unique(np.abs(w), return_inverse=True)
    negative = np.flatnonzero(w < 0)

    def integrand(t):
        # C-ordered columns (a fancy index would give F order, which moves
        # the last bits of the sums over them); e^{-i|w|t'} = conj(e^{i|w|t'})
        phase = np.take(np.exp(1j * np.multiply.outer(t, mags)), column, axis=1)
        phase.imag[:, negative] *= -1.0
        # a fresh product: writing it into ``phase`` raised the peak RSS of
        # a ta_sweep_2q benchmark round by ~0.1 MB
        return np.asarray(bath.correlation(-t), dtype=complex)[:, None] * phase

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
    M, N = redfield_halves(A.entries, np.asarray(jd.operators))
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
                          grid_order: int | None = None) -> Superoperator:
    """Assemble the time-dependent coarse-grained generator at time t:

        L(t) rho = -i[H(t) + H_LS(t), rho]
                   + sum_jk K_jk (A_j rho A_k - 1/2 {A_k A_j, rho}),
        K_jk = w_j w_k C(tau_k - tau_j) / T_a,

    the double window integral of Majenz et al., PRA 88, 012103 (2013), on
    the window's Gauss nodes tau_j and weights w_j at ``quadrature_order``
    per panel, A_j = A(t + tau_j, t).  C is evaluated once on the node
    differences; that matrix gives the Kossakowski matrix on the matrix
    units, diagonalized into Lindblad terms as in the stationary CGME, and
    the Lamb shift of ``td_lamb``, so ``quadrature_order`` reaches H_LS.
    ``grid_order`` is ignored and deprecated.  A bath that is not
    CP-admissible raises ValueError.
    """
    if grid_order is not None:
        warnings.warn("grid_order is ignored", DeprecationWarning, stacklevel=2)
    _require_cp_admissible(bath)
    A = (A if isinstance(A, HermitianOperator) else HermitianOperator(A)).entries
    win = drv._sliding_window(sched, A, t, T_a, quadrature_order)
    Cm = win.correlation(bath)
    units = np.eye(A.size).reshape(-1, *A.shape)
    ops, _ = _lindblad_from_kossakowski(units, win.kossakowski(Cm, T_a))
    H_eff = np.asarray(sched.hamiltonian_at(t), dtype=complex)
    if not lambless:
        H_eff = H_eff + drv._lamb_shift(win, A, bath, T_a, Cm)
    return vectorize_generator(H_eff, ops)


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
