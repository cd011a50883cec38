"""Error-bound formulas, coarse-graining-time optimization, and generator-norm sampling.

This module turns the package's a-priori error analysis into numbers: closed-form
upper bounds on the trace-norm distance between the exact reduced dynamics and the
states produced by the weak-coupling master equations, the averaging time that
minimizes the coarse-grained bound, and a Monte-Carlo estimate of the generator
norm that calibrates the exponential rate entering those bounds.

All bounds are reported with their explicit-constant part only; remainder terms
whose constants are not known are surfaced in a named field and never silently
added to the value.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .baths import Bath, BathTimescales
from .evolve import ore_filter
from .generators import JumpDecomposition, decompose_coupling
from .operators import HermitianOperator, eigensystem, _trace_norms
from .quadrature import chunks

logger = logging.getLogger(__name__)

# histogram bins of the sampled norms; the typical norm is the mode bin's centre
HISTOGRAM_BINS = 60
# the fewest samples lambda_estimate accepts
MIN_SAMPLES = 100

__all__ = [
    "BoundParams",
    "Bound",
    "LambdaEstimate",
    "optimal_ta",
    "ta_discrepancy_report",
    "lambda_estimate",
    "interaction_picture_action",
    "bound_summary",
    "strongest_bound",
    "c_bm_bound",
]


@dataclass(frozen=True)
class BoundParams:
    """Parameters entering the error bounds.

    ``lamb`` is the exponential rate Lambda of the bounds; it defaults to the
    proven value 4/tau_SB and may be tightened by a measured generator norm
    (it can only be tightened: ``c_lambda = 4/(lamb*tau_SB) >= 1`` is enforced).
    ``c_bm`` is the amplification constant of the reference trajectory, either
    measured or obtained from :func:`c_bm_bound`.  ``epsilon_t`` is the relative
    tail weight of the bath correlation function beyond the integration cutoff.
    """

    tau_b: float
    tau_sb: float
    t_a: float
    lamb: Optional[float] = None
    c_bm: float = 1.0
    epsilon_t: float = 0.0

    def __post_init__(self) -> None:
        if self.tau_b < 0 or self.tau_sb <= 0 or self.t_a <= 0:
            raise ValueError("tau_b must be >= 0 and tau_sb, t_a must be > 0")
        if self.lamb is None:
            object.__setattr__(self, "lamb", 4.0 / self.tau_sb)
        if self.lamb <= 0:
            raise ValueError("lamb must be positive")
        if self.c_lambda < 1.0 - 1e-12:
            raise ValueError(
                "lamb exceeds the proven generator-norm bound 4/tau_sb; "
                "a measured rate may only tighten it"
            )
        if self.c_bm < 1.0:
            raise ValueError("c_bm must be >= 1")
        if not 0.0 <= self.epsilon_t < 1.0:
            raise ValueError("epsilon_t must lie in [0, 1)")

    @property
    def c_lambda(self) -> float:
        """Tightening factor 4/(Lambda tau_SB) >= 1 of the measured rate."""
        return 4.0 / (self.lamb * self.tau_sb)


def optimal_ta(bp: BoundParams, variant: str = "theory") -> float:
    """Averaging time minimizing the leading coarse-graining error.

    ``theory`` evaluates sqrt(tau_SB tau_B / 5); ``adjusted`` rescales by the
    measured generator norm, sqrt(c_lambda tau_SB tau_B / 5).
    """
    if variant == "theory":
        return math.sqrt(bp.tau_sb * bp.tau_b / 5.0)
    if variant == "adjusted":
        return math.sqrt(bp.c_lambda * bp.tau_sb * bp.tau_b / 5.0)
    raise ValueError(f"unknown variant {variant!r}; expected 'theory' or 'adjusted'")


def ta_discrepancy_report(bp: BoundParams, reported_value: float = 0.97) -> Mapping[str, float]:
    """Compare the optimal-averaging-time formula with a quoted reference value.

    The benchmark literature quotes 0.97 for tau_B = 0.69, tau_SB = 10 while the
    formula sqrt(tau_B tau_SB / 5) gives 1.175.  This report surfaces both
    numbers and the tau_B that would reconcile them, without resolving the
    discrepancy either way.
    """
    formula_value = optimal_ta(bp, "theory")
    reconciling_tau_b = 5.0 * reported_value**2 / bp.tau_sb
    return {
        "formula_value": formula_value,
        "reported_value": reported_value,
        "ratio": formula_value / reported_value,
        "tau_b_reconciling": reconciling_tau_b,
        "tau_b_used": bp.tau_b,
    }


def interaction_picture_action(
    jd: JumpDecomposition, g: Callable[[np.ndarray], np.ndarray]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Action of the dissipative generator in the interaction picture.

    Returns a callable ``(X, t) -> A(t) X Af(t) - X Af(t) A(t) + h.c.`` where
    ``A(t)`` is the Heisenberg-rotated coupling and ``Af(t)`` the filtered
    coupling built from the running kernel integrals ``g(t)[..., k]`` of
    ``jd.frequencies[k]`` (see ``ore_filter``).  It broadcasts over a
    stack of X of shape (..., d, d) with t of shape (...).
    """
    w = np.asarray(jd.frequencies, dtype=float)
    ops = np.array(jd.operators, dtype=complex).reshape(len(w), jd.dim, jd.dim)

    def action(x: np.ndarray, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        phase = np.exp(-1j * np.multiply.outer(t, w))
        a_t = np.einsum("...k,kij->...ij", phase, ops)
        af_t = np.einsum("...k,kij->...ij", phase * g(t), ops)
        x_af = x @ af_t
        half = a_t @ x_af - x_af @ a_t
        return half + np.swapaxes(half.conj(), -1, -2)

    return action


@dataclass(frozen=True)
class LambdaEstimate:
    """Result of generator-norm sampling; ``filter_quad_error`` is the error
    estimate of the filter integrals the generator was built from."""

    max_norm: float
    typical_norm: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    bound: float
    n_samples: int
    filter_quad_error: float


def _ginibre_draws(rng, n_samples: int, dim: int, t_lo: float, t_hi: float):
    """The test matrices and times of ``lambda_estimate``: (X, t, live).

    The Gaussian scale cancels under trace-norm normalization, so a standard
    complex Ginibre draw G = a + ib symmetrized to (G + G^dagger)/2
    realizes the ensemble.  Draws stay in per-sample order (a and b in one
    call, then t unless X = 0, i.e. unless a + a^T = 0 and b - b^T = 0);
    X = 0 leaves t = 0 and ``live`` False.  The symmetrization runs on the
    whole stack."""
    z = np.empty((n_samples, 2, dim, dim))
    ts = np.zeros(n_samples)
    live = np.ones(n_samples, dtype=bool)
    normal, uniform = rng.standard_normal, rng.uniform
    for k, zk in enumerate(z):
        normal(out=zk)
        # a_00 != 0 already makes a + a^T nonzero
        if zk[0, 0, 0] == 0.0:
            a, b = zk
            if not ((a + a.T).any() or (b - b.T).any()):
                live[k] = False
                continue
        ts[k] = uniform(t_lo, t_hi)
    a, b = z[:, 0], z[:, 1]
    xs = np.empty((n_samples, dim, dim), dtype=complex)
    xs.real = a + a.transpose(0, 2, 1)
    xs.imag = b - b.transpose(0, 2, 1)
    xs /= 2.0
    return xs, ts, live


def lambda_estimate(
    hamiltonian: HermitianOperator,
    coupling: HermitianOperator,
    bath: Bath,
    n_samples: int = 10_000,
    rng_seed: int = 0,
    time_interval: Optional[Tuple[float, float]] = None,
    timescales: Optional[BathTimescales] = None,
) -> LambdaEstimate:
    """Sample the trace-norm of the dissipative generator on random test matrices.

    Hermitian test matrices are drawn from the Gaussian unitary ensemble with
    density proportional to exp(-2^(n-1) Tr X^2), normalized to unit trace norm,
    and the generator is applied at times drawn uniformly from ``time_interval``
    (default [0, 2.56 tau_SB]).  Returns the sample maximum, the histogram mode
    as the typical value, the proven bound 4/tau_SB and the error estimate of
    the filter integrals (``ore_filter``).  Deterministic under a fixed
    seed.  ``timescales`` supplies tau_SB; the default ``bath.timescales()``
    has an infinite cutoff, which an Ohmic bath refuses.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
    ts = timescales or bath.timescales()
    if time_interval is None:
        time_interval = (0.0, 2.56 * ts.tau_SB)
    t_lo, t_hi = time_interval
    if not 0.0 <= t_lo < t_hi:
        raise ValueError("time_interval must satisfy 0 <= t_lo < t_hi")

    jd = decompose_coupling(eigensystem(hamiltonian), coupling)
    g, filter_error = ore_filter(jd, bath, t_hi)
    action = interaction_picture_action(jd, g)

    dim = hamiltonian.dim
    xs, ts_sample, live = _ginibre_draws(np.random.default_rng(rng_seed), n_samples,
                                         dim, t_lo, t_hi)
    xs, ts_sample = xs[live], ts_sample[live]
    xs /= _trace_norms(xs)[:, None, None]
    # the action in chunks of (sample x frequency x entry) terms, the size
    # of the filter evaluator's own chunks
    found = np.empty(len(xs))
    for k in chunks(len(xs), len(jd.frequencies) * dim * dim):
        found[k] = _trace_norms(action(xs[k], ts_sample[k]))
    norms = np.zeros(n_samples)
    norms[live] = found

    counts, edges = np.histogram(norms, bins=HISTOGRAM_BINS)
    mode_bin = int(np.argmax(counts))
    typical = 0.5 * (edges[mode_bin] + edges[mode_bin + 1])
    return LambdaEstimate(
        max_norm=float(np.max(norms)),
        typical_norm=float(typical),
        histogram_counts=counts,
        histogram_edges=edges,
        bound=4.0 / ts.tau_SB,
        n_samples=n_samples,
        filter_quad_error=filter_error,
    )


@dataclass(frozen=True)
class Bound:
    """A named error bound value with any unquantified remainder recorded."""

    value: float
    unquantified_remainder: Optional[str] = None


def bound_summary(
    bp: BoundParams, t: float, delta_e: Optional[float] = None
) -> Mapping[str, Bound]:
    """Evaluate the closed-form a-priori error bounds at time ``t``.

    Returns a map with keys ``cgme_simple``, ``cgme_detailed``, ``redfield_log``
    and, when the minimum level spacing ``delta_e`` is supplied, ``davies``.
    Remainder terms with unknown constants are recorded, never added.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    r = bp.tau_b / bp.tau_sb
    e4 = math.exp(4.0 * t / bp.tau_sb)
    e8 = math.exp(8.0 * t / bp.tau_sb)

    out = {}
    out["cgme_simple"] = Bound(
        value=13.0 * math.sqrt(r) * math.exp(6.0 * t / bp.tau_sb),
        unquantified_remainder="overall constant absorbs subleading orders in tau_b/tau_sb",
    )
    out["cgme_detailed"] = Bound(
        value=13.0 * e4 * math.sqrt(r) * (1.0 + 29.0 * r * e8)
        + (e4 - 1.0) * e8 * r * 12.0,
        unquantified_remainder="term of order exp(4t/tau_sb)*tau_b/tau_sb inside the "
        "quadratic coefficient omitted",
    )
    if bp.tau_b == 0.0:
        bracket = 0.0
    else:
        bracket = 4.0 * r * (
            1.0
            + 1.0 / math.e
            + max(math.log(bp.tau_sb * (1.0 - bp.epsilon_t) / (4.0 * bp.tau_b)), 0.0)
        )
    out["redfield_log"] = Bound(
        value=bp.c_bm * e4 * (bracket + bp.epsilon_t),
        unquantified_remainder=None,
    )
    if delta_e is not None:
        if delta_e <= 0:
            raise ValueError("delta_e must be positive")
        out["davies"] = Bound(
            value=(r + 1.0 / math.sqrt(bp.tau_sb * delta_e))
            * math.exp(12.0 * t / bp.tau_sb),
            unquantified_remainder="overall prefactor unquantified",
        )
    return out


def _b2_small(bp: BoundParams, t: float) -> float:
    """Amplification bound on [0, T_a/2] with b2(0) = 0."""
    lam, ta, c = bp.lamb, bp.t_a, bp.c_bm
    return 4.0 * c * t / ta + c * (4.0 - 2.0 * lam * ta - (lam * ta / 2.0) ** 2) / (
        lam * ta
    ) * (1.0 - math.exp(lam * t))


def strongest_bound(bp: BoundParams, t: float) -> float:
    """Tightest available coarse-graining error bound that starts at zero.

    Combines the piecewise amplification bound (exact on [0, T_a/2], then
    exponentially continued) with the bracket bounding the term dropped to
    enforce complete positivity.  Equals 0 exactly at t = 0 and is continuous
    at t = T_a/2.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    lam, ta = bp.lamb, bp.t_a
    growth = max(math.exp(lam * (t - ta / 2.0)), 1.0)
    averaging = (_b2_small(bp, min(t, ta / 2.0)) + bp.c_bm * lam * ta / 4.0) * growth - (
        bp.c_bm * lam * ta / 4.0
    )
    cp_cut = (4.0 / (lam * bp.tau_sb)) * (
        (math.exp(lam * t) - growth)
        + (bp.tau_b / ta) * max(math.exp(lam * (t - ta / 2.0)) - 1.0, 0.0)
    )
    return averaging + cp_cut


def c_bm_bound(bp: BoundParams, t: float) -> float:
    """Upper bound >= 1 on the reference-trajectory amplification constant.

    Closed-form root of the quadratic fixed-point relation
    ``c = 1 + sqrt(X (3c + 2))`` with
    ``X = 4 c_lambda (tau_b/tau_sb) (exp(Lambda t + 1) - 3/5)^2``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    x = 4.0 * bp.c_lambda * (bp.tau_b / bp.tau_sb) * (
        math.exp(bp.lamb * t + 1.0) - 0.6
    ) ** 2
    return 1.0 + 0.5 * (math.sqrt(20.0 * x + 9.0 * x * x) + 3.0 * x)
