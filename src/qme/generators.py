"""Time-independent master-equation generators.

Builds, from a Hamiltonian eigensystem and a coupling operator:

- the Bohr-frequency (jump) decomposition A = sum_w A_w,
- the Redfield filtered operator A_f = sum_w f*(-w) A_w,
- Davies-Lindblad generators (one jump operator per Bohr frequency),
- coarse-grained (finite averaging time T_a) generators, in both the
  frequency form (Kossakowski matrix over Bohr pairs, diagonalized into
  Lindblad operators) and the discretized continuous-filter form.

All coarse-grained coefficient integrals reduce the filter overlap

    gamma_{w w'} = integral f(eps, w) f(eps, -w') d eps,
    f(eps, w) = sqrt(gamma(eps) T_a / 2 pi) sinc[T_a (eps - w)/2]

to quadratures that are assembled as Gram matrices, so positivity of the
resulting Lindblad weights is automatic up to roundoff.

The coarse-grained Lamb shift H_LS = sum F_{w w'} A_{w'} A_w takes every
coefficient F_{w w'} from one composite Gauss-Legendre grid on [0, T_a]:
C(theta) is evaluated once per grid, F is assembled pairwise from the
half-range transforms of C at the Bohr frequencies and their negatives, and
only the pairs with w + w' near 0 take a contraction over nodes.  Panels
are halved by ``quadrature.refine`` until no coefficient moves by more than
its tolerances; the last change is reported as the quadrature error
estimate (``GeneratorSet.meta["lamb_quad_error"]``).
Davies and Redfield generators take S(w) for every Bohr frequency from one
call on the bath's refined grid and report its error the same way.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    HermitianOperator,
    EigenSystem,
    Superoperator,
    operator_norm,
    vectorize_generator,
    vectorize_redfield,
)
from .quadrature import PANEL_PHASE, gauss_panels, refine

logger = logging.getLogger(__name__)

__all__ = [
    "JumpDecomposition",
    "GeneratorConfig",
    "GeneratorSet",
    "DiscretizationParams",
    "decompose_coupling",
    "redfield_filtered",
    "redfield_generator",
    "davies_generator",
    "cgme_gamma",
    "cgme_lamb_F",
    "cgme_lamb_shift",
    "cgme_a_epsilon",
    "kossakowski_matrix",
    "discretization_params",
    "cgme_generator",
]

WEIGHT_CLIP_TOL = 1e-9
# Bohr frequencies within FREQ_RTOL * ||H|| of each other are merged
FREQ_RTOL = 1e-8
# The transform form of a Lamb coefficient leaves 2 T_a w+ F as the
# difference of two terms of the size of C^, so it loses about
# eps / (|w+| T_a) of F to rounding (up to 7 times that, measured on the
# ToyBath): at this phase ~1e-13 relative, far below the quadrature
# tolerance EPSREL.  Pairs with |w+| T_a below it take the
# cancellation-free sinc form.
LAMB_PHASE_CUT = 1e-2


@dataclass(frozen=True)
class JumpDecomposition:
    """Coupling operator split by Bohr frequency: A = sum_w A_w with
    exp(iHt) A_w exp(-iHt) = exp(-iwt) A_w (up to the overall sum)."""

    frequencies: np.ndarray          # ascending
    operators: tuple                 # A_w, same order
    coupling: np.ndarray
    hamiltonian: np.ndarray
    freq_tol: float

    @property
    def dim(self) -> int:
        return self.coupling.shape[0]

    def terms(self):
        return list(zip(self.frequencies, self.operators))

    def operator_at(self, w):
        idx = np.argmin(np.abs(self.frequencies - w))
        if abs(self.frequencies[idx] - w) > max(self.freq_tol, 1e-12):
            raise KeyError(f"no Bohr frequency near {w}")
        return self.operators[idx]

    def conjugation_residual(self, t=0.37):
        """Max-norm residual of exp(iHt) A exp(-iHt) = sum_w exp(-iwt) A_w,
        with exp(iHt) from the eigensystem of H."""
        E, V = np.linalg.eigh(self.hamiltonian)
        U = (V * np.exp(1j * E * t)) @ V.conj().T
        lhs = U @ self.coupling @ U.conj().T
        rhs = sum(np.exp(-1j * w * t) * Aw
                  for w, Aw in zip(self.frequencies, self.operators))
        return float(np.max(np.abs(lhs - rhs)))


def decompose_coupling(eig: EigenSystem, A) -> JumpDecomposition:
    """A_w = sum over level pairs with E_m - E_n = w of P_n A P_m."""
    A_mat = A.entries if isinstance(A, HermitianOperator) else np.asarray(A, complex)
    H = eig.reconstruct()
    norm_A = operator_norm(A_mat)
    if abs(norm_A - 1.0) > 1e-9:
        warnings.warn(
            f"coupling operator norm is {norm_A:.6g}, not 1; error-bound "
            "formulas assume a normalized coupling", stacklevel=2)
    freq_tol = FREQ_RTOL * operator_norm(H)

    raw = []
    for n, Pn in enumerate(eig.projectors):
        for m, Pm in enumerate(eig.projectors):
            w = eig.energies[m] - eig.energies[n]
            term = Pn @ A_mat @ Pm
            if np.max(np.abs(term)) > 1e-14 * max(norm_A, 1.0):
                raw.append((w, term))
    raw.sort(key=lambda p: p[0])

    freqs, ops = [], []
    for w, term in raw:
        if freqs and w - freqs[-1] <= freq_tol:
            ops[-1] = ops[-1] + term
            # keep the cluster representative stable (first value seen)
        else:
            freqs.append(w)
            ops.append(term.astype(complex))
    return JumpDecomposition(
        frequencies=np.array(freqs), operators=tuple(ops),
        coupling=A_mat, hamiltonian=H, freq_tol=freq_tol,
    )


@dataclass(frozen=True)
class DiscretizationParams:
    delta_epsilon: float
    k_star: int
    T_a: float

    def __post_init__(self):
        if self.delta_epsilon <= 0 or self.k_star < 1:
            raise ValueError("need delta_epsilon > 0 and k_star >= 1")


@dataclass(frozen=True)
class GeneratorConfig:
    equation_kind: str               # redfield | davies | cgme_frequency | cgme_discrete | ore
    T_a: float | None = None
    lambless: bool = False
    discretization: DiscretizationParams | None = None

    def __post_init__(self):
        kinds = {"redfield", "davies", "cgme_frequency", "cgme_discrete", "ore"}
        if self.equation_kind not in kinds:
            raise ValueError(f"unknown equation kind {self.equation_kind!r}")
        if self.equation_kind.startswith("cgme") and not (self.T_a and self.T_a > 0):
            raise ValueError("coarse-grained equations require T_a > 0")


@dataclass(frozen=True)
class GeneratorSet:
    """Effective Hamiltonian plus either Lindblad terms or a Redfield pair."""

    H_eff: np.ndarray
    kind: str
    lindblad_ops: tuple | None = None        # ((weight, L), ...)
    redfield_pair: tuple | None = None       # (A, A_f)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        H = np.asarray(self.H_eff, dtype=complex)
        if np.max(np.abs(H - H.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(H))):
            raise ValueError("H_eff is not Hermitian within 1e-10")
        # its Hermitian part, as HermitianOperator keeps: evolve takes the
        # generator to real coordinates, where a deviation admitted here
        # would be beyond HERMITICITY_TOL
        object.__setattr__(self, "H_eff", 0.5 * (H + H.conj().T))
        if (self.lindblad_ops is None) == (self.redfield_pair is None):
            raise ValueError("provide exactly one of lindblad_ops / redfield_pair")
        if self.lindblad_ops is not None:
            for w, _ in self.lindblad_ops:
                if w < 0:
                    raise ValueError(f"negative Lindblad weight {w}")

    @property
    def dim(self) -> int:
        return self.H_eff.shape[0]

    def to_superoperator(self) -> Superoperator:
        if self.lindblad_ops is not None:
            return vectorize_generator(self.H_eff, self.lindblad_ops)
        A, A_f = self.redfield_pair
        return vectorize_redfield(self.H_eff, A, A_f)


# ---------------------------------------------------------------------------
# Redfield and Davies
# ---------------------------------------------------------------------------

def _filtered_with_error(jd: JumpDecomposition, bath, lambless):
    """(A_f, error estimate of the S grid or None when Lambless)."""
    w = -jd.frequencies
    S, err = (np.zeros(len(w)), None) if lambless else bath.lamb_amplitude_S(w)
    return np.tensordot(0.5 * bath.gamma(w) - 1j * S, np.array(jd.operators), axes=1), err


def redfield_filtered(jd: JumpDecomposition, bath, lambless=False) -> np.ndarray:
    """Filtered coupling A_f = sum_w f*(-w) A_w with f = gamma/2 + i S
    (Lambless: (1/2) gamma(-w)), S(w) for every Bohr frequency from one call
    on the bath's grid."""
    return _filtered_with_error(jd, bath, lambless)[0]


def redfield_generator(jd: JumpDecomposition, bath, lambless=False) -> GeneratorSet:
    A_f, err = _filtered_with_error(jd, bath, lambless)
    return GeneratorSet(H_eff=jd.hamiltonian, kind="redfield",
                        redfield_pair=(jd.coupling, A_f),
                        meta={"lambless": lambless, "lamb_quad_error": err})


def davies_generator(jd: JumpDecomposition, bath, lambless=False) -> GeneratorSet:
    """One Lindblad term per Bohr frequency, weight gamma(w);
    H_LS = sum_w S(w) A_w^dag A_w (the secular projection of the Redfield
    drift term, and the large-averaging-time limit of the coarse-grained
    Lamb shift), with every S(w) from one call on the bath's grid."""
    w, A = jd.frequencies, np.array(jd.operators)
    ops = tuple((float(g), Aw) for g, Aw in zip(bath.gamma(w), jd.operators))
    S, err = (np.zeros(len(w)), None) if lambless else bath.lamb_amplitude_S(w)
    H_LS = np.einsum("k,kba,kbc->ac", S, A.conj(), A)
    H_LS = 0.5 * (H_LS + H_LS.conj().T)
    return GeneratorSet(H_eff=jd.hamiltonian + H_LS, kind="davies",
                        lindblad_ops=ops,
                        meta={"lambless": lambless, "H_LS": H_LS,
                              "lamb_quad_error": err})


# ---------------------------------------------------------------------------
# Coarse-grained coefficients
# ---------------------------------------------------------------------------

def cgme_gamma(w, wp, T_a, bath) -> float:
    """Square-domain coefficient gamma_{w w'} (always real), by the filter
    factorization integral f(eps, w) f(eps, -w') d eps on a composite Gauss
    grid."""
    nodes, wt = _epsilon_grid(bath, T_a, (w, -wp))
    F = _filter(bath, T_a, nodes, (w, -wp))
    return float(np.sum(wt * F[:, 0] * F[:, 1]))


def _filter(bath, T_a, eps, freqs):
    """f(eps, w) = sqrt(gamma(eps) T_a / 2 pi) sinc[T_a (eps - w) / 2] for
    every w in ``freqs``, shape eps.shape + (len(freqs),).  gamma is
    evaluated once on ``eps``; the sinc is taken one column at a time, so
    no (eps x w) temporary beyond the result is built."""
    eps = np.asarray(eps, dtype=float)
    g = np.maximum(np.asarray(bath.gamma(eps), dtype=float), 0.0)
    amplitude = np.sqrt(g * T_a / (2 * np.pi))
    F = np.empty(eps.shape + (len(freqs),))
    for j, w in enumerate(freqs):
        F[..., j] = amplitude * np.sinc(T_a * (eps - w) / (2 * np.pi))
    return F


def _epsilon_grid(bath, T_a, freqs=(), order=24):
    """Composite Gauss-Legendre filter grid on a window [-W, W] covering the
    support of gamma(eps) and, with ``freqs``, every sinc centre with
    10 / T_a to spare.  Its equal panels of width min(pi / T_a, W / 16)
    resolve the sinc oscillation of period 4 pi / T_a; the panel edges
    include eps = 0."""
    W = bath.support_radius()
    if freqs:
        W = max(W, 1.5 * max(abs(f) for f in freqs) + 10.0 / max(T_a, 1e-9))
    width = min(np.pi / max(T_a, 1e-9), max(W / 16.0, 1e-12))
    n_half = int(np.ceil(W / width))
    return gauss_panels(np.linspace(-n_half * width, n_half * width, 2 * n_half + 1), order)


def _lamb_coefficients(w, wp, T_a, bath):
    """All Lamb coefficients F[i, j] = F_{w_i, wp_j} on one refined grid.

    The starting grid on [0, T_a] has panels of at most PANEL_PHASE radians
    at the largest |frequency| and an edge at the kink tau_c of a bath with
    a finite-support correlation function; ``refine`` halves it until no
    coefficient moves by more than its tolerances.  Returns F and the
    largest change of the last halving.

    With the half-range transform C^(f) = int_0^{T_a} C(th) e^{i f th} dth,

        F_{w w'} = Re[e^{-i T_a w+} C^(w) - e^{i T_a w+} C^(-w')] / (2 T_a w+),

    so a chunk of nodes costs one exponential row per distinct |f| over
    f in {w_i} and {-wp_j} (C^(-|f|) comes from the same row, conjugated),
    one matrix product for the transforms, and O(n^2) to combine them:
    O(n n_th + n^2) in all for n frequencies and n_th nodes, not the
    O(n^2 n_th) of a (pair x node) tensor.

    Pairs with |w+| T_a < LAMB_PHASE_CUT, among them the w+ = 0 pairs of
    every +-w, would lose their two near-equal terms to cancellation; they
    keep the pair form, restricted to them,

        F_{w w'} = -(1/T_a) int_0^{T_a} Im[e^{i w- th} C(th)] x sinc(w+ x / pi) dth,

    with x = th - T_a and their phases w- among the exponential rows.  F is
    linear in the integrand, so ``refine`` tests convergence per F entry
    whichever form a pair takes.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wp = np.atleast_1d(np.asarray(wp, dtype=float))
    w_max = max(float(np.max(np.abs(w))), float(np.max(np.abs(wp))))
    n_panels = max(1, int(np.ceil(T_a * w_max / PANEL_PHASE)))
    edges = np.linspace(0.0, T_a, n_panels + 1)
    tau_c = getattr(bath, "tau_c", None)
    if tau_c is not None and 0.0 < tau_c < T_a:
        edges = np.union1d(edges, [tau_c])
    w_plus = 0.5 * (w[:, None] + wp[None, :])
    near = np.abs(w_plus) * T_a < LAMB_PHASE_CUT
    si, sj = np.nonzero(near)
    scale = 2.0 * T_a * np.where(near, 1.0, w_plus)
    left = np.where(near, 0.0, np.exp(-1j * T_a * w_plus) / scale)
    right = np.where(near, 0.0, np.exp(1j * T_a * w_plus) / scale)
    # every frequency a chunk needs: the transforms at w and -w', then the
    # phases w- of the near pairs; e^{-i f th} is the conjugate of
    # e^{i f th}, so one exponential row per distinct |f| serves both signs
    freqs = np.concatenate([w, -wp, 0.5 * (w[si] - wp[sj])])
    mags, row = np.unique(np.abs(freqs), return_inverse=True)
    negative = freqs < 0
    n, m = len(w), len(w) + len(wp)
    x_plus = w_plus[si, sj] / np.pi

    def term(theta, wt, corr):
        weighted = wt * corr
        rows = np.exp(1j * np.outer(mags, theta))
        # C^(-|f|) = conj(sum_k e^{i|f| th_k} conj(wt_k C_k)); two
        # matrix-vector products, whose sums round alike for nearby |f|,
        # so the near-cancelling pairs above the cut lose less than they
        # would from one two-column matrix product
        positive = rows @ weighted
        mirrored = (rows @ weighted.conj()).conj()
        transform = np.where(negative[:m], mirrored[row[:m]], positive[row[:m]])
        F = (left * transform[:n, None] - right * transform[None, n:]).real
        if len(si):
            x = theta - T_a
            phase = rows[row[m:]]
            phase = np.where(negative[m:, None], phase.conj(), phase)
            # sin(w+ x)/w+ written as x*sinc to stay analytic at w+ = 0
            sinc = np.sinc(np.outer(x_plus, x))
            F[si, sj] = -np.einsum("pk,pk->p", (phase * (x * weighted)).imag, sinc) / T_a
        return F

    return refine(term, lambda theta: np.asarray(bath.correlation(theta), dtype=complex),
                  edges)


def cgme_lamb_F(w, wp, T_a, bath) -> float:
    """Lamb-shift coefficient

    F_{w w'} = (1/(2 T_a w+)) Re int_0^{T_a}
               (exp(i(w th - T_a w+)) - exp(-i(w' th - T_a w+))) C(th) dth
             = Re[e^{-i T_a w+} C^(w) - e^{i T_a w+} C^(-w')] / (2 T_a w+),

    with C^(f) = int_0^{T_a} C(th) e^{i f th} dth.  When |w+| T_a <
    LAMB_PHASE_CUT it is evaluated through the identity
    (...) = 2i exp(i w- th) sin(w+ (th - T_a)), which makes the w+ -> 0
    limit manifestly removable (sin(w+ x)/w+ -> x).  One pair of the
    refined composite Gauss-Legendre grid of ``cgme_lamb_shift``."""
    F, _ = _lamb_coefficients(w, wp, T_a, bath)
    return float(F[0, 0])


def cgme_lamb_shift(jd: JumpDecomposition, bath, T_a):
    """(H_LS, quad_error): the Hermitian Lamb shift

        H_LS = sum_{w w'} F_{w w'} A_{w'} A_w

    and the largest change of any F_{w w'} over the last grid refinement.
    Every F_{w w'} comes from a shared composite Gauss-Legendre grid on
    [0, T_a], with C evaluated once per grid: the half-range transforms
    C^(w) and C^(-w) of the n Bohr frequencies are combined pairwise,

        F_{w w'} = Re[e^{-i T_a w+} C^(w) - e^{i T_a w+} C^(-w')] / (2 T_a w+),

    and only the pairs with |w+| T_a < LAMB_PHASE_CUT (the +-w pairs and
    near-degenerate ones) take the sinc contraction over nodes instead, so
    the cost is O(n n_th + n^2) for n_th nodes (see ``_lamb_coefficients``)."""
    F, err = _lamb_coefficients(jd.frequencies, jd.frequencies, T_a, bath)
    ops = np.array(jd.operators)
    B = np.tensordot(F, ops, axes=(0, 0))          # B_j = sum_i F_ij A_i
    H_LS = np.einsum("jab,jbc->ac", ops, B)       # sum_j A_j B_j
    sym = 0.5 * (H_LS + H_LS.conj().T)
    if np.max(np.abs(H_LS - sym)) > 1e-9 * max(1.0, np.max(np.abs(sym))):
        raise ArithmeticError("Lamb shift failed to come out Hermitian")
    return sym, err


def cgme_a_epsilon(jd: JumpDecomposition, eps, T_a, bath) -> np.ndarray:
    """A_eps = sum_w f(eps, w) A_w (frequency-sum form)."""
    out = np.zeros((jd.dim, jd.dim), dtype=complex)
    for f, Aw in zip(_filter(bath, T_a, eps, jd.frequencies), jd.operators):
        out += float(f) * Aw
    return out


def kossakowski_matrix(jd: JumpDecomposition, bath, T_a,
                       discretization: DiscretizationParams | None = None):
    """Coefficient matrix K[i, j] = integral f(eps, w_i) f(eps, w_j) d eps
    over the Bohr frequencies of ``jd``.

    With continuous eps this is gamma_{w_i, -w_j}; passing discretization
    parameters replaces the integral by its Riemann sum over the
    (2 k* - 1) grid points, which is exactly the discretized generator's
    coefficient matrix.  Either way K is a Gram matrix, hence positive
    semidefinite up to roundoff.
    """
    freqs = jd.frequencies
    if discretization is None:
        nodes, wt = _epsilon_grid(bath, T_a, tuple(freqs))
    else:
        de, ks = discretization.delta_epsilon, discretization.k_star
        nodes = de * np.arange(-(ks - 1), ks)
        wt = np.full(nodes.shape, de)
    F = _filter(bath, T_a, nodes, freqs)
    return (F * wt[:, None]).T @ F


def _lindblad_from_kossakowski(operators, K):
    """Lindblad terms (weight, L_mu = sum_i v_i^mu operators[i]) from the
    eigenpairs of the Hermitian part of K; raises ArithmeticError when an
    eigenvalue falls below -WEIGHT_CLIP_TOL and drops the clipped ones.
    Every kept L_mu comes from one contraction of the eigenvectors with the
    stacked operators."""
    K = 0.5 * (K + np.conj(K).T)
    vals, vecs = np.linalg.eigh(K)
    if np.min(vals) < -WEIGHT_CLIP_TOL:
        raise ArithmeticError(
            f"Kossakowski matrix eigenvalue {np.min(vals):.3e} below "
            f"-{WEIGHT_CLIP_TOL}: positivity violated")
    keep = vals > 0
    L = np.tensordot(vecs[:, keep], np.asarray(operators, dtype=complex), axes=(0, 0))
    return tuple(zip(vals[keep].tolist(), L))


def discretization_params(bath_timescales, commutator_norm) -> DiscretizationParams:
    """Filter-grid spacing and half-count for the discretized generator:

    delta_eps = (1/tau_SB) sqrt(tau_B/tau_SB) / (2 + ||[H,A]|| T_a)^2
                * sqrt(5) pi^2 / (2 (10 sqrt(2/5) + 1))
    k*        = ceil( (tau_SB/tau_B)^{3/2} (2 + ||[H,A]|| T_a)^4
                      * 4 (10 sqrt(2/5) + 1) / pi^3 + 0.5 )

    with T_a fixed at sqrt(tau_B tau_SB / 5).  These are worst-case
    guarantees; much coarser grids are usually accurate, so callers may
    override via GeneratorConfig.discretization.
    """
    tau_SB, tau_B = bath_timescales.tau_SB, bath_timescales.tau_B
    if tau_B <= 0:
        raise ValueError("discretization undefined for tau_B = 0")
    T_a = np.sqrt(tau_B * tau_SB / 5.0)
    chi = (2.0 + commutator_norm * T_a) ** 2
    c0 = 10.0 * np.sqrt(2.0 / 5.0) + 1.0
    delta_eps = (np.sqrt(tau_B / tau_SB) / tau_SB) / chi * np.sqrt(5.0) * np.pi ** 2 / (2.0 * c0)
    k_star = int(np.ceil((tau_SB / tau_B) ** 1.5 * chi ** 2 * 4.0 * c0 / np.pi ** 3 + 0.5))
    return DiscretizationParams(delta_epsilon=delta_eps, k_star=k_star, T_a=T_a)


def cgme_generator(jd: JumpDecomposition, bath, config: GeneratorConfig) -> GeneratorSet:
    """Coarse-grained generator in Lindblad form.

    equation_kind "cgme_frequency" integrates the filter overlap exactly;
    "cgme_discrete" uses the finite filter grid (config.discretization,
    with the Lamb shift still taken from the frequency form)."""
    if config.equation_kind not in ("cgme_frequency", "cgme_discrete"):
        raise ValueError("config.equation_kind must be cgme_frequency or cgme_discrete")
    disc = None
    if config.equation_kind == "cgme_discrete":
        disc = config.discretization
        if disc is None:
            raise ValueError("cgme_discrete requires discretization parameters")
    K = kossakowski_matrix(jd, bath, config.T_a, discretization=disc)
    ops = _lindblad_from_kossakowski(jd.operators, K)
    if config.lambless:
        H_LS, lamb_err = np.zeros((jd.dim, jd.dim), dtype=complex), None
    else:
        H_LS, lamb_err = cgme_lamb_shift(jd, bath, config.T_a)
    return GeneratorSet(
        H_eff=jd.hamiltonian + H_LS, kind=config.equation_kind,
        lindblad_ops=ops,
        meta={"T_a": config.T_a, "lambless": config.lambless,
              "H_LS": H_LS, "lamb_quad_error": lamb_err, "kossakowski": K,
              "discretization": disc},
    )
