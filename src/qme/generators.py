"""Time-independent master-equation generators.

Builds, from a Hamiltonian eigensystem and a coupling operator:

- the Bohr-frequency (jump) decomposition A = sum_w A_w,
- the Redfield filtered operator A_f = sum_w f*(-w) A_w,
- Davies-Lindblad generators (one jump operator per Bohr frequency),
- coarse-grained (finite averaging time T_a) generators, in both the
  frequency form (Kossakowski matrix over Bohr pairs, diagonalized into
  Lindblad operators) and the discretized continuous-filter form.

The coarse-grained coefficients are double time integrals of C over the
averaging window (Majenz et al., PRA 88, 012103 (2013)): the Kossakowski
matrix K_ij = gamma_{w_i, -w_j} with

    gamma_{w w'} = (1/T_a) int int_{[-T_a/2, T_a/2]^2} C(s' - s) e^{-i(w s + w' s')} ds ds',

and the Lamb coefficients F_{w w'} of H_LS = sum F_{w w'} A_{w'} A_w.  Both
come from one composite Gauss-Legendre grid on [0, T_a]: C(theta) is
evaluated once per grid, the coefficients are assembled pairwise from the
half-range transforms of C at the Bohr frequencies, and only near-degenerate
pairs take a contraction over nodes.  Panels are halved by
``quadrature.refine`` until no coefficient moves by more than its
tolerances; the last change is the error estimate ``GeneratorSet.meta``
reports.  For gamma >= 0, K equals the filter overlap int f(eps, w_i)
f(eps, w_j) d eps, f(eps, w) = sqrt(gamma(eps) T_a / 2 pi) sinc[T_a (eps - w)/2],
a Gram matrix, so positive semidefinite up to that error; a bath with
gamma < 0 somewhere is refused.  The filter form serves the discretized
generator; the driven one takes the double integral on its window's nodes.
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
from .baths import kinks
from .quadrature import panel_edges, refine

logger = logging.getLogger(__name__)

__all__ = [
    "JumpDecomposition",
    "GeneratorConfig",
    "GeneratorSet",
    "DiscretizationParams",
    "decompose_coupling",
    "redfield_generator",
    "davies_generator",
    "cgme_gamma",
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
    """A_w = sum over level pairs with E_m - E_n = w of P_n A P_m, every
    P_n A P_m from one batched product over the stacked projectors."""
    A_mat = A.entries if isinstance(A, HermitianOperator) else np.asarray(A, complex)
    H = eig.reconstruct()
    norm_A = operator_norm(A_mat)
    if abs(norm_A - 1.0) > 1e-9:
        warnings.warn(
            f"coupling operator norm is {norm_A:.6g}, not 1; error-bound "
            "formulas assume a normalized coupling", stacklevel=2)
    freq_tol = FREQ_RTOL * operator_norm(H)

    P = np.array(eig.projectors)
    # terms[n, m] = P_n A P_m at w[n, m] = E_m - E_n, in (n, m) order
    terms = ((P[:, None] @ A_mat) @ P[None, :]).reshape(-1, *A_mat.shape)
    E = eig.energies
    w = (E[None, :] - E[:, None]).ravel()
    keep = np.flatnonzero(np.max(np.abs(terms), axis=(1, 2)) > 1e-14 * max(norm_A, 1.0))

    freqs, ops = [], []
    # Python's sort is stable, as the merge needs, and unlike a stable numpy
    # argsort it pages in no sort code: that raised a driven_dd benchmark
    # run's peak RSS by 0.13 MB
    for k in sorted(keep, key=w.__getitem__):
        if freqs and w[k] - freqs[-1] <= freq_tol:
            ops[-1] = ops[-1] + terms[k]
            # keep the cluster representative stable (first value seen)
        else:
            freqs.append(w[k])
            # a copy: a view would keep every P_n A P_m alive
            ops.append(terms[k].copy())
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

def redfield_generator(jd: JumpDecomposition, bath, lambless=False) -> GeneratorSet:
    """The Redfield pair (A, A_f) with filtered coupling A_f = sum_w f*(-w) A_w,
    f = gamma/2 + i S (Lambless: (1/2) gamma(-w)), S(w) for every Bohr
    frequency from one call on the bath's grid; ``meta`` records its error
    estimate (None when Lambless)."""
    w = -jd.frequencies
    S, err = (np.zeros(len(w)), None) if lambless else bath.lamb_amplitude_S(w)
    A_f = np.tensordot(0.5 * bath.gamma(w) - 1j * S, np.array(jd.operators), axes=1)
    return GeneratorSet(H_eff=jd.hamiltonian, kind="redfield",
                        redfield_pair=(jd.coupling, A_f),
                        meta={"lambless": lambless, "lamb_quad_error": err})


def davies_generator(jd: JumpDecomposition, bath, lambless=False) -> GeneratorSet:
    """One Lindblad term per Bohr frequency, weight gamma(w);
    H_LS = sum_w S(w) A_w^dag A_w (the secular projection of the Redfield
    drift term, and the large-averaging-time limit of the coarse-grained
    Lamb shift), with every S(w) from one call on the bath's grid and the
    sum as one (d, n d) x (n d, d) product over the n stacked A_w."""
    w, A = jd.frequencies, np.array(jd.operators)
    ops = tuple((float(g), Aw) for g, Aw in zip(bath.gamma(w), jd.operators))
    S, err = (np.zeros(len(w)), None) if lambless else bath.lamb_amplitude_S(w)
    d = jd.dim
    H_LS = (S[:, None, None] * A.conj()).reshape(-1, d).T @ A.reshape(-1, d)
    H_LS = 0.5 * (H_LS + H_LS.conj().T)
    return GeneratorSet(H_eff=jd.hamiltonian + H_LS, kind="davies",
                        lindblad_ops=ops,
                        meta={"lambless": lambless, "H_LS": H_LS,
                              "lamb_quad_error": err})


# ---------------------------------------------------------------------------
# Coarse-grained coefficients
# ---------------------------------------------------------------------------

def cgme_gamma(w, wp, T_a, bath) -> float:
    """Square-domain coefficient gamma_{w w'} (always real), one entry of
    ``_cgme_coefficients``."""
    return float(_cgme_coefficients([w], [-wp], T_a, bath, lamb=False)[0][0, 0])


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


def _cgme_coefficients(w, wp, T_a, bath, lamb=True):
    """K[i, j] = gamma_{w_i, -wp_j} and, with ``lamb``, the Lamb coefficients
    F[i, j] = F_{w_i, wp_j} on one refined grid: (K, F or None, the largest
    change of any of them over the last halving).  The starting panels on
    [0, T_a] (``quadrature.panel_edges``) are cut at the bath's kinks and
    resolve the largest |frequency|.

    With C^(f) = int_0^{T_a} C(th) e^{i f th} dth, d = wp - w, w+- = (w +- wp)/2,

        K_{w wp} = 2 Im[e^{i d T_a/2} (C^(w) + conj C^(wp))] / (d T_a),
        F_{w wp} = Re[e^{-i T_a w+} C^(w) - e^{i T_a w+} C^(-wp)] / (2 T_a w+).

    A chunk of nodes costs one exponential row per distinct |f| (C^(-|f|)
    from the same row, conjugated); the O(n^2) combination runs once per
    grid, as ``refine``'s ``finish``.  Pairs with |d| T_a (K) or |w+| T_a
    (F) below LAMB_PHASE_CUT, whose two terms cancel, take the forms

        K_{w wp} = (2/T_a) Re int_0^{T_a} e^{i w+ th} C(th) y sinc(d y/2) dth,
        F_{w wp} = (1/T_a) Im int_0^{T_a} e^{i w- th} C(th) y sinc(w+ y) dth:

    with y = T_a - th and sinc(x) = sin(x)/x: a transform of y C where the
    sinc is 1 (every diagonal K entry, the w+ = 0 pairs of every +-w), else
    a contraction over the chunk's nodes.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wp = np.atleast_1d(np.asarray(wp, dtype=float))
    w_max = max(float(np.max(np.abs(w))), float(np.max(np.abs(wp))))
    edges = panel_edges([0.0, T_a, *kinks(bath, 0.0, T_a)], w_max)
    n, m = len(w), len(wp)
    w_plus = 0.5 * (w[:, None] + wp[None, :])
    delta = wp[None, :] - w[:, None]
    near_k = np.abs(delta) * T_a < LAMB_PHASE_CUT
    near_f = (np.abs(w_plus) * T_a < LAMB_PHASE_CUT) & lamb
    (ki, kj), (fi, fj) = np.nonzero(near_k), np.nonzero(near_f)
    half = 0.5 * T_a * np.where(near_k, 1.0, delta)
    k_phase = np.exp(1j * half) / half
    if lamb:
        scale = 2.0 * T_a * np.where(near_f, 1.0, w_plus)
        left, right = np.exp(-1j * T_a * w_plus) / scale, np.exp(1j * T_a * w_plus) / scale
    # the near pairs' phases and sinc rates (over pi), K's first
    phases = np.concatenate([w_plus[ki, kj], 0.5 * (w[fi] - wp[fj])])
    rates = np.concatenate([0.5 * delta[ki, kj], w_plus[fi, fj]]) / np.pi
    mags, row = np.unique(np.abs(np.concatenate([w, wp, phases])), return_inverse=True)
    moving = np.flatnonzero(rates)          # the near pairs whose sinc is not 1
    n_k, n_rows, near_rows = len(ki), len(mags), row[n + m:]

    def term(theta, wt, corr):
        weighted = wt * corr
        y_weighted = (T_a - theta) * weighted
        rows = np.exp(1j * np.outer(mags, theta))
        vectors = (weighted, weighted.conj(), y_weighted, y_weighted.conj())
        sinc = np.sinc(np.outer(rates[moving], T_a - theta)) * rows[near_rows[moving]]
        # sum_k e^{-i|f| th_k} v_k = conj(sum_k e^{i|f| th_k} conj(v_k)); one
        # contraction per vector rounds alike for nearby |f|, so the pairs
        # just above the cut lose little; einsum, as a threaded BLAS
        # matrix-vector product of this shape can run many times slower
        return np.concatenate([np.einsum("fk,k->f", a, v) for a, vs in (
            (rows, vectors), (sinc, vectors[2:])) for v in vs])

    def finish(total):
        pos, neg, y_pos, y_neg, s_pos, s_neg = np.split(
            total, np.cumsum([n_rows] * 4 + [len(moving)]))

        def at(f, idx, pos, neg):          # sum_k e^{i f th_k} v_k
            return np.where(f < 0, neg[idx].conj(), pos[idx])

        c_w, c_wp = at(w, row[:n], pos, neg), at(wp, row[n:n + m], pos, neg)
        near = at(phases, near_rows, y_pos, y_neg)
        near[moving] = at(phases[moving], slice(None), s_pos, s_neg)
        near /= T_a
        # its own array: a view would keep the complex (n x m) buffer alive
        K = (k_phase * (c_w[:, None] + c_wp.conj())).imag.copy()
        K[ki, kj] = 2.0 * near[:n_k].real
        if not lamb:
            return K
        F = (left * c_w[:, None] - right * at(-wp, row[n:n + m], pos, neg)).real
        F[fi, fj] = near[n_k:].imag
        return np.stack([K, F])

    out, err = refine(term, lambda theta: np.asarray(bath.correlation(theta), dtype=complex),
                      edges, finish=finish)
    return (out[0].copy(), out[1], err) if lamb else (out, None, err)


def _lamb_operator(jd: JumpDecomposition, F):
    """The Hermitian H_LS = sum_{w w'} F_{w w'} A_{w'} A_w, with
    B_j = sum_i F_ij A_i and sum_j A_j B_j as one (d, n d) x (n d, d)
    product over the n stacked A_j."""
    ops, d = np.array(jd.operators), jd.dim
    B = np.tensordot(F, ops, axes=(0, 0))
    H_LS = ops.transpose(1, 0, 2).reshape(d, -1) @ B.reshape(-1, d)
    sym = 0.5 * (H_LS + H_LS.conj().T)
    if np.max(np.abs(H_LS - sym)) > 1e-9 * max(1.0, np.max(np.abs(sym))):
        raise ArithmeticError("Lamb shift failed to come out Hermitian")
    return sym


def cgme_lamb_shift(jd: JumpDecomposition, bath, T_a):
    """(H_LS, quad_error): the Hermitian Lamb shift
    H_LS = sum_{w w'} F_{w w'} A_{w'} A_w and the largest change of any
    coefficient over the last halving of the grid it shares with the
    Kossakowski matrix (``_cgme_coefficients``)."""
    _, F, err = _cgme_coefficients(jd.frequencies, jd.frequencies, T_a, bath)
    return _lamb_operator(jd, F), err


def cgme_a_epsilon(jd: JumpDecomposition, eps, T_a, bath) -> np.ndarray:
    """A_eps = sum_w f(eps, w) A_w (frequency-sum form)."""
    out = np.zeros((jd.dim, jd.dim), dtype=complex)
    for f, Aw in zip(_filter(bath, T_a, eps, jd.frequencies), jd.operators):
        out += float(f) * Aw
    return out


def _require_cp_admissible(bath):
    if not getattr(bath, "cp_admissible", True):
        raise ValueError(f"{bath.not_cp_message}; the coarse-grained generator needs gamma >= 0")


def kossakowski_matrix(jd: JumpDecomposition, bath, T_a,
                       discretization: DiscretizationParams | None = None):
    """Coefficient matrix K[i, j] = gamma_{w_i, -w_j} over the Bohr
    frequencies of ``jd``, from the half-range transforms of C on one refined
    grid (``_cgme_coefficients``).  It equals the filter overlap
    int f(eps, w_i) f(eps, w_j) d eps; passing discretization parameters
    replaces that integral by its Riemann sum over the (2 k* - 1) grid
    points, the discretized generator's coefficient matrix.  A bath that is
    not CP-admissible (gamma < 0 somewhere) raises ValueError."""
    _require_cp_admissible(bath)
    if discretization is None:
        return _cgme_coefficients(jd.frequencies, jd.frequencies, T_a, bath, lamb=False)[0]
    de, ks = discretization.delta_epsilon, discretization.k_star
    F = _filter(bath, T_a, de * np.arange(-(ks - 1), ks), jd.frequencies)
    return (F * de).T @ F


def _lindblad_from_kossakowski(operators, K):
    """(Lindblad terms (weight, L_mu = sum_i v_i^mu operators[i]) from the
    eigenpairs of the Hermitian part of K, those at or below 0 dropped, and
    its smallest eigenvalue); raises ArithmeticError when that is below
    -WEIGHT_CLIP_TOL.  The L_mu come from one contraction of the kept
    eigenvectors with the stacked operators."""
    K = 0.5 * (K + np.conj(K).T)
    vals, vecs = np.linalg.eigh(K)
    if vals[0] < -WEIGHT_CLIP_TOL:
        raise ArithmeticError(
            f"Kossakowski matrix eigenvalue {vals[0]:.3e} below "
            f"-{WEIGHT_CLIP_TOL}: positivity violated")
    keep = vals > 0
    L = np.tensordot(vecs[:, keep], np.asarray(operators, dtype=complex), axes=(0, 0))
    return tuple(zip(vals[keep].tolist(), L)), float(vals[0])


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

    equation_kind "cgme_frequency" takes K and the Lamb coefficients from
    one refined grid (``_cgme_coefficients``); "cgme_discrete" takes K from
    the finite filter grid (config.discretization).  ``meta`` records each
    refined grid's error estimate (None where there is none) and the
    smallest eigenvalue of K, whose negative part the Lindblad weights clip.
    A bath that is not CP-admissible raises ValueError."""
    if config.equation_kind not in ("cgme_frequency", "cgme_discrete"):
        raise ValueError("config.equation_kind must be cgme_frequency or cgme_discrete")
    disc = config.discretization if config.equation_kind == "cgme_discrete" else None
    if config.equation_kind == "cgme_discrete" and disc is None:
        raise ValueError("cgme_discrete requires discretization parameters")
    _require_cp_admissible(bath)
    lamb = not config.lambless
    K, F, err = (_cgme_coefficients(jd.frequencies, jd.frequencies, config.T_a, bath, lamb)
                 if disc is None or lamb else (None, None, None))
    K, k_err = (K, err) if disc is None else (kossakowski_matrix(jd, bath, config.T_a, disc), None)
    ops, k_min = _lindblad_from_kossakowski(jd.operators, K)
    H_LS = _lamb_operator(jd, F) if lamb else np.zeros((jd.dim, jd.dim), dtype=complex)
    return GeneratorSet(
        H_eff=jd.hamiltonian + H_LS, kind=config.equation_kind,
        lindblad_ops=ops,
        meta={"T_a": config.T_a, "lambless": config.lambless,
              "H_LS": H_LS, "lamb_quad_error": err if lamb else None, "kossakowski": K,
              "kossakowski_quad_error": k_err, "kossakowski_min_eigenvalue": k_min,
              "discretization": disc},
    )
