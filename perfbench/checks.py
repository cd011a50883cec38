"""Output checks.

Every check tests a property the method guarantees, or compares with a
computation the benchmark makes itself from closed forms; none compares with
stored copies of earlier output.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np
from scipy.linalg import expm

from workloads import TOY_BATH, model_matrix, pauli_matrix


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def read_csv(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def gauss_panels(edges, order: int):
    """Composite Gauss-Legendre nodes and weights over consecutive edges."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


# ---------------------------------------------------------------------------
# generator properties (column-stacked superoperators)
# ---------------------------------------------------------------------------

def choi(M: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ce |c><e| (x) Phi(|c><e|) of the map with matrix M."""
    d = math.isqrt(M.shape[0])
    # M[a + d b, c + d e] = Phi(|c><e|)[a, b]
    return M.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def check_trace_preserving(M, what, tol=1e-10):
    d = math.isqrt(M.shape[0])
    residual = np.max(np.abs(np.eye(d).reshape(-1, order="F") @ M))
    require(residual <= tol * max(1.0, np.max(np.abs(M))),
            f"{what}: trace not preserved (residual {residual:.2e})")


def check_hermiticity_preserving(M, what, tol=1e-10):
    C = choi(M)
    residual = np.max(np.abs(C - C.conj().T))
    require(residual <= tol * max(1.0, np.max(np.abs(M))),
            f"{what}: Hermiticity not preserved (residual {residual:.2e})")


def check_completely_positive(M, what, dt=0.1):
    C = choi(expm(dt * M))
    low = float(np.linalg.eigvalsh(0.5 * (C + C.conj().T)).min())
    require(low >= -10.0 * dt * dt,
            f"{what}: Choi matrix of exp(L dt) has eigenvalue {low:.2e} < -10 dt^2")


def gibbs_state(H: np.ndarray, beta: float) -> np.ndarray:
    e, v = np.linalg.eigh(H)
    p = np.exp(-beta * (e - e.min()))
    return (v * (p / p.sum())) @ v.conj().T


def check_gibbs_stationary(M, H, beta, what, tol=1e-9):
    rho = gibbs_state(H, beta)
    residual = np.max(np.abs(M @ rho.reshape(-1, order="F")))
    require(residual <= tol * max(1.0, np.max(np.abs(M))),
            f"{what}: Gibbs state not stationary (residual {residual:.2e})")


def check_jump_sum(operators, A, what, tol=1e-10):
    residual = np.max(np.abs(sum(operators) - A))
    require(residual <= tol, f"{what}: sum of A_w differs from A by {residual:.2e}")


# ---------------------------------------------------------------------------
# ta_sweep_2q
# ---------------------------------------------------------------------------

def _ta_of(tag: str) -> float:
    return float(tag.split("_ta", 1)[1])


def check_compare(out_dir: str):
    rows = read_csv(os.path.join(out_dir, "compare.csv"))
    require(len(rows) > 0, "compare.csv is empty")
    dist = np.array([float(r["trace_distance"]) for r in rows])
    require(bool(np.all((dist >= 0.0) & (dist <= 2.0))),
            f"trace distance outside [0, 2]: {dist.min():.3g} .. {dist.max():.3g}")
    averages = {(r["equation_a"], r["equation_b"]): float(r["time_average_trace_distance"])
                for r in read_csv(os.path.join(out_dir, "compare_averages.csv"))}

    def avg(a, b):
        return averages[(a, b)] if (a, b) in averages else averages[(b, a)]

    cgme = sorted({t for pair in averages for t in pair if t.startswith("cgme")}, key=_ta_of)
    require(len(cgme) >= 2, "fewer than two CGME equations in the sweep")
    to_davies = [avg("davies", tag) for tag in cgme]
    require(all(b < a for a, b in zip(to_davies, to_davies[1:])),
            f"Davies-CGME distance does not fall as T_a grows: {to_davies}")
    best = min(avg("ore", tag) for tag in cgme)
    davies = avg("ore", "davies")
    require(best < davies, f"no CGME beats Davies against the reference ({best:.4g} >= {davies:.4g})")


def check_bounds(out_dir: str):
    rows = read_csv(os.path.join(out_dir, "bounds.csv"))
    require(len(rows) > 1, "bounds.csv has fewer than two rows")
    t = np.array([float(r["t[abs]"]) for r in rows])
    measured = np.array([float(r["measured_trace_distance"]) for r in rows])
    strongest = np.array([float(r["strongest_bound"]) for r in rows])
    require(t[0] == 0.0 and strongest[0] == 0.0, "strongest bound is not 0 at t = 0")
    require(bool(np.all((measured >= 0.0) & (measured <= 2.0))), "measured error outside [0, 2]")
    short = np.nonzero(strongest < measured)[0]
    require(len(short) == 0, f"strongest bound below the measured error at t = {t[short][:3]}")


def check_optimize_ta(out_dir: str, tau_sb: float):
    text = open(os.path.join(out_dir, "optimize_ta.txt"), encoding="utf-8").read()
    match = re.search(r"measured generator norm: max = ([0-9.eE+-]+)", text)
    require(match is not None, "optimize_ta.txt reports no sampled generator norm")
    norm = float(match.group(1))
    require(0.0 < norm <= 4.0 / tau_sb, f"sampled generator norm {norm:.4g} exceeds 4/tau_SB")


def toy_correlation(t, a=TOY_BATH["a"], b=TOY_BATH["b"], beta=TOY_BATH["beta"]):
    """Unit-prefactor ToyBath C(t): the inverse Fourier transform, over 2 pi,
    of exp(beta w/2) (exp(-b beta |w|) - exp(-a b beta |w|)/a), in partial
    fractions."""
    t = np.asarray(t, dtype=float)
    h = beta / 2.0

    def pair(c):
        return 1.0 / (c - h + 1j * t) + 1.0 / (c + h - 1j * t)

    return (pair(b * beta) - pair(a * b * beta) / a) / (2.0 * np.pi)


def toy_prefactor(tau_sb=TOY_BATH["tau_SB"]) -> float:
    """A / tau_SB, with A fixed by integral_0^inf |C(t)| dt = 1/tau_SB."""
    s, w = gauss_panels(np.linspace(0.0, 1.0, 401), 20)
    t = s / (1.0 - s)
    norm = float(np.sum(w * np.abs(toy_correlation(t)) / (1.0 - s) ** 2))
    return 1.0 / (norm * tau_sb)


def own_kossakowski_and_lamb(freqs, ops, T_a: float):
    """Kossakowski matrix and Lamb shift of the CGME from their defining
    time integrals, on fixed Gauss-Legendre grids:

        K_ij = (1/T_a) int int_{[-T_a/2, T_a/2]^2} C(tau - t) e^{-i w_i t + i w_j tau}
        F_ww' = (1/(2 T_a w+)) Re int_0^T_a (e^{i(w th - T_a w+)} - e^{-i(w' th - T_a w+)}) C(th) dth
        H_LS = sum_ww' F_ww' A_w' A_w,   w+ = (w + w')/2.
    """
    w = np.asarray(freqs, dtype=float)
    pref = toy_prefactor()
    n_pan = max(8, int(math.ceil(T_a / 0.1)))
    # K: u = tau - t over [-T_a, T_a]; the t-integral over the overlap is exact
    u, wu = gauss_panels(np.linspace(-T_a, T_a, 2 * n_pan + 1), 16)
    C = pref * toy_correlation(u)
    lo = np.maximum(-T_a / 2.0, -T_a / 2.0 - u)
    hi = np.minimum(T_a / 2.0, T_a / 2.0 - u)
    delta = w[None, :] - w[:, None]                       # w_j - w_i
    d = delta[:, :, None]
    small = np.abs(d) < 1e-12
    safe = np.where(small, 1.0, d)
    inner = np.where(small, hi - lo,
                     (np.exp(1j * safe * hi) - np.exp(1j * safe * lo)) / (1j * safe))
    K = np.sum(wu * C * np.exp(1j * w[None, :, None] * u) * inner, axis=2) / T_a
    # F: theta over [0, T_a]
    th, wth = gauss_panels(np.linspace(0.0, T_a, n_pan + 1), 16)
    Cth = pref * toy_correlation(th)
    wp_ = w[:, None]
    wq_ = w[None, :]
    w_plus = (0.5 * (wp_ + wq_))[:, :, None]
    w_minus = (0.5 * (wp_ - wq_))[:, :, None]
    zero = np.abs(w_plus) < 1e-12
    safe_plus = np.where(zero, 1.0, w_plus)
    general = (np.exp(1j * (wp_[:, :, None] * th - T_a * w_plus))
               - np.exp(-1j * (wq_[:, :, None] * th - T_a * w_plus))) / (2.0 * safe_plus)
    limit = 1j * np.exp(1j * w_minus * th) * (th - T_a)
    integrand = np.where(zero, limit, general) * Cth
    F = np.real(np.sum(wth * integrand, axis=2)) / T_a
    H = sum(F[i, j] * (ops[j] @ ops[i]) for i in range(len(w)) for j in range(len(w)))
    return K, 0.5 * (H + H.conj().T)


def check_cgme_coefficients(gen, freqs, ops, T_a, tol=1e-8):
    K, H = own_kossakowski_and_lamb(freqs, ops, T_a)
    k_res = np.max(np.abs(gen.meta["kossakowski"] - K))
    require(k_res <= tol * max(1.0, np.max(np.abs(K))),
            f"Kossakowski matrix differs from the time-domain integral by {k_res:.2e}")
    h_res = np.max(np.abs(gen.meta["H_LS"] - H))
    require(h_res <= tol * max(1.0, np.max(np.abs(H))),
            f"Lamb shift differs from the defining integral by {h_res:.2e}")


# ---------------------------------------------------------------------------
# pauli_ladder
# ---------------------------------------------------------------------------

def check_ladder_rung(rung_cfg: dict, output: dict):
    n = rung_cfg["model"]["qubits"]
    H = model_matrix(rung_cfg["model"]["hamiltonian"])
    beta = rung_cfg["bath"]["params"]["beta"]
    for kind, gen in output["generators"].items():
        M = gen.to_superoperator().matrix
        what = f"{n}q {kind}"
        check_trace_preserving(M, what)
        check_hermiticity_preserving(M, what)
        if kind != "redfield":
            check_completely_positive(M, what)
        if kind == "davies":
            check_gibbs_stationary(M, H, beta, what)


def check_ladder_decomposition(rung_cfg: dict, jd):
    A = pauli_matrix(rung_cfg["model"]["coupling"][0])
    check_jump_sum(jd.operators, A, f"{rung_cfg['model']['qubits']}q decomposition")


# ---------------------------------------------------------------------------
# driven_dd
# ---------------------------------------------------------------------------

def check_pulse_free(M, stationary, tol=1e-10):
    residual = np.max(np.abs(M - stationary))
    require(residual <= tol, f"pulse-free generator differs from the stationary one by {residual:.2e}")


def check_dd_generator(M, what):
    check_trace_preserving(M, what)
    check_hermiticity_preserving(M, what)


def check_dd_periodic(M, M_shifted, tol=1e-12):
    residual = np.max(np.abs(M - M_shifted))
    require(residual <= tol * max(np.max(np.abs(M)), 1e-300),
            f"DD generator not periodic with period 2 dt (difference {residual:.2e})")


def ohmic_gamma(w, kappa, omega_c, beta):
    """2 pi kappa w exp(-|w|/omega_c) / (1 - exp(-beta w)), with its w -> 0 limit."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-12
    safe = np.where(small, 1.0, w)
    ratio = np.where(small, 1.0 / beta, safe / -np.expm1(-beta * safe))
    return 2.0 * np.pi * kappa * ratio * np.exp(-np.abs(w) / omega_c)


def own_xi(kappa, omega_c, beta, dt) -> float:
    """Closed-form suppression ratio for k' = 1 on a fixed grid:
    int gamma (sin^2(w dt)/(w dt))^2 / int gamma (sin(2 w dt)/(2 w dt))^2."""
    W = 50.0 * omega_c
    w, wt = gauss_panels(np.linspace(-W, W, 801), 16)
    x = w * dt
    g = ohmic_gamma(w, kappa, omega_c, beta)
    num = np.sum(wt * g * (np.sin(x) ** 2 / x) ** 2)
    den = np.sum(wt * g * np.sinc(2.0 * x / np.pi) ** 2)
    return float(num / den)


def dd_rows(out_dir: str):
    return [{"beta": float(r["beta[time]"]), "omega_c": float(r["omega_c[1/time]"]),
             "dt": float(r["dt[time]"]), "xi": float(r["xi[dimensionless]"])}
            for r in read_csv(os.path.join(out_dir, "dd.csv"))]


def check_dd_table(out_dir: str, table: dict):
    rows = dd_rows(out_dir)
    expected = len(table["beta"]) * len(table["omega_c"]) * len(table["dt"])
    require(len(rows) == expected, f"dd.csv has {len(rows)} rows, expected {expected}")
    for r in rows:
        if r["omega_c"] * r["dt"] < math.pi / 4.0:
            require(r["xi"] < 1.0, f"xi = {r['xi']:.4g} >= 1 although omega_c dt < pi/4 ({r})")
        own = own_xi(table["kappa"], r["omega_c"], r["beta"], r["dt"])
        require(abs(r["xi"] - own) <= 1e-5 * abs(own),
                f"xi = {r['xi']:.8g} differs from the fixed-grid integral {own:.8g} ({r})")


def check_dd_general_form(row: dict, kappa: float, k_prime: int, rtol=2e-3):
    """The closed form's dt is half the pulse spacing of the window form (its
    window T_a = 4 k' dt spans 2 k' pulse intervals), so the window form is
    evaluated with pulses every 2 dt."""
    from qme.baths import OhmicBath
    from qme.driving import dd_suppression_xi_general

    bath = OhmicBath(kappa=kappa, omega_c=row["omega_c"], beta=row["beta"])
    general = dd_suppression_xi_general(bath, 2.0 * row["dt"], 4.0 * k_prime * row["dt"])
    require(abs(row["xi"] - general) <= rtol * abs(general),
            f"closed-form xi {row['xi']:.6g} differs from the window form {general:.6g} ({row})")


# ---------------------------------------------------------------------------
# dispatch: per operation, and once per run
# ---------------------------------------------------------------------------

def _stationary_cgme(wl, state):
    """The stationary CGME superoperator the pulse-free point must equal."""
    if "stationary" not in state:
        from qme.generators import GeneratorConfig, cgme_generator

        gen = cgme_generator(state["free_jd"], state["free_bath"],
                             GeneratorConfig("cgme_frequency", T_a=wl.pulse_free_ta))
        state["stationary"] = gen.to_superoperator().matrix
    return state["stationary"]


def check_op(wl, state, op, round_ops):
    """Check one operation's output; ``round_ops`` are the ops of its round."""
    if wl.name == "ta_sweep_2q":
        if op.name == "compare":
            check_compare(op.output["dir"])
        elif op.name == "bounds":
            check_bounds(op.output["dir"])
        else:
            check_optimize_ta(op.output["dir"], wl.config["bath"]["params"]["tau_SB"])
    elif wl.name == "pauli_ladder":
        n = int(op.name.split("_")[1].rstrip("q"))
        check_ladder_rung(wl.rungs[wl.qubits.index(n)], op.output)
    elif op.name.startswith("dd_point"):
        check_dd_generator(op.output, op.name)
        if op.name == f"dd_point_{len(wl.dd_times) - 1}":
            first = round_ops[0]
            require(first.error is None, "the unshifted DD point failed")
            check_dd_periodic(first.output, op.output)
    elif op.name == "pulse_free":
        check_pulse_free(op.output, _stationary_cgme(wl, state))
    else:
        check_dd_table(op.output["dir"], wl.table)


def check_run(wl, state, last_ops):
    """Checks made once per run, on inputs or on the last round's outputs."""
    if wl.name == "ta_sweep_2q":
        from qme.config import load_config
        from qme.generators import GeneratorConfig, cgme_generator, decompose_coupling
        from qme.operators import eigensystem

        cfg = load_config(wl.config_paths[0])
        bath = cfg.bath.build()
        jd = decompose_coupling(eigensystem(cfg.model.hamiltonian_operator()),
                                cfg.model.coupling_operators()[0])
        gen = cgme_generator(jd, bath, GeneratorConfig("cgme_frequency", T_a=wl.bounds_ta))
        check_cgme_coefficients(gen, jd.frequencies, jd.operators, wl.bounds_ta)
    elif wl.name == "pauli_ladder":
        for rung_cfg, rung in zip(wl.rungs, state):
            check_ladder_decomposition(rung_cfg, rung["jd"])
    else:
        table = next(op for op in last_ops if op.name == "dd_table")
        require(table.error is None, "the last DD table failed")
        for row in dd_rows(table.output["dir"]):
            check_dd_general_form(row, wl.table["kappa"], wl.table["k_prime"])
