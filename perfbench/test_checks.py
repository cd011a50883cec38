"""Every output check rejects a deliberately corrupted output, and accepts
fresh outputs of inputs it has never seen, so none of them compares with
stored copies of earlier numbers.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

import csv
import math
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def fake_gen(M, meta=None):
    sop = types.SimpleNamespace(matrix=M)
    return types.SimpleNamespace(to_superoperator=lambda: sop, meta=meta or {})


# ---------------------------------------------------------------------------
# ta_sweep_2q: CLI outputs
# ---------------------------------------------------------------------------

def compare_outputs(tmp_path, to_davies=(0.4, 0.2, 0.1), to_ore=(0.3, 0.1, 0.2),
                    ore_davies=0.15, series_max=0.5):
    tags = [f"cgme_frequency_ta{t}" for t in (0.5, 2, 8)]
    averages = [("ore", "davies", ore_davies)]
    averages += [("ore", tag, v) for tag, v in zip(tags, to_ore)]
    averages += [("davies", tag, v) for tag, v in zip(tags, to_davies)]
    write_csv(tmp_path / "compare_averages.csv",
              ["equation_a", "equation_b", "time_average_trace_distance"], averages)
    rows = [(t, a, b, series_max * t) for t in (0.0, 0.5, 1.0) for a, b, _ in averages]
    write_csv(tmp_path / "compare.csv", ["t[abs]", "equation_a", "equation_b", "trace_distance"], rows)
    return str(tmp_path)


def test_compare_accepts_consistent_output(tmp_path):
    checks.check_compare(compare_outputs(tmp_path))


@pytest.mark.parametrize("corruption, message", [
    ({"series_max": 2.5}, "outside"),
    ({"to_davies": (0.4, 0.1, 0.2)}, "does not fall"),
    ({"to_ore": (0.3, 0.2, 0.25)}, "no CGME beats Davies"),
])
def test_compare_rejects(tmp_path, corruption, message):
    with pytest.raises(CheckFailed, match=message):
        checks.check_compare(compare_outputs(tmp_path, **corruption))


def bounds_output(tmp_path, strongest=(0.0, 0.2, 0.5), measured=(0.0, 0.1, 0.3)):
    rows = [(t, m, s, 1.0, 1.0) for t, m, s in zip((0.0, 1.0, 2.0), measured, strongest)]
    write_csv(tmp_path / "bounds.csv", ["t[abs]", "measured_trace_distance", "strongest_bound",
                                        "cgme_simple", "redfield_log"], rows)
    return str(tmp_path)


def test_bounds_accepts_dominating_bound(tmp_path):
    checks.check_bounds(bounds_output(tmp_path))


@pytest.mark.parametrize("strongest, message", [
    ((1e-3, 0.2, 0.5), "not 0 at t = 0"),
    ((0.0, 0.05, 0.5), "below the measured"),
])
def test_bounds_rejects(tmp_path, strongest, message):
    with pytest.raises(CheckFailed, match=message):
        checks.check_bounds(bounds_output(tmp_path, strongest=strongest))


def test_optimize_ta_checks_norm_bound(tmp_path):
    path = tmp_path / "optimize_ta.txt"
    path.write_text("measured generator norm: max = 0.3, typical = 0.1, bound = 0.4\n")
    checks.check_optimize_ta(str(tmp_path), tau_sb=10.0)
    with pytest.raises(CheckFailed, match="exceeds"):
        checks.check_optimize_ta(str(tmp_path), tau_sb=20.0)
    path.write_text("T_a (formula) = 1.17\n")
    with pytest.raises(CheckFailed, match="no sampled"):
        checks.check_optimize_ta(str(tmp_path), tau_sb=10.0)


# ---------------------------------------------------------------------------
# ta_sweep_2q: coefficients against the defining integrals
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_jd():
    from qme import HermitianOperator, ToyBath, decompose_coupling, eigensystem

    H = HermitianOperator(workloads.model_matrix(workloads.BENCHMARK_MODEL))
    A = HermitianOperator(workloads.pauli_matrix("ZI"))
    return decompose_coupling(eigensystem(H), A), ToyBath(**workloads.TOY_BATH)


@pytest.mark.parametrize("t_a", [0.7, 2.3])
def test_cgme_coefficients_match_and_reject(benchmark_jd, t_a):
    from qme import GeneratorConfig, cgme_generator

    jd, bath = benchmark_jd
    gen = cgme_generator(jd, bath, GeneratorConfig("cgme_frequency", T_a=t_a))
    checks.check_cgme_coefficients(gen, jd.frequencies, jd.operators, t_a)
    for key, message in (("kossakowski", "Kossakowski"), ("H_LS", "Lamb shift")):
        bad = dict(gen.meta)
        bad[key] = bad[key].copy()
        bad[key][0, 0] += 1e-6
        with pytest.raises(CheckFailed, match=message):
            checks.check_cgme_coefficients(fake_gen(None, bad), jd.frequencies, jd.operators, t_a)
    with pytest.raises(CheckFailed):   # a T_a other than the generator's
        checks.check_cgme_coefficients(gen, jd.frequencies, jd.operators, 1.1 * t_a)


# ---------------------------------------------------------------------------
# pauli_ladder
# ---------------------------------------------------------------------------

def ladder_rung(seed):
    rng = np.random.default_rng(seed)
    cfg = {"model": {"qubits": 2, "hamiltonian": workloads.ladder_terms(rng, 2),
                     "coupling": ["ZI"], "initial_state": "01"},
           "bath": {"kind": "toy", "params": workloads.TOY_BATH}}
    from qme import (GeneratorConfig, HermitianOperator, ToyBath, cgme_generator,
                     davies_generator, decompose_coupling, eigensystem, redfield_generator)

    H = HermitianOperator(workloads.model_matrix(cfg["model"]["hamiltonian"]))
    jd = decompose_coupling(eigensystem(H), HermitianOperator(workloads.pauli_matrix("ZI")))
    bath = ToyBath(**workloads.TOY_BATH)
    gens = {"davies": davies_generator(jd, bath), "redfield": redfield_generator(jd, bath),
            "cgme_frequency": cgme_generator(jd, bath, GeneratorConfig("cgme_frequency", T_a=1.0))}
    return cfg, jd, gens


@pytest.mark.parametrize("seed", [3, 4])
def test_ladder_checks_accept_fresh_models(seed):
    cfg, jd, gens = ladder_rung(seed)
    checks.check_ladder_rung(cfg, {"generators": gens})
    checks.check_ladder_decomposition(cfg, jd)


def test_ladder_checks_reject_corrupted_generators():
    cfg, jd, gens = ladder_rung(3)
    d = 4
    M = gens["davies"].to_superoperator().matrix
    leak = M.copy()
    leak[0, 0] -= 1e-3                                    # trace leaks
    # rho -> i c (Z rho Z - rho): traceless output, not Hermitian
    Zq = workloads.pauli_matrix("ZI")
    nonherm = M + 1e-3j * (np.kron(Zq.T, Zq) - np.eye(d * d))
    # a negative-weight dissipator: not completely positive
    L = np.zeros((d, d), dtype=complex)
    L[0, 1] = 1.0
    LdL = L.conj().T @ L
    negative = M - 5.0 * (np.kron(L.conj(), L) - 0.5 * np.kron(np.eye(d), LdL)
                          - 0.5 * np.kron(LdL.T, np.eye(d)))
    # an extra Hamiltonian term that does not commute with H: Gibbs not stationary
    X = workloads.pauli_matrix("XI")
    shifted = M - 0.1j * (np.kron(np.eye(d), X) - np.kron(X.T, np.eye(d)))
    for bad, message in ((leak, "trace"), (nonherm, "Hermiticity"), (negative, "Choi"),
                         (shifted, "Gibbs")):
        with pytest.raises(CheckFailed, match=message):
            checks.check_ladder_rung(cfg, {"generators": {"davies": fake_gen(bad)}})
    broken = types.SimpleNamespace(operators=jd.operators[:-1])
    with pytest.raises(CheckFailed, match="sum of A_w"):
        checks.check_ladder_decomposition(cfg, broken)


# ---------------------------------------------------------------------------
# driven_dd
# ---------------------------------------------------------------------------

def test_dd_generator_checks_reject():
    Z = np.diag([1.0, -1.0]).astype(complex)
    M = 0.3 * (np.kron(Z, Z) - np.eye(4))                 # pure dephasing
    checks.check_dd_generator(M, "dd")
    checks.check_dd_periodic(M, M.copy())
    leak = M.copy()
    leak[0, 0] -= 0.01
    with pytest.raises(CheckFailed, match="trace"):
        checks.check_dd_generator(leak, "dd")
    with pytest.raises(CheckFailed, match="periodic"):
        checks.check_dd_periodic(M, M * (1 + 1e-9))
    checks.check_pulse_free(M, M + 1e-12)
    with pytest.raises(CheckFailed, match="stationary"):
        checks.check_pulse_free(M, M + 1e-8)


def dd_table(tmp_path, table, perturb=None):
    from qme.baths import OhmicBath
    from qme.driving import dd_suppression_xi

    rows = []
    for beta in table["beta"]:
        for omega_c in table["omega_c"]:
            for dt in table["dt"]:
                xi = dd_suppression_xi(OhmicBath(table["kappa"], omega_c, beta), dt)
                rows.append([beta, omega_c, dt, xi])
    if perturb is not None:
        perturb(rows)
    write_csv(tmp_path / "dd.csv", ["beta[time]", "omega_c[1/time]", "dt[time]",
                                    "xi[dimensionless]"], rows)
    return str(tmp_path)


TABLE = {"beta": [1.7], "omega_c": [0.8], "dt": [0.3, 1.3], "kappa": 1.0, "k_prime": 1}


def test_dd_table_accepts_fresh_table(tmp_path):
    out = dd_table(tmp_path, TABLE)
    checks.check_dd_table(out, TABLE)
    for row in checks.dd_rows(out):
        checks.check_dd_general_form(row, TABLE["kappa"], TABLE["k_prime"])


def _scale(k, factor):
    def perturb(rows):
        rows[k][3] *= factor
    return perturb


@pytest.mark.parametrize("perturb, message", [
    (_scale(0, 1.0 + 1e-3), "fixed-grid integral"),
    (lambda rows: rows.pop(), "rows, expected"),
])
def test_dd_table_rejects(tmp_path, perturb, message):
    with pytest.raises(CheckFailed, match=message):
        checks.check_dd_table(dd_table(tmp_path, TABLE, perturb), TABLE)


def test_dd_table_rejects_no_suppression(tmp_path):
    table = dict(TABLE, dt=[0.3])
    assert 0.8 * 0.3 < math.pi / 4

    def above_one(rows):
        rows[0][3] = 1.2
    with pytest.raises(CheckFailed, match=">= 1"):
        checks.check_dd_table(dd_table(tmp_path, table, above_one), table)


def test_dd_general_form_rejects(tmp_path):
    row = checks.dd_rows(dd_table(tmp_path, TABLE))[0]
    row["xi"] *= 1.01
    with pytest.raises(CheckFailed, match="window form"):
        checks.check_dd_general_form(row, TABLE["kappa"], TABLE["k_prime"])
