"""The three workloads: seeded inputs, set-up, and one round of operations.

Each workload writes its inputs (``qme`` JSON configs plus the benchmark's
own parameters) from ``--seed``, so the same seed gives the same inputs.  A
round runs the same operations on the same inputs and records each timed
step as (name, start, end) for ``timing.Clock`` to normalise.  ``prepare`` is the in-process set-up (config parse, bath
construction, timescales, jump decomposition) that library workloads reuse
across rounds; it is never inside a timed step.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

TOY_BATH = {"a": 1.01, "b": 0.6, "beta": 4.0, "tau_SB": 10.0}
BENCHMARK_MODEL = {"ZI": 0.5, "IZ": -0.7, "ZZ": 0.3, "XI": 1.0, "IX": 1.0}


def pauli_matrix(label: str) -> np.ndarray:
    out = PAULI[label[0]]
    for c in label[1:]:
        out = np.kron(out, PAULI[c])
    return out


def model_matrix(terms: dict) -> np.ndarray:
    return sum(coeff * pauli_matrix(label) for label, coeff in terms.items())


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


class Op:
    """One operation's outcome: its output, or the error it raised."""

    def __init__(self, name, output=None, error=None):
        self.name = name
        self.output = output
        self.error = error


def _run_op(clock, steps, name, fn, *args, **kwargs):
    try:
        output, t0, t1 = clock.step(fn, *args, **kwargs)
    except Exception as exc:  # the op failed; keep measuring the others
        return Op(name, error=f"{type(exc).__name__}: {exc}")
    steps.append((name, t0, t1))
    return Op(name, output=output)


# ---------------------------------------------------------------------------
# ta_sweep_2q: the paper's central comparison through the qme CLI
# ---------------------------------------------------------------------------

class TaSweep2q:
    """``qme compare`` (ore, Davies, Redfield and a 7-value CGME T_a sweep on
    a 129-point grid), then ``qme bounds`` and ``qme optimize-ta``, on the
    two-qubit benchmark model with the ToyBath."""

    name = "ta_sweep_2q"
    commands = ("compare", "bounds", "optimize-ta")
    base_ta = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0)

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.sweep = sorted(float(f"{t * rng.uniform(0.98, 1.02):.4g}") for t in self.base_ta)
        self.bounds_ta = float(f"{rng.uniform(1.0, 1.3):.4g}")
        self.config = {
            "model": {"qubits": 2, "hamiltonian": BENCHMARK_MODEL,
                      "coupling": ["ZI"], "initial_state": "11"},
            "bath": {"kind": "toy", "params": TOY_BATH},
            # ore first: compare scores the sweep against the first
            # non-coarse-grained equation
            "equations": [{"kind": "ore"}, {"kind": "davies"}, {"kind": "redfield"},
                          {"kind": "cgme_frequency", "t_a": self.bounds_ta}],
            "sweep": {"parameter": "t_a", "values": self.sweep},
            "grid": {"t_max_tau_sb": 2.56, "points": 129},
        }
        self.config_paths = [_write_json(os.path.join(out_dir, "ta_sweep.json"), self.config)]

    def prepare(self):
        return None

    def _cli(self, command, out):
        import qme.cli

        argv = [command, "--config", self.config_paths[0], "--out", out]
        if command == "optimize-ta":
            argv += ["--seed", str(self.seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qme.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"qme {command} exited with code {code}")
        return {"dir": out, "stdout": buf.getvalue()}

    def round(self, clock, state, round_dir, steps):
        return [_run_op(clock, steps, cmd, self._cli, cmd, os.path.join(round_dir, cmd))
                for cmd in self.commands]


# ---------------------------------------------------------------------------
# pauli_ladder: many Bohr frequencies at one T_a, through the library
# ---------------------------------------------------------------------------

def ladder_terms(rng, n: int) -> dict:
    """Random parity-preserving Pauli-string Hamiltonian on n qubits.

    Every term commutes with Z^n, as does the coupling Z on qubit 0, so the
    spectrum splits into two parity sectors of d/2 levels and a generic draw
    gives d(d/2 - 1) + 1 Bohr frequencies: 5, 25 and 113 for n = 2, 3, 4.
    The backbone fixes that count; the seed draws the coefficients and two
    extra even-weight strings.
    """
    terms = {}

    def put(label, coeff):
        terms[label] = terms.get(label, 0.0) + float(f"{coeff:.6g}")

    for i in range(n):
        put("I" * i + "Z" + "I" * (n - i - 1), rng.choice([-1, 1]) * rng.uniform(0.3, 1.2))
    for i in range(n - 1):
        for pair in ("XX", "YY", "ZZ"):
            lo, hi = (0.1, 0.5) if pair == "ZZ" else (0.2, 0.8)
            put("I" * i + pair + "I" * (n - i - 2), rng.choice([-1, 1]) * rng.uniform(lo, hi))
    added = 0
    while added < 2:
        label = "".join(rng.choice(list("IXYZ"), size=n))
        if set(label) == {"I"} or sum(c in "XY" for c in label) % 2:
            continue
        put(label, rng.choice([-1, 1]) * rng.uniform(0.1, 0.4))
        added += 1
    return terms


class PauliLadder:
    """Davies, Redfield and CGME generators, each evolved on a short grid,
    for seeded 2-, 3- and 4-qubit Pauli models with a Z coupling on qubit 0.
    The 4-qubit rung's CGME is lambless: its pairwise Lamb shift (113^2
    pairs of adaptive quadratures) would take minutes."""

    name = "pauli_ladder"
    qubits = (2, 3, 4)
    lambless_from = 4
    t_a = 1.0

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 2])
        self.rungs = []
        self.config_paths = []
        for n in self.qubits:
            terms = ladder_terms(rng, n)
            state = "".join(str(b) for b in rng.integers(0, 2, size=n))
            cfg = {
                "model": {"qubits": n, "hamiltonian": terms,
                          "coupling": ["Z" + "I" * (n - 1)], "initial_state": state},
                "bath": {"kind": "toy", "params": TOY_BATH},
                "equations": [{"kind": "davies"}, {"kind": "redfield"},
                              {"kind": "cgme_frequency", "t_a": self.t_a,
                               "lambless": n >= self.lambless_from}],
                "grid": {"t_max_tau_sb": 0.25, "points": 6},
            }
            self.rungs.append(cfg)
            self.config_paths.append(_write_json(os.path.join(out_dir, f"ladder_{n}q.json"), cfg))

    def prepare(self):
        from qme.config import load_config
        from qme.generators import decompose_coupling
        from qme.operators import eigensystem

        rungs = []
        for path in self.config_paths:
            cfg = load_config(path)
            bath = cfg.bath.build()
            ts = bath.timescales()
            H = cfg.model.hamiltonian_operator()
            A = cfg.model.coupling_operators()[0]
            jd = decompose_coupling(eigensystem(H), A)
            rungs.append({"cfg": cfg, "bath": bath, "jd": jd,
                          "rho0": cfg.model.initial_density(),
                          "grid": cfg.grid.times(ts.tau_SB)})
        return rungs

    @staticmethod
    def _build_and_evolve(rung, eq):
        gens = importlib.import_module("qme.generators")

        jd, bath = rung["jd"], rung["bath"]
        if eq.equation_kind == "davies":
            gen = gens.davies_generator(jd, bath, lambless=eq.lambless)
        elif eq.equation_kind == "redfield":
            gen = gens.redfield_generator(jd, bath, lambless=eq.lambless)
        else:
            gen = gens.cgme_generator(jd, bath, eq)
        res = importlib.import_module("qme.evolve").evolve(gen, rung["rho0"], rung["grid"])
        return gen, res

    def _rung(self, clock, steps, rung):
        gens, results = {}, {}
        for eq in rung["cfg"].equations:
            (gen, res), t0, t1 = clock.step(self._build_and_evolve, rung, eq)
            steps.append((f"{rung['cfg'].model.qubits}q/{eq.equation_kind}", t0, t1))
            gens[eq.equation_kind] = gen
            results[eq.equation_kind] = res
        return {"generators": gens, "results": results}

    def round(self, clock, state, round_dir, steps):
        ops = []
        for n, rung in zip(self.qubits, state):
            name = f"rung_{n}q"
            try:
                ops.append(Op(name, output=self._rung(clock, steps, rung)))
            except Exception as exc:
                ops.append(Op(name, error=f"{type(exc).__name__}: {exc}"))
        return ops


# ---------------------------------------------------------------------------
# driven_dd: time-dependent CGME under pulses, and the DD table
# ---------------------------------------------------------------------------

class DrivenDD:
    """Time-dependent CGME generators for one qubit under periodic X pulses
    (two times in one DD period plus the first time shifted by the period
    2 dt), one pulse-free two-qubit time point, and ``qme dd`` over a fixed
    (beta, omega_c, dt) grid."""

    name = "driven_dd"
    dt = 0.25
    k_prime = 1
    n_pulse_intervals = 16
    dd_orders = (6, 6)            # (quadrature_order, grid_order)
    pulse_free_orders = (16, 16)
    pulse_free_ta = 0.5
    ohmic = {"kappa": 0.1, "omega_c": 1.0, "beta": 2.0}

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 3])
        dt = self.dt
        self.t_a = 4 * self.k_prime * dt
        # strictly between pulses, so every window holds 4 pulse instants
        t1 = 1.0 + rng.uniform(0.2, 0.8) * dt
        t2 = 1.0 + dt + rng.uniform(0.2, 0.8) * dt
        self.dd_times = (t1, t2, t1 + 2 * dt)
        self.pulse_free_t = float(rng.uniform(2.0, 8.0))
        # A fixed grid: on some jittered grids ``qme dd`` returns a wrong xi
        # (adaptive quad over [-W, W] misses the peak at w = 0), which would
        # make failures depend on the seed.
        self.table = {"beta": [0.5, 5.0], "omega_c": [0.5, 1.0, 2.0],
                      "dt": [0.2, 0.4, 0.6, 0.8], "k_prime": self.k_prime, "kappa": 1.0}
        self.config_paths = [
            _write_json(os.path.join(out_dir, "dd_points.json"), {
                "model": {"qubits": 1, "hamiltonian": {"Z": 0.0}, "coupling": ["Z"],
                          "initial_state": "0"},
                "bath": {"kind": "ohmic", "params": self.ohmic, "t_cutoff": 20.0}}),
            _write_json(os.path.join(out_dir, "pulse_free.json"), {
                "model": {"qubits": 2, "hamiltonian": BENCHMARK_MODEL,
                          "coupling": ["ZI"], "initial_state": "11"},
                "bath": {"kind": "toy", "params": TOY_BATH}}),
            _write_json(os.path.join(out_dir, "dd_table.json"), {"dd": self.table}),
        ]

    def prepare(self):
        from qme.config import load_config
        from qme.driving import DDSequence, DriveSchedule, dd_schedule
        from qme.generators import decompose_coupling
        from qme.operators import eigensystem

        points, free, _ = (load_config(p) for p in self.config_paths)
        dd_bath = points.bath.build()
        dd_bath.timescales(points.bath.t_cutoff)
        free_bath = free.bath.build()
        free_bath.timescales()
        H = free.model.hamiltonian_operator()
        A = free.model.coupling_operators()[0]
        jd = decompose_coupling(eigensystem(H), A)
        duration = self.n_pulse_intervals * self.dt
        return {
            "dd_bath": dd_bath,
            "dd_A": points.model.coupling_operators()[0].entries,
            "dd_sched": dd_schedule(DDSequence(self.dt, self.k_prime), duration),
            "free_bath": free_bath, "free_A": A.entries, "free_jd": jd,
            "free_sched": DriveSchedule(segments=((0.0, 10.0, H.entries),)),
        }

    @staticmethod
    def _td(sched, A, bath, t, t_a, orders):
        q, g = orders
        return importlib.import_module("qme.evolve").td_cgme_superoperator(
            sched, A, bath, t, t_a, quadrature_order=q, grid_order=g).matrix

    def _dd_cli(self, out):
        import qme.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qme.cli.main(["dd", "--config", self.config_paths[2], "--out", out])
        if code != 0:
            raise RuntimeError(f"qme dd exited with code {code}")
        return {"dir": out}

    def round(self, clock, state, round_dir, steps):
        ops = []
        for k, t in enumerate(self.dd_times):
            ops.append(_run_op(clock, steps, f"dd_point_{k}", self._td, state["dd_sched"],
                               state["dd_A"], state["dd_bath"], t, self.t_a, self.dd_orders))
        ops.append(_run_op(clock, steps, "pulse_free", self._td, state["free_sched"],
                           state["free_A"], state["free_bath"], self.pulse_free_t,
                           self.pulse_free_ta, self.pulse_free_orders))
        ops.append(_run_op(clock, steps, "dd_table", self._dd_cli, os.path.join(round_dir, "dd")))
        return ops


WORKLOADS = {cls.name: cls for cls in (TaSweep2q, PauliLadder, DrivenDD)}
