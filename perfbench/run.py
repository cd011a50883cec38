"""qme benchmark: one workload per run, printing one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload ta_sweep_2q --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs from ``--seed``, measures set-up in
fresh interpreters, then repeats whole rounds of the workload's operations
until the next round would overrun ``--seconds``.  After the timed section it
checks every operation's outputs.  With ``--trace 1`` it adds one traced
round and reports per-layer metrics instead of end-to-end ones.  The last
line of standard output is the result; progress goes to standard error.
See README.md for the workloads, metrics and reference figures.
"""

import os
import sys

# one BLAS thread: the matrices are small and the host has two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import checks
from timing import NOMINAL_WARM_KERNEL_S, Clock, normalise, pin_to_one_core
from tracing import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def measure_setup(config_paths):
    """Median speed-normalised set-up and import times over fresh interpreters."""
    setup, imports = [], []
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_PROBES):
        spawn = time.perf_counter()
        proc = subprocess.run([sys.executable, probe, SRC, repr(spawn), *config_paths],
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(normalise(rec["setup_s"], rec["kernel_s"], NOMINAL_WARM_KERNEL_S))
        imports.append(normalise(rec["import_s"], rec["kernel_s"], NOMINAL_WARM_KERNEL_S))
    return statistics.median(setup), statistics.median(imports), setup


def check_round(wl, state, ops, label):
    """Check a finished round's outputs (outside every timed step)."""
    problems = []
    for op in ops:
        problem = op.error
        if problem is None:
            try:
                checks.check_op(wl, state, op, ops)
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            problems.append(f"{label} {op.name}: {problem}")
    return problems


def run_rounds(wl, clock, state, seconds, out_dir):
    """Whole rounds until the next one would end after ``seconds``.

    Each round is checked as soon as it ends and only the last round's
    operations are kept, so memory does not grow with the number of rounds.
    Peak memory is read after the first round, which every run has.
    """
    rounds, ops, peak_rss_mb = [], [], None
    start = time.perf_counter()
    while True:
        steps = []
        label = f"round{len(rounds)}"
        t0 = time.perf_counter()
        ops = wl.round(clock, state, os.path.join(out_dir, label), steps)
        t1 = time.perf_counter()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append({"label": label, "ops": len(ops), "steps": steps, "span": (t0, t1),
                       "problems": check_round(wl, state, ops, label)})
        log(f"{label}: {t1 - t0:.3f} s including kernel samples")
        typical = statistics.median(r["span"][1] - r["span"][0] for r in rounds)
        if time.perf_counter() - start + typical > seconds:
            return rounds, ops, peak_rss_mb


def traced_round(wl, clock, out_dir):
    """Set-up and one round with every layer traced; returns (round, tracer)."""
    tracer = Tracer()
    tracer.install()
    try:
        state = wl.prepare()
        steps = []
        t0 = time.perf_counter()
        ops = wl.round(clock, state, os.path.join(out_dir, "traced"), steps)
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    rnd = {"label": "traced", "ops": len(ops), "steps": steps, "span": (t0, t1),
           "problems": check_round(wl, state, ops, "traced")}
    return rnd, tracer


def price_rounds(clock, rounds):
    """Add raw and normalised times to every round and step."""
    for rnd in rounds:
        priced = [(name, t0, t1, *clock.normalised(t0, t1)) for name, t0, t1 in rnd["steps"]]
        rnd["steps"] = priced
        rnd["raw_s"] = sum(step[3] for step in priced)
        rnd["wall_s"] = sum(step[4] for step in priced)
        log(f"{rnd['label']}: raw {rnd['raw_s']:.3f} s, normalised {rnd['wall_s']:.3f} s")


def csv_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files if f.endswith(".csv"))
    return total


def per_layer_metrics(tracer, speed, traced, traced_dir, untraced_wall, import_s):
    """``speed`` turns a raw span time into normalised seconds without the
    kernel samples that fell inside it."""
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] * speed

    out = {}
    for name in (
        "baths.correlation", "baths.gamma", "baths.lamb_amplitude_S",
        "generators.decompose_coupling", "generators.cgme_lamb_shift",
        "operators.trace_norm", "evolve.evolve", "evolve.trace_distance_series",
        "evolve.td_cgme_superoperator", "driving.td_a_epsilon", "driving.heisenberg_A",
        "driving.dd_suppression_xi",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("baths.correlation.points", "baths.gamma.points",
                 "generators.bohr_frequencies", "generators.lamb_pairs"):
        out[name] = (tracer.counters.get(name, 0), "count")
    for name in (
        "baths.correlation", "baths.gamma", "baths.lamb_amplitude_S", "baths.build",
        "baths.timescales", "generators.decompose_coupling", "generators.kossakowski_matrix",
        "generators.cgme_lamb_shift", "generators.davies_generator",
        "generators.redfield_generator", "generators.cgme_generator", "operators.vectorize",
        "operators.eigensystem", "operators.trace_norm", "evolve.evolve", "evolve.evolve_ore",
        "evolve.trace_distance_series", "evolve.td_cgme_superoperator",
        "driving.td_a_epsilon", "driving.heisenberg_A", "driving.td_lamb",
        "driving.dd_suppression_xi", "diagnostics.lambda_estimate", "diagnostics.bounds",
        "config.load_config", "cli.command",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")
    nodes = len(tracer.heisenberg_nodes)
    out["driving.heisenberg_A.calls_per_node"] = (
        calls("driving.heisenberg_A") / nodes if nodes else 0.0, "ratio")
    out["cli.csv_bytes"] = (csv_bytes(traced_dir), "bytes")
    out["setup.import_s"] = (import_s, "s")
    out["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qme", "__init__.py")):
        log(f"error: no qme sources under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_core()

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    wl = WORKLOADS[args.workload](args.seed, out_dir)

    setup_s, import_s, setups = measure_setup(wl.config_paths)
    log(f"setup: median {setup_s:.3f} s over {[round(s, 3) for s in setups]}")

    clock = Clock()
    state = wl.prepare()
    clock.start()
    try:
        rounds, last_ops, peak_rss_mb = run_rounds(wl, clock, state, args.seconds, out_dir)
        if args.trace:
            traced, tracer = traced_round(wl, clock, out_dir)
            rounds.append(traced)
    finally:
        clock.stop()
    price_rounds(clock, rounds)
    timed = [r for r in rounds if r["label"] != "traced"]
    wall_s = statistics.median(r["wall_s"] for r in timed)
    if args.trace:
        tracer.write(os.path.join(out_dir, "trace.npz"))
        raw, norm = clock.normalised(*traced["span"])
        speed = norm / (traced["span"][1] - traced["span"][0])

    notes = [p for r in rounds for p in r["problems"]]
    correct = True
    try:
        checks.check_run(wl, state, last_ops)
    except Exception:
        correct = False
        notes.append(traceback.format_exc())
    for note in notes:
        log(note)
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(len(r["problems"]) for r in rounds)

    if args.trace:
        layers = per_layer_metrics(tracer, speed, traced, os.path.join(out_dir, "traced"),
                                   wall_s, import_s)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "setup_samples_s": setups,
              "rounds": rounds,
              "kernel_samples": list(zip(clock.starts, clock.kernels)), "result": result}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
