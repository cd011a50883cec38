"""Batch experiment runner: declarative configs in, CSV tables out.

Usage: ``qme COMMAND --config PATH [--out DIR] [--seed N] [--samples N] [-v]``.
One parser serves every command; each command reads the options it needs.

Commands
--------
bath-info    characterize the configured bath (spectral density grid,
             timescales, detailed-balance report, peak location)
evolve       integrate each configured master equation and export trajectories
compare      pairwise trace-norm differences between equations, with optional
             averaging-time sweeps and the sweep argmin
dd           pulse-sequence suppression-factor table over (beta, omega_c, dt)
bounds       a-priori error bounds next to the measured coarse-grained error
optimize-ta  averaging-time optimization report (formula, measured adjustment)

Exit codes: 0 success, 2 configuration error or unknown command or option,
3 numeric failure.  Every CSV table is written from its columns, each float
as ``%.12g``.  All outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import logging
import math
import os
import sys
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .baths import OhmicBath
from .config import ConfigError, ExperimentConfig, load_config
from .diagnostics import (
    MIN_SAMPLES,
    BoundParams,
    bound_summary,
    lambda_estimate,
    optimal_ta,
    strongest_bound,
    ta_discrepancy_report,
)
from .driving import dd_suppression_xi
from .evolve import EvolutionResult, evolve, evolve_ore, trace_distance_series
from .generators import (
    GeneratorConfig,
    cgme_generator,
    davies_generator,
    decompose_coupling,
    redfield_generator,
)
from .operators import eigensystem

logger = logging.getLogger(__name__)


def _cells(column):
    """A float ndarray column as its ``%.12g`` texts; any other iterable
    (texts, ``repeat``) as it is."""
    if isinstance(column, np.ndarray):
        return [f"{v:.12g}" for v in column.tolist()]
    return column


@contextlib.contextmanager
def _table(path: str, header: Sequence[str]):
    """Open a CSV table and yield ``write(*columns)``, which appends the rows
    of one block of columns."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        yield lambda *columns: writer.writerows(zip(*map(_cells, columns)))


def _write_csv(path: str, header: Sequence[str], columns) -> None:
    """Write a table given column by column (see ``_cells``)."""
    with _table(path, header) as write:
        write(*columns)


def _write_gnuplot(path: str, csv_name: str, ylabel: str, columns: str) -> None:
    script = (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"set ylabel '{ylabel}'\n"
        f"plot '{csv_name}' using {columns} with lines\n"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(script)


def _bath_and_timescales(cfg: ExperimentConfig):
    if cfg.bath is None:
        raise ConfigError("this command requires a 'bath' section")
    bath = cfg.bath.build()
    t_cutoff = cfg.bath.t_cutoff
    try:
        ts = bath.timescales(np.inf if t_cutoff is None else t_cutoff)
    except ValueError as exc:
        raise ConfigError(f"bath.t_cutoff: {exc}") from exc
    return bath, ts


def _model(cfg: ExperimentConfig):
    if cfg.model is None:
        raise ConfigError("this command requires a 'model' section")
    H = cfg.model.hamiltonian_operator()
    couplings = cfg.model.coupling_operators()
    if len(couplings) != 1:
        raise ConfigError(
            f"model.coupling must list exactly one operator, got {len(couplings)}; "
            "several couplings are not supported")
    return H, couplings[0], cfg.model.initial_density()


def _grid(cfg: ExperimentConfig, tau_sb: float) -> np.ndarray:
    if cfg.grid is None:
        raise ConfigError("this command requires a 'grid' section")
    return cfg.grid.times(tau_sb)


def _run_equation(
    eq: GeneratorConfig, H, A, bath, rho0, grid
) -> EvolutionResult:
    if eq.equation_kind == "ore":
        return evolve_ore(H, A, bath, rho0, grid)
    jd = decompose_coupling(eigensystem(H), A)
    if eq.equation_kind == "redfield":
        gen = redfield_generator(jd, bath, lambless=eq.lambless)
    elif eq.equation_kind == "davies":
        gen = davies_generator(jd, bath, lambless=eq.lambless)
    else:
        try:
            gen = cgme_generator(jd, bath, eq)
        except ValueError as exc:   # e.g. a bath that is not CP-admissible
            raise ConfigError(f"{_equation_tag(eq)}: {exc}") from exc
    return evolve(gen, rho0, grid, metadata={"equation_kind": eq.equation_kind})


def _equation_tag(eq: GeneratorConfig) -> str:
    tag = eq.equation_kind
    if eq.T_a is not None:
        tag += f"_ta{eq.T_a:g}"
    if eq.lambless:
        tag += "_lambless"
    return tag


# ---------------------------------------------------------------------------
# subcommands


def _plot_radius(bath) -> float:
    """Frequency half-window for tabulating gamma.

    Falls back to an envelope search for spectra that decay too slowly for a
    strict support radius (e.g. sinc-shaped ones, which fall off only as
    1/omega)."""
    try:
        return bath.support_radius()
    except ValueError:
        scale = bath.gamma_scale()
        W = 1.0
        while W < 1e4:
            envelope = float(np.max(np.abs(
                np.asarray(bath.gamma(np.linspace(W, 2.0 * W, 64))))))
            if envelope < 1e-3 * scale:
                return 2.0 * W
            W *= 2.0
        return W


def cmd_bath_info(cfg: ExperimentConfig, out_dir: str, args) -> int:
    bath, ts = _bath_and_timescales(cfg)
    radius = _plot_radius(bath)
    w = np.linspace(-radius, radius, 1201)
    g = np.asarray(bath.gamma(w), dtype=float)
    _write_csv(
        os.path.join(out_dir, "gamma.csv"), ["omega[1/time]", "gamma[1/time]"], [w, g]
    )
    peak = float(w[np.argmax(g)])
    lines = [
        f"bath kind: {bath.kind}",
        f"tau_SB = {ts.tau_SB:.6g}",
        f"tau_B = {ts.tau_B:.6g} (T_cutoff = {ts.T_cutoff:g})",
        f"epsilon_T = {ts.epsilon_T:.6g}",
        f"gamma peak at omega = {peak:.6g}",
    ]
    gmax = float(np.max(np.abs(g)))
    if np.min(g) < -1e-12 * max(gmax, 1.0):
        lines.append("gamma(omega) < 0 for some omega: not CP-admissible")
    if bath.thermal_flag:
        report = bath.kms_report(np.linspace(-10.0, 10.0, 401))
        lines.append(
            f"detailed balance: max relative deviation = "
            f"{report['max_relative_deviation']:.3g}"
        )
        lines.append(
            f"zero-frequency slope residual (relative) = "
            f"{report['slope_relative_residual']:.3g}"
        )
    norm = getattr(bath, "normalization", None)
    if norm is not None:
        lines.append(f"normalization constant = {norm:.6g}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    with open(os.path.join(out_dir, "bath_info.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    if cfg.outputs.gnuplot:
        _write_gnuplot(
            os.path.join(out_dir, "gamma.gp"), "gamma.csv", "gamma", "1:2"
        )
    return 0


def _trajectory_columns(res: EvolutionResult, projectors) -> List[np.ndarray]:
    """The columns of ``_trajectory_header``: t, the populations Tr(P rho),
    the monitors, then Re and Im of every rho entry in row-major order."""
    states = res.states
    # one (time, projector) stack of P @ rho products, traced: the same
    # products and sums as one Tr(P @ rho) per row
    pops = np.trace(np.asarray(projectors)[None] @ states[:, None], axis1=-2, axis2=-1).real
    flat = states.reshape(len(states), -1)
    parts = np.stack([flat.real, flat.imag], axis=-1).reshape(len(states), -1)
    return [np.asarray(res.times), *pops.T, res.trace_deviation, res.min_eigenvalue, *parts.T]


def _trajectory_header(dim: int, n_levels: int) -> List[str]:
    header = ["t[abs]"]
    header += [f"pop_E{n}[prob]" for n in range(n_levels)]
    header += ["trace_deviation", "min_eigenvalue"]
    for a in range(dim):
        for b in range(dim):
            header += [f"re_rho_{a}{b}", f"im_rho_{a}{b}"]
    return header


def _sweep_equations(cfg: ExperimentConfig) -> List[GeneratorConfig]:
    """Expand an averaging-time sweep into one equation instance per value."""
    eqs = list(cfg.equations)
    if cfg.sweep is None:
        return eqs
    if cfg.sweep.parameter != "t_a":
        raise ConfigError(f"unsupported sweep parameter {cfg.sweep.parameter!r}")
    out: List[GeneratorConfig] = []
    for eq in eqs:
        if eq.equation_kind.startswith("cgme"):
            out.extend(
                GeneratorConfig(eq.equation_kind, T_a=v, lambless=eq.lambless)
                for v in cfg.sweep.values
            )
        else:
            out.append(eq)
    return out


def cmd_evolve(cfg: ExperimentConfig, out_dir: str, args) -> int:
    bath, ts = _bath_and_timescales(cfg)
    H, A, rho0 = _model(cfg)
    grid = _grid(cfg, ts.tau_SB)
    projectors = eigensystem(H).projectors
    if not cfg.equations:
        raise ConfigError("evolve requires a non-empty 'equations' list")
    failures = 0
    for eq in _sweep_equations(cfg):
        tag = _equation_tag(eq)
        try:
            res = _run_equation(eq, H, A, bath, rho0, grid)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            logger.error("equation %s failed: %s", tag, exc)
            failures += 1
            continue
        path = os.path.join(out_dir, f"trajectory_{tag}.csv")
        _write_csv(
            path,
            _trajectory_header(H.dim, len(projectors)),
            _trajectory_columns(res, projectors),
        )
        if cfg.outputs.gnuplot:
            _write_gnuplot(
                os.path.join(out_dir, f"trajectory_{tag}.gp"),
                f"trajectory_{tag}.csv",
                "population",
                "1:2",
            )
    return 3 if failures else 0


def cmd_compare(cfg: ExperimentConfig, out_dir: str, args) -> int:
    bath, ts = _bath_and_timescales(cfg)
    H, A, rho0 = _model(cfg)
    grid = _grid(cfg, ts.tau_SB)
    equations = _sweep_equations(cfg)
    if len(equations) < 2:
        raise ConfigError("compare requires at least two equations (after sweeps)")

    results = [_run_equation(eq, H, A, bath, rho0, grid) for eq in equations]

    tags = [_equation_tag(eq) for eq in equations]
    averages = {}
    t_cells = _cells(grid)
    with _table(os.path.join(out_dir, "compare.csv"),
                ["t[abs]", "equation_a", "equation_b", "trace_distance"]) as write:
        for i in range(len(equations)):
            for j in range(i + 1, len(equations)):
                series, averages[i, j] = trace_distance_series(results[i], results[j])
                write(t_cells, repeat(tags[i]), repeat(tags[j]), series)
    _write_csv(
        os.path.join(out_dir, "compare_averages.csv"),
        ["equation_a", "equation_b", "time_average_trace_distance"],
        [[tags[i] for i, _ in averages], [tags[j] for _, j in averages],
         np.array(list(averages.values()))],
    )
    if cfg.sweep is not None and cfg.sweep.parameter == "t_a":
        # score against the time-local reference when listed, else against
        # the first non-coarse-grained equation
        candidates = [k for k, eq in enumerate(equations)
                      if not eq.equation_kind.startswith("cgme")]
        candidates.sort(key=lambda k: equations[k].equation_kind != "ore")
        reference = candidates[0] if candidates else None
        if reference is not None:
            t_as, sweep_averages = [], []
            best = None
            for k, eq in enumerate(equations):
                if not eq.equation_kind.startswith("cgme"):
                    continue
                # the pair's own entry: a trace norm does not depend on
                # the difference's sign
                average = averages[min(k, reference), max(k, reference)]
                t_as.append(float(eq.T_a))
                sweep_averages.append(average)
                if best is None or average < best[1]:
                    best = (float(eq.T_a), average)
            _write_csv(
                os.path.join(out_dir, "ta_sweep.csv"),
                ["T_a[abs]", "time_average_trace_distance"],
                [np.array(t_as), np.array(sweep_averages)],
            )
            if best is not None:
                print(f"argmin T_a = {best[0]:.6g} (average error {best[1]:.6g})")
    return 0


def cmd_dd(cfg: ExperimentConfig, out_dir: str, args) -> int:
    if cfg.dd is None:
        raise ConfigError("dd requires a 'dd' section")
    dt = np.asarray(cfg.dd.dt, dtype=float)
    # one bath and one row per dt for each (beta, omega_c)
    groups = np.reshape([(b, w) for b in cfg.dd.beta for w in cfg.dd.omega_c], (-1, 2))
    xis = np.array([
        dd_suppression_xi(OhmicBath(kappa=cfg.dd.kappa, omega_c=w, beta=b), dt, cfg.dd.k_prime)
        for b, w in groups.tolist()
    ])
    _write_csv(
        os.path.join(out_dir, "dd.csv"),
        ["beta[time]", "omega_c[1/time]", "dt[time]", "xi[dimensionless]"],
        [*np.repeat(groups, dt.size, axis=0).T, np.tile(dt, len(groups)), xis.ravel()],
    )
    if cfg.outputs.gnuplot:
        _write_gnuplot(os.path.join(out_dir, "dd.gp"), "dd.csv", "xi", "3:4")
    return 0


def _first_cgme(equations) -> GeneratorConfig:
    for eq in equations:
        if eq.equation_kind.startswith("cgme"):
            return eq
    raise ConfigError("this command requires a coarse-grained equation with t_a set")


def cmd_bounds(cfg: ExperimentConfig, out_dir: str, args) -> int:
    bath, ts = _bath_and_timescales(cfg)
    H, A, rho0 = _model(cfg)
    grid = _grid(cfg, ts.tau_SB)
    eq_c = _first_cgme(cfg.equations)
    res_c = _run_equation(eq_c, H, A, bath, rho0, grid)
    res_ref = _run_equation(GeneratorConfig("ore"), H, A, bath, rho0, grid)
    measured, _ = trace_distance_series(res_c, res_ref)
    bp = BoundParams(
        tau_b=ts.tau_B, tau_sb=ts.tau_SB, t_a=eq_c.T_a, epsilon_t=ts.epsilon_T
    )
    summaries = [bound_summary(bp, t) for t in grid.tolist()]
    _write_csv(
        os.path.join(out_dir, "bounds.csv"),
        ["t[abs]", "measured_trace_distance", "strongest_bound", "cgme_simple", "redfield_log"],
        [
            grid,
            measured,
            np.array([strongest_bound(bp, t) for t in grid.tolist()]),
            np.array([s["cgme_simple"].value for s in summaries]),
            np.array([s["redfield_log"].value for s in summaries]),
        ],
    )
    if cfg.outputs.gnuplot:
        _write_gnuplot(os.path.join(out_dir, "bounds.gp"), "bounds.csv", "error", "1:2")
    return 0


def cmd_optimize_ta(cfg: ExperimentConfig, out_dir: str, args) -> int:
    if args.samples < MIN_SAMPLES:
        raise ConfigError(f"--samples must be at least {MIN_SAMPLES}, got {args.samples}")
    bath, ts = _bath_and_timescales(cfg)
    placeholder_ta = max(math.sqrt(ts.tau_SB * ts.tau_B / 5.0), 1e-12)
    bp = BoundParams(
        tau_b=ts.tau_B, tau_sb=ts.tau_SB, t_a=placeholder_ta, epsilon_t=ts.epsilon_T
    )
    lines = [f"T_a (formula) = {optimal_ta(bp, 'theory'):.6g}"]
    report = ta_discrepancy_report(bp)
    lines.append(
        "reference-value check: formula "
        f"{report['formula_value']:.6g} vs quoted {report['reported_value']:.6g} "
        f"(ratio {report['ratio']:.4g}); tau_B reconciling the quote = "
        f"{report['tau_b_reconciling']:.4g}, tau_B used = {report['tau_b_used']:.4g}"
    )
    if cfg.model is not None:
        H, A, _ = _model(cfg)
        est = lambda_estimate(
            H, A, bath, n_samples=args.samples, rng_seed=args.seed,
            timescales=ts,
        )
        lam = max(est.max_norm, 1e-12)
        bp_adj = BoundParams(
            tau_b=ts.tau_B,
            tau_sb=ts.tau_SB,
            t_a=placeholder_ta,
            lamb=min(lam, 4.0 / ts.tau_SB),
            epsilon_t=ts.epsilon_T,
        )
        lines.append(
            f"measured generator norm: max = {est.max_norm:.6g}, "
            f"typical = {est.typical_norm:.6g}, bound = {est.bound:.6g}"
        )
        lines.append(f"T_a (adjusted) = {optimal_ta(bp_adj, 'adjusted'):.6g}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    with open(os.path.join(out_dir, "optimize_ta.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "bath-info": cmd_bath_info,
    "evolve": cmd_evolve,
    "compare": cmd_compare,
    "dd": cmd_dd,
    "bounds": cmd_bounds,
    "optimize-ta": cmd_optimize_ta,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qme",
        description="Master-equation experiment runner: evolve spin models under "
        "Redfield, Davies-Lindblad, and coarse-grained generators; characterize "
        "baths; tabulate pulse-sequence suppression and error bounds.",
    )
    parser.add_argument("--version", action="version", version=f"qme {__version__}")
    parser.add_argument("command", choices=_COMMANDS, help="the table or report to produce")
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (default: config outputs.directory)")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled quantities")
    parser.add_argument("--samples", type=int, default=2000, help="sample count for norm estimation")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.outputs.directory
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
