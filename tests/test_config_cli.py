"""Config parsing/serialization and the command-line entry point."""

import json
import os

import numpy as np
import pytest

import qme.cli
from qme import __version__
from qme.baths import OhmicBath, ToyBath
from qme.cli import main
from qme.diagnostics import BoundParams, bound_summary, lambda_estimate, strongest_bound
from qme.config import (
    ConfigError,
    load_config,
    parse_config,
    pauli_string_matrix,
    serialize_config,
)
from qme.driving import dd_suppression_xi
from qme.evolve import trace_distance_series
from qme.operators import eigensystem

import oracles
from conftest import IDENT, PAULI_X, PAULI_Y, PAULI_Z

BENCHMARK_CONFIG = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos", "benchmark.json")


def _base_doc():
    return {
        "model": {
            "qubits": 2,
            "hamiltonian": {"ZI": 0.5, "IZ": -0.7, "ZZ": 0.3, "XI": 1.0, "IX": 1.0},
            "coupling": ["ZI"],
            "initial_state": "11",
        },
        "bath": {"kind": "toy", "params": {}, "t_cutoff": None},
        "equations": [{"kind": "davies"}],
        "grid": {"t_max_tau_sb": 0.05, "points": 5},
        "outputs": {"directory": "out"},
    }


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestPauliStrings:
    def test_single_letters(self):
        assert np.allclose(pauli_string_matrix("X"), PAULI_X)
        assert np.allclose(pauli_string_matrix("Z"), PAULI_Z)

    def test_kron_order(self):
        assert np.allclose(pauli_string_matrix("ZI"), np.kron(PAULI_Z, IDENT))
        assert np.allclose(pauli_string_matrix("XY"), np.kron(PAULI_X, PAULI_Y))

    def test_rejects_garbage(self):
        for bad in ("", "A", "XQ", "xz"):
            with pytest.raises(ConfigError):
                pauli_string_matrix(bad)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            pauli_string_matrix("XX", n_qubits=3)


class TestParsing:
    def test_model_objects(self):
        cfg = parse_config(_base_doc())
        h = cfg.model.hamiltonian_operator()
        assert h.dim == 4
        rho = cfg.model.initial_density()
        assert np.isclose(rho.entries[3, 3].real, 1.0)
        (a,) = cfg.model.coupling_operators()
        assert np.allclose(a.entries, np.kron(PAULI_Z, IDENT))

    def test_unknown_key_rejected(self):
        doc = _base_doc()
        doc["model"]["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(doc)

    def test_unknown_root_key_rejected(self):
        doc = _base_doc()
        doc["extra"] = {}
        with pytest.raises(ConfigError, match="extra"):
            parse_config(doc)

    def test_bad_bath_kind(self):
        doc = _base_doc()
        doc["bath"]["kind"] = "lorentzian"
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_bad_equation_kind(self):
        doc = _base_doc()
        doc["equations"] = [{"kind": "secular"}]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_cgme_requires_ta(self):
        doc = _base_doc()
        doc["equations"] = [{"kind": "cgme_frequency"}]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_bad_initial_state(self):
        doc = _base_doc()
        doc["model"]["initial_state"] = "2x"
        cfg = parse_config(doc)
        with pytest.raises(ConfigError):
            cfg.model.initial_density()

    def test_round_trip_idempotent(self):
        cfg = parse_config(_base_doc())
        doc2 = serialize_config(cfg)
        cfg2 = parse_config(doc2)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == doc2

    def test_load_reports_json_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": \n  broken}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bath_built_once(self, tmp_path, monkeypatch):
        # parsing builds and validates the bath; build() hands that one out
        inits = []
        init = ToyBath.__init__
        monkeypatch.setattr(ToyBath, "__init__",
                            lambda self, *a, **k: inits.append(1) or init(self, *a, **k))
        cfg = load_config(_write(tmp_path, _base_doc()))
        bath = cfg.bath.build()
        assert isinstance(bath, ToyBath) and cfg.bath.build() is bath
        assert len(inits) == 1


class TestParser:
    """One parser for every command: the command is a positional choice and
    the five options are shared."""

    COMMANDS = ["bath-info", "evolve", "compare", "dd", "bounds", "optimize-ta"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_options_on_every_command(self, command):
        args = qme.cli.build_parser().parse_args(
            [command, "--config", "c.json", "--out", "o", "--seed", "7",
             "--samples", "300", "-v"])
        assert (args.command, args.config, args.out, args.seed, args.samples,
                args.verbose) == (command, "c.json", "o", 7, 300, True)
        args = qme.cli.build_parser().parse_args(["--config", "c.json", command])
        assert (args.command, args.out, args.seed, args.samples, args.verbose) == (
            command, None, 0, 2000, False)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"qme {__version__}"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "c.json"],
        ["compare"],
        [],
    ], ids=["unknown-command", "no-config", "no-command"])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: qme" in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "{" + ",".join(self.COMMANDS) + "}" in text
        assert list(qme.cli._COMMANDS) == self.COMMANDS


class TestCliExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["bath-info", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        doc = _base_doc()
        doc["bath"]["kind"] = "nonsense"
        code = main(["evolve", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_several_couplings_refused(self, tmp_path, capsys):
        doc = _base_doc()
        doc["model"]["coupling"] = ["ZI", "IZ"]
        code = main(["evolve", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "coupling" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trajectory_davies.csv").exists()

    def test_matrix_file_key_refused(self, tmp_path, capsys):
        # the model's Hamiltonian has only the Pauli-string form
        (tmp_path / "h.txt").write_text("1 0 0\n0 0 0\n0 0 -1\n")
        doc = _base_doc()
        doc["model"]["matrix_file"] = str(tmp_path / "h.txt")
        code = main(["evolve", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown keys ['matrix_file']" in err

    def test_optimize_ta_passes_samples_through(self, tmp_path, monkeypatch):
        import qme.cli

        seen = []

        def counting(*args, n_samples, **kwargs):
            seen.append(n_samples)
            return lambda_estimate(*args, n_samples=n_samples, **kwargs)

        monkeypatch.setattr(qme.cli, "lambda_estimate", counting)
        doc = _base_doc()
        assert main(["optimize-ta", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o"), "--samples", "200"]) == 0
        assert seen == [200]

    @pytest.mark.parametrize("samples", ["99", "0", "-5"])
    def test_optimize_ta_too_few_samples_refused(self, tmp_path, capsys, samples):
        code = main(["optimize-ta", "--config", _write(tmp_path, _base_doc()),
                     "--out", str(tmp_path / "o"), "--samples", samples])
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "o" / "optimize_ta.txt").exists()

    def test_cgme_discrete_refused(self, tmp_path, capsys):
        # its discretization parameters have no config form
        doc = _base_doc()
        doc["equations"] = [{"kind": "davies"}, {"kind": "cgme_discrete", "t_a": 1.0}]
        code = main(["evolve", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "cgme_discrete" in err
        assert not (tmp_path / "o" / "trajectory_davies.csv").exists()

    @pytest.mark.parametrize("bath, where", [
        ({"kind": "toy", "params": {"beta": "four"}}, "bath.params.beta"),
        ({"kind": "toy", "params": {}, "t_cutoff": "long"}, "bath.t_cutoff"),
    ], ids=["params", "t_cutoff"])
    def test_non_numeric_bath_value_refused(self, tmp_path, capsys, bath, where):
        doc = _base_doc()
        doc["bath"] = bath
        code = main(["compare", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, where", [
        ("grid", "points", "five", "grid.points"),
        ("grid", "points", 2.7, "grid.points"),
        ("grid", "t_max_tau_sb", None, "grid.t_max_tau_sb"),
        ("model", "qubits", 2.5, "model.qubits"),
        ("model", "hamiltonian", {"ZI": "x"}, "model.hamiltonian.ZI"),
        ("sweep", "values", ["a"], "sweep.values[0]"),
        ("sweep", "values", 1.0, "sweep.values"),
        ("dd", "omega_c", ["x"], "dd.omega_c[0]"),
        ("dd", "k_prime", 1.5, "dd.k_prime"),
        ("dd", "kappa", "strong", "dd.kappa"),
        ("equations", "lambless", "false", "equations[0].lambless"),
        ("equations", "t_a", [1.0], "equations[0].t_a"),
        ("outputs", "gnuplot", "false", "outputs.gnuplot"),
    ], ids=["points-string", "points-fraction", "t_max-null", "qubits-fraction",
            "coefficient-string", "sweep-string", "sweep-scalar", "dd-string",
            "k_prime-fraction", "kappa-string", "lambless-string", "t_a-list",
            "gnuplot-string"])
    def test_misread_value_refused(self, tmp_path, capsys, section, key, value, where):
        # each of these once escaped as a traceback or was silently coerced
        doc = _base_doc()
        doc["sweep"] = {"parameter": "t_a", "values": [1.0]}
        doc["dd"] = {"beta": [1.0], "omega_c": [1.0], "dt": [0.2]}
        doc["equations"] = [{"kind": "cgme_frequency", "t_a": 1.0}]
        target = doc[section][0] if section == "equations" else doc[section]
        target[key] = value
        code = main(["compare", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and where in err

    @pytest.mark.parametrize("path, value, where", [
        (("grid",), 5, "grid"),
        (("model", "hamiltonian"), ["ZI"], "model.hamiltonian"),
        (("equations",), {"kind": "davies"}, "equations"),
    ], ids=["grid-number", "hamiltonian-list", "equations-object"])
    def test_wrong_container_refused(self, tmp_path, capsys, path, value, where):
        # these once escaped as a TypeError or AttributeError traceback
        doc = _base_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        code = main(["evolve", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and where in err

    def test_threads_option_rejected(self, tmp_path):
        # compare runs its equations one after another; there is no worker pool
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", _write(tmp_path, _base_doc()),
                  "--out", str(tmp_path / "o"), "--threads", "2"])
        assert exc.value.code == 2

    def test_ohmic_without_cutoff_refused(self, tmp_path, capsys):
        doc = _base_doc()
        doc["bath"] = {"kind": "ohmic",
                       "params": {"kappa": 1.0, "omega_c": 1.0, "beta": 1.0}}
        code = main(["evolve", "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bath.t_cutoff" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["compare", "bounds", "optimize-ta"])
    def test_ohmic_with_cutoff_runs_ore(self, tmp_path, command):
        # the time-local reference and the norm sampling use the configured
        # cutoff, not the infinite default an Ohmic bath refuses
        doc = _base_doc()
        doc["bath"] = {"kind": "ohmic", "t_cutoff": 20.0,
                       "params": {"kappa": 0.01, "omega_c": 1.0, "beta": 2.0}}
        doc["equations"] = [{"kind": "ore"}, {"kind": "davies"},
                            {"kind": "cgme_frequency", "t_a": 1.0}]
        doc["grid"]["points"] = 9
        assert main([command, "--config", _write(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == 0


class TestCliOutputs:
    def test_bath_info(self, tmp_path):
        out = tmp_path / "o"
        code = main(["bath-info", "--config", _write(tmp_path, _base_doc()),
                     "--out", str(out)])
        assert code == 0
        gamma = (out / "gamma.csv").read_text().splitlines()
        assert "omega" in gamma[0]
        assert len(gamma) > 1000
        info = (out / "bath_info.txt").read_text()
        assert "tau_SB" in info and "tau_B" in info

    def test_bath_info_flags_negative_gamma(self, tmp_path):
        doc = _base_doc()
        doc["bath"] = {"kind": "rectangle", "params": {"g": 0.5, "tau_c": 1.0}}
        out = tmp_path / "o"
        code = main(["bath-info", "--config", _write(tmp_path, doc),
                     "--out", str(out)])
        assert code == 0
        assert "not CP-admissible" in (out / "bath_info.txt").read_text()

    def test_cgme_refuses_bath_that_is_not_cp_admissible(self, tmp_path, capsys):
        doc = _base_doc()
        doc["bath"] = {"kind": "rectangle", "params": {"g": 0.5, "tau_c": 1.0}}
        doc["equations"] = [{"kind": "cgme_frequency", "t_a": 1.0}]
        code = main(["evolve", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not CP-admissible" in capsys.readouterr().err

    def test_evolve_csv_shape(self, tmp_path):
        out = tmp_path / "o"
        code = main(["evolve", "--config", _write(tmp_path, _base_doc()),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "trajectory_davies.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t[abs]"
        assert any(h.startswith("pop_E0") for h in header)
        assert "trace_deviation" in ",".join(header)
        assert len(lines) == 1 + 5  # header + grid points

    def test_evolve_byte_identical_across_runs(self, tmp_path):
        cfg_path = _write(tmp_path, _base_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", cfg_path, "--out", str(out1),
                     "--seed", "7"]) == 0
        assert main(["evolve", "--config", cfg_path, "--out", str(out2),
                     "--seed", "7"]) == 0
        b1 = (out1 / "trajectory_davies.csv").read_bytes()
        b2 = (out2 / "trajectory_davies.csv").read_bytes()
        assert b1 == b2

    def test_gnuplot_script_emitted(self, tmp_path):
        doc = _base_doc()
        doc["outputs"]["gnuplot"] = True
        out = tmp_path / "o"
        assert main(["evolve", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 0
        scripts = list(out.glob("*.gp"))
        assert scripts and "plot" in scripts[0].read_text()

    def test_dd_table(self, tmp_path):
        doc = {
            "dd": {"beta": [5.0], "omega_c": [1.5707963267948966],
                   "dt": [0.5, 1.0], "k_prime": 1},
            "outputs": {"directory": "out"},
        }
        out = tmp_path / "o"
        assert main(["dd", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 0
        lines = (out / "dd.csv").read_text().splitlines()
        assert "xi" in lines[0]
        assert len(lines) == 1 + 2

    # dd.csv of the benchmark's DD table as written when every xi ran its own
    # grid, one dd_suppression_xi call per dt
    DD_TABLE_CSV = """\
beta[time],omega_c[1/time],dt[time],xi[dimensionless]
0.5,0.5,0.2,0.0198629022088
0.5,0.5,0.4,0.0691134133948
0.5,0.5,0.6,0.13015458929
0.5,0.5,0.8,0.191719207696
0.5,1,0.2,0.0754792049425
0.5,1,0.4,0.202204244399
0.5,1,0.6,0.310416656118
0.5,1,0.8,0.394684218356
0.5,2,0.2,0.237406085835
0.5,2,0.4,0.426653073669
0.5,2,0.6,0.53559562147
0.5,2,0.8,0.606838822747
5,0.5,0.2,0.0428979623415
5,0.5,0.4,0.14435493102
5,0.5,0.6,0.258662298893
5,0.5,0.8,0.359455826857
5,1,0.2,0.177467403675
5,1,0.4,0.467921890251
5,1,0.6,0.678923456386
5,1,0.8,0.803367419254
5,2,0.2,0.528345777896
5,2,0.4,0.985065237498
5,2,0.6,1.18033803608
5,2,0.8,1.25181745672
"""

    def test_dd_table_unchanged_by_shared_grid(self, tmp_path):
        # one grid per bath for the whole dt list writes the same bytes
        doc = {"dd": {"beta": [0.5, 5.0], "omega_c": [0.5, 1.0, 2.0],
                      "dt": [0.2, 0.4, 0.6, 0.8], "k_prime": 1, "kappa": 1.0}}
        out = tmp_path / "o"
        assert main(["dd", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
        assert (out / "dd.csv").read_bytes() == self.DD_TABLE_CSV.encode()

    def test_optimize_ta_report(self, tmp_path, capsys):
        doc = _base_doc()
        del doc["model"]  # bath-only variant: formula + discrepancy only
        doc.pop("equations")
        doc.pop("grid")
        out = tmp_path / "o"
        assert main(["optimize-ta", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 0
        text = (out / "optimize_ta.txt").read_text()
        assert "T_a (formula)" in text
        assert "1.171" in text  # sqrt(tau_B tau_SB / 5) for the built-in bath
        assert "0.97" in text   # the quoted reference value being compared

    def test_compare_sweep_scored_against_ore(self, tmp_path, capsys):
        # the T_a sweep is scored against ore wherever it is listed
        runs = []
        for first, second in (("ore", "davies"), ("davies", "ore")):
            doc = _base_doc()
            doc["equations"] = [{"kind": first}, {"kind": second},
                                {"kind": "cgme_frequency", "t_a": 1.0}]
            doc["sweep"] = {"parameter": "t_a", "values": [0.5, 2.0]}
            out = tmp_path / first
            assert main(["compare", "--config", _write(tmp_path, doc, f"{first}.json"),
                         "--out", str(out)]) == 0
            argmin = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("argmin")]
            runs.append(((out / "ta_sweep.csv").read_bytes(), argmin))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 1

    def test_compare_sweep_read_from_pair_table(self, tmp_path, monkeypatch):
        # the sweep's averages are the (ore, CGME) rows of compare_averages.csv,
        # and every pair's series is computed once
        import qme.cli

        calls = []
        series = qme.cli.trace_distance_series
        monkeypatch.setattr(qme.cli, "trace_distance_series",
                            lambda a, b: calls.append(1) or series(a, b))
        doc = _base_doc()
        doc["equations"] = [{"kind": "davies"}, {"kind": "ore"},
                            {"kind": "cgme_frequency", "t_a": 1.0}]
        doc["sweep"] = {"parameter": "t_a", "values": [0.5, 2.0, 3.0]}
        out = tmp_path / "o"
        assert main(["compare", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert len(calls) == 5 * 4 // 2
        pairs = {tuple(line.split(",")[:2]): line.split(",")[2] for line in
                 (out / "compare_averages.csv").read_text().splitlines()[1:]}
        sweep = (out / "ta_sweep.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in sweep] == [
            pairs["ore", f"cgme_frequency_ta{t_a:g}"] for t_a in (0.5, 2.0, 3.0)]

    def test_bounds_table(self, tmp_path):
        # the benchmark model on a coarse grid: the strongest bound starts at
        # zero and stays above the measured coarse-graining error
        with open(BENCHMARK_CONFIG, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["grid"]["points"] = 17
        out = tmp_path / "o"
        assert main(["bounds", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == ("t[abs],measured_trace_distance,strongest_bound,"
                            "cgme_simple,redfield_log")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (17, 5)
        assert rows[0, 0] == 0.0 and rows[0, 2] == 0.0
        assert np.all(rows[:, 2] >= rows[:, 1])


class TestTablesMatchRowWriter:
    """Every CSV a command writes is byte-identical to the tables the CLI
    first built and wrote row by row (oracles), from the same results: on the
    benchmark's T_a sweep (compare, bounds) and DD table, plus evolve and
    bath-info."""

    SWEEP = {
        "model": {"qubits": 2,
                  "hamiltonian": {"ZI": 0.5, "IZ": -0.7, "ZZ": 0.3, "XI": 1.0, "IX": 1.0},
                  "coupling": ["ZI"], "initial_state": "11"},
        "bath": {"kind": "toy", "params": {"a": 1.01, "b": 0.6, "beta": 4.0, "tau_SB": 10.0}},
        "equations": [{"kind": "ore"}, {"kind": "davies"}, {"kind": "redfield"},
                      {"kind": "cgme_frequency", "t_a": 1.17}],
        "sweep": {"parameter": "t_a", "values": [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0]},
        "grid": {"t_max_tau_sb": 2.56, "points": 129},
    }
    DD = {"dd": {"beta": [0.5, 5.0], "omega_c": [0.5, 1.0, 2.0],
                 "dt": [0.2, 0.4, 0.6, 0.8], "k_prime": 1, "kappa": 1.0}}

    @pytest.fixture
    def runs(self, monkeypatch):
        # every equation's result, in the order the command ran them
        runs = []
        run = qme.cli._run_equation
        monkeypatch.setattr(qme.cli, "_run_equation",
                            lambda *args: runs.append(run(*args)) or runs[-1])
        return runs

    @staticmethod
    def run(tmp_path, command, doc):
        path = _write(tmp_path, doc, f"{command}.json")
        out, ref = tmp_path / command, tmp_path / "rows"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        ref.mkdir()
        return load_config(path), out, ref

    @staticmethod
    def assert_same_tables(out, ref):
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names and names == sorted(p.name for p in ref.glob("*.csv"))
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_compare(self, tmp_path, runs):
        cfg, out, ref = self.run(tmp_path, "compare", self.SWEEP)
        equations = qme.cli._sweep_equations(cfg)
        assert len(runs) == len(equations) == 10
        grid = cfg.grid.times(cfg.bath.build().timescales().tau_SB)
        oracles.write_compare_tables(
            ref, grid, [(eq.equation_kind, eq.T_a) for eq in equations],
            [qme.cli._equation_tag(eq) for eq in equations], runs, trace_distance_series)
        self.assert_same_tables(out, ref)

    def test_bounds(self, tmp_path, runs):
        cfg, out, ref = self.run(tmp_path, "bounds", self.SWEEP)
        ts = cfg.bath.build().timescales()
        bp = BoundParams(tau_b=ts.tau_B, tau_sb=ts.tau_SB, t_a=1.17, epsilon_t=ts.epsilon_T)
        measured, _ = trace_distance_series(*runs)
        oracles.write_bounds_table(ref, cfg.grid.times(ts.tau_SB), measured,
                                   lambda t: bound_summary(bp, t),
                                   lambda t: strongest_bound(bp, t))
        self.assert_same_tables(out, ref)

    def test_dd(self, tmp_path):
        cfg, out, ref = self.run(tmp_path, "dd", self.DD)
        dd = cfg.dd
        oracles.write_dd_table(
            ref, dd.beta, dd.omega_c, dd.dt,
            lambda beta, omega_c: dd_suppression_xi(
                OhmicBath(kappa=dd.kappa, omega_c=omega_c, beta=beta),
                np.asarray(dd.dt), dd.k_prime))
        self.assert_same_tables(out, ref)

    def test_evolve(self, tmp_path, runs):
        with open(BENCHMARK_CONFIG, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["equations"].append({"kind": "redfield", "lambless": True})
        cfg, out, ref = self.run(tmp_path, "evolve", doc)
        projectors = eigensystem(cfg.model.hamiltonian_operator()).projectors
        for eq, res in zip(cfg.equations, runs, strict=True):
            oracles.write_trajectory_table(
                ref / f"trajectory_{qme.cli._equation_tag(eq)}.csv", res, projectors)
        self.assert_same_tables(out, ref)

    @pytest.mark.parametrize("bath", [
        {"kind": "toy", "params": {}},
        {"kind": "ohmic", "params": {"kappa": 1.0, "omega_c": 1.0, "beta": 1.0},
         "t_cutoff": 20.0},
        {"kind": "rectangle", "params": {"g": 0.5, "tau_c": 1.0}},
    ], ids=["toy", "ohmic", "rectangle"])
    def test_bath_info(self, tmp_path, bath):
        cfg, out, ref = self.run(tmp_path, "bath-info", {"bath": bath})
        radius = qme.cli._plot_radius(cfg.bath.build())
        w = np.linspace(-radius, radius, 1201)
        oracles.write_gamma_table(ref, w, np.asarray(cfg.bath.build().gamma(w), dtype=float))
        self.assert_same_tables(out, ref)
