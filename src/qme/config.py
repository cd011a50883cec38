"""Declarative experiment configuration: parsing, validation, serialization.

Configs are JSON documents describing a spin model (Hamiltonian and coupling
as labeled Pauli strings), a bath, the master equations to run, the time
grid, optional parameter sweeps, and output destinations.  Parsing is
strict: unknown keys, malformed Pauli strings or non-numeric values raise
:class:`ConfigError` with the offending location, and ``parse -> serialize ->
parse`` is idempotent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .baths import Bath, make_bath
from .generators import GeneratorConfig
from .operators import DensityMatrix, HermitianOperator

__all__ = [
    "ConfigError",
    "ModelSection",
    "BathSection",
    "GridSection",
    "SweepSection",
    "DDSection",
    "OutputSection",
    "ExperimentConfig",
    "pauli_string_matrix",
    "load_config",
    "parse_config",
    "serialize_config",
]

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configurations."""


def pauli_string_matrix(label: str, n_qubits: Optional[int] = None) -> np.ndarray:
    """Dense matrix for a Pauli string such as ``"ZI"`` or ``"XIX"``."""
    if not label or any(c not in _PAULI for c in label):
        raise ConfigError(f"malformed Pauli string {label!r}")
    if n_qubits is not None and len(label) != n_qubits:
        raise ConfigError(
            f"Pauli string {label!r} has {len(label)} factors, expected {n_qubits}"
        )
    out = _PAULI[label[0]]
    for c in label[1:]:
        out = np.kron(out, _PAULI[c])
    return out


def _require(section: Mapping, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in section {where!r}")
    return section[key]


def _mapping(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _check_keys(section: Mapping, allowed: set, where: str) -> None:
    extra = set(_mapping(section, where)) - allowed
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in section {where!r}")


@dataclass(frozen=True)
class ModelSection:
    qubits: int
    hamiltonian: Tuple[Tuple[str, float], ...] = ()
    coupling: Tuple[str, ...] = ()
    initial_state: str = ""

    def hamiltonian_operator(self) -> HermitianOperator:
        dim = 2**self.qubits
        h = np.zeros((dim, dim), dtype=complex)
        for label, coeff in self.hamiltonian:
            h += coeff * pauli_string_matrix(label, self.qubits)
        return HermitianOperator(h)

    def coupling_operators(self) -> Tuple[HermitianOperator, ...]:
        return tuple(
            HermitianOperator(pauli_string_matrix(label, self.qubits))
            for label in self.coupling
        )

    def initial_density(self) -> DensityMatrix:
        if set(self.initial_state) - {"0", "1"} or len(self.initial_state) != self.qubits:
            raise ConfigError(
                f"initial_state {self.initial_state!r} is not a {self.qubits}-bit string"
            )
        index = int(self.initial_state, 2)
        vec = np.zeros(2**self.qubits)
        vec[index] = 1.0
        return DensityMatrix.from_pure(vec)


@dataclass(frozen=True)
class BathSection:
    kind: str
    params: Tuple[Tuple[str, float], ...] = ()
    t_cutoff: Optional[float] = None
    # the bath of the first build(); not part of the section's value
    _bath: Optional[Bath] = field(default=None, init=False, repr=False, compare=False)

    def build(self) -> Bath:
        """The configured bath, built and validated on the first call (which
        parsing makes) and returned by every later one."""
        if self._bath is None:
            try:
                bath = make_bath(self.kind, **dict(self.params))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bath section: {exc}") from exc
            object.__setattr__(self, "_bath", bath)
        return self._bath


@dataclass(frozen=True)
class GridSection:
    t_max_tau_sb: float
    points: int

    def __post_init__(self):
        if self.t_max_tau_sb <= 0 or self.points < 2:
            raise ConfigError("grid requires t_max_tau_sb > 0 and points >= 2")

    def times(self, tau_sb: float) -> np.ndarray:
        return np.linspace(0.0, self.t_max_tau_sb * tau_sb, self.points)


@dataclass(frozen=True)
class SweepSection:
    parameter: str
    values: Tuple[float, ...]


@dataclass(frozen=True)
class DDSection:
    beta: Tuple[float, ...]
    omega_c: Tuple[float, ...]
    dt: Tuple[float, ...]
    k_prime: int = 1
    kappa: float = 1.0


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    gnuplot: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    model: Optional[ModelSection] = None
    bath: Optional[BathSection] = None
    equations: Tuple[GeneratorConfig, ...] = ()
    grid: Optional[GridSection] = None
    sweep: Optional[SweepSection] = None
    dd: Optional[DDSection] = None
    outputs: OutputSection = field(default_factory=OutputSection)


def _parse_model(section: Mapping) -> ModelSection:
    _check_keys(
        section,
        {"qubits", "hamiltonian", "coupling", "initial_state"},
        "model",
    )
    qubits = _integer(_require(section, "qubits", "model"), "model.qubits")
    if qubits < 1:
        raise ConfigError("model.qubits must be >= 1")
    ham = _mapping(section.get("hamiltonian", {}), "model.hamiltonian")
    if not ham:
        raise ConfigError("model requires 'hamiltonian' Pauli terms")
    terms = tuple((str(k), _number(v, f"model.hamiltonian.{k}")) for k, v in ham.items())
    for label, _ in terms:
        pauli_string_matrix(label, qubits)
    coupling = tuple(str(c) for c in section.get("coupling", ()))
    for label in coupling:
        pauli_string_matrix(label, qubits)
    return ModelSection(
        qubits=qubits,
        hamiltonian=terms,
        coupling=coupling,
        initial_state=str(section.get("initial_state", "0" * qubits)),
    )


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _integer(value, where: str) -> int:
    number = _number(value, where)
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _numbers(value, where: str) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _parse_bath(section: Mapping) -> BathSection:
    _check_keys(section, {"kind", "params", "t_cutoff"}, "bath")
    kind = str(_require(section, "kind", "bath"))
    params = tuple(
        (str(k), _number(v, f"bath.params.{k}"))
        for k, v in _mapping(section.get("params", {}), "bath.params").items()
    )
    t_cutoff = section.get("t_cutoff")
    bs = BathSection(
        kind=kind,
        params=params,
        t_cutoff=None if t_cutoff is None else _number(t_cutoff, "bath.t_cutoff"),
    )
    bs.build()  # validate eagerly so errors carry config context; kept for build()
    return bs


def _parse_equation(section: Mapping, index: int) -> GeneratorConfig:
    where = f"equations[{index}]"
    _check_keys(section, {"kind", "t_a", "lambless"}, where)
    kind = str(_require(section, "kind", where))
    if kind == "cgme_discrete":
        # its filter grid (GeneratorConfig.discretization) has no config form
        raise ConfigError(
            f"{where}: cgme_discrete needs discretization parameters, which a "
            "config cannot carry; build it through the library")
    t_a = section.get("t_a")
    t_a = None if t_a is None else _number(t_a, f"{where}.t_a")
    lambless = _boolean(section.get("lambless", False), f"{where}.lambless")
    try:
        return GeneratorConfig(equation_kind=kind, T_a=t_a, lambless=lambless)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(document: Mapping) -> ExperimentConfig:
    """Validate a JSON-compatible mapping into an :class:`ExperimentConfig`."""
    _check_keys(
        document,
        {"model", "bath", "equations", "grid", "sweep", "dd", "outputs"},
        "<root>",
    )
    model = _parse_model(document["model"]) if "model" in document else None
    bath = _parse_bath(document["bath"]) if "bath" in document else None
    equations = document.get("equations", ())
    if not isinstance(equations, (list, tuple)):
        raise ConfigError(f"equations must be a list, got {equations!r}")
    equations = tuple(_parse_equation(e, i) for i, e in enumerate(equations))
    grid = None
    if "grid" in document:
        g = document["grid"]
        _check_keys(g, {"t_max_tau_sb", "points"}, "grid")
        grid = GridSection(
            t_max_tau_sb=_number(_require(g, "t_max_tau_sb", "grid"), "grid.t_max_tau_sb"),
            points=_integer(_require(g, "points", "grid"), "grid.points"),
        )
    sweep = None
    if "sweep" in document:
        s = document["sweep"]
        _check_keys(s, {"parameter", "values"}, "sweep")
        sweep = SweepSection(
            parameter=str(_require(s, "parameter", "sweep")),
            values=_numbers(_require(s, "values", "sweep"), "sweep.values"),
        )
    dd = None
    if "dd" in document:
        d = document["dd"]
        _check_keys(d, {"beta", "omega_c", "dt", "k_prime", "kappa"}, "dd")
        dd = DDSection(
            beta=_numbers(_require(d, "beta", "dd"), "dd.beta"),
            omega_c=_numbers(_require(d, "omega_c", "dd"), "dd.omega_c"),
            dt=_numbers(_require(d, "dt", "dd"), "dd.dt"),
            k_prime=_integer(d.get("k_prime", 1), "dd.k_prime"),
            kappa=_number(d.get("kappa", 1.0), "dd.kappa"),
        )
        if dd.k_prime < 1:
            raise ConfigError("dd.k_prime must be >= 1")
    outputs = OutputSection()
    if "outputs" in document:
        o = document["outputs"]
        _check_keys(o, {"directory", "gnuplot"}, "outputs")
        outputs = OutputSection(
            directory=str(o.get("directory", "out")),
            gnuplot=_boolean(o.get("gnuplot", False), "outputs.gnuplot"),
        )
    return ExperimentConfig(
        model=model,
        bath=bath,
        equations=equations,
        grid=grid,
        sweep=sweep,
        dd=dd,
        outputs=outputs,
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse a JSON config file, reporting the parse location on syntax errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(document, Mapping):
        raise ConfigError(f"config {path!r} must be a JSON object at top level")
    return parse_config(document)


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Round-trippable JSON-compatible dict: ``parse(serialize(c)) == c``."""
    doc: dict = {}
    if cfg.model is not None:
        doc["model"] = {
            "qubits": cfg.model.qubits,
            "hamiltonian": {k: v for k, v in cfg.model.hamiltonian},
            "coupling": list(cfg.model.coupling),
            "initial_state": cfg.model.initial_state,
        }
    if cfg.bath is not None:
        doc["bath"] = {
            "kind": cfg.bath.kind,
            "params": {k: v for k, v in cfg.bath.params},
            "t_cutoff": cfg.bath.t_cutoff,
        }
    if cfg.equations:
        doc["equations"] = [
            {"kind": e.equation_kind, "t_a": e.T_a, "lambless": e.lambless}
            for e in cfg.equations
        ]
    if cfg.grid is not None:
        doc["grid"] = {"t_max_tau_sb": cfg.grid.t_max_tau_sb, "points": cfg.grid.points}
    if cfg.sweep is not None:
        doc["sweep"] = {"parameter": cfg.sweep.parameter, "values": list(cfg.sweep.values)}
    if cfg.dd is not None:
        doc["dd"] = {
            "beta": list(cfg.dd.beta),
            "omega_c": list(cfg.dd.omega_c),
            "dt": list(cfg.dd.dt),
            "k_prime": cfg.dd.k_prime,
            "kappa": cfg.dd.kappa,
        }
    doc["outputs"] = {
        "directory": cfg.outputs.directory,
        "gnuplot": cfg.outputs.gnuplot,
    }
    return doc
