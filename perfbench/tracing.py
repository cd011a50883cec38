"""Per-layer tracing from outside the program.

Nothing inside ``qme`` is instrumented.  ``Tracer.install`` replaces each
traced public function, in every ``qme`` module that holds a reference to
it, with a wrapper that records a span (name, start, end, parent), and
wraps the bath classes' methods on the classes themselves.  Spans are kept
in flat arrays in memory and written out once, at the end of the run.

The workloads run one thing at a time (``qme compare`` uses one worker
thread while the main thread waits), so one span stack serves every thread;
a span that closes out of order raises, which would reveal overlapping work.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) pairs that implement it
FUNCTIONS = {
    "generators.decompose_coupling": [("qme.generators", "decompose_coupling")],
    "generators.kossakowski_matrix": [("qme.generators", "kossakowski_matrix")],
    "generators.cgme_lamb_shift": [("qme.generators", "cgme_lamb_shift")],
    "generators.davies_generator": [("qme.generators", "davies_generator")],
    "generators.redfield_generator": [("qme.generators", "redfield_generator")],
    "generators.cgme_generator": [("qme.generators", "cgme_generator")],
    "operators.vectorize": [("qme.operators", "vectorize_generator"),
                            ("qme.operators", "vectorize_redfield")],
    "operators.eigensystem": [("qme.operators", "eigensystem")],
    "operators.trace_norm": [("qme.operators", "trace_norm")],
    "evolve.evolve": [("qme.evolve", "evolve")],
    "evolve.evolve_ore": [("qme.evolve", "evolve_ore")],
    "evolve.trace_distance_series": [("qme.evolve", "trace_distance_series")],
    "evolve.td_cgme_superoperator": [("qme.evolve", "td_cgme_superoperator")],
    "driving.td_a_epsilon": [("qme.driving", "td_a_epsilon")],
    "driving.heisenberg_A": [("qme.driving", "heisenberg_A")],
    "driving.td_lamb": [("qme.driving", "td_lamb")],
    "driving.dd_suppression_xi": [("qme.driving", "dd_suppression_xi")],
    "diagnostics.lambda_estimate": [("qme.diagnostics", "lambda_estimate")],
    "diagnostics.bounds": [("qme.diagnostics", name) for name in (
        "bound_summary", "strongest_bound", "optimal_ta", "ta_discrepancy_report")],
    "config.load_config": [("qme.config", "load_config")],
}

# span name -> bath methods, wrapped on every class that defines them
BATH_METHODS = {
    "baths.correlation": "correlation",
    "baths.gamma": "gamma",
    "baths.lamb_amplitude_S": "lamb_amplitude_S",
    "baths.build": "__init__",
    "baths.timescales": "timescales",
}

CLI_COMMAND = "cli.command"

# a span called directly inside the named span counts as part of it: the
# integration evolve_ore hands to evolve is the time-local reference's work
ABSORBED_BY = {"evolve.evolve": "evolve.evolve_ore"}


def _size(x) -> int:
    return int(np.size(x))


def _n_freq(jd) -> int:
    return len(jd.frequencies)


# span name -> (counter name, function of the call's positional arguments);
# bath methods receive the bath first
COUNTERS = {
    "baths.correlation": ("baths.correlation.points", lambda a: _size(a[1])),
    "baths.gamma": ("baths.gamma.points", lambda a: _size(a[1])),
    "generators.davies_generator": ("generators.bohr_frequencies", lambda a: _n_freq(a[0])),
    "generators.redfield_generator": ("generators.bohr_frequencies", lambda a: _n_freq(a[0])),
    "generators.cgme_generator": ("generators.bohr_frequencies", lambda a: _n_freq(a[0])),
    "generators.cgme_lamb_shift": ("generators.lamb_pairs", lambda a: _n_freq(a[0]) ** 2),
}


class Tracer:
    """Span recorder; ``install`` patches ``qme``, ``uninstall`` restores it."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self.counters = {}
        self.heisenberg_nodes = set()
        self._undo = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        host = self._id(ABSORBED_BY[name]) if name in ABSORBED_BY else None
        counter = COUNTERS.get(name)
        names, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters = self._stack, self.counters
        clock = time.perf_counter
        heisenberg = name == "driving.heisenberg_A"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            absorbed = host is not None and parent >= 0 and names[parent] == host
            names.append(host if absorbed else nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            if counter is not None:
                key, count = counter
                counters[key] = counters.get(key, 0) + count(args)
            if heisenberg:
                self.heisenberg_nodes.add((float(args[2]), float(args[3])))
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                if stack.pop() != idx:
                    raise RuntimeError(f"span {name} closed out of order")

        return traced

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qme" or mod_name.startswith("qme.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        import qme.baths
        import qme.cli

        for span, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                self._replace_everywhere(original, self.wrap(span, original))
        for span, method in BATH_METHODS.items():
            for cls in (qme.baths.Bath, *qme.baths.Bath.__subclasses__()):
                if method in vars(cls) and not (method == "__init__" and cls is qme.baths.Bath):
                    original = vars(cls)[method]
                    setattr(cls, method, self.wrap(span, original))
                    self._undo.append((cls, method, original))
        commands = qme.cli._COMMANDS
        for key, original in list(commands.items()):
            commands[key] = self.wrap(CLI_COMMAND, original)
            self._undo.append((commands, key, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def _arrays(self):
        starts = np.frombuffer(self.starts, dtype=float)
        ends = np.frombuffer(self.ends, dtype=float)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        return names, parents, starts, ends

    def layer_totals(self):
        """Per span name: (calls, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; children never overlap, since one stack serves all spans.
        """
        names, parents, starts, ends = self._arrays()
        n = len(starts)
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        totals = np.bincount(names, weights=self_s, minlength=k)
        return {name: (int(calls[i]), float(totals[i])) for i, name in enumerate(self.names)}

    def write(self, path: str):
        names, parents, starts, ends = self._arrays()
        t0 = float(starts.min()) if len(starts) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name_id=names,
                            parent=parents, start=starts - t0, end=ends - t0)
