"""Set-up of one workload in a fresh interpreter, for the ``setup_s`` metric.

Usage: python3 perfbench/setup_probe.py SRC_DIR SPAWN_TIME CONFIG...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this interpreter (a system-wide monotonic clock on Linux).  The probe
imports ``qme`` from SRC_DIR, parses each config, builds its bath, computes
the timescales and decomposes every coupling; then it times the reference
kernel (median of 21 passes) and prints one JSON line with the raw set-up
time (interpreter start included), the raw ``import qme`` time and the
kernel time.
"""

import sys
import time


def main(argv):
    src, spawn, configs = argv[0], float(argv[1]), argv[2:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import qme
    import_s = time.perf_counter() - t0
    for path in configs:
        cfg = qme.load_config(path)
        if cfg.bath is not None:
            bath = cfg.bath.build()
            bath.timescales(float("inf") if cfg.bath.t_cutoff is None else cfg.bath.t_cutoff)
        if cfg.model is not None:
            eig = qme.eigensystem(cfg.model.hamiltonian_operator())
            for A in cfg.model.coupling_operators():
                qme.decompose_coupling(eig, A)
    setup_s = time.perf_counter() - spawn

    import json
    import os

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import timing

    kernel_s = timing.median_kernel(21)
    print(json.dumps({"setup_s": setup_s, "import_s": import_s, "kernel_s": kernel_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
