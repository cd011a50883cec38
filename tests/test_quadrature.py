"""The running integral of the quadrature layer against closed forms."""

import numpy as np
import pytest

from qme.quadrature import EPSABS, EPSREL, cumulative


def _integrand(x):
    return np.stack([np.cos(3.0 * x), x ** 2], axis=-1)


class TestCumulative:
    def test_matches_closed_form(self):
        # converged to max(EPSABS, EPSREL |G|) at the starting edges; a
        # partial panel is narrower than the converged panel holding it
        G, error = cumulative(_integrand, np.linspace(0.0, 3.0, 4))
        t = np.concatenate(([0.0, 1.0, 3.0], np.random.default_rng(7).uniform(0.0, 3.0, 20)))
        exact = np.stack([np.sin(3.0 * t) / 3.0, t ** 3 / 3.0], axis=-1)
        assert np.max(np.abs(G(t) - exact)) < max(EPSABS, 9.0 * EPSREL)
        assert 0.0 <= error <= max(EPSABS, 9.0 * EPSREL)
        assert G(2.0).shape == (2,)
        assert G(t.reshape(-1, 1)).shape == (len(t), 1, 2)
        assert np.all(G(0.0) == 0.0)

    def test_outside_range_refused(self):
        G, _ = cumulative(_integrand, [0.0, 1.0])
        with pytest.raises(ValueError):
            G(np.array([0.5, 1.5]))

    def test_jump_not_converged(self):
        # a jump off every dyadic edge converges only linearly in the width
        with pytest.raises(ArithmeticError):
            cumulative(lambda x: (x > np.pi / 4)[:, None].astype(float), [0.0, 1.0])
