"""Composite Gauss-Legendre rules shared by every fixed-grid integral, and
the adaptive complex-valued ``quad`` the remaining scalar integrals use."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import integrate

__all__ = ["gauss_panels", "complex_quad"]


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_panels(edges, order: int):
    """Nodes and weights of the order-``order`` Gauss-Legendre rule on each
    panel [edges[k], edges[k+1]], concatenated panel by panel."""
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(int(order))
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def complex_quad(func, a, b, **kwargs):
    """Adaptive ``quad`` of a complex integrand, real part first, then
    imaginary part; returns (value, summed abserr of the two)."""
    re, re_err = integrate.quad(lambda x: func(x).real, a, b, **kwargs)
    im, im_err = integrate.quad(lambda x: func(x).imag, a, b, **kwargs)
    return re + 1j * im, re_err + im_err
