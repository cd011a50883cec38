"""Composite Gauss-Legendre rules and the panel-halving loops every refined
fixed-grid integral runs on: ``refine`` for a definite integral (the
coarse-grained Lamb coefficients, the dispersive part S(omega), the DD
suppression ratio and the bath timescale integrals) and ``cumulative`` for a
running one (the filter of the time-local reference)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["cumulative", "gauss_panels", "refine"]

# Gauss order per panel, the largest phase one panel carries at the highest
# frequency of an oscillating integrand, the convergence tolerances of the
# panel-halving loop, its panel cap, and the entry cap of one chunk of
# (result entry x node) terms.
ORDER = 16
PANEL_PHASE = 2.0
EPSABS = 1e-12
EPSREL = 1e-10
MAX_PANELS = 1 << 14
CHUNK_ELEMENTS = 1 << 16


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


def _on_grid(term, factor, edges):
    """sum over chunks of term(nodes, weights, factor(nodes)) on the
    order-ORDER rule over ``edges``; ``factor`` is evaluated once."""
    nodes, weights = gauss_panels(edges, ORDER)
    f = factor(nodes)
    total = term(nodes[:1], weights[:1], f[:1])
    step = max(1, CHUNK_ELEMENTS // max(1, np.size(total)))
    for lo in range(1, len(nodes), step):
        k = slice(lo, lo + step)
        total = total + term(nodes[k], weights[k], f[k])
    return total


def refine(term, factor, edges, epsabs=EPSABS):
    """An integral on the composite Gauss rule over ``edges``, refined by
    halving every panel until no entry moves by more than
    max(epsabs, EPSREL |value|).  An integral whose own size sets its scale,
    such as that of a nonnegative integrand, passes ``epsabs=0``.

    ``factor(nodes)`` is the per-node function (a bath's gamma or C),
    evaluated once per grid; ``term(nodes, weights, factor_values)`` returns
    the contribution of a chunk of nodes, an array of any fixed shape, and is
    summed over chunks of at most CHUNK_ELEMENTS (entry x node) terms.
    Returns the finer value and the largest change of the last halving;
    raises ArithmeticError when the panel count would exceed MAX_PANELS.
    """
    edges = np.asarray(edges, dtype=float)
    value = _on_grid(term, factor, edges)
    while 2 * (len(edges) - 1) <= MAX_PANELS:
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
        fine = _on_grid(term, factor, edges)
        change = np.abs(fine - value)
        if np.all(change <= np.maximum(epsabs, EPSREL * np.abs(fine))):
            return fine, float(np.max(change))
        value = fine
    raise ArithmeticError(
        f"quadrature not converged within {MAX_PANELS} panels on "
        f"[{edges[0]:g}, {edges[-1]:g}]")


def _running_sums(integrand, edges):
    """int_{edges[0]}^{e} integrand for every edge e, on the order-ORDER rule."""
    nodes, weights = gauss_panels(edges, ORDER)
    f = integrand(nodes)
    shape = (len(edges) - 1, ORDER)
    panels = np.einsum("pk,pk...->p...", weights.reshape(shape), f.reshape(shape + f.shape[1:]))
    return np.concatenate([np.zeros((1,) + panels.shape[1:], panels.dtype),
                           np.cumsum(panels, axis=0)])


def _evaluator(integrand, edges, sums):
    """t -> the running sum to the edge below t plus the partial panel."""
    x, w = _leggauss(ORDER)
    tail = sums.shape[1:]
    step = max(1, CHUNK_ELEMENTS // (ORDER * max(1, sums[0].size)))

    def running(t):
        t = np.asarray(t, dtype=float)
        if np.any((t < edges[0]) | (t > edges[-1])):
            raise ValueError(f"t outside [{edges[0]:g}, {edges[-1]:g}]")
        flat = t.ravel()
        out = np.empty(flat.shape + tail, dtype=sums.dtype)
        for lo in range(0, len(flat), step):
            tc = flat[lo:lo + step]
            k = np.clip(np.searchsorted(edges, tc, side="right") - 1, 0, len(edges) - 2)
            half = 0.5 * (tc - edges[k])
            nodes = (edges[k] + half)[:, None] + half[:, None] * x
            f = integrand(nodes.ravel()).reshape(nodes.shape + tail)
            out[lo:lo + step] = sums[k] + np.einsum("nk,nk...->n...", half[:, None] * w, f)
        return out.reshape(t.shape + tail)

    return running


def cumulative(integrand, edges):
    """The running integral G(t) = int_{edges[0]}^t integrand(x) dx on the
    composite Gauss rule over ``edges``, refined by halving every panel until
    no G at a starting edge moves by more than max(EPSABS, EPSREL |G|).

    ``integrand(x)`` takes a 1-D array of points and returns an array of
    shape (len(x), ...).  Returns ``(G, error)``: G takes an array of t in
    [edges[0], edges[-1]] and returns shape t.shape + (...), the running sum
    to the panel edge below each t plus one order-ORDER Gauss rule on the
    partial panel up to t, over chunks of at most CHUNK_ELEMENTS
    (entry x node) terms; ``error`` is the largest change of the last
    halving.  Raises ArithmeticError when the panel count would exceed
    MAX_PANELS.
    """
    edges = np.asarray(edges, dtype=float)
    sums = _running_sums(integrand, edges)
    while 2 * (len(edges) - 1) <= MAX_PANELS:
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
        fine = _running_sums(integrand, edges)
        change = np.abs(fine[::2] - sums)
        if np.all(change <= np.maximum(EPSABS, EPSREL * np.abs(fine[::2]))):
            return _evaluator(integrand, edges, fine), float(np.max(change, initial=0.0))
        sums = fine
    raise ArithmeticError(
        f"running integral not converged within {MAX_PANELS} panels on "
        f"[{edges[0]:g}, {edges[-1]:g}]")
