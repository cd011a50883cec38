"""Composite Gauss-Legendre rules, their starting panels (``panel_edges``),
the chunks of every chunked loop (``chunks``) and the panel-halving loops
every refined integral runs on: ``refine`` for a definite one (the
coarse-grained Kossakowski and Lamb coefficients, S(omega), the DD
suppression ratio and the bath timescales) and ``cumulative`` for a running
one (the filter of the time-local reference).  A running integral keeps
its integrand's values on the converged grid and answers every query from
them: the partial panel up to t is the integral of the polynomial that
interpolates those values on the panel's Gauss nodes."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["chunks", "cumulative", "gauss_panels", "panel_edges", "refine"]

# Gauss order per panel, the largest phase one starting panel carries at the
# highest frequency of an oscillating integrand, the convergence tolerances
# of the panel-halving loop, its panel cap, and the entry cap of one chunk of
# a chunked loop.
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


def panel_edges(cuts, rate):
    """Panel edges with one at every cut: each piece between neighbouring
    cuts is split into the fewest equal panels that carry at most
    PANEL_PHASE radians at the angular frequency ``rate``."""
    cuts = np.unique(np.asarray(cuts, dtype=float))
    counts = np.maximum(1, np.ceil(np.diff(cuts) * rate / PANEL_PHASE)).astype(int)
    parts = [np.linspace(a, b, n + 1)[:-1] for a, b, n in zip(cuts[:-1], cuts[1:], counts)]
    return np.concatenate(parts + [cuts[-1:]])


def chunks(n, per_item):
    """Slices that partition range(n) in order into runs of at most
    max(1, CHUNK_ELEMENTS // per_item) items of ``per_item`` entries each."""
    step = max(1, CHUNK_ELEMENTS // max(1, per_item))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _halved(edges):
    """``edges`` with the midpoint of every panel interleaved: the array
    np.sort(np.concatenate([edges, midpoints])), built with no sort."""
    out = np.empty(2 * len(edges) - 1)
    out[::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _on_grid(term, factor, edges, size=None):
    """sum over chunks of term(nodes, weights, factor(nodes)) on the
    order-ORDER rule over ``edges``; ``factor`` is evaluated once.  ``size``
    is the number of entries term returns.  When it is None, term first runs
    on one node to learn it; when it is known, a grid that fits in one chunk
    costs one term call."""
    nodes, weights = gauss_panels(edges, ORDER)
    f = factor(nodes)
    start, total = 0, None
    if size is None:
        start, total = 1, term(nodes[:1], weights[:1], f[:1])
        size = np.size(total)
    rest = nodes[start:], weights[start:], f[start:]
    for k in chunks(len(nodes) - start, size):
        part = term(*(a[k] for a in rest))
        total = part if total is None else total + part
    return total


def refine(term, factor, edges, epsabs=EPSABS, finish=None):
    """An integral on the composite Gauss rule over ``edges``, refined by
    halving every panel until no entry moves by more than
    max(epsabs, EPSREL |value|).  An integral whose own size sets its scale,
    such as that of a nonnegative integrand, passes ``epsabs=0``.

    ``factor(nodes)`` is the per-node function (a bath's gamma or C),
    evaluated once per grid; ``term(nodes, weights, factor_values)`` returns
    the contribution of a chunk of nodes, an array of any fixed shape, and is
    summed over chunks of at most CHUNK_ELEMENTS (entry x node) terms.  The
    first grid runs term on one node to learn that shape.  Each later grid
    interleaves the midpoints with the last grid's edges and runs term once
    per chunk, so once when the grid fits in one chunk.
    ``finish``, a linear map, takes each grid's sum to the value whose
    entries are tested, so a term may return a few integrals that many
    entries combine.  Returns the finer value and the largest change of the
    last halving; raises ArithmeticError when the panel count would exceed
    MAX_PANELS.
    """
    edges = np.asarray(edges, dtype=float)
    total = _on_grid(term, factor, edges)
    size = np.size(total)
    value = total if finish is None else finish(total)
    while 2 * (len(edges) - 1) <= MAX_PANELS:
        edges = _halved(edges)
        fine = _on_grid(term, factor, edges, size)
        if finish is not None:
            fine = finish(fine)
        change = np.abs(fine - value)
        if np.all(change <= np.maximum(epsabs, EPSREL * np.abs(fine))):
            return fine, float(np.max(change, initial=0.0))
        value = fine
    raise ArithmeticError(
        f"quadrature not converged within {MAX_PANELS} panels on "
        f"[{edges[0]:g}, {edges[-1]:g}]")


def _running_sums(integrand, edges):
    """int_{edges[0]}^{e} integrand for every edge e, on the order-ORDER rule,
    and the integrand on the rule's nodes, shape (panels, ORDER, ...)."""
    nodes, weights = gauss_panels(edges, ORDER)
    f = integrand(nodes)
    values = f.reshape((len(edges) - 1, ORDER) + f.shape[1:])
    panels = np.einsum("pk,pk...->p...", weights.reshape(values.shape[:2]), values)
    sums = np.concatenate([np.zeros((1,) + panels.shape[1:], panels.dtype),
                           np.cumsum(panels, axis=0)])
    return sums, values


@lru_cache(maxsize=None)
def _legendre_at_nodes(order: int):
    """(w_j / 2) P_n(x_j) for n < order (rows) on the order-``order`` Gauss
    nodes x_j (columns)."""
    x, w = _leggauss(order)
    table = 0.5 * w * np.polynomial.legendre.legvander(x, order - 1).T
    table.setflags(write=False)
    return table


def _basis_integrals(tau, order: int):
    """W_j(tau) = int_{-1}^{tau} l_j for the Lagrange basis l_j on the
    order-``order`` Gauss nodes, shape (len(tau), order).  With
    l_j = w_j sum_n (n + 1/2) P_n(x_j) P_n and int_{-1}^{tau} P_n =
    (P_{n+1} - P_{n-1})(tau) / (2n + 1) for n >= 1,

        W_j(tau) = (w_j / 2) [(tau + 1) + sum_{n=1}^{order-1} P_n(x_j) (P_{n+1} - P_{n-1})(tau)];

    P_n(-1) = (-1)^n exactly, so W(-1) = 0 exactly."""
    P = np.polynomial.legendre.legvander(tau, order)
    D = np.empty((len(tau), order))
    D[:, 0] = tau + 1.0
    D[:, 1:] = P[:, 2:] - P[:, :-2]
    return D @ _legendre_at_nodes(order)


def _evaluator(edges, sums, values):
    """t -> the running sum to the edge below t plus the partial panel, the
    integral of the ORDER-node interpolant of ``values`` up to t."""
    tail = sums.shape[1:]

    def running(t):
        t = np.asarray(t, dtype=float)
        if np.any((t < edges[0]) | (t > edges[-1])):
            raise ValueError(f"t outside [{edges[0]:g}, {edges[-1]:g}]")
        flat = t.ravel()
        out = np.empty(flat.shape + tail, dtype=sums.dtype)
        for c in chunks(len(flat), ORDER * sums[0].size):
            tc = flat[c]
            k = np.clip(np.searchsorted(edges, tc, side="right") - 1, 0, len(edges) - 2)
            half = 0.5 * (edges[k + 1] - edges[k])
            weights = half[:, None] * _basis_integrals((tc - edges[k]) / half - 1.0, ORDER)
            partial = weights[:, None, :] @ values[k].reshape(len(k), ORDER, -1)
            out[c] = sums[k] + partial.reshape((len(k),) + tail)
        return out.reshape(t.shape + tail)

    return running


def cumulative(integrand, edges):
    """The running integral G(t) = int_{edges[0]}^t integrand(x) dx on the
    composite Gauss rule over ``edges``, refined by halving every panel until
    no G at a starting edge moves by more than max(EPSABS, EPSREL |G|).

    ``integrand(x)`` takes a 1-D array of points and returns an array of
    shape (len(x), ...).  Returns ``(G, error)``: G takes an array of t in
    [edges[0], edges[-1]] and returns shape t.shape + (...), the running sum
    to the panel edge below each t plus the partial panel up to t, the
    integral of the polynomial that interpolates the integrand on the
    panel's ORDER nodes (Greengard, SIAM J. Numer. Anal. 28, 1071 (1991)),
    over chunks of at most CHUNK_ELEMENTS (query x node x entry) terms.  G
    holds the converged level's integrand values, (panels, ORDER, ...), and
    calls no integrand; G(edges[0]) is exactly 0.  ``error`` is the largest
    change of the last halving.  Raises ArithmeticError when the panel count
    would exceed MAX_PANELS.
    """
    edges = np.asarray(edges, dtype=float)
    sums = _running_sums(integrand, edges)[0]
    while 2 * (len(edges) - 1) <= MAX_PANELS:
        edges = _halved(edges)
        fine, values = _running_sums(integrand, edges)
        change = np.abs(fine[::2] - sums)
        if np.all(change <= np.maximum(EPSABS, EPSREL * np.abs(fine[::2]))):
            return _evaluator(edges, fine, values), float(np.max(change, initial=0.0))
        # the next level is evaluated with no earlier level's values alive
        sums = fine
        del values
    raise ArithmeticError(
        f"running integral not converged within {MAX_PANELS} panels on "
        f"[{edges[0]:g}, {edges[-1]:g}]")
