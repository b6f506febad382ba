"""Composite Gauss-Legendre quadrature helpers.

The time-integral oracles use one composite rule: ``GAUSS_NODES_PER_PANEL``
Gauss-Legendre nodes per panel on 64 uniform panels.  ``semigroup.time_integral``
(the Laplace, functional-equation and perturbation oracles) folds it from
``_gauss_rule`` over in-panel offsets and, by doubling, over the 64 panel starts,
with the panel count a constant there, so phi runs on the first start and the 12
offsets only; ``composite_gauss_points`` lists the nodes
of the rule on any panel count unfolded, the tests' reference for that fold and
for the rule's order.  Twelve nodes per panel keep entire integrands with
derivative scales up to ~200 per unit length below 1e-12 absolute error at the
panel widths used in the bundled scenarios.
"""
from __future__ import annotations

import functools

import numpy as np

GAUSS_NODES_PER_PANEL = 12


@functools.lru_cache(maxsize=8)
def _gauss_rule(nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]; shared by all callers."""
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    gx.setflags(write=False)
    gw.setflags(write=False)
    return gx, gw


def composite_gauss_points(a: float, b: float, panels: int,
                           nodes: int = GAUSS_NODES_PER_PANEL):
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b].

    Returns
    -------
    points, weights : ndarray
        Flat arrays of length ``panels * nodes``; ``sum(w * f(p))``
        approximates the integral.
    """
    if panels < 1:
        raise ValueError(f"panels must be positive, got {panels}")
    gx, gw = _gauss_rule(nodes)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    points = (mids[:, None] + halves[:, None] * gx[None, :]).ravel()
    weights = (halves[:, None] * gw[None, :]).ravel()
    return points, weights


def trapezoid_weights(n_points: int, spacing: float) -> np.ndarray:
    """Uniform trapezoid weights for ``n_points`` samples."""
    w = np.full(n_points, spacing, dtype=float)
    if n_points > 1:
        w[0] = w[-1] = 0.5 * spacing
    return w
