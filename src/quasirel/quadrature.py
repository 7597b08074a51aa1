"""Adaptive Gauss-Legendre quadrature over the half line (0, inf).

The integral is split at t = 1 and each piece mapped onto (0, 1):

    int_0^inf h(t) dt = int_0^1 h(t) dt + int_0^1 h(1/s) / s^2 ds

so any endpoint singularity (the measure densities here behave like t^p near
zero or decay like t^(p-2) at infinity) lands at the origin of its piece,
where bisection can descend through the full double-precision range. The
naive single map t = u/(1-u) puts the tail at u = 1, where doubles have only
~1e-16 of room; heavy-tailed measures need t beyond 1e16, which that map
cannot represent (see the panel floor below).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

EVAL_BUDGET = 100_000
LOCAL_TOL = 1e-9
# Panels narrower than this are accepted as-is; with singularities mapped to
# the origin this floor is never the accuracy limiter.
MIN_PANEL_WIDTH = 1e-120

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


class QuadratureError(RuntimeError):
    """The integrator exhausted its evaluation budget before converging."""


# A panel's halves, then its quarters, as index pairs into its edges
# (a, q1, mid, q3, b).
_SUBPANELS = ((0, 2), (2, 4), (0, 1), (1, 2), (2, 3), (3, 4))


def _panel_sums(integrand: Callable, panels: list, n_inner: int) -> list:
    """Gauss-Legendre estimates of the panels (a, b) from one integrand call:
    the first n_inner of h itself, the rest of the mapped tail h(1/s)/s^2."""
    ends = np.array(panels)
    a, b = ends[:, 0], ends[:, 1]
    half = 0.5 * (b - a)
    x = np.multiply.outer(half, _NODES)
    x += (0.5 * (a + b))[:, np.newaxis]
    t = x.copy()
    np.divide(1.0, x[n_inner:], out=t[n_inner:])
    values = np.array(integrand(t.reshape(-1)), dtype=float).reshape(x.shape)
    tail = values[n_inner:]
    np.divide(tail, np.square(x[n_inner:]), out=tail)
    return (half * np.add.reduce(values * _WEIGHTS, axis=1)).tolist()


def _descending_sum(panels: list) -> float:
    """Sum the (a, sum) panels by descending a, the depth-first order."""
    total = 0.0
    for _, value in sorted(panels, reverse=True):
        total += value
    return total


def integrate_halfline(integrand: Callable[[np.ndarray], np.ndarray],
                       local_tol: float = LOCAL_TOL,
                       budget: int = EVAL_BUDGET) -> float:
    """Integrate a vectorized integrand over t in (0, inf).

    The integrand gets one flat 1-d array of positive t per round, mixing
    the Gauss nodes of both pieces, and must evaluate it elementwise,
    returning real values of the same shape.

    Bisection is level-synchronous: each round evaluates the halves and the
    quarters of every pending panel of both pieces in one call, settles the
    panels and then the halves of those that split, and leaves pending the
    quarters of halves that split too. A panel is accepted once its halves
    change its estimate by less than local_tol, or it is narrower than
    MIN_PANEL_WIDTH. These are the panels a depth-first bisection accepts,
    and each piece sums them in its order, by descending left end, so the
    result is the depth-first one bit for bit. The budget is charged only
    for the points that bisection evaluates, so QuadratureError (budget
    exhausted before every panel settles) is raised on the same inputs.
    """
    spent = 0

    def charge(panels: int) -> None:
        nonlocal spent
        spent += panels * _NODES.size
        if spent > budget:
            raise QuadratureError(
                f"evaluation budget {budget} exhausted; integrand too rough")

    accepted = ([], [])  # per piece, (0, 1) then the tail: (a, sum) per panel

    def settle(piece: int, a: float, b: float, estimate: float, left: float,
               right: float) -> bool:
        if abs(left + right - estimate) < local_tol or (b - a) < MIN_PANEL_WIDTH:
            accepted[piece].append((a, left + right))
            return True
        return False

    charge(2)
    root = _panel_sums(integrand, [(0.0, 1.0)] * 2, 1)
    pending = ([(0.0, 1.0, root[0])], [(0.0, 1.0, root[1])])  # (a, b, estimate)
    while pending[0] or pending[1]:
        panels = pending[0] + pending[1]
        charge(2 * len(panels))
        edges = []
        for a, b, _ in panels:
            mid = 0.5 * (a + b)
            edges.append((a, 0.5 * (a + mid), mid, 0.5 * (mid + b), b))
        sums = _panel_sums(integrand, [(e[i], e[j]) for e in edges for i, j in _SUBPANELS],
                           6 * len(pending[0]))
        grown = ([], [])
        split = 0
        for n, ((a, b, estimate), (_, q1, mid, q3, _)) in enumerate(zip(panels, edges)):
            piece = int(n >= len(pending[0]))
            left, right, ll, lr, rl, rr = sums[6 * n:6 * n + 6]
            if settle(piece, a, b, estimate, left, right):
                continue
            split += 1
            for lo, md, hi, half, ql, qr in ((a, q1, mid, left, ll, lr),
                                             (mid, q3, b, right, rl, rr)):
                if not settle(piece, lo, hi, half, ql, qr):
                    grown[piece].extend([(lo, md, ql), (md, hi, qr)])
        charge(4 * split)
        pending = grown

    inner, outer = (_descending_sum(panels) for panels in accepted)
    return inner + outer
