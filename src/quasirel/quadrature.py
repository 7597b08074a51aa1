"""Adaptive Gauss-Legendre quadrature over the half line (0, inf).

The integral is split at t = 1 and each piece mapped onto (0, 1):

    int_0^inf h(t) dt = int_0^1 h(t) dt + int_0^1 h(1/s) / s^2 ds

so any endpoint singularity (the measure densities here behave like t^p near
zero or decay like t^(p-2) at infinity) lands at the origin of its piece,
where bisection can descend through the full double-precision range. The
naive single map t = u/(1-u) puts the tail at u = 1, where doubles have only
~1e-16 of room; heavy-tailed measures need t beyond 1e16, which that map
cannot represent (see the panel floor below).

Near such a singularity only the panels [0, b] keep splitting, down a spine
of left children whose right siblings settle within a level or two; so one
round descends SPINE_DEPTH levels of that spine at once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

EVAL_BUDGET = 100_000
LOCAL_TOL = 1e-9
# Panels narrower than this are accepted as-is; with singularities mapped to
# the origin this floor is never the accuracy limiter.
MIN_PANEL_WIDTH = 1e-120
SPINE_DEPTH = 16  # levels a round requests below a pending [0, b]
OFF_SPINE_DEPTH = 2  # levels a round requests below any other pending panel

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


class QuadratureError(RuntimeError):
    """The integrator exhausted its evaluation budget before converging."""


def _requests(a: float, b: float, levels: int) -> list:
    """The ends a0, b0, a1, b1, ... of the panels a round evaluates for the
    pending panel (a, b): its halves, then, `levels` levels down its
    left-child chain, the halves of each right child and of its left sibling,
    so the halves of the k-th left child are panels 4k, 4k + 1 and those of
    its right sibling 4k - 2, 4k - 1. It stops above children narrower than
    MIN_PANEL_WIDTH, never deeper than depth-first bisection goes."""
    mid = 0.5 * (a + b)
    out = [a, mid, mid, b]
    for _ in range(levels - 1):
        if mid - a < MIN_PANEL_WIDTH or b - mid < MIN_PANEL_WIDTH:
            break
        centre = 0.5 * (mid + b)
        out += [mid, centre, centre, b]
        b, mid = mid, 0.5 * (a + mid)
        out += [a, mid, mid, b]
    return out


def _panel_sums(integrand: Callable, ends: list, n_inner: int) -> list:
    """Gauss-Legendre estimates of the panels with ends a0, b0, a1, b1, ... from
    one integrand call: the first n_inner of h, the rest of h(1/s)/s^2."""
    a, b = np.array(ends).reshape(-1, 2).T
    half = 0.5 * (b - a)
    x = half[:, np.newaxis] * _NODES
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
                       budget: int = EVAL_BUDGET) -> float:
    """Integrate a vectorized integrand over t in (0, inf).

    The integrand gets one flat 1-d array of positive t per round, mixing
    the Gauss nodes of both pieces, and must evaluate it elementwise,
    returning real values of the same shape.

    Each round evaluates, in one integrand call, OFF_SPINE_DEPTH levels below
    each pending panel of both pieces (its halves and quarters), or SPINE_DEPTH
    below a pending [0, b], where the mapped singularities sit (_requests).
    It settles each pending panel, then each child whose halves it has: a
    panel is accepted once its halves change its estimate by less than
    LOCAL_TOL, or it is narrower than MIN_PANEL_WIDTH; the children of the
    others settle in this round or the next. These are the panels a
    depth-first bisection accepts, and each piece sums them in its order,
    by descending left end, so the result is the depth-first one bit for
    bit. The budget is charged only for the points that bisection
    evaluates, so QuadratureError (budget exhausted before every panel
    settles) is raised on the same inputs.
    """
    spent = 0

    def charge(panels: int) -> None:
        nonlocal spent
        spent += panels * _NODES.size
        if spent > budget:
            raise QuadratureError(
                f"evaluation budget {budget} exhausted; integrand too rough")

    accepted = ([], [])  # per piece, (0, 1) then the tail: (a, sum) per panel
    charge(2)
    root = _panel_sums(integrand, [0.0, 1.0] * 2, 1)
    pending = ([(0.0, 1.0, root[0])], [(0.0, 1.0, root[1])])  # (a, b, estimate)
    while pending[0] or pending[1]:
        charge(2 * (len(pending[0]) + len(pending[1])))
        ends, stack = [], []  # (piece, a, b, estimate, index of its halves, end)
        for piece, queue in enumerate(pending):
            n_inner = len(ends) // 2  # piece 0's panel count, once past piece 0
            for a, b, estimate in queue:
                start = len(ends) // 2
                ends += _requests(a, b, SPINE_DEPTH if a == 0.0 else OFF_SPINE_DEPTH)
                stack.append((piece, a, b, estimate, start, len(ends) // 2))
        sums = _panel_sums(integrand, ends, n_inner)
        grown, ahead = ([], []), 0
        while stack:
            piece, a, b, estimate, i, end = stack.pop()
            mid = 0.5 * (a + b)
            left, right = sums[i], sums[i + 1]
            if abs(left + right - estimate) < LOCAL_TOL or (b - a) < MIN_PANEL_WIDTH:
                accepted[piece].append((a, left + right))
            elif i + 2 < end:  # the right child's halves at i + 2, the left's at i + 4
                stack += [(piece, a, mid, left, i + 4, end), (piece, mid, b, right, i + 2, i + 4)]
                ahead += 2
            else:
                grown[piece].extend([(a, mid, left), (mid, b, right)])
        charge(2 * ahead)
        pending = grown

    inner, outer = (_descending_sum(panels) for panels in accepted)
    return inner + outer
