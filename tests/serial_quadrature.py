"""Depth-first half-line quadrature: the oracle the level-synchronous one is checked against.

This is the integrator as it ran before its rounds were batched: a stack of
panels per piece, one integrand call per 15-node panel, the (0, 1) piece
integrated in full before the mapped tail. ``integrate_counted`` also
returns the number of integrand points it charged to the budget.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from quasirel.quadrature import (
    EVAL_BUDGET,
    LOCAL_TOL,
    MIN_PANEL_WIDTH,
    QuadratureError,
    _NODES,
    _WEIGHTS,
)


class _Counter:
    __slots__ = ("evals", "budget")

    def __init__(self, budget: int):
        self.evals = 0
        self.budget = budget

    def spend(self, n: int) -> None:
        self.evals += n
        if self.evals > self.budget:
            raise QuadratureError(
                f"evaluation budget {self.budget} exhausted; integrand too rough"
            )


def _panel(g: Callable, a: float, b: float, counter: _Counter) -> float:
    counter.spend(_NODES.size)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    return half * float(np.sum(_WEIGHTS * g(x)))


def _adaptive_unit(g: Callable, local_tol: float, counter: _Counter) -> float:
    total = 0.0
    stack = [(0.0, 1.0, _panel(g, 0.0, 1.0, counter))]
    while stack:
        a, b, coarse = stack.pop()
        mid = 0.5 * (a + b)
        left = _panel(g, a, mid, counter)
        right = _panel(g, mid, b, counter)
        if abs(left + right - coarse) < local_tol or (b - a) < MIN_PANEL_WIDTH:
            total += left + right
        else:
            stack.append((a, mid, left))
            stack.append((mid, b, right))
    return total


def integrate_counted(integrand: Callable, local_tol: float = LOCAL_TOL,
                      budget: int = EVAL_BUDGET) -> tuple[float, int]:
    """The integral and the number of points charged to the budget."""
    counter = _Counter(budget)
    inner = _adaptive_unit(lambda t: integrand(t), local_tol, counter)
    outer = _adaptive_unit(lambda s: integrand(1.0 / s) / s ** 2, local_tol, counter)
    return inner + outer, counter.evals


def integrate_halfline(integrand: Callable, local_tol: float = LOCAL_TOL,
                       budget: int = EVAL_BUDGET) -> float:
    return integrate_counted(integrand, local_tol, budget)[0]
