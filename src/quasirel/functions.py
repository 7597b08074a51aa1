"""Operator monotone decreasing function descriptors and their integral form.

Every divergence here is driven by a scalar function f on (0, inf) that is
operator monotone decreasing with f(1) = 0. Such functions admit the integral
representation

    f(x) = a (1 - x) + int_0^inf (1/(t+x) - 1/(t+1)) w(t) dt,   a >= 0, w >= 0,

and the descriptor records the pieces: the linear coefficient ``a``, the
measure density ``w``, the companion constant ``b``, plus f'(1) and f''(1)
(stored analytically because the Pinsker-type bound needs f''(1) exactly).

Convention for ``b``: it is the canonical constant of the *unshifted* base
function, and ``shift`` records the constant added to normalize f(1) = 0
(neg-power stores f(x) = 1 - x^p, whose base -x^p has b = cos(p pi/2) and
shift 1). The normalization identity ties them together:

    a + b - shift = int_0^inf (1/(t+1) - t/(t^2+1)) w(t) dt,

which :func:`normalization_residual` checks by quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .quadrature import integrate_halfline

REPRESENTATION_RTOL = 1e-6


@dataclass(frozen=True)
class OMDFunction:
    """Descriptor of an operator monotone decreasing function with f(1) = 0.

    ``eval`` and ``measure_density`` accept scalars or numpy arrays.
    ``value_at_zero`` is the limit of f at 0+ (may be +inf); the spectral
    divergence route uses it on rank-deficient second arguments.
    """

    name: str
    eval: Callable
    a: float
    b: float
    measure_density: Optional[Callable]
    d1_at_1: float
    d2_at_1: float
    shift: float = 0.0
    value_at_zero: float = math.inf

    def __call__(self, x):
        return self.eval(x)


def neg_log() -> OMDFunction:
    """f(x) = -log x (natural log): the relative-entropy generator."""
    return OMDFunction(
        name="neg-log",
        eval=lambda x: -np.log(x),
        a=0.0,
        b=0.0,
        measure_density=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        d1_at_1=-1.0,
        d2_at_1=1.0,
        value_at_zero=math.inf,
    )


def _order_text(x: float) -> str:
    """An order's shortest round-trip text, 2 for 2.0: parse_f_spec reads it back exactly."""
    return repr(float(x)).removesuffix(".0")


def neg_power(p: float) -> OMDFunction:
    """f(x) = 1 - x^p for p in (0, 1): the shifted power generator.

    The base function -x^p carries b = cos(p pi/2) and measure density
    sin(p pi)/pi * t^p; the +1 shift normalizing f(1) = 0 is recorded.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return OMDFunction(
        name=f"neg-power:p={_order_text(p)}",
        eval=lambda x: 1.0 - np.power(x, p),
        a=0.0,
        b=math.cos(p * math.pi / 2.0),
        measure_density=lambda t: (math.sin(p * math.pi) / math.pi) * np.power(t, p),
        d1_at_1=-p,
        d2_at_1=p * (1.0 - p),
        shift=1.0,
        value_at_zero=1.0,
    )


def is_tsallis_order(q: float) -> bool:
    """Whether q is an order the Tsallis generator takes: 0 < q <= 2, q != 1."""
    return 0.0 < q <= 2.0 and q != 1.0


@functools.lru_cache(typed=True)
def tsallis_f(q: float) -> OMDFunction:
    """f(x) = (1 - x^(1-q))/(1-q) for q in (0,2], q != 1: the Tsallis generator.

    One measure-density formula covers both branches:
    w(t) = sin((1-q) pi) t^(1-q) / ((1-q) pi). For q in (0,1) this is the
    power measure scaled by 1/(1-q); for q in (1,2) it is the implementer's
    analytic extension for x^(q-1) in the denominator, trusted only through
    the representation round-trip test, not on authority. At q = 2 the
    generator is 1/x - 1, whose measure is a point mass at t = 0: no density
    exists, so measure_density is None and round-trips are unavailable.

    Built once per order: the descriptor is immutable, so repeated calls at
    one q (of one type) return the same object.
    """
    if not is_tsallis_order(q):
        raise ValueError(f"q must lie in (0, 2] excluding 1, got {q}")
    r = 1.0 - q
    if q == 2.0:
        density = None
    else:
        coeff = math.sin(r * math.pi) / (r * math.pi)
        density = lambda t, _c=coeff: _c * np.power(t, r)
    # b = -Re f(i) with i^(1-q) = exp(i pi (1-q)/2).
    b = (math.cos(r * math.pi / 2.0) - 1.0) / r
    return OMDFunction(
        name=f"tsallis:q={_order_text(q)}",
        eval=lambda x: (1.0 - np.power(x, r)) / r,
        a=0.0,
        b=b,
        measure_density=density,
        d1_at_1=-1.0,
        d2_at_1=q,
        value_at_zero=1.0 / r if q < 1.0 else math.inf,
    )


def eval_via_representation(f: OMDFunction, x: float) -> float:
    """Evaluate f at x through its integral representation instead of eval.

    Contract: agrees with f.eval(x) to 1e-6 relative for the builtins on
    x in [1e-3, 1e3]. Raises ValueError unless x is positive and finite, and
    QuadratureError if the budget runs out.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x}")
    w = f.measure_density
    if w is None:
        raise ValueError(f"{f.name} has no measure density to integrate")
    # 1/(t+x) - 1/(t+1) written as a product: the direct difference cancels
    # catastrophically for t >> 1 and the noise stalls the adaptive panels.
    integral = integrate_halfline(
        lambda t: (1.0 - x) / ((t + x) * (t + 1.0)) * w(t))
    return f.a * (1.0 - x) + integral


def normalization_residual(f: OMDFunction) -> float:
    """Residual of the constant-term identity tying a, b, shift, and w together.

    Zero (to quadrature accuracy) for every consistent descriptor; the
    registration path rejects descriptors where this is large.
    """
    w = f.measure_density
    if w is None:
        raise ValueError(f"{f.name} has no measure density to integrate")
    # 1/(t+1) - t/(t^2+1) = (1-t)/((t+1)(t^2+1)), cancellation-free.
    integral = integrate_halfline(
        lambda t: (1.0 - t) / ((t + 1.0) * (t * t + 1.0)) * w(t)
    )
    return (f.a + f.b - f.shift) - integral


def make_custom(name: str, eval: Callable, a: float, measure_density: Callable,
                d1_at_1: float, d2_at_1: float, value_at_zero: float,
                shift: float = 0.0) -> OMDFunction:
    """Register a user-supplied generator, validating it before returning.

    Rejects descriptors with eval(1) != 0, a < 0, a negative or non-finite
    measure density on a sample grid, a large normalization residual, or a
    representation that fails to reproduce eval on a spot grid.

    ``value_at_zero`` is the limit of f at 0+, ``math.inf`` where f grows
    without bound; it is required, because eval at any small x is finite
    either way.

    ``measure_density`` is called by the quadrature with one flat array per
    round that mixes points from (0, 1) and (1, inf); it must evaluate
    elementwise and return an array of the same shape.
    """
    if abs(float(eval(1.0))) > 1e-12:
        raise ValueError(f"{name}: eval(1) = {eval(1.0)!r}, must be 0")
    if a < 0.0:
        raise ValueError(f"{name}: linear coefficient a must be >= 0, got {a}")
    tgrid = np.geomspace(1e-6, 1e6, 49)
    wvals = np.asarray(measure_density(tgrid), dtype=float)
    if not np.all(np.isfinite(wvals)):
        raise ValueError(f"{name}: measure density is not finite on the sample grid")
    if np.any(wvals < -1e-12):
        raise ValueError(f"{name}: measure density is negative on the sample grid")
    f = OMDFunction(name, eval, float(a), 0.0, measure_density,
                    float(d1_at_1), float(d2_at_1), float(shift),
                    float(value_at_zero))
    # b is pinned by the normalization identity once a, w, and shift are fixed.
    b = -normalization_residual(f)
    f = replace(f, b=b)
    for x in (0.05, 0.5, 2.0, 40.0):
        direct = float(eval(x))
        via = eval_via_representation(f, x)
        if abs(via - direct) > REPRESENTATION_RTOL * max(1.0, abs(direct)):
            raise ValueError(
                f"{name}: representation disagrees with eval at x={x}: "
                f"{via!r} vs {direct!r}"
            )
    return f


# CLI name parsing: "neg-log", "neg-power:p=0.5", "tsallis:q=0.3".

def parse_f_spec(spec: str) -> OMDFunction:
    """Build a builtin descriptor from its CLI name."""
    spec = spec.strip()
    if spec == "neg-log":
        return neg_log()
    head, sep, arg = spec.partition(":")
    if head == "neg-power":
        key, _, value = arg.partition("=")
        if not sep or key != "p":
            raise ValueError(f"expected neg-power:p=<value>, got {spec!r}")
        return neg_power(float(value))
    if head == "tsallis":
        key, _, value = arg.partition("=")
        if not sep or key != "q":
            raise ValueError(f"expected tsallis:q=<value>, got {spec!r}")
        return tsallis_f(float(value))
    raise ValueError(f"unknown function spec {spec!r}")


def builtin_suite() -> list[OMDFunction]:
    """The four canonical generators used by the cross-validation sweeps."""
    return [neg_log(), neg_power(0.5), tsallis_f(0.3), tsallis_f(1.5)]
