"""Half-line quadrature against closed forms and the depth-first oracle."""

import math

import numpy as np
import pytest

import serial_quadrature
from quasirel import (
    QuadratureError,
    eval_via_representation,
    functions,
    integrate_halfline,
    normalization_residual,
    parse_f_spec,
)
from quasirel.cli import _DEFAULT_REPR_SPECS, _REPR_GRID


def test_exponential_decay():
    assert integrate_halfline(lambda t: np.exp(-t)) == pytest.approx(1.0, rel=1e-9)
    assert integrate_halfline(lambda t: t * np.exp(-t * t)) == pytest.approx(
        0.5, rel=1e-9
    )


def test_algebraic_tail():
    assert integrate_halfline(lambda t: 1.0 / (1.0 + t * t)) == pytest.approx(
        math.pi / 2.0, rel=1e-9
    )


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_mellin_closed_form(p):
    # integral of t^(p-1)/(1+t) over (0, inf) equals pi/sin(pi p)
    value = integrate_halfline(lambda t: np.power(t, p - 1.0) / (1.0 + t))
    assert value == pytest.approx(math.pi / math.sin(math.pi * p), rel=1e-8)


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 2.0, 1e3])
def test_resolvent_difference_kernel(x):
    # integral of (1-x)/((t+x)(t+1)) over (0, inf) equals -log(x)
    value = integrate_halfline(
        lambda t: (1.0 - x) / ((t + x) * (t + 1.0))
    )
    assert value == pytest.approx(-math.log(x), rel=1e-9)


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError):
        integrate_halfline(lambda t: np.sin(1e6 * t) / (1.0 + t * t), budget=500)


def test_tiny_budget_raises_even_for_smooth():
    with pytest.raises(QuadratureError):
        integrate_halfline(lambda t: np.exp(-t), budget=10)


# The level-synchronous integrator against the depth-first oracle: the same
# accepted panels summed in the same order, so equal to the last bit, and the
# budget charged for exactly the points the oracle evaluates.

CLOSED_FORMS = [
    lambda t: np.exp(-t),
    lambda t: t * np.exp(-t * t),
    lambda t: 1.0 / (1.0 + t * t),
    *[lambda t, p=p: np.power(t, p - 1.0) / (1.0 + t) for p in (0.3, 0.5, 0.9)],
    *[lambda t, x=x: (1.0 - x) / ((t + x) * (t + 1.0)) for x in (1e-3, 0.1, 0.5, 2.0, 1e3)],
]


@pytest.mark.parametrize("integrand", CLOSED_FORMS)
def test_closed_forms_equal_depth_first_oracle(integrand):
    assert integrate_halfline(integrand) == serial_quadrature.integrate_halfline(integrand)


@pytest.mark.parametrize("spec", _DEFAULT_REPR_SPECS)
def test_repr_check_specs_equal_depth_first_oracle(spec, monkeypatch):
    f = parse_f_spec(spec)
    grid = [float(x) for x in _REPR_GRID]
    values = [eval_via_representation(f, x) for x in grid]
    residual = normalization_residual(f)
    monkeypatch.setattr(functions, "integrate_halfline", serial_quadrature.integrate_halfline)
    assert values == [eval_via_representation(f, x) for x in grid]
    assert residual == normalization_residual(f)


@pytest.mark.parametrize("integrand", [
    CLOSED_FORMS[0], CLOSED_FORMS[3], CLOSED_FORMS[6],
    lambda t: 0.5 * (1.0 - 40.0) / ((t + 40.0) * (t + 1.0)) * np.power(t, 0.25),
])
def test_budget_charges_the_oracle_points(integrand):
    value, points = serial_quadrature.integrate_counted(integrand)
    assert integrate_halfline(integrand, budget=points) == value
    with pytest.raises(QuadratureError):
        integrate_halfline(integrand, budget=points - 1)
    with pytest.raises(QuadratureError):
        serial_quadrature.integrate_halfline(integrand, budget=points - 1)
