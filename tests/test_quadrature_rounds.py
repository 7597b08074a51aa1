"""Rounds of the half-line quadrature: the panel floor, where speculative
points may lie, integrand calls per integral, and a custom generator, each
against the depth-first oracle."""

import dataclasses
import math

import numpy as np
import pytest

import serial_quadrature
from quasirel import (
    QuadratureError,
    eval_via_representation,
    functions,
    integrate_halfline,
    neg_log,
    normalization_residual,
    parse_f_spec,
    quadrature,
    quasi_entropy_spectral,
    state_pair,
)
from quasirel.cli import _DEFAULT_REPR_SPECS, _REPR_GRID
from quasirel.functions import make_custom
from quasirel.quadrature import MIN_PANEL_WIDTH

# Their origin panels never meet LOCAL_TOL, so bisection descends to
# MIN_PANEL_WIDTH: in (0, 1) for the first two, in the mapped tail, where
# h(1/s)/s^2 ~ 1/s, for the third, and in both pieces for the last.
FLOOR_REACHING = [
    lambda t: 1.0 / (t * (1.0 + t)),
    lambda t: t ** -0.999 / (1.0 + t * t),
    lambda t: t / (1.0 + t * t),
    lambda t: 1.0 / (t * (1.0 + t)) + t / (1.0 + t * t),
]


class Extremes:
    """An integrand that keeps the smallest and largest t it was given: the
    deepest node of the (0, 1) piece and of the mapped tail."""

    def __init__(self, integrand):
        self.integrand = integrand
        self.low, self.high = math.inf, 0.0

    def __call__(self, t):
        self.low = min(self.low, float(np.min(t)))
        self.high = max(self.high, float(np.max(t)))
        return self.integrand(t)


@pytest.mark.parametrize("integrand", FLOOR_REACHING)
def test_floor_reaching_integrands_equal_depth_first_oracle(integrand):
    oracle = Extremes(integrand)
    value, points = serial_quadrature.integrate_counted(oracle)
    # accepted at the floor, not by LOCAL_TOL
    assert oracle.low < MIN_PANEL_WIDTH or oracle.high > 1.0 / MIN_PANEL_WIDTH
    with np.errstate(all="raise", under="ignore"):
        assert integrate_halfline(integrand) == value
        assert integrate_halfline(integrand, budget=points) == value
        with pytest.raises(QuadratureError):
            integrate_halfline(integrand, budget=points - 1)


# The oracle's deepest panel, [0, 2^-400], is a multiple of 16 levels down,
# so other spine depths check that speculation stops at the floor too.
@pytest.mark.parametrize("depth", [quadrature.SPINE_DEPTH, 12, 23])
def test_speculative_points_stay_within_the_oracle_reach(depth, monkeypatch):
    monkeypatch.setattr(quadrature, "SPINE_DEPTH", depth)
    oracle, rounds = Extremes(FLOOR_REACHING[-1]), Extremes(FLOOR_REACHING[-1])
    value = serial_quadrature.integrate_halfline(oracle)
    assert integrate_halfline(rounds) == value
    assert oracle.low < MIN_PANEL_WIDTH and oracle.high > 1.0 / MIN_PANEL_WIDTH
    assert rounds.low >= oracle.low
    assert rounds.high <= oracle.high


def test_repr_check_integrals_take_few_integrand_calls():
    calls, points = [], []

    def counted(density):
        def counting(t):
            calls[-1] += 1
            points[-1] += t.size
            return density(t)
        return counting

    for spec in _DEFAULT_REPR_SPECS:
        f = parse_f_spec(spec)
        f = dataclasses.replace(f, measure_density=counted(f.measure_density))
        for x in _REPR_GRID:
            calls.append(0)
            points.append(0)
            eval_via_representation(f, float(x))
        calls.append(0)
        points.append(0)
        normalization_residual(f)
    assert max(calls) <= 12
    assert sum(calls) <= 6 * len(calls)
    # Evaluating the halves and quarters of every pending panel per round
    # took 5802 points per integral on this grid; the spine must not add.
    assert sum(points) <= 5802 * len(points)


@pytest.mark.parametrize("spec", _DEFAULT_REPR_SPECS)
@pytest.mark.parametrize("depth", sorted({quadrature.OFF_SPINE_DEPTH, 3}))
def test_off_spine_depth_keeps_the_oracle_value_and_calls(spec, depth, monkeypatch):
    # each repr-check integral, at the module's depth below off-spine panels
    # and one level deeper: the depth-first value bit for bit, in no more
    # integrand calls than halves and quarters (depth 2) take
    f = parse_f_spec(spec)
    calls = [0]

    def counting(t):
        calls[0] += 1
        return f.measure_density(t)

    counted = dataclasses.replace(f, measure_density=counting)

    def integrals():
        out = []
        for x in (1e-3, 0.5, 30.0, 900.0, None):
            calls[0] = 0
            value = (normalization_residual(counted) if x is None
                     else eval_via_representation(counted, x))
            out.append((value, calls[0]))
        return out

    monkeypatch.setattr(quadrature, "OFF_SPINE_DEPTH", 2)
    halves_and_quarters = integrals()
    monkeypatch.setattr(quadrature, "OFF_SPINE_DEPTH", depth)
    rounds = integrals()
    monkeypatch.setattr(functions, "integrate_halfline", serial_quadrature.integrate_halfline)
    oracle = integrals()
    for (value, used), (_, baseline), (expected, _) in zip(rounds, halves_and_quarters, oracle):
        assert value == expected
        assert used <= baseline


def _inverse_sqrt_generator():
    # w(t) = c t^(-1/2) integrates to f(x) = c pi (x^(-1/2) - 1).
    c = 0.3
    return make_custom(
        "inverse-sqrt", lambda x: c * math.pi * (np.power(x, -0.5) - 1.0), 0.0,
        lambda t: c * np.power(t, -0.5), -0.5 * c * math.pi, 0.75 * c * math.pi,
        value_at_zero=math.inf)


def test_make_custom_singular_density_equals_depth_first_oracle(monkeypatch):
    spots = (0.05, 0.5, 2.0, 40.0)
    f = _inverse_sqrt_generator()
    pinned = [f.b] + [eval_via_representation(f, x) for x in spots]
    monkeypatch.setattr(functions, "integrate_halfline", serial_quadrature.integrate_halfline)
    f = _inverse_sqrt_generator()
    assert pinned == [f.b] + [eval_via_representation(f, x) for x in spots]


def test_inverse_sqrt_generator_is_infinite_off_support():
    # rho puts mass on sigma's kernel and f(x) = 0.3 pi (x^-1/2 - 1) blows up
    # at 0+, so the divergence is +inf, as neg-log's is; eval at a tiny x
    # (9.4e14 at 1e-30) would make it a large finite number instead
    pair = state_pair(np.diag([0.5, 0.5]).astype(complex), np.diag([1.0, 0.0]).astype(complex))
    assert quasi_entropy_spectral(pair, neg_log()).value == math.inf
    assert quasi_entropy_spectral(pair, _inverse_sqrt_generator()).value == math.inf
