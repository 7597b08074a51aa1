"""Generator descriptors: integral representation, duals, custom registration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirel import (
    builtin_suite,
    eval_via_representation,
    neg_log,
    neg_power,
    normalization_residual,
    parse_f_spec,
    tsallis_f,
)
from quasirel.functions import REPRESENTATION_RTOL, make_custom
from spectral_oracle import dual_function, monotonicity_spot_check

GRID = np.geomspace(1e-3, 1e3, 13)


def test_neg_log_fields():
    f = neg_log()
    assert f.a == 0.0
    assert f.b == 0.0
    assert f.shift == 0.0
    assert f.d1_at_1 == -1.0
    assert f.d2_at_1 == 1.0
    assert math.isinf(f.value_at_zero)
    assert f(1.0) == 0.0
    assert f(math.e) == pytest.approx(-1.0)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_neg_power_fields(p):
    f = neg_power(p)
    assert abs(f.b - math.cos(p * math.pi / 2.0)) < 1e-12
    assert f.shift == 1.0
    assert f.d1_at_1 == pytest.approx(-p)
    assert f.d2_at_1 == pytest.approx(p * (1.0 - p))
    assert f.value_at_zero == 1.0
    assert f(4.0) == pytest.approx(1.0 - 4.0 ** p)


@pytest.mark.parametrize("q", [0.3, 0.7, 1.5, 1.9])
def test_tsallis_fields(q):
    f = tsallis_f(q)
    r = 1.0 - q
    assert f.b == pytest.approx((math.cos(r * math.pi / 2.0) - 1.0) / r)
    assert f.d1_at_1 == pytest.approx(-1.0)
    assert f.d2_at_1 == pytest.approx(q)
    assert f(2.0) == pytest.approx((1.0 - 2.0 ** r) / r)
    if q < 1.0:
        assert f.value_at_zero == pytest.approx(1.0 / r)
    else:
        assert math.isinf(f.value_at_zero)


def test_parameter_domains():
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            neg_power(bad)
    for bad in (0.0, 1.0, 2.5, -1.0):
        with pytest.raises(ValueError):
            tsallis_f(bad)


def test_tsallis_boundary_q2_has_no_density():
    f = tsallis_f(2.0)
    assert f.measure_density is None
    assert f(2.0) == pytest.approx(-0.5)  # (1 - 2^r)/r with r = -1
    with pytest.raises(ValueError):
        eval_via_representation(f, 2.0)
    with pytest.raises(ValueError):
        normalization_residual(f)


def test_representation_round_trip_on_grid():
    for f in builtin_suite() + [neg_power(0.25), neg_power(0.75), tsallis_f(1.9)]:
        for x in GRID:
            direct = float(f(x))
            via = eval_via_representation(f, float(x))
            assert via == pytest.approx(direct, rel=1e-7, abs=1e-9), f.name


def test_normalization_residual_small():
    for f in builtin_suite():
        assert abs(normalization_residual(f)) < 1e-6, f.name


def test_dual_of_neg_log_is_x_log_x():
    g = dual_function(neg_log())
    for x in GRID:
        assert g(x) == pytest.approx(x * math.log(x), abs=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_dual_is_an_involution(x):
    f = neg_power(0.5)
    h = dual_function(dual_function(f))
    assert h(x) == pytest.approx(f(x), rel=1e-12, abs=1e-14)


def test_monotonicity_spot_check_passes_builtins():
    for f in (neg_log(), tsallis_f(0.3)):
        report = monotonicity_spot_check(f, dim=3, trials=40, seed=21)
        assert report.violations == []
        assert report.worst_min_eigenvalue > -1e-10


def test_monotonicity_spot_check_flags_square():
    # x^2 is increasing, not operator monotone decreasing
    square = lambda x: x * x  # noqa: E731
    report = monotonicity_spot_check(square, dim=3, trials=40, seed=22)
    assert report.violations


def test_monotonicity_spot_check_caps_dim():
    with pytest.raises(ValueError):
        monotonicity_spot_check(neg_log(), dim=9, trials=1, seed=0)


def test_make_custom_rebuilds_neg_power():
    p = 0.4
    coeff = math.sin(p * math.pi) / math.pi
    f = make_custom(
        "custom-power",
        lambda x: 1.0 - np.power(x, p),
        a=0.0,
        measure_density=lambda t: coeff * np.power(t, p),
        d1_at_1=-p,
        d2_at_1=p * (1.0 - p),
        value_at_zero=1.0,
        shift=1.0,
    )
    ref = neg_power(p)
    assert f.b == pytest.approx(ref.b, abs=1e-7)
    for x in (0.2, 3.0):
        assert eval_via_representation(f, x) == pytest.approx(float(ref(x)), rel=1e-7)


def test_make_custom_rejections():
    w = lambda t: np.ones_like(t)  # noqa: E731
    with pytest.raises(ValueError):
        make_custom("offset", lambda x: 1.0 - x + 0.5, 0.0, w, -1.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        make_custom("neg-a", lambda x: 1.0 - x, -1.0, w, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        make_custom(
            "neg-measure", lambda x: -np.log(x), 0.0,
            lambda t: -np.ones_like(t), -1.0, 1.0, math.inf,
        )
    with pytest.raises(ValueError):
        # density of the wrong size: representation cannot reproduce eval
        make_custom(
            "halved", lambda x: -np.log(x), 0.0,
            lambda t: 0.5 * np.ones_like(t), -1.0, 1.0, math.inf,
        )


def test_make_custom_rejects_non_finite_density():
    # NaN slips past the negativity check; it must not reach the quadrature
    with pytest.raises(ValueError, match="not finite"):
        make_custom(
            "nan-measure", lambda x: -np.log(x), 0.0,
            lambda t: np.where(t > 1e3, np.nan, 1.0), -1.0, 1.0, math.inf,
        )


@pytest.mark.parametrize("x", [math.nan, math.inf, 0.0])
def test_representation_rejects_non_finite_or_non_positive_x(x):
    with pytest.raises(ValueError, match="positive and finite"):
        eval_via_representation(neg_log(), x)


def test_parse_f_spec():
    assert parse_f_spec("neg-log").name == "neg-log"
    assert parse_f_spec("neg-power:p=0.5").name == neg_power(0.5).name
    assert parse_f_spec(" tsallis:q=1.5 ").name == tsallis_f(1.5).name
    for bad in ("sinh", "neg-power", "neg-power:q=0.5", "tsallis:p=1.5", "tsallis:q=zz"):
        with pytest.raises(ValueError):
            parse_f_spec(bad)


@pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
def test_representation_tolerance_both_sides(scale, accepted):
    # neg-log's density w = 1 scaled by 1 + e represents (1 + e)(-log x): its
    # relative round-trip error is e wherever |log x| >= 1, at x = 40 as well
    offset = scale * REPRESENTATION_RTOL

    def register():
        return make_custom("scaled-neg-log", lambda x: -np.log(x), 0.0,
                           lambda t: (1.0 + offset) * np.ones_like(t), -1.0, 1.0, math.inf)

    if not accepted:
        with pytest.raises(ValueError, match="representation disagrees"):
            register()
        return
    f = register()
    error = abs(eval_via_representation(f, 40.0) + math.log(40.0)) / math.log(40.0)
    assert error == pytest.approx(offset, rel=1e-6)
