"""Bound formulas on worked pairs, guard continuity, sandwich assembly."""

import dataclasses
import math

import numpy as np
import pytest

from quasirel import (
    ae11_upper,
    builtin_suite,
    default_rng,
    example_pair,
    general_sqrt_d_upper,
    guarded_log_diff_quot,
    guarded_power_diff_quot,
    neg_log,
    neg_power,
    qubit_classical_upper,
    qubit_relative_upper,
    random_classical_pair,
    random_pair,
    relative_entropy_upper,
    sandwich,
    summarize,
    tsallis_bounds,
    tsallis_f,
    umegaki,
)
from quasirel import bounds
from quasirel.bounds import (
    COMMUTING_TOL,
    _bracket_core,
    bound_reports,
    sandwich_batch,
    violated,
)
from quasirel.states import pair_batch, state_pair

PAIR = state_pair(np.diag([0.5, 0.5]), np.diag([0.75, 0.25]))
S = summarize(PAIR)


def _by_name(reports):
    return {r.bound_name: r for r in reports}


def test_qubit_classical_upper_worked_value():
    rep = qubit_classical_upper(S, neg_log())
    # 0.5 * [-log(1/2)] / (1 - 1/2) = log 2
    assert rep.value == pytest.approx(math.log(2.0), rel=1e-12)
    assert rep.applicable
    assert rep.value >= umegaki(PAIR).value


def test_qubit_classical_upper_on_neg_power():
    rep = qubit_classical_upper(S, neg_power(0.5))
    assert rep.value > 0


def test_qubit_classical_gated_off_in_higher_dim():
    rng = default_rng(41)
    rep = qubit_classical_upper(summarize(random_pair(3, rng)), neg_log())
    assert not rep.applicable
    assert "commuting" in rep.reason


def test_pinsker_lower_orientation():
    rep = bound_reports(S, neg_log(), divergence=umegaki(PAIR).value)[0]
    assert rep.bound_name == "pinsker_lower"
    assert rep.is_lower
    assert rep.value == pytest.approx(0.125, rel=1e-12)  # 0.5 * 1 * 0.5^2
    # slack = divergence - bound for lower bounds
    assert rep.slack == pytest.approx(0.5 * math.log(4.0 / 3.0) - 0.125, rel=1e-9)
    assert rep.slack > 0


def test_sqrt_d_upper_worked_value():
    rep = general_sqrt_d_upper(S, neg_log())
    assert rep.value == pytest.approx(math.sqrt(2.0) * math.log(2.0), rel=1e-12)


def test_relative_entropy_pair_worked_values():
    tight, loose = relative_entropy_upper(S)
    assert tight.bound_name == "relative_entropy_tight_upper"
    # 0.5 * 0.5 * (log .5 - log .25)/(0.5 - 0.25) = log 2
    assert tight.value == pytest.approx(math.log(2.0), rel=1e-12)
    assert loose.value == pytest.approx(1.0, rel=1e-12)
    assert tight.value <= loose.value


def test_ae11_exact_on_flat_qubit():
    # here (alpha_sigma + T) = alpha_rho = 1/2 and the bound collapses to the
    # divergence itself
    rep = ae11_upper(S)
    assert rep.bound_name == "ae11_upper"
    assert rep.value == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-12)
    base2 = ae11_upper(S, base="2")
    assert base2.bound_name == "ae11_upper_base2"
    assert base2.value == pytest.approx(rep.value / math.log(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        ae11_upper(S, base="10")


def test_qubit_relative_worked_values():
    tight, loose = qubit_relative_upper(S)
    assert tight.value == pytest.approx(math.log(2.0), rel=1e-12)
    assert loose.value == pytest.approx(1.0, rel=1e-12)
    rng = default_rng(42)
    for rep in qubit_relative_upper(summarize(random_pair(3, rng))):
        assert not rep.applicable


def test_tsallis_small_q_worked_values():
    reps = _by_name(tsallis_bounds(S, 0.5))
    assert reps["tsallis_prior_upper"].value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert reps["tsallis_tight_upper"].value == pytest.approx(
        2.0 - math.sqrt(2.0), rel=1e-12
    )
    assert reps["tsallis_loose_upper"].value == pytest.approx(
        math.sqrt(2.0) / 2.0, rel=1e-12
    )
    assert reps["tsallis_tight_upper"].value <= reps["tsallis_prior_upper"].value
    assert reps["tsallis_qubit_tight_upper"].applicable
    assert reps["tsallis_qubit_loose_upper"].applicable


def test_tsallis_large_q_worked_values():
    reps = _by_name(tsallis_bounds(S, 1.5))
    # ceil coefficient (2-1)/(1.5-1) = 2, joint peak 0.75 against alpha_sigma
    assert reps["tsallis_ceil_upper"].value == pytest.approx(
        2.0 * math.sqrt(3.0) * 0.5, rel=1e-12
    )
    prior = reps["tsallis_prior_upper"]
    improved = reps["tsallis_improved_upper"]
    assert improved.value == prior.value * 0.5  # exactly, by construction
    assert improved.value <= prior.value


def test_tsallis_q2_boundary_positive():
    reps = _by_name(tsallis_bounds(S, 2.0))
    for rep in reps.values():
        assert rep.value > 0.0, rep.bound_name


def test_tsallis_invalid_q_single_inapplicable_report():
    for bad in (0.0, 1.0, 2.5):
        reps = tsallis_bounds(S, bad)
        assert len(reps) == 1
        assert reps[0].bound_name == "tsallis_bounds"
        assert not reps[0].applicable
        assert math.isnan(reps[0].value)


def test_guard_continuity_at_small_gap():
    # both branches should agree where the gap is small but above the guard
    x, y = 1.0, 1.0 + 1e-6
    assert guarded_log_diff_quot(x, y) == pytest.approx(2.0 / (x + y), rel=1e-5)
    for q in (0.3, 0.7):
        limit = (1.0 - q) * (0.5 * (x + y)) ** (-q)
        assert guarded_power_diff_quot(x, y, q) == pytest.approx(limit, rel=1e-5)
    # under the guard the limit branch is returned exactly
    assert guarded_log_diff_quot(1.0, 1.0 + 1e-9) == 2.0 / (2.0 + 1e-9)


def test_bracket_core_guard_continuity():
    third = 1.0 / 3.0
    rho = np.diag([third + 1e-6, third, third - 1e-6])
    sigma = np.eye(3) / 3.0
    s = summarize(state_pair(rho, sigma))
    assert s.lambda_rho - s.alpha_sigma == pytest.approx(1e-6, rel=1e-6)
    core = _bracket_core(s, neg_log())
    assert core == pytest.approx(-neg_log().d1_at_1, rel=1e-5)


def test_with_divergence_skips_infinities():
    for rep in bound_reports(S, neg_log(), divergence=math.inf):
        assert math.isnan(rep.slack)  # no slack against an infinity


def test_sandwich_requires_exactly_one_generator():
    with pytest.raises(ValueError):
        sandwich(PAIR)
    with pytest.raises(ValueError):
        sandwich(PAIR, f=neg_log(), q=0.5)


def test_sandwich_neg_log_report_set():
    swr = sandwich(PAIR, f=neg_log())
    names = {r.bound_name for r in swr.reports}
    assert names == {
        "pinsker_lower",
        "qubit_classical_upper",
        "sqrt_d_upper",
        "relative_entropy_tight_upper",
        "relative_entropy_loose_upper",
        "ae11_upper",
        "qubit_relative_tight_upper",
        "qubit_relative_loose_upper",
    }
    assert not swr.vacuous
    assert swr.violations == []
    for rep in swr.reports:
        if rep.applicable:
            assert rep.slack is not None
            assert rep.slack >= -1e-10


def test_sandwich_tsallis_report_set():
    swr = sandwich(PAIR, q=1.5)
    names = {r.bound_name for r in swr.reports}
    assert "tsallis_ceil_upper" in names
    assert "tsallis_improved_upper" in names
    assert "relative_entropy_tight_upper" not in names
    assert swr.violations == []


def test_sandwich_vacuous_on_support_violation():
    swr = sandwich(example_pair(4), f=neg_log())
    assert swr.vacuous
    assert swr.violations == []
    for rep in swr.reports:
        assert rep.slack is None  # nothing checkable against an infinity


def test_sandwich_random_pairs_no_violations():
    rng = default_rng(43)
    for _ in range(25):
        pair = random_pair(int(rng.integers(2, 6)), rng)
        for kwargs in ({"f": neg_log()}, {"q": 0.3}, {"q": 1.5}):
            assert sandwich(pair, **kwargs).violations == []


def test_sandwich_is_index_n_of_sandwich_batch():
    # one batch per dimension mixes random and classical pairs, plus the
    # qubit PAIR at d = 2 and example_pair(4), whose divergence is infinite
    rng = default_rng(44)
    calls = [{"f": f} for f in builtin_suite()] + [{"q": q} for q in (0.3, 1.5, 2.0)]
    seen = {"infinite": 0, "inapplicable": 0}
    for dim in range(2, 9):
        pairs = [random_pair(dim, rng), random_pair(dim, rng),
                 random_classical_pair(dim, rng), random_classical_pair(dim, rng)]
        pairs += {2: [PAIR], 4: [example_pair(4)]}.get(dim, [])
        batch = pair_batch(np.concatenate([p.rho for p in pairs]),
                           np.concatenate([p.sigma for p in pairs]))
        for kwargs in calls:
            gen, divergence, columns = sandwich_batch(batch, **kwargs)
            for n, pair in enumerate(pairs):
                swr = sandwich(pair, **kwargs)
                assert swr.divergence.value == divergence[n]
                assert swr.divergence.f_name == gen.name
                assert swr.vacuous == (not math.isfinite(divergence[n]))
                assert [r.bound_name for r in swr.reports] == [c.bound_name for c in columns]
                for rep, col in zip(swr.reports, columns):
                    assert rep.value == col.value[n]
                    assert rep.applicable == col.applicable[n]
                    assert rep.reason == ("" if rep.applicable else col.reason)
                    assert rep.is_lower == col.is_lower
                    if rep.slack is None:
                        assert math.isnan(col.slack[n])
                    else:
                        assert rep.slack == col.slack[n]
                assert swr.violations == [c.bound_name for c in columns
                                          if violated(c.applicable, c.slack)[n]]
                seen["infinite"] += swr.vacuous
                seen["inapplicable"] += sum(not r.applicable for r in swr.reports)
    assert seen["infinite"] and seen["inapplicable"]


@pytest.mark.parametrize("scale, applicable", [(0.9, True), (1.1, False)])
def test_commuting_tolerance_both_sides(scale, applicable):
    # a d = 3 pair counts as commuting below COMMUTING_TOL, and only then
    # gets the qubit/commuting bound
    summary = dataclasses.replace(summarize(random_pair(3, default_rng(71))),
                                  commutator_norm=scale * COMMUTING_TOL)
    assert qubit_classical_upper(summary, neg_log()).applicable is applicable


def test_bracket_core_once_per_route(monkeypatch):
    # the qubit-classical and sqrt(d) bounds share one bracket per route,
    # and keep the values the standalone formulas give
    rng = default_rng(45)
    pairs = [random_pair(3, rng), random_classical_pair(3, rng)]
    batch = pair_batch(np.concatenate([p.rho for p in pairs]),
                       np.concatenate([p.sigma for p in pairs]))
    calls = []
    monkeypatch.setattr(bounds, "_bracket_core",
                        lambda summary, f: calls.append(f.name) or _bracket_core(summary, f))
    routes = [{"f": f} for f in builtin_suite()] + [{"q": 0.3}, {"q": 1.5}]
    for kwargs in routes:
        calls.clear()
        gen, _, columns = sandwich_batch(batch, **kwargs)
        assert calls == [gen.name]
        by_name = _by_name(columns)
        for formula, name in ((qubit_classical_upper, "qubit_classical_upper"),
                              (general_sqrt_d_upper, "sqrt_d_upper")):
            assert list(formula(batch.summary, gen).value) == list(by_name[name].value)


def test_sandwich_batch_reuses_the_tsallis_descriptor():
    batch = random_pair(3, default_rng(46))
    for q in (0.3, 1.5):
        gens = [sandwich_batch(batch, q=q)[0] for _ in range(3)]
        assert gens[0] is gens[1] is gens[2] is tsallis_f(q)
