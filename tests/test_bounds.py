"""Bound formulas on worked pairs, guard continuity, sandwich assembly."""

import dataclasses
import math

import numpy as np
import pytest

from quasirel import (
    ae11_upper,
    builtin_suite,
    guarded_log_diff_quot,
    guarded_power_diff_quot,
    neg_log,
    neg_power,
    qubit_classical_upper,
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
    DIVIDED_DIFF_GAP,
    SLACK_FLOOR,
    BoundTable,
    _bracket_core,
    bound_reports,
    sandwich_batch,
    violated,
)
from quasirel.states import (example_pair, joined_summary, pair_batch, random_pairs, state_pair,
                             trial_streams)
from quasirel.sweeps import render_columns, trial_batch, trial_key, trial_pair

PAIR = state_pair(np.diag([0.5, 0.5]), np.diag([0.75, 0.25]))
S = summarize(PAIR)


def _by_name(reports):
    return {r.bound_name: r for r in reports}


def _rows(summary, gen=None):
    """bound_reports' rows for ``gen`` (default neg-log) by name, as reports
    without slack: numbers over summarize's numbers, columns over a batch's."""
    table = bound_reports(summary, gen or neg_log(), 0.0)
    return {name: bounds.BoundReport(name, value, ok)
            for name, value, ok in zip(table.bound_names, table.value, table.applicable)}


def _qubit_relative_rows(summary):
    return [rep for name, rep in _rows(summary).items() if name.startswith("qubit_relative")]


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
    rep = qubit_classical_upper(summarize(random_pairs(3, trial_streams([41]))), neg_log())
    assert not rep.applicable
    assert "commuting" in rep.reason


def test_pinsker_lower_orientation():
    table = bound_reports(S, neg_log(), divergence=umegaki(PAIR).value)
    assert table.bound_names[0] == "pinsker_lower"
    assert table.is_lower[0]
    assert table.value[0] == pytest.approx(0.125, rel=1e-12)  # 0.5 * 1 * 0.5^2
    # slack = divergence - bound for lower bounds
    assert table.slack[0] == pytest.approx(0.5 * math.log(4.0 / 3.0) - 0.125, rel=1e-9)
    assert table.slack[0] > 0


def test_sqrt_d_upper_worked_value():
    rep = _rows(S)["sqrt_d_upper"]
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
    tight, loose = _qubit_relative_rows(S)
    assert tight.bound_name == "qubit_relative_tight_upper"
    assert tight.value == pytest.approx(math.log(2.0), rel=1e-12)
    assert loose.value == pytest.approx(1.0, rel=1e-12)
    assert tight.applicable and loose.applicable
    for rep in _qubit_relative_rows(summarize(random_pairs(3, trial_streams([42])))):
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


def test_tsallis_invalid_q_raises():
    # tsallis_f's error, the one every entry point gives; q = 2 is a valid order
    for bad in (0.0, 1.0, 2.5):
        with pytest.raises(ValueError, match="q must lie in"):
            tsallis_bounds(S, bad)
    assert [rep.bound_name for rep in tsallis_bounds(S, 2.0)] == [
        "tsallis_ceil_upper", "tsallis_prior_upper", "tsallis_improved_upper",
        "tsallis_qubit_tight_upper", "tsallis_qubit_loose_upper"]


def test_guard_continuity_at_small_gap():
    # both branches should agree where the gap is small but above the guard
    x, y = 1.0, 1.0 + 1e-6
    assert guarded_log_diff_quot(x, y) == pytest.approx(2.0 / (x + y), rel=1e-5)
    for q in (0.3, 0.7):
        limit = (1.0 - q) * (0.5 * (x + y)) ** (-q)
        assert guarded_power_diff_quot(x, y, q) == pytest.approx(limit, rel=1e-5)
    # under the guard the limit branch is returned exactly
    assert guarded_log_diff_quot(1.0, 1.0 + 1e-9) == 2.0 / (2.0 + 1e-9)
    # on either side of DIVIDED_DIFF_GAP each quotient returns the bits of
    # its limit (under) or of the plain quotient expression (over)
    x = 0.5
    for scale in (0.9, 1.1):
        y = x + scale * DIVIDED_DIFF_GAP
        cases = [(guarded_log_diff_quot(x, y), 2.0 / (x + y), (np.log(x) - np.log(y)) / (x - y))]
        for q in (0.3, 1.5):
            s = 1.0 - q
            cases.append((guarded_power_diff_quot(x, y, q), s * np.power(0.5 * (x + y), -q),
                          (np.power(x, s) - np.power(y, s)) / (x - y)))
        for value, limit, quotient in cases:
            assert limit != quotient
            assert value == (limit if scale < 1.0 else quotient)


def test_bracket_core_guard_continuity():
    third = 1.0 / 3.0
    rho = np.diag([third + 1e-6, third, third - 1e-6])
    sigma = np.eye(3) / 3.0
    s = summarize(state_pair(rho, sigma))
    assert s.lambda_rho - s.alpha_sigma == pytest.approx(1e-6, rel=1e-6)
    core = _bracket_core(s, neg_log())
    assert core == pytest.approx(-neg_log().d1_at_1, rel=1e-5)
    # on either side of DIVIDED_DIFF_GAP, on a summary of numbers: the limit
    # -f'(1) under it, the plain quotient f(x)/(1 - x) over it
    for scale in (0.9, 1.1):
        s = dataclasses.replace(S, alpha_sigma=S.lambda_rho - scale * DIVIDED_DIFF_GAP)
        x = s.alpha_sigma / s.lambda_rho
        for f in builtin_suite():
            limit, quotient = -f.d1_at_1, f.eval(x) / (1.0 - x)
            assert limit != quotient
            assert _bracket_core(s, f) == (limit if scale < 1.0 else quotient)


def test_with_divergence_skips_infinities():
    for slack in bound_reports(S, neg_log(), divergence=math.inf).slack:
        assert math.isnan(slack)  # no slack against an infinity


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
    assert math.isfinite(swr.divergence.value)
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
    assert math.isinf(swr.divergence.value)
    assert swr.violations == []
    for rep in swr.reports:
        assert rep.slack is None  # nothing checkable against an infinity


def test_sandwich_random_pairs_no_violations():
    for trial in range(25):
        pair = trial_pair(43, 2 + trial % 4, trial)
        for kwargs in ({"f": neg_log()}, {"q": 0.3}, {"q": 1.5}):
            assert sandwich(pair, **kwargs).violations == []


def test_sandwich_is_index_n_of_sandwich_batch():
    # one batch per dimension mixes random and classical pairs, plus the
    # qubit PAIR at d = 2 and example_pair(4), whose divergence is infinite
    routes = [(f, None) for f in builtin_suite()] + [(None, q) for q in (0.3, 1.5, 2.0)]
    seen = {"infinite": 0, "inapplicable": 0}
    for dim in range(2, 9):
        pairs = [trial_pair(44, dim, trial, kind)
                 for trial, kind in enumerate(("random", "random", "classical", "classical"))]
        pairs += {2: [PAIR], 4: [example_pair(4)]}.get(dim, [])
        batch = pair_batch(np.concatenate([p.rho for p in pairs]),
                           np.concatenate([p.sigma for p in pairs]))
        for route in routes:
            ((gen, q, divergence, table),) = sandwich_batch([batch], [route])
            assert q == route[1]
            for n, pair in enumerate(pairs):
                swr = sandwich(pair, *route)
                assert swr.divergence.value == divergence[n]
                assert math.isinf(swr.divergence.value) == (not math.isfinite(divergence[n]))
                assert tuple(r.bound_name for r in swr.reports) == table.bound_names
                for row, rep in enumerate(swr.reports):
                    assert rep.value == table.value[row, n]
                    assert rep.applicable == table.applicable[row, n]
                    assert rep.reason == ("" if rep.applicable else table.reasons[row])
                    assert rep.is_lower == table.is_lower[row]
                    if rep.slack is None:
                        assert math.isnan(table.slack[row, n])
                    else:
                        assert rep.slack == table.slack[row, n]
                bad = violated(table.applicable, table.slack)[:, n]
                assert swr.violations == [name for name, flagged
                                          in zip(table.bound_names, bad) if flagged]
                seen["infinite"] += math.isinf(swr.divergence.value)
                seen["inapplicable"] += sum(not r.applicable for r in swr.reports)
    assert seen["infinite"] and seen["inapplicable"]


@pytest.mark.parametrize("scale, applicable", [(0.9, True), (1.1, False)])
def test_commuting_tolerance_both_sides(scale, applicable):
    # a d = 3 pair counts as commuting below COMMUTING_TOL, and only then
    # gets the qubit/commuting bound
    summary = dataclasses.replace(summarize(random_pairs(3, trial_streams([71]))),
                                  commutator_norm=scale * COMMUTING_TOL)
    assert qubit_classical_upper(summary, neg_log()).applicable is applicable


@pytest.mark.parametrize("scale, flagged", [(0.9, False), (1.1, True)])
def test_slack_floor_both_sides(scale, flagged):
    # an applicable slack is a violation only below the floor, for the rule
    # alone and for the rows a sweep renders
    slack = scale * SLACK_FLOOR
    assert violated(True, slack) is flagged
    table = BoundTable(("b",), ("",), (False,), np.array([[1.0]]), np.array([[True]]),
                       np.array([[slack]]))
    routes = [(neg_log(), None, np.array([1.0]), table)]
    text, rows, violations = render_columns([3], 5, ["t"], routes, "csv")
    assert rows == 1 and ("%.17g" % slack) in text
    assert violations == ([("b", slack)] if flagged else [])


def test_slack_floor_never_flags_inapplicable_or_missing_slack():
    assert violated(False, -1.0) is False
    assert violated(True, math.nan) is False
    np.testing.assert_array_equal(
        violated(np.array([False, True, True]), np.array([-1.0, math.nan, -1.0])),
        [False, False, True])


def test_bracket_core_once_per_route(monkeypatch):
    # the qubit-classical and sqrt(d) bounds, and the qubit tight rows, share
    # one bracket per route, and keep the values the standalone formulas give;
    # the only other quotients are relative_entropy_tight_upper's (neg-log)
    # and tsallis_tight_upper's (q < 1)
    pairs = [trial_pair(45, 3, 0), trial_pair(45, 3, 1, "classical")]
    batch = pair_batch(np.concatenate([p.rho for p in pairs]),
                       np.concatenate([p.sigma for p in pairs]))
    calls = []
    monkeypatch.setattr(bounds, "_bracket_core",
                        lambda summary, f: calls.append(f.name) or _bracket_core(summary, f))
    for name in ("guarded_log_diff_quot", "guarded_power_diff_quot"):
        monkeypatch.setattr(bounds, name, lambda *args, _name=name, _real=getattr(bounds, name):
                            calls.append(_name) or _real(*args))
    routes = [(f, None) for f in builtin_suite()] + [(None, q) for q in (0.3, 0.7, 1.5, 2.0)]
    for route in routes:
        calls.clear()
        ((gen, q, _, table),) = sandwich_batch([batch], [route])
        assert sorted(calls) == sorted(
            [gen.name] + ["guarded_log_diff_quot"] * (gen.name == "neg-log")
            + ["guarded_power_diff_quot"] * (q is not None and q < 1.0)), route
        by_name = dict(zip(table.bound_names, table.value))
        assert (list(qubit_classical_upper(batch.summary, gen).value)
                == list(by_name["qubit_classical_upper"]))
        assert list(_rows(batch.summary, gen)["sqrt_d_upper"].value) == list(
            by_name["sqrt_d_upper"])


def test_sandwich_batch_reuses_the_tsallis_descriptor():
    batch = random_pairs(3, trial_streams([46]))
    for q in (0.3, 1.5):
        gens = [sandwich_batch([batch], [(None, q)])[0][0] for _ in range(3)]
        assert gens[0] is gens[1] is gens[2] is tsallis_f(q)


@pytest.mark.parametrize("route", [(neg_log(), 0.3), (None, None)], ids=["both", "neither"])
def test_a_route_names_exactly_one_of_f_or_q(route):
    batch = random_pairs(3, trial_streams([47]))
    with pytest.raises(ValueError, match="pass exactly one of f or q"):
        sandwich(batch, *route)
    with pytest.raises(ValueError, match="pass exactly one of f or q"):
        sandwich_batch([batch], [(neg_log(), None), route])


_QUBIT_GATED = ("qubit_classical_upper", "qubit_relative_tight_upper",
                "qubit_relative_loose_upper", "tsallis_qubit_tight_upper",
                "tsallis_qubit_loose_upper")


@pytest.mark.parametrize("route", [(neg_log(), None), (None, 0.3), (None, 1.5)],
                         ids=["neg-log", "q0.3", "q1.5"])
def test_sandwich_batch_over_mixed_dimensions_is_exact(route):
    # one call over batches of d = 2, 3 and 5 gives every pair the bits it
    # gets in a call over its own batch
    parts = [trial_batch(dim, trial_streams([trial_key(17, dim, t) for t in range(n)]))
             for dim, n in ((2, 4), (3, 5), (5, 3))]
    dims = np.repeat([2, 3, 5], [4, 5, 3])
    ((gen, _, divergence, table),) = sandwich_batch(parts, [route])
    assert joined_summary(parts).dim.tolist() == dims.tolist()
    alone = [sandwich_batch([part], [route])[0] for part in parts]
    assert all(g is gen for g, _, _, _ in alone)
    assert divergence.tolist() == np.concatenate([d for _, _, d, _ in alone]).tolist()
    for row, name in enumerate(table.bound_names):
        own = [t for _, _, _, t in alone]
        assert [t.bound_names[row] for t in own] == [name] * 3
        assert table.value[row].tolist() == np.concatenate([t.value[row] for t in own]).tolist()
        assert table.applicable[row].tolist() == np.concatenate(
            [t.applicable[row] for t in own]).tolist()
        np.testing.assert_array_equal(table.slack[row],
                                      np.concatenate([t.slack[row] for t in own]))
        if name in _QUBIT_GATED:  # none of these random pairs commutes
            assert table.applicable[row].tolist() == (dims == 2).tolist()
    by_name = dict(zip(table.bound_names, table.value))
    ratio = by_name["sqrt_d_upper"] / by_name["qubit_classical_upper"]
    np.testing.assert_allclose(ratio, np.sqrt(dims), rtol=1e-15)
    assert {name for name in _QUBIT_GATED if name in by_name} == (
        {"qubit_classical_upper", "qubit_relative_tight_upper", "qubit_relative_loose_upper"}
        if route[0] is not None else
        {"qubit_classical_upper", "tsallis_qubit_tight_upper", "tsallis_qubit_loose_upper"})


def test_summarize_keeps_an_int_dim():
    # the column holds the dimension per pair; summarize reads it back as an
    # int, and the sqrt(d) bound on its numbers is the column's index 0
    for dim in range(2, 17):
        pair = trial_pair(3, dim, 0)
        s = summarize(pair)
        assert type(s.dim) is int and s.dim == dim
        assert pair.summary.dim.tolist() == [dim]
        for f in builtin_suite():
            number, column = (_rows(summary, f)["sqrt_d_upper"].value
                              for summary in (s, pair.summary))
            assert _same_bits(number, column[0])


def test_pinsker_squares_a_number_as_it_squares_a_column():
    # Python's ** on a float calls libm's pow, which (glibc 2.36) rounds the
    # square of this distance one bit away from numpy's square of a column
    dist = 0.8534422874604821
    number, column = (bounds.pinsker_lower(dataclasses.replace(S, trace_distance_1=t), neg_log())
                      for t in (dist, np.array([dist])))
    assert number.value == column.value[0]


_FORMULA_ORDERS = (0.1, 0.3, 0.5, 0.9, 1.1, 1.5, 2.0)


def _formula_reports(summary):
    """The report of every formula bound_reports attaches, each formula alone."""
    reports = []
    for f in builtin_suite():
        reports += [bounds.pinsker_lower(summary, f), *bounds._bracket_uppers(summary, f)]
    reports += [*relative_entropy_upper(summary), ae11_upper(summary, "e"),
                ae11_upper(summary, "2"), *_qubit_relative_rows(summary)]
    for q in _FORMULA_ORDERS:
        reports += tsallis_bounds(summary, q)
    return reports


def _same_bits(a, b) -> bool:
    a, b = np.float64(a), np.float64(b)
    return bool(np.isnan(a) and np.isnan(b)) or a.view(np.uint64) == b.view(np.uint64)


def test_formulas_give_summarize_numbers_the_bits_of_their_column():
    # the formulas are one body of numpy code: on summarize's numbers every
    # report has the bits of its pair's entry in the report over the batch
    checked = 0
    for dim in range(2, 7):
        pairs = [trial_pair(48, dim, trial, kind)
                 for kind in ("random", "classical") for trial in range(6)]
        pairs += [example_pair(dim)] if dim >= 3 else []
        batch = pair_batch(np.concatenate([p.rho for p in pairs]),
                           np.concatenate([p.sigma for p in pairs]))
        columns = _formula_reports(batch.summary)
        for n, pair in enumerate(pairs):
            for rep, col in zip(_formula_reports(summarize(pair)), columns, strict=True):
                assert rep.bound_name == col.bound_name
                assert _same_bits(rep.value, col.value[n]), (dim, n, rep.bound_name)
                assert rep.applicable == np.broadcast_to(col.applicable, len(pairs))[n]
                checked += 1
    assert checked == 64 * 53


@pytest.mark.parametrize("kind", ["random", "classical"])
def test_each_duplicate_row_has_its_source_bits(kind):
    # one quantity, one rounding: the qubit tight rows are the bracket bound
    # (a = 0 for every builtin) and carry qubit_classical_upper's value and
    # slack bits; for q < 1 the prior bound is the qubit loose row over 1 - q
    pairs = [trial_pair(49, dim, trial, kind) for dim in range(2, 7) for trial in range(6)]
    routes = [(neg_log(), None)] + [(None, q) for q in _FORMULA_ORDERS]
    for _, q, _, table in sandwich_batch(pairs, routes):
        row = {name: i for i, name in enumerate(table.bound_names)}
        tight = row["qubit_relative_tight_upper" if q is None else "tsallis_qubit_tight_upper"]
        source = row["qubit_classical_upper"]
        for column in (table.value, table.slack):
            assert column[tight].view(np.uint64).tolist() == column[source].view(np.uint64).tolist()
        if q is not None and q < 1.0:
            prior = table.value[row["tsallis_qubit_loose_upper"]] / (1.0 - q)
            assert (table.value[row["tsallis_prior_upper"]].view(np.uint64).tolist()
                    == prior.view(np.uint64).tolist())
        for n, pair in enumerate(pairs):
            alone = _qubit_relative_rows(summarize(pair)) if q is None else tsallis_bounds(
                summarize(pair), q)
            for rep in alone:
                assert _same_bits(rep.value, table.value[row[rep.bound_name], n]), (
                    q, n, rep.bound_name)
