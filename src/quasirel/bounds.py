"""Trace-distance continuity bounds on quasi-relative entropies.

Every formula consumes a ScalarSummary (extreme eigenvalues, trace distance,
commutator norm) and returns BoundReports. Inapplicable inputs produce
applicable=False reports with a reason, never a silent number. The formulas
are one body of numpy code: on a PairBatch's summary columns every value is
a column with one entry per pair, and on summarize's numbers it is a number.
Both run the same numpy ufuncs, so a number has the bits of its column entry.
The dimension is a column like the rest, so one pass covers pairs of
several dimensions. bound_reports lays a route's reports out as one
BoundTable, a row per bound and a column per pair, and sets every slack in
it at once. sandwich_batch, the one driver of sandwich, the bounds command
and the sweep, runs every (f, q) route of one or more batches over their
summary columns joined once; sandwich reads column 0 for a batch of one.

sqrt_d_upper and the two qubit_relative rows have no function of their
own: they reach a caller as rows of bound_reports' table.
qubit_relative_tight_upper and tsallis_qubit_tight_upper are the bracket
bound (a = 0) under a qubit gate and take qubit_classical_upper's value.
The bracket and the quotients of relative_entropy_tight_upper and the q < 1
tsallis_tight_upper are 0/0 where their eigenvalues meet; below a gap of
1e-8 each takes its limit: the bracket -f'(1), exact at lambda_rho =
alpha_sigma, and the two quotients the derivative at the arithmetic midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .divergences import (
    DivergenceResult,
    spectral_values,
    tsallis_values,
)
from .functions import OMDFunction, tsallis_f
from .states import PairBatch, ScalarSummary, _single, joined_summary

COMMUTING_TOL = 1e-10
DIVIDED_DIFF_GAP = 1e-8
SLACK_FLOOR = -1e-10


class BoundReport(NamedTuple):
    """One bound evaluation; the generator and order it belongs to are the caller's.

    A formula's report holds its value as a number for a summary of numbers
    and as a column for a batch's summary columns. ``applicable`` is the
    formula's gate, True for a bound that always applies, and ``reason``
    says why the pairs with applicable False are excluded. It has no slack.

    sandwich's reports are one pair's numbers with the slack BoundTable
    gives it, None where that is NaN, and reason empty where the bound
    applies.
    """

    bound_name: str
    value: float
    applicable: bool = True
    reason: str = ""
    is_lower: bool = False
    slack: Optional[float] = None


class BoundTable(NamedTuple):
    """Every bound of one route, a row each: names, reasons and orientations
    as tuples, value, applicable and slack as arrays of (bounds x pairs).

    ``slack`` is the signed margin by which the bound holds against the
    divergence: bound - divergence for upper bounds, divergence - bound for
    lower bounds, so a sound bound always has slack >= -1e-10 regardless of
    orientation. It is NaN where either side is infinite.
    """

    bound_names: tuple
    reasons: tuple
    is_lower: tuple
    value: np.ndarray
    applicable: np.ndarray
    slack: np.ndarray


def _guarded(gap, limit, numerator, denominator):
    """numerator/denominator, or its limit where |gap| is under the guard.

    Under the guard the quotient degenerates to 0/0, so the denominator is
    replaced there and no division by zero happens at all.
    """
    small = np.abs(gap) < DIVIDED_DIFF_GAP
    return np.where(small, limit, numerator / np.where(small, 1.0, denominator))[()]


def guarded_log_diff_quot(x, y):
    """(log x - log y)/(x - y), with the 1/midpoint limit under the gap guard."""
    gap = x - y
    return _guarded(gap, 2.0 / (x + y), np.log(x) - np.log(y), gap)


def guarded_power_diff_quot(x, y, q: float):
    """(x^(1-q) - y^(1-q))/(x - y), limit (1-q) c^(-q) at the midpoint."""
    gap = x - y
    s = 1.0 - q
    limit = (1.0 - q) * np.power(0.5 * (x + y), -q)
    return _guarded(gap, limit, np.power(x, s) - np.power(y, s), gap)


def _bracket_core(summary: ScalarSummary, f: OMDFunction):
    """lambda_rho/(lambda_rho - alpha_sigma) * f(alpha_sigma/lambda_rho).

    Tends to -f'(1) as alpha_sigma -> lambda_rho; guarded accordingly.
    """
    lam, alph = summary.lambda_rho, summary.alpha_sigma
    x = alph / lam
    return _guarded(lam - alph, -f.d1_at_1, f.eval(x), 1.0 - x)


def pinsker_lower(summary: ScalarSummary, f: OMDFunction) -> BoundReport:
    """Lower bound f''(1)/2 * ||rho - sigma||_1^2."""
    value = 0.5 * f.d2_at_1 * np.square(summary.trace_distance_1)
    return BoundReport("pinsker_lower", value, is_lower=True)


def _bracket_uppers(summary: ScalarSummary, f: OMDFunction) -> list[BoundReport]:
    """qubit_classical_upper and the dimension-penalized sqrt_d_upper, sqrt(d)
    times the bracket form, from one bracket."""
    bracket = _bracket_core(summary, f) - f.a
    applicable = (summary.dim == 2) | (summary.commutator_norm < COMMUTING_TOL)
    dist = summary.trace_distance_1
    return [BoundReport("qubit_classical_upper", dist * bracket, applicable,
                        "requires a qubit or commuting pair"),
            BoundReport("sqrt_d_upper", np.sqrt(summary.dim) * dist * bracket)]


def qubit_classical_upper(summary: ScalarSummary, f: OMDFunction) -> BoundReport:
    """Upper bound for qubit or commuting pairs.

    ||rho - sigma||_1 [lambda_rho/(lambda_rho - alpha_sigma)
    f(alpha_sigma/lambda_rho) - a].
    """
    return _bracket_uppers(summary, f)[0]


def relative_entropy_upper(summary: ScalarSummary) -> list[BoundReport]:
    """Tight and loose upper bounds on the relative entropy (natural log).

    Tight: ||rho-sigma||_1 lambda_rho (log a_r - log a_s)/(a_r - a_s);
    loose: ||rho-sigma||_1 lambda_rho / alpha. Tight <= loose always.
    """
    dist_lam = summary.trace_distance_1 * summary.lambda_rho
    tight = dist_lam * guarded_log_diff_quot(summary.alpha_rho, summary.alpha_sigma)
    loose = dist_lam / summary.alpha
    return [
        BoundReport("relative_entropy_tight_upper", tight),
        BoundReport("relative_entropy_loose_upper", loose),
    ]


def ae11_upper(summary: ScalarSummary, base: str = "e") -> BoundReport:
    """The known logarithmic upper bound on relative entropy.

    (alpha_sigma + T) log(1 + T/alpha_sigma) - alpha_rho log(1 + T/alpha_rho)
    with T half the trace distance. ``base`` selects the logarithm ("e" or
    "2") because the source comparison is ambiguous about it; computation is
    natural-log with a final rescale.
    """
    if base not in ("e", "2"):
        raise ValueError(f"base must be 'e' or '2', got {base!r}")
    t = summary.T
    value = ((summary.alpha_sigma + t) * np.log1p(t / summary.alpha_sigma)
             - summary.alpha_rho * np.log1p(t / summary.alpha_rho))
    if base == "2":
        value = value / math.log(2.0)
    name = "ae11_upper" if base == "e" else "ae11_upper_base2"
    return BoundReport(name, value)


def tsallis_bounds(summary: ScalarSummary, q: float) -> list[BoundReport]:
    """Every Tsallis-order bound applicable at this q, one report each.

    q in (1, 2]: the ceil-q bound (joint largest eigenvalue over both
    spectra), the prior 1/(q-1) bound, and its improved form, smaller by
    exactly the factor q-1. q in (0, 1): the prior 1/(1-q) bound, the
    divided-difference tight bound, and its loose companion. Qubit pairs
    additionally get a dedicated tight/loose pair at any valid q; the tight
    one is tsallis_f(q)'s bracket bound, with qubit_classical_upper's value.
    tsallis_f(q) raises ValueError for an order outside (0, 2] excluding 1.
    """
    return _tsallis_rows(summary, q, qubit_classical_upper(summary, tsallis_f(q)).value)


def _tsallis_rows(summary: ScalarSummary, q: float, bracket_bound) -> list[BoundReport]:
    dist, alpha, alph_s = summary.trace_distance_1, summary.alpha, summary.alpha_sigma
    dist_lam_q = dist * np.power(summary.lambda_rho, q)
    qubit_loose = dist_lam_q / np.power(alph_s, q)  # for q < 1, (1-q) times the prior
    if q > 1.0:
        lam_joint = np.maximum(summary.lambda_rho, summary.lambda_sigma)
        ceil = (math.ceil(q) - 1.0) / (q - 1.0) * np.power(lam_joint / alph_s, q - 1.0) * dist
        prior = dist_lam_q / np.power(alpha, q) / (q - 1.0)
        values = [("tsallis_ceil_upper", ceil),
                  ("tsallis_prior_upper", prior),
                  ("tsallis_improved_upper", prior * (q - 1.0))]
    else:
        diff_quot = guarded_power_diff_quot(summary.alpha_rho, alph_s, q)
        values = [("tsallis_prior_upper", qubit_loose / (1.0 - q)),
                  ("tsallis_tight_upper", dist_lam_q * diff_quot / (1.0 - q)),
                  ("tsallis_loose_upper", dist_lam_q / np.power(alpha, q))]
    applicable, reason = summary.dim == 2, "requires a qubit pair"
    return [*(BoundReport(name, value) for name, value in values),
            BoundReport("tsallis_qubit_tight_upper", bracket_bound, applicable, reason),
            BoundReport("tsallis_qubit_loose_upper", qubit_loose, applicable, reason)]


def bound_reports(summary: ScalarSummary, gen: OMDFunction, divergence,
                  q: Optional[float] = None, ae11_base: str = "e") -> BoundTable:
    """The table of every bound that attaches to generator ``gen``, with its
    slack against ``divergence``: a column per pair over a batch's summary,
    one-dimensional rows over summarize's numbers.

    The relative-entropy-specific bounds attach only to neg-log; a Tsallis
    order ``q``, with ``gen`` its generator tsallis_f(q), additionally attaches
    the Tsallis-specific bounds. Every slack is set in one operation over the table.
    """
    reports = [pinsker_lower(summary, gen), *_bracket_uppers(summary, gen)]
    bracket_bound = reports[1].value  # qubit_classical_upper's
    if gen.name == "neg-log":
        applicable, reason = summary.dim == 2, "requires a qubit pair"
        loose = summary.trace_distance_1 * summary.lambda_rho / summary.alpha_sigma
        reports.extend(relative_entropy_upper(summary))
        reports.extend([ae11_upper(summary, ae11_base),
                        BoundReport("qubit_relative_tight_upper", bracket_bound, applicable,
                                    reason),
                        BoundReport("qubit_relative_loose_upper", loose, applicable, reason)])
    if q is not None:
        reports.extend(_tsallis_rows(summary, q, bracket_bound))
    names, values, gates, reasons, lower, _ = zip(*reports)
    values = np.array(values)
    applicable = np.empty(values.shape, bool)
    for row, ok in enumerate(gates):
        applicable[row] = ok
    with np.errstate(invalid="ignore"):  # inf - inf, masked below
        # transposed, so that the row's orientation broadcasts over its pairs
        margin = np.where(lower, (divergence - values).T, (values - divergence).T).T
    slack = np.where(np.isfinite(divergence) & np.isfinite(values), margin, np.nan)
    return BoundTable(names, reasons, lower, values, applicable, slack)


def violated(applicable, slack):
    """Where a bound fails: applicable, with slack below SLACK_FLOOR.

    Takes a bound's applicable and slack as numbers, or a table's arrays.
    """
    return applicable & (slack < SLACK_FLOOR)


def sandwich_batch(batches: list, routes: list, ae11_base: str = "e") -> list:
    """Each route's divergence column and bound table over the pairs of
    ``batches``, of any dimensions, end to end in batch order.

    ``routes`` lists (f, q) choices, each with exactly one of ``f``, by the
    spectral route, and ``q``, the Tsallis generator of that order by the
    direct one. A Tsallis order q additionally attaches the Tsallis-specific
    bounds; the relative-entropy-specific bounds attach only to neg-log.
    The batches' summary columns are joined once, and each route's bounds
    run once over them. Returns (generator, q, divergences, bound table)
    per route.
    """
    summary, results = joined_summary(batches), []
    for f, q in routes:
        if (f is None) == (q is None):
            raise ValueError("pass exactly one of f or q")
        if f is None:
            f, divergence = tsallis_f(q), [tsallis_values(batch, q) for batch in batches]
        else:
            divergence = [spectral_values(batch, f) for batch in batches]
        divergence = np.concatenate(divergence)
        results.append((f, q, divergence, bound_reports(summary, f, divergence, q, ae11_base)))
    return results


@dataclass(frozen=True)
class SandwichReport:
    divergence: DivergenceResult  # +inf leaves every slack None
    reports: list
    violations: list


def sandwich(pair: PairBatch, f: Optional[OMDFunction] = None,
             q: Optional[float] = None) -> SandwichReport:
    """Divergence plus every applicable bound, with signed slacks.

    The view of sandwich_batch's one route (f, q) at column 0 for a batch
    of one, read as numbers; see sandwich_batch for the bounds that attach.
    Its AE11 row takes the natural log; sandwich_batch takes the base.
    """
    ((_, _, divergence, table),) = sandwich_batch([_single(pair)], [(f, q)])
    result = DivergenceResult(float(divergence[0]))
    values, gates, slacks, bad = (column[:, 0].tolist() for column in (
        table.value, table.applicable, table.slack, violated(table.applicable, table.slack)))
    reports = [BoundReport(name, value, ok, "" if ok else reason, lower,
                           None if math.isnan(slack) else slack)
               for name, value, ok, reason, lower, slack
               in zip(table.bound_names, values, gates, table.reasons, table.is_lower, slacks)]
    violations = [name for name, flagged in zip(table.bound_names, bad) if flagged]
    return SandwichReport(result, reports, violations)
