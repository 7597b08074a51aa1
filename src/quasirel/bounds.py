"""Trace-distance continuity bounds on quasi-relative entropies.

Every formula consumes a ScalarSummary (extreme eigenvalues, trace distance,
commutator norm) and returns BoundReports. Inapplicable inputs produce
applicable=False reports with a reason, never a silent number. The formulas
are one body of numpy code: on a PairBatch's summary columns every value is
a column with one entry per pair, and on summarize's numbers it is a number.
bound_reports lays a route's reports out as columns and sets their slacks;
sandwich reads index 0 of them for a batch of one.

All the tight forms contain divided differences that degenerate to 0/0 when
the two eigenvalues coincide; those are guarded: below a gap of 1e-8 the
mean-value limit is substituted (continuous extension), evaluated at the
arithmetic midpoint.
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
from .functions import OMDFunction, is_tsallis_order, tsallis_f
from .states import PairBatch, ScalarSummary, _single

COMMUTING_TOL = 1e-10
DIVIDED_DIFF_GAP = 1e-8
SLACK_FLOOR = -1e-10


class BoundReport(NamedTuple):
    """One bound evaluation; the generator and order it belongs to are the caller's.

    A formula's report holds its value as a number for a summary of numbers
    and as a column for a batch's summary columns. ``applicable`` is the
    formula's gate, True for a bound that always applies, and ``reason``
    says why the pairs with applicable False are excluded. It has no slack.

    bound_reports gives value, applicable and slack one entry per pair.
    ``slack`` is the signed margin by which the bound holds against the
    divergence: bound - divergence for upper bounds, divergence - bound for
    lower bounds, so a sound report always has slack >= -1e-10 regardless
    of orientation. It is NaN where either side is infinite. sandwich's
    reports are one pair's numbers, with slack None where it is NaN and
    reason empty where the bound applies.
    """

    bound_name: str
    value: float
    applicable: bool = True
    reason: str = ""
    is_lower: bool = False
    slack: Optional[float] = None


# The bounds keep libm's rounding of log, log1p and pow: numpy's vectorized
# versions differ in the last bit on a few percent of inputs, and a slack far
# smaller than its bound turns that bit into a visible change. So these run
# math.log, math.log1p and pow on each entry as a Python float.
_LOG = np.frompyfunc(math.log, 1, 1)
_LOG1P = np.frompyfunc(math.log1p, 1, 1)
_POW = np.frompyfunc(pow, 2, 1)


def _libm(ufunc: np.ufunc, *args):
    """One of the libm ufuncs above as floats: a number for numbers, a column
    for columns ([()] reads a 0-d result as a number)."""
    return np.asarray(ufunc(*args), dtype=float)[()]


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
    return _guarded(gap, 2.0 / (x + y), _libm(_LOG, x) - _libm(_LOG, y), gap)


def guarded_power_diff_quot(x, y, q: float):
    """(x^(1-q) - y^(1-q))/(x - y), limit (1-q) c^(-q) at the midpoint."""
    gap = x - y
    s = 1.0 - q
    limit = (1.0 - q) * _libm(_POW, 0.5 * (x + y), -q)
    return _guarded(gap, limit, _libm(_POW, x, s) - _libm(_POW, y, s), gap)


def _bracket_core(summary: ScalarSummary, f: OMDFunction):
    """lambda_rho/(lambda_rho - alpha_sigma) * f(alpha_sigma/lambda_rho).

    Tends to -f'(1) as alpha_sigma -> lambda_rho; guarded accordingly.
    """
    lam, alph = summary.lambda_rho, summary.alpha_sigma
    x = alph / lam
    return _guarded(lam - alph, -f.d1_at_1, f.eval(x), 1.0 - x)


def pinsker_lower(summary: ScalarSummary, f: OMDFunction) -> BoundReport:
    """Lower bound f''(1)/2 * ||rho - sigma||_1^2."""
    value = 0.5 * f.d2_at_1 * _libm(_POW, summary.trace_distance_1, 2)
    return BoundReport("pinsker_lower", value, is_lower=True)


def _bracket_uppers(summary: ScalarSummary, f: OMDFunction) -> list[BoundReport]:
    """qubit_classical_upper and general_sqrt_d_upper from one bracket."""
    bracket = _bracket_core(summary, f) - f.a
    applicable = (summary.dim == 2) | (summary.commutator_norm < COMMUTING_TOL)
    dist = summary.trace_distance_1
    return [BoundReport("qubit_classical_upper", dist * bracket, applicable,
                        "requires a qubit or commuting pair"),
            BoundReport("sqrt_d_upper", math.sqrt(summary.dim) * dist * bracket)]


def qubit_classical_upper(summary: ScalarSummary, f: OMDFunction) -> BoundReport:
    """Upper bound for qubit or commuting pairs.

    ||rho - sigma||_1 [lambda_rho/(lambda_rho - alpha_sigma)
    f(alpha_sigma/lambda_rho) - a].
    """
    return _bracket_uppers(summary, f)[0]


def general_sqrt_d_upper(summary: ScalarSummary, f: OMDFunction) -> BoundReport:
    """The dimension-penalized upper bound: sqrt(d) times the bracket form."""
    return _bracket_uppers(summary, f)[1]


def relative_entropy_upper(summary: ScalarSummary) -> list[BoundReport]:
    """Tight and loose upper bounds on the relative entropy (natural log).

    Tight: ||rho-sigma||_1 lambda_rho (log a_r - log a_s)/(a_r - a_s);
    loose: ||rho-sigma||_1 lambda_rho / alpha. Tight <= loose always.
    """
    dist, lam = summary.trace_distance_1, summary.lambda_rho
    tight = dist * lam * guarded_log_diff_quot(summary.alpha_rho, summary.alpha_sigma)
    loose = dist * lam / summary.alpha
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
    value = ((summary.alpha_sigma + t) * _libm(_LOG1P, t / summary.alpha_sigma)
             - summary.alpha_rho * _libm(_LOG1P, t / summary.alpha_rho))
    if base == "2":
        value = value / math.log(2.0)
    name = "ae11_upper" if base == "e" else "ae11_upper_base2"
    return BoundReport(name, value)


def qubit_relative_upper(summary: ScalarSummary) -> list[BoundReport]:
    """Qubit-only tight/loose upper bounds on the relative entropy."""
    applicable = summary.dim == 2
    reason = "requires a qubit pair"
    dist, lam, alph = summary.trace_distance_1, summary.lambda_rho, summary.alpha_sigma
    tight = dist * lam * guarded_log_diff_quot(lam, alph)
    loose = dist * lam / alph
    return [
        BoundReport("qubit_relative_tight_upper", tight, applicable, reason),
        BoundReport("qubit_relative_loose_upper", loose, applicable, reason),
    ]


def tsallis_bounds(summary: ScalarSummary, q: float) -> list[BoundReport]:
    """Every Tsallis-order bound applicable at this q, one report each.

    q in (1, 2]: the ceil-q bound (joint largest eigenvalue over both
    spectra), the prior 1/(q-1) bound, and its improved form, smaller by
    exactly the factor q-1. q in (0, 1): the prior 1/(1-q) bound, the
    divided-difference tight bound, and its loose companion. Qubit pairs
    additionally get a dedicated tight/loose pair at any valid q.
    """
    dist, lam_r = summary.trace_distance_1, summary.lambda_rho
    if not is_tsallis_order(q):
        return [BoundReport("tsallis_bounds", dist * math.nan, False,
                            f"q={q:g} outside (0,2)\\{{1}}")]
    alpha, alph_s = summary.alpha, summary.alpha_sigma
    lam_q = _libm(_POW, lam_r, q)
    values = []
    if q > 1.0:
        lam_joint = np.maximum(summary.lambda_rho, summary.lambda_sigma)
        ceil_coeff = (math.ceil(q) - 1.0) / (q - 1.0)
        values.append(("tsallis_ceil_upper",
                       ceil_coeff * _libm(_POW, lam_joint / alph_s, q - 1.0) * dist))
        prior = dist * lam_q / _libm(_POW, alpha, q) / (q - 1.0)
        values.append(("tsallis_prior_upper", prior))
        values.append(("tsallis_improved_upper", prior * (q - 1.0)))
    else:
        values.append(("tsallis_prior_upper", dist * lam_q / _libm(_POW, alph_s, q) / (1.0 - q)))
        diff_quot = guarded_power_diff_quot(summary.alpha_rho, alph_s, q)
        values.append(("tsallis_tight_upper", dist * lam_q * diff_quot / (1.0 - q)))
        values.append(("tsallis_loose_upper", dist * lam_q / _libm(_POW, alpha, q)))
    reports = [BoundReport(name, value) for name, value in values]
    qubit_ok = summary.dim == 2
    qubit_reason = "requires a qubit pair"
    qubit_quot = guarded_power_diff_quot(lam_r, alph_s, q)
    reports.append(BoundReport("tsallis_qubit_tight_upper",
                               dist * lam_q * qubit_quot / (1.0 - q),
                               qubit_ok, qubit_reason))
    reports.append(BoundReport("tsallis_qubit_loose_upper", dist * lam_q / _libm(_POW, alph_s, q),
                               qubit_ok, qubit_reason))
    return reports


def bound_reports(summary: ScalarSummary, gen: OMDFunction, divergence,
                  q: Optional[float] = None, ae11_base: str = "e") -> list[BoundReport]:
    """Every bound that attaches to generator ``gen``, with its slack against
    ``divergence``: columns over a batch's summary, numbers over summarize's.

    The relative-entropy-specific bounds attach only to neg-log; a Tsallis
    order ``q`` additionally attaches the Tsallis-specific bounds. The
    reports' values, gates and slacks are laid out as one array each, a row
    per report, and every slack is set in one operation over it.
    """
    reports = [pinsker_lower(summary, gen), *_bracket_uppers(summary, gen)]
    if gen.name == "neg-log":
        reports.extend(relative_entropy_upper(summary))
        reports.append(ae11_upper(summary, ae11_base))
        reports.extend(qubit_relative_upper(summary))
    if q is not None:
        reports.extend(tsallis_bounds(summary, q))
    values = np.array([rep.value for rep in reports])
    applicable, lower = np.empty((2, *values.shape), bool)
    for row, rep in enumerate(reports):
        applicable[row], lower[row] = rep.applicable, rep.is_lower
    with np.errstate(invalid="ignore"):  # inf - inf, masked below
        margin = np.where(lower, divergence - values, values - divergence)
    slack = np.where(np.isfinite(divergence) & np.isfinite(values), margin, np.nan)
    return [BoundReport(rep.bound_name, value, ok, rep.reason, rep.is_lower, row_slack)
            for rep, value, ok, row_slack in zip(reports, values, applicable, slack)]


def violated(applicable, slack):
    """Where a bound fails: applicable, with slack below SLACK_FLOOR.

    Takes a report's applicable and slack, as numbers or as columns.
    """
    return applicable & (slack < SLACK_FLOOR)


def sandwich_batch(batch: PairBatch, f: Optional[OMDFunction] = None,
                   q: Optional[float] = None, ae11_base: str = "e"):
    """Divergence column and every bound report over a batch.

    Exactly one of ``f`` and ``q`` must be given; q selects the Tsallis
    generator of that order (divergence by the direct route) and
    additionally attaches the Tsallis-specific bounds. The
    relative-entropy-specific bounds attach only to neg-log. Returns
    (generator, divergences, reports), the reports as bound_reports gives them.
    """
    if (f is None) == (q is None):
        raise ValueError("pass exactly one of f or q")
    if f is None:
        f, divergence = tsallis_f(q), tsallis_values(batch, q)
    else:
        divergence = spectral_values(batch, f)
    return f, divergence, bound_reports(batch.summary, f, divergence, q, ae11_base)


@dataclass(frozen=True)
class SandwichReport:
    divergence: DivergenceResult
    reports: list
    vacuous: bool  # divergence infinite: uppers evaluated but uncheckable
    violations: list


def sandwich(pair: PairBatch, f: Optional[OMDFunction] = None,
             q: Optional[float] = None, ae11_base: str = "e") -> SandwichReport:
    """Divergence plus every applicable bound, with signed slacks.

    The view of sandwich_batch at index 0 for a batch of one, its columns
    read as numbers; see sandwich_batch for f, q and the bounds that attach.
    """
    gen, divergence, columns = sandwich_batch(_single(pair), f, q, ae11_base)
    result = DivergenceResult(float(divergence[0]), "spectral" if q is None else "direct",
                              gen.name)
    reports, violations = [], []
    for rep in columns:
        ok, slack = rep.applicable.item(0), rep.slack.item(0)
        reports.append(BoundReport(rep.bound_name, rep.value.item(0), ok,
                                   "" if ok else rep.reason, rep.is_lower,
                                   None if math.isnan(slack) else slack))
        if violated(ok, slack):
            violations.append(rep.bound_name)
    return SandwichReport(result, reports, not result.finite, violations)
