"""Trace-distance continuity bounds on quasi-relative entropies.

Every evaluator consumes a ScalarSummary (extreme eigenvalues, trace
distance, commutator norm) and returns BoundReports. Inapplicable inputs
produce applicable=False reports with a reason, never a silent number.
A summary holds one pair as numbers or a PairBatch as columns; the same
formulas run on both, elementwise, so one pair is a batch of one.

All the tight forms contain divided differences that degenerate to 0/0 when
the two eigenvalues coincide; those are guarded: below a gap of 1e-8 the
mean-value limit is substituted (continuous extension), evaluated at the
arithmetic midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divergences import (
    DivergenceResult,
    spectral_values,
    tsallis_values,
)
from .functions import OMDFunction, is_tsallis_order, tsallis_f
from .states import PairBatch, ScalarSummary, summarize

COMMUTING_TOL = 1e-10
DIVIDED_DIFF_GAP = 1e-8
SLACK_FLOOR = -1e-10


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation; the generator and order it belongs to are the caller's.

    ``slack`` is the signed margin by which the bound holds against the
    divergence given when the report was built: bound - divergence for upper
    bounds, divergence - bound for lower bounds, so a sound report always has
    slack >= -1e-10 regardless of orientation. It is None when no divergence
    was given or either side is infinite.

    For a batch summary, value, applicable and slack are arrays
    with one entry per pair, slack being NaN where a pair has none, and
    ``reason`` says why the pairs with applicable False are excluded.
    """

    bound_name: str
    value: float
    applicable: bool
    reason: str = ""
    is_lower: bool = False
    slack: Optional[float] = None


def _report(name: str, value, applicable=True, reason: str = "", divergence=None, *,
            is_lower: bool = False) -> BoundReport:
    """Build a report with its slack: arrays for a batch, plain numbers for one pair."""
    slack = None
    if isinstance(value, np.ndarray):
        if divergence is not None:
            with np.errstate(invalid="ignore"):  # inf - inf, masked below
                margin = (divergence - value) if is_lower else (value - divergence)
            slack = np.where(np.isfinite(divergence) & np.isfinite(value), margin, np.nan)
        if np.ndim(applicable) == 0:
            applicable = np.full(value.shape, bool(applicable))
    else:
        value, applicable = float(value), bool(applicable)
        if divergence is not None and math.isfinite(divergence) and math.isfinite(value):
            slack = (divergence - value) if is_lower else (value - divergence)
        reason = "" if applicable else reason
    return BoundReport(name, value, applicable, reason, is_lower, slack)


def _libm(fn: Callable, x, *args):
    """fn(x, *args) elementwise through Python floats.

    The bounds keep libm's rounding of log, log1p and pow: numpy's vectorized
    versions differ in the last bit on a few percent of inputs, and a slack
    far smaller than its bound turns that bit into a visible change.
    """
    if isinstance(x, np.ndarray):
        return np.array([fn(v, *args) for v in x.tolist()])
    return fn(float(x), *args)


def _guarded(gap, limit, numerator, denominator):
    """numerator/denominator, or its limit where |gap| is under the guard.

    Under the guard the quotient degenerates to 0/0; a batch replaces the
    denominator there, so no division by zero happens at all.
    """
    if not isinstance(gap, np.ndarray):
        return limit if abs(gap) < DIVIDED_DIFF_GAP else numerator / denominator
    small = np.abs(gap) < DIVIDED_DIFF_GAP
    return np.where(small, limit, numerator / np.where(small, 1.0, denominator))


def guarded_log_diff_quot(x, y):
    """(log x - log y)/(x - y), with the 1/midpoint limit under the gap guard."""
    gap = x - y
    return _guarded(gap, 2.0 / (x + y), _libm(math.log, x) - _libm(math.log, y), gap)


def guarded_power_diff_quot(x, y, q: float):
    """(x^(1-q) - y^(1-q))/(x - y), limit (1-q) c^(-q) at the midpoint."""
    gap = x - y
    s = 1.0 - q
    limit = (1.0 - q) * _libm(pow, 0.5 * (x + y), -q)
    return _guarded(gap, limit, _libm(pow, x, s) - _libm(pow, y, s), gap)


def _bracket_core(summary: ScalarSummary, f: OMDFunction):
    """lambda_rho/(lambda_rho - alpha_sigma) * f(alpha_sigma/lambda_rho).

    Tends to -f'(1) as alpha_sigma -> lambda_rho; guarded accordingly.
    """
    lam, alph = summary.lambda_rho, summary.alpha_sigma
    x = alph / lam
    return _guarded(lam - alph, -f.d1_at_1, f.eval(x), 1.0 - x)


def pinsker_lower(summary: ScalarSummary, f: OMDFunction, divergence=None) -> BoundReport:
    """Lower bound f''(1)/2 * ||rho - sigma||_1^2."""
    value = 0.5 * f.d2_at_1 * _libm(pow, summary.trace_distance_1, 2)
    return _report("pinsker_lower", value, divergence=divergence, is_lower=True)


def qubit_classical_upper(summary: ScalarSummary, f: OMDFunction,
                          divergence=None) -> BoundReport:
    """Upper bound for qubit or commuting pairs.

    ||rho - sigma||_1 [lambda_rho/(lambda_rho - alpha_sigma)
    f(alpha_sigma/lambda_rho) - a].
    """
    applicable = (summary.dim == 2) | (summary.commutator_norm < COMMUTING_TOL)
    value = summary.trace_distance_1 * (_bracket_core(summary, f) - f.a)
    return _report("qubit_classical_upper", value, applicable,
                   "requires a qubit or commuting pair", divergence)


def general_sqrt_d_upper(summary: ScalarSummary, f: OMDFunction,
                         divergence=None) -> BoundReport:
    """The dimension-penalized upper bound: sqrt(d) times the bracket form."""
    core = _bracket_core(summary, f)
    value = math.sqrt(summary.dim) * summary.trace_distance_1 * (core - f.a)
    return _report("sqrt_d_upper", value, divergence=divergence)


def relative_entropy_upper(summary: ScalarSummary, divergence=None) -> list[BoundReport]:
    """Tight and loose upper bounds on the relative entropy (natural log).

    Tight: ||rho-sigma||_1 lambda_rho (log a_r - log a_s)/(a_r - a_s);
    loose: ||rho-sigma||_1 lambda_rho / alpha. Tight <= loose always.
    """
    dist, lam = summary.trace_distance_1, summary.lambda_rho
    tight = dist * lam * guarded_log_diff_quot(summary.alpha_rho, summary.alpha_sigma)
    loose = dist * lam / summary.alpha
    return [
        _report("relative_entropy_tight_upper", tight, divergence=divergence),
        _report("relative_entropy_loose_upper", loose, divergence=divergence),
    ]


def ae11_upper(summary: ScalarSummary, base: str = "e", divergence=None) -> BoundReport:
    """The known logarithmic upper bound on relative entropy.

    (alpha_sigma + T) log(1 + T/alpha_sigma) - alpha_rho log(1 + T/alpha_rho)
    with T half the trace distance. ``base`` selects the logarithm ("e" or
    "2") because the source comparison is ambiguous about it; computation is
    natural-log with a final rescale.
    """
    if base not in ("e", "2"):
        raise ValueError(f"base must be 'e' or '2', got {base!r}")
    t = summary.T
    value = ((summary.alpha_sigma + t) * _libm(math.log1p, t / summary.alpha_sigma)
             - summary.alpha_rho * _libm(math.log1p, t / summary.alpha_rho))
    if base == "2":
        value = value / math.log(2.0)
    name = "ae11_upper" if base == "e" else "ae11_upper_base2"
    return _report(name, value, divergence=divergence)


def qubit_relative_upper(summary: ScalarSummary, divergence=None) -> list[BoundReport]:
    """Qubit-only tight/loose upper bounds on the relative entropy."""
    applicable = summary.dim == 2
    reason = "requires a qubit pair"
    dist, lam, alph = summary.trace_distance_1, summary.lambda_rho, summary.alpha_sigma
    tight = dist * lam * guarded_log_diff_quot(lam, alph)
    loose = dist * lam / alph
    return [
        _report("qubit_relative_tight_upper", tight, applicable, reason, divergence),
        _report("qubit_relative_loose_upper", loose, applicable, reason, divergence),
    ]


def tsallis_bounds(summary: ScalarSummary, q: float, divergence=None) -> list[BoundReport]:
    """Every Tsallis-order bound applicable at this q, one report each.

    q in (1, 2]: the ceil-q bound (joint largest eigenvalue over both
    spectra), the prior 1/(q-1) bound, and its improved form, smaller by
    exactly the factor q-1. q in (0, 1): the prior 1/(1-q) bound, the
    divided-difference tight bound, and its loose companion. Qubit pairs
    additionally get a dedicated tight/loose pair at any valid q.
    """
    dist, lam_r = summary.trace_distance_1, summary.lambda_rho
    if not is_tsallis_order(q):
        return [_report("tsallis_bounds", dist * math.nan, False,
                        f"q={q:g} outside (0,2)\\{{1}}", divergence)]
    alpha, alph_s = summary.alpha, summary.alpha_sigma
    lam_q = _libm(pow, lam_r, q)
    values = []
    if q > 1.0:
        lam_joint = np.maximum(summary.lambda_rho, summary.lambda_sigma)
        ceil_coeff = (math.ceil(q) - 1.0) / (q - 1.0)
        values.append(("tsallis_ceil_upper",
                       ceil_coeff * _libm(pow, lam_joint / alph_s, q - 1.0) * dist))
        prior = dist * lam_q / _libm(pow, alpha, q) / (q - 1.0)
        values.append(("tsallis_prior_upper", prior))
        values.append(("tsallis_improved_upper", prior * (q - 1.0)))
    else:
        values.append(("tsallis_prior_upper", dist * lam_q / _libm(pow, alph_s, q) / (1.0 - q)))
        diff_quot = guarded_power_diff_quot(summary.alpha_rho, alph_s, q)
        values.append(("tsallis_tight_upper", dist * lam_q * diff_quot / (1.0 - q)))
        values.append(("tsallis_loose_upper", dist * lam_q / _libm(pow, alpha, q)))
    reports = [_report(name, value, divergence=divergence) for name, value in values]
    qubit_ok = summary.dim == 2
    qubit_reason = "requires a qubit pair"
    qubit_quot = guarded_power_diff_quot(lam_r, alph_s, q)
    reports.append(_report("tsallis_qubit_tight_upper",
                           dist * lam_q * qubit_quot / (1.0 - q),
                           qubit_ok, qubit_reason, divergence))
    reports.append(_report("tsallis_qubit_loose_upper", dist * lam_q / _libm(pow, alph_s, q),
                           qubit_ok, qubit_reason, divergence))
    return reports


def bound_reports(summary: ScalarSummary, gen: OMDFunction, q: Optional[float] = None,
                  ae11_base: str = "e", divergence=None) -> list[BoundReport]:
    """Every bound that attaches to generator ``gen``, slacks against ``divergence``.

    The relative-entropy-specific bounds attach only to neg-log; a Tsallis
    order ``q`` additionally attaches the Tsallis-specific bounds.
    """
    reports = [
        pinsker_lower(summary, gen, divergence),
        qubit_classical_upper(summary, gen, divergence),
        general_sqrt_d_upper(summary, gen, divergence),
    ]
    if gen.name == "neg-log":
        reports.extend(relative_entropy_upper(summary, divergence))
        reports.append(ae11_upper(summary, ae11_base, divergence))
        reports.extend(qubit_relative_upper(summary, divergence))
    if q is not None:
        reports.extend(tsallis_bounds(summary, q, divergence))
    return reports


def _divergence_route(batch: PairBatch, f: Optional[OMDFunction],
                      q: Optional[float]) -> tuple[OMDFunction, np.ndarray]:
    if (f is None) == (q is None):
        raise ValueError("pass exactly one of f or q")
    if f is None:
        return tsallis_f(q), tsallis_values(batch, q)
    return f, spectral_values(batch, f)


def sandwich_batch(batch: PairBatch, f: Optional[OMDFunction] = None,
                   q: Optional[float] = None, ae11_base: str = "e"):
    """Divergence column and every bound report over a batch.

    Returns (generator, divergences, reports) with the reports in column
    form; see sandwich for which bounds attach.
    """
    gen, divergence = _divergence_route(batch, f, q)
    return gen, divergence, bound_reports(batch.summary, gen, q, ae11_base, divergence)


@dataclass(frozen=True)
class SandwichReport:
    divergence: DivergenceResult
    reports: list
    vacuous: bool  # divergence infinite: uppers evaluated but uncheckable
    violations: list


def sandwich(pair: PairBatch, f: Optional[OMDFunction] = None,
             q: Optional[float] = None, ae11_base: str = "e") -> SandwichReport:
    """Divergence plus every applicable bound, with signed slacks.

    Exactly one of ``f`` and ``q`` must be given; q selects the Tsallis
    generator of that order (divergence by the direct route) and
    additionally attaches the Tsallis-specific bounds. The
    relative-entropy-specific bounds attach only to neg-log. The pair is a
    batch of one, and its bounds are evaluated on its summary as numbers.
    """
    summary = summarize(pair)
    gen, divergence = _divergence_route(pair, f, q)
    result = DivergenceResult(float(divergence[0]), "spectral" if q is None else "direct",
                              gen.name)
    reports = bound_reports(summary, gen, q, ae11_base, result.value)
    violations = [rep.bound_name for rep in reports
                  if rep.applicable and rep.slack is not None and rep.slack < SLACK_FLOOR]
    return SandwichReport(result, reports, not result.finite, violations)
