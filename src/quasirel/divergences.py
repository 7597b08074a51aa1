"""Quasi-relative entropies computed three independent ways.

The spectral route sums lambda_j f(mu_k/lambda_j) |<phi_k|psi_j>|^2 over both
eigensystems. The direct route uses trace formulas special to the Umegaki and
Tsallis families. The superoperator route diagonalizes the d^2 x d^2 matrix
of the relative modular operator X -> sigma X rho^{-1} of every pair in one
stacked call (the batch keeps those spectra, see PairBatch.modular_spectrum)
and pairs f of each with vec(sqrt(rho)); it never touches the overlap sum, so
the two routes check one another. Each route takes a PairBatch of any length
and gives one value per pair; its per-pair entry point reads index 0 of a
batch of one. A generator is an OMDFunction descriptor; the routes read its
eval, name and value_at_zero.

Rank deficiency follows one support rule. The direct routes take functions of
a state on its support, eigenvalues at or below ZERO_EIG_THRESHOLD mapping to
0 (see _on_support), and the spectral route counts a zero eigenvalue of sigma
through f's limit at 0+. When ker(sigma) carries rho-mass and f blows up at
0+, the divergence is +inf, reported as a value rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import OMDFunction, is_tsallis_order
from .linalg import ZERO_EIG_THRESHOLD, spectral_matrix
from .states import PairBatch, _single

SUPEROP_DIM_CAP = 12


@dataclass(frozen=True)
class DivergenceResult:
    value: float  # finite or +inf
    method: str  # "spectral" | "direct" | "superoperator"
    f_name: str

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def spectral_values(batch: PairBatch, f: OMDFunction) -> np.ndarray:
    """The closed-form double sum over both eigensystems, one value per pair.

    The terms form one (N, d, d) array, indexed [n, k, j] like the overlaps:
    f(mu_k/lambda_j) lambda_j |<phi_k|psi_j>|^2 where mu_k is above the rank
    threshold, f's limit at 0+ in place of f(0) on sigma's kernel rows, and
    0 where the overlap weight is below 1e-16. A pair is +inf when one of
    its terms is not finite: a counted f-value, or a kernel row carrying
    weight when f blows up at 0+. Each pair's d^2 terms are summed in
    row-major order as one contiguous run, so its value does not depend on
    the batch it sits in.
    """
    if not batch.rho_positive.all():
        raise ValueError("spectral route requires a strictly positive rho")
    weights, live, positive_mu, ratios = batch.spectral_operands
    with np.errstate(all="ignore"):
        fvals = f.eval(ratios)
        terms = np.where(live, np.where(positive_mu, fvals, f.value_at_zero), 0.0) * weights
        # 0.0 + keeps a sum of negative zeros (rho = sigma under neg-log) at +0
        sums = 0.0 + terms.reshape(len(batch), batch.dim ** 2).sum(axis=1)
    return np.where(np.isfinite(terms).all(axis=(1, 2)), sums, math.inf)


def quasi_entropy_spectral(pair: PairBatch, f: OMDFunction) -> DivergenceResult:
    """S_f(rho||sigma) of a batch of one by the spectral double sum; see spectral_values."""
    return DivergenceResult(float(spectral_values(_single(pair), f)[0]), "spectral", f.name)


def _support_violated(batch: PairBatch) -> np.ndarray:
    """Per pair: sigma's kernel carries rho-mass above the rank threshold."""
    zero_rows = batch.sigma_spectral.eigenvalues <= ZERO_EIG_THRESHOLD
    # <phi_k| rho |phi_k> via the overlap matrix.
    rho_mass = (batch.overlaps @ batch.rho_spectral.eigenvalues[:, :, np.newaxis])[:, :, 0]
    return (zero_rows & (rho_mass > ZERO_EIG_THRESHOLD)).any(axis=1)


def _on_support(spectral, func) -> np.ndarray:
    """func of each matrix on its support: V func(vals) V† over eigenvalues above
    ZERO_EIG_THRESHOLD, the kernel mapped to 0. func never sees a kernel
    eigenvalue, so a log or negative power of one never happens."""
    vals, vecs = spectral
    support = vals > ZERO_EIG_THRESHOLD
    return spectral_matrix(vecs, np.where(support, func(np.where(support, vals, 1.0)), 0.0))


def umegaki_values(batch: PairBatch) -> np.ndarray:
    """Relative entropy Tr(rho (log rho - log sigma)), natural log, per pair;
    logs on the supports, +inf where ker(sigma) carries rho-mass."""
    log_rho, log_sigma = (_on_support(sp, np.log)
                          for sp in (batch.rho_spectral, batch.sigma_spectral))
    values = (batch.rho @ (log_rho - log_sigma)).trace(axis1=-2, axis2=-1).real
    values[_support_violated(batch)] = math.inf
    return values


def umegaki(pair: PairBatch) -> DivergenceResult:
    """Relative entropy Tr(rho (log rho - log sigma)) of a batch of one, natural log."""
    return DivergenceResult(float(umegaki_values(_single(pair))[0]), "direct", "neg-log")


def tsallis_values(batch: PairBatch, q: float) -> np.ndarray:
    """Tsallis relative entropy (1 - Tr(rho^q sigma^(1-q)))/(1-q), per pair."""
    if not is_tsallis_order(q):
        raise ValueError(f"q must lie in (0, 2] excluding 1, got {q}")
    rho_q = _on_support(batch.rho_spectral, lambda v: np.power(v, q))
    sigma_1q = _on_support(batch.sigma_spectral, lambda v: np.power(v, 1.0 - q))
    overlap_trace = (rho_q @ sigma_1q).trace(axis1=-2, axis2=-1).real
    values = (1.0 - overlap_trace) / (1.0 - q)
    if q > 1.0:
        values[_support_violated(batch)] = math.inf
    return values


def tsallis_direct(pair: PairBatch, q: float) -> DivergenceResult:
    """Tsallis relative entropy (1 - Tr(rho^q sigma^(1-q)))/(1-q) of a batch of one."""
    return DivergenceResult(float(tsallis_values(_single(pair), q)[0]), "direct",
                            f"tsallis:q={q:g}")


def superoperator_values(batch: PairBatch, f: OMDFunction) -> np.ndarray:
    """Oracle route through the materialized relative modular operator.

    Computes <vec(sqrt rho), f(M) vec(sqrt rho)> per pair, M the pair's
    modular matrix; independent of the overlap sum by construction, and
    +inf where f of the modular spectrum is not finite. Dimension is capped
    because M is d^2 x d^2.
    """
    if batch.dim > SUPEROP_DIM_CAP:
        raise ValueError(f"superoperator route capped at dim {SUPEROP_DIM_CAP}, got {batch.dim}")
    if not (batch.rho_positive & batch.sigma_positive).all():
        raise ValueError("superoperator route requires strictly positive states")
    vals, weights = batch.modular_spectrum
    with np.errstate(all="ignore"):
        fvals = np.asarray(f.eval(vals), dtype=float)
        values = (fvals * weights).sum(axis=-1)
    values[~np.isfinite(fvals).all(axis=-1)] = math.inf
    return values


def quasi_entropy_superoperator(pair: PairBatch, f: OMDFunction) -> DivergenceResult:
    """S_f(rho||sigma) of a batch of one by the superoperator route; see superoperator_values."""
    return DivergenceResult(float(superoperator_values(_single(pair), f)[0]), "superoperator",
                            f.name)
