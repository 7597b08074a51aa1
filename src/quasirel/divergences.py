"""Quasi-relative entropies computed three independent ways.

The spectral route sums lambda_j f(mu_k/lambda_j) |<phi_k|psi_j>|^2 over both
eigensystems. The direct route uses trace formulas special to the Umegaki and
Tsallis families. The superoperator route diagonalizes the d^2 x d^2 matrix
of the relative modular operator X -> sigma X rho^{-1} (the pair keeps that
spectrum, see PairBatch.modular_spectrum) and pairs f of it with
vec(sqrt(rho)); it never touches the overlap sum, so the two routes check one
another. The per-pair entry points take a PairBatch of one. A generator is
an OMDFunction descriptor; the routes read its eval, name and value_at_zero.

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

OVERLAP_SKIP = 1e-16
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

    Terms whose overlap weight is below 1e-16 are skipped. A zero eigenvalue
    of sigma with surviving weight contributes f's limit at 0+ when that is
    finite and makes the whole divergence +inf when it is not. Each pair's
    surviving terms are summed in row-major order, as one contiguous run,
    so a pair's value does not depend on the batch it sits in.
    """
    if not np.all(batch.rho_positive):
        raise ValueError("spectral route requires a strictly positive rho")
    lam = batch.rho_spectral.eigenvalues  # descending, all > threshold
    mu = batch.sigma_spectral.eigenvalues
    weights = batch.overlaps * lam[:, np.newaxis, :]  # [n, k, j] = overlap * lambda_j
    live = batch.overlaps >= OVERLAP_SKIP
    positive_mu = mu > ZERO_EIG_THRESHOLD
    counted = live & positive_mu[:, :, np.newaxis]
    with np.errstate(all="ignore"):
        fvals = np.asarray(f.eval(mu[:, :, np.newaxis] / lam[:, np.newaxis, :]), dtype=float)
        terms = fvals * weights
    values = np.where(np.any(counted & ~np.isfinite(fvals), axis=(1, 2)), math.inf, 0.0)
    regular = np.all(counted, axis=(1, 2)) & (values == 0.0)
    values[regular] += terms[regular].reshape(-1, batch.dim ** 2).sum(axis=1)
    for n in np.flatnonzero(~regular & (values == 0.0)):
        # Skipped terms or a singular sigma: sum the survivors alone, since
        # padding zeros into the run would regroup the pairwise sum.
        zero_live = live[n][~positive_mu[n]]
        if np.any(zero_live):
            if not math.isfinite(f.value_at_zero):
                values[n] = math.inf
                continue
            values[n] += f.value_at_zero * float(np.sum(weights[n][~positive_mu[n]][zero_live]))
        values[n] += float(np.sum(terms[n][counted[n]]))
    return values


def quasi_entropy_spectral(pair: PairBatch, f: OMDFunction) -> DivergenceResult:
    """S_f(rho||sigma) of a batch of one by the spectral double sum; see spectral_values."""
    return DivergenceResult(float(spectral_values(_single(pair), f)[0]), "spectral", f.name)


def _support_violated(batch: PairBatch) -> np.ndarray:
    """Per pair: sigma's kernel carries rho-mass above the rank threshold."""
    zero_rows = batch.sigma_spectral.eigenvalues <= ZERO_EIG_THRESHOLD
    # <phi_k| rho |phi_k> via the overlap matrix.
    rho_mass = (batch.overlaps @ batch.rho_spectral.eigenvalues[:, :, np.newaxis])[:, :, 0]
    return np.any(zero_rows & (rho_mass > ZERO_EIG_THRESHOLD), axis=1)


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
    values = np.trace(batch.rho @ (log_rho - log_sigma), axis1=-2, axis2=-1).real
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
    overlap_trace = np.trace(rho_q @ sigma_1q, axis1=-2, axis2=-1).real
    values = (1.0 - overlap_trace) / (1.0 - q)
    if q > 1.0:
        values[_support_violated(batch)] = math.inf
    return values


def tsallis_direct(pair: PairBatch, q: float) -> DivergenceResult:
    """Tsallis relative entropy (1 - Tr(rho^q sigma^(1-q)))/(1-q) of a batch of one."""
    return DivergenceResult(float(tsallis_values(_single(pair), q)[0]), "direct",
                            f"tsallis:q={q:g}")


def quasi_entropy_superoperator(pair: PairBatch, f: OMDFunction) -> DivergenceResult:
    """Oracle route through the materialized relative modular operator.

    Computes <vec(sqrt rho), f(M) vec(sqrt rho)> with M the modular matrix of
    a batch of one; independent of the overlap sum by construction. Dimension
    is capped because M is d^2 x d^2.
    """
    if _single(pair).dim > SUPEROP_DIM_CAP:
        raise ValueError(f"superoperator route capped at dim {SUPEROP_DIM_CAP}, got {pair.dim}")
    if not (pair.rho_positive[0] and pair.sigma_positive[0]):
        raise ValueError("superoperator route requires strictly positive states")
    vals, weights = pair.modular_spectrum
    with np.errstate(all="ignore"):
        fvals = np.asarray(f.eval(vals), dtype=float)
    if not np.all(np.isfinite(fvals)):
        return DivergenceResult(math.inf, "superoperator", f.name)
    return DivergenceResult(float(np.sum(fvals * weights)), "superoperator", f.name)

