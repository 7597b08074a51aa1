"""Quasi-relative entropies computed three independent ways.

The spectral route sums lambda_j f(mu_k/lambda_j) |<phi_k|psi_j>|^2 over both
eigensystems. The direct route uses trace formulas special to the Umegaki and
Tsallis families. The superoperator route diagonalizes the d^2 x d^2 matrix
of the relative modular operator X -> sigma X rho^{-1} (the pair keeps that
spectrum, see PairBatch.modular_spectrum) and pairs f of it with
vec(sqrt(rho)); it never touches the overlap sum, so the two routes check one
another. The per-pair entry points take a PairBatch of one.

Rank-deficient sigma follows the kernel convention: when ker(sigma) is not
contained in ker(rho) and f blows up at 0+, the divergence is +inf, reported
as a value rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .functions import OMDFunction, is_tsallis_order
from .linalg import ZERO_EIG_THRESHOLD, spectral_matrix
from .states import PairBatch, _single

OVERLAP_SKIP = 1e-16
SUPEROP_DIM_CAP = 12

ScalarMap = Union[OMDFunction, Callable]


@dataclass(frozen=True)
class DivergenceResult:
    value: float  # finite or +inf
    method: str  # "spectral" | "direct" | "superoperator"
    f_name: str

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def _as_callable(f: ScalarMap) -> tuple[str, Callable]:
    if isinstance(f, OMDFunction):
        return f.name, f.eval
    return getattr(f, "__name__", "<callable>"), f


def _zero_limit(f: ScalarMap) -> float:
    """Limit of f at 0+; exact for descriptors, probed for bare callables.

    The probe compares f at two tiny arguments and declares +inf when they
    disagree; it is a heuristic that can misfire for functions converging
    slower than any power visible at 1e-12. Descriptors carry the exact limit.
    """
    if isinstance(f, OMDFunction):
        return f.value_at_zero
    with np.errstate(all="ignore"):
        y1, y2 = float(f(1e-20)), float(f(1e-12))
    if math.isfinite(y1) and math.isfinite(y2) and abs(y1 - y2) <= 1e-6 * max(1.0, abs(y1)):
        return y1
    return math.inf


def spectral_values(batch: PairBatch, f: ScalarMap) -> np.ndarray:
    """The closed-form double sum over both eigensystems, one value per pair.

    Terms whose overlap weight is below 1e-16 are skipped. A zero eigenvalue
    of sigma with surviving weight contributes f's limit at 0+ when that is
    finite and makes the whole divergence +inf when it is not. Each pair's
    surviving terms are summed in row-major order, as one contiguous run,
    so a pair's value does not depend on the batch it sits in.
    """
    func = _as_callable(f)[1]
    if not np.all(batch.rho_positive):
        raise ValueError("spectral route requires a strictly positive rho")
    lam = batch.rho_spectral.eigenvalues  # descending, all > threshold
    mu = batch.sigma_spectral.eigenvalues
    weights = batch.overlaps * lam[:, np.newaxis, :]  # [n, k, j] = overlap * lambda_j
    live = batch.overlaps >= OVERLAP_SKIP
    positive_mu = mu > ZERO_EIG_THRESHOLD
    counted = live & positive_mu[:, :, np.newaxis]
    with np.errstate(all="ignore"):
        fvals = np.asarray(func(mu[:, :, np.newaxis] / lam[:, np.newaxis, :]), dtype=float)
        terms = fvals * weights
    values = np.where(np.any(counted & ~np.isfinite(fvals), axis=(1, 2)), math.inf, 0.0)
    regular = np.all(counted, axis=(1, 2)) & (values == 0.0)
    values[regular] += terms[regular].reshape(-1, batch.dim ** 2).sum(axis=1)
    for n in np.flatnonzero(~regular & (values == 0.0)):
        # Skipped terms or a singular sigma: sum the survivors alone, since
        # padding zeros into the run would regroup the pairwise sum.
        zero_live = live[n][~positive_mu[n]]
        if np.any(zero_live):
            limit = _zero_limit(f)
            if not math.isfinite(limit):
                values[n] = math.inf
                continue
            values[n] += limit * float(np.sum(weights[n][~positive_mu[n]][zero_live]))
        values[n] += float(np.sum(terms[n][counted[n]]))
    return values


def quasi_entropy_spectral(pair: PairBatch, f: ScalarMap) -> DivergenceResult:
    """S_f(rho||sigma) of a batch of one by the spectral double sum; see spectral_values."""
    return DivergenceResult(float(spectral_values(_single(pair), f)[0]), "spectral",
                            _as_callable(f)[0])


def _support_violated(batch: PairBatch) -> np.ndarray:
    """Per pair: sigma's kernel carries rho-mass above the rank threshold."""
    zero_rows = batch.sigma_spectral.eigenvalues <= ZERO_EIG_THRESHOLD
    # <phi_k| rho |phi_k> via the overlap matrix.
    rho_mass = (batch.overlaps @ batch.rho_spectral.eigenvalues[:, :, np.newaxis])[:, :, 0]
    return np.any(zero_rows & (rho_mass > ZERO_EIG_THRESHOLD), axis=1)


def umegaki_values(batch: PairBatch) -> np.ndarray:
    """Relative entropy Tr(rho (log rho - log sigma)), natural log, per pair."""
    violated = _support_violated(batch)
    values = np.full(len(batch), math.inf)
    full = batch.rho_positive & batch.sigma_positive & ~violated
    if np.any(full):
        logs = [spectral_matrix(sp.eigenvectors[full], np.log(sp.eigenvalues[full]))
                for sp in (batch.rho_spectral, batch.sigma_spectral)]
        values[full] = np.trace(batch.rho[full] @ (logs[0] - logs[1]),
                                axis1=-2, axis2=-1).real
    for n in np.flatnonzero(~full & ~violated):
        # Singular but kernel-compatible: work on the supports.
        lam = batch.rho_spectral.eigenvalues[n]
        mu = batch.sigma_spectral.eigenvalues[n]
        lam_pos = lam > ZERO_EIG_THRESHOLD
        mu_pos = mu > ZERO_EIG_THRESHOLD
        ent = float(np.sum(lam[lam_pos] * np.log(lam[lam_pos])))
        rho_mass = batch.overlaps[n][mu_pos, :] @ lam
        values[n] = ent - float(np.sum(rho_mass * np.log(mu[mu_pos])))
    return values


def umegaki(pair: PairBatch) -> DivergenceResult:
    """Relative entropy Tr(rho (log rho - log sigma)) of a batch of one, natural log."""
    return DivergenceResult(float(umegaki_values(_single(pair))[0]), "direct", "neg-log")


def _psd_power(spectral, exponent: float) -> np.ndarray:
    """Support-convention power of density matrices: zero eigenvalues map to 0."""
    vals, vecs = spectral
    powered = np.where(vals > ZERO_EIG_THRESHOLD,
                       np.power(np.clip(vals, ZERO_EIG_THRESHOLD, None), exponent),
                       0.0)
    return spectral_matrix(vecs, powered)


def tsallis_values(batch: PairBatch, q: float) -> np.ndarray:
    """Tsallis relative entropy (1 - Tr(rho^q sigma^(1-q)))/(1-q), per pair."""
    if not is_tsallis_order(q):
        raise ValueError(f"q must lie in (0, 2] excluding 1, got {q}")
    overlap_trace = np.trace(
        _psd_power(batch.rho_spectral, q) @ _psd_power(batch.sigma_spectral, 1.0 - q),
        axis1=-2, axis2=-1).real
    values = (1.0 - overlap_trace) / (1.0 - q)
    if q > 1.0:
        values[_support_violated(batch)] = math.inf
    return values


def tsallis_direct(pair: PairBatch, q: float) -> DivergenceResult:
    """Tsallis relative entropy (1 - Tr(rho^q sigma^(1-q)))/(1-q) of a batch of one."""
    return DivergenceResult(float(tsallis_values(_single(pair), q)[0]), "direct",
                            f"tsallis:q={q:g}")


def quasi_entropy_superoperator(pair: PairBatch, f: ScalarMap) -> DivergenceResult:
    """Oracle route through the materialized relative modular operator.

    Computes <vec(sqrt rho), f(M) vec(sqrt rho)> with M the modular matrix of
    a batch of one; independent of the overlap sum by construction. Dimension
    is capped because M is d^2 x d^2.
    """
    name, func = _as_callable(f)
    if _single(pair).dim > SUPEROP_DIM_CAP:
        raise ValueError(f"superoperator route capped at dim {SUPEROP_DIM_CAP}, got {pair.dim}")
    if not (pair.rho_positive[0] and pair.sigma_positive[0]):
        raise ValueError("superoperator route requires strictly positive states")
    vals, weights = pair.modular_spectrum
    with np.errstate(all="ignore"):
        fvals = np.asarray(func(vals), dtype=float)
    if not np.all(np.isfinite(fvals)):
        return DivergenceResult(math.inf, "superoperator", name)
    value = float(np.sum(fvals * weights))
    return DivergenceResult(value, "superoperator", name)

