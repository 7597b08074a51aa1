"""Dense Hermitian linear algebra at small dimension.

Eigendecompositions, spectral matrix functions, and the vectorization helper
used by the superoperator route. Eigenvalues are always reported in
descending order; column k of the eigenvector matrix pairs with eigenvalue k.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
# Eigenvalues at or below this threshold count as zero when ranks matter.
ZERO_EIG_THRESHOLD = 1e-10


class SpectralDomainError(ValueError):
    """A scalar function was applied to a spectrum outside its domain."""


def hermitian_part(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate that ``a`` is Hermitian within ``tol`` and return (A + A†)/2.

    ``a`` is one matrix or a stack of them (shape (..., d, d)). The
    symmetrized form is exactly Hermitian, so downstream spectral code never
    sees asymmetry beyond floating-point addition error.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    adjoint = dagger(a)
    deviation = np.max(np.abs(a - adjoint)) if a.size else 0.0
    if deviation > tol:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^dag| = {deviation:.3e} exceeds {tol:.1e}"
        )
    return (a + adjoint) / 2.0


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


class EigenSystem(NamedTuple):
    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # unitary; column k pairs with eigenvalues[k]


def eigh(a: np.ndarray, *, symmetrized: bool = False) -> EigenSystem:
    """Spectral decomposition of a Hermitian matrix with descending eigenvalues.

    Stacks (shape (..., d, d)) are decomposed matrix by matrix in one call.
    ``symmetrized`` says ``a`` already came from hermitian_part, which would
    return it unchanged, so it is decomposed as it is.
    """
    vals, vecs = np.linalg.eigh(a if symmetrized else hermitian_part(a))
    return EigenSystem(vals[..., ::-1].copy(), vecs[..., ::-1].copy())


def eigvalsh_desc(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    return np.linalg.eigvalsh(hermitian_part(a))[::-1].copy()


def mat_func(a: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum: V f(Λ) V†.

    ``f`` must accept a 1-d real array. Raises SpectralDomainError if any
    eigenvalue falls outside f's domain (detected as a non-finite or
    non-real value in f's output).
    """
    vals, vecs = eigh(a)
    with np.errstate(all="ignore"):
        fv = np.asarray(f(vals))
    if np.iscomplexobj(fv):
        if np.max(np.abs(fv.imag)) > 1e-12:
            raise SpectralDomainError(
                f"function returned complex values on spectrum {vals}"
            )
        fv = fv.real
    fv = fv.astype(float)
    if not np.all(np.isfinite(fv)):
        raise SpectralDomainError(
            f"function returned non-finite values on spectrum {vals}"
        )
    return spectral_matrix(vecs, fv)


def spectral_matrix(vecs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V†, symmetrized; V and values may be stacks."""
    out = (vecs * values[..., np.newaxis, :]) @ dagger(vecs)
    return (out + dagger(out)) / 2.0


def vec(x: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a d x d matrix into a length-d^2 vector."""
    return np.asarray(x).reshape(-1)

