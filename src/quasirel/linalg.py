"""Dense Hermitian linear algebra at small dimension.

Hermitian validation, eigendecompositions and spectral reconstruction, of one
matrix or of a stack of them. Eigenvalues are always reported in descending
order; column k of the eigenvector matrix pairs with eigenvalue k.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12
# Eigenvalues at or below this threshold count as zero when ranks matter.
ZERO_EIG_THRESHOLD = 1e-10


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Validate that ``a`` is finite and Hermitian within HERMITICITY_TOL and
    return (A + A†)/2.

    ``a`` is one matrix or a stack of them (shape (..., d, d)). Each check
    here and downstream raises when a comparison holds, and none holds for
    a NaN, so non-finite entries are rejected first, once. The symmetrized
    form is exactly Hermitian, so downstream spectral code never sees
    asymmetry beyond floating-point addition error.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry (NaN or infinity)")
    adjoint = dagger(a)
    deviation = np.abs(a - adjoint).max() if a.size else 0.0
    if deviation > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {deviation:.3e} "
                         f"exceeds {HERMITICITY_TOL:.1e}")
    return (a + adjoint) / 2.0


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


class EigenSystem(NamedTuple):
    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # unitary; column k pairs with eigenvalues[k]


def eigh(a: np.ndarray) -> EigenSystem:
    """Spectral decomposition, eigenvalues descending, of an exactly Hermitian
    matrix as given: hermitian_part and spectral_matrix return one.

    Stacks (shape (..., d, d)) are decomposed matrix by matrix in one call.
    """
    vals, vecs = np.linalg.eigh(a)
    return EigenSystem(vals[..., ::-1].copy(), vecs[..., ::-1].copy())


def spectral_matrix(vecs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V†, symmetrized; V and values may be stacks."""
    out = (vecs * values[..., np.newaxis, :]) @ dagger(vecs)
    return (out + dagger(out)) / 2.0

