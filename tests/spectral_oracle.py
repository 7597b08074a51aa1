"""Matrix functions, the operator-monotonicity spot check and the dual
generator, kept as test oracles.

The library certifies operator monotonicity through the Löwner
representation that ``make_custom`` checks, and never applies a scalar
function to a matrix. The tests use these to check generators the direct
way: sample A >= B > 0 and look at the spectrum of f(B) - f(A). The dual
generator checks the spectral route under swapped states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from quasirel.functions import OMDFunction
from quasirel.linalg import eigh, hermitian_part, spectral_matrix
from quasirel.states import default_rng, random_state


class SpectralDomainError(ValueError):
    """A scalar function was applied to a spectrum outside its domain."""


def eigvalsh_desc(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    return np.linalg.eigvalsh(hermitian_part(a))[::-1].copy()


def mat_func(a: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum: V f(Λ) V†.

    ``f`` must accept a 1-d real array. Raises SpectralDomainError if any
    eigenvalue falls outside f's domain (detected as a non-finite or
    non-real value in f's output).
    """
    vals, vecs = eigh(hermitian_part(a))
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



@dataclass(frozen=True)
class MonotonicityReport:
    f_name: str
    dim: int
    trials: int
    violations: list
    worst_min_eigenvalue: float


def monotonicity_spot_check(f, dim: int, trials: int, seed) -> MonotonicityReport:
    """Sample pairs A >= B > 0 and check f(B) - f(A) >= -1e-10 I.

    Operator monotone decreasing means exactly that; functions that are not
    (x^2, say) show up with negative eigenvalues in the report. ``f`` may be
    a descriptor or a bare scalar map.
    """
    if dim > 8:
        raise ValueError(f"dim capped at 8 for the spot check, got {dim}")
    func = f.eval if isinstance(f, OMDFunction) else f
    name = f.name if isinstance(f, OMDFunction) else getattr(f, "__name__", "<callable>")
    rng = default_rng(seed)
    violations = []
    worst = math.inf
    for trial in range(trials):
        b = random_state(dim, rng) * dim  # spectrum O(1), strictly positive
        bump = random_state(dim, rng) * float(rng.uniform(0.0, 2.0))
        a = b + bump
        gap = mat_func(b, func) - mat_func(a, func)
        min_eig = float(eigvalsh_desc(gap)[-1])
        worst = min(worst, min_eig)
        if min_eig < -1e-10:
            violations.append({"trial": trial, "min_eigenvalue": min_eig})
    return MonotonicityReport(name, dim, trials, violations, worst)


def dual_function(f: OMDFunction) -> OMDFunction:
    """The transpose generator g(x) = x * f(1/x), as a descriptor.

    Swapping the states in the divergence equals using the dual generator.
    The limits trade places: g(0+) = -f.a, since f(y)/y -> -a as y -> inf,
    and g(x)/x -> f(0+) as x -> inf, recorded as a = -f.value_at_zero; so
    the dual of the dual has f's limits again. The dual of an OMD function
    need not be OMD, so it has no measure density, and its other fields
    stay f's.
    """
    return replace(f, name=f"dual:{f.name}", eval=lambda x: x * f.eval(1.0 / x),
                   a=-f.value_at_zero, measure_density=None, value_at_zero=-f.a)
