"""Validated density matrices, state pairs, random generators, and summaries.

The evaluation core works on a PairBatch: N pairs of one dimension held as
stacked arrays, with both states' spectral data, the squared eigenvector
overlaps and the scalar summary columns computed once, when the batch is
built. Everything the spectral divergence route and the scalar bounds
consume lives there. A single pair is a batch of one: every single-pair
constructor returns one, and every per-pair function reads its index 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    ZERO_EIG_THRESHOLD,
    EigenSystem,
    dagger,
    eigh,
    hermitian_part,
    spectral_matrix,
    vec,
)

TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
DOUBLE_STOCHASTIC_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-one positive-semidefinite matrix with cached spectral data."""

    matrix: np.ndarray
    spectral: EigenSystem
    strictly_positive: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.spectral.eigenvectors


def _validated_states(mats: np.ndarray) -> tuple[np.ndarray, EigenSystem]:
    """Validate one density matrix or a stack of them in a single pass.

    Checks Hermiticity, unit trace (1e-12), and positivity up to -1e-12 on
    every spectrum. Returns the read-only symmetrized matrices and their
    descending spectral data.
    """
    h = hermitian_part(mats)
    tr = np.trace(h, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > TRACE_TOL
    if np.any(off):
        raise ValueError(f"trace is {float(tr[off].flat[0])!r}, not 1 within {TRACE_TOL:.1e}")
    spectral = eigh(h, symmetrized=True)
    min_eig = spectral.eigenvalues[..., -1]
    if np.any(min_eig < EIGENVALUE_FLOOR):
        raise ValueError(f"negative eigenvalue {float(np.min(min_eig))!r} "
                         f"below floor {EIGENVALUE_FLOOR:.1e}")
    h.setflags(write=False)
    return h, spectral


def density_matrix(mat: np.ndarray) -> DensityMatrix:
    """Validate and wrap a density matrix.

    Checks Hermiticity, unit trace (1e-12), and positivity up to -1e-12 on the
    spectrum. The strictly_positive flag is set iff the smallest eigenvalue
    exceeds the rank threshold, separating deliberately singular states from
    numerical noise.
    """
    h, spectral = _validated_states(np.asarray(mat))
    if h.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    return DensityMatrix(h, spectral, bool(spectral.eigenvalues[-1] > ZERO_EIG_THRESHOLD))


@dataclass(frozen=True)
class ScalarSummary:
    """The scalar ingredients every bound consumes.

    alpha_rho and alpha_sigma are the smallest eigenvalues strictly above the
    rank threshold (the "minimal non-zero eigenvalue" convention), so they are
    well defined for rank-deficient states. For one pair every field is a
    number; a PairBatch holds the same summary as columns, one array entry
    per pair in every field but dim.
    """

    dim: int
    lambda_rho: float
    lambda_sigma: float
    alpha_rho: float
    alpha_sigma: float
    alpha: float
    trace_distance_1: float
    T: float
    commutator_norm: float  # ||[rho, sigma]||_F; gates the commuting-pair bounds


_COLUMNS = ("lambda_rho", "lambda_sigma", "alpha_rho", "alpha_sigma", "alpha",
            "trace_distance_1", "T", "commutator_norm")


def _min_positive(eigs: np.ndarray) -> np.ndarray:
    positive = np.where(eigs > ZERO_EIG_THRESHOLD, eigs, np.inf).min(axis=-1)
    if np.any(np.isinf(positive)):
        raise ValueError("state has no eigenvalue above the rank threshold")
    return positive


def _summary_columns(rho: np.ndarray, sigma: np.ndarray, lam: np.ndarray,
                     mu: np.ndarray) -> ScalarSummary:
    # Differences of exactly Hermitian matrices are exactly Hermitian.
    dist = np.sum(np.abs(np.linalg.eigvalsh(rho - sigma)), axis=-1)
    product = rho @ sigma
    alpha_rho = _min_positive(lam)
    alpha_sigma = _min_positive(mu)
    s = ScalarSummary(
        dim=rho.shape[-1],
        lambda_rho=lam[:, 0],
        lambda_sigma=mu[:, 0],
        alpha_rho=alpha_rho,
        alpha_sigma=alpha_sigma,
        alpha=np.minimum(alpha_rho, alpha_sigma),
        trace_distance_1=dist,
        T=dist / 2.0,
        commutator_norm=np.linalg.norm(product - dagger(product), axis=(-2, -1)),
    )
    ok = (0.0 < s.alpha) & (s.alpha <= s.lambda_rho) & (s.lambda_rho <= 1.0 + 1e-12)
    if not np.all(ok):
        n = int(np.argmin(ok))
        raise ValueError(f"summary invariant violated: alpha={s.alpha[n]}, "
                         f"lambda_rho={s.lambda_rho[n]}")
    ok = (-1e-12 <= dist) & (dist <= 2.0 + 1e-12)
    if not np.all(ok):
        raise ValueError(f"trace distance out of range: {dist[np.argmin(ok)]}")
    return s


@dataclass(frozen=True)
class PairBatch:
    """N ordered pairs (rho, sigma) of one dimension, as stacked arrays.

    rho and sigma have shape (N, d, d); the spectral data is descending, and
    overlaps[n, k, j] = |<phi_k|psi_j>|^2 where psi are rho's eigenvectors
    and phi are sigma's, each (d, d) slice doubly stochastic. The summary
    holds one column entry per pair. Every array is computed once, when the
    batch is built, and none is written afterwards.
    """

    rho: np.ndarray
    sigma: np.ndarray
    rho_spectral: EigenSystem
    sigma_spectral: EigenSystem
    overlaps: np.ndarray
    summary: ScalarSummary

    @property
    def dim(self) -> int:
        return self.rho.shape[-1]

    def __len__(self) -> int:
        return self.rho.shape[0]

    @property
    def rho_positive(self) -> np.ndarray:
        """Per pair: every eigenvalue of rho is above the rank threshold."""
        return self.rho_spectral.eigenvalues[:, -1] > ZERO_EIG_THRESHOLD

    @property
    def sigma_positive(self) -> np.ndarray:
        return self.sigma_spectral.eigenvalues[:, -1] > ZERO_EIG_THRESHOLD

    @cached_property
    def modular_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of X -> sigma X rho^{-1} of a batch of one and the weights
        |<e_k|vec sqrt(rho)>|^2 of its eigenvectors; computed on first use.

        Both states must be strictly positive. The eigenvalues are squares of
        those of the half power kron(sqrt sigma, rho^{-1/2 T}): eigh of the
        modular matrix itself is only accurate to eps*||M|| on the small
        eigenvalues, which generators singular at 0+ amplify past the 1e-9
        cross-route contract.
        """
        lam, psi = _single(self).rho_spectral.eigenvalues[0], self.rho_spectral.eigenvectors[0]
        mu, phi = self.sigma_spectral.eigenvalues[0], self.sigma_spectral.eigenvectors[0]
        half = np.kron(spectral_matrix(phi, np.sqrt(mu)),
                       spectral_matrix(psi, 1.0 / np.sqrt(lam)).T)
        half_vals, vecs = eigh(half)
        coeffs = vecs.conj().T @ vec(spectral_matrix(psi, np.sqrt(lam)))
        spectrum = (half_vals ** 2, np.abs(coeffs) ** 2)
        for array in spectrum:
            array.setflags(write=False)
        return spectrum


def _single(pair: PairBatch) -> PairBatch:
    """The batch a per-pair function evaluates: it must hold exactly one pair."""
    if len(pair) != 1:
        raise ValueError(f"expected a batch of one pair, got {len(pair)} pairs")
    return pair


def pair_batch(rho: np.ndarray, sigma: np.ndarray) -> PairBatch:
    """Build and validate a PairBatch from two (N, d, d) stacks in one pass.

    Every pair is checked for Hermiticity, unit trace, the eigenvalue floor
    and doubly stochastic overlaps; the first failure raises ValueError.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.ndim != 3:
        raise ValueError(f"expected a (N, d, d) stack, got shape {rho.shape}")
    (rho, rho_spectral), (sigma, sigma_spectral) = map(_validated_states, (rho, sigma))
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape[-1]} vs {sigma.shape[-1]}")
    amp = dagger(sigma_spectral.eigenvectors) @ rho_spectral.eigenvectors
    overlaps = np.abs(amp) ** 2
    for axis, label in ((-2, "column"), (-1, "row")):
        worst = float(np.max(np.abs(overlaps.sum(axis=axis) - 1.0)))
        if worst > DOUBLE_STOCHASTIC_TOL:
            raise ValueError(f"overlap {label} sums off by {worst:.3e}; eigenbasis not unitary?")
    overlaps.setflags(write=False)
    summary = _summary_columns(rho, sigma, rho_spectral.eigenvalues,
                               sigma_spectral.eigenvalues)
    return PairBatch(rho, sigma, rho_spectral, sigma_spectral, overlaps, summary)


def state_pair(rho: np.ndarray, sigma: np.ndarray) -> PairBatch:
    """The pair (rho, sigma) of two d x d matrices as a validated batch of one."""
    return pair_batch(np.asarray(rho)[np.newaxis], np.asarray(sigma)[np.newaxis])


def summarize(pair: PairBatch) -> ScalarSummary:
    """Scalar summary of a batch of one as numbers: extreme eigenvalues, trace distance."""
    s = _single(pair).summary
    return ScalarSummary(s.dim, *(float(getattr(s, c)[0]) for c in _COLUMNS))


def default_rng(seed) -> np.random.Generator:
    """The package-wide RNG: PCG64, seedable and portable across platforms."""
    return np.random.Generator(np.random.PCG64(seed))


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries by one stacked QR of complex Gaussians.

    z has shape (..., 2, d, d): the real then the imaginary part of each
    Gaussian, in the order ``rng.standard_normal`` draws them. The result
    has shape (..., d, d).
    """
    q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    # Making R's diagonal positive removes the QR phase ambiguity; without it
    # the distribution is not Haar.
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., np.newaxis, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fixing."""
    return haar_unitaries(rng.standard_normal((2, dim, dim)))


def _gaussian_states(z: np.ndarray) -> np.ndarray:
    """G G†/Tr(G G†) for G = z[..., 0, :, :] + i z[..., 1, :, :]."""
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    m = g @ dagger(g)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]
    return m


def random_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density matrix G G†/Tr(G G†) with complex Gaussian G.

    Resamples on the (measure-tiny) event that an eigenvalue lands at or
    below the rank threshold, so the result is always strictly positive.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    while True:
        dm = density_matrix(_gaussian_states(rng.standard_normal((2, dim, dim))))
        if dm.strictly_positive:
            return dm


def random_pairs(dim: int, rngs: Sequence) -> PairBatch:
    """One pair of independent random states per generator, as a batch.

    Pair n uses rngs[n] exactly as random_pair does: its first two accepted
    random_state draws, rho then sigma. Both draws of every generator are
    made and validated together; a pair with a rejected draw continues its
    own stream with random_state, and the batch is rebuilt.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = np.stack([rng.standard_normal((2, 2, dim, dim)) for rng in rngs])
    m = _gaussian_states(z)
    batch = pair_batch(m[:, 0], m[:, 1])
    rejected = np.flatnonzero(~(batch.rho_positive & batch.sigma_positive))
    if rejected.size == 0:
        return batch
    rho, sigma = batch.rho.copy(), batch.sigma.copy()
    for n in rejected:
        accepted = [state[n] for state, ok in ((rho, batch.rho_positive[n]),
                                               (sigma, batch.sigma_positive[n])) if ok]
        while len(accepted) < 2:
            accepted.append(random_state(dim, rngs[n]).matrix)
        rho[n], sigma[n] = accepted
    return pair_batch(rho, sigma)


def random_pair(dim: int, rng: np.random.Generator) -> PairBatch:
    """Two independent random states as a batch of one."""
    return random_pairs(dim, [rng])


def _random_probabilities(dim: int, rng: np.random.Generator, floor: float) -> np.ndarray:
    """A flat-Dirichlet probability vector, redrawn until every entry exceeds
    floor, in descending order."""
    alpha = np.ones(dim)
    while True:
        p = rng.dirichlet(alpha)
        if p.min() > floor:
            return np.sort(p)[::-1]


def random_classical_pairs(dim: int, rngs: Sequence) -> PairBatch:
    """One commuting pair per generator, as a batch; see random_classical_pair."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    gaussians, spectra = [], []
    for rng in rngs:
        gaussians.append(rng.standard_normal((2, dim, dim)))
        p = _random_probabilities(dim, rng, ZERO_EIG_THRESHOLD)
        q = _random_probabilities(dim, rng, ZERO_EIG_THRESHOLD)
        spectra.append((p, q[rng.permutation(dim)]))
    u = haar_unitaries(np.stack(gaussians))
    spectra = np.array(spectra)[:, :, np.newaxis, :]
    return pair_batch((u * spectra[:, 0]) @ dagger(u), (u * spectra[:, 1]) @ dagger(u))


def random_classical_pair(dim: int, rng: np.random.Generator) -> PairBatch:
    """A commuting pair, as a batch of one: both states diagonal in one shared
    random basis, with sigma's spectrum randomly permuted against rho's, so
    the overlap matrix is a permutation matrix."""
    return random_classical_pairs(dim, [rng])


def example_pair(dim: int) -> PairBatch:
    """Maximally mixed state against a rank-two state on two basis vectors,
    as a batch of one.

    rho = I/d; sigma has eigenvalues 1/d and 1 - 1/d on the first two basis
    vectors and is zero elsewhere, so sigma is deliberately rank-deficient
    and the pair's trace distance is exactly 2 - 4/d.
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    rho = np.eye(dim, dtype=complex) / dim
    sigma = np.zeros((dim, dim), dtype=complex)
    sigma[0, 0] = 1.0 / dim
    sigma[1, 1] = 1.0 - 1.0 / dim
    return state_pair(rho, sigma)


# ---------------------------------------------------------------------------
# JSON serialization. Floats survive exactly: json emits repr, the shortest
# decimal (<= 17 significant digits) that round-trips to the same double.

def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_json(doc: dict, key: str) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in doc[key]])
    except (TypeError, ValueError):  # not rows of [re, im] cells, or ragged
        raise ValueError(f"{key} must be a list of rows of [re, im] pairs") from None


def pair_to_dict(pair: PairBatch, seed=None, tags: Optional[list[str]] = None) -> dict:
    """The JSON document of a batch of one."""
    return {
        "dim": _single(pair).dim,
        "rho": _matrix_to_json(pair.rho[0]),
        "sigma": _matrix_to_json(pair.sigma[0]),
        "seed": seed,
        "tags": list(tags) if tags else [],
    }


def pair_from_dict(doc: dict) -> PairBatch:
    """The pair a pair_to_dict document holds, as a batch of one; ValueError
    names what is missing or malformed."""
    if not isinstance(doc, dict):
        raise ValueError(f"a state pair must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("dim", "rho", "sigma") if key not in doc]
    if missing:
        raise ValueError(f"state pair lacks {', '.join(missing)}")
    dim = doc["dim"]
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    rho, sigma = _matrix_from_json(doc, "rho"), _matrix_from_json(doc, "sigma")
    if rho.shape != (dim, dim) or sigma.shape != (dim, dim):
        raise ValueError(f"matrix shapes {rho.shape}/{sigma.shape} disagree with dim {dim}")
    return state_pair(rho, sigma)


def save_pair(path, pair: PairBatch, seed=None, tags=None) -> None:
    with open(path, "w") as fh:
        json.dump(pair_to_dict(pair, seed=seed, tags=tags), fh, indent=1)
        fh.write("\n")


def load_pair(path) -> PairBatch:
    with open(path) as fh:
        return pair_from_dict(json.load(fh))
