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
from functools import cached_property, lru_cache, partial
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    ZERO_EIG_THRESHOLD,
    EigenSystem,
    dagger,
    eigh,
    hermitian_part,
    spectral_matrix,
)

TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
DOUBLE_STOCHASTIC_TOL = 1e-10
OVERLAP_SKIP = 1e-16


def density_matrix(mats: np.ndarray) -> tuple[np.ndarray, EigenSystem]:
    """Validate one density matrix or a stack of them in a single pass.

    Checks Hermiticity, unit trace (1e-12), and positivity up to -1e-12 on
    every spectrum. Returns the read-only symmetrized matrices and their
    descending spectral data.
    """
    h = hermitian_part(mats)
    tr = h.trace(axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise ValueError(f"trace is {float(tr[off].flat[0])!r}, not 1 within {TRACE_TOL:.1e}")
    spectral = eigh(h, symmetrized=True)
    min_eig = spectral.eigenvalues[..., -1]
    if (min_eig < EIGENVALUE_FLOOR).any():
        raise ValueError(f"negative eigenvalue {float(min_eig.min())!r} "
                         f"below floor {EIGENVALUE_FLOOR:.1e}")
    h.setflags(write=False)
    return h, spectral


@dataclass(frozen=True)
class ScalarSummary:
    """The scalar ingredients every bound consumes.

    alpha_rho and alpha_sigma are the smallest eigenvalues strictly above the
    rank threshold (the "minimal non-zero eigenvalue" convention), so they are
    well defined for rank-deficient states. A PairBatch holds its summary as
    columns, one array entry per pair in every field, dim included, so the
    columns of batches of several dimensions join into one (joined_summary);
    summarize gives a batch of one's entries as numbers. The bound formulas
    take either.
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


def _summary_columns(rho: np.ndarray, sigma: np.ndarray, vals: np.ndarray) -> ScalarSummary:
    """The summary of validated states; vals holds rho's spectra, then sigma's.
    A trace within 1e-12 of one puts each largest eigenvalue above the rank
    threshold, so every alpha is finite."""
    n = len(rho)
    # Differences of exactly Hermitian matrices are exactly Hermitian.
    dist = np.abs(np.linalg.eigvalsh(rho - sigma)).sum(axis=-1)
    c = rho @ sigma
    c -= dagger(c)  # the Frobenius norm below sums as np.linalg.norm does
    alphas = np.where(vals > ZERO_EIG_THRESHOLD, vals, np.inf).min(axis=-1)
    return ScalarSummary(
        dim=np.full(n, rho.shape[-1]),
        lambda_rho=vals[:n, 0],
        lambda_sigma=vals[n:, 0],
        alpha_rho=alphas[:n],
        alpha_sigma=alphas[n:],
        alpha=np.minimum(alphas[:n], alphas[n:]),
        trace_distance_1=dist,
        T=dist / 2.0,
        commutator_norm=np.sqrt(np.add.reduce((c.conj() * c).real, axis=(-2, -1))),
    )


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
    def spectral_operands(self) -> tuple:
        """The generator-free operands of the spectral double sum, indexed
        [n, k, j] like the overlaps; computed on first use, and rho must be
        strictly positive. They are the weights overlap * lambda_j, where
        the overlap is at least OVERLAP_SKIP, where mu_k is above the rank
        threshold (shape (N, d, 1)), and the ratios mu_k/lambda_j.
        """
        lam, mu = self.rho_spectral.eigenvalues, self.sigma_spectral.eigenvalues
        operands = (self.overlaps * lam[:, np.newaxis, :], self.overlaps >= OVERLAP_SKIP,
                    (mu > ZERO_EIG_THRESHOLD)[:, :, np.newaxis],
                    mu[:, :, np.newaxis] / lam[:, np.newaxis, :])
        for array in operands:
            array.setflags(write=False)
        return operands

    @cached_property
    def modular_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Per pair, the eigenvalues of X -> sigma X rho^{-1} and the weights
        |<e_k|vec sqrt(rho)>|^2 of its eigenvectors, each (N, d^2); computed
        on first use.

        Both states must be strictly positive. The eigenvalues are squares of
        those of the half power kron(sqrt sigma, rho^{-1/2 T}): eigh of the
        modular matrix itself is only accurate to eps*||M|| on the small
        eigenvalues, which generators singular at 0+ amplify past the cross-route
        contract (1e-9 relative, 1e-12 absolute). The half powers are built as one
        broadcast product and diagonalized by one stacked eigh, which gives each
        pair the bits of its own 2-D kron and eigh. Both factors come exactly
        Hermitian from spectral_matrix, so their kron is too, and eigh takes it as
        hermitian_part would return it.
        """
        n, d = len(self), self.dim
        (lam, psi), (mu, phi) = self.rho_spectral, self.sigma_spectral
        a = spectral_matrix(phi, np.sqrt(mu))
        b = np.swapaxes(spectral_matrix(psi, 1.0 / np.sqrt(lam)), -1, -2)
        half = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, d * d, d * d)
        half_vals, vecs = eigh(half, symmetrized=True)
        s = spectral_matrix(psi, np.sqrt(lam)).reshape(n, d * d)
        # A stacked matmul, not einsum: einsum regroups the sums.
        coeffs = (dagger(vecs) @ s[..., None])[..., 0]
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
    Both are validated as one (2N, d, d) stack, and each keeps its half.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.ndim != 3:
        raise ValueError(f"expected a (N, d, d) stack, got shape {rho.shape}")
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: rho has shape {rho.shape}, sigma {sigma.shape}")
    n = len(rho)
    if n == 0:
        raise ValueError(f"expected at least one pair, got stacks of shape {rho.shape}")
    mats, (vals, vecs) = density_matrix(np.concatenate((rho, sigma)))
    amp = dagger(vecs[n:]) @ vecs[:n]
    overlaps = np.abs(amp) ** 2
    for axis, label in ((-2, "column"), (-1, "row")):
        worst = float(np.abs(overlaps.sum(axis=axis) - 1.0).max())
        if worst > DOUBLE_STOCHASTIC_TOL:
            raise ValueError(f"overlap {label} sums off by {worst:.3e}; eigenbasis not unitary?")
    overlaps.setflags(write=False)
    rho, sigma = mats[:n], mats[n:]
    return PairBatch(rho, sigma, EigenSystem(vals[:n], vecs[:n]),
                     EigenSystem(vals[n:], vecs[n:]), overlaps,
                     _summary_columns(rho, sigma, vals))


def state_pair(rho: np.ndarray, sigma: np.ndarray) -> PairBatch:
    """The pair (rho, sigma) of two d x d matrices as a validated batch of one."""
    return pair_batch(np.asarray(rho)[np.newaxis], np.asarray(sigma)[np.newaxis])


def summarize(pair: PairBatch) -> ScalarSummary:
    """Scalar summary of a batch of one as numbers: extreme eigenvalues, trace distance."""
    s = _single(pair).summary
    return ScalarSummary(int(s.dim[0]), *(float(getattr(s, c)[0]) for c in _COLUMNS))


def joined_summary(batches: Sequence[PairBatch]) -> ScalarSummary:
    """The summary columns of several batches end to end, in batch order."""
    if len(batches) == 1:
        return batches[0].summary
    return ScalarSummary(*(np.concatenate([getattr(b.summary, c) for b in batches])
                           for c in ("dim", *_COLUMNS)))


def default_rng(seed) -> np.random.Generator:
    """The package-wide RNG: PCG64, seedable and portable across platforms."""
    return np.random.Generator(np.random.PCG64(seed))


# SeedSequence's hash and mix constants and PCG64's multiplier, as numpy's
# random/bit_generator.pyx and the PCG paper (O'Neill, HMC-CS-2014-0905)
# give them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1
# Fewer keys than this are seeded by PCG64 itself: the array pass costs
# about as much as 8 PCG64 seedings, whatever the key count.
_ARRAY_SEEDING_MIN = 8


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, n: int) -> tuple:
    """The xor and multiply constants of n consecutive SeedSequence hashes."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)
    return c[:-1], c[1:]


def _hash(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def pcg64_states(keys: Sequence) -> list:
    """np.random.PCG64(key).state for each key, in one pass over all of them.

    The keys are tuples of one length. SeedSequence splits each entry into
    little-endian uint32 words, mixes the words into a pool of 4 and hashes
    the pool into two 128-bit numbers, initstate and initseq; PCG64 then
    sets inc = 2 initseq + 1 and state = ((inc + initstate) M + inc) mod
    2^128. The words are mixed as uint32 arrays over all keys at once, a
    key of more than 4 words (an entry of 2^32 or more) going through the
    extra mixing rounds only as far as its own words reach. Fewer than
    _ARRAY_SEEDING_MIN keys, keys that do not make an array of integers (an
    entry of 2^63 or more beside smaller ones) and keys with a negative
    entry are seeded by PCG64 itself, so a negative entry raises as
    default_rng does.
    """
    a = np.array(keys)
    if len(a) < _ARRAY_SEEDING_MIN or a.ndim != 2 or a.dtype.kind not in "iu" or a.min() < 0:
        return [np.random.PCG64(key).state for key in keys]
    n = len(a)
    high = a >> 32
    counts = 1 + (high > 0)  # words per entry
    ends = np.cumsum(counts, axis=1)
    width = ends[:, -1]
    words = np.zeros((n, max(4, int(width.max()))), dtype=np.uint32)
    words[np.arange(n)[:, np.newaxis], ends - counts] = a & _MASK32
    r, c = np.nonzero(high)
    words[r, ends[r, c] - 1] = high[r, c]

    xor, mul = _hash_constants(_INIT_A, _MULT_A, 4 * words.shape[1])
    pool = _hash(words[:, :4], xor[:4], mul[:4])
    for src in range(4):
        k = 4 + 3 * src
        dst = [i for i in range(4) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src:src + 1], xor[k:k + 3], mul[k:k + 3]))
    for p in range(4, words.shape[1]):
        k = 4 * p
        mixed = _mix(pool, _hash(words[:, p:p + 1], xor[k:k + 4], mul[k:k + 4]))
        pool = np.where((width > p)[:, np.newaxis], mixed, pool)
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 8)
    out = _hash(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], xor, mul).astype(np.uint64)
    seeds = (out[:, 0::2] | out[:, 1::2] << np.uint64(32)).tolist()
    states = []
    for s0, s1, s2, s3 in seeds:
        inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
        state = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


class TrialStreams:
    """Independent random streams, one per trial, drawn through one generator.

    Iterating yields the generator once per trial, set to that trial's start
    state; a trial makes its first draws before the next is yielded.
    restart(n) sets it to trial n's start again, so a trial whose draw was
    rejected replays its first draws and goes on from there.
    """

    def __init__(self, states: list, rng: np.random.Generator):
        self.states = states
        self.rng = rng

    def __iter__(self):
        for n in range(len(self.states)):
            yield self.restart(n)

    def restart(self, n: int) -> np.random.Generator:
        self.rng.bit_generator.state = self.states[n]
        return self.rng

    def take(self, indices) -> TrialStreams:
        """The streams of the given trials, in that order."""
        return TrialStreams([self.states[n] for n in indices], self.rng)


def trial_streams(keys: Sequence) -> TrialStreams:
    """Trial n's stream is default_rng(keys[n])'s, bit for bit: every trial
    draws through the generator of the first key's PCG64, and the other keys
    are seeded by one pcg64_states call."""
    first = np.random.PCG64(keys[0])
    return TrialStreams([first.state, *pcg64_states(keys[1:])], np.random.Generator(first))


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries by one stacked QR of complex Gaussians.

    z has shape (..., 2, d, d): the real then the imaginary part of each
    Gaussian, in the order ``rng.standard_normal`` draws them. The result
    has shape (..., d, d).
    """
    q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    # Making R's diagonal positive removes the QR phase ambiguity; without it
    # the distribution is not Haar.
    phases = r.diagonal(0, -2, -1)
    return q * (phases / np.abs(phases))[..., np.newaxis, :]


def _gaussian_states(z: np.ndarray) -> np.ndarray:
    """G G†/Tr(G G†) for G = z[..., 0, :, :] + i z[..., 1, :, :]."""
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    m = g @ dagger(g)
    m /= m.trace(axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]
    return m


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G†/Tr(G G†) with complex Gaussian G.

    Resamples on the (measure-tiny) event that an eigenvalue lands at or
    below the rank threshold, so the result is always strictly positive.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    while True:
        mat, spectral = density_matrix(_gaussian_states(rng.standard_normal((2, dim, dim))))
        if spectral.eigenvalues[-1] > ZERO_EIG_THRESHOLD:
            return mat


def random_pairs(dim: int, streams: TrialStreams) -> PairBatch:
    """One pair of independent random states per stream, as a batch.

    Pair n is stream n's first two accepted random_state draws, rho then
    sigma. Both draws of every stream are made and validated together; a
    pair with a rejected draw restarts its stream, replays them and
    continues with random_state, and the batch is rebuilt.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = np.array([rng.standard_normal((2, 2, dim, dim)) for rng in streams])
    m = _gaussian_states(z)
    batch = pair_batch(m[:, 0], m[:, 1])
    positive = batch.rho_positive & batch.sigma_positive
    if positive.all():
        return batch
    rho, sigma = batch.rho.copy(), batch.sigma.copy()
    for n in np.flatnonzero(~positive):
        rng = streams.restart(n)
        rng.standard_normal((2, 2, dim, dim))  # the draws just validated
        accepted = [state[n] for state, ok in ((rho, batch.rho_positive[n]),
                                               (sigma, batch.sigma_positive[n])) if ok]
        while len(accepted) < 2:
            accepted.append(random_state(dim, rng))
        rho[n], sigma[n] = accepted
    return pair_batch(rho, sigma)


def _dirichlet(e: np.ndarray) -> np.ndarray:
    """Flat-Dirichlet vectors from standard exponentials along the last axis,
    with the bits of rng.dirichlet(np.ones(d)): each row times the inverse of
    its left-to-right sum (np.sum adds pairwise once d >= 8)."""
    return e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])


def _spectra_draw(rng: np.random.Generator, dim: int, floor=None) -> np.ndarray:
    """The (2, dim) standard exponentials of a stream's two flat-Dirichlet
    spectra. With a floor, a row whose spectrum has an entry at or below it
    is passed over for the stream's next dim draws, as often as it takes."""
    e = rng.standard_exponential((2, dim))
    if floor is None:
        return e
    rows = [row for row in e if _dirichlet(row).min() > floor]
    while len(rows) < 2:
        row = rng.standard_exponential(dim)
        if _dirichlet(row).min() > floor:
            rows.append(row)
    return np.array(rows)


def _spectral_draws(streams: TrialStreams, draw, floor: float) -> tuple:
    """Every stream's draw(rng), stacked, with its two spectra made from them.

    draw(rng, floor=None) makes one trial's draws in stream order and
    returns them with its _spectra_draw exponentials first. The spectra are
    normalized, floor-checked and sorted over the whole stack; a trial with
    an entry at or below floor is drawn again from its restarted stream with
    the floor applied. Returns the spectra, (N, 2, d) and descending, and a
    list of the other draws' stacks.
    """
    draws = [np.array(column) for column in zip(*[draw(rng) for rng in streams])]
    p = _dirichlet(draws[0])
    for n in np.flatnonzero((p <= floor).any(axis=(-2, -1))):
        for column, value in zip(draws, draw(streams.restart(n), floor)):
            column[n] = value
        p[n] = _dirichlet(draws[0][n])
    return np.sort(p, axis=-1)[..., ::-1], draws[1:]


def _classical_draw(dim: int, rng: np.random.Generator, floor=None) -> tuple:
    """A commuting pair's draws in stream order, as _spectral_draws takes
    them: the Gaussians of its basis, its spectra, the shuffle of sigma's."""
    z = rng.standard_normal((2, dim, dim))
    return _spectra_draw(rng, dim, floor), z, rng.permutation(dim)


def _classical_batch(spectra: np.ndarray, z: np.ndarray, perm: np.ndarray) -> PairBatch:
    """The commuting pairs of _classical_draw's stacked draws."""
    u = haar_unitaries(z)
    p = spectra[:, 0, np.newaxis, :]
    q = np.take_along_axis(spectra[:, 1], perm, axis=-1)[:, np.newaxis, :]
    return pair_batch((u * p) @ dagger(u), (u * q) @ dagger(u))


def random_classical_pairs(dim: int, streams: TrialStreams) -> PairBatch:
    """One commuting pair per stream, as a batch: both states diagonal in one
    shared random basis, with flat-Dirichlet spectra above the rank threshold
    and sigma's randomly permuted against rho's, so the overlap matrix is a
    permutation matrix."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    spectra, (z, perm) = _spectral_draws(streams, partial(_classical_draw, dim),
                                         ZERO_EIG_THRESHOLD)
    return _classical_batch(spectra, z, perm)


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
