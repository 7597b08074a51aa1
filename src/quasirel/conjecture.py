"""Search harness for the open dimension-free trace-functional bound.

The object under study is D = sum_kj C_kj <psi_j|phi_k> |psi_j><phi_k| built
from two orthonormal systems and weights 0 <= C_kj <= C. Two cases of
|Tr(DX)| <= C ||X||_1 are proven (X diagonal in either basis; X a 2x2
traceless Hermitian); whether it holds for X = rho - sigma with the pair's
own eigenbases in dimension >= 3 is open. This module verifies the proven
cases and searches for counterexamples with seeded random sampling and
jitter-based hill climbing. A violation is a first-class result that gets
serialized with full reproduction data; absence of violations is never
asserted for the open case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .linalg import ZERO_EIG_THRESHOLD, dagger, hermitian_part
from .states import (
    TrialStreams,
    _classical_batch,
    _classical_draw,
    _matrix_to_json,
    _spectra_draw,
    _spectral_draws,
    haar_unitaries,
    trial_streams,
)

PROVEN_SLACK = 1e-10
VIOLATION_THRESHOLD = 1.0 + 1e-10

# Key tags keeping the independent trial streams disjoint.
_TAG_RANDOM = 101
_TAG_CLIMB = 202


@dataclass(frozen=True)
class WeightedOverlapFunctional:
    """Weights C_kj in [0, cap] over a (psi_j, phi_k) basis pair.

    c_entries[k, j] pairs phi_k with psi_j, matching the overlap-matrix
    index convention of PairBatch.overlaps.
    """

    c_entries: np.ndarray
    c_cap: float
    basis_psi: np.ndarray  # columns |psi_j>
    basis_phi: np.ndarray  # columns |phi_k>

    def __post_init__(self):
        if not (math.isfinite(self.c_cap) and self.c_cap >= 0.0):
            raise ValueError(f"cap must be a finite number >= 0, got {self.c_cap}")
        c = np.asarray(self.c_entries, dtype=float)
        if not c.shape == self.basis_psi.shape == self.basis_phi.shape == c.shape[-1:] * 2:
            raise ValueError(f"weights of shape {c.shape} beside bases of shapes "
                             f"{self.basis_psi.shape} and {self.basis_phi.shape}")
        # a NaN weight passes through min and max, and no comparison holds for it
        if not (c.min() >= -1e-12 and c.max() <= self.c_cap + 1e-12):
            raise ValueError(f"weights must lie in [0, {self.c_cap}]")

    def d_matrix(self) -> np.ndarray:
        """Explicit D = sum_kj C_kj <psi_j|phi_k> |psi_j><phi_k|."""
        gram = self.basis_psi.conj().T @ self.basis_phi  # [j, k] = <psi_j|phi_k>
        return self.basis_psi @ (self.c_entries.T * gram) @ self.basis_phi.conj().T


def random_functional(dim: int, rng: np.random.Generator,
                      cap: float = 1.0) -> WeightedOverlapFunctional:
    """Independent uniform weights on [0, cap] over two Haar-random bases."""
    c = cap * rng.random((dim, dim))  # uniform(0, cap)'s bits, without its wrapper
    u = haar_unitaries(rng.standard_normal((2, 2, dim, dim)))
    return WeightedOverlapFunctional(c, cap, u[0], u[1])


def _modular_weights(lam: np.ndarray, mu: np.ndarray, t):
    """C_kj = (t + mu_k/lambda_j)^-1 and its cap (t + min mu/max lambda)^-1,
    attained at the smallest-mu/largest-lambda index; for one pair of spectra
    and a number t, or for stacks of them with one t each."""
    t = np.asarray(t, dtype=float)
    weights = 1.0 / (t[..., np.newaxis, np.newaxis]
                     + mu[..., :, np.newaxis] / lam[..., np.newaxis, :])
    return weights, 1.0 / (t + mu.min(axis=-1) / lam.max(axis=-1))


def _sum_formula(c_entries: np.ndarray, lam: np.ndarray, mu: np.ndarray,
                 overlaps: np.ndarray) -> np.ndarray:
    """sum_kj C_kj (lam_j - mu_k) overlaps_kj, for one pair or each of a stack."""
    gaps = lam[..., np.newaxis, :] - mu[..., :, np.newaxis]
    terms = c_entries * gaps * overlaps
    return terms.reshape(*terms.shape[:-2], -1).sum(axis=-1)


def proven_case_check(w: WeightedOverlapFunctional, x: np.ndarray, case: str) -> bool:
    """Check |Tr(DX)| <= cap * ||X||_1 for the two proven hypotheses.

    case "diagonal": X must be diagonal in one of the functional's bases.
    case "qubit_traceless": X must be 2x2 Hermitian with zero trace.
    A hypothesis violation raises; the return value is the inequality verdict
    with 1e-10 slack.
    """
    x = hermitian_part(x)
    if x.shape != w.c_entries.shape:
        raise ValueError(f"X has shape {x.shape}, the functional's bases {w.c_entries.shape}")
    if case == "diagonal":
        # X in both bases at once; off the diagonal each should vanish
        bases = np.array((w.basis_phi, w.basis_psi))
        y = dagger(bases) @ x @ bases
        y.reshape(2, -1)[:, ::x.shape[0] + 1] = 0.0
        if not np.abs(y).max(axis=(1, 2)).min() < 1e-10:
            raise ValueError("X is not diagonal in either basis")
    elif case == "qubit_traceless":
        if x.shape != (2, 2):
            raise ValueError(f"qubit case needs a 2x2 matrix, got {x.shape}")
        if abs(complex(x.trace())) > 1e-12:
            raise ValueError("X is not traceless")
    else:
        raise ValueError(f"unknown case {case!r}")
    # Tr(DX) = sum_ij D_ij X_ji, without forming the product; x is already
    # exactly Hermitian, so its trace norm needs no second validation.
    value = abs(complex((w.d_matrix() * x.T).sum()))
    return value <= w.c_cap * float(np.abs(np.linalg.eigvalsh(x)).sum()) + PROVEN_SLACK


# ---------------------------------------------------------------------------
# Counterexample search.


@dataclass(frozen=True)
class SearchRecord:
    """Outcome of one conjecture search: a measurement, not an assertion."""

    seed: int
    dims: tuple
    trial_count: int
    strategy: str
    weight_mode: str
    commuting: bool
    max_ratio: float
    argmax_instance: dict
    violations: tuple

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


def save_record(path, record: SearchRecord) -> None:
    with open(path, "w") as fh:
        fh.write(record.to_json())
        fh.write("\n")


# Spectra of search instances stay above this floor when drawn and jittered.
SPECTRUM_FLOOR = 1e-8
# Random trials and climb restarts are drawn and evaluated this many at a
# time, so memory does not grow with the trial count.
_TRIAL_BLOCK = 256
# A climb draws its steps' normals ahead this many steps at a time.
_DRAW_STEPS = 32
# Candidates in a climb's first round; the count doubles after a round of
# misses and starts over after an accepted step.
_FIRST_ROUND = 4


class _Instances(NamedTuple):
    """N search instances of one dimension as stacked arrays (cap fixed at 1).

    lam[n] and mu[n] are descending spectra of rho and sigma with eigenbases
    u_psi[n] and u_phi[n]. w[n] is the instance's weight part: the (d, d)
    weights C in uniform mode, or in modular mode the number t of the
    weights 1 / (t + mu_k / lam_j). Only ratios, _jitter and to_dict read
    which of the two w holds, from its shape.
    """

    lam: np.ndarray
    mu: np.ndarray
    u_psi: np.ndarray
    u_phi: np.ndarray
    w: np.ndarray

    @property
    def dim(self) -> int:
        return self.lam.shape[-1]

    def take(self, n: int) -> _Instances:
        """Instance n as a batch of one."""
        return _Instances(*(field[n:n + 1] for field in self))

    def ratios(self) -> np.ndarray:
        """|Tr(D(rho - sigma))| / (cap ||rho - sigma||_1) per instance, 0 where rho = sigma."""
        lam, mu = self.lam, self.mu
        phi_dagger = dagger(self.u_phi)
        overlaps = np.abs(phi_dagger @ self.u_psi) ** 2
        c, cap = (self.w, 1.0) if self.w.ndim > 1 else _modular_weights(lam, mu, self.w)
        numerator = np.abs(_sum_formula(c, lam, mu, overlaps))
        rho = (self.u_psi * lam[:, np.newaxis, :]) @ dagger(self.u_psi)
        sigma = (self.u_phi * mu[:, np.newaxis, :]) @ phi_dagger
        dist = np.abs(np.linalg.eigvalsh(rho - sigma)).sum(axis=-1)
        equal = dist < 1e-14
        return np.where(equal, 0.0, numerator / (cap * np.where(equal, 1.0, dist)))

    def to_dict(self, n: int, ratio: float) -> dict:
        lam, mu, u_psi, u_phi, w = (field[n] for field in self)
        doc = {
            "dim": self.dim,
            "ratio": float(ratio),
            "rho": _matrix_to_json((u_psi * lam) @ u_psi.conj().T),
            "sigma": _matrix_to_json((u_phi * mu) @ u_phi.conj().T),
            "t": None if w.ndim else float(w),
        }
        if w.ndim:
            doc["c_entries"] = [[float(v) for v in row] for row in w]
        return doc


def _instance_draw(dim: int, weight_mode: str, commuting: bool,
                   rng: np.random.Generator, floor=None) -> tuple:
    """One instance's draws in stream order, as _spectral_draws takes them:
    the pair's (a shuffled commuting pair's, or two spectra and then the
    Gaussians of two Haar bases), then its weights (d*d uniforms) or its
    modular t."""
    if commuting:
        draws = _classical_draw(dim, rng, floor)
    else:
        draws = (_spectra_draw(rng, dim, floor), rng.standard_normal((2, 2, dim, dim)))
    if weight_mode == "modular":
        return (*draws, np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
    return (*draws, rng.random((dim, dim)))  # uniform(0, 1)'s bits, without its wrapper


def _random_instances(streams: TrialStreams, draw, floor: float,
                      commuting: bool) -> _Instances:
    """One fresh instance per stream, each drawn by draw (an _instance_draw)
    from its own stream with spectra above floor."""
    spectra, (*pair_draws, w) = _spectral_draws(streams, draw, floor)
    if commuting:
        pairs = _classical_batch(spectra, *pair_draws)
        lam, mu = pairs.rho_spectral.eigenvalues, pairs.sigma_spectral.eigenvalues
        u_psi, u_phi = pairs.rho_spectral.eigenvectors, pairs.sigma_spectral.eigenvectors
    else:
        lam, mu = spectra[:, 0], spectra[:, 1]
        u = haar_unitaries(*pair_draws)
        u_psi, u_phi = u[:, 0], u[:, 1]
    return _Instances(lam, mu, u_psi, u_phi, w)


def _rotations(z: np.ndarray, step: float, d: int, rotated: int) -> np.ndarray:
    """Basis rotations exp(i step H / ||H||_F) of climb steps, one stack per
    row of z, shape (k, rotated, d, d).

    A row's last 4 d^2 normals are the real and imaginary Gaussians of G for
    psi, then for phi, with H = (G + G^dagger) / 2; with rotated = 1 only
    psi's rotation is built. numpy's stacked eigh gives each H the bits of
    the 2-D call.
    """
    k = z.shape[0]
    g = z[:, -4 * d * d:][:, :rotated * 2 * d * d].reshape(k * rotated, 2, d, d)
    g = g[:, 0] + 1j * g[:, 1]
    h = (g + dagger(g)) / 2.0
    # ||H||_F^2 summed as np.linalg.norm sums it: the dot products of the
    # real parts and of the imaginary parts over the same strided views,
    # each the BLAS dot that norm calls. A plain sum of squares rounds
    # differently, and a last-bit change moves the climb's path. The floor
    # only guards H = 0: below about 1e-154 the squares underflow, so such
    # an H reads a norm of 0 here as in np.linalg.norm.
    flat = h.reshape(k * rotated, 1, d * d)
    squares = (flat.real @ np.swapaxes(flat.real, 1, 2)
               + flat.imag @ np.swapaxes(flat.imag, 1, 2))
    h /= np.maximum(np.sqrt(squares), 1e-300)
    vals, vecs = np.linalg.eigh(h)
    return ((vecs * np.exp(1j * step * vals)[:, np.newaxis, :]) @ dagger(vecs)).reshape(
        k, rotated, d, d)


def _jitter(inst: _Instances, step: float, z: np.ndarray, rot: np.ndarray,
            perm: Optional[np.ndarray]) -> _Instances:
    """Candidate steps from a batch-of-one instance, one per row of z.

    A row holds one step's standard normals in the order the step draws
    them: the weight bumps (one per entry of w[0]: a clipped additive step
    for each C_kj, a multiplicative step exp(step * z) for t), the spectrum
    bumps of lam then mu, then the Gaussians of the rotations of psi and
    of phi, which _rotations has already turned into rot. With ``perm``
    phi follows psi through the fixed phase-permutation, and rot holds
    psi's rotation only; phi's normals are still part of the row.
    """
    k, d, n = z.shape[0], inst.dim, inst.w[0].size  # n weight bumps per row
    bumps = step * z[:, :n].reshape(k, *inst.w.shape[1:])
    # np.clip's bits from the bare ufuncs, which skip its wrapper
    w = (np.minimum(np.maximum(inst.w + bumps, 0.0), 1.0) if inst.w.ndim > 1
         else inst.w * np.exp(bumps))
    spectra = step * z[:, n:n + 2 * d].reshape(k, 2, d)
    spectra[:, 0] += inst.lam  # bump + lam is lam + bump, bit for bit
    spectra[:, 1] += inst.mu
    np.maximum(spectra, SPECTRUM_FLOOR, out=spectra)
    spectra /= spectra.sum(axis=-1, keepdims=True)
    spectra.sort(axis=-1)
    spectra = spectra[..., ::-1]
    u_psi = inst.u_psi @ rot[:, 0]
    u_phi = u_psi @ perm if perm is not None else inst.u_phi @ rot[:, 1]
    return _Instances(spectra[:, 0], spectra[:, 1], u_psi, u_phi, w)


def _climb(inst: _Instances, ratio: float, rng: np.random.Generator, step: float,
           steps: int, plateau: int, commuting: bool) -> tuple:
    """Hill-climb a batch-of-one instance; return the final instance and ratio.

    Row j of ``draws`` holds step j's normals and row j of ``rots`` its
    rotations, built once when the step is drawn. A round evaluates the
    next k steps' candidates from the current instance as one stack and
    accepts the first that improves (see conjecture_search for why this is
    exact).
    """
    # For commuting pairs the two bases differ by a fixed phase-permutation;
    # jitter must preserve that relation.
    perm = inst.u_psi[0].conj().T @ inst.u_phi[0] if commuting else None
    rotated = 1 if commuting else 2
    d = inst.dim
    width = inst.w[0].size + 2 * d + 4 * d * d  # normals per step
    draws = np.empty((0, width))
    rots = np.empty((0, rotated, d, d), dtype=complex)
    first = 0  # step number of draws[0] and rots[0]
    done = misses = 0
    size = _FIRST_ROUND
    while done < steps:
        k = min(size, plateau - misses, steps - done)
        drawn = first + len(draws)
        if done + k > drawn:
            # whole blocks, never past the last step
            more = min(-(-(done + k - drawn) // _DRAW_STEPS) * _DRAW_STEPS, steps - drawn)
            fresh = rng.standard_normal((more, width))
            draws = np.concatenate((draws[done - first:], fresh))
            rots = np.concatenate((rots[done - first:], _rotations(fresh, step, d, rotated)))
            first = done
        rows = slice(done - first, done - first + k)
        cands = _jitter(inst, step, draws[rows], rots[rows], perm)
        cand_ratios = cands.ratios().tolist()
        hit = next((j for j, r in enumerate(cand_ratios) if r > ratio), None)
        if hit is None:
            done += k
            misses += k
            if misses >= plateau:
                break
            size *= 2
        else:
            done += hit + 1
            inst, ratio = cands.take(hit), cand_ratios[hit]
            misses = 0
            size = _FIRST_ROUND
    return inst, ratio


def conjecture_search(dims, trials: int, strategy: str, seed: int,
                      weight_mode: str = "uniform", commuting: bool = False,
                      step: float = 0.05, steps_per_restart: int = 200,
                      plateau: int = 30) -> SearchRecord:
    """Seeded search for ratio |Tr(D(rho-sigma))| / (cap ||rho-sigma||_1) > 1.

    strategy "random" draws independent instances; "hill_climb" treats
    ``trials`` as restart count, each restart climbing from a fresh instance
    with spectrum/unitary/weight jitter, accepting on increase, abandoning a
    restart after ``plateau`` consecutive misses. Trials round-robin over
    ``dims``. Deterministic: every trial draws from the stream of
    default_rng((seed, dim, trial, tag)), so results are independent of
    scheduling.

    The work runs on stacked arrays and the record is the same, bit for
    bit, as when trials and steps ran one at a time:

    * Trials run in blocks of ``_TRIAL_BLOCK``, so memory does not grow
      with ``trials``. A block's streams are seeded in one pass, and each
      trial draws from its own stream in the order a lone trial would; a
      restart replays its instance draws before it climbs. Then each
      dimension's instances of the block are evaluated as one stack.
      numpy's stacked QR, eigh, eigvalsh and matmul give each matrix the
      bits of the 2-D call. Ratios are scanned in trial order, so the
      first maximum wins and violations keep their order.
    * A climb step draws the same count of normals whether or not it is
      accepted, so step j's draws are a fixed slice of the restart's stream,
      and a restart draws them ahead, ``_DRAW_STEPS`` steps at a time. A
      round then evaluates the candidates of the next k steps from the
      current instance, as one stack, and accepts the first that improves.
      The one-at-a-time climb would have evaluated exactly these candidates
      up to that one, from the same instance with the same draws, and
      rejected all before it. Candidates after it are discarded, and their
      steps are redone from the new instance with the draws already made.
      k starts at ``_FIRST_ROUND``, doubles after a round of misses, and
      never passes the plateau or the steps left, so no round reaches past
      where the one-at-a-time climb stops.
    * A step's basis rotations depend only on its draws, so a restart
      builds them when it draws the step, with one stacked eigh per drawn
      block, and a step scored again in a later round reuses them.
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    if any(d < 2 for d in dims):
        raise ValueError("search dims must be >= 2")
    if strategy not in ("random", "hill_climb"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if weight_mode not in ("uniform", "modular"):
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    if steps_per_restart < 0:
        raise ValueError(f"steps per restart must be >= 0, got {steps_per_restart}")
    if plateau < 1:
        raise ValueError(f"plateau must be >= 1, got {plateau}")

    tag = _TAG_RANDOM if strategy == "random" else _TAG_CLIMB
    draws = {dim: partial(_instance_draw, dim, weight_mode, commuting) for dim in dims}
    # a commuting pair's spectra stay above the rank threshold
    floor = ZERO_EIG_THRESHOLD if commuting else SPECTRUM_FLOOR
    best_ratio = -1.0
    best_instance: Optional[dict] = None
    violations = []
    for start in range(0, trials, _TRIAL_BLOCK):
        block = range(start, min(start + _TRIAL_BLOCK, trials))
        block_dims = [dims[trial % len(dims)] for trial in block]
        streams = trial_streams([(seed, dim, trial, tag)
                                 for dim, trial in zip(block_dims, block)])
        # (instances, index, ratio) per trial of the block
        outcomes: list = [None] * len(block)
        for dim in dict.fromkeys(block_dims):
            members = [i for i, d in enumerate(block_dims) if d == dim]
            insts = _random_instances(streams.take(members), draws[dim], floor, commuting)
            for n, (i, ratio) in enumerate(zip(members, insts.ratios().tolist())):
                if strategy == "hill_climb":
                    # the climb goes on with the trial's stream after its instance
                    rng = streams.restart(i)
                    draws[dim](rng, floor)
                    climbed, ratio = _climb(insts.take(n), ratio, rng, step,
                                            steps_per_restart, plateau, commuting)
                    outcomes[i] = (climbed, 0, ratio)
                else:
                    outcomes[i] = (insts, n, ratio)
        # in trial order: the first maximum wins and violations keep their order
        for trial, (insts, n, ratio) in zip(block, outcomes):
            if ratio > best_ratio:
                best_ratio = ratio
                best_instance = insts.to_dict(n, ratio)
                best_instance["trial"] = trial
            if ratio > VIOLATION_THRESHOLD:
                doc = insts.to_dict(n, ratio)
                doc["trial"] = trial
                violations.append(doc)

    return SearchRecord(
        seed=int(seed),
        dims=dims,
        trial_count=int(trials),
        strategy=strategy,
        weight_mode=weight_mode,
        commuting=bool(commuting),
        max_ratio=float(best_ratio),
        argmax_instance=best_instance or {},
        violations=tuple(violations),
    )
