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
from typing import NamedTuple, Optional

import numpy as np

from .linalg import dagger, hermitian_part
from .states import (
    PairBatch,
    _matrix_to_json,
    _random_probabilities,
    _single,
    default_rng,
    haar_unitaries,
    random_classical_pairs,
)

FUNCTIONAL_CROSS_TOL = 1e-10
PROVEN_SLACK = 1e-10
VIOLATION_THRESHOLD = 1.0 + 1e-10

# SeedSequence tags keeping the independent trial streams disjoint.
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
        c = np.asarray(self.c_entries, dtype=float)
        if np.any(c < -1e-12) or np.any(c > self.c_cap + 1e-12):
            raise ValueError(f"weights must lie in [0, {self.c_cap}]")

    @property
    def dim(self) -> int:
        return self.basis_psi.shape[0]

    def d_matrix(self) -> np.ndarray:
        """Explicit D = sum_kj C_kj <psi_j|phi_k> |psi_j><phi_k|."""
        gram = self.basis_psi.conj().T @ self.basis_phi  # [j, k] = <psi_j|phi_k>
        return self.basis_psi @ (self.c_entries.T * gram) @ self.basis_phi.conj().T


def random_functional(dim: int, rng: np.random.Generator,
                      cap: float = 1.0) -> WeightedOverlapFunctional:
    """Independent uniform weights on [0, cap] over two Haar-random bases."""
    c = rng.uniform(0.0, cap, size=(dim, dim))
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


def modular_weight_matrix(pair: PairBatch, t: float) -> WeightedOverlapFunctional:
    """The weights from the commuting-case proof: C_kj = (t + mu_k/lambda_j)^-1.

    The cap (t + alpha_sigma/lambda_rho)^-1 is attained exactly at the
    smallest-mu/largest-lambda index. Requires a batch of one with strictly
    positive states, so the smallest ratio really is alpha_sigma/lambda_rho.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if not (_single(pair).rho_positive[0] and pair.sigma_positive[0]):
        raise ValueError("modular weights need strictly positive states")
    lam, psi = pair.rho_spectral.eigenvalues[0], pair.rho_spectral.eigenvectors[0]
    mu, phi = pair.sigma_spectral.eigenvalues[0], pair.sigma_spectral.eigenvectors[0]
    weights, cap = _modular_weights(lam, mu, t)
    return WeightedOverlapFunctional(weights, float(cap), psi, phi)


def _sum_formula(c_entries: np.ndarray, lam: np.ndarray, mu: np.ndarray,
                 overlaps: np.ndarray) -> np.ndarray:
    """sum_kj C_kj (lam_j - mu_k) overlaps_kj, for one pair or each of a stack."""
    gaps = lam[..., np.newaxis, :] - mu[..., :, np.newaxis]
    terms = c_entries * gaps * overlaps
    return np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1)


def functional_value(w: WeightedOverlapFunctional, pair: PairBatch) -> float:
    """Tr(D(rho - sigma)) via the eigenvalue sum, cross-checked on the matrix.

    The pair is a batch of one, whose eigenbases the functional's must be
    (the sum formula assumes so); the explicit-matrix route must agree to
    1e-10 or something is inconsistent and a ValueError surfaces it.
    """
    lam, psi = _single(pair).rho_spectral.eigenvalues[0], pair.rho_spectral.eigenvectors[0]
    mu, phi = pair.sigma_spectral.eigenvalues[0], pair.sigma_spectral.eigenvectors[0]
    if not np.allclose(w.basis_psi, psi, atol=1e-12):
        raise ValueError("functional basis_psi does not match rho's eigenbasis")
    if not np.allclose(w.basis_phi, phi, atol=1e-12):
        raise ValueError("functional basis_phi does not match sigma's eigenbasis")
    value = float(_sum_formula(w.c_entries, lam, mu, pair.overlaps[0]))
    explicit = complex(np.trace(w.d_matrix() @ (pair.rho[0] - pair.sigma[0])))
    if abs(explicit - value) > FUNCTIONAL_CROSS_TOL * max(1.0, abs(value)):
        raise ValueError(
            f"sum formula {value!r} and explicit trace {explicit!r} disagree")
    return value


def proven_case_check(w: WeightedOverlapFunctional, x: np.ndarray, case: str) -> bool:
    """Check |Tr(DX)| <= cap * ||X||_1 for the two proven hypotheses.

    case "diagonal": X must be diagonal in one of the functional's bases.
    case "qubit_traceless": X must be 2x2 Hermitian with zero trace.
    A hypothesis violation raises; the return value is the inequality verdict
    with 1e-10 slack.
    """
    x = hermitian_part(x)
    if case == "diagonal":
        ok = False
        for basis in (w.basis_phi, w.basis_psi):
            y = basis.conj().T @ x @ basis
            if np.max(np.abs(y - np.diag(np.diagonal(y)))) < 1e-10:
                ok = True
                break
        if not ok:
            raise ValueError("X is not diagonal in either basis")
    elif case == "qubit_traceless":
        if x.shape != (2, 2):
            raise ValueError(f"qubit case needs a 2x2 matrix, got {x.shape}")
        if abs(complex(np.trace(x))) > 1e-12:
            raise ValueError("X is not traceless")
    else:
        raise ValueError(f"unknown case {case!r}")
    # Tr(DX) = sum_ij D_ij X_ji, without forming the product; x is already
    # exactly Hermitian, so its trace norm needs no second validation.
    value = abs(complex(np.sum(w.d_matrix() * x.T)))
    return value <= w.c_cap * float(np.sum(np.abs(np.linalg.eigvalsh(x)))) + PROVEN_SLACK


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
        doc = asdict(self)
        doc["dims"] = list(doc["dims"])
        doc["violations"] = list(doc["violations"])
        return json.dumps(doc, indent=1)


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
    u_psi[n] and u_phi[n]. The weights are c[n] (uniform mode), or
    1 / (t[n] + mu_k / lam_j) in modular mode, where c is None.
    """

    lam: np.ndarray
    mu: np.ndarray
    u_psi: np.ndarray
    u_phi: np.ndarray
    c: Optional[np.ndarray]
    t: Optional[np.ndarray]

    @property
    def dim(self) -> int:
        return self.lam.shape[-1]

    def take(self, n: int) -> _Instances:
        """Instance n as a batch of one."""
        sl = slice(n, n + 1)
        return _Instances(self.lam[sl], self.mu[sl], self.u_psi[sl], self.u_phi[sl],
                          None if self.c is None else self.c[sl],
                          None if self.t is None else self.t[sl])

    def ratios(self) -> np.ndarray:
        """|Tr(D(rho - sigma))| / (cap ||rho - sigma||_1) per instance, 0 where rho = sigma."""
        lam, mu = self.lam, self.mu
        phi_dagger = dagger(self.u_phi)
        overlaps = np.abs(phi_dagger @ self.u_psi) ** 2
        c, cap = (self.c, 1.0) if self.t is None else _modular_weights(lam, mu, self.t)
        numerator = np.abs(_sum_formula(c, lam, mu, overlaps))
        rho = (self.u_psi * lam[:, np.newaxis, :]) @ dagger(self.u_psi)
        sigma = (self.u_phi * mu[:, np.newaxis, :]) @ phi_dagger
        dist = np.sum(np.abs(np.linalg.eigvalsh(rho - sigma)), axis=-1)
        equal = dist < 1e-14
        return np.where(equal, 0.0, numerator / (cap * np.where(equal, 1.0, dist)))

    def to_dict(self, n: int, ratio: float) -> dict:
        lam, mu, u_psi, u_phi = self.lam[n], self.mu[n], self.u_psi[n], self.u_phi[n]
        doc = {
            "dim": self.dim,
            "ratio": float(ratio),
            "rho": _matrix_to_json((u_psi * lam) @ u_psi.conj().T),
            "sigma": _matrix_to_json((u_phi * mu) @ u_phi.conj().T),
            "t": None if self.t is None else float(self.t[n]),
        }
        if self.t is None:
            doc["c_entries"] = [[float(v) for v in row] for row in self.c[n]]
        return doc


def _random_instances(dim: int, rngs: list, weight_mode: str,
                      commuting: bool) -> _Instances:
    """One fresh instance per generator, each drawn from its own stream.

    A stream gives, in order: the pair (a shuffled commuting pair, or two
    spectra and then the Gaussians of two Haar bases), then its weights
    (d*d uniforms) or its modular t.
    """
    n = len(rngs)
    if commuting:
        pairs = random_classical_pairs(dim, rngs)
        lam, mu = pairs.rho_spectral.eigenvalues, pairs.sigma_spectral.eigenvalues
        u_psi, u_phi = pairs.rho_spectral.eigenvectors, pairs.sigma_spectral.eigenvectors
    else:
        spectra = np.empty((n, 2, dim))
        z = np.empty((n, 2, 2, dim, dim))
        for i, rng in enumerate(rngs):
            spectra[i, 0] = _random_probabilities(dim, rng, SPECTRUM_FLOOR)
            spectra[i, 1] = _random_probabilities(dim, rng, SPECTRUM_FLOOR)
            z[i] = rng.standard_normal((2, 2, dim, dim))
        lam, mu = spectra[:, 0], spectra[:, 1]
        u = haar_unitaries(z)
        u_psi, u_phi = u[:, 0], u[:, 1]
    if weight_mode == "modular":
        t = np.array([np.exp(rng.uniform(np.log(1e-2), np.log(1e2))) for rng in rngs])
        return _Instances(lam, mu, u_psi, u_phi, None, t)
    c = np.stack([rng.uniform(0.0, 1.0, (dim, dim)) for rng in rngs])
    return _Instances(lam, mu, u_psi, u_phi, c, None)


def _jitter(inst: _Instances, step: float, z: np.ndarray,
            perm: Optional[np.ndarray]) -> _Instances:
    """Candidate steps from a batch-of-one instance, one per row of z.

    A row holds one step's standard normals in the order the step draws
    them: the weight bumps (d*d for c, or 1 for log t), the spectrum bumps of
    lam then mu, then the real and imaginary Gaussians of the rotations of
    psi and of phi. With ``perm`` phi follows psi through the fixed
    phase-permutation, and phi's rotation is skipped; its normals are still
    part of the row.
    """
    k, d = z.shape[0], inst.dim
    if inst.c is None:
        w, c, t = 1, None, inst.t * np.exp(step * z[:, 0])
    else:
        w, t = d * d, None
        c = np.clip(inst.c + step * z[:, :w].reshape(k, d, d), 0.0, 1.0)
    spectra = np.stack((inst.lam, inst.mu), axis=1)
    spectra = np.clip(spectra + step * z[:, w:w + 2 * d].reshape(k, 2, d),
                      SPECTRUM_FLOOR, None)
    spectra /= spectra.sum(axis=-1, keepdims=True)
    spectra = np.sort(spectra, axis=-1)[..., ::-1]

    rotated = 1 if perm is not None else 2
    g = z[:, w + 2 * d:w + 2 * d + rotated * 2 * d * d].reshape(k * rotated, 2, d, d)
    g = g[:, 0] + 1j * g[:, 1]
    h = (g + dagger(g)) / 2.0
    # One np.linalg.norm per matrix: a stacked sum of squares rounds
    # differently, and a last-bit change moves the climb's path.
    h /= np.array([max(np.linalg.norm(m), 1e-300) for m in h])[:, np.newaxis, np.newaxis]
    vals, vecs = np.linalg.eigh(h)
    rot = ((vecs * np.exp(1j * step * vals)[:, np.newaxis, :]) @ dagger(vecs)).reshape(
        k, rotated, d, d)
    u_psi = inst.u_psi @ rot[:, 0]
    u_phi = u_psi @ perm if perm is not None else inst.u_phi @ rot[:, 1]
    return _Instances(spectra[:, 0], spectra[:, 1], u_psi, u_phi, c, t)


def _climb(inst: _Instances, ratio: float, rng: np.random.Generator, step: float,
           steps: int, plateau: int, commuting: bool) -> tuple:
    """Hill-climb a batch-of-one instance; return the final instance and ratio.

    Row j of ``draws`` holds step j's normals. A round evaluates the next k
    steps' candidates from the current instance as one stack and accepts
    the first that improves (see conjecture_search for why this is exact).
    """
    # For commuting pairs the two bases differ by a fixed phase-permutation;
    # jitter must preserve that relation.
    perm = inst.u_psi[0].conj().T @ inst.u_phi[0] if commuting else None
    d = inst.dim
    width = (1 if inst.c is None else d * d) + 2 * d + 4 * d * d  # normals per step
    draws = np.empty((0, width))
    first = 0  # step number of draws[0]
    done = misses = 0
    size = _FIRST_ROUND
    while done < steps:
        k = min(size, plateau - misses, steps - done)
        drawn = first + len(draws)
        if done + k > drawn:
            # whole blocks, never past the last step
            more = min(-(-(done + k - drawn) // _DRAW_STEPS) * _DRAW_STEPS, steps - drawn)
            draws = np.concatenate((draws[done - first:], rng.standard_normal((more, width))))
            first = done
        cands = _jitter(inst, step, draws[done - first:done - first + k], perm)
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


def check_search_arguments(trials: int, step: float, steps_per_restart: int,
                           plateau: int) -> None:
    """Raise ValueError unless the trial count and the climb settings are usable."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    if steps_per_restart < 0:
        raise ValueError(f"steps per restart must be >= 0, got {steps_per_restart}")
    if plateau < 1:
        raise ValueError(f"plateau must be >= 1, got {plateau}")


def conjecture_search(dims, trials: int, strategy: str, seed: int,
                      weight_mode: str = "uniform", commuting: bool = False,
                      step: float = 0.05, steps_per_restart: int = 200,
                      plateau: int = 30) -> SearchRecord:
    """Seeded search for ratio |Tr(D(rho-sigma))| / (cap ||rho-sigma||_1) > 1.

    strategy "random" draws independent instances; "hill_climb" treats
    ``trials`` as restart count, each restart climbing from a fresh instance
    with spectrum/unitary/weight jitter, accepting on increase, abandoning a
    restart after ``plateau`` consecutive misses. Trials round-robin over
    ``dims``. Deterministic: every trial derives its own generator from
    (seed, dim, trial, tag), so results are independent of scheduling.

    The work runs on stacked arrays and the record is the same, bit for
    bit, as when trials and steps ran one at a time:

    * Trials run in blocks of ``_TRIAL_BLOCK``, so memory does not grow
      with ``trials``. Each trial draws from its own stream in the order a
      lone trial would; then each dimension's instances of the block are
      evaluated as one stack. numpy's stacked QR, eigh, eigvalsh and matmul
      give each matrix the bits of the 2-D call. Ratios are scanned in
      trial order, so the first maximum wins and violations keep their
      order.
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
    check_search_arguments(trials, step, steps_per_restart, plateau)

    tag = _TAG_RANDOM if strategy == "random" else _TAG_CLIMB
    best_ratio = -1.0
    best_instance: Optional[dict] = None
    violations = []
    for start in range(0, trials, _TRIAL_BLOCK):
        block = range(start, min(start + _TRIAL_BLOCK, trials))
        block_dims = [dims[trial % len(dims)] for trial in block]
        rngs = [default_rng((seed, dim, trial, tag)) for dim, trial in zip(block_dims, block)]
        # (instances, index, ratio) per trial of the block
        outcomes: list = [None] * len(block)
        for dim in dict.fromkeys(block_dims):
            members = [i for i, d in enumerate(block_dims) if d == dim]
            insts = _random_instances(dim, [rngs[i] for i in members], weight_mode,
                                      commuting)
            for n, (i, ratio) in enumerate(zip(members, insts.ratios().tolist())):
                if strategy == "hill_climb":
                    climbed, ratio = _climb(insts.take(n), ratio, rngs[i], step,
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
