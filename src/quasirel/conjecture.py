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
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .linalg import hermitian_part
from .states import (
    StatePair,
    default_rng,
    haar_unitary,
    random_classical_pair,
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
    index convention of StatePair.
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
    return WeightedOverlapFunctional(
        rng.uniform(0.0, cap, size=(dim, dim)), cap,
        haar_unitary(dim, rng), haar_unitary(dim, rng))


def modular_weight_matrix(pair: StatePair, t: float) -> WeightedOverlapFunctional:
    """The weights from the commuting-case proof: C_kj = (t + mu_k/lambda_j)^-1.

    The cap (t + alpha_sigma/lambda_rho)^-1 is attained exactly at the
    smallest-mu/largest-lambda index. Requires strictly positive states so
    the smallest ratio really is alpha_sigma/lambda_rho.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if not (pair.rho.strictly_positive and pair.sigma.strictly_positive):
        raise ValueError("modular weights need strictly positive states")
    lam = pair.rho.eigenvalues
    mu = pair.sigma.eigenvalues
    ratios = mu[:, np.newaxis] / lam[np.newaxis, :]
    cap = 1.0 / (t + mu[-1] / lam[0])
    return WeightedOverlapFunctional(
        1.0 / (t + ratios), cap,
        pair.rho.eigenvectors, pair.sigma.eigenvectors)


def _sum_formula(c_entries: np.ndarray, lam: np.ndarray, mu: np.ndarray,
                 overlaps: np.ndarray) -> float:
    gaps = lam[np.newaxis, :] - mu[:, np.newaxis]
    return float(np.sum(c_entries * gaps * overlaps))


def functional_value(w: WeightedOverlapFunctional, pair: StatePair) -> float:
    """Tr(D(rho - sigma)) via the eigenvalue sum, cross-checked on the matrix.

    The functional's bases must be the pair's own eigenbases (that is what
    the sum formula assumes); the explicit-matrix route must agree to 1e-10
    or something is inconsistent and a ValueError surfaces it.
    """
    if (w.basis_psi is not pair.rho.eigenvectors
            and not np.allclose(w.basis_psi, pair.rho.eigenvectors, atol=1e-12)):
        raise ValueError("functional basis_psi does not match rho's eigenbasis")
    if (w.basis_phi is not pair.sigma.eigenvectors
            and not np.allclose(w.basis_phi, pair.sigma.eigenvectors, atol=1e-12)):
        raise ValueError("functional basis_phi does not match sigma's eigenbasis")
    value = _sum_formula(w.c_entries, pair.rho.eigenvalues,
                         pair.sigma.eigenvalues, pair.overlaps)
    explicit = complex(np.trace(w.d_matrix() @ (pair.rho.matrix - pair.sigma.matrix)))
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


class _Instance:
    """Mutable search state: a pair's raw parts plus weights (cap fixed at 1)."""

    __slots__ = ("lam", "mu", "u_psi", "u_phi", "c_entries", "t")

    def __init__(self, lam, mu, u_psi, u_phi, c_entries, t=None):
        self.lam = lam
        self.mu = mu
        self.u_psi = u_psi
        self.u_phi = u_phi
        self.c_entries = c_entries
        self.t = t  # modular mode only

    def ratio(self) -> float:
        overlaps = np.abs(self.u_phi.conj().T @ self.u_psi) ** 2
        if self.t is None:
            c, cap = self.c_entries, 1.0
        else:
            ratios = self.mu[:, np.newaxis] / self.lam[np.newaxis, :]
            c = 1.0 / (self.t + ratios)
            cap = 1.0 / (self.t + np.min(self.mu) / np.max(self.lam))
        numerator = abs(_sum_formula(c, self.lam, self.mu, overlaps))
        rho = (self.u_psi * self.lam) @ self.u_psi.conj().T
        sigma = (self.u_phi * self.mu) @ self.u_phi.conj().T
        dist = float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))
        if dist < 1e-14:
            return 0.0
        return numerator / (cap * dist)

    def to_dict(self, ratio: float) -> dict:
        rho = (self.u_psi * self.lam) @ self.u_psi.conj().T
        sigma = (self.u_phi * self.mu) @ self.u_phi.conj().T
        doc = {
            "dim": int(self.lam.size),
            "ratio": float(ratio),
            "rho": [[[float(v.real), float(v.imag)] for v in row] for row in rho],
            "sigma": [[[float(v.real), float(v.imag)] for v in row] for row in sigma],
            "t": None if self.t is None else float(self.t),
        }
        if self.t is None:
            doc["c_entries"] = [[float(v) for v in row] for row in self.c_entries]
        return doc


def _spectrum(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        p = rng.dirichlet(np.ones(dim))
        if p.min() > 1e-8:
            return p


def _random_instance(dim: int, rng: np.random.Generator, weight_mode: str,
                     commuting: bool) -> _Instance:
    if commuting:
        pair = random_classical_pair(dim, rng, shuffle=True)
        lam, mu = pair.rho.eigenvalues.copy(), pair.sigma.eigenvalues.copy()
        u_psi, u_phi = pair.rho.eigenvectors, pair.sigma.eigenvectors
    else:
        lam = np.sort(_spectrum(dim, rng))[::-1]
        mu = np.sort(_spectrum(dim, rng))[::-1]
        u_psi = haar_unitary(dim, rng)
        u_phi = haar_unitary(dim, rng)
    if weight_mode == "modular":
        t = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        return _Instance(lam, mu, u_psi, u_phi, None, t)
    return _Instance(lam, mu, u_psi, u_phi, rng.uniform(0.0, 1.0, (dim, dim)))


def _unitary_jitter(u: np.ndarray, eps: float, rng: np.random.Generator) -> np.ndarray:
    dim = u.shape[0]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h /= max(np.linalg.norm(h), 1e-300)
    vals, vecs = np.linalg.eigh(h)
    rot = (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
    return u @ rot


def _jitter(inst: _Instance, step: float, rng: np.random.Generator) -> _Instance:
    def bump_spectrum(p):
        p = np.clip(p + step * rng.standard_normal(p.size), 1e-8, None)
        p /= p.sum()
        return np.sort(p)[::-1]

    c = None
    if inst.c_entries is not None:
        c = np.clip(inst.c_entries + step * rng.standard_normal(inst.c_entries.shape),
                    0.0, 1.0)
    t = None if inst.t is None else float(inst.t * np.exp(step * rng.standard_normal()))
    return _Instance(
        bump_spectrum(inst.lam),
        bump_spectrum(inst.mu),
        _unitary_jitter(inst.u_psi, step, rng),
        _unitary_jitter(inst.u_phi, step, rng),
        c,
        t,
    )


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

    best_ratio = -1.0
    best_instance: Optional[dict] = None
    violations = []
    for trial in range(trials):
        dim = dims[trial % len(dims)]
        if strategy == "random":
            rng = default_rng((seed, dim, trial, _TAG_RANDOM))
            inst = _random_instance(dim, rng, weight_mode, commuting)
            ratio = inst.ratio()
        else:
            rng = default_rng((seed, dim, trial, _TAG_CLIMB))
            inst = _random_instance(dim, rng, weight_mode, commuting)
            ratio = inst.ratio()
            # For commuting pairs the two bases differ by a fixed
            # phase-permutation; jitter must preserve that relation.
            perm = None
            if commuting:
                perm = inst.u_psi.conj().T @ inst.u_phi
            misses = 0
            for _ in range(steps_per_restart):
                cand = _jitter(inst, step, rng)
                if perm is not None:
                    cand.u_phi = cand.u_psi @ perm
                cand_ratio = cand.ratio()
                if cand_ratio > ratio:
                    inst, ratio = cand, cand_ratio
                    misses = 0
                else:
                    misses += 1
                    if misses >= plateau:
                        break
        if ratio > best_ratio:
            best_ratio = ratio
            best_instance = inst.to_dict(ratio)
            best_instance["trial"] = trial
        if ratio > VIOLATION_THRESHOLD:
            doc = inst.to_dict(ratio)
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
