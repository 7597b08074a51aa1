"""Serial conjecture search: the oracle the batched search is checked against.

This is the search as it ran before it was batched: one numpy call chain
per random trial and per hill-climb step, each instance a set of 2-D arrays.
It reads ``conjecture.VIOLATION_THRESHOLD`` at call time, so a test can
lower the threshold to record every trial in both searches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from quasirel import conjecture
from quasirel.conjecture import SearchRecord
from quasirel.states import default_rng, random_classical_pair


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: the sum of absolute eigenvalues."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def _sum_formula(c_entries, lam, mu, overlaps) -> float:
    gaps = lam[np.newaxis, :] - mu[:, np.newaxis]
    return float(np.sum(c_entries * gaps * overlaps))


class Instance:
    """One search instance: a pair's raw parts plus weights (cap fixed at 1)."""

    def __init__(self, lam, mu, u_psi, u_phi, c_entries, t=None):
        self.lam = lam
        self.mu = mu
        self.u_psi = u_psi
        self.u_phi = u_phi
        self.c_entries = c_entries
        self.t = t

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
        dist = trace_norm(rho - sigma)
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


def random_instance(dim, rng, weight_mode, commuting) -> Instance:
    if commuting:
        pair = random_classical_pair(dim, rng)
        lam = pair.rho_spectral.eigenvalues[0].copy()
        mu = pair.sigma_spectral.eigenvalues[0].copy()
        u_psi, u_phi = pair.rho_spectral.eigenvectors[0], pair.sigma_spectral.eigenvectors[0]
    else:
        lam = np.sort(_spectrum(dim, rng))[::-1]
        mu = np.sort(_spectrum(dim, rng))[::-1]
        u_psi = haar_unitary(dim, rng)
        u_phi = haar_unitary(dim, rng)
    if weight_mode == "modular":
        t = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        return Instance(lam, mu, u_psi, u_phi, None, t)
    return Instance(lam, mu, u_psi, u_phi, rng.uniform(0.0, 1.0, (dim, dim)))


def _unitary_jitter(u, eps, rng):
    dim = u.shape[0]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h /= max(np.linalg.norm(h), 1e-300)
    vals, vecs = np.linalg.eigh(h)
    rot = (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
    return u @ rot


def jitter(inst: Instance, step: float, rng) -> Instance:
    def bump_spectrum(p):
        p = np.clip(p + step * rng.standard_normal(p.size), 1e-8, None)
        p /= p.sum()
        return np.sort(p)[::-1]

    c = None
    if inst.c_entries is not None:
        c = np.clip(inst.c_entries + step * rng.standard_normal(inst.c_entries.shape),
                    0.0, 1.0)
    t = None if inst.t is None else float(inst.t * np.exp(step * rng.standard_normal()))
    return Instance(
        bump_spectrum(inst.lam),
        bump_spectrum(inst.mu),
        _unitary_jitter(inst.u_psi, step, rng),
        _unitary_jitter(inst.u_phi, step, rng),
        c,
        t,
    )


def serial_search(dims, trials: int, strategy: str, seed: int,
                  weight_mode: str = "uniform", commuting: bool = False,
                  step: float = 0.05, steps_per_restart: int = 200,
                  plateau: int = 30) -> SearchRecord:
    """conjecture_search, one trial and one climb step at a time."""
    dims = tuple(int(d) for d in dims)
    best_ratio = -1.0
    best_instance: Optional[dict] = None
    violations = []
    for trial in range(trials):
        dim = dims[trial % len(dims)]
        if strategy == "random":
            rng = default_rng((seed, dim, trial, conjecture._TAG_RANDOM))
            inst = random_instance(dim, rng, weight_mode, commuting)
            ratio = inst.ratio()
        else:
            rng = default_rng((seed, dim, trial, conjecture._TAG_CLIMB))
            inst = random_instance(dim, rng, weight_mode, commuting)
            ratio = inst.ratio()
            perm = None
            if commuting:
                perm = inst.u_psi.conj().T @ inst.u_phi
            misses = 0
            for _ in range(steps_per_restart):
                cand = jitter(inst, step, rng)
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
        if ratio > conjecture.VIOLATION_THRESHOLD:
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
