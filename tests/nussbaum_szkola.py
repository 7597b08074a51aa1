"""The Nussbaum–Szkoła distributions of a pair, kept as a test oracle.

rho has spectrum lam_j and sigma mu_k, and O_kj = |<phi_k|psi_j>|^2 is their
overlap matrix, doubly stochastic. P_kj = lam_j O_kj and Q_kj = mu_k O_kj
are the Nussbaum–Szkoła distributions (Ann. Statist. 37, 1040, 2009), and
the spectral route sums S_f(rho||sigma) as the classical f-divergence of
(P, Q). Two chains run through their distance ||P - Q||_1:

* S_f <= 1/2 ||P - Q||_1 B <= 1/2 sqrt(d) ||rho - sigma||_2 B
  <= sqrt(d/2) T B, with B the bracket qubit_classical_upper multiplies by
  ||rho - sigma||_1: a chord bound on each cell, Cauchy-Schwarz with
  sum O = d, and ||X||_2 <= ||X||_1 / sqrt(2) for traceless Hermitian X;
* the search's |Tr(D(rho - sigma))| / (cap ||rho - sigma||_1)
  <= 1/2 ||P - Q||_1 / ||rho - sigma||_1 <= 1/2 sqrt(d/2): its numerator is
  sum C_kj (lam_j - mu_k) O_kj with 0 <= C_kj <= cap, and the terms
  (lam_j - mu_k) O_kj sum to 0, so their positive part is 1/2 ||P - Q||_1.
"""

import numpy as np


def ns_distance(lam: np.ndarray, mu: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """||P - Q||_1 = sum_kj |lam_j - mu_k| O_kj, for one pair or each of a
    stack, with overlaps indexed [..., k, j] like PairBatch.overlaps."""
    gaps = np.abs(lam[..., np.newaxis, :] - mu[..., :, np.newaxis])
    return (gaps * overlaps).sum(axis=(-2, -1))
