"""Divergence routes: spectral sum, superoperator oracle, direct formulas."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasirel import (
    builtin_suite,
    default_rng,
    neg_log,
    neg_power,
    quasi_entropy_spectral,
    quasi_entropy_superoperator,
    tsallis_direct,
    tsallis_f,
    umegaki,
)
from quasirel import states
from quasirel.divergences import (
    SUPEROP_DIM_CAP,
    spectral_values,
    superoperator_values,
    tsallis_values,
    umegaki_values,
)
from quasirel.linalg import ZERO_EIG_THRESHOLD, eigh, spectral_matrix
from quasirel.states import (OVERLAP_SKIP, example_pair, pair_batch, random_classical_pairs,
                             random_pairs, state_pair, trial_streams)
from quasirel.sweeps import trial_batch, trial_key, trial_pair
from serial_search import haar_unitary
from spectral_oracle import dual_function

CLASSICAL = state_pair(np.diag([0.5, 0.5]), np.diag([0.75, 0.25]))


def test_umegaki_frozen_value():
    # 0.5*(log(1/2) - log(3/4)) + 0.5*(log(1/2) - log(1/4)) = 0.5*log(4/3)
    expected = 0.5 * math.log(4.0 / 3.0)
    assert umegaki(CLASSICAL).value == pytest.approx(expected, rel=1e-12)
    assert quasi_entropy_spectral(CLASSICAL, neg_log()).value == pytest.approx(
        expected, rel=1e-12
    )


def test_tsallis_frozen_value():
    q = 0.5
    expected = (1.0 - (math.sqrt(0.5 * 0.75) + math.sqrt(0.5 * 0.25))) / (1.0 - q)
    assert tsallis_direct(CLASSICAL, q).value == pytest.approx(expected, rel=1e-12)
    assert quasi_entropy_spectral(CLASSICAL, tsallis_f(q)).value == pytest.approx(
        expected, rel=1e-12
    )


def test_three_routes_agree_on_random_pairs():
    for trial in range(10):
        for dim in (2, 3, 4):
            pair = trial_pair(31, dim, trial)
            for f in builtin_suite():
                spectral = quasi_entropy_spectral(pair, f).value
                superop = quasi_entropy_superoperator(pair, f).value
                assert superop == pytest.approx(spectral, rel=1e-9, abs=1e-12)
            assert umegaki(pair).value == pytest.approx(
                quasi_entropy_spectral(pair, neg_log()).value, rel=1e-9, abs=1e-12
            )
            for q in (0.3, 1.5):
                assert tsallis_direct(pair, q).value == pytest.approx(
                    quasi_entropy_spectral(pair, tsallis_f(q)).value,
                    rel=1e-9,
                    abs=1e-12,
                )


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(2, 6), kind=st.sampled_from(["random", "classical"]),
       seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 5))
# A nearly equal commuting pair: S_f is 9.5e-8 for tsallis:q=0.3, and the
# routes differ by 9.9e-17, a relative 1.04e-9. The first-order terms
# cancel in every route, so agreement there is absolute, as in the test
# above.
@example(dim=2, kind="classical", seed=904276770, size=1)
def test_routes_agree_over_stacked_batches(dim, kind, seed, size):
    batch = trial_batch(dim, trial_streams([trial_key(seed, dim, t) for t in range(size)]), kind)
    singles = [trial_pair(seed, dim, t, kind) for t in range(size)]
    for f in builtin_suite():
        stacked = superoperator_values(batch, f)
        np.testing.assert_allclose(stacked, spectral_values(batch, f), rtol=1e-9, atol=1e-12)
        # a pair's value does not depend on the stack it sits in
        np.testing.assert_array_equal(stacked, [superoperator_values(p, f)[0] for p in singles])
    np.testing.assert_allclose(umegaki_values(batch), spectral_values(batch, neg_log()),
                               rtol=1e-9, atol=1e-12)
    for q in (0.3, 1.5):
        np.testing.assert_allclose(tsallis_values(batch, q), spectral_values(batch, tsallis_f(q)),
                                   rtol=1e-9, atol=1e-12)


def test_superoperator_values_checks_the_whole_batch():
    flat, skewed = np.diag([0.5, 0.5]), np.diag([0.9, 0.1])
    batch = pair_batch(np.stack([flat, skewed]), np.stack([flat, skewed[::-1, ::-1]]))
    # f finite below 5: the flat pair's modular spectrum is all 1, the
    # skewed pair's reaches 9, so only the second value is +inf
    capped = dataclasses.replace(neg_log(), eval=lambda x: np.where(x < 5.0, 1.0 - x, np.inf))
    values = superoperator_values(batch, capped)
    assert values[0] == 0.0 and values[1] == math.inf
    singular = pair_batch(np.stack([flat, flat]), np.stack([flat, np.diag([1.0, 0.0])]))
    with pytest.raises(ValueError, match="strictly positive"):
        superoperator_values(singular, neg_log())


def test_result_metadata():
    res = quasi_entropy_spectral(CLASSICAL, neg_log())
    assert math.isfinite(res.value)
    assert CLASSICAL.summary.dim == 2  # the pair owns its summary


def test_unitary_invariance():
    rng = default_rng(32)
    pair = trial_pair(32, 3, 0)
    u = haar_unitary(3, rng)
    rotated = state_pair(
        u @ pair.rho[0] @ u.conj().T, u @ pair.sigma[0] @ u.conj().T
    )
    for f in (neg_log(), tsallis_f(1.5)):
        assert quasi_entropy_spectral(rotated, f).value == pytest.approx(
            quasi_entropy_spectral(pair, f).value, rel=1e-10
        )


def test_nonnegative_and_zero_at_equality():
    for trial in range(25):
        pair = trial_pair(33, 3, trial)
        for f in builtin_suite():
            assert quasi_entropy_spectral(pair, f).value >= -1e-12
    same = trial_pair(33, 4, 0)
    equal = state_pair(same.rho[0], same.rho[0])
    for f in builtin_suite():
        assert abs(quasi_entropy_spectral(equal, f).value) < 1e-12


def test_support_conventions():
    pair = example_pair(4)  # rho full rank, sigma rank 2
    assert math.isinf(umegaki(pair).value)
    assert math.isinf(quasi_entropy_spectral(pair, neg_log()).value)
    assert math.isinf(quasi_entropy_spectral(pair, tsallis_f(1.5)).value)
    assert math.isinf(tsallis_direct(pair, 1.5).value)
    # f finite at 0+ keeps the divergence finite despite the support gap
    assert math.isfinite(quasi_entropy_spectral(pair, neg_power(0.5)).value)
    assert math.isfinite(quasi_entropy_spectral(pair, tsallis_f(0.3)).value)
    # reversed roles: supp(rho) inside supp(sigma), everything finite
    rev = state_pair(pair.sigma[0], pair.rho[0])
    assert math.isfinite(umegaki(rev).value)
    assert math.isfinite(tsallis_direct(rev, 1.5).value)


def test_dual_generator_swaps_arguments():
    # S_f(rho||sigma) = S_g(sigma||rho) with g(x) = x f(1/x), exactly
    for trial in range(10):
        pair = trial_pair(35, 3, trial)
        for f in (neg_log(), neg_power(0.5), tsallis_f(1.5)):
            lhs = quasi_entropy_spectral(pair, f).value
            rhs = quasi_entropy_spectral(state_pair(pair.sigma[0], pair.rho[0]),
                                         dual_function(f)).value
            assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-12)


def test_modular_matrix_spectrum_is_ratio_multiset():
    # every pair of a stack has its own ratio multiset
    batch = random_pairs(3, trial_streams([36, 136, 236]))
    vals, weights = batch.modular_spectrum
    assert vals.shape == weights.shape == (3, 9)
    for n in range(3):
        lam = batch.rho_spectral.eigenvalues[n]
        mu = batch.sigma_spectral.eigenvalues[n]
        expected = np.sort(np.outer(mu, 1.0 / lam).ravel())
        np.testing.assert_allclose(np.sort(vals[n]), expected, rtol=1e-9)
        # the weights split ||vec sqrt(rho)||^2 = Tr rho = 1
        assert float(np.sum(weights[n])) == pytest.approx(1.0, abs=1e-12)


def _superoperator_recomputed(pair, f):
    """The superoperator value from a fresh 2-D kron and half-power eigh, as
    the route computed it before the batch kept its pairs' modular spectra."""
    lam, psi = (a[0] for a in pair.rho_spectral)
    mu, phi = (a[0] for a in pair.sigma_spectral)
    half = np.kron(spectral_matrix(phi, np.sqrt(mu)),
                   spectral_matrix(psi, 1.0 / np.sqrt(lam)).T)
    half_vals, vecs = eigh(half)
    coeffs = vecs.conj().T @ spectral_matrix(psi, np.sqrt(lam)).reshape(-1)
    return float(np.sum(np.asarray(f.eval(half_vals ** 2), dtype=float)
                        * np.abs(coeffs) ** 2))


def test_modular_spectrum_diagonalized_once_per_pair(monkeypatch):
    for dim in (2, 5, 8):
        pair = trial_pair(40, dim, 0)
        calls = []
        monkeypatch.setattr(states, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        values = [quasi_entropy_superoperator(pair, f).value for f in builtin_suite()]
        monkeypatch.undo()
        assert calls == [(1, dim * dim, dim * dim)]
        assert values == [_superoperator_recomputed(pair, f) for f in builtin_suite()]


def test_superoperator_route_guards():
    with pytest.raises(ValueError):
        quasi_entropy_superoperator(random_pairs(13, trial_streams([37])), neg_log())
    with pytest.raises(ValueError):
        quasi_entropy_superoperator(example_pair(3), neg_power(0.5))


def test_commuting_pair_reduces_to_classical_sum():
    pair = random_classical_pairs(5, trial_streams([38]))
    p = pair.rho_spectral.eigenvalues[0]
    # overlaps form a permutation; recover sigma's spectrum in rho's basis
    perm = np.argmax(pair.overlaps[0] > 0.5, axis=0)
    q = pair.sigma_spectral.eigenvalues[0][perm]
    classical = float(np.sum(p * np.log(p / q)))
    assert umegaki(pair).value == pytest.approx(classical, rel=1e-9)


def test_tsallis_direct_domain():
    for bad in (0.0, 1.0, 2.5):
        with pytest.raises(ValueError):
            tsallis_direct(CLASSICAL, bad)
    assert math.isfinite(tsallis_direct(CLASSICAL, 2.0).value)


def test_batch_values_match_each_pair_alone():
    # a pair's value must not depend on the batch it sits in: regular pairs,
    # a commuting pair with skipped overlap terms, and a rank-deficient sigma
    # (then, for umegaki, a rank-deficient rho) share one batch
    pairs = [trial_pair(39, 3, trial) for trial in range(4)]
    pairs += [trial_pair(39, 3, 4, "classical"), example_pair(3)]

    def batch_of(group):
        return pair_batch(np.concatenate([p.rho for p in group]),
                          np.concatenate([p.sigma for p in group]))

    batch = batch_of(pairs)
    checks = [(spectral_values(batch, f), lambda p, f=f: quasi_entropy_spectral(p, f))
              for f in (neg_log(), neg_power(0.5), tsallis_f(1.5))]
    checks.append((tsallis_values(batch, 0.3), lambda p: tsallis_direct(p, 0.3)))
    checks.append((umegaki_values(batch), umegaki))
    for values, single in checks:
        assert [single(p).value for p in pairs] == values.tolist()
    assert np.isinf(checks[0][0][-1]) and np.isfinite(checks[1][0][-1])

    pairs[-1] = state_pair(pairs[-1].sigma[0], pairs[-1].rho[0])
    assert [umegaki(p).value for p in pairs] == umegaki_values(batch_of(pairs)).tolist()


def test_spectral_operands_built_once_per_batch(monkeypatch):
    # the generator-free operands of the spectral sum belong to the batch:
    # one build serves every builtin, and no route can write to them
    batch = trial_batch(4, trial_streams([trial_key(48, 4, t) for t in range(3)]))
    operands = states.PairBatch.__dict__["spectral_operands"]
    build, calls = operands.func, []
    monkeypatch.setattr(operands, "func", lambda b: calls.append(len(b)) or build(b))
    values = [spectral_values(batch, f).tolist() for f in builtin_suite()]
    assert len(values) == 4 and calls == [3]
    assert values == [[quasi_entropy_spectral(trial_pair(48, 4, t), f).value for t in range(3)]
                      for f in builtin_suite()]
    for array in batch.spectral_operands:
        assert not array.flags.writeable


def test_superoperator_dimension_cap_both_sides():
    pair = random_pairs(SUPEROP_DIM_CAP, trial_streams([72]))
    assert math.isfinite(quasi_entropy_superoperator(pair, neg_log()).value)
    with pytest.raises(ValueError, match="capped at dim"):
        quasi_entropy_superoperator(random_pairs(SUPEROP_DIM_CAP + 1, trial_streams([72])),
                                    neg_log())


@pytest.mark.parametrize("scale, finite", [(0.9, True), (1.1, False)])
def test_overlap_skip_both_sides(scale, finite):
    # sigma = diag(1, 0): its kernel row carries rho's weight 0.4 in a valid
    # pair, since every overlap row sums to 1, so the row is set by hand to
    # one weight just below or just above the skip threshold
    batch = state_pair(np.diag([0.6, 0.4]), np.diag([1.0, 0.0]))
    overlaps = np.array([[[1.0, 0.0], [0.0, scale * OVERLAP_SKIP]]])
    value = spectral_values(dataclasses.replace(batch, overlaps=overlaps), neg_log())[0]
    if finite:
        assert value == pytest.approx(0.6 * math.log(0.6), rel=1e-15)
    else:
        assert value == math.inf


def _umegaki_on_supports(batch, n):
    """Sum over rho's support of lambda log lambda, minus the sum over sigma's
    of <phi_k|rho|phi_k> log mu_k: Umegaki of one pair from its spectra."""
    lam = batch.rho_spectral.eigenvalues[n]
    mu = batch.sigma_spectral.eigenvalues[n]
    lam_pos, mu_pos = lam > ZERO_EIG_THRESHOLD, mu > ZERO_EIG_THRESHOLD
    rho_mass = batch.overlaps[n][mu_pos, :] @ lam
    return (float(np.sum(lam[lam_pos] * np.log(lam[lam_pos])))
            - float(np.sum(rho_mass * np.log(mu[mu_pos]))))


def _state(u, p):
    return (u * p) @ u.conj().T


def test_umegaki_rank_deficient_rho_matches_support_sums():
    # rho of rank 1..d-1; sigma full rank, or singular with rho's support
    # inside its own, so every value is finite
    rng = default_rng(41)
    for dim in range(3, 9):
        rhos, sigmas = [], []
        for n in range(20):
            rank = int(rng.integers(1, dim))
            p = np.zeros(dim)
            p[:rank] = rng.dirichlet(np.ones(rank))
            u = haar_unitary(dim, rng)
            if n % 2:
                s = rng.dirichlet(np.ones(dim))
                v = haar_unitary(dim, rng)
            else:
                s = np.zeros(dim)
                s[:dim - 1] = rng.dirichlet(np.ones(dim - 1))
                v = u
            rhos.append(_state(u, p))
            sigmas.append(_state(v, s))
        batch = pair_batch(np.array(rhos), np.array(sigmas))
        assert not np.any(batch.rho_positive)
        values = umegaki_values(batch)
        for n, value in enumerate(values):
            assert value == pytest.approx(_umegaki_on_supports(batch, n), rel=1e-12)


@pytest.mark.parametrize("scale, on_support", [(0.9, False), (1.1, True)])
def test_direct_routes_rho_eigenvalue_at_threshold(scale, on_support):
    # rho's smallest eigenvalue sits just below or just above the rank
    # threshold: the direct routes drop it from rho's support, or keep it.
    # Its own terms, about -2.5e-9 in Umegaki and 1e-3 in Tsallis at
    # q = 0.3, lie far above the tolerance, so each side fails the other's
    # closed form
    rng = default_rng(42)
    dim = 4
    p = np.concatenate([rng.dirichlet(np.ones(dim - 1)), [0.0]])
    p[-1] = scale * ZERO_EIG_THRESHOLD
    p[0] -= p[-1]
    pair = state_pair(_state(haar_unitary(dim, rng), p), trial_pair(42, dim, 0).sigma[0])
    lam = pair.rho_spectral.eigenvalues[0]
    mu = pair.sigma_spectral.eigenvalues[0]
    assert bool(lam[-1] > ZERO_EIG_THRESHOLD) is on_support
    kept = lam if on_support else lam[:-1]
    overlaps = pair.overlaps[0][:, :len(kept)]
    entropy = float(np.sum(kept * np.log(kept)))
    cross = float(np.sum((pair.overlaps[0] @ lam) * np.log(mu)))
    assert umegaki(pair).value == pytest.approx(entropy - cross, rel=1e-12)
    for q in (0.3, 1.5):
        trace = float(np.sum(overlaps * np.power(kept, q) * np.power(mu, 1.0 - q)[:, np.newaxis]))
        assert tsallis_direct(pair, q).value == pytest.approx((1.0 - trace) / (1.0 - q),
                                                              rel=1e-12)
