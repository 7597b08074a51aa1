"""Divergence routes: spectral sum, superoperator oracle, direct formulas."""

import dataclasses
import math

import numpy as np
import pytest

from quasirel import (
    builtin_suite,
    default_rng,
    example_pair,
    neg_log,
    neg_power,
    quasi_entropy_spectral,
    quasi_entropy_superoperator,
    random_classical_pair,
    random_pair,
    tsallis_direct,
    tsallis_f,
    umegaki,
)
from quasirel import states
from quasirel.divergences import (
    OVERLAP_SKIP,
    SUPEROP_DIM_CAP,
    spectral_values,
    tsallis_values,
    umegaki_values,
)
from quasirel.linalg import eigh, spectral_matrix, vec
from quasirel.states import pair_batch, state_pair
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
    rng = default_rng(31)
    for _ in range(10):
        for dim in (2, 3, 4):
            pair = random_pair(dim, rng)
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


def test_result_metadata():
    res = quasi_entropy_spectral(CLASSICAL, neg_log())
    assert res.method == "spectral"
    assert res.f_name == "neg-log"
    assert res.finite
    assert CLASSICAL.summary.dim == 2  # the pair owns its summary
    assert quasi_entropy_superoperator(CLASSICAL, neg_log()).method == "superoperator"
    assert umegaki(CLASSICAL).method == "direct"


def test_unitary_invariance():
    rng = default_rng(32)
    pair = random_pair(3, rng)
    u = haar_unitary(3, rng)
    rotated = state_pair(
        u @ pair.rho[0] @ u.conj().T, u @ pair.sigma[0] @ u.conj().T
    )
    for f in (neg_log(), tsallis_f(1.5)):
        assert quasi_entropy_spectral(rotated, f).value == pytest.approx(
            quasi_entropy_spectral(pair, f).value, rel=1e-10
        )


def test_nonnegative_and_zero_at_equality():
    rng = default_rng(33)
    for _ in range(25):
        pair = random_pair(3, rng)
        for f in builtin_suite():
            assert quasi_entropy_spectral(pair, f).value >= -1e-12
    same = random_pair(4, rng)
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
    assert quasi_entropy_spectral(pair, neg_power(0.5)).finite
    assert quasi_entropy_spectral(pair, tsallis_f(0.3)).finite
    # reversed roles: supp(rho) inside supp(sigma), everything finite
    rev = state_pair(pair.sigma[0], pair.rho[0])
    assert umegaki(rev).finite
    assert tsallis_direct(rev, 1.5).finite


def test_dual_generator_swaps_arguments():
    # S_f(rho||sigma) = S_g(sigma||rho) with g(x) = x f(1/x), exactly
    rng = default_rng(35)
    for _ in range(10):
        pair = random_pair(3, rng)
        for f in (neg_log(), neg_power(0.5), tsallis_f(1.5)):
            lhs = quasi_entropy_spectral(pair, f).value
            rhs = quasi_entropy_spectral(state_pair(pair.sigma[0], pair.rho[0]),
                                         dual_function(f)).value
            assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-12)


def test_modular_matrix_spectrum_is_ratio_multiset():
    rng = default_rng(36)
    pair = random_pair(3, rng)
    vals, weights = pair.modular_spectrum
    lam = pair.rho_spectral.eigenvalues[0]
    mu = pair.sigma_spectral.eigenvalues[0]
    expected = np.sort(np.outer(mu, 1.0 / lam).ravel())
    np.testing.assert_allclose(np.sort(vals), expected, rtol=1e-9)
    # the weights split ||vec sqrt(rho)||^2 = Tr rho = 1
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)


def _superoperator_recomputed(pair, f):
    """The superoperator value from a fresh half-power eigh, as the route
    computed it before the pair kept its modular spectrum."""
    lam, psi = (a[0] for a in pair.rho_spectral)
    mu, phi = (a[0] for a in pair.sigma_spectral)
    half = np.kron(spectral_matrix(phi, np.sqrt(mu)),
                   spectral_matrix(psi, 1.0 / np.sqrt(lam)).T)
    half_vals, vecs = eigh(half)
    coeffs = vecs.conj().T @ vec(spectral_matrix(psi, np.sqrt(lam)))
    return float(np.sum(np.asarray(f.eval(half_vals ** 2), dtype=float)
                        * np.abs(coeffs) ** 2))


def test_modular_spectrum_diagonalized_once_per_pair(monkeypatch):
    rng = default_rng(40)
    for dim in (2, 5, 8):
        pair = random_pair(dim, rng)
        calls = []
        monkeypatch.setattr(states, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        values = [quasi_entropy_superoperator(pair, f).value for f in builtin_suite()]
        monkeypatch.undo()
        assert calls == [(dim * dim, dim * dim)]
        assert values == [_superoperator_recomputed(pair, f) for f in builtin_suite()]


def test_superoperator_route_guards():
    rng = default_rng(37)
    with pytest.raises(ValueError):
        quasi_entropy_superoperator(random_pair(13, rng), neg_log())
    with pytest.raises(ValueError):
        quasi_entropy_superoperator(example_pair(3), neg_power(0.5))


def test_commuting_pair_reduces_to_classical_sum():
    rng = default_rng(38)
    pair = random_classical_pair(5, rng)
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
    assert tsallis_direct(CLASSICAL, 2.0).finite


def test_batch_values_match_each_pair_alone():
    # a pair's value must not depend on the batch it sits in: regular pairs,
    # a commuting pair with skipped overlap terms, and a rank-deficient sigma
    # (then, for umegaki, a rank-deficient rho) share one batch
    rng = default_rng(39)
    pairs = [random_pair(3, rng) for _ in range(4)]
    pairs += [random_classical_pair(3, rng), example_pair(3)]

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


def test_superoperator_dimension_cap_both_sides():
    pair = random_pair(SUPEROP_DIM_CAP, default_rng(72))
    assert math.isfinite(quasi_entropy_superoperator(pair, neg_log()).value)
    with pytest.raises(ValueError, match="capped at dim"):
        quasi_entropy_superoperator(random_pair(SUPEROP_DIM_CAP + 1, default_rng(72)), neg_log())


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


def test_zero_limit_probe_for_bare_callables():
    # example_pair(3): sigma is singular and its kernel carries rho's weight,
    # so the spectral route needs f at 0+, probed for a bare callable
    pair = example_pair(3)
    finite = quasi_entropy_spectral(pair, lambda x: 1 - np.sqrt(x)).value
    assert finite == pytest.approx(quasi_entropy_spectral(pair, neg_power(0.5)).value,
                                   rel=0, abs=1e-9)
    assert quasi_entropy_spectral(pair, lambda x: -np.log(x)).value == math.inf
