"""State construction, sampling, summaries, and JSON round-trips."""

import dataclasses
import json

import numpy as np
import pytest

from quasirel import (
    default_rng,
    density_matrix,
    example_pair,
    functional_value,
    haar_unitary,
    load_pair,
    modular_weight_matrix,
    neg_log,
    pair_from_dict,
    pair_to_dict,
    quasi_entropy_spectral,
    quasi_entropy_superoperator,
    random_classical_pair,
    random_functional,
    random_pair,
    random_state,
    sandwich,
    save_pair,
    summarize,
    tsallis_direct,
    umegaki,
)
from quasirel import states
from quasirel.linalg import HERMITICITY_TOL, ZERO_EIG_THRESHOLD, EigenSystem, eigh
from quasirel.states import (
    DOUBLE_STOCHASTIC_TOL,
    EIGENVALUE_FLOOR,
    TRACE_TOL,
    PairBatch,
    _random_probabilities,
    haar_unitaries,
    pair_batch,
    random_classical_pairs,
    random_pairs,
    state_pair,
)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    dm = density_matrix(np.diag([0.75, 0.25]))
    assert dm.dim == 2
    assert dm.strictly_positive
    assert not density_matrix(np.diag([1.0, 0.0])).strictly_positive
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 9.0  # frozen


def test_eigenvalues_cached_descending():
    dm = density_matrix(np.diag([0.1, 0.6, 0.3]))
    np.testing.assert_allclose(dm.eigenvalues, [0.6, 0.3, 0.1])


def test_haar_unitary_is_unitary():
    rng = default_rng(7)
    for dim in (2, 5):
        u = haar_unitary(dim, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_stacked_haar_unitaries_match_one_by_one():
    # one stacked QR gives every unitary the bits of its own 2-D QR
    one, stacked = default_rng(70), default_rng(70)
    singles = [haar_unitary(dim, one) for dim in (4, 4, 4)]
    batch = haar_unitaries(stacked.standard_normal((3, 2, 4, 4)))
    for n, u in enumerate(singles):
        np.testing.assert_array_equal(batch[n], u)


def test_random_state_strictly_positive():
    rng = default_rng(8)
    for _ in range(100):
        dm = random_state(4, rng)
        assert dm.strictly_positive
        assert dm.eigenvalues[-1] > 0


def test_pair_overlaps_doubly_stochastic():
    rng = default_rng(9)
    for _ in range(50):
        pair = random_pair(int(rng.integers(2, 7)), rng)
        ov = pair.overlaps[0]
        assert np.all(ov >= -1e-15)
        np.testing.assert_allclose(ov.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(ov.sum(axis=1), 1.0, atol=1e-10)


def test_swapped_exchanges_roles():
    rng = default_rng(10)
    pair = random_pair(3, rng)
    rev = state_pair(pair.sigma[0], pair.rho[0])
    np.testing.assert_array_equal(rev.rho, pair.sigma)
    np.testing.assert_array_equal(rev.sigma, pair.rho)
    np.testing.assert_allclose(rev.overlaps[0], pair.overlaps[0].T, atol=1e-12)


def test_classical_pair_overlap_structure():
    rng = default_rng(11)
    shuffled = random_classical_pair(5, rng)
    ov = shuffled.overlaps[0]
    # permutation matrix: a single 1 per row and column
    np.testing.assert_allclose(np.sort(ov, axis=1)[:, :-1], 0.0, atol=1e-10)
    np.testing.assert_allclose(ov.max(axis=1), 1.0, atol=1e-10)
    s = summarize(shuffled)
    assert s.commutator_norm < 1e-10


def test_summarize_fields():
    pair = state_pair(np.diag([0.5, 0.5]), np.diag([0.75, 0.25]))
    s = summarize(pair)
    assert s.dim == 2
    assert s.lambda_rho == pytest.approx(0.5)
    assert s.lambda_sigma == pytest.approx(0.75)
    assert s.alpha_rho == pytest.approx(0.5)
    assert s.alpha_sigma == pytest.approx(0.25)
    assert s.alpha == pytest.approx(0.25)
    assert s.trace_distance_1 == pytest.approx(0.5)
    assert s.T == pytest.approx(0.25)
    assert s.commutator_norm == pytest.approx(0.0, abs=1e-14)


def test_summarize_alpha_is_min_positive_eigenvalue():
    # rank-deficient sigma: alpha_sigma skips the zero eigenvalue
    pair = example_pair(4)
    s = summarize(pair)
    assert s.alpha_sigma == pytest.approx(0.25)
    assert s.alpha_rho == pytest.approx(0.25)


def test_example_pair_trace_distance():
    for dim in range(3, 17):
        s = summarize(example_pair(dim))
        assert s.trace_distance_1 == pytest.approx(2.0 - 4.0 / dim, abs=1e-12)
    with pytest.raises(ValueError):
        example_pair(2)


def test_json_round_trip_exact(tmp_path):
    rng = default_rng(12)
    pair = random_pair(4, rng)
    path = tmp_path / "pair.json"
    save_pair(path, pair, seed=12, tags=["unit"])
    loaded = load_pair(path)
    # exact: repr-based float serialization loses nothing
    np.testing.assert_array_equal(loaded.rho, pair.rho)
    np.testing.assert_array_equal(loaded.sigma, pair.sigma)
    doc = json.loads(path.read_text())
    assert doc["seed"] == 12
    assert doc["tags"] == ["unit"]


def test_pair_dict_round_trip():
    rng = default_rng(13)
    pair = random_classical_pair(3, rng)
    again = pair_from_dict(pair_to_dict(pair))
    np.testing.assert_array_equal(again.rho, pair.rho)
    np.testing.assert_array_equal(again.sigma, pair.sigma)


class _FlatStream:
    """Stub generator whose first Gaussian matrix has a zero last row.

    standard_normal serves one fixed stream in order, whatever block shapes
    it is asked for, so a state drawn from the stub is rank-deficient first.
    """

    def __init__(self, dim, seed):
        self.stream = default_rng(seed).standard_normal(64 * dim * dim)
        self.stream.reshape(-1, dim, dim)[:2, -1, :] = 0.0  # real and imaginary parts
        self.used = 0

    def standard_normal(self, size):
        n = int(np.prod(size))
        out = self.stream[self.used:self.used + n].reshape(size)
        self.used += n
        return out.copy()


class _ZeroWeightFirst:
    """Stub generator: a real one whose first Dirichlet draw has a zero weight."""

    def __init__(self, seed):
        self.rng = default_rng(seed)
        self.dirichlet_calls = 0

    def dirichlet(self, alpha):
        self.dirichlet_calls += 1
        if self.dirichlet_calls == 1:
            return np.eye(len(alpha))[0]
        return self.rng.dirichlet(alpha)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class _ScriptedDirichlet:
    """Stub generator whose dirichlet returns the given vectors in turn."""

    def __init__(self, *draws):
        self.draws = [np.array(d) for d in draws]

    def dirichlet(self, alpha):
        return self.draws.pop(0)


def test_random_probabilities_floor_both_sides():
    floor = 1e-8
    at_floor, above = [floor, 1.0 - floor], [2 * floor, 1.0 - 2 * floor]
    # a draw with an entry at the floor is redrawn; one just above it is kept
    got = _random_probabilities(2, _ScriptedDirichlet(at_floor, above), floor)
    np.testing.assert_array_equal(got, above[::-1])
    got = _random_probabilities(2, _ScriptedDirichlet(above, at_floor), floor)
    np.testing.assert_array_equal(got, above[::-1])


def test_batch_sampler_continues_stream_after_rejection():
    dim = 3
    sequential, batched = _FlatStream(dim, 14), _FlatStream(dim, 14)
    rho = random_state(dim, sequential).matrix
    sigma = random_state(dim, sequential).matrix
    batch = random_pairs(dim, [batched])
    np.testing.assert_array_equal(batch.rho[0], rho)
    np.testing.assert_array_equal(batch.sigma[0], sigma)
    # the first draw was rejected: both paths consumed three Gaussian pairs
    assert sequential.used == batched.used == 3 * 2 * dim * dim


def test_classical_batch_sampler_continues_stream_after_rejection():
    dim = 4
    sequential, batched = _ZeroWeightFirst(15), _ZeroWeightFirst(15)
    # the per-trial draw order random_classical_pair has always used
    u = haar_unitary(dim, sequential)
    p = _random_probabilities(dim, sequential, ZERO_EIG_THRESHOLD)
    q = _random_probabilities(dim, sequential, ZERO_EIG_THRESHOLD)
    q = q[sequential.permutation(dim)]
    rho = density_matrix((u * p) @ u.conj().T).matrix
    sigma = density_matrix((u * q) @ u.conj().T).matrix
    batch = random_classical_pairs(dim, [batched])
    np.testing.assert_array_equal(batch.rho[0], rho)
    np.testing.assert_array_equal(batch.sigma[0], sigma)
    assert sequential.dirichlet_calls == batched.dirichlet_calls == 3


def test_pair_batch_matches_pairs_built_one_by_one():
    rng = default_rng(16)
    pairs = [random_pair(3, rng) for _ in range(5)]
    batch = pair_batch(np.concatenate([p.rho for p in pairs]),
                       np.concatenate([p.sigma for p in pairs]))
    assert len(batch) == 5 and batch.dim == 3
    for n, pair in enumerate(pairs):
        np.testing.assert_array_equal(batch.overlaps[n], pair.overlaps[0])
        np.testing.assert_array_equal(batch.rho_spectral.eigenvalues[n],
                                      pair.rho_spectral.eigenvalues[0])
        for column in states._COLUMNS:
            assert getattr(batch.summary, column)[n] == getattr(summarize(pair), column)
    with pytest.raises(ValueError):
        pair_batch(np.stack([np.eye(3), np.eye(3) / 3]), batch.sigma[:2])


def _off_hermitian(size):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = size  # max |A - A^dag| = size
    return m


@pytest.mark.parametrize("make, bound, message", [
    (_off_hermitian, HERMITICITY_TOL, "not Hermitian"),
    (lambda size: np.diag([0.5 + size, 0.5]), TRACE_TOL, "trace"),
    (lambda size: np.diag([1.0 - size, size]), EIGENVALUE_FLOOR, "negative eigenvalue"),
], ids=["HERMITICITY_TOL", "TRACE_TOL", "EIGENVALUE_FLOOR"])
def test_validation_threshold_both_sides(make, bound, message):
    good = np.diag([0.75, 0.25]).astype(complex)
    inside, outside = make(0.9 * bound), make(1.1 * bound)
    density_matrix(inside)
    pair_batch(np.stack([good, inside]), np.stack([good, good]))
    with pytest.raises(ValueError, match=message):
        density_matrix(outside)
    with pytest.raises(ValueError, match=message):
        pair_batch(np.stack([good, good]), np.stack([good, outside]))


def test_single_pair_constructors_return_a_batch_of_one(tmp_path):
    rng = default_rng(17)
    path = tmp_path / "pair.json"
    save_pair(path, random_pair(2, rng))
    pairs = [random_pair(3, rng), random_classical_pair(3, rng), example_pair(3),
             state_pair(np.diag([0.5, 0.5]), np.diag([0.75, 0.25])),
             pair_from_dict(pair_to_dict(random_pair(2, rng))), load_pair(path)]
    for pair in pairs:
        assert isinstance(pair, PairBatch) and len(pair) == 1
        assert pair.rho.shape == pair.sigma.shape == (1, pair.dim, pair.dim)
    with pytest.raises(ValueError, match="stack"):
        state_pair(np.eye(2)[np.newaxis] / 2, np.eye(2)[np.newaxis] / 2)


def test_state_pair_validates_as_density_matrix():
    # the same checks as density_matrix, through pair_batch
    good = np.diag([0.75, 0.25])
    for bad in (np.eye(2), np.diag([1.5, -0.5]), np.array([[0.5, 0.1], [0.0, 0.5]])):
        with pytest.raises(ValueError):
            density_matrix(bad)
        with pytest.raises(ValueError):
            state_pair(bad, good)
        with pytest.raises(ValueError):
            state_pair(good, bad)
    with pytest.raises(ValueError, match="dimension mismatch"):
        state_pair(good, np.eye(3) / 3)


@pytest.mark.parametrize("size", [0, 2])
def test_per_pair_functions_take_only_a_batch_of_one(size):
    batch = random_pairs(3, [default_rng(18), default_rng(19)])
    if size == 0:  # no pair_batch input builds an empty batch: cut one down
        batch = dataclasses.replace(batch, rho=batch.rho[:0])
    assert len(batch) == size
    w = random_functional(3, default_rng(18))
    for call in (lambda p: quasi_entropy_spectral(p, neg_log()),
                 lambda p: quasi_entropy_superoperator(p, neg_log()),
                 umegaki, lambda p: tsallis_direct(p, 0.5),
                 lambda p: sandwich(p, f=neg_log()), summarize,
                 lambda p: modular_weight_matrix(p, 1.0),
                 lambda p: functional_value(w, p), pair_to_dict):
        with pytest.raises(ValueError, match="batch of one"):
            call(batch)
    with pytest.raises(ValueError, match="batch of one"):
        batch.modular_spectrum


@pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
def test_double_stochastic_tolerance_both_sides(monkeypatch, scale, accepted):
    # eigh of a Hermitian matrix gives unitary eigenvectors to rounding, so
    # rho's first eigenvector is lengthened by hand: overlap column 0 then
    # sums to 1 + scale * DOUBLE_STOCHASTIC_TOL
    def stretched(a, **kwargs):
        vals, vecs = eigh(a, **kwargs)
        if a.shape[0] == 1 and not stretched.done:
            stretched.done = True
            vecs = vecs.copy()
            vecs[..., 0] *= np.sqrt(1.0 + scale * DOUBLE_STOCHASTIC_TOL)
        return EigenSystem(vals, vecs)

    stretched.done = False
    monkeypatch.setattr(states, "eigh", stretched)
    rho, sigma = np.diag([0.6, 0.3, 0.1]), np.diag([0.5, 0.3, 0.2])
    if accepted:
        pair = state_pair(rho, sigma)
        assert abs(pair.overlaps[0].sum(axis=0)[0] - 1.0) == pytest.approx(
            scale * DOUBLE_STOCHASTIC_TOL, rel=1e-4)
    else:
        with pytest.raises(ValueError, match="overlap column sums off"):
            state_pair(rho, sigma)
