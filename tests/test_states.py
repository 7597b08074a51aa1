"""State construction, sampling, summaries, and JSON round-trips."""

import dataclasses
import json

import numpy as np
import pytest

from quasirel import (
    default_rng,
    load_pair,
    neg_log,
    quasi_entropy_spectral,
    quasi_entropy_superoperator,
    sandwich,
    summarize,
    tsallis_direct,
    umegaki,
)
from quasirel import states
from quasirel.linalg import HERMITICITY_TOL, ZERO_EIG_THRESHOLD, EigenSystem, eigh, hermitian_part
from quasirel.states import (
    DOUBLE_STOCHASTIC_TOL,
    EIGENVALUE_FLOOR,
    TRACE_TOL,
    PairBatch,
    _dirichlet,
    _spectra_draw,
    _spectral_draws,
    density_matrix,
    example_pair,
    haar_unitaries,
    pair_batch,
    pair_from_dict,
    pair_to_dict,
    pcg64_states,
    random_classical_pairs,
    random_pairs,
    random_state,
    save_pair,
    state_pair,
    trial_streams,
)
from quasirel.sweeps import trial_pair
from scripted_streams import ScriptedStream, own_stream
from serial_search import haar_unitary as serial_haar_unitary


def test_density_matrix_validation():
    good = np.diag([0.75, 0.25])
    for bad in (np.eye(2), np.diag([1.5, -0.5])):  # trace 2, negative eigenvalue
        with pytest.raises(ValueError):
            density_matrix(bad)
        with pytest.raises(ValueError):
            density_matrix(np.stack([good, bad]))  # one bad state fails a stack
    mat, spectral = density_matrix(good)
    np.testing.assert_array_equal(mat, good)
    np.testing.assert_array_equal(spectral.eigenvalues, [0.75, 0.25])
    with pytest.raises(ValueError):
        mat[0, 0] = 9.0  # frozen
    stack, _ = density_matrix(np.stack([good, np.diag([1.0, 0.0])]))
    assert stack.shape == (2, 2, 2)
    with pytest.raises(ValueError):
        stack[1, 0, 0] = 9.0  # frozen


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_states_rejected(bad):
    # diagonal [nan, 0.5] once came back with eigenvalues [0.5, nan], and an
    # off-diagonal NaN pair with both eigenvalues NaN
    diagonal = np.diag([bad, 0.5])
    off_diagonal = np.array([[0.5, bad], [bad, 0.5]])
    good = np.diag([0.5, 0.5])
    for mat in (diagonal, off_diagonal):
        with pytest.raises(ValueError, match="non-finite entry"):
            density_matrix(mat)
        for rho, sigma in ((mat, good), (good, mat)):
            with pytest.raises(ValueError, match="non-finite entry"):
                state_pair(rho, sigma)


def test_eigenvalues_cached_descending():
    _, spectral = density_matrix(np.diag([0.1, 0.6, 0.3]))
    np.testing.assert_allclose(spectral.eigenvalues, [0.6, 0.3, 0.1])
    _, spectral = density_matrix(np.stack([np.diag([0.1, 0.6, 0.3]), np.diag([0.2, 0.3, 0.5])]))
    np.testing.assert_allclose(spectral.eigenvalues, [[0.6, 0.3, 0.1], [0.5, 0.3, 0.2]])


def test_haar_unitary_is_unitary():
    rng = default_rng(7)
    for dim in (2, 5):
        u = haar_unitaries(rng.standard_normal((2, dim, dim)))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_stacked_haar_unitaries_match_one_by_one():
    # one stacked QR gives every unitary the bits of its own 2-D QR
    one, stacked = default_rng(70), default_rng(70)
    singles = [serial_haar_unitary(dim, one) for dim in (4, 4, 4)]
    batch = haar_unitaries(stacked.standard_normal((3, 2, 4, 4)))
    for n, u in enumerate(singles):
        np.testing.assert_array_equal(batch[n], u)


def test_random_state_strictly_positive():
    rng = default_rng(8)
    for _ in range(100):
        mat = random_state(4, rng)
        assert not mat.flags.writeable
        _, spectral = density_matrix(mat)
        assert spectral.eigenvalues[-1] > ZERO_EIG_THRESHOLD


@pytest.mark.parametrize("sample", [
    lambda dim: random_state(dim, default_rng(8)),
    lambda dim: random_pairs(dim, trial_streams([8])).rho[0],
    lambda dim: random_classical_pairs(dim, trial_streams([8])).sigma[0],
], ids=["random_state", "random_pairs", "random_classical_pairs"])
def test_samplers_take_dimensions_from_1(sample):
    np.testing.assert_allclose(sample(1), [[1.0]], rtol=0.0, atol=TRACE_TOL)  # the one state
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        sample(0)


def test_pair_overlaps_doubly_stochastic():
    for trial in range(50):
        pair = trial_pair(9, 2 + trial % 5, trial)
        ov = pair.overlaps[0]
        assert np.all(ov >= -1e-15)
        np.testing.assert_allclose(ov.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(ov.sum(axis=1), 1.0, atol=1e-10)


def test_swapped_exchanges_roles():
    pair = random_pairs(3, trial_streams([10]))
    rev = state_pair(pair.sigma[0], pair.rho[0])
    np.testing.assert_array_equal(rev.rho, pair.sigma)
    np.testing.assert_array_equal(rev.sigma, pair.rho)
    np.testing.assert_allclose(rev.overlaps[0], pair.overlaps[0].T, atol=1e-12)


def test_classical_pair_overlap_structure():
    shuffled = random_classical_pairs(5, trial_streams([11]))
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
    pair = random_pairs(4, trial_streams([12]))
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
    pair = random_classical_pairs(3, trial_streams([13]))
    again = pair_from_dict(pair_to_dict(pair))
    np.testing.assert_array_equal(again.rho, pair.rho)
    np.testing.assert_array_equal(again.sigma, pair.sigma)


def _one_spectrum(rng, dim, floor):
    """One flat-Dirichlet spectrum at a time, as rng.dirichlet(np.ones(dim))
    computes it from dim exponentials (scaled by the inverse of their
    left-to-right sum), redrawn until every entry exceeds floor; descending."""
    while True:
        e = rng.standard_exponential(dim)
        acc = 0.0
        for x in e:
            acc += x
        p = e * (1.0 / acc)
        if p.min() > floor:
            return np.sort(p)[::-1]


def _stream_spectra(stream, dim, floor):
    """A stream's two spectra, through the stacked sampler's draw and floor check."""
    spectra, _ = _spectral_draws(
        own_stream(stream), lambda rng, floor=None: (_spectra_draw(rng, dim, floor),), floor)
    return spectra[0]


def test_random_probabilities_floor_both_sides():
    floor = 1e-8
    # each row sums to exactly 1, so it is its own spectrum
    at_floor = [floor, 1.0 - floor]
    above, above_too = [2 * floor, 1.0 - 2 * floor], [3 * floor, 1.0 - 3 * floor]
    # a row with an entry at the floor is passed over for the stream's next;
    # one just above it is kept, in either row of the first draw
    for rows in ((at_floor, above, above_too), (above, at_floor, above_too)):
        stream = ScriptedStream(exponentials=rows)
        np.testing.assert_array_equal(_stream_spectra(stream, 2, floor),
                                      [above[::-1], above_too[::-1]])
        assert stream.exponentials_used == 6


@pytest.mark.parametrize("dim", range(2, 17))
def test_exponential_spectra_match_dirichlet(dim):
    # np.sum would add pairwise from d = 8 and miss the last bit
    for seed in range(200):
        one, block = default_rng((seed, dim)), default_rng((seed, dim))
        expected = [one.dirichlet(np.ones(dim)) for _ in range(2)]
        np.testing.assert_array_equal(_dirichlet(_spectra_draw(block, dim)), expected)
        assert one.bit_generator.state == block.bit_generator.state


def test_batch_sampler_continues_stream_after_rejection():
    dim = 3
    normals = default_rng(14).standard_normal(64 * dim * dim)
    normals.reshape(-1, dim, dim)[:2, -1, :] = 0.0  # rho's first draw is rank-deficient
    sequential, batched = ScriptedStream(normals), ScriptedStream(normals)
    rho = random_state(dim, sequential)
    sigma = random_state(dim, sequential)
    batch = random_pairs(dim, own_stream(batched))
    np.testing.assert_array_equal(batch.rho[0], rho)
    np.testing.assert_array_equal(batch.sigma[0], sigma)
    # the first draw was rejected: both paths consumed three Gaussian pairs
    assert sequential.normals_used == batched.normals_used == 3 * 2 * dim * dim


def test_classical_batch_sampler_continues_stream_after_rejection():
    dim = 4
    exponentials = default_rng(15).standard_exponential(64)
    exponentials[0] = 0.0  # rho's first spectrum has a zero weight
    normals = default_rng(16).standard_normal(2 * dim * dim)
    sequential, batched = (ScriptedStream(normals, exponentials, seed=15) for _ in range(2))
    # the per-trial draw order the commuting sampler has always used
    u = haar_unitaries(sequential.standard_normal((2, dim, dim)))
    p = _one_spectrum(sequential, dim, ZERO_EIG_THRESHOLD)
    q = _one_spectrum(sequential, dim, ZERO_EIG_THRESHOLD)
    q = q[sequential.permutation(dim)]
    rho, _ = density_matrix((u * p) @ u.conj().T)
    sigma, _ = density_matrix((u * q) @ u.conj().T)
    batch = random_classical_pairs(dim, own_stream(batched))
    np.testing.assert_array_equal(batch.rho[0], rho)
    np.testing.assert_array_equal(batch.sigma[0], sigma)
    assert sequential.exponentials_used == batched.exponentials_used == 3 * dim
    assert sequential.state[2] == batched.state[2]  # the same permutation draws


def _keys(n, dim):
    return [(7001, 5, dim, trial) for trial in range(n)]


@pytest.mark.parametrize("kind", ["random", "classical"])
def test_keyed_batch_resumes_rejected_trial_streams(monkeypatch, kind):
    # a raised rank threshold rejects the first draws of some trials of a
    # keyed batch; each of them goes on with its own stream and ends where
    # one draw at a time from default_rng(key) does
    dim, threshold = 3, 0.05
    monkeypatch.setattr(states, "ZERO_EIG_THRESHOLD", threshold)
    keys = _keys(40, dim)
    sample = random_pairs if kind == "random" else random_classical_pairs
    batch = sample(dim, trial_streams(keys))
    rejected = 0
    for n, key in enumerate(keys):
        rng, first = default_rng(key), default_rng(key)
        if kind == "random":
            rho, sigma = random_state(dim, rng), random_state(dim, rng)
            first.standard_normal((2, 2, dim, dim))
        else:
            u = haar_unitaries(rng.standard_normal((2, dim, dim)))
            p = _one_spectrum(rng, dim, threshold)
            q = _one_spectrum(rng, dim, threshold)[rng.permutation(dim)]
            rho, sigma = (u * p) @ u.conj().T, (u * q) @ u.conj().T
            first.standard_normal((2, dim, dim))
            first.standard_exponential((2, dim))
            first.permutation(dim)
        # a trial drew past its first draws only if one of them was rejected
        rejected += rng.bit_generator.state != first.bit_generator.state
        np.testing.assert_array_equal(batch.rho[n], density_matrix(rho)[0])
        np.testing.assert_array_equal(batch.sigma[n], density_matrix(sigma)[0])
    assert 0 < rejected < len(keys)


def test_pcg64_states_match_seed_sequence():
    rng = default_rng(20)
    keys = rng.integers(0, 2 ** 32, (5000, 4))
    keys[:50, 1] = 0
    keys[50:100, 2] = 2 ** 32 - 1
    keys = [(0, 0, 0, 0), (2 ** 32 - 1,) * 4] + [tuple(int(v) for v in key) for key in keys]
    assert pcg64_states(keys) == [np.random.PCG64(key).state for key in keys]


def test_pcg64_states_of_keys_past_32_bits(monkeypatch):
    # 5- and 6-word entropy, alone and in one call with 4-word keys; the
    # first are the sweep and search keys of the held-out benchmark seed.
    # The array pass takes every list, however short.
    monkeypatch.setattr(states, "_ARRAY_SEEDING_MIN", 1)
    held_out = [(7001, 104729 * 100_000 + i, dim, trial)
                for i in range(3) for dim in (2, 9) for trial in (0, 24)]
    held_out += [(104729 * 100_000, dim, trial, 101) for dim, trial in ((3, 0), (6, 255))]
    wide = [(2 ** 32, 2 ** 33 + 5, 3, 4), (1, 2 ** 63 - 1, 2 ** 40, 7),
            (2 ** 62, 0, 2 ** 32 - 1, 1)]
    unsigned = [(2 ** 63 + 5, 2 ** 64 - 1, 2 ** 63, 2 ** 63)]  # a uint64 array
    for keys in (held_out, wide, unsigned, held_out + wide + unsigned + [(7001, 0, 3, 1)]):
        assert pcg64_states(keys) == [np.random.PCG64(key).state for key in keys]


@pytest.mark.parametrize("keys", [1, 8])
def test_pcg64_states_negative_entry_raises_as_default_rng(keys):
    with pytest.raises(ValueError) as expected:
        default_rng((7001, -1, 3, 0))
    with pytest.raises(ValueError) as got:
        pcg64_states([(7001, 0, 3, trial) for trial in range(keys - 1)] + [(7001, -1, 3, 0)])
    assert str(got.value) == str(expected.value)


def test_pcg64_states_of_few_keys():
    # below the array pass's size, and at it
    keys = _keys(states._ARRAY_SEEDING_MIN, 3)
    for n in (1, len(keys) - 1, len(keys)):
        assert pcg64_states(keys[:n]) == [np.random.PCG64(key).state for key in keys[:n]]


def test_trial_streams_draw_as_default_rng():
    keys = _keys(states._ARRAY_SEEDING_MIN, 4) + [(7001, 104729 * 100_000, 4, 0)]
    streams = trial_streams(keys)
    drawn = [rng.standard_normal(7) for rng in streams]
    for n, key in enumerate(keys):
        np.testing.assert_array_equal(drawn[n], default_rng(key).standard_normal(7))
    restarted = streams.take([len(keys) - 1, 0])
    for n, key in zip((0, 1), (keys[-1], keys[0])):
        np.testing.assert_array_equal(restarted.restart(n).standard_normal(3),
                                      default_rng(key).standard_normal(3))


@pytest.mark.parametrize("count", range(1, states._ARRAY_SEEDING_MIN))
def test_trial_streams_of_few_keys_draw_as_default_rng(count):
    # fewer keys than the array pass takes: the first key's own PCG64
    # drives the streams, and each stream ends where default_rng's does
    keys = _keys(count, 6)
    streams = trial_streams(keys)
    for n, rng in enumerate(streams):
        expected = default_rng(keys[n])
        assert rng.standard_normal(7).tobytes() == expected.standard_normal(7).tobytes()
        assert rng.bit_generator.state == expected.bit_generator.state
    assert streams.restart(0).random(3).tobytes() == default_rng(keys[0]).random(3).tobytes()


def test_pair_batch_rejects_empty_stacks():
    empty = np.empty((0, 3, 3))
    with pytest.raises(ValueError, match=r"expected at least one pair.*\(0, 3, 3\)"):
        pair_batch(empty, empty)


@pytest.mark.parametrize("dim", range(2, 17))
def test_commutator_norm_is_the_frobenius_norm_bit_for_bit(dim):
    # the summary sums |[rho, sigma]|^2 as np.linalg.norm does over the last two axes
    batch = random_pairs(dim, trial_streams([(dim, trial) for trial in range(9)]))
    product = batch.rho @ batch.sigma
    expected = np.linalg.norm(product - product.conj().swapaxes(-1, -2), axis=(-2, -1))
    assert batch.summary.commutator_norm.tobytes() == expected.tobytes()


def test_pair_batch_matches_pairs_built_one_by_one():
    pairs = [trial_pair(16, 3, trial) for trial in range(5)]
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
    path = tmp_path / "pair.json"
    save_pair(path, trial_pair(17, 2, 0))
    pairs = [trial_pair(17, 3, 0), trial_pair(17, 3, 0, "classical"), example_pair(3),
             state_pair(np.diag([0.5, 0.5]), np.diag([0.75, 0.25])),
             pair_from_dict(pair_to_dict(trial_pair(17, 2, 1))), load_pair(path)]
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
    # the pair counts differ: both shapes are named, before any validation
    mixed = np.eye(3) / 3
    with pytest.raises(ValueError, match=r"\(2, 3, 3\).*\(1, 3, 3\)"):
        pair_batch(np.stack([mixed, mixed]), mixed[np.newaxis])


@pytest.mark.parametrize("rho, sigma, column, value", [
    (np.diag([1 + 2e-12, -1e-12, -1e-12]), np.eye(3) / 3, "lambda_rho", 1 + 2e-12),
    (np.diag([1 + 1e-12, -1e-12]), np.diag([-1e-12, 1 + 1e-12]), "trace_distance_1", 2 + 4e-12),
], ids=["lambda_rho", "trace_distance_1"])
def test_summary_of_states_at_the_tolerances(rho, sigma, column, value):
    # each state passes density_matrix, so its pair has a summary, even
    # where rounding puts lambda_rho past 1 or the trace distance past 2
    for state in (rho, sigma):
        density_matrix(state)
    s = summarize(state_pair(rho, sigma))
    assert getattr(s, column) == pytest.approx(value, rel=0, abs=1e-15)
    assert 0 < s.alpha <= s.lambda_rho


@pytest.mark.parametrize("size", [0, 2])
def test_per_pair_functions_take_only_a_batch_of_one(size):
    batch = random_pairs(3, trial_streams([(18,), (19,)]))
    if size == 0:  # no pair_batch input builds an empty batch: cut one down
        batch = dataclasses.replace(batch, rho=batch.rho[:0])
    assert len(batch) == size
    for call in (lambda p: quasi_entropy_spectral(p, neg_log()),
                 lambda p: quasi_entropy_superoperator(p, neg_log()),
                 umegaki, lambda p: tsallis_direct(p, 0.5),
                 lambda p: sandwich(p, f=neg_log()), summarize, pair_to_dict):
        with pytest.raises(ValueError, match="batch of one"):
            call(batch)


@pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
def test_double_stochastic_tolerance_both_sides(monkeypatch, scale, accepted):
    # eigh of a Hermitian matrix gives unitary eigenvectors to rounding, so
    # rho's first eigenvector is lengthened by hand: overlap column 0 then
    # sums to 1 + scale * DOUBLE_STOCHASTIC_TOL. pair_batch diagonalizes
    # rho and sigma as one joined stack, rho's state first.
    def stretched(a):
        vals, vecs = eigh(a)
        if a.shape[0] == 2 and not stretched.done:
            stretched.done = True
            vecs = vecs.copy()
            vecs[0, :, 0] *= np.sqrt(1.0 + scale * DOUBLE_STOCHASTIC_TOL)
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


@pytest.mark.parametrize("kind", ["random", "classical"])
def test_modular_half_power_is_exactly_hermitian(monkeypatch, kind):
    # eigh decomposes the half power modular_spectrum gives it as it is:
    # hermitian_part returns the same bytes, so validating it moves no bit
    halves = []

    def recording(a):
        halves.append(a)
        return eigh(a)

    monkeypatch.setattr(states, "eigh", recording)
    for dim in range(2, 9):
        halves.clear()
        trial_pair(5, dim, 0, kind).modular_spectrum
        (half,) = [a for a in halves if a.shape[-1] == dim * dim]
        assert hermitian_part(half).tobytes() == half.tobytes()
