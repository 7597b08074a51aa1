"""Weighted overlap functionals, proven cases, counterexample search."""

import dataclasses
import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirel import (
    conjecture_search,
    default_rng,
    proven_case_check,
    random_functional,
    save_record,
)
from quasirel import conjecture
from quasirel.conjecture import (
    PROVEN_SLACK,
    SPECTRUM_FLOOR,
    VIOLATION_THRESHOLD,
    WeightedOverlapFunctional,
    _InstanceDraw,
    _Instances,
    _jitter,
    _modular_weights,
    _random_instances,
    _rotations,
    _sum_formula,
)
from quasirel import states
from quasirel.linalg import ZERO_EIG_THRESHOLD, dagger
from quasirel.states import (_spectra_draw, _spectral_draws, random_pairs, state_pair,
                             trial_streams)
from quasirel.sweeps import trial_pair
from nussbaum_szkola import ns_distance
from scripted_streams import EndStates, ScriptedStream, own_stream
from serial_search import Instance as SerialInstance
from serial_search import _unitary_jitter as serial_unitary_jitter
from serial_search import haar_unitary as serial_haar_unitary, serial_search, trace_norm


def _aligned_functional(pair, rng, cap=1.0):
    dim = pair.dim
    return WeightedOverlapFunctional(
        rng.uniform(0.0, cap, size=(dim, dim)),
        cap,
        pair.rho_spectral.eigenvectors[0],
        pair.sigma_spectral.eigenvectors[0],
    )


def _drawn_instances(dim, count, weight_mode, commuting, seed):
    """count search instances of one dimension, drawn as conjecture_search draws them."""
    floor = ZERO_EIG_THRESHOLD if commuting else SPECTRUM_FLOOR
    return _random_instances(trial_streams([(seed, dim, n) for n in range(count)]),
                             _InstanceDraw(count, dim, weight_mode, commuting), floor)


def _explicit_ratios(insts):
    """Each instance's |Tr(D(rho - sigma))| / (cap ||rho - sigma||_1) with D
    the explicit matrix of WeightedOverlapFunctional.d_matrix, the route
    proven_case_check takes, and not the eigenvalue sum ratios() takes."""
    ratios = []
    for lam, mu, u_psi, u_phi, w in zip(*insts):
        c, cap = (w, 1.0) if w.ndim else _modular_weights(lam, mu, w)
        d = WeightedOverlapFunctional(c, float(cap), u_psi, u_phi).d_matrix()
        x = (u_psi * lam) @ u_psi.conj().T - (u_phi * mu) @ u_phi.conj().T
        ratios.append(abs(complex(np.trace(d @ x))) / (cap * trace_norm(x)))
    return np.array(ratios)


def test_weight_validation():
    rng = default_rng(50)
    u, v = serial_haar_unitary(3, rng), serial_haar_unitary(3, rng)
    with pytest.raises(ValueError):
        WeightedOverlapFunctional(np.full((3, 3), 2.0), 1.0, u, v)
    with pytest.raises(ValueError):
        WeightedOverlapFunctional(np.full((3, 3), -0.5), 1.0, u, v)


@pytest.mark.parametrize("weight, cap, message", [
    (np.nan, 1.0, "weights"),
    (0.5, np.nan, "cap"),
    (np.inf, np.inf, "cap"),
    (0.5, np.inf, "cap"),
])
def test_weight_validation_rejects_nan_and_infinity(weight, cap, message):
    # a range check that rejects when a comparison holds passes a NaN, and
    # an infinite cap admits infinite weights
    eye = np.eye(2, dtype=complex)
    c = np.full((2, 2), 0.5)
    c[1, 0] = weight
    with pytest.raises(ValueError, match=message):
        WeightedOverlapFunctional(c, cap, eye, eye)


def test_random_functional_draw_order():
    # weights first, then the two bases, as two serial Haar draws would give them
    rng, serial = default_rng(49), default_rng(49)
    w = random_functional(4, rng, cap=2.0)
    np.testing.assert_array_equal(w.c_entries, serial.uniform(0.0, 2.0, size=(4, 4)))
    np.testing.assert_array_equal(w.basis_psi, serial_haar_unitary(4, serial))
    np.testing.assert_array_equal(w.basis_phi, serial_haar_unitary(4, serial))


@pytest.mark.parametrize("dim", range(2, 7))
@pytest.mark.parametrize("cap", [0.0, 0.2, 1.0, 3.0, "drawn"])
def test_random_functional_weights_are_uniform_draws(dim, cap):
    # cap * rng.random draws rng.uniform(0, cap)'s bits and leaves the stream
    # where uniform does; "drawn" is criterion 5's cap, drawn from the stream
    rng, serial = default_rng((49, dim)), default_rng((49, dim))
    if cap == "drawn":
        cap = float(rng.uniform(0.2, 3.0))
        assert float(serial.uniform(0.2, 3.0)) == cap
    w = random_functional(dim, rng, cap=cap)
    assert w.c_entries.tobytes() == serial.uniform(0.0, cap, size=(dim, dim)).tobytes()
    serial.standard_normal((2, 2, dim, dim))
    assert rng.bit_generator.state == serial.bit_generator.state


def test_weight_shape_must_match_the_bases():
    eye = np.eye(3, dtype=complex)
    for c in (np.full((2, 3), 0.5), np.full((3, 3, 1), 0.5)):
        with pytest.raises(ValueError, match=r"weights of shape .* beside bases"):
            WeightedOverlapFunctional(c, 1.0, eye, eye)
    with pytest.raises(ValueError, match=r"weights of shape .* beside bases"):
        WeightedOverlapFunctional(np.full((3, 3), 0.5), 1.0, eye, np.eye(2))


def test_proven_case_check_names_a_shape_mismatch():
    w = random_functional(3, default_rng(59))
    for case in ("diagonal", "qubit_traceless"):
        with pytest.raises(ValueError, match=r"X has shape \(2, 2\).*\(3, 3\)"):
            proven_case_check(w, np.eye(2), case)


def test_functional_value_dual_paths_agree():
    # the ratios the search scores, from the eigenvalue sum, against the
    # explicit D matrix, for every weight mode and pair kind the search draws
    for dim in range(2, 9):
        for weight_mode in ("uniform", "modular"):
            for commuting in (False, True):
                insts = _drawn_instances(dim, 32, weight_mode, commuting, seed=51)
                np.testing.assert_allclose(insts.ratios(), _explicit_ratios(insts),
                                           rtol=0.0, atol=1e-10)


def test_functional_vanishes_at_equal_states():
    # sigma = rho: the eigenvalue sum vanishes, and ratios reads 0 there
    for weight_mode in ("uniform", "modular"):
        insts = _drawn_instances(4, 8, weight_mode, False, seed=53)
        lam, u = insts.lam, insts.u_psi
        np.testing.assert_array_equal(insts._replace(mu=lam, u_phi=u).ratios(), 0.0)
        c = insts.w if weight_mode == "uniform" else _modular_weights(lam, lam, insts.w)[0]
        overlaps = np.abs(dagger(u) @ u) ** 2
        assert np.max(np.abs(_sum_formula(c, lam, lam, overlaps))) < 1e-12


def test_d_matrix_shape_and_trace_identity():
    # in the pair's own eigenbases,
    # Tr(D(rho - sigma)) = sum_kj C_kj (lam_j - mu_k) |<phi_k|psi_j>|^2
    rng = default_rng(54)
    pair = trial_pair(54, 3, 0)
    w = _aligned_functional(pair, rng)
    d = w.d_matrix()
    assert d.shape == (3, 3)
    lam, mu = pair.rho_spectral.eigenvalues[0], pair.sigma_spectral.eigenvalues[0]
    total = sum(w.c_entries[k, j] * (lam[j] - mu[k])
                * abs(np.vdot(w.basis_phi[:, k], w.basis_psi[:, j])) ** 2
                for k in range(3) for j in range(3))
    direct = complex(np.trace(d @ (pair.rho[0] - pair.sigma[0])))
    assert direct == pytest.approx(total, abs=1e-12)


def test_proven_diagonal_case_holds():
    rng = default_rng(55)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        w = random_functional(dim, rng, cap=float(rng.uniform(0.2, 3.0)))
        basis = w.basis_psi if rng.uniform() < 0.5 else w.basis_phi
        x = basis @ np.diag(rng.standard_normal(dim)) @ basis.conj().T
        assert proven_case_check(w, x, "diagonal")


def test_proven_qubit_traceless_case_holds():
    rng = default_rng(56)
    for _ in range(200):
        w = random_functional(2, rng)
        a = float(rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        x = np.array([[a, b], [np.conj(b), -a]])
        assert proven_case_check(w, x, "qubit_traceless")


def test_proven_case_hypothesis_violations_raise():
    rng = default_rng(57)
    w = random_functional(3, rng)
    off_diagonal = np.array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex
    )
    with pytest.raises(ValueError):
        proven_case_check(w, off_diagonal, "diagonal")
    w2 = random_functional(2, rng)
    with pytest.raises(ValueError):
        proven_case_check(w2, np.eye(2), "qubit_traceless")  # traceful
    with pytest.raises(ValueError):
        proven_case_check(w, np.zeros((3, 3)), "qubit_traceless")  # wrong dim
    with pytest.raises(ValueError):
        proven_case_check(w2, np.diag([1.0, -1.0]), "qubit")  # unknown case


@pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
def test_proven_case_gates_both_sides(scale, accepted):
    # in the identity bases, X is diagonal up to its off-diagonal entry; a
    # 2x2 diag(t, 0) has trace t exactly
    eye = np.eye(2, dtype=complex)
    w = WeightedOverlapFunctional(np.full((2, 2), 0.5), 1.0, eye, eye)
    gates = [("diagonal", np.array([[0.3, scale * 1e-10], [scale * 1e-10, -0.2]]),
              "not diagonal in either basis"),
             ("qubit_traceless", np.diag([scale * 1e-12, 0.0]), "not traceless")]
    for case, x, message in gates:
        if accepted:
            assert proven_case_check(w, x, case)
        else:
            with pytest.raises(ValueError, match=message):
                proven_case_check(w, x, case)


def test_modular_weights_structure():
    pair = random_pairs(4, trial_streams([58]))
    lam, mu = pair.rho_spectral.eigenvalues[0], pair.sigma_spectral.eigenvalues[0]
    c, cap = _modular_weights(lam, mu, 0.7)
    assert np.max(c) == pytest.approx(cap, rel=1e-12)
    assert c[3, 0] == pytest.approx(1.0 / (0.7 + mu[3] / lam[0]))


def test_random_search_record_fields():
    record = conjecture_search((3, 4), trials=60, strategy="random", seed=99)
    assert record.trial_count == 60
    assert record.dims == (3, 4)
    assert record.strategy == "random"
    assert record.weight_mode == "uniform"
    assert 0.0 < record.max_ratio
    assert record.argmax_instance["ratio"] == record.max_ratio
    if record.max_ratio <= VIOLATION_THRESHOLD:
        assert record.violations == ()


def test_search_is_deterministic():
    kwargs = dict(dims=(3,), trials=40, strategy="random", seed=7)
    assert conjecture_search(**kwargs).to_json() == conjecture_search(**kwargs).to_json()
    climb = dict(dims=(3,), trials=3, strategy="hill_climb", seed=7,
                 steps_per_restart=40, plateau=10)
    assert conjecture_search(**climb).to_json() == conjecture_search(**climb).to_json()


def test_hill_climb_record_fields():
    record = conjecture_search((3,), trials=4, strategy="hill_climb", seed=11,
                               steps_per_restart=60, plateau=15)
    assert record.strategy == "hill_climb"
    assert record.trial_count == 4  # restarts
    assert record.argmax_instance["ratio"] == record.max_ratio
    assert 0.0 < record.max_ratio


def test_commuting_search_stays_below_threshold():
    record = conjecture_search((4,), trials=300, strategy="random", seed=13,
                               commuting=True)
    assert record.max_ratio <= VIOLATION_THRESHOLD
    assert record.commuting
    record2 = conjecture_search((2,), trials=300, strategy="random", seed=13)
    assert record2.max_ratio <= VIOLATION_THRESHOLD


def test_modular_weight_search_runs():
    record = conjecture_search((3,), trials=50, strategy="random", seed=17,
                               weight_mode="modular")
    assert record.weight_mode == "modular"
    assert record.argmax_instance["t"] is not None


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        conjecture_search((), trials=1, strategy="random", seed=0)
    with pytest.raises(ValueError):
        conjecture_search((1,), trials=1, strategy="random", seed=0)
    with pytest.raises(ValueError):
        conjecture_search((3,), trials=1, strategy="annealing", seed=0)
    with pytest.raises(ValueError):
        conjecture_search((3,), trials=1, strategy="random", seed=0,
                          weight_mode="gaussian")


@pytest.mark.parametrize("strategy", ["random", "hill_climb"])
@pytest.mark.parametrize("weight_mode,commuting", [
    ("uniform", False), ("modular", False), ("uniform", True), ("modular", True)])
def test_record_round_trips_and_replays(tmp_path, strategy, weight_mode, commuting):
    record = conjecture_search((3, 4, 5), trials=90 if strategy == "random" else 6,
                               strategy=strategy, seed=23, weight_mode=weight_mode,
                               commuting=commuting, steps_per_restart=60)
    path = tmp_path / "record.json"
    save_record(path, record)
    doc = json.loads(path.read_text())
    assert doc["max_ratio"] == record.max_ratio
    inst = doc["argmax_instance"]
    rho = np.array([[complex(re, im) for re, im in row] for row in inst["rho"]])
    sigma = np.array([[complex(re, im) for re, im in row] for row in inst["sigma"]])
    # replayed on the explicit D matrix in the pair's own eigenbases, with
    # the record's weights or C_kj = 1 / (t + mu_k / lam_j) and its cap
    pair = state_pair(rho, sigma)
    lam, mu = pair.rho_spectral.eigenvalues[0], pair.sigma_spectral.eigenvalues[0]
    if weight_mode == "modular":
        assert "c_entries" not in inst
        t = inst["t"]
        c, cap = 1.0 / (t + mu[:, np.newaxis] / lam), 1.0 / (t + mu.min() / lam.max())
    else:
        assert inst["t"] is None
        c, cap = np.array(inst["c_entries"]), 1.0
    d = WeightedOverlapFunctional(c, cap, pair.rho_spectral.eigenvectors[0],
                                  pair.sigma_spectral.eigenvectors[0]).d_matrix()
    value = abs(complex(np.trace(d @ (rho - sigma))))
    assert value / (cap * trace_norm(rho - sigma)) == pytest.approx(record.max_ratio, rel=1e-12)


# ---------------------------------------------------------------------------
# The batched search against the serial oracle in tests/serial_search.py.
# Lowering the violation threshold to 0 records every trial and restart with
# its full instance, so equal JSON means every ratio and instance is equal.

def _same_records(monkeypatch, **kwargs):
    monkeypatch.setattr(conjecture, "VIOLATION_THRESHOLD", 0.0)
    batched = conjecture_search(**kwargs)
    assert len(batched.violations) == batched.trial_count
    assert batched.to_json() == serial_search(**kwargs).to_json()


@pytest.mark.parametrize("weight_mode,commuting", [
    ("uniform", False), ("modular", False), ("uniform", True), ("modular", True)])
def test_random_search_matches_serial_oracle(monkeypatch, weight_mode, commuting):
    # more trials than one trial block, over dims that include 2 and 8
    _same_records(monkeypatch, dims=(2, 5, 8, 3), trials=2 * conjecture._TRIAL_BLOCK + 3,
                  strategy="random", seed=41, weight_mode=weight_mode,
                  commuting=commuting)


@pytest.mark.parametrize("weight_mode,commuting", [
    ("uniform", False), ("modular", False), ("uniform", True), ("modular", True)])
def test_hill_climb_matches_serial_oracle(monkeypatch, weight_mode, commuting):
    # the default climb settings, which the CLI and criterion 6 use
    _same_records(monkeypatch, dims=(2, 3, 4), trials=4, strategy="hill_climb",
                  seed=42, weight_mode=weight_mode, commuting=commuting)


@pytest.mark.parametrize("weight_mode,commuting", [
    ("uniform", False), ("modular", False), ("uniform", True), ("modular", True)])
def test_second_objective_climbs_alike_in_both_searches(monkeypatch, weight_mode, commuting):
    # the climb sees the objective only through ratios: swapping in another
    # one, lambda_max(rho) * mu_min(sigma), leaves the two searches equal
    monkeypatch.setattr(conjecture._Instances, "ratios",
                        lambda self: self.lam[:, 0] * self.mu[:, -1])
    monkeypatch.setattr(SerialInstance, "ratio", lambda self: float(self.lam[0] * self.mu[-1]))
    _same_records(monkeypatch, dims=(2, 3, 4), trials=4, strategy="hill_climb",
                  seed=45, weight_mode=weight_mode, commuting=commuting)


# enough trials or restarts for the array seeding pass
@pytest.mark.parametrize("strategy,trials", [("random", 40), ("hill_climb", 9)])
@pytest.mark.parametrize("weight_mode,commuting", [
    ("uniform", False), ("modular", False), ("uniform", True), ("modular", True)])
def test_search_matches_serial_oracle_at_seeds_past_32_bits(monkeypatch, strategy, trials,
                                                            weight_mode, commuting):
    # a seed of 2^32 or more makes 5-word keys, as the held-out benchmark seed does
    _same_records(monkeypatch, dims=(2, 3, 5), trials=trials, strategy=strategy,
                  seed=104729 * 100_000 + 3, weight_mode=weight_mode, commuting=commuting,
                  steps_per_restart=40)


def test_hill_climb_matches_oracle_across_draw_blocks(monkeypatch):
    # a plateau as long as the climb keeps every restart running past
    # several blocks of drawn-ahead steps
    steps = 2 * conjecture._DRAW_STEPS + 7
    _same_records(monkeypatch, dims=(3, 9), trials=2, strategy="hill_climb",
                  seed=43, steps_per_restart=steps, plateau=steps)


@pytest.mark.parametrize("steps,plateau", [(40, 1), (0, 30), (1, 1), (25, 2)])
def test_hill_climb_matches_oracle_at_edges(monkeypatch, steps, plateau):
    _same_records(monkeypatch, dims=(3, 4), trials=3, strategy="hill_climb",
                  seed=44, steps_per_restart=steps, plateau=plateau)


@pytest.mark.parametrize("first_round", [1, 3, 64])
@pytest.mark.parametrize("draw_steps", [1, 5, 256])
@pytest.mark.parametrize("weight_mode,commuting", [
    ("uniform", False), ("modular", False), ("uniform", True), ("modular", True)])
def test_climb_schedule_is_exact_for_any_round_size(monkeypatch, first_round, draw_steps,
                                                    weight_mode, commuting):
    # rounds of one candidate, of an odd count, and of more than the plateau
    # allows; steps drawn one, five and more than a restart takes at a time
    monkeypatch.setattr(conjecture, "_FIRST_ROUND", first_round)
    monkeypatch.setattr(conjecture, "_DRAW_STEPS", draw_steps)
    _same_records(monkeypatch, dims=(2, 3, 4), trials=3, strategy="hill_climb", seed=46,
                  weight_mode=weight_mode, commuting=commuting)


def _one_instance_at_a_time(key, dim, weight_mode, commuting, floor):
    """The draws of key's search instance, one array at a time from
    default_rng(key) in stream order, as the stacks hold them; the count of
    exponential rows passed over, and the generator where the draws end."""
    rng = default_rng(key)
    draws, rows, passed = {}, [], 0

    def spectra():
        nonlocal passed
        while len(rows) < 2:
            e = rng.standard_exponential(dim)
            if (e * (1.0 / np.cumsum(e)[-1])).min() > floor:
                rows.append(e)
            else:
                passed += 1
        return np.array(rows)

    if commuting:
        draws["z"] = rng.standard_normal((2, dim, dim))
        draws["e"] = spectra()
        draws["perm"] = rng.permutation(dim)
    else:
        draws["e"] = spectra()
        draws["z"] = rng.standard_normal((2, 2, dim, dim))
    if weight_mode == "uniform":
        draws["w"] = rng.uniform(0.0, 1.0, (dim, dim))
    else:
        draws["w"] = np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))
    return draws, passed, rng


# 7 keys are seeded by PCG64 itself, 8 by the array pass
@pytest.mark.parametrize("count", [7, 8])
@pytest.mark.parametrize("weight_mode,commuting", [
    ("uniform", False), ("modular", False), ("uniform", True), ("modular", True)])
def test_in_place_instance_draws_match_default_rng(weight_mode, commuting, count):
    # a raised floor passes over some spectra, so their trials are drawn
    # again from their restarted streams; every trial's draws still land in
    # its rows of the stacks, and its stream ends, as one at a time
    assert 7 < states._ARRAY_SEEDING_MIN <= 8
    dim, floor = 3, 0.05
    keys = [(48, count, dim, trial) for trial in range(count)]
    draw = _InstanceDraw(count, dim, weight_mode, commuting)
    streams = EndStates(keys)
    insts = _random_instances(streams, draw, floor)
    ends = streams.end_states()
    stacks = {"e": draw.e, "w": draw.w}
    stacks.update({"z": draw.pair.z, "perm": draw.pair.perm} if commuting else {"z": draw.z})
    passed = 0
    for n, key in enumerate(keys):
        expected, over, rng = _one_instance_at_a_time(key, dim, weight_mode, commuting, floor)
        passed += over
        for name, stack in stacks.items():
            assert stack[n].tobytes() == np.asarray(expected[name]).tobytes(), name
        assert ends[n] == rng.bit_generator.state
    assert passed > 0
    assert (np.minimum(insts.lam, insts.mu).min(axis=-1) > floor).all()


@pytest.mark.parametrize("strategy,violations", [
    ("random", False), ("hill_climb", False), ("random", True)])
def test_record_json_is_json_dumps_of_asdict(monkeypatch, strategy, violations):
    # to_json skips asdict's deep copy and keeps its bytes
    if violations:
        monkeypatch.setattr(conjecture, "VIOLATION_THRESHOLD", 0.0)
    record = conjecture_search((3, 4), 40 if strategy == "random" else 3, strategy, seed=49,
                               steps_per_restart=40)
    assert len(record.violations) == (record.trial_count if violations else 0)
    assert record.to_json() == json.dumps(dataclasses.asdict(record), indent=1)


def test_search_argument_bounds():
    base = dict(dims=(3,), strategy="hill_climb", seed=0, steps_per_restart=2)
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -0.05):
        with pytest.raises(ValueError, match="step"):
            conjecture_search(trials=1, step=bad, **base)
    with pytest.raises(ValueError, match="steps"):
        conjecture_search(trials=1, **{**base, "steps_per_restart": -1})
    with pytest.raises(ValueError, match="plateau"):
        conjecture_search(trials=1, plateau=0, **base)
    with pytest.raises(ValueError, match="trials"):
        conjecture_search(trials=0, **base)
    # values just inside every bound are accepted
    conjecture_search(trials=1, step=1e-300, **base)
    conjecture_search(trials=1, **{**base, "steps_per_restart": 0})
    conjecture_search(trials=1, plateau=1, **base)
    assert conjecture_search((3,), 1, "random", seed=0).argmax_instance["trial"] == 0


@pytest.mark.parametrize("scale, holds", [(0.9, True), (1.1, False)])
def test_proven_slack_both_sides(scale, holds):
    # weights may pass the cap by 1e-12, so with D = (1 + 1e-12) I the
    # inequality |Tr(DX)| <= ||X||_1 misses by 1e-12 ||X||_1 for a positive
    # diagonal X; ||X||_1 puts that miss at scale * PROVEN_SLACK
    eye = np.eye(2, dtype=complex)
    w = WeightedOverlapFunctional(np.full((2, 2), 1.0 + 1e-12), 1.0, eye, eye)
    x = np.diag([0.5, 0.5]) * scale * PROVEN_SLACK / 1e-12
    assert proven_case_check(w, x, "diagonal") is holds


def test_spectrum_floor_both_sides():
    # drawn spectra: an entry at 0.9 * SPECTRUM_FLOOR is passed over, one at 1.1x kept
    low, high = 0.9 * SPECTRUM_FLOOR, 1.1 * SPECTRUM_FLOOR
    rng = ScriptedStream(exponentials=[[low, 1.0 - low], [high, 1.0 - high], [high, 1.0 - high]])
    e = np.empty((1, 2, 2))
    spectra = _spectral_draws(
        own_stream(rng), lambda rng, n, floor=None: _spectra_draw(rng, e[n], floor), e,
        SPECTRUM_FLOOR)
    np.testing.assert_array_equal(spectra[0], [[1.0 - high, high]] * 2)
    assert rng.exponentials_used == rng.exponentials.size
    # jittered spectra: a bump to 0.9x is clipped up to the floor, one to 1.1x is kept
    inst = _Instances(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
                      np.eye(2)[np.newaxis], np.eye(2)[np.newaxis], np.array([1.0]))
    z = np.zeros((2, 1 + 4 + 16))
    z[0, 2], z[1, 2] = low - 0.5, high - 0.5  # lam[1] moves to low, then to high
    stepped = _jitter(inst, 1.0, z, np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2, 2)), None)
    kept = np.array([SPECTRUM_FLOOR, high])
    np.testing.assert_allclose(stepped.lam[:, 1], kept / (0.5 + kept), rtol=1e-6)


# ---------------------------------------------------------------------------
# Climb rotations, built once per drawn step.

def _rotations_one_at_a_time(z, step, d, rotated):
    """Each row's rotations as the serial oracle builds them: np.linalg.norm
    and a 2-D eigh per matrix, applied to the identity."""
    out = np.empty((len(z), rotated, d, d), dtype=complex)
    for row, normals in enumerate(z):
        stream = ScriptedStream(normals=normals[normals.size - 4 * d * d:])
        for r in range(rotated):
            out[row, r] = serial_unitary_jitter(np.eye(d), step, stream)
    return out


@pytest.mark.parametrize("d", range(2, 10))
@pytest.mark.parametrize("k", [1, 7, 32])
@pytest.mark.parametrize("rotated", [1, 2])
def test_rotations_keep_their_bits(d, k, rotated):
    # rows as the climb draws them: weight and spectrum bumps first
    z = default_rng((d, k, rotated)).standard_normal((k, d * d + 2 * d + 4 * d * d))
    np.testing.assert_array_equal(_rotations(z, 0.05, d, rotated),
                                  _rotations_one_at_a_time(z, 0.05, d, rotated))


def test_rotation_norm_floor_both_sides():
    d = 3
    z = default_rng(7).standard_normal((2, 4 * d * d))
    # under the floor: H = 0 leaves the basis where it is, with no 0/0
    z[0] = 0.0
    with np.errstate(all="raise"):
        rot = _rotations(z, 0.05, d, 2)
    assert np.all(np.isfinite(rot))
    np.testing.assert_allclose(rot[0], np.broadcast_to(np.eye(d), (2, d, d)), rtol=0, atol=1e-15)
    # above it: normals scaled by 2^-500 (||H||_F near 7e-151, every square
    # still a normal double) are normalized to the same H, bit for bit
    tiny = z[1:] * 2.0 ** -500
    assert np.min(np.abs(tiny)) ** 2 > np.finfo(float).tiny
    np.testing.assert_array_equal(_rotations(tiny, 0.05, d, 2), rot[1:])


# 45 ulps of 1/2 put ||rho - sigma||_1 just below 1e-14, 46 just above
@pytest.mark.parametrize("ulps, equal", [(45, True), (46, False)])
def test_equal_states_guard_both_sides(ulps, equal):
    # identity bases, spectra (1/2 + eps, 1/2 - eps) against (1/2, 1/2): on
    # the ulp grid of 1/2 both are exact, and ||rho - sigma||_1 = 2 eps
    ulp = np.spacing(0.5)
    assert 2 * 45 * ulp < 1e-14 < 2 * 46 * ulp
    eps = ulps * ulp
    eye = np.eye(2)[np.newaxis]
    inst = _Instances(np.array([[0.5 + eps, 0.5 - eps]]), np.array([[0.5, 0.5]]), eye, eye,
                      np.array([[[1.0, 0.0], [0.0, 0.0]]]))
    ratio = inst.ratios()[0]
    if equal:
        assert ratio == 0.0
    else:
        assert ratio == pytest.approx(0.5, rel=1e-12)  # only C_00 weighs in: eps / (2 eps)


def test_drawn_step_rotation_is_built_once(monkeypatch):
    # per restart: the stream state at the climb's start, the rows handed to
    # the rotation builder and the candidates scored
    restarts, climbing = [], []
    real_climb, real_rotations, real_ratios = (
        conjecture._climb, conjecture._rotations, _Instances.ratios)

    def climb(inst, ratio, rng, *args):
        restarts.append({"state": rng.bit_generator.state, "built": [], "scored": 0})
        climbing.append(restarts[-1])
        try:
            return real_climb(inst, ratio, rng, *args)
        finally:
            climbing.pop()

    def rotations(z, *args):
        climbing[-1]["built"].append(z.copy())
        return real_rotations(z, *args)

    def ratios(self):
        for restart in climbing:
            restart["scored"] += len(self.lam)
        return real_ratios(self)

    monkeypatch.setattr(conjecture, "_climb", climb)
    monkeypatch.setattr(conjecture, "_rotations", rotations)
    monkeypatch.setattr(_Instances, "ratios", ratios)
    steps = 200
    conjecture_search((3, 4), 3, "hill_climb", seed=44, steps_per_restart=steps)
    assert len(restarts) == 3
    for restart in restarts:
        built = np.concatenate(restart["built"])
        # the rows built are the rows the restart drew, in stream order, once each
        stream = np.random.Generator(np.random.PCG64())
        stream.bit_generator.state = restart["state"]
        np.testing.assert_array_equal(built, stream.standard_normal(built.shape))
        assert len(built) <= steps
    # rounds score steps again after an accepted step; they build none again
    assert sum(len(np.concatenate(r["built"])) for r in restarts) < sum(
        r["scored"] for r in restarts)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 10), weight_mode=st.sampled_from(["uniform", "modular"]),
       commuting=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_search_ratio_is_under_half_the_ns_distance_and_its_cap(dim, weight_mode, commuting,
                                                                 seed):
    # ratio <= 1/2 ||P - Q||_1 / ||rho - sigma||_1 <= 1/2 sqrt(d/2) (see
    # nussbaum_szkola), each to 1e-12: the search's inequality holds for
    # d <= 8 with the pair's own eigenbases, and at 1/2 on commuting pairs
    insts = _drawn_instances(dim, 16, weight_mode, commuting, seed)
    overlaps = np.abs(dagger(insts.u_phi) @ insts.u_psi) ** 2
    rho = (insts.u_psi * insts.lam[:, np.newaxis, :]) @ dagger(insts.u_psi)
    sigma = (insts.u_phi * insts.mu[:, np.newaxis, :]) @ dagger(insts.u_phi)
    dist = np.abs(np.linalg.eigvalsh(rho - sigma)).sum(axis=-1)
    half = 0.5 * ns_distance(insts.lam, insts.mu, overlaps) / dist
    assert (insts.ratios() <= half + 1e-12).all()
    assert (half <= 0.5 * math.sqrt(dim / 2.0) + 1e-12).all()
    if commuting:
        np.testing.assert_allclose(half, 0.5, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(
    path.name for path in (Path(__file__).resolve().parent / "data").glob("conjecture_*.gz")))
def test_each_golden_search_stays_under_its_cap(name):
    # the cap 1/2 sqrt(d/2) of the record's largest dimension, 1/2 when commuting
    with gzip.open(Path(__file__).resolve().parent / "data" / name, "rt") as fh:
        record = json.load(fh)
    cap = 0.5 if record["commuting"] else 0.5 * math.sqrt(max(record["dims"]) / 2.0)
    assert 0.0 < record["max_ratio"] <= cap + 1e-12
