"""Weighted overlap functionals, proven cases, counterexample search."""

import json

import numpy as np
import pytest

from quasirel import (
    WeightedOverlapFunctional,
    conjecture_search,
    default_rng,
    example_pair,
    functional_value,
    haar_unitary,
    modular_weight_matrix,
    proven_case_check,
    random_functional,
    random_pair,
    save_record,
)
from quasirel import conjecture
from quasirel.conjecture import (
    FUNCTIONAL_CROSS_TOL,
    PROVEN_SLACK,
    SPECTRUM_FLOOR,
    VIOLATION_THRESHOLD,
    _Instances,
    _jitter,
)
from quasirel.states import state_pair
from serial_search import haar_unitary as serial_haar_unitary, serial_search, trace_norm


def _aligned_functional(pair, rng, cap=1.0):
    dim = pair.dim
    return WeightedOverlapFunctional(
        rng.uniform(0.0, cap, size=(dim, dim)),
        cap,
        pair.rho_spectral.eigenvectors[0],
        pair.sigma_spectral.eigenvectors[0],
    )


def test_weight_validation():
    rng = default_rng(50)
    u, v = haar_unitary(3, rng), haar_unitary(3, rng)
    with pytest.raises(ValueError):
        WeightedOverlapFunctional(np.full((3, 3), 2.0), 1.0, u, v)
    with pytest.raises(ValueError):
        WeightedOverlapFunctional(np.full((3, 3), -0.5), 1.0, u, v)


def test_random_functional_draw_order():
    # weights first, then the two bases, as two serial Haar draws would give them
    rng, serial = default_rng(49), default_rng(49)
    w = random_functional(4, rng, cap=2.0)
    np.testing.assert_array_equal(w.c_entries, serial.uniform(0.0, 2.0, size=(4, 4)))
    np.testing.assert_array_equal(w.basis_psi, serial_haar_unitary(4, serial))
    np.testing.assert_array_equal(w.basis_phi, serial_haar_unitary(4, serial))


def test_functional_value_dual_paths_agree():
    # functional_value cross-checks its eigenvalue sum against the explicit
    # trace internally and raises on disagreement; surviving 100 random
    # instances is the assertion
    rng = default_rng(51)
    for _ in range(100):
        pair = random_pair(int(rng.integers(2, 6)), rng)
        w = _aligned_functional(pair, rng)
        functional_value(w, pair)


def test_functional_value_rejects_foreign_bases():
    rng = default_rng(52)
    pair = random_pair(3, rng)
    w = random_functional(3, rng)  # bases unrelated to the pair
    with pytest.raises(ValueError):
        functional_value(w, pair)


def test_functional_vanishes_at_equal_states():
    rng = default_rng(53)
    rho = random_pair(4, rng).rho[0]
    pair = state_pair(rho, rho)
    w = _aligned_functional(pair, rng)
    assert abs(functional_value(w, pair)) < 1e-12


def test_d_matrix_shape_and_trace_identity():
    rng = default_rng(54)
    pair = random_pair(3, rng)
    w = _aligned_functional(pair, rng)
    d = w.d_matrix()
    diff = pair.rho[0] - pair.sigma[0]
    direct = complex(np.trace(d @ diff)).real
    assert functional_value(w, pair) == pytest.approx(direct, abs=1e-10)


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


def test_modular_weights_structure():
    rng = default_rng(58)
    pair = random_pair(4, rng)
    w = modular_weight_matrix(pair, t=0.7)
    assert np.max(w.c_entries) == pytest.approx(w.c_cap, rel=1e-12)
    lam, mu = pair.rho_spectral.eigenvalues[0], pair.sigma_spectral.eigenvalues[0]
    assert w.c_entries[3, 0] == pytest.approx(1.0 / (0.7 + mu[3] / lam[0]))
    with pytest.raises(ValueError):
        modular_weight_matrix(pair, t=0.0)
    with pytest.raises(ValueError):
        modular_weight_matrix(example_pair(3), t=1.0)  # singular sigma


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


def test_record_round_trips_and_replays(tmp_path):
    record = conjecture_search((3, 4, 5), trials=90, strategy="random", seed=23)
    path = tmp_path / "record.json"
    save_record(path, record)
    doc = json.loads(path.read_text())
    assert doc["max_ratio"] == record.max_ratio
    inst = doc["argmax_instance"]
    rho = np.array([[complex(re, im) for re, im in row] for row in inst["rho"]])
    sigma = np.array([[complex(re, im) for re, im in row] for row in inst["sigma"]])
    pair = state_pair(rho, sigma)
    w = WeightedOverlapFunctional(
        np.array(inst["c_entries"]), 1.0,
        pair.rho_spectral.eigenvectors[0], pair.sigma_spectral.eigenvectors[0],
    )
    value = abs(functional_value(w, pair))
    dist = trace_norm(rho - sigma)
    assert value / dist == pytest.approx(record.max_ratio, rel=1e-8)


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


@pytest.mark.parametrize("scale, agrees", [(0.9, True), (1.1, False)])
def test_functional_cross_tolerance_both_sides(scale, agrees):
    # a basis_psi stretched by 1 + eps still passes the basis match, but
    # scales the explicit trace by (1 + eps)^2 and not the eigenvalue sum;
    # eps is chosen so the routes differ by scale * FUNCTIONAL_CROSS_TOL
    rng = default_rng(59)
    pair = random_pair(3, rng)
    w = _aligned_functional(pair, rng)
    value = functional_value(w, pair)
    gap = scale * FUNCTIONAL_CROSS_TOL * max(1.0, abs(value)) / abs(value)
    stretched = WeightedOverlapFunctional(w.c_entries, w.c_cap,
                                          w.basis_psi * np.sqrt(1.0 + gap), w.basis_phi)
    explicit = complex(np.trace(stretched.d_matrix() @ (pair.rho[0] - pair.sigma[0])))
    assert abs(explicit - value) / (FUNCTIONAL_CROSS_TOL * max(1.0, abs(value))) == \
        pytest.approx(scale, rel=1e-3)
    if agrees:
        assert functional_value(stretched, pair) == value
    else:
        with pytest.raises(ValueError, match="disagree"):
            functional_value(stretched, pair)


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
    # drawn spectra: an entry at 0.9 * SPECTRUM_FLOOR is redrawn, one at 1.1x kept
    class Scripted:
        def __init__(self, *draws):
            self.draws = [np.array(d) for d in draws]

        def dirichlet(self, alpha):
            return self.draws.pop(0)

    low, high = 0.9 * SPECTRUM_FLOOR, 1.1 * SPECTRUM_FLOOR
    rng = Scripted([low, 1.0 - low], [high, 1.0 - high])
    spectrum = conjecture._random_probabilities(2, rng, SPECTRUM_FLOOR)
    np.testing.assert_array_equal(spectrum, [1.0 - high, high])
    assert rng.draws == []
    # jittered spectra: a bump to 0.9x is clipped up to the floor, one to 1.1x is kept
    inst = _Instances(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
                      np.eye(2)[np.newaxis], np.eye(2)[np.newaxis], None, np.array([1.0]))
    z = np.zeros((2, 1 + 4 + 16))
    z[0, 2], z[1, 2] = low - 0.5, high - 0.5  # lam[1] moves to low, then to high
    stepped = _jitter(inst, 1.0, z, None)
    kept = np.array([SPECTRUM_FLOOR, high])
    np.testing.assert_allclose(stepped.lam[:, 1], kept / (0.5 + kept), rtol=1e-6)
