"""Batch drivers shared by the CLI: grids, flattening, worked table."""

import math

import pytest

from quasirel import bounds, paper_example_rows, sweep_bounds, sweeps
from quasirel.sweeps import sweep_chunk, trial_pair


def test_trial_pair_deterministic_and_kind():
    a = trial_pair(3, 4, 17)
    b = trial_pair(3, 4, 17)
    assert (a.rho.matrix == b.rho.matrix).all()
    classical = trial_pair(3, 4, 17, pair_kind="classical")
    from quasirel import summarize

    assert summarize(classical).commutator_norm < 1e-10
    with pytest.raises(ValueError):
        trial_pair(3, 4, 17, pair_kind="pure")


def test_sweep_row_shape_and_order():
    rows, violations = sweep_bounds(
        [2, 3], trials=2, seed=1, f_specs=["neg-log"], qs=[0.5]
    )
    assert violations == []
    # 8 relative-entropy rows plus 8 order-0.5 rows per pair, 4 pairs
    assert len(rows) == 64
    keys = [(r["dim"], r["pair_tag"]) for r in rows]
    assert keys == sorted(keys)
    assert {r["dim"] for r in rows} == {2, 3}  # trials counted per dimension
    neg_log_rows = [r for r in rows if r["f_name"] == "neg-log"]
    assert {r["q"] for r in neg_log_rows} == {""}
    tsallis_rows = [r for r in rows if r["q"] != ""]
    assert {r["q"] for r in tsallis_rows} == {0.5}


def test_sweep_jobs_do_not_change_rows():
    serial = sweep_bounds([3], trials=4, seed=2, f_specs=["tsallis:q=1.5"])
    forked = sweep_bounds([3], trials=4, seed=2, f_specs=["tsallis:q=1.5"], jobs=2)
    assert serial == forked


def test_sweep_chunk_evaluates_one_batch(monkeypatch):
    # the whole chunk is one PairBatch: no per-pair sampling or sandwich
    def per_pair(*args, **kwargs):
        raise AssertionError("per-pair path used inside a sweep chunk")

    monkeypatch.setattr(sweeps, "trial_pair", per_pair)
    monkeypatch.setattr(bounds, "sandwich", per_pair)
    rows = sweep_chunk(5, 3, [0, 1, 2], "classical", ["neg-log"], [1.5], "e")
    assert len(rows) == 3 * (8 + 8)
    assert [r["pair_tag"] for r in rows[::16]] == [
        "classical:000000", "classical:000001", "classical:000002"]


def test_paper_example_first_row_frozen():
    row = paper_example_rows([3])[0]
    assert row["d"] == 3
    assert row["trace_dist"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert row["new_bound"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert row["ae11_natural"] == pytest.approx(math.log(2.0) / 3.0, rel=1e-12)
    assert row["ae11_base2"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert row["winner_per_base"] == "e=old;2=old"
