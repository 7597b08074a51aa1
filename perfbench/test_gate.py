"""Tests of the benchmark's own checker and tracer, not of the program.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import Batch, unit_key  # noqa: E402


def _sweep_batch(exit_code=0, perturb=None):
    """Batch 0 of sweep_suite as recorded, optionally with one group edited."""
    texts = dict(gate.load_reference("sweep_suite"))
    if perturb is not None:
        key, edit = perturb
        texts[key] = edit(texts[key])
    return Batch(0, {key: 1 for key in texts}, texts=texts, exit_code=exit_code)


def _replace_cell(text, row, column, new):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[column] = new(cells[column])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def test_recorded_reference_passes_its_own_gate():
    batch = _sweep_batch()
    reference = gate.load_reference("sweep_suite")
    assert gate.failed_units("sweep", batch, reference) == (0, [])


@pytest.mark.parametrize("relative, flagged", [(1e-14, False), (1e-12, True)])
def test_perturbed_numeric_cell_against_reference(relative, flagged):
    key = unit_key(3, 1)
    # column 6 is bound_value
    batch = _sweep_batch(perturb=(key, lambda t: _replace_cell(
        t, 0, 6, lambda c: f"{float(c) * (1.0 + relative):.17g}")))
    failed, notes = gate.failed_units("sweep", batch, gate.load_reference("sweep_suite"))
    assert failed == (1 if flagged else 0)
    if flagged:
        assert key in notes[0]


def test_changed_text_cell_is_flagged():
    key = unit_key(2, 0)
    batch = _sweep_batch(perturb=(key, lambda t: _replace_cell(t, 0, 9, lambda c: "false")))
    failed, _ = gate.failed_units("sweep", batch, gate.load_reference("sweep_suite"))
    assert failed == 1


def test_negative_slack_breaks_the_contract_on_any_seed():
    key = unit_key(4, 2)
    batch = _sweep_batch(perturb=(key, lambda t: _replace_cell(t, 0, 8, lambda c: "-1e-9")))
    failed, notes = gate.failed_units("sweep", batch)  # no reference
    assert failed == 1
    assert "slack" in notes[0]


def test_wrong_exit_code_fails_every_unit():
    batch = _sweep_batch(exit_code=5)
    failed, notes = gate.failed_units("sweep", batch)
    assert failed == batch.units
    assert "exit code 5" in notes[0]


def test_missing_group_fails():
    batch = _sweep_batch()
    batch.expected[unit_key(5, 99)] = 1
    failed, notes = gate.failed_units("sweep", batch)
    assert failed == 1
    assert "missing" in notes[0]


def test_verify_contracts():
    assert gate.contract_problem("verify", "route,0.5,0.5000000000001,0.5") == ""
    assert gate.contract_problem("verify", "route,0.5,0.50001,0.5")
    assert gate.contract_problem("verify", "repr,2.0,2.0000001") == ""
    assert gate.contract_problem("verify", "repr,2.0,2.1")
    assert gate.contract_problem("verify", "proven,false")
    assert gate.contract_problem("verify", "error,QuadratureError: budget")


def test_search_record_with_wrong_trial_count_fails():
    record = gate.load_reference("search")["random"]
    assert gate.contract_problem("search", record, 500) == ""
    assert gate.contract_problem("search", record, 499)


def test_tracer_restores_every_name():
    sys.path.insert(0, str(HERE.parent / "src"))
    import quasirel
    import quasirel.cli
    from spans import MODULES, Tracer

    modules = [quasirel] + [getattr(quasirel, m) for m in MODULES]
    before = [dict(vars(m)) for m in modules]
    commands = dict(quasirel.cli._COMMANDS)
    tracer = Tracer()
    tracer.install()
    try:
        assert quasirel.states.eigh is not before[2]["eigh"]
        quasirel.states.random_state(3, quasirel.states.default_rng(1))
    finally:
        tracer.restore()
    assert {tracer.names[s[0]] for s in tracer.spans} >= {
        "states.random_state", "states.density_matrix", "linalg.eigh",
        "linalg.hermitian_part"}
    for mod, saved in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in saved.items())
    assert quasirel.cli._COMMANDS == commands
