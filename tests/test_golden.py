"""CLI output against golden files recorded before each batched rewrite.

Each case reruns a recorded `quasirel sweep` command (recorded before the
batched core) or `quasirel conjecture --strategy random` command (recorded
before the batched search) and compares it with its file under tests/data/
the way the benchmark's reference gate does: text and integers exactly,
floating-point tokens within 1e-13 relative. The `--strategy hill_climb`
records, recorded before the climb's numpy calls were trimmed, must match
byte for byte.
"""

import gzip
import re
from pathlib import Path

import pytest

from quasirel.cli import main

DATA = Path(__file__).resolve().parent / "data"
RTOL = 1e-13
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")

_SUITE = ["--dims", "2..5", "--f", "all", "--q", "0.3,1.5", "--trials", "7", "--seed", "11"]
CASES = {
    "sweep_random.csv": _SUITE,
    "sweep_random.json": _SUITE + ["--format", "json"],
    "sweep_classical.csv": _SUITE + ["--pair-kind", "classical"],
    "sweep_classical.json": _SUITE + ["--pair-kind", "classical", "--format", "json"],
    "sweep_wide.csv": ["--dims", "9..10", "--f", "neg-log", "--q", "0.3,1.5",
                       "--trials", "7", "--seed", "11"],
}
SEARCH_CASES = {
    "conjecture_uniform.json": ["--dims", "2..8", "--trials", "600", "--seed", "31"],
    "conjecture_modular.json": ["--dims", "2,4,8", "--weights", "modular",
                                "--trials", "300", "--seed", "32"],
    "conjecture_commuting.json": ["--dims", "2,3,8", "--commuting",
                                  "--trials", "300", "--seed", "33"],
    "conjecture_commuting_modular.json": ["--dims", "3,5", "--commuting",
                                          "--weights", "modular",
                                          "--trials", "300", "--seed", "34"],
}

CLIMB_CASES = {
    "conjecture_climb_uniform.json": ["--dims", "3..6", "--trials", "8", "--seed", "31"],
    "conjecture_climb_commuting_modular.json": ["--dims", "3,5", "--weights", "modular",
                                                "--commuting", "--trials", "4",
                                                "--seed", "31"],
}


def worst_deviation(expected: str, actual: str) -> float:
    """Largest relative difference of paired float tokens; raises on any other difference."""
    exp_lines, act_lines = expected.split("\n"), actual.split("\n")
    assert len(exp_lines) == len(act_lines)
    worst = 0.0
    for exp_line, act_line in zip(exp_lines, act_lines):
        if exp_line == act_line:
            continue
        assert _NUMBER.split(exp_line) == _NUMBER.split(act_line), act_line
        for e, a in zip(_NUMBER.findall(exp_line), _NUMBER.findall(act_line)):
            if e == a:
                continue
            assert not (e.lstrip("+-").isdigit() and a.lstrip("+-").isdigit()), (e, a)
            ev, av = float(e), float(a)
            worst = max(worst, abs(ev - av) / max(abs(ev), abs(av)))
    return worst


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden_output(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["sweep", *CASES[name], "--jobs", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    with gzip.open(DATA / f"{name}.gz", "rt") as fh:
        expected = fh.read()
    assert worst_deviation(expected, out.read_text()) <= RTOL


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_matches_golden_record(name, tmp_path, capsys):
    out = tmp_path / name
    argv = ["conjecture", "--strategy", "random", *SEARCH_CASES[name], "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    with gzip.open(DATA / f"{name}.gz", "rt") as fh:
        expected = fh.read()
    assert worst_deviation(expected, out.read_text()) <= RTOL


@pytest.mark.parametrize("name", sorted(CLIMB_CASES))
def test_climb_matches_golden_record_byte_for_byte(name, tmp_path, capsys):
    out = tmp_path / name
    argv = ["conjecture", "--strategy", "hill_climb", *CLIMB_CASES[name], "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    with gzip.open(DATA / f"{name}.gz", "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_worst_deviation_flags_text_and_scales_floats():
    assert worst_deviation("a,1.0", "a,1.0") == 0.0
    assert worst_deviation("a,1.0", "a,1.0000000000001") == pytest.approx(1e-13, rel=1e-3)
    with pytest.raises(AssertionError):
        worst_deviation("a,1.0", "b,1.0")
    with pytest.raises(AssertionError):
        worst_deviation("a,2", "a,3")
