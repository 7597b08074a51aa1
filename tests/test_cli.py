"""Command line surface: parsing, output formats, exit codes, determinism."""

import ast
import csv
import functools
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quasirel import QuadratureError, bounds, cli, functions, sweeps
from quasirel.cli import main, parse_dims, render_rows
from quasirel.states import pair_to_dict, random_pairs, save_pair, state_pair, trial_streams
from quasirel.sweeps import chunk_plan

ROOT = Path(__file__).resolve().parent.parent


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdlib_table(rows, columns, fmt):
    """Dict rows as the json and csv modules write them, format_cell's text
    in each CSV cell: the reference for every table the CLI prints."""
    if fmt == "json":
        return json.dumps(rows, indent=1) + "\n"
    cells = [[sweeps.format_cell(row[c]) for c in columns] for row in rows]
    assert not [cell for line in [columns, *cells] for cell in line
                if set(cell) & set(',"\r\n')]  # no cell needs quoting
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *cells])
    return buf.getvalue()


def test_parse_dims():
    assert parse_dims("2,4..6,9") == [2, 4, 5, 6, 9]
    assert parse_dims("3") == [3]
    with pytest.raises(ValueError):
        parse_dims("4..2")
    with pytest.raises(ValueError):
        parse_dims("two")
    assert parse_dims("2,,3") == parse_dims(" 2, ,3,") == [2, 3]  # empty tokens skipped


def test_render_rows_formats():
    rows, columns = [{"x": 0.1, "flag": True, "name": "a"}], ["x", "flag", "name"]
    text = render_rows(rows, columns, "csv")
    assert text.splitlines()[0] == "x,flag,name"
    assert text.splitlines()[1] == "0.10000000000000001,true,a"
    doc = json.loads(render_rows(rows, columns, "json"))
    assert doc[0]["flag"] is True
    for fmt in ("csv", "json"):
        assert render_rows(rows, columns, fmt) == _stdlib_table(rows, columns, fmt)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render_rows(rows, columns, "xml")


@pytest.mark.parametrize("argv", [
    ["divergence", "--dims", "3", "--seed", "5", "--f", "tsallis:q=1.5"],
    ["divergence", "--dims", "3", "--seed", "5", "--q", "1.5"],
    ["divergence", "--pair-file", "PAIR", "--f", "neg-log"],
    ["divergence", "--dims", "13", "--f", "neg-log"],  # the superoperator route skipped
    ["repr-check"],
    ["paper-example", "--dims", "3..16"],
], ids=["tsallis-f", "tsallis-q", "pair-file", "d13", "repr-check", "paper-example"])
def test_dict_tables_are_the_stdlib_bytes(tmp_path, capsys, argv):
    # each table is the csv and json modules' rendering of its own JSON rows
    if "PAIR" in argv:
        argv[argv.index("PAIR")] = str(_saved_pair(tmp_path))
    code, out, err = _run(capsys, argv + ["--format", "json"])
    rows = json.loads(out)
    assert code == 0 and rows and "Traceback" not in err
    assert out == _stdlib_table(rows, list(rows[0]), "json")
    assert _run(capsys, argv)[:2] == (0, _stdlib_table(rows, list(rows[0]), "csv"))


def test_paper_example_frozen_rows(capsys):
    code, out, _ = _run(capsys, ["paper-example", "--dims", "3..16"])
    assert code == 0
    rows = _csv_rows(out)
    assert len(rows) == 14
    by_d = {int(r["d"]): r for r in rows}
    for d, row in by_d.items():
        assert float(row["trace_dist"]) == pytest.approx(2.0 - 4.0 / d, abs=1e-12)
    assert float(by_d[5]["new_bound"]) == pytest.approx(1.2, abs=1e-12)
    assert by_d[5]["winner_per_base"] == "e=old;2=tie"
    assert float(by_d[10]["trace_dist"]) == pytest.approx(1.6, abs=1e-12)
    assert float(by_d[10]["new_bound"]) < float(by_d[10]["ae11_natural"])
    assert "ae11_natural" in rows[0]


def test_divergence_on_saved_pair(tmp_path, capsys):
    pair = random_pairs(3, trial_streams([61]))
    path = tmp_path / "pair.json"
    save_pair(path, pair, seed=61)
    code, out, err = _run(
        capsys, ["divergence", "--pair-file", str(path), "--f", "neg-log"]
    )
    assert code == 0
    rows = _csv_rows(out)
    methods = {r["method"] for r in rows}
    assert methods == {"spectral", "superoperator", "direct"}
    values = [float(r["value"]) for r in rows]
    assert max(values) - min(values) < 1e-9 * max(values)


def test_divergence_identical_states_is_zero(tmp_path, capsys):
    rho = random_pairs(3, trial_streams([62])).rho[0]
    path = tmp_path / "same.json"
    save_pair(path, state_pair(rho, rho))
    code, out, _ = _run(
        capsys, ["divergence", "--pair-file", str(path), "--q", "1.5"]
    )
    assert code == 0
    for row in _csv_rows(out):
        assert abs(float(row["value"])) < 1e-12


@pytest.mark.parametrize("q", ["0.3", "1.5"])
def test_divergence_tsallis_spellings_agree(capsys, q):
    # --f tsallis:q=<q> and --q <q> list the same routes with the same
    # values; only the q cell tells the spellings apart
    by_f = _csv_rows(_run(capsys, ["divergence", "--dims", "4", "--f", f"tsallis:q={q}"])[1])
    by_q = _csv_rows(_run(capsys, ["divergence", "--dims", "4", "--q", q])[1])
    assert [r["method"] for r in by_f] == ["spectral", "superoperator", "direct"]
    assert [(r["method"], r["value"]) for r in by_f] == [(r["method"], r["value"])
                                                         for r in by_q]
    assert {r["q"] for r in by_f} == {""}
    assert {float(r["q"]) for r in by_q} == {float(q)}


def test_divergence_rejects_both_generators(capsys):
    code, _, err = _run(
        capsys, ["divergence", "--f", "neg-log", "--q", "0.5"]
    )
    assert code == 3
    assert "error" in err


def test_bounds_command_clean(capsys):
    code, out, _ = _run(
        capsys, ["bounds", "--dims", "2", "--seed", "5", "--f", "neg-log"]
    )
    assert code == 0
    rows = _csv_rows(out)
    names = {r["bound_name"] for r in rows}
    assert "pinsker_lower" in names
    assert "ae11_upper" in names
    for row in rows:
        if row["applicable"] == "true" and row["slack"]:
            assert float(row["slack"]) >= -1e-10


def test_sweep_deterministic_across_jobs(tmp_path, capsys, monkeypatch):
    # with the cap at 3 trials a chunk each dimension ends on an uneven
    # chunk, and --jobs 2 and 3 share the chunks over a process pool
    monkeypatch.setattr(sweeps, "_CHUNK_TRIALS", 3)
    assert [[len(c) for _, c in chunk] for chunk in chunk_plan([2, 3, 4], 7)] == [
        [3], [3], [1]] * 3
    for n, argv in enumerate((
            ["sweep", "--dims", "2,3", "--trials", "7", "--seed", "9",
             "--f", "neg-log", "--q", "0.5"],
            ["sweep", "--dims", "2..4", "--trials", "7", "--seed", "21",
             "--pair-kind", "classical", "--f", "neg-log,tsallis:q=1.5",
             "--format", "json"])):
        outputs = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"sweep{n}-jobs{jobs}"
            assert main(argv + ["--out", str(out), "--jobs", str(jobs)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overlapping_dims_give_the_rows_of_their_union(tmp_path, capsys, fmt):
    # 2..4,3..5 names d = 3 and d = 4 twice; a sweep takes the set of its
    # dims, so the bytes and the row count are those of 2..5, at any jobs
    argv = ["sweep", "--trials", "60", "--f", "neg-log", "--q", "0.3", "--format", fmt]
    union = _run(capsys, argv + ["--dims", "2..5", "--jobs", "1"])
    assert union[0] == 0 and union[2] == f"{4 * 60 * 16} rows, zero violations\n"
    assert len(chunk_plan(range(2, 6), 60)) == 2  # --jobs 2 starts a child
    for jobs in ("1", "2"):
        assert _run(capsys, argv + ["--dims", "2..4,3..5", "--jobs", jobs]) == union
        out = tmp_path / f"overlap{jobs}"
        code, _, err = _run(capsys, argv + ["--dims", "3,2,4,5,3", "--jobs", jobs,
                                            "--out", str(out)])
        assert (code, out.read_text(), err) == union


def test_sweep_classical_pairs(capsys):
    code, out, err = _run(
        capsys, ["sweep", "--dims", "4", "--trials", "5", "--seed", "3",
                 "--pair-kind", "classical", "--f", "neg-log"]
    )
    assert code == 0
    rows = _csv_rows(out)
    # the commuting-gated bound applies beyond qubits here
    gated = [r for r in rows if r["bound_name"] == "qubit_classical_upper"]
    assert gated and all(r["applicable"] == "true" for r in gated)
    assert "zero violations" in err
    assert err == f"{len(rows)} rows, zero violations\n"


def test_conjecture_stdout_record(capsys):
    code, out, err = _run(
        capsys, ["conjecture", "--dims", "3", "--trials", "30", "--seed", "12"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trial_count"] == 30
    assert doc["max_ratio"] <= 1.0 + 1e-10
    assert "max_ratio" in err


def test_repr_check_reports_ok(capsys):
    code, out, _ = _run(capsys, ["repr-check", "--f", "neg-power:p=0.5"])
    assert code == 0
    rows = _csv_rows(out)
    assert len(rows) == 1
    assert rows[0]["ok"] == "true"
    assert float(rows[0]["max_rel_error"]) < 1e-6
    assert float(rows[0]["b"]) == pytest.approx(math.cos(math.pi / 4.0), abs=1e-12)


def test_repr_check_quadrature_failure_exit_code(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise QuadratureError("evaluation budget 100000 exhausted")

    monkeypatch.setattr(functions, "integrate_halfline", exhausted)
    code, _, err = _run(capsys, ["repr-check", "--f", "neg-power:p=0.5"])
    assert code == 5
    assert err.startswith("error:") and "budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scale, expected", [(0.9, 5), (1.1, 0)])
def test_repr_check_tolerance_both_sides(monkeypatch, capsys, scale, expected):
    # repr-check reads the tolerance make_custom reads
    _, out, _ = _run(capsys, ["repr-check", "--f", "neg-log", "--format", "json"])
    [row] = json.loads(out)
    worst = max(row["max_rel_error"], row["constraint_residual"])
    assert worst > 0.0
    monkeypatch.setattr(functions, "REPRESENTATION_RTOL", scale * worst)
    code, out, _ = _run(capsys, ["repr-check", "--f", "neg-log", "--format", "json"])
    assert code == expected
    assert json.loads(out)[0]["ok"] is (expected == 0)


def test_repr_check_rejects_density_free_generator(capsys):
    code, _, err = _run(capsys, ["repr-check", "--f", "tsallis:q=2.0"])
    assert code == 3
    assert "error" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dims": "3", "trials": 4, "seed": 8}))
    code, out, _ = _run(
        capsys, ["sweep", "--config", str(config), "--f", "neg-log",
                 "--trials", "2"]
    )
    assert code == 0
    rows = _csv_rows(out)
    assert {r["dim"] for r in rows} == {"3"}  # from config
    assert len({r["pair_tag"] for r in rows}) == 2  # flag overrides config


def test_exit_code_parse_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = _run(capsys, ["sweep", "--config", str(bad)])
    assert code == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["sweep", "--config", str(listy)]) == 2
    capsys.readouterr()


def test_exit_code_validation_errors(capsys):
    assert main(["sweep", "--dims", "1", "--f", "neg-log"]) == 3
    assert main(["divergence", "--f", "sinh"]) == 3
    assert main(["sweep", "--q", "1.0"]) == 3
    capsys.readouterr()


def test_conjecture_climb_flags_are_checked(tmp_path, capsys):
    base = ["conjecture", "--dims", "3", "--trials", "1", "--strategy", "hill_climb"]
    for flag, bad in (("--step", "nan"), ("--step", "inf"), ("--step", "0"),
                      ("--step", "-0.1"), ("--steps", "-5"), ("--plateau", "0")):
        with pytest.raises(SystemExit) as exc:
            main([*base, flag, bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err and "Traceback" not in err
    for flag, good in (("--step", "1e-6"), ("--steps", "0"), ("--plateau", "1")):
        code, out, _ = _run(capsys, [*base, "--steps", "3", flag, good])
        assert code == 0
        assert json.loads(out)["trial_count"] == 1
    # values from a config file are checked when the config is validated
    for key, bad in (("step", "NaN"), ("step", "0.0"), ("steps", "-1"),
                     ("plateau", "0"), ("trials", "0")):
        config = tmp_path / f"{key}.json"
        config.write_text(f'{{"{key}": {bad}}}')
        code, _, err = _run(capsys, ["conjecture", "--dims", "3", "--config", str(config)])
        assert code == 3
        assert err.startswith("error:") and key in err


def test_exit_code_io_errors(tmp_path, capsys):
    missing_cfg = tmp_path / "nope.json"
    assert main(["sweep", "--config", str(missing_cfg)]) == 4
    capsys.readouterr()
    # an --out in a missing directory names the file given, not the partial one
    target = tmp_path / "no-dir" / "out.csv"
    for argv in (["paper-example"], ["sweep", "--dims", "2", "--trials", "3", "--f", "neg-log"]):
        code, out, err = _run(capsys, argv + ["--out", str(target)])
        assert code == 4 and out == ""
        assert str(target) in err and ".tmp" not in err
    assert not (tmp_path / "no-dir").exists()


def test_exit_code_verification_failure(monkeypatch, capsys):
    # sweep_bounds gives the number of rows and each violation's (bound_name, slack)
    monkeypatch.setattr(
        cli, "sweep_bounds", lambda *a, **k: (1, [("pinsker_lower", -1.0)])
    )
    code, _, err = _run(capsys, ["sweep", "--dims", "2", "--trials", "1",
                                 "--f", "neg-log"])
    assert code == 5
    assert "negative-slack" in err
    assert err == "1 negative-slack rows (worst -1.000e+00)\n"


def test_negative_slack_notes_read_the_columns(monkeypatch, capsys):
    # with the floor above every finite slack, each applicable row with a
    # slack is a violation: the notes count them and name the worst
    monkeypatch.setattr(bounds, "SLACK_FLOOR", math.inf)
    code, out, err = _run(capsys, ["bounds", "--dims", "3", "--seed", "5", "--f", "neg-log"])
    flagged = [r for r in _csv_rows(out) if r["applicable"] == "true" and r["slack"]]
    assert code == 5 and flagged
    assert err == f"negative slack: {', '.join(r['bound_name'] for r in flagged)}\n"
    monkeypatch.setattr(sweeps, "_CHUNK_TRIALS", 2)
    code, out, err = _run(capsys, ["sweep", "--dims", "2,3", "--trials", "5", "--q", "0.5",
                                   "--jobs", "1"])
    slacks = [float(r["slack"]) for r in _csv_rows(out)
              if r["applicable"] == "true" and r["slack"]]
    assert code == 5
    assert err == f"{len(slacks)} negative-slack rows (worst {min(slacks):.3e})\n"


def test_bound_tables_are_the_bytes_of_the_dict_rendering(tmp_path, capsys):
    # the column renderer gives the bytes the json and csv modules give for
    # the same rows, infinite divergences and empty slacks included
    rho = random_pairs(3, trial_streams([5])).rho[0]
    path = tmp_path / "singular.json"
    save_pair(path, state_pair(rho, np.diag([1.0, 0.0, 0.0])))
    for argv in (["sweep", "--dims", "3,2", "--trials", "3", "--f", "neg-log", "--q", "0.5",
                  "--jobs", "1"],
                 ["bounds", "--pair-file", str(path), "--f", "neg-log"]):
        _, out, _ = _run(capsys, argv + ["--format", "json"])
        rows = json.loads(out)
        assert out == _stdlib_table(rows, sweeps.BOUNDS_COLUMNS, "json")
        assert _run(capsys, argv)[1] == _stdlib_table(rows, sweeps.BOUNDS_COLUMNS, "csv")
    assert rows[0]["divergence"] == math.inf and rows[0]["slack"] == ""


_GENERATORS = ["--f", "all", "--q", "0.3,1.5"]


@pytest.mark.parametrize("argv", [
    ["--dims", "2..5", "--trials", "25", *_GENERATORS],  # sweep_suite's grid
    ["--dims", "2..16", "--trials", "3", *_GENERATORS],
    ["--dims", "2..16", "--trials", "3", *_GENERATORS, "--pair-kind", "classical"],
    ["--dims", "2..6", "--trials", "20", *_GENERATORS, "--log-base", "2"],
    ["--dims", "3", "--trials", "256", "--f", "neg-log", "--q", "1.5"],  # one 256-pair chunk
    ["--pair-file", "singular"],
], ids=["suite", "wide", "classical", "base2", "chunk256", "singular"])
def test_large_chunks_csv_cells_are_format_cell_bytes(tmp_path, monkeypatch, capsys, argv):
    # the array pass writes each float cell as format_cell's '%.17g' would,
    # cell by cell, the singular pair's inf and empty cells included
    if argv == ["--pair-file", "singular"]:
        rho = random_pairs(3, trial_streams([5])).rho[0]
        save_pair(tmp_path / "singular.json", state_pair(rho, np.diag([1.0, 0.0, 0.0])))
        argv = ["bounds", "--pair-file", str(tmp_path / "singular.json"), "--f", "neg-log"]
    else:
        argv = ["sweep", "--jobs", "1", *argv]
    blocks, block = [], sweeps._g17_block

    def counted(xs):
        blocks.append(len(xs))
        return block(xs)

    monkeypatch.setattr(sweeps, "_g17_block", counted)
    rows = json.loads(_run(capsys, argv + ["--format", "json"])[1])
    assert not blocks  # JSON cells are json.dumps'
    got = _run(capsys, argv)[1].splitlines()
    want = _stdlib_table(rows, sweeps.BOUNDS_COLUMNS, "csv").splitlines()
    assert len(got) == len(want) and blocks
    assert [row for row in zip(got, want) if row[0] != row[1]] == []
    if "bounds" in argv:
        assert {"inf", ""} <= {cell for line in got for cell in line.split(",")}


def test_sweep_out_is_all_or_nothing(tmp_path, monkeypatch, capsys):
    # a chunk that fails after the first was written leaves no output file
    # and no temporary file beside it
    chunk = sweeps.sweep_chunk
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("second chunk failed")
        return chunk(*args, **kwargs)

    monkeypatch.setattr(sweeps, "sweep_chunk", failing)
    monkeypatch.setattr(sweeps, "_CHUNK_TRIALS", 2)
    target = tmp_path / "sweep.csv"
    code, out, err = _run(capsys, ["sweep", "--dims", "2", "--trials", "5", "--f", "neg-log",
                                   "--jobs", "1", "--out", str(target)])
    assert code == 3 and out == ""
    assert err.startswith("error:") and "second chunk failed" in err
    assert len(calls) == 2 and not target.exists() and list(tmp_path.iterdir()) == []
    # an existing file stays as it was
    target.write_text("kept")
    calls.clear()
    assert main(["sweep", "--dims", "2", "--trials", "5", "--f", "neg-log", "--jobs", "1",
                 "--out", str(target)]) == 3
    assert target.read_text() == "kept" and list(tmp_path.iterdir()) == [target]
    # a symlink stays a symlink, and the file it names gets the rows
    monkeypatch.setattr(sweeps, "sweep_chunk", chunk)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["sweep", "--dims", "2", "--trials", "5", "--f", "neg-log", "--jobs", "1",
                 "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_text().startswith("dim,seed,")
    assert sorted(tmp_path.iterdir()) == [link, target]
    capsys.readouterr()


_TWO_CHUNKS = ["sweep", "--dims", "9,10", "--trials", "20", "--f", "neg-log"]
_sweep_chunk = sweeps.sweep_chunk


# Stand-ins for sweep_chunk, at module level so that they pickle. At --jobs 2
# the d = 9 chunk, the first of _TWO_CHUNKS, runs in the calling process and
# the d = 10 chunk in a child.
def _dying_at_10(seed, blocks, **settings):
    if blocks[0][0] == 10:
        os._exit(9)
    return _sweep_chunk(seed, blocks, **settings)


def _failing_at(dim, seed, blocks, **settings):
    # every other chunk is 1 MiB, more than a pipe holds, so a child that
    # runs ahead blocks in send until the sweep ends it
    if blocks[0][0] == dim:
        raise ValueError(f"chunk at d = {dim} failed")
    return "x" * 2 ** 20, 1, []


def test_a_sweep_worker_that_dies_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(sweeps, "sweep_chunk", _dying_at_10)
    code, _, err = _run(capsys, _TWO_CHUNKS + ["--jobs", "2"])
    assert code == 4
    assert err == "error: sweep worker 1 exited with code 9 before sending its chunks\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("dim", [9, 10])
def test_a_failing_chunk_exits_alike_at_any_jobs(monkeypatch, capsys, dim):
    monkeypatch.setattr(sweeps, "sweep_chunk", functools.partial(_failing_at, dim))
    results = [_run(capsys, _TWO_CHUNKS + ["--jobs", jobs]) for jobs in ("1", "2")]
    assert results[0] == results[1]
    assert results[0][0] == 3 and results[0][2] == f"error: chunk at d = {dim} failed\n"
    assert multiprocessing.active_children() == []


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path, capsys):
    # the sweep holds about one chunk: 8 chunks peak no higher than 2 chunks
    # by as much as one chunk's text
    assert main(["sweep", "--dims", "2", "--f", "neg-log", "--trials", "1", "--jobs", "1",
                 "--out", str(tmp_path / "warm-up.csv")]) == 0
    peaks, sizes = [], []
    for chunks in (2, 8):
        out = tmp_path / f"sweep{chunks}.csv"
        argv = ["sweep", "--dims", "2", "--f", "neg-log", "--jobs", "1", "--out", str(out),
                "--trials", str(chunks * sweeps._CHUNK_TRIALS)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(out.stat().st_size / chunks)
    capsys.readouterr()
    assert abs(peaks[1] - peaks[0]) < min(sizes), (peaks, sizes)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sweep_workers_end_when_the_calling_process_is_killed(tmp_path):
    # the calling process blocks on a stdout pipe nobody reads, and its
    # worker then blocks sending on its own full pipe; once the calling
    # process is killed, that send must fail, so the session's group
    # empties, and the worker ends without a traceback
    argv = [sys.executable, "-m", "quasirel.cli", "sweep", "--dims", "10..16",
            "--trials", "3000", "--f", "neg-log", "--jobs", "2"]
    stderr = tmp_path / "stderr.txt"
    with open(stderr, "w") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
    try:
        time.sleep(2.0)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while _group_alive(proc.pid):
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pytest.fail("a sweep worker outlived the calling process by 10 s")
            time.sleep(0.1)
    finally:
        proc.stdout.close()
    assert "Traceback" not in stderr.read_text()


def test_cli_import_loads_no_process_pool():
    # multiprocessing is imported only when a sweep starts child processes
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quasirel.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quasirel.cli", "paper-example", "--dims", "5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "1.2" in proc.stdout


def test_jobs_default_is_the_cpus_this_process_may_run_on():
    # pinned to one CPU, the default is one process on a host of any CPU
    # count, and a sweep at the default gives the bytes of --jobs 1
    if shutil.which("taskset") is None or not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs taskset and os.sched_getaffinity")
    pinned = ["taskset", "-c", str(min(os.sched_getaffinity(0))), sys.executable]
    default = subprocess.run(
        [*pinned, "-c", "from quasirel.cli import SETTINGS; print(SETTINGS['jobs'].default)"],
        capture_output=True, text=True, timeout=60)
    assert (default.returncode, default.stdout) == (0, "1\n"), default.stderr
    argv = ["-m", "quasirel.cli", "sweep", "--dims", "3,2,3", "--trials", "300", "--f", "neg-log"]
    runs = [subprocess.run(command, capture_output=True, timeout=120)
            for command in ([*pinned, *argv], [sys.executable, *argv, "--jobs", "1"])]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


# Public names of src/ that nothing in src/, the acceptance gate or
# perfbench/ names, kept because callers outside this code reach them.
_REACHED_FROM_OUTSIDE = {
    "make_custom": "the documented way to register a generator of one's own",
    "save_pair": "CI's installed-script step writes the pair files it compares with it",
}


def _named(tree):
    """Every identifier ``tree`` names: a name, an attribute, an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_of_src_has_a_caller_outside_tests():
    # a public module-level function or class is named outside its own
    # definition: in src/ (the package's re-exports aside), in the
    # acceptance gate or in perfbench/; unit tests do not count
    defined, named = set(), set()
    for path in sorted((ROOT / "src" / "quasirel").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_"))
            defined |= {node.name} if own else set()
            named |= _named(node) - ({node.name} if own else set())
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]:
        named |= _named(ast.parse(path.read_text()))
    assert sorted(defined - named) == sorted(_REACHED_FROM_OUTSIDE)


def test_readme_python_blocks_run_as_written(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    quick_start, search = {}, {}
    exec(compile(blocks[0], "README.md", "exec"), quick_start)
    value, *reports = capsys.readouterr().out.splitlines()
    assert float(value) == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-15, abs=0.0)
    assert reports and all(float(line.split()[2]) >= -1e-10 for line in reports)
    exec(compile(blocks[1], "README.md", "exec"), search)
    assert float(capsys.readouterr().out) == search["record"].max_ratio < 1.0


def _config_run(tmp_path, capsys, argv, doc):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps(doc))
    return _run(capsys, [*argv, "--config", str(config)])


@pytest.mark.parametrize("argv, doc", [
    (["conjecture", "--dims", "3", "--trials", "2"], {"commuting": "false"}),
    (["conjecture", "--dims", "3", "--trials", "2"], {"seed": 1.7}),
    (["sweep", "--dims", "2", "--f", "neg-log"], {"trials": "3"}),
    (["sweep", "--dims", "2", "--f", "neg-log"], {"trials": True}),
    (["sweep", "--dims", "2", "--trials", "1", "--f", "neg-log"], {"jobs": 1.9}),
    (["sweep", "--trials", "1", "--f", "neg-log"], {"dims": [2, True]}),
    (["sweep", "--dims", "2", "--trials", "1"], {"q": [0.5, "1.5"]}),
    (["divergence"], {"pair_kind": 1}),
])
def test_config_value_of_wrong_json_type_exits_3(tmp_path, capsys, argv, doc):
    # converting instead would run another experiment: bool("false") is True, int(1.7) is 1
    code, out, err = _config_run(tmp_path, capsys, argv, doc)
    (key,) = doc
    assert code == 3 and out == ""
    assert err.startswith("error:") and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("command, doc", [
    ("sweep", {"trails": 5}),
    ("sweep", {"step": -1}),
    ("paper-example", {"trials": 0}),
    ("conjecture", {"jobs": 0}),
    ("repr-check", {"dims": "3"}),
])
def test_config_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, doc):
    code, out, err = _config_run(tmp_path, capsys, [command], doc)
    (key,) = doc
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["conjecture", "--dims", "3", "--trials", "1", "--q", "0.5"],
    ["conjecture", "--dims", "3", "--trials", "1", "--format", "csv"],
    ["conjecture", "--dims", "3", "--trials", "1", "--f", "neg-log"],
    ["conjecture", "--dims", "3", "--trials", "1", "--jobs", "0"],
    ["paper-example", "--trials", "0"],
    ["repr-check", "--dims", "3"],
    ["sweep", "--step", "0.1"],
])
def test_flag_the_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and argv[-2] in err and "Traceback" not in err


def test_config_values_of_the_right_type_run_as_flags(tmp_path, capsys):
    base = ["conjecture", "--dims", "3", "--trials", "20"]
    code, flagged, _ = _run(capsys, [*base, "--commuting", "--seed", "4"])
    assert code == 0 and json.loads(flagged)["commuting"] is True
    assert _config_run(tmp_path, capsys, base, {"commuting": True, "seed": 4})[:2] == (0, flagged)
    sweep = ["sweep", "--trials", "2", "--jobs", "1"]
    code, flagged, _ = _run(capsys, [*sweep, "--dims", "2,3", "--q", "0.5,1.5"])
    assert code == 0
    for doc in ({"dims": "2,3", "q": "0.5,1.5"}, {"dims": [2, 3], "q": [0.5, 1.5]}):
        assert _config_run(tmp_path, capsys, sweep, doc)[:2] == (0, flagged)


def test_bounds_pair_kind_flag_matches_config(tmp_path, capsys):
    argv = ["bounds", "--dims", "3", "--seed", "2", "--f", "neg-log"]
    code, flagged, _ = _run(capsys, [*argv, "--pair-kind", "classical"])
    assert code == 0 and "classical:000000" in flagged
    assert _config_run(tmp_path, capsys, argv, {"pair_kind": "classical"})[:2] == (0, flagged)
    assert _run(capsys, argv)[1] != flagged


def test_log_base_2_bounds_and_sweep_agree(tmp_path, capsys):
    # --log-base 2 renames the logarithmic bound and divides the base-e value
    # by log 2; bounds and a one-trial sweep give the same bytes for it, and
    # the config key gives the bytes of the flag
    def ae11(out):
        (row,) = [r for r in json.loads(out) if r["bound_name"].startswith("ae11")]
        return row

    pair = ["--dims", "3", "--seed", "5", "--f", "neg-log"]
    for fmt in ("csv", "json"):
        bounds_argv = ["bounds", *pair, "--format", fmt]
        sweep_argv = ["sweep", *pair, "--trials", "1", "--jobs", "1", "--format", fmt]
        code, out, _ = _run(capsys, [*bounds_argv, "--log-base", "2"])
        assert code == 0
        assert _run(capsys, [*sweep_argv, "--log-base", "2"])[:2] == (0, out)
        for argv in (bounds_argv, sweep_argv):
            assert _config_run(tmp_path, capsys, argv, {"log_base": "2"})[:2] == (0, out)
    base2, natural = ae11(out), ae11(_run(capsys, bounds_argv)[1])
    assert (base2["bound_name"], natural["bound_name"]) == ("ae11_upper_base2", "ae11_upper")
    assert base2["bound_value"] == natural["bound_value"] / math.log(2.0)


# Each command run on small inputs: every branch that reads a setting is taken.
_SMALL_RUNS = {
    "divergence": ["--q", "0.5"],
    "bounds": ["--f", "neg-log"],
    "sweep": ["--trials", "1", "--f", "neg-log", "--jobs", "1"],
    "conjecture": ["--dims", "3", "--trials", "1"],
    "repr-check": ["--f", "neg-power:p=0.5"],
    "paper-example": ["--dims", "3"],
}


def test_each_command_takes_the_flags_of_the_settings_it_reads(capsys):
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    assert set(subparsers.choices) == set(cli._COMMANDS) == set(_SMALL_RUNS)
    total = 0
    for command, sub in subparsers.choices.items():
        flags = {a.dest: a.option_strings for a in sub._actions
                 if a.dest not in ("help", "config")}
        assert all(opts == [cli.SETTINGS[dest].flag] for dest, opts in flags.items())
        read = set()

        class Recording(cli.RunConfig):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        cfg = cli.make_config(parser.parse_args([command, *_SMALL_RUNS[command]]), {})
        assert cli._COMMANDS[command](Recording(**vars(cfg))) == 0
        assert read & set(cli.SETTINGS) == set(flags), command
        total += len(flags)
    assert total == 43
    capsys.readouterr()


def _options(parser) -> dict:
    """Each command's option strings in a parser, help and --config included."""
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    return {command: [a.option_strings for a in sub._actions]
            for command, sub in subparsers.choices.items()}


def test_a_parser_for_one_command_holds_that_commands_options_alone():
    full = _options(cli.build_parser())
    assert sum(len(opts) for opts in full.values()) == 43 + 2 * len(cli._COMMANDS)
    for command in cli._COMMANDS:
        own = _options(cli.build_parser(command))
        assert own == {name: opts if name == command else [] for name, opts in full.items()}


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main, a parse error or help included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    *([command, "--help"] for command in cli._COMMANDS),
    ["--help"], [], ["no-such-command"], ["no-such-command", "--help"], ["bounds", "-h"],
    ["sweep", "--no-such-flag"],
    ["sweep", "--steps", "3"], ["sweep", "--tri", "1", "--f", "neg-log"], ["sweep", "--he"],
    ["--", "sweep", "--trials", "1"], ["-5", "sweep"], ["-", "sweep"], ["-h", "sweep"],
    ["--trials", "1", "sweep"], ["--no-such-flag", "sweep", "--trials", "1"],
    ["bounds", "--f", "neg-log", "sweep"],
], ids=repr)
def test_parsing_with_one_commands_options_moves_no_byte(monkeypatch, capsys, argv):
    # main builds the options of the command it runs alone; every command's
    # options built give the same help, usage, errors and output
    ran = _outcome(capsys, argv)
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    assert _outcome(capsys, argv) == ran


def test_main_builds_the_options_of_the_command_it_runs(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    assert _run(capsys, ["paper-example", "--dims", "3"])[0] == 0
    assert built == ["paper-example"]


@pytest.mark.parametrize("doc", [
    {"rho": [[[1, 0]]]},
    [[[1, 0]]],
    {"dim": 1, "rho": [[1]], "sigma": [[[1, 0]]]},
    {"dim": 2, "rho": [[[1, 0], [0, 0]], [[0, 0]]], "sigma": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
    {"dim": "2", "rho": [], "sigma": []},
])
def test_malformed_pair_file_exits_3(tmp_path, capsys, doc):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["divergence", "--pair-file", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_pair_file_matrices_of_another_dim_exit_3(tmp_path, capsys):
    doc = pair_to_dict(random_pairs(2, trial_streams([64])))
    doc["dim"] = 3
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["divergence", "--pair-file", str(path)])
    assert (code, out) == (3, "")
    assert err == "error: matrix shapes (2, 2)/(2, 2) disagree with dim 3\n"


@pytest.mark.parametrize("argv", [["divergence"], ["bounds", "--f", "neg-log"]])
def test_pure_rho_pair_file_exits_3(tmp_path, capsys, argv):
    # the spectral route needs rho > 0; a pure rho against I/2 is an error,
    # not a value or a traceback
    path = tmp_path / "pure.json"
    save_pair(path, state_pair(np.diag([1.0, 0.0]), np.eye(2) / 2))
    code, out, err = _run(capsys, argv + ["--pair-file", str(path)])
    assert (code, out) == (3, "")
    assert err == "error: spectral route requires a strictly positive rho\n"


@pytest.mark.parametrize("generators", [[], ["--f", "neg-log", "--q", "0.3"]],
                         ids=["neither", "both"])
def test_bounds_takes_exactly_one_generator(capsys, generators):
    code, out, err = _run(capsys, ["bounds", "--dims", "3", *generators])
    assert (code, out) == (3, "")
    assert err == "error: bounds takes exactly one generator: --f spec or --q value\n"


def test_sweep_without_generators_is_f_all(capsys):
    argv = ["sweep", "--dims", "2,3", "--trials", "2", "--jobs", "1"]
    assert _run(capsys, argv) == _run(capsys, argv + ["--f", "all"])


@pytest.mark.parametrize("state", ["rho", "sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_pair_file_exits_3(tmp_path, capsys, state, bad):
    # json reads NaN and Infinity cells; the error names them, not a symptom
    doc = pair_to_dict(random_pairs(2, trial_streams([64])))
    doc[state][0][0] = [bad, 0.0]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert ("NaN" if math.isnan(bad) else "Infinity") in path.read_text()
    code, out, err = _run(capsys, ["bounds", "--pair-file", str(path), "--f", "neg-log"])
    assert code == 3 and out == ""
    assert err == "error: matrix has a non-finite entry (NaN or infinity)\n"


def _saved_pair(tmp_path):
    path = tmp_path / "pair.json"
    save_pair(path, random_pairs(3, trial_streams([63])), seed=63)
    return path


@pytest.mark.parametrize("command", ["divergence", "bounds"])
@pytest.mark.parametrize("flag, key, value", [
    ("--dims", "dims", "5"), ("--seed", "seed", 7), ("--pair-kind", "pair_kind", "classical")])
def test_pair_file_rejects_the_settings_it_overrides(tmp_path, capsys, command, flag, key,
                                                     value):
    # the file fixes the pair, so a dimension, seed or ensemble beside it
    # would be silently ignored: exit 2, naming both settings
    argv = [command, "--pair-file", str(_saved_pair(tmp_path)), "--f", "neg-log"]
    code, out, err = _run(capsys, [*argv, flag, str(value)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--pair-file" in err and flag in err
    code, out, err = _config_run(tmp_path, capsys, argv, {key: value})
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--pair-file" in err and repr(key) in err
    code, out, err = _config_run(tmp_path, capsys, [command, "--f", "neg-log", flag, str(value)],
                                 {"pair_file": str(_saved_pair(tmp_path))})
    assert code == 2 and out == ""
    assert "'pair_file'" in err and flag in err


@pytest.mark.parametrize("command", ["divergence", "bounds"])
def test_file_pair_rows_have_no_seed(tmp_path, capsys, command):
    code, out, _ = _run(capsys, [command, "--pair-file", str(_saved_pair(tmp_path)),
                                 "--f", "neg-log"])
    assert code == 0
    rows = _csv_rows(out)
    assert rows and all(r["seed"] == "" and r["pair_tag"] == "file:000000" for r in rows)
    code, out, _ = _run(capsys, [command, "--dims", "3", "--seed", "7", "--f", "neg-log"])
    assert code == 0 and {r["seed"] for r in _csv_rows(out)} == {"7"}


def test_divergence_past_the_superoperator_cap_notes_the_route_reason(capsys):
    code, out, err = _run(capsys, ["divergence", "--dims", "13", "--f", "neg-log"])
    assert code == 0
    assert [r["method"] for r in _csv_rows(out)] == ["spectral", "direct"]
    assert "superoperator route skipped: superoperator route capped at dim 12, got 13" in err
    code, out, err = _run(capsys, ["divergence", "--dims", "12", "--f", "neg-log"])
    assert code == 0 and "skipped" not in err
    assert [r["method"] for r in _csv_rows(out)] == ["spectral", "superoperator", "direct"]


@pytest.mark.parametrize("argv, key, value", [
    (["divergence"], "q", "0.3,1.5"),
    (["bounds", "--f", "neg-log"], "dims", "3,4"),
    (["divergence"], "dims", "5..7"),
    (["bounds"], "q", "0.3,1.5"),
    (["divergence"], "f_spec", "neg-log,tsallis:q=0.3"),
])
def test_one_pair_commands_reject_a_second_value(tmp_path, capsys, argv, key, value):
    # divergence and bounds evaluate one pair with one generator: a second
    # value would be dropped, so it is an error naming the flag or config key
    flag = cli.SETTINGS[key].flag
    code, out, err = _run(capsys, [*argv, flag, value])
    assert code == 3 and out == ""
    assert err.startswith("error:") and flag in err and "single value" in err
    code, out, err = _config_run(tmp_path, capsys, argv, {key: value})
    assert code == 3 and out == ""
    assert err.startswith("error:") and repr(key) in err and "single value" in err


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--dims", "2", "--trials", "1", "--f", ","], "--f"),
    (["sweep", "--dims", "2", "--trials", "1", "--f="], "--f"),
    (["sweep", "--dims", "2", "--trials", "1", "--q", ","], "--q"),
    (["divergence", "--f", ","], "--f"),
    (["divergence", "--q", ","], "--q"),
    (["bounds", "--f", ","], "--f"),
    (["bounds", "--q", ","], "--q"),
    (["repr-check", "--f", ","], "--f"),
])
def test_a_flag_naming_no_generator_or_order_exits_3(capsys, argv, flag):
    # an empty list would otherwise fall back to the command's default and run
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and flag in err and "at least one" in err


@pytest.mark.parametrize("argv, doc", [
    (["sweep", "--dims", "2", "--trials", "1"], {"f_spec": ""}),
    (["sweep", "--dims", "2", "--trials", "1"], {"q": []}),
    (["divergence"], {"f_spec": ","}),
    (["bounds"], {"q": []}),
    (["repr-check"], {"f_spec": ""}),
])
def test_a_config_key_naming_no_generator_or_order_exits_3(tmp_path, capsys, argv, doc):
    code, out, err = _config_run(tmp_path, capsys, argv, doc)
    (key,) = doc
    assert code == 3 and out == ""
    assert err.startswith("error:") and repr(key) in err and "at least one" in err
