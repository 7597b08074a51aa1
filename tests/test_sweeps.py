"""Batch drivers shared by the CLI: grids, flattening, worked table."""

import contextlib
import io
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirel import bounds, builtin_suite, paper_example_rows, sweep_bounds, sweeps
from quasirel.sweeps import chunk_plan, sweep_chunk, trial_pair

ALL_F = [f.name for f in builtin_suite()]  # what --f all names


def sweep_rows(*args, **kwargs):
    """sweep_bounds run to JSON, its rows read back as dicts: (rows, violations)."""
    out = io.StringIO()
    count, violations = sweep_bounds(*args, out=out, fmt="json", **kwargs)
    rows = json.loads(out.getvalue())
    assert len(rows) == count
    return rows, violations


def test_trial_pair_deterministic_and_kind():
    a = trial_pair(3, 4, 17)
    b = trial_pair(3, 4, 17)
    assert (a.rho == b.rho).all()
    classical = trial_pair(3, 4, 17, pair_kind="classical")
    from quasirel import summarize

    assert summarize(classical).commutator_norm < 1e-10
    with pytest.raises(ValueError):
        trial_pair(3, 4, 17, pair_kind="pure")


def test_sweep_row_shape_and_order():
    rows, violations = sweep_rows(
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
    serial = sweep_rows([3], trials=4, seed=2, f_specs=["tsallis:q=1.5"])
    forked = sweep_rows([3], trials=4, seed=2, f_specs=["tsallis:q=1.5"], jobs=2)
    assert serial == forked


def test_sweep_chunk_evaluates_one_batch(monkeypatch):
    # the whole chunk is one PairBatch: no per-pair sampling or sandwich
    def per_pair(*args, **kwargs):
        raise AssertionError("per-pair path used inside a sweep chunk")

    monkeypatch.setattr(sweeps, "trial_pair", per_pair)
    monkeypatch.setattr(bounds, "sandwich", per_pair)
    text, count, violations = sweep_chunk(5, [(3, [0, 1, 2])], "classical", ["neg-log"],
                                          [1.5], "e", "json")
    rows = json.loads(f"[{text}]")
    assert len(rows) == count == 3 * (8 + 8) and violations == []
    assert [r["pair_tag"] for r in rows[::16]] == [
        "classical:000000", "classical:000001", "classical:000002"]


@pytest.mark.parametrize("dims,trials,jobs", [
    ([2], 1, 1), ([2], 1, 4), ([3, 2, 3], 7, 1), ([2, 3, 4], 7, 2),
    ([2, 3, 4], 7, 3), (list(range(9, 17)), 25, 2), ([5], 100, 3), ([2, 3], 2, 16),
    ([4, 2], 600, 1), ([3, 3, 2, 3], 300, 2), ([5], 257, 3),
    ([2, 3, 4, 5], 25, 1), ([2, 3, 4, 5], 25, 2), ([2, 3, 4, 5], 25, 3), ([2, 3, 3, 9], 40, 2)])
def test_chunk_plan_covers_grid_once_in_order(monkeypatch, pools_started, dims, trials, jobs):
    plan = chunk_plan(dims, trials)
    # a dimension listed twice is planned once: the plan of the set
    assert plan == chunk_plan(sorted(set(dims)), trials)
    cells = [(dim, trial) for chunk in plan for dim, block in chunk for trial in block]
    # dims ascending, then trials, each cell once
    assert cells == [(dim, trial) for dim in sorted(set(dims)) for trial in range(trials)]
    for chunk in plan:
        for dim, block in chunk:
            assert 0 < len(block) <= sweeps._CHUNK_TRIALS
        assert sum(len(block) for _, block in chunk) <= sweeps._CHUNK_TRIALS
    # the sweep runs exactly this plan, in this order, at any number of jobs
    ran = []
    monkeypatch.setattr(sweeps, "sweep_chunk", lambda seed, chunk, **settings:
                        ran.append(chunk) or ("", 0, []))
    sweep_bounds(dims, trials, seed=0, out=io.StringIO(), f_specs=["neg-log"], jobs=jobs)
    assert ran == plan


def test_chunk_plan_sweep_wide_grid():
    # the benchmark's sweep_wide grid, d = 9..16 at 25 trials: one chunk of
    # 25 per dimension, whatever the number of jobs (d = 9 and d = 10
    # together pass the cap on the sum of d^2)
    plan = chunk_plan(range(9, 17), 25)
    assert plan == [[(dim, range(25))] for dim in range(9, 17)]
    assert [[len(block) for _, block in chunk] for chunk in chunk_plan([4, 2], 600)] == [
        [256], [256], [88]] * 2


def test_chunk_plan_sweep_suite_grid():
    # the benchmark's sweep_suite grid, d = 2..5 at 25 trials: 100 pairs
    # with a sum of d^2 of 1350, one chunk
    assert chunk_plan(range(2, 6), 25) == [[(dim, range(25)) for dim in range(2, 6)]]


@pytest.mark.parametrize("dims,trials", [
    (range(2, 6), 25), (range(2, 6), 64), (range(2, 6), 65), (range(2, 17), 25),
    ([2, 2, 3, 4], 50), ([2, 3, 4, 5, 6, 7, 8], 30), ([2, 16], 3)])
def test_chunk_plan_caps_pairs_and_squares(dims, trials):
    # a chunk of several blocks stays within both caps; a lone block may
    # pass the cap on d^2 (a d = 16 block of 25 pairs), never the cap on pairs
    for chunk in chunk_plan(dims, trials):
        pairs = [(dim, len(set(block))) for dim, block in chunk]
        assert sum(n for _, n in pairs) <= sweeps._CHUNK_TRIALS
        assert len(chunk) == 1 or sum(n * dim ** 2 for dim, n in pairs) <= sweeps._CHUNK_SQUARES
    # a chunk ends only where its next block would pass one of the caps
    plan = chunk_plan(dims, trials)
    for before, after in zip(plan, plan[1:]):
        joined = [(dim, len(set(block))) for dim, block in before + after[:1]]
        assert (sum(n for _, n in joined) > sweeps._CHUNK_TRIALS
                or sum(n * dim ** 2 for dim, n in joined) > sweeps._CHUNK_SQUARES)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dims", [[2, 3, 4, 5], [3, 2, 5, 3]])
def test_merged_chunks_move_no_byte(monkeypatch, fmt, dims):
    # the same sweep with every chunk held to one dimension, the plan before
    # chunks could span dimensions, writes the same bytes
    def sweep_text():
        out = io.StringIO()
        sweep_bounds(dims, 9, seed=13, out=out, f_specs=ALL_F, qs=[0.3, 1.5], fmt=fmt)
        return out.getvalue()

    merged = sweep_text()
    assert len(chunk_plan(dims, 9)) == 1
    monkeypatch.setattr(sweeps, "_CHUNK_SQUARES", 0)
    assert [len(chunk) for chunk in chunk_plan(dims, 9)] == [1] * len(set(dims))
    assert sweep_text() == merged


def test_sweep_chunk_runs_one_bound_pass_and_one_render(monkeypatch):
    # a chunk of four dimensions: one joined summary, one bound pass per
    # route and one render, one sampled batch per dimension
    counts = Counter()

    def counting(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs:
                            counts.update([name]) or original(*args, **kwargs))

    for module, name in ((bounds, "bound_reports"), (bounds, "joined_summary"),
                         (sweeps, "render_columns"), (sweeps, "trial_batch")):
        counting(module, name)
    (chunk,) = chunk_plan(range(2, 6), 25)
    text, count, _ = sweep_chunk(0, chunk, "random", ALL_F, [0.3, 1.5], "e", "csv")
    assert counts == {"bound_reports": 6, "joined_summary": 1, "render_columns": 1,
                      "trial_batch": 4}
    assert [line.split(",")[0] for line in text.split("\n")[::count // 4]] == list("2345")


def test_one_job_builds_no_batch_past_the_cap(monkeypatch):
    sizes = []
    trial_batch = sweeps.trial_batch

    def recording(dim, streams, pair_kind="random"):
        sizes.append(len(streams.states))
        return trial_batch(dim, streams, pair_kind)

    monkeypatch.setattr(sweeps, "trial_batch", recording)
    trials = sweeps._CHUNK_TRIALS + 3
    rows, _ = sweep_rows([2], trials=trials, seed=4, f_specs=["neg-log"], jobs=1)
    assert sizes == [sweeps._CHUNK_TRIALS, 3]
    assert len(rows) == 8 * trials


def test_repeated_dimension_is_sampled_once(monkeypatch):
    sizes = []
    trial_batch = sweeps.trial_batch

    def recording(dim, streams, pair_kind="random"):
        sizes.append(len(streams.states))
        return trial_batch(dim, streams, pair_kind)

    def sweep_text(dims):
        out = io.StringIO()
        count, _ = sweep_bounds(dims, 300, seed=4, out=out, f_specs=["neg-log"], fmt="json")
        return out.getvalue(), count

    monkeypatch.setattr(sweeps, "trial_batch", recording)
    twice = sweep_text([3, 3])
    assert sum(sizes) == 300  # each distinct (dim, trial) once
    monkeypatch.undo()
    # the rows of [3], byte for byte: one row per grid cell
    assert twice == sweep_text([3]) and twice[1] == 8 * 300


class _InlinePipe:
    """Stands in for a child's pipe: runs the stripe's next chunk in-process
    when it is received, so a stub chunk's records stay in this process."""

    def __init__(self, run, chunks):
        self.results = map(run, chunks)

    def recv(self):
        return next(self.results)


@pytest.fixture
def pools_started(monkeypatch):
    """Records the processes of each striped sweep, this one included, and
    runs every child's stripe in-process."""
    started = []

    @contextlib.contextmanager
    def inline_children(run, plan, workers):
        started.append(workers)
        yield [(None, _InlinePipe(run, plan[k::workers])) for k in range(1, workers)]

    monkeypatch.setattr(sweeps, "_children", inline_children)
    return started


def test_pool_never_larger_than_the_plan(monkeypatch, pools_started):
    sweep_rows([9, 10], trials=20, seed=4, qs=[0.5], jobs=8)
    assert pools_started == [2]  # one chunk per dimension, two workers
    monkeypatch.setattr(sweeps, "_CHUNK_TRIALS", 1)
    serial = sweep_rows([2], trials=3, seed=4, f_specs=["neg-log"])
    pooled = sweep_rows([2], trials=3, seed=4, f_specs=["neg-log"], jobs=8)
    assert pools_started == [2, 3]  # three one-trial chunks, three workers
    assert pooled == serial


def test_single_chunk_sweep_starts_no_pool(pools_started):
    rows, _ = sweep_rows([3], trials=sweeps._CHUNK_TRIALS, seed=4, f_specs=["neg-log"],
                         jobs=2)
    assert len(chunk_plan([3], sweeps._CHUNK_TRIALS)) == 1
    assert len(rows) == 8 * sweeps._CHUNK_TRIALS and pools_started == []


@pytest.mark.parametrize("bad", [
    {"dims": []}, {"trials": 0}, {"f_specs": []}, {"fmt": "xml"},
    {"f_specs": ["bogus"]}, {"qs": [5.0]}, {"qs": [1.0]},
], ids=["no-dims", "no-trials", "no-generator", "xml", "bad-spec", "q-above-2", "q-is-1"])
@pytest.mark.parametrize("dims, trials, jobs", [([2, 3], 3, 1), (range(2, 9), 300, 2)])
def test_sweep_bounds_raises_before_it_writes(pools_started, bad, dims, trials, jobs):
    # every setting is checked before the table's head is written or a
    # child starts, so a bad one leaves no partial table
    out = io.StringIO()
    settings = dict({"dims": dims, "trials": trials, "f_specs": ["neg-log"]}, **bad)
    with pytest.raises(ValueError):
        sweep_bounds(seed=0, out=out, jobs=jobs, **settings)
    assert out.getvalue() == "" and pools_started == []


_BOUNDARY = (99_999, 100_000, 100_001, 999_999, 1_000_000, 1_000_001)


def test_rows_sorted_by_numeric_trial_past_a_million(monkeypatch, pools_started):
    # a stub chunk emits two rows for each boundary trial it holds; trial
    # 1 000 000 has a 7-digit tag, which sorts between 100000 and 100001
    # as a string
    def stub_chunk(seed, chunk, pair_kind, f_specs, qs, ae11_base, fmt):
        rows = [{"dim": dim, "pair_tag": f"{pair_kind}:{trial:06d}", "row": k,
                 "applicable": True, "slack": 0.0}
                for dim, trials in chunk for trial in _BOUNDARY if trial in trials
                for k in range(2)]
        return ",\n".join(map(json.dumps, rows)), len(rows), []

    monkeypatch.setattr(sweeps, "sweep_chunk", stub_chunk)
    for jobs in (1, 2):
        rows, violations = sweep_rows([3, 2], trials=1_000_002, seed=0,
                                      f_specs=["neg-log"], jobs=jobs)
        assert violations == []
        assert [(r["dim"], r["pair_tag"], r["row"]) for r in rows] == [
            (dim, f"random:{trial:06d}", k) for dim in (2, 3) for trial in _BOUNDARY
            for k in range(2)]
    assert pools_started == [2]


def test_violations_come_in_row_order(monkeypatch):
    # with the floor above every finite slack, each applicable row with a
    # slack is a violation, across chunks and a repeated listing
    monkeypatch.setattr(bounds, "SLACK_FLOOR", math.inf)
    monkeypatch.setattr(sweeps, "_CHUNK_TRIALS", 2)
    rows, violations = sweep_rows([3, 2, 3], trials=3, seed=6, f_specs=["neg-log"], qs=[0.5])
    assert violations == [(r["bound_name"], r["slack"]) for r in rows
                          if r["applicable"] and r["slack"] != ""]
    assert violations and len(violations) < len(rows)


def test_paper_example_first_row_frozen():
    row = paper_example_rows([3])[0]
    assert row["d"] == 3
    assert row["trace_dist"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert row["new_bound"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert row["ae11_natural"] == pytest.approx(math.log(2.0) / 3.0, rel=1e-12)
    assert row["ae11_base2"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert row["winner_per_base"] == "e=old;2=old"


@pytest.mark.parametrize("base", [0.5, 1e3], ids=["absolute", "relative"])
@pytest.mark.parametrize("scale, tie", [(0.9, True), (1.1, False)])
def test_winner_tie_threshold_both_sides(base, scale, tie):
    # a tie is a gap within 1e-9 * max(1, |new|, |old|): the floor 1 sets it
    # below 1, the larger value near 1e3
    lower, upper = base - scale * 1e-9 * max(1.0, base), base
    assert sweeps._winner(lower, upper) == ("tie" if tie else "new")
    assert sweeps._winner(upper, lower) == ("tie" if tie else "old")


# The CSV float cells: the array pass must give '%.17g' % x for every float,
# whether it certifies the cell or leaves it to format_cell.


def _assert_g17(values):
    xs = np.array(values, dtype=float)
    assert sweeps._g17_block(xs) == ["%.17g" % x for x in xs.tolist()]


def _left_to_format_cell(monkeypatch, values) -> list:
    """The values _g17_block does not certify, which format_cell writes."""
    left = []

    def format_cell(x):
        left.append(x)
        return "%.17g" % x

    monkeypatch.setattr(sweeps, "format_cell", format_cell)
    _assert_g17(values)
    return left


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_block_equals_percent_format(values):
    # NaN, both infinities, both zeros and subnormals all drawn
    _assert_g17(values)


def test_g17_block_at_powers_of_ten_and_their_neighbours():
    # a power of ten is where log10 gives a k off by one; 1e-300 .. 1e300
    # also crosses both ends of the certified range and 3-digit exponents
    tens = np.array([10.0 ** e for e in range(-300, 301)])
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    _assert_g17(np.concatenate([values, -values]))


@pytest.mark.parametrize("x, cell", [
    (1000000000000000.25, "1000000000000000.2"),  # an exact tie: half to even
    (1000000000000001.25, "1000000000000001.2"),
    (1000000000000000.75, "1000000000000000.8"),
    (2.0 ** -25, "2.9802322387695312e-08"),
])
def test_g17_block_leaves_exact_ties_to_format_cell(monkeypatch, x, cell):
    assert _left_to_format_cell(monkeypatch, [x, -x]) == [x, -x]
    assert sweeps._g17_block(np.array([x]))[0] == cell


@pytest.mark.parametrize("x, certified", [
    (1e-250, True), (np.nextafter(1e-250, 0), False),  # the range's lower end
    (9.9999e249, True), (np.nextafter(1e250, np.inf), False),  # its upper end
])
def test_g17_certified_range_both_ends(monkeypatch, x, certified):
    assert _left_to_format_cell(monkeypatch, [x, -x]) == ([] if certified else [x, -x])


@pytest.mark.parametrize("m, certified", [(125457, False), (368614, True)])
def test_g17_tie_margin_both_sides(monkeypatch, m, certified):
    # x = 1 + m 2^-52 gives y = x 10^16 a fraction 7.97e-7 and 1.65e-6 from
    # a half: inside the 1e-6 margin the cell is left to format_cell
    x = 1 + m * 2.0 ** -52
    distance = abs(Fraction(x) * 10 ** 16 % 1 - Fraction(1, 2))
    assert (distance > Fraction(1, 10 ** 6)) == certified
    assert _left_to_format_cell(monkeypatch, [x, -x]) == ([] if certified else [x, -x])


def test_g17_leaves_y_past_10_to_the_17_to_format_cell(monkeypatch):
    # a log10 a decade low puts every y at or past 10^17, where D would have
    # 18 digits (1.0 would lay out as ':'): no cell is certified
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) - 1)
    xs = [1.0, 10.0, 0.5, 123.456, 3e-7, 9.87e20]
    assert _left_to_format_cell(monkeypatch, xs) == xs


@pytest.mark.parametrize("x, cell", [
    (1.2345678901234567e-5, "1.2345678901234568e-05"),  # k = -5: exponent
    (1.2345678901234567e-4, "0.00012345678901234567"),  # k = -4: fixed
    (1.2345678901234567e16, "12345678901234568"),  # k = 16: fixed
    (1.2345678901234567e17, "1.2345678901234566e+17"),  # k = 17: exponent
    (1.5e-100, "1.5e-100"), (2.5e200, "2.5000000000000001e+200"),  # 3-digit exponents
    (0.5, "0.5"), (100.0, "100"), (1e16, "10000000000000000"), (3e-5, "3.0000000000000001e-05"),
])
def test_g17_block_where_the_notation_switches(monkeypatch, x, cell):
    assert _left_to_format_cell(monkeypatch, [x, -x]) == []
    assert sweeps._g17_block(np.array([x, -x])) == [cell, "-" + cell]


@pytest.mark.parametrize("cells, blocks", [
    (1, [1]),
    (sweeps._G17_BLOCK, [sweeps._G17_BLOCK]),
    (sweeps._G17_BLOCK + 1, [sweeps._G17_BLOCK // 2 + 1, sweeps._G17_BLOCK // 2]),
])
def test_g17_cells_format_even_blocks_of_at_most_g17_block(monkeypatch, cells, blocks):
    calls = []

    def block(xs):
        calls.append(len(xs))
        return ["%.17g" % x for x in xs.tolist()]

    monkeypatch.setattr(sweeps, "_g17_block", block)
    xs = np.linspace(0.1, 2.0, cells)
    assert sweeps._g17_cells(xs) == ["%.17g" % x for x in xs.tolist()]
    assert calls == blocks
