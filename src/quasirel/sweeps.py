"""Batch drivers shared by the command-line tool and the acceptance suite.

A sweep evaluates every bound over a grid of (dimension, trial, generator) and
streams the rows out as CSV or JSON; sweep_bounds checks every setting first.
chunk_plan alone decides how the grid is cut and the order of its rows: the
set of dimensions ascending, then trials. Each dimension is cut into blocks of
at most _CHUNK_TRIALS trials, and neighbouring blocks, of one dimension or
several, share a chunk while it holds at most _CHUNK_TRIALS pairs and
_CHUNK_SQUARES in the sum of d^2 over its pairs. Each block is one PairBatch,
sampled, validated, diagonalized and summarized once. bounds.sandwich_batch
runs each route's divergences as array operations over the blocks and its
bounds once over the chunk's joined summary columns as one table, and
render_columns lays the tables out as text in table_layout, the layout of
every table the CLI prints. The chunks run inline, or at N jobs the calling
process runs chunks 0, N, 2N, ... and child process k the chunks k, k + N,
..., sending their text down its own pipe. Each chunk's text is written in
plan order as soon as it is in hand, and a child that runs ahead blocks on its
full pipe, so a sweep holds about one chunk per process.

Every trial owns the random stream of default_rng((tag, seed, dim, trial)),
so a pair's rows do not depend on the chunk it sits in or on the number of
jobs; a chunk seeds all its trials' streams in one pass.
"""

from __future__ import annotations

import contextlib
import functools
import json

import numpy as np

from .bounds import ae11_upper, relative_entropy_upper, routes, sandwich_batch, violated
from .states import (
    PairBatch,
    TrialStreams,
    example_pair,
    random_classical_pairs,
    random_pairs,
    summarize,
    trial_streams,
)

_TAG_SWEEP = 7001
# Caps a chunk's pairs, and so its memory; 256 pairs at d = 3 measured the
# fastest per pair of 64..1024. A chunk may hold several dimensions' blocks
# while their sum of d^2 stays within such a d = 3 chunk's.
_CHUNK_TRIALS = 256
_CHUNK_SQUARES = _CHUNK_TRIALS * 3 ** 2

BOUNDS_COLUMNS = (
    "dim", "seed", "pair_tag", "f_name", "q", "bound_name",
    "bound_value", "divergence", "slack", "applicable",
)
PAPER_EXAMPLE_COLUMNS = (
    "d", "trace_dist", "new_bound", "ae11_natural", "ae11_base2",
    "winner_per_base",
)


def trial_key(seed: int, dim: int, trial: int) -> tuple:
    """The seed of one (dim, trial) cell's random stream."""
    return (_TAG_SWEEP, seed, dim, trial)


def trial_batch(dim: int, streams: TrialStreams, pair_kind: str = "random") -> PairBatch:
    """The pairs of the given trial streams at one dimension."""
    if pair_kind == "random":
        return random_pairs(dim, streams)
    if pair_kind == "classical":
        return random_classical_pairs(dim, streams)
    raise ValueError(f"unknown pair_kind {pair_kind!r}")


def trial_pair(seed: int, dim: int, trial: int, pair_kind: str = "random") -> PairBatch:
    """One trial's pair: a batch of one from trial_batch."""
    return trial_batch(dim, trial_streams([trial_key(seed, dim, trial)]), pair_kind)


def format_cell(value) -> str:
    """One CSV cell: true or false, 17 significant digits, or the value's text."""
    if isinstance(value, bool):
        return ("false", "true")[value]
    return "%.17g" % value if isinstance(value, float) else str(value)


_G17_BLOCK = 2048  # cells _g17_block formats at once: bounds its arrays


@functools.cache
def _g17_tables() -> tuple:
    """Built on first use: 10^(16 - k), k = -252 .. 252, as hi + lo from exact
    integers, hi also in halves; the 4-digit groups, then with trailing zeros NUL."""
    hi, lo = [], []
    for p in range(-236, 269):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        hi.append(num / den)  # int / int rounds correctly
        n, d = hi[-1].as_integer_ratio()
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    head = hi * 134217729.0 - (hi * 134217729.0 - hi)  # Veltkamp's split, 2^27 + 1
    g = np.arange(10000, dtype=np.int16)[:, None]
    digits = (g // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    bare = digits * (g % np.array([10000, 1000, 100, 10], np.int16) != 0)
    return hi, head, hi - head, np.array(lo), np.concatenate([digits, bare]).view(np.uint32)[:, 0]


def _bytes(rows, offset, width: int):  # width bytes from offset of each row, or of every byte
    if offset is None:
        return np.ndarray((rows.size - width + 1,), f"V{width}", rows, 0, (1,))
    return np.ndarray((len(rows),), f"V{width}", rows, offset, (rows.shape[1],))


def _g17_cells(xs) -> list:
    """_g17_block's cells of a float array, in even blocks of at most _G17_BLOCK."""
    cells = []
    for block in np.array_split(xs, -(-len(xs) // _G17_BLOCK)):
        cells += _g17_block(block)
    return cells


def _g17_block(xs) -> list:
    """['%.17g' % x for x in xs] by array arithmetic where a cell is certified:
    1e-250 <= |x| <= 1e250, and y = |x| 10^(16-k), k = floor(log10|x|), in
    [10^16, 10^17) and over 1e-6 from a half once rounded to the integer D of
    its 17 digits (y errs by under 1e-14). The rest go to format_cell."""
    hi, head, tail, lo, groups = _g17_tables()
    a = np.abs(xs)
    ok = (a >= 1e-250) & (a <= 1e250)  # False at NaN, so nothing below warns
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    p = 252 - k  # the tables' index of 10^(16-k)
    # y = y1 + y2: Dekker's exact product of a and hi, plus a * lo
    y1, head, tail = a * hi[p], head[p], tail[p]
    a_head = a * 134217729.0 - (a * 134217729.0 - a)
    a_tail = a - a_head
    y2 = a_head * head - y1 + a_head * tail + a_tail * head + a_tail * tail + a * lo[p]
    rounded = np.rint(y2)  # y1 >= 2^53 is an integer
    D = y1.astype(np.int64) + rounded.astype(np.int64)
    y2 -= rounded
    ok &= (np.abs(y2) < 0.5 - 1e-6) & (D < 10 ** 17) & ((y1 - 1e16) + rounded + y2 >= 0)
    D[~ok] = 10 ** 16
    # D's first digit, then 4 groups of 4, each group also bare if only zeros follow
    g, bare = np.empty((len(xs), 5), np.int64), np.full((len(xs), 5), 10000)
    for j, unit in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1)):
        g[:, j] = D // unit
        D -= g[:, j] * unit
        bare[:, j] *= D == 0
    # R: 23 '0's, the digits; 7 '0's, the digits with trailing zeros NUL; 20 NULs
    R = np.full((len(xs), 84), 48, np.uint8)
    R[:, 23] = R[:, 47] = g[:, 0] + 48
    _bytes(R, 24, 16)[:] = groups[g[:, 1:]].view("V16").ravel()
    _bytes(R, 48, 16)[:] = groups[g[:, 1:] + bare[:, 1:]].view("V16").ravel()
    R[:, 64:] = 0
    # Y: the sign, 17 integer places, the point, 20 decimals, the exponent
    point = np.where((k >= -4) & (k < 17), k, 0)  # the digit before the point
    at = np.arange(0, R.size, 84) + point
    Y = np.zeros((len(xs), 44), np.uint8)
    _bytes(Y, 1, 17)[:] = _bytes(R, None, 17)[at + 7]
    _bytes(Y, 19, 20)[:] = _bytes(R, None, 20)[at + 48]
    Y[:, 18] = (Y[:, 19] != 0) * 46
    negative = xs < 0
    start = np.arange(17, Y.size, 44) - np.maximum(point, 0) - negative
    Y.ravel()[start[negative]] = 45
    sci = np.flatnonzero(ok & (point != k))  # d.ddd...e±XX
    if len(sci):
        end = sci * 44 + 18 + np.count_nonzero(Y[sci, 18:39], axis=1)
        exponents = np.array([b"e%+03d" % e for e in k[sci].tolist()], "S5")
        _bytes(Y, None, 5)[end] = exponents.view("V5")
    # each cell's 24 bytes from its start; the NULs after its text drop
    cells = _bytes(Y, None, 24)[start].view(np.uint8).astype(np.uint32).view("U24").tolist()
    for i in np.flatnonzero(~ok).tolist():
        cells[i] = format_cell(float(xs[i]))
    return cells


@functools.cache
def table_layout(columns: tuple, fmt: str) -> tuple:
    """A ``fmt`` table of ``columns``: a scalar cell's text, a float array's cells,
    the text before each cell of a row, after its last and between two rows, and
    its head and tail. No CLI cell needs CSV quoting; JSON is json.dumps(rows, indent=1)."""
    if fmt == "csv":
        return (format_cell, _g17_cells, ("",) + (",",) * (len(columns) - 1),
                "", "\n", ",".join(columns) + "\n", "\n")
    if fmt == "json":
        return (json.dumps, lambda xs: json.dumps(xs.tolist())[1:-1].split(", "),
                tuple((",\n  " if i else " {\n  ") + json.dumps(name) + ": "
                      for i, name in enumerate(columns)), "\n }", ",\n", "[\n", "\n]\n")
    raise ValueError(f"unknown format {fmt!r}")


def render_columns(dims: list, seed, tags: list, routes: list, fmt: str) -> tuple:
    """BOUNDS_COLUMNS rows of sandwich_batch's ``routes`` as ``fmt`` rows:
    (text, rows, violations).

    ``dims`` and ``tags`` give each pair its dimension and pair_tag, and
    ``seed`` is an int, or "" for a pair from a file. Rows come pair by pair,
    then route by route, then bound by bound, so ``rows`` is the pairs times
    the rows of one pair. ``violations`` holds the (bound_name, slack) of
    each applicable row with slack below -1e-10, in row order. The cells a
    pair's rows share are formatted once per pair and route, and every float
    cell of the chunk (each route's divergences, bound values and slacks) in
    one call; each pair's rows are then one %-format of those cells.
    """
    cell, floats, b, end, sep, _, _ = table_layout(BOUNDS_COLUMNS, fmt)
    empty, flags, seed = cell(""), ("false", "true"), cell(seed)
    pairs = [f"{b[0]}{dim}{b[1]}{seed}{b[2]}{cell(tag)}{b[3]}" for dim, tag in zip(dims, tags)]
    forms, cells, flagged = [], [], []  # per (route, bound): a row's %-form and its cells
    width = len(pairs)
    # the chunk's float cells: divergences and bound values route by route, then slacks
    columns = [c for *_, divergence, table in routes for c in (divergence, table.value.ravel())]
    at, at_slack = 0, sum(map(len, columns))
    numbers = np.concatenate(columns + [table.slack.ravel() for *_, table in routes])
    texts = floats(numbers)
    for i in np.flatnonzero(np.isnan(numbers[at_slack:])).tolist():
        texts[at_slack + i] = empty  # a NaN slack: no cell
    for gen, q, _, table in routes:
        # a float, as an int q would print as 2, not 2.0, in JSON
        route = f"{cell(gen.name)}{b[4]}{cell('' if q is None else float(q))}{b[5]}"
        divergence, at = texts[at:at + width], at + width
        oks = [flags[a] for a in table.applicable.ravel().tolist()]
        # the table's cells, bound after bound, each bound's pairs in a run
        for row, name in enumerate(table.bound_names):
            # %s: the pair's first cells, then bound_value, divergence, slack, applicable
            glue = (f"{route}{cell(name)}{b[6]}", b[7], b[8], b[9], end)
            forms.append("%s" + "%s".join(glue))  # no name or glue holds a %
            cells += [pairs, texts[at:at + width], divergence,
                      texts[at_slack:at_slack + width], oks[row * width:(row + 1) * width]]
            at, at_slack = at + width, at_slack + width
        bad = violated(table.applicable, table.slack)
        if bad.any():
            flagged += [(name, table.slack[row].tolist(), bad[row].tolist())
                        for row, name in enumerate(table.bound_names) if bad[row].any()]
    form = sep.join(forms)  # all the rows of one pair
    text = sep.join([form % pair_cells for pair_cells in zip(*cells)])
    violations = [(name, slack[n]) for n in range(width) for name, slack, bad in flagged if bad[n]]
    return text, width * len(forms), violations


def write_chunks(out, chunks, fmt: str) -> tuple:
    """Write render_columns' chunks to the text stream ``out`` as one table,
    each as soon as it comes. Returns (rows, violations) over all of them."""
    _, _, _, _, sep, head, tail = table_layout(BOUNDS_COLUMNS, fmt)
    out.write(head)
    rows, violations = 0, []
    for text, n, flagged in chunks:
        out.write(sep + text if rows and n else text)
        rows += n
        violations += flagged
    out.write(tail)
    return rows, violations


def sweep_chunk(seed: int, blocks: list, pair_kind: str,
                f_specs: list, qs: list, ae11_base: str, fmt: str) -> tuple:
    """One shard, rendered: a list of (dim, trials) blocks. Top level for pickling.

    Each block is sampled as one batch and its divergences run over it; the
    bounds run once over the chunk, and each trial gets its rows once.
    """
    resolved = routes(f_specs, qs)
    spans, keys, dims, tags = [], [], [], []
    for dim, trials in blocks:
        spans.append((dim, range(len(keys), len(keys) + len(trials))))
        keys += [trial_key(seed, dim, trial) for trial in trials]
        dims += [dim] * len(trials)
        tags += [f"{pair_kind}:{trial:06d}" for trial in trials]
    streams = trial_streams(keys)  # the whole chunk seeded in one pass
    batches = [trial_batch(dim, streams.take(span), pair_kind) for dim, span in spans]
    return render_columns(dims, int(seed), tags, sandwich_batch(batches, resolved, ae11_base), fmt)


def chunk_plan(dims: list, trials: int) -> list:
    """The chunks in row order, each a list of (dim, trials) blocks: the set
    of ``dims`` ascending, then trials, at most _CHUNK_TRIALS trials a block.
    A block joins the chunk before it while that chunk then holds at most
    _CHUNK_TRIALS pairs and at most _CHUNK_SQUARES in the sum of d^2 over
    them. A dimension listed twice is planned once."""
    plan, pairs, squares = [], 0, 0
    for dim in sorted(set(dims)):
        for start in range(0, trials, _CHUNK_TRIALS):
            block = range(start, min(start + _CHUNK_TRIALS, trials))
            n, weight = len(block), len(block) * dim ** 2
            if not plan or pairs + n > _CHUNK_TRIALS or squares + weight > _CHUNK_SQUARES:
                plan.append([])
                pairs = squares = 0
            plan[-1].append((dim, block))
            pairs, squares = pairs + n, squares + weight
    return plan


def sweep_bounds(dims, trials: int, seed: int, out, f_specs=(), qs=(),
                 pair_kind: str = "random", ae11_base: str = "e",
                 jobs: int = 1, fmt: str = "csv"):
    """Sandwich every bound over trials x dims x generators, writing the rows
    to the text stream ``out`` as ``fmt`` ("csv" or "json") chunk by chunk.

    ``dims`` is taken as a set; a dimension or generator listed twice gets its rows once.
    ``trials`` counts pairs per dimension, and ``jobs`` processes, this one
    included; the bytes do not depend on ``jobs``. Returns write_chunks'
    (rows, violations).
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("dims must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    resolved = routes(f_specs, qs)  # raises on a bad spec or order
    if not resolved:
        raise ValueError("need at least one generator (f_specs or qs)")
    f_specs = [gen.name for gen, q in resolved if q is None]
    qs = [q for _, q in resolved if q is not None]  # a spawned child takes text, not generators
    table_layout(BOUNDS_COLUMNS, fmt)  # raises on an unknown format

    plan = chunk_plan(dims, trials)
    run = functools.partial(sweep_chunk, seed, pair_kind=pair_kind, f_specs=f_specs,
                            qs=qs, ae11_base=ae11_base, fmt=fmt)
    workers = min(jobs, len(plan))
    if workers <= 1:
        return write_chunks(out, map(run, plan), fmt)
    with _children(run, plan, workers) as children:
        chunks = (_receive(*children[n % workers - 1]) if n % workers else run(chunk)
                  for n, chunk in enumerate(plan))
        return write_chunks(out, chunks, fmt)


def _stripe(run, chunks, sender, receivers) -> None:
    """A child's stripe: each chunk's text, or the exception it raised, sent in order.

    ``receivers`` are the receiving ends the child inherited, its own pipe's
    and its earlier siblings'. It closes them first, so that once the
    calling process is gone a send to a full pipe fails with EPIPE instead
    of blocking for good.
    """
    for receiver in receivers:
        receiver.close()
    for chunk in chunks:
        try:
            result = run(chunk)
        except Exception as exc:
            result = exc  # the calling process re-raises it in plan order
        try:
            sender.send(result)
        except BrokenPipeError:  # the calling process is gone: end quietly
            return
        if isinstance(result, Exception):
            return


@contextlib.contextmanager
def _children(run, plan: list, workers: int):
    """Starts child k = 1 .. workers - 1 on chunks k, k + workers, ... of
    ``plan``; yields each child's (process, receiving end of its pipe)."""
    import multiprocessing

    children = []
    try:
        for k in range(1, workers):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            inherited = [r for _, r in children] + [receiver]
            child = multiprocessing.Process(target=_stripe,
                                            args=(run, plan[k::workers], sender, inherited),
                                            name=f"sweep worker {k}", daemon=True)
            child.start()
            sender.close()
            children.append((child, receiver))
        yield children
    except BaseException:
        for child, _ in children:
            child.terminate()  # before the pipes close, or a child blocked in send stays so
        raise
    finally:
        for child, receiver in children:
            receiver.close()
            child.join()


def _receive(child, receiver):
    """A child's next chunk, re-raising the exception it sent in its place."""
    try:
        result = receiver.recv()
    except EOFError:  # the child ended without sending it
        child.join()
        raise ChildProcessError(f"{child.name} exited with code {child.exitcode} "
                                "before sending its chunks") from None
    if isinstance(result, BaseException):
        raise result
    return result


def _winner(new: float, old: float) -> str:
    if abs(new - old) <= 1e-9 * max(1.0, abs(new), abs(old)):
        return "tie"
    return "new" if new < old else "old"


def paper_example_rows(dims) -> list:
    """The worked maximally-mixed-vs-near-pure comparison table.

    For each d: rho = I/d against the rank-2 sigma with entries
    (1/d, 1 - 1/d). Emits the trace distance (exactly 2 - 4/d), the tight
    divided-difference bound (base-free here because both smallest positive
    eigenvalues coincide at 1/d), and the prior logarithmic bound in natural
    and base-2 readings, plus which bound wins per base.
    """
    rows = []
    for d in sorted({int(d) for d in dims}):
        s = summarize(example_pair(d))
        tight = relative_entropy_upper(s)[0].value
        ae_e = ae11_upper(s, "e").value
        ae_2 = ae11_upper(s, "2").value
        rows.append({
            "d": d,
            "trace_dist": float(s.trace_distance_1),
            "new_bound": float(tight),
            "ae11_natural": float(ae_e),
            "ae11_base2": float(ae_2),
            "winner_per_base": f"e={_winner(tight, ae_e)};2={_winner(tight, ae_2)}",
        })
    return rows
