"""Batch drivers shared by the command-line tool and the acceptance suite.

A sweep evaluates every bound over a grid of (dimension, trial, generator)
and streams the rows out as CSV or JSON. chunk_plan alone decides how the
grid is cut and the order of its rows: dimensions ascending, then trials.
Each dimension is cut into blocks of at most _CHUNK_TRIALS trials, and
neighbouring blocks, of one dimension or several, share a chunk while it
holds at most _CHUNK_TRIALS pairs and _CHUNK_SQUARES in the sum of d^2 over
its pairs. Each block is one PairBatch, sampled, validated, diagonalized and
summarized once, and its divergences run as array operations over it; the
bounds then run once over the chunk's joined summary columns, and the chunk
is rendered to text straight from the resulting columns. The chunks run
inline, or at N jobs the calling process runs chunks 0, N, 2N, ... and child
process k the chunks k, k + N, ..., sending their text down its own pipe.
Each chunk's text is written in plan order as soon as it is in hand, and a
child that runs ahead blocks on its full pipe, so a sweep holds about one
chunk per process.

Every trial owns the random stream of default_rng((tag, seed, dim, trial)),
so a pair's rows do not depend on the chunk it sits in or on the number of
jobs; a chunk seeds all its trials' streams in one pass.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter

from .bounds import ae11_upper, relative_entropy_upper, sandwich_batch, violated
from .functions import parse_f_spec
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

BOUNDS_COLUMNS = [
    "dim", "seed", "pair_tag", "f_name", "q", "bound_name",
    "bound_value", "divergence", "slack", "applicable",
]
PAPER_EXAMPLE_COLUMNS = [
    "d", "trace_dist", "new_bound", "ae11_natural", "ae11_base2",
    "winner_per_base",
]


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


def batch_rows(batches: list, seed, tags: list, routes: list, ae11_base: str) -> tuple:
    """BOUNDS_COLUMNS rows for the pairs of one or more batches, end to end,
    as columns.

    ``seed`` is an int, or "" for a pair from a file; ``tags`` gives each
    pair its pair_tag; ``routes`` lists (f, q) choices as sandwich takes
    them. Returns (dims, seed, tags, columns): dims gives each pair its
    dimension, and columns hold per route its f_name, q cell, divergence
    column and bound reports in column form.
    """
    columns = []
    for f, q in routes:
        gen, divergence, reports = sandwich_batch(*batches, f=f, q=q, ae11_base=ae11_base)
        columns.append((gen.name, "" if q is None else float(q), divergence, reports))
    return [batch.dim for batch in batches for _ in range(len(batch))], seed, tags, columns


def format_cell(value) -> str:
    """One CSV cell: true or false, 17 significant digits, or the value's text."""
    if isinstance(value, bool):
        return ("false", "true")[value]
    return "%.17g" % value if isinstance(value, float) else str(value)


# Per format: one scalar cell's text, a list of floats' cells, the text
# before each BOUNDS_COLUMNS cell of a row, after its last, between two rows,
# and the table's head and tail. No cell of a bound row needs CSV quoting.
# JSON gives the bytes of json.dumps(rows, indent=1).
_FORMATS = {
    "csv": (format_cell, lambda xs: (",".join(["%.17g"] * len(xs)) % tuple(xs)).split(","),
            ("",) + (",",) * 9, "", "\n", ",".join(BOUNDS_COLUMNS) + "\n", "\n"),
    "json": (json.dumps, lambda xs: json.dumps(xs)[1:-1].split(", "),
             tuple((",\n  " if i else " {\n  ") + json.dumps(name) + ": "
                   for i, name in enumerate(BOUNDS_COLUMNS)),
             "\n }", ",\n", "[\n", "\n]\n"),
}


def render_columns(columns: tuple, order: list, fmt: str) -> tuple:
    """batch_rows' columns as ``fmt`` rows: (text, rows, violations).

    Rows come pair by pair in ``order``, a list of indices into the pairs
    (a pair listed twice gets its rows twice), then route by route, then
    bound by bound. ``violations`` holds the (bound_name, slack) of each applicable
    row with slack below -1e-10. The cells a pair's rows share are
    formatted once per pair and route, the rest one column at a time, and
    each pair's rows are then one %-format of those cells.
    """
    cell, floats, b, end, sep, _, _ = _FORMATS[fmt]
    dims, seed, tags, columns = columns
    empty, flags, seed = cell(""), ("false", "true"), cell(seed)
    pairs = [f"{b[0]}{dim}{b[1]}{seed}{b[2]}{cell(tag)}{b[3]}" for dim, tag in zip(dims, tags)]
    forms, cells, flagged = [], [], []  # per (route, bound): a row's %-form and its cells
    for f_name, q, divergence, reports in columns:
        route = f"{cell(f_name)}{b[4]}{cell(q)}{b[5]}"
        divergence = floats(divergence.tolist())
        for rep in reports:
            # %s: the pair's first cells, then bound_value, divergence, slack, applicable
            glue = (f"{route}{cell(rep.bound_name)}{b[6]}", b[7], b[8], b[9], end)
            forms.append("%s" + "%s".join(glue))  # no name or glue holds a %
            slack = rep.slack.tolist()
            cells += [pairs, floats(rep.value.tolist()), divergence,
                      [empty if s != s else t for s, t in zip(slack, floats(slack))],  # NaN: none
                      [flags[a] for a in rep.applicable.tolist()]]
            bad = violated(rep.applicable, rep.slack)
            if bad.any():
                flagged.append((rep.bound_name, slack, bad))
    form = sep.join(forms)  # all the rows of one pair
    pair_text = [form % pair_cells for pair_cells in zip(*cells)]
    violations = [(name, slack[n]) for n in order for name, slack, bad in flagged if bad[n]]
    return sep.join([pair_text[n] for n in order]), len(order) * len(forms), violations


def write_chunks(out, chunks, fmt: str) -> tuple:
    """Write render_columns' chunks to the text stream ``out`` as one table,
    each as soon as it comes. Returns (rows, violations) over all of them."""
    _, _, _, _, sep, head, tail = _FORMATS[fmt]
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
    bounds run once over the chunk. A trial listed more than once in a block
    (its dimension was) is sampled and evaluated once, and its rows are
    given once per listing.
    """
    routes = [(parse_f_spec(s), None) for s in f_specs] + [(None, float(q)) for q in qs]
    spans, keys, tags, order = [], [], [], []
    for dim, trials in blocks:
        index = {trial: n for n, trial in enumerate(dict.fromkeys(trials), len(keys))}
        spans.append((dim, range(len(keys), len(keys) + len(index))))
        keys += [trial_key(seed, dim, trial) for trial in index]
        tags += [f"{pair_kind}:{trial:06d}" for trial in index]
        order += [index[trial] for trial in trials]
    streams = trial_streams(keys)  # the whole chunk seeded in one pass
    batches = [trial_batch(dim, streams.take(span), pair_kind) for dim, span in spans]
    return render_columns(batch_rows(batches, int(seed), tags, routes, ae11_base), order, fmt)


def chunk_plan(dims: list, trials: int) -> list:
    """The chunks in row order, each a list of (dim, trials) blocks: dims
    ascending, then trials, at most _CHUNK_TRIALS distinct trials a block.
    A block joins the chunk before it while that chunk then holds at most
    _CHUNK_TRIALS distinct pairs and at most _CHUNK_SQUARES in the sum of d^2
    over them. A dimension listed k times gives each of its trials k times
    in a row, so each listing gets its own copy of the rows; sweep_chunk
    still samples and evaluates the trial once."""
    copies = Counter(dims)
    plan, pairs, squares = [], 0, 0
    for dim in sorted(copies):
        for start in range(0, trials, _CHUNK_TRIALS):
            block = range(start, min(start + _CHUNK_TRIALS, trials))
            n, weight = len(block), len(block) * dim ** 2
            if not plan or pairs + n > _CHUNK_TRIALS or squares + weight > _CHUNK_SQUARES:
                plan.append([])
                pairs = squares = 0
            plan[-1].append((dim, block if copies[dim] == 1 else
                             [t for t in block for _ in range(copies[dim])]))
            pairs, squares = pairs + n, squares + weight
    return plan


def sweep_bounds(dims, trials: int, seed: int, out, f_specs=(), qs=(),
                 pair_kind: str = "random", ae11_base: str = "e",
                 jobs: int = 1, fmt: str = "csv"):
    """Sandwich every bound over trials x dims x generators, writing the rows
    to the text stream ``out`` as ``fmt`` ("csv" or "json") chunk by chunk.

    ``trials`` counts pairs per dimension, and ``jobs`` processes, this one
    included; the bytes do not depend on ``jobs``. Returns write_chunks'
    (rows, violations).
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("dims must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    f_specs = list(f_specs)
    qs = [float(q) for q in qs]
    if not f_specs and not qs:
        raise ValueError("need at least one generator (f_specs or qs)")
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")

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


def _stripe(run, chunks, sender) -> None:
    """A child's stripe: each chunk's text, or the exception it raised, sent in order."""
    for chunk in chunks:
        try:
            result = run(chunk)
        except Exception as exc:
            sender.send(exc)  # the calling process re-raises it in plan order
            return
        sender.send(result)


@contextlib.contextmanager
def _children(run, plan: list, workers: int):
    """Starts child k = 1 .. workers - 1 on chunks k, k + workers, ... of
    ``plan``; yields each child's (process, receiving end of its pipe)."""
    import multiprocessing

    children = []
    try:
        for k in range(1, workers):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_stripe, args=(run, plan[k::workers], sender),
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


def _winner(new: float, old: float, rtol: float = 1e-9) -> str:
    if abs(new - old) <= rtol * max(1.0, abs(new), abs(old)):
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
