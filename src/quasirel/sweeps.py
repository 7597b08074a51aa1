"""Batch drivers shared by the command-line tool and the acceptance suite.

A sweep evaluates every bound over a grid of (dimension, trial, generator)
and flattens the results into plain-dict rows ready for CSV/JSON emission.
chunk_plan alone decides how the grid is cut and the order of its rows:
dimensions ascending, then trials, at most _CHUNK_TRIALS trials a chunk.
Each chunk is one PairBatch: sampled, validated, diagonalized and
summarized once, after which every divergence and bound runs as array
operations over the whole chunk and the rows are read straight off the
resulting columns. The chunks run inline or in a pool of at most one
worker per chunk, and their rows are concatenated in plan order.

Every trial owns a generator seeded by (tag, seed, dim, trial), so a pair's
rows do not depend on the chunk it sits in or on the number of jobs.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

from .bounds import SLACK_FLOOR, ae11_upper, relative_entropy_upper, sandwich_batch
from .functions import parse_f_spec
from .states import (
    PairBatch,
    default_rng,
    example_pair,
    random_classical_pairs,
    random_pairs,
)

_TAG_SWEEP = 7001
_CHUNK_TRIALS = 256  # caps a batch's memory; measured the fastest per pair of 64..1024

BOUNDS_COLUMNS = [
    "dim", "seed", "pair_tag", "f_name", "q", "bound_name",
    "bound_value", "divergence", "slack", "applicable",
]
PAPER_EXAMPLE_COLUMNS = [
    "d", "trace_dist", "new_bound", "ae11_natural", "ae11_base2",
    "winner_per_base",
]


def trial_rng(seed: int, dim: int, trial: int):
    """The generator owned by one (dim, trial) cell of a sweep."""
    return default_rng((_TAG_SWEEP, seed, dim, trial))


def trial_batch(seed: int, dim: int, trials, pair_kind: str = "random") -> PairBatch:
    """The pairs of the given trials at one dimension, each from its own generator."""
    rngs = [trial_rng(seed, dim, trial) for trial in trials]
    if pair_kind == "random":
        return random_pairs(dim, rngs)
    if pair_kind == "classical":
        return random_classical_pairs(dim, rngs, shuffle=True)
    raise ValueError(f"unknown pair_kind {pair_kind!r}")


def trial_pair(seed: int, dim: int, trial: int, pair_kind: str = "random"):
    """One trial's pair: a batch of one from trial_batch."""
    return trial_batch(seed, dim, [trial], pair_kind).pair(0)


def batch_rows(batch: PairBatch, seed: int, tags: list, routes: list,
               ae11_base: str) -> list:
    """BOUNDS_COLUMNS rows for every pair of a batch.

    ``routes`` lists (f, q) generator choices as sandwich takes them; each
    fills the f_name and q cells of its rows. Rows come pair by pair
    (``tags`` names the pairs), then route by route, then bound by bound.
    """
    columns = []
    for f, q in routes:
        gen, divergence, reports = sandwich_batch(batch, f=f, q=q, ae11_base=ae11_base)
        divergence = divergence.tolist()
        q_cell = "" if q is None else float(q)
        for rep in reports:
            slack = ["" if s != s else s for s in rep.slack.tolist()]  # NaN: no slack
            columns.append((gen.name, q_cell, rep.bound_name, rep.value.tolist(),
                            divergence, slack, rep.applicable.tolist()))
    dim = int(batch.dim)
    return [
        {"dim": dim, "seed": seed, "pair_tag": tag, "f_name": f_name, "q": q,
         "bound_name": name, "bound_value": values[n], "divergence": divergence[n],
         "slack": slack[n], "applicable": applicable[n]}
        for n, tag in enumerate(tags)
        for f_name, q, name, values, divergence, slack, applicable in columns
    ]


def violation_rows(rows: list) -> list:
    """The applicable rows whose slack fell below -1e-10."""
    return [r for r in rows
            if r["applicable"] and r["slack"] != "" and r["slack"] < SLACK_FLOOR]


def sweep_chunk(seed: int, dim: int, trials, pair_kind: str,
                f_specs: list, qs: list, ae11_base: str) -> list:
    """One shard: a block of trials at fixed dim. Top level for pickling."""
    routes = [(parse_f_spec(s), None) for s in f_specs] + [(None, float(q)) for q in qs]
    batch = trial_batch(seed, dim, trials, pair_kind)
    tags = [f"{pair_kind}:{trial:06d}" for trial in trials]
    return batch_rows(batch, int(seed), tags, routes, ae11_base)


def chunk_plan(dims: list, trials: int) -> list:
    """(dim, trials) chunks in row order: dims ascending, then trials, at most
    _CHUNK_TRIALS trials a chunk. A dimension listed k times gives each of its
    trials k times in a row, so each listing gets its own copy of the rows."""
    copies = Counter(dims)
    blocks = [range(start, min(start + _CHUNK_TRIALS, trials))
              for start in range(0, trials, _CHUNK_TRIALS)]
    return [(dim, block if copies[dim] == 1 else [t for t in block for _ in range(copies[dim])])
            for dim in sorted(copies) for block in blocks]


def sweep_bounds(dims, trials: int, seed: int, f_specs=(), qs=(),
                 pair_kind: str = "random", ae11_base: str = "e",
                 jobs: int = 1):
    """Sandwich every bound over trials x dims x generators.

    ``trials`` counts pairs per dimension. Returns (rows, violations) where
    violations are the applicable rows whose slack fell below -1e-10.
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

    plan = chunk_plan(dims, trials)
    run = functools.partial(sweep_chunk, seed, pair_kind=pair_kind, f_specs=f_specs,
                            qs=qs, ae11_base=ae11_base)
    workers = min(jobs, len(plan))
    if workers <= 1:
        results = itertools.starmap(run, plan)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, *zip(*plan)))
    rows = list(itertools.chain.from_iterable(results))
    return rows, violation_rows(rows)


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
        s = example_pair(d).summary
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
