"""The four benchmark workloads.

A workload turns the benchmark seed into a sequence of fixed-size batches.
Batch ``i`` runs with program seed ``seed * BATCH_STRIDE + i``, so every
batch draws fresh inputs and the same seed always gives the same inputs.
The sweeps and the search drive the ``quasirel`` command in-process through
``quasirel.cli.main`` with standard output captured; ``verify`` drives the
library API the way the acceptance gate does. Every batch is split into
groups, each covering one or more units, which ``gate`` checks one by one.

Only the standard library is imported at module level: ``worker`` times
``setup`` from a fresh interpreter, and the program's own import belongs in
that time, not the benchmark's.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field, replace

DEFAULT_SEED = 0
HELD_OUT_SEED = 104729
BATCH_STRIDE = 100_000

# Sweep reference groups: the first trials of every dimension in batch 0.
REFERENCE_TRIALS = 8

# The `quasirel repr-check` default generator specs.
REPR_SPECS = (
    "neg-log", "neg-power:p=0.25", "neg-power:p=0.5", "neg-power:p=0.75",
    "tsallis:q=0.3", "tsallis:q=1.5",
)
_TAG_REPR = 9101
_TAG_PROVEN = 9102


@dataclass
class Batch:
    """One batch as run: its output groups and how long it took."""

    index: int
    expected: dict  # group key -> units the group covers
    texts: dict = field(default_factory=dict)  # group key -> output text
    exit_code: int = 0
    elapsed_s: float = 0.0
    output_bytes: int = 0

    @property
    def units(self) -> int:
        return sum(self.expected.values())


def batch_seed(seed: int, index: int) -> int:
    return seed * BATCH_STRIDE + index


def _run_cli(argv: list) -> tuple:
    """Run the command in-process; return (exit code, stdout text)."""
    import quasirel.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class SweepWorkload:
    kind = "sweep"
    # Traced runs: a unit starts with each sampled pair and ends with its block.
    unit_spans = (("sweeps.trial_pair",), ("sweeps.sweep_chunk",))

    def __init__(self, name: str, dims: tuple, gen_args: list, trials: int,
                 jobs: int):
        self.name = name
        self.dims = dims
        self.gen_args = gen_args
        self.trials = trials
        self.jobs = jobs

    def argv(self, seed: int, jobs: int) -> list:
        lo, hi = self.dims
        return ["sweep", "--dims", f"{lo}..{hi}", *self.gen_args,
                "--pair-kind", "random", "--jobs", str(jobs),
                "--trials", str(self.trials), "--seed", str(seed)]

    def command(self, seed: int, in_process: bool = False) -> str:
        jobs = 1 if in_process else self.jobs
        return "quasirel " + " ".join(self.argv(batch_seed(seed, 0), jobs))

    def setup(self, seed: int, in_process: bool = False) -> dict:
        """Parse the config and build the generators, as the command does.

        ``in_process`` runs the sweep at --jobs 1: the traced run needs
        every span in this process.
        """
        import quasirel.cli as cli
        from quasirel.functions import parse_f_spec, tsallis_f

        jobs = 1 if in_process else self.jobs
        cfg = cli.make_config(
            cli.build_parser().parse_args(self.argv(batch_seed(seed, 0), jobs)), {})
        # Built only so that setup_s covers generator construction; each
        # sweep builds its own again, as the command does.
        generators = [parse_f_spec(s) for s in cfg._f_list()]
        generators += [tsallis_f(q) for q in cfg.qs]
        return {"seed": seed, "jobs": jobs, "generators": generators}

    def run_batch(self, plan: dict, index: int, tracer=None) -> Batch:
        expected = {
            unit_key(d, t): 1
            for d in range(self.dims[0], self.dims[1] + 1)
            for t in range(self.trials)
        }
        batch = Batch(index, expected)
        argv = self.argv(batch_seed(plan["seed"], index), plan["jobs"])
        start = time.perf_counter()
        batch.exit_code, text = _run_cli(argv)
        batch.elapsed_s = time.perf_counter() - start
        batch.output_bytes = len(text.encode())
        batch.texts = split_sweep(text)
        return batch

    def reference_keys(self) -> list:
        return [unit_key(d, t)
                for d in range(self.dims[0], self.dims[1] + 1)
                for t in range(REFERENCE_TRIALS)]


def unit_key(dim: int, trial: int) -> str:
    return f"{dim},random:{trial:06d}"


def split_sweep(text: str) -> dict:
    """Group sweep CSV rows by pair: the key is the row's dim and pair_tag."""
    groups: dict = {}
    for line in text.splitlines()[1:]:
        dim, _seed, tag, _rest = line.split(",", 3)
        groups.setdefault(f"{dim},{tag}", []).append(line)
    return {key: "\n".join(rows) for key, rows in groups.items()}


class SearchWorkload:
    kind = "search"
    name = "search"
    # Traced runs: each trial or restart builds its own generator.
    unit_spans = (("states.default_rng",), ("conjecture.conjecture_search",))
    dims = "3..6"
    # Trials per random run and restarts per hill-climb run: a fixed 100:1
    # ratio, so both the per-trial RNG cost and the climb cost show.
    random_trials = 500
    climb_restarts = 5

    def argv(self, seed: int, strategy: str) -> list:
        trials = self.random_trials if strategy == "random" else self.climb_restarts
        return ["conjecture", "--dims", self.dims, "--weights", "uniform",
                "--strategy", strategy, "--trials", str(trials),
                "--seed", str(seed)]

    def command(self, seed: int, in_process: bool = False) -> str:
        return " + ".join("quasirel " + " ".join(self.argv(batch_seed(seed, 0), s))
                          for s in ("random", "hill_climb"))

    def setup(self, seed: int, in_process: bool = False) -> dict:
        import quasirel.cli as cli
        from quasirel.states import default_rng

        for strategy in ("random", "hill_climb"):
            cli.make_config(cli.build_parser().parse_args(
                self.argv(batch_seed(seed, 0), strategy)), {})
        # Built only so that setup_s covers generator construction; the
        # search builds one per trial itself.
        return {"seed": seed, "rng": default_rng((batch_seed(seed, 0), 3, 0))}

    def run_batch(self, plan: dict, index: int, tracer=None) -> Batch:
        batch = Batch(index, {"random": self.random_trials,
                              "hill_climb": self.climb_restarts})
        seed = batch_seed(plan["seed"], index)
        start = time.perf_counter()
        for strategy in ("random", "hill_climb"):
            code, text = _run_cli(self.argv(seed, strategy))
            batch.exit_code = batch.exit_code or code
            batch.output_bytes += len(text.encode())
            if text:
                batch.texts[strategy] = text.rstrip("\n")
        batch.elapsed_s = time.perf_counter() - start
        return batch

    def reference_keys(self) -> list:
        return ["random", "hill_climb"]


class VerifyWorkload:
    """Route cross-checks, representation round-trips and proven cases.

    Each batch holds, in fixed proportions: 7 pairs (d = 2..8) x 4 builtin
    generators of route agreement, 2 round-trips at seeded points per
    repr-check spec plus each spec's normalization residual, and 50 + 50
    proven-case instances drawn as criterion 5 draws them.
    """

    kind = "verify"
    name = "verify"
    unit_spans = ((), ())  # run_batch marks each check as a unit itself
    route_dims = range(2, 9)
    repr_points = 2
    proven_per_case = 50

    def command(self, seed: int, in_process: bool = False) -> str:
        return ("library API: route cross-check d=2..8 over builtin_suite(), "
                "repr-check specs, proven-case checks")

    def setup(self, seed: int, in_process: bool = False) -> dict:
        from quasirel.functions import builtin_suite, parse_f_spec

        return {"seed": seed, "gens": builtin_suite(),
                "specs": [parse_f_spec(s) for s in REPR_SPECS]}

    def run_batch(self, plan: dict, index: int, tracer=None) -> Batch:
        import numpy as np
        from quasirel import conjecture, divergences, functions, states, sweeps

        seed = batch_seed(plan["seed"], index)
        rows: dict = {}

        def check(key, body):
            if tracer is not None:
                tracer.begin_unit()
            try:
                rows[key] = body()
            except Exception as exc:  # a raising check is a failed unit
                rows[key] = f"error,{type(exc).__name__}: {exc}".replace("\n", " ")
            finally:
                if tracer is not None:
                    tracer.end_unit()

        start = time.perf_counter()
        for dim in self.route_dims:
            pair = sweeps.trial_pair(seed, dim, 0)
            for f in plan["gens"]:
                check(f"route,d={dim},{f.name}",
                      lambda pair=pair, f=f: _route_row(divergences, pair, f))
        rng = states.default_rng((_TAG_REPR, seed))
        for f in plan["specs"]:
            if tracer is not None:
                f = replace(f, measure_density=tracer.count_points(f.measure_density))
            for x in 10.0 ** rng.uniform(-3.0, 3.0, self.repr_points):
                x = float(x)
                check(f"repr,{f.name},x={x!r}",
                      lambda f=f, x=x: _fmt("repr", float(f.eval(x)),
                                            functions.eval_via_representation(f, x)))
            check(f"residual,{f.name}",
                  lambda f=f: _fmt("residual", functions.normalization_residual(f)))
        rng = states.default_rng((_TAG_PROVEN, seed))
        for k in range(self.proven_per_case):
            dim = 2 + (k % 5)
            w = conjecture.random_functional(dim, rng, cap=float(rng.uniform(0.2, 3.0)))
            basis = w.basis_psi if k % 2 else w.basis_phi
            x = basis @ np.diag(rng.standard_normal(dim)) @ basis.conj().T
            check(f"proven,diagonal,{k}",
                  lambda w=w, x=x: _fmt(
                      "proven", conjecture.proven_case_check(w, x, "diagonal")))
        for k in range(self.proven_per_case):
            w = conjecture.random_functional(2, rng)
            a = float(rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            x = np.array([[a, b], [np.conj(b), -a]])
            check(f"proven,qubit_traceless,{k}",
                  lambda w=w, x=x: _fmt(
                      "proven", conjecture.proven_case_check(w, x, "qubit_traceless")))
        batch = Batch(index, {key: 1 for key in rows}, texts=rows)
        batch.elapsed_s = time.perf_counter() - start
        return batch

    def reference_keys(self) -> None:
        return None  # every group of batch 0


# Third route per builtin generator, as acceptance criterion 1 pairs them:
# umegaki for neg-log, tsallis_direct for the Tsallis orders, none for
# neg-power.
_DIRECT_ROUTES = {"neg-log": None, "tsallis:q=0.3": 0.3, "tsallis:q=1.5": 1.5}


def _route_row(divergences, pair, f) -> str:
    values = [divergences.quasi_entropy_spectral(pair, f).value,
              divergences.quasi_entropy_superoperator(pair, f).value]
    if f.name in _DIRECT_ROUTES:
        q = _DIRECT_ROUTES[f.name]
        direct = divergences.umegaki(pair) if q is None else divergences.tsallis_direct(pair, q)
        values.append(direct.value)
    return _fmt("route", *values)


def _fmt(kind: str, *values) -> str:
    cells = [("true" if v else "false") if isinstance(v, bool) else f"{v:.17g}"
             for v in values]
    return ",".join([kind, *cells])


WORKLOADS = {
    "sweep_suite": SweepWorkload(
        "sweep_suite", (2, 5), ["--f", "all", "--q", "0.3,1.5"], trials=25, jobs=1),
    "sweep_wide": SweepWorkload(
        "sweep_wide", (9, 16), ["--f", "neg-log"], trials=25, jobs=2),
    "search": SearchWorkload(),
    "verify": VerifyWorkload(),
}
