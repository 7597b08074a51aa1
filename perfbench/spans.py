"""Span tracing of the ``quasirel`` modules from outside the package.

``Tracer.install`` wraps every public function of each module and puts the
wrapper wherever the function's name is bound: its own module, every module
that imported it by name (``from .linalg import eigh``), module-level dicts
(the CLI's command table) and the package namespace. ``Tracer.restore``
puts the originals back. The program's source is never edited.

Each span records (name, start, end, parent, unit). Spans stay in memory
and are written out once, after the traced phase, by ``write``.
``layer_metrics`` turns them into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import time

MODULES = ("linalg", "states", "quadrature", "functions", "divergences",
           "bounds", "conjecture", "sweeps", "cli")


class Tracer:
    def __init__(self, unit_start: tuple = (), unit_scope: tuple = ()):
        """``unit_start`` names spans whose entry starts a new unit;
        ``unit_scope`` names spans whose exit closes the current one."""
        self.names: list = []
        self.spans: list = []  # [name id, start ns, end ns, parent, unit]
        self.stack: list = []
        self.unit = -1
        self.units_started = 0
        self.counts = {"bounds.reports": 0, "cli.rows": 0, "quadrature.points": 0}
        self._unit_start = set(unit_start)
        self._unit_scope = set(unit_scope)
        self._patched: list = []  # (namespace dict, key, original)

    # -- units ---------------------------------------------------------------

    def begin_unit(self) -> None:
        self.unit = self.units_started
        self.units_started += 1

    def end_unit(self) -> None:
        self.unit = -1

    def count_points(self, density):
        """Wrap a measure density so every quadrature node it sees is counted."""
        counts = self.counts

        def counted(t):
            counts["quadrature.points"] += getattr(t, "size", 1)
            return density(t)

        return counted

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import importlib

        package = importlib.import_module("quasirel")
        modules = [importlib.import_module(f"quasirel.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for mod in [package, *modules]:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(namespace, key, wrappers[value])
                elif type(value) is dict:
                    for inner_key, inner in list(value.items()):
                        if inspect.isfunction(inner) and inner in wrappers:
                            self._patch(value, inner_key, wrappers[inner])

    def restore(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def _patch(self, namespace: dict, key, wrapper) -> None:
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        starts_unit = name in self._unit_start
        closes_scope = name in self._unit_scope
        counter = _RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_unit:
                tracer.begin_unit()
            record = [name_id, 0, 0, stack[-1] if stack else -1, tracer.unit]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if closes_scope:
                    tracer.end_unit()
            if counter is not None:
                key, amount = counter
                tracer.counts[key] += amount(args, result)
            return result

        return traced

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tunit\n")
            names = self.names
            for i, (name_id, start, end, parent, unit) in enumerate(self.spans):
                fh.write(f"{i}\t{names[name_id]}\t{start}\t{end}\t{parent}\t{unit}\n")

    def layer_metrics(self, wall_ns: int, units: int, output_bytes: int) -> dict:
        """Per-layer metrics over the traced phase.

        ``wall_ns`` is the traced batches' wall time and ``units`` the units
        they completed. ``X.us`` is the mean inclusive time per call,
        ``X.self_us`` the mean self time (span minus child spans) per call.
        A function that never ran reports 0.
        """
        count = len(self.names)
        calls = [0] * count
        total = [0] * count
        child = [0] * len(self.spans)  # time covered by each span's children
        for _name_id, start, end, parent, _unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = [0] * count
        covered = 0
        for i, (name_id, start, end, parent, _unit) in enumerate(self.spans):
            duration = end - start
            calls[name_id] += 1
            total[name_id] += duration
            self_ns[name_id] += duration - child[i]
            if parent < 0:
                covered += duration
        index = {name: i for i, name in enumerate(self.names)}

        def n_calls(name):
            return calls[index[name]] if name in index else 0

        def us(name):
            c = n_calls(name)
            return total[index[name]] / c / 1e3 if c else 0.0

        def self_us(name):
            c = n_calls(name)
            return self_ns[index[name]] / c / 1e3 if c else 0.0

        def per_unit(value):
            return value / units if units else 0.0

        metrics = {}
        for module in MODULES:
            module_self = sum(self_ns[i] for i, name in enumerate(self.names)
                              if name.split(".", 1)[0] == module)
            metrics[f"{module}.self_share"] = (module_self / wall_ns, "ratio")
        for name in ("sweeps.trial_pair", "states.random_state",
                     "states.state_pair", "linalg.eigh", "states.default_rng",
                     "states.summarize", "bounds.tsallis_bounds",
                     "sweeps.report_rows", "states.haar_unitary",
                     "linalg.mat_func", "functions.eval_via_representation",
                     "quadrature.integrate_halfline",
                     "conjecture.random_functional",
                     "conjecture.proven_case_check"):
            metrics[f"{name}.us"] = (us(name), "us")
        for name in ("linalg.eigh", "linalg.hermitian_part", "states.default_rng",
                     "states.summarize", "linalg.trace_norm", "states.haar_unitary",
                     "linalg.mat_func"):
            metrics[f"{name}.calls_per_unit"] = (per_unit(n_calls(name)), "count")
        for name in ("divergences.quasi_entropy_spectral",
                     "divergences.tsallis_direct", "bounds.sandwich",
                     "divergences.quasi_entropy_superoperator",
                     "divergences.umegaki"):
            metrics[f"{name}.self_us"] = (self_us(name), "us")
        metrics["bounds.reports_per_unit"] = (
            per_unit(self.counts["bounds.reports"]), "count")
        rows = self.counts["cli.rows"]
        render = "cli.render_rows"
        metrics["cli.render_rows.us_per_row"] = (
            total[index[render]] / rows / 1e3 if rows and render in index else 0.0, "us")
        metrics["cli.output_bytes_per_unit"] = (per_unit(output_bytes), "bytes")
        search = "conjecture.conjecture_search"
        metrics["conjecture.conjecture_search.self_us_per_trial"] = (
            per_unit(self_ns[index[search]] / 1e3) if n_calls(search) else 0.0, "us")
        points = self.counts["quadrature.points"]
        quad_calls = n_calls("quadrature.integrate_halfline")
        metrics["quadrature.points_per_call"] = (
            points / quad_calls if quad_calls else 0.0, "count")
        metrics["trace.coverage"] = (covered / wall_ns, "ratio")
        return metrics


# Counts taken from a traced call's arguments or result: the bound reports
# a sandwich returns and the rows the CLI renders.
_RESULT_COUNTERS = {
    "bounds.sandwich": ("bounds.reports", lambda args, result: len(result.reports)),
    "cli.render_rows": ("cli.rows", lambda args, result: len(args[0])),
}
