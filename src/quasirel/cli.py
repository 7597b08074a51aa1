"""Command-line harness: single computations, sweeps, and searches.

Exit codes are part of the interface:
  0  success (and, for sweeps, zero violations)
  2  command-line or config-file parse error (a --step, --steps or
     --plateau flag out of range included)
  3  validation error (bad dims/trials/f-spec/state file contents, or a
     climb setting out of range in a config file)
  4  I/O error (unreadable input, unwritable output)
  5  verification failure (negative slack in a sweep, a representation
     round-trip outside tolerance, or a quadrature that exhausted its
     evaluation budget)

No environment variables are consumed; a JSON config file may supply any
long-flag value, with explicit flags taking precedence. All randomness is
seeded, and a fixed config reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conjecture import check_search_arguments, conjecture_search, save_record
from .divergences import (
    SUPEROP_DIM_CAP,
    quasi_entropy_spectral,
    quasi_entropy_superoperator,
    tsallis_direct,
    umegaki,
)
from .functions import (
    builtin_suite,
    eval_via_representation,
    normalization_residual,
    parse_f_spec,
    tsallis_f,
)
from .quadrature import QuadratureError
from .states import load_pair
from .sweeps import (
    BOUNDS_COLUMNS,
    PAPER_EXAMPLE_COLUMNS,
    batch_rows,
    paper_example_rows,
    sweep_bounds,
    trial_pair,
    violation_rows,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_VERIFICATION = 5

REPR_CHECK_COLUMNS = [
    "f_name", "max_rel_error", "constraint_residual", "a", "b", "shift", "ok",
]
DIVERGENCE_COLUMNS = [
    "dim", "seed", "pair_tag", "f_name", "q", "method", "value",
]
_REPR_GRID = np.geomspace(1e-3, 1e3, 60)
_DEFAULT_REPR_SPECS = [
    "neg-log", "neg-power:p=0.25", "neg-power:p=0.5", "neg-power:p=0.75",
    "tsallis:q=0.3", "tsallis:q=1.5",
]


@dataclass
class RunConfig:
    command: str
    dims: list = field(default_factory=lambda: [2])
    trials: int = 100
    seed: int = 0
    f_spec: Optional[str] = None
    qs: list = field(default_factory=list)
    log_base: str = "e"
    output_path: Optional[str] = None
    format: str = "csv"
    jobs: int = 1
    pair_kind: str = "random"
    pair_file: Optional[str] = None
    strategy: str = "random"
    weight_mode: str = "uniform"
    commuting: bool = False
    step: float = 0.05
    steps: int = 200
    plateau: int = 30

    def validate(self) -> None:
        if not self.dims:
            raise ValueError("dims must be nonempty (e.g. --dims 2,3,4)")
        if any(d < 2 for d in self.dims):
            raise ValueError(f"dims must all be >= 2, got {self.dims}")
        check_search_arguments(self.trials, self.step, self.steps, self.plateau)
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.log_base not in ("e", "2"):
            raise ValueError(f"log-base must be 'e' or '2', got {self.log_base!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.pair_kind not in ("random", "classical"):
            raise ValueError(
                f"pair-kind must be 'random' or 'classical', got {self.pair_kind!r}")
        if self.f_spec is not None:
            for spec in self._f_list():
                parse_f_spec(spec)  # raises with the offending spec named
        for q in self.qs:
            if not 0.0 < q <= 2.0 or q == 1.0:
                raise ValueError(f"q must lie in (0, 2] excluding 1, got {q}")

    def _f_list(self) -> list:
        if self.f_spec is None:
            return []
        if self.f_spec == "all":
            return [f.name for f in builtin_suite()]
        return [s.strip() for s in self.f_spec.split(",") if s.strip()]


# ---------------------------------------------------------------------------
# Parsing and config merging.


def parse_dims(text: str) -> list:
    """'2,4..6,9' -> [2, 4, 5, 6, 9]. Ranges are inclusive."""
    dims = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo, hi = (int(part) for part in token.split("..", 1))
            if hi < lo:
                raise ValueError(f"empty dimension range {token!r}")
            dims.extend(range(lo, hi + 1))
        else:
            dims.append(int(token))
    return dims


def _checked(convert, ok, requirement: str):
    """An argparse type: convert the flag's text, then require ok(value)."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in conversion errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasirel",
        description="Quasi-relative entropies, trace-distance bounds, and "
                    "a counterexample search harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dims_default_doc):
        p.add_argument("--config", help="JSON file of flag defaults")
        p.add_argument("--dims", help=f"dimensions, e.g. 2,3 or 3..16 "
                                      f"(default {dims_default_doc})")
        p.add_argument("--trials", type=int, help="trials per dimension")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--f", dest="f_spec",
                       help="generator spec: neg-log, neg-power:p=0.5, "
                            "tsallis:q=0.3, comma list, or 'all'")
        p.add_argument("--q", help="Tsallis orders, comma-separated floats")
        p.add_argument("--log-base", choices=["e", "2"],
                       help="logarithm base for the logarithmic bound column")
        p.add_argument("--out", dest="output_path", help="output file path")
        p.add_argument("--format", choices=["csv", "json"], help="output format")
        p.add_argument("--jobs", type=int,
                       help="worker processes for sweeps (default: CPU count)")

    p = sub.add_parser("divergence", help="one pair, every evaluation method")
    common(p, "2")
    p.add_argument("--pair-file", help="serialized state pair (JSON)")

    p = sub.add_parser("bounds", help="one pair, full sandwich report")
    common(p, "2")
    p.add_argument("--pair-file", help="serialized state pair (JSON)")

    p = sub.add_parser("sweep", help="bound verification over a random grid")
    common(p, "2")
    p.add_argument("--pair-kind", choices=["random", "classical"],
                   help="pair ensemble (default random)")

    p = sub.add_parser("conjecture", help="counterexample search")
    common(p, "3..6")
    p.add_argument("--strategy", choices=["random", "hill_climb"])
    p.add_argument("--weights", dest="weight_mode",
                   choices=["uniform", "modular"])
    p.add_argument("--commuting", action="store_true", default=None,
                   help="restrict the search to commuting pairs")
    p.add_argument("--step", help="jitter scale (default 0.05)",
                   type=_checked(float, lambda v: math.isfinite(v) and v > 0.0,
                                 "a positive finite number"))
    p.add_argument("--steps", type=_checked(int, lambda v: v >= 0, ">= 0"),
                   help="climb steps per restart (default 200)")
    p.add_argument("--plateau", type=_checked(int, lambda v: v >= 1, ">= 1"),
                   help="consecutive misses before a restart is abandoned "
                        "(default 30)")

    p = sub.add_parser("repr-check", help="integral-representation round-trips")
    common(p, "n/a")

    p = sub.add_parser("paper-example", help="worked bound-comparison table")
    common(p, "3..16")

    return parser


_DIMS_DEFAULTS = {"conjecture": [3, 4, 5, 6], "paper-example": list(range(3, 17))}
_TRIALS_DEFAULTS = {"conjecture": 1000, "sweep": 100}


def make_config(args: argparse.Namespace, file_config: dict) -> RunConfig:
    def pick(name, default):
        cli = getattr(args, name, None)
        if cli is not None:
            return cli
        if name in file_config:
            return file_config[name]
        return default

    command = args.command
    dims = pick("dims", None)
    if dims is None:
        dims = _DIMS_DEFAULTS.get(command, [2])
    elif isinstance(dims, str):
        dims = parse_dims(dims)
    else:
        dims = [int(d) for d in dims]

    qs = pick("q", None)
    if qs is None:
        qs = []
    elif isinstance(qs, str):
        qs = [float(tok) for tok in qs.split(",") if tok.strip()]
    elif isinstance(qs, (int, float)):
        qs = [float(qs)]
    else:
        qs = [float(v) for v in qs]

    cfg = RunConfig(
        command=command,
        dims=dims,
        trials=int(pick("trials", _TRIALS_DEFAULTS.get(command, 100))),
        seed=int(pick("seed", 0)),
        f_spec=pick("f_spec", None),
        qs=qs,
        log_base=str(pick("log_base", "e")),
        output_path=pick("output_path", None),
        format=str(pick("format", "csv")),
        jobs=int(pick("jobs", os.cpu_count() or 1)),
        pair_kind=str(pick("pair_kind", "random")),
        pair_file=pick("pair_file", None),
        strategy=str(pick("strategy", "random")),
        weight_mode=str(pick("weight_mode", "uniform")),
        commuting=bool(pick("commuting", False)),
        step=float(pick("step", 0.05)),
        steps=int(pick("steps", 200)),
        plateau=int(pick("plateau", 30)),
    )
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Emission. CSV: '.' decimal, 17 significant digits, header row. JSON keeps
# the same field names. Identical configs produce identical bytes.

_BOOL_TEXT = ("false", "true")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return _BOOL_TEXT[value]
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _row_template(types: tuple) -> tuple:
    """The %-format for a row with these cell types, and its bool positions."""
    return (",".join("%.17g" if issubclass(t, float) else "%s" for t in types),
            [i for i, t in enumerate(types) if t is bool])


def _csv_lines(rows: list) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def render_rows(rows: list, columns: list, fmt: str) -> str:
    """Rows as JSON, or as CSV with the cells formatted by _format_cell.

    A CSV row is one %-format whose template follows the row's cell types.
    A row whose text the csv module would quote goes through the csv module.
    """
    if fmt == "json":
        return json.dumps(rows, indent=1) + "\n"
    if len(columns) > 1:
        cells_of = operator.itemgetter(*columns)
    else:
        cells_of = lambda row: (row[columns[0]],)
    templates = {}
    commas = len(columns) - 1
    lines = [_csv_lines([columns])]
    for row in rows:
        cells = cells_of(row)
        types = tuple(map(type, cells))
        template = templates.get(types)
        if template is None:
            template = templates[types] = _row_template(types)
        text, bools = template
        if bools:
            cells = list(cells)
            for i in bools:
                cells[i] = _BOOL_TEXT[cells[i]]
        line = text % tuple(cells)
        if not line or line.count(",") != commas or '"' in line or "\n" in line or "\r" in line:
            lines.append(_csv_lines([[_format_cell(c) for c in cells_of(row)]]))
        else:
            lines.append(line + "\n")
    return "".join(lines)


def emit(text: str, output_path: Optional[str]) -> None:
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands.


def _resolve_pair(cfg: RunConfig):
    if cfg.pair_file:
        return load_pair(cfg.pair_file), "file:000000"
    dim = cfg.dims[0]
    return trial_pair(cfg.seed, dim, 0, cfg.pair_kind), f"{cfg.pair_kind}:000000"


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_divergence(cfg: RunConfig) -> int:
    pair, tag = _resolve_pair(cfg)
    specs = cfg._f_list() or ["neg-log"]
    if len(specs) > 1:
        raise ValueError("divergence takes a single --f spec")
    q = cfg.qs[0] if cfg.qs else None
    if q is not None and cfg.f_spec is not None:
        raise ValueError("divergence takes --f or --q, not both")
    gen = tsallis_f(q) if q is not None else parse_f_spec(specs[0])

    rows = []

    def add(method, value):
        rows.append({
            "dim": pair.rho.dim, "seed": cfg.seed, "pair_tag": tag,
            "f_name": gen.name, "q": "" if q is None else float(q),
            "method": method, "value": float(value),
        })

    add("spectral", quasi_entropy_spectral(pair, gen).value)
    if (pair.rho.dim <= SUPEROP_DIM_CAP and pair.rho.strictly_positive
            and pair.sigma.strictly_positive):
        add("superoperator", quasi_entropy_superoperator(pair, gen).value)
    else:
        _note("superoperator route skipped (dimension cap or support)")
    if gen.name == "neg-log":
        add("direct", umegaki(pair).value)
    elif q is not None:
        add("direct", tsallis_direct(pair, q).value)

    finite = [r["value"] for r in rows if math.isfinite(r["value"])]
    if len(finite) == len(rows) and len(rows) > 1:
        spread = max(finite) - min(finite)
        scale = max(1.0, max(abs(v) for v in finite))
        _note(f"methods: {len(rows)}; max spread {spread:.3e} "
              f"(relative {spread / scale:.3e})")
    emit(render_rows(rows, DIVERGENCE_COLUMNS, cfg.format), cfg.output_path)
    return EXIT_OK


def cmd_bounds(cfg: RunConfig) -> int:
    pair, tag = _resolve_pair(cfg)
    specs = cfg._f_list()
    if (len(specs) + len(cfg.qs)) != 1:
        raise ValueError("bounds takes exactly one generator: --f spec or --q value")
    route = (parse_f_spec(specs[0]), None) if specs else (None, cfg.qs[0])
    rows = batch_rows(pair.batch, cfg.seed, [tag], [route], cfg.log_base)
    emit(render_rows(rows, BOUNDS_COLUMNS, cfg.format), cfg.output_path)
    violations = violation_rows(rows)
    if violations:
        _note(f"negative slack: {', '.join(r['bound_name'] for r in violations)}")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    specs = cfg._f_list()
    if not specs and not cfg.qs:
        specs = [f.name for f in builtin_suite()]
    rows, violations = sweep_bounds(
        cfg.dims, cfg.trials, cfg.seed, f_specs=specs, qs=cfg.qs,
        pair_kind=cfg.pair_kind, ae11_base=cfg.log_base, jobs=cfg.jobs)
    emit(render_rows(rows, BOUNDS_COLUMNS, cfg.format), cfg.output_path)
    if violations:
        worst = min(v["slack"] for v in violations)
        _note(f"{len(violations)} negative-slack rows (worst {worst:.3e})")
        return EXIT_VERIFICATION
    _note(f"{len(rows)} rows, zero violations")
    return EXIT_OK


def cmd_conjecture(cfg: RunConfig) -> int:
    record = conjecture_search(
        cfg.dims, cfg.trials, cfg.strategy, cfg.seed,
        weight_mode=cfg.weight_mode, commuting=cfg.commuting,
        step=cfg.step, steps_per_restart=cfg.steps, plateau=cfg.plateau)
    if cfg.output_path:
        save_record(cfg.output_path, record)
        _note(f"record written to {cfg.output_path}")
    else:
        sys.stdout.write(record.to_json() + "\n")
    _note(f"max_ratio {record.max_ratio:.6f} over {record.trial_count} "
          f"{record.strategy} trials; {len(record.violations)} violations")
    return EXIT_OK


def cmd_repr_check(cfg: RunConfig) -> int:
    specs = cfg._f_list() or list(_DEFAULT_REPR_SPECS)
    rows = []
    all_ok = True
    for spec in specs:
        f = parse_f_spec(spec)
        if f.measure_density is None:
            raise ValueError(f"{f.name} has no integral representation to check")
        worst = 0.0
        for x in _REPR_GRID:
            direct = float(f.eval(float(x)))
            via = eval_via_representation(f, float(x))
            worst = max(worst, abs(via - direct) / max(1.0, abs(direct)))
        residual = abs(normalization_residual(f))
        ok = worst < 1e-6 and residual < 1e-6
        all_ok = all_ok and ok
        rows.append({
            "f_name": f.name, "max_rel_error": worst,
            "constraint_residual": residual, "a": f.a, "b": f.b,
            "shift": f.shift, "ok": ok,
        })
    emit(render_rows(rows, REPR_CHECK_COLUMNS, cfg.format), cfg.output_path)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_paper_example(cfg: RunConfig) -> int:
    rows = paper_example_rows(cfg.dims)
    emit(render_rows(rows, PAPER_EXAMPLE_COLUMNS, cfg.format), cfg.output_path)
    return EXIT_OK


_COMMANDS = {
    "divergence": cmd_divergence,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "conjecture": cmd_conjecture,
    "repr-check": cmd_repr_check,
    "paper-example": cmd_paper_example,
}


def run(cfg: RunConfig) -> int:
    return _COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    file_config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_config = json.load(fh)
        except OSError as exc:
            _note(f"error: cannot read config file: {exc}")
            return EXIT_IO
        except json.JSONDecodeError as exc:
            _note(f"error: config file is not valid JSON: {exc}")
            return EXIT_PARSE
        if not isinstance(file_config, dict):
            _note("error: config file must hold a JSON object")
            return EXIT_PARSE

    try:
        cfg = make_config(args, file_config)
    except (ValueError, TypeError) as exc:
        _note(f"error: {exc}")
        return EXIT_VALIDATION

    try:
        return run(cfg)
    except OSError as exc:
        _note(f"error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_VALIDATION
    except QuadratureError as exc:
        _note(f"error: {exc}")
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
