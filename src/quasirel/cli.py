"""Command-line harness: single computations, sweeps, and searches.

A command takes the flags of the settings it reads and no others. A JSON
config file (--config) may set the same settings, keyed by the flags' dests
(f_spec for --f, output_path for --out, weight_mode for --weights, log_base
for --log-base, ...); each value must have the setting's JSON type and then
passes the flag's check. Flags win over the file.

Exit codes are part of the interface:
  0  success (and, for sweeps, zero violations)
  2  command-line or config-file parse error (an unknown flag or config
     key, and a --step, --steps or --plateau flag out of range included)
  3  validation error (bad dims/trials/f-spec/state file contents, a
     config value of the wrong JSON type, a climb setting out of range
     in a config file, or more than one value for a setting of which the
     command takes one)
  4  I/O error (unreadable input, unwritable output)
  5  verification failure (negative slack in a sweep, a representation
     round-trip outside tolerance, or a quadrature that exhausted its
     evaluation budget)

No environment variables are consumed. All randomness is seeded, and a
fixed config reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bounds import sandwich_batch
from .conjecture import conjecture_search
from .divergences import (
    quasi_entropy_spectral,
    quasi_entropy_superoperator,
    tsallis_direct,
    umegaki,
)
from . import functions
from .functions import (
    builtin_suite,
    eval_via_representation,
    is_tsallis_order,
    normalization_residual,
    parse_f_spec,
    tsallis_f,
)
from .quadrature import QuadratureError
from .states import load_pair
from .sweeps import (
    PAPER_EXAMPLE_COLUMNS,
    paper_example_rows,
    render_columns,
    sweep_bounds,
    table_layout,
    trial_pair,
    write_chunks,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_VERIFICATION = 5

REPR_CHECK_COLUMNS = (
    "f_name", "max_rel_error", "constraint_residual", "a", "b", "shift", "ok",
)
DIVERGENCE_COLUMNS = (
    "dim", "seed", "pair_tag", "f_name", "q", "method", "value",
)
_REPR_GRID = np.geomspace(1e-3, 1e3, 60)
_DEFAULT_REPR_SPECS = [
    "neg-log", "neg-power:p=0.25", "neg-power:p=0.5", "neg-power:p=0.75",
    "tsallis:q=0.3", "tsallis:q=1.5",
]


# ---------------------------------------------------------------------------
# Settings: each declared once, in SETTINGS; _COMMAND_SETTINGS lists the ones
# each command reads. Both build_parser and make_config work from these two.


class Setting(NamedTuple):
    flag: str
    kind: tuple  # the JSON types a config file may give; int or float first parses the flag
    check: Callable  # value -> the setting; raises ValueError
    help: str
    default: object = None  # None: unset
    choices: Optional[tuple] = None
    strict: bool = False  # a flag value the check rejects is a parse error (exit 2)


class RunConfig(SimpleNamespace):
    """The settings one command reads, checked, under their config keys."""

    @property
    def qs(self) -> list:
        return self.q or []

    def _f_list(self) -> list:
        return self.f_spec or []


class ConfigError(Exception):
    """A config file that is no JSON object, or holds a key the command does not read."""


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


def _is_json(value, kinds: tuple) -> bool:
    """Whether a config value has one of these types; a bool is no number."""
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def _require(ok, requirement: str):
    """The check that passes a value for which ok(value) holds."""
    def check(value):
        if not ok(value):
            raise ValueError(f"must be {requirement}, got {value!r}")
        return value

    return check


def _dims(value) -> list:
    dims = parse_dims(value) if isinstance(value, str) else value
    if not dims or not all(_is_json(d, (int,)) and d >= 2 for d in dims):
        raise ValueError(f"must be a nonempty list of integers >= 2, got {value!r}")
    return dims


def _orders(value) -> list:
    if isinstance(value, str):
        qs = [float(tok) for tok in value.split(",") if tok.strip()]
    else:
        qs = value if isinstance(value, list) else [value]
    if not qs:
        raise ValueError(f"must name at least one order, got {value!r}")
    for q in qs:
        if not _is_json(q, (float, int)) or not is_tsallis_order(q):
            raise ValueError(f"must lie in (0, 2] excluding 1, got {q!r}")
    return [float(q) for q in qs]


def _f_specs(value: str) -> list:
    if value == "all":
        return [f.name for f in builtin_suite()]
    specs = [spec for spec in map(str.strip, value.split(",")) if spec]
    if not specs:
        raise ValueError(f"must name at least one generator, got {value!r}")
    for spec in specs:
        parse_f_spec(spec)  # raises with the offending spec named
    return specs


def _choice(flag: str, options: tuple, help: str) -> Setting:
    """A setting that takes one of ``options``; the first is the default."""
    return Setting(flag, (str,), _require(options.__contains__, f"one of {', '.join(options)}"),
                   help, options[0], options)


_AT_LEAST_0 = _require(lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = _require(lambda v: v >= 1, ">= 1")

SETTINGS = {
    "dims": Setting("--dims", (str, list), _dims, "dimensions, e.g. 2,3 or 3..16", "2"),
    "trials": Setting("--trials", (int,), _AT_LEAST_1,
                      "trials: per dimension in a sweep, in all in a search", 100),
    "seed": Setting("--seed", (int,), _AT_LEAST_0, "random seed", 0),
    "f_spec": Setting("--f", (str,), _f_specs, "generator spec: neg-log, neg-power:p=0.5, "
                                               "tsallis:q=0.3, comma list, or 'all'"),
    "q": Setting("--q", (str, float, int, list), _orders,
                 "Tsallis orders, comma-separated floats"),
    "log_base": _choice("--log-base", ("e", "2"),
                        "logarithm base for the logarithmic bound column"),
    "output_path": Setting("--out", (str,), str, "output file path"),
    "format": _choice("--format", ("csv", "json"), "output format"),
    "jobs": Setting("--jobs", (int,), _AT_LEAST_1, "processes, this one included",
                    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1),
    "pair_kind": _choice("--pair-kind", ("random", "classical"), "pair ensemble"),
    "pair_file": Setting("--pair-file", (str,), str, "serialized state pair (JSON)"),
    "strategy": _choice("--strategy", ("random", "hill_climb"), "search strategy"),
    "weight_mode": _choice("--weights", ("uniform", "modular"), "overlap weights"),
    "commuting": Setting("--commuting", (bool,), bool, "restrict the search to commuting pairs",
                         False),
    "step": Setting("--step", (float, int), _require(lambda v: math.isfinite(v) and v > 0.0,
                                                     "a positive finite number"),
                    "jitter scale", 0.05, strict=True),
    "steps": Setting("--steps", (int,), _AT_LEAST_0, "climb steps per restart", 200, strict=True),
    "plateau": Setting("--plateau", (int,), _AT_LEAST_1,
                       "consecutive misses before a restart is abandoned", 30, strict=True),
}

# command -> (summary, the settings it reads, its defaults that differ from the settings')
_COMMAND_SETTINGS = {
    "divergence": ("one pair, every evaluation method",
                   "dims seed f_spec q output_path format pair_kind pair_file", {}),
    "bounds": ("one pair, full sandwich report",
               "dims seed f_spec q log_base output_path format pair_kind pair_file", {}),
    "sweep": ("bound verification over a random grid",
              "dims trials seed f_spec q log_base output_path format jobs pair_kind", {}),
    "conjecture": ("counterexample search", "dims trials seed output_path strategy weight_mode "
                   "commuting step steps plateau", {"dims": "3..6", "trials": 1000}),
    "repr-check": ("integral-representation round-trips", "f_spec output_path format",
                   {"f_spec": ",".join(_DEFAULT_REPR_SPECS)}),
    "paper-example": ("worked bound-comparison table", "dims output_path format",
                      {"dims": "3..16"}),
}

# The list settings a command takes one entry of: more would be silently dropped.
_ONE_VALUE = dict.fromkeys(("divergence", "bounds"), ("dims", "f_spec", "q"))


def _strict(convert, check):
    """An argparse type: convert the flag's text, then check it; both exit 2."""
    def parse(text):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every command's sub-parser, with the options of ``command`` alone
    (its -h included), or of every command when it is None.

    The top-level help, usage and errors name the commands and their
    summaries only, so they do not depend on ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="quasirel",
        description="Quasi-relative entropies, trace-distance bounds, and "
                    "a counterexample search harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (summary, names, defaults) in _COMMAND_SETTINGS.items():
        p = sub.add_parser(cmd, help=summary, add_help=command in (None, cmd))
        if not p.add_help:
            continue
        p.add_argument("--config", help="JSON object of settings by config key")
        for name in names.split():
            s = SETTINGS[name]
            if s.kind == (bool,):
                p.add_argument(s.flag, dest=name, action="store_true", default=None,
                               help=s.help)
                continue
            default = defaults.get(name, s.default)
            convert = s.kind[0] if s.kind[0] in (int, float) else None
            p.add_argument(s.flag, dest=name, choices=s.choices,
                           type=_strict(convert, s.check) if s.strict else convert,
                           help=s.help if default is None else f"{s.help} (default {default})")
    return parser


def make_config(args: argparse.Namespace, file_config: dict) -> RunConfig:
    """The settings the command reads: each from its flag, else the config
    file, else the default, turned into the setting by the setting's check."""
    _, names, defaults = _COMMAND_SETTINGS[args.command]
    names = names.split()
    for key in file_config:
        if key not in names:
            raise ConfigError(f"{args.command} reads no config key {key!r} "
                              f"(it reads {', '.join(names)})")
    given = {name: SETTINGS[name].flag if getattr(args, name) is not None
             else f"config key {name!r}"
             for name in names if getattr(args, name) is not None or name in file_config}
    clash = [given[name] for name in ("dims", "seed", "pair_kind") if name in given]
    if "pair_file" in given and clash:  # settings the file's pair would silently override
        raise ConfigError(f"{given['pair_file']} cannot be combined with {' or '.join(clash)}: "
                          f"the file fixes the pair")
    values = {}
    for name in names:
        s = SETTINGS[name]
        value, source = getattr(args, name), s.flag
        if value is None and name in file_config:
            value, source = file_config[name], f"config key {name!r}"
            if not _is_json(value, s.kind):
                raise ValueError(f"{source}: must be "
                                 f"{' or '.join(k.__name__ for k in s.kind)}, got {value!r}")
        elif value is None:
            value = defaults.get(name, s.default)
        if value is not None:
            try:
                value = s.check(value)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
            if name in _ONE_VALUE.get(args.command, ()) and len(value) > 1:
                raise ValueError(f"{source}: {args.command} takes a single value, got {value!r}")
        values[name] = value
    return RunConfig(command=args.command, **values)


# ---------------------------------------------------------------------------
# Emission. CSV: '.' decimal, 17 significant digits, header row. JSON keeps
# the same field names. Identical configs produce identical bytes. Every table
# has sweeps.table_layout: render_columns lays out the bound tables (bounds,
# sweep) from columns, render_rows the others from dict rows.


def render_rows(rows: list, columns, fmt: str) -> str:
    """Dict rows as a table_layout table: head, each row's cells, tail."""
    cell, _, prefixes, end, sep, head, tail = table_layout(tuple(columns), fmt)
    return head + sep.join("".join(p + cell(row[c]) for p, c in zip(prefixes, columns)) + end
                           for row in rows) + tail


@contextlib.contextmanager
def _output(output_path: Optional[str]):
    """A text stream to the output file, or to standard output without one.

    A regular file appears whole or not at all: the text goes to a file
    beside it that replaces it on success and is deleted on any error.
    """
    if not output_path or (os.path.exists(output_path) and not os.path.isfile(output_path)):
        with open(output_path, "w") if output_path else contextlib.nullcontext(sys.stdout) as fh:
            yield fh  # standard output, a device or a pipe: written in place
        return
    target = os.path.realpath(output_path)  # a symlink stays, its file is replaced
    partial = f"{target}.{os.getpid()}.tmp"
    try:
        with open(partial, "w") as fh:
            yield fh
        os.replace(partial, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(partial)
        if isinstance(exc, OSError) and exc.filename == partial:  # name the file given
            raise OSError(exc.errno, exc.strerror, output_path) from None
        raise


def emit(text: str, output_path: Optional[str]) -> None:
    with _output(output_path) as out:
        out.write(text)


# ---------------------------------------------------------------------------
# Commands.


def _resolve_pair(cfg: RunConfig):
    """(pair, seed cell, pair tag): a file pair has no seed."""
    if cfg.pair_file:
        return load_pair(cfg.pair_file), "", "file:000000"
    pair = trial_pair(cfg.seed, cfg.dims[0], 0, cfg.pair_kind)
    return pair, cfg.seed, f"{cfg.pair_kind}:000000"


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_divergence(cfg: RunConfig) -> int:
    pair, seed, tag = _resolve_pair(cfg)
    specs = cfg._f_list() or ["neg-log"]
    q = cfg.qs[0] if cfg.qs else None
    if q is not None and cfg.f_spec is not None:
        raise ValueError("divergence takes --f or --q, not both")
    gen = tsallis_f(q) if q is not None else parse_f_spec(specs[0])

    rows = []

    def add(method, value):
        rows.append({
            "dim": pair.dim, "seed": seed, "pair_tag": tag,
            "f_name": gen.name, "q": "" if q is None else float(q),
            "method": method, "value": float(value),
        })

    add("spectral", quasi_entropy_spectral(pair, gen).value)
    try:
        add("superoperator", quasi_entropy_superoperator(pair, gen).value)
    except ValueError as exc:  # the route does not apply to this pair
        _note(f"superoperator route skipped: {exc}")
    if gen.name == "neg-log":
        add("direct", umegaki(pair).value)
    elif gen.name.startswith("tsallis:"):  # from --q or --f: f''(1) is its order q
        add("direct", tsallis_direct(pair, gen.d2_at_1).value)

    finite = [r["value"] for r in rows if math.isfinite(r["value"])]
    if len(finite) == len(rows) and len(rows) > 1:
        spread = max(finite) - min(finite)
        scale = max(1.0, max(abs(v) for v in finite))
        _note(f"methods: {len(rows)}; max spread {spread:.3e} "
              f"(relative {spread / scale:.3e})")
    emit(render_rows(rows, DIVERGENCE_COLUMNS, cfg.format), cfg.output_path)
    return EXIT_OK


def cmd_bounds(cfg: RunConfig) -> int:
    pair, seed, tag = _resolve_pair(cfg)
    specs = cfg._f_list()
    if (len(specs) + len(cfg.qs)) != 1:
        raise ValueError("bounds takes exactly one generator: --f spec or --q value")
    route = (parse_f_spec(specs[0]), None) if specs else (None, cfg.qs[0])
    chunk = render_columns([pair.dim], seed, [tag], sandwich_batch([pair], [route], cfg.log_base),
                           cfg.format)
    with _output(cfg.output_path) as out:
        _, violations = write_chunks(out, [chunk], cfg.format)
    if violations:
        _note(f"negative slack: {', '.join(name for name, _ in violations)}")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    specs = cfg._f_list()
    if not specs and not cfg.qs:
        specs = [f.name for f in builtin_suite()]
    with _output(cfg.output_path) as out:
        rows, violations = sweep_bounds(
            cfg.dims, cfg.trials, cfg.seed, out, f_specs=specs, qs=cfg.qs,
            pair_kind=cfg.pair_kind, ae11_base=cfg.log_base, jobs=cfg.jobs, fmt=cfg.format)
    if violations:
        worst = min(slack for _, slack in violations)
        _note(f"{len(violations)} negative-slack rows (worst {worst:.3e})")
        return EXIT_VERIFICATION
    _note(f"{rows} rows, zero violations")
    return EXIT_OK


def cmd_conjecture(cfg: RunConfig) -> int:
    record = conjecture_search(
        cfg.dims, cfg.trials, cfg.strategy, cfg.seed,
        weight_mode=cfg.weight_mode, commuting=cfg.commuting,
        step=cfg.step, steps_per_restart=cfg.steps, plateau=cfg.plateau)
    emit(record.to_json() + "\n", cfg.output_path)
    if cfg.output_path:
        _note(f"record written to {cfg.output_path}")
    _note(f"max_ratio {record.max_ratio:.6f} over {record.trial_count} "
          f"{record.strategy} trials; {len(record.violations)} violations")
    return EXIT_OK


def cmd_repr_check(cfg: RunConfig) -> int:
    specs = cfg._f_list()
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
        ok = worst < functions.REPRESENTATION_RTOL and residual < functions.REPRESENTATION_RTOL
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


def read_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config file: {exc}") from None
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


_EXIT_CODES = {ConfigError: EXIT_PARSE, OSError: EXIT_IO, ValueError: EXIT_VALIDATION,
               QuadratureError: EXIT_VERIFICATION}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser takes no option with a value, so the command
    # argparse runs is the first argument without a leading '-' (an earlier
    # positional, '-' or a negative number, names none and fails alike).
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return run(make_config(args, read_config(args.config) if args.config else {}))
    except tuple(_EXIT_CODES) as exc:
        _note(f"error: {exc}")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
