"""Benchmark entry point for the quasirel library and CLI.

    python3 perfbench/run.py --workload sweep_suite --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 [--out FILE]

With one workload, the last line of standard output is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full record, with provenance, goes to
``perfbench/out/``. With ``--workload all`` every workload runs untraced
and then traced, every metric is printed by name and unit, ``--out`` saves
them together as a baseline, and the exit code is 1 if any unit failed.

The workload runs in a fresh ``python3`` started from this checkout's
``src/``, with OPENBLAS_NUM_THREADS=1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("sweep_suite", "sweep_wide", "search", "verify")
DEFAULT_SEED = 0
# Fresh interpreters timed per run for setup_s; the first only warms the
# file cache and bytecode and is dropped.
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(args: list, timeout: float) -> str:
    cmd = [sys.executable, str(WORKER), *args]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f}s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(workload: str, seed: int) -> list:
    """Launch-to-first-unit times of fresh interpreters, warm-up dropped.

    Each time is scaled to the machine's reference speed by the probe's own
    calibration, as the timed batches are.
    """
    samples = []
    for _ in range(SETUP_PROBES + 1):
        start = _monotonic()
        out = _worker(["--workload", workload, "--seed", str(seed), "--probe"], 60)
        ready, scale = (float(v) for v in out.split()[-2:])
        samples.append((ready - start) * scale)
    return samples[1:]


def provenance(seed: int, seconds: float) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    git = {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def run_git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)

    try:
        head = run_git("rev-parse", "HEAD")
        if head.returncode == 0:
            status = run_git("status", "--porcelain", "--untracked-files=no")
            git = {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            "git_sha": git["sha"], "git_dirty": git["dirty"], "seed": seed,
            "run_seconds": seconds}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
    record = provenance(seed, seconds)
    if not trace:
        samples = setup_seconds(workload, seed)
        record["setup_s_samples"] = samples
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", f"{stem}.json"]
    if trace:
        args += ["--spans", f"{stem}.spans.tsv"]
    _worker(args, WORKER_TIMEOUT_S)
    record.update(json.loads(Path(f"{stem}.json").read_text()))
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in record.pop("layers").items()}
    else:
        metrics = {
            "units_per_s": {"value": record["units_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MiB"},
        }
    record["metrics"] = metrics
    record["fail_frac"] = record["failed"] / record["attempted"]
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _summary(record: dict) -> dict:
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def _print_metrics(record: dict) -> None:
    for name, metric in record["metrics"].items():
        print(f"  {record['workload']:<12} {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {record['workload']:<12} {'fail_frac':<52} {record['fail_frac']:>14.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} units)")
    for note in record["failures"]:
        print(f"    failed: {note}")


def run_all(seed: int, seconds: float, out: str | None) -> int:
    records = {}
    for trace in (0, 1):
        print("end-to-end metrics (tracing off)" if trace == 0
              else "per-layer metrics (traced run, in-process at --jobs 1)")
        for workload in WORKLOAD_NAMES:
            record = run_workload(workload, seed, seconds, trace)
            records[(workload, trace)] = record
            _print_metrics(record)
    failed = sum(r["failed"] for r in records.values())
    if out:
        doc = {"provenance": provenance(seed, seconds), "workloads": {}}
        for key in ("python", "numpy", "blas", "openblas_num_threads"):
            doc["provenance"][key] = records[(WORKLOAD_NAMES[0], 0)][key]
        for (workload, trace), record in records.items():
            entry = doc["workloads"].setdefault(workload, {"command": record["command"]})
            entry["end_to_end" if trace == 0 else "per_layer"] = record["metrics"]
            entry.setdefault("fail_frac", {})[f"trace{trace}"] = record["fail_frac"]
            if trace == 0:
                entry["batch_seconds"] = record["batch_seconds"]
        Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{'FAIL' if failed else 'PASS'}: {failed} failed units over all workloads")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the baseline JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "quasirel" / "__init__.py").is_file():
        print(f"error: no quasirel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.out)
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{record['workload']}: {record['command']}")
    print(f"  seed {record['seed']}, {record['batches']} timed batches of "
          f"{record['batch_units']} units, nproc {record['nproc']}, "
          f"python {record['python']}, numpy {record['numpy']}, "
          f"blas {record['blas']['name']} {record['blas']['version']}, "
          f"git {record['git_sha']} dirty={record['git_dirty']}")
    _print_metrics(record)
    print(json.dumps(_summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
