"""One workload in one fresh interpreter; ``run.py`` launches it.

Modes:

* ``--probe``: set the workload up (import, config parsing, generator
  construction), then print the CLOCK_MONOTONIC time at which the first
  unit would start and the machine-speed scale measured right after (the
  median of three calibrations).
  ``run.py`` subtracts its launch time and scales to get ``setup_s``.
* default: a warm-up batch (batch 0, checked but not timed), then timed
  batches until ``--seconds`` have passed. With ``--trace 1`` the time is
  split between an untraced and a traced phase, both in-process at
  ``--jobs 1``; the spans go to ``--spans`` and the per-layer metrics to the
  result. The result is written as JSON to ``--out``.
* ``--record-reference``: run batch 0 at the given seed and store its
  reference groups under ``reference/``.
* ``--calibration-helper``: run the calibration loop once per input line;
  see ``PairedCalibration``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Set before numpy loads, so BLAS threads plus sweep workers stay within
# the machine's cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MAX_NOTES = 20
# On a shared host, neighbours' load changes a batch's time by up to 2x
# within seconds; every timing is scaled by a calibration loop run next to
# it. CALIBRATION_REF_S is that loop's time on an uncontended core of the
# 2-vCPU Xeon sandbox the benchmark was defined on (Python 3.11, numpy
# 2.4, OpenBLAS 0.3.31): about 4.5-5 ms.
CALIBRATION_STEPS = 100
CALIBRATION_REF_S = 0.005


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result JSON path")
    parser.add_argument("--spans", help="span file path (traced runs)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    mode.add_argument("--calibration-helper", action="store_true")
    return parser.parse_args(argv)


def calibrate() -> float:
    """Seconds taken by a fixed loop of the operations the workloads are made of.

    Each step draws a 4x4 complex Gaussian, runs QR and eigvalsh on it and
    formats a row, so it slows down with the machine as the workloads do.
    It imports nothing from quasirel, so no change to the program moves it.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(12345))
    total = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _r = np.linalg.qr(g)
        vals = np.linalg.eigvalsh(g @ g.conj().T)
        total += float(np.sum(np.abs(vals))) + abs(complex(np.trace(q)))
        row = {"step": i, "total": total}
        f"{row['total']:.17g},{row['step']}".split(",")
    return time.perf_counter() - start


class PairedCalibration:
    """Calibrate both cores at once, for batches that run a process pool.

    A helper process runs the loop on the other core while this one runs
    it. A pool that hands out work as workers free up runs at the mean
    speed of the two cores, so the result is the harmonic mean of the two
    times.
    """

    def __init__(self, workload: str):
        import subprocess

        self.helper = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--calibration-helper"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.helper.stdout.readline()  # the helper has imported numpy

    def __call__(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        own = calibrate()
        other = float(self.helper.stdout.readline())
        return 2.0 / (1.0 / own + 1.0 / other)

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait(timeout=60)


def _calibration_helper() -> int:
    calibrate()
    print("ready", flush=True)
    for _line in sys.stdin:
        print(repr(calibrate()), flush=True)
    return 0


def _run_phase(workload, plan, first_index, seconds, account, measure,
               tracer=None):
    """Run batches until ``seconds`` have passed, calibrating around each.

    Returns (batches, raw rates, calibrated rates, scales). A batch's scale
    is the mean of the calibration times just before and just after it over
    CALIBRATION_REF_S; its calibrated rate is its units per second times
    that scale, that is, its rate at the machine's reference speed.
    """
    batches, raw, calibrated, scales = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = first_index
    before = measure()
    while True:
        batch = workload.run_batch(plan, index, tracer)
        after = measure()
        account(batch)
        batch.texts = {}  # checked; holding it would inflate peak RSS
        batches.append(batch)
        rate = batch.units / batch.elapsed_s
        raw.append(rate)
        scales.append(0.5 * (before + after) / CALIBRATION_REF_S)
        calibrated.append(rate * scales[-1])
        before = after
        index += 1
        if time.perf_counter() >= deadline:
            return batches, raw, calibrated, scales


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def timed_run(args) -> dict:
    import gate
    import numpy as np
    import platform

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    plan = workload.setup(args.seed, in_process=traced)
    reference = None
    if args.seed == DEFAULT_SEED and gate.reference_path(workload.name).is_file():
        reference = gate.load_reference(workload.name)

    tally = {"attempted": 0, "failed": 0, "notes": []}

    def account(batch):
        failed, notes = gate.failed_units(
            workload.kind, batch, reference if batch.index == 0 else None)
        tally["attempted"] += batch.units
        tally["failed"] += failed
        tally["notes"].extend(notes[:MAX_NOTES - len(tally["notes"])])

    account(workload.run_batch(plan, 0))  # warm-up: checked, not timed
    phase = args.seconds / 2 if traced else args.seconds
    measure = PairedCalibration(workload.name) if plan.get("jobs", 1) > 1 else calibrate
    try:
        untraced, raw, calibrated, scales = _run_phase(
            workload, plan, 1, phase, account, measure)
    finally:
        if measure is not calibrate:
            measure.close()
    result = {
        "workload": workload.name,
        "command": workload.command(args.seed, in_process=traced),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "reference_checked": reference is not None,
        "batches": len(untraced),
        "batch_units": untraced[0].units,
        "batch_seconds": [round(b.elapsed_s, 6) for b in untraced],
        "batch_scales": [round(x, 4) for x in scales],
        "units_per_s": statistics.median(calibrated),
        "units_per_s_raw": statistics.median(raw),
    }
    if traced:
        from spans import Tracer

        tracer = Tracer(*workload.unit_spans)
        tracer.install()
        try:
            traced_batches, _raw, traced_rates, _scales = _run_phase(
                workload, plan, 1 + len(untraced), phase, account, calibrate, tracer)
        finally:
            tracer.restore()
        wall_ns = int(sum(b.elapsed_s for b in traced_batches) * 1e9)
        units = sum(b.units for b in traced_batches)
        layers = tracer.layer_metrics(
            wall_ns, units, sum(b.output_bytes for b in traced_batches))
        layers["trace.overhead_frac"] = (
            result["units_per_s"] / statistics.median(traced_rates) - 1.0, "ratio")
        result["layers"] = layers
        result["traced_batches"] = len(traced_batches)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    else:
        result["peak_rss_mb"] = _peak_rss_mb()
    result.update(attempted=tally["attempted"], failed=tally["failed"],
                  failures=tally["notes"])
    return result


def record_reference(args) -> int:
    import gate

    workload = WORKLOADS[args.workload]
    batch = workload.run_batch(workload.setup(args.seed), 0)
    failed, notes = gate.failed_units(workload.kind, batch)
    if failed:
        print("\n".join(notes), file=sys.stderr)
        return 1
    keys = workload.reference_keys()
    groups = {k: batch.texts[k] for k in (keys if keys is not None else batch.texts)}
    print(gate.save_reference(workload.name, groups))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.probe:
        WORKLOADS[args.workload].setup(args.seed)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        speed = sorted(calibrate() for _ in range(3))[1]
        print(repr(ready), repr(CALIBRATION_REF_S / speed))
        return 0
    if args.record_reference:
        return record_reference(args)
    if args.calibration_helper:
        return _calibration_helper()
    import json

    result = timed_run(args)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
