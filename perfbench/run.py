#!/usr/bin/env python3
"""Benchmark of the zigzag solver: ladder, roundtrip and surface workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 45 --trace 0

It prints one line per metric (name, value, unit) and, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` measures the end-to-end metrics with no tracing, as times
at full host speed (see hostspeed.py).
``--trace 1`` measures the per-layer metrics from a traced run of a fixed
set of passes and writes its spans to
perfbench_out/spans_<workload>_seed<seed>.npz.  Workloads, metrics and the
recorded baseline are described in perfbench/README.md.
"""

import os
import sys
import time

# Pin every numerical library to one thread before numpy is imported, and
# leave the library's own mesh thread count at its default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ZIGZAG_THREADS", None)

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import hostspeed

# A set-up process (--setup-only) samples the host's speed from here to the
# end of set-up, to convert its lifetime to full host speed; see measure_setup.
PROBE = hostspeed.SpeedProbe()
if "--setup-only" in sys.argv:
    PROBE.start()

import scipy

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / "perfbench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("ladder", "roundtrip", "surface")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (used to time set-up)")
    return parser.parse_args(argv)


def _import_library():
    """Import zigzag from this checkout's src/, never from an installed
    copy, then the benchmark modules that use it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import zigzag

    if Path(zigzag.__file__).resolve().parent != (src / "zigzag").resolve():
        raise ImportError(f"zigzag came from {zigzag.__file__}, not from {src}")
    import tracer
    import workloads

    return tracer, workloads


class Tally:
    """Outcome of every operation run."""

    def __init__(self):
        self.latencies: list[float] = []     # every operation
        self.ok_latencies: list[float] = []  # operations that passed their check
        self.declined = 0  # the library raised
        self.wrong = 0     # the library returned a result that failed its check
        self.notes: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.declined + self.wrong

    def record(self, name: str, seconds: float, problem, declined: bool) -> None:
        self.latencies.append(seconds)
        if problem is None:
            self.ok_latencies.append(seconds)
        else:
            if declined:
                self.declined += 1
            else:
                self.wrong += 1
            self.notes.append(f"{name}: {problem}")


class OpTimeout(Exception):
    """An operation ran past its workload's latency limit."""


def _timeout(signum, frame):
    raise OpTimeout("operation exceeded its latency limit")


def run_op(op, tally: Tally, tracer=None, probe=None) -> float:
    """Time one operation, then check its result untimed and untraced.

    An exception of any type, including OpTimeout when the operation has a
    latency limit, fails the operation; the run goes on.  A probe samples
    the host's speed during the timed call only."""
    if tracer is not None:
        tracer.current_op = tally.attempted
    with (tracer.installed() if tracer else nullcontext(),
          probe.sampling() if probe else nullcontext()):
        t0 = time.perf_counter()
        try:
            try:
                if op.limit_s:
                    signal.setitimer(signal.ITIMER_REAL, op.limit_s)
                result = op.run()
            finally:
                if op.limit_s:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            problem, declined = None, False
        except Exception as exc:
            result, problem, declined = None, f"{type(exc).__name__}: {exc}", True
        elapsed = time.perf_counter() - t0
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    tally.record(op.name, elapsed, problem, declined)
    return elapsed


def run_passes(wl, tally: Tally, seconds: float, probe) -> tuple[list[float], list[float]]:
    """Run as many whole passes as fit in ``seconds``: a pass starts only
    if the median pass so far still fits, and the first always runs.
    Returns the wall time of each pass, the sum of its operations' times,
    and the same times at full host speed."""
    start = time.perf_counter()
    walls: list[float] = []
    full: list[float] = []
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        mark = probe.mark()
        walls.append(sum(run_op(op, tally, probe=probe) for op in wl.pass_ops(len(walls))))
        full.append(probe.full_speed(walls[-1], mark))
    return walls, full


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that import the library, load the
    inputs and draw the samples, from process start to exit: at full host
    speed, from the speed each process sampled, and as wall time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    walls, full = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        speed, spent = map(float, proc.stdout.split())
        full.append((walls[-1] - spent) * speed)
    return statistics.median(full), statistics.median(walls)


def end_to_end(wl, args, probe):
    tally = Tally()
    walls, full = run_passes(wl, tally, args.seconds, probe)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Latency of a certified operation: failures are counted, not timed.
    # Printed for every workload but left out of the JSON result: these are
    # roundtrip's figures, and on the gated workloads they repeat wall_s
    # (ladder) or mix unlike operations (surface).
    latencies = tally.ok_latencies or tally.latencies
    p50, p90 = np.percentile(latencies, [50, 90])
    beyond = sum(1 for t in latencies if t > p90)
    print(f"# passes {len(walls)}; certified operations {len(latencies)}, "
          f"{beyond} beyond p90")
    print(f"# op_p50_ms {1e3 * float(p50)!r} ms")
    print(f"# op_p90_ms {1e3 * float(p90)!r} ms")
    print(f"# host speed {statistics.fmean(probe.speeds)!r} of full over "
          f"{len(probe.speeds)} samples")
    setup_full, setup_wall = measure_setup(args)
    print(f"# setup_wall_s {setup_wall!r} s")
    print(f"# wall_s {statistics.median(walls)!r} s")
    metrics = {
        "setup_s": (setup_full, "s"),
        "full_speed_wall_s": (statistics.median(full), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return tally, metrics


def per_layer(wl, args, tracer_mod):
    """Trace a fixed set of passes, so that call counts repeat exactly.

    Each operation runs untraced and then at once traced; the ratio of the
    two time sums is the tracing overhead, taken close together in time
    because the host's speed drifts.  A genus-5 ladder pass is too long to
    run twice, so the ladder pairs up its shorter calibration ladder and
    runs the traced pass alone."""
    tally, tracer = Tally(), tracer_mod.Tracer()
    ops = [op for i in range(wl.traced_passes) for op in wl.pass_ops(i)]
    if hasattr(wl, "overhead_ops"):
        pairs, pair_tracer, alone = wl.overhead_ops(), tracer_mod.Tracer(), ops
    else:
        pairs, pair_tracer, alone = ops, tracer, []
    base = traced = 0.0
    for op in pairs:
        base += run_op(op, tally)
        traced += run_op(op, tally, pair_tracer)
    for op in alone:
        run_op(op, tally, tracer)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (traced / base - 1.0, "frac")
    metrics["run.failed_frac"] = (tally.failed / tally.attempted, "frac")
    spans = STATE / f"spans_{args.workload}_seed{args.seed}.npz"
    tracer.save(spans)
    print(f"# {len(tracer.fn)} spans written to {spans.relative_to(ROOT)}")
    return tally, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        tracer_mod, wl_mod = _import_library()
    except ImportError as exc:
        print(f"error: cannot import the zigzag library: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _timeout)
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        ctx = wl_mod.Context(ROOT, args.seed, workdir, STATE)
        wl = wl_mod.WORKLOADS[args.workload](ctx)
        if args.setup_only:
            PROBE.stop()
            print(statistics.fmean(PROBE.speeds), PROBE.spent)
            return 0
        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print(f"# nproc {os.cpu_count()} machine {platform.machine()} "
              f"python {platform.python_version()} numpy {np.__version__} "
              f"scipy {scipy.__version__} source sha256 {ctx.source[:16]} "
              f"threads pinned to 1")
        if args.trace:
            tally, metrics = per_layer(wl, args, tracer_mod)
        else:
            tally, metrics = end_to_end(wl, args, PROBE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(f"# ops attempted {tally.attempted} failed {tally.failed} "
          f"(raised {tally.declined}, wrong {tally.wrong}) "
          f"failed_frac {tally.failed / tally.attempted!r}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = (tally.wrong == 0 and bool(tally.ok_latencies)
               and (wl.declines_allowed or tally.failed == 0))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
