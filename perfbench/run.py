"""Time to verdict on four levysym evidence workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nonuniq-fine --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all --smoke --seconds 1

One run builds the workload's inputs from the seed and repeats whole rounds
of its operations until ``--seconds`` have passed, in this single-threaded
process.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json (the median round time and the median of several set-up
probes, both scaled to the reference speed of the host by ``gauge``, and the
peak RSS); with ``--trace 1`` it alternates untraced and
traced rounds and reports the per-layer metrics from the spans of the traced
ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``--workload all`` runs each
workload in a fresh process and prints one summary line per workload.
"""

from __future__ import annotations

import os

# single-threaded NumPy: set before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402  (after the thread settings above: it loads NumPy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("nonuniq-fine", "ecf-coarse", "dynkin-grid", "uniqueness-audit")
#: fresh interpreters timed per run for setup_s (the median is reported)
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs that run every check in seconds")
    return p.parse_args(argv)


def metric_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(workload: str, seed: int, size: str, outdir: Path) -> float:
    """Median seconds from interpreter start to inputs-ready over fresh processes,
    each scaled to the reference speed by the gauge read around it."""
    meter = gauge.Gauge()
    samples = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size,
           str(outdir)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(meter.scale(t1 - t0))
    return statistics.median(samples)


def run_round(ops, recorder=None, meter=None):
    """One pass over every operation: (wall seconds, scaled seconds, [(op, problems)]).

    With a gauge, each operation is timed by it (its readings left out of the
    time) and scaled to the reference speed; without one the scaled time is None.
    """
    outcomes = []
    wall = 0.0
    scaled = 0.0 if meter is not None else None
    with recorder.installed() if recorder is not None else contextlib.nullcontext():
        for op in ops:
            if recorder is not None:
                recorder.begin_op(op.name)
            call = functools.partial(run_op, op)
            if meter is not None:
                problems, seconds, at_reference = meter.measure(call)
                scaled += at_reference
            else:
                t0 = time.perf_counter()
                problems = call()
                seconds = time.perf_counter() - t0
            wall += seconds
            outcomes.append((op, problems))
    return wall, scaled, outcomes


def run_op(op) -> list:
    """The checks of ``op`` that failed; an operation that raises has failed."""
    try:
        return op.run()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [f"{op.name} raised {type(exc).__name__}: {exc}"]


def run_one(args) -> dict:
    size = "smoke" if args.smoke else "full"
    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, size, outdir)
        sys.path.insert(0, str(SRC))
        import spans
        import workloads

        ops = workloads.build(args.workload, args.seed, size, outdir)
        recorder = spans.SpanRecorder() if args.trace else None
        meter = None if args.trace else gauge.Gauge()
        walls = {False: [], True: []}
        scaled_walls = []
        layers = []
        attempted = failed = 0
        correct = True
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or (args.trace and not walls[True])):
            traced = bool(args.trace) and len(walls[True]) < len(walls[False])
            first = len(recorder) if traced else 0
            wall, scaled, outcomes = run_round(ops, recorder if traced else None, meter)
            walls[traced].append(wall)
            if scaled is not None:
                scaled_walls.append(scaled)
            if traced:
                layers.append(spans.layer_metrics(recorder, first, len(recorder)))
            for op, problems in outcomes:
                attempted += 1
                if problems:
                    failed += 1
                    correct &= op.known_fault
                    print(f"{op.name}: " + "; ".join(problems), file=sys.stderr)
        print("round walls (s): untraced " + " ".join(f"{w:.3f}" for w in walls[False])
              + "; traced " + " ".join(f"{w:.3f}" for w in walls[True])
              + "; scaled " + " ".join(f"{w:.3f}" for w in scaled_walls), file=sys.stderr)
        if args.trace:
            metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
            metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                           - statistics.median(walls[False]))
            recorder.save(OUT / f"spans-{args.workload}.npz")
        else:
            metrics = {
                "wall_s": statistics.median(scaled_walls),
                "setup_s": setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    units = metric_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} do not match BENCHMARK.json")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process, one summary line each."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}, no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results[workload] = result
        shown = ", ".join(f"{name} {m['value']:.6g} {m['unit']}"
                          for name, m in result["metrics"].items())
        print(f"{workload}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}; {shown}", flush=True)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "levysym" / "__init__.py").is_file():
        print(f"perfbench: no levysym sources under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one core for the work, the gauge and the set-up probes (which inherit
    # it): the host's speed drifts per core, so the gauge must read the core
    # the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run_one(args)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
