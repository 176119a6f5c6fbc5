"""Benchmark for the timinggames toolkit.

Usage, from the root of a checkout (no install needed; ``src`` is used directly):

    python3 perfbench/run.py --workload equilibrium --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload drives ``config.resolve_config`` -> ``cli.run_experiment`` in
closed loop with one client, in a fresh worker process (``worker.py``) with
numpy's thread pools pinned to one thread. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps each module's public functions
(``tracer.py``) and reports per-layer metrics instead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. ``--record-goldens`` rewrites ``goldens.json`` from the recorded
seed's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S, kernel_seconds, scaled
from workloads import RECORDED_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDENS = os.path.join(HERE, "goldens.json")

#: Fresh-interpreter samples per setup_s measurement (after one warm-up that
#: also compiles the bytecode cache).
SETUP_SAMPLES = 9
#: Every run must end within this many seconds.
RUN_LIMIT_S = 175

SETUP_SNIPPET = (
    "import json, sys, timinggames; timinggames.resolve_config(json.loads(sys.argv[1]))"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(raw: dict, env: dict) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its exit after
    ``import timinggames`` and ``resolve_config``: what each CLI call pays.
    Returns the samples scaled to the reference machine speed, and raw."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, json.dumps(raw)]
    # The first spawn also writes the bytecode cache; it is not timed.
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
    kernel_seconds()
    kernels, raw_samples, samples = [kernel_seconds()], [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # Popen.wait without a timeout blocks in waitpid; with one it polls
        # in steps of up to 50 ms, which would quantize the samples.
        with subprocess.Popen(argv, env=env, cwd=ROOT) as proc:
            code = proc.wait()
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        raw_samples.append(time.perf_counter() - start)
        kernels.append(kernel_seconds())
        samples.append(scaled(raw_samples[-1], kernels[-2], kernels[-1]))
    return samples, raw_samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden, deadline: float) -> dict:
    workload = WORKLOADS[name]
    env = _env()
    rundir = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        setup, raw_setup = ([], []) if trace else measure_setup(workload.configs(seed)[0], env)
        spec = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "src": SRC,
            "ctx": workload.prepare(seed, rundir),
            "golden": golden,
            "spans_path": os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl"),
        }
        spec_path = os.path.join(rundir, "spec.json")
        result_path = os.path.join(rundir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                       env=env, cwd=rundir, check=True,
                       timeout=max(10.0, deadline - time.monotonic()))
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result["setup"], result["raw_setup"] = setup, raw_setup
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(name: str, result: dict) -> tuple[dict, list[str]]:
    """Metrics and the human-readable lines that describe them. Times are at
    the reference machine speed; the raw medians are printed beside them."""
    workload = WORKLOADS[name]
    walls = result["walls"] or [0.0]  # empty only when every experiment failed
    rates = [workload.work_per_experiment / w if w else 0.0 for w in walls]
    setup = result["setup"]
    rows = [
        ("wall_s", walls, "s", "experiments (warm-up excluded)", result["raw_walls"]),
        ("work_per_s", rates, "units/s",
         f"experiments; unit: {workload.work_unit}, {workload.work_per_experiment} per experiment",
         None),
        ("peak_rss_mb", [result["peak_rss_mb"]], "MB", "worker process", None),
        ("setup_s", setup, "s", "fresh interpreters", result["raw_setup"]),
    ]
    metrics, lines = {}, []
    for metric, samples, unit, what, raw in rows:
        value = statistics.median(samples)
        metrics[metric] = {"value": value, "unit": unit}
        q1, q3 = _quartiles(samples)
        line = (f"  {metric:<12} {value:>14.6g} {unit:<8} median of {len(samples)} {what}; "
                f"q1 {q1:.6g}, q3 {q3:.6g}")
        if raw:
            line += f"; raw median {statistics.median(raw):.6g}"
        lines.append(line)
    kernels = result["kernels"]
    lines.append(f"  times are scaled to a calibration kernel time of {REFERENCE_S} s; "
                 f"this run's kernel median {statistics.median(kernels):.6g} s "
                 f"over {len(kernels)} samples")
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    layers = result["layers"]
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    lines = [f"  {k:<52} {v:>14.6g} {_layer_unit(k)}" for k, v in layers.items()]
    return metrics, lines


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("useful_ratio", "child_coverage")):
        return "ratio"
    if key == "output.bytes_written":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help="write the recorded seed's output digests to goldens.json")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "timinggames", "__init__.py")):
        print(f"error: no timinggames package under {SRC}", file=sys.stderr)
        return 2
    if args.record_goldens and args.seed != RECORDED_SEED:
        print(f"error: goldens are recorded for seed {RECORDED_SEED}", file=sys.stderr)
        return 2
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    # Pin this process, and so every process it starts, to one CPU: the vCPUs
    # of a shared machine slow down independently, and the calibration kernel
    # only tracks the speed of the CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        use_golden = args.seed == RECORDED_SEED and not args.record_goldens
        golden = goldens[name] if use_golden else None
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), golden,
                                  started + RUN_LIMIT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        if args.record_goldens:
            goldens[name] = result["digests"]
        ok = result["failed"] == 0 and bool(result["walls"])
        print(f"workload {name}, seed {args.seed}: {result['attempted']} experiments, "
              f"{result['failed']} failed, error_rate "
              f"{result['failed'] / result['attempted']:.6g}"
              + ("" if golden is None else "; outputs checked against goldens.json"))
        for failure in result["failures"]:
            print("  failure: " + failure.strip().replace("\n", "\n    "))
        wl_metrics, lines = per_layer(result) if args.trace else end_to_end(name, result)
        print("\n".join(lines))
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
        correct &= ok
        attempted += result["attempted"]
        failed += result["failed"]

    if args.record_goldens:
        with open(GOLDENS, "w", encoding="utf-8") as fh:
            json.dump(goldens, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
