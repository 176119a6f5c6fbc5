"""Runs one workload's experiments in closed loop inside a fresh process.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and the run
directory as working directory, so relative paths in configs (``out/...``,
the replay bid file) and therefore ``effective_config.json`` bytes do not
depend on where the checkout lives. Usage: ``worker.py SPEC_JSON RESULT_JSON``.

One client: an experiment starts only after the previous one finished. The
first experiment is a warm-up: it is checked and counts towards the run's
``--seconds``, but its time is not reported. The calibration kernel runs
between experiments, and each wall time is also reported scaled to the
reference machine speed (see ``calibrate.py``). With tracing on,
timed experiments alternate untraced and traced, so the tracing overhead is
measured in the same process and time window.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from calibrate import kernel_seconds, scaled
from tracer import COUNTS, SPANS, Tracer
from workloads import WORKLOADS

#: Fewest timed experiments per run, even when they overrun ``--seconds``.
MIN_TIMED = 5


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _collect(out_root: str) -> tuple[dict, dict]:
    """Digest every output file; keep the bytes of all but bid streams for
    the semantic checks."""
    digests, contents = {}, {}
    for command in sorted(os.listdir(out_root)):
        for name in sorted(os.listdir(os.path.join(out_root, command))):
            rel = f"{command}/{name}"
            path = os.path.join(out_root, rel)
            digests[rel] = _digest(path)
            if not name.endswith(".jsonl"):
                with open(path, "rb") as fh:
                    contents[rel] = fh.read()
    return digests, contents


class Runner:
    def __init__(self, spec: dict) -> None:
        import timinggames
        from timinggames import cli, config

        src = os.path.realpath(spec["src"])
        if not os.path.realpath(timinggames.__file__).startswith(src + os.sep):
            raise SystemExit(f"timinggames imported from {timinggames.__file__}, not {src}")
        self.cli, self.config = cli, config
        self.workload = WORKLOADS[spec["workload"]]
        self.raws = self.workload.configs(spec["seed"])
        self.ctx = spec["ctx"]
        self.reference = spec["golden"]
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run(self, tracer: Tracer | None, experiment: int) -> float | None:
        """One experiment; returns its wall time, or None when it failed."""
        self.attempted += 1
        shutil.rmtree("out", ignore_errors=True)
        try:
            if tracer is not None:
                tracer.experiment = experiment
                tracer.install()
            try:
                wall = 0.0
                for raw in self.raws:
                    cfg = self.config.resolve_config(raw, out=os.path.join("out", raw["command"]))
                    start = time.perf_counter()
                    self.cli.run_experiment(cfg)
                    wall += time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            digests, contents = _collect("out")
            problems = self.workload.check(contents, self.ctx)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                changed = sorted(k for k in set(digests) | set(self.reference)
                                 if digests.get(k) != self.reference.get(k))
                problems.append(f"output digests differ from the reference: {changed}")
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.failures.extend(problems[: 5 - len(self.failures)])
            return None
        return wall


def peak_rss_mb() -> float:
    """High-water RSS of this process image. ``ru_maxrss`` is not used because
    Linux carries it over from the parent across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _layers(tracer: Tracer, traced: list[int], untraced_walls, traced_walls) -> dict:
    summaries = [tracer.experiment_summary(e) for e in traced]
    metrics = {}
    for name in SPANS:
        for field in ("calls", "busy_s", "self_s"):
            metrics[f"{name}.{field}"] = _median([s[field].get(name, 0) for s in summaries])
    for key in COUNTS:
        metrics[key] = _median([s["counts"].get(key, 0) for s in summaries])
    ratios = []
    for s in summaries:
        simulated = s["counts"].get("equilibrium.attester_slots", 0)
        ratios.append(s["counts"].get("equilibrium.samples_used", 0) / simulated if simulated else 0.0)
    metrics["equilibrium.useful_ratio"] = _median(ratios)
    root_busy = sum(s["root_busy_s"] for s in summaries)
    metrics["trace.child_coverage"] = (
        sum(s["root_children_s"] for s in summaries) / root_busy if root_busy else 0.0
    )
    metrics["trace.overhead_s"] = _median(traced_walls) - _median(untraced_walls)
    return metrics


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    runner = Runner(spec)
    tracer = Tracer() if spec["trace"] else None
    # Keyed by "traced": wall times at reference machine speed, and raw.
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: dict[bool, list[float]] = {False: [], True: []}
    traced_ids: list[int] = []

    def enough() -> bool:
        if tracer is None:
            return len(walls[False]) >= MIN_TIMED
        return min(len(walls[False]), len(walls[True])) >= 2

    deadline = time.perf_counter() + spec["seconds"]
    runner.run(None, 0)  # warm-up: checked, not timed
    kernel_seconds()  # the first call pays numpy's lazy set-up
    kernels = [kernel_seconds()]
    experiment = 1
    while time.perf_counter() < deadline or (not enough() and runner.attempted < 3 * MIN_TIMED):
        traced = tracer is not None and experiment % 2 == 0
        wall = runner.run(tracer if traced else None, experiment)
        kernels.append(kernel_seconds())
        if wall is not None:
            walls[traced].append(scaled(wall, kernels[-2], kernels[-1]))
            raw_walls[traced].append(wall)
            if traced:
                traced_ids.append(experiment)
        experiment += 1

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "walls": walls[False],
        "raw_walls": raw_walls[False],
        "kernels": kernels,
        "digests": runner.reference,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = _layers(tracer, traced_ids, walls[False], walls[True])
        tracer.dump(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
