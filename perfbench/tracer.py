"""In-memory span tracer that wraps the public functions of ``timinggames``.

Each span is recorded at a module boundary as ``[name, start, end, parent,
experiment]``. Wrappers are installed in every namespace that looks the name
up: a function bound by ``from .engine import run_simulation`` into ``cli``
and ``equilibrium`` is replaced in each of those modules, and methods such as
``RngStream.generator`` are replaced on their class. ``uninstall`` puts the
original objects back.

Counts (slots simulated, bids read, bytes written, ...) are taken at the same
boundaries from the arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

#: Wrapped functions, as ``module.[Class.]function``, in report order. README.md
#: says which end-to-end metric each should move, and on which workload.
SPANS = (
    "cli.run_experiment",
    "config.resolve_config",
    "engine.run_simulation",
    "engine.RngStream.generator",
    "engine.sample_latency_array",
    "model.SimulationTrace.validate",
    "equilibrium.check_proposer_deviation",
    "equilibrium.check_attester_deviation",
    "equilibrium.best_response_delay",
    "market.generate_bid_stream",
    "distributions.LatencyDistribution.sample",
    "market.write_bids_jsonl",
    "market.load_bids",
    "market.estimate_mvot",
    "market.pooled_ols_slope",
    "metrics.next_slot_share_samples",
    "metrics.bucket_curve",
    "metrics.pearson",
    "output.write_outputs",
)

ROOT = "cli.run_experiment"

COUNTS = (
    "engine.slots",
    "engine.attester_slots",
    "engine.full_attester_slots",
    "equilibrium.samples_used",
    "market.bids_generated",
    "market.bids_read",
    "output.bytes_written",
)

PACKAGE = "timinggames"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counts while installed; one tracer per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.experiment = -1
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every span in ``SPANS`` that exists in the loaded package.
        Returns the names that could not be found (reported as zero)."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        missing = []
        for name in SPANS:
            module_name, *owner_path, attr = name.split(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_path:
                self._set(owner, attr, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
        return missing

    def _set(self, namespace, attr, value) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        count = _COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.experiment])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts -----------------------------------------------------------

    def add(self, key: str, value: int) -> None:
        self.counts[self.experiment][key] += value

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    # -- reduction --------------------------------------------------------

    def experiment_summary(self, experiment: int) -> dict:
        """Per-span calls, busy and self seconds of one experiment, plus the
        share of root busy time that the root's direct children cover."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        selected = [i for i, s in enumerate(self.spans) if s[4] == experiment]
        for i in selected:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        root_busy = root_children = 0.0
        for i in selected:
            name, start, end, parent, _ = self.spans[i]
            duration = end - start
            calls[name] += 1
            busy[name] += duration
            self_time[name] += duration - child_time[i]
            if name == ROOT:
                root_busy += duration
                root_children += child_time[i]
        return {
            "calls": dict(calls),
            "busy_s": dict(busy),
            "self_s": dict(self_time),
            "root_busy_s": root_busy,
            "root_children_s": root_children,
            "counts": dict(self.counts.get(experiment, {})),
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, experiment."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, experiment in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "experiment": experiment,
                }))
                fh.write("\n")


def _count_simulation(tracer, args, kwargs, trace):
    config = _arg(args, kwargs, 0, "config")
    params = config.params
    slots = params.horizon_slots
    attester_slots = slots * params.attester_count
    tracer.add("engine.slots", slots)
    tracer.add("engine.attester_slots", attester_slots)
    if config.record_level == "full":
        tracer.add("engine.full_attester_slots", attester_slots)
    if tracer.inside("equilibrium."):
        tracer.add("equilibrium.attester_slots", attester_slots)


def _count_deviation_report(tracer, args, kwargs, report):
    samples = report.baseline_samples + sum(o.samples for o in report.deviations)
    tracer.add("equilibrium.samples_used", samples)


def _count_best_response(tracer, args, kwargs, curve):
    runs = _arg(args, kwargs, 2, "runs_per_point")
    tracer.add("equilibrium.samples_used", len(curve.delays_us) * runs)


def _count_generated(tracer, args, kwargs, bids):
    tracer.add("market.bids_generated", len(bids))


def _count_read(tracer, args, kwargs, bids):
    tracer.add("market.bids_read", len(bids))


def _count_written(tracer, args, kwargs, paths):
    tracer.add("output.bytes_written", sum(os.path.getsize(p) for p in paths))


_COUNTERS = {
    "engine.run_simulation": _count_simulation,
    "equilibrium.check_proposer_deviation": _count_deviation_report,
    "equilibrium.check_attester_deviation": _count_deviation_report,
    "equilibrium.best_response_delay": _count_best_response,
    "market.generate_bid_stream": _count_generated,
    "market.load_bids": _count_read,
    ROOT: _count_written,
}
