"""Tracer self-test. Every span that the README table assigns to a workload
must be hit at least once when that workload runs traced; otherwise a wrapper
bound into the wrong namespace would report zero and pass silently.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracer import ROOT as ROOT_SPAN, SPANS, Tracer  # noqa: E402
from workloads import EXPECTED_SPANS, WORKLOADS  # noqa: E402

from timinggames import cli, config, engine, equilibrium, model  # noqa: E402

SEED = 3


def test_expected_spans_cover_the_table():
    assert set().union(*EXPECTED_SPANS.values()) == set(SPANS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_hits_its_spans(name):
    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cwd = os.getcwd()
    workload = WORKLOADS[name]
    tracer = Tracer()
    tracer.experiment = 0
    try:
        os.chdir(workdir)
        workload.prepare(SEED, workdir)
        assert tracer.install() == []
        try:
            for raw in workload.configs(SEED):
                cli.run_experiment(config.resolve_config(raw, out=raw["command"]))
        finally:
            tracer.uninstall()
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    summary = tracer.experiment_summary(0)
    missing = [s for s in EXPECTED_SPANS[name] if summary["calls"].get(s, 0) == 0]
    assert missing == []
    assert summary["root_children_s"] >= 0.95 * summary["root_busy_s"]
    assert summary["counts"]["output.bytes_written"] > 0


def test_uninstall_restores_every_binding():
    originals = (
        cli.run_simulation, equilibrium.run_simulation, engine.run_simulation,
        engine.RngStream.generator, model.SimulationTrace.validate, cli.run_experiment,
    )
    tracer = Tracer()
    tracer.install()
    assert cli.run_simulation is equilibrium.run_simulation is engine.run_simulation
    assert engine.run_simulation is not originals[2]
    assert engine.RngStream.generator is not originals[3]
    tracer.uninstall()
    restored = (
        cli.run_simulation, equilibrium.run_simulation, engine.run_simulation,
        engine.RngStream.generator, model.SimulationTrace.validate, cli.run_experiment,
    )
    assert all(a is b for a, b in zip(originals, restored))


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        [ROOT_SPAN, 0.0, 10.0, -1, 0],
        ["engine.run_simulation", 1.0, 4.0, 0, 0],
        ["engine.RngStream.generator", 2.0, 3.0, 1, 0],
        ["output.write_outputs", 5.0, 9.0, 0, 0],
        ["engine.run_simulation", 0.0, 1.0, -1, 1],
    ]
    summary = tracer.experiment_summary(0)
    assert summary["busy_s"][ROOT_SPAN] == 10.0
    assert summary["self_s"][ROOT_SPAN] == 3.0
    assert summary["self_s"]["engine.run_simulation"] == 2.0
    assert summary["calls"]["engine.run_simulation"] == 1
    assert summary["root_children_s"] == 7.0
