"""Command-line entry point.

Subcommands: simulate, sweep, check-equilibrium, best-response, mvot, curves.
Shared flags: --config PATH, --out DIR, --seed N, --preset NAME. The
environment variables TIMINGGAMES_OUT and TIMINGGAMES_SEED override the config
file for the output directory and seed only; explicit flags beat both. Every
run writes effective_config.json alongside its outputs, and rerunning with
that echo reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .config import (
    COMMANDS,
    PRESETS,
    ExperimentConfig,
    read_config_file,
    resolve_config,
    simulation_config,
)
from .distributions import LatencyDistribution
from .engine import SimulationError, derive_seed, run_simulation
from .equilibrium import (
    DeviationReport,
    best_response_delay,
    check_attester_deviation,
    check_proposer_deviation,
    default_deviation_grid,
    next_slot_share_runs,
    sweep_delta_star,
)
from .market import estimate_mvot, generate_bid_stream, load_bids, pooled_ols_slope
from .metrics import bucket_curve, pearson
from .model import SLOT_COLUMNS, ConfigurationError
from .output import (
    CURVE_SCHEMA,
    DEVIATIONS_SCHEMA,
    RESPONSE_SCHEMA,
    SHARE_SAMPLES_SCHEMA,
    SLOTS_SCHEMA,
    SWEEP_SCHEMA,
    write_outputs,
)
from .strategies import optimal_delay


def _run_simulate(cfg: ExperimentConfig) -> dict:
    trace = run_simulation(simulation_config(cfg.params, cfg.options))
    n_samples = cfg.params.horizon_slots * cfg.params.attester_count
    slot_columns = {name: getattr(trace, name) for name in SLOT_COLUMNS}
    slot_columns["slot"] = np.arange(cfg.params.horizon_slots)
    slot_columns["attestation_share"] = trace.vote_count / cfg.params.attester_count
    summary = {
        "genesis_time_us": trace.genesis_time_us,
        "closing_action": {
            "build_on_prev": trace.closing_action.build_on_prev,
            "release_time_us": trace.closing_action.release_time_us,
        },
        "aggregate": {
            # a left-to-right sum: np.sum's pairwise order can move the last bit
            "total_proposer_payoff": sum(trace.proposer_payoff.tolist()),
            "mean_attester_payoff": int(trace.attester_payoff_total.sum()) / n_samples,
            "canonical_slots": int(trace.canonical.sum()),
            "horizon_slots": cfg.params.horizon_slots,
        },
    }
    return {
        "trace.json": ("json", summary),
        "slots.csv": ("csv", SLOTS_SCHEMA, slot_columns),
    }


def _run_sweep(cfg: ExperimentConfig) -> dict:
    rows = sweep_delta_star(cfg.params, cfg.options["delta_star_grid_us"])
    dict_rows = [dataclasses.asdict(r) for r in rows]
    columns = {name: [row[name] for row in dict_rows] for name, _ in SWEEP_SCHEMA}
    return {
        "sweep.csv": ("csv", SWEEP_SCHEMA, columns),
        "sweep.json": ("json", {"rows": dict_rows}),
    }


def _report_dict(report: DeviationReport) -> dict:
    """``dataclasses.asdict(report)`` one level deep, which is all it needs:
    the outcomes are its only nested dataclasses, and they hold plain values."""
    return {**vars(report), "deviations": [dict(vars(o)) for o in report.deviations]}


def _run_check_equilibrium(cfg: ExperimentConfig) -> dict:
    opts = cfg.options
    grid = opts["delta_star_grid_us"]
    proposer_reports = []
    attester_reports = []
    tested = []
    for ds in grid:
        dev_grid = default_deviation_grid(cfg.params, ds, opts["deviation_points"])
        prop = check_proposer_deviation(
            cfg.params, ds, dev_grid, runs=opts["runs"], deviation_slot=opts["deviation_slot"]
        )
        att = check_attester_deviation(
            cfg.params, ds, opts["mc_samples"], tau_shifts_us=(opts["tau_shift_us"],)
        )
        proposer_reports.append(_report_dict(prop))
        attester_reports.append(_report_dict(att))
        tested += [(ds, o) for report in (prop, att) for o in report.deviations]
    # the outcomes' fields are the other columns, by name
    deviations = {"delta_star_us": [ds for ds, _ in tested]}
    for name, _ in DEVIATIONS_SCHEMA[1:]:
        deviations[name] = [getattr(o, name) for _, o in tested]
    all_ok = all(r["all_unprofitable"] for r in proposer_reports + attester_reports)
    payload = {
        "delta_star_grid_us": grid,
        "proposer_reports": proposer_reports,
        "attester_reports": attester_reports,
        "all_unprofitable": all_ok,
    }
    return {
        "equilibrium_report.json": ("json", payload),
        "deviations.csv": ("csv", DEVIATIONS_SCHEMA, deviations),
    }


def _run_best_response(cfg: ExperimentConfig) -> dict:
    opts = cfg.options
    curve = best_response_delay(
        cfg.params, opts["delay_grid_us"], opts["runs_per_point"], horizon=opts["horizon"]
    )
    columns = {
        "delay_us": curve.delays_us,
        "expected_payoff": curve.expected_payoffs,
        "payoff_se": curve.payoff_std_errors,
        "attestation_share": curve.attestation_shares,
    }
    closed_form = optimal_delay(cfg.params) if cfg.params.vote_threshold < 1 else None
    payload = {
        "argmax_delay_us": curve.argmax_delay_us,
        "closed_form_delay_us": closed_form,
        "runs_per_point": opts["runs_per_point"],
    }
    return {
        "response_curve.csv": ("csv", RESPONSE_SCHEMA, columns),
        "best_response.json": ("json", payload),
    }


# inf, NaN or a time cast beyond int64 in the bids or the fit is reported by main
@np.errstate(over="raise", invalid="raise")
def _run_mvot(cfg: ExperimentConfig) -> dict:
    opts = cfg.options
    if opts["bids_path"] is not None:
        bids = load_bids(opts["bids_path"])
        planted = None
    else:
        bids = generate_bid_stream(
            n_slots=opts["n_slots"],
            bids_per_slot=opts["bids_per_slot"],
            mu_eth_per_s=opts["mu_eth_per_s"],
            slot_effect_dist=LatencyDistribution.from_config(opts["baseline"]),
            noise_sd_eth=opts["noise_sd_eth"],
            arrival_window_ms=tuple(opts["arrival_window_ms"]),
            rng=derive_seed(cfg.params.seed, "mvot-bids"),
            validation_latency=LatencyDistribution.from_config(opts["validation_latency"]),
            arrival_profile=opts["arrival_profile"],
            n_builders=opts["n_builders"],
        )
        planted = opts["mu_eth_per_s"]
    report = estimate_mvot(bids)
    payload = dataclasses.asdict(report)
    payload["pooled_slope_eth_per_s"] = pooled_ols_slope(bids)
    payload["planted_mu_eth_per_s"] = planted
    results = {"mvot_report.json": ("json", payload)}
    if opts["save_bids"]:
        results["bids.jsonl"] = ("bids", bids)
    return results


def _run_curves(cfg: ExperimentConfig) -> dict:
    opts = cfg.options
    samples = next_slot_share_runs(cfg.params, opts["delay_grid_us"], opts["runs"], opts["horizon"])
    offsets_ms, shares = samples["release_offset_ms"], samples["share"]
    curve = bucket_curve(offsets_ms, shares, bucket_ms=opts["bucket_ms"])
    try:
        corr = pearson(offsets_ms, shares)
    except ConfigurationError:
        corr = None
    payload = {
        "release_offset_vs_share": corr,
        "n_samples": len(shares),
        "bucket_ms": opts["bucket_ms"],
    }
    return {
        "next_slot_share.csv": ("csv", CURVE_SCHEMA, curve),
        "share_samples.csv": ("csv", SHARE_SAMPLES_SCHEMA, samples),
        "correlations.json": ("json", payload),
    }


_RUNNERS = {
    "simulate": _run_simulate,
    "sweep": _run_sweep,
    "check-equilibrium": _run_check_equilibrium,
    "best-response": _run_best_response,
    "mvot": _run_mvot,
    "curves": _run_curves,
}


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run the configured experiment and write its outputs (including the
    effective-config echo). Returns the written paths."""
    results = {"effective_config.json": ("json", cfg.effective_dict())}
    results.update(_RUNNERS[cfg.command](cfg))
    return write_outputs(results, cfg.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timinggames",
        description=(
            "Simulate proposer timing games in propose-vote consensus, verify the "
            "coordinated-release profile by deviation testing, and analyze synthetic "
            "block-auction bid streams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "simulate": "run one simulation and dump the per-slot table",
        "sweep": "coordinated-profile runs across a schedule-offset grid",
        "check-equilibrium": "deviation-test the coordinated profile",
        "best-response": "payoff curve over release delays against honest attesters",
        "mvot": "estimate the marginal value of time from a bid stream",
        "curves": "next-slot attestation share versus release delay",
    }
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd, help=helps[cmd])
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--out", metavar="DIR", help="output directory (default: out)")
        sp.add_argument("--seed", type=int, help="override the protocol seed")
        sp.add_argument(
            "--preset", choices=sorted(PRESETS), help="protocol preset to start from"
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    out = args.out if args.out is not None else os.environ.get("TIMINGGAMES_OUT")
    seed = args.seed
    if seed is None and "TIMINGGAMES_SEED" in os.environ:
        try:
            seed = int(os.environ["TIMINGGAMES_SEED"])
        except ValueError:
            print("TIMINGGAMES_SEED must be an integer", file=sys.stderr)
            return 2
    try:
        raw = read_config_file(args.config) if args.config else None
        cfg = resolve_config(
            raw, command=args.command, preset=args.preset, seed=seed, out=out
        )
        paths = run_experiment(cfg)
    except (ConfigurationError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: numbers out of range for float64 or int64: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
