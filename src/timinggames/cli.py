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

from .config import (
    COMMANDS,
    PRESETS,
    ExperimentConfig,
    read_config_file,
    resolve_config,
    simulation_config,
)
from .distributions import LatencyDistribution
from .engine import derive_seed, run_simulation
from .equilibrium import (
    best_response_delay,
    check_attester_deviation,
    check_proposer_deviation,
    default_deviation_grid,
    next_slot_share_runs,
    sweep_delta_star,
)
from .market import estimate_mvot, generate_bid_stream, load_bids, pooled_ols_slope
from .metrics import bucket_curve, pearson
from .model import ConfigurationError
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


def _slot_rows(trace):
    for rec in trace.slots:
        yield {
            "slot": rec.slot,
            "release_time_us": rec.proposer_action.release_time_us,
            "build_on_prev": rec.proposer_action.build_on_prev,
            "vote_count": rec.vote_count,
            "attestation_share": rec.vote_count / trace.params.attester_count,
            "canonical": rec.canonical,
            "proposer_payoff": rec.proposer_payoff,
            "attester_payoff_total": rec.attester_payoff_total,
            "fresh_count": rec.fresh_count,
            "fresh_vote_count": rec.fresh_vote_count,
        }


def _run_simulate(cfg: ExperimentConfig) -> dict:
    trace = run_simulation(simulation_config(cfg.params, cfg.options))
    n_samples = cfg.params.horizon_slots * cfg.params.attester_count
    summary = {
        "genesis_time_us": trace.genesis_time_us,
        "closing_action": {
            "build_on_prev": trace.closing_action.build_on_prev,
            "release_time_us": trace.closing_action.release_time_us,
        },
        "aggregate": {
            "total_proposer_payoff": sum(r.proposer_payoff for r in trace.slots),
            "mean_attester_payoff": sum(r.attester_payoff_total for r in trace.slots)
            / n_samples,
            "canonical_slots": sum(r.canonical for r in trace.slots),
            "horizon_slots": cfg.params.horizon_slots,
        },
    }
    return {
        "trace.json": ("json", summary),
        "slots.csv": ("csv", SLOTS_SCHEMA, list(_slot_rows(trace))),
    }


def _run_sweep(cfg: ExperimentConfig) -> dict:
    rows = sweep_delta_star(cfg.params, cfg.options["delta_star_grid_us"])
    dict_rows = [dataclasses.asdict(r) for r in rows]
    return {
        "sweep.csv": ("csv", SWEEP_SCHEMA, dict_rows),
        "sweep.json": ("json", {"rows": dict_rows}),
    }


def _run_check_equilibrium(cfg: ExperimentConfig) -> dict:
    opts = cfg.options
    grid = opts["delta_star_grid_us"]
    proposer_reports = []
    attester_reports = []
    deviation_rows = []
    for ds in grid:
        dev_grid = default_deviation_grid(cfg.params, ds, opts["deviation_points"])
        prop = check_proposer_deviation(
            cfg.params, ds, dev_grid, runs=opts["runs"], deviation_slot=opts["deviation_slot"]
        )
        att = check_attester_deviation(
            cfg.params, ds, opts["mc_samples"], tau_shifts_us=(opts["tau_shift_us"],)
        )
        proposer_reports.append(dataclasses.asdict(prop))
        attester_reports.append(dataclasses.asdict(att))
        for report in (prop, att):
            for o in report.deviations:
                deviation_rows.append(
                    {
                        "delta_star_us": ds,
                        "descriptor": o.descriptor,
                        "mean_payoff": o.mean_payoff,
                        "std_error": o.std_error,
                        "samples": o.samples,
                        "exact_zero": int(o.exact_zero),
                        "unprofitable": int(o.unprofitable),
                    }
                )
    all_ok = all(r["all_unprofitable"] for r in proposer_reports + attester_reports)
    payload = {
        "delta_star_grid_us": grid,
        "proposer_reports": proposer_reports,
        "attester_reports": attester_reports,
        "all_unprofitable": all_ok,
    }
    return {
        "equilibrium_report.json": ("json", payload),
        "deviations.csv": ("csv", DEVIATIONS_SCHEMA, deviation_rows),
    }


def _run_best_response(cfg: ExperimentConfig) -> dict:
    opts = cfg.options
    curve = best_response_delay(
        cfg.params, opts["delay_grid_us"], opts["runs_per_point"], horizon=opts["horizon"]
    )
    rows = [
        {
            "delay_us": d,
            "expected_payoff": p,
            "payoff_se": se,
            "attestation_share": s,
        }
        for d, p, se, s in zip(
            curve.delays_us,
            curve.expected_payoffs,
            curve.payoff_std_errors,
            curve.attestation_shares,
        )
    ]
    closed_form = (
        optimal_delay(cfg.params) if cfg.params.vote_threshold < 1 else None
    )
    payload = {
        "argmax_delay_us": curve.argmax_delay_us,
        "closed_form_delay_us": closed_form,
        "runs_per_point": opts["runs_per_point"],
    }
    return {
        "response_curve.csv": ("csv", RESPONSE_SCHEMA, rows),
        "best_response.json": ("json", payload),
    }


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
    sample_rows, pooled = next_slot_share_runs(
        cfg.params, opts["delay_grid_us"], opts["runs"], opts["horizon"]
    )
    curve = bucket_curve(pooled, bucket_ms=opts["bucket_ms"])
    curve_rows = [dataclasses.asdict(pt) for pt in curve]
    offsets = [row["release_offset_ms"] for row in sample_rows]
    shares = [row["share"] for row in sample_rows]
    try:
        corr = pearson(offsets, shares)
    except ConfigurationError:
        corr = None
    payload = {
        "release_offset_vs_share": corr,
        "n_samples": len(sample_rows),
        "bucket_ms": opts["bucket_ms"],
    }
    return {
        "next_slot_share.csv": ("csv", CURVE_SCHEMA, curve_rows),
        "share_samples.csv": ("csv", SHARE_SAMPLES_SCHEMA, sample_rows),
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
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
