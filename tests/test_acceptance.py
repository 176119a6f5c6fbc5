"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The stochastic checks pin
their seeds, so each criterion is deterministic end to end.
"""

import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from timinggames.cli import main
from timinggames.distributions import LatencyDistribution
from timinggames.engine import (
    HONEST_SPEC,
    SimConfig,
    derive_seed,
    run_simulation,
    strategy_spec,
)
from timinggames.equilibrium import (
    best_response_delay,
    check_attester_deviation,
    check_proposer_deviation,
    default_deviation_grid,
    sweep_delta_star,
)
from timinggames.market import (
    BidTable,
    estimate_mvot,
    generate_bid_stream,
    pooled_ols_slope,
)
from timinggames.metrics import next_slot_share_samples
from timinggames.model import ProtocolParams, min_attesters_for_margin
from timinggames.strategies import DEFAULT_SIGNING_DELAY, optimal_delay

DELTA_STAR_GRID = (0, 3_000_000, 6_000_000, 9_000_000, 12_000_000)


def report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


def erlang2_cdf(x: float) -> float:
    return 1.0 - math.exp(-x) * (1.0 + x)


def test_criterion_1_proposition_verification():
    started = time.perf_counter()
    base = ProtocolParams(
        slot_length_us=12_000_000,
        mean_latency_us=1_000_000,
        vote_threshold=0.5,
        base_reward=0.04,
        mev_rate=0.0065,
        attester_count=1000,
        horizon_slots=12,
        seed=10_001,
    )
    target = erlang2_cdf(12.0)
    expected_baseline = 0.04 + 0.0065 * 12.0

    for ds in DELTA_STAR_GRID:
        grid = default_deviation_grid(base, ds, 50)
        prop = check_proposer_deviation(base, ds, grid)
        assert len(prop.deviations) == 50
        assert prop.baseline_payoff == expected_baseline
        assert abs(prop.baseline_payoff - 0.118) < 1e-15
        assert all(o.mean_payoff == 0.0 and o.exact_zero for o in prop.deviations)
        assert prop.all_unprofitable

        att_params = replace(base, horizon_slots=50)
        att = check_attester_deviation(att_params, ds, mc_samples=5000)
        flip = att.deviations[0]
        assert flip.descriptor == "vote_flip"
        assert flip.mean_payoff == 0.0 and flip.exact_zero
        # standard error of the estimator under the oracle value
        se = math.sqrt(target * (1 - target) / att.baseline_samples)
        assert abs(att.baseline_payoff - target) <= 3 * se, (
            f"offset {ds}: {att.baseline_payoff} vs {target}"
        )
        assert att.all_unprofitable

    elapsed = time.perf_counter() - started
    report(
        1,
        "coordinated profile survives 50-point proposer grids and attester "
        "deviations at every schedule offset",
        elapsed < 120.0,
        f"baseline 0.118 exact, flip exactly 0, runtime {elapsed:.1f}s",
    )


def test_criterion_2_offset_invariance():
    p = ProtocolParams(attester_count=1000, horizon_slots=50, seed=10_002)
    rows = sweep_delta_star(p, DELTA_STAR_GRID)
    payoffs = {r.proposer_payoff for r in rows}
    proposer_ok = payoffs == {0.118} and all(r.all_canonical for r in rows)
    # pairwise comparison under the pooled estimate, so a row that happened to
    # see zero stale attestations still gets a meaningful standard error
    n = p.horizon_slots * p.attester_count
    pooled = float(np.mean([r.attester_payoff_mean for r in rows]))
    se = math.sqrt(pooled * (1 - pooled) / n)
    attester_ok = all(
        abs(a.attester_payoff_mean - b.attester_payoff_mean) <= 3 * math.hypot(se, se)
        for a in rows
        for b in rows
    )
    report(
        2,
        "proposer payoff exactly constant across the offset grid; attester "
        "payoff offset-invariant within 3 SE",
        proposer_ok and attester_ok,
        f"payoff column {sorted(payoffs)}",
    )


def test_criterion_3_attestation_share_oracle():
    offsets_s = (0.0, 1.0, 2.0, 3.0, 3.9)
    runs = 100
    worst = 0.0
    for d_s in offsets_s:
        d_us = int(d_s * 1e6)
        shares = []
        for r in range(runs):
            p = ProtocolParams(
                attester_count=1000,
                horizon_slots=12,
                seed=derive_seed(10_003, f"share|{d_us}", r),
            )
            cfg = SimConfig(
                params=p,
                proposer_default=strategy_spec("greedy_delay", delay_us=d_us),
                attester_strategy=HONEST_SPEC,
            )
            trace = run_simulation(cfg)
            shares.extend(next_slot_share_samples(trace)[2].tolist())
        expected = 1.0 - math.exp(-(4.0 - d_s) / 1.0)
        worst = max(worst, abs(float(np.mean(shares)) - expected))
    report(
        3,
        "next-slot share matches the exponential-tail oracle at five release "
        "offsets within 0.02",
        worst <= 0.02,
        f"worst absolute gap {worst:.4f} over {runs} runs per offset",
    )


def test_criterion_4_best_response_oracle():
    step = 50_000
    ok_argmax = True
    ok_pointwise = True
    details = []
    for gamma in (0.5, 2 / 3):
        p = ProtocolParams(
            vote_threshold=gamma,
            attester_count=10_000,
            seed=10_004 + int(gamma * 100),
        )
        d_star = optimal_delay(p)
        grid = list(range(d_star - 6 * step, d_star + 3 * step + 1, step))
        runs = 48
        curve = best_response_delay(p, grid, runs)
        if abs(curve.argmax_delay_us - d_star) > step:
            ok_argmax = False
        # exact binomial-tail oracle, pointwise within 3 SE
        threshold_count = math.ceil(Fraction(gamma) * p.attester_count)
        for d, mc_mean in zip(curve.delays_us, curve.expected_payoffs):
            left = p.attestation_deadline_us - d
            p_vote = 1.0 - math.exp(-left / p.mean_latency_us) if left >= 0 else 0.0
            tail = float(binom.sf(threshold_count - 1, p.attester_count, p_vote))
            value = p.base_reward + p.mev_rate * ((p.slot_length_us + d) / 1e6)
            exact = value * tail
            se = value * math.sqrt(max(tail * (1 - tail), 0.0) / runs)
            if abs(mc_mean - exact) > 3 * se + 1e-9:
                ok_pointwise = False
        details.append(f"gamma={gamma:.3f}: argmax {curve.argmax_delay_us} vs {d_star}")
    report(
        4,
        "best-response argmax within one 50 ms grid step of the closed form; "
        "MC curve within 3 SE of the exact binomial tail",
        ok_argmax and ok_pointwise,
        "; ".join(details),
    )


def test_criterion_5_freshness_oracle():
    results = []
    for ratio, target in ((2, 0.5940), (4, 0.9084)):
        p = ProtocolParams(
            slot_length_us=12_000_000,
            mean_latency_us=12_000_000 // ratio,
            attester_count=1000,
            horizon_slots=100,
            seed=10_005 + ratio,
        )
        trace = run_simulation(SimConfig(params=p))
        n = p.horizon_slots * p.attester_count
        mean = int(trace.attester_payoff_total.sum()) / n
        results.append((ratio, mean, target, abs(mean - target) <= 0.01))
    report(
        5,
        "mean attester payoff matches the two-leg latency oracle at slot/"
        "latency ratios 2 and 4 within 0.01 over 100k samples",
        all(ok for *_, ok in results),
        "; ".join(f"ratio {r}: {m:.4f} vs {t}" for r, m, t, _ in results),
    )


def test_criterion_6_mev_conservation():
    rng = random.Random(10_006)
    checked = 0
    for _ in range(100):
        gamma = rng.choice((0.3, 0.5, 2 / 3, 0.9, 1.0))
        n_min = 1 if gamma == 1.0 else min_attesters_for_margin(gamma)
        theta = rng.randrange(100_000, 1_000_000)
        slot_len = theta * rng.randrange(2, 6)
        horizon = rng.randrange(3, 14)
        params = ProtocolParams(
            slot_length_us=slot_len,
            schedule_offset_us=rng.randrange(0, slot_len + 1),
            mean_latency_us=theta,
            vote_threshold=gamma,
            attestation_deadline_us=rng.randrange(0, slot_len),
            attester_count=n_min + rng.randrange(0, 30),
            horizon_slots=horizon,
            seed=rng.randrange(2**32),
        )
        overrides = {}
        for slot in range(horizon):
            if rng.random() < 0.5:
                overrides[slot] = rng.choice(
                    [
                        strategy_spec("greedy_delay", delay_us=rng.randrange(0, slot_len)),
                        strategy_spec(
                            "fixed",
                            delay_us=rng.randrange(0, slot_len + 1),
                            build_on_prev=rng.choice((0, 1)),
                        ),
                        # signing delays well inside the slot: a release after
                        # the next slot's start is an error
                        strategy_spec(
                            "laggy",
                            signing_delay={"family": "lognormal", "median": slot_len / 8000},
                        ),
                    ]
                )
        cfg = SimConfig(
            params=params,
            proposer_overrides=overrides,
            attester_strategy=rng.choice(
                [strategy_spec("equilibrium"), strategy_spec("honest_spec")]
            ),
        )
        trace = run_simulation(cfg)
        # the MEV paid to canonical proposers is what the chain's span accrues
        mev, last = 0.0, trace.genesis_time_us
        for chi, pay, release in zip(
            trace.canonical.tolist(),
            trace.proposer_payoff.tolist(),
            trace.release_time_us.tolist(),
        ):
            if chi:
                mev += pay - params.base_reward
                last = release
        accrued = params.mev_rate * (last - trace.genesis_time_us) / 1e6
        assert math.isclose(mev, accrued, rel_tol=1e-9, abs_tol=1e-12)
        checked += 1
    report(
        6,
        "canonical proposers' MEV equals mev_rate times the chain span (rel 1e-9) "
        "on 100 random configs with forced deviations and skips",
        checked == 100,
        f"{checked} configs",
    )


def test_criterion_7_mvot_recovery():
    mu = 0.0065
    baseline_dist = LatencyDistribution.lognormal(median=0.3, sigma=0.2)

    noiseless = generate_bid_stream(
        n_slots=1000,
        bids_per_slot=800,
        mu_eth_per_s=mu,
        slot_effect_dist=baseline_dist,
        noise_sd_eth=0.0,
        rng=10_007,
    )
    exact = estimate_mvot(noiseless)
    exact_ok = abs(exact.slope_eth_per_s - mu) / mu <= 1e-12

    noisy = generate_bid_stream(
        n_slots=1000,
        bids_per_slot=800,
        mu_eth_per_s=mu,
        slot_effect_dist=baseline_dist,
        noise_sd_eth=0.01,
        rng=10_017,
    )
    noisy_report = estimate_mvot(noisy)
    noisy_ok = abs(noisy_report.slope_eth_per_s - mu) / mu <= 0.05

    # slot baselines proportional to per-slot mean timestamps: pooled OLS is
    # biased, the within estimator is not
    centers_ms = np.linspace(-2500, 500, 40)
    offsets_ms = np.linspace(-400, 400, 50)
    slot = np.repeat(np.arange(40), 50)
    t_ms = centers_ms[slot] + np.tile(offsets_ms, 40)
    received = np.round(t_ms).astype(np.int64)
    correlated = BidTable(
        slot=slot,
        builder_id=np.tile(np.arange(50), 40),
        received_at_ms=received,
        eligible_at_ms=received,
        value_eth=(1.0 + 0.05 * centers_ms[slot] / 1000.0) + mu * (t_ms / 1000.0),
    )
    fe_bias = abs(estimate_mvot(correlated).slope_eth_per_s - mu)
    pooled_bias = abs(pooled_ols_slope(correlated) - mu)
    bias_ok = pooled_bias > 10 * fe_bias

    report(
        7,
        "planted 0.0065 ETH/s slope recovered exactly without noise, within "
        "5% with 0.01 ETH noise; pooled OLS bias exceeds the within estimator's",
        exact_ok and noisy_ok and bias_ok,
        f"noiseless rel err {abs(exact.slope_eth_per_s - mu) / mu:.2e}, "
        f"noisy rel err {abs(noisy_report.slope_eth_per_s - mu) / mu:.2%}, "
        f"pooled bias {pooled_bias:.2e} vs FE bias {fe_bias:.2e}",
    )


def test_criterion_8_determinism(tmp_path):
    commands = {
        "simulate": {},
        "sweep": {},
        "check-equilibrium": {
            "deviation_points": 6,
            "mc_samples": 1000,
            "delta_star_grid_us": [0, 6_000_000],
        },
        "best-response": {"delay_grid_us": [3_250_000, 3_300_000], "runs_per_point": 4},
        "mvot": {"n_slots": 8, "bids_per_slot": 40, "save_bids": True},
        "curves": {"delay_grid_us": [0, 2_000_000], "runs": 2, "horizon": 4},
    }
    all_ok = True
    for command, options in commands.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "params": {"attester_count": 10, "horizon_slots": 5, "seed": 10_008},
                    "options": options,
                }
            )
        )
        dirs = [tmp_path / f"{command}-a", tmp_path / f"{command}-b"]
        for d in dirs:
            assert main([command, "--config", str(cfg_path), "--out", str(d)]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        if names != sorted(p.name for p in dirs[1].iterdir()):
            all_ok = False
            continue
        for name in names:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                all_ok = False
    report(
        8,
        "every subcommand writes byte-identical outputs on repeated runs of "
        "the same effective config",
        all_ok,
        f"{len(commands)} subcommands",
    )


def test_criterion_9_signing_latency_calibration():
    rng = np.random.default_rng(10_009)
    samples = DEFAULT_SIGNING_DELAY.sample(rng, size=100_000)
    med = float(np.median(samples))
    ok = abs(med - 418.0) / 418.0 <= 0.02
    report(
        9,
        "default signing-delay median within 2% of 418 ms over 100k samples",
        ok,
        f"median {med:.1f} ms",
    )
