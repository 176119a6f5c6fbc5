"""Differential tests: the vectorized engine against the scalar definitions in
``strategies`` and ``model``, entry by entry; the bulk stream seeding against
``np.random.SeedSequence``; and the columnar bid generator and bid files
against a per-bid loop and ``json.dumps``, on random small configs.

Hypothesis runs derandomized with a fixed example count and no example
database, so the drawn configs are the same on every run.
"""

import json
import os
import tempfile
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames.distributions import LatencyDistribution
from timinggames.engine import (
    ROLE_INBOUND,
    ROLE_OUTBOUND,
    ROLE_PROPOSER,
    RngStream,
    SimConfig,
    derive_stream_id,
    run_simulation,
    sample_latency_array,
    seed_states,
    strategy_spec,
)
from timinggames.market import (
    BidRecord,
    generate_bid_stream,
    read_bids_csv,
    read_bids_jsonl,
    write_bids_csv,
    write_bids_jsonl,
)
from timinggames.model import (
    ProtocolParams,
    attester_payoff,
    canonical_status,
    min_attesters_for_margin,
)
from timinggames.strategies import (
    AttesterContext,
    ProposerContext,
    equilibrium_attester,
    equilibrium_proposer,
    honest_spec_attester,
    laggy_proposer,
)

THRESHOLDS = (0.2, 0.5, 2 / 3, 0.9, 1.0)


@st.composite
def small_configs(draw):
    gamma = draw(st.sampled_from(THRESHOLDS))
    n_min = 1 if gamma == 1.0 else min_attesters_for_margin(gamma)
    # microsecond-scale latencies make ties at the inclusive deadline and
    # freshness boundaries common; realistic ones cover the usual regime
    theta = draw(st.one_of(st.integers(1, 4), st.integers(100_000, 1_000_000)))
    slot_len = theta * draw(st.integers(2, 5))
    horizon = draw(st.integers(1, 6))
    offset = draw(st.integers(0, slot_len))
    params = ProtocolParams(
        slot_length_us=slot_len,
        schedule_offset_us=offset,
        mean_latency_us=theta,
        vote_threshold=gamma,
        attestation_deadline_us=draw(st.integers(0, slot_len - 1)),
        attester_count=draw(st.integers(n_min, 40)),
        horizon_slots=horizon,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    # delays inside the slot, with the coordinated offset itself drawn often
    # enough that overrides also produce conforming (voted-for) blocks
    delays = st.one_of(st.integers(0, slot_len - 1), st.just(min(offset, slot_len - 1)))
    override = st.one_of(
        st.builds(lambda d: strategy_spec("greedy_delay", delay_us=d), delays),
        st.builds(
            lambda d, b: strategy_spec("fixed", delay_us=d, build_on_prev=b),
            delays,
            st.integers(0, 1),
        ),
        # signing delays well inside the slot: a release after the next
        # slot's start is an error
        st.just(
            strategy_spec(
                "laggy", signing_delay={"family": "lognormal", "median": slot_len / 8000}
            )
        ),
    )
    overrides = draw(st.dictionaries(st.integers(0, horizon - 1), override))
    attester = draw(st.sampled_from(("equilibrium", "honest_spec")))
    return SimConfig(
        params=params,
        proposer_overrides=overrides,
        attester_strategy=strategy_spec(attester),
        record_level="full",
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(small_configs())
def test_full_trace_matches_scalar_definitions(config):
    trace = run_simulation(config)
    p = config.params
    horizon, n_att = p.horizon_slots, p.attester_count
    votes = trace.votes.tolist()
    taus = trace.attestation_times_us.tolist()
    inbound = trace.inbound_latencies_us.tolist()
    outbound = trace.outbound_latencies_us.tolist()
    payoffs = trace.attester_payoffs.tolist()
    actions = [rec.proposer_action for rec in trace.slots]
    next_actions = actions[1:] + [trace.closing_action]

    for n, rec in enumerate(trace.slots):
        action = rec.proposer_action
        prev = actions[n - 1] if n else None
        next_release = next_actions[n].release_time_us
        chi_next = trace.slots[n + 1].canonical if n + 1 < horizon else 1
        vote_count = fresh_count = fresh_vote_count = payoff_total = 0
        for i in range(n_att):
            ctx = AttesterContext(n, action, inbound[n][i], prev, p)
            if config.attester_strategy.name == "equilibrium":
                act = equilibrium_attester(ctx)
            else:
                act = honest_spec_attester(action.release_time_us + inbound[n][i], ctx)
            assert (votes[n][i], taus[n][i]) == (act.vote, act.release_time_us), (n, i)
            pay = attester_payoff(
                act.vote, rec.canonical, act.release_time_us, outbound[n][i],
                next_release, chi_next,
            )
            assert payoffs[n][i] == pay, (n, i)
            fresh = act.release_time_us + outbound[n][i] <= next_release
            vote_count += act.vote
            fresh_count += fresh
            fresh_vote_count += fresh and act.vote == 1
            payoff_total += pay
        assert rec.canonical == canonical_status(
            next_actions[n].build_on_prev, Fraction(vote_count, n_att), p.vote_threshold
        )
        assert (rec.vote_count, rec.fresh_count, rec.fresh_vote_count,
                rec.attester_payoff_total) == (
            vote_count, fresh_count, fresh_vote_count, payoff_total
        )

    summary = run_simulation(replace(config, record_level="summary"))
    assert summary.slots == trace.slots


def seed_sequence_rng(seed, stream_id):
    """The per-stream generator as numpy builds it, the oracle for the bulk
    seed derivation."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream_id]))


# one- and two-word seeds: 0, below 2**32, from 2**32 up, and the largest
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(SEEDS, st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_bulk_seed_states_match_seed_sequence(seed, stream_ids):
    states = seed_states(seed, stream_ids)
    assert states.shape == (len(stream_ids), 4)
    for k, stream_id in enumerate(stream_ids):
        expected = np.random.SeedSequence([seed, stream_id]).generate_state(4, np.uint64)
        assert np.array_equal(states[k], expected), (seed, stream_id)
    single = RngStream(seed, stream_ids[0]).generator().random(3)
    assert np.array_equal(single, seed_sequence_rng(seed, stream_ids[0]).random(3))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(small_configs(), SEEDS)
def test_trace_latencies_match_per_slot_streams(config, seed):
    config = replace(config, params=replace(config.params, seed=seed))
    trace = run_simulation(config)
    p = config.params
    for role, plane in (
        (ROLE_INBOUND, trace.inbound_latencies_us),
        (ROLE_OUTBOUND, trace.outbound_latencies_us),
    ):
        for n in range(p.horizon_slots):
            rng = RngStream.for_entity(seed, role, n).generator()
            row = sample_latency_array(rng, p.mean_latency_us, p.attester_count)
            assert np.array_equal(plane[n], row), (role, n)
            oracle = sample_latency_array(
                seed_sequence_rng(seed, derive_stream_id(role, n)),
                p.mean_latency_us,
                p.attester_count,
            )
            assert np.array_equal(plane[n], oracle), (role, n)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    SEEDS,
    st.integers(1, 8),
    st.data(),
)
def test_laggy_release_times_unchanged(seed, horizon, data):
    # laggy by default, with some slots overridden by strategies that draw
    # nothing, so the proposer streams of the drawing slots are checked
    # against their slot index
    params = ProtocolParams(attester_count=10, horizon_slots=horizon, seed=seed)
    steady = data.draw(st.sets(st.integers(0, horizon - 1)))
    config = SimConfig(
        params=params,
        proposer_default=strategy_spec("laggy"),
        proposer_overrides={n: strategy_spec("equilibrium") for n in steady},
    )
    trace = run_simulation(config)
    dist = LatencyDistribution.lognormal(418.0, 0.5)
    prev = None
    for n, rec in enumerate(trace.slots):
        ctx = ProposerContext(n, prev, params)
        if n in steady:
            expected = equilibrium_proposer(ctx)
        else:
            rng = seed_sequence_rng(seed, derive_stream_id(ROLE_PROPOSER, n))
            expected = laggy_proposer(dist, ctx, rng)
        assert rec.proposer_action == expected, n
        prev = rec.proposer_action


def scalar_bid_stream(
    n_slots, bids_per_slot, mu_eth_per_s, slot_effect_dist, noise_sd_eth,
    arrival_window_ms, rng, arrival_profile, n_builders,
):
    """The generator as one ``BidRecord`` per bid: the same draws in the same
    order, then each value computed and floored one bid at a time."""
    lo, hi = arrival_window_ms
    validation = LatencyDistribution.exponential(100.0)
    gen = np.random.default_rng(rng)
    bids = []
    for slot in range(n_slots):
        baseline = float(slot_effect_dist.sample(gen))
        if arrival_profile == "uniform":
            received = gen.uniform(lo, hi, size=bids_per_slot)
        else:
            received = gen.triangular(lo, hi, hi, size=bids_per_slot)
        received = np.floor(received + 0.5).astype(np.int64)
        lag = np.floor(validation.sample(gen, size=bids_per_slot) + 0.5).astype(np.int64)
        noise = (
            gen.normal(0.0, noise_sd_eth, size=bids_per_slot)
            if noise_sd_eth > 0
            else np.zeros(bids_per_slot)
        )
        builder_ids = gen.integers(0, n_builders, size=bids_per_slot)
        order = np.argsort(received, kind="stable")
        for i in order:
            value = baseline + mu_eth_per_s * (received[i] / 1000.0) + noise[i]
            bids.append(
                BidRecord(
                    slot=slot,
                    builder_id=int(builder_ids[i]),
                    received_at_ms=int(received[i]),
                    eligible_at_ms=int(received[i] + lag[i]),
                    value_eth=max(float(value), 0.0),
                )
            )
    return bids


#: A zero baseline puts every early bid below zero, so the floor is exercised.
BASELINES = (
    LatencyDistribution.degenerate(0.0),
    LatencyDistribution.degenerate(0.1),
    LatencyDistribution.lognormal(median=0.3, sigma=0.2),
)


@st.composite
def bid_configs(draw):
    lo = draw(st.integers(-5000, 0))
    return dict(
        n_slots=draw(st.integers(1, 5)),
        bids_per_slot=draw(st.integers(1, 50)),
        mu_eth_per_s=draw(st.sampled_from((0.0, 0.0065, 0.5))),
        slot_effect_dist=draw(st.sampled_from(BASELINES)),
        noise_sd_eth=draw(st.sampled_from((0.0, 0.01, 0.2))),
        arrival_window_ms=(lo, lo + draw(st.integers(1, 6000))),
        rng=draw(st.integers(0, 2**32 - 1)),
        arrival_profile=draw(st.sampled_from(("uniform", "triangular"))),
        n_builders=draw(st.integers(1, 40)),
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(bid_configs())
def test_bid_stream_and_files_match_per_bid_definitions(config):
    bids = generate_bid_stream(**config)
    records = scalar_bid_stream(**config)
    assert list(bids) == records
    with tempfile.TemporaryDirectory() as tmp:
        jsonl, csv_path = os.path.join(tmp, "bids.jsonl"), os.path.join(tmp, "bids.csv")
        write_bids_jsonl(bids, jsonl)
        with open(jsonl, encoding="utf-8") as fh:
            assert fh.read() == "".join(json.dumps(asdict(r)) + "\n" for r in records)
        assert read_bids_jsonl(jsonl) == bids
        write_bids_csv(bids, csv_path)
        assert read_bids_csv(csv_path) == bids
