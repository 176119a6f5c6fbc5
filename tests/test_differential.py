"""Differential tests: the vectorized engine, the attester deviation arms and
the next-slot share samples against the scalar definitions in ``oracles``,
entry by entry; the bulk stream seeding against ``np.random.SeedSequence``;
and the columnar bid generator and bid files against a per-bid loop and
``json.dumps``, on random small configs.

Hypothesis runs derandomized with a fixed example count and no example
database, so the drawn configs are the same on every run.
"""

import json
import os
import tempfile
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames import equilibrium
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
from timinggames.equilibrium import check_attester_deviation, replicate
from timinggames.market import (
    BID_FIELDS,
    generate_bid_stream,
    read_bids_csv,
    read_bids_jsonl,
    write_bids_csv,
    write_bids_jsonl,
)
from timinggames.metrics import next_slot_share_samples
from timinggames.model import (
    ConfigurationError,
    ProtocolParams,
    min_attesters_for_margin,
    proposer_payoff,
)
from timinggames.strategies import (
    ProposerContext,
    equilibrium_proposer,
    laggy_proposer,
)

from oracles import (
    attester_payoff,
    canonical_status,
    equilibrium_attester,
    honest_spec_attester,
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

    last_canonical_time = trace.genesis_time_us
    share_samples = []
    for n, rec in enumerate(trace.slots):
        action = rec.proposer_action
        prev = actions[n - 1] if n else None
        next_release = next_actions[n].release_time_us
        chi_next = trace.slots[n + 1].canonical if n + 1 < horizon else 1
        assert rec.proposer_payoff == proposer_payoff(
            action.release_time_us, last_canonical_time, rec.canonical, p
        ), n
        if rec.canonical:
            last_canonical_time = action.release_time_us
        vote_count = fresh_count = fresh_vote_count = payoff_total = 0
        for i in range(n_att):
            if config.attester_strategy.name == "equilibrium":
                vote, tau = equilibrium_attester(action, prev, n, inbound[n][i], p)
            else:
                vote, tau = honest_spec_attester(action.release_time_us + inbound[n][i], n, p)
            assert (votes[n][i], taus[n][i]) == (vote, tau), (n, i)
            pay = attester_payoff(
                vote, rec.canonical, tau, outbound[n][i], next_release, chi_next
            )
            assert payoffs[n][i] == pay, (n, i)
            fresh = tau + outbound[n][i] <= next_release
            vote_count += vote
            fresh_count += fresh
            fresh_vote_count += fresh and vote == 1
            payoff_total += pay
        assert rec.canonical == canonical_status(
            next_actions[n].build_on_prev, Fraction(vote_count, n_att), p.vote_threshold
        )
        assert (rec.vote_count, rec.fresh_count, rec.fresh_vote_count,
                rec.attester_payoff_total) == (
            vote_count, fresh_count, fresh_vote_count, payoff_total
        )
        if fresh_count:
            offset_ms = (action.release_time_us - p.slot_start_us(n)) / 1000.0
            share_samples.append((n, offset_ms, fresh_vote_count / fresh_count))
    assert next_slot_share_samples(trace) == share_samples

    summary = run_simulation(replace(config, record_level="summary"))
    assert summary.slots == trace.slots


@st.composite
def attester_deviation_cases(draw, orphans):
    """Arguments for ``check_attester_deviation``, and extra setup for its
    replicated runs.

    Without ``orphans`` the runs play the coordinated profile the check is
    written for. There every slot is canonical, so a flipped vote is never
    paid, whatever its release time. With ``orphans``, honest attesters vote
    for blocks released at the slot start, and the proposers of drawn slots
    do not build on their predecessor. That block is orphaned with nearly
    every vote cast, so the flip arm's abstention time decides its freshness.
    A deadline within one mean latency of the slot's end keeps vote counts far
    above the threshold, so no flip crosses it.
    """
    theta = draw(st.one_of(st.integers(1, 4), st.integers(100_000, 1_000_000)))
    slot_len = theta * draw(st.integers(5, 6))
    horizon = draw(st.integers(8, 40))
    params = ProtocolParams(
        slot_length_us=slot_len,
        mean_latency_us=theta,
        vote_threshold=draw(st.sampled_from((0.2, 0.5))),
        attestation_deadline_us=draw(st.integers(slot_len - theta, slot_len - 1)),
        attester_count=draw(st.integers(10, 40)),
        horizon_slots=horizon,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    delta_star = draw(st.integers(0, slot_len))
    shifts = draw(st.lists(st.integers(1, 2 * slot_len), min_size=1, max_size=2, unique=True))
    setup = {}
    if orphans:
        orphaning = strategy_spec("fixed", delay_us=0, build_on_prev=0)
        slots = draw(st.sets(st.integers(1, horizon - 1), min_size=1, max_size=horizon // 2))
        setup = dict(
            attester_strategy=strategy_spec("honest_spec"),
            proposer_default=strategy_spec("greedy_delay", delay_us=0),
            proposer_overrides={n: orphaning for n in slots},
        )
    return params, delta_star, shifts, setup


def scalar_attester_arms(traces, shifts):
    """Attester 0's payoff in every slot of every run: as played, with its
    vote flipped (a vote cast on arrival, an abstention at the slot start),
    and released each shift later; and whether any flip moves the canonical
    status of its slot."""
    played, flipped, shifted, crossed = [], [], {s: [] for s in shifts}, False
    for trace in traces:
        p = trace.params
        for n, rec in enumerate(trace.slots):
            last = n + 1 == len(trace.slots)
            nxt = trace.closing_action if last else trace.slots[n + 1].proposer_action
            chi_next = 1 if last else trace.slots[n + 1].canonical
            vote = int(trace.votes[n, 0])
            tau = int(trace.attestation_times_us[n, 0])
            outbound = int(trace.outbound_latencies_us[n, 0])
            arrival = rec.proposer_action.release_time_us + int(trace.inbound_latencies_us[n, 0])

            def pay(v, t):
                return attester_payoff(
                    v, rec.canonical, t, outbound, nxt.release_time_us, chi_next
                )

            flip = 1 - vote
            share = Fraction(rec.vote_count + flip - vote, p.attester_count)
            crossed |= canonical_status(nxt.build_on_prev, share, p.vote_threshold) != rec.canonical
            played.append(pay(vote, tau))
            flipped.append(pay(flip, arrival if flip else p.slot_start_us(n)))
            for s in shifts:
                shifted[s].append(pay(vote, tau + s))
    return played, flipped, shifted, crossed


@pytest.mark.parametrize("orphans", [False, True])
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_attester_deviation_arms_match_scalar_definitions(orphans, data):
    params, delta_star, shifts, setup = data.draw(attester_deviation_cases(orphans))
    traces = []

    def recorded(base, label, runs, **kw):
        traces.extend(replicate(base, label, runs, **kw, **setup))
        return iter(traces)

    with mock.patch.object(equilibrium, "replicate", recorded):
        try:
            report = check_attester_deviation(params, delta_star, 1000, shifts)
        except ConfigurationError as exc:
            assert "margin invariant violated" in str(exc)
            report = None
    played, flipped, shifted, crossed = scalar_attester_arms(traces, shifts)
    assert (report is None) == crossed
    if report is None:
        return
    # int sums divided once are correctly rounded, as the report's means are
    assert (report.baseline_samples, report.baseline_payoff) == (
        len(played), sum(played) / len(played)
    )
    arms = [("vote_flip", flipped)]
    arms += [(f"release_shift_us={s}", shifted[s]) for s in shifts]
    assert [o.descriptor for o in report.deviations] == [d for d, _ in arms]
    for outcome, (_, payoffs) in zip(report.deviations, arms):
        assert (outcome.samples, outcome.mean_payoff, outcome.exact_zero) == (
            len(payoffs), sum(payoffs) / len(payoffs), not any(payoffs)
        ), outcome.descriptor


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
            rng = RngStream(seed, derive_stream_id(role, n)).generator()
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
    """The generator one bid at a time, as ``BID_FIELDS`` row tuples: the same
    draws in the same order, then each value computed and floored per bid."""
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
                (
                    slot,
                    int(builder_ids[i]),
                    int(received[i]),
                    int(received[i] + lag[i]),
                    max(float(value), 0.0),
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
    rows = scalar_bid_stream(**config)
    assert list(zip(*(c.tolist() for c in bids.columns()))) == rows
    with tempfile.TemporaryDirectory() as tmp:
        jsonl, csv_path = os.path.join(tmp, "bids.jsonl"), os.path.join(tmp, "bids.csv")
        write_bids_jsonl(bids, jsonl)
        with open(jsonl, encoding="utf-8") as fh:
            expected = "".join(json.dumps(dict(zip(BID_FIELDS, row))) + "\n" for row in rows)
            assert fh.read() == expected
        assert read_bids_jsonl(jsonl) == bids
        write_bids_csv(bids, csv_path)
        assert read_bids_csv(csv_path) == bids
