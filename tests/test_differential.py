"""Differential test: the vectorized engine against the scalar definitions in
``strategies`` and ``model``, entry by entry, on random small configs.

Hypothesis runs derandomized with a fixed example count and no example
database, so the drawn configs are the same on every run.
"""

from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames.engine import SimConfig, run_simulation, strategy_spec
from timinggames.model import (
    ProtocolParams,
    attester_payoff,
    canonical_status,
    min_attesters_for_margin,
)
from timinggames.strategies import AttesterContext, equilibrium_attester, honest_spec_attester

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
        st.just(strategy_spec("laggy")),
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
