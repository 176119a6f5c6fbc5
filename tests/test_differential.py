"""Differential tests: the vectorized engine, the slot resolution pass, the
attester deviation arms and the next-slot share samples against the scalar
definitions in ``oracles``, entry by entry; the latency-free proposer
deviation check and the staged best-response curve against full-committee
runs, and its chunked draws against single-seed passes; the bulk and
many-seed stream seeding against ``np.random.SeedSequence``, and the
closed-form first draw of a stream against its ``Generator``; the columnar bid
generator and bid files against a per-bid loop and ``json.dumps``, on random
small configs; and the chunked bid file readers, which hold typed column
segments, against per-line and per-row ones that keep every raw value, on
random, often malformed, JSONL and CSV bid files and on chunks that fail one
check of the JSONL fast path each.

Hypothesis runs derandomized with a fixed example count and no example
database, so the drawn configs are the same on every run.
"""

import json
import math
import os
import tempfile
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames import engine, equilibrium, market
from timinggames.distributions import LatencyDistribution
from timinggames.engine import (
    HONEST_SPEC,
    ROLE_INBOUND,
    ROLE_OUTBOUND,
    ROLE_PROPOSER,
    AttesterDetail,
    RngStream,
    SimConfig,
    attester_detail,
    derive_stream_id,
    proposer_pass,
    run_simulation,
    sample_latency_array,
    seed_states,
    strategy_spec,
)
from timinggames.equilibrium import (
    ResponseCurve,
    best_response_delay,
    check_attester_deviation,
    check_proposer_deviation,
    replicate,
)
from timinggames.market import (
    BID_FIELDS,
    generate_bid_stream,
    read_bids_csv,
    read_bids_jsonl,
    write_bids_jsonl,
)
from timinggames.metrics import next_slot_share_samples
from timinggames.model import (
    ConfigurationError,
    ProtocolParams,
    min_attesters_for_margin,
)

from helpers import batch_rows, detail_rows, same_detail, write_bids_csv
from oracles import (
    ProposerAction,
    attester_payoff,
    canonical_status,
    equilibrium_attester,
    equilibrium_proposer,
    fixed_action_proposer,
    honest_spec_attester,
    laggy_proposer,
    mean_se,
    proposer_payoff,
    read_bids_csv_by_row,
    read_bids_jsonl_by_line,
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
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(small_configs())
def test_full_trace_matches_scalar_definitions(config):
    detail = attester_detail(config)
    trace = detail.trace
    p = config.params
    horizon, n_att = p.horizon_slots, p.attester_count
    votes = detail.votes.tolist()
    taus = detail.attestation_times_us.tolist()
    inbound = detail.inbound_latencies_us.tolist()
    outbound = detail.outbound_latencies_us.tolist()
    payoffs = detail.attester_payoffs.tolist()
    actions = [trace_action(trace, n) for n in range(horizon)]
    next_actions = actions[1:] + [trace_action(trace, horizon)]
    canonical = trace.canonical.tolist()

    last_canonical_time = p.genesis_time_us
    share_samples = []
    for n, action in enumerate(actions):
        prev = actions[n - 1] if n else None
        next_release = next_actions[n].release_time_us
        chi = canonical[n]
        chi_next = canonical[n + 1] if n + 1 < horizon else 1
        assert trace.proposer_payoff[n] == proposer_payoff(
            action.release_time_us, last_canonical_time, chi, p
        ), n
        if chi:
            last_canonical_time = action.release_time_us
        vote_count = fresh_count = fresh_vote_count = payoff_total = 0
        for i in range(n_att):
            if config.attester_strategy.name == "equilibrium":
                vote, tau = equilibrium_attester(action, prev, n, inbound[n][i], p)
            else:
                vote, tau = honest_spec_attester(action.release_time_us + inbound[n][i], n, p)
            assert (votes[n][i], taus[n][i]) == (vote, tau), (n, i)
            pay = attester_payoff(vote, chi, tau, outbound[n][i], next_release, chi_next)
            assert payoffs[n][i] == pay, (n, i)
            fresh = tau + outbound[n][i] <= next_release
            vote_count += vote
            fresh_count += fresh
            fresh_vote_count += fresh and vote == 1
            payoff_total += pay
        assert chi == canonical_status(
            next_actions[n].build_on_prev, Fraction(vote_count, n_att), p.vote_threshold
        )
        assert (trace.vote_count[n], trace.fresh_count[n], trace.fresh_vote_count[n],
                trace.attester_payoff_total[n]) == (
            vote_count, fresh_count, fresh_vote_count, payoff_total
        )
        if fresh_count:
            offset_ms = (action.release_time_us - p.slot_start_us(n)) / 1000.0
            share_samples.append((n, offset_ms, fresh_vote_count / fresh_count))
    slots, offsets_ms, shares = (column.tolist() for column in next_slot_share_samples(trace))
    assert list(zip(slots, offsets_ms, shares)) == share_samples

    assert trace == run_simulation(config)


def trace_action(trace, n):
    """The action of slot ``n``'s proposer, as the trace records it; slot
    ``horizon`` is the closing proposer, who releases on schedule."""
    p = trace.params
    if n == p.horizon_slots:
        return ProposerAction(int(trace.closing_build), p.schedule_time_us(n))
    return ProposerAction(int(trace.build_on_prev[n]), int(trace.release_time_us[n]))


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
    shift = draw(st.integers(1, 2 * slot_len))
    setup = {}
    if orphans:
        orphaning = strategy_spec("fixed", delay_us=0, build_on_prev=0)
        slots = draw(st.sets(st.integers(1, horizon - 1), min_size=1, max_size=horizon // 2))
        setup = dict(
            attester_strategy=strategy_spec("honest_spec"),
            proposer_default=strategy_spec("greedy_delay", delay_us=0),
            proposer_overrides={n: orphaning for n in slots},
        )
    return params, delta_star, shift, setup


def scalar_attester_arms(details, shift):
    """Attester 0's payoff in every slot of every run: as played, with its
    vote flipped (a vote cast on arrival, an abstention at the slot start),
    and released ``shift`` later; and whether any flip moves the canonical
    status of its slot."""
    played, flipped, shifted, crossed = [], [], [], False
    for detail in details:
        trace = detail.trace
        p = trace.params
        horizon = p.horizon_slots
        for n in range(horizon):
            last = n + 1 == horizon
            nxt = trace_action(trace, n + 1)
            chi = int(trace.canonical[n])
            chi_next = 1 if last else int(trace.canonical[n + 1])
            vote = int(detail.votes[n, 0])
            tau = int(detail.attestation_times_us[n, 0])
            outbound = int(detail.outbound_latencies_us[n, 0])
            arrival = int(trace.release_time_us[n]) + int(detail.inbound_latencies_us[n, 0])

            def pay(v, t):
                return attester_payoff(v, chi, t, outbound, nxt.release_time_us, chi_next)

            flip = 1 - vote
            share = Fraction(int(trace.vote_count[n]) + flip - vote, p.attester_count)
            crossed |= canonical_status(nxt.build_on_prev, share, p.vote_threshold) != chi
            played.append(pay(vote, tau))
            flipped.append(pay(flip, arrival if flip else p.slot_start_us(n)))
            shifted.append(pay(vote, tau + shift))
    return played, flipped, shifted, crossed


def detail_column(detail, name):
    """A per-attester array of ``detail``, or a column of its trace."""
    return getattr(detail if name in AttesterDetail._fields else detail.trace, name)


def staged_arms(details, config, shift):
    """The attester check's arm code (``equilibrium._attester_arms``) on
    attester 0 of the per-attester details of ``config``'s runs, stacked run
    by run: its payoffs as played, then each deviation arm, as (descriptor,
    payoffs) pairs of lists."""
    def stacked(name, watched=slice(None)):
        return np.array([detail_column(detail, name)[..., watched] for detail in details])

    release, build = proposer_pass(config)
    # the setups draw no release, so the runs share their proposer columns
    horizon = config.params.horizon_slots
    assert (stacked("release_time_us") == release[:horizon]).all()
    assert (stacked("build_on_prev") == build[:horizon]).all()
    assert all(trace_action(d.trace, horizon) == (build[-1], release[-1]) for d in details)
    played, arms = equilibrium._attester_arms(
        release, build, stacked("vote_count"), stacked("canonical"),
        stacked("votes", 0), stacked("attestation_times_us", 0),
        stacked("inbound_latencies_us", 0), stacked("outbound_latencies_us", 0),
        config.params, shift,
    )
    return [("played", played)] + arms


def assert_staged_rows_match(args, details):
    """The columns the attester check hands ``_attester_arms`` (``args``)
    against each run's per-attester detail: the shared proposer columns, vote counts,
    canonical flags and watched vote, and run ``r``'s row of the watched
    attester's attestation times and latencies, attester 0's in every run."""
    release, build, vote_count, chi, vote, tau, inbound, outbound = args[:8]
    staged = {
        "release_time_us": release[:-1], "build_on_prev": build[:-1],
        "vote_count": vote_count, "canonical": chi,
    }
    watched = {
        "votes": np.broadcast_to(vote, tau.shape), "attestation_times_us": tau,
        "inbound_latencies_us": inbound, "outbound_latencies_us": outbound,
    }
    assert len(tau) == len(details)
    for r, detail in enumerate(details):
        for name, column in staged.items():
            assert np.array_equal(column, getattr(detail.trace, name)), (r, name)
        for name, rows in watched.items():
            assert np.array_equal(rows[r], getattr(detail, name)[:, 0]), (r, name)


@pytest.mark.parametrize("orphans", [False, True])
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_attester_deviation_arms_match_scalar_definitions(orphans, data):
    """Without orphans, the check itself against the scalar arms of the runs
    it stands for (its seeds, each run's ``attester_detail``), and the columns
    it hands its arm code against attester 0's of every run. In those
    coordinated runs every slot conforms, so the payoffs read only the sum of
    the two latencies, and a swap of the roles shows in the staged rows
    alone. The check's own coordinated runs have no orphaned block, so with
    orphans its arm code runs on the details of that setup's runs, payoff by
    payoff."""
    params, delta_star, shift, setup = data.draw(attester_deviation_cases(orphans))
    base = replace(params, schedule_offset_us=delta_star)
    runs = math.ceil(1000 / base.horizon_slots)
    config = SimConfig(params=base, **setup)
    seeds = equilibrium._run_seeds(base, "attester-deviation", runs)
    details = detail_rows(attester_detail(config, seeds))
    played, flipped, shifted, crossed = scalar_attester_arms(details, shift)
    arms = [("played", played), ("vote_flip", flipped), (f"release_shift_us={shift}", shifted)]
    try:
        if orphans:
            staged = staged_arms(details, config, shift)
        else:
            arm_code = equilibrium._attester_arms
            with mock.patch.object(equilibrium, "_attester_arms", wraps=arm_code) as spy:
                report = check_attester_deviation(params, delta_star, 1000, shift)
            assert_staged_rows_match(spy.call_args.args, details)
    except ConfigurationError as exc:
        assert "margin invariant violated" in str(exc)
        assert crossed
        return
    assert not crossed
    if orphans:
        assert [(d, a.ravel().tolist()) for d, a in staged] == arms
        return
    # int sums divided once are correctly rounded, as the report's means are
    assert (report.baseline_samples, report.baseline_payoff) == (
        len(played), sum(played) / len(played)
    )
    assert [o.descriptor for o in report.deviations] == [d for d, _ in arms[1:]]
    for outcome, (_, payoffs) in zip(report.deviations, arms[1:]):
        assert (outcome.samples, outcome.mean_payoff, outcome.exact_zero) == (
            len(payoffs), sum(payoffs) / len(payoffs), not any(payoffs)
        ), outcome.descriptor


def spy_latency_pass(monkeypatch, streams_per_run):
    """Record each chunk that ``latency_pass`` samples, as its run count
    ``(runs,)``, and each block of chunks whose seed states it hashes, as the
    shape of the block's seeds; every run of a pass has ``streams_per_run``
    streams."""
    chunks, blocks = [], []
    sample, generator = engine.sample_latency_array, engine.RngStream.generator

    def chunk_spy(rng, theta_us, size):
        chunks.append((size[0] // streams_per_run,))
        return sample(rng, theta_us, size)

    def block_spy(stream):
        blocks.append(np.shape(stream.seed))
        return generator(stream)

    monkeypatch.setattr(engine, "sample_latency_array", chunk_spy)
    monkeypatch.setattr(engine.RngStream, "generator", block_spy)
    return chunks, blocks


def test_chunked_attester_draws_match_one_chunk(monkeypatch):
    """Chunks of three runs' streams, the last one partial, give the check
    the draws of one chunk."""
    params = ProtocolParams(attester_count=30, horizon_slots=9, seed=77)
    whole = check_attester_deviation(params, 2_000_000, 1000)
    monkeypatch.setattr(engine, "_MAX_BATCH_DRAWS", 3 * 2 * 9 + 1)
    calls, blocks = spy_latency_pass(monkeypatch, 2 * 9)
    assert check_attester_deviation(params, 2_000_000, 1000) == whole
    # 112 runs: the summary run 0 alone, then 37 chunks of three and one of one
    assert calls == [(1,)] + [(3,)] * 37 + [(1,)]
    # a block holds at most 55 // 32 = 1 stream, so each chunk is its own block
    assert blocks == calls


@st.composite
def resolution_cases(draw):
    """Arguments for ``engine.resolve_slots``: the ``(runs, horizon + 1)``
    proposer columns of 1..4 runs over a horizon of 1..12 slots and the
    closing proposer, each release inside its slot (up to the next slot's
    start) and often on schedule, random build flags, the closing
    proposer's too, any threshold, random rewards, and vote counts shaped
    ``(runs, S)`` for ``S`` up to the horizon, drawn often at the threshold
    and one vote either side of it."""
    gamma = draw(st.sampled_from(THRESHOLDS))
    n_min = 1 if gamma == 1.0 else min_attesters_for_margin(gamma)
    slot_len = draw(st.integers(2, 13_000_000))
    horizon = draw(st.integers(1, 12))
    params = ProtocolParams(
        slot_length_us=slot_len,
        schedule_offset_us=draw(st.integers(0, slot_len)),
        mean_latency_us=1,
        vote_threshold=gamma,
        base_reward=draw(st.floats(1e-3, 10)),
        mev_rate=draw(st.floats(1e-6, 100)),
        attester_count=draw(st.integers(n_min, 40)),
        horizon_slots=horizon,
    )
    n_slots, runs = draw(st.integers(1, horizon)), draw(st.integers(1, 4))
    delays = st.one_of(st.integers(0, slot_len), st.just(params.schedule_offset_us))
    release = np.array(
        [[n * slot_len + draw(delays) for n in range(horizon + 1)] for _ in range(runs)],
        dtype=np.int64,
    )
    build = np.array(draw(st.lists(
        st.lists(st.integers(0, 1), min_size=horizon + 1, max_size=horizon + 1),
        min_size=runs, max_size=runs,
    )))
    k, n_att = params.min_vote_count, params.attester_count
    counts = st.one_of(st.integers(0, n_att), st.integers(max(k - 1, 0), min(k + 1, n_att)))
    vote_count = np.array(draw(st.lists(
        st.lists(counts, min_size=n_slots, max_size=n_slots), min_size=runs, max_size=runs
    )))
    return params, release, build, vote_count


def scalar_resolution(release, build, counts, params):
    """One run's canonical flags and proposer payoffs by the scalar rules:
    each slot reads the next proposer's build flag, and each payoff is
    resolved in slot order from the last canonical release."""
    next_builds = build.tolist()[1:]
    chis, pays = [], []
    last_canonical_time = params.genesis_time_us
    for n, count in enumerate(counts):
        share = Fraction(count, params.attester_count)
        chis.append(canonical_status(next_builds[n], share, params.vote_threshold))
        pays.append(proposer_payoff(int(release[n]), last_canonical_time, chis[-1], params))
        if chis[-1]:
            last_canonical_time = int(release[n])
    return chis, np.array(pays).view(np.uint64).tolist()


def resolved_bits(release, build, vote_count, params):
    canonical, payoff = engine.resolve_slots(release, build, vote_count, params)
    assert canonical.shape == payoff.shape == vote_count.shape
    assert (canonical.dtype, payoff.dtype) == (np.int64, np.float64)
    return canonical.tolist(), payoff.view(np.uint64).tolist()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(resolution_cases())
def test_resolve_slots_matches_scalar_definitions(case):
    """Canonical flags and proposer payoffs, bit for bit, against the scalar
    rules run by run, for ``(runs, S)`` vote counts under proposer columns
    of ``horizon + 1`` entries, one row per run, and under the one column
    that every run shares; each row also resolves alone as in the batch."""
    params, release, build, vote_count = case
    per_run = resolved_bits(release, build, vote_count, params)
    shared = resolved_bits(release[0], build[0], vote_count, params)
    for r, counts in enumerate(vote_count.tolist()):
        expected = scalar_resolution(release[r], build[r], counts, params)
        assert (per_run[0][r], per_run[1][r]) == expected, r
        alone = resolved_bits(release[r], build[r], vote_count[r], params)
        assert alone == expected, r
        expected = scalar_resolution(release[0], build[0], counts, params)
        assert (shared[0][r], shared[1][r]) == expected, r


@st.composite
def proposer_deviation_cases(draw):
    """Arguments for ``check_proposer_deviation``: any threshold (1 too), a
    committee at and above the margin size, and a grid that mixes random
    pairs with the edges: delays 0 and ``slot_length_us``, the coordinated
    delay with build flag 0, and releases 1 µs off schedule."""
    gamma = draw(st.sampled_from(THRESHOLDS))
    n_min = 1 if gamma == 1.0 else min_attesters_for_margin(gamma)
    theta = draw(st.one_of(st.integers(1, 4), st.integers(100_000, 1_000_000)))
    slot_len = theta * draw(st.integers(2, 5))
    horizon = draw(st.integers(3, 8))
    params = ProtocolParams(
        slot_length_us=slot_len,
        mean_latency_us=theta,
        vote_threshold=gamma,
        attestation_deadline_us=draw(st.integers(0, slot_len - 1)),
        attester_count=draw(st.integers(n_min, n_min + 30)),
        horizon_slots=horizon,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    delta_star = draw(st.integers(0, slot_len))
    edges = [(0, 0), (0, 1), (slot_len, 0), (slot_len, 1), (delta_star, 0)]
    edges += [(d, 1) for d in (delta_star - 1, delta_star + 1) if 0 <= d <= slot_len]
    pairs = st.one_of(
        st.sampled_from(edges), st.tuples(st.integers(0, slot_len), st.integers(0, 1))
    )
    grid = draw(st.lists(pairs.filter(lambda pair: pair != (delta_star, 1)), min_size=1,
                         max_size=6))
    slot = draw(st.one_of(st.none(), st.integers(1, horizon - 2)))
    return params, delta_star, grid, draw(st.integers(1, 3)), slot


def full_committee_proposer_check(params, delta_star, grid, runs, slot):
    """The proposer deviation check on full-committee runs: each arm's sample
    is the deviating slot's payoff in ``runs`` runs of ``replicate``, under
    the labels the check once drew them from. Each run's whole payoff column
    is also checked, bit for bit, against its arm's row of the batch that
    the check resolves (``_proposer_arm_payoffs``), which must not depend on
    the run's seed."""
    base = replace(params, schedule_offset_us=delta_star)
    slot_k = base.horizon_slots // 2 if slot is None else slot
    specs = [strategy_spec("fixed", delay_us=delay, build_on_prev=phi) for delay, phi in grid]
    plans = [engine.parse_proposer_strategy(spec, base) for spec in specs]
    batched = equilibrium._proposer_arm_payoffs(base, slot_k, plans)
    assert batched.shape == (len(grid) + 1, base.horizon_slots)

    def sample(row, label, **setup):
        payoffs = []
        for trace in batch_rows(replicate(SimConfig(params=base, **setup), label, runs)):
            assert np.array_equal(
                trace.proposer_payoff.view(np.uint64), batched[row].view(np.uint64)
            ), (label, trace.params.seed)
            payoffs.append(trace.proposer_payoff[slot_k])
        return payoffs

    baseline = sample(0, "proposer-deviation-baseline")
    arms = [
        (
            f"delay_us={delay},build_on_prev={phi}",
            sample(i + 1, f"proposer-deviation|{delay}|{phi}",
                   proposer_overrides={slot_k: spec}),
        )
        for i, ((delay, phi), spec) in enumerate(zip(grid, specs))
    ]
    return equilibrium._deviation_report(delta_star, baseline, arms)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(proposer_deviation_cases())
def test_proposer_deviation_check_matches_full_committee_runs(case):
    params, delta_star, grid, runs, slot = case
    report = check_proposer_deviation(params, delta_star, grid, runs, slot)
    assert report == full_committee_proposer_check(params, delta_star, grid, runs, slot)


@st.composite
def best_response_cases(draw):
    """Arguments for ``best_response_delay``: any threshold (1 too), a
    committee at and above the margin size, and a grid that mixes random
    delays with the edges 0 and ``slot_length_us`` and with releases up to
    4 µs before the deadline, where microsecond-scale latencies tie often."""
    gamma = draw(st.sampled_from(THRESHOLDS))
    n_min = 1 if gamma == 1.0 else min_attesters_for_margin(gamma)
    theta = draw(st.one_of(st.integers(1, 4), st.integers(100_000, 1_000_000)))
    slot_len = theta * draw(st.integers(2, 5))
    deadline = draw(st.integers(0, slot_len - 1))
    params = ProtocolParams(
        slot_length_us=slot_len,
        mean_latency_us=theta,
        vote_threshold=gamma,
        attestation_deadline_us=deadline,
        attester_count=draw(st.integers(n_min, n_min + 30)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    edges = [0, slot_len] + [deadline - j for j in range(5) if deadline >= j]
    delays = st.one_of(st.sampled_from(edges), st.integers(0, slot_len))
    grid = draw(st.lists(delays, min_size=1, max_size=6, unique=True))
    return params, grid, draw(st.integers(1, 3)), draw(st.integers(3, 8))


def full_committee_best_response(params, grid, runs, horizon):
    """The best-response curve from full-committee runs: each delay's runs
    come from ``replicate`` under the label ``"best-response|<delay>"``, and
    the curve reads the deviating slot's ``proposer_payoff`` and
    ``vote_count`` from each trace."""
    base = replace(params, schedule_offset_us=0, horizon_slots=horizon)
    slot_k = horizon // 2
    delays = sorted(grid)
    means, ses, shares = [], [], []
    for d in delays:
        config = SimConfig(
            params=base,
            proposer_default=strategy_spec("greedy_delay", delay_us=0),
            proposer_overrides={slot_k: strategy_spec("greedy_delay", delay_us=d)},
            attester_strategy=HONEST_SPEC,
        )
        traces = batch_rows(replicate(config, f"best-response|{d}", runs))
        mean, se = mean_se([trace.proposer_payoff[slot_k] for trace in traces])
        means.append(mean)
        ses.append(se)
        n_att = params.attester_count
        shares.append(float(np.mean([trace.vote_count[slot_k] / n_att for trace in traces])))
    # max keeps the first of equal payoffs: ties go to the smaller delay
    best = max(range(len(delays)), key=means.__getitem__)
    return ResponseCurve(
        delays_us=tuple(delays),
        expected_payoffs=tuple(means),
        payoff_std_errors=tuple(ses),
        attestation_shares=tuple(shares),
        argmax_delay_us=delays[best],
    )


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(best_response_cases())
def test_best_response_matches_full_committee_runs(case):
    params, grid, runs, horizon = case
    curve = best_response_delay(params, grid, runs, horizon)
    assert curve == full_committee_best_response(params, grid, runs, horizon)


@st.composite
def honest_slot_cases(draw):
    """A config whose attesters play ``honest_spec`` and whose proposers draw
    nothing, any slot (the last one too), and run seeds. Fixed overrides take
    either build flag, so the flag of the slot after the one read decides its
    canonical status in some runs."""
    gamma = draw(st.sampled_from(THRESHOLDS))
    n_min = 1 if gamma == 1.0 else min_attesters_for_margin(gamma)
    theta = draw(st.one_of(st.integers(1, 4), st.integers(100_000, 1_000_000)))
    slot_len = theta * draw(st.integers(2, 5))
    horizon = draw(st.integers(2, 8))
    offset = draw(st.integers(0, slot_len))
    params = ProtocolParams(
        slot_length_us=slot_len,
        schedule_offset_us=offset,
        mean_latency_us=theta,
        vote_threshold=gamma,
        attestation_deadline_us=draw(st.integers(0, slot_len - 1)),
        attester_count=draw(st.integers(n_min, n_min + 30)),
        horizon_slots=horizon,
    )
    delays = st.one_of(st.integers(0, slot_len), st.just(offset))
    steady = st.one_of(
        st.just(strategy_spec("equilibrium")),
        st.builds(lambda d: strategy_spec("greedy_delay", delay_us=d), delays),
        st.builds(
            lambda d, b: strategy_spec("fixed", delay_us=d, build_on_prev=b),
            delays,
            st.integers(0, 1),
        ),
    )
    config = SimConfig(
        params=params,
        proposer_default=draw(steady),
        proposer_overrides=draw(st.dictionaries(st.integers(0, horizon - 1), steady)),
        attester_strategy=HONEST_SPEC,
    )
    seeds = draw(st.lists(SEEDS, min_size=1, max_size=3))
    return config, draw(st.integers(0, horizon - 1)), seeds


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(honest_slot_cases())
def test_honest_slot_outcomes_match_full_committee_runs(case):
    config, slot_k, seeds = case
    expected = ([], [])
    for seed in seeds:
        trace = run_simulation(replace(config, params=replace(config.params, seed=seed)))
        expected[0].append(trace.proposer_payoff[slot_k])
        expected[1].append(trace.vote_count[slot_k])
    assert equilibrium._honest_slot_outcomes(config, slot_k, seeds) == expected


def test_best_response_runs_no_trace_and_draws_inbound_rows_only(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("best response ran a full trace")

    for module in (equilibrium, engine):
        monkeypatch.setattr(module, "run_simulation", forbidden)
    monkeypatch.setattr(equilibrium, "replicate", forbidden)
    streams = []
    ids = engine.stream_ids

    def spy(roles, slots):
        streams.extend((role, n) for role in roles for n in range(slots))
        return ids(roles, slots)

    monkeypatch.setattr(engine, "stream_ids", spy)
    params = ProtocolParams(attester_count=50, seed=3)
    best_response_delay(params, [0, 3_000_000], 2, horizon=7)
    # slot 3 deviates: only the inbound streams of slots 0..3 are drawn
    assert set(streams) == {(ROLE_INBOUND, n) for n in range(4)}


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
    detail = attester_detail(config)
    p = config.params
    for role, plane in (
        (ROLE_INBOUND, detail.inbound_latencies_us),
        (ROLE_OUTBOUND, detail.outbound_latencies_us),
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


# the width edges, always in one call, shuffled among random seeds
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(SEEDS, max_size=6).flatmap(lambda extra: st.permutations(EDGE_SEEDS + tuple(extra))),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
)
def test_batched_seed_states_match_seed_sequence(seeds, stream_ids):
    states = seed_states(seeds, stream_ids)
    assert states.shape == (len(seeds) * len(stream_ids), 4)
    for j, seed in enumerate(seeds):
        for k, stream_id in enumerate(stream_ids):
            expected = np.random.SeedSequence([seed, stream_id]).generate_state(4, np.uint64)
            assert np.array_equal(states[j * len(stream_ids) + k], expected), (seed, stream_id)
    # an array of seeds names one stream per (seed, stream id) pair, seed-major
    draws = RngStream(np.array(seeds, dtype=np.uint64), stream_ids).generator().random(
        (len(states), 3)
    )
    for j, seed in enumerate(seeds):
        for k, stream_id in enumerate(stream_ids):
            row = draws[j * len(stream_ids) + k]
            assert np.array_equal(row, seed_sequence_rng(seed, stream_id).random(3))


# ids 0 and 2**64 - 1 in every call, among random ones
EDGE_IDS = (0, 2**64 - 1)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(SEEDS, max_size=6).map(lambda extra: EDGE_SEEDS + tuple(extra)),
    st.lists(st.integers(0, 2**64 - 1), max_size=6).map(lambda extra: EDGE_IDS + tuple(extra)),
)
def test_first_draw_closed_form_matches_generator(seeds, stream_ids):
    """One draw per stream is computed from the seed states alone; it is the
    first ``Generator.random()`` of the stream, and the first column of the
    per-stream fill of a wider plane."""
    plane = engine._StreamPlane(seed_states(seeds, stream_ids))
    k = len(seeds) * len(stream_ids)
    draws = plane.random((k, 1))
    assert draws.shape == (k, 1)
    for j, seed in enumerate(seeds):
        for k_id, stream_id in enumerate(stream_ids):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream_id])))
            assert draws[j * len(stream_ids) + k_id, 0] == rng.random(), (seed, stream_id)
    assert np.array_equal(draws[:, 0], plane.random((k, 2))[:, 0])


@pytest.mark.parametrize("one_draw", [True, False], ids=["one-draw", "committee"])
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.lists(SEEDS, min_size=3, max_size=6),
    st.sampled_from(((ROLE_INBOUND,), (ROLE_OUTBOUND,), (ROLE_INBOUND, ROLE_OUTBOUND))),
    st.integers(1, 4),
    st.integers(2, 12),
    st.data(),
)
def test_batched_latency_pass_matches_single_seed_passes(
    one_draw, seeds, roles, slots, n_att, data
):
    """One draw per stream (the closed-form first draw) or the whole
    committee's, under a bound that splits the runs into chunks of
    ``chunk_runs``, the last one partial: the chunks cover the runs in order,
    and each run's block is its single-seed pass and its streams' draws."""
    params = ProtocolParams(attester_count=n_att, vote_threshold=1.0)
    draws = 1 if one_draw else n_att
    chunk_runs = data.draw(st.integers(2, len(seeds) - 1).filter(lambda c: len(seeds) % c))
    limit = chunk_runs * len(roles) * slots * draws
    with mock.patch.object(engine, "_MAX_BATCH_DRAWS", limit):
        chunks = list(engine.latency_pass(seeds, roles, slots, draws, params))
    assert [len(chunk) for chunk in chunks] == [
        len(seeds[i : i + chunk_runs]) for i in range(0, len(seeds), chunk_runs)
    ]
    planes = np.concatenate(chunks)
    assert planes.shape == (len(seeds), len(roles), slots, draws)
    for r, seed in enumerate(seeds):
        (alone,) = engine.latency_pass([seed], roles, slots, draws, params)
        assert np.array_equal(planes[r], alone[0])
        for j, role in enumerate(roles):
            for n in range(slots):
                rng = seed_sequence_rng(seed, derive_stream_id(role, n))
                row = sample_latency_array(rng, params.mean_latency_us, draws)
                assert np.array_equal(planes[r, j, n], row), (seed, role, n)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(((ROLE_INBOUND,), (ROLE_OUTBOUND,), (ROLE_INBOUND, ROLE_OUTBOUND))),
    st.integers(1, 3),
    st.integers(2, 3),
    st.integers(2, 3),
    st.data(),
)
def test_hash_blocks_of_chunks_match_single_seed_passes(
    roles, slots, chunk_runs, block_chunks, data
):
    """A bound under which a chunk holds ``chunk_runs`` runs and a hash block
    ``block_chunks`` chunks, over more runs than one block holds, the last
    block and its last chunk partial: the blocks and chunks cover the runs in
    order, and each run's rows are its single-seed pass and its streams'
    draws. A block holds ``limit // 32`` streams, so chunks share one only
    when a stream takes many draws: with ``most = 32 * block_chunks``, a
    limit of ``most * chunk_runs`` latencies per stream of a run gives such
    blocks and chunks at any draw count in ``(most * chunk_runs / (chunk_runs
    + 1), most]``."""
    streams = len(roles) * slots
    block = chunk_runs * block_chunks
    most = 32 * block_chunks
    draws = data.draw(st.integers(most * chunk_runs // (chunk_runs + 1) + 1, most))
    limit = most * chunk_runs * streams
    assert limit // (streams * draws) == chunk_runs
    extra = data.draw(st.integers(1, block - 1).filter(lambda m: m % chunk_runs))
    seeds = data.draw(st.lists(SEEDS, min_size=block + extra, max_size=block + extra))
    params = ProtocolParams(attester_count=draws, vote_threshold=1.0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(engine, "_MAX_BATCH_DRAWS", limit)
        calls, blocks = spy_latency_pass(monkeypatch, streams)
        planes = list(engine.latency_pass(seeds, roles, slots, draws, params))
    tail = [(chunk_runs,)] * (extra // chunk_runs) + [(extra % chunk_runs,)]
    assert calls == [(chunk_runs,)] * block_chunks + tail
    assert [len(chunk) for chunk in planes] == [runs for runs, in calls]
    assert blocks == [(block,), (extra,)]
    planes = np.concatenate(planes)
    for r, seed in enumerate(seeds):
        (alone,) = engine.latency_pass([seed], roles, slots, draws, params)
        assert np.array_equal(planes[r], alone[0]), seed
        for j, role in enumerate(roles):
            for n in range(slots):
                rng = seed_sequence_rng(seed, derive_stream_id(role, n))
                row = sample_latency_array(rng, params.mean_latency_us, draws)
                assert np.array_equal(planes[r, j, n], row), (seed, role, n)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(honest_slot_cases(), st.lists(SEEDS, max_size=6), st.integers(1, 3))
def test_chunked_best_response_draws_each_run_as_alone(case, extra_seeds, chunk_runs):
    """Chunks of ``chunk_runs`` runs, the last one partial in most cases: the
    chunks cover the runs in order, each run's block is its single-seed
    ``latency_pass``, and the outcomes are those of one chunk."""
    config, slot_k, seeds = case
    seeds = seeds + extra_seeds
    p = config.params
    rows = slot_k + 1
    whole = equilibrium._honest_slot_outcomes(config, slot_k, seeds)
    chunks = []
    batched = equilibrium.latency_pass

    def spy(run_seeds, roles, slots, draws, params):
        for planes in batched(run_seeds, roles, slots, draws, params):
            chunks.append(planes)
            yield planes

    limit = chunk_runs * rows * p.attester_count
    with mock.patch.object(engine, "_MAX_BATCH_DRAWS", limit), mock.patch.object(
        equilibrium, "latency_pass", spy
    ):
        chunked = equilibrium._honest_slot_outcomes(config, slot_k, seeds)
    assert chunked == whole
    assert [len(planes) for planes in chunks] == [
        len(seeds[i : i + chunk_runs]) for i in range(0, len(seeds), chunk_runs)
    ]
    for seed, plane in zip(seeds, np.concatenate(chunks)):
        (alone,) = batched([seed], (ROLE_INBOUND,), rows, p.attester_count, p)
        assert np.array_equal(plane, alone[0]), seed


def test_best_response_seeds_each_delay_chunk_at_once(monkeypatch):
    # slot 3 deviates: each run draws the 4 inbound streams of slots 0..3
    calls, blocks = spy_latency_pass(monkeypatch, 4)
    params = ProtocolParams(attester_count=50, seed=3)
    grid = [0, 1_500_000, 3_000_000]
    best_response_delay(params, grid, 5, horizon=7)
    # one chunk per delay: all five runs' streams are seeded in one call
    assert calls == blocks == [(5,)] * len(grid)
    calls.clear()
    blocks.clear()
    # at most two runs of 4 rows x 50 attesters per chunk: chunks of 2, 2, 1;
    # a block holds at most 401 // 32 = 12 streams, so one chunk of 8
    monkeypatch.setattr(engine, "_MAX_BATCH_DRAWS", 2 * 4 * 50 + 1)
    best_response_delay(params, grid, 5, horizon=7)
    assert calls == blocks == [(2,), (2,), (1,)] * len(grid)
    calls.clear()
    blocks.clear()
    # one run per chunk, and 399 // 32 = 12 streams, three runs, per block:
    # each delay hashes its seeds in blocks of 3 and 2
    monkeypatch.setattr(engine, "_MAX_BATCH_DRAWS", 2 * 4 * 50 - 1)
    best_response_delay(params, grid, 5, horizon=7)
    assert calls == [(1,)] * 5 * len(grid)
    assert blocks == [(3,), (2,)] * len(grid)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    SEEDS,
    st.integers(1, 8),
    st.data(),
)
def test_laggy_release_times_unchanged(seed, horizon, data):
    # laggy or equilibrium by default, with some slots overridden by
    # strategies that draw nothing, so the proposer streams of the drawing
    # slots are checked against their slot index, and equilibrium slots that
    # follow late overrides against the schedule; greedy_delay is fixed with
    # the build flag 1
    params = ProtocolParams(attester_count=10, horizon_slots=horizon, seed=seed)
    delays = st.integers(0, params.slot_length_us)
    steady_specs = st.one_of(
        st.just(strategy_spec("equilibrium")),
        delays.map(lambda d: strategy_spec("greedy_delay", delay_us=d)),
        st.builds(
            lambda d, b: strategy_spec("fixed", delay_us=d, build_on_prev=b),
            delays,
            st.integers(0, 1),
        ),
    )
    overrides = data.draw(st.dictionaries(st.integers(0, horizon - 1), steady_specs))
    default = data.draw(st.sampled_from(("laggy", "equilibrium")))
    config = SimConfig(
        params=params,
        proposer_default=strategy_spec(default),
        proposer_overrides=overrides,
    )
    trace = run_simulation(config)
    dist = LatencyDistribution.lognormal(418.0, 0.5)
    prev = None
    for n in range(horizon):
        spec = overrides.get(n, config.proposer_default)
        if spec.name == "laggy":
            rng = seed_sequence_rng(seed, derive_stream_id(ROLE_PROPOSER, n))
            expected = laggy_proposer(dist, n, params, rng)
        elif spec.name == "equilibrium":
            expected = equilibrium_proposer(n, prev, params)
        else:
            build = spec.options.get("build_on_prev", 1)
            expected = fixed_action_proposer(spec.options["delay_us"], build, n, params)
        assert trace_action(trace, n) == expected, n
        prev = expected
    closing = equilibrium_proposer(horizon, prev, params)
    assert trace_action(trace, horizon) == closing


def one_seed_runs(config, seeds):
    """The trace of ``config`` under each seed, one run at a time."""
    return [run_simulation(replace(config, params=replace(config.params, seed=s))) for s in seeds]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_configs(), st.lists(SEEDS, min_size=2, max_size=5), st.data())
def test_batch_rows_match_one_seed_runs(config, seeds, data):
    """``run_simulation(config, seeds)`` and ``attester_detail(config,
    seeds)`` under a chunk bound that splits the runs, the last chunk partial
    in most cases, under both attester strategies (laggy overrides draw each
    seed's own releases): each row of the batch is the one-seed trace of its
    seed, each row of the detail the one-seed detail, and the batch's share
    samples are the runs' own, led by their run index."""
    p = config.params
    chunk_runs = data.draw(st.integers(1, len(seeds) - 1))
    chunks = []
    latency_pass = engine.latency_pass

    def spy(*args):
        for planes in latency_pass(*args):
            chunks.append(len(planes))
            yield planes

    limit = chunk_runs * 2 * p.horizon_slots * p.attester_count
    with mock.patch.object(engine, "_MAX_BATCH_DRAWS", limit), mock.patch.object(
        engine, "latency_pass", spy
    ):
        batch = run_simulation(config, seeds)
        detail = attester_detail(config, seeds)
    # the detail's run, then its own draws
    assert chunks == [len(seeds[i : i + chunk_runs]) for i in range(0, len(seeds), chunk_runs)] * 3
    assert batch.seeds == tuple(seeds)
    singles = one_seed_runs(config, seeds)
    assert batch_rows(batch) == singles
    assert detail.trace == batch
    one_seed_details = [attester_detail(replace(config, params=single.params))
                        for single in singles]
    assert all(map(same_detail, detail_rows(detail), one_seed_details))
    samples = [next_slot_share_samples(trace) for trace in singles]
    run, *columns = next_slot_share_samples(batch)
    assert run.tolist() == [r for r, (slots, _, _) in enumerate(samples) for _ in slots]
    for column, runs in zip(columns, zip(*samples)):
        assert column.tolist() == np.concatenate(runs).tolist()


@pytest.mark.parametrize("attester", ["equilibrium", "honest_spec"])
def test_laggy_batch_draws_each_seeds_releases(monkeypatch, attester):
    """Every slot but one draws its release, the last one too, so the runs'
    proposer columns are each seed's own; chunks of two runs and one."""
    params = ProtocolParams(attester_count=20, horizon_slots=6, seed=9)
    config = SimConfig(
        params, strategy_spec("laggy"), {2: strategy_spec("equilibrium")},
        strategy_spec(attester),
    )
    seeds = [3, 2**40, 17]
    monkeypatch.setattr(engine, "_MAX_BATCH_DRAWS", 2 * 2 * 6 * 20)
    detail = attester_detail(config, seeds)
    batch = detail.trace
    assert len({tuple(row) for row in batch.release_time_us.tolist()}) == len(seeds)
    assert batch_rows(batch) == one_seed_runs(config, seeds)
    one_seed_details = [attester_detail(replace(config, params=replace(params, seed=s)))
                        for s in seeds]
    assert all(map(same_detail, detail_rows(detail), one_seed_details))


def test_closing_build_is_each_runs_entry_horizon():
    """A laggy last proposer is late on some seeds and on time on others,
    so the runs' closing build flags differ: each is entry ``horizon`` of
    the run's proposer build column, while the closing release, drawn by no
    run, is the schedule's."""
    params = ProtocolParams(schedule_offset_us=418_000, attester_count=20, horizon_slots=4)
    config = SimConfig(params, proposer_overrides={3: strategy_spec("laggy")})
    seeds = list(range(8))
    batch = run_simulation(config, seeds)
    release, build = proposer_pass(config, seeds)
    assert set(batch.closing_build.tolist()) == {0, 1}
    assert np.array_equal(batch.closing_build, build[:, -1])
    assert (release[:, -1] == params.schedule_time_us(params.horizon_slots)).all()
    assert batch_rows(batch) == one_seed_runs(config, seeds)


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


# -- bid files: chunked readers against the per-line and per-row readers --


def _bid(draw):
    received = draw(st.integers(-300, 0))
    return {
        "slot": draw(st.integers(0, 3)),
        "builder_id": draw(st.integers(0, 3)),
        "received_at_ms": received,
        "eligible_at_ms": received + draw(st.integers(0, 100)),
        "value_eth": draw(st.sampled_from((0.0, 0.25, 1.5, 2))),
    }


def _good(draw):
    return [json.dumps(_bid(draw))]


def _two_bids(draw):
    return json.dumps(_bid(draw)) + draw(st.sampled_from((",", ", "))) + json.dumps(_bid(draw))


def _odd_typed(draw):
    field = draw(st.sampled_from(BID_FIELDS))
    value = draw(st.sampled_from(("12", "ten", True, 3.0, 12.5, None)))
    return [json.dumps(dict(_bid(draw), **{field: value}))]


#: Integers a plain bid line may hold that no int64 column does.
BEYOND_INT64 = (2**63, -2**63 - 1, 2**64, 10**30)


def _beyond_int64(draw):
    # a plain line, so a chunk of it and plain bids decodes in one call
    field = draw(st.sampled_from(BID_FIELDS[:4]))
    return [json.dumps(dict(_bid(draw), **{field: draw(st.sampled_from(BEYOND_INT64))}))]


def _split_bid(draw):
    # as many values as lines, and the join supplies the split bid's comma:
    # only the braces tell the lines apart
    text = json.dumps(_bid(draw))
    cut = text.index(', "received_at_ms"')
    return draw(st.permutations([_two_bids(draw), text[:cut], text[cut + 2:]]))


def _join_inside_a_string(draw):
    # the string "},{" swallows a join, and a line of two bids keeps the
    # count of values at one per line
    bid = _bid(draw)
    if draw(st.booleans()):
        del bid["slot"]  # the string stays the slot value
    # else a repeated slot key overwrites the string
    return ['{"slot": "}', '{", ' + json.dumps(bid)[1:], _two_bids(draw)]


def _join_inside_a_list(draw):
    bid = _bid(draw)
    del bid["slot"]
    return ['{"slot": [{}', "{}], " + json.dumps(bid)[1:], _two_bids(draw)]


def _list_among_bids(draw):
    # a five-element list between two bids on one line; string values make
    # up its quotes and two joins inside a list its count of values
    strings = json.dumps(dict.fromkeys(BID_FIELDS, "x"))
    line = strings + ", [1, 2, 3, 4, 5], " + json.dumps(_bid(draw))
    return _join_inside_a_list(draw)[:2] + [line] + _join_inside_a_list(draw)[:2]


#: Line kinds a bid file is drawn from, plain bids most often.
LINE_KINDS = (_good,) * 8 + (
    lambda draw: [""],
    lambda draw: [" \t "],
    _odd_typed,
    _beyond_int64,
    lambda draw: [json.dumps(dict(_bid(draw), value_eth=float("nan")))],
    # a row the table rejects, reported at its line after the whole file is
    # read, so an offset lost at a blank line shows
    lambda draw: [""] * draw(st.integers(0, 2)) + [
        json.dumps(dict(_bid(draw), eligible_at_ms=-400))
    ],
    lambda draw: [json.dumps(dict(_bid(draw), extra=1))],
    lambda draw: ['{"slot": 9, ' + json.dumps(_bid(draw))[1:]],  # a repeated key
    lambda draw: [draw(st.sampled_from(("[1, 2]", "7", '"bid"', "null")))],
    # trailing junk after a bid
    lambda draw: [json.dumps(_bid(draw)) + draw(st.sampled_from((" x", "}", ",", " {}")))],
    _split_bid,
    _join_inside_a_string,
    _join_inside_a_list,
    _list_among_bids,
)


@st.composite
def bid_files(draw):
    lines = []
    for kind in draw(st.lists(st.sampled_from(LINE_KINDS), max_size=12)):
        lines += kind(draw)
    return "\n".join(lines) + "\n"


def _read_or_error(reader, path):
    try:
        return reader(path)
    except ConfigurationError as exc:
        return str(exc)


#: Chunk sizes of the readers under test: a segment per row, a segment per
#: pair of rows, and the whole of any drawn file in one chunk.
CHUNK_LINES = st.sampled_from((1, 2, 128))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(bid_files(), CHUNK_LINES)
def test_chunked_bid_reader_matches_per_line_reader(text, chunk_lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bids.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with mock.patch.object(market, "_READ_CHUNK_LINES", chunk_lines):
            got = _read_or_error(read_bids_jsonl, path)
        assert got == _read_or_error(read_bids_jsonl_by_line, path)


#: Cells int() or float() reads, cells neither reads, and integers beyond
#: int64, which the int columns take as text and cannot hold.
ODD_CELLS = ("1_000", " 7 ", "+5", "12.0", "12.5", "1e3", "ten", "", "nan", "inf", "-1.0",
             "1e400") + tuple(map(str, BEYOND_INT64))


def _csv_bid(draw, **fields):
    return [",".join(map(str, dict(_bid(draw), **fields).values()))]


def _odd_csv_bid(draw):
    return _csv_bid(draw, **{draw(st.sampled_from(BID_FIELDS)): draw(st.sampled_from(ODD_CELLS))})


#: Row kinds a CSV bid file is drawn from, plain bids most often.
CSV_ROW_KINDS = (_csv_bid,) * 10 + (_odd_csv_bid,) * 3 + (
    lambda draw: [""],
    lambda draw: ["1,2,3"],  # too few fields
    lambda draw: ['"0', '",1,-5,0,0.5'],  # a quoted field over two lines
    lambda draw: _csv_bid(draw, eligible_at_ms=-400),
)


@st.composite
def csv_bid_files(draw):
    header = ",".join(BID_FIELDS) if draw(st.integers(0, 19)) else "slot,value_eth"
    lines = [header]
    for kind in draw(st.lists(st.sampled_from(CSV_ROW_KINDS), max_size=12)):
        lines += kind(draw)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(csv_bid_files(), CHUNK_LINES)
def test_chunked_csv_reader_matches_per_row_reader(text, chunk_lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bids.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(market, "_READ_CHUNK_LINES", chunk_lines):
            got = _read_or_error(read_bids_csv, path)
        assert got == _read_or_error(read_bids_csv_by_row, path)


def _bid_text(**fields):
    bid = {"slot": 0, "builder_id": 1, "received_at_ms": -10, "eligible_at_ms": 0,
           "value_eth": 0.5}
    bid.update(fields)
    return json.dumps({name: value for name, value in bid.items() if value is not None})


_CUT = _bid_text().index(', "received_at_ms"')
_LIST_SLOT = ['{"slot": [{}', "{}], " + _bid_text(slot=None)[1:]]  # two lines, one bid

#: Chunks that pass every check of the chunked reader's fast path but the one
#: they are named after; each holds a line that the per-line reader rejects.
NEAR_PLAIN_CHUNKS = {
    "braces": [_bid_text() + ", " + _bid_text(), _bid_text()[:_CUT], _bid_text()[_CUT + 2:]],
    "decode": [_bid_text() + " x"],
    "value-count": [_bid_text() + ", " + _bid_text()],
    "quotes": [_bid_text(extra=1)],
    "fields": [_bid_text(value_eth=None), _bid_text(extra=1)],
    "row-type": ["[1], " + json.dumps(dict.fromkeys(BID_FIELDS, "x"))] + _LIST_SLOT,
    "value-type": _LIST_SLOT + [_bid_text() + ", " + _bid_text()],
}


def test_buffered_rows_keep_their_place(tmp_path):
    # the first chunk, read line by line for its repeated key, and the plain
    # chunk after it each become a segment, in file order
    lines = ["", '{"slot": 9, ' + _bid_text()[1:]] + [_bid_text(slot=s) for s in (1, 2, 3, 4)]
    path = tmp_path / "bids.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(market, "_READ_CHUNK_LINES", 3):
        got = read_bids_jsonl(path)
    assert got.slot.tolist() == [0, 1, 2, 3, 4]
    assert got == read_bids_jsonl_by_line(path)


@pytest.mark.parametrize("lines", NEAR_PLAIN_CHUNKS.values(), ids=NEAR_PLAIN_CHUNKS.keys())
def test_near_plain_chunk_is_read_line_by_line(lines, tmp_path):
    path = tmp_path / "bids.jsonl"
    path.write_text("\n".join(lines) + "\n")
    expected = _read_or_error(read_bids_jsonl_by_line, path)
    assert isinstance(expected, str)
    assert _read_or_error(read_bids_jsonl, path) == expected
