import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from timinggames.cli import _slot_rows
from timinggames.engine import (
    ROLE_INBOUND,
    ROLE_OUTBOUND,
    ROLE_PROPOSER,
    RngStream,
    SimConfig,
    SimulationError,
    _evaluate_attesters,
    derive_seed,
    derive_stream_id,
    run_simulation,
    sample_latency_array,
    strategy_spec,
)
from timinggames.model import (
    ATTESTER_ARRAYS,
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
    min_attesters_for_margin,
)

from oracles import equilibrium_attester, honest_spec_attester, sample_latency


class TestRngStreams:
    def test_same_entity_same_sequence(self):
        a = RngStream(42, derive_stream_id(ROLE_INBOUND, 3, 7)).generator().random(5)
        b = RngStream(42, derive_stream_id(ROLE_INBOUND, 3, 7)).generator().random(5)
        assert np.array_equal(a, b)

    def test_distinct_entities_distinct_streams(self):
        ids = {
            derive_stream_id(role, slot, idx)
            for role in (ROLE_INBOUND, ROLE_OUTBOUND, "proposer")
            for slot in range(50)
            for idx in range(4)
        }
        assert len(ids) == 3 * 50 * 4

    def test_seed_changes_stream(self):
        a = RngStream(1, derive_stream_id(ROLE_INBOUND, 0)).generator().random(4)
        b = RngStream(2, derive_stream_id(ROLE_INBOUND, 0)).generator().random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "args,value",
        [
            ((ROLE_INBOUND, 0), 5986279702950177719),
            ((ROLE_OUTBOUND, 31), 2235999578876301986),
            ((ROLE_PROPOSER, 7, 3), 13952318562522785222),
        ],
    )
    def test_stream_ids_are_pinned(self, args, value):
        assert derive_stream_id(*args) == value

    @pytest.mark.parametrize(
        "args,value",
        [
            ((42, "curves|0", 0), 8534251782041932406),
            ((1, "attester-deviation", 999), 17190720002853090926),
            ((2**64 - 1, "mvot-bids"), 14325995955799870201),
        ],
    )
    def test_sub_seeds_are_pinned(self, args, value):
        assert derive_seed(*args) == value

    def test_stream_plane_rows_are_the_single_streams(self):
        ids = np.array([derive_stream_id(ROLE_INBOUND, n) for n in range(3)], dtype=np.uint64)
        plane = RngStream(7, ids).generator().random((3, 5))
        for k, stream_id in enumerate(ids.tolist()):
            single = RngStream(7, stream_id).generator().random(5)
            assert np.array_equal(plane[k], single)
        with pytest.raises(ValueError, match="3 streams"):
            RngStream(7, ids).generator().random((4, 5))


class TestSampleLatency:
    def test_median_draw(self):
        class HalfRng:
            def random(self, size=None):
                return 0.5

        assert sample_latency(HalfRng(), 1_000_000) == 693_147

    def test_zero_draw(self):
        class ZeroRng:
            def random(self, size=None):
                return 0.0

        assert sample_latency(ZeroRng(), 1_000_000) == 0

    def test_mean_matches_theta(self):
        rng = np.random.default_rng(31)
        samples = sample_latency_array(rng, 1_000_000, 1_000_000)
        assert samples.min() >= 0
        assert abs(samples.mean() - 1_000_000) / 1_000_000 < 0.005

    def test_scalar_vector_agree(self):
        theta = 750_000
        scalar_rng = RngStream(5, derive_stream_id("x", 0)).generator()
        vector_rng = RngStream(5, derive_stream_id("x", 0)).generator()
        scalars = [sample_latency(scalar_rng, theta) for _ in range(64)]
        vector = sample_latency_array(vector_rng, theta, 64)
        assert scalars == [int(v) for v in vector]

    def test_requires_positive_theta(self):
        with pytest.raises(ConfigurationError):
            sample_latency_array(np.random.default_rng(0), 0, 4)


def eq_params(**kw):
    defaults = dict(
        schedule_offset_us=2_000_000,
        attester_count=50,
        horizon_slots=8,
        seed=909,
    )
    defaults.update(kw)
    return ProtocolParams(**defaults)


class TestRunSimulationEquilibrium:
    @pytest.mark.parametrize("offset", [0, 3_000_000, 6_000_000, 9_000_000, 12_000_000])
    def test_all_canonical_constant_payoff(self, offset):
        p = eq_params(schedule_offset_us=offset, horizon_slots=20)
        trace = run_simulation(SimConfig(params=p))
        assert all(rec.canonical == 1 for rec in trace.slots)
        expected = p.base_reward + p.mev_rate * (p.slot_length_us / 1e6)
        assert all(rec.proposer_payoff == expected for rec in trace.slots)

    def test_single_slot_horizon(self):
        p = eq_params(horizon_slots=1)
        trace = run_simulation(SimConfig(params=p))
        assert len(trace.slots) == 1
        assert trace.slots[0].canonical == 1
        assert trace.closing_action.build_on_prev == 1
        assert trace.closing_action.release_time_us == p.schedule_time_us(1)

    def test_full_share_every_slot(self):
        trace = run_simulation(SimConfig(params=eq_params()))
        assert all(rec.vote_count == trace.params.attester_count for rec in trace.slots)
        assert all(rec.vote_count == rec.fresh_count >= 0 for rec in trace.slots)


class TestRunSimulationDeviation:
    def test_forced_deviation_payoffs(self):
        p = eq_params(horizon_slots=10)
        cfg = SimConfig(
            params=p,
            proposer_overrides={5: strategy_spec("greedy_delay", delay_us=2_001_000)},
        )
        trace = run_simulation(cfg)
        assert [rec.canonical for rec in trace.slots] == [1, 1, 1, 1, 1, 0, 1, 1, 1, 1]
        assert trace.slots[5].proposer_payoff == 0.0
        assert trace.slots[5].vote_count == 0
        # the next block's reward window spans two slots
        expected = p.base_reward + p.mev_rate * (2 * p.slot_length_us / 1e6)
        assert trace.slots[6].proposer_payoff == expected

    def test_early_deviation_also_skipped(self):
        p = eq_params(horizon_slots=10)
        cfg = SimConfig(
            params=p,
            proposer_overrides={5: strategy_spec("greedy_delay", delay_us=0)},
        )
        trace = run_simulation(cfg)
        assert trace.slots[5].canonical == 0
        assert trace.slots[5].proposer_payoff == 0.0

    def test_build_flip_hurts_predecessor(self):
        p = eq_params(horizon_slots=10)
        cfg = SimConfig(
            params=p,
            proposer_overrides={
                5: strategy_spec("fixed", delay_us=p.schedule_offset_us, build_on_prev=0)
            },
        )
        trace = run_simulation(cfg)
        # the flip orphans slot 4 as well: nobody built on it
        assert trace.slots[4].canonical == 0
        assert trace.slots[5].canonical == 0
        expected = p.base_reward + p.mev_rate * (3 * p.slot_length_us / 1e6)
        assert trace.slots[6].proposer_payoff == expected

    def test_release_before_slot_start_is_hard_error(self):
        def rogue(ctx, rng):
            return ProposerAction(1, ctx.params.slot_start_us(ctx.slot) - 1)

        p = eq_params(horizon_slots=4)
        with pytest.raises(SimulationError, match="slot 2"):
            run_simulation(SimConfig(params=p, proposer_overrides={2: rogue}))

    def test_release_after_next_slot_start_is_hard_error(self):
        def straggler(ctx, rng):
            return ProposerAction(1, ctx.params.slot_start_us(ctx.slot + 1) + 1)

        p = eq_params(horizon_slots=4)
        with pytest.raises(SimulationError, match="slot 1: .* after the next slot's start"):
            run_simulation(SimConfig(params=p, proposer_overrides={1: straggler}))

    def test_release_at_next_slot_start_is_allowed(self):
        p = eq_params(horizon_slots=4)
        spec = strategy_spec("fixed", delay_us=p.slot_length_us, build_on_prev=1)
        trace = run_simulation(SimConfig(params=p, proposer_overrides={1: spec}))
        assert trace.slots[1].proposer_action.release_time_us == p.slot_start_us(2)

    def test_laggy_release_past_the_slot_is_hard_error(self):
        # a 30 s signing delay lands two slots later
        p = eq_params(horizon_slots=4)
        spec = strategy_spec("laggy", signing_delay={"family": "degenerate", "value": 30_000})
        with pytest.raises(SimulationError, match="slot 2: .* after the next slot's start"):
            run_simulation(SimConfig(params=p, proposer_overrides={2: spec}))

    @pytest.mark.parametrize("name", ["greedy_delay", "fixed"])
    @pytest.mark.parametrize("delay", [-1, 12_000_001, 30_000_000])
    def test_delay_outside_slot_rejected_before_running(self, name, delay):
        p = eq_params(horizon_slots=4)
        spec = strategy_spec(name, delay_us=delay)
        with pytest.raises(ConfigurationError, match=r"delay_us must lie within \[0, "):
            SimConfig(params=p, proposer_overrides={1: spec})
        with pytest.raises(ConfigurationError, match="delay_us"):
            SimConfig(params=p, proposer_default=spec)

    def test_proposer_stream_built_only_for_drawing_strategies(self, monkeypatch):
        received = []

        def custom(ctx, rng):
            received.append(rng)
            return ProposerAction(1, ctx.params.schedule_time_us(ctx.slot))

        built = []
        original = RngStream.generator

        def counting(self):
            built.append(np.ndim(self.stream_id))
            return original(self)

        monkeypatch.setattr(RngStream, "generator", counting)
        p = eq_params(horizon_slots=4)
        run_simulation(SimConfig(params=p))
        assert built == [1]  # the latency plane only
        run_simulation(SimConfig(params=p, proposer_overrides={2: custom}))
        assert built == [1, 1, 1]  # plus the proposer streams
        assert len(received) == 1 and isinstance(received[0], np.random.Generator)

    def test_override_outside_horizon_rejected_before_running(self):
        p = eq_params(horizon_slots=4)
        with pytest.raises(ConfigurationError):
            SimConfig(params=p, proposer_overrides={4: strategy_spec("equilibrium")})

    def test_unknown_strategy_rejected(self):
        p = eq_params()
        with pytest.raises(ConfigurationError):
            SimConfig(params=p, proposer_default=strategy_spec("yolo"))
        with pytest.raises(ConfigurationError):
            SimConfig(params=p, proposer_default=strategy_spec("greedy_delay", wait_us=3))

    def test_attester_strategy_must_be_named(self):
        p = eq_params()
        for spec in (strategy_spec("yolo"), lambda *args: (1, 0)):
            with pytest.raises(ConfigurationError, match="unknown attester strategy"):
                SimConfig(params=p, attester_strategy=spec)


class TestInclusiveThreshold:
    @pytest.mark.parametrize("gamma,n_att,votes", [(0.2, 10, 2), (0.9, 20, 18)])
    def test_exact_equality_share_is_canonical(self, gamma, n_att, votes):
        # honest attesters against an on-time release: a deadline at the
        # votes-th smallest inbound latency of slot 0 admits exactly that many
        p = ProtocolParams(vote_threshold=gamma, attester_count=n_att, horizon_slots=2, seed=11)
        cfg = SimConfig(
            params=p,
            proposer_default=strategy_spec("greedy_delay", delay_us=0),
            attester_strategy=strategy_spec("honest_spec"),
            record_level="full",
        )
        lat = np.sort(run_simulation(cfg).inbound_latencies_us[0])
        assert lat[votes - 1] < lat[votes]
        cfg = replace(cfg, params=replace(p, attestation_deadline_us=int(lat[votes - 1])))
        trace = run_simulation(cfg)
        assert trace.slots[0].vote_count == votes
        assert trace.slots[0].canonical == 1


class TestDeterminism:
    def test_identical_configs_identical_traces(self):
        p = eq_params(horizon_slots=6, attester_count=40)
        cfg = SimConfig(params=p, attester_strategy=strategy_spec("honest_spec"),
                        proposer_default=strategy_spec("laggy"), record_level="full")
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a == b
        assert repr(a) == repr(b)

    def test_seed_changes_latencies(self):
        p = eq_params(horizon_slots=4, attester_count=40)
        a = run_simulation(SimConfig(params=p, record_level="full"))
        b = run_simulation(SimConfig(params=replace(p, seed=p.seed + 1), record_level="full"))
        assert not np.array_equal(a.inbound_latencies_us[0], b.inbound_latencies_us[0])
        assert a != b

    def test_record_level_does_not_change_outcomes(self):
        p = eq_params(horizon_slots=6, attester_count=40)
        full = run_simulation(SimConfig(params=p, attester_strategy=strategy_spec("honest_spec"),
                                        record_level="full"))
        summary = run_simulation(SimConfig(params=p, attester_strategy=strategy_spec("honest_spec"),
                                           record_level="summary"))
        for a, b in zip(full.slots, summary.slots):
            assert a.vote_count == b.vote_count
            assert a.proposer_payoff == b.proposer_payoff
            assert a.attester_payoff_total == b.attester_payoff_total
            assert a.fresh_vote_count == b.fresh_vote_count
        assert summary.votes is None


class TestTraceArrays:
    def test_full_trace_arrays_shape_and_dtype(self):
        p = eq_params(horizon_slots=5, attester_count=30)
        trace = run_simulation(SimConfig(params=p, record_level="full"))
        assert trace.votes is not None
        for name in ATTESTER_ARRAYS:
            arr = getattr(trace, name)
            assert arr.shape == (5, 30)
            assert arr.dtype == np.int64

    def test_summary_trace_has_no_arrays(self):
        trace = run_simulation(SimConfig(params=eq_params(), record_level="summary"))
        assert trace.votes is None
        assert all(getattr(trace, name) is None for name in ATTESTER_ARRAYS)

    @pytest.mark.parametrize("name", ATTESTER_ARRAYS)
    def test_arrays_are_read_only(self, name):
        trace = run_simulation(SimConfig(params=eq_params(horizon_slots=3), record_level="full"))
        with pytest.raises(ValueError, match="read-only"):
            getattr(trace, name)[0, 0] = 7

    def test_arrays_take_part_in_equality(self):
        cfg = SimConfig(params=eq_params(horizon_slots=4), record_level="full")
        a = run_simulation(cfg)
        bumped = a.outbound_latencies_us.copy()
        bumped[2, 3] += 1
        assert a != replace(a, outbound_latencies_us=bumped)
        summary = run_simulation(replace(cfg, record_level="summary"))
        assert a.slots == summary.slots
        assert a != summary

    def test_validate_rejects_mismatched_arrays(self):
        a = run_simulation(SimConfig(params=eq_params(horizon_slots=4), record_level="full"))
        with pytest.raises(AssertionError, match="per-attester arrays"):
            replace(a, votes=None).validate()
        with pytest.raises(AssertionError, match="per-attester arrays"):
            replace(a, attester_payoffs=a.attester_payoffs[:3]).validate()

    def test_validate_rejects_vote_before_arrival(self):
        trace = run_simulation(SimConfig(params=eq_params(horizon_slots=3), record_level="full"))
        release = trace.slots[1].proposer_action.release_time_us
        arrival = release + int(trace.inbound_latencies_us[1, 2])
        assert (trace.votes[1, 2], trace.attestation_times_us[1, 2]) == (1, arrival)
        taus = trace.attestation_times_us.copy()
        taus[1, 2] = arrival - 1
        with pytest.raises(AssertionError, match="slot 1: attester 2 voted before the block"):
            replace(trace, attestation_times_us=taus).validate()
        # an abstention carries no arrival constraint
        votes = trace.votes.copy()
        votes[1, 2] = 0
        replace(trace, votes=votes, attestation_times_us=taus).validate()


class TestAttesterPlane:
    # _evaluate_attesters takes the whole horizon: slot n's block is
    # actions[n], its predecessor actions[n - 1], its committee row n

    def test_vector_matches_scalar_equilibrium(self):
        p = eq_params(attester_count=min_attesters_for_margin(0.5))
        inbound = np.array([0, 250_000, 990_000, 4_000_000])
        prev = ProposerAction(1, p.schedule_time_us(2))
        for release in (p.schedule_time_us(3), p.schedule_time_us(3) + 1):
            action = ProposerAction(1, release)
            actions = [ProposerAction(1, p.schedule_time_us(n)) for n in range(2)]
            actions += [prev, action]
            votes, taus = _evaluate_attesters(
                strategy_spec("equilibrium"), actions, np.tile(inbound, (4, 1)), p
            )
            for i, lat in enumerate(inbound):
                expected = equilibrium_attester(action, prev, 3, int(lat), p)
                assert (votes[3, i], taus[3, i]) == expected

    def test_vector_matches_scalar_honest(self):
        p = eq_params()
        inbound = np.array([0, 1_999_999, 2_000_000, 2_000_001, 9_000_000])
        prev = ProposerAction(1, p.schedule_time_us(3))
        action = ProposerAction(1, p.slot_start_us(4) + 2_000_000)
        actions = [ProposerAction(1, p.schedule_time_us(n)) for n in range(3)]
        actions += [prev, action]
        votes, taus = _evaluate_attesters(
            strategy_spec("honest_spec"), actions, np.tile(inbound, (5, 1)), p
        )
        for i, lat in enumerate(inbound):
            arrival = action.release_time_us + int(lat)
            assert (votes[4, i], taus[4, i]) == honest_spec_attester(arrival, 4, p)

    def test_exchangeability(self):
        # permuting attester indices together with their draws permutes
        # outcomes and leaves every aggregate unchanged
        p = eq_params(attester_count=64)
        rng = RngStream(p.seed, derive_stream_id(ROLE_INBOUND, 0)).generator()
        inbound = sample_latency_array(rng, p.mean_latency_us, 64)
        actions = [ProposerAction(1, p.slot_start_us(0) + 1_500_000)]
        votes, taus = _evaluate_attesters(
            strategy_spec("honest_spec"), actions, inbound[None, :], p
        )
        perm = np.random.default_rng(3).permutation(64)
        votes_p, taus_p = _evaluate_attesters(
            strategy_spec("honest_spec"), actions, inbound[None, perm], p
        )
        assert np.array_equal(votes_p, votes[:, perm])
        assert np.array_equal(taus_p, taus[:, perm])
        assert votes_p.sum() == votes.sum()


def erlang2_cdf(x: float) -> float:
    return 1.0 - math.exp(-x) * (1.0 + x)


class TestComputePayoffs:
    @pytest.mark.parametrize(
        "ratio,target", [(2, 0.5939941502901619), (4, 0.9084218055563291)]
    )
    def test_freshness_probability(self, ratio, target):
        # oracle: the convolution of two exponential legs evaluated at one slot
        from scipy.integrate import quad

        theta = 1.0
        delta = ratio * theta
        numeric, err = quad(
            lambda x: math.exp(-x / theta) / theta * (1 - math.exp(-(delta - x) / theta)),
            0.0,
            delta,
        )
        assert abs(numeric - erlang2_cdf(ratio)) < 1e-10
        assert abs(numeric - target) < 1e-12

        p = ProtocolParams(
            slot_length_us=12_000_000,
            mean_latency_us=12_000_000 // ratio,
            attester_count=1000,
            horizon_slots=40,
            seed=2024 + ratio,
        )
        trace = run_simulation(SimConfig(params=p, record_level="full"))
        n = p.horizon_slots * p.attester_count
        se = math.sqrt(target * (1 - target) / n)
        assert abs(trace.attester_payoffs.sum() / n - target) < 4 * se

    def test_all_skipped_interior_slots_pay_nothing(self):
        # every proposer deviates: no block is canonical, proposers earn zero,
        # and interior attesters earn zero (their next block is never
        # canonical); only final-slot abstentions can be paid, via the
        # canonical closing block.
        p = eq_params(horizon_slots=6, attester_count=30)
        cfg = SimConfig(
            params=p,
            proposer_default=strategy_spec("greedy_delay", delay_us=2_500_000),
            record_level="full",
        )
        trace = run_simulation(cfg)
        assert all(rec.canonical == 0 for rec in trace.slots)
        assert all(rec.proposer_payoff == 0.0 for rec in trace.slots)
        assert all(rec.attester_payoff_total == 0 for rec in trace.slots[:-1])


class TestTraceInvariants:
    def test_mev_conservation_random_configs(self):
        rng = random.Random(77)
        for case in range(25):
            gamma = rng.choice((0.3, 0.5, 2 / 3, 0.9, 1.0))
            n_min = 1 if gamma == 1.0 else min_attesters_for_margin(gamma)
            theta = rng.randrange(100_000, 1_000_000)
            slot_len = theta * rng.randrange(2, 6)
            horizon = rng.randrange(3, 10)
            params = ProtocolParams(
                slot_length_us=slot_len,
                schedule_offset_us=rng.randrange(0, slot_len + 1),
                mean_latency_us=theta,
                vote_threshold=gamma,
                attestation_deadline_us=rng.randrange(0, slot_len),
                attester_count=n_min + rng.randrange(0, 20),
                horizon_slots=horizon,
                seed=rng.randrange(2**32),
            )
            overrides = {}
            for slot in range(horizon):
                if rng.random() < 0.4:
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
            trace = run_simulation(cfg)  # validate() runs inside
            # independent recomputation of MEV conservation
            mev, last = 0.0, trace.genesis_time_us
            for rec in trace.slots:
                if rec.canonical:
                    mev += rec.proposer_payoff - params.base_reward
                    last = rec.proposer_action.release_time_us
            accrued = params.mev_rate * (last - trace.genesis_time_us) / 1e6
            assert math.isclose(mev, accrued, rel_tol=1e-9, abs_tol=1e-12)

    def test_share_always_vote_count_over_n(self):
        p = eq_params(attester_count=50, horizon_slots=5)
        cfg = SimConfig(
            params=p,
            proposer_default=strategy_spec("greedy_delay", delay_us=3_500_000),
            attester_strategy=strategy_spec("honest_spec"),
        )
        trace = run_simulation(cfg)
        for row, rec in zip(_slot_rows(trace), trace.slots):
            assert row["attestation_share"] == float(Fraction(rec.vote_count, 50))
        for bad in (-1, 51):
            slots = (replace(trace.slots[0], vote_count=bad),) + trace.slots[1:]
            with pytest.raises(AssertionError, match="vote_count outside"):
                replace(trace, slots=slots).validate()
