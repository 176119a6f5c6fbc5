import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from timinggames import engine
from timinggames.cli import run_experiment
from timinggames.config import resolve_config
from timinggames.distributions import LatencyDistribution
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
    SLOT_COLUMNS,
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
    min_attesters_for_margin,
)
from timinggames.output import SLOTS_SCHEMA

from helpers import read_csv
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

    # numpy's uint64 cast would read each of these as a seed
    @pytest.mark.parametrize(
        "seed",
        [1.5, True, "7", np.float64(3.0), np.True_, [1, 2.5], [4, False], np.array([1.0])],
        ids=repr,
    )
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            engine.seed_states(seed, [1, 2])
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            RngStream(seed, 5).generator()

    # numpy's uint64 cast would wrap each of these to a seed near 2**64
    @pytest.mark.parametrize(
        "seed",
        [-1, np.int64(-1), np.array([-1]), [np.int8(-3), 4], [2**64 - 1, np.int64(-1)],
         np.array([5, -2], dtype=np.int32), (np.int16(-7),)],
        ids=repr,
    )
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed must fit in 64 unsigned bits"):
            engine.seed_states(seed, [1, 2])
        with pytest.raises(ConfigurationError, match="seed must fit in 64 unsigned bits"):
            RngStream(seed, 5).generator()

    def test_numpy_integer_seeds_read_as_ints(self):
        ids = [3, 2**64 - 1]
        seeds = [np.uint64(2**64 - 1), 0, np.int8(5), np.uint32(2**32 - 1)]
        expected = engine.seed_states([int(s) for s in seeds], ids)
        assert np.array_equal(engine.seed_states(seeds, ids), expected)
        for j, seed in enumerate(seeds):
            assert np.array_equal(engine.seed_states(seed, ids), expected[2 * j : 2 * j + 2])


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

    @pytest.mark.parametrize("theta", [1, 3, 4, 750_000, 1_000_000])
    def test_edge_draws_match_scalar_rounding(self, theta):
        # the smallest draw, the median and the largest double below 1
        draws = [0.0, 0.5, 1 - 2**-53]

        class FixedDraws:
            def __init__(self, values):
                self.values = list(values)

            def random(self, size=None):
                if size is None:
                    return self.values.pop(0)
                return np.array(self.values, dtype=np.float64).reshape(size)

        vector = sample_latency_array(FixedDraws(draws), theta, len(draws))
        scalars = [sample_latency(FixedDraws([u]), theta) for u in draws]
        assert vector.dtype == np.int64
        assert vector.tolist() == scalars

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
        assert trace.canonical.tolist() == [1] * 20
        expected = p.base_reward + p.mev_rate * (p.slot_length_us / 1e6)
        assert trace.proposer_payoff.tolist() == [expected] * 20

    def test_single_slot_horizon(self):
        p = eq_params(horizon_slots=1)
        trace = run_simulation(SimConfig(params=p))
        assert trace.canonical.tolist() == [1]
        assert trace.closing_action.build_on_prev == 1
        assert trace.closing_action.release_time_us == p.schedule_time_us(1)

    def test_full_share_every_slot(self):
        trace = run_simulation(SimConfig(params=eq_params()))
        assert (trace.vote_count == trace.params.attester_count).all()
        assert np.array_equal(trace.fresh_count, trace.vote_count)


class TestRunSimulationDeviation:
    def test_forced_deviation_payoffs(self):
        p = eq_params(horizon_slots=10)
        cfg = SimConfig(
            params=p,
            proposer_overrides={5: strategy_spec("greedy_delay", delay_us=2_001_000)},
        )
        trace = run_simulation(cfg)
        assert trace.canonical.tolist() == [1, 1, 1, 1, 1, 0, 1, 1, 1, 1]
        assert trace.proposer_payoff[5] == 0.0
        assert trace.vote_count[5] == 0
        # the next block's reward window spans two slots
        expected = p.base_reward + p.mev_rate * (2 * p.slot_length_us / 1e6)
        assert trace.proposer_payoff[6] == expected

    def test_early_deviation_also_skipped(self):
        p = eq_params(horizon_slots=10)
        cfg = SimConfig(
            params=p,
            proposer_overrides={5: strategy_spec("greedy_delay", delay_us=0)},
        )
        trace = run_simulation(cfg)
        assert trace.canonical[5] == 0
        assert trace.proposer_payoff[5] == 0.0

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
        assert trace.canonical[4] == 0
        assert trace.canonical[5] == 0
        expected = p.base_reward + p.mev_rate * (3 * p.slot_length_us / 1e6)
        assert trace.proposer_payoff[6] == expected

    def test_release_before_slot_start_is_hard_error(self):
        # no named strategy can release early, so a faulty plan stands in
        p = eq_params(horizon_slots=4)
        spec = strategy_spec("fixed", delay_us=p.schedule_offset_us)
        config = SimConfig(params=p, proposer_overrides={2: spec})
        plan = list(config.proposer_plan)
        plan[2] = plan[2]._replace(delay_us=-1)
        object.__setattr__(config, "proposer_plan", tuple(plan))
        start = p.slot_start_us(2)
        message = f"slot 2: proposer strategy released at {start - 1} before the slot start {start}"
        with pytest.raises(SimulationError, match=f"^{message}$"):
            run_simulation(config)

    def test_release_at_next_slot_start_is_allowed(self):
        p = eq_params(horizon_slots=4)
        spec = strategy_spec("fixed", delay_us=p.slot_length_us, build_on_prev=1)
        trace = run_simulation(SimConfig(params=p, proposer_overrides={1: spec}))
        assert trace.release_time_us[1] == p.slot_start_us(2)

    def test_laggy_release_past_the_slot_is_hard_error(self):
        # a 30 s signing delay lands two slots later
        p = eq_params(horizon_slots=4)
        spec = strategy_spec("laggy", signing_delay={"family": "degenerate", "value": 30_000})
        with pytest.raises(SimulationError, match="slot 2: .* after the next slot's start"):
            run_simulation(SimConfig(params=p, proposer_overrides={2: spec}))

    # 1e306 ms is an infinite number of microseconds, and a NaN delay counts
    # as one: a draw beyond float64 names the parameter that drew it; a
    # distribution cannot hold NaN, so the draw is patched in
    @pytest.mark.parametrize("value", [1e306, math.nan])
    def test_infinite_laggy_delay_is_hard_error(self, value, monkeypatch):
        p = eq_params(horizon_slots=4)
        monkeypatch.setattr(LatencyDistribution, "sample", lambda dist, rng, size=None: value)
        spec = strategy_spec("laggy", signing_delay=LatencyDistribution.degenerate(1.0))
        message = "slot 2: the laggy signing_delay drew .* us, beyond float64"
        with pytest.raises(ConfigurationError, match=message):
            run_simulation(SimConfig(params=p, proposer_overrides={2: spec}))

    @pytest.mark.filterwarnings("error")
    def test_laggy_draw_beyond_float64_is_silent(self):
        # an exponential mean of 1e308 ms overflows in the draw itself
        p = eq_params(horizon_slots=4)
        huge = {"family": "exponential", "mean": 1e308}
        spec = strategy_spec("laggy", signing_delay=huge)
        with pytest.raises(ConfigurationError, match="laggy signing_delay drew inf us"):
            run_simulation(SimConfig(params=p, proposer_default=spec))

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
        sample = LatencyDistribution.sample

        def spy(dist, rng, size=None):
            received.append((dist, rng))
            return sample(dist, rng, size)

        built = []
        original = RngStream.generator

        def counting(self):
            built.append(np.ndim(self.stream_id))
            return original(self)

        monkeypatch.setattr(RngStream, "generator", counting)
        monkeypatch.setattr(LatencyDistribution, "sample", spy)
        p = eq_params(horizon_slots=4)
        run_simulation(SimConfig(params=p))
        assert built == [1]  # the latency plane only
        assert received == []
        trace = run_simulation(
            SimConfig(params=p, proposer_overrides={2: strategy_spec("laggy")})
        )
        assert built == [1, 1, 1]  # plus the proposer streams
        # one draw, for slot 2, from slot 2's proposer stream
        assert [dist for dist, _ in received] == [engine.DEFAULT_SIGNING_DELAY]
        rng = received[0][1]
        assert isinstance(rng, np.random.Generator)
        own = RngStream(p.seed, derive_stream_id(ROLE_PROPOSER, 2)).generator()
        delay_ms = sample(engine.DEFAULT_SIGNING_DELAY, own)
        assert rng.bit_generator.state == own.bit_generator.state
        assert trace.release_time_us[2] == p.slot_start_us(2) + math.floor(delay_ms * 1000 + 0.5)

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

    def test_proposer_strategy_must_be_named(self):
        p = eq_params()
        for spec in ("equilibrium", lambda slot, prev, rng: ProposerAction(1, 0)):
            with pytest.raises(ConfigurationError, match="must be a StrategySpec"):
                SimConfig(params=p, proposer_default=spec)
            with pytest.raises(ConfigurationError, match="must be a StrategySpec"):
                SimConfig(params=p, proposer_overrides={1: spec})


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
        assert trace.vote_count[0] == votes
        assert trace.canonical[0] == 1


class TestDeterminism:
    def test_identical_configs_identical_traces(self):
        p = eq_params(horizon_slots=6, attester_count=40)
        cfg = SimConfig(params=p, attester_strategy=strategy_spec("honest_spec"),
                        proposer_default=strategy_spec("laggy"), record_level="full")
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a == b
        assert repr(a) == repr(b)
        copied = pickle.loads(pickle.dumps(cfg))
        assert copied == cfg
        assert run_simulation(copied) == a

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
        for name in SLOT_COLUMNS:
            assert np.array_equal(getattr(full, name), getattr(summary, name)), name
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
        assert a == replace(summary, **{name: getattr(a, name) for name in ATTESTER_ARRAYS})
        assert a != summary
        bumped = a.proposer_payoff.copy()
        bumped[1] += 1e-9
        assert a != replace(a, proposer_payoff=bumped)

    def test_validate_rejects_mismatched_arrays(self):
        a = run_simulation(SimConfig(params=eq_params(horizon_slots=4), record_level="full"))
        with pytest.raises(AssertionError, match="per-attester arrays"):
            replace(a, votes=None).validate()
        with pytest.raises(AssertionError, match="per-attester arrays"):
            replace(a, attester_payoffs=a.attester_payoffs[:3]).validate()

    def test_validate_rejects_vote_before_arrival(self):
        trace = run_simulation(SimConfig(params=eq_params(horizon_slots=3), record_level="full"))
        arrival = int(trace.release_time_us[1] + trace.inbound_latencies_us[1, 2])
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
    # _evaluate_attesters takes the whole horizon: slot n's block is released
    # at release[n] with build flag build[n]; its committee is row n

    def test_vector_matches_scalar_equilibrium(self):
        p = eq_params(attester_count=min_attesters_for_margin(0.5))
        inbound = np.array([0, 250_000, 990_000, 4_000_000])
        prev = ProposerAction(1, p.schedule_time_us(2))
        for release_3 in (p.schedule_time_us(3), p.schedule_time_us(3) + 1):
            for build_3 in (0, 1):
                action = ProposerAction(build_3, release_3)
                release = np.array([p.schedule_time_us(n) for n in range(3)] + [release_3])
                build = np.array([1, 1, 1, build_3])
                votes, taus = _evaluate_attesters(
                    strategy_spec("equilibrium"), release, build, np.tile(inbound, (4, 1)), p
                )
                for i, lat in enumerate(inbound):
                    expected = equilibrium_attester(action, prev, 3, int(lat), p)
                    assert (votes[3, i], taus[3, i]) == expected

    def test_vector_matches_scalar_honest(self):
        p = eq_params()
        inbound = np.array([0, 1_999_999, 2_000_000, 2_000_001, 9_000_000])
        release_4 = p.slot_start_us(4) + 2_000_000
        release = np.array([p.schedule_time_us(n) for n in range(4)] + [release_4])
        votes, taus = _evaluate_attesters(
            strategy_spec("honest_spec"), release, np.ones(5), np.tile(inbound, (5, 1)), p
        )
        for i, lat in enumerate(inbound):
            arrival = release_4 + int(lat)
            assert (votes[4, i], taus[4, i]) == honest_spec_attester(arrival, 4, p)

    def test_exchangeability(self):
        # permuting attester indices together with their draws permutes
        # outcomes and leaves every aggregate unchanged
        p = eq_params(attester_count=64)
        rng = RngStream(p.seed, derive_stream_id(ROLE_INBOUND, 0)).generator()
        inbound = sample_latency_array(rng, p.mean_latency_us, 64)
        release, build = np.array([p.slot_start_us(0) + 1_500_000]), np.ones(1)
        votes, taus = _evaluate_attesters(
            strategy_spec("honest_spec"), release, build, inbound[None, :], p
        )
        perm = np.random.default_rng(3).permutation(64)
        votes_p, taus_p = _evaluate_attesters(
            strategy_spec("honest_spec"), release, build, inbound[None, perm], p
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
        assert not trace.canonical.any()
        assert not trace.proposer_payoff.any()
        assert not trace.attester_payoff_total[:-1].any()


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

    def test_share_always_vote_count_over_n(self, tmp_path):
        # slots.csv, written from the trace's own columns: every column as
        # the trace has it, and the share the vote count over N, rounded once
        p = eq_params(attester_count=50, horizon_slots=5)
        proposer = {"name": "greedy_delay", "delay_us": 3_500_000}
        raw = {
            "command": "simulate",
            "params": {k: getattr(p, k) for k in ("schedule_offset_us", "attester_count",
                                                  "horizon_slots", "seed")},
            "options": {"proposer": proposer, "attester": {"name": "honest_spec"}},
        }
        run_experiment(resolve_config(raw, out=str(tmp_path)))
        rows = read_csv(tmp_path / "slots.csv", SLOTS_SCHEMA)
        trace = run_simulation(
            SimConfig(
                params=p,
                proposer_default=strategy_spec("greedy_delay", delay_us=3_500_000),
                attester_strategy=strategy_spec("honest_spec"),
            )
        )
        assert [row["slot"] for row in rows] == list(range(5))
        for name in SLOT_COLUMNS:
            assert [row[name] for row in rows] == getattr(trace, name).tolist(), name
        for row, votes in zip(rows, trace.vote_count.tolist()):
            assert row["attestation_share"] == float(Fraction(votes, 50))

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda t: {"vote_count": _set(t.vote_count, 2, -1)}, r"slot 2: vote_count outside"),
            (lambda t: {"vote_count": _set(t.vote_count, 2, 51)}, r"slot 2: vote_count outside"),
            (
                lambda t: {"canonical": _set(t.canonical, 2, 1 - t.canonical[2])},
                r"slot 2: canonical flag inconsistent",
            ),
            (lambda t: {"canonical": _set(t.canonical, 2, 2)}, r"slot 2: canonical flag"),
            (
                lambda t: {"fresh_vote_count": _set(t.fresh_vote_count, 2, t.fresh_count[2] + 1)},
                r"slot 2: fresh_vote_count exceeds fresh_count",
            ),
            (
                lambda t: {"build_on_prev": t.build_on_prev[:-1]},
                r"build_on_prev has shape \(3,\); a trace of 4 slots needs \(4,\)",
            ),
            (
                lambda t: {"proposer_payoff": _set(t.proposer_payoff, 1, t.proposer_payoff[1] + 1)},
                r"slot 3: canonical proposers through this slot were paid",
            ),
            (
                lambda t: {"proposer_payoff": _set(t.proposer_payoff, 2, 1.0)},
                r"slot 2: a block that is not canonical paid its proposer 1.0 ETH",
            ),
        ],
        ids=[
            "votes-below-0", "votes-above-n", "canonical-flipped", "canonical-2",
            "fresh-votes-above-fresh", "short-column", "mev-off-by-1-eth", "orphan-paid",
        ],
    )
    def test_every_slot_invariant_can_fail(self, corrupt, message):
        # slot 2 is skipped, so no other check fires on a vote count outside
        # [0, N] there: the canonical flag it implies is 0 either way
        skipped = {2: strategy_spec("greedy_delay", delay_us=2_001_000)}
        trace = run_simulation(
            SimConfig(params=eq_params(horizon_slots=4), proposer_overrides=skipped)
        )
        assert trace.canonical.tolist() == [1, 1, 0, 1]
        for name in SLOT_COLUMNS:
            column = getattr(trace, name)
            assert column.dtype == (np.float64 if name == "proposer_payoff" else np.int64)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        trace.validate()
        with pytest.raises(AssertionError, match=message):
            replace(trace, **corrupt(trace)).validate()


def _set(column, slot, value):
    """A copy of ``column`` with one entry changed."""
    changed = column.copy()
    changed[slot] = value
    return changed
