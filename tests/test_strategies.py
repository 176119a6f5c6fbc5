
import math

import numpy as np
import pytest

from timinggames.distributions import FAMILY_PARAMETERS, LatencyDistribution
from timinggames.engine import SimConfig, proposer_pass, strategy_spec
from timinggames.model import ConfigurationError, ProposerAction, ProtocolParams
from timinggames.strategies import optimal_delay, schedule_builds

from oracles import equilibrium_attester, honest_spec_attester

ETH = ProtocolParams(schedule_offset_us=2_000_000)


def on_schedule_prev(slot, params=ETH):
    """The previous slot's on-schedule action (none before slot 0)."""
    return ProposerAction(1, params.schedule_time_us(slot - 1)) if slot > 0 else None


def coordinated_vote(slot, action, latency, prev=None, params=ETH):
    """The coordinated attester's (vote, release_time_us) for ``action``,
    after an on-schedule predecessor unless ``prev`` is given."""
    if prev is None:
        prev = on_schedule_prev(slot, params)
    return equilibrium_attester(action, prev, slot, latency, params)


def pass_action(slot, overrides=None, params=ETH):
    """Slot ``slot``'s action as ``proposer_pass`` computes it: coordinated
    proposers, but for the strategies of ``overrides`` (slot -> spec)."""
    release, build = proposer_pass(SimConfig(params=params, proposer_overrides=overrides or {}))
    return ProposerAction(int(build[slot]), int(release[slot]))


def greedy_delay(delay_us, slot):
    """The action of the named ``greedy_delay`` strategy in ``slot``."""
    return pass_action(slot, {slot: strategy_spec("greedy_delay", delay_us=delay_us)})


def fixed(delay_us, build_on_prev):
    return strategy_spec("fixed", delay_us=delay_us, build_on_prev=build_on_prev)


class TestEquilibriumProposer:
    def test_on_schedule_release(self):
        act = pass_action(5)
        assert act == ProposerAction(build_on_prev=1, release_time_us=62_000_000)

    def test_late_predecessor_skipped(self):
        act = pass_action(5, {4: fixed(ETH.schedule_offset_us + 1, 1)})
        assert act.build_on_prev == 0
        assert act.release_time_us == 62_000_000

    def test_zero_offset_is_slot_start(self):
        act = pass_action(3, params=ProtocolParams(schedule_offset_us=0))
        assert act.release_time_us == 36_000_000

    def test_slot_zero_builds_on_genesis(self):
        # even when slot 0 itself is late
        assert pass_action(0).build_on_prev == 1
        assert pass_action(0, {0: fixed(ETH.slot_length_us, 1)}).build_on_prev == 1
        assert pass_action(1, {0: fixed(ETH.slot_length_us, 1)}).build_on_prev == 0

    def test_early_predecessor_still_built_on(self):
        # the schedule condition is "no later than", so an early block is fine
        assert pass_action(5, {4: fixed(0, 1)}).build_on_prev == 1

    def test_closing_flag_follows_the_last_release(self):
        # the schedule's last flag is the closing proposer's
        p = ProtocolParams(schedule_offset_us=2_000_000, horizon_slots=3)
        late = SimConfig(params=p, proposer_overrides={2: fixed(3_000_000, 1)})
        release, build = proposer_pass(late)
        assert build.tolist() == [1, 1, 1]
        assert schedule_builds(release, p).tolist() == [1, 1, 1, 0]


class TestEquilibriumAttester:
    def test_votes_on_conforming_block(self):
        action = ProposerAction(1, 62_000_000)
        assert coordinated_vote(5, action, 300_000) == (1, 62_300_000)

    def test_late_release_rejected(self):
        action = ProposerAction(1, 62_001_000)
        assert coordinated_vote(5, action, 300_000) == (0, 60_000_000)

    def test_early_release_rejected(self):
        # releasing at the slot start is still a deviation when the schedule
        # says two seconds in
        action = ProposerAction(1, 60_000_000)
        vote, _ = coordinated_vote(5, action, 300_000)
        assert vote == 0

    def test_build_flag_flip_rejected(self):
        action = ProposerAction(0, 62_000_000)
        vote, _ = coordinated_vote(5, action, 300_000)
        assert vote == 0

    def test_vote_respects_arrival_constraint(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            slot = int(rng.integers(0, 20))
            lat = int(rng.integers(0, 5_000_000))
            conforming = rng.random() < 0.5
            t = ETH.schedule_time_us(slot) + (0 if conforming else int(rng.integers(1, 10**6)))
            vote, tau = coordinated_vote(slot, ProposerAction(1, t), lat)
            if vote == 1:
                assert tau >= t + lat
            assert tau >= ETH.slot_start_us(slot)


class TestHonestSpecAttester:
    def test_votes_on_arrival(self):
        arrival = 24_000_000 + 3_900_000
        assert honest_spec_attester(arrival, 2, ETH) == (1, arrival)

    def test_deadline_inclusive(self):
        assert honest_spec_attester(28_000_000, 2, ETH) == (1, 28_000_000)

    def test_just_past_deadline_abstains(self):
        assert honest_spec_attester(28_000_001, 2, ETH) == (0, 28_000_000)

    def test_missing_block_abstains_at_deadline(self):
        assert honest_spec_attester(None, 2, ETH) == (0, 28_000_000)

    def test_huge_deadline_is_attest_on_arrival(self):
        p = ProtocolParams(attestation_deadline_us=10**12)
        rng = np.random.default_rng(9)
        for _ in range(100):
            slot = int(rng.integers(0, 10))
            arrival = p.slot_start_us(slot) + int(rng.integers(0, 10**9))
            assert honest_spec_attester(arrival, slot, p) == (1, arrival)


class TestDelayProposers:
    def test_greedy_delay(self):
        act = greedy_delay(3_000_000, 4)
        assert act.release_time_us == 51_000_000
        assert act.build_on_prev == 1

    def test_zero_delay_matches_slot_start(self):
        act = greedy_delay(0, 4)
        assert act.release_time_us == ETH.slot_start_us(4)

    def test_full_slot_delay(self):
        act = greedy_delay(ETH.slot_length_us, 4)
        assert act.release_time_us == ETH.slot_start_us(5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError, match="delay_us must lie within"):
            greedy_delay(-1, 4)

    def test_fixed_action_controls_build_flag(self):
        act = pass_action(4, {4: fixed(2_000_000, 0)})
        assert (act.build_on_prev, act.release_time_us) == (0, 50_000_000)


def laggy(value_ms):
    return strategy_spec("laggy", signing_delay=LatencyDistribution.degenerate(value_ms))


class TestLaggyProposer:
    def test_degenerate_median_release(self):
        act = pass_action(3, {3: laggy(774.0)})
        assert act == ProposerAction(1, ETH.slot_start_us(3) + 774_000)

    def test_degenerate_zero_is_slot_start(self):
        act = pass_action(3, {3: laggy(0.0)})
        assert act == ProposerAction(1, ETH.slot_start_us(3))

    def test_half_microsecond_rounds_up(self):
        assert pass_action(3, {3: laggy(0.0005)}).release_time_us == ETH.slot_start_us(3) + 1

    def test_lognormal_sample_median(self):
        # closed-form median of the configured distribution is the oracle
        dist = LatencyDistribution.lognormal(median=418.0, sigma=0.5)
        rng = np.random.default_rng(123)
        samples = dist.sample(rng, size=100_000)
        med = float(np.median(samples))
        assert abs(med - 418.0) / 418.0 < 0.02


class TestDistributions:
    @pytest.mark.parametrize(
        "dist",
        [
            LatencyDistribution.degenerate(250.0),
            LatencyDistribution.exponential(300.0),
            LatencyDistribution.lognormal(median=418.0, sigma=0.5),
        ],
    )
    def test_median_calibration(self, dist):
        rng = np.random.default_rng(77)
        samples = np.asarray(dist.sample(rng, size=100_000), dtype=float)
        assert samples.min() >= 0.0
        target = {
            "degenerate": dist.value,
            "exponential": dist.mean * math.log(2.0),
            "lognormal": dist.median,
        }[dist.family]
        assert abs(float(np.median(samples)) - target) <= 0.02 * max(target, 1e-9)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"family": "exponential", "mean": "x"}, "exponential mean must be a number"),
            ({"family": "lognormal", "median": 418, "sigma": None},
             "lognormal sigma must be a number"),
            ({"family": "degenerate", "value": True}, "degenerate value must be a number"),
            ({"family": "degenerate", "value": float("inf")}, "degenerate value must be finite"),
            ({"family": "lognormal", "median": float("nan")}, "lognormal median must be finite"),
            ({"family": "exponential", "mean": 10**400}, "exponential mean must be finite"),
        ],
    )
    def test_parameter_must_be_a_finite_number(self, spec, message):
        with pytest.raises(ConfigurationError, match=message):
            LatencyDistribution.from_config(spec)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "family,key",
        [("degenerate", "value"), ("exponential", "mean"), ("lognormal", "median"),
         ("lognormal", "sigma")],
    )
    def test_constructor_rejects_non_finite_parameter(self, family, key, value):
        kwargs = {"value": 1.0, "mean": 1.0, "median": 1.0, "sigma": 0.5, key: value}
        with pytest.raises(ConfigurationError, match=f"^{family} {key} must be finite, got "):
            LatencyDistribution(family, **kwargs)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"family": "exponential", "mean": 100, "value": 3},
             "unknown exponential distribution keys: value; allowed: family, mean"),
            ({"family": "degenerate", "value": 0.1, "mean": 5},
             "unknown degenerate distribution keys: mean; allowed: family, value"),
            ({"family": "exponential", "mean": 100, "median": -1},
             "unknown exponential distribution keys: median; allowed: family, mean"),
            ({"family": "lognormal", "median": 418, "sigma": 0.5, "mean": 1, "extra": 2},
             "unknown lognormal distribution keys: extra, mean; allowed: family, median, sigma"),
        ],
    )
    def test_key_its_family_does_not_read_rejected(self, spec, message):
        with pytest.raises(ConfigurationError) as caught:
            LatencyDistribution.from_config(spec)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "family,key", [("degenerate", "value"), ("exponential", "mean"), ("lognormal", "median")]
    )
    def test_required_parameter(self, family, key):
        with pytest.raises(ConfigurationError) as caught:
            LatencyDistribution.from_config({"family": family})
        assert str(caught.value) == f"{family} distribution requires '{key}'"

    def test_family_parameters_read_from_config(self):
        # each family from its own keys; a lognormal sigma defaults to 0.5
        assert LatencyDistribution.from_config({"family": "degenerate", "value": 2}) == \
            LatencyDistribution.degenerate(2.0)
        assert LatencyDistribution.from_config({"family": "exponential", "mean": 3}) == \
            LatencyDistribution.exponential(3.0)
        assert LatencyDistribution.from_config({"family": "lognormal", "median": 418}) == \
            LatencyDistribution.lognormal(418.0, 0.5)
        assert LatencyDistribution.from_config(
            {"family": "lognormal", "median": 418, "sigma": 0.2}
        ) == LatencyDistribution.lognormal(418.0, 0.2)

    @pytest.mark.parametrize(
        "family,key,value,message",
        [
            ("degenerate", "value", -1.0, "degenerate value must be non-negative"),
            ("exponential", "mean", 0.0, "exponential mean must be positive"),
            ("lognormal", "median", 0.0, "lognormal median must be positive"),
            ("lognormal", "sigma", -0.5, "lognormal sigma must be positive"),
        ],
    )
    def test_parameter_out_of_range_rejected(self, family, key, value, message):
        spec = {"family": family, **dict.fromkeys(FAMILY_PARAMETERS[family], 1), key: value}
        with pytest.raises(ConfigurationError) as caught:
            LatencyDistribution.from_config(spec)
        assert str(caught.value) == message

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyDistribution.from_config({"family": "weibull", "mean": 1.0})
        with pytest.raises(ConfigurationError):
            LatencyDistribution.from_config({"family": "exponential", "mean": 1.0, "mode": 2})


def mc_largest_viable_delay(deadline_us, theta_us, gamma, seed, draws=400_000):
    """Brute-force oracle: sweep delays on a 1 ms grid and return the largest
    one whose Monte Carlo attestation share still meets the threshold."""
    rng = np.random.default_rng(seed)
    latencies = -theta_us * np.log1p(-rng.random(draws))
    best = 0
    for delay in range(0, deadline_us + 1, 1000):
        share = float(np.mean(latencies <= deadline_us - delay))
        if share >= gamma:
            best = delay
    return best


class TestOptimalDelay:
    def test_frozen_values(self):
        p = ProtocolParams(attestation_deadline_us=4_000_000, mean_latency_us=1_000_000)
        assert optimal_delay(p) == 3_306_853
        p23 = ProtocolParams(
            attestation_deadline_us=4_000_000,
            mean_latency_us=1_000_000,
            vote_threshold=2 / 3,
        )
        assert optimal_delay(p23) == 2_901_388

    @pytest.mark.parametrize("gamma,seed", [(0.5, 21), (2 / 3, 22)])
    def test_against_bruteforce(self, gamma, seed):
        p = ProtocolParams(vote_threshold=gamma)
        brute = mc_largest_viable_delay(
            p.attestation_deadline_us, p.mean_latency_us, gamma, seed
        )
        assert abs(optimal_delay(p) - brute) <= 10_000  # MC noise on a 1 ms grid

    def test_small_threshold_approaches_deadline(self):
        p = ProtocolParams(vote_threshold=1e-9, attester_count=1000)
        assert optimal_delay(p) >= p.attestation_deadline_us - 10

    def test_full_threshold_rejected(self):
        p = ProtocolParams(vote_threshold=1.0)
        with pytest.raises(ConfigurationError):
            optimal_delay(p)

    def test_clamped_at_zero(self):
        # tiny deadline with slow network: no viable delay, clamp to 0
        p = ProtocolParams(
            slot_length_us=12_000_000,
            mean_latency_us=6_000_000,
            attestation_deadline_us=100_000,
        )
        assert optimal_delay(p) == 0
