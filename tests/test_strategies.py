
import math

import numpy as np
import pytest

from timinggames.distributions import LatencyDistribution
from timinggames.model import ConfigurationError, ProposerAction, ProtocolParams
from timinggames.strategies import (
    ProposerContext,
    equilibrium_proposer,
    fixed_action_proposer,
    greedy_delay_proposer,
    laggy_proposer,
    optimal_delay,
)

from oracles import equilibrium_attester, honest_spec_attester

ETH = ProtocolParams(schedule_offset_us=2_000_000)


def proposer_ctx(slot, prev=None, params=ETH):
    if slot > 0 and prev is None:
        prev = ProposerAction(1, params.schedule_time_us(slot - 1))
    return ProposerContext(slot=slot, prev_proposer_action=prev, params=params)


def coordinated_vote(slot, action, latency, prev=None, params=ETH):
    """The coordinated attester's (vote, release_time_us) for ``action``,
    after an on-schedule predecessor unless ``prev`` is given."""
    if slot > 0 and prev is None:
        prev = ProposerAction(1, params.schedule_time_us(slot - 1))
    return equilibrium_attester(action, prev, slot, latency, params)


class TestEquilibriumProposer:
    def test_on_schedule_release(self):
        act = equilibrium_proposer(proposer_ctx(5))
        assert act == ProposerAction(build_on_prev=1, release_time_us=62_000_000)

    def test_late_predecessor_skipped(self):
        prev = ProposerAction(1, ETH.schedule_time_us(4) + 1)
        act = equilibrium_proposer(proposer_ctx(5, prev=prev))
        assert act.build_on_prev == 0
        assert act.release_time_us == 62_000_000

    def test_zero_offset_is_slot_start(self):
        p = ProtocolParams(schedule_offset_us=0)
        act = equilibrium_proposer(proposer_ctx(3, params=p))
        assert act.release_time_us == 36_000_000

    def test_slot_zero_builds_on_genesis(self):
        act = equilibrium_proposer(ProposerContext(0, None, ETH))
        assert act.build_on_prev == 1

    def test_early_predecessor_still_built_on(self):
        # the schedule condition is "no later than", so an early block is fine
        prev = ProposerAction(1, ETH.slot_start_us(4))
        assert equilibrium_proposer(proposer_ctx(5, prev=prev)).build_on_prev == 1


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
        act = greedy_delay_proposer(3_000_000, proposer_ctx(4))
        assert act.release_time_us == 51_000_000
        assert act.build_on_prev == 1

    def test_zero_delay_matches_slot_start(self):
        act = greedy_delay_proposer(0, proposer_ctx(4))
        assert act.release_time_us == ETH.slot_start_us(4)

    def test_full_slot_delay(self):
        act = greedy_delay_proposer(ETH.slot_length_us, proposer_ctx(4))
        assert act.release_time_us == ETH.slot_start_us(5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            greedy_delay_proposer(-1, proposer_ctx(4))

    def test_fixed_action_controls_build_flag(self):
        act = fixed_action_proposer(2_000_000, 0, proposer_ctx(4))
        assert (act.build_on_prev, act.release_time_us) == (0, 50_000_000)


class TestLaggyProposer:
    def test_degenerate_median_release(self):
        dist = LatencyDistribution.degenerate(774.0)
        act = laggy_proposer(dist, proposer_ctx(3), np.random.default_rng(0))
        assert act.release_time_us == ETH.slot_start_us(3) + 774_000

    def test_degenerate_zero_is_slot_start(self):
        dist = LatencyDistribution.degenerate(0.0)
        act = laggy_proposer(dist, proposer_ctx(3), np.random.default_rng(0))
        assert act.release_time_us == ETH.slot_start_us(3)

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
