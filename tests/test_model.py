import random
from fractions import Fraction

import pytest

from timinggames.model import (
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
    min_attesters_for_margin,
    proposer_payoff,
)

from oracles import attester_payoff, canonical_status


def make_params(**kw):
    return ProtocolParams(**kw)


class TestProtocolParams:
    def test_defaults_valid(self):
        p = make_params()
        assert p.slot_length_us == 12_000_000
        assert p.genesis_time_us == -12_000_000

    def test_slot_must_cover_two_latencies(self):
        with pytest.raises(ConfigurationError):
            make_params(slot_length_us=1_999_999, mean_latency_us=1_000_000)
        # boundary is inclusive
        make_params(slot_length_us=2_000_000, mean_latency_us=1_000_000)

    def test_offset_bounded_by_slot(self):
        with pytest.raises(ConfigurationError):
            make_params(schedule_offset_us=12_000_001)
        make_params(schedule_offset_us=12_000_000)

    @pytest.mark.parametrize("gamma", [0.0, -0.1, 1.5])
    def test_threshold_range(self, gamma):
        with pytest.raises(ConfigurationError):
            make_params(vote_threshold=gamma)

    def test_margin_invariant(self):
        assert min_attesters_for_margin(0.5) == 3
        assert min_attesters_for_margin(2 / 3) == 4
        with pytest.raises(ConfigurationError):
            make_params(vote_threshold=2 / 3, attester_count=3)
        make_params(vote_threshold=2 / 3, attester_count=4)
        # threshold 1 has no margin requirement
        make_params(vote_threshold=1.0, attester_count=1)

    def test_margin_reads_threshold_at_its_decimal_value(self):
        # 4/5 and 9/10, not the binary doubles just above them
        assert min_attesters_for_margin(0.8) == 6
        assert min_attesters_for_margin(0.9) == 11
        make_params(vote_threshold=0.8, attester_count=6)
        make_params(vote_threshold=0.9, attester_count=11)
        with pytest.raises(ConfigurationError):
            make_params(vote_threshold=0.8, attester_count=5)
        with pytest.raises(ConfigurationError):
            make_params(vote_threshold=0.9, attester_count=10)

    def test_positive_rewards_required(self):
        with pytest.raises(ConfigurationError):
            make_params(base_reward=0.0)
        with pytest.raises(ConfigurationError):
            make_params(mev_rate=-1.0)

    def test_genesis_one_slot_before_schedule(self):
        p = make_params(schedule_offset_us=2_000_000)
        assert p.genesis_time_us == -10_000_000
        assert p.schedule_time_us(0) - p.genesis_time_us == p.slot_length_us


class TestProposerPayoff:
    def test_full_slot_gap(self):
        # 12 s of accrual at 0.0065 ETH/s on top of the 0.04 base
        p = make_params()
        pay = proposer_payoff(12_000_000, 0, 1, p)
        assert pay == 0.118
        assert pay == 0.04 + 0.0065 * 12.0

    def test_not_canonical_pays_zero(self):
        p = make_params()
        assert proposer_payoff(99_000_000, 0, 0, p) == 0.0

    def test_zero_gap_pays_base_only(self):
        p = make_params()
        assert proposer_payoff(5_000_000, 5_000_000, 1, p) == 0.04

    def test_negative_gap_clipped(self):
        p = make_params()
        assert proposer_payoff(1_000_000, 9_000_000, 1, p) == p.base_reward

    def test_monotone_in_release_time(self):
        p = make_params()
        rng = random.Random(11)
        for _ in range(200):
            t0 = rng.randrange(0, 10**8)
            bump = rng.randrange(0, 10**7)
            base = rng.randrange(-p.slot_length_us, 10**8)
            assert proposer_payoff(t0 + bump, base, 1, p) >= proposer_payoff(t0, base, 1, p)

    def test_never_negative(self):
        p = make_params()
        rng = random.Random(12)
        for _ in range(200):
            pay = proposer_payoff(
                rng.randrange(0, 10**8), rng.randrange(-10**7, 10**8), rng.choice((0, 1)), p
            )
            assert pay >= 0.0


class TestAttesterPayoff:
    def test_correct_and_fresh(self):
        assert attester_payoff(1, 1, 62_300_000, 500_000, 74_000_000, 1) == 1

    def test_wrong_vote(self):
        assert attester_payoff(0, 1, 62_300_000, 500_000, 74_000_000, 1) == 0

    def test_freshness_boundary_inclusive(self):
        # arriving exactly at the next release counts
        assert attester_payoff(1, 1, 73_000_000, 1_000_000, 74_000_000, 1) == 1
        # one microsecond past it does not
        assert attester_payoff(1, 1, 73_000_001, 1_000_000, 74_000_000, 1) == 0

    def test_next_block_must_be_canonical(self):
        assert attester_payoff(1, 1, 62_000_000, 0, 74_000_000, 0) == 0

    def test_correct_abstention_can_pay(self):
        assert attester_payoff(0, 0, 60_000_000, 1_000, 74_000_000, 1) == 1


class TestCanonicalStatus:
    def test_full_share_builds(self):
        assert canonical_status(1, 1.0, 2 / 3) == 1

    def test_next_proposer_skips(self):
        assert canonical_status(0, 1.0, 2 / 3) == 0

    def test_threshold_equality_inclusive(self):
        gamma = 2 / 3
        assert canonical_status(1, gamma, gamma) == 1
        assert canonical_status(1, Fraction(1, 2), 0.5) == 1

    def test_exact_rational_comparison(self):
        # 2/3 as an exact rational clears a float threshold that rounds below it
        assert canonical_status(1, Fraction(2, 3), 2 / 3) == 1
        assert canonical_status(1, Fraction(665, 1000), 2 / 3) == 0

    def test_decimal_threshold_equality_inclusive(self):
        # 0.2 and 0.9 are not binary fractions; their doubles sit just above
        # 1/5 and 9/10, which must not turn an exact-equality share away
        assert canonical_status(1, Fraction(2, 10), 0.2) == 1
        assert canonical_status(1, Fraction(9, 10), 0.9) == 1
        assert canonical_status(1, Fraction(1, 10), 0.2) == 0
        assert canonical_status(1, Fraction(8, 10), 0.9) == 0

    @pytest.mark.parametrize(
        "gamma,exact",
        [(0.2, Fraction(1, 5)), (0.5, Fraction(1, 2)), (2 / 3, Fraction(2, 3)),
         (0.9, Fraction(9, 10))],
    )
    def test_min_vote_count_is_inclusive_boundary(self, gamma, exact):
        for n in range(min_attesters_for_margin(gamma), 2001):
            k = ProtocolParams(vote_threshold=gamma, attester_count=n).min_vote_count
            assert k == -(-exact.numerator * n // exact.denominator)  # ceil(exact * n)
            assert canonical_status(1, Fraction(k, n), gamma) == 1
            assert canonical_status(1, Fraction(k - 1, n), gamma) == 0

    def test_random_boundary_shares(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randrange(3, 400)
            k = rng.randrange(0, n + 1)
            gamma, exact = rng.choice(
                ((0.25, Fraction(1, 4)), (0.5, Fraction(1, 2)),
                 (2 / 3, Fraction(2, 3)), (0.8, Fraction(4, 5)))
            )
            share = Fraction(k, n)
            status = canonical_status(1, share, gamma)
            assert status == (1 if share >= exact else 0)


class TestActions:
    def test_binary_fields_validated(self):
        with pytest.raises(ConfigurationError):
            ProposerAction(build_on_prev=2, release_time_us=0)
