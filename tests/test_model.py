import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from timinggames.engine import SimConfig, attester_detail, run_simulation, strategy_spec
from timinggames.model import (
    INT64_MAX,
    INT_FIELDS,
    MAX_LATENCY_PLANE,
    ConfigurationError,
    ProtocolParams,
    min_attesters_for_margin,
)

from oracles import attester_payoff, canonical_status, proposer_payoff


def make_params(**kw):
    return ProtocolParams(**kw)


class TestProtocolParams:
    def test_defaults_valid(self):
        p = make_params()
        assert p.slot_length_us == 12_000_000
        assert p.genesis_time_us == -12_000_000

    def test_latency_plane_capped(self):
        # validation only: nothing of this size is drawn
        at_cap = make_params(horizon_slots=MAX_LATENCY_PLANE // 2048, attester_count=1024)
        assert 2 * at_cap.horizon_slots * at_cap.attester_count == MAX_LATENCY_PLANE
        size = f"= {MAX_LATENCY_PLANE + 2048} latencies, exceeds the cap of {MAX_LATENCY_PLANE}"
        with pytest.raises(ConfigurationError, match=size):
            make_params(horizon_slots=at_cap.horizon_slots + 1, attester_count=1024)
        with pytest.raises(ConfigurationError, match="exceeds the cap"):
            replace(at_cap, attester_count=1025)

    def test_absolute_times_within_int64(self):
        # the closing release, the deadline and two latency legs of at most
        # 37 means each must all fit: each term alone can push the bound over
        with pytest.raises(ConfigurationError, match="beyond int64"):
            make_params(slot_length_us=2**62, horizon_slots=4)
        with pytest.raises(ConfigurationError, match="beyond int64"):
            make_params(attestation_deadline_us=INT64_MAX - 33 * 12_000_000)
        mean = 2**56
        legs = dict(slot_length_us=2 * mean, mean_latency_us=mean, horizon_slots=1)
        with pytest.raises(ConfigurationError, match="beyond int64"):
            make_params(attestation_deadline_us=INT64_MAX - 40 * mean, **legs)
        fits = make_params(attestation_deadline_us=INT64_MAX - 78 * mean, **legs)
        assert fits.max_time_us == INT64_MAX

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("attester", ["equilibrium", "honest_spec"])
    def test_run_at_the_int64_bound_keeps_its_times(self, attester):
        # the largest mean latency the bound lets through: every time the run
        # computes stays an exact int64, with no cast warning
        mean = INT64_MAX // 78
        p = make_params(slot_length_us=2 * mean, mean_latency_us=mean, horizon_slots=1,
                        attestation_deadline_us=0, attester_count=20, vote_threshold=1)
        assert 0 <= INT64_MAX - p.max_time_us < 78
        detail = attester_detail(SimConfig(params=p, attester_strategy=strategy_spec(attester)))
        assert (detail.inbound_latencies_us >= 0).all()
        assert (detail.inbound_latencies_us < 37 * mean).all()
        assert (detail.attestation_times_us >= 0).all()

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

    @pytest.mark.parametrize("key", ["base_reward", "mev_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reward_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must be finite, got {value!r}$"):
            make_params(**{key: value})

    @pytest.mark.parametrize("key", ["vote_threshold", "base_reward", "mev_rate"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_float_fields_rejected_unless_numbers(self, key, value):
        message = f"{key} must be a number, got {value!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            make_params(**{key: value})

    @pytest.mark.parametrize(
        "key,value,shown",
        [
            ("slot_length_us", float("inf"), "inf"),
            ("schedule_offset_us", 0.5, "0.5"),
            ("mean_latency_us", "1000000", "'1000000'"),
            ("attestation_deadline_us", None, "None"),
            ("attester_count", 1000.5, "1000.5"),
            ("horizon_slots", float("nan"), "nan"),
            ("seed", True, None),
        ],
    )
    def test_integer_fields_rejected_unless_integral(self, key, value, shown):
        message = f"{key} must be an integer, got " + ("a boolean" if shown is None else shown)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            make_params(**{key: value})

    def test_integral_values_stored_as_int(self):
        p = make_params(slot_length_us=12e6, attester_count=np.int64(999), seed=np.uint64(2**63))
        assert (p.slot_length_us, p.attester_count, p.seed) == (12_000_000, 999, 2**63)
        assert {type(getattr(p, key)) for key in INT_FIELDS} == {int}

    def test_invalid_threshold_raises_on_every_construction(self):
        # the threshold arithmetic is memoized; no exception may be cached
        for _ in range(3):
            with pytest.raises(ConfigurationError, match="attester_count must be at least 4"):
                make_params(vote_threshold=2 / 3, attester_count=3)
            for gamma in (1.0, 0.0, float("nan")):
                with pytest.raises(ConfigurationError, match="margin is only defined"):
                    min_attesters_for_margin(gamma)

    def test_memoized_threshold_keeps_float_and_fraction_apart(self):
        # Fraction(0.1) equals the double 0.1 and hashes alike, but a float
        # threshold reads as its decimal 1/10 and a Fraction as itself
        binary = Fraction(0.1)
        for _ in range(2):
            assert make_params(vote_threshold=0.1, attester_count=10).min_vote_count == 1
            assert make_params(vote_threshold=binary, attester_count=10).min_vote_count == 2

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
        # a trace's build flags, the closing proposer's (slot 3 here) too, are 0 or 1
        trace = run_simulation(SimConfig(params=make_params(horizon_slots=3, attester_count=10)))
        trace.validate()
        for corrupt, slot in (({"closing_build": np.array(2)}, 3),
                              ({"build_on_prev": np.array([1, 2, 1])}, 1)):
            with pytest.raises(AssertionError, match=f"^slot {slot}: build flag 2 is not 0 or 1$"):
                replace(trace, **corrupt).validate()
