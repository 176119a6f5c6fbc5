import math


import numpy as np
import pytest

from timinggames.engine import HONEST_SPEC, SimConfig, derive_seed, run_simulation, strategy_spec
from timinggames.metrics import bucket_curve, next_slot_share_samples, pearson
from timinggames.model import SLOT_COLUMNS, ConfigurationError, ProtocolParams, SimulationTrace


def delayed_trace(delay_us, seed=1, horizon=20, attesters=1000):
    p = ProtocolParams(
        attester_count=attesters, horizon_slots=horizon, seed=seed
    )
    cfg = SimConfig(
        params=p,
        proposer_default=strategy_spec("greedy_delay", delay_us=delay_us),
        attester_strategy=HONEST_SPEC,
    )
    return run_simulation(cfg)


def pooled_share(delay_us, runs=4):
    samples = []
    for r in range(runs):
        trace = delayed_trace(delay_us, seed=derive_seed(17, f"share|{delay_us}", r))
        samples.extend(next_slot_share_samples(trace)[2].tolist())
    return float(np.mean(samples)), len(samples)


class TestNextSlotShare:
    def test_two_second_delay_matches_exponential_tail(self):
        # oracle: direct Monte Carlo of one latency leg against the remaining
        # window, plus the closed form it converges to
        rng = np.random.default_rng(42)
        draws = -1e6 * np.log1p(-rng.random(100_000))
        mc = float(np.mean(draws <= 2_000_000))
        closed = 1 - math.exp(-2.0)
        assert abs(mc - closed) < 0.005

        mean, n = pooled_share(2_000_000)
        assert n >= 60
        assert abs(mean - closed) < 0.01

    def test_no_delay_share_stays_near_one(self):
        mean, _ = pooled_share(0)
        assert mean > 0.97  # 1 - exp(-4) = 0.9817 with theta = 1 s

    def test_past_deadline_share_is_zero(self):
        trace = delayed_trace(4_000_001)
        _, offsets_ms, shares = next_slot_share_samples(trace)
        assert all(y == 0.0 for y in bucket_curve(offsets_ms, shares)["y"])

    def test_curve_non_increasing_in_delay(self):
        delays = [0, 1_000_000, 2_000_000, 3_000_000, 3_900_000]
        means = [pooled_share(d, runs=3)[0] for d in delays]
        for a, b in zip(means, means[1:]):
            assert b <= a + 0.01

    def test_points_bucketed_by_offset(self):
        trace = delayed_trace(2_550_000, horizon=12)
        slots, offsets_ms, shares = next_slot_share_samples(trace)
        assert slots.tolist() == list(range(12))
        assert (slots.dtype, offsets_ms.dtype, shares.dtype) == (np.int64, np.float64, np.float64)
        curve = bucket_curve(offsets_ms, shares, bucket_ms=100.0)
        assert curve["x"].tolist() == [2550.0]
        assert curve["n"].tolist() == [12]

    def test_empty_trace_rejected(self):
        hollow = SimulationTrace(
            params=ProtocolParams(),
            closing_build=np.array(1),
            **{name: np.zeros(0, dtype=np.int64) for name in SLOT_COLUMNS},
        )
        with pytest.raises(ConfigurationError):
            next_slot_share_samples(hollow)


class TestBucketCurve:
    def test_aggregates_and_se(self):
        # given out of order in x: the buckets come back in order of x
        curve = bucket_curve([250.0, 60.0, 50.0], [1.0, 0.4, 0.2], bucket_ms=100.0)
        assert curve["x"].tolist() == [50.0, 250.0]
        assert curve["y"][0] == pytest.approx(0.3)
        assert curve["n"].tolist() == [2, 1]
        expected_se = np.std([0.2, 0.4], ddof=1) / math.sqrt(2)
        assert curve["se"][0] == pytest.approx(expected_se)
        assert curve["se"][1] == 0.0

    def test_negative_offsets_floor_to_the_bucket_below(self):
        curve = bucket_curve([-0.5, -100.0, 99.9, 100.0], [1.0, 2.0, 3.0, 4.0], bucket_ms=100.0)
        assert curve["x"].tolist() == [-50.0, 50.0, 150.0]
        assert curve["n"].tolist() == [2, 1, 1]

    @pytest.mark.parametrize("bucket_ms", [math.nan, math.inf, True, "100"])
    def test_width_read_as_a_finite_number(self, bucket_ms):
        # a NaN or infinite width once gave a one-bucket curve at x = [nan] or [inf]
        with pytest.raises(ConfigurationError, match="^bucket_ms must be (finite|a number)"):
            bucket_curve([0.0, 250.0], [1.0, 2.0], bucket_ms)

    def test_requires_samples_and_width(self):
        with pytest.raises(ConfigurationError):
            bucket_curve([], [], 100.0)
        with pytest.raises(ConfigurationError):
            bucket_curve([0.0], [1.0], 0.0)
        with pytest.raises(ConfigurationError, match="equal length"):
            bucket_curve([0.0, 1.0], [1.0], 100.0)

    def test_point_validation(self):
        # every point counts at least one sample and has a non-negative error;
        # together they count every sample once, and each mean and error is
        # its bucket's, over its samples in their given order
        rng = np.random.default_rng(3)
        x = rng.uniform(-500.0, 500.0, size=400).round(1)
        y = rng.random(400)
        curve = bucket_curve(x, y, bucket_ms=50.0)
        assert min(curve["n"]) >= 1 and min(curve["se"]) >= 0.0
        assert sum(curve["n"]) == len(x)
        for mid, mean, n, se in zip(*(curve[k] for k in ("x", "y", "n", "se"))):
            ys = y[np.floor(x / 50.0) == (mid - 25.0) / 50.0]
            assert (len(ys), mean) == (n, float(ys.mean()))
            assert se == (float(ys.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)


class TestPearson:
    def test_perfect_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 3 for x in xs]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_attenuation_by_jitter(self):
        # correlation of a signal with a jittered copy follows
        # sigma_s / sqrt(sigma_s^2 + sigma_j^2)
        rng = np.random.default_rng(7)
        sigma_s, sigma_j = 500.0, 50.0
        signed = rng.normal(800.0, sigma_s, size=4000)
        first_seen = signed + rng.normal(0.0, sigma_j, size=4000)
        r = pearson(signed, first_seen)
        expected = sigma_s / math.hypot(sigma_s, sigma_j)
        assert r > 0.95
        assert abs(r - expected) < 0.01

    def test_zero_variance_rejected(self):
        with pytest.raises(ConfigurationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(ConfigurationError):
            pearson([1.0], [1.0])
        with pytest.raises(ConfigurationError):
            pearson([1.0, 2.0], [1.0])
