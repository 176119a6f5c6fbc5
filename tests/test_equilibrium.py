import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from timinggames import engine, equilibrium
from timinggames.engine import SimConfig, strategy_spec
from timinggames.equilibrium import (
    _deviation_report,
    best_response_delay,
    check_attester_deviation,
    check_proposer_deviation,
    default_deviation_grid,
    next_slot_share_runs,
    sweep_delta_star,
)
from timinggames.model import ConfigurationError, ProtocolParams
from timinggames.strategies import optimal_delay

from oracles import mean_se


def params_12s(**kw):
    defaults = dict(attester_count=200, horizon_slots=9, seed=4242)
    defaults.update(kw)
    return ProtocolParams(**defaults)


def hand_evaluate_single_slot(delay_us, phi, delta_star_us, params):
    """Independent single-slot oracle for a proposer deviation under
    coordinated attesters: conformity check -> votes -> share vs threshold ->
    canonical -> payoff."""
    release_conforms = delay_us == delta_star_us
    build_conforms = phi == 1  # interior slot after an on-time predecessor
    votes = 1 if (release_conforms and build_conforms) else 0
    share = Fraction(votes)  # all attesters decide identically
    next_builds = 1  # the next coordinated proposer; flag only matters with votes
    canonical = 1 if (next_builds and share >= Fraction(params.vote_threshold)) else 0
    if not canonical:
        return 0.0
    return params.base_reward + params.mev_rate * (params.slot_length_us / 1e6)


class TestProposerDeviation:
    def test_one_millisecond_late(self):
        p = params_12s()
        ds = 2_000_000
        report = check_proposer_deviation(p, ds, [(ds + 1000, 1)])
        assert report.baseline_payoff == 0.118
        (outcome,) = report.deviations
        assert outcome.mean_payoff == 0.0
        assert outcome.exact_zero
        assert outcome.unprofitable
        assert report.all_unprofitable
        assert hand_evaluate_single_slot(ds + 1000, 1, ds, p) == 0.0
        assert hand_evaluate_single_slot(ds, 1, ds, p) == 0.118

    def test_build_flip_alone_is_punished(self):
        p = params_12s()
        ds = 2_000_000
        report = check_proposer_deviation(p, ds, [(ds, 0)])
        (outcome,) = report.deviations
        assert outcome.mean_payoff == 0.0
        assert outcome.exact_zero

    def test_full_grid_unprofitable(self):
        p = params_12s()
        ds = 3_000_000
        grid = default_deviation_grid(p, ds, 50)
        assert len(grid) == 50
        assert (ds, 1) not in grid
        report = check_proposer_deviation(p, ds, grid)
        assert report.all_unprofitable
        assert all(o.mean_payoff == 0.0 for o in report.deviations)
        assert report.baseline_payoff == 0.118

    @pytest.mark.parametrize("ds", [0, 6_000_000, 12_000_000])
    def test_grid_stays_inside_the_slot(self, ds):
        # the stand-in for the coordinated action is 1 ms late, or 1 ms early
        # when late would release after the next slot's start
        p = params_12s()
        grid = default_deviation_grid(p, ds, 50)
        assert len(grid) == 50
        assert (ds, 1) not in grid
        assert all(0 <= d <= p.slot_length_us for d, _ in grid)
        stand_in = ds + 1000 if ds < p.slot_length_us else ds - 1000
        assert (stand_in, 1) in grid

    @pytest.mark.parametrize("n_points,expected", [
        (2, [(1000, 1), (0, 0)]),
        (3, [(1000, 1), (0, 0), (12_000_000, 1)]),
    ])
    def test_smallest_grids(self, n_points, expected):
        # two points are one delay, 0, with both build flags
        assert list(default_deviation_grid(params_12s(), 0, n_points)) == expected
        with pytest.raises(ConfigurationError, match="at least 2"):
            default_deviation_grid(params_12s(), 0, 1)

    def test_equilibrium_action_rejected(self):
        p = params_12s()
        with pytest.raises(ConfigurationError, match="not a deviation"):
            check_proposer_deviation(p, 2_000_000, [(2_000_000, 1)])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            check_proposer_deviation(params_12s(), 0, [])

    @pytest.mark.parametrize(
        "grid, bad",
        [
            ([(1000, 1), (12_000_001, 1), (0, 2)], (12_000_001, 1)),
            ([(1000, 1), (0, 2), (12_000_001, 1)], (0, 2)),
            ([(2.5, 0), (0, 2)], (2.5, 0)),
        ],
        ids=["late", "build-flag", "fraction"],
    )
    def test_bad_grid_entry_fails_as_its_override(self, grid, bad):
        # the first bad entry in grid order, with the message that the same
        # fixed strategy gets as a per-slot override
        p = params_12s()
        spec = strategy_spec("fixed", delay_us=bad[0], build_on_prev=bad[1])
        with pytest.raises(ConfigurationError) as expected:
            SimConfig(params=p, proposer_overrides={4: spec})
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(expected.value))}$"):
            check_proposer_deviation(p, 2_000_000, grid)

    def test_deviation_slot_must_be_interior(self):
        p = params_12s(horizon_slots=5)
        with pytest.raises(ConfigurationError):
            check_proposer_deviation(p, 0, [(1000, 1)], deviation_slot=4)

    def test_simulates_no_committee(self, monkeypatch):
        # a block gets every vote or none, so the payoffs need no latency
        def forbidden(*args, **kwargs):
            raise AssertionError("the proposer check simulated a committee")

        monkeypatch.setattr(equilibrium, "replicate", forbidden)
        monkeypatch.setattr(equilibrium, "run_simulation", forbidden)
        monkeypatch.setattr(engine, "run_simulation", forbidden)
        monkeypatch.setattr(engine, "sample_latency_array", forbidden)
        p = params_12s()
        ds = 2_000_000
        report = check_proposer_deviation(p, ds, default_deviation_grid(p, ds, 10), runs=3)
        assert report.baseline_payoff == pytest.approx(0.118)
        assert report.baseline_samples == 3
        assert [o.samples for o in report.deviations] == [3] * 10
        assert report.all_unprofitable


class TestDeviationVerdict:
    def test_two_se_separation_is_strict(self):
        # mean plus two standard errors equal to the baseline is not separated
        report = _deviation_report(0, [1.0], [("equal", [1.0]), ("below", [0.5])])
        assert [o.unprofitable for o in report.deviations] == [False, True]
        assert not report.all_unprofitable

    def test_exact_zero_needs_a_positive_baseline(self):
        report = _deviation_report(0, [0.0, 0.0], [("zero", [0.0, 0.0])])
        (outcome,) = report.deviations
        assert outcome.exact_zero
        assert not outcome.unprofitable


@st.composite
def report_samples(draw):
    """A baseline and 1..4 arms of one sample count, 1..3000 (1 to 3 often),
    as a ``(rows, samples)`` array: each row constant (a proposer payoff
    repeated ``runs`` times), 0/1 (attester payoffs, zero rows included) or
    of both signs with magnitudes from 1e-150 to 1e150."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(1, 3000)))
    rows = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(("constant", "binary", "wide")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        values = rng.choice([0.0, 0.118, 0.04, rng.uniform(-1e6, 1e6)], size=(rows, 1))
        return np.repeat(values, n, axis=1)
    if kind == "binary":
        return (rng.random((rows, n)) < rng.choice([0.0, 0.5, 0.9], size=(rows, 1))) * 1.0
    signs = rng.choice([-1.0, 1.0], size=(rows, n))
    return signs * 10.0 ** rng.uniform(-150, 150, size=(rows, n))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(report_samples())
def test_report_reduction_matches_per_arm_mean_se(samples):
    """The one axis-1 reduction of ``_deviation_report`` gives each arm's mean
    and standard error bit for bit as ``mean_se`` gives them row by row."""
    arms = [(f"arm{i}", row) for i, row in enumerate(samples[1:])]
    report = _deviation_report(0, samples[0], arms)
    got = [(report.baseline_payoff, report.baseline_std_error)]
    got += [(o.mean_payoff, o.std_error) for o in report.deviations]
    expected = [mean_se(row) for row in samples]
    assert np.array(got).view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()
    assert [o.exact_zero for o in report.deviations] == [not np.any(row) for row in samples[1:]]
    n = samples.shape[1]
    assert [report.baseline_samples] + [o.samples for o in report.deviations] == [n] * len(samples)


def erlang2_cdf(x: float) -> float:
    return 1.0 - math.exp(-x) * (1.0 + x)


class TestAttesterDeviation:
    def test_flip_exactly_zero_and_baseline_near_erlang(self):
        # slot twice the mean latency so the freshness probability is far from 1
        p = ProtocolParams(
            slot_length_us=2_000_000,
            mean_latency_us=1_000_000,
            attestation_deadline_us=700_000,
            attester_count=40,
            horizon_slots=10,
            seed=88,
        )
        report = check_attester_deviation(p, 500_000, mc_samples=2000)
        target = erlang2_cdf(2.0)
        se = math.sqrt(target * (1 - target) / report.baseline_samples)
        assert abs(report.baseline_payoff - target) < 3 * se
        flip = report.deviations[0]
        assert flip.descriptor == "vote_flip"
        assert flip.mean_payoff == 0.0
        assert flip.exact_zero
        late = report.deviations[1]
        assert late.descriptor == f"release_shift_us={p.slot_length_us}"
        assert late.mean_payoff == 0.0
        assert report.all_unprofitable

    def test_small_shift_shrinks_freshness(self):
        p = ProtocolParams(
            slot_length_us=2_000_000,
            mean_latency_us=1_000_000,
            attestation_deadline_us=700_000,
            attester_count=40,
            horizon_slots=10,
            seed=31,
        )
        shift = 500_000
        report = check_attester_deviation(p, 0, mc_samples=3000, tau_shifts_us=(shift,))
        shifted = report.deviations[1]
        # freshness now needs both legs inside three quarters of the window
        target = erlang2_cdf((p.slot_length_us - shift) / p.mean_latency_us)
        se = math.sqrt(target * (1 - target) / shifted.samples)
        assert abs(shifted.mean_payoff - target) < 4 * se
        assert shifted.mean_payoff < report.baseline_payoff

    def test_guards(self):
        p = params_12s()
        with pytest.raises(ConfigurationError, match="not a deviation"):
            check_attester_deviation(p, 0, mc_samples=1000, tau_shifts_us=(0,))
        with pytest.raises(ConfigurationError):
            check_attester_deviation(p, 0, mc_samples=999)
        full = ProtocolParams(vote_threshold=1.0, attester_count=10, horizon_slots=9)
        with pytest.raises(ConfigurationError, match="margin"):
            check_attester_deviation(full, 0, mc_samples=1000)

    def test_margin_check_fires_when_one_vote_decides(self, monkeypatch):
        # every slot needs all N votes, so withdrawing one vote orphans it
        monkeypatch.setattr(
            ProtocolParams, "min_vote_count", property(lambda self: self.attester_count)
        )
        with pytest.raises(ConfigurationError, match="slot 0: a single flipped vote"):
            check_attester_deviation(params_12s(), 0, mc_samples=1000)

    @pytest.mark.parametrize("column", ["inbound", "outbound"])
    def test_staged_draws_must_match_the_full_run(self, monkeypatch, column):
        # run 0's full trace guards the staged first draws of every run
        latency_pass = equilibrium.latency_pass
        role = ["inbound", "outbound"].index(column)

        def off_by_one(seeds, roles, slots, draws, params):
            assert draws == 1, "only the staged draws go through this name"
            for planes in latency_pass(seeds, roles, slots, draws, params):
                planes[:, role] += 1
                yield planes

        monkeypatch.setattr(equilibrium, "latency_pass", off_by_one)
        with pytest.raises(engine.SimulationError, match="differ from its full run 0"):
            check_attester_deviation(params_12s(), 0, mc_samples=1000)


def exact_response_payoff(params: ProtocolParams, delay_us: int) -> float:
    """Exact expected payoff of the deviating slot: reward scaled by the
    binomial tail probability that the share meets the threshold."""
    n = params.attester_count
    d_left = params.attestation_deadline_us - delay_us
    p_vote = 1.0 - math.exp(-d_left / params.mean_latency_us) if d_left >= 0 else 0.0
    threshold_count = math.ceil(Fraction(params.vote_threshold) * n)
    tail = float(binom.sf(threshold_count - 1, n, p_vote))
    value = params.base_reward + params.mev_rate * (
        (params.slot_length_us + delay_us) / 1e6
    )
    return value * tail


class TestBestResponse:
    def test_curve_matches_binomial_oracle(self):
        p = ProtocolParams(attester_count=1000, seed=555)
        step = 50_000
        anchor = optimal_delay(p)
        grid = list(range(anchor - 6 * step, anchor + 3 * step + 1, step))
        runs = 24
        curve = best_response_delay(p, grid, runs)
        for d, mc_mean in zip(curve.delays_us, curve.expected_payoffs):
            exact = exact_response_payoff(p, d)
            tail = exact / (p.base_reward + p.mev_rate * ((p.slot_length_us + d) / 1e6))
            se_true = (
                (p.base_reward + p.mev_rate * ((p.slot_length_us + d) / 1e6))
                * math.sqrt(max(tail * (1 - tail), 1e-12) / runs)
            )
            assert abs(mc_mean - exact) <= 3 * se_true + 1e-9

    def test_argmax_tracks_closed_form(self):
        p = ProtocolParams(attester_count=1000, seed=9001)
        step = 50_000
        anchor = optimal_delay(p)
        grid = list(range(anchor - 8 * step, anchor + 4 * step + 1, step))
        curve = best_response_delay(p, grid, 32)
        assert abs(curve.argmax_delay_us - anchor) <= 2 * step

    def test_shape_rises_then_collapses(self):
        p = ProtocolParams(attester_count=200, seed=31337)
        d_star = optimal_delay(p)
        grid = list(range(0, p.attestation_deadline_us + 1, 400_000))
        curve = best_response_delay(p, grid, 24)
        safe = [
            (x, y)
            for x, y in zip(curve.delays_us, curve.expected_payoffs)
            if x <= d_star - 500_000
        ]
        for (x0, y0), (x1, y1) in zip(safe, safe[1:]):
            assert y1 >= y0 - 1e-12, f"payoff dipped between {x0} and {x1}"
        assert curve.expected_payoffs[-1] < 0.05 * max(curve.expected_payoffs)
        # shares fall with the delay
        assert curve.attestation_shares[0] > 0.9
        assert curve.attestation_shares[-1] < 0.1

    def test_single_point_grid(self):
        p = ProtocolParams(attester_count=100, seed=5)
        curve = best_response_delay(p, [0], 4)
        assert curve.argmax_delay_us == 0
        assert len(curve.delays_us) == 1

    def test_argmax_invariant_to_reward_scaling(self):
        p = ProtocolParams(attester_count=300, seed=77)
        grid = list(range(2_800_000, 3_600_001, 100_000))
        a = best_response_delay(p, grid, 16)
        scaled = replace(p, base_reward=10 * p.base_reward, mev_rate=10 * p.mev_rate)
        b = best_response_delay(scaled, grid, 16)
        assert a.argmax_delay_us == b.argmax_delay_us
        for x, y in zip(a.expected_payoffs, b.expected_payoffs):
            assert y == pytest.approx(10 * x, rel=1e-12)

    def test_grid_validation(self):
        p = ProtocolParams()
        with pytest.raises(ConfigurationError):
            best_response_delay(p, [], 4)
        with pytest.raises(ConfigurationError):
            best_response_delay(p, [-1], 4)
        with pytest.raises(ConfigurationError):
            best_response_delay(p, [0, 0], 4)
        with pytest.raises(ConfigurationError):
            best_response_delay(p, [p.slot_length_us + 1], 4)


class TestSweepDeltaStar:
    def test_payoff_column_exactly_constant(self):
        p = params_12s(attester_count=300, horizon_slots=16)
        grid = [0, 3_000_000, 6_000_000, 9_000_000, 12_000_000]
        rows = sweep_delta_star(p, grid)
        payoffs = {r.proposer_payoff for r in rows}
        assert payoffs == {0.118}
        assert all(r.all_canonical == 1 for r in rows)

    def test_attester_column_offset_invariant(self):
        # a latency of a quarter slot keeps the freshness probability well off
        # 1, so the offset-invariance check has real variance to work with
        p = params_12s(attester_count=500, horizon_slots=20, mean_latency_us=3_000_000)
        rows = sweep_delta_star(p, [0, 6_000_000, 12_000_000])
        for a in rows:
            for b in rows:
                tol = 3 * math.hypot(a.attester_payoff_se, b.attester_payoff_se)
                assert abs(a.attester_payoff_mean - b.attester_payoff_mean) <= tol

    def test_grid_outside_slot_rejected(self):
        p = params_12s()
        with pytest.raises(ConfigurationError):
            sweep_delta_star(p, [p.slot_length_us + 1])
        with pytest.raises(ConfigurationError):
            sweep_delta_star(p, [])


def test_release_shift_beyond_int64_rejected():
    # a shift past the last time that int64 holds would wrap the attestation
    # times: a ConfigurationError, where it once read as a payoff of 1
    p = ProtocolParams(horizon_slots=3, attester_count=10)
    with pytest.raises(ConfigurationError, match="beyond int64"):
        check_attester_deviation(p, 0, 1000, tau_shifts_us=(2**63 - 1,))
    longest = 2**63 - 1 - p.max_time_us
    with pytest.raises(ConfigurationError, match=f"at most {longest} us"):
        check_attester_deviation(p, 0, 1000, tau_shifts_us=(longest + 1,))
    report = check_attester_deviation(p, 0, 1000, tau_shifts_us=(longest,))
    assert report.deviations[1].exact_zero and report.all_unprofitable


class TestGridEntriesAreIntegers:
    """A Python-API grid entry or release shift that is not an integer is
    rejected, not truncated; an integral float reads as its int."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda p: best_response_delay(p, [2_500_000.7, 0], 2),
            lambda p: best_response_delay(p, [0, True], 2),
            lambda p: sweep_delta_star(p, [1000.9]),
            lambda p: next_slot_share_runs(p, [3.5], 1, 3),
            lambda p: check_attester_deviation(p, 0, 1000, tau_shifts_us=(1.5,)),
        ],
        ids=["best-response-fraction", "best-response-bool", "sweep", "curves", "shift"],
    )
    def test_fraction_or_boolean_rejected(self, run):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            run(params_12s())

    def test_integral_floats_read_as_ints(self):
        p = params_12s(attester_count=50)
        (row,) = sweep_delta_star(p, [1000.0])
        assert row == sweep_delta_star(p, [1000])[0] and type(row.delta_star_us) is int
        curve = best_response_delay(p, [np.int64(0), 2_000_000.0], 2)
        assert curve == best_response_delay(p, [0, 2_000_000], 2)
        assert [type(d) for d in curve.delays_us] == [int, int]
        samples = next_slot_share_runs(p, [3.0], 1, 3)
        integral = next_slot_share_runs(p, [3], 1, 3)
        assert samples.keys() == integral.keys()
        assert all(np.array_equal(samples[k], integral[k]) for k in samples)
        assert samples["delay_us"].dtype == np.int64 and set(samples["delay_us"]) == {3}
        report = check_attester_deviation(p, 0, 1000, tau_shifts_us=(2.0e6,))
        assert report.deviations[1].descriptor == "release_shift_us=2000000"
