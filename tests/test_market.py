import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from timinggames import market
from timinggames.distributions import LatencyDistribution
from timinggames.market import (
    BidTable,
    InvalidBidRow,
    estimate_mvot,
    generate_bid_stream,
    load_bids,
    pooled_ols_slope,
    read_bids_csv,
    read_bids_jsonl,
    write_bids_jsonl,
)
from timinggames.model import ConfigurationError
from timinggames.strategies import DEFAULT_SIGNING_DELAY

from helpers import write_bids_csv


def bids_of(slot, received, value, builder=0):
    """A ``BidTable`` of bids eligible on receipt; scalars broadcast."""
    slot, builder, received, value = np.broadcast_arrays(slot, builder, received, value)
    return BidTable(slot, builder, received, received, value)


def table(**columns):
    """Three valid bids, with any column replaced."""
    base = {
        "slot": [0, 0, 1],
        "builder_id": [3, 4, 5],
        "received_at_ms": [-10, 0, 7],
        "eligible_at_ms": [-10, 2, 9],
        "value_eth": [0.5, 0.25, 1.0],
    }
    base.update(columns)
    return BidTable(**base)


class TestBidTable:
    def test_columns_are_read_only_int64_and_float64(self):
        t = table()
        assert len(t) == 3
        assert [c.dtype for c in t.columns()] == [np.int64] * 4 + [np.float64]
        for col in t.columns():
            with pytest.raises(ValueError):
                col[0] = 0

    def test_constructor_copies_its_input(self):
        received = np.array([-10, 0, 7])
        t = table(received_at_ms=received)
        received[0] = 99
        assert t.received_at_ms[0] == -10

    def test_mutating_a_callers_arrays_leaves_the_table_unchanged(self):
        # read-only arrays too: their owner can make them writable again
        columns = [np.array(col) for col in table().columns()]
        for col in columns[::2]:
            col.flags.writeable = False
        t = BidTable(*columns)
        for col in columns:
            col.flags.writeable = True
            col[0] += 1
        assert t == table()

    @pytest.mark.parametrize("big", [2**70, 2**63, -(2**63) - 1])
    def test_integers_beyond_int64_named(self, big):
        with pytest.raises(ConfigurationError,
                           match=f"^bid column builder_id must fit in int64, got {big}$"):
            BidTable([0], [big], [0], [0], [1.0])

    def test_integers_within_int64_accepted_from_any_integer_column(self):
        t = table(builder_id=np.array([3, 4, 5], dtype=np.uint64))
        assert t == table() and t.builder_id.dtype == np.int64

    def test_equality_compares_every_column(self):
        assert table() == table()
        assert table() != table(value_eth=[0.5, 0.25, 1.5])
        assert table() != table(builder_id=[3, 4, 6])
        assert table() != table().columns()

    def test_error_names_first_bad_row(self):
        with pytest.raises(InvalidBidRow, match="bid row 1: a bid cannot be eligible") as exc:
            table(eligible_at_ms=[-10, -1, 6])
        assert exc.value.row == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_value_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(InvalidBidRow, match="bid row 2: bid value must be finite") as exc:
            table(value_eth=[0.5, 0.25, bad])
        assert exc.value.row == 2

    def test_negative_zero_value_allowed(self):
        assert np.signbit(table(value_eth=[0.5, -0.0, 1.0]).value_eth[1])

    def test_shape_and_kind_checked(self):
        with pytest.raises(ConfigurationError, match="same length"):
            table(slot=[0, 0])
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            table(slot=[[0, 0, 1]])
        with pytest.raises(ConfigurationError, match="received_at_ms must hold integers"):
            table(received_at_ms=[-10.0, 0.5, 7.0])
        with pytest.raises(ConfigurationError, match="value_eth must hold numbers"):
            table(value_eth=["0.5", "0.25", "1.0"])


class TestGenerateBidStream:
    def test_counts_and_window_respected(self):
        bids = generate_bid_stream(
            n_slots=5, bids_per_slot=800, arrival_window_ms=(-4000, 1000), rng=3
        )
        assert len(bids) == 5 * 800
        assert np.all((-4000 <= bids.received_at_ms) & (bids.received_at_ms <= 1000))
        assert np.all(bids.eligible_at_ms >= bids.received_at_ms)
        assert np.bincount(bids.slot).tolist() == [800] * 5

    def test_noiseless_values_linear_in_time(self):
        mu = 0.0065
        bids = generate_bid_stream(
            n_slots=3,
            bids_per_slot=50,
            mu_eth_per_s=mu,
            slot_effect_dist=LatencyDistribution.degenerate(0.2),
            noise_sd_eth=0.0,
            rng=11,
        )
        for s in range(3):
            received = bids.received_at_ms[bids.slot == s]
            values = bids.value_eth[bids.slot == s]
            dt_s = (received[1:] - received[0]) / 1000.0
            assert values[1:] - values[0] == pytest.approx(mu * dt_s, abs=1e-12)

    def test_flat_stream_when_mu_and_noise_zero(self):
        bids = generate_bid_stream(
            n_slots=2,
            bids_per_slot=30,
            mu_eth_per_s=0.0,
            slot_effect_dist=LatencyDistribution.degenerate(0.5),
            noise_sd_eth=0.0,
            rng=1,
        )
        assert set(bids.value_eth.tolist()) == {0.5}

    def test_values_floored_at_zero(self):
        bids = generate_bid_stream(
            n_slots=2,
            bids_per_slot=100,
            mu_eth_per_s=0.0065,
            slot_effect_dist=LatencyDistribution.degenerate(0.0),
            noise_sd_eth=0.0,
            rng=5,
        )
        assert np.all(bids.value_eth >= 0.0)

    def test_triangular_profile_leans_late(self):
        uniform = generate_bid_stream(n_slots=1, bids_per_slot=4000, rng=7)
        ramp = generate_bid_stream(
            n_slots=1, bids_per_slot=4000, rng=7, arrival_profile="triangular"
        )
        assert np.mean(ramp.received_at_ms) > np.mean(uniform.received_at_ms)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            generate_bid_stream(n_slots=1, bids_per_slot=0)
        with pytest.raises(ConfigurationError):
            generate_bid_stream(n_slots=1, arrival_window_ms=(100, 100))
        with pytest.raises(ConfigurationError):
            generate_bid_stream(n_slots=1, arrival_profile="bimodal")
        for n_builders in (0, 2**63 + 1):  # builder ids are int64
            with pytest.raises(ConfigurationError, match="n_builders must lie within"):
                generate_bid_stream(n_slots=1, n_builders=n_builders)
        bids = generate_bid_stream(n_slots=1, bids_per_slot=5, n_builders=2**63)
        assert bids.builder_id.min() >= 0

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("noise_sd_eth", math.nan, "noise_sd_eth must be finite"),
            ("noise_sd_eth", True, "noise_sd_eth must be a number"),
            ("mu_eth_per_s", math.inf, "mu_eth_per_s must be finite"),
            ("mu_eth_per_s", "0.0065", "mu_eth_per_s must be a number"),
            ("n_builders", True, "n_builders must be an integer, got a boolean"),
            ("n_slots", 2.5, "n_slots must be an integer, got 2.5"),
            ("bids_per_slot", 2.5, "bids_per_slot must be an integer, got 2.5"),
        ],
    )
    def test_arguments_read_with_the_package_rules(self, option, value, message):
        # NaN noise once drew a noiseless stream and True one builder
        with pytest.raises(ConfigurationError, match=f"^{message}"):
            generate_bid_stream(**{"n_slots": 1, "bids_per_slot": 5, option: value})

    @pytest.mark.parametrize(
        "window, message",
        [
            ((True, 5.5), "arrival_window_ms must be a number, got True"),
            (("0", "5"), "arrival_window_ms must be a number, got '0'"),
            ((0, 5, 9), "arrival_window_ms needs two numbers"),
            ((5,), "arrival_window_ms needs two numbers"),
            (5, "arrival_window_ms needs two numbers"),
        ],
    )
    def test_window_read_with_the_package_rules(self, window, message):
        # (True, 5.5) was a window from 1 ms, and ("0", "5") a bare TypeError
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            generate_bid_stream(n_slots=1, bids_per_slot=5, arrival_window_ms=window)

    def test_float_window_ends_are_those_numbers(self):
        floats = generate_bid_stream(n_slots=2, bids_per_slot=5, arrival_window_ms=(-4e3, 1e3))
        assert floats == generate_bid_stream(n_slots=2, bids_per_slot=5)

    def test_integral_counts_read_as_ints(self):
        # a float of integral value or a numpy integer is that int, and an
        # int slope or noise is that float: the same stream
        ints = generate_bid_stream(n_slots=2, bids_per_slot=5, mu_eth_per_s=1, noise_sd_eth=1,
                                   n_builders=4, rng=3)
        others = generate_bid_stream(n_slots=2.0, bids_per_slot=np.int64(5), mu_eth_per_s=1.0,
                                     noise_sd_eth=1.0, n_builders=np.uint8(4), rng=3)
        assert ints == others

    def test_oversized_stream_rejected_before_allocation(self):
        with mock.patch.object(market.np, "empty", side_effect=AssertionError("allocated")):
            for n_slots, per_slot in ((1, 10**30), (2, market.MAX_GENERATED_BIDS // 2 + 1)):
                size = f"= {n_slots * per_slot} bids exceeds the cap of 16777216"
                with pytest.raises(ConfigurationError, match=size):
                    generate_bid_stream(n_slots=n_slots, bids_per_slot=per_slot)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("arrival_window_ms", (-50, 2**64)),
            ("arrival_window_ms", (-(2**53) - 1, 0)),
            ("arrival_window_ms", (float("nan"), 0)),
            ("validation_latency", LatencyDistribution.exponential(1e300)),
            ("validation_latency", LatencyDistribution.lognormal(100.0, sigma=1e300)),
        ],
    )
    def test_times_beyond_int64_rejected(self, option, value):
        # before the cast that would wrap them, and without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=option):
                generate_bid_stream(n_slots=2, bids_per_slot=20, **{option: value})

    @pytest.mark.parametrize(
        "kwargs, names",
        [
            ({"mu_eth_per_s": 1e308}, "slot 0: .* mu_eth_per_s = 1e\\+308 ETH/s x arrival"),
            ({"mu_eth_per_s": -1e306, "arrival_window_ms": (0, 2**53)}, "mu_eth_per_s = -1e"),
            ({"slot_effect_dist": LatencyDistribution.lognormal(1e308, sigma=5.0)},
             "slot 0: .* the baseline inf ETH \\(slot_effect_dist\\)"),
            ({"slot_effect_dist": LatencyDistribution.exponential(1.79e308), "n_slots": 20},
             "the baseline inf ETH \\(slot_effect_dist\\)"),
            ({"slot_effect_dist": LatencyDistribution.degenerate(1.7e308), "mu_eth_per_s": 5e307,
              "arrival_window_ms": (0, 1000)},
             "the baseline 1.7e\\+308 ETH \\(slot_effect_dist\\) \\+ mu_eth_per_s = 5e\\+307"),
            ({"noise_sd_eth": 1e308}, "noise \\(noise_sd_eth = 1e\\+308\\)"),
        ],
        ids=["slope", "slope-at-2**53", "lognormal-baseline", "exponential-baseline", "sum",
             "noise"],
    )
    def test_values_beyond_float64_rejected(self, kwargs, names):
        # named, where they were floored to 0 or read as a bad bid row, and
        # without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=names):
                generate_bid_stream(**{"n_slots": 4, "bids_per_slot": 50, "rng": 3, **kwargs})

    def test_times_at_the_bound_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bids = generate_bid_stream(
                n_slots=2, bids_per_slot=20, arrival_window_ms=(-(2**53), 2**53), rng=1,
                validation_latency=LatencyDistribution.degenerate(2**53),
            )
        assert (bids.eligible_at_ms - bids.received_at_ms).tolist() == [2**53] * 40
        assert np.abs(bids.received_at_ms).max() <= 2**53


def synthetic_bids(mu, n_slots=40, per_slot=60, noise=0.0, seed=2):
    return generate_bid_stream(
        n_slots=n_slots,
        bids_per_slot=per_slot,
        mu_eth_per_s=mu,
        slot_effect_dist=LatencyDistribution.lognormal(median=0.3, sigma=0.2),
        noise_sd_eth=noise,
        rng=seed,
    )


class TestEstimateMvot:
    def test_noiseless_recovery_is_exact(self):
        mu = 0.0065
        report = estimate_mvot(synthetic_bids(mu))
        assert abs(report.slope_eth_per_s - mu) / mu < 1e-12
        assert report.within_r2 == pytest.approx(1.0, abs=1e-12)
        assert report.n_slots == 40
        assert report.n_obs == 40 * 60

    def test_noisy_recovery_within_tolerance(self):
        mu = 0.0065
        report = estimate_mvot(synthetic_bids(mu, n_slots=100, per_slot=200, noise=0.01))
        assert abs(report.slope_eth_per_s - mu) <= 4 * report.std_error
        assert abs(report.slope_eth_per_s - mu) / mu < 0.05

    def test_per_slot_constant_shift_invariance(self):
        bids = synthetic_bids(0.0065, n_slots=20, per_slot=40, noise=0.005)
        shifted = replace(bids, value_eth=bids.value_eth + 7.5 * (bids.slot + 1))
        a = estimate_mvot(bids)
        b = estimate_mvot(shifted)
        assert b.slope_eth_per_s == pytest.approx(a.slope_eth_per_s, rel=1e-9)

    def test_degenerate_design_rejected(self):
        frozen = bids_of(slot=np.repeat(np.arange(3), 5), received=-100, value=0.5)
        with pytest.raises(ConfigurationError, match="degenerate"):
            estimate_mvot(frozen)

    def test_needs_two_slots(self):
        single = bids_of(slot=0, received=np.arange(10), value=0.5)
        with pytest.raises(ConfigurationError):
            estimate_mvot(single)


class TestPooledVersusFixedEffects:
    def test_omitted_baseline_biases_pooled_only(self):
        # slot baselines proportional to the slot's mean arrival time: pooled
        # OLS absorbs that cross-slot drift into the slope, demeaning removes it
        mu = 0.0065
        k = 0.05  # ETH of baseline per second of mean arrival drift
        n_slots, per_slot = 30, 50
        centers_ms = np.linspace(-2500, 500, n_slots)
        offsets_ms = np.linspace(-400, 400, per_slot)
        slot = np.repeat(np.arange(n_slots), per_slot)
        t_ms = centers_ms[slot] + np.tile(offsets_ms, n_slots)
        baseline = 1.0 + k * (centers_ms[slot] / 1000.0)
        bids = bids_of(
            slot=slot,
            builder=np.tile(np.arange(per_slot), n_slots),
            received=np.round(t_ms).astype(np.int64),
            value=baseline + mu * (t_ms / 1000.0),
        )
        fe = estimate_mvot(bids)
        pooled = pooled_ols_slope(bids)

        # omitted-variable oracle: bias = k * Var_between / (Var_between + Var_within)
        var_between = float(np.var(centers_ms / 1000.0))
        var_within = float(np.var(offsets_ms / 1000.0))
        expected_bias = k * var_between / (var_between + var_within)
        assert abs(fe.slope_eth_per_s - mu) < 1e-6  # rounding of t_ms only
        assert pooled - mu == pytest.approx(expected_bias, rel=0.02)
        assert abs(pooled - mu) > 10 * abs(fe.slope_eth_per_s - mu)


class TestBidIo:
    def test_jsonl_round_trip(self, tmp_path):
        bids = synthetic_bids(0.0065, n_slots=4, per_slot=10)
        path = tmp_path / "bids.jsonl"
        write_bids_jsonl(bids, path)
        assert read_bids_jsonl(path) == bids
        assert load_bids(path) == bids

    def test_csv_round_trip(self, tmp_path):
        bids = synthetic_bids(0.0065, n_slots=4, per_slot=10)
        path = tmp_path / "bids.csv"
        write_bids_csv(bids, path)
        assert read_bids_csv(path) == bids
        assert load_bids(path) == bids

    def test_external_jsonl_accepted(self, tmp_path):
        path = tmp_path / "external.jsonl"
        path.write_text(
            '{"slot": 1, "builder_id": 2, "received_at_ms": -250, '
            '"eligible_at_ms": -180, "value_eth": 0.125}\n'
        )
        assert read_bids_jsonl(path) == BidTable([1], [2], [-250], [-180], [0.125])

    def test_written_file_decodes_one_chunk_per_call(self, tmp_path):
        # a reader that fell back to one json.loads per line would read the
        # same table, only slower
        bids = synthetic_bids(0.0065, n_slots=10, per_slot=300)
        path = tmp_path / "bids.jsonl"
        write_bids_jsonl(bids, path)
        with mock.patch.object(market.json, "loads", wraps=json.loads) as loads:
            assert read_bids_jsonl(path) == bids
        assert loads.call_count == math.ceil(len(bids) / market._READ_CHUNK_LINES)

    @pytest.mark.parametrize(
        "write, read", [(write_bids_jsonl, read_bids_jsonl), (write_bids_csv, read_bids_csv)],
        ids=["jsonl", "csv"],
    )
    def test_read_peak_memory_near_the_table(self, tmp_path, write, read):
        # typed column segments, handed to the table without a copy: besides
        # the table it returns, a read holds about one more column and one
        # chunk of Python values. Both readers peak at 1.39x the table on
        # these 20k bids; they peaked at 2.15x while the table copied them.
        bids = synthetic_bids(0.0065, n_slots=25, per_slot=800, noise=0.01)
        path = tmp_path / "bids"
        write(bids, path)
        tracemalloc.start()
        try:
            got = read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == bids
        assert peak <= 1.6 * sum(col.nbytes for col in got.columns())

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"slot": 1, "builder_id": 2, "received_at_ms": 0, '
                        '"eligible_at_ms": 0, "value_eth": 1.0, "relay": "x"}\n')
        with pytest.raises(ConfigurationError, match="unknown bid fields"):
            read_bids_jsonl(path)

    def test_error_line_counts_blank_lines(self, tmp_path):
        good = ('{"slot": 0, "builder_id": 1, "received_at_ms": 0, '
                '"eligible_at_ms": 0, "value_eth": 1.0}')
        path = tmp_path / "gappy.jsonl"
        path.write_text("\n".join(["", good, "", "", good, good.replace("1.0", "-1.0")]))
        with pytest.raises(ConfigurationError, match=r"gappy\.jsonl:6: bid value"):
            read_bids_jsonl(path)
        path.write_text("\n".join(["", good.replace("1.0", "-1.0")]))
        with pytest.raises(ConfigurationError, match=r"gappy\.jsonl:2: bid value"):
            read_bids_jsonl(path)

    def test_error_line_counts_multiline_csv_records(self, tmp_path):
        # a quoted field may span lines; the row after it keeps its own line
        path = tmp_path / "wrapped.csv"
        path.write_text('slot,builder_id,received_at_ms,eligible_at_ms,value_eth\n'
                        '"0\n",1,0,0,1.0\n\n1,1,0,0,1.0\n1,1,zero,0,1.0\n')
        with pytest.raises(ConfigurationError, match=r"wrapped\.csv:6: received_at_ms"):
            read_bids_csv(path)

    def test_jsonl_integer_beyond_int64_named_by_line(self, tmp_path):
        good = ('{"slot": 0, "builder_id": 1, "received_at_ms": 0, '
                '"eligible_at_ms": 0, "value_eth": 1.0}')
        path = tmp_path / "e.jsonl"
        bad = good.replace('"builder_id": 1', f'"builder_id": {2**70}')
        path.write_text("\n".join([good] * 200 + [bad]) + "\n")
        with pytest.raises(
            ConfigurationError,
            match=rf"^{re.escape(str(path))}:201: builder_id must fit in int64, got {2**70}$",
        ):
            read_bids_jsonl(path)

    def test_csv_integer_beyond_int64_named_by_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("slot,builder_id,received_at_ms,eligible_at_ms,value_eth\n"
                        "0,1,0,0,1.0\n1,1180591620717411303424,0,0,1.0\n")
        with pytest.raises(
            ConfigurationError,
            match=rf"^{re.escape(str(path))}:3: builder_id must fit in int64, got "
                  r"1180591620717411303424$",
        ):
            read_bids_csv(path)

    @pytest.mark.parametrize(
        "first, second, reported",
        [
            # a decode error wins over an earlier value or row error
            ((6, ("value_eth", -1.0)), (251, "{oops"), ":251: not valid JSON"),
            ((2, ("builder_id", "two")), (4, "{oops"), ":4: not valid JSON"),
            # a value error wins over an earlier row error
            ((3, ("eligible_at_ms", -1)), (9, ("received_at_ms", "ten")),
             ":9: received_at_ms must be an integer"),
        ],
        ids=["row-then-decode", "value-then-decode", "row-then-value"],
    )
    def test_jsonl_error_order(self, tmp_path, first, second, reported):
        # decode and field errors as lines are read, then value errors column
        # by column, then the table's row checks
        good = {"slot": 0, "builder_id": 1, "received_at_ms": 0, "eligible_at_ms": 0,
                "value_eth": 1.0}
        lines = [json.dumps(good)] * 300
        for line_no, bad in (first, second):
            if not isinstance(bad, str):
                bad = json.dumps({**good, bad[0]: bad[1]})
            lines[line_no - 1] = bad
        path = tmp_path / "two.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path) + reported)}"):
            read_bids_jsonl(path)

    def test_unsupported_extension(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_bids(tmp_path / "bids.parquet")


class TestDefaultSigningDelay:
    def test_median_calibrated_to_418ms(self):
        rng = np.random.default_rng(2718)
        samples = DEFAULT_SIGNING_DELAY.sample(rng, size=100_000)
        assert abs(float(np.median(samples)) - 418.0) / 418.0 < 0.02
