import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames import cli
from timinggames.cli import main, run_experiment
from timinggames.config import (
    MAX_GRID_POINTS,
    OPTION_SCHEMAS,
    ExperimentConfig,
    resolve_config,
)
from timinggames.market import _READ_CHUNK_LINES, BID_FIELDS
from timinggames.model import ConfigurationError, ProtocolParams
from timinggames.output import (
    CURVE_SCHEMA,
    DEVIATIONS_SCHEMA,
    RESPONSE_SCHEMA,
    SHARE_SAMPLES_SCHEMA,
    SLOTS_SCHEMA,
    SWEEP_SCHEMA,
    write_csv,
)

from helpers import load_config, read_csv
from oracles import proposer_payoff
from test_differential import bid_files

SMALL_PARAMS = {
    "attester_count": 10,
    "horizon_slots": 5,
    "seed": 314,
}


class TestPresets:
    def test_ethereum_preset(self):
        cfg = resolve_config({"command": "simulate", "preset": "ethereum"})
        assert cfg.params.slot_length_us == 12_000_000
        assert cfg.params.attestation_deadline_us == 4_000_000
        assert cfg.params.vote_threshold == 0.5

    def test_streamlet_threshold(self):
        cfg = resolve_config({"command": "simulate", "preset": "streamlet"})
        assert cfg.params.vote_threshold == 2 / 3

    def test_block_slot_threshold(self):
        cfg = resolve_config({"command": "simulate", "preset": "block-slot"})
        assert cfg.params.vote_threshold == 0.5

    def test_explicit_params_beat_preset(self):
        cfg = resolve_config(
            {
                "command": "simulate",
                "preset": "streamlet",
                "params": {"vote_threshold": 0.9, "attester_count": 20},
            }
        )
        assert cfg.params.vote_threshold == 0.9

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            resolve_config({"command": "simulate", "preset": "tendermint"})


class TestValidation:
    def test_slot_shorter_than_two_latencies_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            resolve_config(
                {"command": "simulate", "params": {"slot_length_us": 1_500_000}}
            )

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="plots"):
            resolve_config({"command": "simulate", "plots": True})

    def test_unknown_param_key(self):
        with pytest.raises(ConfigurationError, match="gas_limit"):
            resolve_config({"command": "simulate", "params": {"gas_limit": 1}})

    def test_unknown_option_key_names_command(self):
        with pytest.raises(ConfigurationError, match="sweep options"):
            resolve_config({"command": "sweep", "options": {"grid": [0]}})

    def test_missing_command_lists_choices(self):
        with pytest.raises(ConfigurationError, match="simulate, sweep"):
            resolve_config({})

    def test_command_mismatch(self):
        with pytest.raises(ConfigurationError, match="sweep"):
            resolve_config({"command": "sweep"}, command="simulate")

    def test_non_integer_time_rejected(self):
        with pytest.raises(ConfigurationError, match="slot_length_us"):
            resolve_config(
                {"command": "simulate", "params": {"slot_length_us": 12.5}}
            )

    @pytest.mark.parametrize(
        "key,value",
        [
            ("mev_rate", float("inf")),
            ("base_reward", float("nan")),
            ("vote_threshold", float("-inf")),
            ("mev_rate", 10**400),
        ],
        ids=["mev_rate-inf", "base_reward-nan", "vote_threshold--inf", "mev_rate-10**400"],
    )
    def test_non_finite_number_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must be finite, got "):
            resolve_config({"command": "simulate", "params": {key: value}})

    def test_strategy_options_validated(self):
        bad_proposers = [
            ({"name": "greedy_delay", "lateness": 1}, "unknown options"),
            ({"name": "greedy_delay", "delay_us": 2.7}, "must be an integer"),
            ({"name": "fixed", "delay_us": "abc"}, "must be an integer"),
            ({"name": "greedy_delay", "delay_us": True}, "got a boolean"),
            ({"name": "fixed", "build_on_prev": 2}, "must be 0 or 1"),
            ({"name": "fixed", "build_on_prev": True}, "got a boolean"),
            ("abc", "must be a mapping"),
        ]
        cases = [({"attester": {"name": "honest_spec", "delay_us": 5}}, "unknown options")]
        for spec, match in bad_proposers:
            cases += [({"proposer": spec}, match), ({"proposer_overrides": {"1": spec}}, match)]
        for options, match in cases:
            with pytest.raises(ConfigurationError, match=match):
                resolve_config({"command": "simulate", "params": SMALL_PARAMS, "options": options})


class TestEffectiveConfig:
    def test_defaults_materialized(self):
        cfg = resolve_config({"command": "sweep", "params": SMALL_PARAMS})
        eff = cfg.effective_dict()
        assert eff["options"]["delta_star_grid_us"] == [
            0,
            3_000_000,
            6_000_000,
            9_000_000,
            12_000_000,
        ]
        assert eff["params"]["attester_count"] == 10

    @pytest.mark.parametrize(
        "command,key,given",
        [
            ("sweep", "delta_star_grid_us", [5]),
            ("check-equilibrium", "delta_star_grid_us", [5]),
            ("check-equilibrium", "tau_shift_us", 7),
            ("best-response", "delay_grid_us", [5]),
            ("curves", "delay_grid_us", [5]),
            ("curves", "horizon", 3),
        ],
    )
    def test_computed_default_fills_only_an_unset_option(self, command, key, given):
        computed = resolve_config({"command": command, "params": SMALL_PARAMS}).options[key]
        assert computed != given
        for value, expected in ((None, computed), (given, given)):
            raw = {"command": command, "params": SMALL_PARAMS, "options": {key: value}}
            assert resolve_config(raw).options[key] == expected

    def test_threshold_echo_is_a_float(self):
        # the params check every other field; the threshold given as 1 echoes 1.0
        cfg = resolve_config({"command": "sweep", "params": {"vote_threshold": 1}})
        assert json.dumps(cfg.effective_dict()["params"]["vote_threshold"]) == "1.0"

    def test_numpy_params_accepted(self):
        params = {"slot_length_us": np.int64(12_000_000), "base_reward": np.float64(0.5),
                  "vote_threshold": np.float64(0.5), "seed": np.uint64(2**63)}
        echo = resolve_config({"command": "sweep", "params": params}).effective_dict()["params"]
        assert json.dumps({key: echo[key] for key in params}) == (
            '{"slot_length_us": 12000000, "base_reward": 0.5, "vote_threshold": 0.5, '
            '"seed": 9223372036854775808}'
        )

    def test_echo_reloads_to_same_experiment(self):
        cfg = resolve_config(
            {"command": "best-response", "params": SMALL_PARAMS, "preset": "ethereum"}
        )
        again = resolve_config(cfg.effective_dict())
        assert again.params == cfg.params
        assert again.options == cfg.options
        assert again.command == cfg.command

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "simulate", "params": SMALL_PARAMS}))
        cfg = load_config(path)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.params.attester_count == 10

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="valid JSON"):
            load_config(path)


def run_cli(tmp_path, command, options=None, params=None, name="cfg", extra=()):
    cfg = {"params": dict(SMALL_PARAMS)}
    if params:
        cfg["params"].update(params)
    if options:
        cfg["options"] = options
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"out-{name}-{command}"
    code = main([command, "--config", str(path), "--out", str(out), *extra])
    return code, out


class TestCliCommands:
    def test_simulate_outputs(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate")
        assert code == 0
        rows = read_csv(out / "slots.csv", SLOTS_SCHEMA)
        assert len(rows) == 5
        assert all(r["canonical"] == 1 for r in rows)
        trace = json.loads((out / "trace.json").read_text())
        assert trace["aggregate"]["canonical_slots"] == 5

        # laggy proposers are paid a different amount in every slot; the total
        # is the left-to-right sum of the payoffs (here a pairwise sum, as
        # np.sum takes it, differs in the last bit)
        params = {"horizon_slots": 64, "seed": 1}
        options = {"proposer": {"name": "laggy"}, "attester": {"name": "honest_spec"}}
        code, out = run_cli(tmp_path, "simulate", params=params, options=options, name="laggy")
        assert code == 0
        p = ProtocolParams(**{**SMALL_PARAMS, **params})
        expected, last = [], p.genesis_time_us
        for row in read_csv(out / "slots.csv", SLOTS_SCHEMA):
            expected.append(proposer_payoff(row["release_time_us"], last, row["canonical"], p))
            assert row["proposer_payoff"] == expected[-1]
            if row["canonical"]:
                last = row["release_time_us"]
        trace = json.loads((out / "trace.json").read_text())
        assert len(set(expected)) == 64
        assert trace["aggregate"]["total_proposer_payoff"] == sum(expected)

    def test_simulate_with_json_overrides(self, tmp_path):
        # JSON object keys are strings; the loader must take "2" as slot 2
        code, out = run_cli(
            tmp_path,
            "simulate",
            options={
                "proposer_overrides": {"2": {"name": "greedy_delay", "delay_us": 3_000_000}}
            },
            name="ovr",
        )
        assert code == 0
        rows = read_csv(out / "slots.csv", SLOTS_SCHEMA)
        assert rows[2]["canonical"] == 0
        assert rows[2]["release_time_us"] == 27_000_000
        # the echoed config reruns cleanly
        eff = json.loads((out / "effective_config.json").read_text())
        code2, out2 = tmp_path, tmp_path / "ovr-echo"
        cfg_path = tmp_path / "ovr-echo.json"
        cfg_path.write_text(json.dumps(eff))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out2 / "slots.csv").read_bytes() == (out / "slots.csv").read_bytes()

    def test_sweep_outputs(self, tmp_path):
        code, out = run_cli(tmp_path, "sweep")
        assert code == 0
        rows = read_csv(out / "sweep.csv", SWEEP_SCHEMA)
        assert len(rows) == 5
        assert len({r["proposer_payoff"] for r in rows}) == 1

    def test_check_equilibrium_outputs(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "check-equilibrium",
            options={"deviation_points": 6, "mc_samples": 1000, "delta_star_grid_us": [0, 6_000_000]},
        )
        assert code == 0
        report = json.loads((out / "equilibrium_report.json").read_text())
        assert report["all_unprofitable"] is True
        rows = read_csv(out / "deviations.csv", DEVIATIONS_SCHEMA)
        assert len(rows) == 2 * (6 + 2)

    def test_best_response_outputs(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "best-response",
            options={"delay_grid_us": [3_200_000, 3_300_000], "runs_per_point": 4},
        )
        assert code == 0
        rows = read_csv(out / "response_curve.csv", RESPONSE_SCHEMA)
        assert [r["delay_us"] for r in rows] == [3_200_000, 3_300_000]
        payload = json.loads((out / "best_response.json").read_text())
        assert payload["closed_form_delay_us"] == 3_306_853

    def test_mvot_outputs(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "mvot",
            options={"n_slots": 10, "bids_per_slot": 50, "noise_sd_eth": 0.0, "save_bids": True},
        )
        assert code == 0
        report = json.loads((out / "mvot_report.json").read_text())
        assert report["slope_eth_per_s"] == pytest.approx(0.0065, rel=1e-9)
        assert (out / "bids.jsonl").exists()

    def test_mvot_accepts_external_bids(self, tmp_path):
        from timinggames.market import generate_bid_stream, write_bids_jsonl

        bids = generate_bid_stream(n_slots=6, bids_per_slot=40, noise_sd_eth=0.0, rng=5)
        bids_path = tmp_path / "external.jsonl"
        write_bids_jsonl(bids, bids_path)
        code, out = run_cli(
            tmp_path, "mvot", options={"bids_path": str(bids_path)}, name="ext"
        )
        assert code == 0
        report = json.loads((out / "mvot_report.json").read_text())
        assert report["planted_mu_eth_per_s"] is None
        assert report["n_obs"] == 240

    def test_curves_outputs(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "curves",
            options={"delay_grid_us": [0, 2_000_000], "runs": 2, "horizon": 4},
            params={"attester_count": 50},
        )
        assert code == 0
        curve = read_csv(out / "next_slot_share.csv", CURVE_SCHEMA)
        assert len(curve) == 2
        samples = read_csv(out / "share_samples.csv", SHARE_SAMPLES_SCHEMA)
        assert len(samples) == 2 * 2 * 4
        corr = json.loads((out / "correlations.json").read_text())
        assert corr["release_offset_vs_share"] < 0  # later release, smaller share

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"params": {"nope": 1}}))
        code = main(["simulate", "--config", str(path)])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "check-equilibrium", "mvot"])
    def test_oversized_latency_plane_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # rejected by validation: the run, which would allocate it, is never reached
        def forbidden(cfg):
            raise AssertionError("an oversized config reached the run")

        monkeypatch.setattr(cli, "run_experiment", forbidden)
        code, out = run_cli(tmp_path, command, params={"attester_count": 10**8})
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: one run's latency plane, 2 x horizon_slots x attester_count = "
            "1000000000 latencies, exceeds the cap of 16777216"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,options,count",
        [
            ("check-equilibrium", {"deviation_points": 10**7},
             "(deviation_points + 1) x (runs + horizon_slots) = 60000006"),
            ("check-equilibrium", {"runs": 10**12},
             "(deviation_points + 1) x (runs + horizon_slots) = 51000000000255"),
            ("check-equilibrium", {"mc_samples": 10**15}, f"mc_samples = {10**15}"),
            ("curves", {"runs": 10**12}, f"runs x horizon = {5 * 10**12}"),
            ("best-response", {"runs_per_point": 10**12}, f"runs_per_point = {10**12}"),
        ],
    )
    def test_oversized_monte_carlo_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                           options, count):
        # rejected by validation, before a grid or a seed list is built
        def forbidden(cfg):
            raise AssertionError("an oversized config reached the run")

        monkeypatch.setattr(cli, "run_experiment", forbidden)
        code, out = run_cli(tmp_path, command, options=options)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {count} samples per grid point exceeds the cap of 1048576"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,options",
        [
            ("check-equilibrium", {"deviation_points": 2**17 - 1, "runs": 3}),
            ("check-equilibrium", {"mc_samples": 2**20}),
            ("curves", {"runs": 2**18, "horizon": 4}),
            ("best-response", {"runs_per_point": 2**20}),
        ],
    )
    def test_monte_carlo_at_the_cap_accepted(self, command, options):
        # validation only; one sample more is rejected
        raw = {"command": command, "params": SMALL_PARAMS, "options": options}
        resolve_config(raw)
        key = "mc_samples" if "mc_samples" in options else next(iter(options))
        with pytest.raises(ConfigurationError, match="exceeds the cap of 1048576"):
            resolve_config(dict(raw, options={**options, key: options[key] + 1}))

    # a grid given, or the threshold-1 default (a point every 0.5 s up to the
    # deadline), which is measured before it is built; without the cap, the
    # first case fails before the 2 x 10^7-point default would be built
    @pytest.mark.parametrize(
        "command,grid,points,params",
        [
            ("sweep", "delta_star_grid_us", 10**6, None),
            ("check-equilibrium", "delta_star_grid_us", 10**6, None),
            ("best-response", "delay_grid_us", 10**6, None),
            ("curves", "delay_grid_us", 10**6, None),
            ("best-response", "delay_grid_us", 4097,
             {"vote_threshold": 1, "attestation_deadline_us": 2**11 * 10**6}),
            ("best-response", "delay_grid_us", 20000001,
             {"vote_threshold": 1, "slot_length_us": 10**13, "attestation_deadline_us": 10**13}),
        ],
    )
    def test_grid_beyond_the_cap_exits_2(self, tmp_path, capsys, monkeypatch, command, grid,
                                         points, params):
        # rejected by validation, before each point is read
        def forbidden(cfg):
            raise AssertionError("an oversized grid reached the run")

        monkeypatch.setattr(cli, "run_experiment", forbidden)
        options = None if params else {grid: list(range(points))}
        code, out = run_cli(tmp_path, command, options=options, params=params)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {grid} has {points} points, above the cap of 4096"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,key",
        [
            ("sweep", "delta_star_grid_us"),
            ("check-equilibrium", "delta_star_grid_us"),
            ("best-response", "delay_grid_us"),
            ("curves", "delay_grid_us"),
        ],
    )
    def test_grid_at_the_cap_accepted(self, command, key):
        # validation only; one point more is rejected
        grid = list(range(MAX_GRID_POINTS))
        raw = {"command": command, "params": SMALL_PARAMS, "options": {key: grid}}
        assert resolve_config(raw).options[key] == grid
        with pytest.raises(ConfigurationError, match="has 4097 points, above the cap of 4096"):
            resolve_config(dict(raw, options={key: grid + [0]}))

    def test_default_grid_at_the_cap_accepted(self):
        deadline_us = (MAX_GRID_POINTS - 1) * 500_000
        params = {"vote_threshold": 1, "attestation_deadline_us": deadline_us}
        options = resolve_config({"command": "best-response", "params": params}).options
        assert options["delay_grid_us"] == list(range(0, deadline_us + 1, 500_000))

    def test_record_level_option_exits_2(self, tmp_path, capsys):
        # the option is gone: both levels wrote the same outputs
        code, out = run_cli(tmp_path, "simulate", options={"record_level": "full"})
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown simulate options keys: record_level; "
            "allowed: proposer, attester, proposer_overrides"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,options,message",
        [
            ("simulate",
             {"proposer": {"name": "laggy",
                           "signing_delay": {"family": "exponential", "mean": 100, "value": 3}}},
             "unknown exponential distribution keys: value; allowed: family, mean"),
            ("mvot", {"baseline": {"family": "degenerate", "value": 0.1, "mean": 5}},
             "unknown degenerate distribution keys: mean; allowed: family, value"),
            ("mvot", {"validation_latency": {"family": "lognormal", "median": 100, "value": 1}},
             "unknown lognormal distribution keys: value; allowed: family, median, sigma"),
            ("mvot", {"validation_latency": {"family": "exponential", "mean": 100, "median": -1}},
             "unknown exponential distribution keys: median; allowed: family, mean"),
        ],
    )
    def test_distribution_key_its_family_does_not_read_exits_2(self, tmp_path, capsys, command,
                                                              options, message):
        code, out = run_cli(tmp_path, command, options=options)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_oversized_bid_stream_exits_2(self, tmp_path):
        # rejected by the generator before it allocates a column
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "mvot", "options": {"bids_per_slot": 10**30}}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["mvot", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert err.getvalue().splitlines() == [
            f"error: n_slots x bids_per_slot = {100 * 10**30} bids exceeds the cap of 16777216"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_times_beyond_int64_exit_2(self, tmp_path, capsys, command):
        code, out = run_cli(tmp_path, command, params={"slot_length_us": 2**62, "horizon_slots": 4})
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: a run's absolute times reach ") and "beyond int64" in line
        assert not out.exists()

    def test_release_shift_beyond_int64_exits_2(self, tmp_path, capsys):
        options = {"delta_star_grid_us": [0], "deviation_points": 2, "mc_samples": 1000,
                   "tau_shift_us": 2**63 - 1}
        code, out = run_cli(tmp_path, "check-equilibrium", options=options)
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: a release shift of 9223372036854775807 us takes")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,options,message",
        [
            ("mvot", {"mu_eth_per_s": 1e308},
             "error: slot 0: bid values beyond float64 from the baseline 0.1 ETH "
             "(slot_effect_dist) + mu_eth_per_s = 1e+308 ETH/s x arrival"),
            ("simulate",
             {"proposer": {"name": "laggy",
                           "signing_delay": {"family": "exponential", "mean": 1e308}}},
             "error: slot 0: the laggy signing_delay drew inf us, beyond float64"),
        ],
    )
    def test_values_beyond_float64_exit_2_without_a_warning(self, tmp_path, capsys, command,
                                                            options, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"params": SMALL_PARAMS, "options": options}))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        assert main_exits_cleanly(argv) == 2  # one error line, no warning
        assert not (tmp_path / "out").exists()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_release_after_next_slot_exits_2(self, tmp_path, capsys):
        # a 30 s delay in slot 1 would release after slots 2 and 3 started
        code, out = run_cli(
            tmp_path,
            "simulate",
            options={"proposer_overrides": {"1": {"name": "greedy_delay", "delay_us": 30_000_000}}},
            name="late",
        )
        assert code == 2
        assert "delay_us must lie within [0, slot_length_us=12000000]" in capsys.readouterr().err
        assert not out.exists()

    def test_laggy_release_after_next_slot_exits_2(self, tmp_path, capsys):
        # a 30 s signing delay releases slot 0's block after slot 1 started
        signing = {"family": "degenerate", "value": 30_000}
        code, out = run_cli(
            tmp_path,
            "simulate",
            options={"proposer": {"name": "laggy", "signing_delay": signing}},
            name="laggy",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: slot 0: proposer strategy released at 30000000 after the next" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("check-equilibrium", "runs", "3"),
            ("check-equilibrium", "deviation_slot", "2"),
            ("best-response", "runs_per_point", "2"),
            ("sweep", "delta_star_grid_us", "abc"),
            ("curves", "bucket_ms", "x"),
            ("mvot", "n_slots", 2.5),
            ("mvot", "arrival_window_ms", [0]),
            ("mvot", "save_bids", "no"),
            ("mvot", "bids_path", 7),
            ("mvot", "bids_path", ""),
            ("check-equilibrium", "delta_star_grid_us", []),
            ("sweep", "delta_star_grid_us", []),
            ("best-response", "delay_grid_us", []),
            ("curves", "delay_grid_us", []),
            ("curves", "runs", 0),
            ("curves", "runs", -3),
            ("curves", "bucket_ms", float("nan")),
            ("curves", "bucket_ms", float("inf")),
            ("mvot", "mu_eth_per_s", float("-inf")),
        ],
    )
    def test_wrong_typed_option_exits_2(self, tmp_path, capsys, command, key, value):
        code, out = run_cli(tmp_path, command, options={key: value})
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bids_path", [None, "b.csv"])
    @pytest.mark.parametrize("profile", [5, "bimodal", None])
    def test_bad_arrival_profile_exits_2(self, tmp_path, capsys, bids_path, profile):
        # a run on a bid file generates no bids, but the option is still checked
        options = {"bids_path": bids_path, "arrival_profile": profile}
        code, out = run_cli(tmp_path, "mvot", options=options)
        assert code == 2
        message = f"arrival_profile must be one of ('uniform', 'triangular'), got {profile!r}"
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_missing_config_file_exits_nonzero(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "ghost.json")]) == 2

    @pytest.mark.parametrize("kind", ["directory", "binary", "huge-integer"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, kind):
        path = unreadable_file(tmp_path, "cfg.json", kind)
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err


def unreadable_file(tmp_path, name, kind):
    """A path that exists but cannot be read: a directory, bytes that are not
    UTF-8 text, or JSON holding an integer of more digits than Python reads."""
    path = tmp_path / name
    if kind == "directory":
        path.mkdir()
    elif kind == "huge-integer":
        path.write_text('{"params": {"seed": 1' + "0" * 5000 + "}}")
    else:
        path.write_bytes(b"\xff\xfe\x00")
    return path


GOOD_BID = {"slot": 0, "builder_id": 1, "received_at_ms": -100, "eligible_at_ms": -90,
            "value_eth": 0.5}


def bid_lines(bad_line):
    """Six valid bids over two slots, then ``bad_line`` as line 7."""
    lines = [
        json.dumps(dict(GOOD_BID, slot=s, received_at_ms=-100 * k, eligible_at_ms=-100 * k))
        for s in (0, 1)
        for k in (1, 2, 3)
    ]
    return "\n".join(lines + [bad_line]) + "\n"


class TestBadBidFiles:
    """A bid file the model cannot use ends the run with exit status 2 and a
    message naming the file (and its line, where one applies)."""

    def run_mvot(self, tmp_path, capsys, bids_path):
        code, _ = run_cli(tmp_path, "mvot", options={"bids_path": str(bids_path)}, name="bad")
        return code, capsys.readouterr().err

    def check_line_error(self, tmp_path, capsys, name, text, expected):
        path = tmp_path / name
        path.write_text(text)
        code, err = self.run_mvot(tmp_path, capsys, path)
        assert code == 2
        assert f"{path}:" in err and expected in err, err

    def test_malformed_json_line(self, tmp_path, capsys):
        self.check_line_error(
            tmp_path, capsys, "bids.jsonl", bid_lines('{"slot": 0, "builder_id":'),
            ":7: not valid JSON",
        )

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ('{"slot": 0, "builder_id":', "not valid JSON"),
            (json.dumps(dict(GOOD_BID, eligible_at_ms=-101)), "a bid cannot be eligible"),
            (json.dumps(GOOD_BID).replace('"slot": 0', '"slot": 1' + "0" * 5000),
             "not valid JSON (Exceeds the limit (4300 digits)"),
        ],
        ids=["malformed", "eligible-early", "huge-integer"],
    )
    @pytest.mark.parametrize(
        "good_lines, blank_lines",
        [
            (_READ_CHUNK_LINES, 0),
            (_READ_CHUNK_LINES - 1, 0),
            (_READ_CHUNK_LINES - 2, 4),
        ],
        ids=["first-of-chunk-2", "last-of-chunk-1", "after-blanks-across-chunks"],
    )
    def test_bad_line_at_a_chunk_boundary(
        self, tmp_path, capsys, good_lines, blank_lines, bad, reason
    ):
        lines = [json.dumps(GOOD_BID)] * good_lines + [""] * blank_lines + [bad]
        bad_line_no = good_lines + blank_lines + 1
        self.check_line_error(
            tmp_path, capsys, "bids.jsonl", "\n".join(lines) + "\n",
            f"{tmp_path / 'bids.jsonl'}:{bad_line_no}: {reason}",
        )

    def test_missing_bid_file(self, tmp_path, capsys):
        code, err = self.run_mvot(tmp_path, capsys, tmp_path / "ghost.jsonl")
        assert code == 2
        assert "bid file not found" in err

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_bid_file(self, tmp_path, capsys, kind):
        path = unreadable_file(tmp_path, "bids.jsonl", kind)
        code, err = self.run_mvot(tmp_path, capsys, path)
        assert code == 2
        assert f"cannot read bid file {path}" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value(self, tmp_path, capsys, literal):
        bad = json.dumps(GOOD_BID).replace("0.5", literal)
        self.check_line_error(
            tmp_path, capsys, "bids.jsonl", bid_lines(bad), ":7: bid value must be finite"
        )
        assert not (tmp_path / "out-bad-mvot" / "mvot_report.json").exists()

    @pytest.mark.parametrize("value", [10.7, True, "ten", None])
    def test_non_integral_int_field(self, tmp_path, capsys, value):
        bad = json.dumps(dict(GOOD_BID, received_at_ms=value))
        self.check_line_error(
            tmp_path, capsys, "bids.jsonl", bid_lines(bad),
            ":7: received_at_ms must be an integer",
        )

    def test_int_field_beyond_int64(self, tmp_path, capsys):
        bad = json.dumps(dict(GOOD_BID, received_at_ms=2**64, eligible_at_ms=2**64))
        self.check_line_error(
            tmp_path, capsys, "bids.jsonl", bid_lines(bad), "received_at_ms must hold integers"
        )

    def test_integral_float_accepted(self, tmp_path, capsys):
        path = tmp_path / "bids.jsonl"
        path.write_text(bid_lines(json.dumps(dict(GOOD_BID, received_at_ms=-95.0))))
        code, _ = self.run_mvot(tmp_path, capsys, path)
        assert code == 0

    def test_eligible_before_received(self, tmp_path, capsys):
        bad = json.dumps(dict(GOOD_BID, eligible_at_ms=-101))
        self.check_line_error(
            tmp_path, capsys, "bids.jsonl", bid_lines(bad), ":7: a bid cannot be eligible"
        )

    def test_json_line_that_is_not_an_object(self, tmp_path, capsys):
        self.check_line_error(
            tmp_path, capsys, "bids.jsonl", bid_lines("[1, 2]"), ":7: a bid must be a JSON object"
        )

    @pytest.mark.parametrize(
        "cell, expected",
        [
            ("received_at_ms=10.7", ":8: received_at_ms must be an integer"),
            ("received_at_ms=ten", ":8: received_at_ms must be an integer"),
            ("value_eth=nan", ":8: bid value must be finite"),
            ("value_eth=inf", ":8: bid value must be finite"),
            ("value_eth=lots", ":8: value_eth must be a number"),
        ],
    )
    def test_csv_rules_match_jsonl(self, tmp_path, capsys, cell, expected):
        # header on line 1, six valid rows, the bad row on line 8
        field, value = cell.split("=")
        rows = [",".join(BID_FIELDS)]
        for s in (0, 1):
            for k in (1, 2, 3):
                rows.append(f"{s},1,{-100 * k},{-100 * k},0.5")
        bad = dict(GOOD_BID, **{field: value})
        rows.append(",".join(str(bad[name]) for name in BID_FIELDS))
        self.check_line_error(tmp_path, capsys, "bids.csv", "\n".join(rows) + "\n", expected)

    def test_csv_row_with_wrong_field_count(self, tmp_path, capsys):
        text = ",".join(BID_FIELDS) + "\n0,1,-100,-100,0.5\n1,1,-100\n"
        self.check_line_error(tmp_path, capsys, "bids.csv", text, ":3: expected 5 bid fields")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(bid_files())
def test_mvot_on_any_bid_file_exits_cleanly(text):
    # the report, or exit status 2 with one error line and no traceback,
    # whatever the bid file holds; the seven valid bids after the drawn lines
    # give the fit enough slots and spread wherever those lines read cleanly
    with tempfile.TemporaryDirectory() as tmp:
        bids_path = os.path.join(tmp, "bids.jsonl")
        with open(bids_path, "w", encoding="utf-8") as fh:
            fh.write(text + bid_lines(json.dumps(GOOD_BID)))
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"params": SMALL_PARAMS, "options": {"bids_path": bids_path}}, fh)
        out = os.path.join(tmp, "out")
        code = main_exits_cleanly(["mvot", "--config", config, "--out", out])
        assert os.path.exists(os.path.join(out, "mvot_report.json")) == (code == 0)


def main_exits_cleanly(argv) -> int:
    """``main(argv)``'s exit status, after checking that it is 0 with nothing
    on standard error and no warning, or 2 with one ``error:`` line, no
    traceback and no warning."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the CLI would print each one
        code = main(argv)
    lines = err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
    if code == 0:
        assert lines == []
    else:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "Traceback" not in err.getvalue()
    return code


#: Option values of the wrong type, out of range, not finite, or nested, which
#: any ``mvot`` option may be given.
ODD_OPTION_VALUES = (
    True, False, None, "", "x", "Uniform", 0, -1, 1.5, 1e308, -1e308, float("nan"), float("inf"),
    float("-inf"), 2**63, 10**30, -(10**30), [], [1], [-4000, 1000, 7], [True, 1],
    {}, {"family": "x"}, {"family": "degenerate", "value": 0.1, "extra": 1},
    {"n_slots": {"n_slots": 2}},
)
#: Numbers an option or a distribution parameter may be given: small ones,
#: and ones at the edge of the float and int64 ranges.
OPTION_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(0.001, 500.0),
    st.sampled_from((1e-300, 1e300, -1e300, 2**63, 10**30, -(10**30))),
)
#: Distribution parameters: positive ones, and the edges of the ranges.
DISTRIBUTION_NUMBERS = st.one_of(
    st.floats(0.001, 500.0), st.sampled_from((0, -1, 1e-300, 1e300, 2**63, 10**30))
)
#: The parameter each distribution family requires.
FAMILY_PARAMETER = {"degenerate": "value", "exponential": "mean", "lognormal": "median"}


@st.composite
def distributions(draw):
    family = draw(st.sampled_from(tuple(FAMILY_PARAMETER)))
    spec = {"family": family, FAMILY_PARAMETER[family]: draw(DISTRIBUTION_NUMBERS)}
    if family == "lognormal" and draw(st.booleans()):
        spec["sigma"] = draw(DISTRIBUTION_NUMBERS)
    return spec


#: Bid files in the test's directory: one of seven valid bids, and two that
#: cannot be read.
BID_FILE_NAMES = ("bids.jsonl", "missing.jsonl", "bids.txt")
#: A valid value, or one at the edge of the model, for each ``mvot`` option.
MVOT_OPTION_VALUES = {
    "bids_path": st.sampled_from(BID_FILE_NAMES),
    "n_slots": st.integers(1, 6),
    "bids_per_slot": st.integers(1, 40),
    "mu_eth_per_s": OPTION_NUMBERS,
    "noise_sd_eth": OPTION_NUMBERS,
    "arrival_window_ms": st.lists(
        st.one_of(st.integers(-5000, 5000), st.sampled_from((2**53, 2**62, -(2**62), 2**64))),
        min_size=2, max_size=2, unique=True,
    ).map(sorted),
    "arrival_profile": st.sampled_from(("uniform", "triangular")),
    "baseline": distributions(),
    "validation_latency": distributions(),
    "n_builders": st.one_of(st.integers(1, 40), st.sampled_from((2**62, 2**63, 10**30))),
    "save_bids": st.booleans(),
}
#: Bids generated per run, above which a run is only validated.
MVOT_BID_BUDGET = 2000


@st.composite
def mvot_configs(draw):
    # valid or left out, bids_path mostly left out so that bids are generated;
    # then at most one option (or an unknown key) given an odd value, or the
    # options nested one level too deep
    options = {}
    for key, values in MVOT_OPTION_VALUES.items():
        if (draw(st.integers(0, 9)) == 0) if key == "bids_path" else draw(st.integers(0, 3)):
            options[key] = draw(values)
    odd_key = draw(st.sampled_from((None,) * 4 + (*MVOT_OPTION_VALUES, "extra")))
    if odd_key is not None:
        options[odd_key] = draw(st.sampled_from(ODD_OPTION_VALUES))
    place = draw(st.sampled_from(("options",) * 12 + ("options.mvot", "params.options")))
    if place == "options.mvot":
        return {"params": SMALL_PARAMS, "options": {"mvot": options}}
    if place == "params.options":
        return {"params": dict(SMALL_PARAMS, options=options)}
    return {"params": SMALL_PARAMS, "options": options}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mvot_configs())
def test_mvot_on_any_config_exits_cleanly(raw):
    # every option, with values of the wrong type, not finite, beyond any
    # range, or nested, and unknown keys: the report, or exit status 2 with
    # one error line; a config asking for many bids is only validated
    def budgeted(cfg):
        opts = cfg.options
        if opts["bids_path"] is None and opts["n_slots"] * opts["bids_per_slot"] > MVOT_BID_BUDGET:
            return []
        return run_experiment(cfg)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "run_experiment", budgeted):
        with open(os.path.join(tmp, "bids.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(bid_lines(json.dumps(GOOD_BID)))
        options = raw.get("options", {})
        if options.get("bids_path") in BID_FILE_NAMES:
            options["bids_path"] = os.path.join(tmp, options["bids_path"])
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        main_exits_cleanly(["mvot", "--config", config, "--out", os.path.join(tmp, "out")])


#: Grid entries: inside a 12 s slot, at its edges, past them, and beyond int64.
GRID_ENTRIES = st.one_of(
    st.integers(-1, 13_000_000), st.sampled_from((0, 4_000_000, 12_000_000, 2**63, 10**30))
)
GRIDS = st.lists(GRID_ENTRIES, min_size=1, max_size=3)
#: Counts: small ones, and ones a run could not hold.
COUNTS = st.one_of(st.integers(-1, 6), st.sampled_from((10**7, 10**12, 2**63)))


@st.composite
def proposer_specs(draw):
    name = draw(st.sampled_from(("equilibrium", "greedy_delay", "laggy", "fixed", "x")))
    spec = {"name": name}
    if name in ("greedy_delay", "fixed") and draw(st.booleans()):
        spec["delay_us"] = draw(GRID_ENTRIES)
    if name == "fixed" and draw(st.booleans()):
        spec["build_on_prev"] = draw(st.integers(-1, 2))
    if name == "laggy" and draw(st.booleans()):
        spec["signing_delay"] = draw(distributions())
    return spec


#: A valid value, or one at the edge of the model, for each option of the
#: five engine commands.
ENGINE_OPTION_VALUES = {
    "simulate": {
        "proposer": proposer_specs(),
        "attester": st.sampled_from(({"name": "equilibrium"}, {"name": "honest_spec"})),
        "proposer_overrides": st.dictionaries(
            st.sampled_from(("0", "4", "5", "-1", "x")), proposer_specs(), max_size=2
        ),
    },
    "sweep": {"delta_star_grid_us": GRIDS},
    "check-equilibrium": {
        "delta_star_grid_us": GRIDS,
        "deviation_points": COUNTS,
        "runs": COUNTS,
        "mc_samples": st.one_of(st.integers(999, 1100), st.sampled_from((10**7, 10**15))),
        "deviation_slot": st.one_of(st.none(), st.integers(-1, 5)),
        "tau_shift_us": st.one_of(GRID_ENTRIES, st.sampled_from((2**63 - 1, -(2**63)))),
    },
    "best-response": {"delay_grid_us": GRIDS, "runs_per_point": COUNTS, "horizon": COUNTS},
    "curves": {
        "delay_grid_us": GRIDS,
        "runs": COUNTS,
        "bucket_ms": OPTION_NUMBERS,
        "horizon": st.one_of(st.none(), COUNTS),
    },
}
#: Parameters at the edge of the model, one of which a config may take.
PARAM_EDGES = {
    "slot_length_us": (2**62, 2**59, 2_000_000),
    "horizon_slots": (1, 2, 3, 10**6),
    "attestation_deadline_us": (0, 12_000_000, 2**62),
    "mean_latency_us": (1, 6_000_000, 2**57),
    "attester_count": (1, 3, 10**8),
    "vote_threshold": (1, 0.2, 1e-300),
    "seed": (0, 2**64 - 1),
}
#: Samples or attester-slots per run, above which a config is only validated.
ENGINE_WORK_BUDGET = 20_000


def engine_work(cfg) -> int:
    """A count of the samples and attester-slots a resolved config asks for,
    each count read as at least 1."""
    p, o = cfg.params, {k: max(v, 1) if type(v) is int else v for k, v in cfg.options.items()}
    run = p.horizon_slots * p.attester_count
    if cfg.command == "simulate":
        return run
    if cfg.command == "sweep":
        return run * len(o["delta_star_grid_us"])
    if cfg.command == "check-equilibrium":
        proposer = (o["deviation_points"] + 1) * (o["runs"] + p.horizon_slots)
        return len(o["delta_star_grid_us"]) * (run + proposer + o["mc_samples"])
    runs = o["runs_per_point"] if cfg.command == "best-response" else o["runs"]
    return len(o["delay_grid_us"]) * runs * o["horizon"] * p.attester_count


@st.composite
def engine_configs(draw):
    # a command's options valid or left out, then at most one option (or an
    # unknown key) given an odd value; params small, or one at an edge
    command = draw(st.sampled_from(tuple(ENGINE_OPTION_VALUES)))
    values = ENGINE_OPTION_VALUES[command]
    options = {key: draw(v) for key, v in values.items() if draw(st.integers(0, 2))}
    odd_key = draw(st.sampled_from((None,) * 4 + (*values, "extra")))
    if odd_key is not None:
        options[odd_key] = draw(st.sampled_from(ODD_OPTION_VALUES))
    params = dict(SMALL_PARAMS)
    edge = draw(st.sampled_from((None,) * 3 + tuple(PARAM_EDGES)))
    if edge is not None:
        params[edge] = draw(st.sampled_from(PARAM_EDGES[edge]))
    return command, {"params": params, "options": options}


def test_fuzz_draws_every_option():
    # a new option in OPTION_SCHEMAS is fuzzed as soon as it lands
    assert set(MVOT_OPTION_VALUES) == set(OPTION_SCHEMAS["mvot"])
    for command, values in ENGINE_OPTION_VALUES.items():
        assert set(values) == set(OPTION_SCHEMAS[command]), command
    assert set(ENGINE_OPTION_VALUES) | {"mvot"} == set(OPTION_SCHEMAS)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(engine_configs())
def test_engine_commands_on_any_config_exit_cleanly(command_raw):
    # simulate, sweep, check-equilibrium, best-response and curves, with every
    # option given values of the wrong type, out of range, beyond int64 or
    # beyond any run's size: outputs, or exit status 2 with one error line;
    # a config asking for much work is only validated
    command, raw = command_raw

    def budgeted(cfg):
        return [] if engine_work(cfg) > ENGINE_WORK_BUDGET else run_experiment(cfg)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "run_experiment", budgeted):
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        main_exits_cleanly([command, "--config", config, "--out", os.path.join(tmp, "out")])


class TestCliOverrides:
    def test_seed_flag_overrides_config(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate", extra=("--seed", "999"))
        assert code == 0
        eff = json.loads((out / "effective_config.json").read_text())
        assert eff["params"]["seed"] == 999

    def test_env_overrides(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": SMALL_PARAMS}))
        out = tmp_path / "env-out"
        monkeypatch.setenv("TIMINGGAMES_OUT", str(out))
        monkeypatch.setenv("TIMINGGAMES_SEED", "777")
        assert main(["simulate", "--config", str(cfg)]) == 0
        eff = json.loads((out / "effective_config.json").read_text())
        assert eff["params"]["seed"] == 777

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": SMALL_PARAMS}))
        flag_out = tmp_path / "flag-out"
        monkeypatch.setenv("TIMINGGAMES_OUT", str(tmp_path / "env-out"))
        assert main(["simulate", "--config", str(cfg), "--out", str(flag_out)]) == 0
        assert flag_out.exists()

    def test_preset_flag(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate", extra=("--preset", "streamlet"))
        assert code == 0
        eff = json.loads((out / "effective_config.json").read_text())
        assert eff["params"]["vote_threshold"] == 2 / 3
        assert eff["preset"] == "streamlet"


class TestCsvRoundTrip:
    def test_every_schema_round_trips(self, tmp_path):
        cases = {
            SLOTS_SCHEMA: [
                {
                    "slot": 0,
                    "release_time_us": 12_000_000,
                    "build_on_prev": 1,
                    "vote_count": 37,
                    "attestation_share": 0.37,
                    "canonical": 1,
                    "proposer_payoff": 0.11800000000000001,
                    "attester_payoff_total": 12,
                    "fresh_count": 40,
                    "fresh_vote_count": 37,
                }
            ],
            SWEEP_SCHEMA: [
                {
                    "delta_star_us": 3_000_000,
                    "proposer_payoff": 0.118,
                    "attester_payoff_mean": 1 / 3,
                    "attester_payoff_se": 0.001234567890123,
                    "all_canonical": 1,
                }
            ],
            CURVE_SCHEMA: [{"x": 50.0, "y": 2 / 3, "n": 3, "se": 0.05}],
            RESPONSE_SCHEMA: [
                {
                    "delay_us": 3_306_853,
                    "expected_payoff": 0.1394,
                    "payoff_se": 1e-09,
                    "attestation_share": 0.5000000000000001,
                }
            ],
        }
        for i, (schema, rows) in enumerate(cases.items()):
            path = tmp_path / f"table{i}.csv"
            write_csv(path, schema, {name: [row[name] for row in rows] for name, _ in schema})
            assert read_csv(path, schema) == rows

    def test_cells_format_each_column_by_its_type(self, tmp_path):
        # a float cell is repr(float(v)) and an int cell str(int(v)), from a
        # list or an array of any dtype alike
        schema = (("v", float), ("k", int), ("name", str))
        columns = {
            "v": [1, 0.1, np.float64(1e-09), np.float32(0.5)],
            "k": [True, np.int64(-2), 3.0, np.uint8(7)],
            "name": ["a", "b,c", 5, "d"],
        }
        path = tmp_path / "cells.csv"
        write_csv(path, schema, columns)
        expected = 'v,k,name\r\n1.0,1,a\r\n0.1,-2,"b,c"\r\n1e-09,3,5\r\n0.5,7,d\r\n'
        assert path.read_bytes().decode() == expected
        as_arrays = {"v": np.array([1.0, 0.1, 1e-09, 0.5]), "k": np.array([1, -2, 3, 7]),
                     "name": np.array(["a", "b,c", "5", "d"])}
        write_csv(path, schema, as_arrays)
        assert path.read_bytes().decode() == expected

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="of one length"):
            write_csv(tmp_path / "t.csv", (("a", int), ("b", int)), {"a": [1, 2], "b": [1]})
        assert not (tmp_path / "t.csv").exists()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = resolve_config(
            {
                "command": "simulate",
                "params": SMALL_PARAMS,
                "options": {"proposer": {"name": "laggy"}, "attester": {"name": "honest_spec"}},
            },
            out=str(tmp_path / "a"),
        )
        run_experiment(cfg)
        cfg_b = resolve_config(cfg.effective_dict(), out=str(tmp_path / "b"))
        run_experiment(cfg_b)
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
