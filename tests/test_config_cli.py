import json


import pytest

from timinggames.cli import main, run_experiment
from timinggames.config import (
    ExperimentConfig,
    load_config,
    resolve_config,
)
from timinggames.market import BID_FIELDS
from timinggames.model import ConfigurationError
from timinggames.output import (
    CURVE_SCHEMA,
    DEVIATIONS_SCHEMA,
    RESPONSE_SCHEMA,
    SHARE_SAMPLES_SCHEMA,
    SLOTS_SCHEMA,
    SWEEP_SCHEMA,
    read_csv,
    write_csv,
)

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
        ],
    )
    def test_wrong_typed_option_exits_2(self, tmp_path, capsys, command, key, value):
        code, out = run_cli(tmp_path, command, options={key: value})
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_nonzero(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "ghost.json")]) == 2

    @pytest.mark.parametrize("kind", ["directory", "binary"])
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
    """A path that exists but cannot be read as UTF-8 text."""
    path = tmp_path / name
    if kind == "directory":
        path.mkdir()
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
            write_csv(path, schema, rows)
            assert read_csv(path, schema) == rows


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
