"""Pinned output bytes: the sha256 of every file each subcommand writes on a
small config, in the order the CLI reports writing them.

The configs are small (horizon 8, 50 attesters, a few runs per point) so the
whole module runs in a few seconds. A changed seed label or run index, a
changed draw, or a changed serialization changes a digest here. Re-record a
digest only for an intended change of output, and record why in CHANGES.md.
"""

import hashlib
import json

import pytest

from timinggames.cli import main

# A 3 s mean latency leaves a fifth of the coordinated attestations stale, so
# the sweep's attester column, like every other table, depends on its seeds.
PARAMS = {
    "horizon_slots": 8,
    "attester_count": 50,
    "mean_latency_us": 3_000_000,
    "seed": 20231005,
}

CONFIGS = {
    "simulate": {
        "attester": {"name": "honest_spec"},
        "proposer_overrides": {
            "2": {"name": "fixed", "delay_us": 5_000_000, "build_on_prev": 0},
            "5": {"name": "laggy"},
        },
    },
    "sweep": {},
    "check-equilibrium": {
        "delta_star_grid_us": [0, 3_000_000, 12_000_000],
        "deviation_points": 6,
        "runs": 2,
        "mc_samples": 1000,
    },
    "best-response": {
        "delay_grid_us": [0, 2_000_000, 3_000_000, 3_500_000],
        "runs_per_point": 3,
        "horizon": 5,
    },
    "mvot": {"n_slots": 4, "bids_per_slot": 20, "save_bids": True},
    "curves": {"delay_grid_us": [0, 2_000_000, 3_900_000], "runs": 3},
}

#: file name -> sha256 of its bytes, in write order.
GOLDEN = {
    "simulate": {
        "effective_config.json": "09a336887b3ef2c1ce2b76ba94401767228de7c3f696bcdf287c4d7bf8f874b3",
        "trace.json": "4d0ddc1632bdbc0d3da9c03e0517a03a92373036e0bb743c2b1bba63f3b06b74",
        "slots.csv": "400218e15e6c24b1777d42f3fecf03208f0f4e3aab9373ffb219af2f72e01711",
    },
    "sweep": {
        "effective_config.json": "e9bb2a047c2cc277849b94fc9355ecab8d4b7f4e85d3d0329ab043ea070956bf",
        "sweep.csv": "ccb430833b792052ec84c6dd65af4c3b414c2968d9ad8d6e3a57526296e48e34",
        "sweep.json": "b246f40cd73b90f9c3310c93874b79f8d9d1353101cf89f55c4ca640df53a19a",
    },
    "check-equilibrium": {
        "effective_config.json": "22296118a077c4844b67c8ef6ea57486a3abda7b693b4b1a52147e15a66ae3e1",
        "equilibrium_report.json": "6148db69a5606dc3e06978acd1e8d409650bd9eef77a748a732362bdc9729ea1",
        "deviations.csv": "72566074a518eb3a0f602f7ffc4d8ba665fe1fc5b6fed0a028c0915598ee172e",
    },
    "best-response": {
        "effective_config.json": "354a6e526c580997b3e7cef135fc196cfd23cedd60faed3e78f817c631e80bd7",
        "response_curve.csv": "a12eaf386205a01ee61d2aa960c27c1e6c9d1720d3bb3f809f72ae235833eda9",
        "best_response.json": "a5c99a9e37fa04b8118dabcd82d3477bd63c5632a5773df687339972d5e56913",
    },
    "mvot": {
        "effective_config.json": "3fb7f37ba4a9d0909a1f8356dcd9ef2f9460af02ad2ec29da73abada57d3c5cb",
        "mvot_report.json": "b3ad1240e96c7bf3ac35fa1e0850ee6557c9ca751869e35180deeee38d53c6d0",
        "bids.jsonl": "c4294ba232e38dfebb52b2db9fe398021b26d69655a1ccd236d74aff641ee074",
    },
    "curves": {
        "effective_config.json": "14b78cd25dd8f7164fb2de99b46fb61eeec2e9c7960f2bc4e99d65b6515a2009",
        "next_slot_share.csv": "4ceaa056848c51bc6c388a5556b5de627eff1fdcca0bc9b8a2c42ebfce4e7e3f",
        "share_samples.csv": "2e9ba5d96ca8189c59742e039c638d3cc048b17a2e64407b9c9ad0c3db2aa31b",
        "correlations.json": "03b9d9a38243bbb07f9f73306ccfe8fa88da5b535516ea92e182f78b226f79ba",
    },
}


def run_command(command, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "command": command,
                "preset": "ethereum",
                "params": PARAMS,
                "options": CONFIGS[command],
            }
        )
    )
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    prefix = f"wrote {out}/"
    assert all(line.startswith(prefix) for line in lines)
    names = [line[len(prefix):] for line in lines]
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_output_bytes_are_pinned(command, tmp_path, capsys):
    digests = run_command(command, tmp_path, capsys)
    assert list(digests) == list(GOLDEN[command])
    assert digests == GOLDEN[command]
