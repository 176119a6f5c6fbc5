"""Experiment configuration: JSON schema validation, presets, and the fully
resolved effective config that gets echoed next to every output.

Config files are strict: unknown keys anywhere are an error, and every default
is materialized into the effective config so a run can be reproduced from its
own echo alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from .distributions import LatencyDistribution
from .engine import SimConfig, StrategySpec, strategy_spec
from .market import ARRIVAL_PROFILES
from .model import INT_FIELDS, ConfigurationError, ProtocolParams, coerce_int, coerce_number
from .strategies import optimal_delay

COMMANDS = ("simulate", "sweep", "check-equilibrium", "best-response", "mvot", "curves")

#: Protocol presets; explicit params always override preset values.
PRESETS: dict[str, dict[str, Any]] = {
    "streamlet": {"vote_threshold": 2 / 3},
    "block-slot": {"vote_threshold": 0.5},
    "ethereum": {
        "slot_length_us": 12_000_000,
        "attestation_deadline_us": 4_000_000,
        "vote_threshold": 0.5,
    },
}

PARAM_KEYS = tuple(f.name for f in fields(ProtocolParams))
PARAM_DEFAULTS = {f.name: f.default for f in fields(ProtocolParams)}

TOP_KEYS = ("command", "preset", "params", "options", "out")

_DEFAULT_STRATEGY = {"name": "equilibrium"}

#: Per-command option schemas: key -> default (None means computed from params).
OPTION_SCHEMAS: dict[str, dict[str, Any]] = {
    "simulate": {
        "record_level": "summary",
        "proposer": dict(_DEFAULT_STRATEGY),
        "attester": dict(_DEFAULT_STRATEGY),
        "proposer_overrides": {},
    },
    "sweep": {
        "delta_star_grid_us": None,
    },
    "check-equilibrium": {
        "delta_star_grid_us": None,
        "deviation_points": 50,
        "runs": 1,
        "mc_samples": 2000,
        "deviation_slot": None,
        "tau_shift_us": None,
    },
    "best-response": {
        "delay_grid_us": None,
        "runs_per_point": 24,
        "horizon": 5,
    },
    "mvot": {
        "bids_path": None,
        "n_slots": 100,
        "bids_per_slot": 800,
        "mu_eth_per_s": 0.0065,
        "noise_sd_eth": 0.01,
        "arrival_window_ms": [-4000, 1000],
        "arrival_profile": "uniform",
        "baseline": {"family": "degenerate", "value": 0.1},
        "validation_latency": {"family": "exponential", "mean": 100.0},
        "n_builders": 32,
        "save_bids": False,
    },
    "curves": {
        "delay_grid_us": None,
        "runs": 20,
        "bucket_ms": 100.0,
        "horizon": None,
    },
}


#: The command options that hold a plain value, by type: "ints" is a non-empty
#: list of integers and "window" exactly two. Integers are stored as ints; a
#: number keeps the value given, so its echo reads as written. An option whose
#: default is None may be left None.
_OPTION_TYPES = {
    "int": ("deviation_points", "runs", "mc_samples", "deviation_slot", "tau_shift_us",
            "runs_per_point", "horizon", "n_slots", "bids_per_slot", "n_builders"),
    "number": ("mu_eth_per_s", "noise_sd_eth", "bucket_ms"),
    "ints": ("delta_star_grid_us", "delay_grid_us"),
    "window": ("arrival_window_ms",),
    "bool": ("save_bids",),
    "str": ("bids_path",),
}
_OPTION_KIND = {key: kind for kind, keys in _OPTION_TYPES.items() for key in keys}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: command, protocol constants, and every
    command option with defaults materialized."""

    command: str
    preset: Optional[str]
    params: ProtocolParams
    options: dict
    out: str

    def effective_dict(self) -> dict:
        """The reproducibility echo: everything an identical rerun needs (the
        output directory is a location, not an experiment input, and is left
        out on purpose)."""
        return {
            "command": self.command,
            "preset": self.preset,
            "params": {k: getattr(self.params, k) for k in PARAM_KEYS},
            "options": self.options,
        }


def parse_strategy(spec: Mapping) -> StrategySpec:
    """Turn a config mapping like ``{"name": "greedy_delay", "delay_us": 0}``
    into a StrategySpec; option names are validated when the engine builds the
    strategy."""
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"strategy spec must be a mapping, got {type(spec).__name__}")
    if "name" not in spec:
        raise ConfigurationError("strategy spec requires a 'name' key")
    opts = {k: v for k, v in spec.items() if k != "name"}
    return strategy_spec(str(spec["name"]), **opts)


def simulation_config(params: ProtocolParams, options: Mapping) -> SimConfig:
    """The engine setup of a ``simulate`` experiment; building it validates
    every strategy spec."""
    return SimConfig(
        params=params,
        proposer_default=parse_strategy(options["proposer"]),
        proposer_overrides={
            slot: parse_strategy(spec) for slot, spec in options["proposer_overrides"].items()
        },
        attester_strategy=parse_strategy(options["attester"]),
        record_level=options["record_level"],
    )


def _check_option(key: str, value: Any) -> Any:
    kind = _OPTION_KIND[key]
    if kind == "int":
        return coerce_int(key, value)
    if kind == "number":
        coerce_number(key, value)
    elif kind == "bool" and not isinstance(value, bool):
        raise ConfigurationError(f"{key} must be true or false, got {value!r}")
    elif kind == "str" and not (isinstance(value, str) and value):
        raise ConfigurationError(f"{key} must be a non-empty string, got {value!r}")
    elif kind in ("ints", "window"):
        n = len(value) if isinstance(value, (list, tuple)) else 0
        if n == 0 or (kind == "window" and n != 2):
            expected = "two integers" if kind == "window" else "a non-empty list of integers"
            raise ConfigurationError(f"{key} must be {expected}, got {value!r}")
        return [coerce_int(key, v) for v in value]
    return value


def _coerce_slot_key(key: Any) -> int:
    # JSON object keys arrive as strings
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            raise ConfigurationError(f"override slot {key!r} is not an integer")
    return coerce_int("override slot", key)


def _check_unknown(given: Mapping, allowed: tuple, context: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {context} keys: {', '.join(str(k) for k in unknown)}; "
            f"allowed: {', '.join(allowed)}"
        )


def resolve_params(
    raw_params: Optional[Mapping],
    preset: Optional[str],
    seed_override: Optional[int] = None,
) -> ProtocolParams:
    values = dict(PARAM_DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        values.update(PRESETS[preset])
    if raw_params is not None:
        if not isinstance(raw_params, Mapping):
            raise ConfigurationError("'params' must be a mapping")
        _check_unknown(raw_params, PARAM_KEYS, "params")
        values.update(raw_params)
    if seed_override is not None:
        values["seed"] = seed_override
    for key in PARAM_KEYS:
        if key in INT_FIELDS:
            values[key] = coerce_int(key, values[key])
        else:
            values[key] = coerce_number(key, values[key])
    return ProtocolParams(**values)


def _default_delta_star_grid(params: ProtocolParams) -> list[int]:
    d = params.slot_length_us
    return [0, d // 4, d // 2, 3 * d // 4, d]


def _default_best_response_grid(params: ProtocolParams) -> list[int]:
    step = 50_000
    if params.vote_threshold >= 1:
        return list(range(0, params.attestation_deadline_us + 1, 500_000))
    anchor = optimal_delay(params)
    lo = max(0, anchor - 10 * step)
    hi = min(params.slot_length_us, anchor + 5 * step)
    return list(range(lo, hi + 1, step))


def _default_curves_grid(params: ProtocolParams) -> list[int]:
    d = params.attestation_deadline_us
    return sorted({0, d // 4, d // 2, 3 * d // 4, int(d * 0.975)})


def resolve_options(command: str, raw_options: Optional[Mapping], params: ProtocolParams) -> dict:
    """Validate option keys against the command's schema and materialize every
    computed default so the effective config is fully explicit."""
    schema = OPTION_SCHEMAS[command]
    options = {k: (dict(v) if isinstance(v, dict) else v) for k, v in schema.items()}
    if raw_options is not None:
        if not isinstance(raw_options, Mapping):
            raise ConfigurationError("'options' must be a mapping")
        _check_unknown(raw_options, tuple(schema), f"{command} options")
        options.update(raw_options)

    if command in ("sweep", "check-equilibrium") and options["delta_star_grid_us"] is None:
        options["delta_star_grid_us"] = _default_delta_star_grid(params)
    if command == "check-equilibrium" and options["tau_shift_us"] is None:
        options["tau_shift_us"] = params.slot_length_us
    if command == "best-response" and options["delay_grid_us"] is None:
        options["delay_grid_us"] = _default_best_response_grid(params)
    if command == "curves":
        if options["delay_grid_us"] is None:
            options["delay_grid_us"] = _default_curves_grid(params)
        if options["horizon"] is None:
            options["horizon"] = params.horizon_slots
    for key, value in options.items():
        if key in _OPTION_KIND and not (value is None and schema[key] is None):
            options[key] = _check_option(key, value)
    if command == "simulate":
        # Normalize override keys to ints and validate the setup eagerly.
        overrides = options["proposer_overrides"]
        if not isinstance(overrides, Mapping):
            raise ConfigurationError("proposer_overrides must be a mapping of slot -> strategy")
        options["proposer_overrides"] = {
            _coerce_slot_key(k): dict(v) if isinstance(v, Mapping) else v
            for k, v in overrides.items()
        }
        simulation_config(params, options)
    if command == "mvot":
        # checked here because a run on a bid file never reaches the generator
        profile = options["arrival_profile"]
        if profile not in ARRIVAL_PROFILES:
            raise ConfigurationError(
                f"arrival_profile must be one of {ARRIVAL_PROFILES}, got {profile!r}"
            )
        LatencyDistribution.from_config(options["baseline"])
        LatencyDistribution.from_config(options["validation_latency"])
    return options


def resolve_config(
    raw: Optional[Mapping],
    command: Optional[str] = None,
    preset: Optional[str] = None,
    seed: Optional[int] = None,
    out: Optional[str] = None,
) -> ExperimentConfig:
    """Merge a raw config mapping with overrides into a resolved experiment.

    Precedence: explicit overrides (CLI flags / environment) beat the file,
    the file beats the preset, the preset beats the defaults.
    """
    raw = dict(raw) if raw is not None else {}
    _check_unknown(raw, TOP_KEYS, "config")
    file_command = raw.get("command")
    if command is None:
        command = file_command
    elif file_command is not None and file_command != command:
        raise ConfigurationError(
            f"config file names command {file_command!r} but {command!r} was requested"
        )
    if command is None or command not in COMMANDS:
        raise ConfigurationError(
            f"a command is required; choose one of: {', '.join(COMMANDS)}"
        )
    effective_preset = preset if preset is not None else raw.get("preset")
    params = resolve_params(raw.get("params"), effective_preset, seed_override=seed)
    options = resolve_options(command, raw.get("options"), params)
    out_dir = out if out is not None else raw.get("out", "out")
    return ExperimentConfig(
        command=command,
        preset=effective_preset,
        params=params,
        options=options,
        out=str(out_dir),
    )


def read_config_file(path: Union[str, Path]) -> dict:
    """The JSON object in a config file; every way the file can be unusable
    is a ``ConfigurationError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    # a ValueError is also an undecodable byte or an integer of too many digits
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return raw
