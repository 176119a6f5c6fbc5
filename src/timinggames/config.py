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
from .model import ConfigurationError, ProtocolParams, coerce_int, coerce_number
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

#: The most points a delay grid (``delta_star_grid_us``, ``delay_grid_us``) may
#: hold, given or computed from the params, checked before any run.
MAX_GRID_POINTS = 1 << 12

#: The most Monte Carlo samples that one grid point of a command may ask for,
#: checked before any run (``_check_sample_counts``): at the cap, a grid point
#: holds some 100 MB at most.
MAX_MONTE_CARLO_SAMPLES = 1 << 20


def _default_delta_star_grid(params: ProtocolParams) -> list[int]:
    d = params.slot_length_us
    return [0, d // 4, d // 2, 3 * d // 4, d]


def _default_best_response_grid(params: ProtocolParams) -> range:
    # a range, so that its length is checked before a list is built
    step = 50_000
    if params.vote_threshold >= 1:
        return range(0, params.attestation_deadline_us + 1, 500_000)
    anchor = optimal_delay(params)
    lo = max(0, anchor - 10 * step)
    hi = min(params.slot_length_us, anchor + 5 * step)
    return range(lo, hi + 1, step)


def _default_curves_grid(params: ProtocolParams) -> list[int]:
    d = params.attestation_deadline_us
    return sorted({0, d // 4, d // 2, 3 * d // 4, int(d * 0.975)})


#: Per-command option schemas: key -> (kind, default), each option checked by
#: its kind in ``_check_option``. A default that is a function computes the
#: option from the params when it is left out or None; an option whose
#: default is None may be left None.
OPTION_SCHEMAS: dict[str, dict[str, tuple[str, Any]]] = {
    "simulate": {
        "proposer": ("strategy", {"name": "equilibrium"}),
        "attester": ("strategy", {"name": "equilibrium"}),
        "proposer_overrides": ("overrides", {}),
    },
    "sweep": {
        "delta_star_grid_us": ("ints", _default_delta_star_grid),
    },
    "check-equilibrium": {
        "delta_star_grid_us": ("ints", _default_delta_star_grid),
        "deviation_points": ("int", 50),
        "runs": ("int", 1),
        "mc_samples": ("int", 2000),
        "deviation_slot": ("int", None),
        "tau_shift_us": ("int", lambda params: params.slot_length_us),
    },
    "best-response": {
        "delay_grid_us": ("ints", _default_best_response_grid),
        "runs_per_point": ("int", 24),
        "horizon": ("int", 5),
    },
    "mvot": {
        "bids_path": ("str", None),
        "n_slots": ("int", 100),
        "bids_per_slot": ("int", 800),
        "mu_eth_per_s": ("number", 0.0065),
        "noise_sd_eth": ("number", 0.01),
        "arrival_window_ms": ("window", [-4000, 1000]),
        "arrival_profile": ("profile", "uniform"),
        "baseline": ("distribution", {"family": "degenerate", "value": 0.1}),
        "validation_latency": ("distribution", {"family": "exponential", "mean": 100.0}),
        "n_builders": ("int", 32),
        "save_bids": ("bool", False),
    },
    "curves": {
        "delay_grid_us": ("ints", _default_curves_grid),
        "runs": ("int", 20),
        "bucket_ms": ("number", 100.0),
        "horizon": ("int", lambda params: params.horizon_slots),
    },
}


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
    )


def _check_option(key: str, kind: str, value: Any) -> Any:
    """``value`` checked by its kind, as it is stored and echoed: "int" and
    "number" a finite number (an int is stored as an int; a number keeps the
    value given, so its echo reads as written), "ints" a non-empty list of at
    most ``MAX_GRID_POINTS`` integers and "window" a list of two, "str" a
    non-empty string, "profile" one of ``ARRIVAL_PROFILES``, "distribution" a
    distribution spec, and "overrides" a mapping of slot -> strategy spec."""
    if kind == "int":
        return coerce_int(key, value)
    if kind == "number":
        coerce_number(key, value)
    elif kind == "bool" and not isinstance(value, bool):
        raise ConfigurationError(f"{key} must be true or false, got {value!r}")
    elif kind == "str" and not (isinstance(value, str) and value):
        raise ConfigurationError(f"{key} must be a non-empty string, got {value!r}")
    elif kind == "profile" and value not in ARRIVAL_PROFILES:
        raise ConfigurationError(f"{key} must be one of {ARRIVAL_PROFILES}, got {value!r}")
    elif kind == "distribution":
        LatencyDistribution.from_config(value)
    elif kind == "overrides":
        if not isinstance(value, Mapping):
            raise ConfigurationError(f"{key} must be a mapping of slot -> strategy")
        return {
            _coerce_slot_key(k): dict(v) if isinstance(v, Mapping) else v
            for k, v in value.items()
        }
    elif kind in ("ints", "window"):
        n = len(value) if isinstance(value, (list, tuple, range)) else 0
        if kind == "ints" and n > MAX_GRID_POINTS:
            raise ConfigurationError(f"{key} has {n} points, above the cap of {MAX_GRID_POINTS}")
        if n == 0 or (kind == "window" and n != 2):
            expected = "two integers" if kind == "window" else "a non-empty list of integers"
            raise ConfigurationError(f"{key} must be {expected}, got {value!r}")
        return [coerce_int(key, v) for v in value]
    # a strategy spec is checked for its role when the simulation is set up
    return dict(value) if isinstance(value, Mapping) else value


def _check_sample_counts(command: str, options: Mapping, params: ProtocolParams) -> None:
    """Cap each count a grid point's work grows with: the proposer check's
    payoffs and proposer columns, one row of ``runs`` and one of
    ``horizon_slots`` per deviation and the baseline; the attester check's
    ``mc_samples``; the best response's ``runs_per_point``; and the curves'
    share samples, ``runs`` of ``horizon`` slots."""
    if command == "check-equilibrium":
        points, runs = options["deviation_points"], options["runs"]
        counts = {
            "(deviation_points + 1) x (runs + horizon_slots)":
                (points + 1) * (runs + params.horizon_slots),
            "mc_samples": options["mc_samples"],
        }
    elif command == "best-response":
        counts = {"runs_per_point": options["runs_per_point"]}
    elif command == "curves":
        counts = {"runs x horizon": options["runs"] * options["horizon"]}
    else:
        return
    for what, count in counts.items():
        if count > MAX_MONTE_CARLO_SAMPLES:
            raise ConfigurationError(
                f"{what} = {count} samples per grid point exceeds the cap of "
                f"{MAX_MONTE_CARLO_SAMPLES}"
            )


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
    # a float, so that the echo of a threshold given as 1 reads 1.0; the
    # params check and coerce every other field themselves
    values["vote_threshold"] = coerce_number("vote_threshold", values["vote_threshold"])
    return ProtocolParams(**values)


def resolve_options(command: str, raw_options: Optional[Mapping], params: ProtocolParams) -> dict:
    """Validate option keys against the command's schema, check each option by
    its kind and materialize every default, computed ones included, so the
    effective config is fully explicit."""
    schema = OPTION_SCHEMAS[command]
    given: Mapping = {}
    if raw_options is not None:
        if not isinstance(raw_options, Mapping):
            raise ConfigurationError("'options' must be a mapping")
        _check_unknown(raw_options, tuple(schema), f"{command} options")
        given = raw_options
    options = {}
    for key, (kind, default) in schema.items():
        value = given.get(key, default)
        if callable(default) and (value is None or value is default):
            value = default(params)
        if not (value is None and default is None):
            value = _check_option(key, kind, value)
        options[key] = value
    _check_sample_counts(command, options, params)
    if command == "simulate":
        simulation_config(params, options)
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
