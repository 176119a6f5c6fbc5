"""Deterministic serialization of experiment outputs.

JSON is written with sorted keys; CSV cells use ``repr`` for floats, so
parsing each cell by its column's schema type gives back exactly the values
written. Nothing here depends on the clock, so identical results always
serialize to identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping, Union

from .market import write_bids_jsonl
from .model import ConfigurationError

TableSchema = tuple[tuple[str, type], ...]

SLOTS_SCHEMA: TableSchema = (
    ("slot", int),
    ("release_time_us", int),
    ("build_on_prev", int),
    ("vote_count", int),
    ("attestation_share", float),
    ("canonical", int),
    ("proposer_payoff", float),
    ("attester_payoff_total", int),
    ("fresh_count", int),
    ("fresh_vote_count", int),
)

SWEEP_SCHEMA: TableSchema = (
    ("delta_star_us", int),
    ("proposer_payoff", float),
    ("attester_payoff_mean", float),
    ("attester_payoff_se", float),
    ("all_canonical", int),
)

CURVE_SCHEMA: TableSchema = (
    ("x", float),
    ("y", float),
    ("n", int),
    ("se", float),
)

RESPONSE_SCHEMA: TableSchema = (
    ("delay_us", int),
    ("expected_payoff", float),
    ("payoff_se", float),
    ("attestation_share", float),
)

DEVIATIONS_SCHEMA: TableSchema = (
    ("delta_star_us", int),
    ("descriptor", str),
    ("mean_payoff", float),
    ("std_error", float),
    ("samples", int),
    ("exact_zero", int),
    ("unprofitable", int),
)

SHARE_SAMPLES_SCHEMA: TableSchema = (
    ("delay_us", int),
    ("run", int),
    ("slot", int),
    ("release_offset_ms", float),
    ("share", float),
)


def _format_cell(value, kind: type) -> str:
    if kind is float:
        return repr(float(value))
    if kind is int:
        return str(int(value))
    return str(value)


def write_csv(path: Union[str, Path], schema: TableSchema, rows: Iterable[Mapping]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in schema])
        for row in rows:
            writer.writerow([_format_cell(row[name], kind) for name, kind in schema])


def write_json(path: Union[str, Path], payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outputs(results: Mapping[str, tuple], out_dir: Union[str, Path]) -> list[Path]:
    """Write every result to ``out_dir`` and return the paths.

    Each value is ``("json", payload)``, ``("csv", schema, rows)`` or
    ``("bids", table)``, the last written as bid-stream JSONL.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for filename, payload in results.items():
        path = out / filename
        kind = payload[0]
        if kind == "json":
            write_json(path, payload[1])
        elif kind == "csv":
            write_csv(path, payload[1], payload[2])
        elif kind == "bids":
            write_bids_jsonl(payload[1], path)
        else:
            raise ConfigurationError(f"unknown output kind {kind!r} for {filename}")
        written.append(path)
    return written
