"""Deterministic serialization of experiment outputs.

JSON is written with sorted keys. A CSV table is given as columns, one per
schema name, and its cells use ``repr`` for floats, so parsing each cell by
its column's schema type gives back exactly the values written. Nothing here
depends on the clock, so identical results always serialize to identical
bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

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


def _cells(values: Sequence, kind: type) -> list[str]:
    """One column's cells: a float as ``repr(float(v))``, an int as
    ``str(int(v))``, anything else as ``str(v)``. An array is read through
    ``tolist()``, whose Python numbers format as their values."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if kind is float:
        return list(map(repr, map(float, values)))
    if kind is int:
        return list(map(str, map(int, values)))
    return list(map(str, values))


def write_csv(
    path: Union[str, Path], schema: TableSchema, columns: Mapping[str, Sequence]
) -> None:
    """Write a table given as one column per schema name, all of one length."""
    cells = [_cells(columns[name], kind) for name, kind in schema]
    if len({len(column) for column in cells}) > 1:
        raise ConfigurationError("the columns of a table must be of one length")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in schema])
        writer.writerows(zip(*cells))


def write_json(path: Union[str, Path], payload) -> None:
    # one write: json.dump would issue one per encoder chunk
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_outputs(results: Mapping[str, tuple], out_dir: Union[str, Path]) -> list[Path]:
    """Write every result to ``out_dir`` and return the paths.

    Each value is ``("json", payload)``, ``("csv", schema, columns)`` or
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
