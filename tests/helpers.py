"""Helpers that only the tests need: the package writes its CSV tables,
reads bid files of either format and reads configs inside ``cli.main``, but
never reads a table back, writes a CSV bid file or loads a config outside the
CLI; and it reads a batch trace's columns, and a batch's per-attester
arrays, whole, never as one-seed traces or details."""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from timinggames.config import ExperimentConfig, read_config_file, resolve_config
from timinggames.engine import AttesterDetail
from timinggames.market import BID_FIELDS, BidTable
from timinggames.model import SLOT_COLUMNS, ConfigurationError, SimulationTrace
from timinggames.output import TableSchema


def load_config(path: Union[str, Path], command: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a JSON config file, as ``cli.main`` does."""
    return resolve_config(read_config_file(path), command=command)


def read_csv(path: Union[str, Path], schema: TableSchema) -> list[dict]:
    """The rows of a table that ``output.write_csv`` wrote, each cell parsed
    by its schema type; other columns are a ``ConfigurationError``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = tuple(name for name, _ in schema)
        if reader.fieldnames is None or tuple(reader.fieldnames) != expected:
            raise ConfigurationError(
                f"{path}: expected columns {expected}, got {reader.fieldnames}"
            )
        return [{name: kind(row[name]) for name, kind in schema} for row in reader]


def write_bids_csv(bids: BidTable, path: Union[str, Path]) -> None:
    """A CSV bid file in ``BID_FIELDS`` order, floats as their ``repr``, which
    ``market.read_bids_csv`` reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BID_FIELDS)
        for s, b, r, e, v in zip(*(col.tolist() for col in bids.columns())):
            writer.writerow((s, b, r, e, repr(v)))


def batch_rows(batch: SimulationTrace) -> list[SimulationTrace]:
    """A batch trace as one-seed traces, row by row: row ``r``'s columns
    under the params with seed ``batch.seeds[r]``."""
    names = SLOT_COLUMNS + ("closing_build",)
    return [
        SimulationTrace(
            params=replace(batch.params, seed=seed),
            **{name: getattr(batch, name)[r, ...] for name in names},
        )
        for r, seed in enumerate(batch.seeds)
    ]


def detail_rows(batch: AttesterDetail) -> list[AttesterDetail]:
    """A batch's ``engine.attester_detail`` as one-seed details, row by row:
    row ``r``'s trace (``batch_rows``) and its rows of the per-attester arrays."""
    return [AttesterDetail(trace, *(arr[r] for arr in batch[1:]))
            for r, trace in enumerate(batch_rows(batch.trace))]


def same_detail(a: AttesterDetail, b: AttesterDetail) -> bool:
    """Whether two details hold equal traces and equal per-attester arrays."""
    return a.trace == b.trace and all(map(np.array_equal, a[1:], b[1:]))
