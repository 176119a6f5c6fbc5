"""Scalar definitions of the game rules, one decision at a time.

The package evaluates these rules only in vectorized or column form
(``engine``, ``strategies.schedule_builds``, ``model.attester_payoff_array``,
``ProtocolParams.min_vote_count``). The differential and unit tests check it
against the plain definitions here, the proposer strategies among them: one
``ProposerAction`` per slot, given the previous one, where the package holds
a column per field. ``mean_se`` reduces one Monte Carlo sample at a time.
``read_bids_jsonl_by_line`` and ``read_bids_csv_by_row`` are the bid file
readers as they were before lines were decoded in chunks and columns held in
typed segments: one ``json.loads`` call per line, every row's raw values kept
until the table is built.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from timinggames.distributions import LatencyDistribution
from timinggames.market import (
    BID_FIELDS,
    BidTable,
    InvalidBidRow,
    _FIELD_SET,
    _check_field_names,
    _field_values,
    _int_field,
    _value_field,
)
from timinggames.model import (
    MICROSECONDS_PER_SECOND,
    ConfigurationError,
    ProtocolParams,
    ShareLike,
    exact_threshold,
)


class ProposerAction(NamedTuple):
    """One proposer's move: whether it builds on the previous block, and
    when it releases."""

    build_on_prev: int
    release_time_us: int


def prescribed_build_flag(
    prev_action: Optional[ProposerAction], slot: int, params: ProtocolParams
) -> int:
    """The build flag the schedule prescribes: build iff the previous block was
    released no later than its own coordinated offset. Genesis counts as
    conforming, so slot 0 builds."""
    if slot == 0 or prev_action is None:
        return 1
    on_time = prev_action.release_time_us <= params.schedule_time_us(slot - 1)
    return 1 if on_time else 0


def conforms_to_schedule(
    action: ProposerAction,
    prev_action: Optional[ProposerAction],
    slot: int,
    params: ProtocolParams,
) -> bool:
    """Whether a proposer's action matches the coordinated profile on both the
    release time and the build flag."""
    return action == equilibrium_proposer(slot, prev_action, params)


def equilibrium_proposer(
    slot: int, prev_action: Optional[ProposerAction], params: ProtocolParams
) -> ProposerAction:
    """Release at the coordinated offset; build on the previous block iff it
    was released on time (slot 0 builds on genesis)."""
    return ProposerAction(
        build_on_prev=prescribed_build_flag(prev_action, slot, params),
        release_time_us=params.schedule_time_us(slot),
    )


def fixed_action_proposer(
    delay_us: int, build_on_prev: int, slot: int, params: ProtocolParams
) -> ProposerAction:
    """Scripted action: a fixed delay after the slot start and a fixed build
    flag. ``greedy_delay`` is this action with the build flag 1; ``fixed``
    forces single-slot deviations, including build-flag flips."""
    return ProposerAction(
        build_on_prev=build_on_prev,
        release_time_us=params.slot_start_us(slot) + delay_us,
    )


def laggy_proposer(
    signing_delay_dist: LatencyDistribution,
    slot: int,
    params: ProtocolParams,
    rng: np.random.Generator,
) -> ProposerAction:
    """Release after a sampled signing delay (distribution in milliseconds),
    always extending the chain. Models late releases caused by slow signing
    rather than intent."""
    delay_ms = float(signing_delay_dist.sample(rng))
    delay_us = int(math.floor(delay_ms * 1000.0 + 0.5))
    return ProposerAction(
        build_on_prev=1,
        release_time_us=params.slot_start_us(slot) + delay_us,
    )


def canonical_status(
    build_on_prev_next: int,
    attestation_share: ShareLike,
    vote_threshold: ShareLike,
) -> int:
    """Whether a block is canonical: the next proposer built on it and the
    attestation share met the vote threshold (inclusive at exact equality).

    The comparison is done in exact rational arithmetic against
    ``exact_threshold(vote_threshold)``; passing a ``Fraction`` share avoids
    ever rounding through a float.
    """
    if not build_on_prev_next:
        return 0
    return 1 if Fraction(attestation_share) >= exact_threshold(vote_threshold) else 0


def proposer_payoff(
    release_time_us: int,
    last_canonical_time_us: int,
    canonical: int,
    params: ProtocolParams,
) -> float:
    """Reward for a proposer: base reward plus time-proportional value accrued
    since the most recent canonical block, paid only if this block ends up
    canonical.

    The time gap is converted to seconds before applying ``mev_rate``; gaps are
    clipped at zero.
    """
    if not canonical:
        return 0.0
    gap_us = release_time_us - last_canonical_time_us
    if gap_us < 0:
        gap_us = 0
    return params.base_reward + params.mev_rate * (gap_us / MICROSECONDS_PER_SECOND)


def attester_payoff(
    vote: int,
    chi_n: int,
    tau_us: int,
    outbound_latency_us: int,
    next_release_us: int,
    chi_next: int,
) -> int:
    """Unit payoff for an attester, paid iff the vote is correct and fresh.

    Correct: the vote matches the slot's canonical status. Fresh: the
    attestation reaches the next proposer no later than that proposer's release
    (inclusive), and the next block is canonical.
    """
    correct = vote == chi_n
    fresh = tau_us + outbound_latency_us <= next_release_us
    return 1 if (correct and fresh and chi_next == 1) else 0


def equilibrium_attester(
    action: ProposerAction,
    prev_action: Optional[ProposerAction],
    slot: int,
    inbound_latency_us: int,
    params: ProtocolParams,
) -> tuple[int, int]:
    """``(vote, release_time_us)`` of a coordinated attester: vote on arrival
    iff the observed proposer action conforms to the coordinated profile
    exactly; otherwise abstain at the slot start."""
    if conforms_to_schedule(action, prev_action, slot, params):
        return 1, action.release_time_us + inbound_latency_us
    return 0, params.slot_start_us(slot)


def honest_spec_attester(
    block_arrival_us: Optional[int], slot: int, params: ProtocolParams
) -> tuple[int, int]:
    """``(vote, release_time_us)`` of an honest client: vote as soon as the
    block arrives, or abstain at the attestation deadline, whichever comes
    first. Arrival exactly at the deadline counts as in time."""
    deadline = params.slot_length_us * slot + params.attestation_deadline_us
    if block_arrival_us is not None and block_arrival_us <= deadline:
        return 1, block_arrival_us
    return 0, deadline


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def sample_latency(rng: np.random.Generator, theta_us: int) -> int:
    """One exponential latency with mean ``theta_us``, inverse-CDF on a uniform
    draw, rounded half-up to integer microseconds."""
    if theta_us <= 0:
        raise ConfigurationError("theta_us must be positive")
    u = rng.random()
    return _round_half_up(-theta_us * math.log1p(-u))


def mean_se(samples) -> tuple[float, float]:
    """One sample's mean and standard error (ddof=1; 0 for a single value),
    as the Monte Carlo routines reduced each arm and delay alone before they
    reduced them as the rows of one array."""
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


def bid_table(path: Union[str, Path], rows: list, line_nos: list[int]) -> BidTable:
    """The table of raw bid ``rows`` read from the file lines ``line_nos``:
    each column coerced value by value, an integer column's values checked to
    fit int64, then checked by ``BidTable``, every error named by the
    ``path:line`` of its row."""
    int64 = np.iinfo(np.int64)
    columns = []
    for name, raw in zip(BID_FIELDS, zip(*rows) if rows else [()] * len(BID_FIELDS)):
        parse = _value_field if name == "value_eth" else _int_field
        column = []
        for row, value in enumerate(raw):
            try:
                column.append(parse(value, name))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path}:{line_nos[row]}: {exc}") from None
            if parse is _int_field and not int64.min <= column[-1] <= int64.max:
                raise ConfigurationError(
                    f"{path}:{line_nos[row]}: {name} must fit in int64, got {column[-1]}"
                )
        columns.append(column)
    try:
        return BidTable(*columns)
    except InvalidBidRow as exc:
        raise ConfigurationError(f"{path}:{line_nos[exc.row]}: {exc.reason}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def read_bids_jsonl_by_line(path: Union[str, Path]) -> BidTable:
    """Read a bid stream; accepts externally produced files in the same schema."""
    rows, line_nos = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:  # also an integer of too many digits
                raise ConfigurationError(f"{path}:{line_no}: not valid JSON ({exc})") from None
            if type(row) is not dict or row.keys() != _FIELD_SET:
                _check_field_names(row, path, line_no)
            rows.append(_field_values(row))
            line_nos.append(line_no)
    return bid_table(path, rows, line_nos)


def read_bids_csv_by_row(path: Union[str, Path]) -> BidTable:
    """Read a CSV bid file with a ``BID_FIELDS`` header, one row at a time."""
    rows, line_nos = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != BID_FIELDS:
            raise ConfigurationError(f"{path}: expected columns {BID_FIELDS}, got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(BID_FIELDS):
                raise ConfigurationError(
                    f"{path}:{reader.line_num}: expected {len(BID_FIELDS)} bid fields, "
                    f"got {len(row)}"
                )
            rows.append(row)
            line_nos.append(reader.line_num)
    return bid_table(path, rows, line_nos)
