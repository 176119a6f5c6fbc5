"""Scalar definitions of the game rules, one decision at a time.

The package evaluates these rules only in vectorized or column form
(``engine``, ``model.attester_payoff_array``,
``ProtocolParams.min_vote_count``). The differential and unit tests check it
against the plain definitions here. ``read_bids_jsonl_by_line`` is the bid
file reader as it was before lines were decoded in chunks: one ``json.loads``
call per line.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import numpy as np

from timinggames.market import (
    BidTable,
    _BidColumns,
    _FIELD_SET,
    _check_field_names,
    _field_values,
)
from timinggames.model import (
    MICROSECONDS_PER_SECOND,
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
    ShareLike,
    exact_threshold,
)
from timinggames.strategies import conforms_to_schedule


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


def read_bids_jsonl_by_line(path: Union[str, Path]) -> BidTable:
    """Read a bid stream; accepts externally produced files in the same schema."""
    columns = _BidColumns(path)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}:{line_no}: not valid JSON ({exc})") from None
            if type(row) is not dict or row.keys() != _FIELD_SET:
                _check_field_names(row, path, line_no)
            columns.append(_field_values(row), line_no)
    return columns.table()
