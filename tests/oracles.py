"""Scalar definitions of the game rules, one decision at a time.

The package evaluates these rules only in vectorized form (``engine``,
``model.attester_payoff_array``, ``ProtocolParams.min_vote_count``). The
differential and unit tests check it against the plain definitions here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from timinggames.model import (
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
