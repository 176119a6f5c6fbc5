"""Proposer strategies and the rules of the coordinated schedule.

The coordinated-schedule ("equilibrium") profile: proposers release exactly at
the coordinated within-slot offset and build on the previous block iff it was
itself released on schedule; attesters vote for a block iff the proposer's
observed action conforms on both counts (``conforms_to_schedule``), attesting
on arrival, and otherwise abstain at the slot start. Attesters observe the
proposer's true action directly (perfect monitoring); only a positive vote is
constrained by the block's arrival time. The engine evaluates the attester
strategies, this one and the honest client, for a whole committee at once.

The proposer functions take plain arguments: the slot, the protocol
constants, and what the strategy reads besides (the previous action, its
options, a generator). The engine maps each named strategy of a config onto
one of them: ``equilibrium`` onto ``equilibrium_proposer``, ``greedy_delay``
and ``fixed`` onto ``fixed_action_proposer``, and ``laggy`` onto
``laggy_proposer``. Also included: the closed-form optimal delay against
honest attesters.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .distributions import LatencyDistribution
from .model import (
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
)


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


#: Default signing-latency model of ``laggy``: heavy-tailed with a 418 ms median.
DEFAULT_SIGNING_DELAY = LatencyDistribution.lognormal(median=418.0, sigma=0.5)


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


def optimal_delay(params: ProtocolParams) -> int:
    """Largest release delay at which the expected attestation share against
    honest attesters still meets the vote threshold, in microseconds.

    With exponential latencies of mean theta and deadline D, a delay d leaves
    expected share 1 - exp(-(D - d)/theta); solving for the threshold gives
    d* = D + theta * ln(1 - threshold), clamped at zero. Undefined for a
    threshold of 1 (no finite delay reaches full share).
    """
    gamma = params.vote_threshold
    if gamma >= 1:
        raise ConfigurationError("optimal delay is undefined for vote_threshold = 1")
    d = params.attestation_deadline_us + params.mean_latency_us * math.log(1.0 - gamma)
    return max(0, int(math.floor(d + 0.5)))
