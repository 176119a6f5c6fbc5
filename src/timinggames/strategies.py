"""Proposer strategies and what a proposer observes.

The coordinated-schedule ("equilibrium") profile: proposers release exactly at
the coordinated within-slot offset and build on the previous block iff it was
itself released on schedule; attesters vote for a block iff the proposer's
observed action conforms on both counts (``conforms_to_schedule``), attesting
on arrival, and otherwise abstain at the slot start. Attesters observe the
proposer's true action directly (perfect monitoring); only a positive vote is
constrained by the block's arrival time. The engine evaluates the attester
strategies, this one and the honest client, for a whole committee at once.

Also included: delay-based and latency-driven proposers, and the closed-form
optimal delay against honest attesters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import LatencyDistribution
from .model import (
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
)


@dataclass(frozen=True)
class ProposerContext:
    """What a proposer sees when acting: its slot, the previous proposer's
    action (None only for slot 0), and the protocol constants."""

    slot: int
    prev_proposer_action: Optional[ProposerAction]
    params: ProtocolParams

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ConfigurationError("slot must be non-negative")
        if self.slot > 0 and self.prev_proposer_action is None:
            raise ConfigurationError("prev_proposer_action may be absent only for slot 0")


def on_schedule_release(action: ProposerAction, slot: int, params: ProtocolParams) -> bool:
    """True iff the block was released exactly at the coordinated offset."""
    return action.release_time_us == params.schedule_time_us(slot)


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
    return (
        on_schedule_release(action, slot, params)
        and action.build_on_prev == prescribed_build_flag(prev_action, slot, params)
    )


def equilibrium_proposer(ctx: ProposerContext) -> ProposerAction:
    """Release at the coordinated offset; build on the previous block iff it
    was released on time (slot 0 builds on genesis)."""
    return ProposerAction(
        build_on_prev=prescribed_build_flag(ctx.prev_proposer_action, ctx.slot, ctx.params),
        release_time_us=ctx.params.schedule_time_us(ctx.slot),
    )


def greedy_delay_proposer(delay_us: int, ctx: ProposerContext) -> ProposerAction:
    """Release a fixed delay after the slot start, always extending the chain."""
    if delay_us < 0:
        raise ConfigurationError("delay_us must be non-negative")
    return ProposerAction(
        build_on_prev=1,
        release_time_us=ctx.params.slot_start_us(ctx.slot) + delay_us,
    )


def fixed_action_proposer(
    delay_us: int, build_on_prev: int, ctx: ProposerContext
) -> ProposerAction:
    """Scripted action: a fixed delay and a fixed build flag. Used to force
    specific single-slot deviations, including build-flag flips."""
    if delay_us < 0:
        raise ConfigurationError("delay_us must be non-negative")
    return ProposerAction(
        build_on_prev=build_on_prev,
        release_time_us=ctx.params.slot_start_us(ctx.slot) + delay_us,
    )


#: Default signing-latency model of ``laggy``: heavy-tailed with a 418 ms median.
DEFAULT_SIGNING_DELAY = LatencyDistribution.lognormal(median=418.0, sigma=0.5)


def laggy_proposer(
    signing_delay_dist: LatencyDistribution,
    ctx: ProposerContext,
    rng: np.random.Generator,
) -> ProposerAction:
    """Release after a sampled signing delay (distribution in milliseconds),
    always extending the chain. Models late releases caused by slow signing
    rather than intent."""
    delay_ms = float(signing_delay_dist.sample(rng))
    delay_us = int(math.floor(delay_ms * 1000.0 + 0.5))
    return ProposerAction(
        build_on_prev=1,
        release_time_us=ctx.params.slot_start_us(ctx.slot) + delay_us,
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
