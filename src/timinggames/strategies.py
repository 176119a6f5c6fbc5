"""The rules of the coordinated schedule, in column form.

The coordinated-schedule ("equilibrium") profile: proposers release exactly at
the coordinated within-slot offset and build on the previous block iff it was
itself released on schedule; attesters vote for a block iff the proposer's
observed action conforms on both counts (``conforms_to_schedule``), attesting
on arrival, and otherwise abstain at the slot start. Attesters observe the
proposer's true action directly (perfect monitoring); only a positive vote is
constrained by the block's arrival time. The engine evaluates the attester
strategies, this one and the honest client, for a whole committee at once.

A run's proposer actions are two ``(horizon + 1,)`` columns, the release
times and the build flags (``engine.proposer_pass``); entry ``horizon`` is the
virtual proposer that closes the horizon, who plays this profile. The schedule
reads the build flag of a slot off its predecessor's release alone, so
``schedule_builds`` prescribes every proposer's flag from the release column
in one step, along the last axis of ``(..., slots)`` columns of several runs.
Also included: the closed-form optimal delay against honest attesters.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import LatencyDistribution
from .model import ConfigurationError, ProtocolParams


def schedule_builds(release_us: np.ndarray, params: ProtocolParams) -> np.ndarray:
    """The build flag the schedule prescribes to each proposer of the
    ``(..., slots)`` release columns, as int64 of the same shape: slot ``n``
    builds iff slot ``n - 1`` released no later than its coordinated offset.
    Genesis counts as conforming, so slot 0 builds."""
    slots = np.arange(release_us.shape[-1] - 1, dtype=np.int64)
    on_time = release_us[..., :-1] <= params.schedule_time_us(slots)
    flags = np.ones(release_us.shape, dtype=np.int64)
    flags[..., 1:] = on_time
    return flags


def conforms_to_schedule(
    release_us: np.ndarray, build: np.ndarray, params: ProtocolParams
) -> np.ndarray:
    """Per slot, whether the proposer's action matches the coordinated profile
    on both the release time and the build flag, for ``(..., slots)``
    proposer columns with any leading run axes."""
    slots = np.arange(release_us.shape[-1], dtype=np.int64)
    on_schedule = release_us == params.schedule_time_us(slots)
    return on_schedule & (build == schedule_builds(release_us, params))


#: Default signing-latency model of ``laggy``: heavy-tailed with a 418 ms median.
DEFAULT_SIGNING_DELAY = LatencyDistribution.lognormal(median=418.0, sigma=0.5)


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
