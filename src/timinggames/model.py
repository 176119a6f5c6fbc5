"""Game primitives for propose-vote consensus with a per-slot block auctioned by time.

Each slot has one proposer who picks a release time and whether to build on the
previous block, and a committee of attesters who each decide whether and when to
vote. A block is canonical when it clears the vote threshold *and* the next
proposer builds on it. The proposer's reward grows linearly with the time gap to
the most recent canonical block; an attester is paid when its vote is correct
(matches the block's eventual canonical status) and fresh (reaches the next
proposer before that proposer's own release, with that block canonical too).

Conventions used across the package:

* all times are absolute integer microseconds; latency samples are rounded
  half-up to the nearest microsecond,
* binary indicators (build flag, vote, canonical status) are ints in {0, 1},
* a float vote threshold stands for the decimal it is written as (0.2 is
  1/5) and is met by a vote count of at least ``min_vote_count``, so
  threshold comparisons at exact equality are decided without float rounding,
* comparisons at exact equality (vote threshold, deadlines, schedules) are
  inclusive.

A virtual canonical block sits one slot before slot 0 (``genesis_time_us``), so
slot 0 has a well-defined reward window like every other slot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

MICROSECONDS_PER_SECOND = 1_000_000


class ConfigurationError(ValueError):
    """Raised when parameters, configs, or inputs violate a documented invariant."""


def coerce_int(key: str, value) -> int:
    """``value`` as an int: an int, or a float with an integral value. A
    boolean or anything else is a ``ConfigurationError`` naming ``key``."""
    if isinstance(value, bool):
        raise ConfigurationError(f"{key} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigurationError(f"{key} must be an integer, got {value!r}")


def min_attesters_for_margin(vote_threshold: float) -> int:
    """Smallest committee size at which one vote cannot move the share across
    the threshold (requires ``vote_threshold < 1``). The threshold is read at
    its decimal value (``exact_threshold``), as the vote count is."""
    if not 0 < vote_threshold < 1:
        raise ConfigurationError(
            f"margin is only defined for 0 < vote_threshold < 1, got {vote_threshold}"
        )
    return math.ceil(1 / (1 - exact_threshold(vote_threshold))) + 1


@dataclass(frozen=True)
class ProtocolParams:
    """Exogenous constants of the game.

    ``schedule_offset_us`` is the within-slot release time the attesters
    coordinate on enforcing; ``mev_rate`` is ETH per second, converted to the
    microsecond clock where needed.
    """

    slot_length_us: int = 12_000_000
    schedule_offset_us: int = 0
    mean_latency_us: int = 1_000_000
    vote_threshold: float = 0.5
    base_reward: float = 0.04
    mev_rate: float = 0.0065
    attestation_deadline_us: int = 4_000_000
    attester_count: int = 1000
    horizon_slots: int = 32
    seed: int = 42

    def __post_init__(self) -> None:
        if self.slot_length_us <= 0:
            raise ConfigurationError("slot_length_us must be positive")
        if self.mean_latency_us <= 0:
            raise ConfigurationError("mean_latency_us must be positive")
        if self.slot_length_us < 2 * self.mean_latency_us:
            raise ConfigurationError(
                "slot_length_us must be at least twice mean_latency_us "
                f"({self.slot_length_us} < 2 * {self.mean_latency_us})"
            )
        if not 0 <= self.schedule_offset_us <= self.slot_length_us:
            raise ConfigurationError(
                "schedule_offset_us must lie within [0, slot_length_us], got "
                f"{self.schedule_offset_us}"
            )
        if not 0 < self.vote_threshold <= 1:
            raise ConfigurationError(
                f"vote_threshold must be in (0, 1], got {self.vote_threshold}"
            )
        if self.base_reward <= 0:
            raise ConfigurationError("base_reward must be positive")
        if self.mev_rate <= 0:
            raise ConfigurationError("mev_rate must be positive")
        if self.attestation_deadline_us < 0:
            raise ConfigurationError("attestation_deadline_us must be non-negative")
        if self.attester_count < 1:
            raise ConfigurationError("attester_count must be positive")
        if self.vote_threshold < 1:
            margin = min_attesters_for_margin(self.vote_threshold)
            if self.attester_count < margin:
                raise ConfigurationError(
                    f"attester_count must be at least {margin} for "
                    f"vote_threshold={self.vote_threshold} so a single vote cannot "
                    "flip the share across the threshold"
                )
        if self.horizon_slots < 1:
            raise ConfigurationError("horizon_slots must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in 64 unsigned bits")

    @property
    def genesis_time_us(self) -> int:
        """Time of the virtual canonical block preceding slot 0."""
        return -self.slot_length_us + self.schedule_offset_us

    def slot_start_us(self, slot: int) -> int:
        return slot * self.slot_length_us

    def schedule_time_us(self, slot: int) -> int:
        """The coordinated release time for ``slot``."""
        return slot * self.slot_length_us + self.schedule_offset_us

    def deadline_us(self, slot: int) -> int:
        """The attestation deadline for ``slot``."""
        return slot * self.slot_length_us + self.attestation_deadline_us

    @property
    def min_vote_count(self) -> int:
        """Fewest votes that meet the threshold: ``ceil(threshold * N)``. An
        integer vote count clears the threshold iff it is at least this."""
        return math.ceil(exact_threshold(self.vote_threshold) * self.attester_count)


@dataclass(frozen=True)
class ProposerAction:
    """A proposer's move: whether to build on the previous block, and when to
    release. ``release_time_us >= slot * slot_length_us`` is enforced by the
    engine, which knows the slot."""

    build_on_prev: int
    release_time_us: int

    def __post_init__(self) -> None:
        if self.build_on_prev not in (0, 1):
            raise ConfigurationError("build_on_prev must be 0 or 1")


@dataclass(frozen=True)
class AttesterAction:
    """An attester's move: whether to vote for the slot's block, and when to
    release the attestation. A vote of 1 requires the attestation time to be no
    earlier than the block's arrival (release + inbound latency); the engine
    enforces this against the sampled latencies."""

    vote: int
    release_time_us: int

    def __post_init__(self) -> None:
        if self.vote not in (0, 1):
            raise ConfigurationError("vote must be 0 or 1")


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


def attester_payoff_array(
    votes: np.ndarray,
    chi_n,
    taus_us: np.ndarray,
    outbound_latencies_us: np.ndarray,
    next_release_us,
    chi_next,
) -> np.ndarray:
    """Unit attester payoffs as int64, paid iff the vote is correct (matches
    the slot's canonical status ``chi_n``), fresh (reaches the next proposer
    no later than its release, inclusive), and the next block is canonical
    (``chi_next``). Pass per-slot values as ``(horizon, 1)`` columns."""
    correct = votes == chi_n
    fresh = taus_us + outbound_latencies_us <= next_release_us
    return (correct & fresh & (chi_next == 1)).astype(np.int64)


ShareLike = Union[Fraction, float, int]


def exact_threshold(vote_threshold: ShareLike) -> Fraction:
    """The vote threshold as an exact rational. A float stands for its shortest
    decimal form, so 0.2 is 1/5 rather than the binary double just above it."""
    if isinstance(vote_threshold, Fraction):
        return vote_threshold
    return _decimal_fraction(float(vote_threshold))


@functools.lru_cache(maxsize=256)
def _decimal_fraction(x: float) -> Fraction:
    return Fraction(repr(x))


@dataclass(frozen=True)
class SlotRecord:
    """One slot's resolution: the proposer's action and payoff, the slot's
    canonical status, and per-slot attester counts.

    Per-attester detail is not kept here; a trace recorded at
    ``record_level="full"`` holds it as ``(horizon, N)`` arrays on
    ``SimulationTrace``.
    """

    slot: int
    proposer_action: ProposerAction
    vote_count: int
    canonical: int
    proposer_payoff: float
    attester_payoff_total: int
    fresh_count: int
    fresh_vote_count: int

    def __post_init__(self) -> None:
        if self.canonical not in (0, 1):
            raise ConfigurationError("canonical must be 0 or 1")
        if self.fresh_vote_count > self.fresh_count:
            raise ConfigurationError("fresh_vote_count cannot exceed fresh_count")


#: Per-attester ``(horizon, N)`` int64 arrays of a full trace, in field order.
ATTESTER_ARRAYS = (
    "votes",
    "attestation_times_us",
    "inbound_latencies_us",
    "outbound_latencies_us",
    "attester_payoffs",
)


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Ordered slot records plus the bookkeeping needed to resolve the final
    slot: the virtual closing proposer's action and the genesis time.

    The closing proposer follows the coordinated schedule (releases one slot
    past the horizon, builds on the final block iff it was released on time),
    and its own block is treated as canonical, i.e. play is assumed to continue
    on the equilibrium path after the horizon.

    A trace recorded at ``record_level="full"`` also holds per-attester detail
    as read-only ``(horizon, N)`` int64 arrays, indexed ``[slot, attester]``:
    ``votes`` (0/1), ``attestation_times_us``, ``inbound_latencies_us``,
    ``outbound_latencies_us`` and ``attester_payoffs`` (0/1). A summary trace
    has ``None`` in their place. Traces compare equal when every field, array
    contents included, is equal.
    """

    params: ProtocolParams
    slots: tuple[SlotRecord, ...]
    genesis_time_us: int
    closing_action: ProposerAction
    votes: Optional[np.ndarray] = None
    attestation_times_us: Optional[np.ndarray] = None
    inbound_latencies_us: Optional[np.ndarray] = None
    outbound_latencies_us: Optional[np.ndarray] = None
    attester_payoffs: Optional[np.ndarray] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationTrace):
            return NotImplemented
        if (self.params, self.slots, self.genesis_time_us, self.closing_action) != (
            other.params,
            other.slots,
            other.genesis_time_us,
            other.closing_action,
        ):
            return False
        for name in ATTESTER_ARRAYS:
            a, b = getattr(self, name), getattr(other, name)
            if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
                return False
        return True

    @property
    def record_level(self) -> str:
        """``"full"`` when the per-attester arrays are present, else ``"summary"``."""
        return "summary" if self.votes is None else "full"

    def canonical_flags(self) -> tuple[int, ...]:
        return tuple(rec.canonical for rec in self.slots)

    def validate(self) -> None:
        """Check the trace-level invariants exactly.

        * each vote count lies within [0, attester_count],
        * canonical flags are consistent with the threshold and the next
          proposer's build flag (closing proposer for the final slot),
        * the per-attester arrays are all present or all absent, each shaped
          ``(horizon, N)``,
        * MEV is conserved: summed over canonical slots, proposer payoff minus
          base reward equals ``mev_rate`` times the span from genesis to the
          last canonical release, in seconds (``math.isclose`` with
          ``rel_tol=1e-9``, ``abs_tol=1e-12``).
        """
        n_att = self.params.attester_count
        min_votes = self.params.min_vote_count
        for i, rec in enumerate(self.slots):
            if rec.slot != i:
                raise AssertionError(f"slot records out of order at index {i}")
            if not 0 <= rec.vote_count <= n_att:
                raise AssertionError(f"slot {i}: vote_count outside [0, {n_att}]")
            next_build = (
                self.slots[i + 1].proposer_action.build_on_prev
                if i + 1 < len(self.slots)
                else self.closing_action.build_on_prev
            )
            expected_chi = 1 if next_build and rec.vote_count >= min_votes else 0
            if rec.canonical != expected_chi:
                raise AssertionError(f"slot {i}: canonical flag inconsistent")
        shapes = {
            None if arr is None else arr.shape
            for arr in (getattr(self, name) for name in ATTESTER_ARRAYS)
        }
        if shapes not in ({None}, {(len(self.slots), n_att)}):
            raise AssertionError(
                f"per-attester arrays must all be absent or all ({len(self.slots)}, {n_att}); "
                f"got shapes {shapes}"
            )
        mev_paid = 0.0
        last_time = self.genesis_time_us
        for rec in self.slots:
            if rec.canonical:
                mev_paid += rec.proposer_payoff - self.params.base_reward
                last_time = rec.proposer_action.release_time_us
        span_s = (last_time - self.genesis_time_us) / MICROSECONDS_PER_SECOND
        if not math.isclose(
            mev_paid, self.params.mev_rate * span_s, rel_tol=1e-9, abs_tol=1e-12
        ):
            raise AssertionError(
                f"canonical proposers were paid {mev_paid} ETH of MEV, but the chain "
                f"span of {span_s} s accrues {self.params.mev_rate * span_s}"
            )
