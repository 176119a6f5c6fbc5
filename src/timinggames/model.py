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
import numbers
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Union

import numpy as np

MICROSECONDS_PER_SECOND = 1_000_000
# The most latencies (2 x horizon_slots x attester_count) one run may draw.
MAX_LATENCY_PLANE = 1 << 24
INT64_MAX = 2**63 - 1
# No latency draw reaches 37 mean latencies: a uniform draw u is at most
# 1 - 2**-53, so -ln(1 - u) is at most 53 ln 2 < 37.
_MAX_LATENCY_MEANS = 37


class ConfigurationError(ValueError):
    """Raised when parameters, configs, or inputs violate a documented invariant."""


def coerce_int(key: str, value) -> int:
    """``value`` as an int: an integer (a numpy one too), or a float with an
    integral value. A boolean or anything else is a ``ConfigurationError``
    naming ``key``."""
    if type(value) is int:  # the common case, and a bool is not one
        return value
    if isinstance(value, bool):
        raise ConfigurationError(f"{key} must be an integer, got a boolean")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigurationError(f"{key} must be an integer, got {value!r}")


def coerce_number(key: str, value) -> float:
    """``value`` as a finite float: an int or a float. A boolean, anything
    else, NaN or an infinity is a ``ConfigurationError`` naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{key} must be finite, got {value!r}")
    return number


# Memoized per threshold, since every ProtocolParams construction asks; typed,
# because a float threshold reads as its decimal and a Fraction as itself.
# An invalid threshold raises, and lru_cache stores no exception.
@functools.lru_cache(maxsize=256, typed=True)
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
        for name in INT_FIELDS:
            object.__setattr__(self, name, coerce_int(name, getattr(self, name)))
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
        # a Fraction threshold stays exact, so it is checked but not coerced
        threshold = self.vote_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real):
            raise ConfigurationError(f"vote_threshold must be a number, got {threshold!r}")
        if not 0 < threshold <= 1:
            raise ConfigurationError(f"vote_threshold must be in (0, 1], got {threshold}")
        for name in ("base_reward", "mev_rate"):
            value = coerce_number(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive")
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
        plane = 2 * self.horizon_slots * self.attester_count
        if plane > MAX_LATENCY_PLANE:
            raise ConfigurationError(
                f"one run's latency plane, 2 x horizon_slots x attester_count = {plane} "
                f"latencies, exceeds the cap of {MAX_LATENCY_PLANE}"
            )
        if self.max_time_us > INT64_MAX:
            raise ConfigurationError(
                f"a run's absolute times reach {self.max_time_us} us, beyond int64: "
                "(horizon_slots + 1) x slot_length_us + attestation_deadline_us + "
                f"{2 * _MAX_LATENCY_MEANS} x mean_latency_us must be at most 2**63 - 1"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in 64 unsigned bits")

    @property
    def max_time_us(self) -> int:
        """A bound on every absolute time a run computes, all int64: the
        closing proposer's release a slot past the horizon, the deadlines, and
        an attestation's arrival at the next proposer after two latency legs."""
        return (
            (self.horizon_slots + 1) * self.slot_length_us
            + self.attestation_deadline_us
            + 2 * _MAX_LATENCY_MEANS * self.mean_latency_us
        )

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
        """The attestation deadline for ``slot`` (elementwise for an array of
        slots)."""
        return slot * self.slot_length_us + self.attestation_deadline_us

    @property
    def min_vote_count(self) -> int:
        """Fewest votes that meet the threshold: ``ceil(threshold * N)``. An
        integer vote count clears the threshold iff it is at least this."""
        return _min_vote_count(self.vote_threshold, self.attester_count)


#: The integer fields of ``ProtocolParams``; each is read with ``coerce_int``.
INT_FIELDS = tuple(f.name for f in fields(ProtocolParams) if f.type == "int")


@functools.lru_cache(maxsize=1024, typed=True)
def _min_vote_count(vote_threshold: ShareLike, attester_count: int) -> int:
    return math.ceil(exact_threshold(vote_threshold) * attester_count)


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


def attester_payoff_array(votes: np.ndarray, chi_n, fresh: np.ndarray, chi_next) -> np.ndarray:
    """Unit attester payoffs as int64, paid iff the vote is correct (matches
    the slot's canonical status ``chi_n``), fresh (``fresh_attestations``),
    and the next block is canonical (``chi_next``). Pass per-slot values as
    ``(horizon, 1)`` columns."""
    correct = votes == chi_n
    return (correct & fresh & (chi_next == 1)).astype(np.int64)


def fresh_attestations(taus_us, outbound_latencies_us, next_release_us) -> np.ndarray:
    """Whether each attestation reaches the next proposer no later than its
    release, inclusive."""
    return taus_us + outbound_latencies_us <= next_release_us


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


#: Per-slot ``(horizon,)`` columns of a trace, named as in ``slots.csv``; all
#: int64 but ``proposer_payoff`` (float64).
SLOT_COLUMNS = (
    "release_time_us",
    "build_on_prev",
    "vote_count",
    "canonical",
    "proposer_payoff",
    "attester_payoff_total",
    "fresh_count",
    "fresh_vote_count",
)

#: Per-attester ``(horizon, N)`` int64 arrays of a full trace, in field order.
ATTESTER_ARRAYS = (
    "votes",
    "attestation_times_us",
    "inbound_latencies_us",
    "outbound_latencies_us",
    "attester_payoffs",
)


def next_slot_values(column: np.ndarray, closing_value: int) -> np.ndarray:
    """Each slot's view of the slot after it: along the last axis of the int
    ``column``, slots ``1..``, then ``closing_value`` (the closing proposer's)
    for the last."""
    shifted = np.empty(column.shape, dtype=np.int64)
    shifted[..., :-1] = column[..., 1:]
    shifted[..., -1] = closing_value
    return shifted


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """A resolved run as read-only columns, plus the bookkeeping needed to
    resolve the final slot: the virtual closing proposer's action, and the
    genesis time, which ``genesis_time_us`` reads from ``params``.

    The closing proposer follows the coordinated schedule (releases one slot
    past the horizon, builds on the final block iff it was released on time),
    and its own block is treated as canonical, i.e. play is assumed to continue
    on the equilibrium path after the horizon.

    Per-slot data are ``(horizon,)`` columns indexed by slot (``SLOT_COLUMNS``):
    the proposer's ``release_time_us`` and ``build_on_prev``, the slot's
    ``vote_count`` and ``canonical`` status (0/1), the ``proposer_payoff`` in
    ETH, and the slot's ``attester_payoff_total``, ``fresh_count`` (attestations
    reaching the next proposer in time) and ``fresh_vote_count`` (those of them
    that are votes).

    A trace recorded at ``record_level="full"`` also holds per-attester detail
    as read-only ``(horizon, N)`` int64 arrays, indexed ``[slot, attester]``:
    ``votes`` (0/1), ``attestation_times_us``, ``inbound_latencies_us``,
    ``outbound_latencies_us`` and ``attester_payoffs`` (0/1). A summary trace
    has ``None`` in their place. Traces compare equal when every field, array
    contents included, is equal.
    """

    params: ProtocolParams
    closing_action: ProposerAction
    release_time_us: np.ndarray
    build_on_prev: np.ndarray
    vote_count: np.ndarray
    canonical: np.ndarray
    proposer_payoff: np.ndarray
    attester_payoff_total: np.ndarray
    fresh_count: np.ndarray
    fresh_vote_count: np.ndarray
    votes: Optional[np.ndarray] = None
    attestation_times_us: Optional[np.ndarray] = None
    inbound_latencies_us: Optional[np.ndarray] = None
    outbound_latencies_us: Optional[np.ndarray] = None
    attester_payoffs: Optional[np.ndarray] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationTrace):
            return NotImplemented
        if (self.params, self.closing_action) != (other.params, other.closing_action):
            return False
        for name in SLOT_COLUMNS + ATTESTER_ARRAYS:
            a, b = getattr(self, name), getattr(other, name)
            if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
                return False
        return True

    @property
    def genesis_time_us(self) -> int:
        """The virtual canonical block's time, one slot before slot 0."""
        return self.params.genesis_time_us

    def validate(self) -> None:
        """Check the trace-level invariants exactly.

        * every per-slot column holds one value per slot of the horizon,
        * each vote count lies within [0, attester_count],
        * canonical flags are consistent with the threshold and the next
          proposer's build flag (closing proposer for the final slot), so
          each is 0 or 1,
        * no slot has more fresh votes than fresh attestations,
        * a block that is not canonical pays its proposer nothing,
        * the per-attester arrays are all present or all absent, each shaped
          ``(horizon, N)``,
        * a vote of 1 is timed no earlier than the block's arrival (release
          plus the attester's inbound latency),
        * MEV is conserved: summed over canonical slots, proposer payoff minus
          base reward equals ``mev_rate`` times the span from genesis to the
          last canonical release, in seconds (``math.isclose`` with
          ``rel_tol=1e-9``, ``abs_tol=1e-12``).
        """
        horizon = self.params.horizon_slots
        n_att = self.params.attester_count
        for name in SLOT_COLUMNS:
            shape = getattr(self, name).shape
            if shape != (horizon,):
                raise AssertionError(
                    f"{name} has shape {shape}; a trace of {horizon} slots needs ({horizon},)"
                )
        vote_count = self.vote_count
        next_build = next_slot_values(self.build_on_prev, self.closing_action.build_on_prev)
        expected_chi = (next_build == 1) & (vote_count >= self.params.min_vote_count)
        faults = (
            (vote_count < 0)
            | (vote_count > n_att)
            | (self.canonical != expected_chi)
            | (self.fresh_vote_count > self.fresh_count)
            | ((self.canonical == 0) & (self.proposer_payoff != 0))
        )
        if faults.any():
            n = int(faults.argmax())
            if not 0 <= vote_count[n] <= n_att:
                raise AssertionError(f"slot {n}: vote_count outside [0, {n_att}]")
            if self.canonical[n] != expected_chi[n]:
                raise AssertionError(f"slot {n}: canonical flag inconsistent")
            if self.canonical[n] == 0 and self.proposer_payoff[n] != 0:
                raise AssertionError(
                    f"slot {n}: a block that is not canonical paid its proposer "
                    f"{self.proposer_payoff[n]} ETH"
                )
            raise AssertionError(f"slot {n}: fresh_vote_count exceeds fresh_count")
        shapes = {
            None if arr is None else arr.shape
            for arr in (getattr(self, name) for name in ATTESTER_ARRAYS)
        }
        if shapes not in ({None}, {(horizon, n_att)}):
            raise AssertionError(
                f"per-attester arrays must all be absent or all ({horizon}, {n_att}); "
                f"got shapes {shapes}"
            )
        if self.votes is not None:
            early = (self.votes == 1) & (
                self.attestation_times_us
                < self.release_time_us[:, None] + self.inbound_latencies_us
            )
            if early.any():
                n, i = np.argwhere(early)[0]
                raise AssertionError(f"slot {n}: attester {i} voted before the block arrived")
        canonical_slots = np.flatnonzero(self.canonical)
        if canonical_slots.size:
            last = int(canonical_slots[-1])
            mev_paid = float(
                (self.proposer_payoff[canonical_slots] - self.params.base_reward).sum()
            )
            span_s = (
                int(self.release_time_us[last]) - self.genesis_time_us
            ) / MICROSECONDS_PER_SECOND
            if not math.isclose(
                mev_paid, self.params.mev_rate * span_s, rel_tol=1e-9, abs_tol=1e-12
            ):
                raise AssertionError(
                    f"slot {last}: canonical proposers through this slot were paid "
                    f"{mev_paid} ETH of MEV, but the chain span of {span_s} s accrues "
                    f"{self.params.mev_rate * span_s}"
                )
