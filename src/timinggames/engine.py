"""Deterministic slot-by-slot simulation engine.

Randomness discipline: every latency draw comes from a stream derived from the
config seed plus a (role, slot[, index]) tag, never from a shared global
sequence. The attester plane uses one stream per (role, slot) holding one draw
per attester index, so the whole committee is sampled in a single vectorized
call; per-slot scalar entities (e.g. a proposer's signing delay) get their own
streams. Identical configs therefore produce identical traces, attester
outcomes within a slot are exchangeable, and slots can be resampled
independently.

Proposer and attester strategies are named (``PROPOSER_STRATEGIES``,
``ATTESTER_STRATEGIES``) and selected by a ``StrategySpec``.

A run has four passes, each over every slot at once. The proposer pass
(``proposer_pass``) turns the config's parsed proposer plan into the
``(horizon,)`` release and build columns; only the slots whose strategy draws
randomness (``laggy``) read their proposer stream, and the schedule rule
(``strategies.schedule_builds``) fills in the build flags the plan leaves
open. The latency pass (``latency_pass``) derives the seed state of all
``2 * horizon`` inbound and outbound streams in one vectorized hash
(``seed_states``, bit-identical to ``np.random.SeedSequence``) and samples the
whole ``(2, horizon, N)`` latency plane at once. It is the only code that
draws attester latencies: it also draws many runs, chunk by chunk under one
bound (``_MAX_BATCH_DRAWS``), with as many draws per stream as the caller
reads (the whole committee, or the watched attester's first draw). The
attester pass evaluates every committee in one ``(horizon, N)`` step. The
resolution pass (``resolve_slots``) gives every slot's canonical status and
proposer pay, for one run or several; the virtual proposer that closes the
horizon (``closing_action``) resolves the last slot like the others.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .distributions import LatencyDistribution
from .model import (
    MICROSECONDS_PER_SECOND,
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
    SimulationTrace,
    attester_payoff_array,
    coerce_int,
    fresh_attestations,
    next_slot_values,
)
from .strategies import DEFAULT_SIGNING_DELAY, conforms_to_schedule, schedule_builds

ROLE_PROPOSER = "proposer"
ROLE_INBOUND = "inbound-latency"
ROLE_OUTBOUND = "outbound-latency"

RECORD_LEVELS = ("summary", "full")

PROPOSER_STRATEGIES = ("equilibrium", "greedy_delay", "laggy", "fixed")
ATTESTER_STRATEGIES = ("equilibrium", "honest_spec")


class SimulationError(RuntimeError):
    """Raised when a strategy or trace violates a hard rule of the game."""


def _blake64(tag: str) -> int:
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")


# Ids depend on the tag alone, so every run reuses them; the bound keeps a
# long process from holding the ids of every horizon it ever ran.
@functools.lru_cache(maxsize=1 << 16)
def derive_stream_id(role: str, slot: int, index: int = 0) -> int:
    """Stable 64-bit stream id for a (role, slot, index) entity."""
    return _blake64(f"{role}|{slot}|{index}")


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """Stable 64-bit sub-seed for replicated runs (sweeps, grids, MC repeats)."""
    return _blake64(f"{seed}|{label}|{index}")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) for a four-word
# pool, on uint32 words. The hash constants evolve independently of the data,
# so each hash step's pair of constants is fixed in advance.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_WORD_BITS = np.uint64(32)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


_POOL_CONSTS = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
# The pool's first hash: word i takes hash step i.
_POOL_HASH = (_column(_POOL_CONSTS[:_POOL_SIZE]), _column(_POOL_CONSTS[1 : _POOL_SIZE + 1]))


def _pool_mix_steps() -> list[tuple[np.ndarray, np.ndarray]]:
    """For each source word, the (xor, multiply) constants with which it is
    hashed into each other word, in numpy's order; the source's own row is
    unused."""
    steps = []
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        xor, mult = [0] * _POOL_SIZE, [0] * _POOL_SIZE
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor[dst], mult[dst] = _POOL_CONSTS[k], _POOL_CONSTS[k + 1]
                k += 1
        steps.append((_column(xor), _column(mult)))
    return steps


_POOL_MIX = _pool_mix_steps()
# generate_state(4, np.uint64) hashes 8 uint32 words, cycling over the pool.
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
_STATE_XOR = np.array(_STATE_HASH[:-1], dtype=np.uint32).reshape(2, _POOL_SIZE, 1)
_STATE_MULT = np.array(_STATE_HASH[1:], dtype=np.uint32).reshape(2, _POOL_SIZE, 1)


def _integral(value) -> bool:
    # numpy's uint64 cast would take 1.5, True or "7" as a seed
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def seed_states(seeds, stream_ids) -> np.ndarray:
    """The PCG64 seed state of every (seed, stream) pair in one vectorized
    pass: for ``ids = stream_ids``, row ``j * len(ids) + k`` equals
    ``np.random.SeedSequence([seeds[j], ids[k]]).generate_state(4,
    np.uint64)``. ``seeds`` may also be one seed, which names row ``k``. A
    seed that is not an integer, or is negative, is a ``ConfigurationError``.

    The entropy words of ``[seed, stream_id]`` are the 32-bit words of each
    value, least significant first (one word for a value below 2**32). Both
    values fit in 64 bits, so there are at most four words, and numpy pads a
    shorter entropy with zeros to its four-word pool. So a pool holds
    ``[seed, id_lo, id_hi, 0]`` for a one-word seed and ``[seed_lo, seed_hi,
    id_lo, id_hi]`` for a two-word seed, each seed in its own layout.
    """
    if isinstance(seeds, np.ndarray):
        integral = seeds.dtype.kind in "iu"
        negative = integral and (seeds < 0).any()
    else:
        values = seeds if isinstance(seeds, Sequence) else (seeds,)
        integral = all(map(_integral, values))
        negative = integral and min(values, default=0) < 0
    if not integral:
        raise ConfigurationError("seed must be an integer")
    # numpy's uint64 cast wraps a negative numpy integer, where a Python one overflows
    if negative:
        raise ConfigurationError("seed must fit in 64 unsigned bits")
    try:
        seed = np.array(seeds, dtype=np.uint64, ndmin=1)[:, None]
    except OverflowError:
        raise ConfigurationError("seed must fit in 64 unsigned bits") from None
    ids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1)
    seed_hi, id_hi = seed >> _WORD_BITS, ids >> _WORD_BITS
    two_words = seed_hi != 0
    pool = np.empty((_POOL_SIZE, seed.size, ids.size), dtype=np.uint32)
    # storing a uint64 in the uint32 pool keeps its low word
    pool[0] = seed
    pool[1] = np.where(two_words, seed_hi, ids)
    pool[2] = np.where(two_words, ids, id_hi)
    pool[3] = np.where(two_words, id_hi, 0)
    pool = pool.reshape(_POOL_SIZE, -1)

    xor, mult = _POOL_HASH
    mixer = pool ^ xor
    mixer *= mult
    mixer ^= mixer >> 16
    for src, (xor, mult) in enumerate(_POOL_MIX):
        hashed = mixer[src] ^ xor
        hashed *= mult
        hashed ^= hashed >> 16
        hashed *= _MIX_MULT_R
        mixed = mixer * _MIX_MULT_L
        mixed -= hashed
        mixed ^= mixed >> 16
        mixed[src] = mixer[src]
        mixer = mixed

    words = mixer ^ _STATE_XOR
    words *= _STATE_MULT
    words ^= words >> 16
    # state word i is hash words 2i (low) and 2i + 1 (high): one stream's
    # eight words, in order, are its four uint64 words read little-endian
    return np.ascontiguousarray(words.reshape(2 * _POOL_SIZE, -1).T, dtype="<u4").view("<u8")


class _SeedState(ISeedSequence):
    """A seed state computed by ``seed_states``, handed to ``PCG64`` in place
    of the ``SeedSequence`` it equals. ``PCG64`` asks for exactly these four
    uint64 words."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


# numpy's PCG64 multiplier. Seeding from a state ``(s, inc)`` and one step
# leave the state ``s * M**2 + inc * (M**2 + M + 1) mod 2**128``, whose XSL-RR
# output is the stream's first draw; these are its factors, as (high, low)
# uint64 words.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_FACTOR, _INC_FACTOR = (
    (np.uint64(f >> 64 & 2**64 - 1), np.uint64(f & 2**64 - 1))
    for f in (_PCG64_MULT**2, _PCG64_MULT**2 + _PCG64_MULT + 1)
)
_LOW32 = np.uint64(_MASK32)


def _mul_high(a: np.ndarray, c: np.uint64) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * c``, on 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _WORD_BITS
    c0, c1 = c & _LOW32, c >> _WORD_BITS
    cross0, cross1 = a0 * c1, a1 * c0
    mid = (a0 * c0 >> _WORD_BITS) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * c1 + (cross0 >> _WORD_BITS) + (cross1 >> _WORD_BITS) + (mid >> _WORD_BITS)


def _mul_u128(high: np.ndarray, low: np.ndarray, factor) -> tuple[np.ndarray, np.ndarray]:
    """``(high * 2**64 + low) * factor mod 2**128`` as (high, low) words; the
    uint64 products wrap mod 2**64."""
    f_high, f_low = factor
    return _mul_high(low, f_low) + high * f_low + low * f_high, low * f_low


def _first_doubles(states: np.ndarray) -> np.ndarray:
    """The first ``Generator.random()`` draw of the PCG64 stream of each row
    of ``seed_states``, from its four words alone: ``PCG64`` seeds
    ``s = w0 * 2**64 + w1`` and ``inc = 2 * (w2 * 2**64 + w3) + 1``."""
    w0, w1, w2, w3 = states.T
    one = np.uint64(1)
    s_high, s_low = _mul_u128(w0, w1, _STATE_FACTOR)
    inc_high, inc_low = _mul_u128((w2 << one) | (w3 >> np.uint64(63)), (w3 << one) | one,
                                  _INC_FACTOR)
    low = s_low + inc_low
    high = s_high + inc_high + (low < s_low)
    # XSL-RR: the xor of the halves, rotated right by the state's top 6 bits
    rot = high >> np.uint64(58)
    folded = high ^ low
    out = (folded >> rot) | (folded << (np.uint64(64) - rot & np.uint64(63)))
    return (out >> np.uint64(11)) * 2.0**-53


class _StreamPlane:
    """Many streams at once, one per row of ``seed_states``. A plane of one
    draw per stream takes each stream's first draw from its seed state
    (``_first_doubles``), with no per-stream ``Generator``."""

    def __init__(self, states: np.ndarray) -> None:
        self._states = states

    def stream(self, k: int) -> np.random.Generator:
        """The generator of stream ``k``."""
        return np.random.Generator(np.random.PCG64(_SeedState(self._states[k])))

    def random(self, size: tuple[int, int]) -> np.ndarray:
        """``(k, n)`` doubles whose row ``r`` holds the first ``n`` draws of
        stream ``r``, as ``Generator.random(n)`` gives them."""
        if size[0] != len(self._states):
            raise ValueError(f"{len(self._states)} streams cannot fill {size[0]} rows")
        if size[1] == 1:
            return _first_doubles(self._states)[:, None]
        out = np.empty(size)
        for r, row in enumerate(out):
            self.stream(r).random(out=row)
        return out


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: same seed and stream id give the
    same sequence on every platform. ``seed`` and ``stream_id`` may also be
    1-D arrays, naming one stream per (seed, stream id) pair, seed-major as
    ``seed_states`` orders them."""

    seed: Union[int, Sequence[int], np.ndarray]
    stream_id: Union[int, np.ndarray]

    def generator(self):
        """The stream's ``np.random.Generator``, seeded as
        ``SeedSequence([seed, stream_id])`` would seed it. For arrays, an
        object whose ``random((k, n))`` fills row ``r`` from stream ``r``."""
        plane = _StreamPlane(seed_states(self.seed, self.stream_id))
        return plane if np.ndim(self.seed) or np.ndim(self.stream_id) else plane.stream(0)


def sample_latency_array(rng: np.random.Generator, theta_us: int, size) -> np.ndarray:
    """Exponential latencies of shape ``size``; along the last axis, draw ``i``
    belongs to attester ``i``."""
    if theta_us <= 0:
        raise ConfigurationError("theta_us must be positive")
    # floor(-theta * log1p(-u) + 0.5), step by step on the uniform plane
    u = rng.random(size)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -theta_us
    u += 0.5
    # u >= 0.5 here, so truncation toward zero is the floor
    return u.astype(np.int64)


@dataclass(frozen=True)
class StrategySpec:
    """A named strategy plus its options, as selected in configs."""

    name: str
    options: Mapping = field(default_factory=dict)


def strategy_spec(name: str, **options) -> StrategySpec:
    return StrategySpec(name=name, options=dict(options))


EQUILIBRIUM = strategy_spec("equilibrium")
HONEST_SPEC = strategy_spec("honest_spec")


class ProposerPlan(NamedTuple):
    """A parsed proposer strategy, as one slot's plain data: the release delay
    after the slot start (``None``: drawn from ``signing_delay``, in
    milliseconds) and the build flag (``None``: as the schedule prescribes)."""

    delay_us: Optional[int]
    build_on_prev: Optional[int]
    signing_delay: Optional[LatencyDistribution] = None


@dataclass(frozen=True)
class SimConfig:
    """A full simulation setup: protocol constants, the proposer strategy
    schedule (a default plus per-slot overrides, each naming one of
    ``PROPOSER_STRATEGIES``), the attester strategy (one of
    ``ATTESTER_STRATEGIES``), and how much per-attester detail to record."""

    params: ProtocolParams
    proposer_default: StrategySpec = EQUILIBRIUM
    proposer_overrides: Mapping[int, StrategySpec] = field(default_factory=dict)
    attester_strategy: StrategySpec = EQUILIBRIUM
    record_level: str = "summary"
    # each slot's parsed proposer strategy, so each spec is parsed once per config
    proposer_plan: tuple[ProposerPlan, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.record_level not in RECORD_LEVELS:
            raise ConfigurationError(
                f"record_level must be one of {RECORD_LEVELS}, got {self.record_level!r}"
            )
        for slot in self.proposer_overrides:
            if not 0 <= slot < self.params.horizon_slots:
                raise ConfigurationError(
                    f"proposer override slot {slot} outside horizon "
                    f"[0, {self.params.horizon_slots})"
                )
        plan = [parse_proposer_strategy(self.proposer_default, self.params)]
        plan *= self.params.horizon_slots
        for slot, spec in self.proposer_overrides.items():
            plan[slot] = parse_proposer_strategy(spec, self.params)
        object.__setattr__(self, "proposer_plan", tuple(plan))
        spec = self.attester_strategy
        if not isinstance(spec, StrategySpec) or spec.name not in ATTESTER_STRATEGIES:
            raise ConfigurationError(
                f"unknown attester strategy {getattr(spec, 'name', spec)!r}; "
                f"expected one of {ATTESTER_STRATEGIES}"
            )
        # the named attester strategies take no options
        _reject_unknown_options(spec.name, dict(spec.options), ())


def parse_proposer_strategy(spec: StrategySpec, params: ProtocolParams) -> ProposerPlan:
    """Check a named proposer strategy's options and return its plan."""
    if not isinstance(spec, StrategySpec):
        raise ConfigurationError(f"a proposer strategy must be a StrategySpec, got {spec!r}")
    name = spec.name
    opts = dict(spec.options)
    if name == "equilibrium":
        _reject_unknown_options(name, opts, ())
        return ProposerPlan(params.schedule_offset_us, None)
    if name in ("greedy_delay", "fixed"):
        # greedy_delay is fixed with the build flag 1
        known = ("delay_us",) if name == "greedy_delay" else ("delay_us", "build_on_prev")
        _reject_unknown_options(name, opts, known)
        delay = coerce_int(f"{name} delay_us", opts.get("delay_us", 0))
        build = coerce_int(f"{name} build_on_prev", opts.get("build_on_prev", 1))
        if build not in (0, 1):
            raise ConfigurationError(f"{name} build_on_prev must be 0 or 1, got {build}")
        # a release after the next slot's start breaks causality
        if not 0 <= delay <= params.slot_length_us:
            raise ConfigurationError(
                f"{name} delay_us must lie within [0, slot_length_us="
                f"{params.slot_length_us}], got {delay}"
            )
        return ProposerPlan(delay, build)
    if name == "laggy":
        _reject_unknown_options(name, opts, ("signing_delay",))
        dist = LatencyDistribution.from_config(opts.get("signing_delay", DEFAULT_SIGNING_DELAY))
        return ProposerPlan(None, 1, dist)
    raise ConfigurationError(
        f"unknown proposer strategy {name!r}; expected one of {PROPOSER_STRATEGIES}"
    )


def _reject_unknown_options(name: str, opts: dict, known: tuple) -> None:
    unknown = sorted(set(opts) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown options for strategy {name!r}: {', '.join(unknown)}"
        )


def _evaluate_attesters(
    spec: StrategySpec,
    release_us: np.ndarray,
    build: np.ndarray,
    inbound_us: np.ndarray,
    params: ProtocolParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every slot's committee at once: row ``n`` of the
    ``(horizon, N)`` inbound latencies answers the block released at
    ``release_us[n]`` with build flag ``build[n]``. Returns (votes,
    release_times_us), both ``(horizon, N)`` int64. ``equilibrium`` votes on
    arrival iff the block conforms to the schedule
    (``conforms_to_schedule``), else abstains at the slot start;
    ``honest_spec`` votes on arrival if the block arrives by the deadline
    (inclusive), else abstains at the deadline."""
    arrivals = release_us[:, None] + inbound_us
    if spec.name == "equilibrium":
        conforms = conforms_to_schedule(release_us, build, params)[:, None]
        votes = np.broadcast_to(conforms, inbound_us.shape).astype(np.int64)
        return votes, coordinated_times(conforms, arrivals, params)
    if spec.name == "honest_spec":
        on_time = honest_votes(release_us, inbound_us, params)
        deadlines = params.deadline_us(np.arange(len(release_us), dtype=np.int64)[:, None])
        # on integers, on_time is exactly arrivals <= deadlines
        return on_time.astype(np.int64), np.minimum(arrivals, deadlines)
    raise ConfigurationError(f"unknown attester strategy {spec.name!r}")


def coordinated_times(votes: np.ndarray, arrivals_us: np.ndarray, params: ProtocolParams):
    """When a coordinated attester attests: on the block's arrival if it
    votes, else at the slot start. Row ``n`` of the ``(slots, N)``
    ``arrivals_us``, and of ``votes`` broadcast to it, belongs to slot ``n``."""
    starts = params.slot_start_us(np.arange(len(arrivals_us), dtype=np.int64))
    return np.where(votes, arrivals_us, starts[:, None])


def honest_votes(
    release_us: np.ndarray, inbound_us: np.ndarray, params: ProtocolParams
) -> np.ndarray:
    """The ``honest_spec`` vote of every attester, as bools shaped like
    ``inbound_us``: row ``n`` of the inbound latencies (``(slots, N)``, under
    any leading run axes) votes iff the block released at ``release_us[n]``
    arrives by slot ``n``'s deadline, inclusive, i.e. iff its latency is at
    most the time from the release to the deadline."""
    slots = np.arange(len(release_us), dtype=np.int64)
    return inbound_us <= (params.deadline_us(slots) - release_us)[:, None]


def stream_ids(roles: tuple[str, ...], horizon: int) -> np.ndarray:
    """The stream id of every (role, slot) pair, role by role."""
    return np.array(
        [derive_stream_id(role, n) for role in roles for n in range(horizon)], dtype=np.uint64
    )


# The most latencies (runs x streams x draws) that one chunk of
# ``latency_pass`` draws: it bounds the memory of many runs drawn together.
_MAX_BATCH_DRAWS = 1 << 17


def latency_pass(
    seeds: Sequence[int], roles: tuple[str, ...], slots: int, draws: int, params: ProtocolParams
) -> Iterator[np.ndarray]:
    """The latency planes of slots ``0..slots-1`` under each run's seed, one
    chunk of runs at a time, in run order: ``(runs, len(roles), slots,
    draws)`` int64 arrays whose row ``[r, j, n]`` holds the first ``draws``
    draws of stream ``(roles[j], n)`` under the run's seed, draw ``i`` for
    attester index ``i``. A chunk holds at most ``_MAX_BATCH_DRAWS`` latencies,
    or one run. Each stream belongs to one (seed, role, slot), so a run's
    block is the same alone or in any chunk, and the planes of a prefix of the
    horizon, of one role alone or of fewer draws are rows of the wider ones."""
    ids = stream_ids(roles, slots)
    step = max(1, _MAX_BATCH_DRAWS // (len(ids) * draws))
    for start in range(0, len(seeds), step):
        batch = seeds[start : start + step]
        streams = RngStream(batch, ids).generator()
        latencies = sample_latency_array(
            streams, params.mean_latency_us, (len(batch) * len(ids), draws)
        )
        yield latencies.reshape(len(batch), len(roles), slots, draws)


def proposer_pass(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every slot's proposer action as two ``(horizon,)`` int64 columns,
    (release_time_us, build_on_prev). A ``laggy`` slot draws its signing
    delay from its own proposer stream; a slot whose plan leaves the build
    flag open takes the schedule's (``schedule_builds``). A release before the
    slot start or after the next slot's start is a hard error."""
    p = config.params
    delays, builds, signing = (list(col) for col in zip(*config.proposer_plan))
    drawing = [n for n, dist in enumerate(signing) if dist is not None]
    if drawing:
        streams = RngStream(p.seed, stream_ids((ROLE_PROPOSER,), len(delays))).generator()
        for n in drawing:
            delay_us = float(signing[n].sample(streams.stream(n))) * 1000.0 + 0.5
            if not math.isfinite(delay_us):  # NaN too
                raise ConfigurationError(
                    f"slot {n}: the laggy signing_delay drew {delay_us} us, beyond float64"
                )
            delays[n] = math.floor(delay_us)
    # checked on Python numbers, before a release far past the slot enters int64
    if not (0 <= min(delays) and max(delays) <= p.slot_length_us):
        n = next(n for n, d in enumerate(delays) if not 0 <= d <= p.slot_length_us)
        start = p.slot_start_us(n)
        late = f"after the next slot's start {start + p.slot_length_us}"
        bound = f"before the slot start {start}" if delays[n] < 0 else late
        released = f"slot {n}: proposer strategy released at {start + delays[n]}"
        raise SimulationError(f"{released} {bound}")
    release = np.array([p.slot_start_us(n) + d for n, d in enumerate(delays)], dtype=np.int64)
    # -1 marks a build flag left to the schedule
    fixed = np.array([-1 if b is None else b for b in builds], dtype=np.int64)
    build = np.where(fixed < 0, schedule_builds(release, p)[:-1], fixed)
    return release, build


def closing_builds(release_us: np.ndarray, params: ProtocolParams) -> np.ndarray:
    """The closing proposer's build flag under each ``(..., horizon)`` release
    column: the last flag of ``schedule_builds``."""
    return schedule_builds(release_us, params)[..., -1]


def closing_action(release_us: np.ndarray, params: ProtocolParams) -> ProposerAction:
    """The virtual proposer after the horizon of the ``release_us`` column: it
    releases at its slot's coordinated time and builds as the schedule
    prescribes (``closing_builds``)."""
    closing_build = int(closing_builds(release_us, params))
    return ProposerAction(closing_build, params.schedule_time_us(len(release_us)))


def resolve_slots(
    release_us: np.ndarray, build: np.ndarray, vote_count: np.ndarray, params: ProtocolParams
) -> tuple[np.ndarray, np.ndarray]:
    """The canonical flags (int64) and proposer payoffs (float64) of slots
    ``0..S-1``, ``S`` at most the horizon, shaped like ``vote_count``:
    ``(..., S)``, any leading run axes. The proposer columns span the horizon:
    ``(horizon,)``, shared by every run, or one row per run, ``(..., horizon)``.

    A block is canonical iff its vote count is at least ``min_vote_count``
    and the next proposer (after the last slot, ``closing_action``) builds on
    it. A canonical proposer is paid the base reward plus the time value
    accrued since the last canonical release before its slot (genesis before
    the first); a block that is not canonical pays nothing."""
    n_slots = vote_count.shape[-1]
    next_build = next_slot_values(build, closing_builds(release_us, params))
    canonical = (next_build[..., :n_slots] == 1) & (vote_count >= params.min_vote_count)
    # per slot, one past the last canonical slot up to it (0: genesis), an
    # index into ``times``; ``since`` shifts it to the slots before
    last = np.maximum.accumulate(np.where(canonical, np.arange(1, n_slots + 1), 0), axis=-1)
    since = np.zeros_like(last)
    since[..., 1:] = last[..., :-1]
    # each run's own release column, or the one that every run shares
    release = np.broadcast_to(release_us[..., :n_slots], canonical.shape)
    genesis = np.full(canonical.shape[:-1] + (1,), params.genesis_time_us)
    times = np.concatenate((genesis, release), axis=-1)
    earlier = np.take_along_axis(times, since, -1)
    gap_s = np.maximum(release - earlier, 0) / MICROSECONDS_PER_SECOND
    pay = np.where(canonical, params.base_reward + params.mev_rate * gap_s, 0.0)
    return canonical.astype(np.int64), pay


def run_simulation(config: SimConfig) -> SimulationTrace:
    """Run the game over the horizon, pass by pass (proposer, latency,
    attester, resolution), and return a fully resolved trace. Attester
    payoffs also need the next slot's canonical status and the closing
    proposer's release. The trace holds the per-slot results as read-only
    columns; at ``record_level="full"`` it also keeps the per-attester arrays.
    The returned trace passes ``SimulationTrace.validate()``.
    """
    p = config.params
    horizon = p.horizon_slots

    release, build = proposer_pass(config)
    roles = (ROLE_INBOUND, ROLE_OUTBOUND)
    (planes,) = latency_pass((p.seed,), roles, horizon, p.attester_count, p)
    inbound, outbound = planes[0]

    votes, taus = _evaluate_attesters(config.attester_strategy, release, build, inbound, p)
    vote_counts = votes.sum(axis=1)
    chi, proposer_payoff = resolve_slots(release, build, vote_counts, p)

    # the closing proposer's own block is treated as canonical (play continues
    # on the coordinated path past the horizon)
    closing = closing_action(release, p)
    next_release = next_slot_values(release, closing.release_time_us)[:, None]
    fresh = fresh_attestations(taus, outbound, next_release)
    payoffs = attester_payoff_array(votes, chi[:, None], fresh, next_slot_values(chi, 1)[:, None])

    columns = dict(
        release_time_us=release,
        build_on_prev=build,
        vote_count=vote_counts,
        canonical=chi,
        proposer_payoff=proposer_payoff,
        attester_payoff_total=payoffs.sum(axis=1),
        fresh_count=fresh.sum(axis=1),
        fresh_vote_count=(fresh & (votes == 1)).sum(axis=1),
    )
    if config.record_level == "full":
        columns.update(
            votes=votes,
            attestation_times_us=taus,
            inbound_latencies_us=inbound,
            outbound_latencies_us=outbound,
            attester_payoffs=payoffs,
        )
    for arr in columns.values():
        arr.flags.writeable = False
    trace = SimulationTrace(params=p, closing_action=closing, **columns)
    trace.validate()
    return trace
