"""Deterministic slot-by-slot simulation engine.

Randomness discipline: every latency draw comes from a stream derived from the
config seed plus a (role, slot[, index]) tag, never from a shared global
sequence. The attester plane uses one stream per (role, slot) holding one draw
per attester index, so the whole committee is sampled in a single vectorized
call; per-slot scalar entities (e.g. a proposer's signing delay) get their own
streams. Identical configs therefore produce identical traces, attester
outcomes within a slot are exchangeable, and slots can be resampled
independently.

A run has three passes. The proposer pass walks the slots in order; only a
strategy that draws randomness (``laggy`` or a custom proposer callable) gets
its slot's proposer stream. The RNG pass derives the seed state of all
``2 * horizon`` inbound and outbound streams in one vectorized hash
(``seed_states``, bit-identical to ``np.random.SeedSequence``) and samples the
whole ``(2, horizon, N)`` latency plane at once. The attester pass evaluates
the committee of every slot in one ``(horizon, N)`` step.

Canonical status is resolved one slot in arrears (it needs the next proposer's
build flag); the horizon is closed by a virtual proposer following the
coordinated schedule whose own block is treated as canonical, so every slot,
including the last, gets fully resolved payoffs.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .distributions import LatencyDistribution
from .model import (
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
    SimulationTrace,
    SlotRecord,
    attester_payoff_array,
    coerce_int,
    proposer_payoff,
)
from .strategies import (
    DEFAULT_SIGNING_DELAY,
    ProposerContext,
    conforms_to_schedule,
    equilibrium_proposer,
    fixed_action_proposer,
    greedy_delay_proposer,
    laggy_proposer,
)

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


def seed_states(seed: int, stream_ids) -> np.ndarray:
    """The PCG64 seed state of every stream in one vectorized pass: row ``k``
    equals ``np.random.SeedSequence([seed, stream_ids[k]]).generate_state(4,
    np.uint64)``.

    The entropy words of ``[seed, stream_id]`` are the 32-bit words of each
    value, least significant first (one word for a value below 2**32). Both
    values fit in 64 bits, so there are at most four words, and numpy pads a
    shorter entropy with zeros to its four-word pool. Zero-padding every
    stream id to two words therefore gives each stream its exact pool.
    """
    if not 0 <= seed < 2**64:
        raise ConfigurationError("seed must fit in 64 unsigned bits")
    ids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1)
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    k = len(seed_words)
    assert k + 2 <= _POOL_SIZE
    pool = np.zeros((_POOL_SIZE, ids.size), dtype=np.uint32)
    pool[:k] = _column(seed_words)
    pool[k] = ids & np.uint64(_MASK32)
    pool[k + 1] = ids >> np.uint64(32)

    xor, mult = _POOL_HASH
    v = (pool ^ xor) * mult
    mixer = v ^ (v >> 16)
    for src, (xor, mult) in enumerate(_POOL_MIX):
        hashed = (mixer[src] ^ xor) * mult
        hashed ^= hashed >> 16
        mixed = _MIX_MULT_L * mixer - _MIX_MULT_R * hashed
        mixed ^= mixed >> 16
        mixed[src] = mixer[src]
        mixer = mixed

    words = (mixer ^ _STATE_XOR) * _STATE_MULT
    words ^= words >> 16
    words = words.reshape(2 * _POOL_SIZE, -1).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | (words[1::2] << np.uint64(32))).T)


class _SeedState(ISeedSequence):
    """A seed state computed by ``seed_states``, handed to ``PCG64`` in place
    of the ``SeedSequence`` it equals. ``PCG64`` asks for exactly these four
    uint64 words."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


class _StreamPlane:
    """Many streams at once, one per row of ``seed_states``."""

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
        out = np.empty(size)
        for r, row in enumerate(out):
            self.stream(r).random(out=row)
        return out


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: same seed and stream id give the
    same sequence on every platform. ``stream_id`` may also be a 1-D array of
    stream ids, naming one stream per entry."""

    seed: int
    stream_id: Union[int, np.ndarray]

    def generator(self):
        """The stream's ``np.random.Generator``, seeded as
        ``SeedSequence([seed, stream_id])`` would seed it. For an array of
        stream ids, an object whose ``random((k, n))`` fills row ``r`` from
        stream ``r``."""
        plane = _StreamPlane(seed_states(self.seed, self.stream_id))
        return plane if np.ndim(self.stream_id) else plane.stream(0)


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
    np.floor(u, out=u)
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


@dataclass(frozen=True)
class SimConfig:
    """A full simulation setup: protocol constants, the proposer strategy
    schedule (a default plus per-slot overrides), the attester strategy (one
    of ``ATTESTER_STRATEGIES``), and how much per-attester detail to record."""

    params: ProtocolParams
    proposer_default: StrategySpec = EQUILIBRIUM
    proposer_overrides: Mapping[int, StrategySpec] = field(default_factory=dict)
    attester_strategy: StrategySpec = EQUILIBRIUM
    record_level: str = "summary"

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
        for spec in (self.proposer_default, *self.proposer_overrides.values()):
            make_proposer_strategy(spec)
            if not callable(spec) and spec.name in ("greedy_delay", "fixed"):
                # a release after the next slot's start breaks causality
                delay = int(spec.options.get("delay_us", 0))
                if not 0 <= delay <= self.params.slot_length_us:
                    raise ConfigurationError(
                        f"{spec.name} delay_us must lie within [0, slot_length_us="
                        f"{self.params.slot_length_us}], got {delay}"
                    )
        spec = self.attester_strategy
        if not isinstance(spec, StrategySpec) or spec.name not in ATTESTER_STRATEGIES:
            raise ConfigurationError(
                f"unknown attester strategy {getattr(spec, 'name', spec)!r}; "
                f"expected one of {ATTESTER_STRATEGIES}"
            )
        # the named attester strategies take no options
        _reject_unknown_options(spec.name, dict(spec.options), ())

    def proposer_spec(self, slot: int) -> StrategySpec:
        return self.proposer_overrides.get(slot, self.proposer_default)


ProposerFn = Callable[[ProposerContext, Optional[np.random.Generator]], ProposerAction]


def make_proposer_strategy(spec) -> ProposerFn:
    """Build the engine callable for a named proposer strategy, validating its
    options. A bare callable (ctx, rng) -> ProposerAction is accepted as-is,
    for custom strategies defined in code rather than configs. The engine
    passes the slot's proposer stream as ``rng`` to ``laggy`` and to bare
    callables, and ``None`` to the strategies that draw nothing."""
    if callable(spec):
        return spec
    name = spec.name
    opts = dict(spec.options)
    if name == "equilibrium":
        _reject_unknown_options(name, opts, ())
        return lambda ctx, rng: equilibrium_proposer(ctx)
    if name == "greedy_delay":
        _reject_unknown_options(name, opts, ("delay_us",))
        delay = coerce_int(f"{name} delay_us", opts.get("delay_us", 0))
        return lambda ctx, rng: greedy_delay_proposer(delay, ctx)
    if name == "fixed":
        _reject_unknown_options(name, opts, ("delay_us", "build_on_prev"))
        delay = coerce_int(f"{name} delay_us", opts.get("delay_us", 0))
        build = coerce_int(f"{name} build_on_prev", opts.get("build_on_prev", 1))
        if build not in (0, 1):
            raise ConfigurationError(f"{name} build_on_prev must be 0 or 1, got {build}")
        return lambda ctx, rng: fixed_action_proposer(delay, build, ctx)
    if name == "laggy":
        _reject_unknown_options(name, opts, ("signing_delay",))
        dist = LatencyDistribution.from_config(opts.get("signing_delay", DEFAULT_SIGNING_DELAY))
        return lambda ctx, rng: laggy_proposer(dist, ctx, rng)
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
    actions: Sequence[ProposerAction],
    inbound_us: np.ndarray,
    params: ProtocolParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every slot's committee at once: row ``n`` of the
    ``(horizon, N)`` inbound latencies answers the block of ``actions[n]``,
    whose predecessor is ``actions[n - 1]`` (none for slot 0). Returns
    (votes, release_times_us), both ``(horizon, N)`` int64. ``equilibrium``
    votes on arrival iff the block conforms to the schedule, else abstains at
    the slot start; ``honest_spec`` votes on arrival if the block arrives by
    the deadline (inclusive), else abstains at the deadline."""
    horizon = len(actions)
    release = np.array([a.release_time_us for a in actions], dtype=np.int64)[:, None]
    slots = np.arange(horizon, dtype=np.int64)[:, None]
    arrivals = release + inbound_us
    if spec.name == "equilibrium":
        conforms = np.array(
            [
                conforms_to_schedule(a, actions[n - 1] if n else None, n, params)
                for n, a in enumerate(actions)
            ]
        )[:, None]
        votes = np.broadcast_to(conforms, inbound_us.shape).astype(np.int64)
        taus = np.where(conforms, arrivals, params.slot_start_us(slots))
        return votes, taus
    if spec.name == "honest_spec":
        deadline = params.deadline_us(slots)
        votes = (arrivals <= deadline).astype(np.int64)
        taus = np.where(votes == 1, arrivals, deadline)
        return votes, taus
    raise ConfigurationError(f"unknown attester strategy {spec.name!r}")


def _stream_ids(roles: tuple[str, ...], horizon: int) -> np.ndarray:
    """The stream id of every (role, slot) pair, role by role."""
    return np.array(
        [derive_stream_id(role, n) for role in roles for n in range(horizon)], dtype=np.uint64
    )


def _draws_randomness(spec) -> bool:
    """Whether a proposer strategy reads its slot's proposer stream."""
    return callable(spec) or spec.name == "laggy"


def run_simulation(config: SimConfig) -> SimulationTrace:
    """Run the game over the horizon and return a fully resolved trace.

    Proposer pass: slot by slot, the proposer acts; a release before the slot
    start or after the next slot's start is a hard error. RNG pass: inbound
    and outbound latencies are sampled for every slot's committee at once.
    Attester pass: every committee acts. Each slot's canonical status and
    proposer payoff follow from the next proposer's action; attester payoffs
    additionally need the next slot's canonical status, with the closing
    convention covering the horizon end. At ``record_level="full"`` the
    per-attester arrays are kept on the trace. The returned trace passes
    ``SimulationTrace.validate()``.
    """
    p = config.params
    horizon = p.horizon_slots
    n_att = p.attester_count
    seed = p.seed

    specs = [config.proposer_spec(n) for n in range(horizon)]
    proposer_streams = None
    if any(map(_draws_randomness, specs)):
        proposer_streams = RngStream(seed, _stream_ids((ROLE_PROPOSER,), horizon)).generator()

    actions: list[ProposerAction] = []
    prev = None
    for n, spec in enumerate(specs):
        rng_p = proposer_streams.stream(n) if _draws_randomness(spec) else None
        ctx = ProposerContext(slot=n, prev_proposer_action=prev, params=p)
        action = make_proposer_strategy(spec)(ctx, rng_p)
        start = p.slot_start_us(n)
        if action.release_time_us < start:
            raise SimulationError(
                f"slot {n}: proposer strategy released at {action.release_time_us} "
                f"before the slot start {start}"
            )
        if action.release_time_us > start + p.slot_length_us:
            raise SimulationError(
                f"slot {n}: proposer strategy released at {action.release_time_us} "
                f"after the next slot's start {start + p.slot_length_us}"
            )
        actions.append(action)
        prev = action

    stream_ids = _stream_ids((ROLE_INBOUND, ROLE_OUTBOUND), horizon)
    latencies = sample_latency_array(
        RngStream(seed, stream_ids).generator(), p.mean_latency_us, (2 * horizon, n_att)
    )
    inbound, outbound = latencies.reshape(2, horizon, n_att)

    votes, taus = _evaluate_attesters(config.attester_strategy, actions, inbound, p)
    release = np.array([a.release_time_us for a in actions], dtype=np.int64)

    # Virtual closing proposer: follows the coordinated schedule, building on
    # the final block iff it was released on time. Its block is treated as
    # canonical (play continues on the coordinated path past the horizon).
    closing_build = 1 if actions[-1].release_time_us <= p.schedule_time_us(horizon - 1) else 0
    closing_action = ProposerAction(
        build_on_prev=closing_build, release_time_us=p.schedule_time_us(horizon)
    )
    next_actions = actions[1:] + [closing_action]

    vote_counts = votes.sum(axis=1)
    next_build = np.array([a.build_on_prev for a in next_actions], dtype=np.int64)
    chi = ((next_build == 1) & (vote_counts >= p.min_vote_count)).astype(np.int64)
    next_release = np.append(release[1:], closing_action.release_time_us)
    chi_next = np.append(chi[1:], 1)
    fresh = (taus + outbound) <= next_release[:, None]
    payoffs = attester_payoff_array(
        votes, chi[:, None], taus, outbound, next_release[:, None], chi_next[:, None]
    )
    payoff_totals = payoffs.sum(axis=1)
    fresh_counts = fresh.sum(axis=1)
    fresh_vote_counts = (fresh & (votes == 1)).sum(axis=1)

    genesis_time = p.genesis_time_us
    records: list[SlotRecord] = []
    last_canonical_time = genesis_time
    for n in range(horizon):
        chi_n = int(chi[n])
        pay = proposer_payoff(actions[n].release_time_us, last_canonical_time, chi_n, p)
        if chi_n:
            last_canonical_time = actions[n].release_time_us
        records.append(
            SlotRecord(
                slot=n,
                proposer_action=actions[n],
                vote_count=int(vote_counts[n]),
                canonical=chi_n,
                proposer_payoff=pay,
                attester_payoff_total=int(payoff_totals[n]),
                fresh_count=int(fresh_counts[n]),
                fresh_vote_count=int(fresh_vote_counts[n]),
            )
        )

    arrays = {}
    if config.record_level == "full":
        arrays = dict(
            votes=votes,
            attestation_times_us=taus,
            inbound_latencies_us=inbound,
            outbound_latencies_us=outbound,
            attester_payoffs=payoffs,
        )
        for arr in arrays.values():
            arr.flags.writeable = False
    trace = SimulationTrace(
        params=p,
        slots=tuple(records),
        genesis_time_us=genesis_time,
        closing_action=closing_action,
        **arrays,
    )
    trace.validate()
    return trace

