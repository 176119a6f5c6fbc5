"""Deterministic slot-by-slot simulation engine.

Randomness discipline: every latency draw comes from a stream derived from the
config seed plus a (role, slot[, index]) tag, never from a shared global
sequence. The attester plane uses one stream per (role, slot) holding one draw
per attester index, so the whole committee is sampled in a single vectorized
call; per-slot scalar entities (e.g. a proposer's signing delay) get their own
streams. Identical configs therefore produce identical traces, attester
outcomes within a slot are exchangeable, and slots can be resampled
independently.

Canonical status is resolved one slot in arrears (it needs the next proposer's
build flag); the horizon is closed by a virtual proposer following the
coordinated schedule whose own block is treated as canonical, so every slot,
including the last, gets fully resolved payoffs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

import numpy as np

from .distributions import LatencyDistribution
from .model import (
    ConfigurationError,
    ProposerAction,
    ProtocolParams,
    SimulationTrace,
    SlotRecord,
    attester_payoff,
    attester_payoff_array,
    proposer_payoff,
)
from .strategies import (
    AttesterContext,
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


def derive_stream_id(role: str, slot: int, index: int = 0) -> int:
    """Stable 64-bit stream id for a (role, slot, index) entity."""
    tag = f"{role}|{slot}|{index}".encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """Stable 64-bit sub-seed for replicated runs (sweeps, grids, MC repeats)."""
    tag = f"{seed}|{label}|{index}".encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: same seed and stream id give the
    same sequence on every platform."""

    seed: int
    stream_id: int

    @classmethod
    def for_entity(cls, seed: int, role: str, slot: int, index: int = 0) -> "RngStream":
        return cls(seed=seed, stream_id=derive_stream_id(role, slot, index))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def sample_latency(rng: np.random.Generator, theta_us: int) -> int:
    """One exponential latency with mean ``theta_us``, inverse-CDF on a uniform
    draw, rounded half-up to integer microseconds."""
    if theta_us <= 0:
        raise ConfigurationError("theta_us must be positive")
    u = rng.random()
    return _round_half_up(-theta_us * math.log1p(-u))


def sample_latency_array(rng: np.random.Generator, theta_us: int, size: int) -> np.ndarray:
    """Vector of exponential latencies; draw ``i`` belongs to attester ``i``."""
    if theta_us <= 0:
        raise ConfigurationError("theta_us must be positive")
    u = rng.random(size)
    return np.floor(-theta_us * np.log1p(-u) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class StrategySpec:
    """A named strategy plus its options, as selected in configs."""

    name: str
    options: Mapping = field(default_factory=dict)

    def option(self, key: str):
        return self.options[key]


def strategy_spec(name: str, **options) -> StrategySpec:
    return StrategySpec(name=name, options=dict(options))


EQUILIBRIUM = strategy_spec("equilibrium")
HONEST_SPEC = strategy_spec("honest_spec")


@dataclass(frozen=True)
class SimConfig:
    """A full simulation setup: protocol constants, the proposer strategy
    schedule (a default plus per-slot overrides), the attester strategy, and
    how much per-attester detail to record."""

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
        make_proposer_strategy(self.proposer_default)
        for spec in self.proposer_overrides.values():
            make_proposer_strategy(spec)
        if (
            not callable(self.attester_strategy)
            and self.attester_strategy.name not in ATTESTER_STRATEGIES
        ):
            raise ConfigurationError(
                f"unknown attester strategy {self.attester_strategy.name!r}; "
                f"expected one of {ATTESTER_STRATEGIES}"
            )

    def proposer_spec(self, slot: int) -> StrategySpec:
        return self.proposer_overrides.get(slot, self.proposer_default)


ProposerFn = Callable[[ProposerContext, np.random.Generator], ProposerAction]


def make_proposer_strategy(spec) -> ProposerFn:
    """Build the engine callable for a named proposer strategy, validating its
    options. A bare callable (ctx, rng) -> ProposerAction is accepted as-is,
    for custom strategies defined in code rather than configs."""
    if callable(spec):
        return spec
    name = spec.name
    opts = dict(spec.options)
    if name == "equilibrium":
        _reject_unknown_options(name, opts, ())
        return lambda ctx, rng: equilibrium_proposer(ctx)
    if name == "greedy_delay":
        _reject_unknown_options(name, opts, ("delay_us",))
        delay = int(opts.get("delay_us", 0))
        return lambda ctx, rng: greedy_delay_proposer(delay, ctx)
    if name == "fixed":
        _reject_unknown_options(name, opts, ("delay_us", "build_on_prev"))
        delay = int(opts.get("delay_us", 0))
        build = int(opts.get("build_on_prev", 1))
        return lambda ctx, rng: fixed_action_proposer(delay, build, ctx)
    if name == "laggy":
        _reject_unknown_options(name, opts, ("signing_delay",))
        dist = LatencyDistribution.from_config(
            opts.get("signing_delay", {"family": "lognormal", "median": 418.0, "sigma": 0.5})
        )
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
    spec,
    slot: int,
    action: ProposerAction,
    prev_action: Optional[ProposerAction],
    inbound_us: np.ndarray,
    params: ProtocolParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized committee evaluation; elementwise identical to the scalar
    strategy functions. Returns (votes, release_times_us)."""
    if callable(spec):
        # Custom scalar strategy (ctx) -> AttesterAction, evaluated per attester.
        votes = np.empty(len(inbound_us), dtype=np.int64)
        taus = np.empty(len(inbound_us), dtype=np.int64)
        for i, lat in enumerate(inbound_us):
            ctx = AttesterContext(
                slot=slot,
                observed_proposer_action=action,
                inbound_latency_us=int(lat),
                prev_proposer_action=prev_action,
                params=params,
            )
            act = spec(ctx)
            votes[i] = act.vote
            taus[i] = act.release_time_us
        return votes, taus
    if spec.name == "equilibrium":
        if conforms_to_schedule(action, prev_action, slot, params):
            votes = np.ones(len(inbound_us), dtype=np.int64)
            taus = action.release_time_us + inbound_us
        else:
            votes = np.zeros(len(inbound_us), dtype=np.int64)
            taus = np.full(len(inbound_us), params.slot_start_us(slot), dtype=np.int64)
        return votes, taus
    if spec.name == "honest_spec":
        arrivals = action.release_time_us + inbound_us
        deadline = params.deadline_us(slot)
        votes = (arrivals <= deadline).astype(np.int64)
        taus = np.where(votes == 1, arrivals, deadline).astype(np.int64)
        return votes, taus
    raise ConfigurationError(f"unknown attester strategy {spec.name!r}")


def run_simulation(config: SimConfig) -> SimulationTrace:
    """Run the slot loop and return a fully resolved trace.

    Per slot: the proposer acts (release before the slot start is a hard
    error), inbound latencies are sampled for the whole committee, attesters
    act (a positive vote earlier than the block's arrival is a hard error),
    outbound latencies are sampled. Once the next proposer has acted, the
    slot's canonical status and the proposer payoff are resolved; attester
    payoffs additionally need the next slot's canonical status, with the
    closing convention covering the horizon end. At ``record_level="full"``
    the per-attester arrays are kept on the trace. The returned trace passes
    ``SimulationTrace.validate()``.
    """
    p = config.params
    horizon = p.horizon_slots
    n_att = p.attester_count
    seed = p.seed

    proposer_fns = [make_proposer_strategy(config.proposer_spec(n)) for n in range(horizon)]

    actions: list[ProposerAction] = []
    inbound = np.empty((horizon, n_att), dtype=np.int64)
    outbound = np.empty((horizon, n_att), dtype=np.int64)
    votes = np.empty((horizon, n_att), dtype=np.int64)
    taus = np.empty((horizon, n_att), dtype=np.int64)

    for n in range(horizon):
        prev = actions[n - 1] if n > 0 else None
        ctx = ProposerContext(slot=n, prev_proposer_action=prev, params=p)
        rng_p = RngStream.for_entity(seed, ROLE_PROPOSER, n).generator()
        action = proposer_fns[n](ctx, rng_p)
        if action.release_time_us < p.slot_start_us(n):
            raise SimulationError(
                f"slot {n}: proposer strategy released at {action.release_time_us} "
                f"before the slot start {p.slot_start_us(n)}"
            )
        actions.append(action)

        inbound[n] = sample_latency_array(
            RngStream.for_entity(seed, ROLE_INBOUND, n).generator(), p.mean_latency_us, n_att
        )
        votes[n], taus[n] = _evaluate_attesters(
            config.attester_strategy, n, action, prev, inbound[n], p
        )
        if np.any((votes[n] == 1) & (taus[n] < action.release_time_us + inbound[n])):
            raise SimulationError(
                f"slot {n}: attester strategy voted before the block arrived"
            )
        outbound[n] = sample_latency_array(
            RngStream.for_entity(seed, ROLE_OUTBOUND, n).generator(), p.mean_latency_us, n_att
        )

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
    next_release = np.array([a.release_time_us for a in next_actions], dtype=np.int64)
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
                attestation_share=Fraction(int(vote_counts[n]), n_att),
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


@dataclass(frozen=True)
class PayoffLedger:
    """Trace-wide payoff accounting, recomputed independently of the engine."""

    proposer_payoffs: tuple[float, ...]
    attester_payoff_totals: tuple[int, ...]
    total_proposer_payoff: float
    total_mev_eth: float
    mean_attester_payoff: float


def compute_payoffs(trace: SimulationTrace) -> PayoffLedger:
    """Recompute every payoff in the trace through the scalar payoff rules and
    check the stored values match exactly.

    This is the slow verification path, independent of the engine's
    vectorized payoffs: it evaluates ``attester_payoff`` once per
    attester-slot, so it needs a trace recorded at level "full".
    """
    if trace.record_level != "full":
        raise ValueError(
            "compute_payoffs needs per-attester detail; run with record_level='full'"
        )
    p = trace.params
    horizon = len(trace.slots)
    chi = [rec.canonical for rec in trace.slots]
    votes = trace.votes.tolist()
    taus = trace.attestation_times_us.tolist()
    outbound = trace.outbound_latencies_us.tolist()
    stored = trace.attester_payoffs.tolist()

    proposer_payoffs: list[float] = []
    attester_totals: list[int] = []
    total_mev = 0.0
    last_canonical_time = trace.genesis_time_us
    for n, rec in enumerate(trace.slots):
        pay = proposer_payoff(
            rec.proposer_action.release_time_us, last_canonical_time, rec.canonical, p
        )
        if pay != rec.proposer_payoff:
            raise SimulationError(
                f"slot {n}: stored proposer payoff {rec.proposer_payoff} does not match "
                f"recomputed {pay}"
            )
        if rec.canonical:
            total_mev += pay - p.base_reward
            last_canonical_time = rec.proposer_action.release_time_us
        proposer_payoffs.append(pay)

        next_release = (
            trace.slots[n + 1].proposer_action.release_time_us
            if n + 1 < horizon
            else trace.closing_action.release_time_us
        )
        chi_next = chi[n + 1] if n + 1 < horizon else 1
        total = 0
        for i in range(p.attester_count):
            pay_i = attester_payoff(
                votes[n][i], rec.canonical, taus[n][i], outbound[n][i], next_release, chi_next
            )
            if pay_i != stored[n][i]:
                raise SimulationError(
                    f"slot {n}, attester {i}: stored payoff {stored[n][i]} "
                    f"does not match recomputed {pay_i}"
                )
            total += pay_i
        if total != rec.attester_payoff_total:
            raise SimulationError(f"slot {n}: attester payoff total mismatch")
        attester_totals.append(total)

    n_samples = horizon * p.attester_count
    return PayoffLedger(
        proposer_payoffs=tuple(proposer_payoffs),
        attester_payoff_totals=tuple(attester_totals),
        total_proposer_payoff=float(sum(proposer_payoffs)),
        total_mev_eth=total_mev,
        mean_attester_payoff=sum(attester_totals) / n_samples,
    )
