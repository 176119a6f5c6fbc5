"""Mechanical verification of the coordinated-schedule profile and empirical
best responses for a delay-picking proposer.

Deviation checks replay the game with a single mid-horizon player deviating
while everyone else follows the coordinated profile. Where the outcome is
deterministic (a deviating proposer is simply not voted for), unprofitability
is certified by exact zeros against a positive baseline; where it is
stochastic, by a two-standard-error separation of Monte Carlo means.

Every Monte Carlo routine here seeds run ``r`` of a label as ``replicate``
does (``_run_seeds``), builds every config before its first draw, and
draws its latencies through ``engine.latency_pass``, whose one chunk bound
caps the latencies drawn at once. ``replicate`` runs a label's runs as one
batch (``engine.run_simulation`` with their seeds), one trace whose row
``r`` is run ``r``; the next-slot share curves run one such batch per delay,
and the offset sweep one trace per offset. The best-response curve keeps its
``"best-response|<delay>"`` seeds but runs no trace: each run draws only
the inbound streams of slots 0..k, the rows that the deviating slot k's payoff
and vote count read, and the runs of a delay are seeded, drawn and resolved
together. The attester deviation check runs one trace per offset,
run 0, and draws only the first latency of each stream in every run: under
coordinated play the runs share every column but the watched attester's own
draws. The proposer deviation check is not a Monte Carlo routine: its
payoffs follow from the proposer columns alone, so it draws nothing, and it
resolves the baseline and every arm as the rows of one batch. Canonical
status and proposer pay come from ``engine.resolve_slots`` everywhere: in the
runs themselves, the proposer check, the attester check's margin test and
the best response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .engine import (
    HONEST_SPEC,
    ROLE_INBOUND,
    ROLE_OUTBOUND,
    ProposerPlan,
    SimConfig,
    SimulationError,
    coordinated_times,
    derive_seed,
    honest_votes,
    latency_pass,
    parse_proposer_strategy,
    proposer_pass,
    resolve_slots,
    run_simulation,
    strategy_spec,
)
from .metrics import next_slot_share_samples
from .model import (
    INT64_MAX,
    ConfigurationError,
    ProtocolParams,
    SimulationTrace,
    attester_payoff_array,
    coerce_int,
    fresh_attestations,
    next_slot_values,
)
from .strategies import conforms_to_schedule, schedule_builds


@dataclass(frozen=True)
class DeviationOutcome:
    """One tested deviation: its descriptor, the deviator's Monte Carlo payoff,
    and whether it is certified unprofitable against the baseline."""

    descriptor: str
    mean_payoff: float
    std_error: float
    samples: int
    exact_zero: bool
    unprofitable: bool


@dataclass(frozen=True)
class DeviationReport:
    delta_star_us: int
    baseline_payoff: float
    baseline_std_error: float
    baseline_samples: int
    deviations: tuple[DeviationOutcome, ...]
    all_unprofitable: bool


@dataclass(frozen=True)
class ResponseCurve:
    """Expected proposer payoff and attestation share per tested release delay.
    The argmax breaks ties toward the smaller delay."""

    delays_us: tuple[int, ...]
    expected_payoffs: tuple[float, ...]
    payoff_std_errors: tuple[float, ...]
    attestation_shares: tuple[float, ...]
    argmax_delay_us: int


@dataclass(frozen=True)
class SweepRow:
    delta_star_us: int
    proposer_payoff: float
    attester_payoff_mean: float
    attester_payoff_se: float
    all_canonical: int


def _run_seeds(params: ProtocolParams, label: str, runs: int) -> list[int]:
    """The seed of each replicated run: for each run index ``r`` in
    ``range(runs)``, the sub-seed that ``derive_seed`` gives ``(params.seed,
    label, r)``. A (label, index) pair names one run, so a run's draws depend
    on nothing else the caller does."""
    return [derive_seed(params.seed, label, r) for r in range(runs)]


def replicate(config: SimConfig, label: str, runs: int) -> SimulationTrace:
    """Replicated runs of one setup: the batch trace of ``config`` under the
    seeds of ``_run_seeds``, row ``r`` for run index ``r``."""
    return run_simulation(config, _run_seeds(config.params, label, runs))


def _delay_set(delay_grid: Sequence[int]) -> list[int]:
    """A delay grid as the sorted list of its delays. An empty grid, an entry
    that is not an integer, or a repeated delay is a ``ConfigurationError``;
    the range of each delay is its ``greedy_delay`` strategy's to check."""
    if len(delay_grid) == 0:
        raise ConfigurationError("delay grid must not be empty")
    delays = sorted(coerce_int("delay_grid", d) for d in delay_grid)
    if len(set(delays)) != len(delays):
        raise ConfigurationError("delay grid contains duplicates")
    return delays


def _means_ses(samples: np.ndarray) -> tuple[list[float], list[float]]:
    """The mean and standard error (ddof=1; 0 for one sample) of each row of a
    ``(rows, samples)`` array, in one reduction along axis 1, bit for bit as
    each row alone gives them."""
    n = samples.shape[1]
    ses = samples.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(len(samples))
    return samples.mean(axis=1).tolist(), ses.tolist()


def _deviation_report(
    delta_star_us: int,
    baseline: Sequence[float],
    arms: Sequence[tuple[str, Sequence[float]]],
) -> DeviationReport:
    """The verdict on each (descriptor, payoffs) arm against the baseline
    payoffs: unprofitable when every payoff is exactly zero against a positive
    baseline mean, or when the arm's mean plus two standard errors stays below
    the baseline mean. The baseline and the arms, all of one sample count, are
    reduced together as the rows of one ``(arms + 1, samples)`` array."""
    stacked = np.array([baseline, *(payoffs for _, payoffs in arms)], dtype=float)
    n = stacked.shape[1]
    means, ses = _means_ses(stacked)
    zeros = (~stacked.any(axis=1)).tolist()
    baseline_mean = means[0]
    outcomes = []
    for (descriptor, _), mean, se, exact_zero in zip(arms, means[1:], ses[1:], zeros[1:]):
        unprofitable = (exact_zero and baseline_mean > 0) or mean + 2 * se < baseline_mean
        outcomes.append(
            DeviationOutcome(
                descriptor=descriptor,
                mean_payoff=mean,
                std_error=se,
                samples=n,
                exact_zero=exact_zero,
                unprofitable=unprofitable,
            )
        )
    return DeviationReport(
        delta_star_us=delta_star_us,
        baseline_payoff=baseline_mean,
        baseline_std_error=ses[0],
        baseline_samples=n,
        deviations=tuple(outcomes),
        all_unprofitable=all(o.unprofitable for o in outcomes),
    )


def _deviation_slot(horizon: int, requested: Optional[int]) -> int:
    """The deviating slot of an int ``horizon``: ``requested``, an integer,
    or by default the middle slot; it must be interior to the horizon."""
    if horizon < 3:
        raise ConfigurationError("deviation checks need a horizon of at least 3 slots")
    slot = horizon // 2 if requested is None else coerce_int("deviation_slot", requested)
    if not 1 <= slot <= horizon - 2:
        raise ConfigurationError(
            f"deviation slot {slot} must be interior to the horizon (1..{horizon - 2})"
        )
    return slot


def default_deviation_grid(
    params: ProtocolParams, delta_star_us: int, n_points: int = 50
) -> tuple[tuple[int, int], ...]:
    """Evenly spaced (delay_us, build_flag) pairs over [0, slot_length] x {0, 1}
    with the coordinated action excluded; when the coordinated delay lands on
    the delay grid, the excluded pair is replaced by a release 1 ms off
    schedule so the grid keeps ``n_points`` entries. That release is 1 ms late,
    or 1 ms early when a late one would pass the next slot's start."""
    n_points = coerce_int("n_points", n_points)
    delta_star_us = coerce_int("delta_star_us", delta_star_us)
    if n_points < 2:
        raise ConfigurationError("n_points must be at least 2")
    n_delays = (n_points + 1) // 2
    span = max(n_delays - 1, 1)  # two points are one delay, 0, with both flags
    delays = [int(round(i * params.slot_length_us / span)) for i in range(n_delays)]
    off_schedule = delta_star_us + 1000
    if off_schedule > params.slot_length_us:
        off_schedule = delta_star_us - 1000
    grid = [(d, phi) for d in delays for phi in (1, 0)]
    grid = [(off_schedule, 1) if pair == (delta_star_us, 1) else pair for pair in grid]
    return tuple(grid[:n_points])


def check_proposer_deviation(
    params: ProtocolParams,
    delta_star_us: int,
    deviation_grid: Sequence[tuple[int, int]],
    runs: int = 1,
    deviation_slot: Optional[int] = None,
) -> DeviationReport:
    """Payoff of a single proposer deviating mid-horizon to each (delay, build
    flag) on the grid, while everyone else plays the coordinated profile.

    Under coordinated attesters every deviation earns exactly zero, against a
    baseline of base_reward + mev_rate * slot_length. A block there gets every
    vote or none, so each payoff follows from the proposer and schedule
    columns (``_proposer_arm_payoffs``, one batch for the baseline and every
    arm): no latency is drawn, and each arm's sample holds its one payoff
    ``runs`` times. Grid entries are parsed in order as ``fixed`` strategies.
    """
    if not deviation_grid:
        raise ConfigurationError("deviation grid must not be empty")
    runs = coerce_int("runs", runs)
    if runs < 1:
        raise ConfigurationError("runs must be positive")
    delta_star_us = coerce_int("delta_star_us", delta_star_us)
    base = replace(params, schedule_offset_us=delta_star_us)
    slot_k = _deviation_slot(base.horizon_slots, deviation_slot)
    for delay, phi in deviation_grid:
        if delay == delta_star_us and phi == 1:
            raise ConfigurationError(
                "deviation grid contains the coordinated action "
                f"(delay_us={delta_star_us}, build_on_prev=1); it is not a deviation"
            )

    specs = (strategy_spec("fixed", delay_us=d, build_on_prev=phi) for d, phi in deviation_grid)
    plans = [parse_proposer_strategy(spec, base) for spec in specs]
    payoffs = _proposer_arm_payoffs(base, slot_k, plans)[:, slot_k]
    samples = np.broadcast_to(payoffs[:, None], (len(payoffs), runs))
    descriptors = [f"delay_us={delay},build_on_prev={phi}" for delay, phi in deviation_grid]
    return _deviation_report(delta_star_us, samples[0], list(zip(descriptors, samples[1:])))


def _proposer_arm_payoffs(
    params: ProtocolParams, slot_k: int, plans: Sequence[ProposerPlan]
) -> np.ndarray:
    """Every slot's proposer payoff, ``(arms + 1, horizon)``, in the
    coordinated run (row 0) and where slot ``slot_k`` alone plays ``plans[i]``
    (row ``i + 1``), as each run's trace has it. Coordinated attesters vote
    iff the block conforms, so no latency or seed enters. An arm's columns
    differ from row 0 at slot ``slot_k`` and at the next slot's build flag."""
    coordinated = proposer_pass(SimConfig(params=params))
    release, build = (np.tile(column, (len(plans) + 1, 1)) for column in coordinated)
    release[1:, slot_k] = [params.slot_start_us(slot_k) + plan.delay_us for plan in plans]
    build[1:, slot_k] = [plan.build_on_prev for plan in plans]
    build[:, slot_k + 1] = schedule_builds(release, params)[:, slot_k + 1]
    vote_count = params.attester_count * conforms_to_schedule(release, build, params)[:, :-1]
    return resolve_slots(release, build, vote_count, params)[1]


def check_attester_deviation(
    params: ProtocolParams,
    delta_star_us: int,
    mc_samples: int,
    tau_shift_us: Optional[int] = None,
) -> DeviationReport:
    """Expected payoff of one designated attester under coordinated play versus
    two unilateral deviations: flipping the vote (exactly zero, since the flip
    cannot move the share across the threshold) and releasing the attestation
    ``tau_shift_us`` late (shrinks the freshness window; by default one slot).

    The coordinated-play estimate targets the probability that two exponential
    latency legs fit within one slot.

    Coordinated attesters vote iff the block conforms to the schedule, so the
    runs share the proposer columns, vote counts and canonical flags, and the
    watched attester 0 reads only draw 0 of its inbound and outbound stream in
    each slot. Run 0 is a ``run_simulation`` trace that supplies the
    shared vote counts and canonical flags, ``proposer_pass`` of its config
    the proposer columns, and ``conforms_to_schedule``, the rule the engine
    applies, the watched attester's vote; every run draws one latency per
    stream (``latency_pass``).
    """
    mc_samples = coerce_int("mc_samples", mc_samples)
    if mc_samples < 1000:
        raise ConfigurationError("mc_samples must be at least 1000")
    delta_star_us = coerce_int("delta_star_us", delta_star_us)
    if params.vote_threshold >= 1:
        raise ConfigurationError(
            "a single attester flip can cross a vote_threshold of 1; "
            "the margin invariant is violated"
        )
    shift = params.slot_length_us if tau_shift_us is None else tau_shift_us
    shift = coerce_int("tau_shift_us", shift)
    if shift == 0:
        raise ConfigurationError("a release shift of 0 is the coordinated action, not a deviation")
    if shift < 0:
        raise ConfigurationError("release shifts must be positive")
    if shift > INT64_MAX - params.max_time_us:
        raise ConfigurationError(
            f"a release shift of {shift} us takes attestation times beyond int64; "
            f"at most {INT64_MAX - params.max_time_us} us fits these params"
        )

    base = replace(params, schedule_offset_us=delta_star_us)
    seeds = _run_seeds(base, "attester-deviation", math.ceil(mc_samples / base.horizon_slots))
    watched = 0  # the designated attester: draw 0 of each stream is its latency
    config = SimConfig(params=replace(base, seed=seeds[0]))
    anchor = run_simulation(config)
    release, build = proposer_pass(config)
    vote = conforms_to_schedule(release, build, base)[:-1].astype(np.int64)
    roles = (ROLE_INBOUND, ROLE_OUTBOUND)
    planes = np.concatenate(list(latency_pass(seeds, roles, base.horizon_slots, watched + 1, base)))
    inbound, outbound = planes[..., watched].transpose(1, 0, 2)
    tau = coordinated_times(vote[:, None], release[:-1, None] + inbound.T, base).T
    played, arms = _attester_arms(
        release, build, anchor.vote_count, anchor.canonical,
        vote, tau, inbound, outbound, base, shift,
    )
    return _deviation_report(delta_star_us, played.ravel(), [(d, a.ravel()) for d, a in arms])


def _attester_arms(
    release: np.ndarray,
    build: np.ndarray,
    vote_count: np.ndarray,
    chi: np.ndarray,
    vote: np.ndarray,
    tau: np.ndarray,
    inbound: np.ndarray,
    outbound: np.ndarray,
    params: ProtocolParams,
    shift: int,
) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]]:
    """The watched attester's payoffs as played and under each deviation, as
    ``(runs, horizon)`` arrays: its vote flipped (a vote cast on arrival, an
    abstention at the slot start) and its attestation released ``shift``
    later. ``release`` and ``build`` are the ``(horizon + 1,)`` proposer
    columns, which every run shares; ``vote_count``, ``chi`` (canonical
    flags) and the watched attester's ``vote`` are ``(runs, horizon)`` or one
    ``(horizon,)`` row shared by the runs, and ``tau``, ``inbound`` and
    ``outbound`` are its attestation times and latencies. A flipped vote that
    moves any slot's canonical status is a ``ConfigurationError``."""
    flip = 1 - vote
    chi_flipped = resolve_slots(release, build, vote_count + (flip - vote), params)[0]
    moved = np.argwhere(chi_flipped != chi)
    if moved.size:
        raise ConfigurationError(
            f"slot {moved[0, -1]}: a single flipped vote moved the canonical status; "
            "margin invariant violated"
        )
    chi_next = next_slot_values(chi, 1)
    arrivals = release[:-1, None] + inbound.T
    flip_tau = coordinated_times(np.broadcast_to(flip, inbound.shape).T, arrivals, params).T

    def pay(votes, taus):
        fresh = fresh_attestations(taus, outbound, release[1:])
        return attester_payoff_array(votes, chi, fresh, chi_next)

    shifted = (f"release_shift_us={shift}", pay(vote, tau + shift))
    return pay(vote, tau), [("vote_flip", pay(flip, flip_tau)), shifted]


def best_response_delay(
    params: ProtocolParams,
    delay_grid: Sequence[int],
    runs_per_point: int,
    horizon: int = 5,
) -> ResponseCurve:
    """Monte Carlo response curve for a single proposer delaying its release
    against honest attesters, with honest on-time proposers around it.

    For each delay the deviating slot's payoff and attestation share are
    averaged over independent runs, each computed from that run's inbound
    latencies of slots 0..k alone (``_honest_slot_outcomes``). As the
    committee grows, the argmax converges to ``optimal_delay``.
    """
    delays = _delay_set(delay_grid)
    runs_per_point = coerce_int("runs_per_point", runs_per_point)
    if runs_per_point < 1:
        raise ConfigurationError("runs_per_point must be positive")

    base = replace(params, schedule_offset_us=0, horizon_slots=horizon)
    slot_k = _deviation_slot(base.horizon_slots, None)
    on_time = strategy_spec("greedy_delay", delay_us=0)
    configs = [
        SimConfig(base, on_time, {slot_k: strategy_spec("greedy_delay", delay_us=d)}, HONEST_SPEC)
        for d in delays
    ]

    n_att = params.attester_count
    payoffs, shares = [], []
    for d, config in zip(delays, configs):
        seeds = _run_seeds(base, f"best-response|{d}", runs_per_point)
        run_payoffs, vote_counts = _honest_slot_outcomes(config, slot_k, seeds)
        payoffs.append(run_payoffs)
        shares.append(float(np.mean([count / n_att for count in vote_counts])))
    means, ses = _means_ses(np.array(payoffs))

    # max keeps the first of equal payoffs: ties go to the smaller delay
    best_idx = max(range(len(delays)), key=means.__getitem__)
    return ResponseCurve(
        delays_us=tuple(delays),
        expected_payoffs=tuple(means),
        payoff_std_errors=tuple(ses),
        attestation_shares=tuple(shares),
        argmax_delay_us=delays[best_idx],
    )


def _honest_slot_outcomes(
    config: SimConfig, slot_k: int, seeds: Sequence[int]
) -> tuple[list[float], list[int]]:
    """Slot ``slot_k``'s proposer payoff and vote count in the run of
    ``config``, whose attesters play ``honest_spec``, under each seed: equal
    to ``proposer_payoff[slot_k]`` and ``vote_count[slot_k]`` of
    ``run_simulation`` on ``config`` with that seed.

    An honest vote depends on the release and the inbound latency alone, and
    slot ``slot_k``'s payoff on the canonical status of slots ``0..slot_k``,
    which also reads the build flags of the proposers after them, entries
    ``1..slot_k + 1`` of the proposer columns. So each run draws only the inbound rows of slots
    ``0..slot_k``, and the proposer columns, which draw nothing here, are
    computed once. The runs are drawn together, chunk by chunk
    (``latency_pass``), and resolved together (``resolve_slots``)."""
    p = config.params
    assert config.attester_strategy.name == "honest_spec"
    assert all(plan.signing_delay is None for plan in config.proposer_plan), (
        "a drawn release depends on the seed"
    )
    release, build = proposer_pass(config)
    rows = slot_k + 1
    planes = latency_pass(seeds, (ROLE_INBOUND,), rows, p.attester_count, p)
    counts = np.concatenate(
        [np.count_nonzero(honest_votes(release[:rows], plane[:, 0], p), axis=2) for plane in planes]
    )
    payoffs = resolve_slots(release, build, counts, p)[1][:, slot_k]
    return payoffs.tolist(), counts[:, slot_k].tolist()


def sweep_delta_star(
    params: ProtocolParams, grid: Sequence[int]
) -> tuple[SweepRow, ...]:
    """Coordinated-profile runs across a grid of schedule offsets.

    The proposer payoff column is exactly constant (the spacing between
    canonical blocks is one slot regardless of the offset); the attester column
    is offset-invariant up to Monte Carlo error; every slot is canonical.
    """
    if len(grid) == 0:
        raise ConfigurationError("offset grid must not be empty")
    seeds = _run_seeds(params, "delta-star-sweep", len(grid))
    setups = [replace(params, schedule_offset_us=ds, seed=seed) for ds, seed in zip(grid, seeds)]
    rows = []
    for setup in setups:
        ds = setup.schedule_offset_us
        trace = run_simulation(SimConfig(params=setup))
        payoffs = set(trace.proposer_payoff.tolist())
        if len(payoffs) != 1:
            raise SimulationError(
                f"coordinated-profile payoffs are not constant at offset {ds}: {payoffs}"
            )
        n_samples = params.horizon_slots * params.attester_count
        mean = int(trace.attester_payoff_total.sum()) / n_samples
        se = math.sqrt(mean * (1 - mean) / n_samples) if 0 < mean < 1 else 0.0
        rows.append(
            SweepRow(
                delta_star_us=ds,
                proposer_payoff=payoffs.pop(),
                attester_payoff_mean=mean,
                attester_payoff_se=se,
                all_canonical=int(trace.canonical.all()),
            )
        )
    return tuple(rows)


def next_slot_share_runs(
    params: ProtocolParams, delay_grid: Sequence[int], runs: int, horizon: int
) -> dict[str, np.ndarray]:
    """Next-slot share samples behind the marginal value of time: for each
    delay ``d`` of the grid in ascending order, ``runs`` replicates in which
    every proposer releases ``d`` after its slot start against honest
    attesters.

    Returns the samples as one column per ``output.SHARE_SAMPLES_SCHEMA``
    name, a row per (delay, run, slot) sample in that order.
    """
    delays = _delay_set(delay_grid)
    runs = coerce_int("runs", runs)
    if runs < 1:
        raise ConfigurationError("runs must be positive")
    base = replace(params, schedule_offset_us=0, horizon_slots=horizon)
    configs = [
        SimConfig(base, strategy_spec("greedy_delay", delay_us=d), attester_strategy=HONEST_SPEC)
        for d in delays
    ]
    samples = []
    for d, config in zip(delays, configs):
        run, slot, offset_ms, share = next_slot_share_samples(replicate(config, f"curves|{d}", runs))
        samples.append((np.full(len(run), d, dtype=np.int64), run, slot, offset_ms, share))
    delays, run_index, slots, offsets_ms, shares = (np.concatenate(c) for c in zip(*samples))
    return {
        "delay_us": delays,
        "run": run_index,
        "slot": slots,
        "release_offset_ms": offsets_ms,
        "share": shares,
    }
