"""Mutation catalogue: named faults that the tests must catch.

Each mutant replaces one exact piece of text in one source file with a faulty
version, and names the test files expected to fail on it and, as ``killers``,
the node ids of the tests known to fail first. Run from anywhere::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants

The runner copies the checkout (without ``.git`` and caches) to a temporary
directory and first runs the selected mutants' tests and killers there
unchanged, which must pass. Then, for one mutant at a time, it applies the
replacement, runs ``pytest -x -q`` on that mutant's killers, and restores the
file. Only if every killer passes does it also run the mutant's tests, and it
prints that fallback as a drift warning: the killers no longer catch the
mutant. A mutant is killed when a test fails; one whose tests pass survived.
The exit status is 0 when every mutant was killed and 1 when one survived. An
old text that is missing or not unique, an unknown name or node id, or tests
that fail without any mutant end the run with exit status 2: a change that
moves or rewrites the code a mutant names updates the mutant with it.

This file does not match ``test_*.py``, so a plain ``pytest`` run does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    # node ids of tests that fail on the mutant, run before ``tests``
    killers: tuple[str, ...] = ()


STRATEGIES = "src/timinggames/strategies.py"
ENGINE = "src/timinggames/engine.py"
MODEL = "src/timinggames/model.py"
MARKET = "src/timinggames/market.py"
EQUILIBRIUM = "src/timinggames/equilibrium.py"
DISTRIBUTIONS = "src/timinggames/distributions.py"
OUTPUT = "src/timinggames/output.py"
METRICS = "src/timinggames/metrics.py"
CONFIG = "src/timinggames/config.py"

PROPOSER_TESTS = ("tests/test_strategies.py", "tests/test_engine.py", "tests/test_differential.py")
ENGINE_TESTS = ("tests/test_engine.py", "tests/test_differential.py", "tests/test_model.py")
READER_TESTS = ("tests/test_differential.py", "tests/test_config_cli.py", "tests/test_market.py")
VALIDATE_TESTS = ("tests/test_engine.py",)
EQUILIBRIUM_TESTS = ("tests/test_equilibrium.py", "tests/test_differential.py")
# the staged best response against full-committee runs and one-chunk runs
BEST_RESPONSE_GUARD = (
    "tests/test_differential.py::test_best_response_matches_full_committee_runs",
    "tests/test_differential.py::test_honest_slot_outcomes_match_full_committee_runs",
    "tests/test_differential.py::test_chunked_best_response_draws_each_run_as_alone",
)
# the differential of runs and their per-attester detail against the scalar definitions
SUMMARY_GUARD = ("tests/test_differential.py::test_full_trace_matches_scalar_definitions",)
# the checks that many runs drawn chunk by chunk are the runs drawn at once
CHUNK_GUARDS = (
    "tests/test_differential.py::test_batched_latency_pass_matches_single_seed_passes",
    "tests/test_differential.py::test_chunked_attester_draws_match_one_chunk",
    "tests/test_differential.py::test_chunked_best_response_draws_each_run_as_alone",
    "tests/test_differential.py::test_hash_blocks_of_chunks_match_single_seed_passes",
)
# the rows of a batch against one-seed runs
BATCH_GUARDS = (
    "tests/test_differential.py::test_batch_rows_match_one_seed_runs",
    "tests/test_differential.py::test_laggy_batch_draws_each_seeds_releases",
)

MUTANTS = (
    # the proposer pass and the schedule rule
    Mutant(
        "schedule-builds-strict", STRATEGIES,
        "on_time = release_us[..., :-1] <= params.schedule_time_us(slots)",
        "on_time = release_us[..., :-1] < params.schedule_time_us(slots)",
        PROPOSER_TESTS,
        killers=("tests/test_strategies.py::TestEquilibriumProposer::test_on_schedule_release",),
    ),
    Mutant(
        "schedule-builds-unshifted", STRATEGIES,
        "flags[..., 1:] = on_time",
        "flags[..., :-1] = on_time",
        PROPOSER_TESTS,
        killers=(
            "tests/test_strategies.py::TestEquilibriumProposer::test_late_predecessor_skipped",
        ),
    ),
    Mutant(
        "conformance-ignores-build", STRATEGIES,
        "return on_schedule & (build == schedule_builds(release_us, params))",
        "return on_schedule",
        PROPOSER_TESTS,
        killers=(
            "tests/test_engine.py::TestRunSimulationDeviation::test_build_flip_hurts_predecessor",
        ),
    ),
    Mutant(
        "conformance-ignores-release", STRATEGIES,
        "return on_schedule & (build == schedule_builds(release_us, params))",
        "return build == schedule_builds(release_us, params)",
        PROPOSER_TESTS,
        killers=(
            "tests/test_engine.py::TestRunSimulationDeviation::test_forced_deviation_payoffs",
        ),
    ),
    # the closing proposer: entry horizon of the plan, with the equilibrium plan
    Mutant(
        "closing-plan-default-strategy", ENGINE,
        "closing = parse_proposer_strategy(EQUILIBRIUM, self.params)",
        "closing = default",
        PROPOSER_TESTS,
        killers=(
            "tests/test_strategies.py::TestEquilibriumProposer::test_plan_ends_with_the_closing_proposer",
        ),
    ),
    Mutant(
        "closing-plan-always-builds", ENGINE,
        "closing = parse_proposer_strategy(EQUILIBRIUM, self.params)",
        "closing = ProposerPlan(self.params.schedule_offset_us, 1)",
        PROPOSER_TESTS,
        killers=(
            "tests/test_strategies.py::TestEquilibriumProposer::test_closing_flag_follows_the_last_release",
        ),
    ),
    Mutant(
        "open-build-flag-always-builds", ENGINE,
        "build = np.where(fixed < 0, schedule_builds(release, p), fixed)",
        "build = np.where(fixed < 0, 1, fixed)",
        PROPOSER_TESTS,
        killers=(
            "tests/test_strategies.py::TestEquilibriumProposer::test_late_predecessor_skipped",
        ),
    ),
    Mutant(
        "laggy-next-stream", ENGINE,
        "streams.stream(r * p.horizon_slots + n)",
        "streams.stream(r * p.horizon_slots + n + 1)",
        PROPOSER_TESTS,
        killers=(
            "tests/test_engine.py::TestRunSimulationDeviation::test_proposer_stream_built_only_for_drawing_strategies",
        ),
    ),
    Mutant(
        "laggy-delay-truncated", ENGINE,
        "float(signing[n].sample(streams.stream(r * p.horizon_slots + n))) * 1e3 + 0.5",
        "float(signing[n].sample(streams.stream(r * p.horizon_slots + n))) * 1e3",
        PROPOSER_TESTS,
        killers=("tests/test_strategies.py::TestLaggyProposer::test_half_microsecond_rounds_up",),
    ),
    # observation takes no time: a release at the next slot's start is in time
    Mutant(
        "release-at-next-slot-start-rejected", ENGINE,
        "max(run) <= p.slot_length_us)",
        "max(run) < p.slot_length_us)",
        ("tests/test_engine.py",),
        killers=(
            "tests/test_engine.py::TestRunSimulationEquilibrium::test_all_canonical_constant_payoff",
        ),
    ),
    Mutant(
        "release-check-no-lower-bound", ENGINE,
        "if not (0 <= min(run) and max(run) <= p.slot_length_us):",
        "if not max(run) <= p.slot_length_us:",
        PROPOSER_TESTS,
        killers=(
            "tests/test_engine.py::TestRunSimulationDeviation::test_release_before_slot_start_is_hard_error",
        ),
    ),
    # the attester pass, the attester payoff and the vote threshold
    Mutant(
        "deadline-strict", ENGINE,
        "return inbound_us <= (params.deadline_us(slots) - release_us)[..., None]",
        "return inbound_us < (params.deadline_us(slots) - release_us)[..., None]",
        ENGINE_TESTS,
        killers=(
            "tests/test_engine.py::TestInclusiveThreshold::test_exact_equality_share_is_canonical",
        ),
    ),
    Mutant(
        "coordinated-abstains-at-deadline", ENGINE,
        "starts = params.slot_start_us(np.arange",
        "starts = params.deadline_us(np.arange",
        ENGINE_TESTS,
        killers=(
            "tests/test_engine.py::TestAttesterPlane::test_vector_matches_scalar_equilibrium",
        ),
    ),
    Mutant(
        "honest-attests-after-deadline", ENGINE,
        "np.minimum(inbound_us, deadlines[:, None], out=inbound_us)",
        "np.maximum(inbound_us, deadlines[:, None], out=inbound_us)",
        ENGINE_TESTS,
        killers=("tests/test_engine.py::TestAttesterPlane::test_vector_matches_scalar_honest",),
    ),
    Mutant(
        "fresh-strict", MODEL,
        "return taus_us + outbound_latencies_us <= next_release_us",
        "return taus_us + outbound_latencies_us < next_release_us",
        ENGINE_TESTS,
        killers=("tests/test_differential.py::test_full_trace_matches_scalar_definitions",),
    ),
    Mutant(
        "attester-pay-ignores-next-canonical", MODEL,
        "return (correct & fresh & (chi_next == 1)).astype(np.int64)",
        "return (correct & fresh).astype(np.int64)",
        ENGINE_TESTS,
        killers=(
            "tests/test_engine.py::TestInclusiveThreshold::test_exact_equality_share_is_canonical",
        ),
    ),
    # a run's attester payoff total, derived from its vote and fresh counts
    Mutant(
        "attester-total-ignores-next-canonical", ENGINE,
        "attester_payoff_total=paid * chi_next,",
        "attester_payoff_total=paid,",
        SUMMARY_GUARD,
        killers=("tests/test_differential.py::test_full_trace_matches_scalar_definitions",),
    ),
    Mutant(
        "attester-total-branches-swapped", ENGINE,
        'np.where(chi == 1, fresh_votes, columns["fresh_count"] - fresh_votes)',
        'np.where(chi == 1, columns["fresh_count"] - fresh_votes, fresh_votes)',
        SUMMARY_GUARD,
        killers=("tests/test_differential.py::test_full_trace_matches_scalar_definitions",),
    ),
    Mutant(
        "min-vote-count-plus-one", MODEL,
        "return math.ceil(exact_threshold(vote_threshold) * attester_count)",
        "return math.ceil(exact_threshold(vote_threshold) * attester_count) + 1",
        ENGINE_TESTS,
        killers=(
            "tests/test_engine.py::TestInclusiveThreshold::test_exact_equality_share_is_canonical",
        ),
    ),
    Mutant(
        "min-vote-count-minus-one", MODEL,
        "return math.ceil(exact_threshold(vote_threshold) * attester_count)",
        "return math.ceil(exact_threshold(vote_threshold) * attester_count) - 1",
        ENGINE_TESTS,
        killers=("tests/test_differential.py::test_full_trace_matches_scalar_definitions",),
    ),
    Mutant(
        "min-vote-count-cache-untyped", MODEL,
        "@functools.lru_cache(maxsize=1024, typed=True)",
        "@functools.lru_cache(maxsize=1024)",
        ("tests/test_model.py",),
        killers=(
            "tests/test_model.py::TestProtocolParams::test_memoized_threshold_keeps_float_and_fraction_apart",
        ),
    ),
    # the resolution pass, where every caller decides canonical status and
    # proposer pay: run_simulation, the proposer check, the attester check's
    # margin test and the staged best response
    Mutant(
        "threshold-strict", ENGINE,
        "(vote_count >= params.min_vote_count)",
        "(vote_count > params.min_vote_count)",
        BEST_RESPONSE_GUARD + EQUILIBRIUM_TESTS + ENGINE_TESTS,
        killers=(
            "tests/test_equilibrium.py::TestAttesterDeviation::test_margin_check_fires_when_one_vote_decides",
        ),
    ),
    Mutant(
        "next-build-same-slot", ENGINE,
        "(build[..., 1 : n_slots + 1] == 1)",
        "(build[..., :n_slots] == 1)",
        BEST_RESPONSE_GUARD + ENGINE_TESTS,
        killers=(
            "tests/test_engine.py::TestRunSimulationDeviation::test_forced_deviation_payoffs",
        ),
    ),
    Mutant(
        "proposer-pay-never-advances", ENGINE,
        "np.where(canonical, np.arange(1, n_slots + 1), 0)",
        "np.where(canonical, 0, 0)",
        ENGINE_TESTS,
        killers=(
            "tests/test_engine.py::TestRunSimulationEquilibrium::test_all_canonical_constant_payoff",
        ),
    ),
    Mutant(
        "proposer-pay-since-own-slot", ENGINE,
        "since[..., 1:] = last[..., :-1]",
        "since[...] = last",
        ENGINE_TESTS,
        killers=(
            "tests/test_engine.py::TestRunSimulationEquilibrium::test_all_canonical_constant_payoff",
        ),
    ),
    Mutant(
        "proposer-pay-reads-first-run-releases", ENGINE,
        "np.take_along_axis(times, since, -1)",
        # the shared column's rows are all alike, so only per-run ones tell
        "np.take_along_axis(times[:1] if times.ndim > 1 else times, since, -1)",
        ENGINE_TESTS,
        killers=("tests/test_differential.py::test_resolve_slots_matches_scalar_definitions",),
    ),
    # the stream seeding
    Mutant(
        "seed-type-unchecked", ENGINE,
        "    if not integral:\n",
        "    if False:\n",
        ("tests/test_engine.py",),
        killers=("tests/test_engine.py::TestRngStreams::test_non_integer_seed_rejected",),
    ),
    Mutant(
        "seed-takes-bools", ENGINE,
        "isinstance(value, Integral) and not isinstance(value, bool)",
        "isinstance(value, Integral)",
        ("tests/test_engine.py",),
        killers=("tests/test_engine.py::TestRngStreams::test_non_integer_seed_rejected",),
    ),
    Mutant(
        "seed-takes-negative-numpy-ints", ENGINE,
        "    if negative:\n",
        "    if False:\n",
        ("tests/test_engine.py",),
        killers=("tests/test_engine.py::TestRngStreams::test_negative_seed_rejected",),
    ),
    Mutant(
        "stream-id-cache-never-evicts", ENGINE,
        "    while sum(map(len, _STREAM_IDS.values())) > _MAX_CACHED_IDS:\n"
        "        del _STREAM_IDS[next(iter(_STREAM_IDS))]\n",
        "",
        ("tests/test_engine.py",),
        killers=("tests/test_engine.py::TestRngStreams::test_stream_id_cache_is_bounded",),
    ),
    Mutant(
        "stream-id-cache-not-least-recently-used", ENGINE,
        "ids = _STREAM_IDS.pop((roles, horizon), None)",
        "ids = _STREAM_IDS.get((roles, horizon))",
        ("tests/test_engine.py",),
        killers=("tests/test_engine.py::TestRngStreams::test_stream_id_cache_is_bounded",),
    ),
    Mutant(
        "stream-id-cache-evicts-most-recent", ENGINE,
        "del _STREAM_IDS[next(iter(_STREAM_IDS))]",
        "del _STREAM_IDS[next(reversed(_STREAM_IDS))]",
        ("tests/test_engine.py",),
        killers=("tests/test_engine.py::TestRngStreams::test_stream_id_cache_is_bounded",),
    ),
    Mutant(
        "stream-id-cache-writable", ENGINE,
        "        ids.flags.writeable = False\n",
        "",
        ("tests/test_engine.py",),
        killers=(
            "tests/test_engine.py::TestRngStreams::test_stream_ids_are_one_read_only_array_per_horizon",
        ),
    ),
    Mutant(
        "first-draw-single-multiplier", ENGINE,
        "for f in (_PCG64_MULT**2, _PCG64_MULT**2 + _PCG64_MULT + 1)",
        "for f in (_PCG64_MULT, _PCG64_MULT**2 + _PCG64_MULT + 1)",
        ENGINE_TESTS,
        killers=(
            "tests/test_differential.py::test_attester_deviation_arms_match_scalar_definitions",
        ),
    ),
    Mutant(
        "seed-state-words-swapped", ENGINE,
        'dtype="<u4").view("<u8")',
        'dtype=">u4").view(">u8")',
        ENGINE_TESTS,
        killers=(
            "tests/test_differential.py::test_attester_deviation_arms_match_scalar_definitions",
        ),
    ),
    Mutant(
        "seed-state-one-word-as-two", ENGINE,
        "two_words = seed_hi != 0",
        "two_words = seed_hi >= 0",
        ENGINE_TESTS,
        killers=("tests/test_differential.py::test_bulk_seed_states_match_seed_sequence",),
    ),
    Mutant(
        "seed-state-id-major-rows", ENGINE,
        "pool = pool.reshape(_POOL_SIZE, -1)",
        "pool = pool.transpose(0, 2, 1).reshape(_POOL_SIZE, -1)",
        ENGINE_TESTS,
        killers=("tests/test_engine.py::TestRngStreams::test_numpy_integer_seeds_read_as_ints",),
    ),
    # the latency-free proposer deviation check, whose arms are rows of one
    # batch of proposer columns, and the deviation verdict
    Mutant(
        "proposer-check-ignores-conformance", EQUILIBRIUM,
        "params.attester_count * conforms_to_schedule(release, build, params)",
        "params.attester_count * np.ones_like(build)",
        EQUILIBRIUM_TESTS,
        killers=(
            "tests/test_equilibrium.py::TestProposerDeviation::test_build_flip_alone_is_punished",
        ),
    ),
    Mutant(
        "proposer-arm-keeps-baseline-next-flag", EQUILIBRIUM,
        "    build[:, slot_k + 1] = schedule_builds(release, params)[:, slot_k + 1]\n",
        "",
        EQUILIBRIUM_TESTS,
        killers=(
            "tests/test_differential.py::test_proposer_deviation_check_matches_full_committee_runs",
        ),
    ),
    Mutant(
        "verdict-se-ddof-zero", EQUILIBRIUM,
        "samples.std(axis=1, ddof=1)",
        "samples.std(axis=1, ddof=0)",
        EQUILIBRIUM_TESTS,
        killers=("tests/test_equilibrium.py::test_report_reduction_matches_per_arm_mean_se",),
    ),
    Mutant(
        "verdict-separation-inclusive", EQUILIBRIUM,
        "mean + 2 * se < baseline_mean",
        "mean + 2 * se <= baseline_mean",
        EQUILIBRIUM_TESTS,
        killers=(
            "tests/test_equilibrium.py::TestDeviationVerdict::test_two_se_separation_is_strict",
        ),
    ),
    Mutant(
        "verdict-exact-zero-ignores-baseline", EQUILIBRIUM,
        "(exact_zero and baseline_mean > 0)",
        "exact_zero",
        EQUILIBRIUM_TESTS,
        killers=(
            "tests/test_equilibrium.py::TestDeviationVerdict::test_exact_zero_needs_a_positive_baseline",
        ),
    ),
    # the latency pass, which draws many runs chunk by chunk
    Mutant(
        "latency-pass-drops-partial-chunk", ENGINE,
        "for start in range(0, len(batch), step):",
        "for start in range(0, len(batch) - step + 1, step):",
        CHUNK_GUARDS,
        killers=(
            "tests/test_differential.py::test_batched_latency_pass_matches_single_seed_passes",
        ),
    ),
    # each block of chunks hashes its seed states once; a chunk samples its rows
    Mutant(
        "latency-pass-block-row-offset", ENGINE,
        "rows = streams[start * len(ids) : (start + runs) * len(ids)]",
        "rows = streams[(start + 1) * len(ids) : (start + 1 + runs) * len(ids)]",
        CHUNK_GUARDS,
        killers=(
            "tests/test_differential.py::test_hash_blocks_of_chunks_match_single_seed_passes",
        ),
    ),
    Mutant(
        "latency-pass-one-chunk-blocks", ENGINE,
        "block = step * max(1, _MAX_BATCH_DRAWS // 32 // (len(ids) * step))",
        "block = step",
        CHUNK_GUARDS,
        killers=(
            "tests/test_differential.py::test_hash_blocks_of_chunks_match_single_seed_passes",
            "tests/test_differential.py::test_best_response_seeds_each_delay_chunk_at_once",
        ),
    ),
    # a batch of runs: one proposer pass (per seed where a slot draws), the
    # attester pass chunk by chunk, one resolution and one validation
    Mutant(
        "batch-seeds-unchecked", ENGINE,
        "    if seeds is not None and len(seeds) == 0:\n",
        "    if False:\n",
        ("tests/test_engine.py::TestBatch",),
        killers=("tests/test_engine.py::TestBatch::test_no_seeds_rejected",),
    ),
    Mutant(
        "batch-laggy-reads-first-run-stream", ENGINE,
        "streams.stream(r * p.horizon_slots + n)",
        "streams.stream(n)",
        BATCH_GUARDS,
        killers=("tests/test_differential.py::test_laggy_batch_draws_each_seeds_releases",),
    ),
    Mutant(
        "batch-chunk-reads-first-rows", ENGINE,
        "rows = slice(start, start + len(planes))",
        "rows = slice(0, len(planes))",
        BATCH_GUARDS,
        killers=("tests/test_differential.py::test_laggy_batch_draws_each_seeds_releases",),
    ),
    Mutant(
        "batch-keeps-previous-chunk", ENGINE,
        "        del planes  # freed before the next chunk is drawn\n",
        "",
        ("tests/test_engine.py::TestSummaryRunMemory",),
        killers=("tests/test_engine.py::TestSummaryRunMemory::test_batch_peak_memory",),
    ),
    Mutant(
        "run-fresh-strict", ENGINE,
        "fresh = taus <= release[:, 1:, None]",
        "fresh = taus < release[:, 1:, None]",
        SUMMARY_GUARD,
        killers=("tests/test_differential.py::test_full_trace_matches_scalar_definitions",),
    ),
    # a fresh vote is counted on the fresh plane masked in place by the votes
    Mutant(
        "run-fresh-votes-count-abstentions", ENGINE,
        "    fresh &= votes\n",
        "",
        SUMMARY_GUARD,
        killers=("tests/test_differential.py::test_full_trace_matches_scalar_definitions",),
    ),
    Mutant(
        "resolve-slots-columns-unchecked", ENGINE,
        "    if entries <= n_slots:\n",
        "    if False:\n",
        ("tests/test_engine.py::TestResolveSlotsColumns",),
        killers=("tests/test_engine.py::TestResolveSlotsColumns::test_one_slot_needs_two_entries",),
    ),
    # the staged best response: honest votes on the inbound rows of slots 0..k,
    # the runs of every delay drawn in one pass
    Mutant(
        "best-response-k-rows", EQUILIBRIUM,
        "latency_pass(seeds, (ROLE_INBOUND,), rows, p.attester_count, p)",
        "latency_pass(seeds, (ROLE_INBOUND,), slot_k, p.attester_count, p)",
        BEST_RESPONSE_GUARD,
        killers=("tests/test_differential.py::test_best_response_matches_full_committee_runs",),
    ),
    # one pass over every delay: each delay's proposer rows repeated for its
    # runs, and each chunk dropped before the next is drawn
    Mutant(
        "best-response-release-rows-tiled", EQUILIBRIUM,
        "np.repeat(np.array(column), runs, axis=0)",
        "np.tile(np.array(column), (runs, 1))",
        BEST_RESPONSE_GUARD,
        killers=(
            "tests/test_differential.py::test_honest_slot_outcomes_match_full_committee_runs",
        ),
    ),
    Mutant(
        "best-response-keeps-previous-chunk", EQUILIBRIUM,
        "        del plane, votes  # freed before the next chunk is drawn\n",
        "",
        ("tests/test_equilibrium.py::TestBestResponse",),
        killers=("tests/test_equilibrium.py::TestBestResponse::test_one_pass_peak_memory",),
    ),
    Mutant(
        "best-response-outbound-role", EQUILIBRIUM,
        "latency_pass(seeds, (ROLE_INBOUND,), rows, p.attester_count, p)",
        'latency_pass(seeds, ("outbound-latency",), rows, p.attester_count, p)',
        BEST_RESPONSE_GUARD,
        killers=("tests/test_differential.py::test_best_response_matches_full_committee_runs",),
    ),
    # the staged attester check: attester 0's first draws of every run, and
    # one run 0 for the shared columns
    Mutant(
        "attester-check-roles-swapped", EQUILIBRIUM,
        "inbound, outbound = planes[..., watched].transpose(1, 0, 2)",
        "outbound, inbound = planes[..., watched].transpose(1, 0, 2)",
        EQUILIBRIUM_TESTS,
        killers=(
            "tests/test_differential.py::test_attester_deviation_arms_match_scalar_definitions",
        ),
    ),
    # the integer arguments of the equilibrium routines
    Mutant(
        "deviation-slot-uncoerced", EQUILIBRIUM,
        'coerce_int("deviation_slot", requested)',
        "requested",
        EQUILIBRIUM_TESTS,
        killers=("tests/test_equilibrium.py::test_integer_arguments_are_integers",),
    ),
    Mutant(
        "deviation-grid-points-uncoerced", EQUILIBRIUM,
        '    n_points = coerce_int("n_points", n_points)\n',
        "",
        EQUILIBRIUM_TESTS,
        killers=("tests/test_equilibrium.py::test_integer_arguments_are_integers",),
    ),
    Mutant(
        "deviation-grid-raw-offset", EQUILIBRIUM,
        '    delta_star_us = coerce_int("delta_star_us", delta_star_us)\n    if n_points < 2:',
        "    if n_points < 2:",
        EQUILIBRIUM_TESTS,
        killers=("tests/test_equilibrium.py::test_integer_arguments_are_integers",),
    ),
    Mutant(
        "proposer-check-raw-offset", EQUILIBRIUM,
        '"runs must be positive")\n    delta_star_us = coerce_int("delta_star_us", delta_star_us)\n',
        '"runs must be positive")\n',
        EQUILIBRIUM_TESTS,
        killers=("tests/test_equilibrium.py::test_integer_arguments_are_integers",),
    ),
    Mutant(
        "attester-check-raw-offset", EQUILIBRIUM,
        '1000")\n    delta_star_us = coerce_int("delta_star_us", delta_star_us)\n',
        '1000")\n',
        EQUILIBRIUM_TESTS,
        killers=("tests/test_equilibrium.py::test_integer_arguments_are_integers",),
    ),
    Mutant(
        "best-response-raw-horizon", EQUILIBRIUM,
        "slot_k = _deviation_slot(base.horizon_slots, None)",
        "slot_k = _deviation_slot(horizon, None)",
        EQUILIBRIUM_TESTS,
        killers=("tests/test_equilibrium.py::test_integer_arguments_are_integers",),
    ),
    Mutant(
        "attester-margin-unchecked", EQUILIBRIUM,
        "    if moved.size:\n",
        "    if False:\n",
        EQUILIBRIUM_TESTS,
        killers=(
            "tests/test_equilibrium.py::TestAttesterDeviation::test_margin_check_fires_when_one_vote_decides",
        ),
    ),
    # the trace invariants that SimulationTrace.validate() checks
    Mutant(
        "validate-no-vote-count-floor", MODEL,
        "(vote_count < 0)\n            | (vote_count > n_att)",
        "(vote_count > n_att)",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    Mutant(
        "validate-no-vote-count-ceiling", MODEL,
        "            | (vote_count > n_att)\n",
        "",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    Mutant(
        "validate-no-canonical-check", MODEL,
        "            | (chi != expected_chi)\n",
        "",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    Mutant(
        "validate-no-fresh-vote-check", MODEL,
        "            | (fresh_votes > fresh)\n",
        "",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    Mutant(
        "validate-no-orphan-paid-check", MODEL,
        "            | ((chi == 0) & (pay != 0))\n",
        "",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    Mutant(
        "validate-no-column-shape-check", MODEL,
        "            if getattr(self, name).shape != shape:",
        "            if False:",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    Mutant(
        "validate-no-mev-conservation-check", MODEL,
        "            if not math.isclose(paid_r, p.mev_rate * span_s, rel_tol=1e-9, abs_tol=1e-12):",
        "            if False:",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    Mutant(
        "validate-batch-checks-run-0-only", MODEL,
        "        if faults.any():",
        "        if faults[0].any():",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestBatch::test_every_run_is_validated",),
    ),
    Mutant(
        "validate-batch-shape-of-one-run", MODEL,
        "        lead = () if self.seeds is None else (runs,)",
        "        lead = ()",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestBatch::test_columns_hold_a_row_per_run",),
    ),
    Mutant(
        "validate-no-closing-build-shape-check", MODEL,
        '        needed["closing_build"] = lead\n',
        "",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    Mutant(
        "validate-no-build-flag-check", MODEL,
        "        if not_flags.any():",
        "        if False:",
        VALIDATE_TESTS + ("tests/test_model.py",),
        killers=("tests/test_model.py::TestActions::test_binary_fields_validated",),
    ),
    Mutant(
        "validate-closing-build-ignored", MODEL,
        "builds = np.column_stack((build, self.closing_build.reshape(runs)))",
        "builds = np.column_stack((build, np.ones(runs, dtype=np.int64)))",
        VALIDATE_TESTS,
        killers=("tests/test_engine.py::TestTraceInvariants::test_every_slot_invariant_can_fail",),
    ),
    # the checks that attester_detail makes of the arrays it derives, and the
    # latencies it keeps apart from the attestation times
    Mutant(
        "validate-no-vote-count-sum-check", ENGINE,
        '{"vote_count": votes, "attester_payoff_total"',
        '{"attester_payoff_total"',
        VALIDATE_TESTS,
        killers=(
            "tests/test_engine.py::TestTraceInvariants::test_every_per_attester_sum_can_fail",
        ),
    ),
    Mutant(
        "validate-no-payoff-total-sum-check", ENGINE,
        ', "attester_payoff_total": payoffs}',
        "}",
        VALIDATE_TESTS,
        killers=(
            "tests/test_engine.py::TestTraceInvariants::test_every_per_attester_sum_can_fail",
        ),
    ),
    Mutant(
        "validate-no-vote-before-arrival-check", ENGINE,
        "    if early.any():\n",
        "    if False:\n",
        VALIDATE_TESTS,
        killers=(
            "tests/test_engine.py::TestTraceArrays::test_detail_rejects_vote_before_arrival",
        ),
    ),
    Mutant(
        "full-trace-latencies-overwritten", ENGINE,
        "build[..., :-1], inbound.copy(), p)",
        "build[..., :-1], inbound, p)",
        SUMMARY_GUARD,
        killers=("tests/test_differential.py::test_full_trace_matches_scalar_definitions",),
    ),
    # the closing build flag: entry horizon of each run's build column
    Mutant(
        "closing-build-from-last-slot", ENGINE,
        "        closing_build=build[:, -1],",
        "        closing_build=build[:, -2],",
        BATCH_GUARDS + ("tests/test_engine.py",),
        killers=("tests/test_differential.py::test_closing_build_is_each_runs_entry_horizon",),
    ),
    # input checks
    Mutant(
        "number-finite-check-dropped", MODEL,
        "    if not math.isfinite(number):\n",
        "    if False:\n",
        ("tests/test_config_cli.py", "tests/test_strategies.py"),
        killers=("tests/test_config_cli.py::TestValidation::test_non_finite_number_rejected",),
    ),
    Mutant(
        "params-int-fields-unchecked", MODEL,
        "            object.__setattr__(self, name, coerce_int(name, getattr(self, name)))\n",
        "            pass\n",
        ("tests/test_model.py",),
        killers=(
            "tests/test_model.py::TestProtocolParams::test_integer_fields_rejected_unless_integral",
        ),
    ),
    Mutant(
        "int-fast-path-takes-bools", MODEL,
        "if type(value) is int:",
        "if isinstance(value, int):",
        ("tests/test_model.py", "tests/test_config_cli.py"),
        killers=(
            "tests/test_model.py::TestProtocolParams::test_integer_fields_rejected_unless_integral",
        ),
    ),
    Mutant(
        "latency-plane-uncapped", MODEL,
        "        if plane > MAX_LATENCY_PLANE:\n",
        "        if False:\n",
        ("tests/test_model.py", "tests/test_config_cli.py"),
        killers=("tests/test_model.py::TestProtocolParams::test_latency_plane_capped",),
    ),
    Mutant(
        "number-takes-bools", MODEL,
        "if isinstance(value, bool) or not isinstance(value, (int, float)):",
        "if not isinstance(value, (int, float)):",
        ("tests/test_model.py", "tests/test_config_cli.py"),
        killers=(
            "tests/test_model.py::TestProtocolParams::test_float_fields_rejected_unless_numbers",
        ),
    ),
    Mutant(
        "reward-finite-check-dropped", MODEL,
        "            value = coerce_number(name, getattr(self, name))\n",
        "            value = getattr(self, name)\n",
        ("tests/test_model.py",),
        killers=("tests/test_model.py::TestProtocolParams::test_non_finite_reward_rejected",),
    ),
    Mutant(
        "threshold-type-unchecked", MODEL,
        "if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real):",
        "if False:",
        ("tests/test_model.py",),
        killers=(
            "tests/test_model.py::TestProtocolParams::test_float_fields_rejected_unless_numbers",
        ),
    ),
    Mutant(
        "arrival-profile-unchecked", CONFIG,
        '    elif kind == "profile" and value not in ARRIVAL_PROFILES:\n',
        '    elif kind == "profile" and False:\n',
        ("tests/test_config_cli.py",),
        killers=("tests/test_config_cli.py::TestCliCommands::test_bad_arrival_profile_exits_2",),
    ),
    Mutant(
        "distribution-finite-check-dropped", DISTRIBUTIONS,
        "            if not math.isfinite(number):\n",
        "            if False:\n",
        ("tests/test_strategies.py",),
        killers=(
            "tests/test_strategies.py::TestDistributions::test_constructor_rejects_non_finite_parameter",
        ),
    ),
    Mutant(
        "bid-line-catches-decode-errors-only", MARKET,
        "except ValueError as exc:  # also an integer of too many digits",
        "except json.JSONDecodeError as exc:",
        READER_TESTS,
        killers=("tests/test_config_cli.py::TestBadBidFiles::test_bad_line_at_a_chunk_boundary",),
    ),
    # an mvot run: numbers beyond float64 or int64 are a clean exit 2
    Mutant(
        "mvot-float-errors-unchecked", "src/timinggames/cli.py",
        '@np.errstate(over="raise", invalid="raise")\n',
        "",
        ("tests/test_config_cli.py",),
        killers=("tests/test_config_cli.py::test_mvot_on_any_config_exits_cleanly",),
    ),
    # generate_bid_stream's Python arguments, read with the package rules
    Mutant(
        "bid-noise-uncoerced", MARKET,
        '    noise_sd_eth = coerce_number("noise_sd_eth", noise_sd_eth)\n',
        "",
        ("tests/test_market.py",),
        killers=(
            "tests/test_market.py::TestGenerateBidStream::test_arguments_read_with_the_package_rules",
        ),
    ),
    Mutant(
        "bid-window-uncoerced", MARKET,
        '    for end in arrival_window_ms:\n        coerce_number("arrival_window_ms", end)\n',
        "",
        ("tests/test_market.py",),
        killers=(
            "tests/test_market.py::TestGenerateBidStream::test_window_read_with_the_package_rules",
        ),
    ),
    Mutant(
        "bid-counts-uncoerced", MARKET,
        '    n_slots = coerce_int("n_slots", n_slots)\n',
        "",
        ("tests/test_market.py",),
        killers=(
            "tests/test_market.py::TestGenerateBidStream::test_arguments_read_with_the_package_rules",
        ),
    ),
    Mutant(
        "bid-builders-unbounded", MARKET,
        "if not 1 <= n_builders <= 2**63:",
        "if not 1 <= n_builders:",
        ("tests/test_market.py", "tests/test_config_cli.py"),
        killers=("tests/test_market.py::TestGenerateBidStream::test_parameter_validation",),
    ),
    # generated bids: the size cap, and times that must stay within int64
    Mutant(
        "bid-stream-uncapped", MARKET,
        "    if n > MAX_GENERATED_BIDS:\n",
        "    if False:\n",
        ("tests/test_market.py", "tests/test_config_cli.py"),
        killers=(
            "tests/test_market.py::TestGenerateBidStream::test_oversized_stream_rejected_before_allocation",
        ),
    ),
    Mutant(
        "bid-window-unbounded", MARKET,
        "    if not -MAX_BID_TIME_MS <= lo < hi <= MAX_BID_TIME_MS:\n",
        "    if False:\n",
        ("tests/test_market.py",),
        killers=("tests/test_market.py::TestGenerateBidStream::test_times_beyond_int64_rejected",),
    ),
    Mutant(
        "bid-lag-unbounded", MARKET,
        "        if not lag.max() <= MAX_BID_TIME_MS:  # also inf\n",
        "        if False:\n",
        ("tests/test_market.py",),
        killers=("tests/test_market.py::TestGenerateBidStream::test_times_beyond_int64_rejected",),
    ),
    Mutant(
        "config-file-catches-decode-errors-only", "src/timinggames/config.py",
        "except (OSError, ValueError) as exc:",
        "except (OSError, UnicodeDecodeError) as exc:",
        ("tests/test_config_cli.py",),
        killers=("tests/test_config_cli.py::TestCliCommands::test_unreadable_config_file_exits_2",),
    ),
    # the chunked bid file reader: each check of the fast path, and the
    # bookkeeping that lets the table trust what the chunks recorded
    Mutant(
        "reader-no-brace-check", MARKET,
        '    if text.count("}\\n,{") != len(lines) - 1:\n        return None\n',
        "",
        READER_TESTS,
        killers=("tests/test_differential.py::test_near_plain_chunk_is_read_line_by_line",),
    ),
    Mutant(
        "reader-chunk-decode-error-escapes", MARKET,
        "except (ValueError, RecursionError):  # the line by line read reports these",
        "except RecursionError:",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    Mutant(
        "reader-no-value-count-check", MARKET,
        """if len(rows) != len(lines) or text.count('"') != 2 * len(BID_FIELDS) * len(rows):""",
        """if text.count('"') != 2 * len(BID_FIELDS) * len(rows):""",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    Mutant(
        "reader-no-quote-check", MARKET,
        """if len(rows) != len(lines) or text.count('"') != 2 * len(BID_FIELDS) * len(rows):""",
        "if len(rows) != len(lines):",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    Mutant(
        "reader-no-row-type-check", MARKET,
        "except (KeyError, TypeError):",
        "except KeyError:",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    Mutant(
        "reader-no-field-check", MARKET,
        "except (KeyError, TypeError):",
        "except TypeError:",
        READER_TESTS,
        killers=("tests/test_differential.py::test_near_plain_chunk_is_read_line_by_line",),
    ),
    Mutant(
        "reader-no-value-type-check", MARKET,
        """    if not all(col_types <= {int, float} for col_types in types):
        return None
""",
        "",
        READER_TESTS,
        killers=("tests/test_differential.py::test_near_plain_chunk_is_read_line_by_line",),
    ),
    Mutant(
        "reader-never-fast", MARKET,
        "    return columns, types\n",
        "    return None\n",
        READER_TESTS,
        killers=("tests/test_market.py::TestBidIo::test_written_file_decodes_one_chunk_per_call",),
    ),
    # the typed column segments: which values a segment takes as typed, the
    # fallback that keeps the rest raw, and the chunk lines and joins around them
    Mutant(
        "reader-stale-chunk-types", MARKET,
        "values if types == {plain} else",
        "values if types is not None else",
        READER_TESTS,
        killers=("tests/test_config_cli.py::TestBadBidFiles::test_non_integral_int_field",),
    ),
    Mutant(
        "reader-float-int-chunk-typed", MARKET,
        "values if types == {plain} else",
        "values if plain in (types or ()) else",
        READER_TESTS,
        killers=("tests/test_config_cli.py::TestBadBidFiles::test_non_integral_int_field",),
    ),
    Mutant(
        "reader-chunk-no-overflow-fallback", MARKET,
        "except (ConfigurationError, OverflowError):",
        "except ConfigurationError:",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    Mutant(
        "reader-stale-line-types", MARKET,
        "                rows.append(_field_values(row))\n"
        "            columns.extend(list(zip(*rows)), line_nos)\n",
        "                rows.append(_field_values(row))\n"
        "            columns.extend(list(zip(*rows)), line_nos, ({int},) * 4 + ({float},))\n",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    Mutant(
        "reader-chunk-lines-uncompacted", MARKET,
        "        if line_nos[-1] - line_nos[0] == len(line_nos) - 1:\n"
        "            line_nos = range(line_nos[0], line_nos[-1] + 1)\n",
        "",
        READER_TESTS,
        killers=("tests/test_market.py::TestBidIo::test_read_peak_memory_near_the_table",),
    ),
    Mutant(
        "reader-chunk-lines-shifted", MARKET,
        "line_nos = range(line_nos[0], line_nos[-1] + 1)",
        "line_nos = range(line_nos[0] + 1, line_nos[-1] + 2)",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    Mutant(
        "reader-raw-segment-rows-unshifted", MARKET,
        "{self.path}:{line_nos[len(parsed)]}",
        "{self.where(len(parsed))}",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_csv_reader_matches_per_row_reader",),
    ),
    Mutant(
        "reader-table-keeps-segments", MARKET,
        "            segments.clear()\n",
        "",
        READER_TESTS,
        killers=("tests/test_market.py::TestBidIo::test_read_peak_memory_near_the_table",),
    ),
    Mutant(
        "reader-offsets-assume-contiguous", MARKET,
        "if line_nos[-1] - line_nos[0] == len(line_nos) - 1:",
        "if True:",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    Mutant(
        "reader-int64-line-unchecked", MARKET,
        "if dtype is np.int64 and not -2**63 <= number < 2**63:",
        "if False:",
        READER_TESTS,
        killers=("tests/test_differential.py::test_chunked_bid_reader_matches_per_line_reader",),
    ),
    # tables as columns: the cells of a float column, and the curve's buckets
    Mutant(
        "csv-float-cells-str", OUTPUT,
        "        return list(map(repr, map(float, values)))\n",
        "        return list(map(str, values))\n",
        ("tests/test_config_cli.py",),
        killers=(
            "tests/test_config_cli.py::TestCsvRoundTrip::test_cells_format_each_column_by_its_type",
        ),
    ),
    Mutant(
        "csv-column-lengths-unchecked", OUTPUT,
        "    if len({len(column) for column in cells}) > 1:\n",
        "    if False:\n",
        ("tests/test_config_cli.py",),
        killers=(
            "tests/test_config_cli.py::TestCsvRoundTrip::test_columns_of_unequal_length_rejected",
        ),
    ),
    Mutant(
        "bucket-width-uncoerced", METRICS,
        '    bucket_ms = coerce_number("bucket_ms", bucket_ms)\n',
        "",
        ("tests/test_metrics.py",),
        killers=("tests/test_metrics.py::TestBucketCurve::test_width_read_as_a_finite_number",),
    ),
    Mutant(
        "pearson-non-finite-unchecked", METRICS,
        "    if not (np.isfinite(x).all() and np.isfinite(y).all()):\n",
        "    if False:\n",
        ("tests/test_metrics.py",),
        killers=("tests/test_metrics.py::TestPearson::test_non_finite_input_rejected",),
    ),
    Mutant(
        "bucket-index-rounded", METRICS,
        "index = np.floor(np.asarray(x, dtype=float) / bucket_ms)",
        "index = np.round(np.asarray(x, dtype=float) / bucket_ms)",
        ("tests/test_metrics.py",),
        killers=("tests/test_metrics.py::TestNextSlotShare::test_points_bucketed_by_offset",),
    ),
    # one delay-set rule, every config built before the first draw, and the
    # sweep seeded as run i of its label
    Mutant(
        "curves-grid-as-given", EQUILIBRIUM,
        '    delays = _delay_set(delay_grid)\n    runs = coerce_int("runs", runs)',
        '    delays = [coerce_int("delay_grid", d) for d in delay_grid] or '
        '_delay_set(delay_grid)\n    runs = coerce_int("runs", runs)',
        ("tests/test_equilibrium.py", "tests/test_config_cli.py"),
        killers=(
            "tests/test_equilibrium.py::TestOneDelayGridRule::test_bad_grid_rejected_before_any_draw",
        ),
    ),
    Mutant(
        "best-response-configs-in-draw-loop", EQUILIBRIUM,
        "    configs = [\n"
        '        SimConfig(base, on_time, {slot_k: strategy_spec("greedy_delay", delay_us=d)}, '
        "HONEST_SPEC)\n        for d in delays\n    ]\n",
        "    configs = (\n"
        '        SimConfig(base, on_time, {slot_k: strategy_spec("greedy_delay", delay_us=d)}, '
        "HONEST_SPEC)\n        for d in delays\n    )\n",
        ("tests/test_equilibrium.py",),
        killers=(
            "tests/test_equilibrium.py::TestOneDelayGridRule::test_bad_grid_rejected_before_any_draw",
        ),
    ),
    Mutant(
        "sweep-seeds-shifted", EQUILIBRIUM,
        '_run_seeds(params, "delta-star-sweep", len(grid))',
        '_run_seeds(params, "delta-star-sweep", len(grid) + 1)[1:]',
        ("tests/test_golden.py",),
        killers=("tests/test_golden.py::test_output_bytes_are_pinned",),
    ),
    Mutant(
        "deviation-grid-of-two-divides-by-zero", EQUILIBRIUM,
        "span = max(n_delays - 1, 1)",
        "span = n_delays - 1",
        ("tests/test_equilibrium.py",),
        killers=("tests/test_equilibrium.py::TestProposerDeviation::test_smallest_grids",),
    ),
    # absolute times within int64
    Mutant(
        "params-int64-bound-drops-latency-legs", MODEL,
        "            + 2 * _MAX_LATENCY_MEANS * self.mean_latency_us\n",
        "",
        ("tests/test_model.py",),
        killers=("tests/test_model.py::TestProtocolParams::test_absolute_times_within_int64",),
    ),
    Mutant(
        "release-shift-int64-unchecked", EQUILIBRIUM,
        "    if shift > INT64_MAX - params.max_time_us:\n",
        "    if False:\n",
        ("tests/test_equilibrium.py", "tests/test_config_cli.py"),
        killers=("tests/test_equilibrium.py::test_release_shift_beyond_int64_rejected",),
    ),
    # the attester check's one release shift, read as an integer
    Mutant(
        "release-shift-uncoerced", EQUILIBRIUM,
        '    shift = coerce_int("tau_shift_us", shift)\n',
        "",
        ("tests/test_equilibrium.py",),
        killers=(
            "tests/test_equilibrium.py::TestGridEntriesAreIntegers::test_fraction_or_boolean_rejected",
        ),
    ),
    # the Monte Carlo counts and a proposer override's slot, read as integers
    Mutant(
        "best-response-runs-uncoerced", EQUILIBRIUM,
        '    runs_per_point = coerce_int("runs_per_point", runs_per_point)\n',
        "",
        ("tests/test_equilibrium.py",),
        killers=("tests/test_equilibrium.py::test_monte_carlo_counts_are_integers",),
    ),
    Mutant(
        "override-slot-uncoerced", ENGINE,
        'slots = [coerce_int("proposer override slot", slot) for slot in self.proposer_overrides]',
        "slots = list(self.proposer_overrides)",
        ("tests/test_engine.py",),
        killers=(
            "tests/test_engine.py::TestRunSimulationDeviation::test_override_slot_read_as_integer",
        ),
    ),
    # Monte Carlo work: the per-grid-point sample cap
    Mutant(
        "monte-carlo-samples-uncapped", CONFIG,
        "        if count > MAX_MONTE_CARLO_SAMPLES:\n",
        "        if False:\n",
        ("tests/test_config_cli.py",),
        killers=("tests/test_config_cli.py::TestCliCommands::test_oversized_monte_carlo_exits_2",),
    ),
    # the config tables: a computed default, the grid cap, the threshold's
    # echo, and a distribution key its family does not read
    Mutant(
        "computed-default-overrides-given", CONFIG,
        "        if callable(default) and (value is None or value is default):\n",
        "        if callable(default):\n",
        ("tests/test_config_cli.py",),
        killers=(
            "tests/test_config_cli.py::TestEffectiveConfig::test_computed_default_fills_only_an_unset_option",
        ),
    ),
    Mutant(
        "grid-points-uncapped", CONFIG,
        '        if kind == "ints" and n > MAX_GRID_POINTS:\n',
        "        if False:\n",
        ("tests/test_config_cli.py",),
        killers=("tests/test_config_cli.py::TestCliCommands::test_grid_beyond_the_cap_exits_2",),
    ),
    Mutant(
        "threshold-echo-as-given", CONFIG,
        '= coerce_number("vote_threshold", values["vote_threshold"])',
        '= values["vote_threshold"]',
        ("tests/test_config_cli.py",),
        killers=("tests/test_config_cli.py::TestValidation::test_non_finite_number_rejected",),
    ),
    Mutant(
        "distribution-unknown-keys-accepted", DISTRIBUTIONS,
        "        if unknown:\n",
        "        if False:\n",
        ("tests/test_strategies.py", "tests/test_config_cli.py"),
        killers=(
            "tests/test_strategies.py::TestDistributions::test_key_its_family_does_not_read_rejected",
        ),
    ),
    # values beyond float64: named errors, with no warning
    # a BidTable copies a caller's columns, takes over a reader's or the
    # generator's, and names the int64 bound of an integer column
    Mutant(
        "bid-table-shares-callers-arrays", MARKET,
        "def __post_init__(self, copy: bool = True)",
        "def __post_init__(self, copy: bool = False)",
        ("tests/test_market.py",),
        killers=("tests/test_market.py::TestBidTable::test_constructor_copies_its_input",),
    ),
    Mutant(
        "bid-reader-copies-columns", MARKET,
        "            return BidTable._adopt(*columns)\n",
        "            return BidTable(*columns)\n",
        ("tests/test_market.py",),
        killers=("tests/test_market.py::TestBidIo::test_read_peak_memory_near_the_table",),
    ),
    Mutant(
        "bid-table-int64-bound-unnamed", MARKET,
        'f"bid column {name} must fit in int64, got {big[0]}"',
        'f"bid column {name} must hold integers, got {big[0]}"',
        ("tests/test_market.py",),
        killers=("tests/test_market.py::TestBidTable::test_integers_beyond_int64_named",),
    ),
    Mutant(
        "bid-values-finite-unchecked", MARKET,
        "        if not np.isfinite(value).all():\n",
        "        if False:\n",
        ("tests/test_market.py", "tests/test_config_cli.py"),
        killers=(
            "tests/test_market.py::TestGenerateBidStream::test_values_beyond_float64_rejected",
        ),
    ),
    Mutant(
        "exponential-overflow-warns", DISTRIBUTIONS,
        '            with np.errstate(over="ignore"):\n'
        "                return -self.mean * np.log1p(-u)\n",
        "            return -self.mean * np.log1p(-u)\n",
        ("tests/test_engine.py", "tests/test_market.py"),
        killers=(
            "tests/test_engine.py::TestRunSimulationDeviation::test_laggy_draw_beyond_float64_is_silent",
        ),
    ),
    Mutant(
        "laggy-draw-finite-unchecked", ENGINE,
        "            if not math.isfinite(delay_us):  # NaN too\n",
        "            if False:\n",
        ("tests/test_engine.py",),
        killers=(
            "tests/test_engine.py::TestRunSimulationDeviation::test_infinite_laggy_delay_is_hard_error",
        ),
    ),
)


class CatalogueError(Exception):
    """The catalogue does not fit the checkout, or the tests fail unmutated."""


def run_pytest(checkout: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """Run ``pytest -x -q`` on ``tests`` in ``checkout``; (exit status, the
    first failing test, or the summary line if none failed)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    if proc.returncode in (3, 4, 5):  # internal error, usage error, no tests
        raise CatalogueError(f"pytest {' '.join(tests)} exited {proc.returncode}: {lines[-1]}")
    failed = (line.split(" - ")[0] for line in lines if line.startswith(("FAILED", "ERROR")))
    return proc.returncode, next(failed, lines[-1])


def run(mutants: list[Mutant], checkout: Path) -> list[Mutant]:
    """Run each mutant in ``checkout``; print one line per mutant and return
    the survivors."""
    for mutant in mutants:
        count = (checkout / mutant.file).read_text().count(mutant.old)
        if count != 1:
            raise CatalogueError(f"{mutant.name}: old text found {count} times in {mutant.file}")
    named = {t for mutant in mutants for t in mutant.tests + mutant.killers}
    # a node id inside a named file runs with the file
    needed = tuple(sorted(t for t in named if t.partition("::")[0] not in named - {t}))
    status, summary = run_pytest(checkout, needed)
    if status != 0:
        raise CatalogueError(f"the tests fail without a mutant: {summary}")
    survivors = []
    for mutant in mutants:
        path = checkout / mutant.file
        original = path.read_text()
        path.write_text(original.replace(mutant.old, mutant.new))
        start = time.perf_counter()
        try:
            status = 0
            if mutant.killers:
                status, summary = run_pytest(checkout, mutant.killers)
                if status == 0:
                    print(f"warning: {mutant.name}: drift, every killer passed; "
                          "running its tests", flush=True)
            if status == 0:
                status, summary = run_pytest(checkout, mutant.tests)
        finally:
            path.write_text(original)
        if status == 0:
            survivors.append(mutant)
        verdict = f"survived ({summary})" if status == 0 else f"killed by {summary}"
        print(f"{mutant.name}: {verdict}, {time.perf_counter() - start:.1f} s", flush=True)
    return survivors


def main(argv: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"error: unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [by_name[name] for name in argv] if argv else list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"
        ))
        try:
            survivors = run(mutants, checkout)
        except CatalogueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    killed = len(mutants) - len(survivors)
    print(f"{killed} of {len(mutants)} mutants killed"
          + (f"; survived: {', '.join(m.name for m in survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
