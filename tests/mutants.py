"""Mutation catalogue: named faults that the tests must catch.

Each mutant replaces one exact piece of text in one source file with a faulty
version, and names the test files expected to fail on it. Run from anywhere::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants

The runner copies the checkout (without ``.git`` and caches) to a temporary
directory and first runs the selected mutants' test files there unchanged,
which must pass. Then, for one mutant at a time, it applies the replacement,
runs ``pytest -x -q`` on that mutant's test files, and restores the file. A
mutant whose tests fail is killed; one whose tests pass survived. The exit
status is 0 when every mutant was killed and 1 when one survived. An old text
that is missing or not unique, an unknown name, or tests that fail without any
mutant end the run with exit status 2: a change that moves or rewrites the
code a mutant names updates the mutant with it.

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
# the checks that many runs drawn chunk by chunk are the runs drawn at once
CHUNK_GUARDS = (
    "tests/test_differential.py::test_batched_latency_pass_matches_single_seed_passes",
    "tests/test_differential.py::test_chunked_attester_draws_match_one_chunk",
    "tests/test_differential.py::test_chunked_best_response_draws_each_run_as_alone",
)

MUTANTS = (
    # the proposer pass and the schedule rule
    Mutant(
        "schedule-builds-strict", STRATEGIES,
        "on_time = release_us <= params.schedule_time_us(slots)",
        "on_time = release_us < params.schedule_time_us(slots)",
        PROPOSER_TESTS,
    ),
    Mutant(
        "schedule-builds-unshifted", STRATEGIES,
        "flags[..., 1:] = on_time",
        "flags[..., :-1] = on_time",
        PROPOSER_TESTS,
    ),
    Mutant(
        "conformance-ignores-build", STRATEGIES,
        "return on_schedule & (build == schedule_builds(release_us, params)[..., :-1])",
        "return on_schedule",
        PROPOSER_TESTS,
    ),
    Mutant(
        "conformance-ignores-release", STRATEGIES,
        "return on_schedule & (build == schedule_builds(release_us, params)[..., :-1])",
        "return build == schedule_builds(release_us, params)[..., :-1]",
        PROPOSER_TESTS,
    ),
    Mutant(
        "closing-flag-wrong-slot", ENGINE,
        "return schedule_builds(release_us, params)[..., -1]",
        "return schedule_builds(release_us, params)[..., -2]",
        PROPOSER_TESTS + ("tests/test_equilibrium.py",),
    ),
    Mutant(
        "closing-always-builds", ENGINE,
        "return schedule_builds(release_us, params)[..., -1]",
        "return 1",
        PROPOSER_TESTS,
    ),
    Mutant(
        "open-build-flag-always-builds", ENGINE,
        "build = np.where(fixed < 0, schedule_builds(release, p)[:-1], fixed)",
        "build = np.where(fixed < 0, 1, fixed)",
        PROPOSER_TESTS,
    ),
    Mutant(
        "laggy-next-stream", ENGINE,
        "float(signing[n].sample(streams.stream(n)))",
        "float(signing[n].sample(streams.stream(n + 1)))",
        PROPOSER_TESTS,
    ),
    Mutant(
        "laggy-delay-truncated", ENGINE,
        "float(signing[n].sample(streams.stream(n))) * 1000.0 + 0.5",
        "float(signing[n].sample(streams.stream(n))) * 1000.0",
        PROPOSER_TESTS,
    ),
    Mutant(
        "release-check-no-lower-bound", ENGINE,
        "if not (0 <= min(delays) and max(delays) <= p.slot_length_us):",
        "if not max(delays) <= p.slot_length_us:",
        PROPOSER_TESTS,
    ),
    # the attester pass, the attester payoff and the vote threshold
    Mutant(
        "deadline-strict", ENGINE,
        "return inbound_us <= (params.deadline_us(slots) - release_us)[:, None]",
        "return inbound_us < (params.deadline_us(slots) - release_us)[:, None]",
        ENGINE_TESTS,
    ),
    Mutant(
        "coordinated-abstains-at-deadline", ENGINE,
        "starts = params.slot_start_us(np.arange",
        "starts = params.deadline_us(np.arange",
        ENGINE_TESTS,
    ),
    Mutant(
        "honest-attests-after-deadline", ENGINE,
        "np.minimum(arrivals, deadlines)",
        "np.maximum(arrivals, deadlines)",
        ENGINE_TESTS,
    ),
    Mutant(
        "fresh-strict", MODEL,
        "return taus_us + outbound_latencies_us <= next_release_us",
        "return taus_us + outbound_latencies_us < next_release_us",
        ENGINE_TESTS,
    ),
    Mutant(
        "attester-pay-ignores-next-canonical", MODEL,
        "return (correct & fresh & (chi_next == 1)).astype(np.int64)",
        "return (correct & fresh).astype(np.int64)",
        ENGINE_TESTS,
    ),
    Mutant(
        "min-vote-count-plus-one", MODEL,
        "return math.ceil(exact_threshold(vote_threshold) * attester_count)",
        "return math.ceil(exact_threshold(vote_threshold) * attester_count) + 1",
        ENGINE_TESTS,
    ),
    Mutant(
        "min-vote-count-minus-one", MODEL,
        "return math.ceil(exact_threshold(vote_threshold) * attester_count)",
        "return math.ceil(exact_threshold(vote_threshold) * attester_count) - 1",
        ENGINE_TESTS,
    ),
    Mutant(
        "min-vote-count-cache-untyped", MODEL,
        "@functools.lru_cache(maxsize=1024, typed=True)",
        "@functools.lru_cache(maxsize=1024)",
        ("tests/test_model.py",),
    ),
    # the resolution pass, where every caller decides canonical status and
    # proposer pay: run_simulation, the proposer check, the attester check's
    # margin test and the staged best response
    Mutant(
        "threshold-strict", ENGINE,
        "(vote_count >= params.min_vote_count)",
        "(vote_count > params.min_vote_count)",
        BEST_RESPONSE_GUARD + EQUILIBRIUM_TESTS + ENGINE_TESTS,
    ),
    Mutant(
        "next-build-same-slot", ENGINE,
        "(next_build[..., :n_slots] == 1)",
        "(build[..., :n_slots] == 1)",
        BEST_RESPONSE_GUARD + ENGINE_TESTS,
    ),
    Mutant(
        "proposer-pay-never-advances", ENGINE,
        "np.where(canonical, np.arange(1, n_slots + 1), 0)",
        "np.where(canonical, 0, 0)",
        ENGINE_TESTS,
    ),
    Mutant(
        "proposer-pay-since-own-slot", ENGINE,
        "since[..., 1:] = last[..., :-1]",
        "since[...] = last",
        ENGINE_TESTS,
    ),
    Mutant(
        "proposer-pay-reads-first-run-releases", ENGINE,
        "np.take_along_axis(times, since, -1)",
        # the shared column's rows are all alike, so only per-run ones tell
        "np.take_along_axis(times[:1] if times.ndim > 1 else times, since, -1)",
        ENGINE_TESTS,
    ),
    # the stream seeding
    Mutant(
        "seed-type-unchecked", ENGINE,
        "    if not integral:\n",
        "    if False:\n",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "seed-takes-bools", ENGINE,
        "isinstance(value, Integral) and not isinstance(value, bool)",
        "isinstance(value, Integral)",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "seed-takes-negative-numpy-ints", ENGINE,
        "    if negative:\n",
        "    if False:\n",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "first-draw-single-multiplier", ENGINE,
        "for f in (_PCG64_MULT**2, _PCG64_MULT**2 + _PCG64_MULT + 1)",
        "for f in (_PCG64_MULT, _PCG64_MULT**2 + _PCG64_MULT + 1)",
        ENGINE_TESTS,
    ),
    Mutant(
        "seed-state-words-swapped", ENGINE,
        'dtype="<u4").view("<u8")',
        'dtype=">u4").view(">u8")',
        ENGINE_TESTS,
    ),
    Mutant(
        "seed-state-one-word-as-two", ENGINE,
        "two_words = seed_hi != 0",
        "two_words = seed_hi >= 0",
        ENGINE_TESTS,
    ),
    Mutant(
        "seed-state-id-major-rows", ENGINE,
        "pool = pool.reshape(_POOL_SIZE, -1)",
        "pool = pool.transpose(0, 2, 1).reshape(_POOL_SIZE, -1)",
        ENGINE_TESTS,
    ),
    # the latency-free proposer deviation check, whose arms are rows of one
    # batch of proposer columns, and the deviation verdict
    Mutant(
        "proposer-check-ignores-conformance", EQUILIBRIUM,
        "params.attester_count * conforms_to_schedule(release, build, params)",
        "params.attester_count * np.ones_like(build)",
        EQUILIBRIUM_TESTS,
    ),
    Mutant(
        "proposer-arm-keeps-baseline-next-flag", EQUILIBRIUM,
        "    build[:, slot_k + 1] = schedule_builds(release, params)[:, slot_k + 1]\n",
        "",
        EQUILIBRIUM_TESTS,
    ),
    Mutant(
        "verdict-se-ddof-zero", EQUILIBRIUM,
        "samples.std(axis=1, ddof=1)",
        "samples.std(axis=1, ddof=0)",
        EQUILIBRIUM_TESTS,
    ),
    Mutant(
        "verdict-separation-inclusive", EQUILIBRIUM,
        "mean + 2 * se < baseline_mean",
        "mean + 2 * se <= baseline_mean",
        EQUILIBRIUM_TESTS,
    ),
    Mutant(
        "verdict-exact-zero-ignores-baseline", EQUILIBRIUM,
        "(exact_zero and baseline_mean > 0)",
        "exact_zero",
        EQUILIBRIUM_TESTS,
    ),
    # the latency pass, which draws many runs chunk by chunk
    Mutant(
        "latency-pass-drops-partial-chunk", ENGINE,
        "for start in range(0, len(seeds), step):",
        "for start in range(0, len(seeds) - step + 1, step):",
        CHUNK_GUARDS,
    ),
    # the staged best response: honest votes on the inbound rows of slots 0..k,
    # every run of a delay drawn together
    Mutant(
        "best-response-k-rows", EQUILIBRIUM,
        "latency_pass(seeds, (ROLE_INBOUND,), rows, p.attester_count, p)",
        "latency_pass(seeds, (ROLE_INBOUND,), slot_k, p.attester_count, p)",
        BEST_RESPONSE_GUARD,
    ),
    Mutant(
        "best-response-outbound-role", EQUILIBRIUM,
        "latency_pass(seeds, (ROLE_INBOUND,), rows, p.attester_count, p)",
        'latency_pass(seeds, ("outbound-latency",), rows, p.attester_count, p)',
        BEST_RESPONSE_GUARD,
    ),
    # the staged attester check: attester 0's first draws of every run,
    # anchored by the full run 0
    Mutant(
        "attester-check-roles-swapped", EQUILIBRIUM,
        "inbound, outbound = planes[..., watched].transpose(1, 0, 2)",
        "outbound, inbound = planes[..., watched].transpose(1, 0, 2)",
        EQUILIBRIUM_TESTS,
    ),
    Mutant(
        "attester-margin-unchecked", EQUILIBRIUM,
        "    if moved.size:\n",
        "    if False:\n",
        EQUILIBRIUM_TESTS,
    ),
    Mutant(
        "attester-anchor-unchecked", EQUILIBRIUM,
        "if not np.array_equal(staged[0], column[:, watched]):",
        "if False:",
        EQUILIBRIUM_TESTS,
    ),
    # the trace invariants that SimulationTrace.validate() checks
    Mutant(
        "validate-no-vote-count-floor", MODEL,
        "(vote_count < 0)\n            | (vote_count > n_att)",
        "(vote_count > n_att)",
        VALIDATE_TESTS,
    ),
    Mutant(
        "validate-no-vote-count-ceiling", MODEL,
        "            | (vote_count > n_att)\n",
        "",
        VALIDATE_TESTS,
    ),
    Mutant(
        "validate-no-canonical-check", MODEL,
        "            | (self.canonical != expected_chi)\n",
        "",
        VALIDATE_TESTS,
    ),
    Mutant(
        "validate-no-fresh-vote-check", MODEL,
        "            | (self.fresh_vote_count > self.fresh_count)\n",
        "",
        VALIDATE_TESTS,
    ),
    Mutant(
        "validate-no-orphan-paid-check", MODEL,
        "            | ((self.canonical == 0) & (self.proposer_payoff != 0))\n",
        "",
        VALIDATE_TESTS,
    ),
    Mutant(
        "validate-no-column-shape-check", MODEL,
        "            if shape != (horizon,):",
        "            if False:",
        VALIDATE_TESTS,
    ),
    Mutant(
        "validate-no-attester-array-check", MODEL,
        "if shapes not in ({None}, {(horizon, n_att)}):",
        "if False:",
        VALIDATE_TESTS,
    ),
    Mutant(
        "validate-no-vote-before-arrival-check", MODEL,
        "            if early.any():",
        "            if False:",
        VALIDATE_TESTS,
    ),
    Mutant(
        "validate-no-mev-conservation-check", MODEL,
        "        if canonical_slots.size:",
        "        if False:",
        VALIDATE_TESTS,
    ),
    # input checks
    Mutant(
        "number-finite-check-dropped", MODEL,
        "    if not math.isfinite(number):\n",
        "    if False:\n",
        ("tests/test_config_cli.py", "tests/test_strategies.py"),
    ),
    Mutant(
        "params-int-fields-unchecked", MODEL,
        "            object.__setattr__(self, name, coerce_int(name, getattr(self, name)))\n",
        "            pass\n",
        ("tests/test_model.py",),
    ),
    Mutant(
        "int-fast-path-takes-bools", MODEL,
        "if type(value) is int:",
        "if isinstance(value, int):",
        ("tests/test_model.py", "tests/test_config_cli.py"),
    ),
    Mutant(
        "latency-plane-uncapped", MODEL,
        "        if plane > MAX_LATENCY_PLANE:\n",
        "        if False:\n",
        ("tests/test_model.py", "tests/test_config_cli.py"),
    ),
    Mutant(
        "number-takes-bools", MODEL,
        "if isinstance(value, bool) or not isinstance(value, (int, float)):",
        "if not isinstance(value, (int, float)):",
        ("tests/test_model.py", "tests/test_config_cli.py"),
    ),
    Mutant(
        "reward-finite-check-dropped", MODEL,
        "            value = coerce_number(name, getattr(self, name))\n",
        "            value = getattr(self, name)\n",
        ("tests/test_model.py",),
    ),
    Mutant(
        "threshold-type-unchecked", MODEL,
        "if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real):",
        "if False:",
        ("tests/test_model.py",),
    ),
    Mutant(
        "arrival-profile-unchecked", CONFIG,
        '    elif kind == "profile" and value not in ARRIVAL_PROFILES:\n',
        '    elif kind == "profile" and False:\n',
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "distribution-finite-check-dropped", DISTRIBUTIONS,
        "            if not math.isfinite(number):\n",
        "            if False:\n",
        ("tests/test_strategies.py",),
    ),
    Mutant(
        "bid-line-catches-decode-errors-only", MARKET,
        "except ValueError as exc:  # also an integer of too many digits",
        "except json.JSONDecodeError as exc:",
        READER_TESTS,
    ),
    # an mvot run: numbers beyond float64 or int64 are a clean exit 2
    Mutant(
        "mvot-float-errors-unchecked", "src/timinggames/cli.py",
        '@np.errstate(over="raise", invalid="raise")\n',
        "",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "bid-builders-unbounded", MARKET,
        "if not 1 <= n_builders <= 2**63:",
        "if not 1 <= n_builders:",
        ("tests/test_market.py", "tests/test_config_cli.py"),
    ),
    # generated bids: the size cap, and times that must stay within int64
    Mutant(
        "bid-stream-uncapped", MARKET,
        "    if n > MAX_GENERATED_BIDS:\n",
        "    if False:\n",
        ("tests/test_market.py", "tests/test_config_cli.py"),
    ),
    Mutant(
        "bid-window-unbounded", MARKET,
        "    if not -MAX_BID_TIME_MS <= lo < hi <= MAX_BID_TIME_MS:\n",
        "    if False:\n",
        ("tests/test_market.py",),
    ),
    Mutant(
        "bid-lag-unbounded", MARKET,
        "        if not lag.max() <= MAX_BID_TIME_MS:  # also inf\n",
        "        if False:\n",
        ("tests/test_market.py",),
    ),
    Mutant(
        "config-file-catches-decode-errors-only", "src/timinggames/config.py",
        "except (OSError, ValueError) as exc:",
        "except (OSError, UnicodeDecodeError) as exc:",
        ("tests/test_config_cli.py",),
    ),
    # the chunked bid file reader: each check of the fast path, and the
    # bookkeeping that lets the table trust what the chunks recorded
    Mutant(
        "reader-no-brace-check", MARKET,
        '    if text.count("}\\n,{") != len(lines) - 1:\n        return None\n',
        "",
        READER_TESTS,
    ),
    Mutant(
        "reader-chunk-decode-error-escapes", MARKET,
        "except (ValueError, RecursionError):  # the line by line read reports these",
        "except RecursionError:",
        READER_TESTS,
    ),
    Mutant(
        "reader-no-value-count-check", MARKET,
        """if len(rows) != len(lines) or text.count('"') != 2 * len(BID_FIELDS) * len(rows):""",
        """if text.count('"') != 2 * len(BID_FIELDS) * len(rows):""",
        READER_TESTS,
    ),
    Mutant(
        "reader-no-quote-check", MARKET,
        """if len(rows) != len(lines) or text.count('"') != 2 * len(BID_FIELDS) * len(rows):""",
        "if len(rows) != len(lines):",
        READER_TESTS,
    ),
    Mutant(
        "reader-no-row-type-check", MARKET,
        "except (KeyError, TypeError):",
        "except KeyError:",
        READER_TESTS,
    ),
    Mutant(
        "reader-no-field-check", MARKET,
        "except (KeyError, TypeError):",
        "except TypeError:",
        READER_TESTS,
    ),
    Mutant(
        "reader-no-value-type-check", MARKET,
        """    if not all(col_types <= {int, float} for col_types in types):
        return None
""",
        "",
        READER_TESTS,
    ),
    Mutant(
        "reader-never-fast", MARKET,
        "    return columns, types\n",
        "    return None\n",
        READER_TESTS,
    ),
    # the typed column segments: which values a segment takes as typed, the
    # fallback that keeps the rest raw, and the chunk lines and joins around them
    Mutant(
        "reader-stale-chunk-types", MARKET,
        "values if types == {plain} else",
        "values if types is not None else",
        READER_TESTS,
    ),
    Mutant(
        "reader-float-int-chunk-typed", MARKET,
        "values if types == {plain} else",
        "values if plain in (types or ()) else",
        READER_TESTS,
    ),
    Mutant(
        "reader-chunk-no-overflow-fallback", MARKET,
        "except (ConfigurationError, OverflowError):",
        "except ConfigurationError:",
        READER_TESTS,
    ),
    Mutant(
        "reader-stale-line-types", MARKET,
        "                rows.append(_field_values(row))\n"
        "            columns.extend(list(zip(*rows)), line_nos)\n",
        "                rows.append(_field_values(row))\n"
        "            columns.extend(list(zip(*rows)), line_nos, ({int},) * 4 + ({float},))\n",
        READER_TESTS,
    ),
    Mutant(
        "reader-chunk-lines-uncompacted", MARKET,
        "        if line_nos[-1] - line_nos[0] == len(line_nos) - 1:\n"
        "            line_nos = range(line_nos[0], line_nos[-1] + 1)\n",
        "",
        READER_TESTS,
    ),
    Mutant(
        "reader-chunk-lines-shifted", MARKET,
        "line_nos = range(line_nos[0], line_nos[-1] + 1)",
        "line_nos = range(line_nos[0] + 1, line_nos[-1] + 2)",
        READER_TESTS,
    ),
    Mutant(
        "reader-raw-segment-rows-unshifted", MARKET,
        "{self.path}:{line_nos[len(parsed)]}",
        "{self.where(len(parsed))}",
        READER_TESTS,
    ),
    Mutant(
        "reader-table-keeps-segments", MARKET,
        "            segments.clear()\n",
        "",
        READER_TESTS,
    ),
    Mutant(
        "reader-offsets-assume-contiguous", MARKET,
        "if line_nos[-1] - line_nos[0] == len(line_nos) - 1:",
        "if True:",
        READER_TESTS,
    ),
    # tables as columns: the cells of a float column, and the curve's buckets
    Mutant(
        "csv-float-cells-str", OUTPUT,
        "        return list(map(repr, map(float, values)))\n",
        "        return list(map(str, values))\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "csv-column-lengths-unchecked", OUTPUT,
        "    if len({len(column) for column in cells}) > 1:\n",
        "    if False:\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "bucket-index-rounded", METRICS,
        "index = np.floor(np.asarray(x, dtype=float) / bucket_ms)",
        "index = np.round(np.asarray(x, dtype=float) / bucket_ms)",
        ("tests/test_metrics.py",),
    ),
    Mutant(
        "deviation-grid-of-two-divides-by-zero", EQUILIBRIUM,
        "span = max(n_delays - 1, 1)",
        "span = n_delays - 1",
        ("tests/test_equilibrium.py",),
    ),
    # absolute times within int64
    Mutant(
        "params-int64-bound-drops-latency-legs", MODEL,
        "            + 2 * _MAX_LATENCY_MEANS * self.mean_latency_us\n",
        "",
        ("tests/test_model.py",),
    ),
    Mutant(
        "release-shift-int64-unchecked", EQUILIBRIUM,
        "        if shift > INT64_MAX - params.max_time_us:\n",
        "        if False:\n",
        ("tests/test_equilibrium.py", "tests/test_config_cli.py"),
    ),
    # Monte Carlo work: the per-grid-point sample cap
    Mutant(
        "monte-carlo-samples-uncapped", CONFIG,
        "        if count > MAX_MONTE_CARLO_SAMPLES:\n",
        "        if False:\n",
        ("tests/test_config_cli.py",),
    ),
    # the config tables: a computed default, the grid cap, the threshold's
    # echo, and a distribution key its family does not read
    Mutant(
        "computed-default-overrides-given", CONFIG,
        "        if callable(default) and (value is None or value is default):\n",
        "        if callable(default):\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "grid-points-uncapped", CONFIG,
        '        if kind == "ints" and n > MAX_GRID_POINTS:\n',
        "        if False:\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "threshold-echo-as-given", CONFIG,
        '= coerce_number("vote_threshold", values["vote_threshold"])',
        '= values["vote_threshold"]',
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "distribution-unknown-keys-accepted", DISTRIBUTIONS,
        "        if unknown:\n",
        "        if False:\n",
        ("tests/test_strategies.py", "tests/test_config_cli.py"),
    ),
    # values beyond float64: named errors, with no warning
    Mutant(
        "bid-values-finite-unchecked", MARKET,
        "        if not np.isfinite(value).all():\n",
        "        if False:\n",
        ("tests/test_market.py", "tests/test_config_cli.py"),
    ),
    Mutant(
        "exponential-overflow-warns", DISTRIBUTIONS,
        '            with np.errstate(over="ignore"):\n'
        "                return -self.mean * np.log1p(-u)\n",
        "            return -self.mean * np.log1p(-u)\n",
        ("tests/test_engine.py", "tests/test_market.py"),
    ),
    Mutant(
        "laggy-draw-finite-unchecked", ENGINE,
        "            if not math.isfinite(delay_us):  # NaN too\n",
        "            if False:\n",
        ("tests/test_engine.py",),
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
    needed = tuple(sorted({t for mutant in mutants for t in mutant.tests}))
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
