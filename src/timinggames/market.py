"""Synthetic block-auction market: builder bid streams with a planted marginal
value of time, and the fixed-effects estimator that recovers the planted slope.

Bid timestamps are integer milliseconds relative to the slot boundary
(negative means the previous slot). The regression estimates the value of one
extra second of delay by demeaning bid values and timestamps within each slot
(removing per-slot value baselines exactly) before ordinary least squares.

A bid stream is a ``BidTable``: five read-only numpy columns in ``BID_FIELDS``
order (``table.received_at_ms`` is an int64 array, ``table.value_eth`` a
float64 one). ``len(table)`` counts bids. The estimators and writers take a
table.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from itertools import islice
from numbers import Integral
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .distributions import LatencyDistribution
from .model import ConfigurationError, coerce_int, coerce_number

BID_FIELDS = ("slot", "builder_id", "received_at_ms", "eligible_at_ms", "value_eth")
ARRIVAL_PROFILES = ("uniform", "triangular")

#: Rows converted to Python scalars at a time when writing a table, which
#: bounds the memory held by per-row Python objects.
_CHUNK_ROWS = 4096

#: Lines of a JSONL file, or non-empty rows of a CSV file, that a reader holds
#: as Python values at a time: one chunk, which becomes one segment per column.
#: At 128, a process that read an 80k-bid file over and over peaked at
#: 46.1-48.0 MB RSS (median 47.6 MB, ten runs), against 52.9-54.1 MB (median
#: 53.2 MB) when every value stayed a Python object until the end of the read.
_READ_CHUNK_LINES = 128

#: The most bids (n_slots x bids_per_slot) one ``generate_bid_stream`` call may draw.
MAX_GENERATED_BIDS = 1 << 24
#: The largest arrival time or validation lag, in ms either side of zero, that
#: the generator draws: float64 holds it exactly and the sum of two fits int64.
MAX_BID_TIME_MS = 2**53


class InvalidBidRow(ConfigurationError):
    """A ``BidTable`` row breaks a bid invariant; ``row`` is its 0-based index."""

    def __init__(self, row: int, reason: str) -> None:
        super().__init__(f"bid row {row}: {reason}")
        self.row = row
        self.reason = reason


@dataclass(frozen=True, eq=False)
class BidTable:
    """A bid stream as five equal-length, read-only 1-D columns in
    ``BID_FIELDS`` order: int64 ``slot``, ``builder_id``, ``received_at_ms``
    and ``eligible_at_ms``, and float64 ``value_eth``.

    The constructor copies each column (any 1-D array-like of the right kind;
    an integer column's values must fit in int64) and checks every row at
    once: a bid is never eligible before it is received, and its value is
    finite and non-negative. Tables compare equal when all their columns do.
    """

    slot: np.ndarray
    builder_id: np.ndarray
    received_at_ms: np.ndarray
    eligible_at_ms: np.ndarray
    value_eth: np.ndarray

    @classmethod
    def _adopt(cls, *columns: np.ndarray) -> BidTable:
        """The constructor's checks without its copy, for fresh columns no one else holds."""
        table = cls.__new__(cls)
        table.__dict__.update(zip(BID_FIELDS, columns))
        table.__post_init__(copy=False)
        return table

    def __post_init__(self, copy: bool = True) -> None:
        for name in BID_FIELDS:
            dtype = np.float64 if name == "value_eth" else np.int64
            col = np.array(getattr(self, name)) if copy else np.asarray(getattr(self, name))
            if col.ndim != 1:
                raise ConfigurationError(f"bid column {name} must be one-dimensional")
            if col.size and not np.can_cast(col.dtype, dtype, casting="safe"):
                # an integer column must fit in int64: 2**63 makes a uint64 column
                values = col.tolist()
                if dtype is np.float64 or not all(isinstance(v, Integral) for v in values):
                    kind = "numbers" if name == "value_eth" else "integers"
                    raise ConfigurationError(f"bid column {name} must hold {kind}, got {col.dtype}")
                big = [v for v in values if not -2**63 <= v < 2**63]
                if big:
                    raise ConfigurationError(f"bid column {name} must fit in int64, got {big[0]}")
            col = col.astype(dtype, copy=False)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if len({len(col) for col in self.columns()}) != 1:
            raise ConfigurationError("bid columns must all have the same length")
        late = np.flatnonzero(self.eligible_at_ms < self.received_at_ms)
        if late.size:
            raise InvalidBidRow(int(late[0]), "a bid cannot be eligible before it is received")
        values = self.value_eth
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
        if bad.size:
            row = int(bad[0])
            raise InvalidBidRow(
                row, f"bid value must be finite and non-negative, got {float(values[row])!r}"
            )

    def columns(self) -> tuple[np.ndarray, ...]:
        """The five columns in ``BID_FIELDS`` order."""
        return (self.slot, self.builder_id, self.received_at_ms, self.eligible_at_ms,
                self.value_eth)

    def __len__(self) -> int:
        return len(self.slot)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BidTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))


def _row_chunks(table: BidTable) -> Iterator[Iterator[tuple]]:
    """The table's rows as tuples of Python scalars, ``_CHUNK_ROWS`` at a time."""
    for start in range(0, len(table), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        yield zip(*(col[start:stop].tolist() for col in table.columns()))


def generate_bid_stream(
    n_slots: int,
    bids_per_slot: int = 800,
    mu_eth_per_s: float = 0.0065,
    slot_effect_dist: LatencyDistribution | None = None,
    noise_sd_eth: float = 0.0,
    arrival_window_ms: tuple[int, int] = (-4000, 1000),
    rng: Union[int, np.random.Generator] = 0,
    validation_latency: LatencyDistribution | None = None,
    arrival_profile: str = "uniform",
    n_builders: int = 32,
) -> BidTable:
    """Generate a bid stream with a planted marginal value of time.

    Each bid's value is the slot's baseline (one draw of ``slot_effect_dist``
    per slot, in ETH) plus ``mu_eth_per_s`` times the arrival time in seconds
    plus Gaussian noise. Arrivals are uniform over the window by default, or a
    triangular ramp peaking at the window end. Eligibility lags arrival by a
    relay validation latency sample. Values are floored at zero; defaults keep
    the floor inactive so the planted slope is recovered exactly by the
    fixed-effects estimator in the noiseless case. The counts are read with
    ``coerce_int``, the slope, the noise and the window's two ends with
    ``coerce_number``. A value beyond float64 is a ``ConfigurationError`` that
    names the parameters behind it, with no warning.
    """
    n_slots = coerce_int("n_slots", n_slots)
    bids_per_slot = coerce_int("bids_per_slot", bids_per_slot)
    n_builders = coerce_int("n_builders", n_builders)
    mu_eth_per_s = coerce_number("mu_eth_per_s", mu_eth_per_s)
    noise_sd_eth = coerce_number("noise_sd_eth", noise_sd_eth)
    if n_slots < 1:
        raise ConfigurationError("n_slots must be positive")
    if bids_per_slot < 1:
        raise ConfigurationError("bids_per_slot must be positive")
    n = n_slots * bids_per_slot
    if n > MAX_GENERATED_BIDS:
        raise ConfigurationError(
            f"n_slots x bids_per_slot = {n} bids exceeds the cap of {MAX_GENERATED_BIDS}"
        )
    if not isinstance(arrival_window_ms, Sequence) or len(arrival_window_ms) != 2:
        raise ConfigurationError(f"arrival_window_ms needs two numbers, got {arrival_window_ms!r}")
    lo, hi = arrival_window_ms
    for end in arrival_window_ms:
        coerce_number("arrival_window_ms", end)
    if lo >= hi:
        raise ConfigurationError("arrival window must satisfy lo < hi")
    if not -MAX_BID_TIME_MS <= lo < hi <= MAX_BID_TIME_MS:
        raise ConfigurationError(f"arrival_window_ms must lie within [-2**53, 2**53], got {lo, hi}")
    if noise_sd_eth < 0:
        raise ConfigurationError("noise_sd_eth must be non-negative")
    if arrival_profile not in ARRIVAL_PROFILES:
        raise ConfigurationError(
            f"arrival_profile must be one of {ARRIVAL_PROFILES}, got {arrival_profile!r}"
        )
    if not 1 <= n_builders <= 2**63:  # builder ids are int64
        raise ConfigurationError(f"n_builders must lie within [1, 2**63], got {n_builders}")
    baseline_dist = slot_effect_dist or LatencyDistribution.degenerate(0.1)
    validation = validation_latency or LatencyDistribution.exponential(100.0)

    gen = np.random.default_rng(rng)
    builder_col = np.empty(n, dtype=np.int64)
    received_col = np.empty(n, dtype=np.int64)
    eligible_col = np.empty(n, dtype=np.int64)
    value_col = np.empty(n, dtype=np.float64)
    for slot in range(n_slots):
        baseline = float(baseline_dist.sample(gen))
        if arrival_profile == "uniform":
            received = gen.uniform(lo, hi, size=bids_per_slot)
        else:
            received = gen.triangular(lo, hi, hi, size=bids_per_slot)
        received = np.floor(received + 0.5).astype(np.int64)
        lag = np.floor(validation.sample(gen, size=bids_per_slot) + 0.5)
        if not lag.max() <= MAX_BID_TIME_MS:  # also inf
            raise ConfigurationError(f"validation_latency drew a lag of {lag.max()} ms > 2**53")
        noise = (
            gen.normal(0.0, noise_sd_eth, size=bids_per_slot)
            if noise_sd_eth > 0
            else np.zeros(bids_per_slot)
        )
        builder_ids = gen.integers(0, n_builders, size=bids_per_slot)
        order = np.argsort(received, kind="stable")
        received = received[order]
        with np.errstate(over="ignore", invalid="ignore"):
            value = baseline + mu_eth_per_s * (received / 1000.0) + noise[order]
        if not np.isfinite(value).all():
            raise ConfigurationError(
                f"slot {slot}: bid values beyond float64 from the baseline {baseline} ETH "
                f"(slot_effect_dist) + mu_eth_per_s = {mu_eth_per_s} ETH/s x arrival + noise "
                f"(noise_sd_eth = {noise_sd_eth})"
            )
        rows = slice(slot * bids_per_slot, (slot + 1) * bids_per_slot)
        builder_col[rows] = builder_ids[order]
        received_col[rows] = received
        eligible_col[rows] = received + lag[order].astype(np.int64)
        # not np.maximum: this keeps -0.0 and NaN exactly as max(v, 0.0) would
        value_col[rows] = np.where(0.0 > value, 0.0, value)
    slot_col = np.repeat(np.arange(n_slots, dtype=np.int64), bids_per_slot)
    return BidTable._adopt(slot_col, builder_col, received_col, eligible_col, value_col)


@dataclass(frozen=True)
class RegressionReport:
    """Fixed-effects estimate of the marginal value of time."""

    slope_eth_per_s: float
    std_error: float
    n_obs: int
    n_slots: int
    within_r2: float

    def __post_init__(self) -> None:
        if self.n_slots < 2 or self.n_obs < self.n_slots:
            raise ConfigurationError("report requires n_obs >= n_slots >= 2")
        if self.std_error < 0:
            raise ConfigurationError("std_error must be non-negative")


def estimate_mvot(bids: BidTable) -> RegressionReport:
    """Marginal value of time: OLS of within-slot demeaned bid value on
    within-slot demeaned arrival time (in seconds).

    Demeaning removes every per-slot baseline exactly, so the planted slope of
    a noiseless stream is recovered to arithmetic precision. The standard error
    is the homoskedastic one with slot fixed effects absorbed into the degrees
    of freedom.
    """
    if len(bids) < 2:
        raise ConfigurationError("estimate_mvot needs at least two bids")
    x = bids.received_at_ms / 1000.0
    y = bids.value_eth
    _, inverse = np.unique(bids.slot, return_inverse=True)
    n_slots = int(inverse.max()) + 1
    if n_slots < 2:
        raise ConfigurationError("estimate_mvot needs bids from at least two slots")
    counts = np.bincount(inverse)
    x_demeaned = x - (np.bincount(inverse, weights=x) / counts)[inverse]
    y_demeaned = y - (np.bincount(inverse, weights=y) / counts)[inverse]

    sxx = float(x_demeaned @ x_demeaned)
    if sxx == 0.0:
        raise ConfigurationError(
            "degenerate design: no within-slot timestamp variation anywhere"
        )
    sxy = float(x_demeaned @ y_demeaned)
    syy = float(y_demeaned @ y_demeaned)
    slope = sxy / sxx

    residuals = y_demeaned - slope * x_demeaned
    rss = float(residuals @ residuals)
    dof = len(bids) - n_slots - 1
    if dof < 1:
        raise ConfigurationError("not enough observations for a standard error")
    std_error = math.sqrt(max(rss, 0.0) / dof / sxx)
    within_r2 = 1.0 if syy == 0.0 else 1.0 - rss / syy
    return RegressionReport(
        slope_eth_per_s=slope,
        std_error=std_error,
        n_obs=len(bids),
        n_slots=n_slots,
        within_r2=within_r2,
    )


def pooled_ols_slope(bids: BidTable) -> float:
    """OLS slope of value on time without slot demeaning. Biased whenever slot
    baselines correlate with per-slot arrival times; kept as the comparison
    arm for the fixed-effects estimator."""
    if len(bids) < 2:
        raise ConfigurationError("pooled_ols_slope needs at least two bids")
    x = bids.received_at_ms / 1000.0
    y = bids.value_eth
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ConfigurationError("degenerate design: no timestamp variation")
    return float(xc @ yc) / sxx


def write_bids_jsonl(bids: BidTable, path: Union[str, Path]) -> None:
    """One JSON object per line, keys in ``BID_FIELDS`` order; the bytes equal
    ``json.dumps`` of each row's dict (finite floats print as their repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rows in _row_chunks(bids):
            fh.write("".join(
                f'{{"slot": {s}, "builder_id": {b}, "received_at_ms": {r}, '
                f'"eligible_at_ms": {e}, "value_eth": {v!r}}}\n'
                for s, b, r, e, v in rows
            ))


def _int_field(value: object, name: str) -> int:
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _value_field(value: object, name: str) -> float:
    if type(value) is float:
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigurationError(f"{name} must be a number, got {value!r}")


_FIELD_SET = frozenset(BID_FIELDS)
#: Per field: the value type a column takes as is, its dtype, its coercion.
_FIELD_KINDS = dict.fromkeys(BID_FIELDS, (int, np.int64, _int_field))
_FIELD_KINDS["value_eth"] = (float, np.float64, _value_field)
_field_values = operator.itemgetter(*BID_FIELDS)


def _check_field_names(row: object, path: Union[str, Path], line_no: int) -> None:
    if not isinstance(row, dict):
        raise ConfigurationError(f"{path}:{line_no}: a bid must be a JSON object")
    unknown = sorted(set(row) - _FIELD_SET)
    if unknown:
        raise ConfigurationError(f"{path}:{line_no}: unknown bid fields: {', '.join(unknown)}")
    missing = sorted(_FIELD_SET - set(row))
    if missing:
        raise ConfigurationError(f"{path}:{line_no}: missing bid fields: {', '.join(missing)}")


def _segment(name: str, values: Sequence, types: Optional[set] = None) -> Sequence:
    """A column's ``values`` as an int64 (``value_eth``: float64) array, coerced
    one by one unless ``types`` is exactly ``{int}`` (``{float}``); or, if one
    is rejected or beyond int64, the values as they are (a raw segment)."""
    plain, dtype, parse = _FIELD_KINDS[name]
    try:
        return np.array(values if types == {plain} else [parse(v, name) for v in values], dtype)
    except (ConfigurationError, OverflowError):
        return values


class _BidColumns:
    """A bid file read chunk by chunk: per column, one segment per chunk (a typed
    array, or the values as read if one did not convert); per chunk, its lines."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = path
        self.segments: tuple[list, ...] = tuple([] for _ in BID_FIELDS)
        self.line_nos: list[Sequence[int]] = []  # per chunk

    def extend(self, columns: Sequence[Sequence], line_nos: Sequence[int],
               types: Sequence[Optional[set]] = (None,) * len(BID_FIELDS)) -> None:
        """Append a chunk of rows given as five columns, read from the
        increasing file lines ``line_nos``; ``types`` holds each column's set of
        value types where it is known."""
        if line_nos[-1] - line_nos[0] == len(line_nos) - 1:
            line_nos = range(line_nos[0], line_nos[-1] + 1)
        self.line_nos.append(line_nos)
        for name, segments, values, value_types in zip(BID_FIELDS, self.segments, columns, types):
            segments.append(_segment(name, values, value_types))

    def where(self, row: int) -> str:
        for line_nos in self.line_nos:
            if row < len(line_nos):
                break
            row -= len(line_nos)
        return f"{self.path}:{line_nos[row]}"

    def table(self) -> BidTable:
        """Join and check the columns one at a time, dropping each one's
        segments. Raw segments are coerced value by value, so a bad value or an
        integer beyond int64, like a row the table rejects, is reported at its
        ``path:line``."""
        columns = []
        for name, segments in zip(BID_FIELDS, self.segments):
            _, dtype, parse = _FIELD_KINDS[name]
            for i, (segment, line_nos) in enumerate(zip(segments, self.line_nos)):
                if type(segment) is not np.ndarray:  # raw
                    segments[i] = parsed = []
                    try:
                        for value in segment:
                            number = parse(value, name)
                            if dtype is np.int64 and not -2**63 <= number < 2**63:
                                raise ConfigurationError(
                                    f"{name} must fit in int64, got {number}"
                                )
                            parsed.append(number)
                    except ConfigurationError as exc:
                        raise ConfigurationError(
                            f"{self.path}:{line_nos[len(parsed)]}: {exc}"
                        ) from None
            columns.append(np.concatenate(segments) if segments else np.empty(0, dtype))
            segments.clear()
        try:
            return BidTable._adopt(*columns)
        except InvalidBidRow as exc:
            raise ConfigurationError(f"{self.where(exc.row)}: {exc.reason}") from None
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self.path}: {exc}") from None


def _plain_bid_columns(lines: list[str]) -> Optional[tuple[list[tuple], list[set]]]:
    """Decode stripped, non-blank lines with one ``json.loads`` call and return
    their five field columns and each column's set of value types, or None
    unless every line is one plain bid:

    * every line but the last ends with ``}`` and every line but the first
      starts with ``{``;
    * the lines decode to one value per line;
    * each value holds every ``BID_FIELDS`` key, with int or float values;
    * the text holds two quote characters per key and no more.

    The lines are joined by a newline and a comma. No line holds a newline,
    so ``}``, newline, comma, ``{`` occurs at joins only, and no string can
    span a join. A value that is not an object fails the field lookup
    (``TypeError``), and an object without every field fails it too
    (``KeyError``); so the first line starts with the first object's ``{``
    and the last ends with the last one's ``}``. An object with every field
    holds at least ten quote characters, so with ten per value none holds a
    sixth key, and no scan of the rows' types or lengths is needed. Then every
    brace is structural and each line is exactly one object's text, so it
    decodes on its own to the same object. Without the join check a line of
    two bids plus a bid split over two lines keeps the count of values;
    without the quote check a bid with a sixth key passes; without the lookup
    or the value type check a list such as ``[{}, {}]`` can absorb a join.
    """
    text = "[" + "\n,".join(lines) + "]"
    if text.count("}\n,{") != len(lines) - 1:
        return None
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError):  # the line by line read reports these
        return None
    if len(rows) != len(lines) or text.count('"') != 2 * len(BID_FIELDS) * len(rows):
        return None
    try:
        columns = list(zip(*map(_field_values, rows)))
    except (KeyError, TypeError):
        return None
    types = [set(map(type, col)) for col in columns]
    if not all(col_types <= {int, float} for col_types in types):
        return None
    return columns, types


def read_bids_jsonl(path: Union[str, Path]) -> BidTable:
    """Read a bid stream; accepts externally produced files in the same schema.

    Lines are decoded ``_READ_CHUNK_LINES`` at a time. A chunk that is not
    plain one-bid-per-line is read line by line, so every error names its
    ``path:line``. Of several bad lines, the one reported is the first
    decode or field error, as lines are read; else the first value error,
    column by column in ``BID_FIELDS`` order; else the first row that
    fails ``BidTable``'s row checks, taken one check at a time.
    """
    columns = _BidColumns(path)
    with open(path, "r", encoding="utf-8") as fh:
        first = 1
        while lines := list(map(str.strip, islice(fh, _READ_CHUNK_LINES))):
            line_nos: Sequence[int] = range(first, first + len(lines))
            first += len(lines)
            if not all(lines):  # skip blank lines
                line_nos = [n for n, line in zip(line_nos, lines) if line]
                lines = list(filter(None, lines))
                if not lines:
                    continue
            plain = _plain_bid_columns(lines)
            if plain is not None:
                columns.extend(plain[0], line_nos, types=plain[1])
                continue
            rows = []
            for line_no, line in zip(line_nos, lines):
                try:
                    row = json.loads(line)
                except ValueError as exc:  # also an integer of too many digits
                    raise ConfigurationError(f"{path}:{line_no}: not valid JSON ({exc})") from None
                if type(row) is not dict or row.keys() != _FIELD_SET:
                    _check_field_names(row, path, line_no)
                rows.append(_field_values(row))
            columns.extend(list(zip(*rows)), line_nos)
    return columns.table()


def read_bids_csv(path: Union[str, Path]) -> BidTable:
    """Read a bid stream from CSV whose header names ``BID_FIELDS`` in order;
    accepts externally produced files. Non-empty rows are read
    ``_READ_CHUNK_LINES`` at a time, and every error names its ``path:line``."""
    columns = _BidColumns(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != BID_FIELDS:
            raise ConfigurationError(f"{path}: expected columns {BID_FIELDS}, got {header}")
        numbered = ((reader.line_num, row) for row in reader if row)
        while chunk := list(islice(numbered, _READ_CHUNK_LINES)):
            for line_no, row in chunk:
                if len(row) != len(BID_FIELDS):
                    raise ConfigurationError(
                        f"{path}:{line_no}: expected {len(BID_FIELDS)} bid fields, got {len(row)}"
                    )
            line_nos, rows = zip(*chunk)
            columns.extend(list(zip(*rows)), line_nos)
    return columns.table()


def load_bids(path: Union[str, Path]) -> BidTable:
    """Dispatch on extension: .jsonl/.ndjson or .csv."""
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        reader = read_bids_jsonl
    elif suffix == ".csv":
        reader = read_bids_csv
    else:
        raise ConfigurationError(f"unsupported bid file extension {suffix!r}")
    try:
        return reader(path)
    except FileNotFoundError:
        raise ConfigurationError(f"bid file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read bid file {path}: {exc}") from None
