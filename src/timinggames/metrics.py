"""Trace metrics: next-slot attestation shares and correlation helpers.

The next-slot share of a slot is the fraction of its fresh attestations (those
reaching the next proposer in time) that voted for the block; abstentions that
arrive in time count against it, mirroring how a late block loses votes to "no
block" rather than gaining none.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import ConfigurationError, SimulationTrace, coerce_number


def next_slot_share_samples(trace: SimulationTrace) -> tuple[np.ndarray, ...]:
    """Per-slot next-slot share samples as aligned columns: the slot (int64),
    the release offset in ms and the next-slot share (both float64). The
    samples of a batch trace lead with a column of their run index (int64),
    in order of run, then slot.

    Slots with no fresh attestation at all are skipped (the share has no
    denominator there). For a release offset d at or past the attestation
    deadline the share is zero; below it, the expected share is the
    probability that one latency leg fits in the remaining window before the
    deadline.
    """
    if not trace.release_time_us.size:
        raise ConfigurationError("trace has no slots")
    index = np.nonzero(trace.fresh_count)
    slots = index[-1]
    offsets_ms = (trace.release_time_us[index] - slots * trace.params.slot_length_us) / 1000.0
    shares = trace.fresh_vote_count[index] / trace.fresh_count[index]
    return (*index, offsets_ms, shares)


def bucket_curve(x: Sequence[float], y: Sequence[float], bucket_ms: float = 100.0) -> dict:
    """Aggregate aligned samples ``(x, y)`` into fixed-width buckets along x,
    as the columns of ``output.CURVE_SCHEMA``: per bucket, in order of x, the
    midpoint ``x``, the mean ``y``, the sample count ``n`` and the standard
    error of the mean ``se`` (0 for one sample). Each bucket's mean and
    standard deviation run over its samples in their given order. ``bucket_ms``
    is read with ``coerce_number``, so it is finite."""
    bucket_ms = coerce_number("bucket_ms", bucket_ms)
    if bucket_ms <= 0:
        raise ConfigurationError("bucket_ms must be positive")
    if len(x) != len(y):
        raise ConfigurationError("bucket_curve needs columns of equal length")
    if not len(x):
        raise ConfigurationError("no samples to bucket")
    index = np.floor(np.asarray(x, dtype=float) / bucket_ms)
    # a stable sort keeps each bucket's samples in their given order
    order = np.argsort(index, kind="stable")
    keys, starts, counts = np.unique(index[order], return_index=True, return_counts=True)
    grouped = np.asarray(y, dtype=float)[order]
    means, ses = [], []
    for start, n in zip(starts.tolist(), counts.tolist()):
        ys = grouped[start : start + n]
        means.append(float(ys.mean()))
        ses.append(float(ys.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
    return {"x": (keys + 0.5) * bucket_ms, "y": means, "n": counts, "se": ses}


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson product-moment correlation; undefined (an error) when either
    side has zero variance or a value that is not finite."""
    if len(xs) != len(ys):
        raise ConfigurationError("pearson needs sequences of equal length")
    if len(xs) < 2:
        raise ConfigurationError("pearson needs at least two points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigurationError("correlation undefined: an input is NaN or infinite")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise ConfigurationError("correlation undefined: zero variance input")
    return float((xc @ yc) / math.sqrt(sx * sy))
