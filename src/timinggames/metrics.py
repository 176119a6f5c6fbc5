"""Trace metrics: next-slot attestation shares and correlation helpers.

The next-slot share of a slot is the fraction of its fresh attestations (those
reaching the next proposer in time) that voted for the block; abstentions that
arrive in time count against it, mirroring how a late block loses votes to "no
block" rather than gaining none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ConfigurationError, SimulationTrace


@dataclass(frozen=True)
class CurvePoint:
    """One aggregated point of a share or payoff curve."""

    x: float
    y: float
    n: int
    se: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("a curve point needs at least one sample")
        if self.se < 0:
            raise ConfigurationError("standard error must be non-negative")


def next_slot_share_samples(trace: SimulationTrace) -> list[tuple[int, float, float]]:
    """Per-slot (slot, release offset in ms, next-slot share) samples.

    Slots with no fresh attestation at all are skipped (the share has no
    denominator there). For a release offset d at or past the attestation
    deadline the share is zero; below it, the expected share is the
    probability that one latency leg fits in the remaining window before the
    deadline.
    """
    if not trace.release_time_us.size:
        raise ConfigurationError("trace has no slots")
    slots = np.flatnonzero(trace.fresh_count)
    offsets_ms = (trace.release_time_us[slots] - slots * trace.params.slot_length_us) / 1000.0
    shares = trace.fresh_vote_count[slots] / trace.fresh_count[slots]
    return list(zip(slots.tolist(), offsets_ms.tolist(), shares.tolist()))


def bucket_curve(
    samples: Sequence[tuple[float, float]], bucket_ms: float = 100.0
) -> tuple[CurvePoint, ...]:
    """Aggregate (x, y) samples into fixed-width buckets along x; each point
    carries the bucket midpoint, the mean, the sample count, and the standard
    error of the mean."""
    if bucket_ms <= 0:
        raise ConfigurationError("bucket_ms must be positive")
    if not samples:
        raise ConfigurationError("no samples to bucket")
    buckets: dict[int, list[float]] = {}
    for x, y in samples:
        buckets.setdefault(int(math.floor(x / bucket_ms)), []).append(y)
    points = []
    for idx in sorted(buckets):
        ys = np.asarray(buckets[idx], dtype=float)
        se = float(ys.std(ddof=1) / math.sqrt(len(ys))) if len(ys) > 1 else 0.0
        points.append(
            CurvePoint(x=(idx + 0.5) * bucket_ms, y=float(ys.mean()), n=len(ys), se=se)
        )
    return tuple(points)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson product-moment correlation; undefined (an error) when either
    side has zero variance."""
    if len(xs) != len(ys):
        raise ConfigurationError("pearson needs sequences of equal length")
    if len(xs) < 2:
        raise ConfigurationError("pearson needs at least two points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise ConfigurationError("correlation undefined: zero variance input")
    return float((xc @ yc) / math.sqrt(sx * sy))
