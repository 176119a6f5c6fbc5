"""Machine-speed calibration.

On a shared 2-vCPU machine the same experiment took 0.77 s in one minute and
1.55 s a few minutes later, with no steal time reported, so raw wall times
from runs minutes apart cannot be compared within a 25% bound. The benchmark
therefore times a fixed kernel next to every measured sample and reports each
time scaled to a machine on which the kernel takes ``REFERENCE_S``::

    scaled = raw * REFERENCE_S / kernel_seconds

The kernel uses numpy and the standard library only, never ``timinggames``,
so a change to the program cannot change it. Its mix (SeedSequence-seeded
generators, small-array numpy calls, blake2b hashing, JSON encoding and
decoding of small records, frozen-dataclass allocation) mirrors the program's
hot paths, so both slow down together when the machine does.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

#: Kernel time, in seconds, that scaled times are expressed against.
REFERENCE_S = 0.1


@dataclass(frozen=True)
class _Record:
    vote: int
    release_time_us: int


def kernel_seconds() -> float:
    """Time one run of the fixed calibration kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(1200):
        gen = np.random.default_rng(np.random.SeedSequence([7, i]))
        draws = np.floor(-1e6 * np.log1p(-gen.random(1000)) + 0.5).astype(np.int64)
        total += int(draws.sum()) + hashlib.blake2b(str(i).encode(), digest_size=8).digest()[0]
        for j in range(2):
            row = {"slot": i, "builder_id": j, "received_at_ms": -j, "value_eth": i / 7}
            total += json.loads(json.dumps(row))["builder_id"]
    values = np.arange(1000, dtype=np.int64)
    for _ in range(20):
        total += len(tuple(_Record(vote=1, release_time_us=int(v)) for v in values))
    elapsed = time.perf_counter() - start
    if total <= 0:
        raise RuntimeError("calibration kernel produced no work")
    return elapsed


def scaled(raw_s: float, kernel_before: float, kernel_after: float) -> float:
    """``raw_s`` expressed at the reference machine speed, using the kernel
    times measured right before and right after the sample."""
    return raw_s * REFERENCE_S / ((kernel_before + kernel_after) / 2)
