"""Small family of sampling distributions used for signing delays, relay
validation latencies, and per-slot value baselines.

Units are contextual: milliseconds when used as a latency, ETH when used as a
bid-value baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .model import ConfigurationError, coerce_number

_FAMILIES = ("degenerate", "exponential", "lognormal")


@dataclass(frozen=True)
class LatencyDistribution:
    """A non-negative sampling distribution.

    family "degenerate": point mass at ``value``.
    family "exponential": mean ``mean`` (inverse-CDF sampling).
    family "lognormal": parameterized by its ``median`` and log-space ``sigma``.
    """

    family: str
    value: float = 0.0
    mean: float = 0.0
    median: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigurationError(
                f"unknown distribution family {self.family!r}; expected one of {_FAMILIES}"
            )
        for name in ("value", "mean", "median", "sigma"):
            number = getattr(self, name)
            if not math.isfinite(number):
                raise ConfigurationError(f"{self.family} {name} must be finite, got {number!r}")
        if self.family == "degenerate" and self.value < 0:
            raise ConfigurationError("degenerate value must be non-negative")
        if self.family == "exponential" and self.mean <= 0:
            raise ConfigurationError("exponential mean must be positive")
        if self.family == "lognormal":
            if self.median <= 0:
                raise ConfigurationError("lognormal median must be positive")
            if self.sigma <= 0:
                raise ConfigurationError("lognormal sigma must be positive")

    @classmethod
    def degenerate(cls, value: float) -> "LatencyDistribution":
        return cls(family="degenerate", value=float(value))

    @classmethod
    def exponential(cls, mean: float) -> "LatencyDistribution":
        return cls(family="exponential", mean=float(mean))

    @classmethod
    def lognormal(cls, median: float, sigma: float = 0.5) -> "LatencyDistribution":
        return cls(family="lognormal", median=float(median), sigma=float(sigma))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw one sample (size=None) or a numpy array of samples; always >= 0.
        A draw beyond float64 is inf, without a warning: the caller names the
        parameter that drew it."""
        if self.family == "degenerate":
            if size is None:
                return self.value
            return np.full(size, self.value, dtype=float)
        if self.family == "exponential":
            u = rng.random(size)
            with np.errstate(over="ignore"):
                return -self.mean * np.log1p(-u)
        mu = math.log(self.median)
        return rng.lognormal(mean=mu, sigma=self.sigma, size=size)

    @classmethod
    def from_config(cls, spec: Union["LatencyDistribution", Mapping]) -> "LatencyDistribution":
        """Build from a config mapping like ``{"family": "lognormal", "median": 418, "sigma": 0.5}``;
        each parameter must be a finite number."""
        if isinstance(spec, LatencyDistribution):
            return spec
        if not isinstance(spec, Mapping):
            raise ConfigurationError(f"distribution spec must be a mapping, got {type(spec).__name__}")
        known = {"family", "value", "mean", "median", "sigma"}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ConfigurationError(f"unknown distribution keys: {', '.join(unknown)}")
        if "family" not in spec:
            raise ConfigurationError("distribution spec requires a 'family' key")
        family = spec["family"]
        if family == "degenerate":
            if "value" not in spec:
                raise ConfigurationError("degenerate distribution requires 'value'")
            return cls.degenerate(coerce_number("degenerate value", spec["value"]))
        if family == "exponential":
            if "mean" not in spec:
                raise ConfigurationError("exponential distribution requires 'mean'")
            return cls.exponential(coerce_number("exponential mean", spec["mean"]))
        if family == "lognormal":
            if "median" not in spec:
                raise ConfigurationError("lognormal distribution requires 'median'")
            median = coerce_number("lognormal median", spec["median"])
            return cls.lognormal(median, coerce_number("lognormal sigma", spec.get("sigma", 0.5)))
        raise ConfigurationError(
            f"unknown distribution family {family!r}; expected one of {_FAMILIES}"
        )
