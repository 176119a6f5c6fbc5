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

#: Each family's parameters, in the order they are read, with the default of
#: each that a config may leave out (None: required).
FAMILY_PARAMETERS = {
    "degenerate": {"value": None},
    "exponential": {"mean": None},
    "lognormal": {"median": None, "sigma": 0.5},
}
_FAMILIES = tuple(FAMILY_PARAMETERS)


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
        # a point mass may sit at 0; every other parameter is positive
        for name in FAMILY_PARAMETERS[self.family]:
            number = getattr(self, name)
            if not math.isfinite(number):
                raise ConfigurationError(f"{self.family} {name} must be finite, got {number!r}")
            if number < 0 or (number == 0 and self.family != "degenerate"):
                sign = "non-negative" if self.family == "degenerate" else "positive"
                raise ConfigurationError(f"{self.family} {name} must be {sign}")

    @classmethod
    def degenerate(cls, value: float) -> "LatencyDistribution":
        return cls(family="degenerate", value=float(value))

    @classmethod
    def exponential(cls, mean: float) -> "LatencyDistribution":
        return cls(family="exponential", mean=float(mean))

    @classmethod
    def lognormal(
        cls, median: float, sigma: float = FAMILY_PARAMETERS["lognormal"]["sigma"]
    ) -> "LatencyDistribution":
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
        it holds the family's parameters (``FAMILY_PARAMETERS``) and no other
        key, and each parameter must be a finite number."""
        if isinstance(spec, LatencyDistribution):
            return spec
        if not isinstance(spec, Mapping):
            raise ConfigurationError(f"distribution spec must be a mapping, got {type(spec).__name__}")
        if "family" not in spec:
            raise ConfigurationError("distribution spec requires a 'family' key")
        family = spec["family"]
        if family not in _FAMILIES:
            raise ConfigurationError(
                f"unknown distribution family {family!r}; expected one of {_FAMILIES}"
            )
        parameters = FAMILY_PARAMETERS[family]
        unknown = sorted(str(key) for key in spec if key != "family" and key not in parameters)
        if unknown:
            raise ConfigurationError(
                f"unknown {family} distribution keys: {', '.join(unknown)}; "
                f"allowed: family, {', '.join(parameters)}"
            )
        values = {}
        for key, default in parameters.items():
            if key not in spec and default is None:
                raise ConfigurationError(f"{family} distribution requires '{key}'")
            values[key] = coerce_number(f"{family} {key}", spec.get(key, default))
        return cls(family=family, **values)
