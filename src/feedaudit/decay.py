"""Rank-decay visibility model.

The probability that a tweet at rank r is actually seen is modeled as an
exponential decay p(r) = A * exp(-lam * r), which one numpy expression
evaluates for one rank and for a vector alike, so a rank's visibility
has the same bits wherever it is computed. The decay rate is not chosen
by hand: it is calibrated so that a chosen top fraction of ranks carries
a chosen fraction of total attention, e.g. "the top 20% of a 500-tweet
timeline receives 70% of the attention mass". That constraint pins lam;
the amplitude then only sets the absolute scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigError

# Default calibration target: top 20% of ranks carry 70% of attention.
DEFAULT_TOP_FRACTION = 0.2
DEFAULT_ATTENTION_FRACTION = 0.7

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DecayModel:
    """Calibrated visibility model p(r) = amplitude * exp(-rate * r).

    ``reference_length`` is the timeline length the rate was calibrated
    for; the model still evaluates at any positive rank.
    """

    amplitude: float
    rate: float
    reference_length: int
    top_fraction: float = DEFAULT_TOP_FRACTION
    attention_fraction: float = DEFAULT_ATTENTION_FRACTION

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(f"decay rate must be positive, got {self.rate}")
        if self.amplitude <= 0:
            raise ConfigError(f"amplitude must be positive, got {self.amplitude}")
        if self.reference_length < 1:
            raise ConfigError("reference_length must be >= 1")
        # p(1) is a probability; allow a hair of float slack.
        p1 = self.amplitude * math.exp(-self.rate)
        if p1 > 1.0 + 1e-12:
            raise ConfigError(
                f"amplitude {self.amplitude} gives p(1)={p1:.6g} > 1; "
                f"maximum admissible amplitude is exp(rate)={math.exp(self.rate):.6g}"
            )

    def visibility(self, rank: int) -> float:
        """Probability that the tweet at ``rank`` (1-based) is seen."""
        if rank < 1:
            raise ConfigError(f"rank must be >= 1, got {rank}")
        # a one-element array, not a scalar, takes the exp loop of weights
        return float(self._visibilities(np.array([rank], dtype=np.float64))[0])

    def weights(self, length: int) -> np.ndarray:
        """Read-only vector of visibilities for ranks 1..length."""
        if length < 1:
            raise ConfigError(f"length must be >= 1, got {length}")
        w = self._visibilities(np.arange(1, length + 1, dtype=np.float64))
        w.flags.writeable = False
        return w

    def _visibilities(self, ranks: np.ndarray) -> np.ndarray:
        """p(r) for each rank of an integer or float64 array."""
        return self.amplitude * np.exp(-self.rate * ranks)


def _attention_ratio(rate: float, length: int, k: int) -> float:
    # Share of total mass held by ranks 1..k under rate lam; the amplitude
    # cancels. Closed form of the geometric partial sums.
    num = -math.expm1(-rate * k)
    den = -math.expm1(-rate * length)
    return num / den


def attention_residual(model: DecayModel) -> float:
    """Signed calibration residual: achieved minus target attention share."""
    k = math.floor(model.top_fraction * model.reference_length)
    return (
        _attention_ratio(model.rate, model.reference_length, k)
        - model.attention_fraction
    )


def calibrate(
    length: int,
    top_fraction: float = DEFAULT_TOP_FRACTION,
    attention_fraction: float = DEFAULT_ATTENTION_FRACTION,
    amplitude: float | None = None,
) -> DecayModel:
    """Solve for the decay rate matching an attention-concentration target.

    Finds lam such that ranks 1..floor(top_fraction * length) carry
    ``attention_fraction`` of the total visibility mass of ranks
    1..length, by bisection on lam in (1e-12, 10]. The residual of the
    returned model is below 1e-10.

    When ``amplitude`` is omitted the model is normalized to unit
    visibility at rank 1: ``exp(rate)`` times ``exp(-rate)`` rounds to a
    p(1) within 2**-52 of 1, which may lie a last bit above or below
    it. Passing an explicit amplitude (e.g. a published constant)
    overrides that; it must keep p(1) <= 1.

    Raises ConfigError for out-of-range arguments and AnalysisError when
    the constraint is degenerate or has no solution in the bracket.
    """
    if length < 5:
        raise ConfigError(f"length must be >= 5, got {length}")
    if not (0.0 < top_fraction < 1.0):
        raise ConfigError(f"top_fraction must be in (0, 1), got {top_fraction}")
    if not (0.0 < attention_fraction < 1.0):
        raise ConfigError(
            f"attention_fraction must be in (0, 1), got {attention_fraction}"
        )
    if top_fraction >= attention_fraction:
        raise ConfigError(
            "top_fraction must be below attention_fraction "
            f"(got {top_fraction} >= {attention_fraction})"
        )

    k = math.floor(top_fraction * length)
    if k < 1:
        raise ConfigError(
            f"top_fraction {top_fraction} covers no ranks at length {length}"
        )
    if attention_fraction - top_fraction < 1e-6:
        raise AnalysisError(
            "degenerate attention constraint: target share "
            f"{attention_fraction} too close to uniform share {top_fraction}"
        )

    lo, hi = 1e-12, 10.0
    # _attention_ratio is increasing in lam: lam->0 gives k/length,
    # lam->inf gives 1. The target must lie strictly between.
    if not (_attention_ratio(lo, length, k) < attention_fraction < _attention_ratio(hi, length, k)):
        raise AnalysisError(
            f"no decay rate in ({lo}, {hi}] satisfies the attention constraint "
            f"(length={length}, top={top_fraction}, attention={attention_fraction})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _attention_ratio(mid, length, k) < attention_fraction:
            lo = mid
        else:
            hi = mid
    rate = 0.5 * (lo + hi)
    if abs(_attention_ratio(rate, length, k) - attention_fraction) >= _RESIDUAL_TOL:
        raise AnalysisError("calibration failed to reach residual tolerance 1e-10")

    if amplitude is None:
        amplitude = math.exp(rate)  # unit visibility at rank 1
    return DecayModel(
        amplitude=amplitude,
        rate=rate,
        reference_length=length,
        top_fraction=top_fraction,
        attention_fraction=attention_fraction,
    )
