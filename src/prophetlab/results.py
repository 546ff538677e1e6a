"""Evaluation results shared by the exact oracle and the Monte Carlo engine."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EvalResult:
    """An expected-value or probability estimate with its error bound.

    ``half_width`` is a 99% confidence half-width for Monte Carlo results.
    For exact results it is a fixed declared constant, not a computed error
    bound: ``_ABS_TOL`` = 1e-9 for the integrator's expected values, 0 for its
    exceedance probabilities and for the optimal-online DP.  No code measures
    the roundoff of an exact evaluation yet.
    """

    estimate: float
    half_width: float
    method: str  # "exact" | "monte-carlo"
    replications: int = 0
    seed: int = 0

