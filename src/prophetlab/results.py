"""Evaluation results shared by the exact oracle and the Monte Carlo engine."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EvalResult:
    """An expected-value or probability estimate with its error bound.

    ``half_width`` is a 99% confidence half-width for Monte Carlo results.
    Exact results report 0: the integrator and the optimal-online DP have
    no sampling error.  That 0 is not a measured roundoff bound; no code
    measures the roundoff of an exact evaluation yet.
    """

    estimate: float
    half_width: float
    method: str  # "exact" | "monte-carlo"
    replications: int = 0
    seed: int = 0

