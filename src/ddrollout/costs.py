"""Nonnegative extended-real cost arithmetic.

Costs are plain floats in [0, +inf]. IEEE infinity is the distinguished
infeasibility marker: it absorbs under addition and compares above every
finite cost, so no large sentinel constants appear anywhere.
"""

from __future__ import annotations

import math

INF = math.inf


def ensure_cost(v) -> float:
    """Validate and coerce a stage or tail cost; negative or NaN values are rejected."""
    f = float(v)
    if math.isnan(f) or f < 0.0:
        raise ValueError(f"invalid cost {v!r}: costs must lie in [0, +inf]")
    return f


def tails_from(stage_costs, terminal: float = 0.0) -> tuple:
    """Right-to-left tail sums: tail_k = g_k + tail_{k+1}, ending at terminal."""
    tails = [terminal]
    for g in reversed(stage_costs):
        tails.append(g + tails[-1])
    return tuple(reversed(tails))
