"""K-color urn representation of the memory walk.

A drawn ball of color j triggers the addition of one ball whose color is
sampled from a j-specific replacement law. With the replacement laws
below, the vector of ball counts has exactly the law of the walk's
per-direction step counts, which makes the urn an independent second
implementation of the same process. The walker's position is the signed
pairing of the counts, ``model.counts_to_position``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import _TABLE_ENTRIES, ModelParams, _cuts, draw_holder


@dataclass(slots=True)
class UrnState:
    """Ball counts per color after n - 1 additions (n balls in total)."""

    n: int
    balls: np.ndarray


def replacement_distribution(params: ModelParams, j: int) -> np.ndarray:
    """Law of the color added after drawing color ``j``.

    Drawing color 0 adds color 0 with probability p and any other color
    with probability (1-p)/(K-1). Drawing color j > 0 adds color 0 with
    probability p + theta*(1-Kp)/(K-1), color j with probability
    (1 - p - theta*(1-Kp))/(K-1), and any other color with probability
    (1-p)/(K-1).
    """
    K, p, theta = params.K, params.p, params.theta
    if not 0 <= j < K:
        raise ValueError(f"color index {j} out of range [0, {K})")
    law = np.full(K, (1.0 - p) / (K - 1.0))
    if j == 0:
        law[0] = p
    else:
        law[0] = p + theta * (1.0 - K * p) / (K - 1.0)
        law[j] = (1.0 - p - theta * (1.0 - K * p)) / (K - 1.0)
    return law


def mean_replacement_matrix(params: ModelParams) -> np.ndarray:
    """K x K matrix whose j-th column is the mean added-ball vector.

    Columns sum to one. Eigenvalues are 1 (simple) and
    theta*(Kp-1)/(K-1) with multiplicity K - 1.
    """
    return np.column_stack([replacement_distribution(params, j) for j in range(params.K)])


# The cuts of each drawn color's replacement law by (d, lazy, p, theta), the
# fields they read: plain fields hash faster than the frozen ModelParams.
_REPLACEMENT: dict[tuple[int, bool, float, float], tuple[tuple[float, ...], ...]] = {}


def _replacement_table(key: tuple, params: ModelParams) -> tuple[tuple[float, ...], ...]:
    """Cache ``model._cuts`` of the replacement law of every drawn color under ``key``."""
    if len(_REPLACEMENT) >= _TABLE_ENTRIES:
        _REPLACEMENT.clear()
    table = _REPLACEMENT[key] = tuple(_cuts(replacement_distribution(params, j)) for j in range(params.K))
    return table


def urn_step(params: ModelParams, state: UrnState, rng: np.random.Generator) -> UrnState:
    """Draw a ball uniformly, add one ball by the replacement law."""
    n = state.n
    if n < 1:
        raise ValueError("urn is empty")
    held = state.balls.tolist()
    key = (params.d, params.lazy, params.p, params.theta)
    table = _REPLACEMENT.get(key) or _replacement_table(key, params)
    added = bisect_right(table[draw_holder(held, rng)], rng.random())
    balls = state.balls.copy()
    balls[added] = held[added] + 1
    return UrnState(n + 1, balls)
