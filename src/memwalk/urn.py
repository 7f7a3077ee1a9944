"""K-color urn representation of the memory walk.

A drawn ball of color j triggers the addition of one ball whose color is
sampled from a j-specific replacement law. With the replacement laws
below, the vector of ball counts has exactly the law of the walk's
per-direction step counts, which makes the urn an independent second
implementation of the same process. The walker's position is the signed
pairing of the counts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ModelParams, draw_holder


@dataclass
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


@lru_cache
def _replacement_cdfs(params: ModelParams) -> tuple[tuple[float, ...], ...]:
    """Cumulative replacement law of every drawn color, built once per params."""
    return tuple(tuple(np.cumsum(replacement_distribution(params, j)).tolist()) for j in range(params.K))


def urn_step(params: ModelParams, state: UrnState, rng: np.random.Generator) -> UrnState:
    """Draw a ball uniformly, add one ball by the replacement law."""
    if state.n < 1:
        raise ValueError("urn is empty")
    balls = state.balls.copy()
    cdf = _replacement_cdfs(params)[draw_holder(balls.tolist(), rng)]
    balls[min(bisect_right(cdf, rng.random()), len(cdf) - 1)] += 1
    return UrnState(state.n + 1, balls)


def pairing_matrix(d: int, lazy: bool) -> np.ndarray:
    """d x K projection from counts to position: row i is e_{2i} - e_{2i+1}.

    The lazy column, when present, is ignored (zero column).
    """
    K = 2 * d + (1 if lazy else 0)
    mat = np.zeros((d, K))
    for i in range(d):
        mat[i, 2 * i] = 1.0
        mat[i, 2 * i + 1] = -1.0
    return mat


def counts_to_position(counts, d: int, lazy: bool) -> np.ndarray:
    """Signed pairing of counts: (N_1 - N_2, N_3 - N_4, ...).

    For odd K the trailing stay-put count does not contribute.
    """
    counts = np.asarray(counts)
    K = 2 * d + (1 if lazy else 0)
    if counts.shape[-1] != K:
        raise ValueError(f"expected {K} counts, got {counts.shape[-1]}")
    return counts[..., 0 : 2 * d : 2] - counts[..., 1 : 2 * d : 2]

