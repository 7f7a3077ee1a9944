"""Exact law of the walk by one forward pass over count vectors.

The next step depends on the past only through the per-direction step
counts, and the urn adds a ball whose colour depends only on the drawn
colour. The exact law of the counts after n steps is therefore a
forward pass over the count lattice, with C(n+K, K) states visited in
all: the walk and the urn are two transition kernels on the same pass.
The law of every length-n step sequence runs the same pass over the
K^n prefixes without merging them. Both give exact ground truth for
moments, for the samplers and for the urn/walk equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import urn
from .model import InitialSpec, ModelParams, WalkState, conditional_law, counts_to_position, pairing_matrix

#: Hard ceiling on the number of paths, or of count vectors, a pass visits.
MAX_PATHS = 10_000_000


@dataclass
class PathDistribution:
    """Exact law over all K^n step sequences, zero-probability ones kept.

    Sequence ids enumerate lexicographically: the first step is the most
    significant base-K digit. ``probs`` sums to one.
    """

    n: int
    K: int
    probs: np.ndarray

    def sequences(self):
        """(step sequence, probability) of every path, in path-id order."""
        return zip(product(range(self.K), repeat=self.n), map(float, self.probs))


def _check_size(n: int, size: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if size > MAX_PATHS:
        raise ValueError(f"instance too large: {size} paths or count vectors exceed {MAX_PATHS}")


def _count_law(params: ModelParams, init: InitialSpec, n: int, kernel) -> tuple[np.ndarray, np.ndarray]:
    """Count vectors after n steps and their probabilities.

    ``kernel(states, m)`` gives, row by row, the law of the next move of
    each count vector holding m steps. Children with equal counts are
    merged; count vectors of probability zero are kept. The rows come
    out in lexicographic order, as ``np.unique(axis=0)`` would give them,
    but a stable ``np.lexsort`` finds them four times faster and keeps
    each sum in the order of the children.
    """
    K = params.K
    _check_size(n, math.comb(n + K, K))
    unit = np.eye(K, dtype=np.int64)
    states, probs = unit, init.distribution(params)
    for m in range(1, n):
        children = (states[:, None, :] + unit).reshape(-1, K)
        weights = (probs[:, None] * kernel(states, m)).ravel()
        order = np.lexsort(children.T[::-1])
        children, weights = children[order], weights[order]
        first = np.r_[True, (children[1:] != children[:-1]).any(axis=1)]
        states, probs = children[first], np.bincount(np.cumsum(first) - 1, weights=weights)
    return states, probs


def _walk_kernel(params: ModelParams):
    return lambda states, m: conditional_law(params, WalkState(n=m, counts=states))


def _as_dict(states: np.ndarray, probs: np.ndarray) -> dict[tuple[int, ...], float]:
    return dict(zip(map(tuple, states.tolist()), probs.tolist()))


def enumerate_paths(params: ModelParams, init: InitialSpec, n: int) -> PathDistribution:
    """Exact probability of every length-n step sequence."""
    K = params.K
    _check_size(n, K**n)
    # K**n <= MAX_PATHS bounds n by 23, so the prefix counts fit in int8
    unit = np.eye(K, dtype=np.int8)
    counts, probs = unit, init.distribution(params)
    for m in range(1, n):
        if m > 1:
            counts = (counts[:, None, :] + unit).reshape(-1, K)
        law = conditional_law(params, WalkState(n=m, counts=counts))
        probs = (probs[:, None] * law).ravel()
    return PathDistribution(n=n, K=K, probs=probs)


@dataclass
class ExactMarginals:
    """Exact position moments and per-axis step counts at time n."""

    mean_position: np.ndarray
    position_cov: np.ndarray
    mean_axis_counts: np.ndarray


def exact_marginals(params: ModelParams, init: InitialSpec, n: int) -> ExactMarginals:
    """Exact E(S_n), Cov(S_n) and expected moves per axis from the count law."""
    states, probs = _count_law(params, init, n, _walk_kernel(params))
    pos = counts_to_position(states).astype(float)
    mean = probs @ pos
    centred = pos - mean
    cov = (centred.T * probs) @ centred
    return ExactMarginals(
        mean_position=mean,
        position_cov=0.5 * (cov + cov.T),
        mean_axis_counts=probs @ (states @ np.abs(pairing_matrix(params.K)).T),
    )


def walk_count_law(params: ModelParams, init: InitialSpec, n: int) -> dict[tuple[int, ...], float]:
    """Exact law of the count vector after n steps."""
    return _as_dict(*_count_law(params, init, n, _walk_kernel(params)))


def urn_count_law(params: ModelParams, init: InitialSpec, n: int) -> dict[tuple[int, ...], float]:
    """Exact law of the urn composition holding n balls.

    The urn starts with a single ball coloured like the walk's first step
    and performs n - 1 draw/replace rounds. Drawing colour j with
    probability N_j/m and adding by column j of the mean replacement
    matrix A gives the added colour the law A N / m.
    """
    A = urn.mean_replacement_matrix(params)
    return _as_dict(*_count_law(params, init, n, lambda states, m: states @ A.T / m))


def total_variation(law_a: dict, law_b: dict) -> float:
    """Total variation distance between two finitely supported laws."""
    keys = set(law_a) | set(law_b)
    return 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0)) for k in keys)
