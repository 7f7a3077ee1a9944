"""Multidimensional random walk with full memory and a directional bias.

The walker lives on the integer lattice Z^d and chooses among K moves: the
2d unit steps +/- e_i, plus an optional "stay put" move when K = 2d + 1.
Moves are indexed (+e_1, -e_1, +e_2, -e_2, ..., +e_d, -e_d), stay-put last.
Given the first step, every later step flips a coin with success
probability ``theta``:

* memory branch (probability ``theta``): a past step is picked uniformly
  at random and repeated with probability ``p``; otherwise one of the
  other K - 1 moves is taken uniformly;
* bias branch (probability ``1 - theta``): the walker moves along +e_1
  with probability ``p``; otherwise one of the other K - 1 moves is taken
  uniformly.

The law of the next step depends on the history only through the vector
of per-direction step counts, so the state kept here is O(K), not O(n).

``initial_step`` and ``step`` are the literal reference sampler of the
walk: one step at a time, on Python scalars, each branch drawn exactly as
described above.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the walk.

    d      spatial dimension (>= 1)
    lazy   if True the move set includes the zero move (K = 2d + 1)
    p      repeat/bias strength, in [0, 1]
    theta  probability of the memory branch, in [0, 1]
    """

    d: int
    lazy: bool
    p: float
    theta: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        # an integral float such as 2.0 is stored as the int 2 that numpy shapes need
        object.__setattr__(self, "d", int(self.d))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta!r}")

    @property
    def K(self) -> int:
        """Number of available moves."""
        return 2 * self.d + (1 if self.lazy else 0)

    @property
    def memory_gain(self) -> float:
        """Alignment coefficient (K*p - 1)/(K - 1), in [-1/(K-1), 1].

        Appears in the one-step drift: E(X_{n+1} | history) equals
        (memory_gain * theta / n) * S_n + (1 - theta) * memory_gain * e_1.
        """
        K = self.K
        return (K * self.p - 1.0) / (K - 1.0)

    @property
    def second_eigenvalue(self) -> float:
        """theta * memory_gain, the non-principal eigenvalue of the mean
        replacement matrix; also the superdiffusive scaling rate."""
        return self.theta * self.memory_gain


def validate_params(d: int, lazy: bool, p: float, theta: float) -> ModelParams:
    """Validate a raw parameter tuple and build ModelParams.

    Raises ValueError for d < 1 or p, theta outside [0, 1].
    """
    return ModelParams(d=d, lazy=bool(lazy), p=float(p), theta=float(theta))


def counts_to_position(counts) -> np.ndarray:
    """Signed pairing of the counts on the last axis: (N_0 - N_1, N_2 - N_3, ...).

    K counts pair into d = K // 2 coordinates; a trailing stay-put count is not read.
    """
    counts = np.asarray(counts)
    d = counts.shape[-1] // 2
    return counts[..., 0 : 2 * d : 2] - counts[..., 1 : 2 * d : 2]


def pairing_matrix(K: int) -> np.ndarray:
    """d x K projection from counts to position: row i is e_{2i} - e_{2i+1}, the stay-put column zero."""
    return np.ascontiguousarray(counts_to_position(np.eye(K)).T)


@dataclass(slots=True)
class WalkState:
    """State after n steps: the per-direction counts, which sum to n."""

    n: int
    counts: np.ndarray

    @property
    def position(self) -> np.ndarray:
        """Signed pairing of the counts (counts[0] - counts[1], ...)."""
        return counts_to_position(self.counts)


@dataclass(frozen=True)
class InitialSpec:
    """Distribution of the first step, which the dynamics never pins down.

    kind is one of "uniform" (uniform over the 2d moving directions,
    the default), "fixed" (a single direction index), or "custom"
    (an explicit probability vector of length K).
    """

    kind: str = "uniform"
    index: int | None = None
    probs: tuple[float, ...] | None = None

    @staticmethod
    def uniform() -> "InitialSpec":
        return InitialSpec(kind="uniform")

    @staticmethod
    def fixed(index: int) -> "InitialSpec":
        return InitialSpec(kind="fixed", index=int(index))

    @staticmethod
    def custom(probs) -> "InitialSpec":
        return InitialSpec(kind="custom", probs=tuple(float(q) for q in probs))

    def distribution(self, params: ModelParams) -> np.ndarray:
        """Probability vector of X_1 over the K move indices."""
        K = params.K
        if self.kind == "uniform":
            pi = np.zeros(K)
            pi[: 2 * params.d] = 1.0 / (2 * params.d)
            return pi
        if self.kind == "fixed":
            if self.index is None or not 0 <= self.index < K:
                raise ValueError(f"fixed direction index {self.index!r} out of range [0, {K})")
            pi = np.zeros(K)
            pi[self.index] = 1.0
            return pi
        if self.kind == "custom":
            if self.probs is None or len(self.probs) != K:
                raise ValueError(f"custom distribution must have length {K}")
            pi = np.asarray(self.probs, dtype=float)
            if np.any(pi < 0.0):
                raise ValueError("custom distribution has negative entries")
            if abs(pi.sum() - 1.0) > 1e-12:
                raise ValueError(f"custom distribution sums to {pi.sum()!r}, not 1")
            return pi
        raise ValueError(f"unknown initial kind {self.kind!r}")


def base_step_rates(params: ModelParams) -> np.ndarray:
    """Constant part of the one-step law.

    The full law given n past steps with counts N is
    base + (second_eigenvalue / n) * N.
    """
    K, p, theta = params.K, params.p, params.theta
    base = np.full(K, (1.0 - p) / (K - 1.0))
    base[0] = p + theta * (1.0 - K * p) / (K - 1.0)
    return base


def conditional_law(params: ModelParams, state: WalkState) -> np.ndarray:
    """Probability vector of the next move given the current counts.

    Entry 0 (+e_1) is p + theta*((1-Kp)/(K-1))*(1 - N_1/n); every other
    entry is (1-p)/(K-1) + theta*((Kp-1)/(K-1))*N_x/n. Entries are
    nonnegative and sum to one.
    """
    if state.n < 1:
        raise ValueError("conditional law is undefined before the first step")
    law = base_step_rates(params) + (params.second_eigenvalue / state.n) * state.counts
    return law


def _cuts(law: np.ndarray) -> tuple[float, ...]:
    """The first K - 1 partial sums of ``law``, in ``np.cumsum``'s order.

    ``bisect_right(_cuts(law), u)`` is ``np.searchsorted(np.cumsum(law), u,
    side="right")`` clipped to K - 1: the last sum is never compared, so a
    uniform at or above it picks the last index, also where rounding makes
    the law sum to a little below one.
    """
    return tuple(np.cumsum(law)[:-1].tolist())


# First-step tables by (kind, index, probs, d, lazy): the cuts of the
# first-step law, and the one-hot count rows that ``initial_step`` copies.
# The key is plain fields, which hash faster than the two frozen dataclasses,
# and the samplers read it inline, which is cheaper than a call.
_FIRST_STEP: dict[tuple, tuple[tuple[float, ...], tuple[np.ndarray, ...]]] = {}
_TABLE_ENTRIES = 128  # a full table cache is emptied first, so a sweep over many parameters stays small


def _first_step_table(
    key: tuple, init: InitialSpec, params: ModelParams
) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
    """Validate the first-step law of (init, params) and cache its table under ``key``."""
    law = init.distribution(params)
    if len(_FIRST_STEP) >= _TABLE_ENTRIES:
        _FIRST_STEP.clear()
    table = _FIRST_STEP[key] = (_cuts(law), tuple(np.eye(len(law), dtype=np.int64)))
    return table


def initial_step(params: ModelParams, init: InitialSpec, rng: np.random.Generator) -> WalkState:
    """Sample X_1 from ``init`` and return the one-step state."""
    key = (init.kind, init.index, init.probs, params.d, params.lazy)
    first, rows = _FIRST_STEP.get(key) or _first_step_table(key, init, params)
    return WalkState(1, rows[bisect_right(first, rng.random())].copy())


def draw_below(m: int, rng: np.random.Generator) -> int:
    """``rng.integers(m)``, but not called for m = 1: there it gives 0 and leaves the stream as it was."""
    return int(rng.integers(m)) if m != 1 else 0


def draw_holder(counts: list[int], rng: np.random.Generator) -> int:
    """Index i with probability counts[i] / sum(counts): the holder of an item drawn uniformly."""
    t = draw_below(sum(counts), rng)
    i = 0  # counted by hand: cheaper than enumerate over a few counts
    for c in counts:
        t -= c
        if t < 0:
            return i
        i += 1


def step(params: ModelParams, state: WalkState, rng: np.random.Generator) -> WalkState:
    """Advance the walk one step by the literal two-branch sampling.

    Memory branch: a past step index t in {1..n} is drawn uniformly
    (realized by drawing a direction with probability counts/n), kept with
    probability p, otherwise replaced uniformly by another move. Bias
    branch: +e_1 with probability p, otherwise uniformly another move.
    """
    n = state.n
    if n < 1:
        raise ValueError("cannot step before the first move is placed")
    held = state.counts.tolist()
    if rng.random() < params.theta:
        remembered = draw_holder(held, rng)
        if rng.random() < params.p:
            idx = remembered
        else:  # uniform over the K - 1 moves other than the remembered one
            idx = draw_below(len(held) - 1, rng)
            idx += idx >= remembered
    else:
        idx = 0 if rng.random() < params.p else 1 + draw_below(len(held) - 1, rng)
    counts = state.counts.copy()
    counts[idx] = held[idx] + 1
    return WalkState(n + 1, counts)


def _checkpoint_marks(n_steps: int, checkpoints) -> list[int]:
    """The distinct checkpoints in order, or [n_steps] when there are none; each must lie in [1, n_steps]."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    marks = sorted(set(int(c) for c in checkpoints)) or [n_steps]
    if marks[0] < 1 or marks[-1] > n_steps:
        raise ValueError(f"checkpoints must lie in [1, {n_steps}]")
    return marks


def simulate(
    params: ModelParams,
    init: InitialSpec,
    n_steps: int,
    checkpoints,
    rng: np.random.Generator,
) -> list[tuple[int, np.ndarray]]:
    """Run one walk to its last checkpoint, recording positions.

    ``checkpoints`` is a sorted iterable of step indices in [1, n_steps];
    an empty list records the state at n_steps only. The walk stops at the
    last checkpoint, so ``rng`` is left where that step leaves it. The
    same rng seed gives bit-identical records.
    """
    marks = _checkpoint_marks(n_steps, checkpoints)
    mark_set = set(marks)
    records = []
    state = initial_step(params, init, rng)
    if state.n in mark_set:
        records.append((state.n, state.position))
    for _ in range(marks[-1] - 1):
        state = step(params, state, rng)
        if state.n in mark_set:
            records.append((state.n, state.position))
    return records
