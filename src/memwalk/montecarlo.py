"""Ensemble simulation and statistical verification.

Replicas are independent walks. Replica ``i`` of a run seeded with ``s``
draws its uniforms from a dedicated stream: PCG64 seeded with
``splitmix64(s + (i + 1) * 0x9E3779B97F4A7C15)``, one uniform per step,
consumed in step order. Its PCG64 seed words are
``SeedSequence(replica_stream_seed(s, i)).generate_state(4, uint64)``,
computed for a whole block of replicas at once; the draws are those of
``PCG64(replica_stream_seed(s, i))``. This derivation is part of the
output contract: results are bit-identical for a fixed (seed, params,
replicas, checkpoints) no matter how replicas are partitioned across
workers, because moment accumulators are exact integer sums. Pooled calls
share one worker pool per process, forked by the first such call and kept
until exit, so module state patched after that fork does not reach it.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import dataclasses
import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import theory
from .model import InitialSpec, ModelParams, base_step_rates
from .theory import Regime, RegimeMismatchError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Upper bound on buffered uniforms per block (8M doubles = 64 MB).
_BUFFER_BUDGET = 8_000_000
#: Replicas drawn together before their uniforms are transposed into the buffer.
_REFILL_BLOCK = 128


def replica_stream_seed(seed: int, replica: int) -> int:
    """SplitMix64 mix of (seed, replica index) into a 64-bit stream seed."""
    z = (int(seed) + (replica + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _stream_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """PCG64 seed words of replicas [lo, hi) as one (hi - lo, 4) uint64 array.

    Row i is ``SeedSequence(replica_stream_seed(seed, lo + i)).generate_state(4,
    np.uint64)``, by numpy's documented hash (pool size 4) in uint32. A stream
    seed below 2^32 is one entropy word, which hashes like a zero high word.
    """
    z = np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GOLDEN + (int(seed) & _MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    pool = np.zeros((4, hi - lo), dtype=np.uint32)
    pool[0], pool[1] = z & 0xFFFFFFFF, z >> 32

    def hashmix(v, hash_const):
        v = v ^ hash_const[0]
        hash_const[0] = (hash_const[0] * hash_const[1]) & 0xFFFFFFFF
        v = v * hash_const[0]
        return v ^ (v >> 16)

    mix_const = [0x43B0D7E5, 0x931E8875]  # INIT_A, MULT_A
    pool = [hashmix(v, mix_const) for v in pool]
    for src, dst in itertools.permutations(range(4), 2):
        v = pool[dst] * 0xCA01F9DD - hashmix(pool[src], mix_const) * 0x4973F715  # MIX_MULT_L, _R
        pool[dst] = v ^ (v >> 16)
    out_const = [0x8B51F9DD, 0x58F38DED]  # INIT_B, MULT_B
    state = np.stack([hashmix(pool[i % 4], out_const) for i in range(8)], axis=1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Seed sequence that hands PCG64 precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@dataclass
class CheckpointStats:
    """Sample moments of the position at one checkpoint."""

    n: int
    replicas: int
    mean: np.ndarray
    cov: np.ndarray
    stderr: np.ndarray


@dataclass
class EnsembleSummary:
    """Per-checkpoint sample moments over R independent replicas.

    ``samples`` maps checkpoint step to the raw (R, d) integer positions
    when retention was requested.
    """

    params: ModelParams
    replicas: int
    seed: int
    checkpoints: list[CheckpointStats]
    samples: dict[int, np.ndarray] = field(default_factory=dict)

    def at(self, n: int) -> CheckpointStats:
        for cp in self.checkpoints:
            if cp.n == n:
                return cp
        raise KeyError(f"no checkpoint at n = {n}")


@dataclass
class _BlockSums:
    """Exact integer accumulators for one block of replicas.

    Integer sums make merging associative and order-insensitive exactly,
    so any partition of replicas over workers yields identical output.
    """

    replicas: int
    sum_x: np.ndarray  # (C, d) int64
    sum_xx: np.ndarray  # (C, d, d) int64
    samples: list[np.ndarray] | None  # per checkpoint (r, d) or None

    def merge(self, other: "_BlockSums") -> "_BlockSums":
        samples = None
        if self.samples is not None and other.samples is not None:
            samples = [np.vstack([a, b]) for a, b in zip(self.samples, other.samples)]
        return _BlockSums(
            replicas=self.replicas + other.replicas,
            sum_x=self.sum_x + other.sum_x,
            sum_xx=self.sum_xx + other.sum_xx,
            samples=samples,
        )


def _simulate_block(
    params: ModelParams,
    init: InitialSpec,
    n_steps: int,
    marks: list[int],
    seed: int,
    lo: int,
    hi: int,
    retain: bool,
) -> _BlockSums:
    """Lockstep-vectorized walk of replicas [lo, hi) with private streams.

    Each replica consumes exactly one uniform per step from its own
    generator, buffered in chunks step-major so that a step reads one
    contiguous row. A refill draws the chunks of up to _REFILL_BLOCK
    replicas into rows and transposes them into the buffer, which misses
    the cache far less than writing each replica's column in turn.

    The move inverts the exact one-step law base + (lam2/n) N, which is
    the two-branch law of the scalar sampler. Counts are K - 1 float64
    rows of cumulative counts M_k = N_0 + ... + N_k, exact below 2^53;
    the last colour is implied, N_(K-1) = n - M_(K-2), and the K counts
    are rebuilt only at checkpoints. Partial sum k is formed as
    acc_(k-1) + ((M_k - M_(k-1)) c + base_k), a cumsum of the law in its
    order, and the move is at most k exactly when it is >= u, so that
    test is added into M_k and the last partial sum is never formed.

    This is the reference rule "count the partial sums below u, cap at
    K - 1" whenever the float partial sums do not decrease, that is when
    every term fl(fl(c N_k) + base_k), k >= 1, is >= 0. That is trivial
    for c >= 0; for c < 0 the exact minimum over N_k <= n is
    ((1 - theta)(1 - p) + theta p (K - 1)) / (K - 1) >= 0. Over n < 10^6
    the float term at N_k = n is negative (-1 ulp) only at theta = 1,
    p = 0, where N_k = n is reachable only at n = 1 and the term there is
    exactly 0: the first colour's weight is exactly 0 from step 2 on.
    """
    nrep = hi - lo
    K, d = params.K, params.d
    gens = [np.random.Generator(np.random.PCG64(_Words(w))) for w in _stream_words(seed, lo, hi)]
    chunk = max(64, min(n_steps, _BUFFER_BUDGET // max(nrep, 1), 4096))
    buf = np.empty((chunk, nrep))
    block = np.empty((min(nrep, _REFILL_BLOCK), chunk))
    col = chunk  # forces an initial refill
    remaining = n_steps

    def next_row():
        nonlocal col, remaining, chunk
        if col >= chunk:
            chunk = min(chunk, remaining)
            for r0 in range(0, nrep, _REFILL_BLOCK):
                part = block[: min(_REFILL_BLOCK, nrep - r0), :chunk]
                for r, row in enumerate(part, r0):
                    gens[r].random(out=row)
                buf[:chunk, r0 : r0 + len(part)] = part.T
            col = 0
        u = buf[col]
        col += 1
        remaining -= 1
        return u

    cum = np.zeros((K - 1, nrep))
    rows = list(cum)
    base = base_step_rates(params).tolist()
    lam2 = params.second_eigenvalue
    acc, tmp = np.empty(nrep), np.empty(nrep)
    hit = np.empty(nrep, dtype=bool)

    sum_x = np.zeros((len(marks), d), dtype=np.int64)
    sum_xx = np.zeros((len(marks), d, d), dtype=np.int64)
    samples: list[np.ndarray] | None = [None] * len(marks) if retain else None
    pending = iter(enumerate(marks))
    ci, next_mark = next(pending, (None, None))

    def record() -> None:
        nonlocal ci, next_mark
        counts = np.diff(cum, axis=0, prepend=0.0, append=float(next_mark))
        pos = (counts[0 : 2 * d : 2] - counts[1 : 2 * d : 2]).astype(np.int64).T
        sum_x[ci] += pos.sum(axis=0)
        sum_xx[ci] += pos.T @ pos
        if samples is not None:
            samples[ci] = pos.copy()
        ci, next_mark = next(pending, (None, None))

    # first step from the initial distribution
    cum0 = np.cumsum(init.distribution(params))
    first = np.minimum(np.searchsorted(cum0, next_row(), side="right"), K - 1)
    cum[:] = first <= np.arange(K - 1)[:, None]
    if next_mark == 1:
        record()

    for n in range(1, n_steps):
        c = lam2 / n
        u = next_row()
        np.multiply(rows[0], c, out=acc)
        np.add(acc, base[0], out=acc)
        np.greater_equal(acc, u, out=hit)
        for k in range(1, K - 1):
            np.subtract(rows[k], rows[k - 1], out=tmp)
            np.multiply(tmp, c, out=tmp)
            np.add(tmp, base[k], out=tmp)
            np.add(acc, tmp, out=acc)
            np.add(rows[k - 1], hit, out=rows[k - 1])
            np.greater_equal(acc, u, out=hit)
        np.add(rows[-1], hit, out=rows[-1])
        if next_mark == n + 1:
            record()

    return _BlockSums(replicas=nrep, sum_x=sum_x, sum_xx=sum_xx, samples=samples)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _process_count(workers: int, replicas: int, cpus: int) -> int:
    """Worker processes to start: the request, capped by replicas and CPUs."""
    return max(1, min(int(workers), replicas, cpus))


_pool = None  # (pid that made it, workers, executor): the process's one worker pool


@atexit.register
def _drop_pool() -> None:
    """Forget the worker pool, shutting it down if this process made it."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown()
    _pool = None


def _run_blocks(
    params: ModelParams,
    init: InitialSpec,
    n_steps: int,
    marks: list[int],
    replicas: int,
    seed: int,
    workers: int,
    retain: bool,
) -> _BlockSums:
    if replicas * n_steps**2 >= 2**62:
        raise ValueError("replicas * n_steps^2 too large for exact integer accumulation")
    workers = _process_count(workers, replicas, _usable_cpus())
    bounds = np.linspace(0, replicas, workers + 1, dtype=int)
    tasks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    if len(tasks) == 1:
        return _simulate_block(params, init, n_steps, marks, seed, 0, replicas, retain)
    global _pool
    args = (params, init, n_steps, marks, seed)
    for retry in (False, True):
        # a forked child, or a call that needs more workers, makes a new pool
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < len(tasks):
            _drop_pool()
            _pool = (os.getpid(), len(tasks), concurrent.futures.ProcessPoolExecutor(len(tasks)))
        try:
            futures = [_pool[2].submit(_simulate_block, *args, lo, hi, retain) for lo, hi in tasks]
            return functools.reduce(_BlockSums.merge, [f.result() for f in futures])
        except concurrent.futures.BrokenExecutor:
            # a worker died; blocks are pure, so they run once more on a fresh pool
            _drop_pool()
            if retry:
                raise


def run_ensemble(
    params: ModelParams,
    init: InitialSpec,
    n_steps: int,
    checkpoints,
    replicas: int,
    seed: int,
    workers: int = 1,
    retain_samples: bool = False,
) -> EnsembleSummary:
    """Simulate R independent walks and summarize positions at checkpoints.

    Deterministic in (seed, params, replicas, checkpoints) regardless of
    ``workers``, which is capped at the usable CPU count. An empty
    checkpoint list records the final step only.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas for a sample covariance")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    marks = sorted(set(int(c) for c in checkpoints)) or [n_steps]
    if marks[0] < 1 or marks[-1] > n_steps:
        raise ValueError(f"checkpoints must lie in [1, {n_steps}]")
    sums = _run_blocks(params, init, n_steps, marks, replicas, seed, workers, retain_samples)
    stats = []
    for ci, n in enumerate(marks):
        mean = sums.sum_x[ci] / replicas
        cov = (sums.sum_xx[ci] - replicas * np.outer(mean, mean)) / (replicas - 1)
        stderr = np.sqrt(np.maximum(np.diag(cov), 0.0) / replicas)
        stats.append(CheckpointStats(n=n, replicas=replicas, mean=mean, cov=cov, stderr=stderr))
    samples = dict(zip(marks, sums.samples)) if sums.samples is not None else {}
    return EnsembleSummary(params=params, replicas=replicas, seed=seed, checkpoints=stats, samples=samples)


def scaling_exponent(summary: EnsembleSummary) -> tuple[float, float]:
    """Slope of log trace-covariance against log n, with its stderr.

    Needs at least three checkpoints spanning two decades. The slope
    estimates twice the growth exponent of the position fluctuations:
    1 in the diffusive regime, 2*second_eigenvalue beyond the boundary.
    """
    ns = np.array([cp.n for cp in summary.checkpoints], dtype=float)
    traces = np.array([np.trace(cp.cov) for cp in summary.checkpoints])
    if len(ns) < 3:
        raise ValueError("need at least 3 checkpoints")
    if ns.max() / ns.min() < 100.0:
        raise ValueError("checkpoints must span at least two decades")
    if np.any(traces <= 0.0):
        raise ValueError("degenerate (zero-variance) checkpoint")
    x = np.log(ns)
    y = np.log(traces)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = y - y.mean() - slope * xc
    dof = len(ns) - 2
    stderr = float(np.sqrt(resid @ resid / dof / (xc @ xc))) if dof > 0 else 0.0
    return slope, stderr


def cross_time_covariance(
    params: ModelParams,
    init: InitialSpec,
    s: float,
    t: float,
    n_scale: int,
    replicas: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Empirical Cov(S_(s*n), S_(t*n)) / n at n = n_scale, diffusive regime."""
    if not 0.0 < s <= t:
        raise ValueError("need 0 < s <= t")
    theory._require_diffusive(params)
    ns, nt = int(s * n_scale), int(t * n_scale)
    summary = run_ensemble(
        params, init, nt, sorted({ns, nt}), replicas, seed,
        workers=workers, retain_samples=True,
    )
    xs = summary.samples[ns]
    xt = summary.samples[nt]
    R = summary.replicas
    sxy = (xs.T @ xt).astype(float)
    cross = (sxy - R * np.outer(xs.mean(axis=0), xt.mean(axis=0))) / (R - 1)
    return cross / n_scale


@dataclass
class ShapeStats:
    """Skewness / excess kurtosis of one coordinate with asymptotic SEs."""

    skewness: float
    excess_kurtosis: float
    skew_se: float
    kurt_se: float
    degenerate: bool

    @property
    def skew_z(self) -> float:
        return self.skewness / self.skew_se

    @property
    def kurt_z(self) -> float:
        return self.excess_kurtosis / self.kurt_se


def gaussianity_check(samples: np.ndarray) -> list[ShapeStats]:
    """Per-coordinate shape statistics of retained checkpoint samples.

    Standard errors are the Gaussian asymptotics sqrt(6/R) and
    sqrt(24/R). Coordinates with zero variance are flagged degenerate.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("expected an (R, d) sample array")
    R = samples.shape[0]
    if R < 1000:
        raise ValueError("need at least 1000 samples for stable shape statistics")
    out = []
    skew_se = np.sqrt(6.0 / R)
    kurt_se = np.sqrt(24.0 / R)
    for j in range(samples.shape[1]):
        x = samples[:, j] - samples[:, j].mean()
        m2 = float(np.mean(x**2))
        if m2 <= 0.0:
            out.append(ShapeStats(np.nan, np.nan, skew_se, kurt_se, True))
            continue
        skew = float(np.mean(x**3)) / m2**1.5
        kurt = float(np.mean(x**4)) / m2**2 - 3.0
        out.append(ShapeStats(skew, kurt, skew_se, kurt_se, False))
    return out


@dataclass
class VerifyBudget:
    """Replica/step budget for one verification experiment.

    A field left None takes the tag's default from ``_VERIFIERS``.
    """

    n_steps: int | None = None
    replicas: int | None = None
    seed: int = 20240901
    checkpoints: list[int] | None = None
    init: InitialSpec = field(default_factory=InitialSpec.uniform)
    workers: int = 1
    cross_time: tuple[float, float, int] | None = None
    tolerance_se: float = 4.0
    tolerance_rel: float | None = None


def default_budget(tag: str, **overrides) -> VerifyBudget:
    """Budget matching the acceptance gates for ``tag``: the keyword
    overrides, with every field they leave None taken from the tag's
    ``_VERIFIERS`` entry."""
    if tag not in _VERIFIERS:
        raise ValueError(f"unknown verification tag {tag!r}")
    budget = VerifyBudget(**overrides)
    defaults = _VERIFIERS[tag][2]
    return dataclasses.replace(budget, **{k: v for k, v in defaults.items() if getattr(budget, k) is None})


@dataclass
class VerificationReport:
    """Outcome of one theorem-level check.

    Discrepancies are reported in standard-error units or relative terms
    so they can be re-judged under a different gate. Statistical gates
    are per-scalar, two-sided, with no family-wise correction.
    """

    tag: str
    passed: bool
    theoretical: dict
    empirical: dict
    discrepancy: dict
    tolerance: dict
    config: dict

    def as_dict(self) -> dict:
        return json_ready(dataclasses.asdict(self))


def json_ready(obj):
    """Copy of nested dicts and sequences with numpy values as plain Python."""
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return json_ready(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _verify_lln(params: ModelParams, budget: VerifyBudget) -> dict:
    n = budget.n_steps
    summary = run_ensemble(
        params, budget.init, n, [n], budget.replicas, budget.seed, workers=budget.workers
    )
    cp = summary.at(n)
    limit = theory.lln_limit(params)
    emp = cp.mean / n
    se = cp.stderr / n
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, np.abs(emp - limit) / se, np.where(np.abs(emp - limit) < 1e-12, 0.0, np.inf))
    return dict(
        passed=bool(np.all(z <= budget.tolerance_se)),
        theoretical={"limit": limit},
        empirical={"mean_over_n": emp, "stderr": se},
        discrepancy={"se_units": z},
        tolerance={"se_units": budget.tolerance_se},
    )


def _verify_clt_diffusive(params: ModelParams, budget: VerifyBudget) -> dict:
    n = budget.n_steps
    R = budget.replicas
    summary = run_ensemble(
        params, budget.init, n, [n], R, budget.seed,
        workers=budget.workers, retain_samples=True,
    )
    cp = summary.at(n)
    th = theory.diffusive_covariance(params, 1.0, 1.0)
    emp = cp.cov / n
    # asymptotic SE of a Gaussian sample covariance entry
    se = np.sqrt((np.outer(np.diag(th), np.diag(th)) + th**2) / R)
    z = np.abs(emp - th) / np.where(se > 0, se, np.inf)
    cov_pass = bool(np.all(z <= budget.tolerance_se))

    shapes = gaussianity_check(summary.samples[n])
    shape_z = [(s.skew_z, s.kurt_z) for s in shapes]
    shape_pass = all(
        not s.degenerate and abs(s.skew_z) <= budget.tolerance_se and abs(s.kurt_z) <= budget.tolerance_se
        for s in shapes
    )

    s_time, t_time, n_scale = budget.cross_time
    cross_emp = cross_time_covariance(
        params, budget.init, s_time, t_time, n_scale, R, budget.seed + 1, workers=budget.workers
    )
    cross_th = theory.diffusive_covariance(params, s_time, t_time)
    cross_rel = float(np.max(np.abs(cross_emp - cross_th)) / np.max(np.abs(cross_th)))

    return dict(
        passed=cov_pass and shape_pass and cross_rel <= budget.tolerance_rel,
        theoretical={"covariance_over_n": th, "cross_time": cross_th},
        empirical={"covariance_over_n": emp, "cross_time": cross_emp,
                   "shape_z": shape_z},
        discrepancy={"covariance_se_units": z, "cross_time_rel": cross_rel},
        tolerance={"se_units": budget.tolerance_se, "cross_time_rel": budget.tolerance_rel},
    )


def _verify_clt_critical(params: ModelParams, budget: VerifyBudget) -> dict:
    if len(set(budget.checkpoints)) < 2:
        raise ValueError(f"clt-critical needs two distinct checkpoints, got {budget.checkpoints}")
    summary = run_ensemble(
        params, budget.init, budget.n_steps, budget.checkpoints, budget.replicas, budget.seed,
        workers=budget.workers,
    )
    th = float(np.trace(theory.critical_covariance(params, 1.0, 1.0)))
    ratios = {cp.n: float(np.trace(cp.cov) / (cp.n * np.log(cp.n))) for cp in summary.checkpoints}
    r_first, r_last = ratios[min(ratios)], ratios[max(ratios)]
    drift = abs(r_last / r_first - 1.0)
    offset = abs(r_last / th - 1.0)
    tol = budget.tolerance_rel
    return dict(
        passed=bool(drift <= tol and offset <= tol),
        theoretical={"trace_over_nlogn": th},
        empirical={"trace_over_nlogn": ratios},
        discrepancy={"between_checkpoints_rel": drift, "vs_theory_rel": offset},
        tolerance={"rel": tol},
    )


def _verify_superdiffusive(params: ModelParams, budget: VerifyBudget) -> dict:
    marks = budget.checkpoints
    if marks is None:
        first = max(1, min(100, budget.n_steps // 100))
        marks = [int(v) for v in np.geomspace(first, budget.n_steps, 7)]
    summary = run_ensemble(
        params, budget.init, budget.n_steps, marks, budget.replicas, budget.seed, workers=budget.workers
    )
    slope, se = scaling_exponent(summary)
    target = 2.0 * params.second_eigenvalue
    tol = budget.tolerance_rel
    return dict(
        passed=bool(abs(slope - target) <= tol),
        theoretical={"exponent": target},
        empirical={"exponent": slope, "exponent_se": se},
        discrepancy={"abs": abs(slope - target)},
        tolerance={"abs": tol},
    )


def _verify_moments(params: ModelParams, budget: VerifyBudget) -> dict:
    n = budget.n_steps
    R = budget.replicas
    r = params.second_eigenvalue
    summary = run_ensemble(
        params, budget.init, n, [n], R, budget.seed, workers=budget.workers
    )
    cp = summary.at(n)
    limit = theory.limit_moments(params, budget.init)
    scale = float(n) ** (2.0 * r)
    emp_second = cp.cov / scale
    rel = float(np.max(np.abs(emp_second - limit.second_moment)) / np.max(np.abs(limit.second_moment)))
    tol = budget.tolerance_rel

    # centered mean: E(S_n) from the exact recursion, scaled like L
    exact_mean = theory._mean_position(params, budget.init, n)
    mean_l = (cp.mean - exact_mean) / float(n) ** r
    se_l = cp.stderr / float(n) ** r
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_z = np.where(se_l > 0, np.abs(mean_l) / se_l, 0.0)
    mean_pass = bool(np.all(mean_z <= budget.tolerance_se))

    return dict(
        passed=bool(rel <= tol and mean_pass),
        theoretical={"second_moment": limit.second_moment, "mean": limit.mean},
        empirical={"second_moment": emp_second, "mean": mean_l, "mean_se": se_l},
        discrepancy={"second_moment_rel": rel, "mean_se_units": mean_z},
        tolerance={"second_moment_rel": tol, "mean_se_units": budget.tolerance_se},
    )


#: Per tag: the verifier, the regimes its claim is about and the default
#: budget, which fills every field a caller's VerifyBudget leaves None.
_VERIFIERS = {
    "lln": (_verify_lln, tuple(Regime), dict(n_steps=100_000, replicas=200)),
    "clt-diffusive": (
        _verify_clt_diffusive, (Regime.DIFFUSIVE, Regime.NO_TRANSITION),
        dict(n_steps=10_000, replicas=10_000, cross_time=(1.0, 4.0, 10_000), tolerance_rel=0.10),
    ),
    "clt-critical": (
        _verify_clt_critical, (Regime.CRITICAL,),
        dict(n_steps=10_000, replicas=4_000, checkpoints=[1_000, 10_000], tolerance_rel=0.15),
    ),
    "superdiffusive": (
        _verify_superdiffusive, (Regime.SUPERDIFFUSIVE,),
        dict(n_steps=100_000, replicas=2_000, tolerance_rel=0.10),
    ),
    "moments": (
        _verify_moments, (Regime.SUPERDIFFUSIVE,),
        dict(n_steps=100_000, replicas=10_000, tolerance_rel=0.05),
    ),
}


def verify(tag: str, params: ModelParams, budget: VerifyBudget | None = None) -> VerificationReport:
    """Run the verification experiment for ``tag`` and report the verdict.

    Tags: lln, clt-diffusive, clt-critical, superdiffusive, moments.
    Fields of ``budget`` left None take the tag's defaults. Raises
    RegimeMismatchError when the parameters do not belong to the regime
    the tag is about.
    """
    budget = default_budget(tag, **vars(budget or VerifyBudget()))
    if tag in ("clt-critical", "superdiffusive") and budget.checkpoints is not None:
        # these ensembles run to their last checkpoint, whatever n_steps says
        budget = dataclasses.replace(budget, n_steps=max(budget.checkpoints))
    verifier, regimes, _ = _VERIFIERS[tag]
    regime = theory.classify_regime(params)
    if regime not in regimes:
        allowed = " or ".join(r.value for r in regimes)
        raise RegimeMismatchError(f"tag {tag} needs a {allowed} point, got {regime.value}")
    config = {
        "params": {"d": params.d, "lazy": params.lazy, "p": params.p, "theta": params.theta},
        "n_steps": budget.n_steps,
        "replicas": budget.replicas,
        "seed": budget.seed,
        "init": budget.init.kind,
    }
    return VerificationReport(tag=tag, config=config, **verifier(params, budget))
