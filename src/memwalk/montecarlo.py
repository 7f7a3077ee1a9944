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
workers, because moment accumulators are exact integer sums, and no matter
how a worker splits its block into tiles. A tile runs _TILE_UNIT * (6K - 8)
replicas together (at most _TILE_MAX), with uniforms drawn _CHUNK steps at
a time, so a process holds at most one _CHUNK x _TILE_MAX float64 buffer
(28 MiB; 8 MiB at K = 2) and one refill block of at most _REFILL_DOUBLES
float64 (128 KiB), whatever the replica count. Pooled calls
share one worker pool per process, forked by the first such call and kept
until exit, so module state patched after that fork does not reach it.
Each worker ends when the process that made it ends, killed or not.
"""

from __future__ import annotations

import atexit
import dataclasses
import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import theory
from .model import InitialSpec, ModelParams, _checkpoint_marks, _cuts, base_step_rates, counts_to_position
from .theory import Regime

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Steps of uniforms drawn per refill of the buffer.
_CHUNK = 512
#: A tile runs _TILE_UNIT * (6K - 8) replicas together, at most _TILE_MAX.
_TILE_UNIT = 512
_TILE_MAX = 7_168
#: Uniforms in a refill block, 128 KiB of float64, which stays in L2 while it is
#: transposed into the buffer: _REFILL_DOUBLES // chunk replicas are drawn together.
_REFILL_DOUBLES = 16_384
#: Gate, in standard errors, of every per-scalar check in the verifiers.
_TOLERANCE_SE = 4.0
#: The other gates: clt-diffusive's cross-time and clt-critical's ratios,
#: relative; superdiffusive's exponent, absolute; moments' second moment, relative.
_TOLERANCE_CROSS_TIME = 0.10
_TOLERANCE_CRITICAL = 0.15
_TOLERANCE_EXPONENT = 0.10
_TOLERANCE_MOMENT = 0.05


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


class _SeedRows(ISeedSequence):
    """Seed source that hands each PCG64 seeded from it the next row of precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self.rows)


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


def _refill(tile: np.ndarray, block: np.ndarray, gens: list, size: int) -> None:
    """Draw the next ``size`` uniforms of stream ``gens[r]`` into rows [0, size) of column r,
    len(block) streams at a time."""
    w, rows = len(gens), len(block)
    for r0 in range(0, w, rows):
        part = block[: min(rows, w - r0), :size]
        for r, row in enumerate(part, r0):
            gens[r].random(out=row)
        tile[:size, r0 : r0 + len(part)] = part.T


def _simulate_block(
    params: ModelParams,
    init: InitialSpec,
    marks: list[int],
    seed: int,
    lo: int,
    hi: int,
    retain: bool,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray] | None]:
    """Lockstep-vectorized walk of replicas [lo, hi) to step marks[-1] with private streams.

    Returns the exact int64 sums of the positions and of their outer
    products at each mark, of shapes (C, d) and (C, d, d), and, when
    ``retain`` is set, the (hi - lo, d) int64 positions at each mark.

    The range runs as the fewest tiles of near-equal width at most
    min(_TILE_UNIT * (6K - 8), _TILE_MAX): a step costs 6K - 8 numpy
    calls, so wider tiles at larger K keep the per-call overhead small.
    Each tile seeds its own streams, from one seed source that hands each
    PCG64 the next row of the tile's stream words, takes the first step
    and walks mark to mark, adding the positions at each mark into the
    block's integer sums and retained rows. One (min(n, _CHUNK) x width) buffer and one
    refill block serve every tile. Replica streams are independent, so
    the tiling changes no draw.

    Each replica consumes exactly one uniform per step from its own
    generator, buffered in chunks of _CHUNK steps, step-major so that a
    step reads one contiguous row. A refill draws the chunks of
    _REFILL_DOUBLES // chunk replicas at a time (capped by the tile
    width) into rows and transposes them into the buffer, which misses the
    cache far less than writing each replica's column in turn: 32 replicas
    at the full 512-step chunk, 65 at 250 steps. The buffer is
    min(n, _CHUNK) x width float64, at most 8 MiB at K = 2 and 28 MiB at
    any K; the refill block is at most 128 KiB whatever the chunk, so that
    it stays in L2 between the draws and the transpose that reads it back.
    The step loop's row views, ufuncs and operands are bound once per
    tile, so a step runs its 6K - 8 numpy calls with little Python around
    them.

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
    tiles = -(-nrep // min(_TILE_UNIT * (6 * K - 8), _TILE_MAX))
    edges = [lo + nrep * t // tiles for t in range(tiles + 1)]
    width = -(-nrep // tiles)
    chunk = min(marks[-1], _CHUNK)
    buf = np.empty((chunk, width))
    block = np.empty((min(width, _REFILL_DOUBLES // chunk), chunk))
    # 0-d array operands: a Python float or numpy scalar is converted on every ufunc call
    base = [np.array(b) for b in base_step_rates(params)]
    base0, lam2 = base[0], params.second_eigenvalue
    c = np.empty(())
    cuts = np.array(_cuts(init.distribution(params)))[:, None]  # the first step's, as initial_step reads them
    multiply, add, subtract, greater_equal = np.multiply, np.add, np.subtract, np.greater_equal
    Generator, PCG64 = np.random.Generator, np.random.PCG64

    sum_x = np.zeros((len(marks), d), dtype=np.int64)
    sum_xx = np.zeros((len(marks), d, d), dtype=np.int64)
    samples = [np.empty((nrep, d), dtype=np.int64) for _ in marks] if retain else None

    for a, b in zip(edges, edges[1:]):
        w = b - a
        seeds = _SeedRows(_stream_words(seed, a, b))
        gens = [Generator(PCG64(seeds)) for _ in range(w)]
        tile = buf[:, :w]
        us = list(tile)
        cum = np.zeros((K - 1, w))
        rows = list(cum)
        first_row, last_row = rows[0], rows[-1]
        # (M_k, M_(k-1), base_k) of the colours k = 1 .. K - 2; none at K = 2
        inner = list(zip(rows[1:], rows, base[1:-1]))
        acc, tmp = np.empty(w), np.empty(w)
        hit = np.empty(w, dtype=bool)

        # first step: the move is at most k exactly when cut k > u, so a tie moves past the cut
        _refill(tile, block, gens, chunk)
        cum[:] = cuts > us[0]

        # walk on from the previous mark (from the first step, for the first mark), then record
        for ci, (start, mark) in enumerate(zip([1, *marks], marks)):
            for n in range(start, mark):
                col = n % chunk
                if col == 0:
                    _refill(tile, block, gens, min(chunk, marks[-1] - n))
                u = us[col]
                c.fill(lam2 / n)
                multiply(first_row, c, acc)
                add(acc, base0, acc)
                greater_equal(acc, u, hit)
                for row, below, base_k in inner:
                    subtract(row, below, tmp)
                    multiply(tmp, c, tmp)
                    add(tmp, base_k, tmp)
                    add(acc, tmp, acc)
                    add(below, hit, below)
                    greater_equal(acc, u, hit)
                add(last_row, hit, last_row)
            counts = np.diff(cum, axis=0, prepend=0.0, append=float(mark))
            pos = counts_to_position(counts.T).astype(np.int64)
            sum_x[ci] += pos.sum(axis=0)
            sum_xx[ci] += pos.T @ pos
            if samples is not None:
                samples[ci][a - lo : b - lo] = pos
        del gens, seeds  # free these generators before the next tile makes its own

    return sum_x, sum_xx, samples


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _process_count(workers: int, replicas: int, cpus: int) -> int:
    """Worker processes to start: the request, capped by replicas and CPUs."""
    return min(int(workers), replicas, cpus)


_pool = None  # (pid that made it, workers, executor): the process's one worker pool


def _end_with_parent() -> None:
    """Pool worker initializer: exit as soon as the parent process is gone."""
    import multiprocessing.connection
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@atexit.register
def _drop_pool() -> None:
    """Forget the worker pool, shutting it down if this process made it."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown()
    _pool = None


def _check_run(replicas: int, workers: int, n_steps: int, checkpoints) -> list[int]:
    """The marks of a run, after the checks that ``run_ensemble`` makes before any walk."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas for a sample covariance")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    marks = _checkpoint_marks(n_steps, checkpoints)
    if replicas * marks[-1] ** 2 >= 2**62:
        size = f"{replicas} * {marks[-1]}^2"
        raise ValueError(f"replicas * n_steps^2 = {size} is not below 2^62, the limit of exact int64 sums")
    return marks


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
    ``workers``, which is capped at the usable CPU count. The walks stop
    at the last checkpoint, or at n_steps when the list is empty.
    """
    marks = _check_run(replicas, workers, n_steps, checkpoints)
    workers = _process_count(workers, replicas, _usable_cpus())
    bounds = np.linspace(0, replicas, workers + 1, dtype=int)
    tasks = list(zip(bounds, bounds[1:]))
    args = (params, init, marks, seed)
    if len(tasks) == 1:
        blocks = [_simulate_block(*args, 0, replicas, retain_samples)]
    else:
        import concurrent.futures
        global _pool
        for retry in (False, True):
            # a forked child, or a call that needs more workers, makes a new pool
            if _pool is None or _pool[0] != os.getpid() or _pool[1] < len(tasks):
                _drop_pool()
                executor = concurrent.futures.ProcessPoolExecutor(len(tasks), initializer=_end_with_parent)
                _pool = (os.getpid(), len(tasks), executor)
            try:
                futures = [_pool[2].submit(_simulate_block, *args, lo, hi, retain_samples) for lo, hi in tasks]
                blocks = [f.result() for f in futures]
                break
            except concurrent.futures.BrokenExecutor:
                # a worker died; blocks are pure, so they run once more on a fresh pool
                _drop_pool()
                if retry:
                    raise
    # integer sums: any partition of the replicas over blocks gives the same totals
    sum_x, sum_xx = sum(b[0] for b in blocks), sum(b[1] for b in blocks)
    stats = []
    for ci, n in enumerate(marks):
        mean = sum_x[ci] / replicas
        cov = (sum_xx[ci] - replicas * np.outer(mean, mean)) / (replicas - 1)
        stderr = np.sqrt(np.maximum(np.diag(cov), 0.0) / replicas)
        stats.append(CheckpointStats(n=n, replicas=replicas, mean=mean, cov=cov, stderr=stderr))
    # retained rows in block order, which is replica order
    per_mark = zip(*(b[2] for b in blocks)) if retain_samples else []
    samples = {n: np.vstack(rows) for n, rows in zip(marks, per_mark)}
    return EnsembleSummary(params=params, replicas=replicas, seed=seed, checkpoints=stats, samples=samples)


def _require_scaling_span(marks) -> None:
    """Raise unless the distinct ``marks`` are at least 3 and span two decades."""
    if len(set(marks)) < 3:
        raise ValueError("need at least 3 checkpoints")
    if max(marks) < 100 * min(marks):
        raise ValueError("checkpoints must span at least two decades")


def scaling_exponent(summary: EnsembleSummary) -> tuple[float, float]:
    """Slope of log trace-covariance against log n, with its stderr.

    Needs at least three checkpoints spanning two decades. The slope
    estimates twice the growth exponent of the position fluctuations:
    1 in the diffusive regime, 2*second_eigenvalue beyond the boundary.
    """
    ns = [cp.n for cp in summary.checkpoints]
    _require_scaling_span(ns)
    traces = np.array([np.trace(cp.cov) for cp in summary.checkpoints])
    if np.any(traces <= 0.0):
        raise ValueError("degenerate (zero-variance) checkpoint")
    x = np.log(ns)
    y = np.log(traces)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = y - y.mean() - slope * xc
    stderr = float(np.sqrt(resid @ resid / (len(ns) - 2) / (xc @ xc)))
    return slope, stderr


def scaling_checkpoints(n_steps: int, count: int) -> list[int]:
    """Up to ``count`` geometric checkpoints to n_steps; from n_steps = 100 on they span two decades."""
    _checkpoint_marks(n_steps, [])  # n_steps >= 1, before numpy reads it
    first = max(1, min(100, n_steps // 100))
    return sorted(set(int(v) for v in np.geomspace(first, n_steps, count)))


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
    theory.diffusive_covariance(params, s, t)  # its domain, before any walk
    ns, nt = _cross_time_marks(s, t, n_scale)
    summary = run_ensemble(params, init, nt, [ns, nt], replicas, seed, workers=workers, retain_samples=True)
    return _cross_time_estimate(summary.samples[ns], summary.samples[nt], n_scale)


def _cross_time_marks(s: float, t: float, n_scale: int) -> tuple[int, int]:
    """The steps (floor(s * n_scale), floor(t * n_scale)) of a cross-time estimate, the first at least 1."""
    ns, nt = int(s * n_scale), int(t * n_scale)
    if ns < 1:
        raise ValueError(f"s * n_scale = {s} * {n_scale} is below 1, the first step of a walk")
    return ns, nt


def _cross_time_estimate(xs: np.ndarray, xt: np.ndarray, n_scale: int) -> np.ndarray:
    """Sample Cov(S_s, S_t) / n_scale over the (R, d) positions xs and xt of the same R walks."""
    R = len(xs)
    sxy = (xs.T @ xt).astype(float)
    return (sxy - R * np.outer(xs.mean(axis=0), xt.mean(axis=0))) / (R - 1) / n_scale


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


def _require_shape_samples(R: int) -> None:
    if R < 1000:
        raise ValueError("need at least 1000 samples for stable shape statistics")


def gaussianity_check(samples: np.ndarray) -> list[ShapeStats]:
    """Per-coordinate shape statistics of retained checkpoint samples.

    Standard errors are the Gaussian asymptotics sqrt(6/R) and
    sqrt(24/R). Coordinates with zero variance are flagged degenerate.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("expected an (R, d) sample array")
    R = samples.shape[0]
    _require_shape_samples(R)
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

    n_steps and replicas left None take the tag's defaults from ``_VERIFIERS``.
    Left None, checkpoints are clt-critical's [n_steps // 10, n_steps] and superdiffusive's
    scaling_checkpoints(n_steps, 7), and cross_time (s, t, n_scale) is clt-diffusive's (1.0, 4.0, n_steps).
    """

    n_steps: int | None = None
    replicas: int | None = None
    seed: int = 20240901
    checkpoints: list[int] | None = None
    init: InitialSpec = field(default_factory=InitialSpec.uniform)
    workers: int = 1
    cross_time: tuple[float, float, int] | None = None


def default_budget(tag: str, **overrides) -> VerifyBudget:
    """Budget matching the acceptance gates for ``tag``: the keyword
    overrides, with n_steps and replicas, where they leave them None, taken
    from the tag's ``_VERIFIERS`` entry."""
    if tag not in _VERIFIERS:
        raise ValueError(f"unknown verification tag {tag!r}")
    budget = VerifyBudget(**overrides)
    defaults = _VERIFIERS[tag][1]
    return dataclasses.replace(budget, **{k: v for k, v in defaults.items() if getattr(budget, k) is None})


@dataclass
class VerificationReport:
    """Outcome of one theorem-level check.

    Discrepancies are reported in standard-error units or relative terms
    so they can be re-judged under a different gate. A tag's gates give
    one (value, tolerance) pair per key, and ``verify`` writes their halves
    into ``discrepancy`` and ``tolerance`` and sets ``passed``, True exactly
    when every entry of every value is at most its tolerance; a NaN entry
    fails. Statistical gates are per-scalar, two-sided, with no
    family-wise correction.
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
    """Copy of nested dicts and sequences with numpy values as plain Python
    and every non-finite float as None, so it dumps as strict JSON."""
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return json_ready(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def _se_units(diff, se) -> np.ndarray:
    """|diff| / se; where se is 0, 0 if |diff| < 1e-12 and inf otherwise."""
    diff = np.abs(diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se > 0, diff / se, np.where(diff < 1e-12, 0.0, np.inf))


def _rel(emp, th) -> float:
    """max |emp - th| / max |th|, with _se_units' rule where max |th| is 0."""
    return float(_se_units(np.max(np.abs(emp - th)), np.max(np.abs(th))))


def _verify_lln(params: ModelParams, budget: VerifyBudget):
    n = budget.n_steps
    limit = theory.lln_limit(params)  # raises on degenerate parameters before any walk

    def gates(summary):
        cp = summary.at(n)
        emp, se = cp.mean / n, cp.stderr / n
        pairs = {"se_units": (_se_units(emp - limit, se), _TOLERANCE_SE)}
        return {"limit": limit}, {"mean_over_n": emp, "stderr": se}, pairs

    return [(budget.seed, n, [n], False)], gates


def _verify_clt_diffusive(params: ModelParams, budget: VerifyBudget):
    n = budget.n_steps
    R = budget.replicas
    s_time, t_time, n_scale = budget.cross_time or (1.0, 4.0, n)
    th = theory.diffusive_covariance(params, 1.0, 1.0)
    cross_th = theory.diffusive_covariance(params, s_time, t_time)
    _require_shape_samples(R)
    ns, nt = _cross_time_marks(s_time, t_time, n_scale)

    def gates(cross, summary):
        cross_emp = _cross_time_estimate(cross.samples[ns], cross.samples[nt], n_scale)
        emp = summary.at(n).cov / n
        # asymptotic SE of a Gaussian sample covariance entry
        se = np.sqrt((np.outer(np.diag(th), np.diag(th)) + th**2) / R)
        # a degenerate coordinate's shape reads NaN, which fails
        shape_z = [(s.skew_z, s.kurt_z) for s in gaussianity_check(summary.samples[n])]
        pairs = {"covariance_se_units": (_se_units(emp - th, se), _TOLERANCE_SE),
                 "shape_se_units": (np.abs(shape_z), _TOLERANCE_SE),
                 "cross_time_rel": (_rel(cross_emp, cross_th), _TOLERANCE_CROSS_TIME)}
        return ({"covariance_over_n": th, "cross_time": cross_th},
                {"covariance_over_n": emp, "cross_time": cross_emp, "shape_z": shape_z}, pairs)

    return [(budget.seed + 1, nt, [ns, nt], True), (budget.seed, n, [n], True)], gates


def _verify_clt_critical(params: ModelParams, budget: VerifyBudget):
    n = budget.n_steps
    th = float(np.trace(theory.critical_covariance(params, 1.0, 1.0)))
    if budget.checkpoints is None and n < 20:
        raise ValueError(f"clt-critical needs n_steps of at least 20, so that n_steps // 10 >= 2, got {n}")
    marks = [n // 10, n] if budget.checkpoints is None else budget.checkpoints
    if len(set(marks)) < 2:
        raise ValueError(f"clt-critical needs two distinct checkpoints, got {marks}")
    if min(marks) < 2:
        raise ValueError(f"clt-critical needs checkpoints of at least 2, where n log n > 0, got {marks}")

    def gates(summary):
        ratios = {cp.n: float(np.trace(cp.cov) / (cp.n * np.log(cp.n))) for cp in summary.checkpoints}
        r_first, r_last = ratios[min(ratios)], ratios[max(ratios)]
        pairs = {"between_checkpoints_rel": (_rel(r_last, r_first), _TOLERANCE_CRITICAL),
                 "vs_theory_rel": (_rel(r_last, th), _TOLERANCE_CRITICAL)}
        return {"trace_over_nlogn": th}, {"trace_over_nlogn": ratios}, pairs

    return [(budget.seed, n, marks, False)], gates


def _verify_superdiffusive(params: ModelParams, budget: VerifyBudget):
    theory._require_regime(params, (Regime.SUPERDIFFUSIVE,), "the superdiffusive exponent")
    marks = scaling_checkpoints(budget.n_steps, 7) if budget.checkpoints is None else budget.checkpoints
    _require_scaling_span(marks)
    target = 2.0 * params.second_eigenvalue

    def gates(summary):
        slope, se = scaling_exponent(summary)
        pairs = {"abs": (abs(slope - target), _TOLERANCE_EXPONENT)}
        return {"exponent": target}, {"exponent": slope, "exponent_se": se}, pairs

    return [(budget.seed, budget.n_steps, marks, False)], gates


def _verify_moments(params: ModelParams, budget: VerifyBudget):
    n = budget.n_steps
    r = params.second_eigenvalue
    limit = theory.limit_moments(params, budget.init)

    def gates(summary):
        cp = summary.at(n)
        emp_second = cp.cov / float(n) ** (2.0 * r)
        # centered mean: E(S_n) from the exact recursion, scaled like L
        exact_mean = theory._moments_at(params, budget.init, [n]).mean_position[0]
        mean_l = (cp.mean - exact_mean) / float(n) ** r
        se_l = cp.stderr / float(n) ** r
        pairs = {"second_moment_rel": (_rel(emp_second, limit.second_moment), _TOLERANCE_MOMENT),
                 "mean_se_units": (_se_units(mean_l, se_l), _TOLERANCE_SE)}
        return ({"second_moment": limit.second_moment, "mean": limit.mean},
                {"second_moment": emp_second, "mean": mean_l, "mean_se": se_l}, pairs)

    return [(budget.seed, n, [n], False)], gates


CHECKPOINT_TAGS = ("clt-critical", "superdiffusive")  # the tags whose ensembles read checkpoints

#: Per tag: the verifier and the default n_steps and replicas, which fill those a caller's
#: VerifyBudget leaves None. A verifier reads its theory reference and checks its marks and
#: sizes, raising before any walk, then returns (ensembles, gates): ensembles lists (seed,
#: n_steps, marks, retain) in walk order, and gates(*summaries) returns the theoretical and
#: empirical dicts and one (value, tolerance) pair per gate key, the tolerance read from the
#: _TOLERANCE_* gates above. Only verify walks, and it writes the verdict and the discrepancy
#: and tolerance dicts. A tag's regimes are its theory reference's.
_VERIFIERS = {
    "lln": (_verify_lln, dict(n_steps=100_000, replicas=200)),
    "clt-diffusive": (_verify_clt_diffusive, dict(n_steps=10_000, replicas=10_000)),
    "clt-critical": (_verify_clt_critical, dict(n_steps=10_000, replicas=4_000)),
    "superdiffusive": (_verify_superdiffusive, dict(n_steps=100_000, replicas=2_000)),
    "moments": (_verify_moments, dict(n_steps=100_000, replicas=10_000)),
}


def verify(tag: str, params: ModelParams, budget: VerifyBudget | None = None) -> VerificationReport:
    """Run the verification experiment for ``tag`` and report the verdict.

    Tags: lln, clt-diffusive, clt-critical, superdiffusive, moments.
    Fields of ``budget`` left None take the tag's defaults. Raises
    RegimeMismatchError, before any walk, when the parameters lie outside
    the regimes of the tag's theory reference.
    """
    budget = default_budget(tag, **vars(budget or VerifyBudget()))
    for name, readers in (("checkpoints", CHECKPOINT_TAGS), ("cross_time", ("clt-diffusive",))):
        if getattr(budget, name) is not None and tag not in readers:
            raise ValueError(f"tag {tag} reads no {name}, got {getattr(budget, name)}")
    if budget.checkpoints is not None:
        # these ensembles run to their last checkpoint, whatever n_steps says;
        # an empty list is left to the verifier's own check
        budget = dataclasses.replace(budget, n_steps=max(budget.checkpoints, default=budget.n_steps))
    config = {
        "params": dataclasses.asdict(params),
        "n_steps": budget.n_steps,
        "replicas": budget.replicas,
        "seed": budget.seed,
        "init": budget.init.kind,
    }
    ensembles, gates = _VERIFIERS[tag][0](params, budget)
    for _, n, marks, _ in ensembles:  # every planned walk is checked before the first
        _check_run(budget.replicas, budget.workers, n, marks)
    summaries = [run_ensemble(params, budget.init, n, marks, budget.replicas, seed, workers=budget.workers,
                              retain_samples=retain) for seed, n, marks, retain in ensembles]
    theoretical, empirical, pairs = gates(*summaries)
    passed = all(np.all(np.less_equal(value, tolerance)) for value, tolerance in pairs.values())
    discrepancy = {k: value for k, (value, _) in pairs.items()}
    tolerance = {k: tol for k, (_, tol) in pairs.items()}
    return VerificationReport(tag=tag, passed=passed, theoretical=theoretical, empirical=empirical,
                              discrepancy=discrepancy, tolerance=tolerance, config=config)
