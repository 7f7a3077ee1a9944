"""Ensemble simulation and statistical verification.

Replicas are independent walks. Replica ``i`` of a run seeded with ``s``
draws its uniforms from a dedicated stream: PCG64 seeded with
``splitmix64(s + (i + 1) * 0x9E3779B97F4A7C15)``, one uniform per step,
consumed in step order. This derivation is part of the output contract:
results are bit-identical for a fixed (seed, params, replicas,
checkpoints) no matter how replicas are partitioned across workers,
because moment accumulators are exact integer sums.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np

from . import theory
from .model import InitialSpec, ModelParams, base_step_rates
from .theory import Regime, RegimeMismatchError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Upper bound on buffered uniforms per block (8M doubles = 64 MB).
_BUFFER_BUDGET = 8_000_000


def replica_stream_seed(seed: int, replica: int) -> int:
    """SplitMix64 mix of (seed, replica index) into a 64-bit stream seed."""
    z = (int(seed) + (replica + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


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
    generator; draws are buffered in chunks to amortize generator calls.
    The move is sampled by inverting the exact one-step law, which equals
    the two-branch law of the scalar sampler.
    """
    nrep = hi - lo
    K, d = params.K, params.d
    gens = [
        np.random.Generator(np.random.PCG64(replica_stream_seed(seed, i)))
        for i in range(lo, hi)
    ]
    chunk = max(64, min(n_steps, _BUFFER_BUDGET // max(nrep, 1), 4096))
    buf = np.empty((nrep, chunk))
    col = chunk  # forces an initial refill
    remaining = n_steps

    def next_column():
        nonlocal col, remaining, chunk
        if col >= chunk:
            chunk = min(chunk, remaining)
            for r in range(nrep):
                buf[r, :chunk] = gens[r].random(chunk)
            col = 0
        u = buf[:, col]
        col += 1
        remaining -= 1
        return u

    counts = np.zeros((nrep, K), dtype=np.int64)
    rows = np.arange(nrep)
    base = base_step_rates(params)
    lam2 = params.second_eigenvalue

    sum_x = np.zeros((len(marks), d), dtype=np.int64)
    sum_xx = np.zeros((len(marks), d, d), dtype=np.int64)
    samples: list[np.ndarray] | None = [None] * len(marks) if retain else None
    mark_at = {n: i for i, n in enumerate(marks)}

    def record(n: int) -> None:
        ci = mark_at.get(n)
        if ci is None:
            return
        pos = counts[:, 0 : 2 * d : 2] - counts[:, 1 : 2 * d : 2]
        sum_x[ci] += pos.sum(axis=0)
        sum_xx[ci] += pos.T @ pos
        if samples is not None:
            samples[ci] = pos.copy()

    # first step from the initial distribution
    cum0 = np.cumsum(init.distribution(params))
    idx = np.minimum(np.searchsorted(cum0, next_column(), side="right"), K - 1)
    counts[rows, idx] = 1
    record(1)

    for n in range(1, n_steps):
        law = base[None, :] + (lam2 / n) * counts
        np.cumsum(law, axis=1, out=law)
        u = next_column()
        idx = np.minimum((law < u[:, None]).sum(axis=1), K - 1)
        counts[rows, idx] += 1
        record(n + 1)

    return _BlockSums(replicas=nrep, sum_x=sum_x, sum_xx=sum_xx, samples=samples)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _process_count(workers: int, replicas: int, cpus: int) -> int:
    """Worker processes to start: the request, capped by replicas and CPUs."""
    return max(1, min(int(workers), replicas, cpus))


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
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        futures = [
            pool.submit(_simulate_block, params, init, n_steps, marks, seed, lo, hi, retain)
            for lo, hi in tasks
        ]
        parts = [f.result() for f in futures]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    return merged


def _finalize(
    params: ModelParams,
    marks: list[int],
    sums: _BlockSums,
    seed: int,
) -> EnsembleSummary:
    R = sums.replicas
    stats = []
    for ci, n in enumerate(marks):
        mean = sums.sum_x[ci] / R
        cov = (sums.sum_xx[ci] - R * np.outer(mean, mean)) / (R - 1)
        stats.append(
            CheckpointStats(
                n=n,
                replicas=R,
                mean=mean,
                cov=cov,
                stderr=np.sqrt(np.maximum(np.diag(cov), 0.0) / R),
            )
        )
    samples = {}
    if sums.samples is not None:
        samples = {n: sums.samples[ci] for ci, n in enumerate(marks)}
    return EnsembleSummary(
        params=params, replicas=R, seed=seed, checkpoints=stats, samples=samples
    )


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
    return _finalize(params, marks, sums, seed)


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
    """Replica/step budget for one verification experiment."""

    n_steps: int
    replicas: int
    seed: int = 20240901
    checkpoints: list[int] | None = None
    init: InitialSpec = field(default_factory=InitialSpec.uniform)
    workers: int = 1
    cross_time: tuple[float, float, int] | None = None
    tolerance_se: float = 4.0
    tolerance_rel: float | None = None


_DEFAULT_BUDGETS = {
    "lln": dict(n_steps=100_000, replicas=200),
    "clt-diffusive": dict(n_steps=10_000, replicas=10_000, cross_time=(1.0, 4.0, 10_000), tolerance_rel=0.10),
    "clt-critical": dict(n_steps=10_000, replicas=4_000, checkpoints=[1_000, 10_000], tolerance_rel=0.15),
    "superdiffusive": dict(n_steps=100_000, replicas=2_000, tolerance_rel=0.10),
    "moments": dict(n_steps=100_000, replicas=10_000, tolerance_rel=0.05),
}


def default_budget(tag: str, **overrides) -> VerifyBudget:
    """Budget matching the acceptance gates for ``tag``; fields can be
    overridden by keyword."""
    if tag not in _DEFAULT_BUDGETS:
        raise ValueError(f"unknown verification tag {tag!r}")
    kwargs = dict(_DEFAULT_BUDGETS[tag])
    kwargs.update(overrides)
    return VerifyBudget(**kwargs)


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


def _config_dict(params: ModelParams, budget: VerifyBudget) -> dict:
    return {
        "params": {"d": params.d, "lazy": params.lazy, "p": params.p, "theta": params.theta},
        "n_steps": budget.n_steps,
        "replicas": budget.replicas,
        "seed": budget.seed,
        "init": budget.init.kind,
    }


def _verify_lln(params: ModelParams, budget: VerifyBudget) -> VerificationReport:
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
    passed = bool(np.all(z <= budget.tolerance_se))
    return VerificationReport(
        tag="lln",
        passed=passed,
        theoretical={"limit": limit},
        empirical={"mean_over_n": emp, "stderr": se},
        discrepancy={"se_units": z},
        tolerance={"se_units": budget.tolerance_se},
        config=_config_dict(params, budget),
    )


def _verify_clt_diffusive(params: ModelParams, budget: VerifyBudget) -> VerificationReport:
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

    cross_emp = cross_th = None
    cross_rel = None
    cross_pass = True
    if budget.cross_time is not None:
        s_time, t_time, n_scale = budget.cross_time
        cross_emp = cross_time_covariance(
            params, budget.init, s_time, t_time, n_scale, R, budget.seed + 1, workers=budget.workers
        )
        cross_th = theory.diffusive_covariance(params, s_time, t_time)
        scale = np.max(np.abs(cross_th))
        cross_rel = float(np.max(np.abs(cross_emp - cross_th)) / scale)
        cross_pass = cross_rel <= (budget.tolerance_rel or 0.10)

    return VerificationReport(
        tag="clt-diffusive",
        passed=cov_pass and shape_pass and cross_pass,
        theoretical={"covariance_over_n": th, "cross_time": cross_th},
        empirical={"covariance_over_n": emp, "cross_time": cross_emp,
                   "shape_z": shape_z},
        discrepancy={"covariance_se_units": z, "cross_time_rel": cross_rel},
        tolerance={"se_units": budget.tolerance_se, "cross_time_rel": budget.tolerance_rel},
        config=_config_dict(params, budget),
    )


def _verify_clt_critical(params: ModelParams, budget: VerifyBudget) -> VerificationReport:
    marks = budget.checkpoints or [1_000, 10_000]
    n_max = max(marks)
    summary = run_ensemble(
        params, budget.init, n_max, marks, budget.replicas, budget.seed, workers=budget.workers
    )
    th = float(np.trace(theory.critical_covariance(params, 1.0, 1.0)))
    ratios = {cp.n: float(np.trace(cp.cov) / (cp.n * np.log(cp.n))) for cp in summary.checkpoints}
    r_last = ratios[marks[-1]]
    r_first = ratios[marks[0]]
    drift = abs(r_last / r_first - 1.0)
    offset = abs(r_last / th - 1.0)
    tol = budget.tolerance_rel or 0.15
    return VerificationReport(
        tag="clt-critical",
        passed=bool(drift <= tol and offset <= tol),
        theoretical={"trace_over_nlogn": th},
        empirical={"trace_over_nlogn": ratios},
        discrepancy={"between_checkpoints_rel": drift, "vs_theory_rel": offset},
        tolerance={"rel": tol},
        config=_config_dict(params, budget),
    )


def _verify_superdiffusive(params: ModelParams, budget: VerifyBudget) -> VerificationReport:
    marks = budget.checkpoints or [int(v) for v in np.geomspace(100, budget.n_steps, 7)]
    marks = sorted(set(marks))
    summary = run_ensemble(
        params, budget.init, max(marks), marks, budget.replicas, budget.seed, workers=budget.workers
    )
    slope, se = scaling_exponent(summary)
    target = 2.0 * params.second_eigenvalue
    tol = budget.tolerance_rel or 0.10
    return VerificationReport(
        tag="superdiffusive",
        passed=bool(abs(slope - target) <= tol),
        theoretical={"exponent": target},
        empirical={"exponent": slope, "exponent_se": se},
        discrepancy={"abs": abs(slope - target)},
        tolerance={"abs": tol},
        config=_config_dict(params, budget),
    )


def _verify_moments(params: ModelParams, budget: VerifyBudget) -> VerificationReport:
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
    tol = budget.tolerance_rel or 0.05

    # centered mean: E(S_n) from the exact recursion, scaled like L
    exact_mean = theory.exact_moments(params, budget.init, n).mean_position[-1]
    mean_l = (cp.mean - exact_mean) / float(n) ** r
    se_l = cp.stderr / float(n) ** r
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_z = np.where(se_l > 0, np.abs(mean_l) / se_l, 0.0)
    mean_pass = bool(np.all(mean_z <= budget.tolerance_se))

    return VerificationReport(
        tag="moments",
        passed=bool(rel <= tol and mean_pass),
        theoretical={"second_moment": limit.second_moment, "mean": limit.mean},
        empirical={"second_moment": emp_second, "mean": mean_l, "mean_se": se_l},
        discrepancy={"second_moment_rel": rel, "mean_se_units": mean_z},
        tolerance={"second_moment_rel": tol, "mean_se_units": budget.tolerance_se},
        config=_config_dict(params, budget),
    )


#: Verifier of each tag and the regimes its claim is about.
_VERIFIERS = {
    "lln": (_verify_lln, tuple(Regime)),
    "clt-diffusive": (_verify_clt_diffusive, (Regime.DIFFUSIVE, Regime.NO_TRANSITION)),
    "clt-critical": (_verify_clt_critical, (Regime.CRITICAL,)),
    "superdiffusive": (_verify_superdiffusive, (Regime.SUPERDIFFUSIVE,)),
    "moments": (_verify_moments, (Regime.SUPERDIFFUSIVE,)),
}


def verify(tag: str, params: ModelParams, budget: VerifyBudget | None = None) -> VerificationReport:
    """Run the verification experiment for ``tag`` and report the verdict.

    Tags: lln, clt-diffusive, clt-critical, superdiffusive, moments.
    Raises RegimeMismatchError when the parameters do not belong to the
    regime the tag is about.
    """
    if tag not in _VERIFIERS:
        raise ValueError(f"unknown verification tag {tag!r}")
    verifier, regimes = _VERIFIERS[tag]
    regime = theory.classify_regime(params)
    if regime not in regimes:
        allowed = " or ".join(r.value for r in regimes)
        raise RegimeMismatchError(f"tag {tag} needs a {allowed} point, got {regime.value}")
    if budget is None:
        budget = default_budget(tag)
    return verifier(params, budget)
