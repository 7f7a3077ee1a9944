"""The benchmark workloads and the checks run in every pass.

Each workload is built from the workload seed, warmed up once, and then
run pass after pass. A pass returns the outcome of every check it made,
the bytes of its outputs, which must repeat exactly from pass to pass
because every input derives from the seed, and the wall time of each of
its steps.

Why these workloads (sizes are per pass):

* ``verify-wide``: K = 2, 2 workers, R of 4 000 to 10 000 replicas. Stresses
  the vectorised step kernel at large R, the seeding of 10^4 per-replica
  streams on every call, the process pool and the merge of retained
  samples. The moment engine only runs to n = 2 000.
* ``exact``: no Monte Carlo. The moment engine, the oracle, the scalar
  samplers and the CLI's JSON do all the work, so a kernel change should
  read "no change" here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np
from scipy.special import chdtrc

from memwalk import cli, model, montecarlo, oracle, theory, urn
from memwalk.model import InitialSpec, validate_params

UNIFORM = InitialSpec.uniform()


def derive_seed(seed: int, k: int) -> int:
    """k-th 63-bit seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0] >> np.uint64(1))


def load_validator(schemas: Path, name: str) -> jsonschema.Draft202012Validator:
    schema = json.loads((schemas / f"{name}.schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def chisquare_pvalue(observed: np.ndarray, probs: np.ndarray) -> float:
    """Pearson goodness of fit, bins with expected count below 5 pooled.

    Any observation in a zero-probability bin gives p = 0.
    """
    observed = np.asarray(observed, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if observed[probs == 0.0].sum() > 0:
        return 0.0
    expected = probs[probs > 0.0] * observed.sum()
    observed = observed[probs > 0.0]
    small = expected < 5.0
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    if len(observed) < 2:
        return 1.0
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(chdtrc(len(observed) - 1, stat))


@dataclass
class PassResult:
    checks: dict[str, bool] = field(default_factory=dict)
    output: bytes = b""
    laps: dict[str, float] = field(default_factory=dict)


class Laps:
    """Wall time of the consecutive steps of a pass; the laps add up to the pass."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self._last = time.perf_counter()

    def __call__(self, step: str) -> None:
        now = time.perf_counter()
        self.times[step] = now - self._last
        self._last = now


@dataclass(frozen=True)
class VerifySpec:
    tag: str
    d: int
    lazy: bool
    p: float
    theta: float
    overrides: dict

    def budget(self, seed: int, workers: int) -> montecarlo.VerifyBudget:
        # default_budget keeps the program's own gates for the tag
        return montecarlo.default_budget(self.tag, seed=seed, workers=workers, **self.overrides)

    def replica_steps(self) -> int:
        """Sum of R * n over the ensembles the verifier runs."""
        b = montecarlo.default_budget(self.tag, **self.overrides)
        n = max(b.checkpoints) if b.checkpoints else b.n_steps
        steps = b.replicas * n
        if b.cross_time is not None:
            _, t, n_scale = b.cross_time
            steps += b.replicas * int(t * n_scale)
        return steps


# Budgets are far below the verifiers' defaults so that a pass takes
# seconds, but each keeps its gate well clear of the noise: at R = 10^4 the
# moments gate (5 % relative) is at least five standard errors of the sample
# second moment, and at n = 5 000 the critical n log n ratio sits about 7 %
# from theory against a 15 % gate. The default gates are kept.
WIDE = (
    VerifySpec("clt-diffusive", 1, False, 0.6, 1.0,
               dict(n_steps=500, replicas=10_000, cross_time=(1.0, 4.0, 500))),
    VerifySpec("clt-critical", 1, False, 0.75, 1.0,
               dict(n_steps=5_000, replicas=4_000, checkpoints=[500, 5_000])),
    VerifySpec("moments", 1, False, 0.9, 1.0, dict(n_steps=2_000, replicas=10_000)),
)


class VerifyWorkload:
    """Runs ``montecarlo.verify`` for each spec in ``WIDE`` on 2 workers."""

    specs = WIDE
    workers = 2

    def __init__(self, seed: int, schemas: Path):
        self.seeds = [derive_seed(seed, k) for k in range(len(self.specs))]
        self.params = [validate_params(s.d, s.lazy, s.p, s.theta) for s in self.specs]
        self.validator = load_validator(schemas, "verify")
        self.replica_steps = sum(s.replica_steps() for s in self.specs)

    def warm_up(self) -> None:
        tiny = montecarlo.default_budget("lln", n_steps=16, replicas=8, workers=self.workers)
        self.validator.is_valid(montecarlo.verify("lln", self.params[0], tiny).as_dict())
        theory.exact_moments(self.params[0], UNIFORM, 16)
        for params in self.params:
            if theory.classify_regime(params) is theory.Regime.SUPERDIFFUSIVE:
                theory.limit_moments(params, UNIFORM)

    def _run(self, workers: int) -> PassResult:
        checks, outputs, lap = {}, [], Laps()
        for spec, params, seed in zip(self.specs, self.params, self.seeds):
            report = montecarlo.verify(spec.tag, params, spec.budget(seed, workers))
            doc = report.as_dict()
            checks[f"{spec.tag}.passed"] = report.passed is True
            checks[f"{spec.tag}.schema"] = self.validator.is_valid(doc)
            outputs.append(json.dumps(doc, sort_keys=True).encode())
            lap(spec.tag)
        return PassResult(checks, b"\n".join(outputs), lap.times)

    def describe(self) -> list[dict]:
        return [{"tag": s.tag, "d": s.d, "lazy": s.lazy, "p": s.p, "theta": s.theta,
                 "workers": self.workers, **s.overrides} for s in self.specs]

    def run_pass(self) -> PassResult:
        return self._run(self.workers)

    def once_checks(self, first: PassResult) -> dict[str, bool]:
        """Output bytes must not depend on the worker count."""
        return {f"workers-1-vs-{self.workers}.bytes": self._run(1).output == first.output}


class ExactWorkload:
    """Moment engine, oracle, scalar samplers and CLI; no Monte Carlo."""

    MOMENTS_K2, MOMENTS_K5 = 15_000, 7_500
    MARGINALS_K2, MARGINALS_K5 = 13, 6
    COUNT_LAWS_K3 = 7
    SAMPLER_WALKS = 10_000
    CLI_ORACLE_STEPS = 11

    def __init__(self, seed: int, schemas: Path):
        self.k2 = validate_params(1, False, 0.9, 1.0)
        self.k5 = validate_params(2, True, 0.9, 1.0)
        self.k3 = validate_params(1, True, 0.9, 1.0)
        self.limit_points = [validate_params(1, False, 0.9, 1.0), validate_params(2, False, 0.9, 1.0)]
        self.sampler = validate_params(1, True, 0.5, 0.6)
        self.sampler_seeds = (derive_seed(seed, 0), derive_seed(seed, 1))
        self.theory_argv = [["theory", "--d", "1", "--theta", "1", "--p", p] for p in ("0.6", "0.75", "0.9")]
        self.oracle_argv = ["oracle", "--d", "1", "--theta", "1", "--p", "0.75", "--steps", str(self.CLI_ORACLE_STEPS)]
        self.validators = {name: load_validator(schemas, name) for name in ("theory", "oracle")}
        self.replica_steps = 0

    def describe(self) -> dict:
        return {k: v for k, v in vars(ExactWorkload).items() if k.isupper()}

    def warm_up(self) -> None:
        theory.exact_moments(self.k5, UNIFORM, 16)
        for params in self.limit_points:
            theory.limit_moments(params, UNIFORM)
        oracle.exact_marginals(self.k2, UNIFORM, 3)
        oracle.urn_count_law(self.k3, UNIFORM, 3)
        self._walk_paths(1, 10)
        self._urn_counts(1, 10)
        self._cli(["theory"], "theory")

    def _cli(self, argv, schema) -> tuple[bool, bytes]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        ok = code == 0 and self.validators[schema].is_valid(json.loads(text))
        return ok, text.encode()

    def _walk_paths(self, seed: int, walks: int) -> np.ndarray:
        """Histogram of length-3 step sequences from the scalar sampler."""
        K = self.sampler.K
        rng = np.random.default_rng(seed)
        freq = np.zeros(K**3, dtype=np.int64)
        for _ in range(walks):
            state = model.initial_step(self.sampler, UNIFORM, rng)
            pid = int(np.argmax(state.counts))
            for _ in range(2):
                prev = state.counts
                state = model.step(self.sampler, state, rng)
                pid = pid * K + int(np.argmax(state.counts - prev))
            freq[pid] += 1
        return freq

    def _urn_counts(self, seed: int, walks: int) -> dict[tuple[int, ...], int]:
        """Histogram of 3-ball urn compositions from ``urn_step``."""
        rng = np.random.default_rng(seed)
        freq: dict[tuple[int, ...], int] = {}
        for _ in range(walks):
            state = urn.UrnState(n=1, balls=model.initial_step(self.sampler, UNIFORM, rng).counts)
            for _ in range(2):
                state = urn.urn_step(self.sampler, state, rng)
            key = tuple(int(b) for b in state.balls)
            freq[key] = freq.get(key, 0) + 1
        return freq

    @staticmethod
    def _agrees(marg, table, n: int) -> bool:
        """Enumeration matches the moment recursion to 1e-12 of the largest entry."""
        mean, cov = table.mean_position[n - 1], table.position_cov[n - 1]
        scale = max(np.abs(mean).max(), np.abs(cov).max())
        err = max(np.abs(marg.mean_position - mean).max(), np.abs(marg.position_cov - cov).max())
        return bool(err <= 1e-12 * scale)

    def run_pass(self) -> PassResult:
        checks: dict[str, bool] = {}
        outputs: list[bytes] = []
        lap = Laps()

        table2 = theory.exact_moments(self.k2, UNIFORM, self.MOMENTS_K2)
        table5 = theory.exact_moments(self.k5, UNIFORM, self.MOMENTS_K5)
        lap("exact_moments")
        for d, params in enumerate(self.limit_points, start=1):
            got = theory.limit_moments(params, UNIFORM).second_moment
            want = theory.uniform_start_limit_second_moment(params)
            checks[f"limit_moments.d{d}"] = bool(np.abs(got - want).max() <= 1e-3 * np.abs(want).max())
        lap("limit_moments")

        for name, params, table, n in (("K2", self.k2, table2, self.MARGINALS_K2),
                                       ("K5", self.k5, table5, self.MARGINALS_K5)):
            checks[f"exact_marginals.{name}"] = self._agrees(oracle.exact_marginals(params, UNIFORM, n), table, n)
        lap("exact_marginals")

        walk = oracle.walk_count_law(self.k3, UNIFORM, self.COUNT_LAWS_K3)
        balls = oracle.urn_count_law(self.k3, UNIFORM, self.COUNT_LAWS_K3)
        checks["count_law.walk_vs_urn"] = oracle.total_variation(walk, balls) <= 1e-12
        lap("count_laws")

        # each chi-square test rejects a correct sampler with probability 1e-3
        dist = oracle.enumerate_paths(self.sampler, UNIFORM, 3)
        paths = self._walk_paths(self.sampler_seeds[0], self.SAMPLER_WALKS)
        checks["model.step.chisquare"] = chisquare_pvalue(paths, dist.probs) > 1e-3
        lap("model.step")
        law: dict[tuple[int, ...], float] = {}
        for seq, prob in dist.sequences():
            key = tuple(int(c) for c in np.bincount(seq, minlength=self.sampler.K))
            law[key] = law.get(key, 0.0) + prob
        urns = self._urn_counts(self.sampler_seeds[1], self.SAMPLER_WALKS)
        keys = sorted(set(law) | set(urns))
        checks["urn.urn_step.chisquare"] = chisquare_pvalue(
            np.array([urns.get(k, 0) for k in keys]), np.array([law.get(k, 0.0) for k in keys])) > 1e-3
        outputs += [paths.tobytes(), repr(sorted(urns.items())).encode()]
        lap("urn.urn_step")

        for argv in self.theory_argv:
            ok, text = self._cli(argv, "theory")
            checks[f"cli.theory.p{argv[-1]}"] = ok
            outputs.append(text)
        lap("cli.theory")
        ok, text = self._cli(self.oracle_argv, "oracle")
        checks["cli.oracle"] = ok
        outputs.append(text)
        lap("cli.oracle")
        return PassResult(checks, hashlib.sha256(b"\n".join(outputs)).digest(), lap.times)

    def once_checks(self, first: PassResult) -> dict[str, bool]:
        return {}


def build(name: str, seed: int, schemas: Path):
    if name == "verify-wide":
        return VerifyWorkload(seed, schemas)
    if name == "exact":
        return ExactWorkload(seed, schemas)
    raise ValueError(f"unknown workload {name!r}")
