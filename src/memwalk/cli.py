"""Command-line interface.

Subcommands: theory (closed-form predictions as JSON), simulate
(ensemble summaries as CSV), verify (theorem-level checks as JSON with a
gating exit code), phase-diagram (regime grid with estimated scaling
exponents as CSV), and oracle (exact small-instance law as JSON).

Exit codes: 0 success / statistical pass, 1 usage or parameter error,
2 statistical fail. All numeric output is written with full round-trip
precision; CSV is UTF-8 with LF line endings and a header row.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import montecarlo, oracle, theory
from .model import InitialSpec, validate_params
from .theory import Regime, RegimeMismatchError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (1 on usage errors)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclasses.dataclass
class RunConfig:
    """Mirror of the CLI flags; round-trips losslessly through JSON."""

    subcommand: str
    d: int = 1
    lazy: bool = False
    p: float = 0.5
    theta: float = 1.0
    init: str = "uniform"
    n_steps: int = 1000
    checkpoints: list[int] = dataclasses.field(default_factory=list)
    replicas: int = 100
    seed: int = 0
    workers: int = 1
    out: str | None = None
    tag: str | None = None
    p_grid: list[float] = dataclasses.field(default_factory=list)
    theta_grid: list[float] = dataclasses.field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        data = json.loads(text)
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(data) - fields
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)


def _parse_init(spec: str, K: int) -> InitialSpec:
    if spec == "uniform":
        return InitialSpec.uniform()
    if spec.startswith("fixed:"):
        return InitialSpec.fixed(int(spec.split(":", 1)[1]))
    if spec.startswith("custom:"):
        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            probs = json.load(fh)
        return InitialSpec.custom(probs)
    raise UsageError(f"bad --init value {spec!r}; use uniform, fixed:IDX or custom:FILE")


def _parse_grid(text: str) -> list[float]:
    """Either comma-separated values or start:stop:count."""
    if ":" in text:
        start, stop, count = text.split(":")
        return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
    return [float(v) for v in text.split(",")]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_theory(cfg: RunConfig) -> int:
    params = validate_params(cfg.d, cfg.lazy, cfg.p, cfg.theta)
    regime = theory.classify_regime(params)
    doc = {
        "params": {"d": params.d, "lazy": params.lazy, "K": params.K, "p": params.p, "theta": params.theta},
        "memory_gain": params.memory_gain,
        "second_eigenvalue": params.second_eigenvalue,
        "regime": regime.value,
        "critical_probability": None,
        "lln_limit": None,
    }
    if params.theta > 0.0:
        doc["critical_probability"] = theory.critical_probability(params.K, params.theta)
    try:
        doc["lln_limit"] = theory.lln_limit(params).tolist()
    except ValueError:
        doc["lln_limit"] = None
    if regime in (Regime.DIFFUSIVE, Regime.NO_TRANSITION):
        doc["diffusive"] = {
            "count_covariance": theory.count_covariance_diffusive(params),
            "covariance_unit_time": theory.diffusive_covariance(params, 1.0, 1.0),
        }
    if regime is Regime.CRITICAL:
        doc["critical"] = {
            "count_covariance": theory.count_covariance_critical(params),
            "covariance_unit_time": theory.critical_covariance(params, 1.0, 1.0),
        }
    if regime is Regime.SUPERDIFFUSIVE:
        limit = theory.limit_moments(params, _parse_init(cfg.init, params.K))
        doc["superdiffusive"] = {
            "exponent": 2.0 * params.second_eigenvalue,
            "weight_square_series": theory.martingale_square_series(params),
            "limit_mean": limit.mean,
            "limit_second_moment": limit.second_moment,
        }
    _write_text(cfg.out, json.dumps(montecarlo.json_ready(doc), indent=2) + "\n")
    return 0


def _csv_row(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def cmd_simulate(cfg: RunConfig) -> int:
    params = validate_params(cfg.d, cfg.lazy, cfg.p, cfg.theta)
    init = _parse_init(cfg.init, params.K)
    summary = montecarlo.run_ensemble(
        params, init, cfg.n_steps, cfg.checkpoints, cfg.replicas, cfg.seed, workers=cfg.workers
    )
    d = params.d
    header = (
        ["n", "rep_count"]
        + [f"mean_{i + 1}" for i in range(d)]
        + [f"cov_{i + 1}_{j + 1}" for i in range(d) for j in range(i, d)]
        + [f"se_{i + 1}" for i in range(d)]
    )
    lines = [",".join(header)]
    for cp in summary.checkpoints:
        row = [cp.n, cp.replicas]
        row += [float(v) for v in cp.mean]
        row += [float(cp.cov[i, j]) for i in range(d) for j in range(i, d)]
        row += [float(v) for v in cp.stderr]
        lines.append(_csv_row(row))
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.tag is None:
        raise UsageError("verify needs --tag")
    params = validate_params(cfg.d, cfg.lazy, cfg.p, cfg.theta)
    overrides = {}
    if cfg.n_steps:
        overrides["n_steps"] = cfg.n_steps
    if cfg.replicas:
        overrides["replicas"] = cfg.replicas
    overrides["seed"] = cfg.seed
    overrides["workers"] = cfg.workers
    overrides["init"] = _parse_init(cfg.init, params.K)
    if cfg.checkpoints:
        overrides["checkpoints"] = list(cfg.checkpoints)
    budget = montecarlo.default_budget(cfg.tag, **overrides)
    report = montecarlo.verify(cfg.tag, params, budget)
    _write_text(cfg.out, json.dumps(report.as_dict(), indent=2) + "\n")
    return 0 if report.passed else 2


def cmd_phase_diagram(cfg: RunConfig) -> int:
    if not cfg.p_grid or not cfg.theta_grid:
        raise UsageError("phase-diagram needs --p-grid and --theta-grid")
    params0 = validate_params(cfg.d, cfg.lazy, 0.5, 1.0)
    init = _parse_init(cfg.init, params0.K)
    n_max = cfg.n_steps
    marks = sorted(set(int(v) for v in np.geomspace(100, n_max, 5)))
    lines = ["p,theta,regime,p_c,exponent_hat,exponent_se"]
    for th in cfg.theta_grid:
        for p in cfg.p_grid:
            params = validate_params(cfg.d, cfg.lazy, p, th)
            regime = theory.classify_regime(params)
            pc = theory.critical_probability(params.K, th) if th > 0 else float("nan")
            summary = montecarlo.run_ensemble(
                params, init, n_max, marks, cfg.replicas, cfg.seed, workers=cfg.workers
            )
            slope, se = scaling_or_nan(summary)
            lines.append(_csv_row([float(p), float(th), regime.value, float(pc), slope, se]))
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def scaling_or_nan(summary) -> tuple[float, float]:
    try:
        return montecarlo.scaling_exponent(summary)
    except ValueError:
        return float("nan"), float("nan")


def cmd_oracle(cfg: RunConfig) -> int:
    params = validate_params(cfg.d, cfg.lazy, cfg.p, cfg.theta)
    init = _parse_init(cfg.init, params.K)
    dist = oracle.enumerate_paths(params, init, cfg.n_steps)
    marg = oracle.exact_marginals(params, init, cfg.n_steps)
    doc = {
        "params": {"d": params.d, "lazy": params.lazy, "K": params.K, "p": params.p, "theta": params.theta},
        "n": cfg.n_steps,
        "paths": [
            {"sequence": list(seq), "probability": prob} for seq, prob in dist.sequences()
        ],
        "mean_position": marg.mean_position,
        "position_cov": marg.position_cov,
        "mean_axis_counts": marg.mean_axis_counts,
    }
    _write_text(cfg.out, json.dumps(montecarlo.json_ready(doc), indent=2) + "\n")
    return 0


_COMMANDS = {
    "theory": cmd_theory,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "phase-diagram": cmd_phase_diagram,
    "oracle": cmd_oracle,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="memwalk", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("theory", "closed-form predictions for one parameter point (JSON)"),
        ("simulate", "ensemble simulation summaries at checkpoints (CSV)"),
        ("verify", "statistical verification of one asymptotic claim (JSON)"),
        ("phase-diagram", "regime and scaling exponent over a parameter grid (CSV)"),
        ("oracle", "exact enumeration of a small instance (JSON)"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON file with RunConfig defaults")
        sp.add_argument("--d", type=int, help="spatial dimension")
        sp.add_argument("--lazy", action="store_true", default=None, help="include the stay-put move (K = 2d + 1)")
        sp.add_argument("--p", type=float, help="repeat/bias strength in [0, 1]")
        sp.add_argument("--theta", type=float, help="memory branch probability in [0, 1]")
        sp.add_argument("--init", help="first step law: uniform | fixed:IDX | custom:FILE")
        sp.add_argument("--steps", type=int, dest="n_steps", help="number of steps per walk")
        sp.add_argument("--checkpoints", help="comma-separated recording steps")
        sp.add_argument("--reps", type=int, dest="replicas", help="number of replicas")
        sp.add_argument("--seed", type=int, help="64-bit master seed")
        sp.add_argument("--workers", type=int, help="parallel worker cap")
        sp.add_argument("--out", help="output path (default stdout)")
        if name == "verify":
            sp.add_argument("--tag", choices=sorted(montecarlo._VERIFIERS), help="claim to verify")
        if name == "phase-diagram":
            sp.add_argument("--p-grid", dest="p_grid", help="p values: a,b,c or start:stop:count")
            sp.add_argument("--theta-grid", dest="theta_grid", help="theta values: a,b,c or start:stop:count")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read())
        cfg.subcommand = args.subcommand
    else:
        cfg = RunConfig(subcommand=args.subcommand)
    for name in ("d", "lazy", "p", "theta", "init", "n_steps", "replicas", "seed", "workers", "out", "tag"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "checkpoints", None) is not None:
        cfg.checkpoints = [int(v) for v in args.checkpoints.split(",") if v]
    if getattr(args, "p_grid", None) is not None:
        cfg.p_grid = _parse_grid(args.p_grid)
    if getattr(args, "theta_grid", None) is not None:
        cfg.theta_grid = _parse_grid(args.theta_grid)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.subcommand](cfg)
    except (UsageError, RegimeMismatchError, ValueError, OSError) as exc:
        print(f"memwalk: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
