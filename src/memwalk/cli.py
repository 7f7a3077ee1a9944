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
import functools
import itertools
import json
import sys
import typing

import numpy as np

from . import montecarlo, oracle, theory
from .model import InitialSpec, validate_params
from .theory import Regime

#: Paths rendered together when ``oracle`` writes its document, which bounds its memory at any --steps.
_ORACLE_BLOCK_PATHS = 4_096


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (1 on usage errors)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclasses.dataclass
class RunConfig:
    """Mirror of the CLI flags; round-trips losslessly through JSON.

    Sizes not given are None; ``_merge_config`` fills them."""

    subcommand: str
    d: int = 1
    lazy: bool = False
    p: float = 0.5
    theta: float = 1.0
    init: str = "uniform"
    n_steps: int | None = None
    checkpoints: list[int] = dataclasses.field(default_factory=list)
    replicas: int | None = None
    seed: int = 0
    workers: int = 1
    out: str | None = None
    tag: str | None = None
    p_grid: list[float] = dataclasses.field(default_factory=list)
    theta_grid: list[float] = dataclasses.field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @staticmethod
    def from_json(text: str, subcommand: str | None = None) -> "RunConfig":
        """Check and load a config; ``subcommand`` serves a file that names none."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, not {type(data).__name__}")
        data.setdefault("subcommand", subcommand)
        hints = typing.get_type_hints(RunConfig)
        for key, value in data.items():
            if key not in hints:
                raise ValueError(f"unknown config key {key!r}")
            if not _fits(value, hints[key]):
                raise ValueError(f"config key {key!r} must be {RunConfig.__annotations__[key]}, not {value!r}")
        return RunConfig(**data)


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type ``hint``; an int is a float, a bool is neither."""
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if typing.get_args(hint):  # X | None
        return any(_fits(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _parse_init(spec: str) -> InitialSpec:
    if spec == "uniform":
        return InitialSpec.uniform()
    if spec.startswith("fixed:"):
        return InitialSpec.fixed(int(spec.split(":", 1)[1]))
    if spec.startswith("custom:"):
        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            probs = json.load(fh)
        if not _fits(probs, list[float]):
            raise ValueError(f"{path} must hold a JSON list of probabilities, not {probs!r}")
        return InitialSpec.custom(probs)
    raise ValueError(f"bad --init value {spec!r}; use uniform, fixed:IDX or custom:FILE")


def _parse_checkpoints(text: str) -> list[int]:
    """Comma-separated steps."""
    return [int(v) for v in text.split(",") if v]


def _parse_grid(text: str) -> list[float]:
    """Either comma-separated values or start:stop:count."""
    if ":" in text:
        start, stop, count = text.split(":")
        return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
    return [float(v) for v in text.split(",")]


def _write_text(path: str | None, parts: typing.Iterable[str]) -> None:
    """Write the strings of ``parts`` in turn to ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.writelines(parts)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)


def cmd_theory(cfg: RunConfig) -> int:
    params = validate_params(cfg.d, cfg.lazy, cfg.p, cfg.theta)
    init = _parse_init(cfg.init)
    init.distribution(params)  # checks the start against K at every regime, not only where it is read
    regime = theory.classify_regime(params)
    pc = theory.critical_probability(params.K, params.theta) if regime is not Regime.NO_TRANSITION else None
    doc = {
        "params": {"d": params.d, "lazy": params.lazy, "K": params.K, "p": params.p, "theta": params.theta},
        "memory_gain": params.memory_gain,
        "second_eigenvalue": params.second_eigenvalue,
        "regime": regime.value,
        "critical_probability": pc,
    }
    try:
        doc["lln_limit"] = theory.lln_limit(params).tolist()
    except ValueError:
        doc["lln_limit"] = None
    if regime in theory._DIFFUSIVE_REGIMES:
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
        limit = theory.limit_moments(params, init)
        doc["superdiffusive"] = {
            "exponent": 2.0 * params.second_eigenvalue,
            "weight_square_series": theory.martingale_square_series(params),
            "limit_mean": limit.mean,
            "limit_second_moment": limit.second_moment,
        }
    _write_text(cfg.out, [json.dumps(montecarlo.json_ready(doc), indent=2) + "\n"])
    return 0


def _csv_row(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def cmd_simulate(cfg: RunConfig) -> int:
    params = validate_params(cfg.d, cfg.lazy, cfg.p, cfg.theta)
    init = _parse_init(cfg.init)
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
    _write_text(cfg.out, ["\n".join(lines) + "\n"])
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.tag is None:
        raise ValueError("verify needs --tag")
    params = validate_params(cfg.d, cfg.lazy, cfg.p, cfg.theta)
    # sizes left unset (None) come from the tag's default budget
    budget = montecarlo.default_budget(
        cfg.tag, n_steps=cfg.n_steps, replicas=cfg.replicas, checkpoints=cfg.checkpoints or None,
        seed=cfg.seed, workers=cfg.workers, init=_parse_init(cfg.init),
    )
    report = montecarlo.verify(cfg.tag, params, budget)
    _write_text(cfg.out, [json.dumps(report.as_dict(), indent=2) + "\n"])
    return 0 if report.passed else 2


def cmd_phase_diagram(cfg: RunConfig) -> int:
    if not cfg.p_grid or not cfg.theta_grid:
        raise ValueError("phase-diagram needs --p-grid and --theta-grid")
    init = _parse_init(cfg.init)
    marks = montecarlo.scaling_checkpoints(cfg.n_steps, 5)
    # every point is checked before the first walk
    points = [validate_params(cfg.d, cfg.lazy, p, th) for th in cfg.theta_grid for p in cfg.p_grid]
    lines = ["p,theta,regime,p_c,exponent_hat,exponent_se"]
    for params in points:
        regime = theory.classify_regime(params)
        pc = theory.critical_probability(params.K, params.theta) if regime is not Regime.NO_TRANSITION else float("nan")
        summary = montecarlo.run_ensemble(
            params, init, cfg.n_steps, marks, cfg.replicas, cfg.seed, workers=cfg.workers
        )
        try:
            slope, se = montecarlo.scaling_exponent(summary)
        except ValueError:
            slope, se = float("nan"), float("nan")
        lines.append(_csv_row([params.p, params.theta, regime.value, pc, slope, se]))
    _write_text(cfg.out, ["\n".join(lines) + "\n"])
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    params = validate_params(cfg.d, cfg.lazy, cfg.p, cfg.theta)
    init = _parse_init(cfg.init)
    dist = oracle.enumerate_paths(params, init, cfg.n_steps)
    marg = oracle.exact_marginals(params, init, cfg.n_steps)
    doc = {
        "params": {"d": params.d, "lazy": params.lazy, "K": params.K, "p": params.p, "theta": params.theta},
        "n": cfg.n_steps,
        "paths": None,  # written below in json.dumps's layout: its indented encoder is pure Python
        **montecarlo.json_ready(dataclasses.asdict(marg)),  # mean_position, position_cov, mean_axis_counts
    }
    head, _, tail = json.dumps(doc, indent=2).partition('"paths": null')
    fields = ",\n        ".join(["{}"] * cfg.n_steps)
    entry = '    {{\n      "sequence": [\n        ' + fields + '\n      ],\n      "probability": {!r}\n    }}'
    entries = (entry.format(*seq, prob) for seq, prob in dist.sequences())
    # the entries are rendered a block at a time as they are written, never the whole list at once
    blocks = ((",\n" if start else "") + ",\n".join(itertools.islice(entries, _ORACLE_BLOCK_PATHS))
              for start in range(0, len(dist.probs), _ORACLE_BLOCK_PATHS))
    _write_text(cfg.out, itertools.chain([head, '"paths": [\n'], blocks, ["\n  ]", tail, "\n"]))
    return 0


#: Every flag and its argparse keywords; each _COMMANDS entry names the ones it reads.
_FLAGS = {
    "--config": dict(help="JSON file with RunConfig defaults"),
    "--d": dict(type=int, help="spatial dimension"),
    "--lazy": dict(action="store_true", default=None, help="include the stay-put move (K = 2d + 1)"),
    "--p": dict(type=float, help="repeat/bias strength in [0, 1]"),
    "--theta": dict(type=float, help="memory branch probability in [0, 1]"),
    "--init": dict(help="first step law: uniform | fixed:IDX | custom:FILE"),
    "--steps": dict(type=int, dest="n_steps", help="number of steps per walk"),
    "--checkpoints": dict(type=_parse_checkpoints, help="comma-separated recording steps"),
    "--reps": dict(type=int, dest="replicas", help="number of replicas"),
    "--seed": dict(type=int, help="64-bit master seed"),
    "--workers": dict(type=int, help="parallel worker cap"),
    "--out": dict(help="output path (default stdout)"),
    "--tag": dict(choices=sorted(montecarlo._VERIFIERS), help="claim to verify"),
    "--p-grid": dict(type=_parse_grid, help="p values: a,b,c or start:stop:count"),
    "--theta-grid": dict(type=_parse_grid, help="theta values: a,b,c or start:stop:count"),
}

#: Per subcommand: its function, its help line and the flags it reads besides --config.
_COMMANDS = {
    "theory": (cmd_theory, "closed-form predictions for one parameter point (JSON)",
               "--d --lazy --p --theta --init --out"),
    "simulate": (cmd_simulate, "ensemble simulation summaries at checkpoints (CSV)",
                 "--d --lazy --p --theta --init --steps --checkpoints --reps --seed --workers --out"),
    "verify": (cmd_verify, "statistical verification of one asymptotic claim (JSON)",
               "--d --lazy --p --theta --init --steps --checkpoints --reps --seed --workers --out --tag"),
    "phase-diagram": (cmd_phase_diagram, "regime and scaling exponent over a parameter grid (CSV)",
                      "--d --lazy --init --steps --reps --seed --workers --out --p-grid --theta-grid"),
    "oracle": (cmd_oracle, "exact enumeration of a small instance (JSON)",
               "--d --lazy --p --theta --init --steps --out"),
}


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> _Parser:
    parser = _Parser(prog="memwalk", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # no abbreviations: phase-diagram would read --p as --p-grid
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in ["--config", *flags.split()]:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    path = vars(args).pop("config")
    cfg = RunConfig(subcommand=args.subcommand)
    if path:
        with open(path, encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read(), args.subcommand)
    # the flags given, subcommand included, override the file
    for name, value in vars(args).items():
        if value is not None:
            setattr(cfg, name, value)
    if cfg.subcommand != "verify":
        # verify takes unset sizes from the tag's budget in montecarlo._VERIFIERS
        cfg.n_steps = 1000 if cfg.n_steps is None else cfg.n_steps
        cfg.replicas = 100 if cfg.replicas is None else cfg.replicas
    elif args.checkpoints is None and cfg.tag not in montecarlo.CHECKPOINT_TAGS:
        cfg.checkpoints = []  # a file's checkpoints (one written for simulate, say); the flag is still refused
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[cfg.subcommand][0](cfg)
    except (ValueError, OSError) as exc:
        print(f"memwalk: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
