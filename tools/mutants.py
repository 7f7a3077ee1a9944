"""Mutation check: apply one-line faults to a copy of the checkout and see whether the tests catch each.

Each entry of MUTANTS names a source file, an old text that occurs exactly
once in it, the new text that replaces it, and the test paths (files or
pytest node ids) that should catch the fault. For each mutant the runner
copies the checkout without its .git to a temporary directory, applies the
mutant there, runs the mutant's tests in one pytest process and records
"killed" if a test fails or "survived" if all pass. Mutants run one at a
time. Criterion 9 fails at every commit by design, so it is deselected:
only another failure kills a mutant.

    python tools/mutants.py                        # every mutant, JSON on stdout
    python tools/mutants.py rel-max-th --out m.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KNOWN_RED = "tests/test_acceptance.py::test_criterion_09_limit_moments"
MC, THEORY, ORACLE = "src/memwalk/montecarlo.py", "src/memwalk/theory.py", "src/memwalk/oracle.py"
VERIFY_TESTS = ("tests/test_montecarlo.py::TestVerify",)
KERNEL_TESTS = ("tests/test_montecarlo.py::TestKernelReference",)
# clt-diffusive's two ensembles, in the order it walks them
CROSS_TIME_RUN = """    cross_emp = cross_time_covariance(
        params, budget.init, s_time, t_time, n_scale, R, budget.seed + 1, workers=budget.workers
    )
    cross_rel = _rel(cross_emp, cross_th)
"""
N_STEPS_RUN = "    summary = run_ensemble(params, budget.init, n, [n], R, budget.seed, workers=budget.workers, retain_samples=True)\n"
# moments' theory reference and its one ensemble, in the order it reads them
MOMENTS_LIMIT = "    limit = theory.limit_moments(params, budget.init)\n"
MOMENTS_RUN = "    summary = run_ensemble(params, budget.init, n, [n], R, budget.seed, workers=budget.workers)\n"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # the gates and the verdict rule
    Mutant("tolerance-se", MC, "_TOLERANCE_SE = 4.0", "_TOLERANCE_SE = 5.0", VERIFY_TESTS),
    Mutant("tolerance-cross-time", MC, "_TOLERANCE_CROSS_TIME = 0.10", "_TOLERANCE_CROSS_TIME = 0.20", VERIFY_TESTS),
    Mutant("tolerance-moment", MC, "_TOLERANCE_MOMENT = 0.05", "_TOLERANCE_MOMENT = 0.10", VERIFY_TESTS),
    Mutant("critical-swapped-marks", MC, "r_first, r_last = ratios[min(ratios)], ratios[max(ratios)]",
           "r_first, r_last = ratios[max(ratios)], ratios[min(ratios)]", VERIFY_TESTS),
    Mutant("rel-max-th", MC, "np.max(np.abs(th))", "np.max(th)", VERIFY_TESTS),
    Mutant("verdict-strict", MC, "np.less_equal(v, found", "np.less(v, found", VERIFY_TESTS),
    Mutant("scaling-one-decade", MC, "if max(marks) < 100 * min(marks):", "if max(marks) < 10 * min(marks):",
           VERIFY_TESTS),
    Mutant("json-null-isnan", MC, "not np.isfinite(obj)", "np.isnan(obj)", ("tests/test_cli.py",)),
    # the sizes derived from n_steps
    Mutant("cross-time-fixed-scale", MC, "(1.0, 4.0, n)", "(1.0, 4.0, 10_000)",
           ("tests/test_montecarlo.py::TestVerify::test_sizes_follow_n_steps",)),
    Mutant("critical-first-mark", MC, "n // 10", "n // 100",
           ("tests/test_montecarlo.py::TestVerify::test_sizes_follow_n_steps",)),
    # the int64 bound, checked before any walk
    Mutant("int64-bound", MC, "marks[-1] ** 2 >= 2**62", "marks[-1] ** 2 >= 2**63",
           ("tests/test_montecarlo.py::TestRunEnsemble::test_int64_bound_at_its_first_failing_size",)),
    Mutant("clt-diffusive-larger-first", MC, CROSS_TIME_RUN + "\n" + N_STEPS_RUN, N_STEPS_RUN + CROSS_TIME_RUN + "\n",
           ("tests/test_montecarlo.py::TestVerify::test_clt_diffusive_oversize_fails_before_the_walks",)),
    # each verifier reads its theory reference, whose domain is the tag's regime, before any walk
    Mutant("moments-limit-after-walk", MC, MOMENTS_LIMIT + MOMENTS_RUN, MOMENTS_RUN + MOMENTS_LIMIT,
           ("tests/test_montecarlo.py::TestVerify::test_regime_fails_before_the_walks",)),
    Mutant("closed-form-gate-wide", THEORY,
           '(Regime.SUPERDIFFUSIVE,), "the closed-form limit second moment"',
           '(Regime.SUPERDIFFUSIVE, Regime.DIFFUSIVE), "the closed-form limit second moment"',
           ("tests/test_theory.py::TestLimitMoments::test_regime_gate",)),
    # the CLI checks its inputs before any walk
    Mutant("phase-diagram-lazy-grid", "src/memwalk/cli.py",
           "points = [validate_params(cfg.d, cfg.lazy, p, th) for th in cfg.theta_grid for p in cfg.p_grid]",
           "points = (validate_params(cfg.d, cfg.lazy, p, th) for th in cfg.theta_grid for p in cfg.p_grid)",
           ("tests/test_cli.py::TestPhaseDiagramCommand::test_every_point_checked_before_the_first_walk",)),
    Mutant("checkpoints-no-floor", MC, "    _checkpoint_marks(n_steps, [])  # n_steps >= 1, before numpy reads it\n",
           "",
           ("tests/test_cli.py::TestUsageContract::test_steps_below_one_rejected_before_the_checkpoints",)),
    # the samplers
    Mutant("kernel-stale-coefficient", MC, "c.fill(lam2 / n)", "if n != 2: c.fill(lam2 / n)", KERNEL_TESTS),
    Mutant("refill-column-offset", MC, "= part.T", "= np.roll(part.T, 1, axis=1)", KERNEL_TESTS),
    Mutant("kernel-tie", MC, "np.greater_equal(acc, u, out=hit)\n                for k",
           "np.greater(acc, u, out=hit)\n                for k", ("tests/test_montecarlo.py::TestTieRule",)),
    Mutant("step-skip-rule", "src/memwalk/model.py", "idx += idx >= remembered", "idx += idx > remembered",
           ("tests/test_model.py",)),
    Mutant("first-step-row-shared", "src/memwalk/model.py", "rng.random())].copy()", "rng.random())]",
           ("tests/test_model.py::TestFirstStepTable",)),
    Mutant("first-step-key-no-lazy", "src/memwalk/model.py", "init.probs, params.d, params.lazy)",
           "init.probs, params.d)", ("tests/test_model.py::TestFirstStepTable",)),
    Mutant("cuts-keep-last-sum", "src/memwalk/model.py", "np.cumsum(law)[:-1]", "np.cumsum(law)",
           ("tests/test_model.py::TestReferenceSampler::test_clip_when_first_step_law_sums_below_one",
            "tests/test_urn.py::TestReferenceSampler::test_clip_at_the_largest_uniform")),
    Mutant("urn-table-key-no-theta", "src/memwalk/urn.py", "key = (params.d, params.lazy, params.p, params.theta)",
           "key = (params.d, params.lazy, params.p)", ("tests/test_urn.py::TestReplacementTables",)),
    # the moment engine and the limit
    Mutant("growth-factor", THEORY, "1.0 + 2.0 * lam / n", "1.0 + 2.0 * lam / (n + 1)",
           ("tests/test_theory.py::TestExactMoments",)),
    Mutant("sigma-recursion", THEORY, "g * wbb - x * x", "g * wbb - x * y",
           ("tests/test_theory.py::TestExactMoments",)),
    Mutant("b0-weight", THEORY, "+ b0 / (2.0 * r - 1.0)", "+ b0 / (2.0 * r)",
           ("tests/test_theory.py::TestLimitMoments",)),
    Mutant("b1-weight", THEORY, "+ np.diag(w) - np.outer(v, w) - np.outer(w, v)",
           "- np.diag(w) + np.outer(v, w) + np.outer(w, v)", ("tests/test_theory.py::TestLimitMoments",)),
    Mutant("b1-asymmetric", THEORY, "- np.outer(v, w) - np.outer(w, v)", "- 2.0 * np.outer(v, w)",
           ("tests/test_theory.py::TestLimitMoments",)),
    Mutant("t2-weight", THEORY, "/ math.gamma(1.0 + r) ** 2 - 1.0", "/ math.gamma(1.0 + r) ** 2",
           ("tests/test_theory.py::TestSquareSeries", "tests/test_theory.py::TestLimitMoments")),
    Mutant("c2-term", THEORY, "+ 0.5 * c1 * c1", "+ c1 * c1", ("tests/test_theory.py::TestSquareSeries",)),
    Mutant("table-need-no-dd", THEORY, "+ d + d * d)", "+ d)",
           ("tests/test_theory.py::TestExactMoments::test_table_limit_at_its_boundary",)),
    # the exact oracle
    Mutant("urn-kernel-transpose", ORACLE, "states @ A.T / m", "states @ A / m", ("tests/test_oracle.py",)),
    Mutant("lattice-sort-key", ORACLE, "np.lexsort(children.T[::-1])", "np.lexsort(children.T)",
           ("tests/test_oracle.py::TestCountLattice",)),
    Mutant("lattice-stable-sort", ORACLE, "np.lexsort(children.T[::-1])",
           'np.argsort(np.ravel_multi_index(children.T, (m + 2,) * K), kind="quicksort")',
           ("tests/test_oracle.py::TestCountLattice",)),
    Mutant("marginal-symmetrisation", ORACLE, "position_cov=0.5 * (cov + cov.T),", "position_cov=cov,",
           ("tests/test_oracle.py",)),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's one old text in its file under ``root``."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """'killed' or 'survived' for one mutant, tested in a fresh copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="memwalk-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".bench*"))
        apply(mutant, copy)
        path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--deselect", KNOWN_RED]
        proc = subprocess.run(argv + list(mutant.tests), cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else is a broken run, not a kill
        raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = set(args.names) - set(known)
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    results = {name: run(known[name]) for name in args.names or known}
    text = json.dumps(results, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if "survived" not in results.values() else 1


if __name__ == "__main__":
    sys.exit(main())
