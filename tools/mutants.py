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
# moments' theory reference, read before verify walks, and its gates, read after
MOMENTS_LIMIT = "    limit = theory.limit_moments(params, budget.init)\n"
MOMENTS_GATES = "\n    def gates(summary):\n        cp = summary.at(n)\n"
# one step of the moment recursion: the row at a mark is kept before the advance
MARK_ROW = """        if n == mark:
            coef[i] = c, e, wb, wp, wbb, wbp, wpp
            i += 1
            mark = next(following, 0)
"""
# verify splits each gate's (value, tolerance) pair into the report's two dicts
GATE_HALVES = """    discrepancy = {k: value for k, (value, _) in pairs.items()}
    tolerance = {k: tol for k, (_, tol) in pairs.items()}
"""
# the cross-time estimate reads its domain from theory, then walks
CROSS_DOMAIN = "    theory.diffusive_covariance(params, s, t)  # its domain, before any walk\n"
CROSS_WALK = """    ns, nt = _cross_time_marks(s, t, n_scale)
    summary = run_ensemble(params, init, nt, [ns, nt], replicas, seed, workers=workers, retain_samples=True)
"""
ADVANCE = """        x, y, g = 1.0 + lam * e / n, lam * c / n, 1.0 + 2.0 * lam / n
        wb, wp, wbb, wbp, wpp = g * wb + x, g * wp + y, g * wbb - x * x, g * wbp - x * y, g * wpp - y * y
        c, e = c + y, e + x
"""


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
    Mutant("verdict-strict", MC, "np.less_equal(value, tolerance)", "np.less(value, tolerance)", VERIFY_TESTS),
    Mutant("gate-pair-halves-swapped", MC, GATE_HALVES,
           GATE_HALVES.replace("(value, _)", "(_, value)").replace("(_, tol)", "(tol, _)"), VERIFY_TESTS),
    # verify walks the planned ensembles
    Mutant("verify-one-seed", MC, "marks, budget.replicas, seed,", "marks, budget.replicas, budget.seed,",
           VERIFY_TESTS),
    Mutant("verify-no-retain", MC, "retain_samples=retain)", "retain_samples=False)", VERIFY_TESTS),
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
    Mutant("cross-time-unread-accepted", MC, ', ("cross_time", ("clt-diffusive",))):', ",):",
           ("tests/test_montecarlo.py::TestVerify::test_cross_time_rejected_where_unread",)),
    Mutant("verify-plan-unchecked", MC,
           "    for _, n, marks, _ in ensembles:  # every planned walk is checked before the first\n"
           "        _check_run(budget.replicas, budget.workers, n, marks)\n", "",
           ("tests/test_montecarlo.py::TestVerify::test_every_planned_walk_is_checked_before_the_first",)),
    # each verifier reads its theory reference, whose domain is the tag's regime, before any walk
    Mutant("moments-limit-after-walk", MC, MOMENTS_LIMIT + MOMENTS_GATES, MOMENTS_GATES + "    " + MOMENTS_LIMIT,
           ("tests/test_montecarlo.py::TestVerify::test_regime_fails_before_the_walks",)),
    Mutant("moments-mean-from-table", MC, "theory._moments_at(params, budget.init, [n]).mean_position[0]",
           "theory.exact_moments(params, budget.init, n).mean_position[-1]",
           ("tests/test_montecarlo.py::TestVerify::test_moments_mean_meets_no_table_cap",)),
    Mutant("closed-form-gate-wide", THEORY,
           '(Regime.SUPERDIFFUSIVE,), "the closed-form limit second moment"',
           '(Regime.SUPERDIFFUSIVE, Regime.DIFFUSIVE), "the closed-form limit second moment"',
           ("tests/test_theory.py::TestLimitMoments::test_regime_gate",)),
    Mutant("weight-series-no-gate", THEORY,
           '    _require_regime(params, (Regime.SUPERDIFFUSIVE,), "the squared weight series")\n', "",
           ("tests/test_theory.py::TestSquareSeries",)),
    Mutant("cross-time-domain-after-walk", MC, CROSS_DOMAIN + CROSS_WALK, CROSS_WALK + CROSS_DOMAIN,
           ("tests/test_montecarlo.py::TestCrossTime::test_domain_fails_before_the_walk",)),
    # the CLI checks its inputs before any walk
    Mutant("phase-diagram-lazy-grid", "src/memwalk/cli.py",
           "points = [validate_params(cfg.d, cfg.lazy, p, th) for th in cfg.theta_grid for p in cfg.p_grid]",
           "points = (validate_params(cfg.d, cfg.lazy, p, th) for th in cfg.theta_grid for p in cfg.p_grid)",
           ("tests/test_cli.py::TestPhaseDiagramCommand::test_every_point_checked_before_the_first_walk",)),
    Mutant("checkpoints-no-floor", MC, "    _checkpoint_marks(n_steps, [])  # n_steps >= 1, before numpy reads it\n",
           "",
           ("tests/test_cli.py::TestUsageContract::test_steps_below_one_rejected_before_the_checkpoints",)),
    Mutant("oracle-block-separator", "src/memwalk/cli.py", '(",\\n" if start else "")', '""',
           ("tests/test_cli.py::TestOracleCommand::test_bytes_match_the_indented_json_encoder",)),
    # the samplers
    Mutant("kernel-stale-coefficient", MC, "c.fill(lam2 / n)", "if n != 2: c.fill(lam2 / n)", KERNEL_TESTS),
    Mutant("refill-column-offset", MC, "= part.T", "= np.roll(part.T, 1, axis=1)", KERNEL_TESTS),
    Mutant("kernel-first-step-tie", MC, "cum[:] = cuts > us[0]", "cum[:] = cuts >= us[0]",
           ("tests/test_montecarlo.py::TestTieRule::test_first_step_tie_moves_past_the_cut",)),
    Mutant("kernel-tie", MC, "greater_equal(acc, u, hit)\n                for row",
           "np.greater(acc, u, hit)\n                for row", ("tests/test_montecarlo.py::TestTieRule",)),
    Mutant("refill-block-rows-off-by-one", MC, "for r0 in range(0, w, rows):", "for r0 in range(0, w, rows + 1):",
           ("tests/test_montecarlo.py::TestKernelReference::test_matches_reference_over_byte_sized_refill_blocks",)),
    Mutant("chunk-1024", MC, "_CHUNK = 512", "_CHUNK = 1024",
           ("tests/test_montecarlo.py::TestRunEnsemble::test_buffer_does_not_grow_with_replicas",)),
    Mutant("seed-source-row-twice", MC, "self.rows = iter(words)", "self.rows = iter(np.repeat(words, 2, axis=0))",
           ("tests/test_montecarlo.py::TestReplicaStreams::test_one_seed_source_over_adjacent_tiles",)),
    Mutant("step-skip-rule", "src/memwalk/model.py", "idx += idx >= remembered", "idx += idx > remembered",
           ("tests/test_model.py",)),
    Mutant("first-step-row-shared", "src/memwalk/model.py", "rng.random())].copy()", "rng.random())]",
           ("tests/test_model.py::TestFirstStepTable",)),
    Mutant("first-step-key-no-lazy", "src/memwalk/model.py", "init.probs, params.d, params.lazy)",
           "init.probs, params.d, False)", ("tests/test_model.py::TestFirstStepTable",)),
    Mutant("cuts-keep-last-sum", "src/memwalk/model.py", "np.cumsum(law)[:-1]", "np.cumsum(law)",
           ("tests/test_model.py::TestReferenceSampler::test_clip_when_first_step_law_sums_below_one",
            "tests/test_urn.py::TestReferenceSampler::test_clip_at_the_largest_uniform")),
    Mutant("pairing-reads-stay-put", "src/memwalk/model.py", "d = counts.shape[-1] // 2",
           "d = (counts.shape[-1] + 1) // 2", ("tests/test_urn.py::TestCountsToPosition",)),
    Mutant("urn-table-key-no-theta", "src/memwalk/urn.py", "params.lazy, params.p, params.theta)",
           "params.lazy, params.p, 0.0)", ("tests/test_urn.py::TestReplacementTables",)),
    Mutant("start-nan-accepted", "src/memwalk/model.py", "if not np.all(pi >= 0.0):", "if np.any(pi < 0.0):",
           ("tests/test_model.py::TestInitialStep::test_nan_custom_start_rejected",
            "tests/test_cli.py::TestConfigRoundTrip::test_custom_init_file_holding_nan_rejected")),
    # the moment engine and the limit
    Mutant("growth-factor", THEORY, "1.0 + 2.0 * lam / n", "1.0 + 2.0 * lam / (n + 1)",
           ("tests/test_theory.py::TestExactMoments",)),
    Mutant("sigma-recursion", THEORY, "g * wbb - x * x", "g * wbb - x * y",
           ("tests/test_theory.py::TestExactMoments",)),
    Mutant("row-after-advance", THEORY, MARK_ROW + ADVANCE, ADVANCE + MARK_ROW,
           ("tests/test_theory.py::TestExactMoments",)),
    Mutant("kernel-growth-flat", THEORY, "s, t, params.second_eigenvalue)", "s, t, 0.0)",
           ("tests/test_theory.py::TestPositionCovariances::test_cross_time_scaling_factor",)),
    Mutant("b0-weight", THEORY, "+ b0 / (2.0 * r - 1.0)", "+ b0 / (2.0 * r)",
           ("tests/test_theory.py::TestLimitMoments",)),
    Mutant("b1-weight", THEORY, "+ np.diag(w) - np.outer(v, w) - np.outer(w, v)",
           "- np.diag(w) + np.outer(v, w) + np.outer(w, v)", ("tests/test_theory.py::TestLimitMoments",)),
    Mutant("b1-asymmetric", THEORY, "- np.outer(v, w) - np.outer(w, v)", "- 2.0 * np.outer(v, w)",
           ("tests/test_theory.py::TestLimitMoments",)),
    Mutant("t2-weight", THEORY, "/ math.gamma(1.0 + r) ** 2 - 1.0", "/ math.gamma(1.0 + r) ** 2",
           ("tests/test_theory.py::TestSquareSeries", "tests/test_theory.py::TestLimitMoments")),
    Mutant("c2-term", THEORY, "+ 0.5 * c1 * c1", "+ c1 * c1", ("tests/test_theory.py::TestSquareSeries",)),
    Mutant("lln-negative-zero", THEORY, "if theta != 1.0:", "if True:",
           ("tests/test_theory.py::TestLlnLimit::test_pure_memory_limit_is_positive_zero",
            "tests/test_cli.py::TestTheoryCommand::test_pure_memory_point_has_positive_zero_lln_limit")),
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
