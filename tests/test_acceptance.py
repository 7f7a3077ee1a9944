"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.

Criterion 9 is expected red: its tabulated reference constant
1/(Gamma(2rt+1) Gamma(2rt)) for the scaled-limit second moment is
inconsistent with the exact moment recursion of the process, which
converges to 1/(d (2rt-1) Gamma(2rt)) instead (rt = 1.6/2 here). Exact
enumeration, forward propagation, and Monte Carlo all agree with the
latter; the degenerate fully persistent case (p = 1, where the limit is
exactly 1, not 1/2) pins down which form is right. The test keeps the
stated constant and fails honestly. See README, "Known red criterion".
"""

import math

import numpy as np
import pytest

from conftest import chisquare_pvalue
from memwalk import model, montecarlo, oracle, theory
from memwalk.model import InitialSpec, initial_step, step, validate_params
from memwalk.montecarlo import (
    cross_time_covariance,
    gaussianity_check,
    run_ensemble,
    scaling_exponent,
)

UNIFORM = InitialSpec.uniform()


def report(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def diffusive_ensemble():
    # shared by criteria 6 and 11: (K=2, theta=1, p=0.6), n=1e4, R=1e4
    params = validate_params(1, False, 0.6, 1.0)
    summary = run_ensemble(
        params, UNIFORM, 10_000, [10_000], 10_000, seed=60_601, retain_samples=True
    )
    return params, summary


def test_criterion_01_exact_threshold():
    ok = theory.critical_probability(2, 1.0) == 0.75
    ok = ok and all(theory.critical_probability(K, 0.5) == 1.0 for K in range(2, 9))
    report(1, ok, "boundary exactly 0.75 at (K=2, theta=1) and exactly 1 at theta=0.5")


def test_criterion_02_spectral_identities():
    rng = np.random.default_rng(9_021)
    worst = 0.0
    checked = 0
    while checked < 50:
        d = int(rng.integers(1, 4))
        lazy = bool(rng.integers(2))
        params = validate_params(d, lazy, float(rng.uniform()), float(rng.uniform()))
        if params.K > 5 or abs(1.0 - params.second_eigenvalue) < 1e-12:
            continue
        sd = theory.spectral_decomposition(params)
        A = sd.matrix
        for i in range(params.K):
            worst = max(worst, float(np.abs(A @ sd.right[i] - sd.eigenvalues[i] * sd.right[i]).max()))
            worst = max(worst, float(np.abs(sd.left[i] @ A - sd.eigenvalues[i] * sd.left[i]).max()))
        worst = max(worst, float(np.abs(sd.left @ sd.right.T - np.eye(params.K)).max()))
        worst = max(worst, float(np.abs(A.sum(axis=0) - 1.0).max()))
        checked += 1
    report(2, worst < 1e-10, f"eigen/biorthogonality/column sums on 50 points, worst {worst:.2e}")


def test_criterion_03_oracle_equivalence():
    worst_moment = 0.0
    worst_tv = 0.0
    for K in (2, 3, 4):
        d, lazy = K // 2, K % 2 == 1
        for th in (0.0, 0.5, 1.0):
            for p in (0.2, 1.0 / K, 0.9):
                params = validate_params(d, lazy, p, th)
                table = theory.exact_moments(params, UNIFORM, 5)
                for n in range(1, 6):
                    marg = oracle.exact_marginals(params, UNIFORM, n)
                    worst_moment = max(
                        worst_moment,
                        float(np.abs(marg.mean_position - table.mean_position[n - 1]).max()),
                        float(np.abs(marg.position_cov - table.position_cov[n - 1]).max()),
                    )
                for n in range(1, 5):
                    walk = oracle.walk_count_law(params, UNIFORM, n)
                    balls = oracle.urn_count_law(params, UNIFORM, n)
                    worst_tv = max(worst_tv, oracle.total_variation(walk, balls))
    ok = worst_moment < 1e-12 and worst_tv < 1e-12
    report(3, ok, f"propagation vs enumeration {worst_moment:.2e}, urn vs walk TV {worst_tv:.2e}")


def test_criterion_04_sampler_correctness():
    points = [
        (1, False, 0.75, 1.0),
        (1, False, 0.3, 0.5),
        (1, True, 0.5, 0.6),
        (2, False, 0.9, 1.0),
        (1, False, 0.7, 0.0),
    ]
    pvals = []
    for seed, (d, lazy, p, th) in enumerate(points):
        params = validate_params(d, lazy, p, th)
        dist = oracle.enumerate_paths(params, UNIFORM, 3)
        rng = np.random.default_rng(40_000 + seed)
        freq = np.zeros(len(dist.probs), dtype=np.int64)
        for _ in range(100_000):
            state = initial_step(params, UNIFORM, rng)
            pid = int(np.argmax(state.counts))
            for _ in range(2):
                prev = state.counts.copy()
                state = step(params, state, rng)
                pid = pid * params.K + int(np.argmax(state.counts - prev))
            freq[pid] += 1
        pvals.append(chisquare_pvalue(freq, dist.probs))
    ok = all(pv > 1e-3 for pv in pvals)
    report(4, ok, "chi-square of 1e5 length-3 paths at 5 points, p-values "
           + ", ".join(f"{pv:.3f}" for pv in pvals))


def test_criterion_05_law_of_large_numbers():
    params = validate_params(1, False, 0.8, 0.3)
    n = 100_000
    summary = run_ensemble(params, UNIFORM, n, [n], 200, seed=50_505)
    cp = summary.at(n)
    limit = theory.lln_limit(params)
    z = np.abs(cp.mean / n - limit) / (cp.stderr / n)
    report(5, bool(np.all(z <= 4.0)), f"|mean/n - limit| = {float(z.max()):.2f} SE (gate 4)")


def test_criterion_06_diffusive_fclt(diffusive_ensemble):
    params, summary = diffusive_ensemble
    n = 10_000
    R = summary.replicas
    cp = summary.at(n)
    th = theory.diffusive_covariance(params, 1.0, 1.0)
    emp = cp.cov / n
    se = np.sqrt((np.outer(np.diag(th), np.diag(th)) + th**2) / R)
    z = float(np.max(np.abs(emp - th) / se))

    # exact projection identity on a parameter grid
    rng = np.random.default_rng(606)
    worst_proj = 0.0
    checked = 0
    while checked < 50:
        d = int(rng.integers(1, 4))
        lazy = bool(rng.integers(2))
        cand = validate_params(d, lazy, float(rng.uniform()), float(rng.uniform()))
        if theory.classify_regime(cand) not in (theory.Regime.DIFFUSIVE, theory.Regime.NO_TRANSITION):
            continue
        proj = model.pairing_matrix(cand.K)
        lhs = proj @ theory.count_covariance_diffusive(cand) @ proj.T
        worst_proj = max(worst_proj, float(np.abs(lhs - theory.diffusive_covariance(cand, 1.0, 1.0)).max()))
        checked += 1

    cross_emp = cross_time_covariance(params, UNIFORM, 1.0, 4.0, 10_000, 4_000, seed=60_602)
    cross_th = theory.diffusive_covariance(params, 1.0, 4.0)
    cross_rel = float(np.max(np.abs(cross_emp - cross_th)) / np.max(np.abs(cross_th)))

    ok = z <= 4.0 and worst_proj < 1e-10 and cross_rel <= 0.10
    report(6, ok, f"cov {z:.2f} SE (gate 4), projection {worst_proj:.2e} (gate 1e-10), "
           f"cross-time (1,4) rel {cross_rel:.3f} (gate 0.10)")


def test_criterion_07_critical_fclt():
    params = validate_params(1, False, 0.75, 1.0)
    summary = run_ensemble(params, UNIFORM, 10_000, [1_000, 10_000], 4_000, seed=70_707)
    ratios = {cp.n: float(np.trace(cp.cov) / (cp.n * math.log(cp.n))) for cp in summary.checkpoints}
    th = float(np.trace(theory.critical_covariance(params, 1.0, 1.0)))
    drift = abs(ratios[10_000] / ratios[1_000] - 1.0)
    offset = abs(ratios[10_000] / th - 1.0)
    ok = drift <= 0.15 and offset <= 0.15
    report(7, ok, f"trace/(n log n) drift {drift:.3f}, vs theory {offset:.3f} (gates 0.15)")


def test_criterion_08_superdiffusive_exponent():
    params = validate_params(1, False, 0.9, 1.0)
    marks = sorted(set(int(v) for v in np.geomspace(100, 100_000, 7)))
    summary = run_ensemble(params, UNIFORM, 100_000, marks, 2_000, seed=80_808)
    slope, _ = scaling_exponent(summary)
    err_stoch = abs(slope - 1.6)

    persistent = validate_params(1, False, 1.0, 1.0)
    det = run_ensemble(persistent, UNIFORM, 10_000, [100, 1_000, 10_000], 64, seed=80_809)
    slope_det, _ = scaling_exponent(det)
    err_det = abs(slope_det - 2.0)

    ok = err_stoch <= 0.1 and err_det <= 0.01
    report(8, ok, f"slope {slope:.3f} vs 1.6 (gate 0.1); deterministic {slope_det:.4f} vs 2.0 (gate 0.01)")


def test_criterion_09_limit_moments():
    params = validate_params(1, False, 0.9, 1.0)
    rate = params.second_eigenvalue  # 0.8
    stated = 1.0 / (math.gamma(2.0 * rate + 1.0) * math.gamma(2.0 * rate))

    limit = theory.limit_moments(params, UNIFORM)
    prop_err = abs(float(limit.second_moment[0, 0]) - stated)

    n, R = 100_000, 10_000
    summary = run_ensemble(params, UNIFORM, n, [n], R, seed=90_909)
    cp = summary.at(n)
    mc_second = float(cp.cov[0, 0]) / n ** (2.0 * rate)
    mc_rel = abs(mc_second / stated - 1.0)

    mean_z = float(np.max(np.abs(cp.mean / n**rate) / (cp.stderr / n**rate)))
    mean_ok = mean_z <= 4.0

    ok = prop_err < 1e-3 and mc_rel <= 0.05 and mean_ok
    report(
        9,
        ok,
        f"propagation {float(limit.second_moment[0, 0]):.5f} vs stated {stated:.5f} "
        f"(|diff| {prop_err:.2e}, gate 1e-3); MC {mc_second:.5f} rel {mc_rel:.3f} (gate 0.05); "
        f"mean {mean_z:.2f} SE (gate 4)",
    )


def test_criterion_10_numerics():
    params = validate_params(1, False, 0.9, 1.0)
    rate = params.second_eigenvalue
    a = theory.martingale_coefficients(params, 1_000_000)
    ratio = float(a[-1]) * 1_000_000.0**rate / math.gamma(rate + 1.0)
    gamma_ok = 1.0 - 1e-4 <= ratio <= 1.0 + 1e-4

    basel = theory._square_series(1.0)
    basel_err = abs(basel - math.pi**2 / 6.0)
    ok = gamma_ok and basel_err < 1e-8
    report(10, ok, f"gamma-ratio {ratio:.8f} (gate 1e-4); Basel sum error {basel_err:.2e} (gate 1e-8)")


def test_criterion_11_gaussianity(diffusive_ensemble):
    _, summary = diffusive_ensemble
    shapes = gaussianity_check(summary.samples[10_000])
    worst = max(max(abs(s.skew_z), abs(s.kurt_z)) for s in shapes)
    ok = all(
        not s.degenerate and abs(s.skew_z) <= 4.0 and abs(s.kurt_z) <= 4.0 for s in shapes
    )
    report(11, ok, f"skew/kurtosis worst {worst:.2f} SE (gate 4)")
