import math

import numpy as np
import pytest
from scipy.special import gammaln, zeta

from memwalk import oracle, theory, urn
from memwalk.model import InitialSpec, validate_params
from memwalk.theory import (
    Regime,
    RegimeMismatchError,
    classify_regime,
    critical_covariance,
    critical_probability,
    count_covariance_critical,
    count_covariance_diffusive,
    diffusive_covariance,
    exact_moments,
    limit_moments,
    lln_limit,
    martingale_coefficients,
    martingale_square_series,
    spectral_decomposition,
    uniform_start_limit_second_moment,
)


def moment_recursion(params, init, n_max):
    """Count means and second moments for n = 1..n_max by the K x K recursion.

    m_{n+1} = (I + A/n) m_n and q_{n+1} = q_n + (A q_n + q_n A^T + diag(A m_n)) / n,
    where A is the mean replacement matrix; diag(A m_n) is the mixture of
    the per-color added-ball second moments, which are all diagonal. The
    reference that the closed form of exact_moments is checked against.
    """
    A = urn.mean_replacement_matrix(params)
    m = init.distribution(params)
    q = np.diag(m)
    diag_idx = np.arange(params.K)
    means, seconds = [], []
    for n in range(1, n_max + 1):
        means.append(m)
        seconds.append(q)
        am = A @ m
        aq = A @ q
        q = q + (aq + aq.T) / n
        q[diag_idx, diag_idx] += am / n
        m = m + am / n
    return np.array(means), np.array(seconds)


def assert_matches_recursion(params, init, n_max):
    """Closed form and recursion agree to 1e-12 of max|E N_n N_n^T| at every n."""
    table = exact_moments(params, init, n_max)
    means, seconds = moment_recursion(params, init, n_max)
    scale = np.abs(seconds).max(axis=(1, 2))
    mean_err = np.abs(table.mean_counts - means).max(axis=1)
    second_err = np.abs(table.counts_second - seconds).max(axis=(1, 2))
    assert np.all(mean_err <= 1e-12 * scale), (params, init)
    assert np.all(second_err <= 1e-12 * scale), (params, init)


def first_steps(K):
    return [
        InitialSpec.uniform(),
        InitialSpec.fixed(K - 1),
        InitialSpec.custom(np.arange(1.0, K + 1.0) / (K * (K + 1) / 2)),
    ]


def sample_grid(rng, count=50):
    """Valid parameter points over K in {2..5} avoiding the degenerate corner."""
    points = []
    while len(points) < count:
        d = int(rng.integers(1, 4))
        lazy = bool(rng.integers(2))
        p = float(rng.uniform())
        th = float(rng.uniform())
        if th == 1.0 and p == 1.0:
            continue
        params = validate_params(d, lazy, p, th)
        if params.K <= 5:
            points.append(params)
    return points


class TestCriticalProbability:
    def test_known_values(self):
        assert critical_probability(2, 1.0) == 0.75
        assert critical_probability(3, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_boundary_reaches_one_at_half(self):
        for K in range(2, 8):
            assert critical_probability(K, 0.5) == 1.0

    def test_below_one_iff_theta_above_half(self):
        for K in (2, 3, 5):
            for th in (0.51, 0.75, 1.0):
                assert critical_probability(K, th) < 1.0
            for th in (0.1, 0.3, 0.5):
                assert critical_probability(K, th) >= 1.0

    def test_theta_zero_rejected(self):
        with pytest.raises(RegimeMismatchError):
            critical_probability(2, 0.0)

    def test_region_grows_with_choices(self):
        # superdiffusive region {p > p_c} widens as K grows
        for th in (0.6, 0.8, 1.0):
            pcs = [critical_probability(K, th) for K in range(2, 8)]
            assert all(a > b for a, b in zip(pcs, pcs[1:]))


class TestClassifyRegime:
    def test_examples(self):
        assert classify_regime(validate_params(1, False, 0.6, 1.0)) is Regime.DIFFUSIVE
        assert classify_regime(validate_params(1, False, 0.75, 1.0)) is Regime.CRITICAL
        assert classify_regime(validate_params(1, False, 0.9, 1.0)) is Regime.SUPERDIFFUSIVE
        assert classify_regime(validate_params(1, False, 0.9, 0.0)) is Regime.NO_TRANSITION

    def test_always_diffusive_when_boundary_above_one(self):
        # theta <= 1/2 puts the boundary at or above p = 1
        assert classify_regime(validate_params(2, False, 0.99, 0.4)) is Regime.DIFFUSIVE
        assert classify_regime(validate_params(1, False, 1.0, 0.5)) is Regime.CRITICAL

    def test_constructed_critical_point(self):
        for K, th in [(2, 0.8), (4, 0.9), (5, 1.0)]:
            d, lazy = K // 2, K % 2 == 1
            pc = critical_probability(K, th)
            assert classify_regime(validate_params(d, lazy, pc, th)) is Regime.CRITICAL


class TestLlnLimit:
    def test_pure_memory_has_no_drift(self):
        assert np.allclose(lln_limit(validate_params(2, False, 0.8, 1.0)), 0.0)

    def test_uniform_rate_has_no_drift(self):
        assert np.allclose(lln_limit(validate_params(1, True, 1.0 / 3.0, 0.7)), 0.0)

    def test_iid_drift(self):
        assert np.allclose(lln_limit(validate_params(1, False, 0.7, 0.0)), [0.4])

    def test_only_first_axis(self):
        limit = lln_limit(validate_params(3, False, 0.9, 0.4))
        assert np.all(limit[1:] == 0.0) and limit[0] > 0.0

    def test_degenerate_corner(self):
        with pytest.raises(ValueError):
            lln_limit(validate_params(1, False, 1.0, 1.0))


class TestSpectralDecomposition:
    def test_principal_vectors(self):
        params = validate_params(2, True, 0.7, 0.8)
        sd = spectral_decomposition(params)
        assert np.allclose(sd.left[0], 1.0)
        assert abs(sd.right[0].sum() - 1.0) < 1e-14
        for j in range(1, params.K):
            expected = np.zeros(params.K)
            expected[0], expected[j] = 1.0, -1.0
            assert np.array_equal(sd.right[j], expected)

    def test_eigen_identities_on_grid(self):
        rng = np.random.default_rng(2024)
        for params in sample_grid(rng, 50):
            sd = spectral_decomposition(params)
            A = sd.matrix
            K = params.K
            for i in range(K):
                assert np.abs(A @ sd.right[i] - sd.eigenvalues[i] * sd.right[i]).max() < 1e-12
                assert np.abs(sd.left[i] @ A - sd.eigenvalues[i] * sd.left[i]).max() < 1e-12
            assert np.abs(sd.left @ sd.right.T - np.eye(K)).max() < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            spectral_decomposition(validate_params(1, False, 1.0, 1.0))


class TestCountCovariances:
    def test_diffusive_rows_sum_to_zero(self):
        rng = np.random.default_rng(11)
        for params in sample_grid(rng, 40):
            if classify_regime(params) in (Regime.DIFFUSIVE, Regime.NO_TRANSITION):
                sigma = count_covariance_diffusive(params)
                assert np.abs(sigma.sum(axis=1)).max() < 1e-12
                assert np.abs(sigma - sigma.T).max() < 1e-14

    def test_regime_gates(self):
        super_params = validate_params(1, False, 0.9, 1.0)
        with pytest.raises(RegimeMismatchError):
            count_covariance_diffusive(super_params)
        with pytest.raises(RegimeMismatchError):
            count_covariance_critical(super_params)
        crit = validate_params(1, False, 0.75, 1.0)
        with pytest.raises(RegimeMismatchError):
            count_covariance_diffusive(crit)
        count_covariance_critical(crit)  # accepted on the boundary

    def test_critical_zero_at_p_one(self):
        params = validate_params(1, True, 1.0, 0.5)  # K=3, p_c(3, 1/2) = 1
        assert np.allclose(count_covariance_critical(params), 0.0)

    def test_diffusive_projection_identity(self):
        rng = np.random.default_rng(12)
        checked = 0
        for params in sample_grid(rng, 120):
            if classify_regime(params) not in (Regime.DIFFUSIVE, Regime.NO_TRANSITION):
                continue
            proj = urn.pairing_matrix(params.d, params.lazy)
            lhs = proj @ count_covariance_diffusive(params) @ proj.T
            rhs = diffusive_covariance(params, 1.0, 1.0)
            assert np.abs(lhs - rhs).max() < 1e-10
            checked += 1
        assert checked >= 50

    def test_critical_projection_identity(self):
        for K, th in [(2, 1.0), (3, 0.8), (4, 0.7), (5, 1.0), (2, 0.6)]:
            pc = critical_probability(K, th)
            if pc > 1.0:
                continue
            params = validate_params(K // 2, K % 2 == 1, pc, th)
            proj = urn.pairing_matrix(params.d, params.lazy)
            lhs = proj @ count_covariance_critical(params) @ proj.T
            rhs = critical_covariance(params, 1.0, 1.0)
            assert np.abs(lhs - rhs).max() < 1e-10


class TestPositionCovariances:
    def test_simple_symmetric_walk(self):
        params = validate_params(1, False, 0.5, 1.0)
        assert np.allclose(diffusive_covariance(params, 1.0, 1.0), [[1.0]], atol=1e-14)

    def test_iid_uniform_steps(self):
        for K in (2, 4, 6):
            params = validate_params(K // 2, False, 1.0 / K, 0.6)
            assert np.allclose(
                diffusive_covariance(params, 1.0, 1.0), (2.0 / K) * np.eye(K // 2), atol=1e-14
            )

    def test_cross_time_scaling_factor(self):
        params = validate_params(1, False, 0.7, 0.6)
        lam = params.second_eigenvalue
        base = diffusive_covariance(params, 1.0, 1.0)
        later = diffusive_covariance(params, 1.0, 4.0)
        assert np.allclose(later, base * 4.0**lam, atol=1e-14)

    def test_time_argument_validation(self):
        params = validate_params(1, False, 0.6, 1.0)
        with pytest.raises(ValueError):
            diffusive_covariance(params, 0.0, 1.0)
        with pytest.raises(ValueError):
            diffusive_covariance(params, 2.0, 1.0)

    def test_critical_example_value(self):
        params = validate_params(1, False, 0.75, 1.0)
        assert np.allclose(critical_covariance(params, 1.0, 1.0), [[1.0]], atol=1e-14)

    def test_critical_linear_in_s(self):
        params = validate_params(1, False, 0.75, 1.0)
        one = critical_covariance(params, 1.0, 2.0)
        two = critical_covariance(params, 2.0, 2.0)
        assert np.allclose(two, 2.0 * one)

    def test_psd_on_grid(self):
        rng = np.random.default_rng(13)
        for params in sample_grid(rng, 60):
            regime = classify_regime(params)
            if regime in (Regime.DIFFUSIVE, Regime.NO_TRANSITION):
                mat = diffusive_covariance(params, 1.0, 1.0)
            elif regime is Regime.CRITICAL:
                mat = critical_covariance(params, 1.0, 1.0)
            else:
                continue
            assert np.abs(mat - mat.T).max() < 1e-12
            assert np.linalg.eigvalsh(mat).min() > -1e-10


class TestMartingaleCoefficients:
    def test_first_weight_is_one(self):
        params = validate_params(2, False, 0.8, 0.9)
        assert martingale_coefficients(params, 5)[0] == 1.0

    def test_telescoping_at_rate_one(self):
        params = validate_params(1, False, 1.0, 1.0)  # rate = 1 -> a_k = 1/k
        a = martingale_coefficients(params, 1000)
        assert np.allclose(a, 1.0 / np.arange(1, 1001), rtol=1e-12)

    def test_matches_direct_product_to_a_million(self):
        params = validate_params(1, False, 0.9, 1.0)
        n = 1_000_000
        a = martingale_coefficients(params, n)
        rate = params.second_eigenvalue
        k = np.arange(1, n, dtype=float)
        direct = np.r_[1.0, np.cumprod(k / (k + rate))]
        mask = direct > 0
        assert np.abs(a[mask] / direct[mask] - 1.0).max() < 1e-10

    def test_gamma_ratio_limit(self):
        params = validate_params(1, False, 0.9, 1.0)
        rate = params.second_eigenvalue
        a = martingale_coefficients(params, 1_000_000)
        ratio = a[-1] * 1_000_000.0**rate / math.gamma(rate + 1.0)
        assert abs(ratio - 1.0) < 1e-4

    def test_gamma_ratio_monotone(self):
        params = validate_params(1, False, 0.85, 1.0)
        rate = params.second_eigenvalue
        ns = np.array([10, 100, 1_000, 10_000, 100_000])
        a = martingale_coefficients(params, ns[-1])
        errs = np.abs(a[ns - 1] * ns.astype(float) ** rate - math.gamma(rate + 1.0))
        assert np.all(np.diff(errs) < 0)

    def test_negative_rate_allowed(self):
        params = validate_params(1, False, 0.1, 0.5)  # rate in (-1, 0)
        a = martingale_coefficients(params, 50)
        assert np.all(np.isfinite(a)) and np.all(a >= 1.0)


class TestSquareSeries:
    def test_basel_value(self):
        params = validate_params(1, False, 1.0, 1.0)  # rate 1: sum 1/k^2
        assert abs(martingale_square_series(params) - math.pi**2 / 6.0) < 1e-8

    def test_large_rate_dominated_by_first_term(self):
        value = theory._square_series(50.0)
        assert 1.0 < value < 1.001

    def test_monotone_decreasing_in_rate(self):
        values = [theory._square_series(r) for r in (0.55, 0.6, 0.7, 0.8, 0.9, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_divergent_rejected(self):
        with pytest.raises(RegimeMismatchError):
            martingale_square_series(validate_params(1, False, 0.6, 1.0))

    @pytest.mark.parametrize("r", [0.6, 0.8, 0.95, 1.0])
    def test_drift_square_weight_matches_direct_sum(self, r):
        # term by term in log-gamma space, 2e5 terms, then the same tail
        k = np.arange(1, 200_001, dtype=float)
        terms = np.exp(2.0 * gammaln(k + r) - gammaln(k + 1.0) - gammaln(k + 1.0 + 2.0 * r))
        total = terms.sum() + zeta(2.0, k[-1] + 1.0) - r * (r + 2.0) * zeta(3.0, k[-1] + 1.0)
        direct = r * r * math.gamma(1.0 + 2.0 * r) / math.gamma(1.0 + r) ** 2 * total
        assert abs(theory._drift_square_weight(r) / direct - 1.0) < 1e-12

    def test_drift_square_weight_at_rate_one(self):
        # sum_k 1/((k+1)(k+2)) = 1/2 and the prefactor is 2
        assert abs(theory._drift_square_weight(1.0) - 1.0) < 1e-12


class TestExactMoments:
    def test_first_step_uniform(self):
        for d, lazy in [(1, False), (2, False), (2, True)]:
            params = validate_params(d, lazy, 0.7, 0.8)
            table = exact_moments(params, InitialSpec.uniform(), 1)
            assert np.allclose(table.mean_position[0], 0.0, atol=1e-15)
            assert np.allclose(table.position_cov[0], np.eye(d) / d, atol=1e-15)

    def test_counts_mass(self):
        params = validate_params(2, True, 0.6, 0.9)
        table = exact_moments(params, InitialSpec.uniform(), 50)
        assert np.allclose(table.mean_counts.sum(axis=1), np.arange(1, 51), atol=1e-10)

    def test_matches_enumeration(self):
        init = InitialSpec.uniform()
        for d, lazy, p, th in [(1, False, 0.75, 1.0), (1, True, 0.6, 0.5), (2, False, 0.3, 0.8)]:
            params = validate_params(d, lazy, p, th)
            table = exact_moments(params, init, 5)
            for n in range(1, 6):
                marg = oracle.exact_marginals(params, init, n)
                assert np.abs(marg.mean_position - table.mean_position[n - 1]).max() < 1e-12
                assert np.abs(marg.position_cov - table.position_cov[n - 1]).max() < 1e-12

    def test_position_cov_psd(self):
        params = validate_params(2, False, 0.9, 1.0)
        table = exact_moments(params, InitialSpec.fixed(0), 200)
        for n in (1, 10, 100, 200):
            cov = table.position_cov[n - 1]
            assert np.linalg.eigvalsh(cov).min() > -1e-10

    def test_matches_forward_recursion_on_grid(self):
        # lambda = -1 at (K=2, theta=1, p=0), -1/2 at p = 1/4, 0 at theta = 0
        # or p = 1/K, and 1 at theta = p = 1
        for d in (1, 2, 3):
            for lazy in (False, True):
                K = 2 * d + lazy
                for theta in (0.0, 0.3, 1.0):
                    for p in (0.0, 0.25, 1.0 / K, 0.9, 1.0):
                        params = validate_params(d, lazy, p, theta)
                        for init in first_steps(K):
                            assert_matches_recursion(params, init, 500)

    # the corners lambda = -1, -1/2, 0 and 1, then two interior points
    @pytest.mark.parametrize(
        "d, lazy, p, theta",
        [(1, False, 0.0, 1.0), (1, False, 0.25, 1.0), (1, False, 0.5, 1.0),
         (1, False, 1.0, 1.0), (1, False, 0.9, 1.0), (2, True, 0.9, 0.3)],
    )
    def test_matches_forward_recursion_long(self, d, lazy, p, theta):
        params = validate_params(d, lazy, p, theta)
        assert_matches_recursion(params, first_steps(params.K)[2], 10_000)

    def test_mean_growth_approaches_lln(self):
        params = validate_params(1, False, 0.8, 0.3)
        limit = theory.lln_limit(params)[0]
        table = exact_moments(params, InitialSpec.uniform(), 100_000)
        errs = [abs(table.mean_position[n - 1][0] / n - limit) for n in (1_000, 10_000, 100_000)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3


class TestLimitMoments:
    def test_regime_gate(self):
        with pytest.raises(RegimeMismatchError):
            limit_moments(validate_params(1, False, 0.6, 1.0), InitialSpec.uniform())

    def test_fully_persistent_exact(self):
        # S_n = n * X_1, so the scaled second moment is E(X_1 X_1^T) = I/d
        for d in (1, 2):
            params = validate_params(d, False, 1.0, 1.0)
            lm = limit_moments(params, InitialSpec.uniform())
            assert np.abs(lm.second_moment - np.eye(d) / d).max() < 1e-15

    def test_matches_uniform_start_closed_form(self):
        # exact recursion fixed point: 1 / (d (2r-1) Gamma(2r)) on the diagonal
        for d in (1, 2):
            for p in (0.85, 0.9, 0.95):
                params = validate_params(d, False, p, 1.0)
                lm = limit_moments(params, InitialSpec.uniform())
                closed = uniform_start_limit_second_moment(params)
                assert np.abs(lm.second_moment - closed).max() <= 1e-12 * np.abs(closed).max()

    # a fixed first step makes w = pi - v nonzero, and theta < 1 gives the
    # B1 term a nonzero pairing; the gap closes like n^(1-2r), a factor
    # 10^0.6 per decade at r = 0.8
    @pytest.mark.parametrize(
        "d, lazy, p, theta, index", [(1, False, 0.9, 1.0, 0), (1, True, 0.95, 0.9, 2)]
    )
    def test_finite_n_moments_converge_to_limit(self, d, lazy, p, theta, index):
        params = validate_params(d, lazy, p, theta)
        r = params.second_eigenvalue
        init = InitialSpec.fixed(index)
        limit = limit_moments(params, init).second_moment
        table = exact_moments(params, init, 100_000)
        gaps = []
        for n in (10_000, 100_000):
            scale = math.exp(2.0 * (math.lgamma(n) - math.lgamma(n + r)))
            gaps.append(np.abs(scale * table.position_cov[n - 1] - limit).max() / np.abs(limit).max())
        assert gaps[1] * 3.0 <= gaps[0]
        assert gaps[1] < 3e-3

    def test_mean_is_zero(self):
        lm = limit_moments(validate_params(1, False, 0.95, 1.0), InitialSpec.uniform())
        assert np.all(lm.mean == 0.0)

