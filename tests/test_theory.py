import math

import numpy as np
import pytest
from scipy.special import gammaln, zeta

from memwalk import oracle, theory, urn
from memwalk.model import InitialSpec, base_step_rates, validate_params
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


TABLES = ("steps", "mean_counts", "counts_second", "mean_position", "position_cov")


def eager_moment_tables(params, init, n_max):
    """The five tables of exact_moments, all assembled at once from the weight recursion.

    The reference that the tables exact_moments builds on first read must
    equal bit for bit.
    """
    lam = params.second_eigenvalue
    b = base_step_rates(params)
    pi = init.distribution(params)
    c, e = 1.0, 0.0
    wb, wp, wbb, wbp, wpp = 0.0, 1.0, 0.0, 0.0, -1.0
    coef = np.empty((n_max, 7))
    for n in range(1, n_max + 1):
        coef[n - 1] = c, e, wb, wp, wbb, wbp, wpp
        x, y, g = 1.0 + lam * e / n, lam * c / n, 1.0 + 2.0 * lam / n
        wb, wp, wbb, wbp, wpp = g * wb + x, g * wp + y, g * wbb - x * x, g * wbp - x * y, g * wpp - y * y
        c, e = c + y, e + x
    c, e, cov = coef[:, 0], coef[:, 1], coef[:, 2:]
    second = cov.copy()
    second[:, 2:] += np.column_stack([e * e, c * e, c * c])
    basis = np.stack([
        np.diag(b), np.diag(pi), np.outer(b, b), np.outer(b, pi) + np.outer(pi, b), np.outer(pi, pi),
    ])
    proj = urn.pairing_matrix(params.d, params.lazy)
    mean_counts = np.outer(c, pi) + np.outer(e, b)
    return dict(
        steps=np.arange(1, n_max + 1),
        mean_counts=mean_counts,
        counts_second=np.tensordot(second, basis, axes=1),
        mean_position=mean_counts @ proj.T,
        position_cov=np.tensordot(cov, proj @ basis @ proj.T, axes=1),
    )


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
        with pytest.raises(ValueError, match="K must be at least 2"):
            critical_probability(1, 0.5)

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
        critical = validate_params(1, False, 0.75, 1.0)
        for s, t in ((0.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="need 0 < s <= t"):
                critical_covariance(critical, s, t)

    def test_critical_example_value(self):
        # I_d / d at theta = 1, the multidimensional elephant walk's value
        for d in (1, 2, 3):
            params = validate_params(d, False, critical_probability(2 * d, 1.0), 1.0)
            assert np.allclose(critical_covariance(params, 1.0, 1.0), np.eye(d) / d, atol=1e-14)

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


def exact_covariances(params, n_max):
    """Exact Cov(S_n) and Cov(N_n) for n = 1..n_max from exact_moments."""
    table = exact_moments(params, InitialSpec.uniform(), n_max)
    counts = table.counts_second - np.einsum("ni,nj->nij", table.mean_counts, table.mean_counts)
    return table.position_cov, counts


def max_rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestLimitsAgainstExactEngine:
    """The limit covariances against the exact engine's asymptotics."""

    N = 50_000

    @pytest.mark.parametrize("d, lazy, th", [
        (1, False, 1.0), (1, False, 0.8), (1, True, 1.0), (1, True, 0.8),
        (2, False, 1.0), (2, False, 0.8), (2, True, 1.0), (2, True, 0.8),
    ])
    def test_critical_n_log_n_slope(self, d, lazy, th):
        # Sigma_n / n = C log n + O(1), so its increment over n -> 2n is C ln 2
        params = validate_params(d, lazy, critical_probability(2 * d + lazy, th), th)
        n = self.N
        for cov, want in zip(exact_covariances(params, 2 * n),
                             (critical_covariance(params, 1.0, 1.0), count_covariance_critical(params))):
            slope = (cov[2 * n - 1] / (2 * n) - cov[n - 1] / n) / math.log(2.0)
            assert max_rel(slope, want) < 1e-2

    @pytest.mark.parametrize("d, lazy, p, th", [(1, True, 0.6, 0.8), (2, False, 0.5, 1.0), (2, True, 0.5, 0.6)])
    def test_diffusive_limit(self, d, lazy, p, th):
        # Sigma_n / n = C + c n^(2 lam - 1) + ...; Richardson over n and 2n removes c
        params = validate_params(d, lazy, p, th)
        n = self.N
        g = 2.0 ** (2.0 * params.second_eigenvalue - 1.0)
        for cov, want in zip(exact_covariances(params, 2 * n),
                             (diffusive_covariance(params, 1.0, 1.0), count_covariance_diffusive(params))):
            limit = (cov[2 * n - 1] / (2 * n) - g * cov[n - 1] / n) / (1.0 - g)
            assert max_rel(limit, want) < 1e-3


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
        with pytest.raises(ValueError, match="n must be >= 1"):
            martingale_coefficients(params, 0)
        with pytest.raises(ValueError, match="weights diverge"):  # r = -1
            martingale_coefficients(validate_params(1, False, 0.0, 1.0), 50)


class TestHurwitzZeta:
    Q = theory._LIMIT_HEAD + 1.0

    # s in (1, 4] for _square_series
    @pytest.mark.parametrize("s", [*np.linspace(1.0, 4.0, 31)[1:], 1.0 + 1e-6, 1.001, 1.02, 2.0, 3.0])
    def test_matches_scipy(self, s):
        assert abs(theory._hurwitz_zeta(float(s), self.Q) / zeta(s, self.Q) - 1.0) < 1e-15

    def test_underflows_to_zero(self):
        # _square_series(50.0) asks for s = 100, 101, 102
        assert [theory._hurwitz_zeta(s, self.Q) for s in (100.0, 101.0, 102.0)] == [0.0, 0.0, 0.0]
        assert math.isfinite(theory._square_series(50.0))


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

    @pytest.mark.parametrize(
        "r,value",
        [
            # 3F2(1, 1, 1; r+1, r+1; 1) to 20 significant digits
            (0.51, 40.098329979383805906),
            (0.6, 4.7620347307602174424),
            (0.75, 2.4159131244307828411),
            (0.9, 1.8358404413523787143),
            (1.0, 1.6449340668482264365),
        ],
    )
    def test_matches_hypergeometric_value(self, r, value):
        assert abs(theory._square_series(r) / value - 1.0) < 1e-13

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

    @pytest.mark.parametrize("d, lazy", [(1, False), (1, True), (2, False), (2, True)])
    def test_mean_position_is_last_table_row(self, d, lazy):
        params = validate_params(d, lazy, 0.9, 0.8)
        for init in (InitialSpec.uniform(), InitialSpec.fixed(0)):
            for n in (1, 2, 2_000, 100_000):
                want = exact_moments(params, init, n).mean_position[-1]
                assert np.array_equal(theory._mean_position(params, init, n), want)

    @pytest.mark.parametrize("K", range(2, 8))
    @pytest.mark.parametrize("theta", [0.0, 0.6, 1.0])
    def test_tables_match_eager_assembly(self, K, theta):
        params = validate_params(K // 2, K % 2 == 1, 0.7, theta)
        starts = [InitialSpec.uniform(), InitialSpec.fixed(0), first_steps(K)[2]]
        for init in starts:
            for n in (1, 2, 50, 1_000):
                table = exact_moments(params, init, n)
                for name, want in eager_moment_tables(params, init, n).items():
                    got = getattr(table, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (name, init, n)

    def test_tables_built_on_first_read(self):
        table = exact_moments(validate_params(2, True, 0.9, 1.0), InitialSpec.uniform(), 100)
        assert not set(TABLES) & set(vars(table))
        table.position_cov
        table.mean_position
        assert set(vars(table)) & set(TABLES) == {"position_cov", "mean_position"}
        assert table.mean_position is table.mean_position

    def test_oversized_tables_rejected_before_allocation(self):
        params = validate_params(2, True, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"n_max = 1000000000 at K = 5 needs \d+ MiB"):
            exact_moments(params, InitialSpec.uniform(), 10**9)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            exact_moments(params, InitialSpec.uniform(), 0)

    @pytest.mark.parametrize("d, lazy, per_step", [(1, False, 23), (2, True, 51)])
    def test_table_limit_at_its_boundary(self, monkeypatch, d, lazy, per_step):
        # 8 bytes per entry, 15 + K + K^2 + d + d^2 entries per step: the cap is met exactly at n = 100
        monkeypatch.setattr(theory, "MAX_TABLE_BYTES", 8 * 100 * per_step)
        params = validate_params(d, lazy, 0.6, 1.0)
        exact_moments(params, InitialSpec.uniform(), 100)
        with pytest.raises(ValueError, match="needs"):
            exact_moments(params, InitialSpec.uniform(), 101)


class TestLimitMoments:
    def test_regime_gate(self):
        with pytest.raises(RegimeMismatchError):
            limit_moments(validate_params(1, False, 0.6, 1.0), InitialSpec.uniform())
        # diffusive (r = 0.2) and critical (r = 0.5): the series behind the closed form diverges
        for p in (0.6, 0.75):
            with pytest.raises(RegimeMismatchError, match="needs a superdiffusive point"):
                uniform_start_limit_second_moment(validate_params(1, False, p, 1.0))
        for lazy, theta in ((False, 0.9), (True, 1.0)):
            with pytest.raises(ValueError, match="closed form holds for theta = 1 without laziness"):
                uniform_start_limit_second_moment(validate_params(1, lazy, 0.95, theta))

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

    # 40-digit values with T2 summed from its defining series, not Gauss's identity
    @pytest.mark.parametrize("d, lazy, p, theta, index, ref", [
        (1, False, 0.9, 1.0, 0, [[0.71252158543787523125]]),
        (1, True, 0.95, 0.9, 2, [[0.24405144122857595513]]),
        (2, True, 0.9875, 1.0, 0, [[0.022557015046928478584, 0.0], [0.0, 0.0066390809649189145907]]),
        (2, False, 0.95, 0.8, 3, [[0.42949243025799202659, 0.24000980109779216725],
                                  [0.24000980109779216725, 0.42785990549207767894]]),
    ])
    def test_matches_reference_values_off_the_uniform_start(self, d, lazy, p, theta, index, ref):
        got = limit_moments(validate_params(d, lazy, p, theta), InitialSpec.fixed(index)).second_moment
        ref = np.array(ref)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_mean_is_zero(self):
        lm = limit_moments(validate_params(1, False, 0.95, 1.0), InitialSpec.uniform())
        assert np.all(lm.mean == 0.0)

