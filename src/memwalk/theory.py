"""Closed-form asymptotics for the memory walk.

Everything here is analytic: the phase boundary and regime
classification, the strong-law limit, the spectral decomposition of the
mean replacement matrix, limiting covariances of the count and position
fluctuations in the diffusive and critical regimes, martingale weights
and their squared series, exact finite-n moments, and the second moment
of the superdiffusive scaled limit.

The exact moments use the rank-one structure of the mean replacement
matrix, A = lam I + (1 - lam) v 1^T: the mean and covariance of the
counts at every n are fixed matrices weighted by scalar sequences run
forward in n, and the superdiffusive limit of the covariance is a closed
form plus one series with a Hurwitz-zeta tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, zeta

from . import urn
from .model import InitialSpec, ModelParams, base_step_rates

#: Absolute tolerance on p - critical_probability used to call a
#: parameter point critical. Callers wanting critical behaviour should
#: construct p from critical_probability directly.
CRITICAL_TOL = 1e-12


class Regime(str, Enum):
    DIFFUSIVE = "diffusive"
    CRITICAL = "critical"
    SUPERDIFFUSIVE = "superdiffusive"
    NO_TRANSITION = "no-transition"


class RegimeMismatchError(ValueError):
    """An operation specific to one regime was asked about another."""


def critical_probability(K: int, theta: float) -> float:
    """Phase boundary (K + 2*theta - 1) / (2*theta*K).

    May exceed 1, in which case no superdiffusive phase exists for that
    theta; it is below 1 exactly when theta > 1/2. Undefined at theta=0
    (the walk is then a sum of i.i.d. biased steps for every p).
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    if theta <= 0.0:
        raise RegimeMismatchError("no phase transition at theta = 0")
    return (K + 2.0 * theta - 1.0) / (2.0 * theta * K)


def classify_regime(params: ModelParams) -> Regime:
    """Diffusive / critical / superdiffusive by p against the boundary.

    theta = 0 reports NO_TRANSITION: the walk is diffusive for every p
    and there is no boundary to cross.
    """
    if params.theta == 0.0:
        return Regime.NO_TRANSITION
    pc = critical_probability(params.K, params.theta)
    if abs(params.p - pc) < CRITICAL_TOL:
        return Regime.CRITICAL
    return Regime.DIFFUSIVE if params.p < pc else Regime.SUPERDIFFUSIVE


def lln_limit(params: ModelParams) -> np.ndarray:
    """Almost-sure limit of S_n / n.

    Equals ((1-theta)(Kp-1) / (K-1 + theta(1-Kp))) * e_1; the denominator
    is positive except in the degenerate fully persistent corner
    theta = p = 1.
    """
    K, p, theta = params.K, params.p, params.theta
    denom = K - 1.0 + theta * (1.0 - K * p)
    if denom <= 0.0:
        raise ValueError("degenerate parameters theta = p = 1: S_n / n has a random limit")
    out = np.zeros(params.d)
    out[0] = (1.0 - theta) * (K * p - 1.0) / denom
    return out


@dataclass
class SpectralData:
    """Eigensystem of the mean replacement matrix.

    ``left[i]`` and ``right[i]`` are the i-th left/right eigenvectors,
    biorthogonal (left[i] @ right[j] = delta_ij). Index 0 is the
    principal pair: left all-ones, right summing to one.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    left: np.ndarray
    right: np.ndarray


def spectral_decomposition(params: ModelParams) -> SpectralData:
    """Closed-form eigenvectors of the mean replacement matrix.

    Fails when the secondary eigenvalue equals 1 (theta = p = 1), where
    the 1/(1 - lambda_2) normalization degenerates.
    """
    K, p = params.K, params.p
    lam2 = params.second_eigenvalue
    if abs(1.0 - lam2) < 1e-14:
        raise ValueError("secondary eigenvalue equals 1; eigenvectors degenerate")
    norm = (K - 1.0) * (1.0 - lam2)

    left = np.zeros((K, K))
    right = np.zeros((K, K))
    left[0] = np.ones(K)
    right[0] = np.full(K, (1.0 - p) / norm)
    right[0, 0] = (K - 1.0) * (p - lam2) / norm
    for j in range(1, K):
        left[j] = np.full(K, (1.0 - p) / norm)
        left[j, j] = ((K - 1.0) * lam2 - (K - 2.0) - p) / norm
        right[j, 0] = 1.0
        right[j, j] = -1.0

    eigenvalues = np.full(K, lam2)
    eigenvalues[0] = 1.0
    return SpectralData(
        matrix=urn.mean_replacement_matrix(params),
        eigenvalues=eigenvalues,
        left=left,
        right=right,
    )


def _require_diffusive(params: ModelParams) -> None:
    regime = classify_regime(params)
    if regime not in (Regime.DIFFUSIVE, Regime.NO_TRANSITION):
        raise RegimeMismatchError(f"operation requires 2*lambda_2 < 1, regime is {regime.value}")


def count_covariance_diffusive(params: ModelParams) -> np.ndarray:
    """Limiting covariance of the count fluctuations, diffusive regime.

    C * M with C = (1-p) / ((K-1)^2 (1-lam)^2 (1-2lam)) and M the matrix
    with first row/column ((K-1)a, -a, ..., -a), diagonal b and p-1
    elsewhere, where a = (K-1)(p-lam) and b = (p-1) + (K-1)(1-lam).
    Every row sums to zero: fluctuations preserve the total count.
    """
    _require_diffusive(params)
    K, p = params.K, params.p
    lam = params.second_eigenvalue
    a = (K - 1.0) * (p - lam)
    b = (p - 1.0) + (K - 1.0) * (1.0 - lam)
    c = (1.0 - p) / ((K - 1.0) ** 2 * (1.0 - lam) ** 2 * (1.0 - 2.0 * lam))
    mat = np.full((K, K), p - 1.0)
    mat[0, :] = -a
    mat[:, 0] = -a
    mat[0, 0] = (K - 1.0) * a
    mat[np.arange(1, K), np.arange(1, K)] = b
    return c * mat


def count_covariance_critical(params: ModelParams) -> np.ndarray:
    """Limiting covariance of the count fluctuations on the boundary.

    4 (1-p)/(K-1)^2 (p + (K-3)/2) times the matrix with (K-1) in the
    corner, -1 along the first row/column and the identity elsewhere.
    """
    if classify_regime(params) is not Regime.CRITICAL:
        raise RegimeMismatchError("operation requires 2*lambda_2 = 1")
    K, p = params.K, params.p
    pref = 4.0 * (1.0 - p) / (K - 1.0) ** 2 * (p + (K - 3.0) / 2.0)
    mat = np.eye(K)
    mat[0, :] = -1.0
    mat[:, 0] = -1.0
    mat[0, 0] = K - 1.0
    return pref * mat


def diffusive_covariance(params: ModelParams, s: float, t: float) -> np.ndarray:
    """Cross-time covariance of the rescaled position, diffusive regime.

    E(W_s W_t^T) = s (t/s)^lam * omega * diag((K+1)alpha + beta + p - 1,
    2 beta, ..., 2 beta) with alpha = (K-1)p + theta(1-Kp),
    beta = K-1 + theta(1-Kp), omega = (K-1)(1-p) / (beta^2 (K-1 + 2theta(1-Kp))).
    """
    _require_diffusive(params)
    if not 0.0 < s <= t:
        raise ValueError("need 0 < s <= t")
    K, p, theta = params.K, params.p, params.theta
    lam = params.second_eigenvalue
    alpha = (K - 1.0) * p + theta * (1.0 - K * p)
    beta = K - 1.0 + theta * (1.0 - K * p)
    omega = (K - 1.0) * (1.0 - p) / (beta**2 * (K - 1.0 + 2.0 * theta * (1.0 - K * p)))
    diag = np.full(params.d, 2.0 * beta)
    diag[0] = (K + 1.0) * alpha + beta + p - 1.0
    return s * (t / s) ** lam * omega * np.diag(diag)


def critical_covariance(params: ModelParams, s: float, t: float) -> np.ndarray:
    """Cross-time covariance of the rescaled position on the boundary.

    4s (1-p)/(K-1)^2 (p + (K-3)/2) * diag(K+2, 2, ..., 2); constant in t.
    """
    if classify_regime(params) is not Regime.CRITICAL:
        raise RegimeMismatchError("operation requires 2*lambda_2 = 1")
    if not 0.0 < s <= t:
        raise ValueError("need 0 < s <= t")
    K, p = params.K, params.p
    pref = 4.0 * s * (1.0 - p) / (K - 1.0) ** 2 * (p + (K - 3.0) / 2.0)
    diag = np.full(params.d, 2.0)
    diag[0] = K + 2.0
    return pref * np.diag(diag)


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """Correction series of ln Gamma beyond the Stirling main term."""
    z2 = z * z
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z2)) / z2) / z


def _log_gamma_ratio(k: np.ndarray, r: float) -> np.ndarray:
    """ln Gamma(k) - ln Gamma(k + r) without large-argument cancellation.

    Differencing lgamma directly loses ~|lgamma(k)| * eps absolute
    accuracy in the exponent (1e-9 relative at k = 1e6). For large k the
    Stirling expansions are differenced analytically instead, leaving
    only O(1)-sized terms.
    """
    k = np.asarray(k, dtype=float)
    out = np.empty_like(k)
    small = k < 25.0
    ks = k[small]
    out[small] = gammaln(ks) - gammaln(ks + r)
    z = k[~small]
    correction = np.log1p(r / z)
    out[~small] = (
        -r * np.log(z)
        + (r - (z + r - 0.5) * correction)
        + _stirling_tail(z)
        - _stirling_tail(z + r)
    )
    return out


def martingale_coefficients(params: ModelParams, n: int) -> np.ndarray:
    """Weights a_k = prod_{l<k} l/(l + r), r = second_eigenvalue, k = 1..n.

    a_n * S-hat_n is a martingale. Evaluated in log-gamma space as
    exp(lgamma(r+1) + lgamma(k) - lgamma(r+k)), with the difference
    formed cancellation-free; a_k * k^r decreases monotonically to
    Gamma(r+1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = params.second_eigenvalue
    if r <= -1.0:
        raise ValueError("weights diverge at second_eigenvalue <= -1")
    k = np.arange(1, n + 1, dtype=float)
    return np.exp(gammaln(r + 1.0) + _log_gamma_ratio(k, r))


def _ratio_series(factors: np.ndarray, tail_scale: float, s: float, c: float) -> float:
    """sum_{k>=1} t_k with t_k = factors[0] * ... * factors[k-1].

    The head, k <= M = len(factors), is summed term by term; ``factors``
    is overwritten with it. Beyond it the terms follow
    tail_scale * k^(-s) (1 + c/k + O(k^-2)), and that tail is evaluated
    through Hurwitz zeta functions.
    """
    cutoff = len(factors)
    head = float(np.cumprod(factors, out=factors).sum())
    tail = tail_scale * (zeta(s, cutoff + 1.0) + c * zeta(s + 1.0, cutoff + 1.0))
    return head + float(tail)


def _square_series(rate: float) -> float:
    """sum_{k>=1} (Gamma(rate+1) Gamma(k) / Gamma(rate+k))^2 for 2*rate > 1.

    Half a million head terms, then the tail of the expansion
    a_k^2 = Gamma(rate+1)^2 k^(-2 rate) (1 + rate(1-rate)/k + O(k^-2)),
    whose truncation error at the cutoff is below 1e-10 for every
    admissible rate. A fixed-term truncation would need ~1e10 terms near
    rate = 1 for the same tolerance.
    """
    if 2.0 * rate <= 1.0:
        raise RegimeMismatchError("squared weight series diverges unless 2*rate > 1")
    cutoff = 500_000
    k = np.arange(1, cutoff, dtype=float)
    factors = np.ones(cutoff)
    factors[1:] = (k / (k + rate)) ** 2
    g2 = math.exp(2.0 * math.lgamma(rate + 1.0))
    return _ratio_series(factors, g2, 2.0 * rate, rate * (1.0 - rate))


def martingale_square_series(params: ModelParams) -> float:
    """Sum of the squared martingale weights, sum_{k>=1} a_k^2.

    Finite exactly in the superdiffusive regime (2r > 1 with
    r = second_eigenvalue); equals the hypergeometric value
    3F2(1, 1, 1; r+1, r+1; 1).
    """
    return _square_series(params.second_eigenvalue)


@dataclass
class MomentTable:
    """Exact moments for n = 1..N, projected to position space.

    mean_counts[n-1] sums to n; position_cov[n-1] is symmetric positive
    semidefinite up to roundoff.
    """

    steps: np.ndarray
    mean_counts: np.ndarray
    counts_second: np.ndarray
    mean_position: np.ndarray
    position_cov: np.ndarray


def exact_moments(params: ModelParams, init: InitialSpec, n_max: int) -> MomentTable:
    """Tabulate exact count and position moments for n = 1..n_max.

    With b = base_step_rates, pi the first-step law and lam the second
    eigenvalue, the next move given the counts N_n has law
    mu = b + (lam/n) N_n. Its mean mu_n = b + (lam/n) m_n is the
    increment of m_n = E N_n, so m_n = c_n pi + e_n b and
    mu_n = x_n b + y_n pi with x_n = 1 + lam e_n/n, y_n = lam c_n/n.
    The covariance obeys
    Sigma_{n+1} = (1 + 2 lam/n) Sigma_n + diag(mu_n) - mu_n mu_n^T,
    so it is a combination of the fixed matrices diag b, diag pi, b b^T,
    b pi^T + pi b^T and pi pi^T, starting from Sigma_1 = diag pi - pi pi^T.
    Only these scalar weights are run forward, never divided by their
    running products, which vanish at lam = -1 and lam = -1/2. Exact up
    to roundoff; agrees with full path enumeration for small instances.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
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
    # m m^T = e^2 b b^T + c e (b pi^T + pi b^T) + c^2 pi pi^T, so the raw
    # second moment is one more combination of the same five matrices
    second = cov.copy()
    second[:, 2:] += np.column_stack([e * e, c * e, c * c])
    basis = np.stack([
        np.diag(b), np.diag(pi), np.outer(b, b), np.outer(b, pi) + np.outer(pi, b), np.outer(pi, pi),
    ])
    proj = urn.pairing_matrix(params.d, params.lazy)
    mean_counts = np.outer(c, pi) + np.outer(e, b)
    return MomentTable(
        steps=np.arange(1, n_max + 1),
        mean_counts=mean_counts,
        counts_second=np.tensordot(second, basis, axes=1),
        mean_position=mean_counts @ proj.T,
        position_cov=np.tensordot(cov, proj @ basis @ proj.T, axes=1),
    )


#: Terms of the series in limit_moments that are summed one by one. With
#: the Hurwitz-zeta tail beyond them the series is exact to 1e-12.
_LIMIT_HEAD = 20_000


def _drift_square_weight(r: float) -> float:
    """T2 = r^2 Gamma(1+2r)/Gamma(1+r)^2 sum_{k>=1} Gamma(k+r)^2 / (Gamma(k+1) Gamma(k+1+2r)).

    The terms behave like k^-2 (1 - r(r+2)/k). Relative to the first,
    Gamma(1+r)^2 / Gamma(2+2r), they are products of the ratios below.
    At r = 1 the sum is 1/2 and T2 = 1.
    """
    k = np.arange(1, _LIMIT_HEAD, dtype=float)
    factors = np.ones(_LIMIT_HEAD)
    factors[1:] = (k + r) ** 2 / ((k + 1.0) * (k + 1.0 + 2.0 * r))
    inv_first = math.exp(math.lgamma(2.0 + 2.0 * r) - 2.0 * math.lgamma(1.0 + r))
    return r * r / (1.0 + 2.0 * r) * _ratio_series(factors, inv_first, 2.0, -r * (r + 2.0))


@dataclass
class LimitMoments:
    """Moments of the scaled superdiffusive limit L = lim S-hat_n / n^r.

    mean is exactly zero. second_moment is the exact series of
    ``limit_moments``; n_final is the number of its terms summed one by
    one before the Hurwitz-zeta tail.
    """

    mean: np.ndarray
    second_moment: np.ndarray
    n_final: int


def limit_moments(params: ModelParams, init: InitialSpec) -> LimitMoments:
    """Second moment of the superdiffusive scaled limit, r = second_eigenvalue.

    With v = b / (1 - r) (v = pi at theta = p = 1, where b = 0) and
    w = pi - v, the mean of exact_moments is m_n = n v + c_n w, and the
    forcing of its covariance recursion is B0 + t_n B1 - t_n^2 B2 with
    t_n = r c_n / n, B0 = diag v - v v^T, B1 = diag w - v w^T - w v^T and
    B2 = w w^T. Summing the forcing against the inverse growth factor
    1 / prod_{k<=n} (1 + 2r/k) gives Sigma_1 + B0/(2r-1) + B1 - T2 B2:
    the weights of B0 and B1 are Beta-integral sums in closed form and
    T2 is ``_drift_square_weight``. As the growth factor is
    ~ n^(2r) / Gamma(1+2r), Cov(N_n) / n^(2r) tends to that matrix over
    Gamma(1+2r), and the pairing projects it to position space.
    """
    if classify_regime(params) is not Regime.SUPERDIFFUSIVE:
        raise RegimeMismatchError("limit moments exist only in the superdiffusive regime")
    r = params.second_eigenvalue
    pi = init.distribution(params)
    if params.theta == 1.0 and params.p == 1.0:
        v = pi
    else:
        v = base_step_rates(params) / (1.0 - r)
    w = pi - v
    counts = (
        np.diag(pi) - np.outer(pi, pi)
        + (np.diag(v) - np.outer(v, v)) / (2.0 * r - 1.0)
        + np.diag(w) - np.outer(v, w) - np.outer(w, v)
        - _drift_square_weight(r) * np.outer(w, w)
    ) / math.gamma(1.0 + 2.0 * r)
    proj = urn.pairing_matrix(params.d, params.lazy)
    return LimitMoments(mean=np.zeros(params.d), second_moment=proj @ counts @ proj.T, n_final=_LIMIT_HEAD)


def uniform_start_limit_second_moment(params: ModelParams) -> np.ndarray:
    """Closed form of E(L L^T) for theta = 1, K = 2d, uniform first step.

    The exact recursion Cov_{n+1} = (1 + 2r/n) Cov_n + (1/d) I with
    Cov_1 = (1/d) I rescales to (1/d) sum_{m>=1} Gamma(m)/Gamma(m+2r),
    and the Beta-integral identity gives 1/(d (2r-1) Gamma(2r)) I_d.
    Requires 2r > 1.
    """
    if params.theta != 1.0 or params.lazy:
        raise ValueError("closed form holds for theta = 1 without laziness")
    r = params.second_eigenvalue
    if 2.0 * r <= 1.0:
        raise RegimeMismatchError("closed form requires the superdiffusive regime")
    value = 1.0 / (params.d * (2.0 * r - 1.0) * math.gamma(2.0 * r))
    return value * np.eye(params.d)
