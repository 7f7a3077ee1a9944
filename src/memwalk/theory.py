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
forward in n, and the superdiffusive limit of the covariance is in closed
form, its one hypergeometric weight summed by Gauss's theorem. Only the
squared martingale weights are a series; its Hurwitz-zeta tail is
evaluated by Euler-Maclaurin at q = 20 001, exact there to double
precision, so the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import urn
from .model import InitialSpec, ModelParams, base_step_rates, pairing_matrix

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


#: The regimes with a Gaussian limit: below the boundary, and theta = 0, where there is no boundary.
_DIFFUSIVE_REGIMES = (Regime.DIFFUSIVE, Regime.NO_TRANSITION)


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


def _require_regime(params: ModelParams, regimes: tuple[Regime, ...], what: str) -> None:
    """Raise RegimeMismatchError, naming the quantity ``what``, unless params lie in one of ``regimes``."""
    regime = classify_regime(params)
    if regime not in regimes:
        allowed = " or ".join(r.value for r in regimes)
        raise RegimeMismatchError(f"{what} needs a {allowed} point, got {regime.value}")


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
    if theta != 1.0:  # at theta = 1 the limit is +0.0 for every p; the formula gives -0.0 where Kp < 1
        out[0] = (1.0 - theta) * (K * p - 1.0) / denom
    return out


def _forcing(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """v = b / (1 - lam), the limit of N_n / n, and B0 = diag v - v v^T.

    B0 is the limit of the forcing diag mu_n - mu_n mu_n^T of the count
    covariance recursion in _moments_at; undefined at theta = p = 1.
    """
    v = base_step_rates(params) / (1.0 - params.second_eigenvalue)
    return v, np.diag(v) - np.outer(v, v)


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
    K = params.K
    lam2 = params.second_eigenvalue
    if abs(1.0 - lam2) < 1e-14:
        raise ValueError("secondary eigenvalue equals 1; eigenvectors degenerate")
    v = _forcing(params)[0]
    # left[j] = v_j 1 - e_j, right[j] = e_0 - e_j (j >= 1): biorthogonal as v sums to one
    left = v[:, None] - np.eye(K)
    left[0] = 1.0
    right = -np.eye(K)
    right[:, 0] = 1.0
    right[0] = v

    eigenvalues = np.full(K, lam2)
    eigenvalues[0] = 1.0
    return SpectralData(
        matrix=urn.mean_replacement_matrix(params),
        eigenvalues=eigenvalues,
        left=left,
        right=right,
    )


def count_covariance_diffusive(params: ModelParams) -> np.ndarray:
    """Limiting covariance of the count fluctuations, diffusive regime.

    Cov(N_n) / n -> B0 / (1 - 2 lam), B0 from ``_forcing``. Every row
    sums to zero: fluctuations preserve the total count.
    """
    _require_regime(params, _DIFFUSIVE_REGIMES, "the diffusive covariance")
    return _forcing(params)[1] / (1.0 - 2.0 * params.second_eigenvalue)


def count_covariance_critical(params: ModelParams) -> np.ndarray:
    """Limiting covariance of the count fluctuations on the boundary.

    Cov(N_n) / (n log n) -> B0 from ``_forcing``: at 2 lam = 1 the
    covariance recursion adds B0 with weight n / k at each k <= n.
    """
    _require_regime(params, (Regime.CRITICAL,), "the critical covariance")
    return _forcing(params)[1]


def _position_covariance(counts: np.ndarray, s: float, t: float, growth: float) -> np.ndarray:
    """s (t/s)^growth P C P^T, P = model.pairing_matrix: both functional limits, growth 0 on the boundary."""
    if not 0.0 < s <= t:
        raise ValueError("need 0 < s <= t")
    proj = pairing_matrix(len(counts))
    return s * (t / s) ** growth * (proj @ counts @ proj.T)


def diffusive_covariance(params: ModelParams, s: float, t: float) -> np.ndarray:
    """Cross-time covariance of the rescaled position, diffusive regime.

    E(W_s W_t^T) = s (t/s)^lam P C P^T with C = count_covariance_diffusive
    and P = model.pairing_matrix.
    """
    return _position_covariance(count_covariance_diffusive(params), s, t, params.second_eigenvalue)


def critical_covariance(params: ModelParams, s: float, t: float) -> np.ndarray:
    """Cross-time covariance of the rescaled position on the boundary.

    s P B0 P^T, constant in t, with B0 = count_covariance_critical and
    P = model.pairing_matrix; I_d / d at theta = 1.
    """
    return _position_covariance(count_covariance_critical(params), s, t, 0.0)


def martingale_coefficients(params: ModelParams, n: int) -> np.ndarray:
    """Weights a_k = prod_{l<k} l/(l + r), r = second_eigenvalue, k = 1..n.

    a_n * S-hat_n is a martingale. a_k = Gamma(r+1) Gamma(k) / Gamma(k+r),
    and a_k * k^r decreases monotonically to Gamma(r+1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = params.second_eigenvalue
    if r <= -1.0:
        raise ValueError("weights diverge at second_eigenvalue <= -1")
    k = np.arange(1, n, dtype=float)
    return np.r_[1.0, np.cumprod(k / (k + r))]


#: Terms of the squared-weight series summed one by one. With the
#: Hurwitz-zeta tail beyond them the series is exact to 1e-12.
_LIMIT_HEAD = 20_000


def _hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (k + q)^(-s) for s > 1, by Euler-Maclaurin to the B2 term.

    The first omitted term is (s-1)s(s+1)(s+2)/720 * q^-4 of the sum:
    below 6e-18 for the s <= 4 and q = _LIMIT_HEAD + 1 used here.
    """
    return q ** (1.0 - s) / (s - 1.0) + 0.5 * q**-s + s * q ** (-s - 1.0) / 12.0


def _square_series(rate: float) -> float:
    """sum_{k>=1} (Gamma(rate+1) Gamma(k) / Gamma(rate+k))^2 for 2*rate > 1.

    ``_LIMIT_HEAD`` head terms, then through Hurwitz zeta functions the tail of
    a_k^2 = Gamma(rate+1)^2 k^(-2 rate) (1 + c1/k + c2/k^2 + O(k^-3)) with
    c1 = rate(1-rate) and c2 = rate(rate-1)(2 rate-1)/6 + c1^2/2. A
    fixed-term truncation would need ~1e10 terms near rate = 1 for a
    1e-10 tolerance.
    """
    k = np.arange(1, _LIMIT_HEAD, dtype=float)
    factors = np.ones(_LIMIT_HEAD)
    factors[1:] = (k / (k + rate)) ** 2
    head = float(np.cumprod(factors, out=factors).sum())
    g2 = math.exp(2.0 * math.lgamma(rate + 1.0))
    c1 = rate * (1.0 - rate)
    c2 = rate * (rate - 1.0) * (2.0 * rate - 1.0) / 6.0 + 0.5 * c1 * c1
    s, q = 2.0 * rate, _LIMIT_HEAD + 1.0
    tail = _hurwitz_zeta(s, q) + (c1 * _hurwitz_zeta(s + 1.0, q) + c2 * _hurwitz_zeta(s + 2.0, q))
    return head + float(g2 * tail)


def martingale_square_series(params: ModelParams) -> float:
    """Sum of the squared martingale weights, sum_{k>=1} a_k^2.

    Finite exactly in the superdiffusive regime, 2r > 1 with r = second_eigenvalue, where it
    equals 3F2(1, 1, 1; r+1, r+1; 1); _require_regime refuses every other point.
    """
    _require_regime(params, (Regime.SUPERDIFFUSIVE,), "the squared weight series")
    return _square_series(params.second_eigenvalue)


#: Ceiling on the memory of exact_moments' n_max rows (1 GiB), counting every table as if all
#: were read. Only rows kept count: the one-mark mean verify --tag moments reads meets no cap.
MAX_TABLE_BYTES = 1 << 30


class MomentTable:
    """Exact moments at the marks n = steps[i] of _moments_at, projected to position space.

    Holds only the marks, the (M, 7) scalar weights kept at them, b, pi, the
    five basis matrices and the pairing P. Each of steps, mean_counts,
    counts_second, mean_position and position_cov is built on its first read
    and kept; the position tables build no count table. mean_counts[i] sums
    to steps[i]; position_cov[i] is symmetric positive semidefinite up to roundoff.
    """

    def __init__(self, marks, coef, b, pi, basis, proj):
        self._marks, self._coef, self._b, self._pi, self._basis, self._proj = marks, coef, b, pi, basis, proj

    def _mean(self) -> np.ndarray:
        return np.outer(self._coef[:, 0], self._pi) + np.outer(self._coef[:, 1], self._b)

    @cached_property
    def steps(self) -> np.ndarray:
        return np.array(self._marks)

    @cached_property
    def mean_counts(self) -> np.ndarray:
        return self._mean()

    @cached_property
    def counts_second(self) -> np.ndarray:
        c, e = self._coef[:, 0], self._coef[:, 1]
        # m m^T = e^2 b b^T + c e (b pi^T + pi b^T) + c^2 pi pi^T, so the raw
        # second moment is one more combination of the same five matrices
        second = self._coef[:, 2:].copy()
        second[:, 2:] += np.column_stack([e * e, c * e, c * c])
        return np.tensordot(second, self._basis, axes=1)

    @cached_property
    def mean_position(self) -> np.ndarray:
        return self._mean() @ self._proj.T

    @cached_property
    def position_cov(self) -> np.ndarray:
        return np.tensordot(self._coef[:, 2:], self._proj @ self._basis @ self._proj.T, axes=1)


def exact_moments(params: ModelParams, init: InitialSpec, n_max: int) -> MomentTable:
    """Tabulate exact count and position moments for n = 1..n_max.

    The one recursion of _moments_at, kept at every n; its n_max rows are held
    to MAX_TABLE_BYTES first. Agrees with full path enumeration for small instances.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    K, d = params.K, params.d
    # every table as if all were read, the coefficient table and the raw-moment copy
    need = 8 * n_max * (15 + K + K * K + d + d * d)
    if need > MAX_TABLE_BYTES:
        raise ValueError(
            f"exact_moments to n_max = {n_max} at K = {K} needs {need / 2**20:.0f} MiB,"
            f" above the {MAX_TABLE_BYTES >> 20} MiB limit"
        )
    return _moments_at(params, init, np.arange(1, n_max + 1))


def _moments_at(params: ModelParams, init: InitialSpec, marks) -> MomentTable:
    """Exact count and position moments at the strictly increasing marks n >= 1.

    With b = base_step_rates, pi the first-step law and lam the second
    eigenvalue, the next move given the counts N_n has law
    mu = b + (lam/n) N_n. Its mean mu_n = b + (lam/n) m_n is the
    increment of m_n = E N_n, so m_n = c_n pi + e_n b and
    mu_n = x_n b + y_n pi with x_n = 1 + lam e_n/n, y_n = lam c_n/n.
    The covariance obeys Sigma_{n+1} = (1 + 2 lam/n) Sigma_n + diag(mu_n) - mu_n mu_n^T,
    so it is a combination of the fixed matrices diag b, diag pi, b b^T,
    b pi^T + pi b^T and pi pi^T, starting from Sigma_1 = diag pi - pi pi^T.
    These seven scalar weights run forward once to the last mark, never divided
    by their running products, which vanish at lam = -1 and lam = -1/2, and a
    row is kept only at a mark. Exact up to roundoff.
    """
    marks = np.asarray(marks)
    if len(marks) == 0 or marks[0] < 1 or np.any(np.diff(marks) <= 0):
        raise ValueError("marks must be a non-empty, strictly increasing sequence of n >= 1")
    lam = params.second_eigenvalue
    b = base_step_rates(params)
    pi = init.distribution(params)
    c, e = 1.0, 0.0
    wb, wp, wbb, wbp, wpp = 0.0, 1.0, 0.0, 0.0, -1.0
    coef = np.empty((len(marks), 7))
    following = iter(marks.tolist())
    mark, i = next(following), 0
    for n in range(1, marks[-1] + 1):
        if n == mark:
            coef[i] = c, e, wb, wp, wbb, wbp, wpp
            i += 1
            mark = next(following, 0)
        x, y, g = 1.0 + lam * e / n, lam * c / n, 1.0 + 2.0 * lam / n
        wb, wp, wbb, wbp, wpp = g * wb + x, g * wp + y, g * wbb - x * x, g * wbp - x * y, g * wpp - y * y
        c, e = c + y, e + x
    basis = np.stack([
        np.diag(b), np.diag(pi), np.outer(b, b), np.outer(b, pi) + np.outer(pi, b), np.outer(pi, pi),
    ])
    return MomentTable(marks, coef, b, pi, basis, pairing_matrix(params.K))


def _drift_square_weight(r: float) -> float:
    """T2 = r^2 Gamma(1+2r)/Gamma(1+r)^2 sum_{k>=1} Gamma(k+r)^2 / (Gamma(k+1) Gamma(k+1+2r)).

    Summed from k = 0 the series is Gamma(r)^2/Gamma(1+2r) 2F1(r, r; 1+2r; 1)
    = 1/r^2 by Gauss's theorem; less its k = 0 term, T2 = Gamma(1+2r)/Gamma(1+r)^2 - 1.
    """
    return math.gamma(1.0 + 2.0 * r) / math.gamma(1.0 + r) ** 2 - 1.0


@dataclass
class LimitMoments:
    """Moments of the scaled superdiffusive limit L = lim S-hat_n / n^r.

    mean is exactly zero and second_moment is the closed form of
    ``limit_moments``. n_final is 0: no series is summed.
    """

    mean: np.ndarray
    second_moment: np.ndarray
    n_final: int


def limit_moments(params: ModelParams, init: InitialSpec) -> LimitMoments:
    """Second moment of the superdiffusive scaled limit, r = second_eigenvalue.

    With v = b / (1 - r) (v = pi at theta = p = 1, where b = 0) and
    w = pi - v, the mean of _moments_at is m_n = n v + c_n w, and the
    forcing of its covariance recursion is B0 + t_n B1 - t_n^2 B2 with
    t_n = r c_n / n, B0 = diag v - v v^T, B1 = diag w - v w^T - w v^T and
    B2 = w w^T. Summing the forcing against the inverse growth factor
    1 / prod_{k<=n} (1 + 2r/k) gives Sigma_1 + B0/(2r-1) + B1 - T2 B2:
    the weights of B0 and B1 are Beta-integral sums and T2 is the Gauss
    value of ``_drift_square_weight``, all in closed form. As the growth
    factor is ~ n^(2r) / Gamma(1+2r), Cov(N_n) / n^(2r) tends to that
    matrix over Gamma(1+2r), and the pairing projects it to position space.
    """
    _require_regime(params, (Regime.SUPERDIFFUSIVE,), "the limit second moment")
    r = params.second_eigenvalue
    pi = init.distribution(params)
    sigma1 = np.diag(pi) - np.outer(pi, pi)
    v, b0 = (pi, sigma1) if params.theta == 1.0 and params.p == 1.0 else _forcing(params)
    w = pi - v
    counts = (
        sigma1
        + b0 / (2.0 * r - 1.0)
        + np.diag(w) - np.outer(v, w) - np.outer(w, v)
        - _drift_square_weight(r) * np.outer(w, w)
    ) / math.gamma(1.0 + 2.0 * r)
    proj = pairing_matrix(params.K)
    return LimitMoments(mean=np.zeros(params.d), second_moment=proj @ counts @ proj.T, n_final=0)


def uniform_start_limit_second_moment(params: ModelParams) -> np.ndarray:
    """Closed form of E(L L^T) for theta = 1, K = 2d, uniform first step.

    The exact recursion Cov_{n+1} = (1 + 2r/n) Cov_n + (1/d) I with
    Cov_1 = (1/d) I rescales to (1/d) sum_{m>=1} Gamma(m)/Gamma(m+2r),
    and the Beta-integral identity gives 1/(d (2r-1) Gamma(2r)) I_d.
    Requires 2r > 1.
    """
    if params.theta != 1.0 or params.lazy:
        raise ValueError("closed form holds for theta = 1 without laziness")
    _require_regime(params, (Regime.SUPERDIFFUSIVE,), "the closed-form limit second moment")
    r = params.second_eigenvalue
    value = 1.0 / (params.d * (2.0 * r - 1.0) * math.gamma(2.0 * r))
    return value * np.eye(params.d)
