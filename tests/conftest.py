import os
from pathlib import Path

import numpy as np
from scipy.stats import chi2

from memwalk.model import InitialSpec, validate_params

SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env() -> dict:
    """This process's environment with src/ first on PYTHONPATH, for a child Python."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def chisquare_pvalue(observed: np.ndarray, probs: np.ndarray) -> float:
    """Goodness-of-fit p-value with small-expectation bins pooled.

    Bins with expected count below 5 are merged into one pooled bin.
    Observations in zero-probability bins force a zero p-value.
    """
    observed = np.asarray(observed, dtype=float)
    probs = np.asarray(probs, dtype=float)
    total = observed.sum()
    if observed[probs == 0.0].sum() > 0:
        return 0.0
    observed = observed[probs > 0.0]
    expected = probs[probs > 0.0] * total

    order = np.argsort(expected)
    observed, expected = observed[order], expected[order]
    small = expected < 5.0
    if small.any():
        pooled_obs = observed[small].sum()
        pooled_exp = expected[small].sum()
        observed = np.append(observed[~small], pooled_obs)
        expected = np.append(expected[~small], pooled_exp)
    if len(observed) < 2:
        return 1.0
    stat = float(((observed - expected) ** 2 / expected).sum())
    dof = len(observed) - 1
    return float(chi2.sf(stat, dof))


def histogram_pvalue(samples: dict, law: dict, min_bins: int = 10) -> float:
    """``chisquare_pvalue`` of sample counts against an exact law.

    Both are dicts over the same kind of key; a key missing from ``law``
    has probability zero. Fails unless at least ``min_bins`` bins expect
    five samples or more, so the gate cannot pass by pooling everything.
    """
    keys = sorted(set(law) | set(samples))
    observed = np.array([samples.get(k, 0) for k in keys])
    probs = np.array([law.get(k, 0.0) for k in keys])
    assert (probs * observed.sum() >= 5.0).sum() >= min_bins
    return chisquare_pvalue(observed, probs)


def sampler_grid():
    """(params, init) pairs for the draw-for-draw sampler tests.

    K in 2..5, theta in {0, 0.3, 1}, p in {0, 1/K, 0.9, 1}, and a uniform,
    a fixed and a custom first step (the custom one puts no mass on move 0).
    """
    for K in range(2, 6):
        custom = np.arange(K) / (K * (K - 1) / 2)
        starts = (InitialSpec.uniform(), InitialSpec.fixed(K - 1), InitialSpec.custom(custom))
        for theta in (0.0, 0.3, 1.0):
            for p in (0.0, 1.0 / K, 0.9, 1.0):
                params = validate_params(K // 2, K % 2 == 1, p, theta)
                for init in starts:
                    yield params, init


class FixedUniform:
    """Generator stand-in whose ``random()`` always returns ``u``.

    ``integers`` comes from ``rng``. A ``u`` just below one reaches the
    clip that keeps a sampler's index below K when a cumulative law sums
    to slightly less than one.
    """

    def __init__(self, u: float, rng=None):
        self.u = u
        self.rng = rng

    def random(self) -> float:
        return self.u

    def integers(self, n):
        return self.rng.integers(n)
