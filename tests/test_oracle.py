import math

import numpy as np
import pytest

from conftest import chisquare_pvalue
from memwalk import oracle, theory, urn
from memwalk.model import InitialSpec, WalkState, conditional_law, initial_step, step, validate_params
from memwalk.oracle import enumerate_paths, exact_marginals


def visit_paths(params, init, n, visit):
    """Reference: depth-first chain-rule expansion over all K^n paths.

    Calls ``visit(path_id, counts, prob)`` at every length-n leaf,
    including zero-probability ones, in lexicographic order.
    """
    K = params.K
    pi = init.distribution(params)
    counts = np.zeros(K, dtype=np.int64)

    def expand(depth, path_id, prob):
        if depth == n:
            visit(path_id, counts, prob)
            return
        law = pi if depth == 0 else conditional_law(params, WalkState(n=depth, counts=counts))
        for x in range(K):
            counts[x] += 1
            expand(depth + 1, path_id * K + x, prob * float(law[x]))
            counts[x] -= 1

    expand(0, 0, 1.0)


def reference_paths_and_counts(params, init, n):
    """Path probabilities and the count law, both from ``visit_paths``."""
    probs = np.zeros(params.K**n)
    law = {}

    def visit(path_id, counts, prob):
        probs[path_id] = prob
        key = tuple(counts.tolist())
        law[key] = law.get(key, 0.0) + prob

    visit_paths(params, init, n, visit)
    return probs, law


def reference_urn_law(params, init, n):
    """Reference: the urn composition law by branching on every
    (drawn, added) pair of each of the n - 1 draw/replace rounds."""
    K = params.K
    repl = [urn.replacement_distribution(params, j).tolist() for j in range(K)]
    law = {}

    def expand(balls, total, prob):
        if total == n:
            key = tuple(balls)
            law[key] = law.get(key, 0.0) + prob
            return
        for drawn in range(K):
            if balls[drawn] == 0:
                continue
            p_draw = balls[drawn] / total
            for added in range(K):
                p_add = repl[drawn][added]
                if p_add == 0.0:
                    continue
                balls[added] += 1
                expand(balls, total + 1, prob * p_draw * p_add)
                balls[added] -= 1

    for first, q in enumerate(init.distribution(params).tolist()):
        if q > 0.0:
            start = [0] * K
            start[first] = 1
            expand(start, 1, q)
    return law


def reference_grid():
    """K in 2..5, theta in {0, 0.3, 1}, p in {0, 0.2, 1/K, 0.9, 1}, three starts."""
    for K in (2, 3, 4, 5):
        custom = InitialSpec.custom(np.random.default_rng(K).dirichlet(np.ones(K)))
        for theta in (0.0, 0.3, 1.0):
            for p in (0.0, 0.2, 1.0 / K, 0.9, 1.0):
                params = validate_params(K // 2, K % 2 == 1, p, theta)
                for init in (InitialSpec.uniform(), InitialSpec.fixed(K - 1), custom):
                    yield params, init


class TestEnumeratePaths:
    def test_single_step_uniform(self):
        params = validate_params(1, False, 0.5, 0.5)
        dist = enumerate_paths(params, InitialSpec.uniform(), 1)
        assert np.allclose(dist.probs, [0.5, 0.5])

    def test_two_step_hand_values(self):
        params = validate_params(1, False, 0.75, 1.0)
        dist = enumerate_paths(params, InitialSpec.uniform(), 2)
        law = dict(dist.sequences())
        assert law[(0, 0)] == pytest.approx(0.375, abs=1e-15)
        assert law[(0, 1)] == pytest.approx(0.125, abs=1e-15)
        assert law[(1, 0)] == pytest.approx(0.125, abs=1e-15)
        assert law[(1, 1)] == pytest.approx(0.375, abs=1e-15)

    def test_total_mass_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            d = int(rng.integers(1, 3))
            lazy = bool(rng.integers(2))
            params = validate_params(d, lazy, rng.uniform(), rng.uniform())
            n = int(rng.integers(1, 5))
            dist = enumerate_paths(params, InitialSpec.uniform(), n)
            assert len(dist.probs) == params.K**n
            assert abs(dist.probs.sum() - 1.0) < 1e-12

    def test_zero_probability_paths_retained(self):
        params = validate_params(1, False, 0.5, 0.5)
        dist = enumerate_paths(params, InitialSpec.fixed(0), 2)
        assert len(dist.probs) == 4
        assert dist.probs[2] == 0.0 and dist.probs[3] == 0.0

    def test_size_guard(self):
        params = validate_params(3, False, 0.5, 0.5)
        with pytest.raises(ValueError):
            enumerate_paths(params, InitialSpec.uniform(), 10)
        with pytest.raises(ValueError, match="n must be >= 1"):
            enumerate_paths(params, InitialSpec.uniform(), 0)


class TestExactMarginals:
    def test_symmetric_memory_mean_zero(self):
        params = validate_params(2, False, 0.7, 1.0)
        marg = exact_marginals(params, InitialSpec.uniform(), 4)
        assert np.allclose(marg.mean_position, 0.0, atol=1e-14)

    def test_axis_counts_split_evenly(self):
        for d, n in [(1, 4), (2, 4)]:
            params = validate_params(d, False, 0.8, 1.0)
            marg = exact_marginals(params, InitialSpec.uniform(), n)
            assert np.allclose(marg.mean_axis_counts, n / d, atol=1e-12)

    def test_iid_binomial_mean(self):
        # first step drawn from the bias law itself, so all 3 steps are
        # i.i.d. and E(S_3) = 3 (2p - 1)
        params = validate_params(1, False, 0.7, 0.0)
        marg = exact_marginals(params, InitialSpec.custom([0.7, 0.3]), 3)
        assert marg.mean_position[0] == pytest.approx(1.2, abs=1e-14)

    def test_fixed_start_first_moment(self):
        params = validate_params(1, False, 0.9, 1.0)
        marg = exact_marginals(params, InitialSpec.fixed(0), 1)
        assert np.allclose(marg.mean_position, [1.0])
        assert np.allclose(marg.position_cov, [[0.0]])


class TestSamplerAgainstOracle:
    def test_three_step_paths_chi_square(self):
        params = validate_params(1, False, 0.75, 1.0)
        init = InitialSpec.uniform()
        dist = enumerate_paths(params, init, 3)
        rng = np.random.default_rng(777)
        freq = np.zeros(len(dist.probs), dtype=int)
        for _ in range(20_000):
            state = initial_step(params, init, rng)
            pid = int(np.argmax(state.counts))
            for _ in range(2):
                prev = state.counts.copy()
                state = step(params, state, rng)
                pid = pid * params.K + int(np.argmax(state.counts - prev))
            freq[pid] += 1
        assert chisquare_pvalue(freq, dist.probs) > 1e-3


class TestCountLaws:
    def test_walk_count_law_masses(self):
        params = validate_params(1, True, 0.4, 0.6)
        law = oracle.walk_count_law(params, InitialSpec.uniform(), 3)
        assert abs(sum(law.values()) - 1.0) < 1e-12
        assert all(sum(key) == 3 for key in law)

    def test_urn_count_law_masses(self):
        params = validate_params(1, False, 0.9, 1.0)
        law = oracle.urn_count_law(params, InitialSpec.uniform(), 4)
        assert abs(sum(law.values()) - 1.0) < 1e-12
        assert all(sum(key) == 4 for key in law)

    def test_total_variation_of_identical_laws(self):
        law = {(1, 0): 0.5, (0, 1): 0.5}
        assert oracle.total_variation(law, dict(law)) == 0.0
        assert oracle.total_variation(law, {(1, 0): 1.0}) == pytest.approx(0.5)

    def test_match_recursive_references(self):
        # path probabilities bit for bit, count laws to 1e-14 in total variation
        for params, init in reference_grid():
            for n in range(1, 6):
                probs, walk = reference_paths_and_counts(params, init, n)
                assert np.array_equal(enumerate_paths(params, init, n).probs, probs)
                assert oracle.total_variation(oracle.walk_count_law(params, init, n), walk) < 1e-14
                balls = reference_urn_law(params, init, n)
                assert oracle.total_variation(oracle.urn_count_law(params, init, n), balls) < 1e-14


class TestCountLattice:
    """Sizes beyond reach of path enumeration."""

    @pytest.mark.parametrize("d, lazy, n", [(1, False, 60), (1, True, 40)])
    def test_rows_sorted_and_summed_in_the_order_of_the_children(self, d, lazy, n):
        # a forward pass over a dict, parents in lexicographic order and each child's
        # weights added in turn, gives the same rows and the same probabilities bit for bit
        params = validate_params(d, lazy, 0.9, 0.8)
        init = InitialSpec.uniform()
        kernel = oracle._walk_kernel(params)
        K = params.K
        law = dict(zip(map(tuple, np.eye(K, dtype=np.int64).tolist()), init.distribution(params).tolist()))
        for m in range(1, n):
            parents = sorted(law)
            weights = np.array([law[s] for s in parents])[:, None] * kernel(np.array(parents), m)
            law = {}
            for state, row in zip(parents, weights.tolist()):
                for k, w in enumerate(row):
                    child = state[:k] + (state[k] + 1,) + state[k + 1:]
                    law[child] = law.get(child, 0.0) + w
        states, probs = oracle._count_law(params, init, n, kernel)
        assert list(map(tuple, states.tolist())) == sorted(law)
        assert probs.tolist() == [law[s] for s in sorted(law)]

    @pytest.mark.parametrize(
        "d,lazy,n,init",
        [
            (1, False, 1000, InitialSpec.uniform()),
            (1, False, 1000, InitialSpec.fixed(0)),
            (1, True, 100, InitialSpec.uniform()),
            (2, True, 20, InitialSpec.uniform()),
        ],
    )
    def test_marginals_match_exact_moments(self, d, lazy, n, init):
        params = validate_params(d, lazy, 0.9, 0.8)
        table = theory.exact_moments(params, init, n)
        marg = exact_marginals(params, init, n)
        mean, cov = table.mean_position[-1], table.position_cov[-1]
        scale = max(np.abs(mean).max(), np.abs(cov).max())
        assert np.abs(marg.mean_position - mean).max() <= 1e-12 * scale
        assert np.abs(marg.position_cov - cov).max() <= 1e-12 * scale
        assert np.array_equal(marg.position_cov, marg.position_cov.T)
        counts = table.mean_counts[-1]
        axis_counts = counts[0 : 2 * d : 2] + counts[1 : 2 * d : 2]
        assert np.abs(marg.mean_axis_counts - axis_counts).max() <= 1e-12 * n

    @pytest.mark.parametrize("d,lazy,n", [(1, True, 60), (2, True, 12)])
    def test_walk_and_urn_agree_state_by_state(self, d, lazy, n):
        K = 2 * d + 1
        for theta in (0.0, 0.5, 1.0):
            for p in (0.2, 1.0 / K, 0.9, 1.0):
                params = validate_params(d, lazy, p, theta)
                walk = oracle.walk_count_law(params, InitialSpec.uniform(), n)
                balls = oracle.urn_count_law(params, InitialSpec.uniform(), n)
                assert walk.keys() == balls.keys()
                assert len(walk) == math.comb(n + K - 1, K - 1)
                assert max(abs(walk[key] - balls[key]) for key in walk) <= 1e-15

    def test_size_guard(self):
        params = validate_params(1, False, 0.5, 0.5)
        assert len(oracle.walk_count_law(params, InitialSpec.uniform(), 23)) == 24
        for K, lazy in ((2, False), (3, True)):
            params = validate_params(1, lazy, 0.5, 0.5)
            n = 1
            while math.comb(n + K, K) <= oracle.MAX_PATHS:
                n += 1
            for law in (oracle.walk_count_law, oracle.urn_count_law, oracle.exact_marginals):
                with pytest.raises(ValueError):
                    law(params, InitialSpec.uniform(), n)
