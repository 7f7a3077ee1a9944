import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chisquare_pvalue
from memwalk import oracle, theory, urn
from memwalk.model import InitialSpec, validate_params
from memwalk.urn import (
    UrnState,
    counts_to_position,
    mean_replacement_matrix,
    pairing_matrix,
    replacement_distribution,
    urn_step,
)

PARAM_GRID = [
    (1, False, 0.2, 0.0),
    (1, False, 0.75, 1.0),
    (1, True, 0.5, 0.5),
    (2, False, 0.9, 0.7),
    (2, True, 1.0 / 5.0, 0.3),
    (3, False, 0.4, 1.0),
]


class TestReplacementDistribution:
    def test_erw_limit_example(self):
        # theta = 1, K = 2: drawing the other color adds color 1 w.p. 1-p
        params = validate_params(1, False, 0.75, 1.0)
        law = replacement_distribution(params, 1)
        assert np.allclose(law, [0.25, 0.75], atol=1e-15)

    def test_memoryless_columns_identical(self):
        params = validate_params(2, False, 0.35, 0.0)
        expected = np.full(4, 0.65 / 3)
        expected[0] = 0.35
        for j in range(4):
            assert np.allclose(replacement_distribution(params, j), expected, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), lazy=st.booleans(), p=st.floats(0, 1), theta=st.floats(0, 1))
    def test_rows_are_distributions(self, d, lazy, p, theta):
        params = validate_params(d, lazy, p, theta)
        for j in range(params.K):
            law = replacement_distribution(params, j)
            assert np.all(law >= -1e-15)
            assert abs(law.sum() - 1.0) < 1e-14

    def test_bad_color(self):
        with pytest.raises(ValueError):
            replacement_distribution(validate_params(1, False, 0.5, 0.5), 2)


class TestMeanReplacementMatrix:
    def test_matches_column_stack(self):
        for d, lazy, p, theta in PARAM_GRID:
            params = validate_params(d, lazy, p, theta)
            A = mean_replacement_matrix(params)
            for j in range(params.K):
                assert np.allclose(A[:, j], replacement_distribution(params, j), atol=1e-14)
            assert np.allclose(A.sum(axis=0), 1.0, atol=1e-14)

    def test_memoryless_rank_one(self):
        params = validate_params(2, True, 0.6, 0.0)
        A = mean_replacement_matrix(params)
        assert np.allclose(A, A[:, [0]], atol=1e-15)

    def test_two_color_example(self):
        params = validate_params(1, False, 0.75, 1.0)
        assert np.allclose(
            mean_replacement_matrix(params), [[0.75, 0.25], [0.25, 0.75]], atol=1e-15
        )

    def test_eigenvalues(self):
        for d, lazy, p, theta in PARAM_GRID:
            params = validate_params(d, lazy, p, theta)
            eig = np.sort(np.linalg.eigvals(mean_replacement_matrix(params)).real)
            expected = np.sort(
                np.r_[1.0, np.full(params.K - 1, params.second_eigenvalue)]
            )
            assert np.allclose(eig, expected, atol=1e-10)


class TestUrnStep:
    def test_persistent_monochrome(self):
        params = validate_params(1, False, 1.0, 1.0)
        state = UrnState(n=5, balls=np.array([5, 0]))
        rng = np.random.default_rng(0)
        for _ in range(30):
            state = urn_step(params, state, rng)
        assert state.balls[1] == 0

    def test_added_color_law(self):
        # composition (3, 1): color 1 added w.p. 0.75*0.75 + 0.25*0.25 = 0.625
        params = validate_params(1, False, 0.75, 1.0)
        rng = np.random.default_rng(21)
        added = np.zeros(2, dtype=int)
        for _ in range(50_000):
            nxt = urn_step(params, UrnState(n=4, balls=np.array([3, 1])), rng)
            added[int(np.argmax(nxt.balls - np.array([3, 1])))] += 1
        assert chisquare_pvalue(added, np.array([0.625, 0.375])) > 1e-3

    def test_memoryless_additions_ignore_composition(self):
        params = validate_params(1, False, 0.8, 0.0)
        rng = np.random.default_rng(22)
        added = np.zeros(2, dtype=int)
        for _ in range(50_000):
            nxt = urn_step(params, UrnState(n=9, balls=np.array([1, 8])), rng)
            added[int(np.argmax(nxt.balls - np.array([1, 8])))] += 1
        assert chisquare_pvalue(added, np.array([0.8, 0.2])) > 1e-3

    def test_empty_urn(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError):
            urn_step(params, UrnState(n=0, balls=np.zeros(2, dtype=np.int64)), np.random.default_rng(0))


class TestCountsToPosition:
    def test_even(self):
        assert np.array_equal(counts_to_position([7, 3], 1, False), [4])

    def test_odd_ignores_delay(self):
        assert np.array_equal(counts_to_position([2, 1, 0, 3, 4], 2, True), [1, -3])

    def test_zeros(self):
        assert np.array_equal(counts_to_position(np.zeros(4, dtype=int), 2, False), [0, 0])

    def test_unit_moves(self):
        # each single move changes exactly one coordinate by one
        for idx, counts in enumerate(np.eye(6, dtype=int)):
            vec = counts_to_position(counts, 3, False)
            assert np.abs(vec).sum() == 1 and vec[idx // 2] == (1 if idx % 2 == 0 else -1)

    def test_pairing_order(self):
        # moves are ordered (+e_1, -e_1, +e_2, -e_2, ...)
        moves = np.eye(4, dtype=int)
        assert np.array_equal(counts_to_position(moves[0], 2, False), [1, 0])
        assert np.array_equal(counts_to_position(moves[1], 2, False), [-1, 0])
        assert np.array_equal(counts_to_position(moves[3], 2, False), [0, -1])

    def test_lazy_slot_is_zero(self):
        assert np.array_equal(counts_to_position(np.eye(5, dtype=int)[4], 2, True), [0, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            counts_to_position([1, 0, 0], 1, False)

    def test_pairing_matrix_agrees(self):
        rng = np.random.default_rng(1)
        for d, lazy in [(1, False), (1, True), (3, False), (2, True)]:
            K = 2 * d + (1 if lazy else 0)
            counts = rng.integers(0, 10, size=K)
            assert np.allclose(
                pairing_matrix(d, lazy) @ counts, counts_to_position(counts, d, lazy)
            )


class TestWalkEquivalence:
    def test_count_law_total_variation(self):
        init = InitialSpec.uniform()
        for K in (2, 3, 4):
            d = K // 2
            lazy = K % 2 == 1
            for theta in (0.0, 0.5, 1.0):
                for p in (0.2, 1.0 / K, 0.9):
                    params = validate_params(d, lazy, p, theta)
                    for n in range(1, 5):
                        walk = oracle.walk_count_law(params, init, n)
                        balls = oracle.urn_count_law(params, init, n)
                        assert oracle.total_variation(walk, balls) < 1e-12
