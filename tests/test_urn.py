import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedUniform, chisquare_pvalue, histogram_pvalue, sampler_grid
from memwalk import oracle, theory, urn
from memwalk.model import InitialSpec, counts_to_position, initial_step, pairing_matrix, validate_params
from memwalk.urn import (
    UrnState,
    mean_replacement_matrix,
    replacement_distribution,
    urn_step,
)

# The numpy urn sampler that the scalar ``urn_step`` replaced, kept verbatim
# (with the replacement law it read) as the reference: the scalar one must
# make the same draws in the same order.
def reference_replacement_distribution(params, j: int) -> np.ndarray:
    K, p, theta = params.K, params.p, params.theta
    if not 0 <= j < K:
        raise ValueError(f"color index {j} out of range [0, {K})")
    law = np.full(K, (1.0 - p) / (K - 1.0))
    if j == 0:
        law[0] = p
    else:
        law[0] = p + theta * (1.0 - K * p) / (K - 1.0)
        law[j] = (1.0 - p - theta * (1.0 - K * p)) / (K - 1.0)
    return law


def reference_urn_step(params, state: UrnState, rng) -> UrnState:
    """Draw a ball uniformly, add one ball by the replacement law."""
    if state.n < 1:
        raise ValueError("urn is empty")
    total = int(state.balls.sum())
    t = int(rng.integers(total))
    drawn = int(np.searchsorted(np.cumsum(state.balls), t, side="right"))
    law = reference_replacement_distribution(params, drawn)
    added = int(np.searchsorted(np.cumsum(law), rng.random(), side="right"))
    added = min(added, params.K - 1)
    balls = state.balls.copy()
    balls[added] += 1
    return UrnState(n=state.n + 1, balls=balls)


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


class TestReplacementTables:
    def test_equal_params_share_one_table(self):
        table = urn._replacement_table
        table.cache_clear()
        for d in (1, 1.0):
            params = validate_params(d, True, 0.4, 0.7)
            urn_step(params, UrnState(n=1, balls=np.array([1, 0, 0])), np.random.default_rng(0))
        assert table.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert table.cache_info().currsize == 1

    def test_each_K_p_theta_gets_its_own_table(self):
        table = urn._replacement_table
        table.cache_clear()
        points = [(1, False, 0.4, 0.7), (1, False, 0.4, 0.2), (1, False, 0.6, 0.7),
                  (1, True, 0.4, 0.7), (2, False, 0.4, 0.7)]
        for point in points:
            params = validate_params(*point)
            balls = np.zeros(params.K, dtype=np.int64)
            balls[0] = 1
            urn_step(params, UrnState(n=1, balls=balls), np.random.default_rng(0))
            want = tuple(tuple(np.cumsum(replacement_distribution(params, j))[:-1].tolist()) for j in range(params.K))
            assert table(*point) == want  # the entry urn_step made
        assert table.cache_info().currsize == table.cache_info().hits == len(points)

    def test_full_cache_drops_the_least_recently_used_table(self):
        table = urn._replacement_table
        table.cache_clear()
        grid = [validate_params(1, True, p, 0.7) for p in np.linspace(0.05, 0.95, table.cache_info().maxsize + 1)]
        state = UrnState(n=3, balls=np.array([1, 1, 1]))
        for params in grid[:-1]:
            urn_step(params, state, np.random.default_rng(0))
        assert table.cache_info().currsize == table.cache_info().maxsize == 128
        last = grid[-1]
        draws = [urn_step(last, state, np.random.default_rng(seed)).balls for seed in range(40)]
        assert table.cache_info().currsize == 128
        urn_step(grid[0], state, np.random.default_rng(0))  # the oldest table went, so it is built again
        assert table.cache_info().misses == 130
        table.cache_clear()
        fresh = [urn_step(last, state, np.random.default_rng(seed)).balls for seed in range(40)]
        assert np.array_equal(draws, fresh)


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
        assert np.array_equal(counts_to_position([7, 3]), [4])

    def test_odd_ignores_delay(self):
        assert np.array_equal(counts_to_position([2, 1, 0, 3, 4]), [1, -3])

    def test_zeros(self):
        assert np.array_equal(counts_to_position(np.zeros(4, dtype=int)), [0, 0])

    def test_unit_moves(self):
        # each single move changes exactly one coordinate by one
        for idx, counts in enumerate(np.eye(6, dtype=int)):
            vec = counts_to_position(counts)
            assert np.abs(vec).sum() == 1 and vec[idx // 2] == (1 if idx % 2 == 0 else -1)

    def test_pairing_order(self):
        # moves are ordered (+e_1, -e_1, +e_2, -e_2, ...)
        moves = np.eye(4, dtype=int)
        assert np.array_equal(counts_to_position(moves[0]), [1, 0])
        assert np.array_equal(counts_to_position(moves[1]), [-1, 0])
        assert np.array_equal(counts_to_position(moves[3]), [0, -1])

    def test_lazy_slot_is_zero(self):
        assert np.array_equal(counts_to_position(np.eye(5, dtype=int)[4]), [0, 0])

    def test_pairing_matrix_agrees(self):
        rng = np.random.default_rng(1)
        for K in (2, 3, 6, 5):
            counts = rng.integers(0, 10, size=K)
            assert np.allclose(pairing_matrix(K) @ counts, counts_to_position(counts))


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


class TestReferenceSampler:
    WALKS, STEPS = 70, 10

    def test_draw_for_draw_on_grid(self):
        urns = 0
        for params, init in sampler_grid():
            for j in range(params.K):
                assert np.array_equal(
                    replacement_distribution(params, j), reference_replacement_distribution(params, j)
                )
            for seed in range(self.WALKS):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                state = UrnState(n=1, balls=initial_step(params, init, rng).counts)
                ref = UrnState(n=1, balls=initial_step(params, init, ref_rng).counts)
                for _ in range(self.STEPS):
                    state, ref = urn_step(params, state, rng), reference_urn_step(params, ref, ref_rng)
                    assert state.n == ref.n and state.balls.dtype == ref.balls.dtype
                    assert np.array_equal(state.balls, ref.balls)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                urns += 1
        assert urns >= 10_000

    def test_clip_at_the_largest_uniform(self):
        # every drawn color on the grid, with random() at its largest value
        u = np.nextafter(1.0, 0.0)
        clipped = 0
        for params, _ in sampler_grid():
            for j in range(params.K):
                balls = np.zeros(params.K, dtype=np.int64)
                balls[j] = 3
                state = UrnState(n=3, balls=balls)
                got = urn_step(params, state, FixedUniform(u, np.random.default_rng(j)))
                want = reference_urn_step(params, state, FixedUniform(u, np.random.default_rng(j)))
                assert np.array_equal(got.balls, want.balls)
                clipped += np.cumsum(reference_replacement_distribution(params, j))[-1] <= u
        assert clipped >= 1


def urn_composition_histogram(params, n: int, urns: int, seed: int) -> dict:
    """Ball counts after n balls: one from the first-step law, n - 1 added."""
    rng = np.random.default_rng(seed)
    hist: dict = {}
    for _ in range(urns):
        state = UrnState(n=1, balls=initial_step(params, InitialSpec.uniform(), rng).counts)
        for _ in range(n - 1):
            state = urn_step(params, state, rng)
        key = tuple(state.balls.tolist())
        hist[key] = hist.get(key, 0) + 1
    return hist


class TestUrnExactLaw:
    """The urn composition from ``urn_step`` against the walk's exact count law."""

    @pytest.mark.parametrize(
        "d,lazy,p,theta,n,urns,seed",
        [(1, False, 0.8, 0.6, 200, 1_000, 71_200), (1, True, 0.7, 0.5, 60, 3_000, 71_060)],
    )
    def test_composition_histogram(self, d, lazy, p, theta, n, urns, seed):
        params = validate_params(d, lazy, p, theta)
        law = oracle.walk_count_law(params, InitialSpec.uniform(), n)
        assert histogram_pvalue(urn_composition_histogram(params, n, urns, seed), law) > 1e-3

    def test_one_sample_off_the_support_fails(self):
        # theta = p = 1 only ever adds the color drawn: the urn stays monochrome
        params, n = validate_params(1, False, 1.0, 1.0), 200
        law = oracle.walk_count_law(params, InitialSpec.uniform(), n)
        hist = urn_composition_histogram(params, n, 200, 71_001)
        assert set(hist) == {(n, 0), (0, n)}
        assert histogram_pvalue(hist, law, min_bins=2) > 1e-3
        hist[(n - 1, 1)] = 1
        assert histogram_pvalue(hist, law, min_bins=2) <= 1e-3
