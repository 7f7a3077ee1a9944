import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedUniform, chisquare_pvalue, histogram_pvalue, sampler_grid
from memwalk import model, montecarlo, oracle, theory, urn
from memwalk.model import (
    InitialSpec,
    ModelParams,
    WalkState,
    base_step_rates,
    conditional_law,
    initial_step,
    simulate,
    step,
    validate_params,
)


# The numpy samplers that the scalar ``initial_step`` and ``step`` replaced,
# kept verbatim as references: the scalar ones must make the same draws in
# the same order.
def reference_initial_step(params: ModelParams, init: InitialSpec, rng: np.random.Generator) -> WalkState:
    """Sample X_1 from ``init`` and return the one-step state."""
    pi = init.distribution(params)
    idx = int(np.searchsorted(np.cumsum(pi), rng.random(), side="right"))
    idx = min(idx, params.K - 1)
    counts = np.zeros(params.K, dtype=np.int64)
    counts[idx] = 1
    return WalkState(n=1, counts=counts)


def reference_uniform_other(idx: int, K: int, rng: np.random.Generator) -> int:
    """Uniform draw over the K-1 moves different from ``idx``."""
    r = int(rng.integers(K - 1))
    return r + 1 if r >= idx else r


def reference_step(params: ModelParams, state: WalkState, rng: np.random.Generator) -> WalkState:
    if state.n < 1:
        raise ValueError("cannot step before the first move is placed")
    K = params.K
    if rng.random() < params.theta:
        t = int(rng.integers(state.n))
        remembered = int(np.searchsorted(np.cumsum(state.counts), t, side="right"))
        idx = remembered if rng.random() < params.p else reference_uniform_other(remembered, K, rng)
    else:
        idx = 0 if rng.random() < params.p else 1 + int(rng.integers(K - 1))
    counts = state.counts.copy()
    counts[idx] += 1
    return WalkState(n=state.n + 1, counts=counts)


def random_state(params: ModelParams, n: int, rng) -> WalkState:
    """A reachable state: walk n steps from a uniform start."""
    state = initial_step(params, InitialSpec.uniform(), rng)
    for _ in range(n - 1):
        state = step(params, state, rng)
    return state


class TestValidateParams:
    def test_basic(self):
        params = validate_params(1, False, 0.75, 1.0)
        assert params.K == 2

    def test_lazy_dimension(self):
        assert validate_params(2, True, 0.5, 0.5).K == 5

    @pytest.mark.parametrize(
        "d,lazy,p,theta",
        [(1, False, 1.2, 1.0), (1, False, -0.1, 1.0), (0, False, 0.5, 0.5),
         (1, False, 0.5, 1.5), (1, False, 0.5, -0.2)],
    )
    def test_rejects_out_of_range(self, d, lazy, p, theta):
        with pytest.raises(ValueError):
            validate_params(d, lazy, p, theta)

    def test_integral_float_dimension_is_stored_as_int(self):
        params = validate_params(2.0, False, 0.5, 1.0)
        assert params == validate_params(2, False, 0.5, 1.0)
        assert type(params.d) is int and type(params.K) is int and params.K == 4
        assert initial_step(params, InitialSpec.uniform(), np.random.default_rng(0)).counts.shape == (4,)
        assert montecarlo.run_ensemble(params, InitialSpec.uniform(), 4, [4], 8, 0).at(4).mean.shape == (2,)
        assert theory.exact_moments(params, InitialSpec.uniform(), 3).position_cov.shape == (3, 2, 2)

    def test_non_integral_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be a positive integer, got 2.5"):
            validate_params(2.5, False, 0.5, 1.0)

    def test_memory_gain_range(self):
        for K, lazy, d in [(2, False, 1), (3, True, 1), (6, False, 3)]:
            for p in np.linspace(0, 1, 7):
                params = validate_params(d, lazy, p, 0.5)
                assert -1.0 / (K - 1) - 1e-15 <= params.memory_gain <= 1.0 + 1e-15


class TestConditionalLaw:
    def test_memoryless_branch_only(self):
        rng = np.random.default_rng(0)
        for K, lazy, d in [(2, False, 1), (5, True, 2)]:
            params = validate_params(d, lazy, 0.3, 0.0)
            state = random_state(params, 6, rng)
            expected = np.full(K, 0.7 / (K - 1))
            expected[0] = 0.3
            assert np.allclose(conditional_law(params, state), expected, atol=1e-14)

    def test_uniform_when_p_is_one_over_K(self):
        rng = np.random.default_rng(1)
        params = validate_params(2, False, 0.25, 0.8)
        state = random_state(params, 9, rng)
        assert np.allclose(conditional_law(params, state), 0.25, atol=1e-14)

    def test_hand_computed_example(self):
        params = validate_params(1, False, 0.75, 1.0)
        state = WalkState(n=4, counts=np.array([3, 1]))
        law = conditional_law(params, state)
        assert np.allclose(law, [0.625, 0.375], atol=1e-15)

    def test_two_branch_mixture_example(self):
        # 0.5 * memory law (0.4, 0.4, 0.2) + 0.5 * bias law (0.6, 0.2, 0.2)
        params = validate_params(1, True, 0.6, 0.5)
        state = WalkState(n=2, counts=np.array([1, 1, 0]))
        assert np.allclose(conditional_law(params, state), [0.5, 0.3, 0.2], atol=1e-15)

    def test_undefined_before_first_step(self):
        params = validate_params(1, False, 0.5, 0.5)
        state = WalkState(n=0, counts=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            conditional_law(params, state)
        with pytest.raises(ValueError, match="cannot step before the first move is placed"):
            step(params, state, np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 3),
        lazy=st.booleans(),
        p=st.floats(0, 1),
        theta=st.floats(0, 1),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**31),
    )
    def test_simplex_property(self, d, lazy, p, theta, n, seed):
        params = validate_params(d, lazy, p, theta)
        state = random_state(params, n, np.random.default_rng(seed))
        law = conditional_law(params, state)
        assert np.all(law >= -1e-15)
        assert np.all(law <= 1.0 + 1e-15)
        assert abs(law.sum() - 1.0) < 1e-12

    def test_drift_identity(self):
        # sum_x vec(x) law[x] = (lam2 / n) S_n + (1 - theta) * gain * e_1
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            lazy = bool(rng.integers(2))
            params = validate_params(d, lazy, rng.uniform(), rng.uniform())
            state = random_state(params, int(rng.integers(1, 40)), rng)
            law = conditional_law(params, state)
            drift = urn.pairing_matrix(params.d, params.lazy) @ law
            expected = (params.second_eigenvalue / state.n) * state.position.astype(float)
            expected[0] += (1.0 - params.theta) * params.memory_gain
            assert np.allclose(drift, expected, atol=1e-12)


class TestInitialStep:
    def test_fixed(self):
        params = validate_params(2, False, 0.5, 0.5)
        state = initial_step(params, InitialSpec.fixed(0), np.random.default_rng(0))
        assert state.n == 1
        assert state.counts[0] == 1 and state.counts.sum() == 1
        assert np.array_equal(state.position, [1, 0])

    def test_uniform_never_lazy_and_unit_square(self):
        params = validate_params(1, True, 0.5, 0.5)
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = initial_step(params, InitialSpec.uniform(), rng)
            assert state.counts[2] == 0
            assert abs(int(state.position[0])) == 1

    def test_uniform_is_balanced(self):
        params = validate_params(1, False, 0.5, 0.5)
        rng = np.random.default_rng(4)
        draws = np.array([initial_step(params, InitialSpec.uniform(), rng).position[0] for _ in range(4000)])
        counts = np.array([(draws == 1).sum(), (draws == -1).sum()])
        assert chisquare_pvalue(counts, np.array([0.5, 0.5])) > 1e-3

    def test_custom_validation(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError):
            initial_step(params, InitialSpec.custom([0.5, 0.4]), np.random.default_rng(0))
        with pytest.raises(ValueError):
            initial_step(params, InitialSpec.custom([1.5, -0.5]), np.random.default_rng(0))
        with pytest.raises(ValueError, match="custom distribution must have length 2"):
            initial_step(params, InitialSpec.custom([0.5, 0.25, 0.25]), np.random.default_rng(0))
        state = initial_step(params, InitialSpec.custom([0.0, 1.0]), np.random.default_rng(0))
        assert state.counts[1] == 1

    def test_bad_spec_raises_on_every_call(self):
        # the first-step table is cached per start and K; a failed check is not
        params = validate_params(1, False, 0.5, 0.5)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        model._FIRST_STEP.clear()
        for init in (InitialSpec.fixed(2), InitialSpec.custom([0.5, 0.4]), InitialSpec(kind="odd")):
            for _ in range(2):
                with pytest.raises(ValueError):
                    initial_step(params, init, rng)
        assert not model._FIRST_STEP
        assert rng.bit_generator.state == before


# (init, d, lazy, cuts of the first-step law): each start and K has its own table
FIRST_STEPS = [
    (InitialSpec.uniform(), 1, False, (0.5,)),
    (InitialSpec.uniform(), 1, True, (0.5, 1.0)),
    (InitialSpec.uniform(), 2, False, (0.25, 0.5, 0.75)),
    (InitialSpec.fixed(0), 1, True, (1.0, 1.0)),
    (InitialSpec.fixed(2), 1, True, (0.0, 0.0)),
    (InitialSpec.custom([0.25, 0.75]), 1, False, (0.25,)),
    (InitialSpec.custom([0.75, 0.25]), 1, False, (0.75,)),
]


class TestFirstStepTable:
    def test_equal_specs_share_one_table(self):
        # distinct but equal objects, and p and theta, which the first step does not read
        model._FIRST_STEP.clear()
        initial_step(validate_params(1, False, 0.5, 0.5), InitialSpec.custom([0.25, 0.75]), np.random.default_rng(0))
        initial_step(validate_params(1.0, False, 0.9, 0.1), InitialSpec.custom((0.25, 0.75)), np.random.default_rng(0))
        assert len(model._FIRST_STEP) == 1

    def test_each_start_and_K_gets_its_own_table(self):
        model._FIRST_STEP.clear()
        for init, d, lazy, _ in FIRST_STEPS:
            params = validate_params(d, lazy, 0.5, 0.5)
            assert initial_step(params, init, np.random.default_rng(0)).counts.shape == (params.K,)
        tables = sorted(model._FIRST_STEP.values(), key=lambda table: table[0])
        assert [cuts for cuts, _ in tables] == sorted(cuts for *_, cuts in FIRST_STEPS)
        for cuts, rows in tables:
            assert np.array_equal(rows, np.eye(len(cuts) + 1, dtype=np.int64))

    def test_returned_counts_are_the_callers_own(self):
        params, init = validate_params(1, True, 0.5, 0.5), InitialSpec.fixed(1)
        state = initial_step(params, init, np.random.default_rng(0))
        state.counts += 5
        again = initial_step(params, init, np.random.default_rng(0))
        assert np.array_equal(again.counts, [0, 1, 0])
        assert np.array_equal(state.counts, [5, 6, 5])


class TestStep:
    def test_fully_persistent(self):
        params = validate_params(1, False, 1.0, 1.0)
        state = WalkState(n=3, counts=np.array([3, 0]))
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = step(params, state, rng)
        assert state.counts[1] == 0 and state.position[0] == state.n

    def test_pure_bias(self):
        params = validate_params(2, False, 1.0, 0.0)
        rng = np.random.default_rng(6)
        state = initial_step(params, InitialSpec.fixed(3), rng)
        for _ in range(15):
            state = step(params, state, rng)
        assert state.counts[0] == 15

    @pytest.mark.parametrize(
        "d,lazy,p,theta,counts",
        [
            (1, False, 0.75, 1.0, [3, 1]),
            (1, True, 0.6, 0.5, [1, 1, 0]),
            (2, False, 0.9, 0.7, [2, 0, 1, 3]),
        ],
    )
    def test_one_step_frequencies_match_law(self, d, lazy, p, theta, counts):
        params = validate_params(d, lazy, p, theta)
        counts = np.array(counts, dtype=np.int64)
        state = WalkState(n=int(counts.sum()), counts=counts)
        law = conditional_law(params, state)
        rng = np.random.default_rng(12345)
        freq = np.zeros(params.K, dtype=int)
        for _ in range(100_000):
            nxt = step(params, state, rng)
            freq[int(np.argmax(nxt.counts - state.counts))] += 1
        assert chisquare_pvalue(freq, law) > 1e-3

    def test_counts_position_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            lazy = bool(rng.integers(2))
            params = validate_params(d, lazy, rng.uniform(), rng.uniform())
            state = random_state(params, int(rng.integers(1, 60)), rng)
            assert int(state.counts.sum()) == state.n
            assert np.array_equal(
                state.position, urn.counts_to_position(state.counts, d, lazy)
            )


class TestSimulate:
    def test_single_step(self):
        params = validate_params(1, False, 0.5, 0.5)
        records = simulate(params, InitialSpec.uniform(), 1, [], np.random.default_rng(0))
        assert len(records) == 1 and records[0][0] == 1

    def test_deterministic_persistence(self):
        params = validate_params(1, False, 1.0, 1.0)
        records = simulate(params, InitialSpec.fixed(0), 100, [100], np.random.default_rng(1))
        assert np.array_equal(records[0][1], [100])

    def test_seed_determinism(self):
        params = validate_params(2, True, 0.7, 0.6)
        runs = [
            simulate(params, InitialSpec.uniform(), 300, [10, 100, 300], np.random.default_rng(99))
            for _ in range(2)
        ]
        for (n1, p1), (n2, p2) in zip(*runs):
            assert n1 == n2 and np.array_equal(p1, p2)

    def test_checkpoint_validation(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 10\]"):
            simulate(params, InitialSpec.uniform(), 10, [0, 5], np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 10\]"):
            simulate(params, InitialSpec.uniform(), 10, [11], np.random.default_rng(0))

    def test_step_count_validation(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            simulate(params, InitialSpec.uniform(), 0, [], np.random.default_rng(0))

    def test_walk_stops_at_last_checkpoint(self):
        params = validate_params(2, True, 0.7, 0.6)
        rng, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        long = simulate(params, InitialSpec.uniform(), 1000, [10], rng)
        short = simulate(params, InitialSpec.uniform(), 10, [10], rng2)
        assert [n for n, _ in long] == [n for n, _ in short] == [10]
        assert np.array_equal(long[0][1], short[0][1])
        assert rng.bit_generator.state == rng2.bit_generator.state


class TestReferenceSampler:
    WALKS, STEPS = 70, 10

    def test_draw_for_draw_on_grid(self):
        walks = 0
        for params, init in sampler_grid():
            for seed in range(self.WALKS):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                state = initial_step(params, init, rng)
                ref = reference_initial_step(params, init, ref_rng)
                assert np.array_equal(state.counts, ref.counts)
                for _ in range(self.STEPS):
                    state, ref = step(params, state, rng), reference_step(params, ref, ref_rng)
                    assert state.n == ref.n and state.counts.dtype == ref.counts.dtype
                    assert np.array_equal(state.counts, ref.counts)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                walks += 1
        assert walks >= 10_000

    def test_clip_when_first_step_law_sums_below_one(self):
        params = validate_params(1, True, 0.5, 0.5)
        init = InitialSpec.custom([0.25, 0.25, 0.5 - 1e-13])
        u = 1.0 - 1e-14
        assert np.cumsum(init.distribution(params))[-1] < u
        state = initial_step(params, init, FixedUniform(u))
        assert np.array_equal(state.counts, reference_initial_step(params, init, FixedUniform(u)).counts)
        assert np.array_equal(state.counts, [0, 0, 1])


def position_law(params: ModelParams, count_law: dict) -> dict:
    """Law of S_n from the law of the count vector."""
    law: dict = {}
    for counts, prob in count_law.items():
        key = tuple(urn.counts_to_position(counts, params.d, params.lazy).tolist())
        law[key] = law.get(key, 0.0) + prob
    return law


def position_histogram(params: ModelParams, n: int, walks: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    hist: dict = {}
    for _ in range(walks):
        key = tuple(simulate(params, InitialSpec.uniform(), n, [], rng)[-1][1].tolist())
        hist[key] = hist.get(key, 0) + 1
    return hist


class TestExactLaw:
    """The histogram of S_n from ``simulate`` against the exact count law."""

    @pytest.mark.parametrize(
        "d,lazy,p,theta,n,walks,seed",
        [(1, False, 0.8, 0.6, 200, 1_000, 70_200), (1, True, 0.7, 0.5, 60, 3_000, 70_060)],
    )
    def test_position_histogram(self, d, lazy, p, theta, n, walks, seed):
        params = validate_params(d, lazy, p, theta)
        law = position_law(params, oracle.walk_count_law(params, InitialSpec.uniform(), n))
        assert histogram_pvalue(position_histogram(params, n, walks, seed), law) > 1e-3

    def test_one_sample_off_the_support_fails(self):
        # theta = p = 1 repeats the first step: S_n is +n or -n
        params, n = validate_params(1, False, 1.0, 1.0), 200
        law = position_law(params, oracle.walk_count_law(params, InitialSpec.uniform(), n))
        hist = position_histogram(params, n, 200, 70_001)
        assert set(hist) == {(n,), (-n,)}
        assert histogram_pvalue(hist, law, min_bins=2) > 1e-3
        hist[(n - 2,)] = 1
        assert histogram_pvalue(hist, law, min_bins=2) <= 1e-3
