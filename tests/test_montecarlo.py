import dataclasses
import json
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import chisquare_pvalue, subprocess_env
from memwalk import model, montecarlo, oracle, theory
from memwalk.model import InitialSpec, ModelParams, base_step_rates, validate_params
from memwalk.montecarlo import (
    VerifyBudget,
    _simulate_block,
    _stream_words,
    _SeedRows,
    cross_time_covariance,
    default_budget,
    gaussianity_check,
    replica_stream_seed,
    run_ensemble,
    scaling_exponent,
    verify,
)
from memwalk.theory import RegimeMismatchError

UNIFORM = InitialSpec.uniform()

#: (tag, p, theta, budget overrides) at small budgets: the verify-wide specs of
#: benchmarks/workloads.py at small R, then lln and superdiffusive
SMALL_VERIFY = [
    ("clt-diffusive", 0.6, 1.0, dict(n_steps=500, replicas=1_000, cross_time=(1.0, 4.0, 500))),
    ("clt-critical", 0.75, 1.0, dict(replicas=400, checkpoints=[500, 5_000])),
    ("moments", 0.9, 1.0, dict(n_steps=2_000, replicas=1_000)),
    ("lln", 0.8, 0.3, dict(n_steps=5_000, replicas=100)),
    ("superdiffusive", 0.9, 1.0, dict(n_steps=2_000, replicas=200)),
]


def reference_block(
    params: ModelParams,
    init: InitialSpec,
    n_steps: int,
    marks: list[int],
    seed: int,
    lo: int,
    hi: int,
    retain: bool,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray] | None]:
    """Reference: the replica-major lockstep kernel with an (R, K) law per step.

    Each step builds the law base + (lam2/n) * counts, takes its cumsum and
    counts the partial sums below u. _simulate_block must give the same
    sums and samples bit for bit.
    """
    nrep = hi - lo
    K, d = params.K, params.d
    gens = [
        np.random.Generator(np.random.PCG64(replica_stream_seed(seed, i)))
        for i in range(lo, hi)
    ]
    draws = np.array([g.random(n_steps) for g in gens])

    counts = np.zeros((nrep, K), dtype=np.int64)
    rows = np.arange(nrep)
    base = base_step_rates(params)
    lam2 = params.second_eigenvalue

    sum_x = np.zeros((len(marks), d), dtype=np.int64)
    sum_xx = np.zeros((len(marks), d, d), dtype=np.int64)
    samples: list[np.ndarray] | None = [None] * len(marks) if retain else None
    mark_at = {n: i for i, n in enumerate(marks)}

    def record(n: int) -> None:
        ci = mark_at.get(n)
        if ci is None:
            return
        pos = counts[:, 0 : 2 * d : 2] - counts[:, 1 : 2 * d : 2]
        sum_x[ci] += pos.sum(axis=0)
        sum_xx[ci] += pos.T @ pos
        if samples is not None:
            samples[ci] = pos.copy()

    # first step from the initial distribution
    cum0 = np.cumsum(init.distribution(params))
    idx = np.minimum(np.searchsorted(cum0, draws[:, 0], side="right"), K - 1)
    counts[rows, idx] = 1
    record(1)

    for n in range(1, n_steps):
        law = base[None, :] + (lam2 / n) * counts
        np.cumsum(law, axis=1, out=law)
        idx = np.minimum((law < draws[:, n, None]).sum(axis=1), K - 1)
        counts[rows, idx] += 1
        record(n + 1)

    return sum_x, sum_xx, samples


def assert_same_block(params, init, n_steps, marks, seed, lo, hi):
    assert marks[-1] == n_steps  # the kernel walks to its last mark
    got = _simulate_block(params, init, marks, seed, lo, hi, True)
    want = reference_block(params, init, n_steps, marks, seed, lo, hi, True)
    assert np.array_equal(got[0], want[0]), (params, init)
    assert np.array_equal(got[1], want[1]), (params, init)
    for a, b in zip(got[2], want[2]):
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape
        assert np.array_equal(a, b), (params, init)


def exact_position_law(params, init, n):
    """Law of the first coordinate of S_n over -n..n from the exact count law."""
    law = oracle.walk_count_law(params, init, n)
    pos = model.counts_to_position(np.array(list(law)))[:, 0]
    return np.bincount(pos + n, weights=np.array(list(law.values())), minlength=2 * n + 1)


class TestKernelReference:
    def test_matches_reference_on_grid(self):
        # K in 2..7 x theta x p x three starts; odd replica range, marks at 1 and n.
        # theta = 1, p = 0 at K = 4, 6, 7 is the corner where a term can be -1 ulp.
        for K in (2, 3, 4, 5, 6, 7):
            custom = InitialSpec.custom(np.random.default_rng(K).dirichlet(np.ones(K)))
            for theta in (0.0, 0.3, 1.0):
                for p in (0.0, 0.2, 1.0 / K, 0.9, 1.0):
                    params = validate_params(K // 2, K % 2 == 1, p, theta)
                    for init in (UNIFORM, InitialSpec.fixed(K - 1), custom):
                        assert_same_block(params, init, 300, [1, 2, 151, 300], 21, 5, 11)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_matches_reference_across_refill(self, K):
        # the buffer holds _CHUNK steps, so it is refilled at step _CHUNK + 1
        chunk = montecarlo._CHUNK
        params = validate_params(K // 2, K % 2 == 1, 0.9, 0.7)
        assert_same_block(params, UNIFORM, chunk + 104, [1, chunk, chunk + 1, chunk + 104], 8, 3, 5)

    @pytest.mark.parametrize("K, unit", [(2, montecarlo._TILE_UNIT), (2, 16), (5, 16)])
    def test_matches_reference_over_tiles(self, monkeypatch, K, unit):
        # a range just over two tile widths runs as three tiles that differ in
        # width; a small unit keeps the K = 5 range and its reference small
        monkeypatch.setattr(montecarlo, "_TILE_UNIT", unit)
        width = min(unit * (6 * K - 8), montecarlo._TILE_MAX)
        n = montecarlo._CHUNK + 76
        params = validate_params(K // 2, K % 2 == 1, 0.8, 0.6)
        assert_same_block(params, UNIFORM, n, [1, montecarlo._CHUNK, n], 17, 7, 7 + 2 * width + 42)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_matches_reference_over_refill_blocks(self, K):
        # four full refill blocks and a partial fifth of the 200-step chunk
        rows = montecarlo._REFILL_DOUBLES // 200
        hi = 3 + 4 * rows + 41
        params = validate_params(K // 2, K % 2 == 1, 0.2, 0.3)
        assert_same_block(params, InitialSpec.fixed(K - 1), 200, [1, 199, 200], 13, 3, hi)

    @pytest.mark.parametrize("K", [2, 5])
    def test_matches_reference_over_refill_blocks_across_refill(self, K):
        # two full refill blocks and a partial third, each drawn again at step _CHUNK + 1
        n = montecarlo._CHUNK + 50
        hi = 3 + 2 * (montecarlo._REFILL_DOUBLES // montecarlo._CHUNK) + 5
        params = validate_params(K // 2, K % 2 == 1, 0.85, 0.7)
        assert_same_block(params, UNIFORM, n, [1, montecarlo._CHUNK, n], 31, 3, hi)

    @pytest.mark.parametrize("K", [2, 5])
    def test_matches_reference_over_byte_sized_refill_blocks(self, K):
        # a walk below _CHUNK steps has a shorter chunk, so a refill block of the
        # same bytes holds more replicas: two full blocks and a partial third
        n = montecarlo._CHUNK // 4
        rows = montecarlo._REFILL_DOUBLES // n
        params = validate_params(K // 2, K % 2 == 1, 0.85, 0.7)
        assert_same_block(params, UNIFORM, n, [1, n // 2, n], 37, 6, 6 + 2 * rows + 9)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    @pytest.mark.parametrize("start", ["uniform", "fixed"])
    @pytest.mark.parametrize("n_steps, marks", [(1, [1]), (3, [1, 2, 3])])
    def test_matches_reference_at_back_to_back_marks(self, K, start, n_steps, marks):
        # a one-step walk, and a mark after every step
        init = UNIFORM if start == "uniform" else InitialSpec.fixed(K - 1)
        params = validate_params(K // 2, K % 2 == 1, 0.7, 0.6)
        assert_same_block(params, init, n_steps, marks, 29, 4, 41)


class TestCumulativeRule:
    """_simulate_block takes "move <= k" as "partial sum k >= u". That is the
    reference's "count the partial sums below u" while the partial sums do
    not decrease, i.e. while every term fl(fl(c N) + base_k), k >= 1, is >= 0."""

    def test_terms_are_nonnegative(self):
        n = np.arange(1, 10**6, dtype=float)
        for K in range(2, 8):
            for theta in (0.3, 0.9, 1 - 1e-9, 1.0):
                for p in (0.0, 1e-12, 0.1, 1.0 / K - 1e-12):
                    params = validate_params(K // 2, K % 2 == 1, p, theta)
                    base = base_step_rates(params)[1]  # the same for every k >= 1
                    c = params.second_eigenvalue / n
                    assert np.all(base + c * (n - 1) >= 0.0), (K, theta, p)
                    at_n = base + c * n
                    if theta == 1.0 and p == 0.0:
                        # N = n is reachable only at n = 1: the first colour's
                        # weight is exactly 0 at step 2
                        assert at_n[0] == 0.0, K
                    else:
                        assert np.all(at_n >= 0.0), (K, theta, p)


def feed(monkeypatch, rows):
    """Make each Generator built from now on hand out the next row as its uniforms."""
    rows = iter(rows)

    class Fed:
        def __init__(self, bit_generator):
            self.row = next(rows)

        def random(self, size=None, out=None):
            if out is None:
                return self.row[:size].copy()
            out[:] = self.row[: len(out)]
            return out

    monkeypatch.setattr(np.random, "Generator", Fed)


class TestTieRule:
    """A uniform equal to partial sum k moves to colour k, the lower one: the
    kernel tests acc >= u, as the reference counts partial sums strictly below
    u. Random draws tie with probability about 2^-53, so the uniforms are fed
    in. The kernel runs in this process: a monkeypatch made after the pool
    exists never reaches its forked workers."""

    @pytest.mark.parametrize("d, lazy", [(1, False), (1, True), (2, True)])
    def test_tie_moves_to_lower_colour(self, monkeypatch, d, lazy):
        params = validate_params(d, lazy, 0.7, 0.6)
        K = params.K
        first = np.eye(K)[0]
        # step 2 after a first move to colour 0: n = 1, law = base + lam2 * e_0
        sums = np.cumsum(base_step_rates(params) + (params.second_eigenvalue / 1) * first)
        ties = sums[:-1]
        second = np.concatenate([ties, np.nextafter(ties, 1.0)])
        colour = np.concatenate([np.arange(K - 1), np.arange(1, K)])
        counts = first + np.eye(K)[colour]
        expected = (counts[:, 0 : 2 * d : 2] - counts[:, 1 : 2 * d : 2]).astype(np.int64)
        rows = [np.array([0.5, u]) for u in second]
        init = InitialSpec.fixed(0)

        feed(monkeypatch, rows)
        got = _simulate_block(params, init, [2], 0, 0, len(rows), True)
        feed(monkeypatch, rows)
        want = reference_block(params, init, 2, [2], 0, 0, len(rows), True)
        assert np.array_equal(got[2][0], expected)
        assert np.array_equal(want[2][0], expected)


class TestEngineAgainstExactLaw:
    @pytest.mark.parametrize(
        "d, lazy, p, theta, n, replicas",
        [(1, False, 0.9, 1.0, 1_000, 20_000), (1, True, 0.5, 0.7, 100, 20_000)],
    )
    def test_histogram_of_position(self, d, lazy, p, theta, n, replicas):
        params = validate_params(d, lazy, p, theta)
        summary = run_ensemble(params, UNIFORM, n, [n], replicas, seed=4, retain_samples=True)
        freq = np.bincount(summary.samples[n][:, 0] + n, minlength=2 * n + 1)
        assert chisquare_pvalue(freq, exact_position_law(params, UNIFORM, n)) > 1e-3

    def test_zero_probability_moves_never_taken(self):
        # at theta = p = 1 the walk repeats its first step: S_n = +-n only
        params = validate_params(1, False, 1.0, 1.0)
        n = 1_000
        summary = run_ensemble(params, UNIFORM, n, [n], 2_000, seed=6, retain_samples=True)
        freq = np.bincount(summary.samples[n][:, 0] + n, minlength=2 * n + 1)
        law = exact_position_law(params, UNIFORM, n)
        assert np.count_nonzero(law) == 2 and law[0] == law[-1] == pytest.approx(0.5, abs=1e-12)
        assert chisquare_pvalue(freq, law) > 1e-3


class TestReplicaStreams:
    def test_mixing_is_deterministic(self):
        assert replica_stream_seed(42, 0) == replica_stream_seed(42, 0)
        seen = {replica_stream_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000

    def test_mixing_depends_on_both_inputs(self):
        assert replica_stream_seed(1, 0) != replica_stream_seed(2, 0)
        assert replica_stream_seed(1, 0) != replica_stream_seed(1, 1)

    def test_known_stream_seeds(self):
        assert replica_stream_seed(42, 0) == 13679457532755275413
        assert replica_stream_seed(42, 1) == 2949826092126892291

    def test_known_uniforms_at_default_verify_seed(self):
        seeds = _SeedRows(_stream_words(20240901, 0, 2))
        first = [np.random.Generator(np.random.PCG64(seeds)).random(4).tolist() for _ in range(2)]
        assert first == [
            [0.807837133298002, 0.43873429742576864, 0.557458738064979, 0.8513398442560889],
            [0.5467919946887163, 0.1560149225523545, 0.6273206801694048, 0.8230245195056678],
        ]

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 20240901, 4_918_207_412_660_312_411,
         8_815_040_227_369_101_537, 631_945_813_307_745_926, -1, 2**64 + 5],
    )
    @pytest.mark.parametrize("lo, hi", [(0, 300), (1_000_003, 1_000_040), (9, 9)])
    def test_words_match_seed_sequence(self, seed, lo, hi):
        words = _stream_words(seed, lo, hi)
        assert words.shape == (hi - lo, 4) and words.dtype == np.uint64
        for i, row in enumerate(words, lo):
            want = np.random.SeedSequence(replica_stream_seed(seed, i)).generate_state(4, np.uint64)
            assert np.array_equal(row, want), (seed, i)

    @pytest.mark.parametrize("target", [0, 1, 5, 2**32 - 1, 2**32, 2**33 + 7, 2**64 - 1])
    def test_words_at_hand_fed_stream_seed(self, target):
        # invert SplitMix64 for the master seed whose replica 17 gets stream seed
        # `target`; a stream seed below 2^32 is one entropy word to SeedSequence
        mask = (1 << 64) - 1

        def unshift(x, s):
            y = x
            for _ in range(64 // s):
                y = x ^ (y >> s)
            return y

        z = unshift(target, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
        z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
        z = unshift(z, 30)
        replica = 17
        seed = (z - (replica + 1) * 0x9E3779B97F4A7C15) & mask
        assert replica_stream_seed(seed, replica) == target
        want = np.random.SeedSequence(target).generate_state(4, np.uint64)
        assert np.array_equal(_stream_words(seed, replica, replica + 1)[0], want)

    def test_streams_match_seed_sequence_draws(self):
        seeds = _SeedRows(_stream_words(20240901, 3, 200))
        for i in range(3, 200):
            got = np.random.Generator(np.random.PCG64(seeds)).random(64)
            want = np.random.Generator(np.random.PCG64(replica_stream_seed(20240901, i))).random(64)
            assert np.array_equal(got, want)

    def test_one_seed_source_over_adjacent_tiles(self):
        # the generators of tile [5, 12) and then of tile [12, 20), all from one source over [5, 20)
        seed = 2**64 - 3
        seeds = _SeedRows(_stream_words(seed, 5, 20))
        tiles = [[np.random.Generator(np.random.PCG64(seeds)) for _ in range(a, b)] for a, b in ((5, 12), (12, 20))]
        for i, gen in enumerate(tiles[0] + tiles[1], 5):
            want = np.random.Generator(np.random.PCG64(replica_stream_seed(seed, i))).random(16)
            assert np.array_equal(gen.random(16), want), i


class TestRunEnsemble:
    def test_replica_floor(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError):
            run_ensemble(params, UNIFORM, 10, [10], 1, seed=0)

    def test_checkpoint_bounds(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 10\]"):
            run_ensemble(params, UNIFORM, 10, [0], 4, seed=0)
        with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 10\]"):
            run_ensemble(params, UNIFORM, 10, [20], 4, seed=0)

    def test_step_count_checked_after_replicas(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            run_ensemble(params, UNIFORM, 0, [], 4, seed=0)
        with pytest.raises(ValueError, match="need at least 2 replicas"):
            run_ensemble(params, UNIFORM, 0, [], 1, seed=0)

    def test_int64_bound_at_its_first_failing_size(self, monkeypatch):
        # at R = 1 000, 67 909 396 is the first n_steps with R * n_steps^2 >= 2^62
        class Walked(Exception):
            pass

        def walk(*args):
            raise Walked

        monkeypatch.setattr(montecarlo, "_simulate_block", walk)
        params = validate_params(1, False, 0.5, 0.5)
        message = r"replicas \* n_steps\^2 = 1000 \* 67909396\^2 is not below 2\^62, the limit of exact int64 sums"
        with pytest.raises(ValueError, match=message):
            run_ensemble(params, UNIFORM, 67_909_396, [], 1_000, seed=0)
        with pytest.raises(Walked):
            run_ensemble(params, UNIFORM, 67_909_395, [], 1_000, seed=0)

    def test_empty_checkpoints_record_final(self):
        params = validate_params(1, False, 0.5, 0.5)
        summary = run_ensemble(params, UNIFORM, 25, [], 8, seed=0)
        assert [cp.n for cp in summary.checkpoints] == [25]

    @pytest.mark.parametrize("d, lazy, replicas, n, mib", [(1, False, 20_000, 1_500, 10), (2, True, 7_168, 1_100, 34)])
    def test_buffer_does_not_grow_with_replicas(self, d, lazy, replicas, n, mib):
        # numpy reports its buffers to tracemalloc. The uniform buffer is
        # _CHUNK x tile width float64, 8 MiB at K = 2 (2 048 wide) and 28 MiB
        # at K = 5 (7 168 wide); a buffer spanning all 20 000 replicas, or the
        # 1 024-step chunk of the chunk-1024 mutant in tools/mutants.py, would
        # exceed the bound
        params = validate_params(d, lazy, 0.7, 0.6)
        tracemalloc.start()
        try:
            run_ensemble(params, UNIFORM, n, [n], replicas, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, peak / 2**20

    def test_deterministic_persistent_walk(self):
        params = validate_params(1, False, 1.0, 1.0)
        summary = run_ensemble(params, InitialSpec.fixed(0), 50, [50], 16, seed=5)
        cp = summary.at(50)
        assert np.allclose(cp.mean, [50.0])
        assert np.allclose(cp.cov, 0.0)
        assert np.allclose(cp.stderr, 0.0)
        with pytest.raises(KeyError, match="no checkpoint at n = 49"):
            summary.at(49)

    def test_seed_determinism(self):
        params = validate_params(2, True, 0.7, 0.8)
        a = run_ensemble(params, UNIFORM, 400, [40, 400], 32, seed=9)
        b = run_ensemble(params, UNIFORM, 400, [40, 400], 32, seed=9)
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            assert np.array_equal(ca.mean, cb.mean)
            assert np.array_equal(ca.cov, cb.cov)

    def test_merge_partition_exactness(self):
        params = validate_params(1, False, 0.8, 1.0)
        whole = _simulate_block(params, UNIFORM, [150], 77, 0, 30, False)
        for split in ([0, 30], [0, 7, 30], [0, 1, 2, 29, 30], [0, 15, 16, 30]):
            parts = [
                _simulate_block(params, UNIFORM, [150], 77, lo, hi, False)
                for lo, hi in zip(split, split[1:])
                if hi > lo
            ]
            assert np.array_equal(whole[0], sum(part[0] for part in parts))
            assert np.array_equal(whole[1], sum(part[1] for part in parts))

    def test_worker_count_invariance(self):
        params = validate_params(1, False, 0.6, 1.0)
        a = run_ensemble(params, UNIFORM, 200, [200], 24, seed=3, workers=1)
        b = run_ensemble(params, UNIFORM, 200, [200], 24, seed=3, workers=3)
        assert np.array_equal(a.at(200).mean, b.at(200).mean)
        assert np.array_equal(a.at(200).cov, b.at(200).cov)

    def test_three_blocks_merge_in_replica_order(self, monkeypatch):
        # three usable CPUs, pinned, so three blocks run in three workers
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        params = validate_params(1, True, 0.8, 0.9)
        try:
            a = run_ensemble(params, UNIFORM, 300, [30, 300], 41, seed=5, workers=1, retain_samples=True)
            b = run_ensemble(params, UNIFORM, 300, [30, 300], 41, seed=5, workers=3, retain_samples=True)
            assert montecarlo._pool[1] == 3
        finally:
            montecarlo._drop_pool()
        assert same_summary(a, b)

    def test_worker_clamp(self):
        # pure arithmetic: no process is started here
        assert montecarlo._process_count(1_000, 50, 2) == 2
        assert montecarlo._process_count(8, 3, 16) == 3
        assert montecarlo._process_count(3, 100, 16) == 3
        assert montecarlo._usable_cpus() >= 1

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert montecarlo._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._usable_cpus() == 1

    def test_iid_mean_within_clt_band(self):
        params = validate_params(1, False, 0.7, 0.0)
        summary = run_ensemble(params, UNIFORM, 2_000, [2_000], 2_000, seed=31)
        cp = summary.at(2_000)
        assert abs(cp.mean[0] / 2_000 - 0.4) < 4.0 * cp.stderr[0] / 2_000

    def test_engine_one_step_law(self):
        # vectorized sampler agrees with the exact path law at n = 2
        params = validate_params(1, False, 0.75, 1.0)
        summary = run_ensemble(params, UNIFORM, 2, [2], 40_000, seed=17, retain_samples=True)
        pos = summary.samples[2][:, 0]
        freq = np.array([(pos == 2).sum(), (pos == 0).sum(), (pos == -2).sum()])
        assert chisquare_pvalue(freq, np.array([0.375, 0.25, 0.375])) > 1e-3

    def test_diffusive_variance_over_n_is_flat(self):
        # trace Cov(S_n)/n settles below the boundary: decade ratio near 1
        params = validate_params(1, False, 0.6, 1.0)
        summary = run_ensemble(params, UNIFORM, 10_000, [1_000, 10_000], 3_000, seed=55)
        ratios = {cp.n: np.trace(cp.cov) / cp.n for cp in summary.checkpoints}
        assert abs(ratios[10_000] / ratios[1_000] - 1.0) < 0.10


def same_summary(a, b) -> bool:
    return all(
        np.array_equal(x.mean, y.mean) and np.array_equal(x.cov, y.cov)
        for x, y in zip(a.checkpoints, b.checkpoints, strict=True)
    ) and all(np.array_equal(a.samples[n], b.samples[n]) for n in a.samples)


class TestWorkerPool:
    """Pooled calls share one pool per process. Each test drops the pool
    first and pins two usable CPUs, so it starts at most two workers, and
    starts them on a one-CPU host too."""

    PARAMS = validate_params(1, True, 0.8, 0.9)

    @pytest.fixture(autouse=True)
    def fresh_pool(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        montecarlo._drop_pool()

    def run(self, workers):
        return run_ensemble(self.PARAMS, UNIFORM, 300, [30, 300], 41, seed=5, workers=workers,
                            retain_samples=True)

    @staticmethod
    def worker_pids() -> set[int]:
        return set(montecarlo._pool[2]._processes)

    def test_calls_reuse_the_workers(self):
        want = self.run(1)
        assert same_summary(self.run(2), want)
        pids = self.worker_pids()
        assert same_summary(self.run(2), want)
        assert self.worker_pids() == pids and len(pids) == 2

    def test_import_loads_no_pool_modules(self):
        # the pool's modules load with the first pooled call
        code = "import sys, memwalk; print([m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))])"
        out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
                             check=True).stdout
        assert out == "[]\n"

    def test_killed_workers_are_replaced(self):
        want = self.run(1)
        self.run(2)
        killed = self.worker_pids()
        for pid in killed:
            os.kill(pid, signal.SIGKILL)
        assert same_summary(self.run(2), want)
        assert len(self.worker_pids()) == 2 and not self.worker_pids() & killed

    def test_forked_child_makes_its_own_pool(self):
        want = self.run(2)
        parent_pids = self.worker_pids()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = same_summary(self.run(2), want) and montecarlo._pool[0] == os.getpid()
                ok = ok and not self.worker_pids() & parent_pids
            finally:
                montecarlo._drop_pool()
                os.write(write_end, b"1" if ok else b"0")
                os._exit(0)
        os.close(write_end)
        ready = []
        try:
            ready, _, _ = select.select([read_end], [], [], 60)
            reply = os.read(read_end, 1) if ready else b""
        finally:
            os.close(read_end)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert reply == b"1"
        assert self.worker_pids() == parent_pids and same_summary(self.run(2), want)

    @staticmethod
    def running(pid: int) -> bool:
        """Whether pid is a live process, a zombie counting as ended."""
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                state = next(line for line in fh if line.startswith("State:"))
        except FileNotFoundError:
            return False
        return state.split()[1] != "Z"

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_workers_end_with_a_killed_parent(self):
        script = (
            "import time\n"
            "from memwalk import montecarlo\n"
            "from memwalk.model import InitialSpec, validate_params\n"
            "montecarlo._usable_cpus = lambda: 2\n"
            "params = validate_params(1, True, 0.8, 0.9)\n"
            "montecarlo.run_ensemble(params, InitialSpec.uniform(), 30, [30], 8, seed=5, workers=2)\n"
            "print(*montecarlo._pool[2]._processes, flush=True)\n"
            "time.sleep(600)\n"
        )
        # its own session, so its process group holds the workers too
        proc = subprocess.Popen([sys.executable, "-c", script], env=subprocess_env(), stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            workers = [int(pid) for pid in proc.stdout.readline().split()] if ready else []
            assert len(workers) == 2
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10.0
            while any(map(self.running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(self.running, workers))
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stdout.close()


class TestScalingExponent:
    def test_deterministic_square_growth(self):
        params = validate_params(1, False, 1.0, 1.0)
        summary = run_ensemble(params, UNIFORM, 10_000, [100, 1_000, 10_000], 64, seed=2)
        slope, stderr = scaling_exponent(summary)
        assert abs(slope - 2.0) < 1e-9
        assert stderr < 1e-9

    def test_input_validation(self):
        params = validate_params(1, False, 0.6, 1.0)
        short = run_ensemble(params, UNIFORM, 1_000, [100, 1_000], 32, seed=4)
        with pytest.raises(ValueError):
            scaling_exponent(short)
        narrow = run_ensemble(params, UNIFORM, 400, [100, 200, 400], 32, seed=4)
        with pytest.raises(ValueError):
            scaling_exponent(narrow)
        persistent = validate_params(1, False, 1.0, 1.0)
        still = run_ensemble(persistent, InitialSpec.fixed(0), 1_000, [10, 100, 1_000], 8, seed=4)
        with pytest.raises(ValueError, match="degenerate"):
            scaling_exponent(still)


class TestCrossTime:
    def test_equal_times_match_single_checkpoint(self):
        params = validate_params(1, False, 0.6, 1.0)
        n_scale = 500
        cross = cross_time_covariance(params, UNIFORM, 1.0, 1.0, n_scale, 300, seed=8)
        summary = run_ensemble(params, UNIFORM, n_scale, [n_scale], 300, seed=8)
        assert np.allclose(cross, summary.at(n_scale).cov / n_scale, atol=1e-12)

    def test_iid_independent_increments(self):
        # for i.i.d. steps Cov(S_s, S_t) = Cov(S_s, S_s) = s * (2/K) * n
        params = validate_params(1, False, 0.5, 0.4)  # p = 1/K
        cross = cross_time_covariance(params, UNIFORM, 1.0, 3.0, 2_000, 3_000, seed=14)
        se = 1.0 * np.sqrt(2.0 / 3_000) * 3.0
        assert abs(cross[0, 0] - 1.0) < 4.0 * se

    def test_regime_gate(self):
        params = validate_params(1, False, 0.9, 1.0)
        with pytest.raises(RegimeMismatchError):
            cross_time_covariance(params, UNIFORM, 1.0, 2.0, 100, 10, seed=0)

    @pytest.mark.parametrize("p, s, t, error, message", [
        (0.9, 1.0, 2.0, RegimeMismatchError,
         "the diffusive covariance needs a diffusive or no-transition point, got superdiffusive"),
        (0.6, 2.0, 1.0, ValueError, "need 0 < s <= t"),
    ])
    def test_domain_fails_before_the_walk(self, monkeypatch, p, s, t, error, message):
        # the domain is theory.diffusive_covariance's, read before any walk
        def fail(*args, **kwargs):
            raise AssertionError("the ensemble ran before the domain was checked")

        monkeypatch.setattr(montecarlo, "run_ensemble", fail)
        with pytest.raises(error, match=f"^{message}$"):
            cross_time_covariance(validate_params(1, False, p, 1.0), UNIFORM, s, t, 100, 10, seed=0)

    @pytest.mark.parametrize("s, t", [(0.0, 1.0), (2.0, 1.0)])
    def test_times_out_of_order_rejected(self, s, t):
        params = validate_params(1, False, 0.6, 1.0)
        with pytest.raises(ValueError, match="need 0 < s <= t"):
            cross_time_covariance(params, UNIFORM, s, t, 100, 10, seed=0)


class TestGaussianityCheck:
    def test_gaussian_reference(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(20_000, 2))
        for stats in gaussianity_check(samples):
            assert not stats.degenerate
            assert abs(stats.skew_z) < 4.0
            assert abs(stats.kurt_z) < 4.0

    def test_degenerate_flagged(self):
        samples = np.ones((2_000, 1))
        stats = gaussianity_check(samples)[0]
        assert stats.degenerate

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            gaussianity_check(np.zeros((10, 1)))
        with pytest.raises(ValueError, match=r"expected an \(R, d\) sample array"):
            gaussianity_check(np.zeros(2_000))


class TestVerify:
    def test_unknown_tag(self):
        params = validate_params(1, False, 0.6, 1.0)
        with pytest.raises(ValueError):
            verify("nonsense", params)

    def test_lln_small_budget_passes(self):
        params = validate_params(1, False, 0.8, 0.3)
        budget = default_budget("lln", n_steps=5_000, replicas=100, seed=123)
        report = verify("lln", params, budget)
        assert report.passed
        assert report.tag == "lln"
        assert report.as_dict()["tolerance"]["se_units"] == 4.0

    def test_wide_se_still_passes(self):
        # tiny replica budget widens the band instead of failing
        params = validate_params(1, False, 0.8, 0.3)
        report = verify("lln", params, default_budget("lln", n_steps=2_000, replicas=8, seed=5))
        assert report.passed

    def test_report_serializes(self):
        import json

        params = validate_params(1, False, 0.8, 0.3)
        report = verify("lln", params, default_budget("lln", n_steps=1_000, replicas=50, seed=1))
        text = json.dumps(report.as_dict())
        assert "lln" in text

    @pytest.mark.parametrize("tag, p, overrides, key, gate", [
        # each would pass its default gate: 0.028 against 0.05, 0.039 against 0.10,
        # 0.92 SE against 4, 0.0024 against 0.15 and 0.022 against 0.10
        ("moments", 0.9, dict(n_steps=2_000, replicas=2_000), "second_moment_rel", "_TOLERANCE_MOMENT"),
        ("clt-diffusive", 0.6, dict(n_steps=500, replicas=2_000, cross_time=(1.0, 4.0, 500)),
         "cross_time_rel", "_TOLERANCE_CROSS_TIME"),
        ("lln", 0.8, dict(n_steps=2_000, replicas=100), "se_units", "_TOLERANCE_SE"),
        ("clt-critical", 0.75, dict(replicas=400, checkpoints=[500, 5_000]), "vs_theory_rel", "_TOLERANCE_CRITICAL"),
        ("superdiffusive", 0.9, dict(n_steps=2_000, replicas=200), "abs", "_TOLERANCE_EXPONENT"),
    ])
    def test_zero_relative_tolerance_is_kept(self, monkeypatch, tag, p, overrides, key, gate):
        monkeypatch.setattr(montecarlo, gate, 0.0)
        params = validate_params(1, False, p, 1.0)
        report = verify(tag, params, default_budget(tag, seed=5, **overrides))
        assert not report.passed
        assert report.tolerance[key] == 0.0

    def test_moments_mean_meets_no_table_cap(self, monkeypatch):
        # E S_n is one mark of the moment recursion, so a cap of five rows at K = 2 changes no byte
        params = validate_params(1, False, 0.9, 1.0)
        budget = default_budget("moments", n_steps=2_000, replicas=200, seed=5)
        want = json.dumps(verify("moments", params, budget).as_dict())
        monkeypatch.setattr(theory, "MAX_TABLE_BYTES", 5 * 8 * 23)
        assert json.dumps(verify("moments", params, budget).as_dict()) == want

    def test_hand_built_budget_takes_table_defaults(self):
        params = validate_params(1, False, 0.75, 1.0)
        budget = VerifyBudget(n_steps=30, replicas=2_000, checkpoints=[3, 30])
        report = verify("clt-critical", params, budget)
        assert report.tolerance["vs_theory_rel"] == 0.15
        assert report.config["n_steps"] == 30 and report.config["replicas"] == 2_000

    def test_gates_share_one_zero_rule(self):
        # se > 0; se = 0 with diff = 0; se = 0 with diff != 0
        z = montecarlo._se_units(np.array([-3.0, 0.0, 1e-3]), np.array([1.5, 0.0, 0.0]))
        assert z.tolist() == [2.0, 0.0, np.inf]
        assert montecarlo._rel(np.array([1.0, 2.0]), np.array([-1.0, 4.0])) == 0.5
        assert montecarlo._rel(np.zeros(2), np.zeros(2)) == 0.0
        assert montecarlo._rel(np.array([0.0, 1e-3]), np.zeros(2)) == np.inf
        # the largest theory entry by magnitude is negative
        assert montecarlo._rel(np.array([-3.0, 1.0]), np.array([-4.0, 1.0])) == 0.25

    @pytest.mark.parametrize("discrepancy, passed", [
        ({"a": np.array([1.0, 0.5]), "b": 2.0}, True),  # a tie passes
        ({"a": np.array([1.0, np.nextafter(1.0, 2.0)]), "b": 2.0}, False),
        ({"a": np.array([np.nan, 0.5]), "b": 2.0}, False),
        ({"a": np.zeros(2), "b": np.inf}, False),
    ])
    def test_verdict_is_one_rule_over_the_dicts(self, monkeypatch, discrepancy, passed):
        def verifier(params, budget):
            return [], lambda: dict(theoretical={}, empirical={}, discrepancy=discrepancy, tolerance={"a": 1.0, "b": 2.0})

        monkeypatch.setitem(montecarlo._VERIFIERS, "lln", (verifier, {}))
        report = verify("lln", validate_params(1, False, 0.8, 0.3))
        assert report.passed is passed

    @pytest.mark.parametrize("tag, p, theta, overrides", SMALL_VERIFY)
    def test_gates_are_the_readme_values(self, tag, p, theta, overrides):
        readme = {
            "lln": {"se_units": 4.0},
            "clt-diffusive": {"covariance_se_units": 4.0, "shape_se_units": 4.0, "cross_time_rel": 0.10},
            "clt-critical": {"between_checkpoints_rel": 0.15, "vs_theory_rel": 0.15},
            "superdiffusive": {"abs": 0.10},
            "moments": {"second_moment_rel": 0.05, "mean_se_units": 4.0},
        }
        report = verify(tag, validate_params(1, False, p, theta), default_budget(tag, seed=5, **overrides))
        assert report.tolerance == readme[tag]
        assert list(report.tolerance) == list(report.discrepancy)
        assert report.passed is True

    def test_clt_critical_gates_read_the_first_and_last_marks(self):
        params = validate_params(1, False, 0.75, 1.0)
        budget = default_budget("clt-critical", seed=5, replicas=400, checkpoints=[5_000, 50, 500])
        report = verify("clt-critical", params, budget)
        ratios, th = report.empirical["trace_over_nlogn"], report.theoretical["trace_over_nlogn"]
        first, last = ratios[50], ratios[5_000]
        assert report.discrepancy["between_checkpoints_rel"] == pytest.approx(abs(last - first) / first, rel=1e-12)
        assert report.discrepancy["vs_theory_rel"] == pytest.approx(abs(last - th) / th, rel=1e-12)

    def test_zero_theory_covariance_reads_infinite_se_units(self):
        # at theta = 0, p = 1 only the first step is random: the limit covariance is 0,
        # the sample's about 1/n
        params = validate_params(1, False, 1.0, 0.0)
        budget = default_budget("clt-diffusive", n_steps=200, replicas=1_000, cross_time=(1.0, 4.0, 200))
        report = verify("clt-diffusive", params, budget)
        assert np.all(report.theoretical["covariance_over_n"] == 0.0)
        assert report.empirical["covariance_over_n"][0, 0] > 0.0
        assert report.discrepancy["covariance_se_units"][0, 0] == np.inf
        assert not report.passed

    @pytest.mark.parametrize("tag, p, theta, overrides", SMALL_VERIFY)
    def test_reports_are_finite_json(self, tag, p, theta, overrides):
        # a new 0/0 in a gate would reach the report as NaN or Infinity; the report
        # object is dumped, since as_dict writes every non-finite float as null
        params = validate_params(1, False, p, theta)
        report = verify(tag, params, default_budget(tag, seed=5, **overrides))
        json.dumps(dataclasses.asdict(report), allow_nan=False, default=lambda v: v.tolist())

    def test_empty_checkpoint_list_rejected(self):
        params = validate_params(1, False, 0.75, 1.0)
        with pytest.raises(ValueError, match=r"clt-critical needs two distinct checkpoints, got \[\]"):
            verify("clt-critical", params, VerifyBudget(n_steps=30, replicas=10, checkpoints=[]))
        params = validate_params(1, False, 0.9, 1.0)
        with pytest.raises(ValueError, match="need at least 3 checkpoints"):
            verify("superdiffusive", params, VerifyBudget(n_steps=30, replicas=10, checkpoints=[]))

    def test_single_checkpoint_rejected(self):
        # the n log n drift needs two distinct checkpoints to compare
        params = validate_params(1, False, 0.75, 1.0)
        for marks in ([3_000], [3_000, 3_000]):
            with pytest.raises(ValueError, match="two distinct checkpoints"):
                verify("clt-critical", params, VerifyBudget(replicas=1_000, seed=7, checkpoints=marks))

    @pytest.mark.parametrize("tag, p", [("lln", 0.8), ("clt-diffusive", 0.6), ("moments", 0.9)])
    def test_checkpoints_rejected_where_unread(self, tag, p):
        params = validate_params(1, False, p, 1.0)
        with pytest.raises(ValueError, match="reads no checkpoints"):
            verify(tag, params, default_budget(tag, n_steps=10, replicas=10, checkpoints=[10]))

    @pytest.fixture
    def no_walks(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the ensemble ran before the parameters were checked")

        monkeypatch.setattr(montecarlo, "run_ensemble", fail)

    def test_degenerate_lln_fails_before_the_walks(self, no_walks):
        params = validate_params(1, False, 1.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            verify("lln", params, default_budget("lln", replicas=4_000))

    @pytest.mark.parametrize("tag, p, message", [
        ("clt-diffusive", 0.9, "the diffusive covariance needs a diffusive or no-transition point, got superdiffusive"),
        ("clt-critical", 0.6, "the critical covariance needs a critical point, got diffusive"),
        ("superdiffusive", 0.6, "the superdiffusive exponent needs a superdiffusive point, got diffusive"),
        ("moments", 0.6, "the limit second moment needs a superdiffusive point, got diffusive"),
    ], ids=["clt-diffusive", "clt-critical", "superdiffusive", "moments"])
    def test_regime_fails_before_the_walks(self, no_walks, tag, p, message):
        # a tag's regime is the domain of its theory reference, which each verifier reads first
        with pytest.raises(RegimeMismatchError, match=f"^{message}$"):
            verify(tag, validate_params(1, False, p, 1.0), default_budget(tag))

    @pytest.mark.parametrize("marks, message", [
        ([1_000, 100_000], "at least 3 checkpoints"),
        ([1_000, 1_000, 100_000], "at least 3 checkpoints"),
        ([1_000, 5_000, 99_999], "two decades"),
    ])
    def test_superdiffusive_marks_fail_before_the_walks(self, no_walks, marks, message):
        params = validate_params(1, False, 0.9, 1.0)
        with pytest.raises(ValueError, match=message):
            verify("superdiffusive", params, default_budget("superdiffusive", checkpoints=marks))

    def test_clt_critical_mark_below_two_fails_before_the_walks(self, no_walks):
        # n log n is 0 at n = 1
        params = validate_params(1, False, 0.75, 1.0)
        with pytest.raises(ValueError, match="checkpoints of at least 2, where n log n > 0"):
            verify("clt-critical", params, VerifyBudget(replicas=2_000, seed=3, checkpoints=[1, 1_000]))

    @pytest.mark.parametrize("n_steps", [1, 19])
    def test_clt_critical_derived_mark_below_two_fails_before_the_walks(self, no_walks, n_steps):
        # the derived first mark n_steps // 10 is below 2; no checkpoint was given
        params = validate_params(1, False, 0.75, 1.0)
        with pytest.raises(ValueError, match=rf"needs n_steps of at least 20, .*got {n_steps}$"):
            verify("clt-critical", params, VerifyBudget(n_steps=n_steps, replicas=100))

    def test_sizes_follow_n_steps(self, monkeypatch):
        # with no cross_time and no checkpoints, every ensemble is sized from n_steps
        walked = []
        real = montecarlo.run_ensemble

        def spy(params, init, n_steps, checkpoints, replicas, seed, **kwargs):
            walked.append((replicas, n_steps, set(checkpoints)))
            return real(params, init, n_steps, checkpoints, replicas, seed, **kwargs)

        monkeypatch.setattr(montecarlo, "run_ensemble", spy)
        verify("clt-diffusive", validate_params(1, False, 0.6, 1.0), VerifyBudget(n_steps=200, replicas=1_000))
        verify("clt-critical", validate_params(1, False, 0.75, 1.0), VerifyBudget(n_steps=300, replicas=100))
        verify("clt-critical", validate_params(1, False, 0.75, 1.0), VerifyBudget(n_steps=20, replicas=100))
        assert walked == [(1_000, 800, {200, 800}), (1_000, 200, {200}), (100, 300, {30, 300}), (100, 20, {2, 20})]

    def test_clt_diffusive_oversize_fails_before_the_walks(self, monkeypatch):
        # the n_steps ensemble passes the int64 bound at this size; the 4 * n_steps one does not
        def walk(*args):
            raise AssertionError("an ensemble walked before the int64 bound was checked")

        monkeypatch.setattr(montecarlo, "_simulate_block", walk)
        params = validate_params(1, False, 0.6, 1.0)
        with pytest.raises(ValueError, match=r"1000 \* 80000000\^2 is not below 2\^62"):
            verify("clt-diffusive", params, VerifyBudget(n_steps=20_000_000, replicas=1_000))

    def test_every_planned_walk_is_checked_before_the_first(self, monkeypatch):
        # the cross-time ensemble, walked first, is small; the n_steps one fails the int64 bound
        def walk(*args):
            raise AssertionError("an ensemble walked before every planned walk was checked")

        monkeypatch.setattr(montecarlo, "_simulate_block", walk)
        params = validate_params(1, False, 0.6, 1.0)
        budget = VerifyBudget(n_steps=80_000_000, replicas=1_000, cross_time=(1.0, 1.0, 100))
        with pytest.raises(ValueError, match=r"1000 \* 80000000\^2 is not below 2\^62"):
            verify("clt-diffusive", params, budget)

    def test_cross_time_first_step_below_one_fails_before_the_walks(self, no_walks):
        # floor(0.001 * 500) = 0 is no step of a walk; both callers name the product, not a checkpoint range
        params = validate_params(1, False, 0.6, 1.0)
        message = r"^s \* n_scale = 0.001 \* 500 is below 1, the first step of a walk$"
        with pytest.raises(ValueError, match=message):
            cross_time_covariance(params, UNIFORM, 0.001, 4.0, 500, 1_000, seed=0)
        with pytest.raises(ValueError, match=message):
            verify("clt-diffusive", params, default_budget("clt-diffusive", cross_time=(0.001, 4.0, 500)))

    @pytest.mark.parametrize("d, lazy, p", [(1, False, 0.6), (2, True, 0.4)])
    def test_cross_time_gate_is_the_public_estimate(self, d, lazy, p):
        # the cross-time ensemble walks at seed + 1 to 4 n, and both callers share one estimator
        params = validate_params(d, lazy, p, 1.0)
        n, R, seed = 200, 1_000, 17
        report = verify("clt-diffusive", params, VerifyBudget(n_steps=n, replicas=R, seed=seed))
        want = cross_time_covariance(params, UNIFORM, 1.0, 4.0, n, R, seed + 1)
        got = report.empirical["cross_time"]
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_clt_diffusive_replica_floor_before_the_walks(self, no_walks):
        params = validate_params(1, False, 0.6, 1.0)
        with pytest.raises(ValueError) as early:
            verify("clt-diffusive", params, default_budget("clt-diffusive", replicas=999))
        with pytest.raises(ValueError) as late:
            gaussianity_check(np.zeros((999, 1)))
        assert str(early.value) == str(late.value)

    def test_clt_critical_beyond_two_moves(self):
        # d = 2, theta = 1: the critical covariance is I_2 / 2, trace 1
        params = validate_params(2, False, theory.critical_probability(4, 1.0), 1.0)
        report = verify("clt-critical", params, default_budget("clt-critical", seed=11, workers=2))
        assert report.theoretical["trace_over_nlogn"] == pytest.approx(1.0, rel=1e-14)
        assert report.passed, report.discrepancy

    def test_default_budget_is_the_table_entry(self):
        for tag, (_, defaults) in montecarlo._VERIFIERS.items():
            budget = default_budget(tag)
            assert {k: getattr(budget, k) for k in defaults} == defaults
        assert default_budget("lln", n_steps=None, replicas=7).n_steps == 100_000
        with pytest.raises(ValueError):
            default_budget("nonsense")


class TestMomentConsistency:
    def test_monte_carlo_matches_propagation(self):
        # independent routes to the scaled limit second moment agree
        params = validate_params(1, False, 0.9, 1.0)
        budget = default_budget("moments", n_steps=20_000, replicas=4_000, seed=99)
        report = verify("moments", params, budget)
        assert report.passed
        assert report.discrepancy["second_moment_rel"] < 0.05
