import numpy as np
import pytest

from conftest import chisquare_pvalue
from memwalk import montecarlo, oracle, theory
from memwalk.model import InitialSpec, validate_params
from memwalk.montecarlo import (
    VerifyBudget,
    _simulate_block,
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


class TestReplicaStreams:
    def test_mixing_is_deterministic(self):
        assert replica_stream_seed(42, 0) == replica_stream_seed(42, 0)
        seen = {replica_stream_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000

    def test_mixing_depends_on_both_inputs(self):
        assert replica_stream_seed(1, 0) != replica_stream_seed(2, 0)
        assert replica_stream_seed(1, 0) != replica_stream_seed(1, 1)


class TestRunEnsemble:
    def test_replica_floor(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError):
            run_ensemble(params, UNIFORM, 10, [10], 1, seed=0)

    def test_checkpoint_bounds(self):
        params = validate_params(1, False, 0.5, 0.5)
        with pytest.raises(ValueError):
            run_ensemble(params, UNIFORM, 10, [0], 4, seed=0)
        with pytest.raises(ValueError):
            run_ensemble(params, UNIFORM, 10, [20], 4, seed=0)

    def test_empty_checkpoints_record_final(self):
        params = validate_params(1, False, 0.5, 0.5)
        summary = run_ensemble(params, UNIFORM, 25, [], 8, seed=0)
        assert [cp.n for cp in summary.checkpoints] == [25]

    def test_deterministic_persistent_walk(self):
        params = validate_params(1, False, 1.0, 1.0)
        summary = run_ensemble(params, InitialSpec.fixed(0), 50, [50], 16, seed=5)
        cp = summary.at(50)
        assert np.allclose(cp.mean, [50.0])
        assert np.allclose(cp.cov, 0.0)
        assert np.allclose(cp.stderr, 0.0)

    def test_seed_determinism(self):
        params = validate_params(2, True, 0.7, 0.8)
        a = run_ensemble(params, UNIFORM, 400, [40, 400], 32, seed=9)
        b = run_ensemble(params, UNIFORM, 400, [40, 400], 32, seed=9)
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            assert np.array_equal(ca.mean, cb.mean)
            assert np.array_equal(ca.cov, cb.cov)

    def test_merge_partition_exactness(self):
        params = validate_params(1, False, 0.8, 1.0)
        whole = _simulate_block(params, UNIFORM, 150, [150], 77, 0, 30, False)
        for split in ([0, 30], [0, 7, 30], [0, 1, 2, 29, 30], [0, 15, 16, 30]):
            parts = [
                _simulate_block(params, UNIFORM, 150, [150], 77, lo, hi, False)
                for lo, hi in zip(split, split[1:])
                if hi > lo
            ]
            merged = parts[0]
            for part in parts[1:]:
                merged = merged.merge(part)
            assert np.array_equal(whole.sum_x, merged.sum_x)
            assert np.array_equal(whole.sum_xx, merged.sum_xx)

    def test_worker_count_invariance(self):
        params = validate_params(1, False, 0.6, 1.0)
        a = run_ensemble(params, UNIFORM, 200, [200], 24, seed=3, workers=1)
        b = run_ensemble(params, UNIFORM, 200, [200], 24, seed=3, workers=3)
        assert np.array_equal(a.at(200).mean, b.at(200).mean)
        assert np.array_equal(a.at(200).cov, b.at(200).cov)

    def test_worker_clamp(self):
        # pure arithmetic: no process is started here
        assert montecarlo._process_count(1_000, 50, 2) == 2
        assert montecarlo._process_count(8, 3, 16) == 3
        assert montecarlo._process_count(3, 100, 16) == 3
        assert montecarlo._process_count(0, 10, 4) == 1
        assert montecarlo._usable_cpus() >= 1

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


class TestVerify:
    def test_unknown_tag(self):
        params = validate_params(1, False, 0.6, 1.0)
        with pytest.raises(ValueError):
            verify("nonsense", params)

    def test_tag_regime_mismatch(self):
        diffusive = validate_params(1, False, 0.6, 1.0)
        superdiff = validate_params(1, False, 0.9, 1.0)
        with pytest.raises(RegimeMismatchError):
            verify("clt-critical", diffusive, default_budget("clt-critical"))
        with pytest.raises(RegimeMismatchError):
            verify("clt-diffusive", superdiff, default_budget("clt-diffusive"))
        with pytest.raises(RegimeMismatchError):
            verify("superdiffusive", diffusive, default_budget("superdiffusive"))
        with pytest.raises(RegimeMismatchError):
            verify("moments", diffusive, default_budget("moments"))

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


class TestMomentConsistency:
    def test_monte_carlo_matches_propagation(self):
        # independent routes to the scaled limit second moment agree
        params = validate_params(1, False, 0.9, 1.0)
        budget = default_budget("moments", n_steps=20_000, replicas=4_000, seed=99)
        report = verify("moments", params, budget)
        assert report.passed
        assert report.discrepancy["second_moment_rel"] < 0.05
