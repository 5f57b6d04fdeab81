import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cvmb.bounds import classical_fisher_gaussian, dual_homodyne_mse_analytic
from cvmb.gaussian import apply, beam_splitter, displace, make_thermal, two_mode_squeezer
import cvmb.simulate
from cvmb.simulate import (
    SIMULATE_MAX_SQUEEZING,
    SimConfig,
    estimate,
    outcome_distribution,
    run,
    run_two_stage,
)


class TestOutcomeDistribution:
    def test_vacuum_passthrough(self):
        model = outcome_distribution(0.0, 0.0)
        assert np.allclose(model.mean, 0.0)
        assert np.allclose(model.cov, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("r,n", [(0.0, 0.0), (0.5, 0.1), (1.3, 0.7)])
    def test_covariance_closed_form(self, r, n):
        model = outcome_distribution(r, n)
        assert np.allclose(model.cov, (2 * n + 1) * np.exp(-2 * r) * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("r,n,theta", [(0.0, 0.0, (2.0, 0.0)), (0.9, 0.2, (-1.0, 3.0))])
    def test_matches_phase_space_oracle(self, r, n, theta):
        # independently push the displaced probe through the splitter and
        # marginalize
        probe = displace(apply(two_mode_squeezer(r), make_thermal(n, 2)), *theta, mode=0)
        full = apply(beam_splitter(0.5), probe)
        model = outcome_distribution(r, n, theta)
        assert np.allclose(model.mean, full.mean[[0, 3]], atol=1e-14)
        assert np.allclose(model.cov, full.cov[np.ix_([0, 3], [0, 3])], atol=1e-14)

    def test_mean_for_q_displacement(self):
        model = outcome_distribution(0.0, 0.0, (2.0, 0.0))
        assert np.allclose(model.mean, [np.sqrt(2.0), 0.0], atol=1e-14)

    def test_jacobian_is_balanced(self):
        model = outcome_distribution(0.7, 0.3)
        assert np.allclose(model.jacobian, np.eye(2) / np.sqrt(2), atol=1e-14)

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            outcome_distribution(0.1, -0.5)


class TestEstimate:
    def test_noiseless_inversion(self):
        theta = (1.7, -0.4)
        model = outcome_distribution(0.6, 0.2, theta)
        assert np.allclose(estimate(model.mean), theta, atol=1e-12)

    def test_batch_shape(self):
        outcomes = np.array([[1.0, 0.0], [0.0, 1.0]])
        est = estimate(outcomes)
        assert est.shape == (2, 2)
        assert np.allclose(est, np.sqrt(2.0) * outcomes, atol=1e-14)

    def test_unbiased_and_efficient(self):
        config = SimConfig(r=0.4, photons=0.0, theta_true=(2.0, -1.0),
                           samples=400_000, seed=31)
        res = run(config)
        # mean estimate within 4 standard errors of the truth
        per_component_se = np.sqrt(np.diag(res.mse_matrix) / config.samples)
        assert np.all(np.abs(res.bias) < 4 * per_component_se)
        # summed variance matches the analytic dual-homodyne value
        target = dual_homodyne_mse_analytic(config.r, config.photons).value
        assert abs(res.mse_sum - target) < 3 * res.std_error


class TestRun:
    def test_matches_analytic_at_origin(self):
        res = run(SimConfig(r=0.0, photons=0.0, samples=1_000_000, seed=5))
        assert abs(res.mse_sum - 4.0) < 3 * res.std_error

    def test_matches_analytic_squeezed_thermal(self):
        res = run(SimConfig(r=0.5, photons=0.1, theta_true=(1.0, -2.0),
                            samples=1_000_000, seed=6))
        assert abs(res.mse_sum - 4.8 * np.exp(-1.0)) < 3 * res.std_error

    def test_bitwise_deterministic(self):
        config = SimConfig(r=0.3, photons=0.2, theta_true=(0.5, 0.5), samples=20_000, seed=99)
        a, b = run(config), run(config)
        assert a.mse_sum == b.mse_sum
        assert a.std_error == b.std_error
        assert np.array_equal(a.mse_matrix, b.mse_matrix)
        assert np.array_equal(a.bias, b.bias)

    def test_batch_size_only_moves_rounding(self):
        config = SimConfig(r=0.6, photons=0.0, samples=30_000, seed=12)
        a = run(config, batch_size=30_000)
        b = run(config, batch_size=2_048)
        assert np.isclose(a.mse_sum, b.mse_sum, rtol=1e-12, atol=0)

    def test_mse_matrix_structure(self):
        res = run(SimConfig(r=0.2, photons=0.1, samples=50_000, seed=3))
        assert np.array_equal(res.mse_matrix, res.mse_matrix.T)
        assert np.min(np.linalg.eigvalsh(res.mse_matrix)) >= 0
        assert np.isclose(res.mse_sum, np.trace(res.mse_matrix), atol=1e-15)

    def test_single_sample_has_infinite_stderr(self):
        res = run(SimConfig(r=0.1, photons=0.0, samples=1, seed=8))
        assert res.std_error == np.inf

    def test_empirical_matches_classical_fisher(self):
        config = SimConfig(r=0.7, photons=0.3, samples=1_000_000, seed=21)
        res = run(config)
        model = outcome_distribution(config.r, config.photons)
        fisher = classical_fisher_gaussian(model.jacobian, model.cov)
        assert abs(res.mse_sum - np.trace(np.linalg.inv(fisher))) < 3 * res.std_error

    def test_theta_independence(self):
        values = []
        for theta in [(0.0, 0.0), (5.0, -3.0), (-10.0, 10.0)]:
            res = run(SimConfig(r=0.5, photons=0.1, theta_true=theta,
                                samples=200_000, seed=40))
            values.append((res.mse_sum, res.std_error))
        for (m1, s1), (m2, s2) in zip(values, values[1:]):
            assert abs(m1 - m2) < 3 * np.hypot(s1, s2)

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_squeezing_scaling_law(self, r):
        base = run(SimConfig(r=0.0, photons=0.1, samples=400_000, seed=61))
        squeezed = run(SimConfig(r=r, photons=0.1, samples=400_000, seed=62))
        ratio = squeezed.mse_sum / base.mse_sum
        se = ratio * np.hypot(squeezed.std_error / squeezed.mse_sum,
                              base.std_error / base.mse_sum)
        assert abs(ratio - np.exp(-2 * r)) < 3 * se

    def test_full_phase_space_oracle_agrees(self):
        direct = run(SimConfig(r=0.4, photons=0.2, theta_true=(1.0, 1.0),
                               samples=400_000, seed=17))
        full = run(SimConfig(r=0.4, photons=0.2, theta_true=(1.0, 1.0),
                             samples=400_000, seed=18), full_phase_space=True)
        assert abs(direct.mse_sum - full.mse_sum) < 3 * np.hypot(direct.std_error,
                                                                 full.std_error)

    def test_odd_batch_size_rejected(self):
        with pytest.raises(ValueError):
            run(SimConfig(r=0.1, photons=0.0, samples=10, seed=1), batch_size=3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(r=0.1, photons=-0.2)
        with pytest.raises(ValueError):
            SimConfig(r=0.1, photons=0.0, samples=0)
        with pytest.raises(ValueError):
            SimConfig(r=0.1, photons=0.0, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(r=0.1, photons=0.0, mode="triple")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="r must be finite"):
                SimConfig(r=bad, photons=0.0)
            with pytest.raises(ValueError, match="photons must be finite"):
                SimConfig(r=0.1, photons=bad)
            with pytest.raises(ValueError, match="theta_true must be finite"):
                SimConfig(r=0.1, photons=0.0, theta_true=(0.0, bad))
        for r in (SIMULATE_MAX_SQUEEZING, -SIMULATE_MAX_SQUEEZING):
            SimConfig(r=r, photons=0.0)
            with pytest.raises(ValueError, match="outside the simulate limit"):
                SimConfig(r=np.nextafter(r, 2 * r), photons=0.0)


class TestTwoStage:
    def test_per_shot_mse_matches_direct_formula(self):
        r = 0.5
        config = SimConfig(r=r, photons=0.0, theta_true=(2.0, 1.0),
                           samples=1_000_000, seed=71, mode="two_stage")
        res = run(config)
        n2 = res.samples
        assert n2 == 1_000_000 - 1_000
        target = 4 * np.exp(-2 * r)
        assert abs(res.mse_sum * n2 - target) / target < 0.05

    def test_rough_estimate_unbiased(self):
        config = SimConfig(r=0.3, photons=0.1, theta_true=(4.0, -2.0),
                           samples=250_000, seed=72)
        res = run_two_stage(config)
        n1 = int(np.sqrt(config.samples))
        per_shot_sd = np.sqrt(dual_homodyne_mse_analytic(config.r, config.photons).value / 2)
        rough_se = per_shot_sd / np.sqrt(n1)
        assert np.all(np.abs(res.rough_estimate - config.theta_true) < 4 * rough_se)

    def test_consistent_with_direct_at_matched_shots(self):
        theta = (1.5, -0.5)
        ts = run_two_stage(SimConfig(r=0.4, photons=0.0, theta_true=theta,
                                     samples=100_000, seed=73))
        direct = run(SimConfig(r=0.4, photons=0.0, theta_true=theta,
                               samples=ts.samples, seed=74))
        pooled_sd = np.sqrt(
            dual_homodyne_mse_analytic(0.4, 0.0).value / ts.samples
        )
        diff = ts.final_estimate - direct.final_estimate
        assert np.all(np.abs(diff) < 3 * np.sqrt(2) * pooled_sd)

    def test_deterministic(self):
        config = SimConfig(r=0.2, photons=0.0, theta_true=(1.0, 1.0),
                           samples=10_000, seed=75, mode="two_stage")
        a, b = run(config), run(config)
        assert a.mse_sum == b.mse_sum
        assert np.array_equal(a.final_estimate, b.final_estimate)
        assert np.array_equal(a.rough_estimate, b.rough_estimate)

    def test_minimum_budget(self):
        with pytest.raises(ValueError):
            run_two_stage(SimConfig(r=0.1, photons=0.0, samples=16, seed=1), n_total=3)


class TestWorkerCount:
    """Results must not depend on how many threads share the batches."""

    CONFIG = SimConfig(r=0.3, photons=0.2, theta_true=(0.5, -1.0), samples=100_003, seed=99)
    BATCH = 4096  # 25 batches, the last one partial

    @staticmethod
    def force_workers(monkeypatch, n):
        monkeypatch.setattr(cvmb.simulate, "_usable_cpus", lambda: n)

    @staticmethod
    def fields(res):
        return [np.asarray(getattr(res, f.name)) for f in dataclasses.fields(res)
                if getattr(res, f.name) is not None]

    @pytest.mark.parametrize("case", ["direct", "full_phase_space", "two_stage"])
    def test_bitwise_equal_for_any_worker_count(self, monkeypatch, case):
        config = dataclasses.replace(self.CONFIG, mode="two_stage") \
            if case == "two_stage" else self.CONFIG
        pools = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cvmb.simulate, "ThreadPoolExecutor", CountingPool)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for n in (1, 2, 8):  # 8 is more workers than most hosts have cores
                self.force_workers(monkeypatch, n)
                results.append(self.fields(run(config, batch_size=self.BATCH,
                                               full_phase_space=case == "full_phase_space")))
        finally:
            sys.setswitchinterval(interval)
        # stage 1 of two-stage (316 shots) is one batch and stays on the caller
        assert pools == [1, 7]
        for other in results[1:]:
            assert len(other) == len(results[0])
            for a, b in zip(results[0], other):
                assert a.tobytes() == b.tobytes()

    def test_single_batch_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single batch must not start a thread")

        monkeypatch.setattr(cvmb.simulate, "ThreadPoolExecutor", no_pool)
        self.force_workers(monkeypatch, 8)
        before = threading.active_count()
        run(dataclasses.replace(self.CONFIG, samples=self.BATCH), batch_size=self.BATCH)
        assert threading.active_count() == before

    def test_worker_error_propagates(self, monkeypatch):
        def failing_kernel(z, a, c):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("worker failed")
            return (0.0,) * 6

        monkeypatch.setattr(cvmb.simulate, "accumulate_affine_moments", failing_kernel)
        self.force_workers(monkeypatch, 2)
        with pytest.raises(FloatingPointError, match="worker failed"):
            run(self.CONFIG, batch_size=self.BATCH)
