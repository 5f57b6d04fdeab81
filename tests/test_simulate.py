import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from cvmb import cli
from cvmb.bounds import classical_fisher_gaussian, dual_homodyne_mse_analytic
from cvmb.gaussian import apply, beam_splitter, displace, make_thermal, two_mode_squeezer
from cvmb.inputs import MAX_PHOTONS
import cvmb.simulate
from cvmb.simulate import (
    SIMULATE_MAX_SQUEEZING,
    SimConfig,
    outcome_distribution,
    run,
    run_many,
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

    def test_squeezing_past_simulate_limit_rejected(self):
        # past the limit the marginal loses its accuracy to cancellation:
        # at r = 10 the covariance came out negative
        for r in (SIMULATE_MAX_SQUEEZING, -SIMULATE_MAX_SQUEEZING):
            outcome_distribution(r, 0.0)
            for bad in (np.nextafter(r, 2 * r), 2 * r, 2.5 * r):
                with pytest.raises(ValueError, match="outside the simulate limit"):
                    outcome_distribution(bad, 0.0)


class TestNdtri:
    def test_is_scipys_ufunc(self):
        # the loader's ufunc is the package's, bit for bit, on the ends of the
        # draws and on both sides of the cephes split points exp(-2) and
        # 1 - exp(-2)
        import scipy.special

        splits = [math.exp(-2), 1 - math.exp(-2)]
        u = np.array([cvmb.simulate._MIN_UNIFORM, 0.5, 1 - 2.0 ** -53]
                     + [np.nextafter(x, d) for x in splits for d in (0.0, 1.0)] + splits)
        want = scipy.special.ndtri(u)
        assert cvmb.simulate._scipy_ufuncs().ndtri is scipy.special.ndtri
        assert cvmb.simulate.ndtri(u).tobytes() == want.tobytes()
        out = u.copy()
        assert cvmb.simulate.ndtri(out, out=out) is out
        assert out.tobytes() == want.tobytes()


class TestRun:
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

    def test_batch_size_only_moves_rounding(self, monkeypatch):
        config = SimConfig(r=0.6, photons=0.0, samples=30_000, seed=12)
        monkeypatch.setattr(cvmb.simulate, "BATCH_SIZE", 30_000)
        a = run(config)
        monkeypatch.setattr(cvmb.simulate, "BATCH_SIZE", 2_048)
        b = run(config)
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

    def test_unaligned_batch_start_rejected(self, monkeypatch):
        # shot 1 at 2 words per shot starts mid-way through a counter tick
        with pytest.raises(ValueError, match="not aligned to the Philox counter"):
            cvmb.simulate._shot_normals(1, 1, 10)
        monkeypatch.setattr(cvmb.simulate, "BATCH_SIZE", 3)
        with pytest.raises(ValueError, match="not aligned to the Philox counter"):
            run(SimConfig(r=0.1, photons=0.0, samples=10, seed=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(r=0.1, photons=-0.2)
        with pytest.raises(ValueError):
            SimConfig(r=0.1, photons=0.0, samples=0)
        with pytest.raises(ValueError):
            SimConfig(r=0.1, photons=0.0, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(r=0.1, photons=0.0, mode="triple")
        for name in ("samples", "seed"):
            for bad in (True, 1000.5, 1.5, 1.9, 1.0, "7"):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    SimConfig(r=0.1, photons=0.0, **{name: bad})
            config = SimConfig(r=0.1, photons=0.0, **{name: np.uint64(7)})
            assert type(getattr(config, name)) is int and getattr(config, name) == 7
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
        SimConfig(r=0.1, photons=MAX_PHOTONS)
        with pytest.raises(ValueError, match="is above the limit 1e\\+100"):
            SimConfig(r=0.1, photons=np.nextafter(MAX_PHOTONS, np.inf))


class TestExactLaw:
    """The sampler's MSE follows its exact law, not only its mean.

    Each error component has variance ``lam = (4N + 2) e^-2r``, and the two
    are independent, so ``n * mse_sum / lam`` is chi-squared with 2n degrees
    of freedom at every n; its upper tail probability is uniform on [0, 1].
    """

    P_MIN = 1e-5  # KS threshold, fixed before the test was first run
    SAMPLES = 20_000

    @staticmethod
    def configs():
        rng = np.random.default_rng(18)
        return [SimConfig(r=rng.uniform(-1.5, 1.5), photons=rng.choice([0.0, 0.1, 0.5, 2.0]),
                          theta_true=tuple(rng.uniform(-1e3, 1e3, 2)),
                          samples=TestExactLaw.SAMPLES, seed=seed)
                for seed in range(400)]

    def test_chi_squared_tails_are_uniform(self):
        from scipy.special import chdtrc
        from scipy.stats import kstest

        configs = self.configs()
        n = self.SAMPLES
        mse = np.array([res.mse_sum for res in run_many(configs)])
        lam = np.array([(4 * c.photons + 2) * math.exp(-2 * c.r) for c in configs])

        def p_value(scale):
            return kstest(chdtrc(2 * n, n * mse / (lam * scale)), "uniform").pvalue

        assert p_value(1.0) >= self.P_MIN
        # the test's power: the same runs reject a reference variance 0.4% off
        assert p_value(1.004) < self.P_MIN
        assert p_value(1 / 1.004) < self.P_MIN


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

    def test_consistent_with_direct_at_matched_shots(self):
        theta = (1.5, -0.5)
        ts = run(SimConfig(r=0.4, photons=0.0, theta_true=theta,
                           samples=100_000, seed=73, mode="two_stage"))
        direct = run(SimConfig(r=0.4, photons=0.0, theta_true=theta,
                               samples=ts.samples, seed=74))
        pooled_sd = np.sqrt(
            dual_homodyne_mse_analytic(0.4, 0.0).value / ts.samples
        )
        diff = ts.bias - direct.bias
        assert np.all(np.abs(diff) < 3 * np.sqrt(2) * pooled_sd)

    def test_deterministic(self):
        config = SimConfig(r=0.2, photons=0.0, theta_true=(1.0, 1.0),
                           samples=10_000, seed=75, mode="two_stage")
        a, b = run(config), run(config)
        assert a.mse_sum == b.mse_sum
        assert np.array_equal(a.bias, b.bias)

    @pytest.mark.parametrize("seed", [1, 2, 17, 39])
    def test_stage_two_is_the_direct_run_on_its_key(self, seed):
        # the outcome covariance does not depend on the displacement, so
        # stage 2 errs exactly as a direct run of its shots on its key, even
        # far from theta = 0, where re-centring rounds at the ulp of theta
        theta = (1000.0, -3.0)
        ts = run(SimConfig(r=0.3, photons=0.1, theta_true=theta, samples=10_000, seed=seed,
                           mode="two_stage"))
        n2 = 10_000 - 100
        direct = run(SimConfig(r=0.3, photons=0.1, theta_true=theta, samples=n2,
                               seed=cvmb.simulate.derive_seed(seed, 1)))
        assert ts.samples == n2
        assert ts.bias.tobytes() == direct.bias.tobytes()
        assert ts.std_error == direct.std_error / n2

    def test_minimum_budget(self):
        # rejected where the config is built, not later inside run()
        with pytest.raises(ValueError, match="at least 4 shots"):
            SimConfig(r=0.1, photons=0.0, samples=3, seed=1, mode="two_stage")
        res = run(SimConfig(r=0.1, photons=0.0, samples=4, seed=1, mode="two_stage"))
        assert res.samples == 2

    def test_draws_only_stage_two(self, monkeypatch):
        # stage 1 changes no reported number, so its isqrt(n) = 100 shots are not drawn
        drawn = []
        shot_normals = cvmb.simulate._shot_normals

        def counting_normals(key, start, count):
            drawn.append(count)
            return shot_normals(key, start, count)

        monkeypatch.setattr(cvmb.simulate, "_shot_normals", counting_normals)
        res = run(SimConfig(r=0.2, photons=0.1, theta_true=(1.0, -1.0), samples=10_000, seed=3,
                            mode="two_stage"))
        assert sum(drawn) == res.samples == 9_900

    def test_builds_one_outcome_model(self, monkeypatch):
        calls = []
        model = cvmb.simulate.outcome_distribution

        def counting_model(*args):
            calls.append(args)
            return model(*args)

        monkeypatch.setattr(cvmb.simulate, "outcome_distribution", counting_model)
        run(SimConfig(r=0.3, photons=0.1, theta_true=(1.0, -2.0), samples=1_000, seed=2,
                      mode="two_stage"))
        assert calls == [(0.3, 0.1, (1.0, -2.0))]


class TestWorkerCount:
    """Results must not depend on how many threads share the batches."""

    CONFIG = SimConfig(r=0.3, photons=0.2, theta_true=(0.5, -1.0), samples=100_003, seed=99)
    BATCH = 4096  # 25 batches, the last one partial

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(cvmb.simulate, "BATCH_SIZE", self.BATCH)

    @staticmethod
    def force_workers(monkeypatch, n):
        monkeypatch.setattr(cvmb.simulate, "_usable_cpus", lambda: n)

    @staticmethod
    def fields(res):
        return [np.asarray(getattr(res, f.name)) for f in dataclasses.fields(res)
                if getattr(res, f.name) is not None]

    def test_cpu_count_without_affinity(self, monkeypatch):
        # platforms without sched_getaffinity (macOS, Windows) fall back to the CPU count
        monkeypatch.delattr(cvmb.simulate.os, "sched_getaffinity", raising=False)
        assert cvmb.simulate._usable_cpus() == (cvmb.simulate.os.cpu_count() or 1)

    @pytest.mark.parametrize("case", ["direct", "two_stage"])
    def test_bitwise_equal_for_any_worker_count(self, monkeypatch, case):
        config = dataclasses.replace(self.CONFIG, mode=case)
        starters = []  # the module that started each thread
        start = threading.Thread.start

        def counting_start(thread):
            starters.append(sys._getframe(1).f_globals["__name__"])
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        results, starts = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for n in (1, 2, 8):  # 8 is more workers than most hosts have cores
                self.force_workers(monkeypatch, n)
                before = len(starters)
                results.append(self.fields(run(config)))
                starts.append(len(starters) - before)
        finally:
            sys.setswitchinterval(interval)
        # W - 1 threads beside the calling one: two-stage draws only its 25 stage-2 batches
        assert starts == [0, 1, 7]
        assert set(starters) == {"cvmb.simulate"}
        for other in results[1:]:
            assert len(other) == len(results[0])
            for a, b in zip(results[0], other):
                assert a.tobytes() == b.tobytes()

    # a mix for one queue: direct and two-stage, nonzero theta_true and N,
    # seed 99 three times, and last batches of one shot (8193 = 2 * 4096 + 1,
    # two-stage 8284 = 91 + 8193, and a one-shot config)
    MIX = (
        CONFIG,
        dataclasses.replace(CONFIG, mode="two_stage"),
        SimConfig(r=0.8, photons=0.5, samples=8_193, seed=99),
        SimConfig(r=0.1, photons=0.1, theta_true=(1.0, -2.0), samples=8_284, seed=7,
                  mode="two_stage"),
        SimConfig(r=0.4, photons=0.0, samples=1, seed=5),
    )

    def test_run_many_equals_separate_runs(self, monkeypatch):
        self.force_workers(monkeypatch, 1)
        expected = [self.fields(run(config)) for config in self.MIX]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for n in (1, 2, 8):
                self.force_workers(monkeypatch, n)
                got = [self.fields(res) for res in run_many(self.MIX)]
                assert len(got) == len(expected)
                for g, e in zip(got, expected):
                    assert len(g) == len(e)
                    for a, b in zip(g, e):
                        assert a.tobytes() == b.tobytes(), n
        finally:
            sys.setswitchinterval(interval)

    def test_run_many_samples_in_one_call(self, monkeypatch):
        calls = []
        accumulate = cvmb.simulate._accumulate

        def counting_accumulate(jobs):
            calls.append(len(jobs))
            return accumulate(jobs)

        monkeypatch.setattr(cvmb.simulate, "_accumulate", counting_accumulate)
        run_many(self.MIX)
        # one job per config, a two-stage config's being its stage 2
        assert calls == [5]

    def test_run_many_of_nothing(self):
        assert run_many([]) == []

    def test_run_many_reads_an_iterable_once(self):
        configs = [SimConfig(r=0.1, photons=0.0, samples=10, seed=s) for s in range(3)]
        expected = [self.fields(res) for res in run_many(configs)]
        for got in (run_many(config for config in configs), run_many(iter(configs))):
            got = [self.fields(res) for res in got]
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                for a, b in zip(g, e):
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [2, 8])
    def test_out_of_order_completion_across_jobs(self, monkeypatch, n):
        # the first batch of the first config finishes after every batch of
        # the second: each config's sums must still be combined in its own order
        configs = [self.CONFIG, dataclasses.replace(self.CONFIG, seed=100)]
        expected = [self.fields(run(config)) for config in configs]
        total = 2 * 25
        first = cvmb.simulate._shot_normals(self.CONFIG.seed, 0, self.BATCH)
        kernel = cvmb.simulate.accumulate_affine_moments
        finished = []

        def last_first_batch(z, a, c, **kwargs):
            is_first = np.array_equal(z, first)
            deadline = time.monotonic() + 10
            while is_first and len(finished) < total - 1 and time.monotonic() < deadline:
                time.sleep(1e-3)
            result = kernel(z, a, c, **kwargs)
            finished.append(is_first)
            return result

        monkeypatch.setattr(cvmb.simulate, "accumulate_affine_moments", last_first_batch)
        self.force_workers(monkeypatch, n)
        got = [self.fields(res) for res in run_many(configs)]
        assert finished.index(True) == total - 1, "the first batch should finish last"
        for g, e in zip(got, expected):
            for a, b in zip(g, e):
                assert a.tobytes() == b.tobytes()

    def test_sweep_csv_equal_for_any_worker_count(self, monkeypatch):
        spec = cli.SweepSpec(r_steps=3, samples=10_001, seed=3)
        csv = []
        for n in (1, 8):
            self.force_workers(monkeypatch, n)
            csv.append(cli.rows_to_csv(cli.sweep_rows(spec)))
        assert csv[0] == csv[1]

    def test_single_batch_starts_no_thread(self, monkeypatch):
        def no_start(thread):
            raise AssertionError("shots that fit in a single batch must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        self.force_workers(monkeypatch, 8)
        before = threading.active_count()
        # one job of a full batch; a two-stage run, which draws only its
        # 4032 stage-2 shots; then two half-batch configs, whose shots fit in
        # one batch between them
        run(dataclasses.replace(self.CONFIG, samples=self.BATCH))
        run(dataclasses.replace(self.CONFIG, samples=self.BATCH, mode="two_stage"))
        run_many([dataclasses.replace(self.CONFIG, samples=self.BATCH // 2, seed=seed)
                  for seed in (1, 2)])
        assert threading.active_count() == before

    def test_out_of_order_completion(self, monkeypatch):
        # batch 0 finishes last: its sums must still be combined first
        first = cvmb.simulate._shot_normals(self.CONFIG.seed, 0, self.BATCH)
        kernel = cvmb.simulate.accumulate_affine_moments
        finished = []

        def slow_first_batch(z, a, c, **kwargs):
            is_first = np.array_equal(z, first)
            if is_first:
                time.sleep(0.05)
            result = kernel(z, a, c, **kwargs)
            finished.append(is_first)
            return result

        monkeypatch.setattr(cvmb.simulate, "accumulate_affine_moments", slow_first_batch)
        results = []
        for n in (1, 2, 8):
            self.force_workers(monkeypatch, n)
            finished.clear()
            results.append(self.fields(run(self.CONFIG)))
            assert finished.count(True) == 1
            assert finished[0] == (n == 1), "batch 0 should finish first only on one worker"
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert a.tobytes() == b.tobytes()

    def test_draws_are_not_recycled(self, monkeypatch):
        # a traced run keeps the first batch's draws to re-check the kernel
        # after the pass, so no later batch may overwrite them
        kernel = cvmb.simulate.accumulate_affine_moments
        seen = []

        def recording_kernel(z, a, c, **kwargs):
            seen.append((z, z.copy()))
            return kernel(z, a, c, **kwargs)

        monkeypatch.setattr(cvmb.simulate, "accumulate_affine_moments", recording_kernel)
        self.force_workers(monkeypatch, 2)
        run(self.CONFIG)
        assert len(seen) == 25
        for z, copy in seen:
            assert np.array_equal(z, copy)

    def test_worker_error_propagates(self, monkeypatch):
        raised = threading.Event()

        def failing_kernel(z, a, c, scratch):
            if threading.current_thread() is not threading.main_thread():
                raised.set()
                raise FloatingPointError("worker failed")
            # batches are handed out on demand, so the calling thread could
            # take them all: it waits until a pool thread has raised
            raised.wait(timeout=10)
            return (0.0,) * 6

        monkeypatch.setattr(cvmb.simulate, "accumulate_affine_moments", failing_kernel)
        self.force_workers(monkeypatch, 2)
        with pytest.raises(FloatingPointError, match="worker failed"):
            run(self.CONFIG)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("error", [FloatingPointError, KeyboardInterrupt])
    def test_first_error_stops_the_queue(self, monkeypatch, error, n):
        # a FloatingPointError in a worker thread, or a KeyboardInterrupt in
        # the calling thread, while the other workers hold a batch each: the
        # error reaches the caller, and after it each other worker may finish
        # only the batch it holds (its draw may start after the error), so no
        # more than n - 1 of the 25 batches are drawn after the error
        in_caller = error is KeyboardInterrupt
        failed, held = threading.Event(), threading.Event()
        drawn_after = []
        draw = cvmb.simulate._shot_normals
        kernel = cvmb.simulate.accumulate_affine_moments

        def counting_draw(key, start, count):
            if failed.is_set():
                drawn_after.append(start)
            return draw(key, start, count)

        def failing_kernel(z, a, c, **kwargs):
            if (threading.current_thread() is threading.main_thread()) == in_caller:
                if in_caller:
                    held.wait(timeout=10)  # until a worker thread holds a batch
                if not failed.is_set():
                    failed.set()
                    raise error("worker failed")
            else:
                held.set()
                failed.wait(timeout=10)
            return kernel(z, a, c, **kwargs)

        monkeypatch.setattr(cvmb.simulate, "_shot_normals", counting_draw)
        monkeypatch.setattr(cvmb.simulate, "accumulate_affine_moments", failing_kernel)
        self.force_workers(monkeypatch, n)
        before = threading.active_count()
        with pytest.raises(error, match="worker failed"):
            run(self.CONFIG)
        assert failed.is_set()
        assert len(drawn_after) <= n - 1, f"batches drawn after the error: {drawn_after}"
        assert threading.active_count() == before

    def test_failed_thread_start_stops_the_queue(self, monkeypatch):
        # the second of three thread starts fails: the thread already started
        # finishes the batch it holds, and the start's error reaches the caller
        start, draw = threading.Thread.start, cvmb.simulate._shot_normals
        kernel = cvmb.simulate.accumulate_affine_moments
        refused = threading.Event()
        starts, drawn_after = [], []

        def refusing_start(thread):
            starts.append(thread)
            if len(starts) == 2:
                refused.set()
                raise RuntimeError("can't start new thread")
            start(thread)

        def counting_draw(key, start, count):
            if refused.is_set():
                drawn_after.append(start)
            return draw(key, start, count)

        def waiting_kernel(z, a, c, **kwargs):
            refused.wait(timeout=10)
            return kernel(z, a, c, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", refusing_start)
        monkeypatch.setattr(cvmb.simulate, "_shot_normals", counting_draw)
        monkeypatch.setattr(cvmb.simulate, "accumulate_affine_moments", waiting_kernel)
        self.force_workers(monkeypatch, 4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run(self.CONFIG)
        assert len(drawn_after) <= 1, f"batches drawn after the error: {drawn_after}"
        assert threading.active_count() == before

    def test_memory_does_not_grow_with_batch_count(self, monkeypatch):
        # 20,000 batches on 2 workers: the sums held while they run must not
        # grow with the batch count (each stubbed batch returns a fresh tuple)
        import numpy.random  # noqa: F401  (loaded before tracing starts)
        import scipy.special  # noqa: F401

        monkeypatch.setattr(cvmb.simulate, "BATCH_SIZE", 2)
        monkeypatch.setattr(cvmb.simulate, "_shot_normals", lambda key, start, count: None)
        monkeypatch.setattr(cvmb.simulate, "accumulate_affine_moments",
                            lambda z, a, c, scratch: tuple([1.0] * 6))
        self.force_workers(monkeypatch, 2)
        tracemalloc.start()
        try:
            totals = cvmb.simulate._accumulate([(0, 40_000, None, None)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert totals == [[20_000.0] * 6]
        assert peak < 0.5e6, f"tracemalloc peak {peak} bytes"
