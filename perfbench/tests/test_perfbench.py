"""Tests of the benchmark's own arithmetic and contract.

Run from the repository root:  python3 -m pytest perfbench/tests
They need neither cvmb nor a measurement run.
"""

import json
import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TestSelfTime:
    def test_synthetic_span_tree(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 3.0, 6.0, 0],   # overlaps b: the union counts once
            ["d", 1.5, 2.0, 1],
            ["e", 12.0, 13.0, -1],
            ["f", 12.5, 14.0, 4],  # runs past its parent: clipped
        ]
        stats, root_s = tracing.span_stats(spans)
        assert stats["a"]["self_s"] == pytest.approx(10.0 - 5.0)
        assert stats["b"]["self_s"] == pytest.approx(3.0 - 0.5)
        assert stats["c"]["self_s"] == pytest.approx(3.0)
        assert stats["d"]["self_s"] == pytest.approx(0.5)
        assert stats["e"]["self_s"] == pytest.approx(0.5)
        assert stats["a"]["total_s"] == pytest.approx(10.0)
        assert root_s == pytest.approx(11.0)

    def test_calls_and_totals_add_up_per_name(self):
        spans = [["x", 0.0, 1.0, -1], ["y", 0.2, 0.4, 0], ["y", 0.5, 0.9, 0]]
        stats, _ = tracing.span_stats(spans)
        assert stats["y"] == {"calls": 2, "total_s": pytest.approx(0.6), "self_s": pytest.approx(0.6)}
        assert stats["x"]["self_s"] == pytest.approx(0.4)

    def test_covered_union(self):
        assert tracing.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
        assert tracing.covered([(0, 1), (0.5, 2)], lo=0.5, hi=1.5) == pytest.approx(1.0)
        assert tracing.covered([]) == 0.0


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "class Acc:\n    def add(self, v):\n        return v\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


class TestTracer:
    def test_wrapped_globals_nest(self, fake_module):
        tracer = tracing.Tracer()
        assert tracer.wrap("perfbench_fake:inner", "inner")
        assert tracer.wrap("perfbench_fake:outer", "outer")
        assert tracer.wrap("perfbench_fake:Acc.add", "add")
        assert fake_module.outer(1) == 4
        assert fake_module.Acc().add(3) == 3
        names = [(s[0], s[3]) for s in tracer.spans]
        assert names == [("outer", -1), ("inner", 0), ("add", -1)]

    def test_absent_names_are_reported_not_raised(self):
        tracer = tracing.Tracer()
        assert not tracer.wrap("perfbench_no_such_module:f", "x")
        assert not tracer.wrap("json:no_such_function", "x")
        tracer._install_group("gaussian", ("perfbench_no_such_module",), lambda a, o: True)
        assert tracer.missing == {"gaussian": "gaussian functions in perfbench_no_such_module"}

    def test_missing_layer_reported_missing_not_failed(self):
        bench = run.Bench("simulate-sweep", 0, 1.0, True)
        summary = {"spans": {"kernels": {"calls": 2, "total_s": 0.5, "self_s": 0.5}},
                   "counters": {"kernels.shots": 1000},
                   "missing": {"simulate.draws": "cvmb.simulate:_shot_normals"}}
        bench.traced = [{"wall_s": 2.0, "summaries": [summary], "imports": [{"cvmb": 0.9}],
                         "unattributed_s": 0.1}]
        bench.untraced = [{"wall_s": 1.9, "latencies": [1.9], "cpu_s": 1.8}]
        bench.attempted = 1
        metrics, missing = bench.per_layer()
        assert metrics["simulate.draws_s"] == {"value": None, "unit": "s",
                                               "missing": "cvmb.simulate:_shot_normals"}
        assert metrics["kernels.mshots_per_s"]["value"] == pytest.approx(1000 / 0.5 / 1e6)
        assert metrics["import.cvmb_s"]["value"] == 0.9
        assert metrics["traced.overhead_s"]["value"] == pytest.approx(0.1)
        assert bench.failed == 0

    def test_kernel_check_against_fsum(self):
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(3)
        z, a, c = rng.standard_normal((1000, 2)), rng.standard_normal((2, 2)), rng.standard_normal(2)
        e = z @ a.T + c
        e1, e2 = e[:, 0], e[:, 1]
        sq = e1 * e1 + e2 * e2
        exact = [math.fsum(t.tolist()) for t in (e1, e2, e1 * e1, e2 * e2, e1 * e2, sq * sq)]
        assert tracing.kernel_check(z, a, c, exact)["rel_err"] <= 1e-15
        skewed = exact[:5] + [exact[5] * (1 + 1e-9)]
        assert tracing.kernel_check(z, a, c, skewed)["rel_err"] > workloads.KERNEL_RTOL


class TestTailPercentile:
    @pytest.mark.parametrize("n, percentile", [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                                               (199, 90.0), (200, 95.0), (1000, 99.0),
                                               (10000, 99.9), (100000, 99.99)])
    def test_highest_percentile_with_ten_beyond(self, n, percentile):
        samples = list(range(n, 0, -1))
        p, value = run.tail_percentile(samples)
        assert p == percentile
        assert sum(1 for x in samples if x > value) >= 10

    def test_too_few_samples(self):
        assert run.tail_percentile(range(19)) is None
        assert run.tail_percentile([]) is None


class TestEndToEnd:
    def test_wall_is_the_mean_pass_and_failed_passes_are_left_out(self):
        bench = run.Bench("bounds-crosscheck", 0, 1.0, False)
        bench.untraced = [{"wall_s": w, "latencies": [w / 2, w / 2], "cpu_s": w}
                          for w in (1.0, 1.0, 4.0)] + [None]
        bench.setup = [0.5, 0.75, 0.6]
        e2e = bench.end_to_end()
        assert e2e["wall_s"]["value"] == pytest.approx(2.0)
        assert e2e["wall_s"]["median_pass_s"] == 1.0
        assert e2e["wall_s"]["samples"] == 3
        assert e2e["setup_s"]["value"] == 0.6


class TestSeed:
    def test_round_trip(self):
        big = 2 ** 70 + 5
        args = run.parse_args(["--workload", "simulate-sweep", "--seed", str(big),
                               "--seconds", "10", "--trace", "0"])
        assert args.seed == big
        argv = workloads.cli_invocations(args.workload, args.seed)[0].argv("out")
        assert argv[argv.index("--seed") + 1] == str(big % 2 ** 64)

    @pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
    def test_same_seed_same_inputs(self, workload):
        make = (workloads.cli_invocations if workload in workloads.CLI_WORKLOADS
                else workloads.lib_inputs)
        assert make(workload, 7) == make(workload, 7)

    @pytest.mark.parametrize("workload", ("simulate-sweep", "simulate-many-small",
                                          "bounds-crosscheck"))
    def test_other_seed_other_inputs(self, workload):
        make = (workloads.cli_invocations if workload in workloads.CLI_WORKLOADS
                else workloads.lib_inputs)
        assert make(workload, 7) != make(workload, 8)

    def test_many_small_configs_cover_the_grid(self):
        configs = workloads.many_small_configs(3)
        assert len(configs) == workloads.MANY_SMALL_CONFIGS
        assert sum(c["mode"] == "two_stage" for c in configs) == len(configs) // 2
        assert {c["photons"] for c in configs} == set(workloads.PHOTON_GRID)
        assert all(0 <= c["r"] <= workloads.R_MAX and all(c["theta_true"]) for c in configs)


class TestChecks:
    def test_closed_forms_known_values(self):
        c_s, c_r, c_h, v_dh = workloads.closed_forms(0.0, 0.1, "two_mode")
        assert (c_s, c_h) == (pytest.approx(2.4), None)
        assert c_r == pytest.approx(4.4, rel=1e-14)
        assert v_dh == pytest.approx(4.8)
        assert workloads.closed_forms(0.5, 0.0, "two_mode")[2] == pytest.approx(4 * math.exp(-1))

    def test_pooled_z_passes_exact_and_fails_biased_results(self):
        configs = workloads.many_small_configs(1)[:400]
        exact = [{"mse_sum": self._expected(c), "std_error": 0.01} for c in configs]
        assert workloads.check_many_small(configs, exact) == {}
        biased = [{"mse_sum": v["mse_sum"] * 1.01, "std_error": 0.01} for v in exact]
        assert len(workloads.check_many_small(configs, biased)) == len(configs)

    @staticmethod
    def _expected(cfg):
        v = workloads.closed_forms(cfg["r"], cfg["photons"], "two_mode")[3]
        if cfg["mode"] == "two_stage":
            return v / (cfg["samples"] - math.isqrt(cfg["samples"]))
        return v

    def test_parse_importtime(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:      2715 |     172509 |       numpy\n"
                "import time:       872 |     955452 |   cvmb\n"
                "import time:      8787 |     964238 | cvmb.cli\n"
                "import time:        10 |         10 | json\n"
                "some other stderr line\n")
        modules, top = tracing.parse_importtime(text)
        assert modules["cvmb"] == pytest.approx(0.955452)
        assert modules["numpy"] == pytest.approx(0.172509)
        assert top == pytest.approx(0.964248)


class TestContract:
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        assert max(m["bound"] for m in spec["end_to_end"]) == next(
            m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")

    def test_refuses_a_tree_without_the_package(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(run, "ROOT", str(tmp_path))
        assert run.main(["--workload", "simulate-sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0"]) == 2
        assert capsys.readouterr().out == ""
