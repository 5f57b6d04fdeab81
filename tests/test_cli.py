import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cvmb
from cvmb import cli, holevo
from cvmb.bounds import closed_form_bounds
from cvmb.inputs import MAX_R_STEPS, MAX_SAMPLES


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestBoundsCommand:
    def test_schema_and_values(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = cli.main(["bounds", "--photons", "0.1", "--r-steps", "16",
                       "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert ",".join(header) == cli.CSV_HEADER
        assert len(rows) == 16
        first = rows[0]
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(2.4, abs=1e-12)
        assert float(first[3]) == pytest.approx(4.4, abs=1e-12)
        # Holevo column empty for the mixed two-mode probe
        assert first[4] == ""
        # simulation columns empty without --samples
        assert first[6] == "" and first[7] == ""

    def test_pure_two_mode_holevo_equals_dual_homodyne(self, tmp_path):
        written = {}
        for r in ("0.5", "0", "-0"):
            out = tmp_path / f"pure{r}.csv"
            assert cli.main(["bounds", f"--r-min={r}", "--r-max", "0.5",
                             "--r-steps", "1", "--out", str(out)]) == 0
            _, rows = read_rows(out)
            c_h, v_dh = float(rows[0][4]), float(rows[0][5])
            assert abs(c_h - v_dh) < 1e-9
            assert abs(c_h - 4 * np.exp(-2 * float(r))) < 1e-12
            written[r] = out.read_bytes()
        # a one-step grid writes -0 as 0, as a grid of more steps does
        assert written["-0"] == written["0"]

    def test_pure_two_mode_holevo_at_negative_r(self, tmp_path):
        out = tmp_path / "negative.csv"
        assert cli.main(["bounds", "--r-min", "-1", "--r-max", "0", "--r-steps", "3",
                         "--out", str(out)]) == 0
        _, rows = read_rows(out)
        for row, r in zip(rows, (-1.0, -0.5, 0.0)):
            c_s, c_r, c_h, v_dh = (float(v) for v in row[2:6])
            assert float(row[0]) == r
            assert c_h == pytest.approx(4 * np.exp(2 * r), rel=1e-12)
            assert c_h >= max(c_s, c_r)
            # the Q/P dual homodyne is not optimal at r < 0
            assert v_dh == pytest.approx(4 * np.exp(-2 * r), rel=1e-12)
        assert rows[0][4] == f"{4 * np.exp(-2.0):.12e}"

    def test_single_probe_column_values(self, tmp_path):
        out = tmp_path / "single.csv"
        assert cli.main(["bounds", "--probe", "single", "--photons", "0.2",
                         "--r-min", "1.0", "--r-max", "1.0", "--r-steps", "1",
                         "--out", str(out)]) == 0
        _, rows = read_rows(out)
        c_r = closed_form_bounds(1.0, 0.2, "single")[1]
        assert float(rows[0][3]) == pytest.approx(c_r, rel=1e-12)
        # mixed single-mode Holevo column carries the attained RLD value
        assert float(rows[0][4]) == pytest.approx(c_r, rel=1e-12)
        assert float(rows[0][5]) == pytest.approx(c_r, rel=1e-12)

    def test_single_pure_rld_equals_holevo(self, tmp_path):
        out = tmp_path / "sp.csv"
        assert cli.main(["bounds", "--probe", "single", "--r-min", "1.0",
                         "--r-max", "1.0", "--r-steps", "1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        expected = 2 + 2 * np.cosh(2.0)
        assert float(rows[0][3]) == pytest.approx(expected, rel=1e-12)
        assert float(rows[0][4]) == pytest.approx(expected, rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["bounds", "--photons", "0.1", "--r-steps", "8", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args, digest", [
        ([], "3daf50e43be6932edca92a809853975650d7af23047e54bf11668082b0834869"),
        (["--photons", "0.5"], "f8ad877dc3460e84fd79176294c9438390736b17c35d80202883582d0b561aa9"),
        (["--probe", "single", "--photons", "0.1"],
         "a3a54c2c98704c18aa434def322b84e63541bcc91859c66f8c3c639d6c4ad02d"),
    ], ids=["default", "photons-0.5", "single"])
    def test_output_pinned_across_versions(self, tmp_path, args, digest):
        # digests of the closed-form columns, so a change in their arithmetic
        # shows.  NumPy 2.4 on x86-64 Linux; another libm may round cosh and
        # exp differently.
        out = tmp_path / "pin.csv"
        assert cli.main(["bounds", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("probe", ["single", "two_mode"])
    @pytest.mark.parametrize("photons", [0.0, 0.1, 0.5])
    def test_row_invariants(self, probe, photons):
        spec = cli.SweepSpec(photons=photons, probe=probe, r_steps=16)
        for row in cli.sweep_rows(spec):
            values = [row.c_s, row.c_r, row.v_dh]
            if row.c_h is not None:
                values.append(row.c_h)
                assert row.c_h >= max(row.c_s, row.c_r) - 1e-8
            for value in values:
                assert np.isfinite(value) and value >= 0.0


class TestSimulateCommand:
    def test_small_run_passes_gate(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = cli.main(["simulate", "--r-steps", "2", "--samples", "20000",
                       "--seed", "5", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        for row in rows:
            emp, se = float(row[6]), float(row[7])
            assert abs(emp - float(row[5])) <= 4 * se

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--r-steps", "2", "--samples", "5000", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_pinned_across_versions(self, tmp_path):
        # digest of the single-threaded sampler's output, so a change in
        # how batches are split or combined shows; seven batches per row, the
        # last one partial.  NumPy 2.4 / SciPy 1.17 on x86-64 Linux; another
        # libm may round ndtri differently.
        out = tmp_path / "pin.csv"
        assert cli.main(["simulate", "--samples", "200000", "--r-steps", "4",
                         "--seed", "7", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "1f86d9d2ad993181e3102c5045c06996dda514254d6d3f39a3361288fd0caacb"

    def test_requires_samples(self):
        assert cli.main(["simulate", "--samples", "0"]) == cli.USAGE_ERROR

    def test_single_sample_passes_trivially(self, tmp_path):
        # one shot has an infinite standard error, but the gate reads the
        # exact law: 2 V_DH_emp / V_DH is chi-squared with 2 degrees of
        # freedom, so one shot fails below 3.17e-5 V_DH and above 10.36 V_DH
        out = tmp_path / "one.csv"
        rc = cli.main(["simulate", "--r-steps", "2", "--samples", "1",
                       "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert all(row[7] == "inf" for row in rows)
        rows = [cli.BoundSweepRow(0.0, 0.0, 2.0, 0.0, 4.0, 4.0, 4.0 * ratio, math.inf)
                for ratio in (3.1e-5, 3.2e-5, 10.3, 10.4)]
        assert [row for row, _, _ in cli.gate_failures(rows, 1)] == [rows[0], rows[3]]

    def test_rejects_single_probe(self):
        assert cli.main(["simulate", "--probe", "single", "--samples", "100"]) \
            == cli.USAGE_ERROR

    def test_sweep_rows_rejects_sampling_the_single_probe(self, monkeypatch):
        # the sampler draws the two-mode dual homodyne, so its MSE would sit
        # beside the single-mode V_DH of the same row
        spec = cli.SweepSpec(probe="single", samples=2000, r_steps=3, r_max=1.0)
        assert len(cli.sweep_rows(replace(spec, samples=0))) == 3

        def no_run(configs):
            raise AssertionError(f"{len(configs)} rows sampled")

        monkeypatch.setattr(cli, "run_many", no_run)
        with pytest.raises(ValueError, match="simulate models the two-mode dual homodyne"):
            cli.sweep_rows(spec)

    def test_gate_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # force a failing row through the gate machinery; the gate reads the
        # shot count from --samples
        bad_row = cli.BoundSweepRow(r=0.0, photons=0.0, c_s=2.0, c_r=0.0,
                                    c_h=4.0, v_dh=4.0, v_dh_emp=4.4, v_dh_se=0.04)
        monkeypatch.setattr(cli, "sweep_rows", lambda spec: [bad_row])
        out = tmp_path / "gate.csv"
        rc = cli.main(["simulate", "--samples", "10000", "--out", str(out)])
        assert rc == cli.GATE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out.read_text() == cli.rows_to_csv([bad_row])
        # z = (4.4 - 4) / 0.04 and the chi-squared tail P(X >= 22000) at
        # 20000 degrees of freedom, next to the gate it failed
        assert "gate failure at r=0: empirical 4.400000e+00 vs analytic 4.000000e+00 " \
               "(se 4.000e-02, z = +10.00, tail p = 1.693e-22, gate p >= 3.167e-05)" \
               in captured.err

    def test_gate_failures_logic(self):
        good = cli.BoundSweepRow(0.0, 0.0, 1.0, 1.0, None, 4.0, 4.001, 0.01)
        bad = cli.BoundSweepRow(0.0, 0.0, 1.0, 1.0, None, 4.0, 4.5, 0.01)
        no_sim = cli.BoundSweepRow(0.0, 0.0, 1.0, 1.0, None, 4.0)
        [(row, z, tail)] = cli.gate_failures([good, bad, no_sim], 10000)
        assert row is bad
        assert z == pytest.approx(50.0)
        assert 0.0 < tail < 1e-30

    @pytest.mark.parametrize("samples, low, high", [
        (20, 0.34137987187115526, 2.153262063871379),
        (1000000, 0.9960049989989328, 1.0040050009989339),
    ])
    def test_gate_band_is_the_exact_law(self, samples, low, high):
        # the band of V_DH_emp / V_DH that passes: the chi-squared quantiles
        # at erfc(4 / sqrt(2)) / 2 per side; the 4-SE gate's 1 -+ 4 / sqrt(n)
        # was [0.106, 1.894] at n = 20 and [0.996, 1.004] at n = 1M
        ratios = [low * (1 - 1e-9), low * (1 + 1e-9), high * (1 - 1e-9), high * (1 + 1e-9)]
        rows = [cli.BoundSweepRow(0.0, 0.0, 2.0, 0.0, 4.0, 4.0, 4.0 * ratio, 1.0)
                for ratio in ratios]
        assert [row for row, _, _ in cli.gate_failures(rows, samples)] == [rows[0], rows[3]]

    def test_small_shot_count_passes_on_correct_code(self, tmp_path):
        # the 4-SE gate failed this run at r = 1.1 (z = -6.98): it divided by
        # a standard error estimated from the same 20 shots, so a low MSE
        # came with a low SE.  Its exact lower tail is 7.7e-4, inside the band
        out = tmp_path / "seed13.csv"
        assert cli.main(["simulate", "--samples", "20", "--seed", "13",
                         "--out", str(out)]) == 0
        _, rows = read_rows(out)
        row = next(row for row in rows if float(row[0]) == pytest.approx(1.1))
        assert (float(row[6]) - float(row[5])) / float(row[7]) == pytest.approx(-6.98, abs=5e-3)

    def test_row_far_outside_the_band_fails(self, tmp_path, monkeypatch):
        far = cli.BoundSweepRow(r=0.5, photons=0.0, c_s=2.0, c_r=0.0, c_h=4.0, v_dh=4.0,
                                v_dh_emp=4.0 * 0.05, v_dh_se=0.5)
        monkeypatch.setattr(cli, "sweep_rows", lambda spec: [far])
        out = tmp_path / "far.csv"
        assert cli.main(["simulate", "--samples", "20", "--out", str(out)]) == cli.GATE_ERROR


class TestModuleEntry:
    """``python -m cvmb.cli``, the entry the benchmark starts, run in a fresh process."""

    @staticmethod
    def run_module(*args):
        src = str(Path(cvmb.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "cvmb.cli", *args], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=60)

    def test_bounds_output_equals_in_process(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--r-steps", "2", "--out", str(out)]) == 0
        proc = self.run_module("bounds", "--r-steps", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()

    def test_usage_error_exits_1_without_traceback(self):
        proc = self.run_module("bounds", "--photons", "nan")
        assert proc.returncode == cli.USAGE_ERROR
        assert b"cvmb: error:" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_console_main_freezes_then_exits_with_main_code(self, monkeypatch, capsys):
        # in-process, with the freeze stubbed so the test run's collector keeps working
        frozen = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
        monkeypatch.setattr(sys, "argv", ["cvmb", "bounds", "--photons", "nan"])
        with pytest.raises(SystemExit) as exc:
            cli.console_main()
        assert exc.value.code == cli.USAGE_ERROR
        assert frozen == [True]
        assert "cvmb: error:" in capsys.readouterr().err

class TestFigure1Command:
    def test_outputs(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert cli.main(["figure1", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["r", "C_S", "C_R", "max_CS_CR", "V_DH"]
        assert len(rows) >= 50
        first = rows[0]
        assert float(first[1]) == pytest.approx(2.4, abs=1e-12)
        assert float(first[2]) == pytest.approx(4.4, abs=1e-12)
        for name in ("sld", "rld", "max", "dh"):
            series = (tmp_path / f"fig_{name}.dat").read_text().strip().split("\n")
            assert len(series) == len(rows)
            assert len(series[0].split()) == 2

    def test_output_pinned_across_versions(self, tmp_path, monkeypatch):
        # digests of the CSV and its four series files, on the same terms as
        # the bounds command's: at a given path, then without --out, at
        # figure1.csv in the working directory
        pinned = {
            ".csv": "209de32acfbe569da10130492d02c847e2d1e0bdba13fefce97eca0ff26ca558",
            "_sld.dat": "b508fa0b07f93d27194041080b9e1f40411b18fcecd43ff253a2259d4fbb4478",
            "_rld.dat": "5518f21e310ba64a157f19e7bd67db7d5b9428cc4a156902ad1bbbf145d7b134",
            "_max.dat": "d7c70afdd4d4e71cb32ce3954d91e1d89e9de925aa35ef7e5c3924e3a9c46bc0",
            "_dh.dat": "5eb089fc2ad337a7d570f870ea09ff5d76a0a4d508ce1b493a87a14c1b804ba3",
        }
        given, default = tmp_path / "given", tmp_path / "default"
        given.mkdir()
        default.mkdir()
        monkeypatch.chdir(default)
        for folder, stem, args in ((given, "fig", ["--out", str(given / "fig.csv")]),
                                   (default, "figure1", [])):
            assert cli.main(["figure1", *args]) == 0
            digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in folder.iterdir()}
            assert digests == {stem + suffix: digest for suffix, digest in pinned.items()}

    def test_series_values_match_closed_forms(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert cli.main(["figure1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        for row in rows:
            r = float(row[0])
            c_s, c_r = closed_form_bounds(r, 0.1, "two_mode")
            assert abs(float(row[1]) - c_s) < 1e-9
            assert abs(float(row[2]) - c_r) < 1e-9
            assert abs(float(row[3]) - max(c_s, c_r)) < 1e-9
            assert abs(float(row[4]) - 4.8 * np.exp(-2 * r)) < 1e-9

    def test_rejects_single_probe(self, tmp_path, capsys):
        # the figure is the two-mode series; a single probe is an error, not ignored
        out = tmp_path / "fig.csv"
        assert cli.main(["figure1", "--probe", "single", "--out", str(out)]) \
            == cli.USAGE_ERROR
        assert "--probe" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_dual_homodyne_above_bounds_at_small_r(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert cli.main(["figure1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        small_r = [row for row in rows if 0.1 <= float(row[0]) <= 0.3]
        assert small_r
        for row in small_r:
            assert float(row[4]) > float(row[3])


class TestWithoutHolevoSolver:
    """The pinned outputs of ``cvmb bounds`` and ``cvmb figure1``, with the
    Holevo solver made to raise: the CLI reads C_H from the closed forms."""

    @pytest.fixture(autouse=True)
    def no_solver(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the CLI called the Holevo solver")

        monkeypatch.setattr(holevo, "solve_analytic", fail)
        monkeypatch.setattr(cli, "solve_analytic", fail)

    test_bounds_pinned = TestBoundsCommand.test_output_pinned_across_versions
    test_figure1_pinned = TestFigure1Command.test_output_pinned_across_versions


class TestConfigResolution:
    def test_usage_error_on_bad_grid(self, capsys):
        assert cli.main(["bounds", "--r-min", "2.0", "--r-max", "1.0"]) == cli.USAGE_ERROR
        for flag in ("--r-min", "--r-max", "--photons"):
            for bad in ("nan", "inf", "-inf"):
                assert cli.main(["bounds", f"{flag}={bad}"]) == cli.USAGE_ERROR
                assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        for flag in ("--r-min", "--r-max"):
            for bad in ("400", "-400"):
                assert cli.main(["bounds", f"{flag}={bad}"]) == cli.USAGE_ERROR
                assert f"{flag[2:]} = {bad} is outside |r| <= 354.891" in capsys.readouterr().err
        assert cli.main(["simulate", "--samples", "1000", "--r-min", "5", "--r-max", "5",
                         "--r-steps", "1"]) == cli.USAGE_ERROR
        assert "r = 5 is outside the simulate limit |r| <= 4" in capsys.readouterr().err
        assert cli.main(["bounds", "--photons", "1e307", "--r-steps", "2"]) == cli.USAGE_ERROR
        assert "photons = 1e+307 is above the limit 1e+100" in capsys.readouterr().err
        # (8N + 4) exp(-2r) overflows at negative r first; RuntimeWarnings are errors here
        assert cli.main(["bounds", "--r-min", "-354.8", "--r-max", "0",
                         "--r-steps", "2"]) == cli.USAGE_ERROR
        assert ("r-min = -354.8 is below the limit -354.198, past which (8N + 4) exp(-2r) "
                "at N = 0 overflows") in capsys.readouterr().err

    def test_simulate_limit_checked_before_sampling(self, monkeypatch, capsys):
        def no_run(configs):
            raise AssertionError(f"rows at r = {[config.r for config in configs]} sampled")

        monkeypatch.setattr(cli, "run_many", no_run)
        assert cli.main(["simulate", "--samples", "1000000", "--r-max", "5"]) == cli.USAGE_ERROR
        assert "r = 4.33333 is outside the simulate limit" in capsys.readouterr().err

    def test_count_caps_checked_before_grid_and_sampling(self, monkeypatch, capsys):
        # a count past its cap once allocated a list, or a grid, of that size
        # before the first draw, or overflowed len(range(...)) in the sampler
        def no_grid(spec):
            raise AssertionError(f"grid of {spec.r_steps} rows built")

        def no_run(configs):
            raise AssertionError(f"{len(configs)} rows sampled")

        monkeypatch.setattr(cli.SweepSpec, "r_grid", no_grid)
        monkeypatch.setattr(cli, "run_many", no_run)
        huge = "1" + "0" * 30
        for argv, message in [
            (["simulate", "--samples", str(MAX_SAMPLES + 1), "--r-steps", "1"],
             f"samples = {MAX_SAMPLES + 1} is above the limit {MAX_SAMPLES}"),
            (["simulate", "--samples", huge, "--r-steps", "1"],
             f"samples = {huge} is above the limit {MAX_SAMPLES}"),
            (["bounds", "--r-steps", str(MAX_R_STEPS + 1)],
             f"r-steps = {MAX_R_STEPS + 1} is above the limit {MAX_R_STEPS}"),
            (["bounds", "--r-steps", huge], f"r-steps = {huge} is above the limit {MAX_R_STEPS}"),
        ]:
            assert cli.main(argv) == cli.USAGE_ERROR
            assert capsys.readouterr().err == f"cvmb: error: {message}\n"

    def test_usage_error_on_negative_steps(self):
        assert cli.main(["bounds", "--r-steps", "0"]) == cli.USAGE_ERROR

    def test_integer_settings(self):
        for name, flag in (("r_steps", "r-steps"), ("samples", "samples"), ("seed", "seed")):
            for bad in (True, 1000.5, 1.5, 2.0):
                spec = cli.SweepSpec(**{"samples": 100, name: bad})
                with pytest.raises(ValueError, match=f"{flag} must be an integer"):
                    cli.sweep_rows(spec)
        # NumPy integers are integers: the rows match plain ints bit for bit
        plain = cli.sweep_rows(cli.SweepSpec(r_steps=2, samples=100, seed=5))
        numpy = cli.sweep_rows(cli.SweepSpec(r_steps=np.int64(2), samples=np.int64(100),
                                             seed=np.uint64(5)))
        assert cli.rows_to_csv(numpy) == cli.rows_to_csv(plain)

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("# sweep settings\nphotons = 0.5\nr_steps = 4  # four points\nseed=99\n")
        rc = cli.main(["bounds", "--config", str(cfg), "--photons", "0.25",
                       "--show-config"])
        assert rc == 0
        shown = dict(line.split("=", 1) for line in
                     capsys.readouterr().out.strip().split("\n"))
        assert shown["photons"] == "0.25"   # flag wins
        assert shown["r_steps"] == "4"      # config wins over default
        assert shown["seed"] == "99"

    def test_env_seed_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("CVMB_SEED", "4242")
        assert cli.main(["bounds", "--show-config"]) == 0
        shown = dict(line.split("=", 1) for line in
                     capsys.readouterr().out.strip().split("\n"))
        assert shown["seed"] == "4242"

    def test_flag_beats_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("CVMB_SEED", "4242")
        assert cli.main(["bounds", "--seed", "1", "--show-config"]) == 0
        shown = dict(line.split("=", 1) for line in
                     capsys.readouterr().out.strip().split("\n"))
        assert shown["seed"] == "1"

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # Windows Notepad saves UTF-8 with a byte-order mark; it is not part of the first key
        outputs = []
        for bom in ("", "\ufeff"):
            cfg = tmp_path / "settings.cfg"
            cfg.write_text(f"{bom}seed=5\nr_steps=2\n", encoding="utf-8")
            out = tmp_path / f"sim{len(bom)}.csv"
            assert cli.main(["simulate", "--samples", "100", "--config", str(cfg),
                             "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        # seed=5 was read: another seed gives other bytes
        other = tmp_path / "other.csv"
        assert cli.main(["simulate", "--samples", "100", "--r-steps", "2", "--seed", "6",
                         "--out", str(other)]) == 0
        assert other.read_bytes() != outputs[0]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana=1\n")
        assert cli.main(["bounds", "--config", str(cfg)]) == cli.USAGE_ERROR

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("photons 0.5\n")
        assert cli.main(["bounds", "--config", str(cfg)]) == cli.USAGE_ERROR

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["bounds", "--config", str(tmp_path / "nope.cfg")]) \
            == cli.USAGE_ERROR

    def test_figure1_defaults(self, capsys):
        assert cli.main(["figure1", "--show-config"]) == 0
        shown = dict(line.split("=", 1) for line in
                     capsys.readouterr().out.strip().split("\n"))
        assert shown["photons"] == "0.1"
        assert shown["r_steps"] == "61"
