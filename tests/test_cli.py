import hashlib

import numpy as np
import pytest

from cvmb import cli
from cvmb.bounds import closed_form_bounds


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
        out = tmp_path / "pure.csv"
        assert cli.main(["bounds", "--r-min", "0.5", "--r-max", "0.5",
                         "--r-steps", "1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        c_h, v_dh = float(rows[0][4]), float(rows[0][5])
        assert abs(c_h - v_dh) < 1e-9
        assert abs(c_h - 4 * np.exp(-1.0)) < 1e-12

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
        # how batches are split or combined shows; four batches per row, the
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
        # one shot gives an infinite standard error, so the gate cannot fire
        out = tmp_path / "one.csv"
        rc = cli.main(["simulate", "--r-steps", "2", "--samples", "1",
                       "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert all(row[7] == "inf" for row in rows)

    def test_rejects_single_probe(self):
        assert cli.main(["simulate", "--probe", "single", "--samples", "100"]) \
            == cli.USAGE_ERROR

    def test_gate_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # force a failing row through the gate machinery
        bad_row = cli.BoundSweepRow(r=0.0, photons=0.0, c_s=2.0, c_r=0.0,
                                    c_h=4.0, v_dh=4.0, v_dh_emp=5.0, v_dh_se=1e-6)
        monkeypatch.setattr(cli, "sweep_rows", lambda spec: [bad_row])
        rc = cli.main(["simulate", "--samples", "10", "--out",
                       str(tmp_path / "gate.csv")])
        assert rc == cli.GATE_ERROR
        assert "gate failure" in capsys.readouterr().err

    def test_gate_failures_logic(self):
        good = cli.BoundSweepRow(0.0, 0.0, 1.0, 1.0, None, 4.0, 4.001, 0.01)
        bad = cli.BoundSweepRow(0.0, 0.0, 1.0, 1.0, None, 4.0, 4.5, 0.01)
        no_sim = cli.BoundSweepRow(0.0, 0.0, 1.0, 1.0, None, 4.0)
        assert cli.gate_failures([good, bad, no_sim]) == [bad]


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

    def test_dual_homodyne_above_bounds_at_small_r(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert cli.main(["figure1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        small_r = [row for row in rows if 0.1 <= float(row[0]) <= 0.3]
        assert small_r
        for row in small_r:
            assert float(row[4]) > float(row[3])


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

    def test_usage_error_on_negative_steps(self):
        assert cli.main(["bounds", "--r-steps", "0"]) == cli.USAGE_ERROR

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
