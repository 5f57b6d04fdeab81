"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure) and enforces the stated
tolerance with plain asserts.  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

from cvmb import cli
from cvmb.bounds import (
    DisplacementModel,
    closed_form_bounds,
    rld_bound,
    single_mode_probe,
    sld_bound,
    two_mode_probe,
)
from cvmb.gaussian import (
    apply,
    beam_splitter,
    single_mode_squeezer,
    symplectic_form,
    two_mode_squeezer,
    vacuum,
)
from cvmb.holevo import build_problem, kkt_case_audit, solve_analytic, solve_numeric
from cvmb.simulate import SimConfig, run

R_GRID = np.round(np.arange(0.0, 1.51, 0.1), 10)
N_GRID = (0.0, 0.1, 0.5, 2.0)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, detail


def test_criterion_1_closed_form_agreement():
    """Moment-formula SLD/RLD match the closed forms to 1e-9 in under 1 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for kind, probe in (("single", single_mode_probe), ("two_mode", two_mode_probe)):
        for r in R_GRID:
            for n in N_GRID:
                model = DisplacementModel(probe(r, n))
                c_s, c_r = closed_form_bounds(r, n, kind)
                worst = max(worst, abs(sld_bound(model).value - c_s),
                            abs(rld_bound(model).value - c_r))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-9 and elapsed < 1.0,
           f"max |moment - closed form| = {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_two_mode_holevo_bound():
    """Analytic bound is exactly 4 exp(-2r); numeric agrees to 1e-6 in < 10 s."""
    t0 = time.perf_counter()
    exact_ok = all(
        solve_analytic("two_mode", r).bound == 4.0 * np.exp(-2.0 * r)
        for r in np.arange(0.0, 1.55, 0.05)
    )
    worst = 0.0
    for r in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5):
        sol = solve_numeric(build_problem("two_mode", r))
        worst = max(worst, abs(sol.bound - 4.0 * np.exp(-2.0 * r)))
    elapsed = time.perf_counter() - t0
    report(2, exact_ok and worst < 1e-6 and elapsed < 10.0,
           f"analytic exact = {exact_ok}, max numeric error = {worst:.2e}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_3_single_mode_consistency():
    """Single-mode Holevo equals 2 + 2 cosh 2r and the pure RLD closed form."""
    worst = 0.0
    for r in R_GRID:
        bound = solve_analytic("single", r).bound
        _, c_r = closed_form_bounds(r, 0.0, "single")
        worst = max(worst, abs(bound - (2 + 2 * np.cosh(2 * r))), abs(bound - c_r))
    report(3, worst < 1e-9, f"max deviation = {worst:.2e}")


def test_criterion_4_monte_carlo_tightness():
    """1e6-shot dual homodyne lands within 3 SE of 4 exp(-2r), SE < 1%."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for i, r in enumerate((0.0, 0.5, 1.0)):
        res = run(SimConfig(r=r, photons=0.0, samples=1_000_000, seed=9000 + i))
        target = 4.0 * np.exp(-2.0 * r)
        pulls = abs(res.mse_sum - target) / res.std_error
        rel_se = res.std_error / target
        ok = ok and pulls < 3.0 and rel_se < 0.01
        details.append(f"r={r}: {pulls:.2f} SE off, SE/value={rel_se:.2e}")
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 30.0, "; ".join(details) + f", runtime {elapsed:.1f}s")


def test_criterion_5_figure_series(tmp_path):
    """Figure series equal the closed forms to 1e-9; V_DH above both at r=0.2."""
    out = tmp_path / "figure1.csv"
    rc = cli.main(["figure1", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    worst = 0.0
    for row in rows:
        r = float(row[0])
        c_s, c_r = closed_form_bounds(r, 0.1, "two_mode")
        worst = max(
            worst,
            abs(float(row[1]) - c_s),
            abs(float(row[2]) - c_r),
            abs(float(row[3]) - max(c_s, c_r)),
            abs(float(row[4]) - 4.8 * np.exp(-2 * r)),
        )
    at_02 = min(rows, key=lambda row: abs(float(row[0]) - 0.2))
    gap_ok = float(at_02[4]) > float(at_02[3])
    report(5, rc == 0 and worst < 1e-9 and gap_ok,
           f"max series error = {worst:.2e}, V_DH > max(C_S, C_R) at r=0.2: {gap_ok}")


def test_criterion_6_dominance_and_kkt_audit():
    """C_H dominates C_S, C_R; Re Z is PSD; the KKT case audit holds."""
    ok = True
    details = []
    for r in R_GRID:
        for kind in ("single", "two_mode"):
            sol = solve_analytic(kind, r)
            c_s, c_r = closed_form_bounds(r, 0.0, kind)
            ok = ok and sol.bound >= max(c_s, c_r) - 1e-8
            ok = ok and np.min(np.linalg.eigvalsh(sol.z_matrix.real)) > -1e-12
    for r in (0.25, 0.5, 1.0):
        sol = solve_numeric(build_problem("two_mode", r))
        c_s, c_r = closed_form_bounds(r, 0.0, "two_mode")
        ok = ok and sol.bound >= max(c_s, c_r) - 1e-8
        ok = ok and np.min(np.linalg.eigvalsh(sol.z_matrix.real)) > -1e-12
        audit = kkt_case_audit(r)
        case_ok = (
            audit.case_1a_g < 0
            and abs(audit.case_1a_g + 1 / np.cosh(r) ** 2) < 1e-12
            and audit.case_2_g > 0
            and abs(audit.case_2_g - 1 / np.sinh(r) ** 2) < 1e-12
            and abs(audit.spurious_value - 4 * np.exp(2 * r)) < 1e-10
            and audit.spurious_value > audit.bound
            and audit.spurious_residual < 1e-10
        )
        ok = ok and case_ok
        details.append(f"r={r}: audit {'ok' if case_ok else 'FAILED'}")
    report(6, ok, "; ".join(details))


def test_criterion_7_symplectic_invariants():
    """1000 random compositions keep S Omega S^T = Omega and det cov = 1."""
    rng = np.random.default_rng(77)
    omega = symplectic_form(2)
    worst_symp = 0.0
    worst_det = 0.0
    for _ in range(1000):
        state = vacuum(2)
        total = np.eye(4)
        for _ in range(rng.integers(2, 6)):
            choice = rng.integers(3)
            if choice == 0:
                op = single_mode_squeezer(rng.uniform(-1.5, 1.5),
                                          mode=rng.integers(2), num_modes=2)
            elif choice == 1:
                op = two_mode_squeezer(rng.uniform(-1.5, 1.5))
            else:
                op = beam_splitter(rng.uniform(0, 1))
            state = apply(op, state)
            total = op.matrix @ total
        worst_symp = max(worst_symp, np.max(np.abs(total @ omega @ total.T - omega)))
        worst_det = max(worst_det, abs(np.linalg.det(state.cov) - 1.0))
    report(7, worst_symp < 1e-9 and worst_det < 1e-9,
           f"max symplectic defect = {worst_symp:.2e}, max |det - 1| = {worst_det:.2e}")


def test_criterion_8_cli_determinism(tmp_path):
    """Identical spec + seed produce byte-identical CSV output."""
    args = ["simulate", "--photons", "0.0", "--r-min", "0.0", "--r-max", "1.0",
            "--r-steps", "3", "--samples", "20000", "--seed", "31415"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = cli.main(args + ["--out", str(a)])
    rc2 = cli.main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report(8, rc1 == 0 and rc2 == 0 and identical,
           f"exit codes ({rc1}, {rc2}), byte-identical: {identical}")
