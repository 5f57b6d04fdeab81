import numpy as np
import pytest

from cvmb.bounds import (
    MAX_SQUEEZING,
    BoundResult,
    DegenerateModelError,
    DisplacementModel,
    classical_fisher_gaussian,
    closed_form_bounds,
    dual_homodyne_mse_analytic,
    rld_bound,
    single_mode_probe,
    sld_bound,
    trabs,
    two_mode_probe,
)
from cvmb.gaussian import GaussianState
from cvmb.simulate import outcome_distribution

R_GRID = np.round(np.arange(0.0, 1.51, 0.1), 10)
N_GRID = [0.0, 0.1, 0.5, 2.0]


def model(kind, r, n):
    probe = single_mode_probe(r, n) if kind == "single" else two_mode_probe(r, n)
    return DisplacementModel(probe, displaced_mode=0)


class TestSLD:
    def test_coherent_single_mode(self):
        assert np.isclose(sld_bound(model("single", 0.0, 0.0)).value, 2.0, atol=1e-12)

    def test_two_mode_example(self):
        value = sld_bound(model("two_mode", 0.5, 0.1)).value
        assert np.isclose(value, 2.4 / np.cosh(1.0), atol=1e-12)
        assert np.isclose(value, 1.55533, atol=5e-6)

    @pytest.mark.parametrize("n", N_GRID)
    def test_two_mode_unsqueezed(self, n):
        assert np.isclose(sld_bound(model("two_mode", 0.0, n)).value, 2 + 4 * n, atol=1e-12)

    def test_singular_covariance_rejected(self):
        # a valid state whose covariance is singular cannot exist, so feed
        # the matrix factory directly
        state = GaussianState.__new__(GaussianState)
        object.__setattr__(state, "mean", np.zeros(2))
        object.__setattr__(state, "cov", np.zeros((2, 2)))
        bad = DisplacementModel.__new__(DisplacementModel)
        object.__setattr__(bad, "probe", state)
        object.__setattr__(bad, "displaced_mode", 0)
        with pytest.raises(DegenerateModelError):
            sld_bound(bad)


class TestRLD:
    def test_pure_single_mode(self):
        value = rld_bound(model("single", 1.0, 0.0)).value
        assert np.isclose(value, 2 + 2 * np.cosh(2.0), atol=1e-12)
        assert np.isclose(value, 9.52439, atol=5e-6)

    @pytest.mark.parametrize("r", [0.0, 0.4, 1.2])
    def test_pure_two_mode_is_vacuous(self, r):
        assert rld_bound(model("two_mode", r, 0.0)).value == 0.0

    def test_two_mode_thermal_unsqueezed(self):
        assert np.isclose(rld_bound(model("two_mode", 0.0, 0.1)).value, 4.4, atol=1e-12)


class TestClosedForms:
    def test_coherent_values(self):
        assert closed_form_bounds(0.0, 0.0, "single") == (2.0, 4.0)

    def test_two_mode_examples(self):
        c_s, c_r = closed_form_bounds(0.5, 0.1, "two_mode")
        assert np.isclose(c_s, 1.55533, atol=5e-6)
        assert np.isclose(c_r, 0.88 / (1.2 * np.cosh(1.0) - 1.0), atol=1e-12)
        assert np.isclose(c_r, 1.03323, atol=5e-6)
        assert closed_form_bounds(0.0, 0.1, "two_mode") == (pytest.approx(2.4), pytest.approx(4.4))
        # near-pure probe at r = 0: the denominator must not cancel
        for n in (1e-13, 1e-8):
            assert closed_form_bounds(0.0, n, "two_mode")[1] == pytest.approx(4.0 * (1.0 + n), rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_bounds(0.1, 0.0, "three_mode")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        for kind in ("single", "two_mode"):
            with pytest.raises(ValueError, match="r must be finite"):
                closed_form_bounds(bad, 0.1, kind)
            with pytest.raises(ValueError, match="mean_photons must be finite"):
                closed_form_bounds(0.5, bad, kind)
            # finite r just past the edge of the domain, on the side of ``bad``
            edge = np.copysign(MAX_SQUEEZING, bad)
            assert np.all(np.isfinite(closed_form_bounds(edge, 0.0, kind)))
            with pytest.raises(ValueError, match="is outside"):
                closed_form_bounds(np.nextafter(edge, 2 * edge), 0.0, kind)

    @pytest.mark.parametrize("kind", ["single", "two_mode"])
    def test_moment_formulas_match_closed_forms(self, kind):
        for r in R_GRID:
            for n in N_GRID:
                c_s, c_r = closed_form_bounds(r, n, kind)
                m = model(kind, r, n)
                assert abs(sld_bound(m).value - c_s) < 1e-9, (kind, r, n)
                assert abs(rld_bound(m).value - c_r) < 1e-9, (kind, r, n)

    def test_single_rld_dominates_sld(self):
        for r in R_GRID:
            for n in N_GRID:
                c_s, c_r = closed_form_bounds(r, n, "single")
                assert c_r >= c_s


class TestClassicalFisher:
    def test_identity_model(self):
        assert np.allclose(classical_fisher_gaussian(np.eye(2), np.eye(2)), np.eye(2))

    def test_diagonal_model(self):
        fisher = classical_fisher_gaussian(np.eye(2), np.diag([4.0, 0.25]))
        assert np.allclose(fisher, np.diag([0.25, 4.0]), atol=1e-14)

    @pytest.mark.parametrize("r,n", [(0.0, 0.0), (0.5, 0.1), (1.2, 0.6)])
    def test_dual_homodyne_estimator_is_efficient(self, r, n):
        out = outcome_distribution(r, n)
        fisher = classical_fisher_gaussian(out.jacobian, out.cov)
        cr_bound = np.trace(np.linalg.inv(fisher))
        assert abs(cr_bound - dual_homodyne_mse_analytic(r, n).value) < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(DegenerateModelError):
            classical_fisher_gaussian(np.eye(2), np.zeros((2, 2)))


class TestDualHomodyneAnalytic:
    def test_vacuum_value(self):
        assert dual_homodyne_mse_analytic(0.0, 0.0).value == 4.0

    def test_example_value(self):
        assert np.isclose(dual_homodyne_mse_analytic(0.5, 0.1).value, 4.8 * np.exp(-1), atol=1e-12)
        assert np.isclose(dual_homodyne_mse_analytic(0.5, 0.1).value, 1.76582, atol=5e-6)

    def test_monotone_decay_in_r(self):
        values = [dual_homodyne_mse_analytic(r, 0.0).value for r in np.linspace(0, 5, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_kind_tag(self):
        assert dual_homodyne_mse_analytic(1.0, 0.0).kind == "dual-homodyne-analytic"


class TestQualitative:
    def test_dual_homodyne_misses_bounds_at_small_r(self):
        # at N = 0.1 there are squeezing values where the measured MSE
        # strictly exceeds both easy bounds
        found = False
        for r in np.linspace(0.01, 1.5, 50):
            c_s, c_r = closed_form_bounds(r, 0.1, "two_mode")
            if dual_homodyne_mse_analytic(r, 0.1).value > max(c_s, c_r):
                found = True
                break
        assert found


class TestResultType:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundResult(1.0, "banana")

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BoundResult(-0.5, "SLD")

    def test_trabs_matches_eigenvalues(self):
        m = np.array([[0.0, 0.7], [-0.7, 0.0]])
        assert np.isclose(trabs(m), sum(abs(np.linalg.eigvals(m))), atol=1e-12)

    def test_jacobian_columns(self):
        m = model("two_mode", 0.3, 0.0)
        jac = m.mean_jacobian
        assert jac.shape == (4, 2)
        assert np.array_equal(jac[:, 0], [1, 0, 0, 0])
        assert np.array_equal(jac[:, 1], [0, 1, 0, 0])
