import re
import warnings

import numpy as np
import pytest

import cvmb.bounds
from cvmb.bounds import (
    BoundResult,
    DegenerateModelError,
    DisplacementModel,
    classical_fisher_gaussian,
    closed_form_bounds,
    closed_form_holevo,
    dual_homodyne_mse_analytic,
    holevo_bound,
    rld_bound,
    single_mode_probe,
    sld_bound,
    two_mode_probe,
)
from cvmb.gaussian import (
    GaussianState,
    apply,
    beam_splitter,
    make_thermal,
    single_mode_squeezer,
    symplectic_form,
    two_mode_squeezer,
)
from cvmb.holevo import (
    build_problem,
    components_to_w,
    holevo_value,
    solve_analytic,
    solve_numeric,
    z_matrix,
)
from cvmb.inputs import MAX_PHOTONS, MAX_SQUEEZING, squeezing_limit, two_mode_min_r
from cvmb.simulate import outcome_distribution

R_GRID = np.round(np.arange(0.0, 1.51, 0.1), 10)
N_GRID = [0.0, 0.1, 0.5, 2.0]
# the whole domain: r = 340 is inside squeezing_limit(N) for every N here
DOMAIN_R = [0.0, 1e-9, 0.3, 1.0, 3.0, 8.0, 20.0, 100.0, 177.0, 200.0, 300.0, 340.0]
DOMAIN_N = [0.0, 1e-13, 1e-11, 1e-8, 0.1, 2.0, 1e6]


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
        # the matrix factory directly; the SLD bound solves V on both paths
        # (the RLD bound never solves a singular V: V + i Omega is indefinite)
        for modes in (1, 2):
            state = GaussianState.__new__(GaussianState)
            object.__setattr__(state, "mean", np.zeros(2 * modes))
            object.__setattr__(state, "cov", np.zeros((2 * modes, 2 * modes)))
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
        m = model("two_mode", r, 0.0)
        assert rld_bound(m).value == 0.0
        # a bare copy of the same covariance takes the eigenvalue test for purity
        bare = DisplacementModel(GaussianState(m.probe.mean, m.probe.cov))
        assert bare.probe.williamson is None
        assert rld_bound(bare).value == 0.0

    def test_two_mode_thermal_unsqueezed(self):
        assert np.isclose(rld_bound(model("two_mode", 0.0, 0.1)).value, 4.4, atol=1e-12)


class TestThermalFrame:
    """The moment bounds of factored probes, read in the thermal frame."""

    @pytest.mark.parametrize("n", DOMAIN_N)
    @pytest.mark.parametrize("kind", ["single", "two_mode"])
    def test_whole_domain_matches_closed_forms(self, kind, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in DOMAIN_R + [-r for r in DOMAIN_R]:
                c_s, c_r = closed_form_bounds(r, n, kind)
                m = model(kind, r, n)
                assert sld_bound(m).value == pytest.approx(c_s, rel=1e-12, abs=0), (r, n)
                assert rld_bound(m).value == pytest.approx(c_r, rel=1e-12, abs=0), (r, n)

    @pytest.mark.parametrize("n", DOMAIN_N)
    def test_squeezed_mode_beside_a_thermal_mode(self, n):
        # the uncoupled mode adds zero rows to J', so the single-mode closed
        # forms hold (the RLD for N > 0: at N = 0 rld_bound defines a
        # multi-mode probe's RLD as 0); the squeezing runs close to
        # squeezing_limit(n), where the RLD rows, of size
        # exp(|r|) / (2 sqrt(N)), only fit scaled
        edge = squeezing_limit(n) - 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in DOMAIN_R[1:] + [edge]:
                for signed in (r, -r):
                    probe = apply(single_mode_squeezer(signed, 0, 2), make_thermal(n, 2))
                    m = DisplacementModel(probe)
                    c_s, c_r = closed_form_bounds(signed, n, "single")
                    assert sld_bound(m).value == pytest.approx(c_s, rel=1e-12), (signed, n)
                    if n > 0:
                        assert rld_bound(m).value == pytest.approx(c_r, rel=1e-12), (signed, n)

    def test_two_mode_rld_at_the_origin(self):
        # 0 is the limit along N = 0, 4 the limit along r = 0; the value at
        # (0, 0) is pinned to the first, as in closed_form_bounds
        n = 1e-13
        assert rld_bound(model("two_mode", 0.0, n)).value == pytest.approx(4.0 * (1.0 + n), rel=1e-12)
        assert rld_bound(model("two_mode", 0.0, 0.0)).value == 0.0
        assert closed_form_bounds(0.0, 0.0, "two_mode")[1] == 0.0

    def test_matches_covariance_path_on_random_probes(self):
        # random squeezers and splitters on 1 to 3 modes, any displaced
        # mode: the frame and a bare copy of the same covariance agree
        rng = np.random.default_rng(11)
        for i in range(90):
            modes = 1 + i % 3
            state = make_thermal(float(rng.uniform(0.05, 2.0)), modes)
            for _ in range(rng.integers(1, 6)):
                pair = rng.permutation(max(modes, 2))[:2]
                choice = rng.integers(3) if modes > 1 else 0
                if choice == 0:
                    op = single_mode_squeezer(rng.uniform(-1, 1), mode=pair[0] % modes,
                                              num_modes=modes)
                elif choice == 1:
                    op = two_mode_squeezer(rng.uniform(-1, 1), *pair, num_modes=modes)
                else:
                    op = beam_splitter(rng.uniform(0, 1), *pair, num_modes=modes)
                state = apply(op, state)
            mode = int(rng.integers(modes))
            factored = DisplacementModel(state, mode)
            bare = DisplacementModel(GaussianState(state.mean, state.cov), mode)
            assert factored.probe.williamson is not None and bare.probe.williamson is None
            for bound in (sld_bound, rld_bound, holevo_bound):
                assert bound(factored).value == pytest.approx(bound(bare).value, rel=1e-10)


def piecewise_holevo(r, n):
    """The two-mode C_H: ``(8N + 4) e^-2|r|`` for ``|r| >= ln(1 + 2N) / 2``, else C_R."""
    if abs(r) >= 0.5 * np.log1p(2.0 * n):
        return (8.0 * n + 4.0) * np.exp(-2.0 * abs(r))
    return closed_form_bounds(r, n, "two_mode")[1]


class TestHolevo:
    """holevo_bound, the maximum of rho over [0, 1]."""

    @pytest.mark.parametrize("n", DOMAIN_N)
    def test_whole_domain_matches_piecewise_form(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in DOMAIN_R + [1e-14] + [-r for r in DOMAIN_R + [1e-14]]:
                value = holevo_bound(model("two_mode", r, n)).value
                assert value == pytest.approx(piecewise_holevo(r, n), rel=1e-12, abs=0), (r, n)

    @pytest.mark.parametrize("n", DOMAIN_N)
    def test_single_mode_is_the_rld_bound_bit_for_bit(self, n):
        # for one mode rho(t) = nu ||S||_F^2 + 2t rises with t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in DOMAIN_R + [-r for r in DOMAIN_R]:
                m = model("single", r, n)
                assert holevo_bound(m).value == rld_bound(m).value, (r, n)

    @pytest.mark.parametrize("n", DOMAIN_N)
    def test_between_the_moment_bounds_and_the_dual_homodyne(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in sorted(set(R_GRID.tolist() + DOMAIN_R)):
                m = model("two_mode", r, n)
                result = holevo_bound(m)
                assert result.kind == "Holevo"
                assert max(sld_bound(m).value, rld_bound(m).value) <= result.value, (r, n)
                v_dh = dual_homodyne_mse_analytic(r, n).value
                assert result.value <= v_dh * (1.0 + 1e-12), (r, n)

    def test_limit_from_below_where_the_rld_bound_is_vacuous(self):
        # rld_bound gives 0 for a multi-mode probe at N = 0; holevo_bound
        # gives the limit t -> 1-: 4 at the origin, the single-mode value
        # 2 + 2 cosh 2r for a squeezed mode beside a vacuum mode
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            origin = model("two_mode", 0.0, 0.0)
            assert rld_bound(origin).value == 0.0
            assert holevo_bound(origin).value == pytest.approx(4.0, rel=1e-12, abs=0)
            for r in (1e-9, 0.5, 3.0):
                m = DisplacementModel(apply(single_mode_squeezer(r, 0, 2), make_thermal(0.0, 2)))
                assert rld_bound(m).value == 0.0
                want = 2.0 + 2.0 * np.cosh(2.0 * r)
                assert holevo_bound(m).value == pytest.approx(want, rel=1e-12, abs=0), r


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
            # the r limit narrows with N; up to MAX_PHOTONS, past which N is rejected
            for n in (1e-8, 2.0, 1e50, MAX_PHOTONS):
                edge = np.copysign(squeezing_limit(n), bad)
                assert np.all(np.isfinite(closed_form_bounds(edge, n, kind)))
                with pytest.raises(ValueError, match=f"is outside .* at N = {re.escape(f'{n:g}')} "):
                    closed_form_bounds(np.nextafter(edge, 2 * edge), n, kind)
            with pytest.raises(ValueError, match="is above the limit 1e\\+100"):
                closed_form_bounds(0.5, np.nextafter(MAX_PHOTONS, np.inf), kind)
        with pytest.raises(ValueError, match="r must be finite"):
            dual_homodyne_mse_analytic(bad, 0.0)
        # the dual-homodyne MSE (8N + 4) exp(-2r) overflows first at negative r
        for n in (0.0, 2.0, MAX_PHOTONS):
            edge = two_mode_min_r(n)
            assert np.isfinite(dual_homodyne_mse_analytic(edge, n).value)
            with pytest.raises(ValueError, match="is below the limit"):
                dual_homodyne_mse_analytic(np.nextafter(edge, -np.inf), n)

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


def holevo_r_set():
    """2,124 values of r: the CLI's default grid, a 101-point grid on [0, 2],
    2,000 seeded uniform draws on [-3, 3], and signed zeros, tiny and large r."""
    draws = np.random.default_rng(20).uniform(-3.0, 3.0, 2000)
    edges = [0.0, -0.0, 1e-300, -1e-300, 300.0, -300.0, 354.0]
    return [*np.linspace(0.0, 1.5, 16), *np.linspace(0.0, 2.0, 101), *draws, *edges]


class TestClosedFormHolevo:
    @pytest.mark.parametrize("kind", ["single", "two_mode"])
    def test_pure_probe_is_the_analytic_solution_bit_for_bit(self, kind):
        r_set = holevo_r_set()
        assert len(r_set) == 2124
        for r in r_set:
            got = closed_form_holevo(r, 0.0, kind)
            assert got.hex() == solve_analytic(kind, r).bound.hex(), (kind, r)

    @pytest.mark.parametrize("n", [0.0, 1e-13, 0.1, 2.0])
    def test_single_is_the_closed_form_rld_bit_for_bit(self, n):
        for r in holevo_r_set():
            got = closed_form_holevo(r, n, "single")
            assert got.hex() == closed_form_bounds(r, n, "single")[1].hex(), (r, n)

    @pytest.mark.parametrize("n", [1e-13, 0.1, 2.0, MAX_PHOTONS])
    def test_mixed_two_mode_is_empty(self, n):
        for r in (two_mode_min_r(n), -1.0, 0.0, 0.5, squeezing_limit(n)):
            assert closed_form_holevo(r, n, "two_mode") is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown probe kind 'three_mode'"):
            closed_form_holevo(0.1, 0.0, "three_mode")

    @pytest.mark.parametrize("n", [0.0, 0.1, 2.0])
    def test_domain_is_that_of_the_columns_it_replaces(self, n):
        # |r| <= squeezing_limit(N) for both kinds; for two modes also
        # r >= two_mode_min_r(N), on the None branch as well
        edges = {"single": (-squeezing_limit(n), squeezing_limit(n)),
                 "two_mode": (two_mode_min_r(n), squeezing_limit(n))}
        for kind, (low, high) in edges.items():
            closed_form_holevo(low, n, kind)
            closed_form_holevo(high, n, kind)
            with pytest.raises(ValueError, match="is outside"):
                closed_form_holevo(np.nextafter(high, np.inf), n, kind)
            match = "is outside" if kind == "single" else "is below the limit"
            with pytest.raises(ValueError, match=match):
                closed_form_holevo(np.nextafter(low, -np.inf), n, kind)


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

    def test_trabs_matches_svd_sum(self, monkeypatch):
        # trabs of a 2 x 2 Im G is |Im G_01 - Im G_10| in the package; the
        # reference is the sum of singular values, to 2 ulp relative, on
        # bare covariances (the thermal frame forms no G) and on solver Zs
        def svd_value(ginv):
            return float(np.trace(ginv.real)) + float(np.linalg.svd(ginv.imag, compute_uv=False).sum())

        def close(value, reference):
            return abs(value - reference) <= 2 * np.finfo(float).eps * abs(reference)

        def reference_rho(m, t):
            jac = m.mean_jacobian
            a = m.probe.cov + 1j * t * symplectic_form(m.probe.num_modes)
            if t == 1 and jac.shape[0] == jac.shape[1]:
                jinv = np.linalg.inv(jac)
                return svd_value(jinv @ a @ jinv.T)
            if t == 1:
                eigs = np.linalg.eigvalsh(a)
                if eigs.min() < cvmb.bounds._PURE_EIG_TOL * eigs.max():
                    return 0.0
            return svd_value(np.linalg.inv(jac.T @ np.linalg.solve(a, jac)))

        moment_bound = cvmb.bounds._moment_bound
        checked = []

        def checked_moment_bound(m, t):
            value = moment_bound(m, t)
            assert close(value, reference_rho(m, t)), (t, value)
            checked.append(t)
            return value

        monkeypatch.setattr(cvmb.bounds, "_moment_bound", checked_moment_bound)
        for kind in ("single", "two_mode"):
            for r in (0.0, 1e-9, 0.1, 0.5, 1.0, 2.0, 3.0, -0.7):
                for n in (0.0, 1e-13, 0.1, 0.5, 2.0):
                    probe = model(kind, r, n).probe
                    bare = DisplacementModel(GaussianState(probe.mean, probe.cov))
                    for t in (0.0, 0.3, 0.77, 1.0):
                        cvmb.bounds._moment_bound(bare, t)
                    holevo_bound(bare)
        assert len(checked) == 2 * 8 * 5 * (4 + 80)
        for r in np.linspace(-3.0, 3.0, 121):
            # the single-mode Z = W W^H of the x that the constraints pin
            single = z_matrix(components_to_w(solve_analytic("single", r).minimizer, 2))
            for kind, z in (("single", single),
                            ("two_mode", solve_numeric(build_problem("two_mode", r)).z_matrix)):
                assert close(holevo_value(z), svd_value(z)), (kind, r)

    def test_jacobian_columns(self):
        m = model("two_mode", 0.3, 0.0)
        jac = m.mean_jacobian
        assert jac.shape == (4, 2)
        assert np.array_equal(jac[:, 0], [1, 0, 0, 0])
        assert np.array_equal(jac[:, 1], [0, 1, 0, 0])
