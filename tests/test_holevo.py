import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvmb
from cvmb import holevo
from cvmb.bounds import (
    DisplacementModel,
    closed_form_bounds,
    holevo_bound,
    single_mode_probe,
    two_mode_probe,
)
from cvmb.gaussian import apply, single_mode_squeezer, vacuum
from cvmb.holevo import (
    _KKT_MAX_R,
    _KKT_MIN_R,
    ConvergenceError,
    HolevoProblem,
    assemble_constraints,
    assemble_x_operators,
    build_problem,
    components_to_w,
    constraint_residual,
    eliminate_two_mode,
    gram_single_mode,
    gram_two_mode,
    holevo_value,
    kkt_case_audit,
    solve_analytic,
    solve_numeric,
    two_mode_g,
    two_mode_objective,
    z_matrix,
)
from cvmb.inputs import MAX_SQUEEZING, two_mode_min_r

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def quadrature_second_moments(r):
    """<Q^2>, <P^2>, <PQ> of a squeezed vacuum, assembled from moments.

    The real part of <PQ> is the covariance entry; the imaginary part is
    fixed at -1 by the commutator [Q, P] = 2i.
    """
    cov = apply(single_mode_squeezer(r), vacuum()).cov
    return cov[0, 0], cov[1, 1], cov[1, 0] - 1.0j


class TestGram:
    def test_single_mode_entries(self):
        g = gram_single_mode(1.0)
        assert np.isclose(g[1, 1], np.exp(2.0) / 4.0)
        assert np.isclose(g[1, 1], 1.84726, atol=5e-6)
        assert np.isclose(g[2, 2], np.exp(-2.0) / 4.0)
        assert g[1, 2] == 0.25j

    def test_single_mode_r_zero(self):
        g = gram_single_mode(0.0)
        assert np.allclose(np.diag(g), [1.0, 0.25, 0.25])
        assert g[1, 2] == 0.25j

    @pytest.mark.parametrize("r", [0.0, 0.4, 1.3])
    def test_hermitian_and_normalized(self, r):
        for m in (gram_single_mode(r), gram_two_mode(r)):
            assert np.allclose(m, m.conj().T)
            assert m[0, 0] == 1.0
            assert np.allclose(m[0, 1:], 0.0)

    def test_two_mode_reduces_to_single_at_r_zero(self):
        assert np.array_equal(gram_two_mode(0.0), gram_single_mode(0.0))

    def test_two_mode_derivative_norm(self):
        g = gram_two_mode(0.5)
        assert np.isclose(g[1, 1], np.cosh(1.0) / 4.0)
        assert np.isclose(g[1, 1], 0.38577, atol=5e-6)

    @pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
    def test_single_mode_gram_from_state_moments(self, r):
        # oracle: assemble the overlaps from quadrature moments of the
        # squeezed state; derivatives are -i P |psi> / 2 and i Q |psi> / 2
        q2, p2, pq = quadrature_second_moments(r)
        g = gram_single_mode(r)
        assert abs(g[1, 1] - p2 / 4.0) < 1e-12
        assert abs(g[2, 2] - q2 / 4.0) < 1e-12
        assert abs(g[1, 2] - (-pq / 4.0)) < 1e-12

    @pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
    def test_two_mode_gram_from_state_moments(self, r):
        # the balanced splitter turns the probe into squeezed(r) x squeezed(-r)
        # with the displacement split across both modes with opposite signs
        q2p, p2p, pqp = quadrature_second_moments(r)
        q2m, p2m, pqm = quadrature_second_moments(-r)
        g = gram_two_mode(r)
        assert abs(g[1, 1] - (p2p + p2m) / 8.0) < 1e-12
        assert abs(g[2, 2] - (q2p + q2m) / 8.0) < 1e-12
        assert abs(g[1, 2] - (-(pqp + pqm) / 8.0)) < 1e-12


class TestProblem:
    @pytest.mark.parametrize("kind,r,dim", [("single", 0.7, 2), ("two_mode", 0.7, 3)])
    def test_basis_dimensions(self, kind, r, dim):
        problem = build_problem(kind, r)
        assert problem.basis_dim == dim
        gram = gram_single_mode(r) if kind == "single" else gram_two_mode(r)
        rebuilt = problem.psi_coords.conj() @ problem.psi_coords.T
        assert np.max(np.abs(rebuilt - gram[1:, 1:])) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_problem("nope", 0.1)

    @pytest.mark.parametrize("kind,shape", [("single", (2, 1)), ("two_mode", (2, 2))],
                             ids=["single", "two_mode"])
    def test_coords_follow_r(self, kind, shape):
        # the coordinates are derived from r: none can be given for another r
        with pytest.raises(TypeError):
            HolevoProblem(kind, 0.5, np.zeros(shape, dtype=complex))
        problem = HolevoProblem(kind, 0.5)
        assert problem.psi_coords.shape == shape
        assert not problem.psi_coords.flags.writeable
        if kind == "single":  # the constraints pin the solution; solve_analytic states it
            w = components_to_w(solve_analytic(kind, 0.5).minimizer, 2)
            assert constraint_residual(problem, w) < 1e-12
        else:
            assert solve_numeric(problem).diagnostics["constraint_residual"] < 1e-12

    @pytest.mark.parametrize("kind", ["single", "two_mode"])
    @pytest.mark.parametrize("r", [0.0, 0.4, 5.2, 5.6, 20.0, MAX_SQUEEZING])
    def test_gram_check_at_large_r(self, kind, r):
        # HolevoProblem derives the coordinates from r and does not compare
        # them with the Gram; this test does, over the whole range of r.
        # The entries grow like exp(2|r|), so entry (j, k) is held to within
        # 1e-12 of its Cauchy-Schwarz scale sqrt(G_jj G_kk), the size of the
        # rounding in the rebuilt entry: an absolute tolerance fails on
        # rounding alone from |r| of about 5.1 (single) and 5.5 (two-mode)
        gram_of = gram_single_mode if kind == "single" else gram_two_mode
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for signed in (r, -r):
                problem = build_problem(kind, signed)
                assert problem.r == signed
                coords = problem.psi_coords
                assert np.all(np.isfinite(coords))
                target = gram_of(signed)[1:, 1:]
                root = np.sqrt(np.diag(target).real)
                error = np.abs(coords.conj() @ coords.T - target)
                assert np.all(error <= 1e-12 * np.outer(root, root)), (signed, error)


class TestConstraints:
    def test_two_mode_system_shape(self):
        a, b = assemble_constraints(build_problem("two_mode", 0.4))
        assert a.shape == (4, 8)
        assert np.array_equal(b, [1.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("r", [0.2, 0.9])
    def test_elimination_solves_constraints(self, r):
        a, b = assemble_constraints(build_problem("two_mode", r))
        rng = np.random.default_rng(5)
        for _ in range(10):
            free = rng.uniform(-2, 2, 4)
            x = eliminate_two_mode(free, r)
            assert np.max(np.abs(a @ x - b)) < 1e-12

    def test_elimination_formulas(self):
        r = 0.8
        th, sc = np.tanh(r), 1 / np.cosh(r)
        s1, k2, k1, s2 = 0.3, -0.7, 1.1, 0.5
        t1, j1, s1_, k1_, t2, j2, s2_, k2_ = eliminate_two_mode([s1, k2, k1, s2], r)
        assert np.isclose(t1, sc - s1 * th)
        assert np.isclose(j1, k1 * th)
        assert np.isclose(t2, -s2 * th)
        assert np.isclose(j2, -sc + k2 * th)
        assert (s1_, k1_, s2_, k2_) == (s1, k1, s2, k2)

    def test_single_mode_pinned_components(self):
        r = 0.6
        problem = build_problem("single", r)
        a, b = assemble_constraints(problem)
        x = np.linalg.solve(a, b)
        assert np.allclose(x, [np.exp(-r), 0.0, 0.0, -np.exp(r)], atol=1e-12)

    @pytest.mark.parametrize("r", [0.3, 1.2])
    def test_assembled_operators_are_feasible(self, r):
        problem = build_problem("two_mode", r)
        rng = np.random.default_rng(11)
        free = rng.uniform(-2, 2, 4)
        w = components_to_w(eliminate_two_mode(free, r), 3)
        assert constraint_residual(problem, w) < 1e-10
        # same check through the fully assembled Hermitian operators
        x1, x2 = assemble_x_operators(problem, w)
        e0 = np.zeros(3)
        e0[0] = 1.0
        psi = np.zeros((2, 3), dtype=complex)
        psi[:, 1:] = problem.psi_coords
        for j, (psi_j) in enumerate(psi):
            for k, x in enumerate((x1, x2)):
                val = 2.0 * np.real(psi_j.conj() @ x @ e0).item()
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-10

    @pytest.mark.parametrize("kind", ["single", "two_mode"])
    @pytest.mark.parametrize("r", [-1.3, 0.0, 0.7])
    def test_residual_of_zero_w(self, kind, r):
        # W = 0 leaves 2 Re <psi_0|X_j|psi_j> = 1 unmet by exactly 1
        problem = build_problem(kind, r)
        residual = constraint_residual(problem, np.zeros((2, problem.basis_dim - 1), complex))
        assert type(residual) is float
        assert residual == 1.0

    @pytest.mark.parametrize("r", [-1.3, 0.0, 0.7])
    def test_residual_reports_a_shifted_component(self, r):
        # t1 enters the (1, 1) constraint with coefficient 2 Re <e_1|psi_1> = cosh r
        problem = build_problem("two_mode", r)
        w = components_to_w(eliminate_two_mode([0.3, -0.7, 1.1, 0.5], r), 3)
        for delta in (1e-3, -0.25):
            shifted = w.copy()
            shifted[0, 0] += delta
            assert np.isclose(constraint_residual(problem, shifted), abs(delta) * np.cosh(r),
                              rtol=1e-9, atol=0.0)

    def test_zero_mean_component_enforced(self):
        problem = build_problem("two_mode", 0.5)
        w = components_to_w(eliminate_two_mode(np.zeros(4), 0.5), 3)
        x1, x2 = assemble_x_operators(problem, w)
        assert x1[0, 0] == 0 and x2[0, 0] == 0


class TestObjective:
    def test_value_at_origin_r_zero(self):
        assert np.isclose(two_mode_objective(np.zeros(4), 0.0), 4.0, atol=1e-14)

    def test_value_at_analytic_minimizer(self):
        r = 0.5
        u = np.exp(-r)
        assert np.isclose(two_mode_objective(np.array([u, u, 0, 0]), r),
                          4 * np.exp(-1.0), atol=1e-12)

    @given(finite_floats, finite_floats, finite_floats, finite_floats,
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, s1, k2, k1, s2, r):
        assert two_mode_objective(np.array([s1, k2, k1, s2]), r) >= 0.0

    @given(finite_floats, finite_floats, finite_floats, finite_floats,
           st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_exchange_symmetry(self, s1, k2, k1, s2, r):
        # swapping (s1, k1) <-> (k2, s2) mirrors swapping the two estimated
        # parameters with the Q <-> P structure; h is invariant
        original = two_mode_objective(np.array([s1, k2, k1, s2]), r)
        swapped = two_mode_objective(np.array([k2, s1, s2, k1]), r)
        assert np.isclose(original, swapped, rtol=1e-12, atol=1e-12)

    def test_g_form(self):
        # the dual solver writes g as (1/2) y^T S y over the eight components
        rng = np.random.default_rng(31)
        for r in (-0.9, 0.0, 0.4, 2.0):
            for free in rng.uniform(-2, 2, size=(10, 4)):
                y = eliminate_two_mode(free, r)
                assert np.isclose(0.5 * y @ holevo._G_FORM @ y, two_mode_g(free, r),
                                  rtol=1e-12, atol=1e-12)
        # and against Im Z[1, 0] over all W components
        for x in rng.uniform(-2, 2, size=(10, 8)):
            assert np.isclose(0.5 * x @ holevo._G_FORM @ x,
                              z_matrix(components_to_w(x, 3))[1, 0].imag,
                              rtol=1e-12, atol=1e-12)

    def test_matches_z_matrix_route(self):
        r, free = 0.8, np.array([0.4, -0.2, 0.9, 0.1])
        x = eliminate_two_mode(free, r)
        z = z_matrix(components_to_w(x, 3))
        assert np.isclose(two_mode_objective(free, r), holevo_value(z), atol=1e-12)


class TestOperatorOracle:
    """Check the component parametrization against dense-matrix traces."""

    @pytest.mark.parametrize("r", [0.3, 1.1])
    def test_z_matrix_matches_operator_trace(self, r):
        problem = build_problem("two_mode", r)
        rng = np.random.default_rng(23)
        free = rng.uniform(-2, 2, 4)
        w = components_to_w(eliminate_two_mode(free, r), 3)
        x1, x2 = assemble_x_operators(problem, w)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        z_ref = np.array([[np.trace(rho @ a @ b) for b in (x1, x2)] for a in (x1, x2)])
        assert np.max(np.abs(z_ref - z_matrix(w))) < 1e-12
        h_ref = float(np.trace(z_ref.real)) + sum(abs(np.linalg.eigvalsh(
            1j * z_ref.imag)))
        assert np.isclose(h_ref, two_mode_objective(free, r), atol=1e-10)

    def test_span_blocks_do_not_enter_z(self):
        # Hermitian components on the derivative subspace change the
        # operators but not Z, so truncating them loses nothing
        r = 0.7
        problem = build_problem("two_mode", r)
        rng = np.random.default_rng(29)
        w = components_to_w(eliminate_two_mode(rng.uniform(-2, 2, 4), r), 3)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        x1, x2 = assemble_x_operators(problem, w)
        for x in (x1, x2):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            x[1:, 1:] += raw + raw.conj().T
        z_ref = np.array([[np.trace(rho @ a @ b) for b in (x1, x2)] for a in (x1, x2)])
        assert np.max(np.abs(z_ref - z_matrix(w))) < 1e-12


class TestAnalyticSolver:
    @pytest.mark.parametrize("r,expected", [(0.0, 4.0), (1.0, 4 * np.exp(-2.0))])
    def test_two_mode_values(self, r, expected):
        solution = solve_analytic("two_mode", r)
        assert solution.bound == 4.0 * np.exp(-2.0 * r)
        assert np.isclose(solution.bound, expected, atol=1e-12)

    def test_two_mode_r_one_numeric_value(self):
        assert np.isclose(solve_analytic("two_mode", 1.0).bound, 0.54134, atol=5e-6)

    def test_single_mode_values(self):
        assert solve_analytic("single", 0.0).bound == 4.0
        r = 0.9
        assert np.isclose(solve_analytic("single", r).bound, 2 + 2 * np.cosh(2 * r), atol=1e-12)

    @pytest.mark.parametrize("kind,r", [("single", 0.7), ("two_mode", 0.7), ("two_mode", 0.0)])
    def test_z_matrix_invariants(self, kind, r):
        sol = solve_analytic(kind, r)
        z = sol.z_matrix
        assert np.min(np.linalg.eigvalsh(z.real)) > -1e-12
        assert abs(z[0, 0].imag) < 1e-14 and abs(z[1, 1].imag) < 1e-14
        assert np.isclose(z[0, 1], np.conj(z[1, 0]), atol=1e-14)
        assert abs(holevo_value(z) - sol.bound) < 1e-12

    def test_two_mode_minimizer_is_feasible_and_optimal(self):
        r = 0.65
        sol = solve_analytic("two_mode", r)
        problem = build_problem("two_mode", r)
        w = components_to_w(eliminate_two_mode(sol.minimizer, r), 3)
        assert constraint_residual(problem, w) < 1e-10
        assert np.isclose(two_mode_objective(sol.minimizer, r), sol.bound, atol=1e-12)

    @pytest.mark.parametrize("r", [-1.0, -0.3, -1e-3])
    def test_two_mode_negative_r(self, r):
        # at r < 0 the g = 0 point s1 = k2 = -e^r is the minimum, 4 exp(2r);
        # s1 = k2 = e^-r is feasible too but reaches only 4 exp(-2r)
        sol = solve_analytic("two_mode", r)
        assert sol.bound == 4.0 * np.exp(2.0 * r)
        u = -np.exp(r)
        assert np.array_equal(sol.minimizer, [u, u, 0.0, 0.0])
        problem = build_problem("two_mode", r)
        w = components_to_w(eliminate_two_mode(sol.minimizer, r), 3)
        assert constraint_residual(problem, w) < 1e-12
        assert abs(two_mode_g(sol.minimizer, r)) < 1e-12
        assert np.isclose(two_mode_objective(sol.minimizer, r), sol.bound, rtol=1e-12)
        assert np.max(np.abs(z_matrix(w) - sol.z_matrix)) < 1e-12
        other = np.array([np.exp(-r), np.exp(-r), 0.0, 0.0])
        assert np.isclose(two_mode_objective(other, r), 4.0 * np.exp(-2.0 * r), rtol=1e-12)

    def test_two_mode_dual_agrees(self):
        for r in np.round(np.linspace(-3.0, 3.0, 121), 12):
            want = solve_analytic("two_mode", r)
            got = solve_numeric(build_problem("two_mode", r))
            assert abs(got.bound - want.bound) <= 1e-12 * want.bound
            if r != 0:  # at r = 0 every s1 = k2 in [-1, 1] is a minimizer
                error = np.max(np.abs(got.minimizer - want.minimizer))
                assert error <= 1e-12 * abs(want.minimizer[0])

    def test_single_mode_matches_pure_rld(self):
        for r in np.round(np.arange(0.0, 1.51, 0.1), 10):
            _, c_r = closed_form_bounds(r, 0.0, "single")
            assert abs(solve_analytic("single", r).bound - c_r) < 1e-9


DUAL_GRID = [0.0, 1e-14, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 1.5, 5.2, 20.0, 340.0, MAX_SQUEEZING]


def per_step_point(r):
    """The dual's ``(t, x, y, g, phi)`` at t from one ``np.linalg.solve`` of the pencil.

    The reference for the factored pencil of ``holevo._dual_pencil``: the
    minimizer of ``y^T (I + t S) y`` over the free variables x, with
    ``y = E x + d``, solved afresh at each t, and g read from y.
    """
    s = holevo._G_FORM
    d = eliminate_two_mode(np.zeros(4), r)
    e = np.column_stack([eliminate_two_mode(col, r) for col in np.eye(4)]) - d[:, None]
    m0, m1 = e.T @ e, e.T @ s @ e
    b0, b1 = e.T @ d, e.T @ s @ d

    def point(t):
        x = np.linalg.solve(m0 + t * m1, -(b0 + t * b1))
        y = e @ x + d
        g = 0.5 * float(y @ s @ y)
        return t, x, y, g, float(y @ y) + 2.0 * t * g

    return point


def per_step_dual(r):
    """(t*, bound) of the dual bisection with one linear solve per step: the reference."""
    point = per_step_point(r)
    t_lo, t_hi = -1.0, 1.0
    lo = hi = None
    while t_hi - t_lo > holevo._T_RESOLUTION:
        mid = point(0.5 * (t_lo + t_hi))
        if mid[3] >= 0:
            lo, t_lo = mid, mid[0]
        if mid[3] <= 0:
            hi, t_hi = mid, mid[0]
    ends = [end for end in (lo, hi) if end is not None]
    x = min(ends, key=lambda end: float(end[2] @ end[2]) + 2.0 * abs(end[3]))[1]
    bound = holevo_value(z_matrix(components_to_w(eliminate_two_mode(x, r), 3)))
    return max(ends, key=lambda end: end[4])[0], bound


class TestNumericSolver:
    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0, 1.5])
    def test_two_mode_reduced(self, r):
        problem = build_problem("two_mode", r)
        sol = solve_numeric(problem)
        assert abs(sol.bound - 4 * np.exp(-2 * r)) < 1e-6
        assert sol.method == "numeric"
        assert sol.diagnostics["constraint_residual"] < 1e-10

    def test_single_mode_numeric(self):
        # no free variables to solve for: the numeric checks of the
        # single-mode bound are holevo_bound's moment route and the grid below
        r = 0.7
        with pytest.raises(ValueError, match="'single' problem has no free variables"):
            solve_numeric(build_problem("single", r))
        want = 2 + 2 * np.cosh(1.4)
        assert abs(solve_analytic("single", r).bound - want) < 1e-6
        assert abs(holevo_bound(DisplacementModel(single_mode_probe(r))).value - want) < 1e-6

    def test_deterministic_for_fixed_seed(self):
        problem = build_problem("two_mode", 0.45)
        a = solve_numeric(problem)
        b = solve_numeric(problem)
        assert a.bound == b.bound
        assert np.array_equal(a.minimizer, b.minimizer)

    def test_dominates_easy_bounds(self):
        for r in [0.0, 0.3, 0.8, 1.2]:
            problem = build_problem("two_mode", r)
            sol = solve_numeric(problem)
            c_s, c_r = closed_form_bounds(r, 0.0, "two_mode")
            assert sol.bound >= max(c_s, c_r) - 1e-8

    @pytest.mark.parametrize("r", sorted({v for r in DUAL_GRID for v in (r, -r)}))
    def test_dual_certified_on_grid(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_numeric(build_problem("two_mode", r))
        want = 4.0 * np.exp(-2.0 * abs(r))
        diagnostics = sol.diagnostics
        assert abs(sol.bound - want) <= 1e-12 * want
        assert abs(diagnostics["duality_gap"]) <= 1e-12 * want
        assert diagnostics["constraint_residual"] <= 1e-12
        assert -1.0 < diagnostics["t"] < 1.0

    @pytest.mark.parametrize("r", sorted({v for r in DUAL_GRID for v in (r, -r)}))
    def test_single_mode_pinned_on_grid(self, r):
        # the constraints pin every component: solve_analytic's x meets them,
        # and its Z = W W^H gives its bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analytic = solve_analytic("single", r)
            w = components_to_w(analytic.minimizer, 2)
            assert constraint_residual(build_problem("single", r), w) <= 1e-12
            value = holevo_value(z_matrix(w))
        assert abs(value - analytic.bound) <= 1e-12 * analytic.bound

    @pytest.mark.parametrize("r", sorted({v for r in DUAL_GRID for v in (r, -r)}
                                         | {-0.7, 0.3, 1.2}))
    @pytest.mark.parametrize("kind", ["single", "two_mode"])
    def test_holevo_bound_matches_both_solvers_on_grid(self, kind, r):
        probe = single_mode_probe(r) if kind == "single" else two_mode_probe(r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = holevo_bound(DisplacementModel(probe)).value
            if kind == "two_mode":
                dual = solve_numeric(build_problem(kind, r)).bound
                assert abs(value - dual) <= 1e-12 * dual
        # the two-mode solve_analytic stops at two_mode_min_r(0), above -MAX_SQUEEZING
        if kind == "single" or r >= two_mode_min_r(0.0):
            want = solve_analytic(kind, r).bound
            assert abs(value - want) <= 1e-12 * want

    @given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_dual_matches_analytic(self, r):
        bound = solve_numeric(build_problem("two_mode", r)).bound
        want = solve_analytic("two_mode", r).bound
        assert abs(bound - want) <= 1e-12 * want
        # C_H / C_S = 1 + exp(-4|r|), which rounds to 1 from |r| of about 9
        assert bound >= max(closed_form_bounds(r, 0.0, "two_mode")) * (1.0 - 1e-15)

    @pytest.mark.parametrize("r", sorted({v for r in DUAL_GRID for v in (r, -r)}))
    def test_dual_matches_per_step_solve(self, r):
        sol = solve_numeric(build_problem("two_mode", r))
        t_ref, bound_ref = per_step_dual(r)
        assert abs(sol.diagnostics["t"] - t_ref) <= 1e-14
        assert abs(sol.bound - bound_ref) <= 1e-15 * bound_ref

    @pytest.mark.parametrize("r", [-1.5, -0.1, 0.0, 0.3, 1.0, 5.2])
    def test_closed_form_slope(self, r):
        slope, _ = holevo._dual_pencil(r)
        point = per_step_point(r)
        for t in (-0.999, -0.6, -0.1, 0.0, 0.2, 0.7, 0.999):
            _, _, y, g, _ = point(t)
            # |g| <= y.y / 2, so y.y is the scale of the rounding in g
            assert abs(slope(t) - g) <= 1e-13 * (y @ y)

    def test_non_finite_slope_raises(self, monkeypatch):
        # a LAPACK build that passes a NaN through instead of failing would
        # leave every sign test false: the bisection must stop, not spin
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.full(4, np.nan), np.eye(4)))
        with pytest.raises(ConvergenceError, match=r"slope is nan at t = 0\.0, r = 0\.5"):
            solve_numeric(build_problem("two_mode", 0.5))

    def test_uncertified_dual_raises(self, monkeypatch):
        # a bracket on t this wide leaves a duality gap far above the tolerance
        monkeypatch.setattr(holevo, "_T_RESOLUTION", 0.1)
        with pytest.raises(ConvergenceError, match="duality gap") as info:
            solve_numeric(build_problem("two_mode", 0.5))
        best = info.value.best
        assert best.diagnostics["duality_gap"] > 1e-12 * best.bound
        assert best.diagnostics["constraint_residual"] <= 1e-12


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(cvmb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    preamble = ("import sys\n"
                "def scipy_loaded():\n"
                "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", preamble + code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestLazyOptimizerImport:
    """SciPy is loaded only where it is used: the compiled
    scipy.special._ufuncs by sampling, and its optimizer by nothing in the
    package."""

    def test_scipy_optimize_never_loaded(self, tmp_path):
        out = str(tmp_path / "out.csv")
        run_fresh(
            "import cvmb, cvmb.cli\n"
            "assert not scipy_loaded(), ('loaded at import', scipy_loaded())\n"
            f"assert cvmb.cli.main(['bounds', '--out', {out!r}]) == 0\n"
            f"assert cvmb.cli.main(['figure1', '--out', {out!r}]) == 0\n"
            "from cvmb.holevo import build_problem, solve_analytic, solve_numeric\n"
            "solve_numeric(build_problem('two_mode', 0.5))\n"
            "solve_analytic('single', 0.5)\n"
            "from cvmb.bounds import DisplacementModel, single_mode_probe, two_mode_probe\n"
            "cvmb.holevo_bound(DisplacementModel(two_mode_probe(0.5, 0.1)))\n"
            "cvmb.holevo_bound(DisplacementModel(single_mode_probe(0.5)))\n"
            "assert not scipy_loaded(), ('loaded without sampling', scipy_loaded())\n"
            f"assert cvmb.cli.main(['simulate', '--samples', '1000', '--r-steps', '2', "
            f"'--out', {out!r}]) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'loaded by the package'\n"
        )

    def test_scipy_special_loaded_on_first_run(self):
        run_fresh(
            "from cvmb.simulate import SimConfig, run\n"
            "assert not scipy_loaded(), ('loaded at import', scipy_loaded())\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random loaded at import'\n"
            "assert 'concurrent.futures' not in sys.modules, 'pool module loaded at import'\n"
            "run(SimConfig(r=0.5, photons=0.0, samples=1000))\n"
            "assert 'scipy.special._ufuncs' in sys.modules, 'ndtri not loaded by run'\n"
            "assert 'numpy.random' in sys.modules, 'numpy.random not loaded by run'\n"
            # ndtri comes without the scipy.special package and the
            # array-API layer its __init__ loads
            "for name in ('scipy.special', 'scipy._lib._array_api', 'numpy.f2py',\n"
            "             'scipy.optimize'):\n"
            "    assert name not in sys.modules, (name, 'loaded by run')\n"
            # two batches on two workers start one plain thread and load no pool module
            "import threading, cvmb.simulate\n"
            "starts = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda thread: (starts.append(thread), start(thread))[1]\n"
            "cvmb.simulate._usable_cpus = lambda: 2\n"
            "run(SimConfig(r=0.5, photons=0.0, samples=2 * cvmb.simulate.BATCH_SIZE))\n"
            "assert len(starts) == 1, starts\n"
            "assert 'concurrent.futures' not in sys.modules, 'pool module loaded by sampling'\n"
        )

    def test_scipy_special_imported_before_run_is_used(self):
        run_fresh(
            "import scipy, scipy.special\n"
            "package = sys.modules['scipy.special']\n"
            "import cvmb.simulate\n"
            "cvmb.simulate.run(cvmb.simulate.SimConfig(r=0.5, photons=0.0, samples=1000))\n"
            "assert cvmb.simulate._scipy_ufuncs().ndtri is package.ndtri\n"
            "assert sys.modules['scipy.special'] is package and scipy.special is package\n"
        )

    def test_scipy_special_imported_after_run_is_the_package(self):
        run_fresh(
            "import cvmb.simulate\n"
            "cvmb.simulate.run(cvmb.simulate.SimConfig(r=0.5, photons=0.0, samples=1000))\n"
            "import scipy\n"
            "assert 'special' not in vars(scipy), 'stand-in bound to scipy'\n"
            "import scipy.special\n"
            "assert scipy.special.__file__.endswith('__init__.py'), scipy.special\n"
            "assert abs(scipy.special.erf(0.5) - 0.5204998778130465) < 1e-15\n"
            "assert cvmb.simulate._scipy_ufuncs().ndtri is scipy.special.ndtri\n"
        )

    def test_failed_load_leaves_no_stand_in(self):
        # a finder that refuses the compiled ufuncs: the error reaches the
        # caller, no scipy.special is left behind, and a later call loads it
        run_fresh(
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy.special._ufuncs':\n"
            "            raise ImportError('refused')\n"
            "refuse = Refuse()\n"
            "sys.meta_path.insert(0, refuse)\n"
            "import scipy\n"
            "from cvmb.simulate import SimConfig, run, _scipy_ufuncs\n"
            "config = SimConfig(r=0.5, photons=0.0, samples=1000)\n"
            "try:\n"
            "    run(config)\n"
            "except ImportError as error:\n"
            "    assert str(error) == 'refused', error\n"
            "else:\n"
            "    raise AssertionError('run did not raise')\n"
            "assert 'scipy.special' not in sys.modules, sys.modules['scipy.special']\n"
            "assert 'special' not in vars(scipy), 'stand-in bound to scipy'\n"
            "sys.meta_path.remove(refuse)\n"
            "run(config)\n"
            "assert 'scipy.special._ufuncs' in sys.modules and 'scipy.special' not in sys.modules\n"
            "assert _scipy_ufuncs() is sys.modules['scipy.special._ufuncs']\n"
        )


class TestLazyRandomImport:
    """NumPy's random module is loaded only by what draws or derives seeds,
    and ``concurrent.futures`` by nothing: sampling starts plain threads;
    ``test_scipy_special_loaded_on_first_run`` checks that ``run`` loads the
    random module and, on two workers, no pool module."""

    def test_bounds_never_load_it(self, tmp_path):
        out = str(tmp_path / "out.csv")
        check = ("assert 'numpy.random' not in sys.modules, 'loaded by {0}'\n"
                 "assert 'concurrent.futures' not in sys.modules, 'pool loaded by {0}'\n").format
        run_fresh(
            "import cvmb, cvmb.cli\n"
            + check("import")
            + f"assert cvmb.cli.main(['bounds', '--out', {out!r}]) == 0\n"
            + check("cvmb bounds")
            + f"assert cvmb.cli.main(['figure1', '--out', {out!r}]) == 0\n"
            + check("cvmb figure1")
            + "model = cvmb.DisplacementModel(cvmb.two_mode_probe(0.5, 0.1))\n"
            "cvmb.sld_bound(model), cvmb.rld_bound(model), cvmb.holevo_bound(model)\n"
            + check("the bounds")
            + "cvmb.solve_numeric(cvmb.build_problem('two_mode', 0.5))\n"
            + check("solve_numeric")
        )

    def test_derive_seed_loads_only_it(self):
        run_fresh(
            "from cvmb.simulate import derive_seed\n"
            "derive_seed(1, 0)\n"
            "assert 'numpy.random' in sys.modules, 'not loaded by derive_seed'\n"
            "assert 'scipy.special' not in sys.modules, 'loaded by derive_seed'\n"
        )


class TestKKTAudit:
    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, -0.25, -0.5, -1.0])
    def test_case_analysis(self, r):
        audit = kkt_case_audit(r)
        # case 1a candidate violates its own feasibility
        assert np.isclose(audit.case_1a_g, -1 / np.cosh(r) ** 2, atol=1e-12)
        assert audit.case_1a_g < 0
        # case 2 candidate contradicts its branch sign
        assert np.isclose(audit.case_2_g, 1 / np.sinh(r) ** 2, atol=1e-12)
        assert audit.case_2_g > 0
        # surviving branch and the spurious stationary point
        assert np.isclose(audit.bound, 4 * np.exp(-2 * abs(r)), atol=1e-12)
        assert np.isclose(audit.spurious_value, 4 * np.exp(2 * abs(r)), atol=1e-10)
        assert np.isclose(audit.optimal_multiplier, 4 * np.exp(-abs(r)) * np.cosh(r), atol=1e-12)
        assert audit.spurious_value > audit.bound
        assert audit.optimal_residual < 1e-12
        assert audit.spurious_residual < 1e-10
        assert audit.optimal_multiplier >= 0 and audit.spurious_multiplier >= 0

    def test_rejected_at_r_zero(self):
        with pytest.raises(ValueError):
            kkt_case_audit(0.0)


def outside(r, low, high):
    """Pattern of the domain error for r outside [low, high]."""
    return re.escape(f"r = {r:g} is outside [{low:g}, {high:g}]")


def beyond_squeezing_limit(r):
    """Pattern of ``cvmb.inputs.check_squeezing``'s error for |r| > MAX_SQUEEZING."""
    return re.escape(f"r = {r:g} is outside |r| <= {MAX_SQUEEZING:g}")


def below_two_mode_min_r(r):
    """Pattern of ``cvmb.inputs.check_two_mode_r``'s error for r < two_mode_min_r(0)."""
    return re.escape(f"r = {r:g} is below the limit {two_mode_min_r(0.0):g}")


class TestDomain:
    """r outside the domain raises a ValueError naming r and the limit,
    never a RuntimeWarning or a nan result."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("single", "two_mode"):
                with pytest.raises(ValueError, match="r must be finite"):
                    solve_analytic(kind, bad)
                with pytest.raises(ValueError, match="r must be finite"):
                    build_problem(kind, bad)
            with pytest.raises(ValueError, match="r must be finite"):
                kkt_case_audit(bad)

    def test_limits(self):
        low2 = two_mode_min_r(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for edge in (MAX_SQUEEZING, -MAX_SQUEEZING):
                past = np.nextafter(edge, 2 * edge)
                assert np.isfinite(solve_analytic("single", edge).bound)
                with pytest.raises(ValueError, match=beyond_squeezing_limit(past)):
                    solve_analytic("single", past)
                for kind in ("single", "two_mode"):
                    with pytest.raises(ValueError, match=beyond_squeezing_limit(past)):
                        build_problem(kind, past)
            for edge, pattern in ((low2, below_two_mode_min_r),
                                  (MAX_SQUEEZING, beyond_squeezing_limit)):
                assert np.isfinite(solve_analytic("two_mode", edge).bound)
                past = np.nextafter(edge, 2 * edge)
                with pytest.raises(ValueError, match=pattern(past)):
                    solve_analytic("two_mode", past)
            for edge in (_KKT_MAX_R, -_KKT_MAX_R):
                assert np.isfinite(kkt_case_audit(edge).spurious_residual)
                past = np.nextafter(edge, 2 * edge)
                with pytest.raises(ValueError, match=outside(past, -_KKT_MAX_R, _KKT_MAX_R)):
                    kkt_case_audit(past)
            for edge in (_KKT_MIN_R, -_KKT_MIN_R):
                assert np.isfinite(kkt_case_audit(edge).case_2_g)
                with pytest.raises(ValueError, match="csch\\^2 r overflows"):
                    kkt_case_audit(np.nextafter(edge, 0.0))
            with pytest.raises(ValueError, match=beyond_squeezing_limit(400)):
                solve_analytic("single", 400.0)
            with pytest.raises(ValueError, match=beyond_squeezing_limit(400)):
                build_problem("two_mode", 400.0)
