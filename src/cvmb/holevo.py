"""Holevo Cramér-Rao bound for pure Gaussian displacement probes.

For a pure probe the bound is a finite-dimensional minimization.  Writing
``psi_0`` for the state and ``psi_1, psi_2`` for its derivatives with
respect to the two displacement components (all at the reference point),
everything is determined by their Gram matrix.  An orthonormal basis
``{e_0, e_1, ...}`` spanning the three vectors reduces each estimator
observable ``X_j`` to the complex entries ``W[j, n] = <e_0|X_j|e_n>``
(n >= 1); all other components either vanish by the zero-mean constraint
or do not enter the objective.  In terms of ``W``:

* ``Z = W W^H`` (Hermitian, positive semidefinite),
* objective ``h = trace(Re Z) + trabs(Im Z)``, where ``Im Z`` is 2 x 2
  antisymmetric, so trabs, the sum of its absolute eigenvalues, is
  ``|Im Z[0, 1] - Im Z[1, 0]|`` (:func:`holevo_value`),
* local unbiasedness is the linear system ``2 Re(sum_n c[j, n] W[k, n]) =
  delta_jk`` where ``c[j, n]`` are the basis coordinates of ``psi_j``.

Real components are named following the convention

    W[0] = (t1 + i j1,  s1 + i k1)      (single-mode probes drop s, k)
    W[1] = (t2 + i j2,  s2 + i k2)

The Gram matrix is a plain 3 x 3 array (:func:`gram_single_mode`,
:func:`gram_two_mode`).  The constraints are the one real system
``A x = b`` of :func:`assemble_constraints`, which
:func:`constraint_residual` evaluates.  Over the real components x of W
the objective splits as ``h = f + 2 |g|`` with ``f = x . x`` and
``g = Im Z[1, 0] = (1/2) x^T S x``, where for the two-mode probe S is
``_G_FORM``, built on ``cvmb.gaussian.symplectic_form``.

For the two-mode probe the four constraints eliminate (t1, j1, t2, j2),
leaving free variables ordered ``(s1, k2, k1, s2)``, and
``g = j2 t1 - j1 t2 + k2 s1 - k1 s2`` (:func:`two_mode_g`, the paper's
scalar formula).  The analytic solver resolves the Karush-Kuhn-Tucker case
analysis of this non-smooth problem, which gives ``4 exp(-2|r|)``.

The numeric solver, :func:`solve_numeric`, checks the two-mode result
independently.  It solves the Lagrangian dual of the eliminated problem
exactly: ``f + 2|g| = max_{|t| <= 1} y^T (I + t S) y`` is convex in the
eight components y for each t, so the bound is ``max_t phi(t)`` (Holevo
1982, ch. 6; Suzuki, J. Math. Phys. 57, 042201 (2016)).  The 4 x 4 pencil
of the inner minimization is diagonalized once per solve, so a bisection
on t finds the maximum from the closed-form slope of phi.  The primal
point is the minimizer at the lower-valued bracket end, and the duality
gap between its value and the best ``phi`` certifies the bound.  The same
maximum over t, read in the moment picture, is
``cvmb.bounds.holevo_bound``, which the tests hold both solvers to.

Both solvers evaluate at reference point zero only.  A displacement
model's covariance and mean Jacobian do not depend on theta, so the
bounds and the dual homodyne's MSE are the same at every theta (Holevo
1982, ch. 6).  The simulator's direct runs at non-zero ``theta_true``
check this.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from cvmb.gaussian import symplectic_form
from cvmb.inputs import (check_probe, check_real, check_real_array, check_squeezing,
                         check_two_mode_r)

__all__ = [
    "HolevoProblem",
    "HolevoSolution",
    "KKTCaseAudit",
    "ConvergenceError",
    "gram_single_mode",
    "gram_two_mode",
    "build_problem",
    "assemble_constraints",
    "eliminate_two_mode",
    "two_mode_objective",
    "two_mode_g",
    "components_to_w",
    "z_matrix",
    "holevo_value",
    "assemble_x_operators",
    "constraint_residual",
    "solve_analytic",
    "solve_numeric",
    "kkt_case_audit",
]

# kkt_case_audit evaluates the spurious stationary point, whose stationarity
# terms grow like 2 exp(3|r|), and the case-2 point, where g = csch^2 r:
# both stay finite for _KKT_MIN_R <= |r| <= _KKT_MAX_R (the upper limit is
# (ln DBL_MAX - ln 2) / 3, less 1e-12 for rounding).
_KKT_MAX_R = (math.log(sys.float_info.max) - math.log(2.0)) / 3.0 - 1e-12
_KKT_MIN_R = 1.0 / math.sqrt(sys.float_info.max)


class ConvergenceError(RuntimeError):
    """Numeric solver failed to converge; carries the best iterate found."""

    def __init__(self, message: str, best: "HolevoSolution | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class HolevoProblem:
    """Reduced data for the pure-model minimization of a probe kind at squeezing r.

    ``psi_coords[j - 1, n - 1] = <e_n|psi_j>`` are the derivative-vector
    coordinates in the orthonormal basis (psi_0 = e_0 has no free
    coordinates), of shape (2, 1) for a single-mode probe and (2, 2) for a
    two-mode one.  They are derived from r, never given, with the basis
    split chosen so that they are real multiples of convenient units rather
    than an arbitrary Cholesky factor:

    * single: ``psi_1 = (e^r / 2) e_1``, ``psi_2 = (i e^-r / 2) e_1``
    * two_mode: ``psi_1 = (cosh r) e_1 / 2 + (sinh r) e_2 / 2``,
      ``psi_2 = i (cosh r) e_1 / 2 - i (sinh r) e_2 / 2``

    The coordinates are not compared with the Gram at run time: the tests
    hold the Gram they rebuild to :func:`gram_single_mode` and
    :func:`gram_two_mode`, entry by entry to within 1e-12 of its scale,
    over the whole range of r.  Non-finite r,
    ``|r| > cvmb.inputs.MAX_SQUEEZING`` and an unknown kind raise
    ``ValueError``.
    """

    kind: str
    r: float
    psi_coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = check_squeezing("r", self.r, 0.0)
        if check_probe("probe kind", self.kind) == "single":
            coords = np.array([[np.exp(r) / 2.0], [1j * np.exp(-r) / 2.0]])
        else:
            ch, sh = np.cosh(r), np.sinh(r)
            coords = np.array(
                [
                    [ch / 2.0, sh / 2.0],
                    [1j * ch / 2.0, -1j * sh / 2.0],
                ]
            )
        coords.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "psi_coords", coords)

    @property
    def basis_dim(self) -> int:
        """Size of the orthonormal basis {e_0, e_1, ...}."""
        return self.psi_coords.shape[1] + 1


@dataclass(frozen=True)
class HolevoSolution:
    """Result of a Holevo-bound minimization."""

    bound: float
    minimizer: np.ndarray
    z_matrix: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in {"analytic-KKT", "numeric"}:
            raise ValueError(f"unknown method {self.method!r}")
        z = np.asarray(self.z_matrix, dtype=complex)
        minimizer = np.asarray(self.minimizer, dtype=float)
        z.setflags(write=False)
        minimizer.setflags(write=False)
        object.__setattr__(self, "z_matrix", z)
        object.__setattr__(self, "minimizer", minimizer)


def gram_single_mode(r: float) -> np.ndarray:
    """Gram matrix of {psi_0, psi_1, psi_2} for the squeezed vacuum of squeezing r.

    Returns the 3 x 3 complex array ``G[j, k] = <psi_j|psi_k>``, with psi_0
    the normalized state and psi_1, psi_2 its derivatives at the reference
    point.  The derivative overlaps are ``<psi_1|psi_1> = e^2r / 4``,
    ``<psi_2|psi_2> = e^-2r / 4`` and ``<psi_1|psi_2> = i/4``; the state is
    orthogonal to both derivatives.  Non-finite r and
    ``|r| > cvmb.inputs.MAX_SQUEEZING`` raise ``ValueError``.
    """
    r = check_squeezing("r", r, 0.0)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.exp(2.0 * r) / 4.0, 0.25j],
            [0.0, -0.25j, np.exp(-2.0 * r) / 4.0],
        ],
        dtype=complex,
    )


def gram_two_mode(r: float) -> np.ndarray:
    """Gram matrix of {psi_0, psi_1, psi_2} for the two-mode squeezed vacuum probe.

    Returns the 3 x 3 complex array, laid out as in
    :func:`gram_single_mode`.  Both derivative norms are ``cosh 2r / 4``
    and the cross overlap is ``i/4``; at r = 0 this coincides with the
    single-mode Gram.  Non-finite r and ``|r| > cvmb.inputs.MAX_SQUEEZING``
    raise ``ValueError``.
    """
    r = check_squeezing("r", r, 0.0)
    d = np.cosh(2.0 * r) / 4.0
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, d, 0.25j],
            [0.0, -0.25j, d],
        ],
        dtype=complex,
    )


def build_problem(probe_kind: str, r: float) -> HolevoProblem:
    """The :class:`HolevoProblem` of ``probe_kind`` at squeezing r."""
    return HolevoProblem(probe_kind, r)


def assemble_constraints(problem: HolevoProblem) -> tuple[np.ndarray, np.ndarray]:
    """Local-unbiasedness constraints as a real linear system A x = b.

    ``x`` stacks (Re, Im) of the W components of X_1 then X_2 (see module
    docstring for the naming); rows are ordered (j, k) = (1,1), (1,2),
    (2,1), (2,2) for the conditions ``2 Re <psi_0|X_k|psi_j> = delta_jk``.
    The zero-mean conditions ``<e_0|X_j|e_0> = 0`` are built into the
    choice of components rather than into A.
    """
    coords = problem.psi_coords
    nvar_per_x = 2 * (problem.basis_dim - 1)
    a = np.zeros((4, 2 * nvar_per_x))
    b = np.zeros(4)
    row = 0
    for j in range(2):
        for k in range(2):
            base = k * nvar_per_x
            for n in range(problem.basis_dim - 1):
                a[row, base + 2 * n] = 2.0 * coords[j, n].real
                a[row, base + 2 * n + 1] = -2.0 * coords[j, n].imag
            b[row] = 1.0 if j == k else 0.0
            row += 1
    return a, b


def eliminate_two_mode(free_vars: np.ndarray, r: float) -> np.ndarray:
    """Map free variables (s1, k2, k1, s2) to the full 8-component vector.

    Solves the four constraints for (t1, j1, t2, j2)::

        t1 = sech r - s1 tanh r        j1 = k1 tanh r
        t2 = -s2 tanh r                j2 = -sech r + k2 tanh r

    ``free_vars`` must hold integers or floats, with length 4 along its first
    axis (a 4 x k array maps each column), and r must satisfy
    ``|r| <= MAX_SQUEEZING``; otherwise ``ValueError``.
    """
    free_vars = check_real_array("free_vars", free_vars)
    if free_vars.shape[:1] != (4,):
        raise ValueError(f"free_vars must have length 4 along its first axis, "
                         f"got shape {free_vars.shape}")
    s1, k2, k1, s2 = free_vars
    r = check_squeezing("r", r, 0.0)
    th = np.tanh(r)
    sc = 1.0 / np.cosh(r)
    t1 = sc - s1 * th
    j1 = k1 * th
    t2 = -s2 * th
    j2 = -sc + k2 * th
    return np.array([t1, j1, s1, k1, t2, j2, s2, k2])


def _branch_g(x: np.ndarray) -> float:
    """g = j2 t1 - j1 t2 + k2 s1 - k1 s2 of the full 8-component vector."""
    t1, j1, s1, k1, t2, j2, s2, k2 = x
    return float(j2 * t1 - j1 * t2 + k2 * s1 - k1 * s2)


def two_mode_g(free_vars: np.ndarray, r: float) -> float:
    """Branch function g = j2 t1 - j1 t2 + k2 s1 - k1 s2 (= Im Z[1, 0]).

    Inputs are checked as in :func:`eliminate_two_mode`.
    """
    return _branch_g(eliminate_two_mode(free_vars, r))


def two_mode_objective(free_vars: np.ndarray, r: float) -> float:
    """Objective h = f + 2 |g| over the eliminated two-mode variables.

    Inputs are checked as in :func:`eliminate_two_mode`.
    """
    x = eliminate_two_mode(free_vars, r)
    return float(x @ x) + 2.0 * abs(_branch_g(x))


def components_to_w(x: np.ndarray, basis_dim: int) -> np.ndarray:
    """Pack the real component vector into the complex 2 x (basis_dim - 1) W.

    ``x`` must hold integers or floats; otherwise ``ValueError``.
    """
    x = check_real_array("x", x)
    n = basis_dim - 1
    if x.size != 4 * n:
        raise ValueError(f"expected {4 * n} components, got {x.size}")
    w = x.reshape(2, n, 2)
    return w[..., 0] + 1j * w[..., 1]


def z_matrix(w: np.ndarray) -> np.ndarray:
    """Z = W W^H: second moments of the estimator observables."""
    w = np.asarray(w, dtype=complex)
    return w @ w.conj().T


def holevo_value(z: np.ndarray) -> float:
    """Objective value trace(Re Z) + trabs(Im Z) of a candidate 2 x 2 Hermitian Z.

    ``Im Z`` is antisymmetric, so ``trabs(Im Z) = |Im Z[0, 1] - Im Z[1, 0]|``.
    A z of another shape raises ``ValueError``.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (2, 2):
        raise ValueError(f"z must be a 2 x 2 matrix, got shape {z.shape}")
    return float(np.trace(z.real) + abs(z.imag[0, 1] - z.imag[1, 0]))


def assemble_x_operators(problem: HolevoProblem, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build the full Hermitian X_1, X_2 in the orthonormal basis.

    Row/column 0 carries the W components (with ``<e_0|X_j|e_0> = 0``).
    The block on the derivative subspace does not enter Z for a pure state
    and is left zero.
    """
    bd = problem.basis_dim
    ops = []
    for j in range(2):
        x = np.zeros((bd, bd), dtype=complex)
        x[0, 1:] = w[j]
        x[1:, 0] = w[j].conj()
        ops.append(x)
    return ops[0], ops[1]


def constraint_residual(problem: HolevoProblem, w: np.ndarray) -> float:
    """Worst violation ``max |A x - b|`` of :func:`assemble_constraints` for a W."""
    a, b = assemble_constraints(problem)
    w = np.asarray(w)
    x = np.stack([w.real, w.imag], axis=-1).ravel()
    return float(np.max(np.abs(a @ x - b)))


def solve_analytic(probe_kind: str, r: float) -> HolevoSolution:
    """Closed-form Holevo bound from the KKT case analysis.

    * single: the constraints fix everything, ``x = (e^-r, 0, 0, -e^r)``;
      bound ``2 + 2 cosh 2r`` with ``Z = [[e^-2r, i], [-i, e^2r]]``.
    * two_mode: the only KKT point that survives the case analysis (see
      :func:`kkt_case_audit`) sits on the g = 0 boundary at
      ``s1 = k2 = sign(r) e^-|r|``, ``k1 = s2 = 0``; bound ``4 exp(-2|r|)``
      with ``Z = 2 e^-2|r| I``.  At r < 0 the two g = 0 stationary points
      trade places: ``s1 = k2 = e^-r`` gives ``4 exp(-2r)``, the larger
      value.  At r = 0 the problem degenerates to the single-mode
      (coherent-probe) case and the same expression applies.

    r must be finite with ``|r| <= cvmb.inputs.MAX_SQUEEZING`` (about
    354.9), where ``cosh 2r`` stays finite; the two-mode bound also needs
    ``r >= cvmb.inputs.two_mode_min_r(0)`` (about -354.2), the range of the
    dual-homodyne MSE ``4 exp(-2r)``.  Other r raise ``ValueError``.  On
    this domain the bound equals ``cvmb.bounds.closed_form_holevo(r, 0,
    probe_kind)`` bit for bit; the tests check that.
    """
    r = check_squeezing("r", r, 0.0)
    if check_probe("probe kind", probe_kind) == "single":
        x = np.array([np.exp(-r), 0.0, 0.0, -np.exp(r)])
        z = np.array(
            [[np.exp(-2.0 * r), 1.0j], [-1.0j, np.exp(2.0 * r)]], dtype=complex
        )
        bound = 2.0 + 2.0 * np.cosh(2.0 * r)
        return HolevoSolution(float(bound), x, z, "analytic-KKT")
    check_two_mode_r("r", r, 0.0)
    u = np.exp(-r) if r >= 0 else -np.exp(r)
    free = np.array([u, u, 0.0, 0.0])
    z = 2.0 * np.exp(-2.0 * abs(r)) * np.eye(2, dtype=complex)
    bound = 4.0 * np.exp(-2.0 * abs(r))
    return HolevoSolution(float(bound), free, z, "analytic-KKT")


# S with ``g = Im Z[1, 0] = (1/2) y^T S y`` over the two-mode components
# y = (t1, j1, s1, k1, t2, j2, s2, k2), where g = j2 t1 - j1 t2 + k2 s1 - k1 s2.
# With y = (u, v) split into the components of X_1 and X_2,
# Im Z[1, 0] = u^T Omega v for the two-mode symplectic form Omega, so
# S = [[0, Omega], [Omega^T, 0]].  S has eigenvalues +-1, so
# f + 2 t g = y^T (I + t S) y is convex in y for |t| <= 1.
_G_FORM = np.block([[np.zeros((4, 4)), symplectic_form(2)],
                    [symplectic_form(2).T, np.zeros((4, 4))]])

# the dual bisection stops once its bracket on t is this narrow
_T_RESOLUTION = 2.0 ** -52
# largest duality gap, relative to the bound, that certifies a dual solve;
# relative so that the certificate keeps its meaning where C_H is tiny
_GAP_RTOL = 1e-12


class _DualPoint(NamedTuple):
    """The minimizer x of ``y^T (I + t S) y`` at one t, with y, g and phi there."""

    t: float
    x: np.ndarray
    y: np.ndarray
    g: float
    phi: float


def _dual_pencil(r: float):
    """Factor the two-mode dual's pencil once; return ``slope(t)`` and ``point(t)``.

    The elimination is affine, ``y = E x + d``, so
    ``y^T (I + t S) y = x^T (m0 + t m1) x + 2 x^T (b0 + t b1) + d^T (I + t S) d``
    with ``m0 = E^T E`` positive definite, ``m1 = E^T S E`` symmetric,
    ``b0 = E^T d`` and ``b1 = E^T S d``.  With ``L = cholesky(m0)``,
    ``(lam, Q) = eigh(L^-1 m1 L^-T)`` and ``P = L^-T Q``, the pencil is
    diagonal: ``P^T m0 P = I`` and ``P^T m1 P = diag(lam)``.  The minimizer
    at t is then ``x(t) = -P u(t)`` with
    ``u_i = (beta0_i + t beta1_i) / (1 + t lam_i)``, where
    ``beta0 = P^T b0`` and ``beta1 = P^T b1``, and the slope of phi is
    ``phi'(t) / 2 = (d^T S d - sum_i (2 beta1_i - lam_i u_i) u_i) / 2``.

    ``slope(t)`` is that closed form on Python floats; ``point(t)`` builds
    the :class:`_DualPoint`, with g from y.
    """
    d = eliminate_two_mode(np.zeros(4), r)
    # row i of eye(4) is free variable i across the columns, so the 8 x 4
    # result has column j = eliminate_two_mode(e_j)
    e = eliminate_two_mode(np.eye(4), r) - d[:, None]
    l_inv = np.linalg.inv(np.linalg.cholesky(e.T @ e))
    lam, q = np.linalg.eigh(l_inv @ (e.T @ _G_FORM @ e) @ l_inv.T)
    p = l_inv.T @ q
    beta0, beta1 = p.T @ (e.T @ d), p.T @ (e.T @ _G_FORM @ d)
    d_s_d = float(d @ _G_FORM @ d)
    terms = list(zip(lam.tolist(), beta0.tolist(), beta1.tolist()))

    def slope(t):
        total = d_s_d
        for lam_i, beta0_i, beta1_i in terms:
            u_i = (beta0_i + t * beta1_i) / (1.0 + t * lam_i)
            total -= (2.0 * beta1_i - lam_i * u_i) * u_i
        return 0.5 * total

    def point(t):
        x = -(p @ ((beta0 + t * beta1) / (1.0 + t * lam)))
        y = e @ x + d
        g = 0.5 * float(y @ _G_FORM @ y)
        return _DualPoint(t, x, y, g, float(y @ y) + 2.0 * t * g)

    return slope, point


def solve_numeric(problem: HolevoProblem) -> HolevoSolution:
    """Minimize the two-mode Holevo objective numerically, independently of the KKT analysis.

    The problem is solved exactly through its Lagrangian dual.  For each t,
    ``phi(t) = min_x y^T (I + t S) y`` over the free variables x, with
    ``y = E x + d`` the eliminated components.  As
    ``f + 2|g| = max_{|t| <= 1} (f + 2 t g)`` and ``f + 2 t g`` is convex
    in x for each such t, ``C_H = max_t phi(t)`` (Sion's minimax theorem).
    phi is concave with ``phi'(t) = 2 g(x(t))``, so its maximum is found by
    bisection on the sign of g.  The pencil ``m0 + t m1`` of the inner
    minimization is factored once per solve (:func:`_dual_pencil`); each
    bisection step then evaluates g in closed form on four scalars.  The
    ends t = +-1 are never evaluated: the pencil is singular there.

    Every minimizer x(t) meets the constraints, so its value ``f + 2|g|``
    bounds C_H from above, as each phi(t) bounds it from below.  At an end
    of the final bracket the value exceeds phi there by ``2 (|g| - t g)``,
    which vanishes with g.  g changes sign across the bracket, but where
    t* nears -1, as it does for small |r|, it can differ by orders of
    magnitude between the two ends (2.2e-7 and -4.4e-16 at r = 1e-9).  The
    primal point is therefore the minimizer at the evaluated end with the
    lower value; the bracket leaves one end where g was exactly 0 at a step
    or where it collapsed onto t = +-1, as at r = 0.  The duality gap, that
    value less the best phi seen, certifies the bound.

    The diagnostics report ``t``, ``g`` (``Im Z[1, 0]`` at the minimizer),
    ``duality_gap`` and ``constraint_residual``.  The Hermitian blocks of
    the X operators on the derivative subspace do not enter Z for a pure
    state, so the solve does not carry them.

    Raises:
        ValueError: the problem is single-mode, where the constraints leave
            no free variable; :func:`solve_analytic` states its solution.
        ConvergenceError: the dual solve left a duality gap above 1e-12 of
            the bound, and the error's ``best`` attribute carries the point
            found; or the slope of the dual was not finite.
    """
    if problem.kind != "two_mode":
        raise ValueError(f"a {problem.kind!r} problem has no free variables to solve for; "
                         "solve_analytic states its solution")
    r = problem.r
    slope, point = _dual_pencil(r)

    t_lo, t_hi = -1.0, 1.0
    while t_hi - t_lo > _T_RESOLUTION:
        t = 0.5 * (t_lo + t_hi)
        g = slope(t)
        if not math.isfinite(g):
            raise ConvergenceError(f"the dual slope is {g} at t = {t!r}, r = {r:g}")
        if g >= 0:  # phi does not decrease at t: its maximum is not below
            t_lo = t
        if g <= 0:
            t_hi = t

    ends = [point(t) for t in dict.fromkeys((t_lo, t_hi)) if -1.0 < t < 1.0]
    x = min(ends, key=lambda end: float(end.y @ end.y) + 2.0 * abs(end.g)).x
    w = components_to_w(eliminate_two_mode(x, r), problem.basis_dim)
    z = z_matrix(w)
    bound = holevo_value(z)
    best = max(ends, key=lambda end: end.phi)
    gap = bound - best.phi
    solution = HolevoSolution(
        bound, x, z, "numeric",
        {"t": best.t, "g": float(z[1, 0].imag),
         "duality_gap": gap, "constraint_residual": constraint_residual(problem, w)},
    )
    if not gap <= _GAP_RTOL * bound:
        raise ConvergenceError(f"duality gap {gap:.3e} exceeds {_GAP_RTOL:g} of the "
                               f"bound {bound:.6e} at r = {r:g}", best=solution)
    return solution


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    Nothing in the package calls it.  It stays only because the benchmark
    tracer (``perfbench/tracing.py``) wraps ``cvmb.holevo:minimize`` by
    name, as ``cvmb.cli`` keeps its uncalled ``run`` and ``solve_analytic``
    imports, and it goes when the tracer stops wrapping it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class KKTCaseAudit:
    """Candidate-by-candidate record of the two-mode KKT case analysis.

    Case 1 minimizes f + 2g subject to g >= 0 with multiplier lam;
    case 2 minimizes f - 2g on g < 0, which forces lam = 0.  Stationary
    candidates are checked against the explicit linear system; residuals
    are max-norm violations of that system.
    """

    r: float
    case_1a_g: float            # g at the lam = 0 candidate (negative: infeasible)
    case_2_g: float             # g at the case-2 candidate (positive: contradiction)
    bound: float                # h on the surviving branch, 4 exp(-2|r|)
    spurious_value: float       # h on the other g = 0 branch, 4 exp(+2|r|)
    optimal_multiplier: float   # lam = 4 e^-|r| cosh r
    spurious_multiplier: float  # lam = 4 e^+|r| cosh r
    optimal_residual: float
    spurious_residual: float


def _case1_stationarity_residual(free: np.ndarray, lam: float, r: float) -> float:
    """Residual of the case-1 stationarity system at a candidate point."""
    c2 = np.cosh(2.0 * r)
    sh = np.sinh(r)
    m = np.array(
        [
            [-2.0 * c2, lam - 2.0, 0.0, 0.0],
            [lam - 2.0, -2.0 * c2, 0.0, 0.0],
            [0.0, 0.0, 2.0 * c2, lam - 2.0],
            [0.0, 0.0, lam - 2.0, 2.0 * c2],
        ]
    )
    rhs = np.array([-lam * sh, -lam * sh, 0.0, 0.0])
    return float(np.max(np.abs(m @ np.asarray(free) - rhs)))


def kkt_case_audit(r: float) -> KKTCaseAudit:
    """Evaluate every KKT candidate of the two-mode minimization at r != 0.

    * case 1a (lam = 0, all free variables zero): g = -sech^2 r < 0,
      infeasible for the g >= 0 branch.
    * case 1b (g = 0): two stationary points, s1 = k2 = e^-r with
      h = 4 e^-2r and s1 = k2 = -e^r with h = 4 e^+2r.  The first is the
      minimum for r > 0 and the second for r < 0; the audit reports the
      minimum as ``bound`` and the other, stationary but larger, as
      ``spurious_value``, each with its multiplier and residual.
    * case 2 (g < 0 forces lam = 0): the candidate s1 = k2 = csch r gives
      g = csch^2 r > 0, contradicting its own branch.

    Non-finite r and ``|r| > 236.36``, where the spurious point's terms of
    order ``exp(3|r|)`` overflow, raise ``ValueError``, as do r = 0 and
    ``0 < |r| < 7.5e-155``, where ``csch^2 r`` overflows.
    """
    r = check_real("r", r)
    if not -_KKT_MAX_R <= r <= _KKT_MAX_R:
        raise ValueError(f"r = {r:g} is outside [{-_KKT_MAX_R:g}, {_KKT_MAX_R:g}], "
                         "where the spurious point's exp(3|r|) terms stay finite")
    if r == 0:
        raise ValueError("the case analysis assumes r != 0; at r = 0 the problem "
                         "reduces to the coherent single-mode case")
    if abs(r) < _KKT_MIN_R:
        raise ValueError(f"r = {r:g} is inside |r| < {_KKT_MIN_R:g}, where csch^2 r overflows")
    zeros = np.zeros(4)
    case_1a_g = two_mode_g(zeros, r)

    csch = 1.0 / np.sinh(r)
    case_2_point = np.array([csch, csch, 0.0, 0.0])
    case_2_g = two_mode_g(case_2_point, r)

    # the two g = 0 stationary points; at r < 0 they swap roles
    u_opt, u_sp = np.exp(-r), -np.exp(r)
    lam_opt, lam_sp = 4.0 * np.exp(-r) * np.cosh(r), 4.0 * np.exp(r) * np.cosh(r)
    if r < 0:
        u_opt, u_sp, lam_opt, lam_sp = u_sp, u_opt, lam_sp, lam_opt
    opt_point = np.array([u_opt, u_opt, 0.0, 0.0])
    sp_point = np.array([u_sp, u_sp, 0.0, 0.0])

    return KKTCaseAudit(
        r=r,
        case_1a_g=case_1a_g,
        case_2_g=case_2_g,
        bound=two_mode_objective(opt_point, r),
        spurious_value=two_mode_objective(sp_point, r),
        optimal_multiplier=float(lam_opt),
        spurious_multiplier=float(lam_sp),
        optimal_residual=_case1_stationarity_residual(opt_point, lam_opt, r),
        spurious_residual=_case1_stationarity_residual(sp_point, lam_sp, r),
    )
