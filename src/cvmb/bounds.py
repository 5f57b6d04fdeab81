"""Classical, SLD and RLD Cramér-Rao bounds for Gaussian displacement models.

The figure of merit is the summed mean squared error of the two
displacement components (q, p).  For a probe with covariance V and mean
Jacobian J (columns = derivative of the mean vector with respect to each
parameter), both moment bounds are values of one function of t in [0, 1]:

    rho(t) = trace(Re G_t) + trabs(Im G_t),   G_t = (J^T (V + i t Omega)^-1 J)^-1,

where ``trabs`` is the sum of absolute eigenvalues.  The SLD bound is
``rho(0) = trace((J^T V^-1 J)^-1)`` and the RLD bound is ``rho(1)``; the
maximum of rho over [0, 1] is the Holevo bound of this two-parameter model
(compare Suzuki, J. Math. Phys. 57, 042201 (2016)).  Displacement leaves
the covariance constant, so rho is independent of the true parameter value.

``V + i Omega`` is singular exactly for pure probes; rho(1) is then defined
as the N -> 0 limit of the mixed-probe value.  A square J (single-mode
model) gives ``G_1 = J^-1 (V + i Omega) J^-T`` directly, which continues
the formula across the singularity.  A non-square J gives 0 (vacuous): the
limit when the inverse information vanishes, as for the two-mode probe at
r != 0, but not for every pure probe, as a squeezed mode beside an
uncoupled vacuum mode keeps its single-mode value in the limit.  At the
unsqueezed pure two-mode probe (r, N) = (0, 0) the RLD bound is therefore
0, the limit along N = 0; along r = 0 the limit is 4, the value
``4 (1 + N)`` at every N > 0.  A solve that fails, as for a singular V,
which no state has, raises ``DegenerateModelError`` from either bound; at
t = 1 such a V is never solved, since ``V + i Omega`` is then indefinite.

Thermal frame.  The probes the package builds carry their Williamson
factors, ``V = S diag(nu) S^T`` with ``nu = 1 + 2N`` (see
``cvmb.gaussian.GaussianState``).  Since ``S Omega S^T = Omega``, G_t is
that of the thermal state ``diag(nu)`` with the Jacobian ``J' = S^-1 J``,
which is read off two rows of S exactly (``S^-1 = -Omega S^T Omega``).  Per
mode, ``diag(nu) + i t Omega`` has the eigenvalues ``nu +- t``, taken as
``2 (N + (1 +- t) / 2)`` so that ``nu - 1`` is never formed, on the vectors
``(1, -+i) / sqrt(2)``:

* one mode: ``J' = S^-1``, so ``G_t = V + i t Omega`` and
  ``rho(t) = nu ||S||_F^2 + 2t``;
* more modes: G_t from a QR of the rows of J' in that eigenbasis, each
  divided by the square root of its eigenvalue; at t = 1 and N = 0 the
  bound is 0, as above.

Nothing here cancels, so for the factored probes the test suite requires
both bounds to agree with the closed forms below to a relative 1e-12 over
the whole domain: ``|r|`` up to 340 and N from 0 through 1e-13 up to 1e6,
for both probes.  A probe given only by its covariance is solved from
``V + i t Omega``, whose entries are of size ``cosh 2r`` while the smallest
eigenvalue of V is about ``e^-2|r|``: that path loses about
``eps e^(4|r|)`` relative (1e-12 at |r| = 3, 1e-3 at 8), fails from |r| of
about 20, and its RLD counts a mixed multi-mode probe as pure, and returns
0, once the smallest eigenvalue of ``V + i Omega`` falls below 1e-12 of the
largest (at r = 3 for every N up to 1e-8).

Closed forms for squeezed thermal probes of squeezing r and thermal
occupation N (``c = cosh 2r``):

* single mode:  C_S = (2 + 4N) c,        C_R = 2 + (2 + 4N) c
* two mode:     C_S = (2 + 4N) / c,      C_R = 8N(1 + N) / (2N c + 2 sinh^2 r)

The two-mode RLD denominator equals ``(1 + 2N) c - 1``; written as a sum of
non-negative terms it keeps full precision as N -> 0 at small r.

The Holevo bound C_H (``closed_form_holevo``) is C_R for one mode at every
N, and ``4 exp(-2|r|)`` for the pure two-mode probe; the mixed two-mode
C_H has no closed form here.

At N = 0 the two-mode RLD bound is vacuous: zero for every r.  At the
origin (r, N) = (0, 0) it is pinned to 0, the limit along N = 0; the
limit along r = 0 is 4, the value ``4 (1 + N)`` at every N > 0.

Domain.  The thermal occupation is at most ``MAX_PHOTONS`` (1e100), far
beyond any physical probe; below it ``8N(1 + N)`` and the simulator's fourth
moments stay finite (the simulator overflows from about N = 1e150).  The
closed forms accept ``|r| <= squeezing_limit(N)``: the largest of them,
``(2 + 4N) cosh 2r``, is about ``(1 + 2N) exp(2|r|)`` and overflows a double
beyond it.  At N = 0 the limit is ``MAX_SQUEEZING`` (about 354.9).  The
two-mode dual-homodyne MSE ``(8N + 4) exp(-2r)``, at N = 0 also the Holevo
bound, is four times larger at negative r and needs
``r >= two_mode_min_r(N)`` (about -354.2 at N = 0).  Each of these rules,
and the type rules below them, is written once, in a check function here
that names the setting, converts the value and raises ``ValueError`` otherwise:
``check_real`` (a finite real, not a ``bool``, returned as a Python float,
so NumPy scalars compute exactly as the equal Python number),
``check_integer``, ``check_photons`` (``0 <= N <= MAX_PHOTONS``),
``check_squeezing`` (``|r| <= squeezing_limit(N)``), ``check_two_mode_r``
(``r >= two_mode_min_r(N)``) and ``check_seed`` (64-bit unsigned).  Every
entry point of the package that takes these numbers calls them, and the
``cvmb`` command turns the ``ValueError`` into exit code 1.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from cvmb.gaussian import (
    GaussianState,
    apply,
    make_thermal,
    single_mode_squeezer,
    symplectic_form,
    two_mode_squeezer,
)

MAX_PHOTONS = 1e100

_LN_DBL_MAX = math.log(sys.float_info.max)
# keeps the rounding of r, 2r and cosh 2r from overflowing at the very edge
_EDGE_MARGIN = 1e-12


def squeezing_limit(mean_photons: float = 0.0) -> float:
    """Largest |r| at which the closed forms stay finite at occupation N.

    ``(ln DBL_MAX - ln(1 + 2N)) / 2``, less a margin of 1e-12 for rounding;
    see the module docstring.
    """
    return 0.5 * (_LN_DBL_MAX - math.log1p(2.0 * mean_photons)) - _EDGE_MARGIN


def two_mode_min_r(mean_photons: float = 0.0) -> float:
    """Most negative r at which ``(8N + 4) exp(-2r)`` stays finite."""
    return math.log(2.0) - squeezing_limit(mean_photons)


MAX_SQUEEZING = squeezing_limit(0.0)


def check_real(name: str, value) -> float:
    """``value`` as a Python float; ``ValueError`` unless it is a finite real.

    ``bool`` is rejected although Python counts it as a number.
    """
    # float first: it decides the common case without the slower ABC check
    if not isinstance(value, (float, numbers.Real)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the double range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def check_integer(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` unless it is a (NumPy) integer.

    ``bool`` is rejected although Python counts it as an integer.
    """
    if not isinstance(value, (int, numbers.Integral)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_photons(name: str, value) -> float:
    """A thermal occupation N as a float, checked for ``0 <= N <= MAX_PHOTONS``."""
    n = check_real(name, value)
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n:g}")
    if n > MAX_PHOTONS:
        raise ValueError(f"{name} = {n:g} is above the limit {MAX_PHOTONS:g}")
    return n


def check_squeezing(name: str, value, mean_photons: float) -> float:
    """A squeezing r as a float, checked for ``|r| <= squeezing_limit(N)``."""
    r = check_real(name, value)
    limit = squeezing_limit(mean_photons)
    if abs(r) > limit:
        raise ValueError(f"{name} = {r:g} is outside |r| <= {limit:g}, "
                         f"where the closed forms at N = {mean_photons:g} stay finite")
    return r


def check_two_mode_r(name: str, value, mean_photons: float) -> float:
    """A squeezing r as a float, checked for ``r >= two_mode_min_r(N)``."""
    r = check_real(name, value)
    limit = two_mode_min_r(mean_photons)
    if r < limit:
        raise ValueError(f"{name} = {r:g} is below the limit {limit:g}, past which "
                         f"(8N + 4) exp(-2r) at N = {mean_photons:g} overflows")
    return r


def check_seed(name: str, value) -> int:
    """A seed as an int, checked to be a 64-bit unsigned integer."""
    seed = check_integer(name, value)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return seed


__all__ = [
    "MAX_PHOTONS",
    "MAX_SQUEEZING",
    "squeezing_limit",
    "two_mode_min_r",
    "check_real",
    "check_integer",
    "check_photons",
    "check_squeezing",
    "check_two_mode_r",
    "check_seed",
    "BoundResult",
    "DisplacementModel",
    "DegenerateModelError",
    "single_mode_probe",
    "two_mode_probe",
    "trabs",
    "sld_bound",
    "rld_bound",
    "closed_form_bounds",
    "closed_form_holevo",
    "classical_fisher_gaussian",
    "dual_homodyne_mse_analytic",
]

# relative threshold below which V + i Omega is treated as singular (pure probe)
_PURE_EIG_TOL = 1e-12


class DegenerateModelError(ValueError):
    """Raised when a bound is requested for a covariance that is singular or unphysical."""


@dataclass(frozen=True)
class DisplacementModel:
    """A Gaussian probe undergoing an unknown displacement on one mode.

    The estimated parameters are the (q, p) shift of ``displaced_mode``,
    so the mean Jacobian has the two unit vectors of that mode's
    quadratures as columns and the covariance carries no parameter
    dependence.
    """

    probe: GaussianState
    displaced_mode: int = 0

    def __post_init__(self):
        mode = check_integer("displaced_mode", self.displaced_mode)
        object.__setattr__(self, "displaced_mode", mode)
        if not 0 <= self.displaced_mode < self.probe.num_modes:
            raise ValueError(
                f"mode {self.displaced_mode} out of range for "
                f"{self.probe.num_modes}-mode probe"
            )

    @property
    def mean_jacobian(self) -> np.ndarray:
        """2m x 2 matrix with columns d(mean)/dq and d(mean)/dp."""
        jac = np.zeros((self.probe.mean.size, 2))
        jac[2 * self.displaced_mode, 0] = 1.0
        jac[2 * self.displaced_mode + 1, 1] = 1.0
        return jac


@dataclass(frozen=True)
class BoundResult:
    """A lower bound on the summed MSE, tagged with its kind."""

    value: float
    kind: str

    def __post_init__(self):
        if self.kind not in {"classical", "SLD", "RLD", "Holevo", "dual-homodyne-analytic"}:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"bound value must be finite and non-negative, got {self.value}")


def single_mode_probe(r: float, mean_photons: float = 0.0) -> GaussianState:
    """Squeezed thermal state: squeezer(r) applied to a thermal state."""
    return apply(single_mode_squeezer(r), make_thermal(mean_photons, 1))


def two_mode_probe(r: float, mean_photons: float = 0.0) -> GaussianState:
    """Two-mode squeezed thermal state (EPR state for N = 0)."""
    return apply(two_mode_squeezer(r), make_thermal(mean_photons, 2))


def trabs(matrix: np.ndarray) -> float:
    """Sum of the absolute eigenvalues, computed as the sum of singular values.

    The two agree for the normal (Hermitian or real antisymmetric)
    matrices this package produces.
    """
    return float(np.linalg.svd(matrix, compute_uv=False).sum())


def _inverse_gram_traces(rows: list[tuple[complex, complex]]) -> tuple[float, float]:
    """``(trace Re Ginv, trabs Im Ginv)`` of ``Ginv = (B^H B)^-1`` for an n x 2 matrix B.

    B is given as its n rows, real or complex.  From the Householder QR
    ``B = QR`` of B with each column scaled by its largest entry, so R
    neither overflows nor underflows, and the rows sorted by decreasing
    size, so graded rows keep their relative accuracy.  Then
    ``Ginv = R^-1 R^-H``: the trace of its real part is a sum of squared
    moduli of ``R^-1``, and its imaginary part is antisymmetric, with
    ``trabs = 2 |Im Ginv[0, 1]|``.  Nothing cancels.  A 2-column QR is a
    few scalar steps, cheaper in plain Python than a LAPACK call.
    """
    cx = max(abs(u) for u, _ in rows)
    cy = max(abs(v) for _, v in rows)
    rows = sorted(((u / cx, v / cy) for u, v in rows),
                  key=lambda row: max(abs(row[0]), abs(row[1])), reverse=True)
    # the reflection I - w w^H / h maps the first column to (r00, 0, ..., 0)
    x0 = rows[0][0]
    norm = math.sqrt(sum(abs(u) ** 2 for u, _ in rows))
    r00 = -norm * (x0 / abs(x0) if x0 else 1.0)
    h = norm * (norm + abs(x0))
    coef = ((x0 - r00).conjugate() * rows[0][1]
            + sum(u.conjugate() * v for u, v in rows[1:])) / h
    r01 = rows[0][1] - (x0 - r00) * coef
    r11 = math.sqrt(sum(abs(v - u * coef) ** 2 for u, v in rows[1:]))
    # R^-1 = [[i00, i01], [0, i11]], then undo the column scaling
    i00, i11 = 1.0 / r00, 1.0 / r11
    i01 = -r01 * i00 * i11
    re = (abs(i00) ** 2 + abs(i01) ** 2) / cx / cx + i11 ** 2 / cy / cy
    im = 2.0 * abs((i01 * i11).imag) / cx / cy
    return float(re), float(im)


def _moment_bound(model: DisplacementModel, t: float) -> float:
    """``rho(t) = trace(Re G_t) + trabs(Im G_t)`` for 0 <= t <= 1; see the module docstring.

    A factored probe is read in its thermal frame.  There mode j has the
    rows ``Q = (b[2j + 1], -a[2j + 1])`` and ``P = (-b[2j], a[2j])`` of J',
    with a and b the rows of S of the displaced mode, and G_t is ``Ginv``
    of :func:`_inverse_gram_traces` for the rows ``(Q + iP) w+`` and
    ``(Q - iP) w-``, with ``w+- = 0.5 / sqrt(N + (1 +- t) / 2)``.

    A bare covariance is solved from ``A = V + i t Omega``.  At t = 1 a
    square J takes ``J^-1 A J^-T``, and a non-square J counts A as pure,
    and gives 0, when its smallest eigenvalue is below ``1e-12`` of its
    largest.  A solve that fails raises ``DegenerateModelError``.
    """
    frame = model.probe.williamson
    if frame is not None:
        n = frame.mean_photons
        k = model.displaced_mode
        a, b = frame.symplectic[2 * k : 2 * k + 2].tolist()
        if len(a) == 2:
            # ||S||_F^2, its four squares summed in NumPy's order
            frobenius = a[0] * a[0] + a[1] * a[1] + b[0] * b[0] + b[1] * b[1]
            return (1.0 + 2.0 * n) * frobenius + 2.0 * t
        if n + (1.0 - t) / 2 == 0:
            return 0.0
        plus, minus = 0.5 / math.sqrt(n + (1.0 + t) / 2), 0.5 / math.sqrt(n + (1.0 - t) / 2)
        rows = []
        for j in range(0, len(a), 2):
            qu, qv, pu, pv = b[j + 1], -a[j + 1], -b[j], a[j]
            rows += [(complex(qu, pu) * plus, complex(qv, pv) * plus),
                     (complex(qu, -pu) * minus, complex(qv, -pv) * minus)]
        re, im = _inverse_gram_traces(rows)
        return re + im
    jac = model.mean_jacobian
    a = model.probe.cov + 1j * t * symplectic_form(model.probe.num_modes)
    if t == 1:
        if jac.shape[0] == jac.shape[1]:
            jinv = np.linalg.inv(jac)
            ginv = jinv @ a @ jinv.T
            return float(np.trace(ginv.real)) + trabs(ginv.imag)
        eigs = np.linalg.eigvalsh(a)
        if eigs.min() < _PURE_EIG_TOL * eigs.max():
            return 0.0
    try:
        ginv = np.linalg.inv(jac.T @ np.linalg.solve(a, jac))
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError("probe covariance is singular") from exc
    return float(np.trace(ginv.real)) + trabs(ginv.imag)


def sld_bound(model: DisplacementModel) -> BoundResult:
    """The SLD bound ``rho(0) = trace((J^T V^-1 J)^-1)``; see the module docstring."""
    return BoundResult(_moment_bound(model, 0.0), "SLD")


def rld_bound(model: DisplacementModel) -> BoundResult:
    """The RLD bound ``rho(1)``; see the module docstring."""
    return BoundResult(_moment_bound(model, 1.0), "RLD")


def closed_form_bounds(r: float, mean_photons: float, probe_kind: str) -> tuple[float, float]:
    """Closed-form (C_S, C_R) for the squeezed thermal probes.

    Args:
        r (float): squeezing parameter
        mean_photons (float): thermal occupation 0 <= N <= MAX_PHOTONS
        probe_kind (str): "single" or "two_mode"

    Returns:
        tuple: (SLD bound, RLD bound)

    The two-mode RLD bound is 0 at N = 0 for every r, the origin
    (r, N) = (0, 0) included: there 0 is the limit along N = 0, while the
    limit along r = 0 is 4.
    """
    n = check_photons("mean_photons", mean_photons)
    r = check_squeezing("r", r, n)
    c = np.cosh(2.0 * r)
    if probe_kind == "single":
        c_s = (2.0 + 4.0 * n) * c
        return float(c_s), float(2.0 + c_s)
    if probe_kind == "two_mode":
        c_s = (2.0 + 4.0 * n) / c
        if n == 0:
            # numerator 8N(1+N) vanishes; value 0 for every r, extended
            # to r = 0 by continuity along the N = 0 curve
            return float(c_s), 0.0
        c_r = 8.0 * n * (1.0 + n) / (2.0 * n * c + 2.0 * np.sinh(r) ** 2)
        return float(c_s), float(c_r)
    raise ValueError(f"unknown probe kind {probe_kind!r}")


def closed_form_holevo(r: float, mean_photons: float, probe_kind: str) -> float | None:
    """Closed-form Holevo bound C_H for the squeezed thermal probes, or None.

    Args:
        r (float): squeezing parameter
        mean_photons (float): thermal occupation 0 <= N <= MAX_PHOTONS
        probe_kind (str): "single" or "two_mode"

    Returns:
        float or None: the Holevo bound where a closed form is known

    * single: the closed-form C_R at every N.  For one mode
      ``rho(t) = nu ||S||_F^2 + 2t`` rises with t, so its maximum over
      [0, 1] is ``rho(1)``; the dual homodyne attains it.
    * two_mode at N = 0: ``4 exp(-2|r|)``, the paper's bound.
    * two_mode at N > 0: None; the mixed two-mode bound has no closed form here.

    The domain is that of the columns it fills: ``|r| <= squeezing_limit(N)``,
    and for two modes also ``r >= two_mode_min_r(N)``, where the dual-homodyne
    MSE beside it stays finite.
    """
    n = check_photons("mean_photons", mean_photons)
    r = check_squeezing("r", r, n)
    if probe_kind == "single":
        return closed_form_bounds(r, n, "single")[1]
    if probe_kind == "two_mode":
        check_two_mode_r("r", r, n)
        return float(4.0 * np.exp(-2.0 * abs(r))) if n == 0 else None
    raise ValueError(f"unknown probe kind {probe_kind!r}")


def classical_fisher_gaussian(mean_jacobian: np.ndarray, outcome_cov: np.ndarray) -> np.ndarray:
    """Classical Fisher information of a Gaussian outcome model.

    For outcomes distributed as ``N(D theta + const, Sigma)`` with
    parameter-independent Sigma, the Fisher matrix is ``D^T Sigma^-1 D``.

    Args:
        mean_jacobian (array): outcome-mean Jacobian D
        outcome_cov (array): positive definite outcome covariance Sigma

    Returns:
        array: 2x2 Fisher information matrix
    """
    d = np.asarray(mean_jacobian, dtype=float)
    sigma = np.asarray(outcome_cov, dtype=float)
    eigs = np.linalg.eigvalsh(sigma)
    if eigs.min() <= 0:
        raise DegenerateModelError("outcome covariance must be positive definite")
    return d.T @ np.linalg.solve(sigma, d)


def dual_homodyne_mse_analytic(r: float, mean_photons: float = 0.0) -> BoundResult:
    """Summed MSE of the balanced dual homodyne on the two-mode probe.

    Equals ``(8N + 4) exp(-2r)``: both quadrature readouts see the
    squeezed variance ``(2N + 1) e^-2r`` and the inversion to (q, p)
    doubles it.  N outside ``check_photons`` or r outside ``check_two_mode_r``
    raises ``ValueError``.
    """
    mean_photons = check_photons("mean_photons", mean_photons)
    r = check_two_mode_r("r", r, mean_photons)
    value = (8.0 * mean_photons + 4.0) * np.exp(-2.0 * r)
    return BoundResult(float(value), "dual-homodyne-analytic")
