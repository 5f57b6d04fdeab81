"""Classical, SLD, RLD and Holevo Cramér-Rao bounds for Gaussian displacement models.

The figure of merit is the summed mean squared error of the two
displacement components (q, p).  For a probe with covariance V and mean
Jacobian J (columns = derivative of the mean vector with respect to each
parameter), all three quantum bounds are read from one function of t in
[0, 1]:

    rho(t) = trace(Re G_t) + trabs(Im G_t),   G_t = (J^T (V + i t Omega)^-1 J)^-1,

where ``trabs`` is the sum of absolute eigenvalues; for the 2 x 2
antisymmetric ``Im G_t`` of two parameters it is ``|Im G_01 - Im G_10|``,
twice the modulus of either off-diagonal entry.  The SLD bound is
``rho(0) = trace((J^T V^-1 J)^-1)``, the RLD bound is ``rho(1)``, and the
Holevo bound is the maximum of rho over [0, 1] (``holevo_bound``).  The
last holds because estimators linear in the quadratures attain the Holevo
bound of a Gaussian shift model (Genoni et al., PRA 87, 012107 (2013);
Suzuki, J. Math. Phys. 57, 042201 (2016)): over them the bound is
``max_t phi(t)``, and ``rho(t) = max(phi(t), phi(-t))``, where
``phi(t) = min over K^T J = I of trace(K^T V K) + 2 t k1^T Omega k2``.
Displacement leaves the covariance constant, so rho is independent of the
true parameter value.

``V + i Omega`` is singular exactly for pure probes; rho(1) is then defined
as the N -> 0 limit of the mixed-probe value.  A single-mode model, whose
J is the identity, gives ``G_1 = V + i Omega`` directly, which continues
the formula across the singularity.  A non-square J gives 0 (vacuous): the
limit when the inverse information vanishes, as for the two-mode probe at
r != 0, but not for every pure probe, as a squeezed mode beside an
uncoupled vacuum mode keeps its single-mode value in the limit.  At the
unsqueezed pure two-mode probe (r, N) = (0, 0) the RLD bound is therefore
0, the limit along N = 0; along r = 0 the limit is 4, the value
``4 (1 + N)`` at every N > 0.  ``holevo_bound`` does not inherit this
rule: its search approaches t = 1 from below, so it returns the limit from
below, 4 at the origin and the single-mode value beside a vacuum mode.  A
solve that fails, as for a singular V, which no state has, raises
``DegenerateModelError`` from every bound; at t = 1 such a V is never
solved, since ``V + i Omega`` is then indefinite.

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
the three bounds to agree with the closed forms below to a relative 1e-12
over the whole domain: ``|r|`` up to 340 and N from 0 through 1e-13 up to
1e6, for both probes.  A probe given only by its covariance is solved from
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
C_H has no closed form here, and ``holevo_bound`` computes it.  The test
suite checks it against ``(8N + 4) e^-2|r|`` for ``|r| >= ln(1 + 2N) / 2``
and C_R below that.

At N = 0 the two-mode RLD bound is vacuous: zero for every r.  At the
origin (r, N) = (0, 0) it is pinned to 0, the limit along N = 0; the
limit along r = 0 is 4, the value ``4 (1 + N)`` at every N > 0.

Domain.  The bounds accept the inputs of :mod:`cvmb.inputs`, which states
each rule once: ``0 <= N <= MAX_PHOTONS``, ``|r| <= squeezing_limit(N)``,
and for the two-mode dual-homodyne MSE ``r >= two_mode_min_r(N)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cvmb.gaussian import (
    SYMMETRY_TOL,
    GaussianState,
    apply,
    make_thermal,
    single_mode_squeezer,
    symplectic_form,
    two_mode_squeezer,
)
from cvmb.inputs import (
    check_mode,
    check_photons,
    check_real_array,
    check_squeezing,
    check_two_mode_r,
)

__all__ = [
    "BoundResult",
    "DisplacementModel",
    "DegenerateModelError",
    "single_mode_probe",
    "two_mode_probe",
    "sld_bound",
    "rld_bound",
    "holevo_bound",
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
        if not isinstance(self.probe, GaussianState):
            raise ValueError(f"probe must be a GaussianState, got {self.probe!r}")
        mode = check_mode("displaced_mode", self.displaced_mode, self.probe.num_modes)
        object.__setattr__(self, "displaced_mode", mode)

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
        if self.kind not in {"SLD", "RLD", "Holevo", "dual-homodyne-analytic"}:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"bound value must be finite and non-negative, got {self.value}")


def single_mode_probe(r: float, mean_photons: float = 0.0) -> GaussianState:
    """Squeezed thermal state: squeezer(r) applied to a thermal state."""
    return apply(single_mode_squeezer(r), make_thermal(mean_photons, 1))


def two_mode_probe(r: float, mean_photons: float = 0.0) -> GaussianState:
    """Two-mode squeezed thermal state (EPR state for N = 0)."""
    return apply(two_mode_squeezer(r), make_thermal(mean_photons, 2))


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
    one-mode model, whose J is the identity, takes ``G_1 = A``, and a
    model of more modes counts A as pure, and gives 0, when its smallest
    eigenvalue is below ``1e-12`` of its largest.  A solve that fails
    raises ``DegenerateModelError``.
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
    if t == 1 and model.probe.num_modes == 1:
        ginv = a
    else:
        if t == 1:
            eigs = np.linalg.eigvalsh(a)
            if eigs.min() < _PURE_EIG_TOL * eigs.max():
                return 0.0
        try:
            ginv = np.linalg.inv(jac.T @ np.linalg.solve(a, jac))
        except np.linalg.LinAlgError as exc:
            raise DegenerateModelError("probe covariance is singular") from exc
    # Im G_t is 2 x 2 antisymmetric, so trabs(Im G_t) = |Im G_01 - Im G_10|
    return float(np.trace(ginv.real) + abs(ginv.imag[0, 1] - ginv.imag[1, 0]))


def sld_bound(model: DisplacementModel) -> BoundResult:
    """The SLD bound ``rho(0) = trace((J^T V^-1 J)^-1)``; see the module docstring."""
    return BoundResult(_moment_bound(model, 0.0), "SLD")


def rld_bound(model: DisplacementModel) -> BoundResult:
    """The RLD bound ``rho(1)``; see the module docstring.

    At N = 0 a multi-mode probe gives 0, also where the N -> 0 limit is not
    0; :func:`holevo_bound` does not inherit that rule.
    """
    return BoundResult(_moment_bound(model, 1.0), "RLD")


# each golden-section step keeps this fraction of the bracket on t; 76 steps
# shrink [0, 1] to 1.3e-16, below the spacing of doubles near 1
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 76


def holevo_bound(model: DisplacementModel) -> BoundResult:
    """The Holevo bound, the maximum of ``rho(t)`` over [0, 1]; see the module docstring.

    ``rho(t) = max(phi(t), phi(-t))``, and phi is concave on [-1, 1], as a
    minimum of functions affine in t.  If phi peaks at ``t* >= 0``, then on
    ``[0, t*]`` ``phi(t) >= phi(0) >= phi(-t)``, so rho is phi and rises, and
    on ``[t*, 1]`` both terms fall (mirrored for ``t* < 0``): rho is unimodal
    on [0, 1].  A golden-section search of a fixed number of steps finds its
    maximum.  Both ends are evaluated separately and the best value seen is
    returned, so the result is never below :func:`sld_bound` or
    :func:`rld_bound`.  At a pure multi-mode probe ``rho(1)`` is the
    vacuous 0 of :func:`rld_bound`, and the interior steps approach t = 1
    from below, so the result is the limit there.
    """
    best = max(_moment_bound(model, 0.0), _moment_bound(model, 1.0))
    lo, hi = 0.0, 1.0
    a, b = 1.0 - _GOLDEN, _GOLDEN
    fa, fb = _moment_bound(model, a), _moment_bound(model, b)
    for _ in range(_GOLDEN_STEPS):
        if fa < fb:  # the maximum is not left of a
            lo, a, fa = a, b, fb
            b = lo + _GOLDEN * (hi - lo)
            fb = _moment_bound(model, b)
        else:  # nor right of b
            hi, b, fb = b, a, fa
            a = hi - _GOLDEN * (hi - lo)
            fa = _moment_bound(model, a)
    return BoundResult(max(best, fa, fb), "Holevo")


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
        mean_jacobian (array): k x 2 outcome-mean Jacobian D
        outcome_cov (array): k x k positive definite outcome covariance Sigma

    Returns:
        array: 2x2 Fisher information matrix

    A non-finite entry, a mis-shaped argument, or a Sigma that is not
    symmetric to within ``cvmb.gaussian.SYMMETRY_TOL`` of its largest entry
    raises ``ValueError`` naming the argument; a Sigma that is not positive
    definite raises ``DegenerateModelError``.
    """
    d = check_real_array("mean_jacobian", mean_jacobian)
    sigma = check_real_array("outcome_cov", outcome_cov)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.size == 0:
        raise ValueError(f"outcome_cov must be a square matrix, got shape {sigma.shape}")
    if d.shape != (sigma.shape[0], 2):
        raise ValueError(f"mean_jacobian must have shape {(sigma.shape[0], 2)}, got {d.shape}")
    for name, arr in (("mean_jacobian", d), ("outcome_cov", sigma)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    if np.max(np.abs(sigma - sigma.T)) > SYMMETRY_TOL * np.max(np.abs(sigma)):
        raise ValueError("outcome_cov must be symmetric")
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
