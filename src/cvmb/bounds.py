"""Classical, SLD and RLD Cramér-Rao bounds for Gaussian displacement models.

The figure of merit is the summed mean squared error of the two
displacement components (q, p).  For a probe with covariance V and mean
Jacobian J (columns = derivative of the mean vector with respect to each
parameter), the bounds evaluated here are

* SLD:  ``trace(G^-1)`` with ``G = J^T V^-1 J``,
* RLD:  ``trace(Re Ginv) + trabs(Im Ginv)`` with
  ``Ginv = (J^T (V + i Omega)^-1 J)^-1``,

where ``trabs`` is the sum of absolute eigenvalues.  Displacement leaves
the covariance constant, so both are independent of the true parameter
value.  The moment-level formulas are pinned down by the test suite,
which requires them to agree with the closed forms below to 1e-9.

Closed forms for squeezed thermal probes of squeezing r and thermal
occupation N (``c = cosh 2r``):

* single mode:  C_S = (2 + 4N) c,        C_R = 2 + (2 + 4N) c
* two mode:     C_S = (2 + 4N) / c,      C_R = 8N(1 + N) / (2N c + 2 sinh^2 r)

The two-mode RLD denominator equals ``(1 + 2N) c - 1``; written as a sum of
non-negative terms it keeps full precision as N -> 0 at small r.

At N = 0 the two-mode RLD bound is vacuous (zero for every r, taking the
r -> 0 limit along the pure-probe curve at the origin).

The closed forms accept ``|r| <= MAX_SQUEEZING`` (about 354.9): beyond it
``exp(2|r|)``, and with it ``cosh 2r``, overflows a double.
"""

from __future__ import annotations

import math
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

MAX_SQUEEZING = 0.5 * math.log(sys.float_info.max)

__all__ = [
    "MAX_SQUEEZING",
    "BoundResult",
    "DisplacementModel",
    "DegenerateModelError",
    "single_mode_probe",
    "two_mode_probe",
    "trabs",
    "sld_bound",
    "rld_bound",
    "closed_form_bounds",
    "classical_fisher_gaussian",
    "dual_homodyne_mse_analytic",
]

# relative threshold below which V + i Omega is treated as singular (pure probe)
_PURE_EIG_TOL = 1e-12


class DegenerateModelError(ValueError):
    """Raised when a bound is requested for a model with singular covariance."""


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
        if not np.isfinite(self.value) or self.value < 0:
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


def sld_bound(model: DisplacementModel) -> BoundResult:
    """SLD quantum Cramér-Rao bound ``trace((J^T V^-1 J)^-1)``."""
    jac = model.mean_jacobian
    try:
        vinv_j = np.linalg.solve(model.probe.cov, jac)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError("probe covariance is singular") from exc
    info = jac.T @ vinv_j
    value = float(np.trace(np.linalg.inv(info)))
    return BoundResult(value, "SLD")


def rld_bound(model: DisplacementModel) -> BoundResult:
    """RLD quantum Cramér-Rao bound ``trace(Re Ginv) + trabs(Im Ginv)``.

    ``Ginv = (J^T A^-1 J)^-1`` with ``A = V + i Omega``.  A is singular
    exactly for pure probes; the bound is then defined as the N -> 0
    limit of the mixed-probe value:

    * square J (single-mode model): ``Ginv = J^-1 A J^-T`` directly, which
      continues the formula across the singularity,
    * non-square J: the inverse information vanishes in the limit, so the
      bound is 0 (vacuous).
    """
    jac = model.mean_jacobian
    a = model.probe.cov + 1j * symplectic_form(model.probe.num_modes)
    if jac.shape[0] == jac.shape[1]:
        jinv = np.linalg.inv(jac)
        ginv = jinv @ a @ jinv.T
    else:
        eigs = np.linalg.eigvalsh(a)
        if eigs.min() < _PURE_EIG_TOL * eigs.max():
            return BoundResult(0.0, "RLD")
        info = jac.T @ np.linalg.solve(a, jac.astype(complex))
        ginv = np.linalg.inv(info)
    value = float(np.trace(ginv.real)) + trabs(ginv.imag)
    return BoundResult(value, "RLD")


def closed_form_bounds(r: float, mean_photons: float, probe_kind: str) -> tuple[float, float]:
    """Closed-form (C_S, C_R) for the squeezed thermal probes.

    Args:
        r (float): squeezing parameter
        mean_photons (float): thermal occupation N >= 0
        probe_kind (str): "single" or "two_mode"

    Returns:
        tuple: (SLD bound, RLD bound)
    """
    n = mean_photons
    if not np.isfinite(r):
        raise ValueError("r must be finite")
    if abs(r) > MAX_SQUEEZING:
        raise ValueError(f"r = {r:g} is outside |r| <= {MAX_SQUEEZING:g}, "
                         "where exp 2r and cosh 2r stay finite")
    if not np.isfinite(n):
        raise ValueError("mean_photons must be finite")
    if n < 0:
        raise ValueError("mean photon number must be non-negative")
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
    doubles it.
    """
    if mean_photons < 0:
        raise ValueError("mean photon number must be non-negative")
    value = (8.0 * mean_photons + 4.0) * np.exp(-2.0 * r)
    return BoundResult(float(value), "dual-homodyne-analytic")
