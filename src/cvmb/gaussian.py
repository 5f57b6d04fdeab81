"""Gaussian states in the moment representation and symplectic optics.

Conventions used throughout the package:

* hbar = 2, so the quadratures obey ``[Q, P] = 2i`` and the vacuum
  covariance matrix is the identity.
* Quadratures are ordered ``(Q1, P1, ..., Qm, Pm)``; the symplectic form
  is block diagonal with 2x2 blocks ``[[0, 1], [-1, 0]]``.
* A displacement of amplitude ``alpha = (q + i p) / 2`` on a mode shifts
  its mean by ``(q, p)`` and leaves the covariance untouched.

Only first and second moments are tracked.  All values are immutable and
every operation is a pure function, so everything here is safe to use
from any number of threads without synchronization.

Every state the package builds is a symplectic map applied to a thermal
state, ``V = S diag(1 + 2N) S^T``: its Williamson form (Serafini, *Quantum
Continuous Variables* (2017), ch. 3; Weedbrook et al., RMP 84, 621
(2012)).  Such states carry the factors (S, N) beside the covariance, so
``cvmb.bounds`` can work in the thermal frame instead of inverting V.

A :class:`SymplecticOp` is a linear map, so :func:`displace` is the one
way to shift a mean.  :func:`make_thermal` checks its arguments on every
call and then returns the state from a bounded cache keyed on ``(N, m)``.
Sharing that state is safe from any thread: it is immutable and its
arrays are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from cvmb.inputs import (
    check_count,
    check_covariance,
    check_finite,
    check_mode,
    check_photons,
    check_real,
    check_real_array,
    check_squeezing,
)

__all__ = [
    "GaussianState",
    "SymplecticOp",
    "symplectic_form",
    "vacuum",
    "make_thermal",
    "single_mode_squeezer",
    "two_mode_squeezer",
    "beam_splitter",
    "displace",
    "apply",
]

# numerical tolerances for the structural invariants
SYMPLECTIC_TOL = 1e-12
PHYSICALITY_TOL = 1e-10


# thermal states kept by the cache of make_thermal, one per (N, m)
_CACHE_SIZE = 64


def symplectic_form(num_modes: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form Omega for ``num_modes`` modes.

    Omega encodes the commutators via ``[Z_j, Z_k] = 2i Omega_jk``; a
    covariance matrix V is physical iff ``V + i Omega >= 0``.  The array is
    built once per m and is read-only.
    """
    return _symplectic_form(check_count("num_modes", num_modes, 1))


@functools.cache
def _symplectic_form(num_modes: int) -> np.ndarray:
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * num_modes, 2 * num_modes))
    for k in range(num_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    out.setflags(write=False)
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class Williamson(NamedTuple):
    """Williamson factors of a covariance: ``V = S diag(1 + 2N) S^T``.

    ``symplectic`` is the read-only 2m x 2m matrix S and ``mean_photons``
    the thermal occupation N, the same on every mode.
    """

    symplectic: np.ndarray
    mean_photons: float


@dataclass(frozen=True)
class GaussianState:
    """An m-mode Gaussian state given by its mean vector and covariance.

    Args:
        mean (array): length 2m vector of quadrature means
        cov (array): real symmetric 2m x 2m covariance matrix

    Construction validates that ``mean`` is finite, that ``cov`` passes
    ``cvmb.inputs.check_covariance`` (real, finite, and symmetric to within
    ``SYMMETRY_TOL`` times its largest absolute entry, so a strongly
    squeezed covariance is not rejected for the rounding of its large
    entries) and that it obeys the uncertainty relation
    ``cov + i Omega >= 0`` (vacuum saturates it with cov = I).

    States built by :func:`vacuum` and :func:`make_thermal`, and by
    :func:`apply` and :func:`displace` from a state that has them, carry
    ``williamson``, the factors (S, N) of their covariance.  It is ``None``
    for a state built from a bare covariance and is never a constructor
    argument.  A factored
    state skips the ``eigvalsh`` test of the uncertainty relation:
    ``cov + i Omega = S (diag(1 + 2N) + i Omega) S^T`` is positive
    semidefinite because N >= 0 (``cvmb.inputs.check_photons`` in
    :func:`make_thermal`) and each S is a product of matrices that passed
    :class:`SymplecticOp`'s check.  Its mean and covariance are still
    checked to be finite.  :func:`displace` keeps the covariance, factored
    or not, so it skips the test too, and so does :func:`apply` on a state
    without factors: that state passed the test, and
    ``S cov S^T + i Omega = S (cov + i Omega) S^T`` for a symplectic S.  So
    the package checks a bare covariance once, where it enters, and the
    states :func:`apply` and :func:`displace` derive from it stay bare.
    """

    mean: np.ndarray
    cov: np.ndarray
    williamson: Williamson | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = check_finite("mean", np.atleast_1d(check_real_array("mean", self.mean)))
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a vector of even, positive length")
        cov = check_covariance("covariance matrix", self.cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean of length {mean.size}"
            )
        omega = _symplectic_form(mean.size // 2)
        eigs = np.linalg.eigvalsh(cov + 1j * omega)
        # tolerance scales with the covariance magnitude so that strongly
        # squeezed states are not rejected for rounding in their large
        # eigenvalues; for unit-scale states this is the absolute -1e-10
        if eigs.min() < -PHYSICALITY_TOL * max(1.0, np.max(np.abs(cov))):
            raise ValueError(
                f"covariance violates the uncertainty relation (min eig {eigs.min():.3e})"
            )
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def num_modes(self) -> int:
        return self.mean.size // 2


def _factored(mean: np.ndarray, cov: np.ndarray,
              williamson: Williamson | None) -> GaussianState:
    """A state from moments the package built, with their Williamson factors.

    ``mean`` and ``cov`` are fresh or read-only arrays of matching shape and
    ``cov`` is symmetric by construction; only finiteness is checked here.
    With factors, see :class:`GaussianState` for why the uncertainty
    relation holds; ``williamson`` is ``None`` only for the covariance of
    a state that passed :class:`GaussianState`'s full check, or for its
    image under symplectic ops, for which the relation holds as well.
    """
    check_finite("mean", mean)
    check_finite("covariance matrix", cov)
    mean.setflags(write=False)
    cov.setflags(write=False)
    state = object.__new__(GaussianState)
    object.__setattr__(state, "mean", mean)
    object.__setattr__(state, "cov", cov)
    object.__setattr__(state, "williamson", williamson)
    return state


@dataclass(frozen=True)
class SymplecticOp:
    """A linear phase-space transform: mean -> S mean, cov -> S cov S^T.

    Args:
        matrix (array): real 2m x 2m symplectic matrix S

    Construction validates ``S Omega S^T = Omega`` entry by entry: to
    within ``SYMPLECTIC_TOL``, or to within ``SYMPLECTIC_TOL`` times that
    entry of ``|S| |Omega| |S|^T``, the scale of its rounding, which grows
    like ``exp(2|r|)`` for a squeezer.  A non-finite S fails it.  The
    constructor copies the matrix as read-only floats.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = check_real_array("matrix", self.matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
            raise ValueError("matrix must be square with even dimension")
        _check_symplectic(matrix)
        object.__setattr__(self, "matrix", _readonly(matrix))

    @property
    def num_modes(self) -> int:
        return self.matrix.shape[0] // 2


def _check_symplectic(matrix: np.ndarray) -> None:
    """``ValueError`` unless the square float matrix passes :class:`SymplecticOp`'s test."""
    omega = _symplectic_form(matrix.shape[0] // 2)
    with np.errstate(all="ignore"):  # a non-finite or overflowing S gives inf or NaN
        dev = np.abs(matrix @ omega @ matrix.T - omega)
        err = dev.max()
        if not err <= SYMPLECTIC_TOL:  # NaN fails it too
            # strong squeezing fails the absolute test on rounding alone:
            # compare each entry to the scale of its rounding instead
            scale = np.abs(matrix) @ np.abs(omega) @ np.abs(matrix).T
            if not (err < np.inf and np.all(dev <= SYMPLECTIC_TOL * scale)):
                raise ValueError(f"matrix is not symplectic (S Omega S^T deviates by {err:.3e})")


def vacuum(num_modes: int = 1) -> GaussianState:
    """The ``num_modes``-mode vacuum: zero mean, identity covariance."""
    return make_thermal(0.0, num_modes)


def make_thermal(mean_photons: float, num_modes: int = 1) -> GaussianState:
    """Tensor power of single-mode thermal states.

    Args:
        mean_photons (float): mean photon number per mode, 0 <= N <= MAX_PHOTONS
        num_modes (int): number of modes

    Returns:
        GaussianState: zero mean, covariance ``(2N + 1) I``, factors (I, N)

    Both arguments are checked on every call.  The state for the checked
    ``(N, m)`` then comes from a bounded cache (-0.0 counts as 0.0), so
    repeated calls return the same immutable instance.
    """
    num_modes = check_count("num_modes", num_modes, 1)
    mean_photons = check_photons("mean_photons", mean_photons)
    return _thermal(mean_photons + 0.0, num_modes)  # + 0.0 maps -0.0 to 0.0


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _thermal(mean_photons: float, num_modes: int) -> GaussianState:
    """The thermal state of checked ``(N, m)``; see :func:`make_thermal`."""
    dim = 2 * num_modes
    return _factored(np.zeros(dim), (2.0 * mean_photons + 1.0) * np.eye(dim),
                     Williamson(_readonly(np.eye(dim)), mean_photons))


def _check_pair(mode_a, mode_b, num_modes, what: str) -> tuple[int, int, int]:
    """Two distinct mode indices and the mode count of a two-mode op, as ints."""
    num_modes = check_count("num_modes", num_modes, 1)
    mode_a = check_mode("mode_a", mode_a, num_modes)
    mode_b = check_mode("mode_b", mode_b, num_modes)
    if mode_a == mode_b:
        raise ValueError(f"{what} requires two distinct modes")
    return mode_a, mode_b, num_modes


def _embed_pair(block: np.ndarray, mode_a: int, mode_b: int, num_modes: int) -> np.ndarray:
    """Embed a 4x4 two-mode block, given in (Qa, Pa, Qb, Pb) order."""
    out = np.eye(2 * num_modes)
    a, b = 2 * mode_a, 2 * mode_b
    out[a : a + 2, a : a + 2] = block[:2, :2]
    out[a : a + 2, b : b + 2] = block[:2, 2:]
    out[b : b + 2, a : a + 2] = block[2:, :2]
    out[b : b + 2, b : b + 2] = block[2:, 2:]
    return out


def single_mode_squeezer(r: float, mode: int = 0, num_modes: int = 1) -> SymplecticOp:
    """Single-mode squeezer with parameter r.

    On the target mode, ``S = diag(e^-r, e^r)``, so acting on vacuum gives
    quadrature variances ``(e^-2r, e^2r)``.

    Args:
        r (float): squeezing parameter (r > 0 squeezes Q), ``|r| <= MAX_SQUEEZING``
        mode (int): target mode index
        num_modes (int): total mode count of the operator

    Returns:
        SymplecticOp
    """
    num_modes = check_count("num_modes", num_modes, 1)
    mode = check_mode("mode", mode, num_modes)
    r = check_squeezing("r", r, 0.0)
    matrix = np.eye(2 * num_modes)
    matrix[2 * mode, 2 * mode] = np.exp(-r)
    matrix[2 * mode + 1, 2 * mode + 1] = np.exp(r)
    return SymplecticOp(matrix)


def two_mode_squeezer(r: float, mode_a: int = 0, mode_b: int = 1,
                      num_modes: int = 2) -> SymplecticOp:
    """Two-mode squeezer producing the EPR state from vacuum.

    In (Qa, Pa, Qb, Pb) order the block is::

        [[ cosh r, 0,       sinh r, 0      ],
         [ 0,      cosh r,  0,     -sinh r ],
         [ sinh r, 0,       cosh r, 0      ],
         [ 0,     -sinh r,  0,      cosh r ]]

    Acting on two-mode vacuum this yields the covariance with diagonal
    ``cosh 2r`` and cross blocks ``sinh 2r * diag(1, -1)``: correlated Q
    quadratures, anti-correlated P quadratures.

    Args:
        r (float): two-mode squeezing parameter, ``|r| <= MAX_SQUEEZING``
        mode_a (int): first mode index
        mode_b (int): second mode index
        num_modes (int): total mode count of the operator

    Returns:
        SymplecticOp
    """
    mode_a, mode_b, num_modes = _check_pair(mode_a, mode_b, num_modes, "two-mode squeezer")
    r = check_squeezing("r", r, 0.0)
    ch, sh = np.cosh(r), np.sinh(r)
    block = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    return SymplecticOp(_embed_pair(block, mode_a, mode_b, num_modes))


def beam_splitter(tau: float, mode_a: int = 0, mode_b: int = 1,
                  num_modes: int = 2) -> SymplecticOp:
    """Beam splitter of transmissivity tau mixing two modes.

    Phase convention (in (Qa, Pa, Qb, Pb) order, t = sqrt(tau),
    u = sqrt(1 - tau))::

        [[ t, 0, -u, 0 ],
         [ 0, t,  0, -u],
         [ u, 0,  t, 0 ],
         [ 0, u,  0, t ]]

    This choice makes the balanced splitter (tau = 1/2) send the EPR state
    of ``two_mode_squeezer(r)`` to a rotation-free product of single-mode
    squeezed vacua, Q-squeezed on output a and P-squeezed on output b, and
    maps a displacement (q, p) on input a to (q, p)/sqrt(2) on both
    outputs.  The matrix is orthogonal as well as symplectic.

    Args:
        tau (float): transmissivity in [0, 1] (tau = 1 is the identity)
        mode_a (int): first mode index
        mode_b (int): second mode index
        num_modes (int): total mode count of the operator

    Returns:
        SymplecticOp
    """
    tau = check_real("tau", tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    mode_a, mode_b, num_modes = _check_pair(mode_a, mode_b, num_modes, "beam splitter")
    t, u = math.sqrt(tau), math.sqrt(1.0 - tau)
    block = np.array(
        [
            [t, 0.0, -u, 0.0],
            [0.0, t, 0.0, -u],
            [u, 0.0, t, 0.0],
            [0.0, u, 0.0, t],
        ]
    )
    return SymplecticOp(_embed_pair(block, mode_a, mode_b, num_modes))


def displace(state: GaussianState, q: float, p: float, mode: int = 0) -> GaussianState:
    """Shift the mean of ``mode`` by (q, p); the covariance and its factors are unchanged."""
    mode = check_mode("mode", mode, state.num_modes)
    mean = state.mean.copy()
    mean[2 * mode] += check_real("q", q)
    mean[2 * mode + 1] += check_real("p", p)
    return _factored(mean, state.cov, state.williamson)


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    """Apply a symplectic operation to a state.

    Returns a new state with ``mean -> S mean`` and ``cov -> S cov S^T``.
    The conjugated covariance is re-symmetrized to suppress round-off drift,
    halving before adding so that entries near the top of the double range
    do not overflow.  Away from the ends of that range halving is exact, so
    there this equals ``0.5 * (cov + cov.T)`` bit for bit.  A factored state
    (S', N) maps to the factored state (S S', N), and a bare state to a
    bare state; neither repeats the uncertainty test (see
    :class:`GaussianState`), but both are checked to be finite.
    """
    if op.matrix.shape[0] != state.mean.size:
        raise ValueError(
            f"operator acts on {op.num_modes} modes but state has {state.num_modes}"
        )
    mean = op.matrix @ state.mean
    cov = op.matrix @ state.cov @ op.matrix.T
    cov = 0.5 * cov + 0.5 * cov.T
    if state.williamson is None:
        return _factored(mean, cov, None)
    symplectic = op.matrix @ state.williamson.symplectic
    symplectic.setflags(write=False)
    return _factored(mean, cov, Williamson(symplectic, state.williamson.mean_photons))
