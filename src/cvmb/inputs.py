"""The input domain of the package: one check function per input rule.

Domain.  The thermal occupation is at most ``MAX_PHOTONS`` (1e100), far
beyond any physical probe; below it ``8N(1 + N)`` and the simulator's fourth
moments stay finite (the simulator overflows from about N = 1e150).  The
closed forms accept ``|r| <= squeezing_limit(N)``: the largest of them,
``(2 + 4N) cosh 2r``, is about ``(1 + 2N) exp(2|r|)`` and overflows a double
beyond it.  At N = 0 the limit is ``MAX_SQUEEZING`` (about 354.9).  The
two-mode dual-homodyne MSE ``(8N + 4) exp(-2r)``, at N = 0 also the Holevo
bound, is four times larger at negative r and needs
``r >= two_mode_min_r(N)`` (about -354.2 at N = 0).  The simulator takes
``|r| <= SIMULATE_MAX_SQUEEZING`` (4), where its outcome covariance is
still accurate.  A probe is of kind ``"single"`` or ``"two_mode"``.  A
simulation draws at
most ``MAX_SAMPLES`` (2**32) shots per config, 131,072 batches of
``cvmb.simulate.BATCH_SIZE`` (32,768) shots whose sums are added as each
batch finishes, so the memory a run holds does not grow with its shot
count; a sweep has at most ``MAX_R_STEPS`` (10**5) rows.  Both caps are
checked before any grid is built or any shot drawn.  Each of
these rules, and the type rules below them, is written once, in a check
function here that names the setting, converts the value and raises
``ValueError`` otherwise: ``check_real`` (a finite real, not a ``bool``,
returned as a Python float, so NumPy scalars compute exactly as the equal
Python number), ``check_real_pair`` (a pair of them in a sequence or an
array, as a tuple), ``check_integer``, ``check_count`` (an integer at least
a floor and at most a cap, if it has one: a mode count or a sweep's rows at
least 1, a seed index at least 0, a config's shots at least 1 and a
sweep's at least 0), ``check_photons`` (``0 <= N <= MAX_PHOTONS``),
``check_squeezing`` (``|r| <= squeezing_limit(N)``), ``check_two_mode_r``
(``r >= two_mode_min_r(N)``), ``check_simulate_r``
(``|r| <= SIMULATE_MAX_SQUEEZING``), ``check_probe`` (a probe kind),
``check_seed`` (64-bit unsigned), ``check_mode`` (an index of one of m
modes), ``check_real_array`` (an integer or float array, as floats),
``check_finite`` (every entry of a float array finite) and
``check_covariance`` (a real, finite, non-empty square matrix, symmetric
to within ``SYMMETRY_TOL`` (1e-12) times its largest absolute entry; a
physical covariance has a diagonal entry of at least 1, so the scaled
tolerance is never tighter than an absolute 1e-12, and it does not reject
a strongly squeezed covariance for the rounding of its large entries).
The physicality of a state's covariance and the positive definiteness of
an outcome covariance are different rules and stay with their callers.
Every entry point of the package that takes these values calls them, and
the ``cvmb`` command turns the ``ValueError`` into exit code 1.

This module imports nothing from the package, so every other module can
import it at module level.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence

import numpy as np

__all__ = [
    "MAX_PHOTONS",
    "MAX_SQUEEZING",
    "MAX_SAMPLES",
    "MAX_R_STEPS",
    "SIMULATE_MAX_SQUEEZING",
    "SYMMETRY_TOL",
    "squeezing_limit",
    "two_mode_min_r",
    "check_real",
    "check_real_pair",
    "check_integer",
    "check_count",
    "check_photons",
    "check_squeezing",
    "check_two_mode_r",
    "check_simulate_r",
    "check_probe",
    "check_seed",
    "check_mode",
    "check_real_array",
    "check_finite",
    "check_covariance",
]

MAX_PHOTONS = 1e100
MAX_SAMPLES = 2 ** 32
MAX_R_STEPS = 10 ** 5
SYMMETRY_TOL = 1e-12

# Squeezing accepted by the simulator (34.7 dB).  The outcome covariance
# (2N + 1) exp(-2|r|) comes out of a cancellation between terms of size
# exp(2|r|), so its relative error grows like 1e-16 exp(4|r|): 4e-10 at
# |r| = 4, 8.5e-9 at 4.8 and 1e-3 at 8.  The limit keeps that error far
# below the standard error of any feasible shot count.
SIMULATE_MAX_SQUEEZING = 4.0

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


def check_real_pair(name: str, value) -> tuple[float, float]:
    """``value`` as a pair of Python floats; ``ValueError`` unless it is two finite reals.

    Only a sequence or a NumPy array gives its two entries in a fixed order,
    so a set or a dict is rejected, as are ``str`` and ``bytes``.
    """
    if isinstance(value, (str, bytes)) or not isinstance(value, (Sequence, np.ndarray)):
        raise ValueError(f"{name} must be a pair (q, p), got {value!r}")
    try:
        q, p = value
    except (TypeError, ValueError):  # a 0-d array raises TypeError
        raise ValueError(f"{name} must be a pair (q, p), got {value!r}") from None
    return check_real(name, q), check_real(name, p)


def check_integer(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` unless it is a (NumPy) integer.

    ``bool`` is rejected although Python counts it as an integer.
    """
    if not isinstance(value, (int, numbers.Integral)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(name: str, value, floor: int, limit: int | None = None) -> int:
    """A count as an int, checked for ``floor <= count`` and, given a limit, ``count <= limit``."""
    count = check_integer(name, value)
    if count < floor:
        least = "non-negative" if floor == 0 else f"at least {floor}"
        raise ValueError(f"{name} must be {least}, got {count}")
    if limit is not None and count > limit:
        raise ValueError(f"{name} = {count} is above the limit {limit}")
    return count


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


def check_simulate_r(name: str, value) -> float:
    """A squeezing r as a float, checked for ``|r| <= SIMULATE_MAX_SQUEEZING``."""
    r = check_real(name, value)
    if abs(r) > SIMULATE_MAX_SQUEEZING:
        raise ValueError(f"{name} = {r:g} is outside the simulate limit "
                         f"|r| <= {SIMULATE_MAX_SQUEEZING:g}")
    return r


def check_probe(name: str, value) -> str:
    """A probe kind, checked to be ``"single"`` or ``"two_mode"``."""
    if value not in ("single", "two_mode"):
        raise ValueError(f"unknown {name} {value!r}")
    return value


def check_seed(name: str, value) -> int:
    """A seed as an int, checked to be a 64-bit unsigned integer."""
    seed = check_integer(name, value)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return seed


def check_mode(name: str, value, num_modes: int) -> int:
    """A mode index as an int, checked to index one of ``num_modes`` modes."""
    mode = check_integer(name, value)
    if not 0 <= mode < num_modes:
        raise ValueError(f"{name} {mode} out of range for {num_modes} modes")
    return mode


def check_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array; ``ValueError`` unless its dtype is integer or float.

    Only the dtype is inspected, so bool, string, object and complex input is
    rejected without a pass over the entries.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """``array``; ``ValueError`` unless every entry of the float array is finite.

    A Python scan over the raveled entries: for the few entries of a mean
    or a small covariance it is cheaper than a NumPy reduction.
    """
    if not all(map(math.isfinite, array.ravel().tolist())):
        raise ValueError(f"{name} must be finite")
    return array


def check_covariance(name: str, value) -> np.ndarray:
    """``value`` as a float array; ``ValueError`` unless it is a covariance matrix.

    That is a real, finite, non-empty square matrix whose asymmetry is at
    most ``SYMMETRY_TOL`` times its largest absolute entry.
    """
    cov = check_finite(name, check_real_array(name, value))
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
        raise ValueError(f"{name} must be a square matrix, got shape {cov.shape}")
    if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL * np.max(np.abs(cov)):
        raise ValueError(f"{name} must be symmetric")
    return cov
