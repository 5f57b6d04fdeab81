"""The input domain of the package: one check function per input rule.

Domain.  The thermal occupation is at most ``MAX_PHOTONS`` (1e100), far
beyond any physical probe; below it ``8N(1 + N)`` and the simulator's fourth
moments stay finite (the simulator overflows from about N = 1e150).  The
closed forms accept ``|r| <= squeezing_limit(N)``: the largest of them,
``(2 + 4N) cosh 2r``, is about ``(1 + 2N) exp(2|r|)`` and overflows a double
beyond it.  At N = 0 the limit is ``MAX_SQUEEZING`` (about 354.9).  The
two-mode dual-homodyne MSE ``(8N + 4) exp(-2r)``, at N = 0 also the Holevo
bound, is four times larger at negative r and needs
``r >= two_mode_min_r(N)`` (about -354.2 at N = 0).  A simulation draws at
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
array, as a tuple), ``check_integer``, ``check_count`` (an integer at most a
cap), ``check_photons`` (``0 <= N <= MAX_PHOTONS``), ``check_squeezing``
(``|r| <= squeezing_limit(N)``), ``check_two_mode_r``
(``r >= two_mode_min_r(N)``), ``check_seed`` (64-bit unsigned),
``check_mode`` (an index of one of m modes) and ``check_real_array`` (an
integer or float array, as floats).  Every entry point of the package that
takes these numbers calls them, and the ``cvmb`` command turns the
``ValueError`` into exit code 1.

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
    "squeezing_limit",
    "two_mode_min_r",
    "check_real",
    "check_real_pair",
    "check_integer",
    "check_count",
    "check_photons",
    "check_squeezing",
    "check_two_mode_r",
    "check_seed",
    "check_mode",
    "check_real_array",
]

MAX_PHOTONS = 1e100
MAX_SAMPLES = 2 ** 32
MAX_R_STEPS = 10 ** 5

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


def check_count(name: str, value, limit: int) -> int:
    """A count as an int, checked for ``count <= limit``."""
    count = check_integer(name, value)
    if count > limit:
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
