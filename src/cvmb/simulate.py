"""Monte Carlo simulation of the dual homodyne measurement.

The measurement: a balanced beam splitter on the displaced two-mode
squeezed (thermal) probe, then a Q-quadrature homodyne on output mode 0
and a P-quadrature homodyne on output mode 1.  Under the beam-splitter
convention of :mod:`cvmb.gaussian`, the two readouts are independent
Gaussians with variance ``(2N + 1) e^-2r`` and mean ``(q, p) / sqrt(2)``,
so the linear unbiased estimator is ``theta_hat = sqrt(2) * outcome`` and
its analytic summed variance is ``(8N + 4) e^-2r``.

Sampling is done in the exact 2D outcome marginal by default; the full
4D phase-space path is kept behind a flag as a cross-check oracle.

Reproducibility
---------------
Shots are numbered and each consumes a fixed number of 64-bit words from
a counter-based Philox stream, with normals produced by inverse-CDF.
The draw for shot i therefore depends only on (seed, i), so batches are
generated independently: they run on threads across the usable CPUs and
their sums are combined in batch-index order.  Results do not depend on
the worker count; changing ``batch_size`` changes nothing but the
grouping of the compensated sums, i.e. results move at most at the level
of floating-point rounding.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri

from cvmb.gaussian import GaussianState, apply, beam_splitter, displace, make_thermal, two_mode_squeezer

__all__ = [
    "SIMULATE_MAX_SQUEEZING",
    "SimConfig",
    "SimResult",
    "OutcomeModel",
    "outcome_distribution",
    "accumulate_affine_moments",
    "estimate",
    "run",
    "run_two_stage",
]

_WORDS_PER_TICK = 4  # Philox advances its counter in 4-word blocks
_MIN_UNIFORM = 2.0 ** -53  # guard against ndtri(0) = -inf

# Squeezing accepted by SimConfig (34.7 dB).  From |r| of about 4.86 the
# squeezer matrix fails the symplectic check of cvmb.gaussian on rounding
# alone; the limit keeps a margin below that.
SIMULATE_MAX_SQUEEZING = 4.0


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulation run; ``|r|`` is at most ``SIMULATE_MAX_SQUEEZING``."""

    r: float
    photons: float
    theta_true: tuple[float, float] = (0.0, 0.0)
    samples: int = 1_000_000
    seed: int = 0
    mode: str = "direct"

    def __post_init__(self):
        for name in ("r", "photons"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.r) > SIMULATE_MAX_SQUEEZING:
            raise ValueError(f"r = {self.r:g} is outside the simulate limit "
                             f"|r| <= {SIMULATE_MAX_SQUEEZING:g}")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.photons < 0:
            raise ValueError("mean photon number must be non-negative")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.mode not in {"direct", "two_stage"}:
            raise ValueError(f"unknown mode {self.mode!r}")
        theta = tuple(float(t) for t in self.theta_true)
        if not all(math.isfinite(t) for t in theta):
            raise ValueError("theta_true must be finite")
        object.__setattr__(self, "theta_true", theta)


@dataclass(frozen=True)
class SimResult:
    """Empirical error statistics of a simulation run.

    ``mse_matrix`` is the empirical MSE matrix of the reported estimator;
    in direct mode that is the per-shot estimator, in two-stage mode the
    pooled final estimator (so the value scales like 1/n).  ``mse_sum`` is
    its trace and ``std_error`` the standard error of ``mse_sum``.
    """

    mse_sum: float
    mse_matrix: np.ndarray
    std_error: float
    bias: np.ndarray
    samples: int
    final_estimate: np.ndarray
    rough_estimate: np.ndarray | None = None

    def __post_init__(self):
        for name in ("mse_matrix", "bias", "final_estimate", "rough_estimate"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = np.asarray(val, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class OutcomeModel:
    """Gaussian model of the dual-homodyne outcome pair.

    ``mean`` is linear in the displacement with Jacobian ``jacobian``;
    ``cov`` does not depend on it.
    """

    mean: np.ndarray
    cov: np.ndarray
    jacobian: np.ndarray


def _post_splitter_state(r: float, photons: float, theta: tuple[float, float]) -> GaussianState:
    probe = apply(two_mode_squeezer(r), make_thermal(photons, 2))
    displaced = displace(probe, theta[0], theta[1], mode=0)
    return apply(beam_splitter(0.5), displaced)


# outcome components in the 4D post-splitter state: Q of mode 0, P of mode 1
_OUTCOME_IDX = (0, 3)


def outcome_distribution(r: float, photons: float,
                         theta: tuple[float, float] = (0.0, 0.0)) -> OutcomeModel:
    """Exact Gaussian distribution of the (Q_out0, P_out1) readout pair.

    Built by pushing the displaced probe through the balanced splitter and
    marginalizing, not from the closed form; the closed form
    ``cov = (2N + 1) e^-2r I`` is enforced by the tests instead.
    """
    if photons < 0:
        raise ValueError("mean photon number must be non-negative")
    state = _post_splitter_state(r, photons, theta)
    idx = list(_OUTCOME_IDX)
    mean = state.mean[idx]
    cov = state.cov[np.ix_(idx, idx)]
    jac = beam_splitter(0.5).matrix[np.ix_(idx, [0, 1])]
    return OutcomeModel(mean, cov, jac)


def estimate(outcomes: np.ndarray, jacobian: np.ndarray | None = None) -> np.ndarray:
    """Invert the outcome-mean map: ``theta_hat = jacobian^-1 @ outcome``.

    Unbiased by construction since the outcome mean is ``jacobian @ theta``.
    ``outcomes`` may be a single pair or an (n, 2) batch.
    """
    if jacobian is None:
        jacobian = outcome_distribution(0.0, 0.0).jacobian
    outcomes = np.asarray(outcomes, dtype=float)
    return np.linalg.solve(jacobian, outcomes.T).T


def _shot_normals(key: int, start: int, count: int, words_per_shot: int) -> np.ndarray:
    """Standard normals for shots [start, start + count), shot-indexed.

    Each shot consumes exactly ``words_per_shot`` 64-bit words; ``start``
    must land on a 4-word counter tick.
    """
    offset = start * words_per_shot
    if offset % _WORDS_PER_TICK:
        raise ValueError("batch start is not aligned to the Philox counter")
    gen = Generator(Philox(key=key).advance(offset // _WORDS_PER_TICK))
    u = gen.random((count, words_per_shot))
    np.maximum(u, _MIN_UNIFORM, out=u)
    return ndtri(u, out=u)


def accumulate_affine_moments(z, a, c):
    """Accumulate error moments for shots ``e_i = a @ z_i + c``.

    Reductions use NumPy's pairwise summation; batches are combined with
    compensated sums by the caller.  ``z`` is only read, and besides the
    (n, 2) errors the kernel allocates one length-n temporary.

    Args:
        z: (n, k) standard-normal draws
        a: (2, k) affine transform rows
        c: (2,) affine offset

    Returns:
        tuple: (sum e1, sum e2, sum e1^2, sum e2^2, sum e1*e2,
                sum (e1^2 + e2^2)^2)
    """
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.shape != (2, z.shape[1]) or c.shape != (2,):
        raise ValueError("transform shape must be (2, k) with offset length 2")
    e = z @ a.T
    e += c
    e1 = e[:, 0]
    e2 = e[:, 1]
    s1, s2 = float(e1.sum()), float(e2.sum())
    tmp = e1 * e2
    s12 = float(tmp.sum())
    e *= e  # the columns now hold e1^2 and e2^2
    q11, q22 = float(e1.sum()), float(e2.sum())
    np.add(e1, e2, out=tmp)
    tmp *= tmp
    return s1, s2, q11, q22, s12, float(tmp.sum())


class _KahanSums:
    """Compensated accumulation of a fixed-length tuple of partial sums."""

    def __init__(self, n: int):
        self.total = [0.0] * n
        self._comp = [0.0] * n

    def add(self, values):
        for m, v in enumerate(values):
            y = v - self._comp[m]
            t = self.total[m] + y
            self._comp[m] = (t - self.total[m]) - y
            self.total[m] = t


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _accumulate(key: int, start_shot: int, count: int, transform: np.ndarray,
                offset: np.ndarray, batch_size: int) -> list[float]:
    """Stream ``count`` shots through the kernel, Kahan-combining batches.

    Batch j runs on worker ``j mod W`` (worker 0 is the calling thread);
    the per-batch sums are combined in batch-index order, so the result
    does not depend on W.
    """
    words = transform.shape[1]
    end = start_shot + count
    starts = range(start_shot, end, batch_size)
    workers = min(_usable_cpus(), len(starts))

    def share(w: int) -> list[tuple]:
        return [accumulate_affine_moments(_shot_normals(key, s, min(batch_size, end - s), words),
                                          transform, offset)
                for s in starts[w::workers]]

    if workers == 1:
        shares = [share(0)]
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(share, w) for w in range(1, workers)]
            shares = [share(0)] + [f.result() for f in futures]
    agg = _KahanSums(6)
    for j in range(len(starts)):
        agg.add(shares[j % workers][j // workers])
    return agg.total


def _second_moment_stats(sums: list[float], n: int) -> tuple[float, np.ndarray, float, np.ndarray]:
    s1, s2, q11, q22, q12, q4 = sums
    mse_matrix = np.array([[q11, q12], [q12, q22]]) / n
    mse_sum = (q11 + q22) / n
    bias = np.array([s1, s2]) / n
    if n > 1:
        var = max(q4 / n - mse_sum * mse_sum, 0.0)
        std_error = math.sqrt(var / (n - 1))
    else:
        std_error = math.inf
    return mse_sum, mse_matrix, std_error, bias


def run(config: SimConfig, batch_size: int = 65536, full_phase_space: bool = False) -> SimResult:
    """Run the simulation described by ``config``.

    Draws ``config.samples`` dual-homodyne outcomes, applies the linear
    unbiased estimator and returns the empirical MSE statistics.  The
    result is a pure function of (config, batch_size, full_phase_space);
    identical configs give bitwise-identical results.

    Args:
        config: simulation settings
        batch_size: shots per accumulation block (must be even and > 0)
        full_phase_space: sample the full 4D post-splitter state instead
            of the exact 2D outcome marginal (slower; cross-check path)

    Returns:
        SimResult
    """
    if batch_size < 2 or batch_size % 2:
        raise ValueError("batch_size must be even and positive")
    if config.mode == "two_stage":
        return run_two_stage(config, batch_size=batch_size)

    theta = np.array(config.theta_true)
    model = outcome_distribution(config.r, config.photons, config.theta_true)
    jinv = np.linalg.inv(model.jacobian)
    if full_phase_space:
        state = _post_splitter_state(config.r, config.photons, config.theta_true)
        chol = np.linalg.cholesky(state.cov)
        transform = jinv @ chol[list(_OUTCOME_IDX), :]
        offset = jinv @ state.mean[list(_OUTCOME_IDX)] - theta
    else:
        transform = jinv @ np.linalg.cholesky(model.cov)
        offset = jinv @ model.mean - theta

    sums = _accumulate(config.seed, 0, config.samples, transform, offset, batch_size)
    mse_sum, mse_matrix, std_error, bias = _second_moment_stats(sums, config.samples)
    return SimResult(
        mse_sum=mse_sum,
        mse_matrix=mse_matrix,
        std_error=std_error,
        bias=bias,
        samples=config.samples,
        final_estimate=theta + bias,
    )


def _stage2_key(seed: int) -> int:
    """Derived stream key for stage 2 (stage-1 shot count may be odd)."""
    return int(SeedSequence(entropy=seed, spawn_key=(1,)).generate_state(1, np.uint64)[0])


def run_two_stage(config: SimConfig, n_total: int | None = None,
                  batch_size: int = 65536) -> SimResult:
    """Two-stage adaptive estimation.

    Stage 1 spends ``floor(sqrt(n_total))`` shots on a rough estimate
    theta_rough; stage 2 displaces by -theta_rough (a mean shift) and
    estimates the residual with the remaining shots.  The final estimate
    is theta_rough + pooled residual estimate.  ``mse_matrix`` estimates
    the covariance of that pooled estimator (empirical per-shot
    covariance divided by the stage-2 shot count), so
    ``mse_sum * n2 -> (8N + 4) e^-2r``.  ``std_error`` is scaled the same
    way and neglects the O(1/n) shift from centering, which is below its
    own resolution.

    Args:
        config: simulation settings (``theta_true`` is the unknown target)
        n_total: total shot budget; defaults to ``config.samples``
        batch_size: shots per accumulation block

    Returns:
        SimResult with ``rough_estimate`` filled in
    """
    if batch_size < 2 or batch_size % 2:
        raise ValueError("batch_size must be even and positive")
    if n_total is None:
        n_total = config.samples
    if n_total < 4:
        raise ValueError("two-stage estimation needs at least 4 shots")
    n1 = math.isqrt(n_total)
    n2 = n_total - n1

    theta = np.array(config.theta_true)
    model = outcome_distribution(config.r, config.photons, config.theta_true)
    jinv = np.linalg.inv(model.jacobian)
    transform = jinv @ np.linalg.cholesky(model.cov)

    # stage 1: accumulate raw per-shot estimates (offset referenced to zero)
    sums1 = _accumulate(config.seed, 0, n1, transform, jinv @ model.mean, batch_size)
    rough = np.array([sums1[0], sums1[1]]) / n1

    # stage 2: probe displaced by -rough, estimate the residual
    residual_true = theta - rough
    model2 = outcome_distribution(config.r, config.photons, tuple(residual_true))
    offset2 = jinv @ model2.mean - residual_true
    sums2 = _accumulate(_stage2_key(config.seed), 0, n2, transform, offset2, batch_size)

    _, raw_second, raw_se, bias2 = _second_moment_stats(sums2, n2)
    # covariance about the empirical mean, then scaled to the pooled estimator
    centered = raw_second - np.outer(bias2, bias2)
    if n2 > 1:
        centered = centered * (n2 / (n2 - 1))
    pooled_cov = centered / n2
    final = rough + residual_true + bias2

    return SimResult(
        mse_sum=float(np.trace(pooled_cov)),
        mse_matrix=pooled_cov,
        std_error=raw_se / n2,
        bias=final - theta,
        samples=n2,
        final_estimate=final,
        rough_estimate=rough,
    )
