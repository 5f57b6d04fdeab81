"""Monte Carlo simulation of the dual homodyne measurement.

The measurement: a balanced beam splitter on the displaced two-mode
squeezed (thermal) probe, then a Q-quadrature homodyne on output mode 0
and a P-quadrature homodyne on output mode 1.  Under the beam-splitter
convention of :mod:`cvmb.gaussian`, the two readouts are independent
Gaussians with variance ``(2N + 1) e^-2r`` and mean ``(q, p) / sqrt(2)``,
so the linear unbiased estimator is ``theta_hat = sqrt(2) * outcome`` and
its analytic summed variance is ``(8N + 4) e^-2r``.

Sampling is done in the exact 2D outcome marginal.

Reproducibility
---------------
Shots are numbered and each consumes a fixed number of 64-bit words from
a counter-based Philox stream, with normals produced by inverse-CDF.
The draw for shot i therefore depends only on (seed, i), so batches are
generated independently.  One call (``run``, or ``run_many`` over
several configs) puts the batches of all its configs in one queue: plain
``threading`` threads across the usable CPUs, the calling thread among
them, take them one at a time as they come free, each reusing one kernel
scratch array of its own, and go on from one config's last batch to the
next config's first; a call whose shots fit in one batch starts no
thread.  The first error in any worker, a ``KeyboardInterrupt`` in the
calling thread among them, stops the queue: the other workers finish
only the batch each holds, and the error reaches the caller.  A
two-stage config puts only its stage-2 shots in that queue: stage 2
re-centres the probe on the stage-1 estimate, but the outcome covariance
does not depend on the displacement, so no reported number depends on
that estimate, and stage 1 is not drawn.  Each batch's sums are added to
its config's compensated total as the batch finishes, in the config's
batch-index order; a batch that finishes before an earlier one of its
config waits for it.  Results do not depend on the worker count, on
which thread ran which batch, or on which other configs shared the call,
and the memory a call holds does not grow with its shot count.  Batches
hold ``BATCH_SIZE`` shots; another batch size would change nothing but
the grouping of the compensated sums, i.e. results would move at most
at the level of floating-point rounding.

Neither ``numpy.random`` nor SciPy is imported with this module: the bit
generators load on the first sampling call or derived seed, and ``ndtri``
on the first sampling call, so a run that only computes bounds loads
neither.  Sampling loads no pool module such as ``concurrent.futures``,
and it loads SciPy's compiled ``scipy.special._ufuncs``, which defines
``ndtri`` and the chi-squared tails of :func:`mse_tails`, and not the
``scipy.special`` package, whose ``__init__`` also loads SciPy's
array-API layer and with it most of NumPy's lazy submodules.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import types
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from cvmb.bounds import two_mode_probe
from cvmb.gaussian import apply, beam_splitter, displace
from cvmb.inputs import (
    MAX_SAMPLES,
    SIMULATE_MAX_SQUEEZING,
    check_count,
    check_photons,
    check_real,
    check_real_array,
    check_real_pair,
    check_seed,
    check_simulate_r,
)

__all__ = [
    "SIMULATE_MAX_SQUEEZING",
    "SimConfig",
    "SimResult",
    "OutcomeModel",
    "outcome_distribution",
    "accumulate_affine_moments",
    "derive_seed",
    "mse_tails",
    "run",
    "run_many",
]

_WORDS_PER_TICK = 4  # Philox advances its counter in 4-word blocks
# each shot draws two standard normals, one per entry of the (Q_out0, P_out1) pair
_WORDS_PER_SHOT = 2
_MIN_UNIFORM = 2.0 ** -53  # guard against ndtri(0) = -inf

# shots per accumulation batch; even, so that at _WORDS_PER_SHOT = 2 every
# batch starts on a Philox counter tick
BATCH_SIZE = 32768


def derive_seed(seed: int, index: int) -> int:
    """Philox key of the ``index``-th stream derived from ``seed``.

    Streams keyed by different indices, and by ``seed`` itself, are
    statistically independent.  ``seed`` must be a 64-bit unsigned integer
    and ``index`` a non-negative integer; otherwise ``ValueError``.
    """
    seed = check_seed("seed", seed)
    index = check_count("index", index, 0)
    from numpy.random import SeedSequence

    return int(SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulation run.

    ``|r|`` is at most ``SIMULATE_MAX_SQUEEZING``, ``photons`` at most
    ``cvmb.inputs.MAX_PHOTONS`` and ``samples`` at most
    ``cvmb.inputs.MAX_SAMPLES``; ``theta_true`` is a pair of finite reals;
    ``mode="two_stage"`` needs at least 4 samples, of which :func:`run`
    draws the ``samples - isqrt(samples)`` of stage 2.  The numbers are checked
    and converted by the check functions of :mod:`cvmb.inputs`, so they are
    stored as Python floats and ints.
    """

    r: float
    photons: float
    theta_true: tuple[float, float] = (0.0, 0.0)
    samples: int = 1_000_000
    seed: int = 0
    mode: str = "direct"

    def __post_init__(self):
        object.__setattr__(self, "r", check_simulate_r("r", self.r))
        object.__setattr__(self, "photons", check_photons("photons", self.photons))
        object.__setattr__(self, "samples", check_count("samples", self.samples, 1, MAX_SAMPLES))
        object.__setattr__(self, "seed", check_seed("seed", self.seed))
        if self.mode not in ("direct", "two_stage"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "two_stage" and self.samples < 4:
            raise ValueError("two-stage estimation needs at least 4 shots")
        object.__setattr__(self, "theta_true", check_real_pair("theta_true", self.theta_true))


@dataclass(frozen=True)
class SimResult:
    """Empirical error statistics of a simulation run.

    ``mse_matrix`` is the empirical MSE matrix of the reported estimator;
    in direct mode that is the per-shot estimator, in two-stage mode the
    pooled final estimator (so the value scales like 1/n).  ``mse_sum`` is
    its trace and ``std_error`` the standard error of ``mse_sum``.
    ``bias`` is the mean error of the shots in ``samples``, in two-stage
    mode the stage-2 shots, the only ones drawn.
    """

    mse_sum: float
    mse_matrix: np.ndarray
    std_error: float
    bias: np.ndarray
    samples: int

    def __post_init__(self):
        for name in ("mse_matrix", "bias"):
            arr = np.asarray(getattr(self, name), dtype=float)
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


def outcome_distribution(r: float, photons: float,
                         theta: tuple[float, float] = (0.0, 0.0)) -> OutcomeModel:
    """Exact Gaussian distribution of the (Q_out0, P_out1) readout pair.

    Built by pushing the displaced probe through the balanced splitter and
    marginalizing, not from the closed form; the closed form
    ``cov = (2N + 1) e^-2r I`` is enforced by the tests instead.  ``|r|`` is
    at most ``SIMULATE_MAX_SQUEEZING``, as in :class:`SimConfig`: beyond it
    the marginal loses its accuracy to cancellation.  ``theta`` is a pair
    of finite reals, the displacement (q, p) of mode 0.
    """
    probe = two_mode_probe(check_simulate_r("r", r), photons)
    q, p = check_real_pair("theta", theta)
    splitter = beam_splitter(0.5)
    state = apply(splitter, displace(probe, q, p, mode=0))
    idx = [0, 3]  # Q of output mode 0, P of output mode 1
    mean = state.mean[idx]
    cov = state.cov[np.ix_(idx, idx)]
    jac = splitter.matrix[np.ix_(idx, [0, 1])]
    return OutcomeModel(mean, cov, jac)


def ndtri(*args, **kwargs):
    """SciPy's ``ndtri`` ufunc, loaded on the first call by :func:`_scipy_ufuncs`.

    Only sampling needs SciPy, so ``import cvmb`` leaves it out, as it does
    ``numpy.random``; and sampling loads the compiled
    ``scipy.special._ufuncs`` that defines the ufunc, not the
    ``scipy.special`` package.
    """
    return _scipy_ufuncs().ndtri(*args, **kwargs)


def mse_tails(samples: int, ratio: float) -> tuple[float, float]:
    """Tail probabilities of a direct run's ``mse_sum`` at ``ratio`` times its expectation.

    The two estimator errors of a shot are independent normals, each of
    variance half the analytic MSE ``V = (8N + 4) e^-2r``, so for ``samples``
    = n shots ``2n mse_sum / V`` follows chi-squared with 2n degrees of
    freedom exactly, at every n.  Returns ``(P(X <= x), P(X >= x))`` for
    that X at ``x = 2n ratio``, from the ``scipy.special._ufuncs`` that
    :func:`ndtri` comes from.  ``samples`` is a count from 1 to
    ``cvmb.inputs.MAX_SAMPLES`` and ``ratio`` a finite real.
    """
    dof = 2 * check_count("samples", samples, 1, MAX_SAMPLES)
    x = dof * check_real("ratio", ratio)
    ufuncs = _scipy_ufuncs()
    return float(ufuncs.chdtr(dof, x)), float(ufuncs.chdtrc(dof, x))


_ufuncs_lock = threading.Lock()


@functools.cache
def _scipy_ufuncs():
    """``scipy.special._ufuncs``, loaded without running ``scipy/special/__init__.py``.

    That ``__init__`` takes most of the time and memory of importing the
    package (SciPy's array-API layer reads every attribute of NumPy, which
    loads ``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and more), while
    the package's ``ndtri``, ``chdtr`` and ``chdtrc`` are the plain ufuncs
    of the compiled ``scipy.special._ufuncs``.  So they are always taken
    from ``_ufuncs``, whether the package is loaded or not.  If it is not,
    a bare stand-in for it goes into ``sys.modules`` first, which the
    relative imports of ``_ufuncs``'s sibling extension modules need, and
    is removed before returning, so a later ``import scipy.special`` runs
    the real ``__init__``; that reuses the loaded ``_ufuncs``, so its
    ufuncs are these.  The import system binds a submodule on its parent
    package only when it loaded the parent itself, so the stand-in is never
    bound on ``scipy``.  The package binds
    ``_ufuncs`` as an attribute but not the four sibling extension modules,
    which stay reachable by import.  Another thread importing
    ``scipy.special`` while the stand-in is in place would get the stand-in.
    """
    with _ufuncs_lock:
        stub = None
        if "scipy.special" not in sys.modules:
            import scipy

            stub = types.ModuleType("scipy.special")
            stub.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
            sys.modules["scipy.special"] = stub
        try:
            from scipy.special import _ufuncs
        finally:
            if stub is not None and sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
        return _ufuncs


def _shot_normals(key: int, start: int, count: int) -> np.ndarray:
    """Standard normals for shots [start, start + count), shot-indexed, shape (count, 2).

    Each shot consumes exactly ``_WORDS_PER_SHOT`` 64-bit words; ``start``
    must land on a 4-word counter tick.
    """
    from numpy.random import Generator, Philox

    offset = start * _WORDS_PER_SHOT
    if offset % _WORDS_PER_TICK:
        raise ValueError("batch start is not aligned to the Philox counter")
    gen = Generator(Philox(key=key).advance(offset // _WORDS_PER_TICK))
    u = gen.random((count, _WORDS_PER_SHOT))
    np.maximum(u, _MIN_UNIFORM, out=u)
    return ndtri(u, out=u)


def accumulate_affine_moments(z, a, c, *, scratch):
    """Accumulate error moments for shots ``e_i = a @ z_i + c``.

    Reductions use NumPy's pairwise summation; batches are combined with
    compensated sums by the caller.  ``z`` is only read.  The errors are
    written as two rows, e1 and e2, into the first n columns of rows 0 and 1
    of the (3, m) scratch and one length-n temporary into the first n
    entries of row 2, so a caller reuses one scratch for all its batches.

    The sums are bitwise those of ``e = z @ a.T + c`` summed column by
    column: the product is formed as ``a @ z.T``, which hands BLAS
    contiguous operands and rounds each error the same way; the offset is
    added to each row once per element, as the broadcast does; and each
    pairwise sum sees the same n values in the same order in a contiguous
    row as in a strided column.

    Args:
        z: (n, k) standard-normal draws
        a: (2, k) affine transform rows
        c: (2,) affine offset
        scratch: C-contiguous float64 array of shape (3, m) with m >= n

    Returns:
        tuple: (sum e1, sum e2, sum e1^2, sum e2^2, sum e1*e2,
                sum (e1^2 + e2^2)^2)

    Raises:
        ValueError: naming the argument whose shape or dtype is wrong; z, a
            and c must hold integers or floats
    """
    z = check_real_array("z", z)
    a = check_real_array("a", a)
    c = check_real_array("c", c)
    if z.ndim != 2:
        raise ValueError(f"z must be an (n, k) array, got shape {z.shape}")
    n, k = z.shape
    if a.shape != (2, k):
        raise ValueError(f"a must have shape (2, {k}), got {a.shape}")
    if c.shape != (2,):
        raise ValueError(f"c must have shape (2,), got {c.shape}")
    if not (isinstance(scratch, np.ndarray) and scratch.dtype == np.float64 and scratch.ndim == 2
            and scratch.shape[0] == 3 and scratch.shape[1] >= n and scratch.flags.c_contiguous):
        raise ValueError(f"scratch must be a float64 (3, m) array, C-contiguous, with m >= {n}, "
                         f"got {getattr(scratch, 'dtype', type(scratch).__name__)} "
                         f"{getattr(scratch, 'shape', '')}")
    e, tmp = scratch[:2, :n], scratch[2, :n]
    np.matmul(a, z.T, out=e)
    e1, e2 = e
    e1 += c[0]
    e2 += c[1]
    s1, s2 = float(e1.sum()), float(e2.sum())
    np.multiply(e1, e2, out=tmp)
    s12 = float(tmp.sum())
    e *= e  # the rows now hold e1^2 and e2^2
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


def _accumulate(jobs: list[tuple[int, int, np.ndarray, np.ndarray]]) -> list[list[float]]:
    """Stream each job's shots through the kernel; one Kahan-combined sum list per job.

    A job ``(key, count, transform, offset)`` covers shots [0, count) of the
    stream keyed by ``key``.  W workers (the calling thread and W - 1 plain
    threads) take ``(job, batch)`` pairs one at a time, under a lock, from
    one shared iterator over all jobs in order, each with one (3, m) kernel
    scratch array for the whole call, m the largest batch, so a worker
    that finishes one job's last batch goes straight on to the next job.
    Under the same lock, a worker adds each batch's sums to its job's total
    as the batch finishes, in batch-index order: sums that finish before an
    earlier batch of their job wait until it is added.  So the results
    depend neither on W nor on which worker ran which batch, and no sums are
    kept per batch: only those waiting for an earlier batch still running.
    Every batch draws into a fresh array, so a wrapped kernel may keep its
    ``z``.  W is the usable CPU count, but at most the number of batches the
    call's shots would fill if they were one job: a call whose shots fit in
    one batch starts no thread, however many jobs share them.  A worker
    that raises, the calling thread on a ``KeyboardInterrupt`` among them,
    keeps the error and stops the queue: each other worker finishes the
    batch it holds and takes no other.  The calling thread joins every
    thread it started, then raises the first error.
    """
    if not jobs:
        return []
    # load NumPy's bit generators and SciPy's ndtri (from the compiled
    # scipy.special._ufuncs, not the scipy.special package) here, before any
    # worker starts, so no worker thread imports inside a draw
    import numpy.random  # noqa: F401

    _scipy_ufuncs()

    starts = [range(0, count, BATCH_SIZE) for _, count, _, _ in jobs]
    shots = sum(count for _, count, _, _ in jobs)
    workers = min(_usable_cpus(), -(-shots // BATCH_SIZE))
    size = min(BATCH_SIZE, max(count for _, count, _, _ in jobs))
    batches = ((j, b, s) for j, job_starts in enumerate(starts) for b, s in enumerate(job_starts))
    lock = threading.Lock()
    totals = [_KahanSums(6) for _ in jobs]
    added = [0] * len(jobs)  # per job, the index of the next batch its total takes
    waiting: dict[tuple[int, int], tuple] = {}  # finished batches whose turn has not come
    errors = []  # what the workers raised, first error first
    stop = False  # set on an error, and by the calling thread once it leaves work()

    def combine(j, b, batch_sums):
        waiting[j, b] = batch_sums
        while (j, added[j]) in waiting:
            totals[j].add(waiting.pop((j, added[j])))
            added[j] += 1

    def work():
        nonlocal stop
        scratch = np.empty((3, size))
        done = None
        try:
            while True:
                with lock:
                    if done is not None:
                        combine(*done)
                    j, b, s = (None, None, None) if stop else next(batches, (None, None, None))
                if j is None:
                    return
                key, count, transform, offset = jobs[j]
                # no reference to the draws outlives the call, so the next
                # batch's draws can take their freed memory
                done = j, b, accumulate_affine_moments(
                    _shot_normals(key, s, min(BATCH_SIZE, count - s)),
                    transform, offset, scratch=scratch)
        except BaseException as exc:  # a KeyboardInterrupt in the calling thread too
            with lock:
                errors.append(exc)
                stop = True

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        with lock:
            stop = True
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    return [agg.total for agg in totals]


def _direct_result(sums: list[float], n: int) -> SimResult:
    """The SimResult of ``n`` per-shot errors with the accumulated ``sums``."""
    s1, s2, q11, q22, q12, q4 = sums
    mse_sum = (q11 + q22) / n
    if n > 1:
        var = max(q4 / n - mse_sum * mse_sum, 0.0)
        std_error = math.sqrt(var / (n - 1))
    else:
        std_error = math.inf
    return SimResult(
        mse_sum=mse_sum,
        mse_matrix=np.array([[q11, q12], [q12, q22]]) / n,
        std_error=std_error,
        bias=np.array([s1, s2]) / n,
        samples=n,
    )


def _two_stage_result(sums: list[float], n2: int) -> SimResult:
    """The SimResult of a two-stage run, from the ``sums`` of its ``n2`` stage-2 shots."""
    stage2 = _direct_result(sums, n2)
    # covariance about the empirical mean, then scaled to the pooled estimator
    # (n2 >= 2, as SimConfig asks for at least 4 shots)
    centered = (stage2.mse_matrix - np.outer(stage2.bias, stage2.bias)) * (n2 / (n2 - 1))
    pooled_cov = centered / n2
    return SimResult(
        mse_sum=float(np.trace(pooled_cov)),
        mse_matrix=pooled_cov,
        std_error=stage2.std_error / n2,
        bias=stage2.bias,
        samples=n2,
    )


def run(config: SimConfig) -> SimResult:
    """Run the simulation described by ``config``; ``run_many([config])[0]``.

    Draws ``config.samples`` dual-homodyne outcomes from the exact 2D
    outcome marginal, applies the linear unbiased estimator and returns the
    empirical MSE statistics.  The result is a pure function of ``config``;
    identical configs give bitwise-identical results.

    With ``config.mode == "two_stage"`` the estimation is adaptive: stage 1
    would spend ``n1 = floor(sqrt(samples))`` shots on a rough estimate
    theta_rough, and stage 2 displaces by -theta_rough (a mean shift) and
    estimates the residual with the remaining n2 shots, drawn from the
    stream keyed by ``derive_seed(seed, 1)``.  The outcome covariance does
    not depend on the displacement, so stage 2's error does not depend on
    theta_rough: its shots err exactly as those of a direct run of n2 shots
    at ``theta_true`` on that key.  No reported number depends on stage 1,
    so stage 1 is not drawn, and only the n2 stage-2 shots are sampled.
    ``bias`` is the mean stage-2 error, that of the final estimate
    theta_rough + pooled residual estimate.  ``mse_matrix`` estimates the
    covariance of that pooled estimator (empirical per-shot covariance
    about the mean, divided by n2), so ``mse_sum * n2 -> (8N + 4) e^-2r``.
    ``std_error`` is the direct run's divided by n2, and neglects the
    O(1/n) shift from centering, which is below its own resolution.

    Args:
        config: simulation settings (``theta_true`` is the unknown target)

    Returns:
        SimResult
    """
    return run_many([config])[0]


def run_many(configs: Iterable[SimConfig]) -> list[SimResult]:
    """Run the simulations described by ``configs``, sampling them through one batch queue.

    ``configs`` is any iterable of :class:`SimConfig`, read once; a
    ``configs`` that is not iterable raises ``ValueError``, and so does an
    entry that is not a ``SimConfig``, naming its index, before anything is
    drawn.  Each result is bitwise the one ``run`` gives
    for that config alone.  All outcome models are built first, as one
    accumulation job per config (a two-stage config's job is its stage 2;
    see :func:`run`); then one ``_accumulate`` call hands out the batches
    of every job from one queue, so no worker waits at the end of one
    config while batches of the next are left.

    Args:
        configs: simulation settings, one per result

    Returns:
        list of SimResult, in the order of ``configs``
    """
    try:
        configs = iter(configs)
    except TypeError:
        raise ValueError("configs must be an iterable of SimConfig, "
                         f"got {type(configs).__name__}") from None
    configs = list(configs)
    jobs = []
    for index, config in enumerate(configs):
        if not isinstance(config, SimConfig):
            raise ValueError(f"configs[{index}] must be a SimConfig, got {type(config).__name__}")
        model = outcome_distribution(config.r, config.photons, config.theta_true)
        jinv = np.linalg.inv(model.jacobian)
        transform = jinv @ np.linalg.cholesky(model.cov)
        # each shot's error jinv @ outcome - theta_true is transform @ z + error
        error = jinv @ model.mean - np.array(config.theta_true)
        key, count = config.seed, config.samples
        if config.mode == "two_stage":
            # only stage 2 is drawn, from the stream derived for it
            key, count = derive_seed(key, 1), count - math.isqrt(count)
        jobs.append((key, count, transform, error))
    return [_two_stage_result(sums, count) if config.mode == "two_stage"
            else _direct_result(sums, count)
            for config, sums, (_, count, _, _) in zip(configs, _accumulate(jobs), jobs)]
