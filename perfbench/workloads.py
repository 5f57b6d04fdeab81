"""Seeded inputs, closed forms and output checks for the workloads.

Nothing here imports cvmb.  The closed forms are the benchmark's own, so a
change to the package cannot move the reference it is checked against.
Inputs come from ``random.Random(seed)``, whose stream for an integer seed
is fixed across Python versions.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("simulate-sweep", "bounds-crosscheck")
# runnable by name, but not part of BENCHMARK.json: too sensitive to other
# tenants of a shared host to hold a bound (see README.md)
EXTRA_WORKLOADS = ("simulate-many-small",)
CLI_WORKLOADS = ("simulate-sweep",)

SWEEP_SAMPLES = 1_000_000
SWEEP_STEPS = 16
R_MAX = 1.5
MANY_SMALL_CONFIGS = 2000
MANY_SMALL_SHOTS = (2000, 4000)
CROSSCHECK_POINTS = 40
# solve_numeric slows sharply as r -> 0 (seconds at r = 0.01); starting the
# grid at 0.1 keeps the work per pass nearly the same for every seed
CROSSCHECK_R_MIN = 0.1
PHOTON_GRID = (0.0, 0.1, 0.5, 2.0)
MIXED_PHOTONS = (0.1, 0.5, 2.0)

ANALYTIC_RTOL = 1e-12
HOLEVO_ATOL = 1e-6
RESIDUAL_TOL = 1e-10
MOMENT_ATOL = 1e-9
KERNEL_RTOL = 1e-12
# the pooled z is N(0, 1) for a correct sampler; |z| > 6 has probability 2e-9
POOLED_Z_LIMIT = 6.0

BOUNDS_HEADER = "r,N,C_S,C_R,C_H,V_DH,V_DH_emp,V_DH_se"


def closed_forms(r: float, n: float, probe: str) -> tuple[float, float, float | None, float]:
    """(C_S, C_R, C_H, V_DH) of a squeezed thermal probe; C_H is None where unknown.

    The two-mode RLD denominator ``(1 + 2N) cosh 2r - 1`` is written as
    ``2N cosh 2r + 2 sinh^2 r``, which does not cancel as N -> 0.
    """
    c = math.cosh(2.0 * r)
    if probe == "single":
        c_r = 2.0 + (2.0 + 4.0 * n) * c
        # the dual homodyne attains the RLD bound, which pins C_H to it
        return (2.0 + 4.0 * n) * c, c_r, c_r, c_r
    c_s = (2.0 + 4.0 * n) / c
    c_r = 0.0 if n == 0 else 8.0 * n * (1.0 + n) / (2.0 * n * c + 2.0 * math.sinh(r) ** 2)
    c_h = 4.0 * math.exp(-2.0 * r) if n == 0 else None
    return c_s, c_r, c_h, (8.0 * n + 4.0) * math.exp(-2.0 * r)


def r_grid(steps: int) -> list[float]:
    """The CLI's default squeezing grid: ``steps`` points over [0, 1.5]."""
    return [i * R_MAX / (steps - 1) for i in range(steps)]


def _close(got: float, want: float, rtol: float = ANALYTIC_RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


# ---------------------------------------------------------------- CLI workloads


@dataclass(frozen=True)
class Invocation:
    """One ``cvmb`` command of a CLI workload and what its output must hold."""

    command: str
    probe: str
    photons: float
    extra: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.command}_{self.probe}"

    def out_path(self, out_dir: str) -> str:
        return os.path.join(out_dir, self.label + ".csv")

    def argv(self, out_dir: str) -> list[str]:
        return [self.command, "--photons", repr(self.photons), *self.extra,
                "--probe", self.probe.replace("_", "-"), "--out", self.out_path(out_dir)]

    def outputs(self, out_dir: str) -> list[str]:
        return [self.out_path(out_dir)]


def cli_invocations(workload: str, seed: int) -> list[Invocation]:
    """The commands of one pass, in order."""
    return [Invocation("simulate", "two_mode", 0.0,
                       ("--samples", str(SWEEP_SAMPLES), "--seed", str(seed % 2 ** 64)))]


def check_outputs(inv: Invocation, out_dir: str) -> list[str]:
    """Errors in the CSV one ``simulate`` invocation wrote; empty when it is right."""
    path = inv.out_path(out_dir)
    if not os.path.isfile(path):
        return [f"{inv.label}: missing output {os.path.basename(path)}"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != BOUNDS_HEADER:
        return [f"{inv.label}: bad header"]
    grid = r_grid(SWEEP_STEPS)
    if len(rows) - 1 != len(grid):
        return [f"{inv.label}: {len(rows) - 1} rows, expected {len(grid)}"]
    errors = []
    for r, row in zip(grid, rows[1:]):
        try:
            got = [float(x) if x else None for x in row]
        except ValueError:
            errors.append(f"{inv.label}: unparsable row {row}")
            continue
        want = (r, inv.photons) + closed_forms(r, inv.photons, inv.probe)
        for name, g, w in zip(("r", "N", "C_S", "C_R", "C_H", "V_DH"), got, want):
            if (g is None) != (w is None) or (w is not None and not _close(g, w)):
                errors.append(f"{inv.label}: r={r:.6g} {name}={g} expected {w}")
        emp, se = got[6], got[7]
        if not (emp is not None and se is not None and math.isfinite(emp) and se > 0):
            errors.append(f"{inv.label}: r={r:.6g} Monte Carlo columns {emp}, {se}")
    return errors


# ------------------------------------------------------------ library workloads


def many_small_configs(seed: int) -> list[dict]:
    """SimConfig keyword sets: r stratified over [0, 1.5], N cycled, half two-stage."""
    rng = random.Random(seed)
    configs = []
    for i in range(MANY_SMALL_CONFIGS):
        theta = tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0) for _ in range(2))
        configs.append({
            "r": R_MAX * (i + rng.random()) / MANY_SMALL_CONFIGS,
            "photons": PHOTON_GRID[i % len(PHOTON_GRID)],
            "theta_true": theta,
            "samples": rng.randint(*MANY_SMALL_SHOTS),
            "seed": rng.getrandbits(64),
            "mode": "two_stage" if (i // len(PHOTON_GRID)) % 2 else "direct",
        })
    return configs


def crosscheck_points(seed: int) -> list[float]:
    """Squeezing values, one per stratum of [0.1, 1.5]."""
    rng = random.Random(seed)
    width = (R_MAX - CROSSCHECK_R_MIN) / CROSSCHECK_POINTS
    return [CROSSCHECK_R_MIN + width * (i + rng.random()) for i in range(CROSSCHECK_POINTS)]


def lib_inputs(workload: str, seed: int) -> list:
    if workload == "simulate-many-small":
        return many_small_configs(seed)
    return crosscheck_points(seed)


def shots_per_pass(workload: str, seed: int) -> int:
    if workload == "simulate-sweep":
        return SWEEP_SAMPLES * SWEEP_STEPS
    if workload == "simulate-many-small":
        return sum(cfg["samples"] for cfg in many_small_configs(seed))
    return 0


def many_small_z(cfg: dict, mse_sum: float) -> float:
    """Exact-moment z-score of one run's summed MSE.

    The per-shot errors are iid isotropic Gaussians with summed variance
    V = (8N + 4) e^-2r.  Direct mode reports the mean of e1^2 + e2^2 over n
    shots: mean V, variance V^2 / n.  Two-stage mode reports the trace of
    the unbiased sample covariance of n2 = n - isqrt(n) stage-2 shots,
    divided by n2: times n2 it has mean V and variance V^2 / (n2 - 1).
    Using the exact variance, not the run's own standard error, keeps the
    z free of the O(1/sqrt(n)) bias an estimated standard error brings.
    """
    v = closed_forms(cfg["r"], cfg["photons"], "two_mode")[3]
    n = cfg["samples"]
    if cfg["mode"] == "two_stage":
        n2 = n - math.isqrt(n)
        return (mse_sum * n2 - v) * math.sqrt(n2 - 1) / v
    return (mse_sum - v) * math.sqrt(n) / v


def check_many_small(configs: list[dict], values: list) -> dict[int, str]:
    """Failed op index -> reason.  A failed pooled z fails every op of the pass."""
    errors = {}
    zs = []
    for i, (cfg, v) in enumerate(zip(configs, values)):
        if v is None:
            continue
        if not (math.isfinite(v["mse_sum"]) and math.isfinite(v["std_error"]) and v["std_error"] > 0):
            errors[i] = f"config {i}: non-finite result {v}"
            continue
        zs.append(many_small_z(cfg, v["mse_sum"]))
    pooled = sum(zs) / math.sqrt(len(zs)) if zs else math.inf
    if not abs(pooled) <= POOLED_Z_LIMIT:
        reason = f"pooled z = {pooled:.3f} over {len(zs)} runs exceeds {POOLED_Z_LIMIT}"
        return {i: reason for i in range(len(configs))}
    return errors


def check_crosscheck(r: float, v: dict) -> list[str]:
    """Errors at one bounds-crosscheck point."""
    errors = []
    want_h = 4.0 * math.exp(-2.0 * r)
    if not abs(v["numeric"] - v["analytic"]) <= HOLEVO_ATOL:
        errors.append(f"r={r:.6g}: numeric {v['numeric']} vs analytic {v['analytic']}")
    if not v["residual"] <= RESIDUAL_TOL:
        errors.append(f"r={r:.6g}: constraint residual {v['residual']:.3e}")
    for name, want in (("analytic", want_h), ("audit_bound", want_h),
                       ("audit_spurious", 4.0 * math.exp(2.0 * r))):
        if not _close(v[name], want):
            errors.append(f"r={r:.6g}: {name} {v[name]} expected {want}")
    if not (v["audit_case_1a_g"] < 0 < v["audit_case_2_g"]):
        errors.append(f"r={r:.6g}: KKT audit case signs {v['audit_case_1a_g']}, {v['audit_case_2_g']}")
    if not max(v["audit_optimal_residual"], v["audit_spurious_residual"]) <= RESIDUAL_TOL:
        errors.append(f"r={r:.6g}: KKT stationarity residual too large")
    for n in MIXED_PHOTONS:
        for probe in ("single", "two_mode"):
            c_s, c_r, _, _ = closed_forms(r, n, probe)
            key = f"{probe}_{n}"
            if not (abs(v["sld_" + key] - c_s) <= MOMENT_ATOL
                    and abs(v["rld_" + key] - c_r) <= MOMENT_ATOL):
                errors.append(f"r={r:.6g} {key}: moment bounds {v['sld_' + key]}, "
                              f"{v['rld_' + key]} vs {c_s}, {c_r}")
            if not (_close(v["cf_s_" + key], c_s) and _close(v["cf_r_" + key], c_r)):
                errors.append(f"r={r:.6g} {key}: closed_form_bounds {v['cf_s_' + key]}, "
                              f"{v['cf_r_' + key]} vs {c_s}, {c_r}")
    return errors


def check_lib(workload: str, inputs: list, values: list) -> dict[int, str]:
    """Failed op index -> reason for one pass of a library workload."""
    if workload == "simulate-many-small":
        return check_many_small(inputs, values)
    errors = {}
    for i, (r, v) in enumerate(zip(inputs, values)):
        if v is not None:
            found = check_crosscheck(r, v)
            if found:
                errors[i] = "; ".join(found)
    return errors
