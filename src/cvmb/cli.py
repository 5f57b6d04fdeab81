"""Command-line harness: bound sweeps, simulation gates, figure data.

Subcommands
-----------
bounds     sweep (r, N) and emit all bounds as CSV
simulate   same sweep plus Monte Carlo dual-homodyne columns; exits 2 if
           any empirical value falls outside 4 standard errors
figure1    emit the comparison series at fixed N (SLD, RLD, max of both,
           dual-homodyne MSE) as plot-ready CSV plus per-series .dat files

Settings resolve as: command-line flags > config file (``key=value``
lines, ``#`` comments, UTF-8) > ``CVMB_SEED`` environment variable (seed
only) > built-in defaults.  ``--show-config`` prints the effective
settings and exits.

Exit codes: 0 success, 1 usage error, 2 statistical gate failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from cvmb.bounds import (
    MAX_PHOTONS,
    closed_form_bounds,
    dual_homodyne_mse_analytic,
    squeezing_limit,
    two_mode_min_r,
)
from cvmb.holevo import solve_analytic
from cvmb.simulate import SimConfig, check_integer, derive_seed, run

__all__ = ["SweepSpec", "BoundSweepRow", "sweep_rows", "rows_to_csv", "gate_failures", "main"]

CSV_HEADER = "r,N,C_S,C_R,C_H,V_DH,V_DH_emp,V_DH_se"

USAGE_ERROR = 1
GATE_ERROR = 2

_DEFAULT_SEED = 12345

# a simulated row fails its gate when |emp - analytic| exceeds this many SEs
GATE_SIGMAS = 4.0


@dataclass(frozen=True)
class SweepSpec:
    """Effective sweep settings after flag/config/default resolution."""

    r_min: float = 0.0
    r_max: float = 1.5
    r_steps: int = 16
    photons: float = 0.0
    probe: str = "two_mode"
    samples: int = 0
    seed: int = _DEFAULT_SEED
    out: str | None = None

    def validate(self):
        for name in ("r_min", "r_max", "photons"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name.replace('_', '-')} must be finite")
        for name in ("r_steps", "samples", "seed"):
            check_integer(name.replace("_", "-"), getattr(self, name))
        if self.photons < 0:
            raise ValueError("photons must be non-negative")
        if self.photons > MAX_PHOTONS:
            raise ValueError(f"photons = {self.photons:g} is above the limit {MAX_PHOTONS:g}")
        limit = squeezing_limit(self.photons)
        for name in ("r_min", "r_max"):
            r = getattr(self, name)
            if abs(r) > limit:
                raise ValueError(f"{name.replace('_', '-')} = {r:g} is outside |r| <= {limit:g}, "
                                 f"where the closed forms at N = {self.photons:g} stay finite")
        r_lowest = two_mode_min_r(self.photons)
        if self.probe == "two_mode" and self.r_min < r_lowest:
            raise ValueError(f"r-min = {self.r_min:g} is below the limit {r_lowest:g}, past which "
                             f"(8N + 4) exp(-2r) at N = {self.photons:g} overflows")
        if self.r_min > self.r_max:
            raise ValueError("r-min must not exceed r-max")
        if self.r_steps < 1:
            raise ValueError("r-steps must be at least 1")
        if self.samples < 0:
            raise ValueError("samples must be non-negative")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.probe not in {"single", "two_mode"}:
            raise ValueError(f"unknown probe {self.probe!r}")

    def r_grid(self) -> np.ndarray:
        if self.r_steps == 1:
            return np.array([self.r_min])
        return np.linspace(self.r_min, self.r_max, self.r_steps)


@dataclass(frozen=True)
class BoundSweepRow:
    """One grid point of a sweep; None marks an intentionally empty field."""

    r: float
    photons: float
    c_s: float
    c_r: float
    c_h: float | None
    v_dh: float
    v_dh_emp: float | None = None
    v_dh_se: float | None = None


def _holevo_entry(probe: str, r: float, photons: float, c_r: float) -> float | None:
    """C_H column policy, given the row's RLD bound ``c_r``.

    Pure probes take the analytic bound.  The mixed single-mode probe
    takes the RLD value: the dual homodyne attains it, and the Holevo
    bound is sandwiched between the RLD bound and any attainable MSE.
    The mixed two-mode bound is an open problem and stays empty.
    """
    if photons == 0:
        return solve_analytic(probe, r).bound
    if probe == "single":
        return c_r
    return None


def _dual_homodyne_entry(probe: str, r: float, photons: float, c_r: float) -> float:
    if probe == "two_mode":
        return dual_homodyne_mse_analytic(r, photons).value
    # single-mode probe: both quadratures read the same mode, and the MSE
    # 2 + (2 + 4N) cosh 2r is the RLD bound
    return c_r


def sweep_rows(spec: SweepSpec) -> list[BoundSweepRow]:
    """Evaluate all bounds (and optionally the simulation) over the grid.

    Simulation rows use the zero displacement (the MSE is displacement
    independent) and a per-row seed derived from ``spec.seed``, so rows
    are independent and could be evaluated in parallel; they are always
    emitted in grid order.
    """
    spec.validate()
    grid = spec.r_grid()
    # every row's config is built, and so checked, before the first row is sampled
    configs = [None] * len(grid)
    if spec.samples > 0:
        configs = [SimConfig(r=float(r), photons=spec.photons, samples=spec.samples,
                             seed=derive_seed(spec.seed, i)) for i, r in enumerate(grid)]
    rows = []
    for r, config in zip(grid, configs):
        c_s, c_r = closed_form_bounds(r, spec.photons, spec.probe)
        c_h = _holevo_entry(spec.probe, r, spec.photons, c_r)
        v_dh = _dual_homodyne_entry(spec.probe, r, spec.photons, c_r)
        emp = se = None
        if config is not None:
            result = run(config)
            emp, se = result.mse_sum, result.std_error
        rows.append(BoundSweepRow(float(r), spec.photons, c_s, c_r, c_h, v_dh, emp, se))
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12e}"


def rows_to_csv(rows: list[BoundSweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join([
            _fmt(row.r), _fmt(row.photons), _fmt(row.c_s), _fmt(row.c_r),
            _fmt(row.c_h), _fmt(row.v_dh), _fmt(row.v_dh_emp), _fmt(row.v_dh_se),
        ]))
    return "\n".join(lines) + "\n"


def gate_failures(rows: list[BoundSweepRow]) -> list[BoundSweepRow]:
    """Rows whose empirical MSE misses the analytic value by > GATE_SIGMAS SEs."""
    bad = []
    for row in rows:
        if row.v_dh_emp is None or row.v_dh_se is None:
            continue
        if abs(row.v_dh_emp - row.v_dh) > GATE_SIGMAS * row.v_dh_se:
            bad.append(row)
    return bad


def figure_series(spec: SweepSpec) -> np.ndarray:
    """Columns (r, C_S, C_R, max(C_S, C_R), V_DH) of the comparison figure.

    The two-mode series over ``spec.r_grid()`` at ``spec.photons``.
    """
    rs = spec.r_grid()
    out = np.empty((rs.size, 5))
    for i, r in enumerate(rs):
        c_s, c_r = closed_form_bounds(r, spec.photons, "two_mode")
        v_dh = dual_homodyne_mse_analytic(r, spec.photons).value
        out[i] = (r, c_s, c_r, max(c_s, c_r), v_dh)
    return out


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_sweep_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--r-min", type=float, default=None)
    parser.add_argument("--r-max", type=float, default=None)
    parser.add_argument("--r-steps", type=int, default=None)
    parser.add_argument("--photons", type=float, default=None, help="thermal photon number N")
    parser.add_argument("--probe", choices=["single", "two-mode"], default=None)
    parser.add_argument("--samples", type=int, default=None, help="Monte Carlo shots per row")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument("--config", default=None, help="key=value settings file")
    parser.add_argument("--show-config", action="store_true",
                        help="print the effective settings and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvmb", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("bounds", "sweep (r, N) and emit all bounds as CSV"),
        ("simulate", "bound sweep plus Monte Carlo columns with a 4-sigma gate"),
        ("figure1", "emit the fixed-N comparison series as plot data"),
    ]:
        p = sub.add_parser(name, help=doc)
        _add_sweep_flags(p)
    return parser


def read_config_file(path: str) -> dict[str, str]:
    """Parse a ``key=value`` settings file; ``#`` starts a comment."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


_FIELD_NAMES = {f.name for f in fields(SweepSpec)}


def _coerce(key: str, raw: str):
    if key in ("r_min", "r_max", "photons"):
        return float(raw)
    if key in ("r_steps", "samples", "seed"):
        return int(raw)
    if key == "probe":
        return raw.replace("-", "_")
    return raw


def effective_spec(args: argparse.Namespace, environ=os.environ,
                   defaults: SweepSpec | None = None) -> SweepSpec:
    """Resolve flags > config file > CVMB_SEED > defaults into a SweepSpec."""
    spec = defaults if defaults is not None else SweepSpec()
    env_seed = environ.get("CVMB_SEED")
    if env_seed is not None:
        spec = replace(spec, seed=int(env_seed))
    if args.config is not None:
        overrides = {}
        for key, raw in read_config_file(args.config).items():
            if key not in _FIELD_NAMES:
                raise ValueError(f"unknown config key {key!r}")
            overrides[key] = _coerce(key, raw)
        spec = replace(spec, **overrides)
    flag_map = {
        "r_min": args.r_min, "r_max": args.r_max, "r_steps": args.r_steps,
        "photons": args.photons, "samples": args.samples, "seed": args.seed,
        "out": args.out,
        "probe": None if args.probe is None else args.probe.replace("-", "_"),
    }
    spec = replace(spec, **{k: v for k, v in flag_map.items() if v is not None})
    spec.validate()
    return spec


def _show_config(spec: SweepSpec):
    for f in fields(SweepSpec):
        value = getattr(spec, f.name)
        print(f"{f.name}={'' if value is None else value}")


def cmd_bounds(spec: SweepSpec) -> int:
    rows = sweep_rows(replace(spec, samples=0))
    _write(rows_to_csv(rows), spec.out)
    return 0


def cmd_simulate(spec: SweepSpec) -> int:
    if spec.probe != "two_mode":
        raise ValueError("simulate models the two-mode dual homodyne; use --probe two-mode")
    if spec.samples < 1:
        raise ValueError("simulate requires --samples >= 1")
    rows = sweep_rows(spec)
    _write(rows_to_csv(rows), spec.out)
    bad = gate_failures(rows)
    if bad:
        for row in bad:
            z = (row.v_dh_emp - row.v_dh) / row.v_dh_se
            print(
                f"gate failure at r={row.r:.6g}: empirical {row.v_dh_emp:.6e} vs "
                f"analytic {row.v_dh:.6e} (se {row.v_dh_se:.3e}, "
                f"z = {z:+.2f}, gate |z| <= {GATE_SIGMAS:g})",
                file=sys.stderr,
            )
        return GATE_ERROR
    return 0


def cmd_figure1(spec: SweepSpec) -> int:
    data = figure_series(spec)
    lines = ["r,C_S,C_R,max_CS_CR,V_DH"]
    for row in data:
        lines.append(",".join(f"{v:.12e}" for v in row))
    out = spec.out or "figure1.csv"
    _write("\n".join(lines) + "\n", out)
    stem = out[:-4] if out.endswith(".csv") else out
    for col, name in [(1, "sld"), (2, "rld"), (3, "max"), (4, "dh")]:
        series = "\n".join(f"{row[0]:.12e} {row[col]:.12e}" for row in data) + "\n"
        _write(series, f"{stem}_{name}.dat")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = SweepSpec()
    if args.command == "figure1":
        defaults = replace(defaults, photons=0.1, r_steps=61)
    try:
        spec = effective_spec(args, defaults=defaults)
        if args.show_config:
            _show_config(spec)
            return 0
        if args.command == "bounds":
            return cmd_bounds(spec)
        if args.command == "simulate":
            return cmd_simulate(spec)
        return cmd_figure1(spec)
    except (ValueError, OSError) as exc:
        print(f"cvmb: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
