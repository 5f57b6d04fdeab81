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
import gc
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from cvmb.bounds import closed_form_bounds, closed_form_holevo, dual_homodyne_mse_analytic
from cvmb.inputs import (
    MAX_R_STEPS,
    MAX_SAMPLES,
    check_count,
    check_integer,
    check_photons,
    check_real,
    check_seed,
    check_squeezing,
    check_two_mode_r,
)
from cvmb.simulate import SimConfig, derive_seed, run_many
# not called here: the benchmark tracer (perfbench/tracing.py) wraps
# cvmb.cli:run and cvmb.cli:solve_analytic by name
from cvmb.holevo import solve_analytic  # noqa: F401
from cvmb.simulate import run  # noqa: F401

__all__ = ["SweepSpec", "BoundSweepRow", "sweep_rows", "rows_to_csv", "gate_failures", "main",
           "console_main"]

CSV_HEADER = "r,N,C_S,C_R,C_H,V_DH,V_DH_emp,V_DH_se"

USAGE_ERROR = 1
GATE_ERROR = 2

# a simulated row fails its gate when |emp - analytic| exceeds this many SEs
GATE_SIGMAS = 4.0


@dataclass(frozen=True)
class SweepSpec:
    """Effective sweep settings after flag/config/default resolution.

    Each field is one setting: the ``--r-min`` style flag and the ``r_min``
    config key are derived from it, and its type says how their text is read.
    """

    r_min: float = 0.0
    r_max: float = 1.5
    r_steps: int = 16
    photons: float = field(default=0.0, metadata={"help": "thermal photon number N"})
    probe: str = field(default="two_mode", metadata={"help": "single or two-mode"})
    samples: int = field(default=0, metadata={"help": "Monte Carlo shots per row"})
    seed: int = 12345
    out: str | None = field(default=None, metadata={"help": "output CSV path (default: stdout)"})

    def validate(self) -> SweepSpec:
        """This spec with its numbers checked and converted to Python floats and ints.

        ``ValueError`` names the offending setting as its flag is spelled.
        ``r_steps`` is at most ``cvmb.inputs.MAX_R_STEPS`` and ``samples`` at
        most ``cvmb.inputs.MAX_SAMPLES``, so neither the grid nor a draw is
        sized past them.
        """
        photons = check_photons("photons", self.photons)
        r_min = check_squeezing("r-min", self.r_min, photons)
        r_max = check_squeezing("r-max", self.r_max, photons)
        if self.probe not in ("single", "two_mode"):
            raise ValueError(f"unknown probe {self.probe!r}")
        if self.probe == "two_mode":
            check_two_mode_r("r-min", r_min, photons)
        if r_min > r_max:
            raise ValueError("r-min must not exceed r-max")
        r_steps = check_count("r-steps", self.r_steps, MAX_R_STEPS)
        if r_steps < 1:
            raise ValueError("r-steps must be at least 1")
        samples = check_count("samples", self.samples, MAX_SAMPLES)
        if samples < 0:
            raise ValueError("samples must be non-negative")
        return replace(self, r_min=r_min, r_max=r_max, r_steps=r_steps, photons=photons,
                       samples=samples, seed=check_seed("seed", self.seed))

    def r_grid(self) -> np.ndarray:
        if self.r_steps == 1:
            return np.array([self.r_min])
        return np.linspace(self.r_min, self.r_max, self.r_steps)


@dataclass(frozen=True)
class BoundSweepRow:
    """One grid point of a sweep, its fields in CSV column order; None marks an
    intentionally empty field."""

    r: float
    photons: float
    c_s: float
    c_r: float
    c_h: float | None
    v_dh: float
    v_dh_emp: float | None = None
    v_dh_se: float | None = None


def sweep_rows(spec: SweepSpec) -> list[BoundSweepRow]:
    """Evaluate all bounds (and optionally the simulation) over the grid.

    Simulation rows use the zero displacement (the MSE is displacement
    independent) and a per-row seed derived from ``spec.seed``.  All rows
    are sampled by one ``run_many`` call, so their batches share one queue;
    each row's result is still the one ``run`` gives for its config alone.
    Rows are emitted in grid order.
    """
    spec = spec.validate()
    grid = spec.r_grid()
    # every row's config is built, and so checked, before the first row is sampled
    configs = []
    if spec.samples > 0:
        configs = [SimConfig(r=r, photons=spec.photons, samples=spec.samples,
                             seed=derive_seed(spec.seed, i)) for i, r in enumerate(grid)]
    results = run_many(configs) or [None] * len(grid)
    rows = []
    for r, result in zip(grid, results):
        c_s, c_r = closed_form_bounds(r, spec.photons, spec.probe)
        c_h = closed_form_holevo(r, spec.photons, spec.probe)
        # on the single-mode probe both quadratures read the same mode, and
        # the MSE 2 + (2 + 4N) cosh 2r is the RLD bound
        v_dh = (c_r if spec.probe == "single"
                else dual_homodyne_mse_analytic(r, spec.photons).value)
        emp = se = None
        if result is not None:
            emp, se = result.mse_sum, result.std_error
        rows.append(BoundSweepRow(float(r), spec.photons, c_s, c_r, c_h, v_dh, emp, se))
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12e}"


def rows_to_csv(rows: list[BoundSweepRow]) -> str:
    lines = [CSV_HEADER] + [",".join(map(_fmt, vars(row).values())) for row in rows]
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

    The two-mode series over ``spec.r_grid()`` at ``spec.photons``; a
    single-mode ``spec.probe`` raises ``ValueError``.
    """
    if spec.probe != "two_mode":
        raise ValueError("figure1 plots the two-mode probe; use --probe two-mode")
    rows = sweep_rows(replace(spec, samples=0))
    return np.array([(row.r, row.c_s, row.c_r, max(row.c_s, row.c_r), row.v_dh) for row in rows])


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
    # read as text; effective_spec converts flags and config values alike
    for f in fields(SweepSpec):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                            help=f.metadata.get("help"))
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


_FIELD_TYPES = {f.name: f.type for f in fields(SweepSpec)}
# how the text of a setting is read, by field type, and the check whose
# ValueError names the setting when the text does not parse
_PARSERS = {"float": (float, check_real), "int": (int, check_integer)}


def _coerce(key: str, raw: str):
    """The text of a flag or config value as the type of its SweepSpec field."""
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    if key == "probe":
        return raw.replace("-", "_")  # both spellings, two-mode and two_mode
    if _FIELD_TYPES[key] not in _PARSERS:
        return raw
    parse, check = _PARSERS[_FIELD_TYPES[key]]
    try:
        return parse(raw)
    except ValueError:
        return check(key.replace("_", "-"), raw)  # rejects the text, naming the setting


def effective_spec(args: argparse.Namespace, environ=os.environ,
                   defaults: SweepSpec | None = None) -> SweepSpec:
    """Resolve flags > config file > CVMB_SEED > defaults into a checked SweepSpec."""
    spec = defaults if defaults is not None else SweepSpec()
    env_seed = environ.get("CVMB_SEED")
    if env_seed is not None:
        spec = replace(spec, seed=_coerce("seed", env_seed))
    if args.config is not None:
        settings = read_config_file(args.config)
        spec = replace(spec, **{key: _coerce(key, raw) for key, raw in settings.items()})
    flags = {key: getattr(args, key) for key in _FIELD_TYPES}
    spec = replace(spec, **{key: _coerce(key, raw) for key, raw in flags.items()
                            if raw is not None})
    return spec.validate()


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


def console_main():
    """Run :func:`main` on ``sys.argv`` and exit the process with its code.

    The entry of the ``cvmb`` script and of ``python -m cvmb.cli``.  It
    freezes the garbage collector before exiting, so the interpreter's
    final collections skip the objects the imports made.  atexit handlers
    still run and stdout and stderr are still flushed.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
