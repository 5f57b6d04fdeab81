"""Call-boundary spans for the traced run, and the arithmetic on them.

The tracer replaces module-level names of cvmb with wrappers that record
one span per call.  This works because each wrapped name is looked up as a
global when it is called, so the package itself is not changed.  A name
that a later refactor removes is recorded as missing: the metrics of its
layer are reported as missing, and the run goes on.

Spans are kept in memory as ``[name, start, end, parent]`` (parent is the
index of the enclosing span, or -1) and summarised when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time


def _count_draws(tracer, args, kwargs, result):
    tracer.count("simulate.shots", len(result))


def _count_kernel(tracer, args, kwargs, result):
    z = args[0]
    tracer.count("kernels.shots", z.shape[0])
    # computed, not measured: one float64 word per normal read
    tracer.count("kernels.bytes_in", 8 * z.shape[0] * z.shape[1])
    if tracer.kernel_sample is None:
        tracer.kernel_sample = (z, args[1], args[2], result)


def _count_minimize(tracer, args, kwargs, result):
    tracer.count("holevo.minimize.nit", int(getattr(result, "nit", 0)))
    tracer.count("holevo.minimize.converged", int(bool(getattr(result, "success", False))))


def _count_write(tracer, args, kwargs, result):
    tracer.count("cli.bytes_out", len(args[0].encode("utf-8")))


# span name, target as "module:attribute.path", aliases, counter hook.
# Aliases are the same function imported into another module; the layer is
# only reported missing when its first target is.
CALL_LAYERS = (
    ("simulate.run", "cvmb.simulate:run", ("cvmb.cli:run",), None),
    ("simulate.outcome_distribution", "cvmb.simulate:outcome_distribution", (), None),
    ("simulate.draws", "cvmb.simulate:_shot_normals", (), _count_draws),
    ("simulate.draws.ndtri", "cvmb.simulate:ndtri", (), None),
    ("kernels", "cvmb.simulate:accumulate_affine_moments", (), _count_kernel),
    ("simulate.combine", "cvmb.simulate:_KahanSums.add", (), None),
    ("bounds.closed_form_bounds", "cvmb.bounds:closed_form_bounds",
     ("cvmb.cli:closed_form_bounds",), None),
    ("holevo.solve_numeric", "cvmb.holevo:solve_numeric", (), None),
    ("holevo.solve_analytic", "cvmb.holevo:solve_analytic", ("cvmb.cli:solve_analytic",), None),
    ("holevo.minimize", "cvmb.holevo:minimize", (), _count_minimize),
    ("cli.sweep_rows", "cvmb.cli:sweep_rows", (), None),
    ("cli.rows_to_csv", "cvmb.cli:rows_to_csv", (), None),
    ("cli.write", "cvmb.cli:_write", (), _count_write),
    ("cli.figure_series", "cvmb.cli:figure_series", (), None),
)
GAUSSIAN_USERS = ("cvmb.simulate", "cvmb.bounds")


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self.kernel_sample = None

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, target: str, name: str, hook=None) -> bool:
        """Wrap ``module:attr.path`` in a span named ``name``; False if it is absent."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            return False
        setattr(owner, attr, self._wrapper(fn, name, hook))
        return True

    def _wrapper(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = (start, end)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every layer of CALL_LAYERS, the gaussian functions and ``*_bound``."""
        for name, target, aliases, hook in CALL_LAYERS:
            if not self.wrap(target, name, hook):
                self.missing[name] = target
            for alias in aliases:
                self.wrap(alias, name, hook)
        self._install_group("gaussian", GAUSSIAN_USERS,
                            lambda attr, obj: obj.__module__ == "cvmb.gaussian")
        self._install_group("bounds", ("cvmb.bounds",),
                            lambda attr, obj: attr.endswith("_bound"))

    def _install_group(self, layer, modules, select):
        found = 0
        for module_name in modules:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and select(attr, obj):
                    found += self.wrap(f"{module_name}:{attr}", f"{layer}.{attr}")
        if not found:
            self.missing[layer] = f"{layer} functions in {', '.join(modules)}"

    def summary(self) -> dict:
        """JSON-ready per-span-name totals, counters and the kernel check."""
        stats, root_s = span_stats(self.spans)
        return {"spans": stats, "root_s": root_s, "counters": self.counters,
                "missing": self.missing,
                "kernel_check": None if self.kernel_sample is None
                else kernel_check(*self.kernel_sample)}


def covered(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of ``(start, end)`` intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans) -> tuple[dict, float]:
    """Per name: calls, total and self time; plus the time covered by root spans.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    stats: dict[str, dict] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered(children.get(index, ()), start, end)
    return stats, covered(children.get(-1, ()))


def kernel_check(z, a, c, sums) -> dict:
    """Worst error of the kernel's six sums against ``math.fsum`` on one batch.

    The error is relative to the fsum of the absolute terms, because the
    plain sums of the mean-zero errors can be arbitrarily close to zero.
    """
    import numpy as np

    e = np.asarray(z, dtype=float) @ np.asarray(a, dtype=float).T + np.asarray(c, dtype=float)
    e1, e2 = e[:, 0], e[:, 1]
    sq = e1 * e1 + e2 * e2
    worst = 0.0
    for terms, got in zip((e1, e2, e1 * e1, e2 * e2, e1 * e2, sq * sq), sums):
        values = terms.tolist()
        scale = math.fsum(abs(x) for x in values) or 1.0
        worst = max(worst, abs(got - math.fsum(values)) / scale)
    return {"rel_err": worst, "shots": len(e1)}


# ------------------------------------------------------------------ imports

IMPORT_METRICS = {
    "import.cvmb_s": "cvmb",
    "import.cvmb.holevo_s": "cvmb.holevo",
    "import.scipy.optimize_s": "scipy.optimize",
    "import.cvmb.simulate_s": "cvmb.simulate",
}


def parse_importtime(stderr: str) -> tuple[dict[str, float], float]:
    """Cumulative seconds per module from ``-X importtime``, and the top-level total."""
    modules: dict[str, float] = {}
    top = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        seconds = int(fields[1]) * 1e-6
        name = fields[2].strip()
        modules.setdefault(name, seconds)
        if len(fields[2]) - len(fields[2].lstrip()) == 1:
            top += seconds
    return modules, top


# ------------------------------------------------------------ layer metrics

# metric -> (unit, layers it needs); a missing layer makes the metric missing
PER_LAYER = {
    "import.cvmb_s": ("s", ()),
    "import.cvmb.holevo_s": ("s", ()),
    "import.scipy.optimize_s": ("s", ()),
    "import.cvmb.simulate_s": ("s", ()),
    "simulate.draws_s": ("s", ("simulate.draws",)),
    "simulate.draws.ndtri_s": ("s", ("simulate.draws.ndtri",)),
    "simulate.draws.philox_s": ("s", ("simulate.draws", "simulate.draws.ndtri")),
    "simulate.combine_s": ("s", ("simulate.combine",)),
    "simulate.batches": ("count", ("simulate.draws",)),
    "simulate.shots": ("count", ("simulate.draws",)),
    "kernels.calls": ("count", ("kernels",)),
    "kernels.busy_s": ("s", ("kernels",)),
    "kernels.mshots_per_s": ("Mshots/s", ("kernels",)),
    "kernels.bytes_in": ("bytes", ("kernels",)),
    "simulate.outcome_distribution_s": ("s", ("simulate.outcome_distribution",)),
    "gaussian.calls": ("count", ("gaussian",)),
    "gaussian.self_s": ("s", ("gaussian",)),
    "holevo.solve_numeric_s": ("s", ("holevo.solve_numeric",)),
    "holevo.minimize.calls": ("count", ("holevo.minimize",)),
    "holevo.minimize.nit": ("count", ("holevo.minimize",)),
    "holevo.converged_frac": ("fraction", ("holevo.minimize",)),
    "bounds.calls": ("count", ("bounds", "bounds.closed_form_bounds")),
    "bounds.self_s": ("s", ("bounds", "bounds.closed_form_bounds")),
    "cli.sweep_rows.self_s": ("s", ("cli.sweep_rows",)),
    "cli.rows_to_csv_s": ("s", ("cli.rows_to_csv",)),
    "cli.write_s": ("s", ("cli.write",)),
    "cli.bytes_out": ("bytes", ("cli.write",)),
    "proc.cpu_s": ("s", ()),
    "traced.unattributed_s": ("s", ()),
    "traced.overhead_s": ("s", ()),
}


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the span stats and counters of several processes of one pass."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    missing: dict[str, str] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for key, n in summary["counters"].items():
            counters[key] = counters.get(key, 0) + n
        missing.update(summary["missing"])
    return {"spans": spans, "counters": counters, "missing": missing}


def call_layer_metrics(merged: dict) -> dict[str, float]:
    """The span-derived per-layer metrics of one pass.

    A layer that did no work on a workload reads 0, rates and fractions
    included.
    """
    spans, counters = merged["spans"], merged["counters"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def group(prefix, key):
        return sum(e[key] for n, e in spans.items() if n.startswith(prefix + "."))

    kernel_busy = get("kernels", "total_s")
    minimize_calls = get("holevo.minimize", "calls")
    return {
        "simulate.draws_s": get("simulate.draws", "total_s"),
        "simulate.draws.ndtri_s": get("simulate.draws.ndtri", "total_s"),
        "simulate.draws.philox_s": get("simulate.draws", "self_s"),
        "simulate.combine_s": get("simulate.combine", "total_s"),
        "simulate.batches": get("simulate.draws", "calls"),
        "simulate.shots": counters.get("simulate.shots", 0),
        "kernels.calls": get("kernels", "calls"),
        "kernels.busy_s": kernel_busy,
        "kernels.mshots_per_s": (counters.get("kernels.shots", 0) / kernel_busy / 1e6
                                 if kernel_busy > 0 else 0.0),
        "kernels.bytes_in": counters.get("kernels.bytes_in", 0),
        "simulate.outcome_distribution_s": get("simulate.outcome_distribution", "total_s"),
        "gaussian.calls": group("gaussian", "calls"),
        "gaussian.self_s": group("gaussian", "self_s"),
        "holevo.solve_numeric_s": get("holevo.solve_numeric", "total_s"),
        "holevo.minimize.calls": minimize_calls,
        "holevo.minimize.nit": counters.get("holevo.minimize.nit", 0),
        "holevo.converged_frac": (counters.get("holevo.minimize.converged", 0) / minimize_calls
                                  if minimize_calls else 0.0),
        "bounds.calls": group("bounds", "calls"),
        "bounds.self_s": group("bounds", "self_s"),
        "cli.sweep_rows.self_s": get("cli.sweep_rows", "self_s"),
        "cli.rows_to_csv_s": get("cli.rows_to_csv", "total_s"),
        "cli.write_s": get("cli.write", "total_s"),
        "cli.bytes_out": counters.get("cli.bytes_out", 0),
    }
