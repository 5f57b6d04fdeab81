#!/usr/bin/env python3
"""cvmb benchmark: end-to-end metrics per workload, or per-layer metrics traced.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout of the repository.  The package is loaded from that
checkout's src/ directory and never from an installed copy; without src/cvmb
the benchmark exits 2 and prints no result.

A run starts with one warm-up pass, checked but not timed, then repeats
timed passes of the workload until S seconds have gone (at least three), one
client in a closed loop.  The CLI workload starts ``python -m cvmb.cli`` afresh
for every command; library workloads start one fresh worker per pass, which
imports cvmb, prepares its inputs and then calls the public API.  With
``--trace 1`` an untraced and a traced pass alternate, and the per-layer
metrics come from the traced ones.

Stdout ends with two lines: a JSON report (provenance, every end-to-end
metric with its sample count, per-layer metrics, failures), then the result
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
T0 = "<t0>"  # replaced by the parent's monotonic clock just before a spawn

MIN_PASSES = 3
PROCESS_TIMEOUT_S = 150
MAX_FAILURE_MESSAGES = 20
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def tail_percentile(samples) -> tuple[float, float] | None:
    """(percentile, value): the highest ladder percentile with at least ten samples above it.

    Uses the nearest-rank definition, so the value is one of the samples.
    None when there are fewer than 20 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(round(p * n / 100.0, 9))  # round: 0.999 * 10000 is not 9990
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def source_sha256(src: str) -> str:
    """Digest of every file under src/, so results stay comparable outside git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _stderr_tail(text: str) -> str:
    lines = [line for line in text.splitlines() if not line.startswith("import time:")]
    return lines[-1][:300] if lines else ""


class Bench:
    """One run of one workload: passes, checks, and the numbers they give."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.is_cli = workload in workloads.CLI_WORKLOADS
        pythonpath = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
        self.inputs = None if self.is_cli else workloads.lib_inputs(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict = {}  # output name or op index -> first pass's result
        self.output_sha256: dict[str, str] = {}
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setup: list[float] = []
        self.kernel_checks: list[float] = []
        self.child_provenance: dict = {}
        self.work = None

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message[:500])

    def spawn(self, cmd: list[str]):
        """Run a child to completion: (process or None on timeout, wall s, CPU s)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.monotonic()
        cmd = [repr(start) if arg == T0 else arg for arg in cmd]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.monotonic() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        return proc, wall, cpu

    # ------------------------------------------------------------- passes

    def run(self) -> tuple[dict, dict]:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            one_pass = self.cli_pass if self.is_cli else self.lib_pass
            deadline = time.monotonic() + self.seconds
            # warm-up: fills the page cache and writes .pyc files; its outputs
            # are checked and become the reference, its times are dropped
            n_setup = len(self.setup)
            one_pass(traced=False)
            del self.setup[n_setup:]
            passes = 0
            cycle = 0.0
            # stop where the next cycle would end more than half of it past the deadline
            while passes < MIN_PASSES or time.monotonic() + cycle / 2 < deadline:
                start = time.monotonic()
                if self.is_cli and not self.trace:
                    self.setup_probe()
                self.untraced.append(one_pass(traced=False))
                if self.trace:
                    self.traced.append(one_pass(traced=True))
                passes += 1
                cycle = time.monotonic() - start
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass  # another run still uses it
        return self.report()

    def setup_probe(self):
        proc, _, _ = self.spawn([sys.executable, WORKER, "probe", T0])
        self.attempted += 1
        msg = _last_json(proc.stdout) if proc is not None and proc.returncode == 0 else None
        if msg is None:
            self.fail("set-up probe: import cvmb.cli failed: "
                      + (_stderr_tail(proc.stderr) if proc else "timed out"))
            return
        self.setup.append(msg["setup_s"])
        self.child_provenance = msg["provenance"]

    def check_identical(self, paths: list[str]) -> list[str]:
        errors = []
        for path in paths:
            name = os.path.basename(path)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            first = self.output_sha256.setdefault(name, digest)
            if digest != first:
                errors.append(f"{name} is not byte-identical to the first pass's")
        return errors

    def cli_pass(self, traced: bool) -> dict:
        out_dir = tempfile.mkdtemp(dir=self.work)
        latencies, summaries, imports = [], [], []
        cpu = unattributed = 0.0
        for inv in workloads.cli_invocations(self.workload, self.seed):
            argv = inv.argv(out_dir)
            if traced:
                cmd = [sys.executable, "-X", "importtime", WORKER, "cli-trace", "--", *argv]
            else:
                cmd = [sys.executable, "-m", "cvmb.cli", *argv]
            proc, wall, cpu_s = self.spawn(cmd)
            self.attempted += 1
            latencies.append(wall)
            cpu += cpu_s
            rc = "timeout" if proc is None else proc.returncode
            if traced and rc == 0:
                msg = _last_json(proc.stdout)
                rc = msg["rc"] if msg else "no report"
                if msg:
                    modules, top = tracing.parse_importtime(proc.stderr)
                    imports.append(modules)
                    summaries.append(msg["trace"])
                    unattributed += wall - top - msg["trace"]["root_s"]
                    self.note_trace(msg)
            if rc != 0:
                tail = _stderr_tail(proc.stderr) if proc is not None else ""
                self.fail(f"{inv.label}: exit {rc}: {tail}")
                continue
            errors = workloads.check_outputs(inv, out_dir)
            errors += self.check_identical(inv.outputs(out_dir))
            if errors:
                self.fail("; ".join(errors))
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"wall_s": sum(latencies), "latencies": latencies, "cpu_s": cpu,
                "summaries": summaries, "imports": imports, "unattributed_s": unattributed}

    def lib_pass(self, traced: bool) -> dict | None:
        cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
               WORKER, "lib", self.workload, str(self.seed), T0, *(["--trace"] if traced else [])]
        proc, _, _ = self.spawn(cmd)
        n_ops = len(self.inputs)
        self.attempted += n_ops
        msg = _last_json(proc.stdout) if proc is not None and proc.returncode == 0 else None
        if msg is None:
            reason = _stderr_tail(proc.stderr) if proc is not None else "timed out"
            for _ in range(n_ops):
                self.fail(f"worker failed: {reason}")
            return None
        errors = {int(i): reason for i, reason in msg["errors"].items()}
        checked = workloads.check_lib(self.workload, self.inputs, msg["values"])
        for i, reason in checked.items():
            errors.setdefault(i, reason)
        for i, value in enumerate(msg["values"]):
            if value is not None and self.reference.setdefault(i, value) != value:
                errors.setdefault(i, f"op {i}: result differs from the first pass's")
        for i in sorted(errors):
            self.fail(errors[i])
        if "results" not in self.output_sha256:
            blob = json.dumps(msg["values"], sort_keys=True).encode()
            self.output_sha256["results"] = hashlib.sha256(blob).hexdigest()
        self.child_provenance = msg["provenance"]
        out = {"wall_s": msg["wall_s"], "latencies": msg["latencies"], "cpu_s": msg["cpu_s"]}
        if traced:
            modules, _ = tracing.parse_importtime(proc.stderr)
            self.note_trace(msg)
            out.update(summaries=[msg["trace"]], imports=[modules],
                       unattributed_s=msg["wall_s"] - msg["trace"]["root_s"])
        else:
            self.setup.append(msg["setup_s"])
        return out

    def note_trace(self, msg: dict):
        """Provenance of a traced process, and its kernel check as one more operation."""
        self.child_provenance = msg["provenance"]
        check = msg["trace"]["kernel_check"]
        if check is None:
            return
        self.attempted += 1
        self.kernel_checks.append(check["rel_err"])
        if not check["rel_err"] <= workloads.KERNEL_RTOL:
            self.fail(f"kernel sums differ from math.fsum by {check['rel_err']:.3e} (relative)")

    # ------------------------------------------------------------ metrics

    def end_to_end(self) -> dict:
        passes = [p for p in self.untraced if p is not None]
        walls = [p["wall_s"] for p in passes]
        latencies = [x for p in passes for x in p["latencies"]]
        # the mean, not the median: other tenants of a shared host slow this
        # work 1.5-2x in episodes of seconds, so the median pass jumps between
        # the two speeds from run to run while the mean moves in proportion
        wall = statistics.fmean(walls) if walls else None
        tail = tail_percentile(latencies)
        shots = workloads.shots_per_pass(self.workload, self.seed)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_mb = rss / 2 ** 20 if sys.platform == "darwin" else rss / 1024
        return {
            "wall_s": {"value": wall, "unit": "s", "samples": len(walls),
                       "median_pass_s": median(walls), "passes": walls},
            "op_p50_s": {"value": median(latencies), "unit": "s", "samples": len(latencies)},
            "op_tail_s": {"value": tail[1] if tail else None, "unit": "s",
                          "percentile": tail[0] if tail else None, "samples": len(latencies)},
            "mshots_per_s": {"value": shots / wall / 1e6 if shots and wall else None,
                             "unit": "Mshots/s"},
            "setup_s": {"value": median(self.setup), "unit": "s", "samples": len(self.setup)},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "failed_frac": {"value": self.failed / self.attempted if self.attempted else None,
                            "unit": "fraction"},
        }

    def per_layer(self) -> tuple[dict, dict]:
        """Per-layer metrics (medians over traced passes) and the missing layers."""
        traced = [p for p in self.traced if p is not None]
        untraced = [p for p in self.untraced if p is not None]
        merged = [tracing.merge_summaries(p["summaries"]) for p in traced]
        rows = [tracing.call_layer_metrics(m) for m in merged]
        values = {name: median(row[name] for row in rows) for name in (rows[0] if rows else ())}
        imports = [modules for p in traced for modules in p["imports"]]
        for name, module in tracing.IMPORT_METRICS.items():
            values[name] = median(modules.get(module, 0.0) for modules in imports)
        values["proc.cpu_s"] = median(p["cpu_s"] for p in untraced)
        values["traced.unattributed_s"] = median(p["unattributed_s"] for p in traced)
        traced_wall = median(p["wall_s"] for p in traced)
        untraced_wall = median(p["wall_s"] for p in untraced)
        values["traced.overhead_s"] = (traced_wall - untraced_wall
                                       if traced_wall is not None and untraced_wall is not None
                                       else None)
        missing = {}
        for m in merged:
            missing.update(m["missing"])
        metrics = {}
        for name, (unit, needs) in tracing.PER_LAYER.items():
            gone = [missing[layer] for layer in needs if layer in missing]
            metrics[name] = ({"value": None, "unit": unit, "missing": gone[0]} if gone
                             else {"value": values.get(name), "unit": unit})
        return metrics, missing

    def report(self) -> tuple[dict, dict]:
        e2e = self.end_to_end()
        provenance = {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "git_commit": git_commit(),
            "source_sha256": source_sha256(os.path.join(ROOT, "src")),
            "seed": self.seed,
            "outputs_sha256": self.output_sha256,
            **self.child_provenance,
        }
        report = {"workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                  "trace": int(self.trace), "provenance": provenance, "end_to_end": e2e,
                  "attempted": self.attempted, "failed": self.failed, "failures": self.failures}
        if self.trace:
            metrics, missing = self.per_layer()
            report.update(per_layer=metrics, missing_layers=missing,
                          kernel_check_max_rel_err=max(self.kernel_checks, default=None))
        else:
            metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        measured = all(m["value"] is not None or "missing" in m for m in metrics.values())
        result = {"correct": self.failed == 0 and self.attempted > 0 and measured,
                  "attempted": self.attempted, "failed": self.failed, "metrics": metrics}
        return report, result


def run_all(args) -> int:
    """Every workload in its own run.py process; a table of the report metrics."""
    results, ok = {}, True
    section = "per_layer" if args.trace else "end_to_end"
    print(f"{'workload':<20} {'metric':<32} {'value':>14}  unit")
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload:<20} failed: {_stderr_tail(proc.stderr)}")
            results[workload], ok = None, False
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        for name, metric in report[section].items():
            value = metric["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            extra = f"  (p{metric['percentile']:g})" if metric.get("percentile") else ""
            print(f"{workload:<20} {name:<32} {shown:>14}  {metric['unit']}{extra}")
        print(f"{workload:<20} {'correct':<32} {str(result['correct']):>14}  "
              f"({result['failed']} of {result['attempted']} failed)")
        results[workload] = result
        ok = ok and result["correct"]
    print(json.dumps(results))
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, *workloads.EXTRA_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cvmb", "__init__.py")):
        print(f"perfbench: no cvmb source tree at {os.path.join(ROOT, 'src', 'cvmb')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report, result = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # turn SIGTERM into an exception, so that subprocess.run kills and waits
    # for the running child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
