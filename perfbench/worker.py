"""One measured unit in a fresh interpreter, started by run.py.

  worker.py probe T0                        import cvmb.cli; report set-up time
  worker.py lib WORKLOAD SEED T0 [--trace]  one pass of a library workload
  worker.py cli-trace -- ARGS...            cvmb.cli.main(ARGS) under the tracer

T0 is the parent's ``time.monotonic()`` taken just before the spawn.  On
Linux that clock is CLOCK_MONOTONIC, shared by every process, so ``ready -
T0`` spans exec, interpreter start, imports and preparation.  The last line
of stdout is one JSON object.  Only ``sys`` and ``time`` are imported before
the package, so the worker adds little to the set-up it measures.
"""

import sys
import time


def _emit(obj):
    import json

    sys.stdout.write(json.dumps(obj) + "\n")


def _provenance():
    import cvmb
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cvmb": getattr(cvmb, "__version__", None),
            "kernel_backend": getattr(cvmb, "KERNEL_BACKEND", None), "cvmb_file": cvmb.__file__}


def probe(t0):
    import cvmb.cli  # noqa: F401  (what `python -m cvmb.cli` imports before main)

    ready = time.monotonic()
    _emit({"setup_s": ready - t0, "provenance": _provenance()})


def _many_small_op(mods, cfg):
    simulate = mods["simulate"]
    res = simulate.run(simulate.SimConfig(**cfg))
    return {"mse_sum": float(res.mse_sum), "std_error": float(res.std_error)}


def _crosscheck_op(mods, r):
    bounds, holevo = mods["bounds"], mods["holevo"]
    num = holevo.solve_numeric(holevo.build_problem("two_mode", r))
    audit = holevo.kkt_case_audit(r)
    out = {
        "numeric": num.bound,
        "residual": num.diagnostics.get("constraint_residual", float("inf")),
        "analytic": holevo.solve_analytic("two_mode", r).bound,
        "audit_bound": audit.bound,
        "audit_spurious": audit.spurious_value,
        "audit_case_1a_g": audit.case_1a_g,
        "audit_case_2_g": audit.case_2_g,
        "audit_optimal_residual": audit.optimal_residual,
        "audit_spurious_residual": audit.spurious_residual,
    }
    for n in mods["workloads"].MIXED_PHOTONS:
        for probe_kind, make in (("single", bounds.single_mode_probe),
                                 ("two_mode", bounds.two_mode_probe)):
            model = bounds.DisplacementModel(make(r, n))
            key = f"{probe_kind}_{n}"
            out["sld_" + key] = bounds.sld_bound(model).value
            out["rld_" + key] = bounds.rld_bound(model).value
            out["cf_s_" + key], out["cf_r_" + key] = bounds.closed_form_bounds(r, n, probe_kind)
    return {k: float(v) for k, v in out.items()}


def lib_pass(workload, seed, t0, traced):
    import resource

    import cvmb  # noqa: F401  (the whole package, as a user's `import cvmb` loads it)
    from cvmb import bounds, holevo, simulate

    import workloads

    mods = {"bounds": bounds, "holevo": holevo, "simulate": simulate, "workloads": workloads}
    inputs = workloads.lib_inputs(workload, seed)
    op = _many_small_op if workload == "simulate-many-small" else _crosscheck_op
    ready = time.monotonic()

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    latencies, values, errors = [], [], {}
    clock = time.perf_counter
    cpu0 = time.process_time()
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = clock()
    for i, item in enumerate(inputs):
        t = clock()
        try:
            value = op(mods, item)
        except Exception as exc:  # a raising op is a failed op; the pass goes on
            value = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        values.append(value)
    wall = clock() - start
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (time.process_time() - cpu0 + children1.ru_utime - children0.ru_utime
           + children1.ru_stime - children0.ru_stime)

    result = {"setup_s": ready - t0, "wall_s": wall, "cpu_s": cpu, "latencies": latencies,
              "values": values, "errors": errors, "provenance": _provenance()}
    if tracer is not None:
        result["trace"] = tracer.summary()
    _emit(result)


def cli_trace(argv):
    import cvmb.cli
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cvmb.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    _emit({"rc": rc, "trace": tracer.summary(), "provenance": _provenance()})


def main(argv):
    mode = argv[0]
    if mode == "probe":
        probe(float(argv[1]))
    elif mode == "lib":
        lib_pass(argv[1], int(argv[2]), float(argv[3]), "--trace" in argv[4:])
    elif mode == "cli-trace":
        cli_trace(argv[argv.index("--") + 1:])
    else:
        raise SystemExit(f"worker: unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
