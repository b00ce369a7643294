"""One benchmark worker process: set-up, then (role ``main``) the timed loop.

Started by run.py with BLAS/OpenMP pinned to one thread.  Prints one JSON
object on its last stdout line.  Timing fields are raw wall seconds plus the
adjacent calibration samples; run.py turns them into calibrated seconds.

Set-up runs from process start through ``import swtr``, input generation and
one warm-up op on an input outside the timed set.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import calibration
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_swtr():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import swtr
    import swtr.cli
    import swtr.errors
    if not Path(swtr.__file__).resolve().is_relative_to(src):
        raise ImportError(f"swtr imported from {swtr.__file__}, not from {src}")
    return swtr


def _run_op(workload, inp, swtr_error):
    """(wall seconds, result or None, exception type name or None)."""
    start = time.perf_counter()
    try:
        result = workload.op(inp)
    except swtr_error as exc:
        return time.perf_counter() - start, None, type(exc).__name__
    return time.perf_counter() - start, result, None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--setup-index", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    args = ap.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    arrays = cls.array_calibration
    cal_start = time.monotonic()
    cal_before = calibration.sample(arrays)
    cal_spent = time.monotonic() - cal_start
    swtr = _import_swtr()
    workload = cls(swtr)
    n_ops = workloads.op_count(cls, args.seconds)
    warmups, timed = workloads.make_inputs(workload, args.seed, n_ops)
    _, _, warmup_error = _run_op(workload, warmups[args.setup_index],
                                 swtr.errors.SwtrError)
    ready = time.monotonic()
    cal = calibration.sample(arrays)
    cal_ref = calibration.reference(arrays)
    out = {
        "setup_wall_s": ready - args.spawned_at - cal_spent,
        "setup_cal": [cal_before, cal],
        "cal_ref_s": cal_ref,
        "warmup_error": warmup_error,
    }
    if args.role == "setup":
        print(json.dumps(out))
        return 0

    trace = tracer.Tracer() if args.trace else None
    ops = []
    kept = {}
    for i, inp in enumerate(timed):
        traced = trace is not None and i % 2 == 1
        if traced:
            trace.reset()
            trace.install()
        try:
            wall, result, error = _run_op(workload, inp, swtr.errors.SwtrError)
        finally:
            if traced:
                trace.uninstall()
        cal_after = calibration.sample(arrays)
        rec = {"wall_s": wall, "cal_before_s": cal, "cal_after_s": cal_after,
               "error": error, "traced": traced, "rel_err": None}
        if error is None:
            try:
                rec["rel_err"], table = workload.check(inp, result)
            except workloads.CheckFailed as exc:
                rec["error"] = "CheckFailed"
                rec["check"] = str(exc)
            else:
                if workload.oracle and i in workloads.oracle_indices(n_ops):
                    kept[i] = table
        if traced and rec["error"] is None:
            scale = 2.0 * cal_ref / (cal + cal_after)
            rec["layers"] = tracer.op_layer_values(trace.spans, trace.counts, scale)
            rec["layer_sum_s"] = sum(tracer.self_times(trace.spans).values()) * scale
            rec["root_s"] = tracer.root_time(trace.spans) * scale
        del result
        ops.append(rec)
        cal = cal_after
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Oracles run only after peak RSS is read; they allocate far more than an op.
    for i, table in sorted(kept.items()):
        rel = workload.oracle_rel_dev(timed[i], table)
        ops[i]["rel_err"] = rel
        if not rel <= workloads.ORACLE_REL_TOL:
            ops[i]["error"] = "CheckFailed"
            ops[i]["check"] = f"oracle deviation {rel:.3e} above {workloads.ORACLE_REL_TOL:g}"
    out["ops"] = ops
    out["trace_missing"] = trace.missing if trace is not None else []
    out["blas"] = _blas_info()
    print(json.dumps(out))
    return 0


def _blas_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


if __name__ == "__main__":
    sys.exit(main())
