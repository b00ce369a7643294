"""Benchmark entry point: set-up samples and one timed closed loop per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-g2 --seed 1 --seconds 20 --trace 0

Workloads: verify-g2, recursion-4pt, recursion-deep (see workloads.py).
Each run starts fresh worker processes one at a time, with BLAS/OpenMP
pinned to one thread: set-up-only workers until enough warm-ups have passed,
then one main worker whose own set-up is the last set-up sample and which
runs the timed ops.  Times are
host-calibrated seconds (calibration.py).  The last stdout line is a JSON
object {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a run whose odd ops
are traced.  The exit code is 0 when every output check passed, 1 when one
failed, and 2 when the run could not be made.
"""

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fixed string hashing keeps set/dict iteration, and so summation order, the
# same in every run: accuracy_digits then repeats exactly for a seed.
WORKER_ENV = dict(THREAD_ENV, PYTHONHASHSEED="0")
# This process is pinned too, before numpy is imported: an unpinned BLAS pool
# here would spin its threads up next to the first worker's set-up.
os.environ.update(THREAD_ENV)

import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "accuracy_digits": "digits",
                    "peak_rss_mb": "MB"}


class RunFailed(RuntimeError):
    """A worker crashed or timed out; no result can be reported."""


def _spawn(args, role, setup_index, deadline):
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role,
           "--setup-index", str(setup_index)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("run deadline passed before all workers ran")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                              cwd=str(ROOT), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{role} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{role} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def spawn_workers(args, deadline):
    """(set-up samples, main worker output) of one run.

    Set-up-only workers run until SETUPS - 1 warm-ups have passed, or
    MAX_SETUPS - 1 workers have run; the main worker's own set-up is the
    last sample.
    """
    setups = []
    while (sum(s["warmup_error"] is None for s in setups) < workloads.SETUPS - 1
           and len(setups) < workloads.MAX_SETUPS - 1):
        setups.append(_spawn(args, "setup", len(setups), deadline))
    main_out = _spawn(args, "main", len(setups), deadline)
    return setups + [main_out], main_out


def setup_seconds(sample):
    """Calibrated set-up time of one worker."""
    before, after = sample["setup_cal"]
    return calibration.calibrated(sample["setup_wall_s"], before, after, sample["cal_ref_s"])


def op_seconds(rec, cal_ref_s):
    return calibration.calibrated(rec["wall_s"], rec["cal_before_s"], rec["cal_after_s"],
                                  cal_ref_s)


def summarize(ops):
    """Failure accounting and timing over a run's ops.

    Every op counts as attempted; an op fails on a SwtrError, a failed output
    check or an oracle deviation above tolerance.  op_s and the accuracy are
    taken over passing ops only, so fixing a failing input is not scored as a
    slowdown.
    """
    passing = [r for r in ops if r["error"] is None]
    failures = Counter(r["error"] for r in ops if r["error"] is not None)
    errs = [r["rel_err"] for r in passing if r["rel_err"] is not None]
    worst = max(errs) if errs else None
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(passing),
        "failures_by_type": dict(sorted(failures.items())),
        "passing": passing,
        "accuracy_digits": (-math.log10(max(worst, 1e-300)) if worst is not None else 0.0),
        "checks_failed": sum(1 for r in ops if r["error"] == "CheckFailed"),
        "accuracy_samples": len(errs),
    }


def end_to_end(setups, main, summary):
    """The end-to-end metrics of a run.

    Like op_s, setup_s is taken over the set-ups whose warm-up op passed: a
    warm-up that fails returns early, and how many of the seeded warm-ups
    fail would otherwise move the median.
    """
    untraced = [op_seconds(r, main["cal_ref_s"]) for r in summary["passing"]
                if not r["traced"]]
    passed = [s for s in setups if s["warmup_error"] is None] or setups
    return {
        "op_s": statistics.median(untraced) if untraced else 0.0,
        "setup_s": statistics.median(setup_seconds(s) for s in passed),
        "accuracy_digits": summary["accuracy_digits"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def host_values(main, summary):
    """Raw medians of the calibration samples and of the untraced passing ops,
    which show host drift and any shift of the calibration itself."""
    cals = [r["cal_before_s"] for r in main["ops"]] + [main["ops"][-1]["cal_after_s"]]
    walls = [r["wall_s"] for r in summary["passing"] if not r["traced"]]
    return {"host.cal_s": (statistics.median(cals), "s"),
            "host.op_wall_s": (statistics.median(walls) if walls else 0.0, "s")}


def per_layer(main, summary):
    """Per-op means over traced passing ops, plus host diagnostics."""
    traced = [r for r in summary["passing"] if r["traced"]]
    untraced = [r for r in summary["passing"] if not r["traced"]]
    out = {}
    for metric, unit, _ in tracer.PER_LAYER:
        vals = [r["layers"][metric] for r in traced]
        out[metric] = (statistics.fmean(vals) if vals else 0.0, unit)
    out.update(host_values(main, summary))
    overhead = 0.0
    if traced and untraced:
        ref = main["cal_ref_s"]
        overhead = (statistics.median(op_seconds(r, ref) for r in traced)
                    / statistics.median(op_seconds(r, ref) for r in untraced) - 1.0)
    out["host.trace_overhead"] = (overhead, "ratio")
    return out


def partition_error(summary):
    """Largest relative gap between the layers' self times and the op span."""
    gaps = [abs(r["layer_sum_s"] - r["root_s"]) / max(r["root_s"], 1e-300)
            for r in summary["passing"] if r["traced"]]
    return max(gaps, default=0.0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "swtr" / "__init__.py").is_file():
        print(f"error: no swtr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for package in (ROOT / "src" / "swtr", HERE):
        compileall.compile_dir(str(package), quiet=1)
    try:
        setups, main_out = spawn_workers(args, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = summarize(main_out["ops"])
    correct = (summary["checks_failed"] == 0 and summary["accuracy_samples"] > 0
               and any(not r["traced"] for r in summary["passing"]))
    if args.trace:
        values = per_layer(main_out, summary)
        gap = partition_error(summary)
        correct = correct and gap <= 1e-9
        print(f"# trace: layer self times vs op span, worst relative gap {gap:.2e}; "
              f"names not found: {main_out['trace_missing'] or 'none'}")
    else:
        values = {k: (v, END_TO_END_UNITS[k])
                  for k, v in end_to_end(setups, main_out, summary).items()}
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{summary['attempted']} ops attempted, {summary['failed']} failed "
          f"{summary['failures_by_type'] or ''}, "
          f"error_rate {summary['failed'] / summary['attempted']:.4f}, "
          f"{len(summary['passing'])} passing ops timed")
    host = ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in host_values(main_out, summary).items())
    print(f"# threads {WORKER_ENV}, BLAS {main_out['blas']}, "
          f"cal_ref {main_out['cal_ref_s']:g} s, {host}")
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": bool(correct), "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
