"""Tests of the benchmark's own logic.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import os
import subprocess
import sys
import threading
import time
import types

import pytest

import calibration
import run
import tracer
import workloads


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibrated_scales_by_mean_adjacent_sample():
    assert calibration.calibrated(2.0, 0.01, 0.01, cal_ref_s=0.01) == pytest.approx(2.0)
    # a host twice as slow doubles both the op and the samples
    assert calibration.calibrated(4.0, 0.02, 0.02, cal_ref_s=0.01) == pytest.approx(2.0)
    # the mean of the samples before and after the op is used
    assert calibration.calibrated(3.0, 0.01, 0.02, cal_ref_s=0.015) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        calibration.calibrated(1.0, 0.0, 0.0, cal_ref_s=0.01)


def test_sample_is_positive_and_untainted_in_a_pinned_worker():
    # A fresh process with the worker's environment: no BLAS thread pool
    # whose spinning threads would (rightly) taint the samples.
    code = ("import calibration\n"
            "assert all(calibration.sample(i % 2 == 1) > 0.0 for i in range(20))\n")
    env = dict(os.environ, **run.WORKER_ENV)
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(run.HERE), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert calibration.reference(True) > calibration.reference(False) > 0.0


def test_sample_refuses_when_another_thread_is_busy():
    stop = threading.Event()

    def spin():
        x = 0
        while not stop.is_set():
            x += 1

    worker = threading.Thread(target=spin, daemon=True)
    worker.start()
    try:
        time.sleep(0.01)
        with pytest.raises(calibration.CalibrationTainted):
            for _ in range(20):
                calibration.sample()
    finally:
        stop.set()
        worker.join(timeout=5.0)
    assert not worker.is_alive()


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

def _op(wall, error=None, rel_err=None, traced=False, cal=0.01):
    return {"wall_s": wall, "cal_before_s": cal, "cal_after_s": cal, "error": error,
            "traced": traced, "rel_err": rel_err}


def _setup(wall, warmup_error=None):
    return {"setup_wall_s": wall, "setup_cal": [0.01, 0.01], "cal_ref_s": 0.01,
            "warmup_error": warmup_error}


def test_failures_counted_by_type_and_excluded_from_timing():
    ops = [_op(1.0, rel_err=1e-12), _op(0.2, error="ExtractionNotConverged"),
           _op(1.2, rel_err=1e-11), _op(0.3, error="ExtractionNotConverged"),
           _op(1.1, rel_err=1e-12), _op(5.0, error="CheckFailed")]
    s = run.summarize(ops)
    assert (s["attempted"], s["failed"]) == (6, 3)
    assert s["failures_by_type"] == {"CheckFailed": 1, "ExtractionNotConverged": 2}
    assert s["checks_failed"] == 1
    assert s["accuracy_digits"] == pytest.approx(11.0)
    main = {"peak_rss_mb": 50.0, "cal_ref_s": 0.02}
    setups = [_setup(w, error) for w, error in ((0.5, None), (0.7, None), (0.6, None),
                                                 (0.1, "ExtractionNotConverged"),
                                                 (0.2, "ExtractionNotConverged"))]
    e2e = run.end_to_end(setups, main, s)
    # medians over passing ops and passing warm-ups only: fast failures do not
    # pull them down
    assert e2e["op_s"] == pytest.approx(2.2)
    assert e2e["setup_s"] == pytest.approx(0.6)
    # with no passing warm-up, every set-up counts
    failed = [_setup(w, "ExtractionNotConverged") for w in (0.1, 0.3, 0.2)]
    assert run.end_to_end(failed, main, s)["setup_s"] == pytest.approx(0.2)


@pytest.mark.parametrize("failing,expected", [(set(), 5), ({1, 3}, 7),
                                               (set(range(20)), 12)])
def test_setup_workers_run_until_enough_warmups_pass(monkeypatch, failing, expected):
    spawned = []

    def fake_spawn(args, role, setup_index, deadline):
        spawned.append((role, setup_index))
        return {"warmup_error": "ExtractionNotConverged" if setup_index in failing else None}

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    setups, main_out = run.spawn_workers(None, deadline=0.0)
    assert len(setups) == expected and setups[-1] is main_out
    assert spawned == [("setup", j) for j in range(expected - 1)] + [("main", expected - 1)]
    assert expected <= workloads.MAX_SETUPS


def test_traced_ops_are_not_timed_end_to_end():
    ops = [_op(1.0, rel_err=1e-12), _op(9.0, rel_err=1e-12, traced=True)]
    e2e = run.end_to_end([_setup(1.0)], {"peak_rss_mb": 1.0, "cal_ref_s": 0.01},
                         run.summarize(ops))
    assert e2e["op_s"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spans and self times
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_package(clock):
    """A package 'fakepkg' with a layer calling into another, on a fake clock."""
    low = types.ModuleType("fakepkg.low")
    top = types.ModuleType("fakepkg.top")

    def leaf(x):
        clock.now += 1.0
        return x

    def outer(x):
        clock.now += 2.0
        top.leaf(x)
        clock.now += 0.5
        top.leaf(x)
        return top.outer_recursive(1)

    def outer_recursive(depth):
        clock.now += 0.25
        if depth:
            return top.outer_recursive(depth - 1)
        return 0

    low.leaf = leaf
    top.leaf = leaf
    top.outer = outer
    top.outer_recursive = outer_recursive
    return {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.low": low, "fakepkg.top": top}


def test_self_times_partition_the_op_span(monkeypatch):
    clock = _Clock()
    mods = _fake_package(clock)
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    original_leaf = mods["fakepkg.low"].leaf
    tr = tracer.Tracer(clock=clock)
    tr.install(package="fakepkg", targets=(("low", "leaf", None), ("top", "outer", None),
                                           ("top", "outer_recursive", None),
                                           ("low", "absent", None)))
    assert tr.missing == ["low.absent"]
    # a function is replaced wherever the package binds it
    assert mods["fakepkg.top"].leaf is mods["fakepkg.low"].leaf is not original_leaf
    mods["fakepkg.top"].outer(3)
    tr.uninstall()
    assert mods["fakepkg.top"].leaf is original_leaf
    assert mods["fakepkg.low"].leaf is original_leaf

    selfs = tracer.self_times(tr.spans)
    assert selfs["low"] == pytest.approx(2.0)
    assert selfs["top"] == pytest.approx(2.0 + 0.5 + 0.5)
    assert sum(selfs.values()) == pytest.approx(tracer.root_time(tr.spans))
    assert tracer.root_time(tr.spans) == pytest.approx(5.0)
    incl = tracer.inclusive_times(tr.spans)
    # the recursive call nests in itself and is counted once
    assert incl["top.outer_recursive"] == pytest.approx(0.5)
    assert incl["low.leaf"] == pytest.approx(2.0)
    assert tr.counts["low.leaf.calls"] == 2
    assert tr.counts["top.outer_recursive.calls"] == 2


def test_span_recorded_when_the_callee_raises(monkeypatch):
    clock = _Clock()
    mod = types.ModuleType("fakepkg.bad")

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    mod.boom = boom
    monkeypatch.setitem(sys.modules, "fakepkg.bad", mod)
    tr = tracer.Tracer(clock=clock)
    tr.install(package="fakepkg", targets=(("bad", "boom", None),))
    with pytest.raises(KeyError):
        mod.boom()
    tr.uninstall()
    assert tr.spans == [("bad.boom", "bad", 0.0, 1.0, -1)]
    assert tr.counts["bad.boom.calls"] == 1


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_inputs_are_seeded_and_distinct(cls):
    wl = cls.__new__(cls)
    warm_a, timed_a = workloads.make_inputs(wl, 7, 6)
    warm_b, timed_b = workloads.make_inputs(wl, 7, 9)
    assert repr(warm_a) == repr(warm_b)
    assert repr(timed_a) == repr(timed_b[:6])
    every = [repr(x) for x in warm_b + timed_b]
    assert len(set(every)) == len(every)
    assert repr(workloads.make_inputs(wl, 8, 6)) != repr((warm_a, timed_a))


def test_verify_draws_stay_in_the_disc():
    wl = workloads.VerifyG2.__new__(workloads.VerifyG2)
    warm, timed = workloads.make_inputs(wl, 3, 50)
    for point in warm + timed:
        assert max(abs(p - c) for p, c in zip(point, workloads.U0_G2)) <= workloads.DRAW_RADIUS


def test_op_count_depends_only_on_seconds():
    cls = workloads.RecursionDeep
    assert workloads.op_count(cls, 1) == workloads.MIN_OPS
    assert workloads.op_count(cls, 20) == round(20 / cls.nominal_op_s)
    assert workloads.oracle_indices(20) == {0, 5, 10, 15}
    assert workloads.oracle_indices(3) == {0, 1, 2}


def test_metric_names_and_units_match_benchmark_json():
    import json
    from pathlib import Path
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m: u for m, u, _ in tracer.PER_LAYER}
    per_layer.update({"host.cal_s": "s", "host.op_wall_s": "s", "host.trace_overhead": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# exact repeat for a fixed seed (real worker processes)
# ---------------------------------------------------------------------------

def _outcomes(workload, seed):
    args = types.SimpleNamespace(workload=workload, seed=seed, seconds=1, trace=0)
    out = run._spawn(args, "main", workloads.SETUPS - 1, time.monotonic() + 170.0)
    s = run.summarize(out["ops"])
    return s["accuracy_digits"], s["failed"] / s["attempted"], s["failures_by_type"]


@pytest.mark.parametrize("workload,seed,fails", [("recursion-deep", 3, False),
                                                ("verify-g2", 4, True)])
def test_accuracy_and_error_rate_repeat_exactly(workload, seed, fails):
    first = _outcomes(workload, seed)
    assert first == _outcomes(workload, seed)
    assert first[0] > 10.0
    # verify-g2 seed 4 draws a point that fails at the default k_bound
    assert (first[1] > 0.0) == fails
