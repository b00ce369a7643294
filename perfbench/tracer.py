"""Spans and counts recorded from outside the program.

The tracer wraps public swtr names at the module boundaries the pipeline
crosses; it changes no swtr file.  A function is replaced in every swtr
module that binds it (so ``cli.periods`` and the calls inside
``hyperelliptic`` are both seen); a method is replaced on its class.  Each
call records a span (name, layer, start, end, parent) in memory; the layer is
the module that defines the callee.
"""

import functools
import math
import sys
import time
from collections import Counter

import numpy as np


def _size(*arrays):
    return int(np.broadcast(*arrays).size)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_evaluate(counts, args, kwargs, out):
    counts["laurent.evaluate.points"] += _size(_arg(args, kwargs, 1, "z"))


def _count_nodes(counts, args, kwargs, out):
    counts["hyperelliptic.quad_panels"] += int(_arg(args, kwargs, 2, "n_panels"))


def _count_kernel(counts, args, kwargs, out):
    counts["hyperelliptic.kernel_points"] += _size(
        *(_arg(args, kwargs, i, nm) for i, nm in enumerate(("z1", "y1", "z2", "y2"), 1)))


def _count_eo(counts, args, kwargs, out):
    entries, attempted = recursion_work(out)
    counts["spectral.entries"] += entries
    counts["spectral.entries_attempted"] += attempted


def recursion_work(omega):
    """(stored nonzero entries, entries the recursion had to evaluate).

    Each cell is evaluated on every multiset of odd modes up to its index
    bound at every ramification point; only the nonzero results are stored.
    """
    entries = attempted = 0
    n_labels = len(omega.curve.ram)
    for (g, n), cell in omega.table.entries.items():
        m = n_labels * len(range(1, omega.table.bounds[(g, n)] + 1, 2))
        entries += len(cell)
        attempted += math.comb(m + n - 1, n)
    return entries, attempted


# (module, attribute path, extra counter); the layer is the defining module.
TARGETS = (
    ("cli", "verify_theorem", None),
    ("cli", "bperiod_contract", None),
    ("hyperelliptic", "new_curve", None),
    ("hyperelliptic", "build_cycles", None),
    ("hyperelliptic", "periods", None),
    ("hyperelliptic", "bergman_kernel", None),
    ("hyperelliptic", "invert_a_map", None),
    ("hyperelliptic", "omega_value", None),
    ("hyperelliptic", "BergmanData.value", _count_kernel),
    ("hyperelliptic", "QuadratureWorkspace.integrate", None),
    ("hyperelliptic", "QuadratureWorkspace.nodes", _count_nodes),
    ("hyperelliptic", "SheetTracker.track_along", None),
    ("charts", "standard_charts", None),
    ("charts", "local_expansions", None),
    ("spectral", "eo_run", _count_eo),
    ("laurent", "LaurentSeries.__mul__", None),
    ("laurent", "LaurentSeries.evaluate", _count_evaluate),
    ("laurent", "LaurentSeries.compose", None),
    ("laurent", "LaurentSeries.functional_inverse", None),
    ("laurent", "LaurentSeries.inverse", None),
    ("airy", "atr_run", None),
    ("airy", "gauge_transform", None),
)

LAYERS = ("laurent", "airy", "spectral", "hyperelliptic", "charts", "cli")


class Tracer:
    """Records spans and counts while installed; restores every name on uninstall."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def wrap(self, fn, name, layer, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans[idx] = (name, layer, start, end, parent)
                tracer.counts[name + ".calls"] += 1
            if extra is not None:
                extra(tracer.counts, args, kwargs, out)
            return out

        return traced

    def install(self, package="swtr", targets=TARGETS):
        self.missing = []
        modules = {nm: mod for nm, mod in sys.modules.items()
                   if mod is not None and (nm == package or nm.startswith(package + "."))}
        for mod_name, path, extra in targets:
            owner = modules.get(f"{package}.{mod_name}")
            name = f"{mod_name}.{path.split('.')[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{mod_name}.{path}")
                    continue
                self._patch(owner, attr, original, self.wrap(original, name, mod_name, extra))
                continue
            original = getattr(owner, path, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            traced = self.wrap(original, name, mod_name, extra)
            for mod in modules.values():
                if getattr(mod, path, None) is original:
                    self._patch(mod, path, original, traced)

    def _patch(self, owner, attr, original, value):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's.

    Children nest inside their parent on one thread, so the layers' self
    times sum to the duration of the root spans.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for i, (name, layer, start, end, parent) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def inclusive_times(spans):
    """Per-name time of the outermost spans of that name (no double counting)."""
    out = Counter()
    for name, layer, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][4]
        if p < 0:
            out[name] += end - start
    return out


def root_time(spans):
    return sum(end - start for _, _, start, end, parent in spans if parent < 0)


# Per-layer metrics: (metric name, unit, source); sources are "self:<layer>",
# "incl:<span name>" (seconds) or "count:<counter>" (per op).  airy has no
# metric: no timed op calls it today (only the oracle, outside the ops), so
# its values would read zero in every run.  Its names stay traced, so a call
# from an op is still attributed to it in the self-time partition.
PER_LAYER = (
    ("laurent.self_s", "s", "self:laurent"),
    ("laurent.mul.calls", "count", "count:laurent.__mul__.calls"),
    ("laurent.evaluate.calls", "count", "count:laurent.evaluate.calls"),
    ("laurent.evaluate.points", "count", "count:laurent.evaluate.points"),
    ("charts.standard_charts.s", "s", "incl:charts.standard_charts"),
    ("charts.local_expansions.s", "s", "incl:charts.local_expansions"),
    ("charts.self_s", "s", "self:charts"),
    ("hyperelliptic.build_cycles.s", "s", "incl:hyperelliptic.build_cycles"),
    ("hyperelliptic.periods.calls", "count", "count:hyperelliptic.periods.calls"),
    ("hyperelliptic.periods.s", "s", "incl:hyperelliptic.periods"),
    ("hyperelliptic.invert_a_map.calls", "count", "count:hyperelliptic.invert_a_map.calls"),
    ("hyperelliptic.invert_a_map.s", "s", "incl:hyperelliptic.invert_a_map"),
    ("hyperelliptic.integrate.calls", "count", "count:hyperelliptic.integrate.calls"),
    ("hyperelliptic.quad_panels", "count", "count:hyperelliptic.quad_panels"),
    ("hyperelliptic.track_along.s", "s", "incl:hyperelliptic.track_along"),
    ("hyperelliptic.kernel_points", "count", "count:hyperelliptic.kernel_points"),
    ("hyperelliptic.self_s", "s", "self:hyperelliptic"),
    ("spectral.eo_run.s", "s", "incl:spectral.eo_run"),
    ("spectral.entries", "count", "count:spectral.entries"),
    ("spectral.entries_attempted", "count", "count:spectral.entries_attempted"),
    ("spectral.self_s", "s", "self:spectral"),
    ("cli.verify_theorem.s", "s", "incl:cli.verify_theorem"),
    ("cli.self_s", "s", "self:cli"),
)


def op_layer_values(spans, counts, scale):
    """One traced op's per-layer values; times are multiplied by ``scale``."""
    selfs = self_times(spans)
    incl = inclusive_times(spans)
    values = {}
    for metric, unit, source in PER_LAYER:
        kind, key = source.split(":", 1)
        if kind == "self":
            values[metric] = selfs.get(key, 0.0) * scale
        elif kind == "incl":
            values[metric] = incl.get(key, 0.0) * scale
        else:
            values[metric] = float(counts.get(key, 0))
    return values
