"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Inputs come only from the workload seed, and
every op (the set-up warm-up included) gets its own input, so memoising on a
curve or on kernel data cannot show up as a speed-up.
"""

import cmath
import math

import numpy as np

# verify-g2: the genus-2 acceptance point of the prepotential identity.
U0_G2 = (0.3 + 0.1j, 0.2 - 0.15j)
DRAW_RADIUS = 0.03

# recursion-*: the criterion-4 kernel-data generator (modes 1..13, scale 0.25).
S_KBOUND = 13
S_SCALE = 0.25
# Mode cutoff of the tr-variant tensors the oracle transforms (criterion 4).
ORACLE_KMAX = 17
# Largest allowed max|S_eo - S_atr| / max|S_atr| for an op checked by the oracle.
ORACLE_REL_TOL = 1e-9
# Ops checked by the oracle per run, spread evenly over the timed ops.
ORACLE_OPS = 4


class CheckFailed(Exception):
    """An op returned a result that fails one of its output checks."""


def _draw_g2(rng):
    point = []
    for centre in U0_G2:
        r = DRAW_RADIUS * math.sqrt(rng.random())
        point.append(centre + r * cmath.exp(2j * math.pi * rng.random()))
    return tuple(point)


def seeded_s(ram, rng):
    """Symmetric regular-part kernel data s^{(k,a)(k',b)} for modes 1..S_KBOUND."""
    s = {}
    modes = [(k, lab) for lab in ram for k in range(1, S_KBOUND + 1)]
    for i, m1 in enumerate(modes):
        for m2 in modes[i:]:
            s[(m1, m2)] = S_SCALE * complex(rng.standard_normal(), rng.standard_normal())
    return s


class VerifyG2:
    """``cli.verify_theorem`` at genus 2 with the default configuration.

    Moduli are drawn uniformly within DRAW_RADIUS of the acceptance point.
    Some such points raise ExtractionNotConverged at the default k_bound;
    they stay in the draw and count as failed ops.
    """

    name = "verify-g2"
    nominal_op_s = 1.4
    oracle = False
    array_calibration = True

    def __init__(self, swtr):
        self.cli = swtr.cli

    def draw(self, rng):
        return _draw_g2(rng)

    def op(self, point):
        return self.cli.verify_theorem(self.cli.VerifyConfig(genus=2, u0=point))

    def check(self, point, report):
        """Relative error of the identity in the matched sign convention."""
        matched = report.metadata.get("matched_convention")
        if matched is None or not report.passed:
            failed = [c.name for c in report.checks if c.mandatory and not c.passed]
            raise CheckFailed(f"verify at {point}: convention {matched!r}, failed {failed}")
        return float(report.metadata["sign_convention_rel_errors"][matched]), None


class Recursion:
    """``spectral.eo_run`` at a fixed Euler characteristic on seeded kernel data."""

    oracle = True
    array_calibration = False

    def __init__(self, swtr):
        self.spectral = swtr.spectral
        self.airy = swtr.airy

    def draw(self, rng):
        return seeded_s(self.ram, rng)

    def op(self, s):
        curve = self.spectral.LocalSpectralCurve(ram=self.ram, bergman_reg=dict(s))
        return self.spectral.eo_run(curve, self.chi)

    def check(self, s, omega):
        """Structural checks; returns the table for the oracle."""
        table = omega.table
        for chi in range(1, self.chi + 1):
            for g in range(0, (chi + 1) // 2 + 1):
                n = chi + 2 - 2 * g
                if n >= 1 and not table.entries.get((g, n)):
                    raise CheckFailed(f"cell ({g}, {n}) missing or empty")
        for cell in table.entries.values():
            if not all(np.isfinite(complex(v).real) and np.isfinite(complex(v).imag)
                       for v in cell.values()):
                raise CheckFailed("non-finite recursion entry")
        return None, table

    def oracle_rel_dev(self, s, table):
        """max|S_eo - S_atr| / max|S_atr| against the abstract recursion.

        The abstract recursion runs on the gauge-transformed tr-variant
        tensors (the criterion-4 oracle), an independent route to the same
        coefficients.
        """
        airy = self.airy
        bar = airy.gauge_transform(airy.build_tr_variant_tensors(ORACLE_KMAX, self.ram),
                                   airy.GaugeData(s=dict(s)))
        s_atr = airy.atr_run(bar, self.chi)
        dev = 0.0
        scale = 0.0
        for cell in s_atr.cells():
            keys = {tuple(sorted(s_atr.modes[i] for i in key))
                    for key in s_atr.entries.get(cell, {})}
            keys |= {tuple(sorted(table.modes[i] for i in key))
                     for key in table.entries.get(cell, {})}
            for key in keys:
                ref = s_atr.value(*cell, key)
                scale = max(scale, abs(ref))
                dev = max(dev, abs(ref - table.value(*cell, key)))
        if scale == 0.0:
            raise CheckFailed("oracle produced an all-zero table")
        return dev / scale


class Recursion4pt(Recursion):
    """chi = 3 on four ramification points: breadth (20 odd modes, 212 entries)."""

    name = "recursion-4pt"
    nominal_op_s = 0.66
    ram = ("0", "1", "2", "3")
    chi = 3


class RecursionDeep(Recursion):
    """chi = 5 on one point: few modes, cells up to n = 7 and g = 3."""

    name = "recursion-deep"
    nominal_op_s = 0.255
    ram = ("0",)
    chi = 5


WORKLOADS = {w.name: w for w in (VerifyG2, Recursion4pt, RecursionDeep)}

# Set-ups per run (fresh worker processes) whose warm-up passes; setup_s is
# their median.  A run starts set-up workers until SETUPS - 1 warm-ups have
# passed, at most MAX_SETUPS - 1 of them, then the main worker.  About a
# quarter of the verify-g2 warm-ups fail, so counting passing set-ups keeps
# its median as steady as that of the recursion workloads, which never fail.
SETUPS = 5
MAX_SETUPS = 12
# Fewest timed ops in a run, whatever --seconds asks for.
MIN_OPS = 5


def op_count(workload_cls, seconds):
    """Timed ops per run: about ``seconds`` of work at the nominal op cost.

    The count depends only on the workload and ``seconds``, so one seed
    always gives the same inputs and the same failure accounting.
    """
    return max(MIN_OPS, round(seconds / workload_cls.nominal_op_s))


def make_inputs(workload, seed, n_ops):
    """(warm-up inputs, timed inputs) for a run; warm-ups do not depend on n_ops."""
    rng = np.random.default_rng(seed)
    warmups = [workload.draw(rng) for _ in range(MAX_SETUPS)]
    timed = [workload.draw(rng) for _ in range(n_ops)]
    return warmups, timed


def oracle_indices(n_ops):
    """Timed ops whose outputs the oracle checks, spread evenly over the run."""
    stride = max(1, n_ops // ORACLE_OPS)
    return set(range(0, n_ops, stride)[:ORACLE_OPS])
