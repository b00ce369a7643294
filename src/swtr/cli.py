"""End-to-end pipeline and command-line interface.

The verifier runs: reference curve -> cycles -> periods -> normalized kernel
-> standard charts -> local expansions -> local recursion -> B-period
contraction, and compares the third (optionally fourth) derivatives of the
prepotential against the contracted tensors, under one sign rule:
d^n F = -(-2 pi i)^(1 - n) M_{0,n}.  The derivatives come from tau, b and
a at eight nodes on a line in u-space through each modulus, the line whose
a-velocity is e_k (trapezoidal rule on the circle of the line parameter).

Subcommands:

* ``airy-selftest``   golden tensor and recursion values plus properties
* ``eo-run``          dump the recursion coefficient table for a local curve
* ``sw-periods``      dump period and kernel data for a curve
* ``verify-theorem``  full pipeline with a JSON config

Exit codes: 0 all requested checks pass, 1 check failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .airy import (
    atr_run,
    build_residue_constraint_tensors,
    embed_disc,
    eval_hamiltonians,
    max_index_bound,
    residue_formula_deviation,
    symmetry_deviation,
)
from .charts import local_expansions, standard_charts
from .errors import BasisMismatch, SwtrError, TruncationInsufficient
from .hyperelliptic import (
    BergmanData,
    CycleBasis,
    PeriodData,
    SWCurve,
    bergman_kernel,
    build_cycles,
    line_periods,
    new_curve,
    periods,
    quadrature_record,
)
from .laurent import LaurentSeries
from .spectral import LocalSpectralCurve, OmegaGN, eo_run, fill_bound

TWO_PI_I = 2j * np.pi
DERIVATIVE_RADIUS = 2e-3        # circle radius of the line parameter, relative to max(1, max |a|)
_H = np.sqrt(0.5)
CIRCLE_NODES = (1, _H + _H * 1j, 1j, -_H + _H * 1j, -1, -_H - _H * 1j, -1j, _H - _H * 1j)
DEFAULT_TOLERANCES = {"theorem_rel": 1e-3, "route_rel": 1e-5}


# ---------------------------------------------------------------------------
# config and report
# ---------------------------------------------------------------------------

def _complex(key, v):
    """A number, complex string or [re, im] pair as a complex; a bool or anything else raises."""
    def real(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if real(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(real, v)):
        return complex(*v)
    if isinstance(v, str):
        try:
            return complex(v.replace(" ", ""))
        except ValueError:
            pass
    raise ValueError(f"{key} must be a number, complex string or [re, im] pair, got {v!r}")


def _moduli(v):
    """The list u0 as a tuple of complex moduli, each read by ``_complex``."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"u0 must be a list of moduli, got {v!r}")
    return tuple(_complex(f"u0[{i}]", x) for i, x in enumerate(v))


def _integer(key, v):
    """A JSON integer (an integral float too) as an int; a fraction, bool or string raises."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return int(v)


def _boolean(key, v):
    if not isinstance(v, bool):
        raise ValueError(f"{key} must be true or false, got {v!r}")
    return v


def _number(key, v):
    """A JSON number as a float; a bool, string or null raises."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{key} must be a number, got {v!r}")
    return float(v)


def _string(key, v):
    if not isinstance(v, str):
        raise ValueError(f"{key} must be a string, got {v!r}")
    return v


def _rel_err(lhs, rhs):
    return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))


def _c_json(z):
    z = complex(z)
    return [z.real, z.imag]


@dataclass
class VerifyConfig:
    genus: int
    u0: tuple
    Lambda: complex = 1.0
    chi_max: int = 1
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    check_n4: bool = False
    out_dir: str = "."

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        if len(self.u0) != self.genus:
            raise ValueError(f"genus {self.genus} needs {self.genus} moduli u0, got {len(self.u0)}")
        if self.chi_max < 1:
            raise ValueError("chi_max must be >= 1")
        for name, t in self.tolerances.items():
            if not (math.isfinite(t) and t > 0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {t}")

    @property
    def chi(self):
        """Euler characteristic the run recurses to: chi_max, at least 2 for the n = 4 check."""
        return max(self.chi_max, 2 if self.check_n4 else 1)

    @classmethod
    def from_dict(cls, raw):
        """Config from a parsed JSON object; absent keys keep defaults.

        A config that is not an object, an unknown key, a genus or chi_max
        that is not an integer, a u0 that is not a list, a modulus or Lambda
        that is not a number, complex string or [re, im] pair (a boolean is
        none of these), a check_n4 that is not a boolean, tolerances that are
        not an object, a tolerance that is not a number or an out_dir that is
        not a string raises ValueError.
        """
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        parse = {
            "genus": lambda v: _integer("genus", v),
            "u0": _moduli, "Lambda": lambda v: _complex("Lambda", v),
            "chi_max": lambda v: _integer("chi_max", v),
            "check_n4": lambda v: _boolean("check_n4", v),
            "out_dir": lambda v: _string("out_dir", v),
        }
        raw_tols = raw.get("tolerances", {})
        if not isinstance(raw_tols, dict):
            raise ValueError(f"tolerances must be a JSON object, got {type(raw_tols).__name__}")
        for what, names, allowed in (("config keys", raw, {*parse, "tolerances"}),
                                     ("tolerance names", raw_tols, DEFAULT_TOLERANCES)):
            unknown = sorted(set(names) - set(allowed))
            if unknown:
                raise ValueError(f"unknown {what} {unknown}; known: {sorted(allowed)}")
        known = {k: conv(raw[k]) for k, conv in parse.items() if k in raw}
        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update({k: _number(f"tolerance {k}", v) for k, v in raw_tols.items()})
        return cls(tolerances=tolerances, **known)


@dataclass
class CheckResult:
    name: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    mandatory: bool = True
    info: str = ""

    def as_dict(self):
        out = {**vars(self), "lhs": _c_json(self.lhs), "rhs": _c_json(self.rhs)}
        out["tolerance"] = out.pop("tol")
        return out


@dataclass
class PipelineArtifacts:
    """What the reference stages produce, in pipeline order."""

    curve: SWCurve
    cycles: CycleBasis
    pd: PeriodData
    bk: BergmanData
    charts: dict                  # label -> StandardChart
    s_coeffs: dict                # kernel regular part s^{(k,a)(k',b)}
    c_coeffs: dict                # normalized-form Taylor data c^{k,a}_j
    seconds: dict                 # wall seconds of the period and local stages


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    # not serialized: the reference data and the recursion output of the run
    artifacts: PipelineArtifacts = field(default=None, repr=False)
    omega: OmegaGN = field(default=None, repr=False)

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.mandatory)

    def add(self, name, lhs, rhs, tol, mandatory=True, info=""):
        lhs, rhs = complex(lhs), complex(rhs)
        rel_err = _rel_err(lhs, rhs)
        self.checks.append(CheckResult(
            name=name, lhs=lhs, rhs=rhs, abs_err=float(abs(lhs - rhs)), rel_err=rel_err,
            tol=float(tol), passed=bool(rel_err <= tol), mandatory=mandatory,
            info=info))
        return self.checks[-1]

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "metadata": self.metadata,
            "timing": self.timing,
        }

    def to_json(self, path=None):
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------

def format_label(label):
    if isinstance(label, tuple) and len(label) == 2 and label[1] in (1, -1):
        return f"{label[0]}{'+' if label[1] > 0 else '-'}"
    return str(label)


def format_index_tuple(modes, single_label):
    if single_label:
        inner = ";".join(str(k) for k, _ in modes)
    else:
        inner = ";".join(f"{k}@{format_label(lab)}" for k, lab in modes)
    return f"({inner})"


def write_sgn_csv(path, table):
    labels = {m[1] for m in table.modes}
    single = len(labels) == 1
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["g", "n", "indices", "re", "im"])
        for g, n, modes, val in table.rows():
            wr.writerow([g, n, format_index_tuple(modes, single),
                         repr(float(val.real) + 0.0 if val.real else 0.0),
                         repr(float(val.imag) + 0.0 if val.imag else 0.0)])


def periods_json_payload(art):
    curve, pd = art.curve, art.pd
    return {
        "genus": curve.g,
        "moduli": [_c_json(v) for v in curve.u],
        "Lambda": _c_json(curve.Lambda),
        "branch_points": [_c_json(v) for v in curve.branch_points],
        "a": [_c_json(v) for v in pd.a],
        "b": [_c_json(v) for v in pd.b],
        "tau": [[_c_json(v) for v in row] for row in pd.tau],
        "kernel_correction": [[_c_json(v) for v in row] for row in art.bk.correction],
        "s_coeffs": [
            {"k1": m1[0], "label1": format_label(m1[1]),
             "k2": m2[0], "label2": format_label(m2[1]), "value": _c_json(v)}
            for (m1, m2), v in sorted(art.s_coeffs.items(), key=lambda kv: str(kv[0]))],
        "c_coeffs": [
            {"k": m[0], "label": format_label(m[1]),
             "values": [_c_json(v) for v in vec]}
            for m, vec in sorted(art.c_coeffs.items(), key=lambda kv: str(kv[0]))],
    }


# ---------------------------------------------------------------------------
# B-period contraction
# ---------------------------------------------------------------------------

def bperiod_contract(table, c_coeffs, genus, cells):
    """Iterated B-periods of the tensor cells ``cells``, a list of (g, n) keys of the table.

    Returns {(g, n): array of shape (genus,)*n}, one entry per cell named, with

        M_{j1..jn} = (2 pi i)^n sum_T S_{g,n;(k,a)...} prod c^{k_t,a_t}_{j_t},

    fully symmetric in the j's.  The table must carry bergman-basis data, and
    ``c_coeffs`` every mode of the table.

    Each stored entry stands for all its distinct index permutations, so it
    is contracted once in its sorted order, weighted by their number, and the
    genus^n sum is symmetrized at the end; no dim^n tensor is formed.
    """
    if table.basis_tag != "bergman":
        raise BasisMismatch(f"need a bergman-basis table, got {table.basis_tag!r}")
    modes = table.modes
    missing = [m for m in modes if m not in c_coeffs]
    if missing:
        raise TruncationInsufficient(f"no c data for table mode {missing[0]};"
                                     f" {len(missing)} of {len(modes)} table modes lack it")
    cmat = np.array([c_coeffs[m] for m in modes], dtype=complex)
    out = {}
    for g, n in cells:
        cell = table.entries[(g, n)]
        keys = np.array(list(cell), dtype=int).reshape(len(cell), n)
        weights = [math.factorial(n) / math.prod(map(math.factorial, Counter(key).values()))
                   for key in cell]
        coef = np.array(list(cell.values()), dtype=complex) * weights
        js = "ijklmnopq"[:n]
        expr = "a," + ",".join("a" + j for j in js) + "->" + js
        acc = np.einsum(expr, coef, *(cmat[keys[:, t]] for t in range(n)), optimize=True)
        sym = sum(np.transpose(acc, p) for p in itertools.permutations(range(n)))
        out[(g, n)] = (TWO_PI_I ** n) * sym / math.factorial(n)
    return out


# ---------------------------------------------------------------------------
# the theorem verifier
# ---------------------------------------------------------------------------

def circle_derivatives(values, r):
    """First and second derivatives at the centre of a circle of radius ``r``.

    ``values`` holds X at the nodes c + r w_j, w_j = exp(2 pi i j / N) the
    N = 8 ``CIRCLE_NODES``, as arrays of one shape.  The trapezoidal rule on
    the circle gives dX = 1/N sum_j X_j / (r w_j), exact for polynomials of
    degree <= N, and d^2X = 2/N sum_j X_j / (r w_j)^2, exact for degree
    <= N + 1: the first powers they misread are z^(N+1) and z^(N+2).
    """
    inv = 1.0 / (r * np.array(CIRCLE_NODES))
    n = len(CIRCLE_NODES)
    return (np.tensordot(inv, values, axes=1) / n,
            2 * np.tensordot(inv ** 2, values, axes=1) / n)


def prepotential_derivatives(curve, cycles, pd, r):
    """d_k tau_ij [i, j, k], d_k^2 tau_ij [i, j, k] and d_k^2 b_i [i, k] at a0, and the node offset.

    X = tau, b and a are taken at u0 + r w_j v_k (``line_periods``), on the
    line through u0 whose a-velocity is e_k.  Along it the first circle
    derivative is d_k X exactly; the line bends in a-space, so the second is
    d_k^2 X + sum_m (dX/da_m) a_m'', and that term is taken off with the
    circle's own a_m''.  The offset is the worst |a(node) - a0 - r w_j e_k| / r:
    how far the nodes sit off the a-space circle.
    """
    g, n = curve.g, len(CIRCLE_NODES)
    d_tau = np.zeros((g, g, g), dtype=complex)
    d2_tau = np.zeros((g, g, g), dtype=complex)
    d2_b = np.zeros((g, g), dtype=complex)
    d2_a = np.zeros((g, g), dtype=complex)          # [m, k]: a_m'' along line k
    on_lines = line_periods(curve, cycles, pd, r, CIRCLE_NODES)
    for k in range(g):
        nodes = on_lines[n * k:n * (k + 1)]
        d_tau[:, :, k], d2_tau[:, :, k] = circle_derivatives([p.tau for p in nodes], r)
        d2_b[:, k] = circle_derivatives([p.b for p in nodes], r)[1]
        d2_a[:, k] = circle_derivatives([p.a for p in nodes], r)[1]
    d2_tau -= np.einsum("ijm,mk->ijk", d_tau, d2_a)
    d2_b -= pd.tau @ d2_a                           # db_i / da_m = tau_im
    on_circle = [pd.a + r * w * e_k for e_k in np.eye(g) for w in CIRCLE_NODES]
    off_circle = np.max(np.abs(np.array([p.a for p in on_lines]) - on_circle))
    return d_tau, d2_tau, d2_b, float(off_circle) / r


def reference_stages(cfg, k_bound=None):
    """curve -> cycles -> periods -> kernel -> charts -> local expansions of ``cfg``.

    s and c reach the mode ``k_bound``: the caller's largest table mode, which
    the B-period contraction reads, or by default max_index_bound(cfg.chi) - 1,
    that of every cell up to cfg.chi.  The charts are built to 2 k_bound + 1,
    the order the three exact divisions of the kernel's regular part need.
    """
    t0 = time.perf_counter()
    curve = new_curve(cfg.genus, cfg.u0, cfg.Lambda)
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    t1 = time.perf_counter()
    bk = bergman_kernel(curve, cycles, pd)
    if k_bound is None:
        k_bound = max_index_bound(cfg.chi) - 1
    charts = standard_charts(curve, 2 * k_bound + 1)
    s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound)
    seconds = {"periods_s": round(t1 - t0, 3),
               "kernel_and_charts_s": round(time.perf_counter() - t1, 3)}
    return PipelineArtifacts(curve=curve, cycles=cycles, pd=pd, bk=bk, charts=charts,
                             s_coeffs=s_coeffs, c_coeffs=c_coeffs, seconds=seconds)


def verify_theorem(cfg):
    """Compare prepotential derivatives against B-period contractions."""
    t0 = time.perf_counter()
    report = VerifyReport()
    report.metadata = {
        "package_version": __version__,
        "genus": cfg.genus,
        "u0": [_c_json(v) for v in cfg.u0],
        "Lambda": _c_json(cfg.Lambda),
        "chi_max": cfg.chi_max,
        "numpy_version": np.__version__,
    }
    g = cfg.genus
    # the genus-zero cells up to (0, chi + 2) and no others: (0, n) reads only
    # (0, m) with m < n, and the checks read (0, 3) and, for n = 4, (0, 4)
    cells = [(0, n) for n in range(3, cfg.chi + 3)]

    art = reference_stages(cfg, fill_bound(cfg.chi, cells) - 1)
    curve, cycles, pd = art.curve, art.cycles, art.pd
    report.metadata["intersection_matrix"] = cycles.intersection_matrix.tolist()
    # the worst weighed residual of each chart identity, and the radius it is weighed on
    report.metadata["chart_residuals"] = {
        str(label): {**ch.residuals, "rho": ch.extraction_radius}
        for label, ch in sorted(art.charts.items()) if label[1] == 1}
    t2 = time.perf_counter()

    local_curve = LocalSpectralCurve(ram=tuple(sorted(art.charts)), bergman_reg=art.s_coeffs)
    omega = eo_run(local_curve, cfg.chi, cells=cells)
    # only the cells a check reads: (0, 3), and (0, 4) for the n = 4 checks
    contractions = bperiod_contract(omega.table, art.c_coeffs, g,
                                    [(0, 3), (0, 4)] if cfg.check_n4 else [(0, 3)])
    bp3 = contractions[(0, 3)]
    t3 = time.perf_counter()

    r = DERIVATIVE_RADIUS * max(1.0, float(np.max(np.abs(pd.a))))
    d_tau, d2_tau, d2_b, a_offset = prepotential_derivatives(curve, cycles, pd, r)
    report.metadata["derivative_radius"] = r
    report.metadata["derivative_nodes"] = len(CIRCLE_NODES)
    report.metadata["derivative_a_offset"] = a_offset
    # read after the line pass, whose levels the reference keeps
    report.metadata["quadrature"] = quadrature_record(cycles)

    # two routes to F_ikk: d_k tau_ik and d_k^2 b_i
    routes = np.einsum("ikk->ik", d_tau)
    i, k = max(np.ndindex(g, g), key=lambda ik: _rel_err(routes[ik], d2_b[ik]))
    report.add("derivative_routes_agree", routes[i, k], d2_b[i, k],
               cfg.tolerances["route_rel"], mandatory=False,
               info=f"d_k tau_ik vs d_k^2 b_i, worst entry i = {i + 1}, k = {k + 1}")

    # the identity under the sign rule d^n F = -(-2 pi i)^(1 - n) M_{0,n}:
    # the "minus" convention at n = 3 and the "plus" one at n = 4
    pref3 = -((1.0 / TWO_PI_I) ** 2)
    tol = cfg.tolerances["theorem_rel"]
    worst = max(_rel_err(d_tau[idx], pref3 * bp3[idx]) for idx in np.ndindex(d_tau.shape))
    report.metadata["sign_convention_rel_errors"] = {"minus": worst}
    report.metadata["matched_convention"] = "minus" if worst <= tol else None
    for i in range(g):
        for j in range(i, g):
            for k in range(j, g):
                report.add(
                    f"prepotential_d3_[{i + 1}{j + 1}{k + 1}]",
                    d_tau[i, j, k], pref3 * bp3[i, j, k], tol,
                    info="circle derivative of tau vs contracted B-periods (minus convention)")

    if cfg.check_n4:
        rhs4 = (1.0 / TWO_PI_I) ** 3 * contractions[(0, 4)]
        for i in range(g):
            for j in range(i, g):
                for k in range(g):
                    report.add(f"prepotential_d4_[{i + 1}{j + 1}{k + 1}{k + 1}]",
                               d2_tau[i, j, k], rhs4[i, j, k, k], 20 * tol, mandatory=False,
                               info="n = 4 term (plus convention)")

    report.timing = {
        **art.seconds,
        "recursion_s": round(t3 - t2, 3),
        "derivatives_s": round(time.perf_counter() - t3, 3),
        "total_s": round(time.perf_counter() - t0, 3),
    }
    report.artifacts, report.omega = art, omega
    return report


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def airy_selftest(kmax=15):
    """Golden values and structural properties of the tensor families."""
    report = VerifyReport()
    t = build_residue_constraint_tensors(kmax, ("0",))
    lab = "0"
    report.add("a_111", t.a[t.mode(1, lab), t.mode(1, lab), t.mode(1, lab)], 0.25, 1e-13)
    report.add("eps_3", t.eps[t.mode(3, lab)], 1.0 / 16.0, 1e-13)
    report.add("b_13^1", t.b[t.mode(1, lab), t.mode(3, lab), t.mode(1, lab)], 0.75, 1e-13)
    dev, (kind, i, j, k, _) = residue_formula_deviation(t, kmax)
    report.add("residue_formula_agreement", dev, 0.0, 1.0,
               info=f"worst entry {kind}[{i},{j},{k}] over indices up to {kmax}")
    report.checks[-1].passed = bool(dev < 1e-12)
    table = atr_run(t, chi_max=2)
    report.add("S_0,3;111", table.value(0, 3, ((1, lab),) * 3), 0.5, 1e-13)
    report.add("S_1,1;3", table.value(1, 1, ((3, lab),)), 1.0 / 16.0, 1e-13)
    sym = symmetry_deviation(table, t)
    report.add("atr_symmetry", sym, 0.0, 1.0)
    report.checks[-1].passed = bool(sym < 1e-10)
    w = embed_disc(0.05 - 0.02j, LaurentSeries.from_list([1.0, 0.3], start=1))
    h = eval_hamiltonians(w, i_max=15)
    hmax = max(abs(v) for v in h.values())
    report.add("disc_embedding_residual", hmax, 0.0, 1.0)
    report.checks[-1].passed = bool(hmax < 1e-10)
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
              f"lhs={c.lhs:.6g} rhs={c.rhs:.6g} (rel {c.rel_err:.2e})")
    return report


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _parser():
    ap = argparse.ArgumentParser(prog="swtr", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("airy-selftest", help="golden values and properties")
    sp.add_argument("--kmax", type=int, default=15)

    sp = sub.add_parser("eo-run", help="dump the recursion table for a local curve")
    sp.add_argument("--points", type=int, default=1)
    sp.add_argument("--s", choices=["zero", "random"], default="zero")
    sp.add_argument("--chi-max", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="sgn_table.csv")

    sp = sub.add_parser("sw-periods", help="dump period and kernel data")
    sp.add_argument("--genus", type=int, default=1)
    sp.add_argument("--u0", nargs="+", default=["0.3+0.1j"])
    sp.add_argument("--Lambda", default="1")
    sp.add_argument("--out", default="periods.json")

    sp = sub.add_parser("verify-theorem", help="full pipeline from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--chi-max", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--tol", type=float, default=None)
    return ap


def _bad_config(why):
    print(f"error: bad config: {why}", file=sys.stderr)
    return 2


def _cannot_write(path, exc):
    """Report an output that could not be written, at the path that failed, as exit code 2."""
    print(f"error: cannot write {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def cli_main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "airy-selftest":
            if args.kmax < max_index_bound(2):      # the selftest recurses to chi = 2
                return _bad_config(f"--kmax must be at least {max_index_bound(2)}, got {args.kmax}")
            report = airy_selftest(kmax=args.kmax)
            print("overall:", "PASS" if report.passed else "FAIL")
            return 0 if report.passed else 1

        if args.command == "eo-run":
            for flag, value in (("--points", args.points), ("--chi-max", args.chi_max)):
                if value < 1:
                    return _bad_config(f"{flag} must be at least 1, got {value}")
            ram = tuple(str(i) for i in range(args.points))
            s = {}
            if args.s == "random":
                rng = np.random.default_rng(args.seed)
                modes = [(k, lab) for lab in ram for k in range(1, 8)]
                s = {pair: 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
                     for pair in itertools.combinations_with_replacement(modes, 2)}
            curve = LocalSpectralCurve(ram=ram, bergman_reg=s)
            t0 = time.perf_counter()
            omega = eo_run(curve, args.chi_max)
            wall = time.perf_counter() - t0
            try:
                write_sgn_csv(args.out, omega.table)
            except OSError as exc:
                return _cannot_write(args.out, exc)
            stored = sum(len(c) for c in omega.table.entries.values())
            print(f"wrote {args.out} with {stored} entries")
            print(f"recursion: {omega.engine.evaluated} tuples evaluated, "
                  f"{stored} stored, {wall:.3f} s, {omega.engine.products} products")
            return 0

        if args.command == "sw-periods":
            try:
                cfg = VerifyConfig(genus=args.genus, u0=_moduli(args.u0),
                                   Lambda=_complex("--Lambda", args.Lambda))
            except ValueError as exc:
                return _bad_config(exc)
            payload = periods_json_payload(reference_stages(cfg))
            try:
                with open(args.out, "w") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
            except OSError as exc:
                return _cannot_write(args.out, exc)
            print(f"wrote {args.out}")
            return 0

        if args.command == "verify-theorem":
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 2
            try:
                if isinstance(raw, dict):       # from_dict refuses any other config
                    if args.chi_max is not None:
                        raw["chi_max"] = args.chi_max
                    if args.tol is not None:
                        raw.setdefault("tolerances", {})["theorem_rel"] = args.tol
                    if args.out is not None:
                        raw["out_dir"] = args.out
                cfg = VerifyConfig.from_dict(raw)
            except (KeyError, ValueError, TypeError) as exc:
                return _bad_config(exc)
            report = verify_theorem(cfg)
            try:
                os.makedirs(cfg.out_dir, exist_ok=True)
                report.to_json(os.path.join(cfg.out_dir, "report.json"))
                write_sgn_csv(os.path.join(cfg.out_dir, "sgn_table.csv"), report.omega.table)
                with open(os.path.join(cfg.out_dir, "periods.json"), "w") as fh:
                    json.dump(periods_json_payload(report.artifacts), fh, indent=2, sort_keys=True)
            except OSError as exc:
                return _cannot_write(cfg.out_dir, exc)
            for c in report.checks:
                print(f"{'PASS' if c.passed else 'FAIL'}  {c.name} (rel {c.rel_err:.2e})")
            print("matched convention:", report.metadata.get("matched_convention"))
            print("overall:", "PASS" if report.passed else "FAIL")
            return 0 if report.passed else 1
    except SwtrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
