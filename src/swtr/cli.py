"""End-to-end pipeline and command-line interface.

The verifier runs: reference curve -> cycles -> periods -> normalized kernel
-> standard charts -> local expansions -> local recursion -> B-period
contraction, and compares the finite-difference third (optionally fourth)
derivatives of the prepotential against the contracted tensors.  Both sign
conventions relating the two are evaluated and the matching one is recorded.

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
    residue_constraint_entry,
    symmetry_deviation,
)
from .charts import local_expansions, standard_charts
from .errors import BasisMismatch, SwtrError
from .hyperelliptic import (
    BergmanData,
    CycleBasis,
    PeriodData,
    SWCurve,
    bergman_kernel,
    build_cycles,
    invert_a_map,
    new_curve,
    periods,
)
from .laurent import LaurentSeries
from .spectral import LocalSpectralCurve, OmegaGN, eo_run

TWO_PI_I = 2j * np.pi
DEFAULT_TOLERANCES = {"theorem_rel": 1e-3, "quadrature": 1e-11, "route_rel": 1e-5}


# ---------------------------------------------------------------------------
# config and report
# ---------------------------------------------------------------------------

def _to_complex(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    if isinstance(v, str):
        return complex(v.replace(" ", ""))
    return complex(v)


def _c_json(z):
    z = complex(z)
    return [z.real, z.imag]


@dataclass
class VerifyConfig:
    genus: int
    u0: tuple
    Lambda: complex = 1.0
    delta_a: tuple = (1e-3, 5e-4)
    chi_max: int = 1
    series_order: int = 44
    k_bound: int = 7
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    seed: int = 11
    check_n4: bool = False
    out_dir: str = "."

    def __post_init__(self):
        if self.chi_max < 1:
            raise ValueError("chi_max must be >= 1")
        if not self.delta_a:
            raise ValueError("delta_a grid must be nonempty")
        if any(t <= 0 for t in self.tolerances.values()):
            raise ValueError("tolerances must be positive")

    @classmethod
    def from_dict(cls, raw):
        """Config from parsed JSON; absent keys keep the field defaults."""
        parse = {
            "genus": int, "u0": lambda v: tuple(_to_complex(x) for x in v),
            "Lambda": _to_complex, "delta_a": lambda v: tuple(float(h) for h in v),
            "chi_max": int, "series_order": int, "k_bound": int, "seed": int,
            "check_n4": bool, "out_dir": str,
        }
        known = {k: conv(raw[k]) for k, conv in parse.items() if k in raw}
        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update({k: float(v) for k, v in dict(raw.get("tolerances", {})).items()})
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
        return {
            "name": self.name,
            "lhs": _c_json(self.lhs),
            "rhs": _c_json(self.rhs),
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tolerance": self.tol,
            "passed": self.passed,
            "mandatory": self.mandatory,
            "info": self.info,
        }


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
        abs_err = float(abs(lhs - rhs))
        rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
        self.checks.append(CheckResult(
            name=name, lhs=lhs, rhs=rhs, abs_err=abs_err, rel_err=float(rel_err),
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

def bperiod_contract(table, c_coeffs, genus):
    """Iterated B-periods of every tensor cell.

    Returns {(g, n): array of shape (genus,)*n} with

        M_{j1..jn} = (2 pi i)^n sum_T S_{g,n;(k,a)...} prod c^{k_t,a_t}_{j_t},

    fully symmetric in the j's.  The table must carry bergman-basis data.

    Each stored entry stands for all its distinct index permutations, so it
    is contracted once in its sorted order, weighted by their number, and the
    genus^n sum is symmetrized at the end; no dim^n tensor is formed.
    """
    if table.basis_tag != "bergman":
        raise BasisMismatch(f"need a bergman-basis table, got {table.basis_tag!r}")
    modes = table.modes
    cmat = np.zeros((len(modes), genus), dtype=complex)
    for mi, m in enumerate(modes):
        vec = c_coeffs.get(m)
        if vec is not None:
            cmat[mi] = vec
    out = {}
    for (g, n), cell in table.entries.items():
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

def reference_stages(cfg):
    """curve -> cycles -> periods -> kernel -> charts -> local expansions of ``cfg``."""
    t0 = time.time()
    curve = new_curve(cfg.genus, cfg.u0, cfg.Lambda)
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    t1 = time.time()
    bk = bergman_kernel(curve, cycles, pd, seed=cfg.seed)
    charts = standard_charts(curve, curve, order=cfg.series_order)
    s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound=cfg.k_bound)
    seconds = {"periods_s": round(t1 - t0, 3),
               "kernel_and_charts_s": round(time.time() - t1, 3)}
    return PipelineArtifacts(curve=curve, cycles=cycles, pd=pd, bk=bk, charts=charts,
                             s_coeffs=s_coeffs, c_coeffs=c_coeffs, seconds=seconds)


def verify_theorem(cfg):
    """Compare prepotential derivatives against B-period contractions."""
    t0 = time.time()
    report = VerifyReport()
    report.metadata = {
        "package_version": __version__,
        "genus": cfg.genus,
        "u0": [_c_json(v) for v in cfg.u0],
        "Lambda": _c_json(cfg.Lambda),
        "chi_max": cfg.chi_max,
        "delta_a": list(cfg.delta_a),
        "seed": cfg.seed,
        "numpy_version": np.__version__,
    }
    quad_tol = cfg.tolerances["quadrature"]
    g = cfg.genus

    art = reference_stages(cfg)
    curve, cycles, pd = art.curve, art.cycles, art.pd
    report.metadata["intersection_matrix"] = cycles.intersection_matrix.tolist()
    t2 = time.time()

    local_curve = LocalSpectralCurve(ram=tuple(sorted(art.charts)),
                                     bergman_reg=dict(art.s_coeffs))
    omega = eo_run(local_curve, max(cfg.chi_max, 2 if cfg.check_n4 else 1))
    contractions = bperiod_contract(omega.table, art.c_coeffs, g)
    bp3 = contractions[(0, 3)]
    t3 = time.time()

    # symmetry of the contracted tensor
    sym_dev = 0.0
    for i in range(g):
        for j in range(g):
            for k in range(g):
                sym_dev = max(sym_dev, abs(bp3[i, j, k] - bp3[j, i, k]),
                              abs(bp3[i, j, k] - bp3[k, j, i]))
    report.add("bp3_symmetric", sym_dev, 0.0, 1.0, mandatory=True,
               info="absolute asymmetry of the contracted third-derivative tensor")
    report.checks[-1].passed = bool(sym_dev < 1e-6 * max(1.0, float(np.max(np.abs(bp3)))))
    report.checks[-1].rel_err = float(sym_dev / max(1.0, float(np.max(np.abs(bp3)))))

    # finite differences of tau(a)
    scale = max(1.0, float(np.max(np.abs(pd.a))))
    fd3_by_step = []
    informative = []
    for step in cfg.delta_a:
        if step == 0:
            report.add("fd3_step_zero", 0.0, 0.0, 1.0, mandatory=False,
                       info="zero displacement: comparison 0 = 0 is non-informative")
            continue
        h = step * scale
        fd3 = np.zeros((g, g, g), dtype=complex)
        for k in range(g):
            e_k = np.zeros(g)
            e_k[k] = 1.0
            pd_p = periods(*invert_a_map(curve, cycles, pd.a + h * e_k, tol=quad_tol))
            pd_m = periods(*invert_a_map(curve, cycles, pd.a - h * e_k, tol=quad_tol))
            fd3[:, :, k] = (pd_p.tau - pd_m.tau) / (2.0 * h)
            if k == 0:
                # independent route: second differences of the B-periods
                route2 = (pd_p.b - 2.0 * pd.b + pd_m.b) / h ** 2
                informative.append((h, route2, fd3[0, 0, 0] if g == 1 else None))
        fd3_by_step.append((h, fd3))
    if not fd3_by_step:
        raise ValueError("delta_a grid contained no usable steps")

    # Richardson extrapolation over the two smallest steps when available
    fd3_by_step.sort(key=lambda p: p[0])
    if len(fd3_by_step) >= 2 and abs(fd3_by_step[1][0] / fd3_by_step[0][0] - 2.0) < 0.2:
        h_small, d_small = fd3_by_step[0]
        _, d_big = fd3_by_step[1]
        fd3 = (4.0 * d_small - d_big) / 3.0
    else:
        fd3 = fd3_by_step[0][1]

    # FD convergence order on the largest entry
    if len(fd3_by_step) >= 3:
        ref = fd3
        errs = [float(np.max(np.abs(d - ref))) for _, d in fd3_by_step[-2:]]
        hs = [h for h, _ in fd3_by_step[-2:]]
        if errs[0] > 0 and errs[1] > 0:
            slope = np.log(errs[1] / errs[0]) / np.log(hs[1] / hs[0])
            report.add("fd_order", slope, 2.0, 0.6, mandatory=False,
                       info="observed finite-difference convergence order")
            report.checks[-1].passed = bool(slope >= 1.8)

    # route agreement (g = 1): d^2 b / d a^2 vs d tau / d a
    if g == 1 and informative:
        h, route2, route1 = informative[0]
        report.add("derivative_routes_agree", route1, complex(route2[0]),
                   cfg.tolerances["route_rel"] * 30,
                   mandatory=False,
                   info="FD of tau vs second differences of b at the largest step")
        report.checks[-1].passed = bool(abs(route1 - route2[0])
                                         <= cfg.tolerances["route_rel"]
                                         * max(abs(route1), 1e-30) + 1e-7)

    # the identity, both sign conventions
    conv = {"plus": (1.0 / TWO_PI_I) ** 2, "minus": -((1.0 / TWO_PI_I) ** 2)}
    tol = cfg.tolerances["theorem_rel"]
    matched = None
    rel_by_conv = {}
    for name, pref in conv.items():
        worst = 0.0
        for i in range(g):
            for j in range(g):
                for k in range(g):
                    lhs = fd3[i, j, k]
                    rhs = pref * bp3[i, j, k]
                    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        rel_by_conv[name] = worst
        if worst <= tol and matched is None:
            matched = name
    report.metadata["sign_convention_rel_errors"] = {k: float(v) for k, v in rel_by_conv.items()}
    report.metadata["matched_convention"] = matched
    best = matched or min(rel_by_conv, key=rel_by_conv.get)
    for i in range(g):
        for j in range(i, g):
            for k in range(j, g):
                report.add(
                    f"prepotential_d3_[{i + 1}{j + 1}{k + 1}]",
                    fd3[i, j, k], conv[best] * bp3[i, j, k], tol,
                    info=f"FD third derivative vs contracted B-periods ({best} convention)")

    # optional fourth-derivative term (genus 1)
    if cfg.check_n4 and g == 1:
        bp4 = contractions[(0, 4)]
        h = cfg.delta_a[0] * scale
        taus = {}
        for m in (-1, 0, 1):
            taus[m] = (pd.tau if m == 0 else
                       periods(*invert_a_map(curve, cycles, pd.a + m * h, tol=quad_tol)).tau)
        fd4 = (taus[1][0, 0] - 2.0 * taus[0][0, 0] + taus[-1][0, 0]) / h ** 2
        pref4 = (1.0 / TWO_PI_I) ** 3
        cand = {"plus": pref4 * bp4[0, 0, 0, 0], "minus": -pref4 * bp4[0, 0, 0, 0]}
        pick = min(cand, key=lambda nm: abs(fd4 - cand[nm]))
        report.add("prepotential_d4_[1111]", fd4, cand[pick], 20 * tol,
                   mandatory=False, info=f"n = 4 term ({pick} convention)")
        report.metadata["matched_convention_n4"] = pick

    report.timing = {
        **art.seconds,
        "recursion_s": round(t3 - t2, 3),
        "finite_differences_s": round(time.time() - t3, 3),
        "total_s": round(time.time() - t0, 3),
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
    dev = 0.0
    for i in range(1, kmax + 1):
        for j in range(1, kmax + 1):
            for k in range(1, kmax + 1):
                ii, jj, kk = t.mode(i, lab), t.mode(j, lab), t.mode(k, lab)
                dev = max(dev,
                          abs(t.a[ii, jj, kk] - residue_constraint_entry("a", i, j, k)),
                          abs(t.b[ii, jj, kk] - residue_constraint_entry("b", i, j, k)),
                          abs(t.c[ii, jj, kk] - residue_constraint_entry("c", i, j, k)))
    report.add("residue_formula_agreement", dev, 0.0, 1.0)
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
    sp.add_argument("--k-bound", type=int, default=7)
    sp.add_argument("--out", default="periods.json")

    sp = sub.add_parser("verify-theorem", help="full pipeline from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--chi-max", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    return ap


def cli_main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "airy-selftest":
            report = airy_selftest(kmax=args.kmax)
            print("overall:", "PASS" if report.passed else "FAIL")
            return 0 if report.passed else 1

        if args.command == "eo-run":
            ram = tuple(str(i) for i in range(args.points))
            s = {}
            if args.s == "random":
                rng = np.random.default_rng(args.seed)
                modes = [(k, lab) for lab in ram for k in range(1, 8)]
                for a_idx, m1 in enumerate(modes):
                    for m2 in modes[a_idx:]:
                        s[(m1, m2)] = 0.2 * (rng.standard_normal()
                                             + 1j * rng.standard_normal())
            curve = LocalSpectralCurve(ram=ram, bergman_reg=s)
            t0 = time.perf_counter()
            omega = eo_run(curve, args.chi_max)
            wall = time.perf_counter() - t0
            write_sgn_csv(args.out, omega.table)
            stored = sum(len(c) for c in omega.table.entries.values())
            print(f"wrote {args.out} with {stored} entries")
            print(f"recursion: {omega.engine.evaluated} tuples evaluated, "
                  f"{stored} stored, {wall:.3f} s")
            return 0

        if args.command == "sw-periods":
            cfg = VerifyConfig(genus=args.genus, u0=tuple(_to_complex(v) for v in args.u0),
                               Lambda=_to_complex(args.Lambda), k_bound=args.k_bound)
            with open(args.out, "w") as fh:
                json.dump(periods_json_payload(reference_stages(cfg)), fh,
                          indent=2, sort_keys=True)
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
                if args.chi_max is not None:
                    raw["chi_max"] = args.chi_max
                if args.seed is not None:
                    raw["seed"] = args.seed
                if args.tol is not None:
                    raw.setdefault("tolerances", {})["theorem_rel"] = args.tol
                if args.out is not None:
                    raw["out_dir"] = args.out
                cfg = VerifyConfig.from_dict(raw)
            except (KeyError, ValueError, TypeError) as exc:
                print(f"error: bad config: {exc}", file=sys.stderr)
                return 2
            report = verify_theorem(cfg)
            os.makedirs(cfg.out_dir, exist_ok=True)
            report.to_json(os.path.join(cfg.out_dir, "report.json"))
            write_sgn_csv(os.path.join(cfg.out_dir, "sgn_table.csv"), report.omega.table)
            with open(os.path.join(cfg.out_dir, "periods.json"), "w") as fh:
                json.dump(periods_json_payload(report.artifacts), fh, indent=2, sort_keys=True)
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
