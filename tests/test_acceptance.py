"""Acceptance criteria: one test per criterion, each printing a pass line.

Tolerances are pinned here, not configurable; runtime caps are asserted
against wall-clock time.
"""

import itertools
import math
import time

import numpy as np
import pytest

from swtr.airy import (
    GaugeData,
    atr_run,
    build_residue_constraint_tensors,
    build_tr_variant_tensors,
    embed_disc,
    eval_hamiltonians,
    residue_constraint_entry,
)
from swtr.charts import ebar_periods, local_expansions, standard_charts
from swtr.cli import VerifyConfig, reference_stages, verify_theorem
from swtr.hyperelliptic import (
    bergman_kernel,
    build_cycles,
    ds_sw,
    invert_a_map,
    new_curve,
    omega_value,
    periods,
)
from swtr.hyperelliptic import _cycle_periods
from swtr.laurent import LaurentSeries, SeriesDifferential, symplectic_pairing
from swtr.spectral import (
    LocalSpectralCurve,
    atr_eo_crosscheck,
    eo_run,
    eo_symmetry_deviation,
    support_bound_check,
)

U0_G1 = (0.3 + 0.1j,)
U0_G1_B = (-0.2 + 0.25j,)
U0_G2 = (0.3 + 0.1j, 0.2 - 0.15j)
U0_G3 = (0.3 + 0.1j, 0.2 - 0.15j, 0.1 + 0.05j)


def _report(name, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} {name} ({elapsed:.2f}s) {detail}")
    assert passed, f"{name}: {detail}"


class _G1:
    data = None

    @classmethod
    def get(cls):
        if cls.data is None:
            curve = new_curve(1, U0_G1)
            cycles = build_cycles(curve)
            pd = periods(curve, cycles)
            bk = bergman_kernel(curve, cycles, pd)
            charts = standard_charts(curve, 44)
            s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound=7)
            cls.data = (curve, cycles, pd, bk, charts, s_coeffs, c_coeffs)
        return cls.data


def test_criterion_1_golden_tensors():
    t0 = time.time()
    t = build_residue_constraint_tensors(15, ("0",), validate=False)
    lab = "0"
    dev = max(abs(t.a[(t.mode(1, lab),) * 3] - 0.25),
              abs(t.eps[t.mode(3, lab)] - 1.0 / 16.0))
    for i, j, k in itertools.product(range(1, 16), repeat=3):
        ii, jj, kk = t.mode(i, lab), t.mode(j, lab), t.mode(k, lab)
        dev = max(dev,
                  abs(t.a[ii, jj, kk] - residue_constraint_entry("a", i, j, k)),
                  abs(t.b[ii, jj, kk] - residue_constraint_entry("b", i, j, k)),
                  abs(t.c[ii, jj, kk] - residue_constraint_entry("c", i, j, k)))
    elapsed = time.time() - t0
    _report("1 golden tensors", dev < 1e-12 and elapsed < 1.0, elapsed,
            f"max deviation {dev:.2e}")


def test_criterion_2_atr_golden_values():
    t0 = time.time()
    t = build_residue_constraint_tensors(9, ("0",))
    table = atr_run(t, chi_max=1)
    lab = "0"
    dev = max(abs(table.value(0, 3, ((1, lab),) * 3) - 0.5),
              abs(table.value(1, 1, ((3, lab),)) - 1.0 / 16.0))
    elapsed = time.time() - t0
    _report("2 recursion golden values", dev < 1e-13 and elapsed < 1.0, elapsed,
            f"max deviation {dev:.2e}")


def test_criterion_3_disc_embedding():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_h = 0.0
    for _ in range(20):
        a = 0.1 * rng.random() * np.exp(2j * np.pi * rng.random())
        coeffs = {1: 0.5 + rng.random()}
        for e in range(0, 10):
            if e != 1:
                coeffs[e] = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        w = embed_disc(a, LaurentSeries(coeffs, 0, 9), min_exp=-80)
        h = eval_hamiltonians(w, i_max=15)
        worst_h = max(worst_h, max(abs(v) for v in h.values()))
    # closed-form mode values for the quadratic disc
    a = 0.07 - 0.03j
    w = embed_disc(a, LaurentSeries.monomial(1.0, 1), min_exp=-40)
    dev_j = abs(w.j_coord(-1, "0") - a)
    for k in range(2, 7):
        dfact = math.prod(range(2 * k - 3, 0, -2))
        expect = a ** k * dfact / (math.factorial(k) * 2 ** (k - 1))
        dev_j = max(dev_j, abs(w.j_coord(2 * k - 3, "0") - expect))
    elapsed = time.time() - t0
    _report("3 disc-embedding membership",
            worst_h < 1e-10 and dev_j < 1e-12 and elapsed < 5.0, elapsed,
            f"max |H| {worst_h:.2e}, mode deviation {dev_j:.2e}")


def _seeded_s(ram, kbound, seed):
    rng = np.random.default_rng(seed)
    s = {}
    modes = [(k, lab) for lab in ram for k in range(1, kbound + 1)]
    for i, m1 in enumerate(modes):
        for m2 in modes[i:]:
            s[(m1, m2)] = 0.25 * (rng.standard_normal() + 1j * rng.standard_normal())
    return s


def test_criterion_4_atr_eo_equivalence():
    t0 = time.time()
    t1 = build_tr_variant_tensors(17, ("0",))
    dev1 = atr_eo_crosscheck(t1, GaugeData(s=_seeded_s(("0",), 13, 5)), chi_max=4)
    t2 = build_tr_variant_tensors(17, ("p", "q"))
    dev2 = atr_eo_crosscheck(t2, GaugeData(s=_seeded_s(("p", "q"), 13, 7)), chi_max=4)
    elapsed = time.time() - t0
    _report("4 equivalence of the two recursions",
            dev1 < 1e-9 and dev2 < 1e-9 and elapsed < 30.0, elapsed,
            f"one-point deviation {dev1:.2e}, two-point deviation {dev2:.2e}")


def test_criterion_5_output_structure():
    t0 = time.time()
    rng = np.random.default_rng(9)
    omega = eo_run(LocalSpectralCurve(ram=("0", "1"),
                                      bergman_reg=_seeded_s(("0", "1"), 9, 13)),
                   chi_max=3)
    sym = eo_symmetry_deviation(omega, rng)
    report = support_bound_check(omega, tol=1e-10)
    ok = sym < 1e-10
    worst_even = 0.0
    worst_outside = 0.0
    for cell, info in report.items():
        ok = ok and info["within_bound"]
        worst_even = max(worst_even, info["even_leg_residual"])
        worst_outside = max(worst_outside, info["outside_support_residual"])
    ok = ok and worst_even < 1e-10 and worst_outside == 0.0
    elapsed = time.time() - t0
    _report("5 output structure", ok and elapsed < 10.0, elapsed,
            f"symmetry {sym:.2e}, even-index residual {worst_even:.2e}, "
            f"outside-support residual {worst_outside:.2e}, "
            f"bounds {[info['max_index'] for info in report.values()]}")


def test_criterion_6_hyperelliptic_numerics_g1():
    t0 = time.time()
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _G1.get()
    ws = cycles.workspace
    # tau against finite differences of the B-period
    scale = max(1.0, abs(pd.a[0]))
    h = 1e-3 * scale
    b_vals = {}
    for m in (1, -1, 2, -2):
        (moved, moved_cycles, _), = invert_a_map(curve, cycles, pd, [pd.a + m * (h / 2)], tol=1e-11)
        ws_m = moved_cycles.workspace
        b_vals[m] = _cycle_periods(ws_m, [moved_cycles.b_cycles[0]], ds_sw(moved), 1e-11)[0]
    fd_h = (b_vals[2] - b_vals[-2]) / (2 * h)
    fd_h2 = (b_vals[1] - b_vals[-1]) / h
    fd = (4 * fd_h2 - fd_h) / 3.0
    tau_dev = abs(fd - pd.tau[0, 0]) / abs(pd.tau[0, 0])
    # kernel invariants, sampled
    rng = np.random.default_rng(3)
    c0 = complex(np.mean(curve.branch_points))
    sym_dev = 0.0
    bper_dev = 0.0
    for _ in range(6):
        zq = c0 + 2.1 * curve.scale() * np.exp(2j * np.pi * rng.random())
        yq = ws.tracker.anchors([zq])[0][0]
        zp = c0 + 1.8 * curve.scale() * np.exp(2j * np.pi * rng.random())
        yp = ws.tracker.anchors([zp])[0][0]
        sym_dev = max(sym_dev, abs(bk.value(zp, yp, zq, yq) - bk.value(zq, yq, zp, yp)))
        bint = _cycle_periods(ws, [cycles.b_cycles[0]],
                              lambda z, y: bk.value(z, y, zq, yq), 1e-10)[0]
        expect = 2j * np.pi * omega_value(pd, 0, zq, yq)
        bper_dev = max(bper_dev, abs(bint - expect) / abs(expect))
    a_dev = 0.0
    for _ in range(3):
        zq = c0 + 2.0 * curve.scale() * np.exp(2j * np.pi * rng.random())
        yq = ws.tracker.anchors([zq])[0][0]
        a_dev = max(a_dev, abs(_cycle_periods(
            ws, [cycles.a_cycles[0]], lambda z, y: bk.value(z, y, zq, yq), 1e-10)[0]))
    oracle_dev = _elliptic_oracle_deviation(curve, cycles, pd, bk)
    elapsed = time.time() - t0
    ok = (tau_dev < 1e-5 and sym_dev < 1e-9 and a_dev < 1e-8
          and bper_dev < 1e-6 and oracle_dev < 1e-6 and elapsed < 120.0)
    _report("6 hyperelliptic numerics (genus 1)", ok, elapsed,
            f"tau FD {tau_dev:.2e}, symmetry {sym_dev:.2e}, A-periods {a_dev:.2e}, "
            f"B-periods {bper_dev:.2e}, elliptic oracle {oracle_dev:.2e}")


def _elliptic_oracle_deviation(curve, cycles, pd, bk, n_pairs=20):
    import mpmath
    ws = cycles.workspace
    tau = complex(pd.tau[0, 0])
    qnome = complex(mpmath.exp(1j * mpmath.pi * tau))
    c0 = complex(np.mean(curve.branch_points))
    radius = 2.1 * curve.scale()
    rng = np.random.default_rng(17)
    angles = np.sort(rng.random(12) * 2 * np.pi)
    xs, wts = np.polynomial.legendre.leggauss(16)
    xs = 0.5 * (xs + 1.0)
    wts = 0.5 * wts

    def arc(th0, th1, y_start):
        th = ((np.arange(8)[:, None] + xs[None, :]).ravel() / 8) * (th1 - th0) + th0
        wall = np.tile(wts, 8) * (th1 - th0) / 8
        zs = c0 + radius * np.exp(1j * th)
        ys = ws.tracker.track_along(zs, y_start)
        vals = omega_value(pd, 0, zs, ys) * (1j * radius * np.exp(1j * th))
        y_end = ws.tracker._walk(
            complex(zs[-1]), ys[-1], complex(c0 + radius * np.exp(1j * th1)))[0]
        return np.sum(vals * wall), y_end

    pts = []
    v_acc, th_prev = 0.0, 0.0
    y_prev = ws.tracker.anchors([c0 + radius])[0][0]
    for th in angles:
        dv, y_prev = arc(th_prev, th, y_prev)
        v_acc += dv
        pts.append((c0 + radius * np.exp(1j * th), y_prev, v_acc))
        th_prev = th

    def ltdd(x):
        t0 = mpmath.jtheta(1, x, qnome)
        t1 = mpmath.jtheta(1, x, qnome, 1)
        t2 = mpmath.jtheta(1, x, qnome, 2)
        return complex((t2 * t0 - t1 * t1) / (t0 * t0))

    worst = 0.0
    checked = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if checked >= n_pairs:
                return worst
            z1, y1, v1 = pts[i]
            z2, y2, v2 = pts[j]
            if abs(v1 - v2) < 0.05:
                continue
            lhs = bk.value(z1, y1, z2, y2)
            w1 = omega_value(pd, 0, z1, y1)
            w2 = omega_value(pd, 0, z2, y2)
            rhs = -np.pi ** 2 * ltdd(np.pi * (v1 - v2)) * w1 * w2
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            checked += 1
    return worst


def test_criterion_7_local_global_consistency():
    t0 = time.time()
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _G1.get()
    g = curve.g
    bper_dev = 0.0
    bilinear_dev = 0.0
    for lab, ch in charts.items():
        bp = ebar_periods(bk, cycles.b_cycles, ch, k_bound=5)
        ap = ebar_periods(bk, cycles.a_cycles, ch, k_bound=5)
        for k in range(1, 6):
            expect = 2j * np.pi * c_coeffs[(k, lab)]
            got = bp[:, k - 1]
            bper_dev = max(bper_dev, float(np.max(np.abs(got - expect)))
                           / max(1.0, float(np.max(np.abs(expect)))))
        # Riemann bilinear pairing for xi1 = ebar^{k,lab}, xi2 = omega_j
        for k in range(1, 5):
            for j in range(g):
                local = 0j
                for lab2 in charts:
                    base = {-k - 1: 1.0} if lab2 == lab else {}
                    for m in range(1, 8):
                        sval = s_coeffs.get(((k, lab), (m, lab2)), 0j)
                        if sval:
                            base[m - 1] = base.get(m - 1, 0j) + sval * m
                    xi1 = SeriesDifferential(LaurentSeries(base, -k - 1, 10))
                    om = {m - 1: c_coeffs[(m, lab2)][j] * m for m in range(1, 8)}
                    xi2 = SeriesDifferential(LaurentSeries(om, 0, 10))
                    local += symplectic_pairing(xi1, xi2)
                glob = 0j
                for l in range(g):
                    glob += ((1.0 if l == j else 0.0) * bp[l, k - 1]
                             - pd.tau[j, l] * ap[l, k - 1])
                glob /= 2j * np.pi
                bilinear_dev = max(bilinear_dev,
                                   abs(local - glob) / max(1.0, abs(local)))
    elapsed = time.time() - t0
    ok = bper_dev < 1e-6 and bilinear_dev < 1e-6 and elapsed < 60.0
    _report("7 local/global consistency", ok, elapsed,
            f"B-period vs Taylor {bper_dev:.2e}, bilinear pairing {bilinear_dev:.2e}")


def test_criterion_8_main_identity():
    t0 = time.time()
    conventions = []
    worst = 0.0
    for genus, u0 in ((1, U0_G1), (1, U0_G1_B), (2, U0_G2)):
        cfg = VerifyConfig(genus=genus, u0=u0)
        rep = verify_theorem(cfg)
        conv = rep.metadata["matched_convention"]
        conventions.append(conv)
        rel = max(c.rel_err for c in rep.checks
                  if c.name.startswith("prepotential_d3"))
        worst = max(worst, rel)
        assert rep.passed, f"verifier failed at genus {genus}, u0 = {u0}"
    elapsed = time.time() - t0
    ok = worst < 1e-3 and conventions == ["minus"] * 3 and elapsed < 600.0
    _report("8 prepotential identity at desk scale", ok, elapsed,
            f"worst rel err {worst:.2e}, conventions {conventions}")


def test_main_identity_genus_three_at_default_config():
    # s and c reach the table's largest mode, 3 at chi_max = 1
    t0 = time.time()
    rep = verify_theorem(VerifyConfig(genus=3, u0=U0_G3))
    rel = max(c.rel_err for c in rep.checks if c.name.startswith("prepotential_d3"))
    elapsed = time.time() - t0
    _report("8 prepotential identity at genus 3", rep.passed and rel < 1e-3 and elapsed < 60.0,
            elapsed, f"worst rel err {rel:.2e}, convention {rep.metadata['matched_convention']!r}")


def _verify_reach(rep):
    """The cells a verify filled, and the top mode of its s and of its c."""
    art = rep.artifacts
    return (rep.omega.cells(), max(k for (k, _), _ in art.s_coeffs),
            max(k for k, _ in art.c_coeffs))


def test_main_identity_genus_two_at_chi_three():
    # the verify fills (0, 3) .. (0, 5), with s and c to 2 chi - 1 = 5; the
    # whole table's reach stays covered: s and c to its largest mode, 9,
    # where FFT-extracted s failed its gate at mode 8, fill (1, 3) and (2, 1)
    t0 = time.time()
    cfg = VerifyConfig(genus=2, u0=U0_G2, chi_max=3)
    art = reference_stages(cfg)
    assert max(k for k, _ in art.c_coeffs) == 9
    assert max(k for (k, _), _ in art.s_coeffs) == 9
    full = eo_run(LocalSpectralCurve(ram=tuple(sorted(art.charts)), bergman_reg=art.s_coeffs), 3)
    assert {(0, 5), (1, 3), (2, 1)} <= set(full.cells())
    assert all(full.table.entries[cell] for cell in full.cells())
    rep = verify_theorem(cfg)
    assert _verify_reach(rep) == ([(0, 3), (0, 4), (0, 5)], 5, 5)
    rel = max(c.rel_err for c in rep.checks if c.name.startswith("prepotential_d3"))
    elapsed = time.time() - t0
    _report("8 prepotential identity at genus 2, chi_max 3", rep.passed and rel < 1e-3
            and elapsed < 60.0, elapsed,
            f"worst rel err {rel:.2e}, convention {rep.metadata['matched_convention']!r}")


@pytest.mark.parametrize("genus, u0, chi_max, top", [(2, U0_G2, 4, 11), (3, U0_G3, 3, 9)],
                         ids=["g2-chi4", "g3-chi3"])
def test_main_identity_beyond_the_fft_reach(genus, u0, chi_max, top):
    # the FFT extraction raised ExtractionNotConverged at both points, on s
    # and c to the top mode of the whole table; the verify reads 2 chi - 1
    t0 = time.time()
    cfg = VerifyConfig(genus=genus, u0=u0, chi_max=chi_max)
    art = reference_stages(cfg)
    assert max(k for k, _ in art.c_coeffs) == max(k for (k, _), _ in art.s_coeffs) == top
    rep = verify_theorem(cfg)
    reach = 2 * chi_max - 1
    assert _verify_reach(rep) == ([(0, n) for n in range(3, chi_max + 3)], reach, reach)
    rel = max(c.rel_err for c in rep.checks if c.name.startswith("prepotential_d3"))
    elapsed = time.time() - t0
    _report(f"8 prepotential identity at genus {genus}, chi_max {chi_max}",
            rep.passed and rel < 1e-3 and elapsed < 60.0, elapsed,
            f"worst rel err {rel:.2e}, convention {rep.metadata['matched_convention']!r}")


def test_criterion_9_triviality():
    t0 = time.time()
    rng = np.random.default_rng(77)
    found_min = np.inf
    for _ in range(200):
        j = {}
        ks = rng.choice(np.arange(1, 14), size=6, replace=False)
        for k in ks:
            j[int(k)] = rng.standard_normal() + 1j * rng.standard_normal()
        j[-1] = 0.3 + rng.random()
        data = {-m - 1: v for m, v in j.items()}
        base = LaurentSeries(data, min_exp=min(data), trunc_order=40)
        from swtr.airy import WElement
        w = WElement({"0": SeriesDifferential(base)})
        h = eval_hamiltonians(w, i_max=15)
        found_min = min(found_min, max(abs(v) for v in h.values()))
    elapsed = time.time() - t0
    _report("9 no nontrivial finite solutions", found_min > 1e-8 and elapsed < 5.0,
            elapsed, f"smallest max |H| found {found_min:.2e}")
