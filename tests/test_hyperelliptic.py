"""Tests for curve construction, cycles, periods and the normalized kernel."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from swtr.errors import OutOfNeighbourhood, SingularCurve
from swtr.hyperelliptic import (
    QuadratureWorkspace,
    bergman_kernel,
    build_cycles,
    ds_sw,
    invert_a_map,
    new_curve,
    omega_value,
    periods,
    ramification_w_values,
    residue_at_infinity,
)

U0_G1 = (0.3 + 0.1j,)
U0_G2 = (0.3 + 0.1j, 0.2 - 0.15j)


def setup_g1(u=U0_G1):
    curve = new_curve(1, u)
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    return curve, cycles, pd


# ---------------------------------------------------------------------------
# curve data
# ---------------------------------------------------------------------------

def test_branch_points_g1_u0():
    curve = new_curve(1, (0.0,))
    expect = {np.sqrt(2), -np.sqrt(2), 1j * np.sqrt(2), -1j * np.sqrt(2)}
    for e in curve.branch_points:
        assert min(abs(e - x) for x in expect) < 1e-12


def test_singular_curve_detected():
    with pytest.raises(SingularCurve):
        new_curve(1, (2.0,))


def test_ramification_w_values():
    curve = new_curve(1, (0.0,))
    assert abs(curve.ram_roots[0]) < 1e-12
    wp, wm = ramification_w_values(curve, 0)
    vals = sorted([wp, wm], key=lambda w: w.imag)
    assert abs(vals[0] + 1j) < 1e-12 and abs(vals[1] - 1j) < 1e-12


def test_q_identity():
    curve = new_curve(2, U0_G2)
    z = 0.7 - 0.4j
    assert abs(curve.q_at(z) - (curve.p_at(z) ** 2 - 4 * curve.lam_pow ** 2)) < 1e-12


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def test_cycles_g1():
    curve = new_curve(1, U0_G1)
    cycles = build_cycles(curve)
    assert len(cycles.a_cycles) == 1 and len(cycles.b_cycles) == 1
    assert np.allclose(cycles.intersection_matrix, np.eye(1))


def test_cycles_g2_intersections():
    curve = new_curve(2, U0_G2)
    cycles = build_cycles(curve)
    assert np.allclose(cycles.intersection_matrix, np.eye(2))


def test_cycles_stable_under_perturbation():
    curve = new_curve(1, (0.31 + 0.09j,))
    cycles = build_cycles(curve)
    curve2 = new_curve(1, (0.3 + 0.1j,))
    cycles2 = build_cycles(curve2)
    # same pairing retained: cut midpoints move only slightly
    for (a1, b1), (a2, b2) in zip(cycles.cuts, cycles2.cuts):
        assert abs((a1 + b1) / 2 - (a2 + b2) / 2) < 0.2


def test_sheet_closure_on_cycles():
    curve, cycles, _ = setup_g1()
    ws = cycles.workspace
    for comp in cycles.a_cycles + cycles.b_cycles:
        for _, cont in comp:
            data = ws.nodes(cont, 16)
            assert data.closure < 1e-8


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_tau_symmetric_and_positive_g2():
    curve = new_curve(2, U0_G2)
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    assert abs(pd.tau[0, 1] - pd.tau[1, 0]) < 1e-8
    assert np.min(np.linalg.eigvalsh(pd.tau.imag)) > 0


def test_normalized_a_periods():
    curve, cycles, pd = setup_g1()
    ws = cycles.workspace
    val = ws.integrate_cycle(cycles.a_cycles[0], lambda z, y: omega_value(pd, 0, z, y))
    assert abs(val - 1.0) < 1e-9


def test_ds_residue_at_infinity():
    curve, _, _ = setup_g1()
    assert residue_at_infinity(curve) < 1e-10


def test_a_derivative_identity():
    # d a^i / d u^j by centered differences equals minus the A-period of
    # z^{j-1} dz / y under this package's sheet conventions (dS = +z P' dz/y)
    curve, cycles, pd = setup_g1()
    h = 1e-5
    vals = []
    for du in (h, -h):
        moved = new_curve(1, (U0_G1[0] + du,))
        ws = QuadratureWorkspace(moved)
        vals.append(ws.integrate_cycle(cycles.a_cycles[0], ds_sw(moved)))
    fd = (vals[0] - vals[1]) / (2 * h)
    assert abs(fd + pd.a_jacobian[0, 0]) < 1e-6 * max(1.0, abs(fd))


def test_quadrature_refinement_stability():
    curve, cycles, pd = setup_g1()
    ws = cycles.workspace
    v1 = ws.integrate_cycle(cycles.b_cycles[0], ds_sw(curve), tol=1e-10)
    v2 = sum(c * ws.integrate(k, ds_sw(curve), tol=1e-12, start_panels=32)
             for c, k in cycles.b_cycles[0])
    assert abs(v1 - v2) < 1e-8 * max(1.0, abs(v1))


def test_invert_a_map_roundtrip():
    curve, cycles, pd = setup_g1()
    target = pd.a * (1.0 + 1e-3)
    moved, moved_cycles = invert_a_map(curve, cycles, target)
    ws = moved_cycles.workspace
    a_new = ws.integrate_cycle(moved_cycles.a_cycles[0], ds_sw(moved))
    assert abs(a_new - target[0]) < 1e-9 * max(1.0, abs(target[0]))


def _period_fields(pd):
    return [getattr(pd, f).tobytes() for f in ("a", "b", "tau", "norm_matrix", "a_jacobian")]


@pytest.mark.parametrize("genus, u0", [(1, U0_G1), (2, U0_G2)])
def test_moved_periods_match_fresh_workspace(genus, u0):
    # the cycles invert_a_map returns carry a workspace on the moved curve
    # that gives exactly the periods of a freshly built one
    curve = new_curve(genus, u0)
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    step = np.zeros(genus)
    step[-1] = 1e-3 * max(1.0, float(np.max(np.abs(pd.a))))
    moved, moved_cycles = invert_a_map(curve, cycles, pd.a + step, tol=1e-11)
    assert moved_cycles.workspace.curve is moved
    fresh = replace(cycles, workspace=QuadratureWorkspace(moved))
    assert _period_fields(periods(moved, moved_cycles)) == _period_fields(periods(moved, fresh))


def test_workspace_of_another_curve_rejected():
    curve, cycles, pd = setup_g1()
    moved, moved_cycles = invert_a_map(curve, cycles, pd.a * (1.0 + 1e-3))
    with pytest.raises(ValueError, match="another curve"):
        periods(moved, cycles)
    with pytest.raises(ValueError, match="another curve"):
        bergman_kernel(moved, cycles, periods(moved, moved_cycles))


def test_invert_a_map_refuses_target_outside_contours():
    # a 5% move of the A-period carries a branch point out of the thin
    # reference ellipse around its cut; the reused contours no longer
    # compute A-periods there
    curve, cycles, pd = setup_g1()
    with pytest.raises(OutOfNeighbourhood, match="elliptic sigma"):
        invert_a_map(curve, cycles, pd.a + 0.05 * np.abs(pd.a))


# ---------------------------------------------------------------------------
# normalized kernel
# ---------------------------------------------------------------------------

def _sample_pair(ws, curve, rng, radius=2.3):
    c0 = complex(np.mean(curve.branch_points))
    th = 2 * np.pi * rng.random(2)
    pts = []
    for t in th:
        z = c0 + radius * curve.scale() / 1.5 * np.exp(1j * t)
        pts.append((z, ws.tracker.anchor(z)))
    return pts


def test_kernel_symmetry_sampled():
    curve, cycles, pd = setup_g1()
    bk = bergman_kernel(curve, cycles, pd)
    rng = np.random.default_rng(3)
    for _ in range(8):
        (z1, y1), (z2, y2) = _sample_pair(cycles.workspace, curve, rng)
        v12 = bk.value(z1, y1, z2, y2)
        v21 = bk.value(z2, y2, z1, y1)
        assert abs(v12 - v21) < 1e-9 * max(1.0, abs(v12))


def test_kernel_a_period_vanishes():
    curve, cycles, pd = setup_g1()
    bk = bergman_kernel(curve, cycles, pd)
    ws = cycles.workspace
    rng = np.random.default_rng(5)
    for _ in range(3):
        [(zq, yq)] = [_sample_pair(ws, curve, rng)[0]]
        val = ws.integrate_cycle(cycles.a_cycles[0],
                                 lambda z, y: bk.value(z, y, zq, yq))
        assert abs(val) < 1e-8


def test_kernel_b_period_gives_omega():
    curve, cycles, pd = setup_g1()
    bk = bergman_kernel(curve, cycles, pd)
    ws = cycles.workspace
    rng = np.random.default_rng(7)
    for _ in range(3):
        [(zq, yq)] = [_sample_pair(ws, curve, rng)[0]]
        val = ws.integrate_cycle(cycles.b_cycles[0],
                                 lambda z, y: bk.value(z, y, zq, yq))
        expect = 2j * np.pi * omega_value(pd, 0, zq, yq)
        assert abs(val - expect) < 1e-6 * max(1.0, abs(expect))


def test_kernel_matches_elliptic_oracle():
    """Genus-1 kernel against the theta-function kernel on the flat torus."""
    curve, cycles, pd = setup_g1()
    bk = bergman_kernel(curve, cycles, pd)
    ws = cycles.workspace
    tau = complex(pd.tau[0, 0])
    qnome = complex(mpmath.exp(1j * mpmath.pi * tau))

    # Abel map of sample points along a common circle, relative to theta = 0
    c0 = complex(np.mean(curve.branch_points))
    radius = 2.1 * curve.scale()
    rng = np.random.default_rng(13)
    angles = np.sort(rng.random(10) * 2 * np.pi)
    base = c0 + radius
    y_base = ws.tracker.anchor(base)

    def arc_integral(th0, th1, y_start, panels=8):
        xs, wts = np.polynomial.legendre.leggauss(16)
        xs = 0.5 * (xs + 1.0)
        wts = 0.5 * wts
        th = ((np.arange(panels)[:, None] + xs[None, :]).ravel() / panels
              * (th1 - th0) + th0)
        w_all = np.tile(wts, panels) * (th1 - th0) / panels
        zs = c0 + radius * np.exp(1j * th)
        ys = ws.tracker.track_along(zs, y_start)
        vals = omega_value(pd, 0, zs, ys) * (1j * radius * np.exp(1j * th))
        y_end = ws.tracker.walk_segment(complex(zs[-1]), ys[-1],
                                        complex(c0 + radius * np.exp(1j * th1)))
        return np.sum(vals * w_all), y_end

    points = []
    v_acc = 0.0
    th_prev = 0.0
    y_prev = y_base
    for th in angles:
        dv, y_here = arc_integral(th_prev, th, y_prev)
        v_acc += dv
        z_here = c0 + radius * np.exp(1j * th)
        points.append((z_here, y_here, v_acc))
        th_prev, y_prev = th, y_here

    def log_theta1_dd(x):
        t0 = mpmath.jtheta(1, x, qnome)
        t1 = mpmath.jtheta(1, x, qnome, 1)
        t2 = mpmath.jtheta(1, x, qnome, 2)
        return complex((t2 * t0 - t1 * t1) / (t0 * t0))

    checked = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            z1, y1, v1 = points[i]
            z2, y2, v2 = points[j]
            if abs(v1 - v2) < 0.05:
                continue
            lhs = bk.value(z1, y1, z2, y2)
            w1 = omega_value(pd, 0, z1, y1)
            w2 = omega_value(pd, 0, z2, y2)
            rhs = -np.pi ** 2 * log_theta1_dd(np.pi * (v1 - v2)) * w1 * w2
            assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))
            checked += 1
            if checked >= 20:
                return
    assert checked >= 10
