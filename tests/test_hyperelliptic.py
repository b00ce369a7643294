"""Tests for curve construction, cycles, periods and the normalized kernel."""

import functools
import re
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import swtr.hyperelliptic as hyperelliptic_module
from swtr.cli import VerifyConfig, verify_theorem
from swtr.errors import (
    NormalizationSolveFailed,
    OutOfNeighbourhood,
    QuadratureNotConverged,
    SingularCurve,
)
from swtr.hyperelliptic import (
    BergmanData,
    CurveRows,
    EllipseContour,
    QuadratureWorkspace,
    SheetTracker,
    bergman_kernel,
    build_cycles,
    ds_sw,
    invert_a_map,
    line_periods,
    new_curve,
    omega_value,
    periods,
    residue_at_infinity,
)
from swtr.hyperelliptic import (
    _RowsFailed,
    _cycle_periods,
    _f_polynomial,
    _intersection_matrix,
    _neighbourhood_violations,
    _period_form,
    _new_curves,
    _segments_cross,
    _shift_const,
)

U0_G1 = (0.3 + 0.1j,)
U0_G2 = (0.3 + 0.1j, 0.2 - 0.15j)
U0_G3 = (0.3 + 0.1j, 0.2 - 0.15j, 0.1 + 0.05j)


def setup_g1(u=U0_G1):
    curve = new_curve(1, u)
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    return curve, cycles, pd


@functools.cache
def _curve_and_cycles(u0):
    curve = new_curve(len(u0), u0)
    return curve, build_cycles(curve)


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


def _roots_curve_fields(g, u, Lambda):
    """Branch points, q and P' of one curve from np.roots and npoly: the reference."""
    p = np.zeros(g + 2, dtype=complex)
    p[g + 1] = 1.0
    p[:g] = u
    lam = complex(Lambda) ** (g + 1)
    q = npoly.polymul(p, p)
    q[0] -= 4.0 * lam ** 2
    branch = np.concatenate([np.roots(p[::-1] - _shift_const(g, c)) for c in (2 * lam, -2 * lam)])
    return [branch.tobytes(), q.tobytes(), npoly.polyder(p).tobytes()]


def test_curve_rows_match_np_roots():
    # the stacked companion eigenvalues of a batch are bitwise np.roots of
    # each row, at every genus and batch size; so is the one-row new_curve,
    # and rows with a zero constant term take np.roots's own path
    rng = np.random.default_rng(7)
    for trial in range(200):
        g, k = int(rng.integers(1, 5)), int(rng.integers(1, 17))
        us = 0.4 * (rng.standard_normal((k, g)) + 1j * rng.standard_normal((k, g)))
        if trial % 10 == 0:
            us[0, 0] = 2.0          # P - 2 has a zero constant term
        lam = 1.0 if trial % 2 else 0.9 + 0.05j
        for u, curve in zip(us, _new_curves(g, us, lam)):
            if isinstance(curve, SingularCurve):
                with pytest.raises(SingularCurve, match=re.escape(str(curve))):
                    new_curve(g, u, lam)
                continue
            expect = _roots_curve_fields(g, u, lam)
            assert [curve.branch_points.tobytes(), curve.q_coeffs.tobytes(),
                    curve.dp_coeffs.tobytes()] == expect
            assert new_curve(g, u, lam).branch_points.tobytes() == expect[0]
            assert curve.ram_roots.tobytes() == np.roots(curve.dp_coeffs[::-1]).tobytes()


def test_curve_rows_evaluate_each_row_as_its_curve_on_the_same_nodes():
    # row r of a K-row q_at / dp_at is bitwise rows[r].q_at / dp_at on the same
    # node array, at every node count; the scalar call on one node is not
    # what a row gives, so the claim is pinned on arrays only
    rng = np.random.default_rng(53)
    curves = [new_curve(2, np.array(U0_G2) + 1e-2 * (rng.standard_normal(2)
                                                     + 1j * rng.standard_normal(2)))
              for _ in range(5)]
    rows = CurveRows(curves)
    for n in (1, 2, 3, 7, 8, 300):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q, dp = rows.q_at(z), rows.dp_at(z)
        assert q.shape == dp.shape == (len(curves), n)
        for r, curve in enumerate(curves):
            assert q[r].tobytes() == curve.q_at(z).tobytes(), (n, r)
            assert dp[r].tobytes() == curve.dp_at(z).tobytes(), (n, r)


def test_singular_rows_fail_alone():
    # a row whose branch points collide gets its own SingularCurve, with
    # new_curve's message; the rows beside it are built
    curves = _new_curves(1, [(0.3 + 0.1j,), (2.0,), (0.2,)], 1.0)
    assert [type(c).__name__ for c in curves] == ["SWCurve", "SingularCurve", "SWCurve"]
    with pytest.raises(SingularCurve, match=re.escape(str(curves[1]))):
        new_curve(1, (2.0,))


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


def _tracked_polygon(curve, cont, n=600):
    """``cont`` at n equally spaced parameters from its start, y continued from the
    principal sheet: the crossing oracle's polygon."""
    tracker = SheetTracker(curve)
    z = cont.point(np.linspace(0.0, 1.0, n, endpoint=False))
    return z, tracker.track_along(z, tracker.anchor(complex(z[0])))


def _pairwise_intersection_number(curve, cont_a, cont_b):
    """Both contours tracked as 600-point polygons, then every pair of segments in a
    loop: the reference."""
    (za, ya), (zb, yb) = _tracked_polygon(curve, cont_a), _tracked_polygon(curve, cont_b)
    n = len(za)
    za2, zb2 = np.roll(za, -1), np.roll(zb, -1)
    cand = ((np.minimum(za.real, za2.real)[:, None] <= np.maximum(zb.real, zb2.real)[None, :])
            & (np.minimum(zb.real, zb2.real)[None, :] <= np.maximum(za.real, za2.real)[:, None])
            & (np.minimum(za.imag, za2.imag)[:, None] <= np.maximum(zb.imag, zb2.imag)[None, :])
            & (np.minimum(zb.imag, zb2.imag)[None, :] <= np.maximum(za.imag, za2.imag)[:, None]))
    total = 0
    for i, j in zip(*np.nonzero(cand)):
        a1, a2, b1, b2 = za[i], za2[i], zb[j], zb2[j]
        if not _segments_cross(a1, a2, b1, b2):
            continue
        da, db = a2 - a1, b2 - b1
        s = ((b1 - a1) * np.conj(db)).imag / (da * np.conj(db)).imag
        ya_c = ya[i] * (1 - s) + ya[(i + 1) % n] * s
        tpar = ((a1 - b1) * np.conj(da)).imag / (db * np.conj(da)).imag
        yb_c = yb[j] * (1 - tpar) + yb[(j + 1) % n] * tpar
        if abs(ya_c - yb_c) < abs(ya_c + yb_c):
            total += int(np.sign((np.conj(da) * db).imag))
    return total


def _draws(u0, n, seed, radius=0.03):
    """Moduli uniform within ``radius`` of ``u0``."""
    rng = np.random.default_rng(seed)
    return [tuple(c + radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                  for c in u0) for _ in range(n)]


def _draws_g2(n, seed):
    """Moduli uniform within 0.03 of the genus-2 acceptance point, as the verify-g2
    benchmark draws them."""
    return _draws(U0_G2, n, seed)


def test_intersection_numbers_match_pairwise_loop():
    # the crossings counted on the first quadrature level's nodes are those
    # of 600-point tracked polygons counted pair by pair, at the CI points,
    # 100 verify-g2 draws and seeded curves at each genus: the raw numbers on
    # the chain loops as built, so the same orientations, and the numbers on
    # the loops as returned, whose reversed nodes the workspace reads
    reversals = 0
    for u0 in ([U0_G1, U0_G2, U0_G3] + _draws_g2(100, 18)
               + [u for c in (U0_G1, U0_G2, U0_G3) for u in _draws(c, 8, 40 + len(c), 0.15)]):
        curve, cycles = _curve_and_cycles(u0)
        g, ws = curve.g, cycles.workspace
        a_conts = [c for cycle in cycles.a_cycles for _, c in cycle]
        built = [c if c.orientation > 0 else c.reversed() for c in cycles.chain_loops]
        flip = np.array([c.orientation for c in cycles.chain_loops])
        reversals += int(np.sum(flip < 0))
        for c_conts, sign in ((built, flip), (cycles.chain_loops, 1)):
            expect = np.array([[_pairwise_intersection_number(curve, a, c) for c in c_conts]
                               for a in a_conts], dtype=float)
            assert np.array_equal(_intersection_matrix(ws, a_conts, c_conts), expect), u0
            # build_cycles reverses exactly the loops C_j that cross A_j negatively
            assert np.array_equal(np.diag(expect) * sign, np.ones(g)), u0
        m_int = np.array([[expect[i, j:].sum() for j in range(g)] for i in range(g)])
        assert np.array_equal(cycles.intersection_matrix, m_int), u0
    assert reversals > 0


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3])
def test_reversed_chain_loop_reads_its_forward_nodes(u0):
    # a chain loop that build_cycles reverses is not tracked again: its first
    # level is the forward loop's read backwards, bitwise the level a fresh
    # workspace tracks on the reversed loop
    curve, cycles = _curve_and_cycles(u0)
    fresh = QuadratureWorkspace(curve)
    reversed_loops = [c for c in cycles.chain_loops if c.orientation < 0]
    assert reversed_loops or u0 != U0_G2
    for cont in reversed_loops:
        kept, new = cycles.workspace._cache[cont, 128], fresh.nodes(cont, 128)
        for f in ("z", "dzdt", "y"):
            assert getattr(kept, f).tobytes() == getattr(new, f).tobytes(), f
        assert kept.closures([0]) == new.closures([0]) == 0.0


def _scalar_neighbourhood_violation(curve, cycles):
    """One elliptic sigma per branch point and contour: the reference."""
    pts = curve.branch_points
    for cont in [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops:
        own = {int(np.argmin(np.abs(pts - f))) for f in (cont.f1, cont.f2)}
        for i, e in enumerate(pts):
            sig = abs(np.arccosh(complex((e - cont.center) / cont.u)).real)
            if (sig < cont.sigma) != (i in own):
                return (f"branch point {e:.6g} at elliptic sigma {sig:.3g} is "
                        f"{'outside' if i in own else 'inside'} the reference contour of "
                        f"sigma {cont.sigma:.3g} with foci {cont.f1:.6g}, {cont.f2:.6g}")
    return None


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3])
def test_neighbourhood_violation_matches_scalar_loop(u0):
    # moves from 0 to far outside the contours, checked as one batch; each
    # curve's message is word for word the scalar loop's
    curve, cycles = _curve_and_cycles(u0)
    rng = np.random.default_rng(5)
    moved = []
    for size in (0.0, 0.003, 0.01, 0.03, 0.1, 0.3):
        for _ in range(8):
            du = size * (rng.standard_normal(len(u0)) + 1j * rng.standard_normal(len(u0)))
            moved.append(new_curve(len(u0), np.array(u0) + du))
    got = _neighbourhood_violations(moved, cycles)
    assert got == [_scalar_neighbourhood_violation(m, cycles) for m in moved]
    assert {g is None for g in got} == {True, False}


def test_sheet_closure_on_cycles():
    curve, cycles, _ = setup_g1()
    ws = cycles.workspace
    for comp in cycles.a_cycles + cycles.b_cycles:
        for _, cont in comp:
            data = ws.nodes(cont, 16)
            assert data.closures([0]) < 1e-8


def _stepped_walk(curve, z0, y0, z1):
    """Continuation of y from (z0, y0) to z1 in steps of 0.2 times the distance
    to the branch points, one scalar sqrt(Q) per step: the oracle for the
    closed-form ``SheetTracker.walk_segment``.  Returns y and the step count."""
    z, y = z0, y0
    total = abs(z1 - z0)
    pos, steps = 0.0, 0
    while pos < total:
        dist = float(np.min(np.abs(z - curve.branch_points)))
        pos = min(pos + max(min(0.2 * dist, total - pos), 1e-12), total)
        z = z1 if pos == total else z0 + (z1 - z0) * (pos / total)
        cand = np.sqrt(curve.q_at(z))
        y = cand if abs(cand - y) <= abs(cand + y) else -cand
        steps += 1
        assert steps <= 200000
    return y, steps


def _scalar_track(curve, zs, y_start):
    """Node-by-node continuation, far steps by the stepped oracle: the reference for
    ``track_along``.  Returns the sheets and the number of far steps."""
    ys = np.empty(len(zs), dtype=complex)
    y = y_start
    prev = zs[0]
    far = 0
    for i, z in enumerate(zs):
        if i and abs(z - prev) > 0.15 * float(np.min(np.abs(prev - curve.branch_points))):
            y = _stepped_walk(curve, prev, y, z)[0]
            far += 1
        else:
            cand = np.sqrt(curve.q_at(z))
            y = cand if abs(cand - y) <= abs(cand + y) else -cand
        ys[i] = y
        prev = z
    return ys, far


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3])
def test_track_along_matches_scalar_continuation(u0):
    # the array version keeps every node on the sheet of the node-by-node
    # loop that walks each far step in small steps, on the Gauss-Legendre
    # nodes of every A- and chain contour, where coarse panels mix far and
    # near steps, and on a coarse 8-node polygon round each pair of foci:
    # every step there is a far step, and at the tips of the thin ellipse
    # the nearer-neighbour sign alone goes wrong
    curve, cycles = _curve_and_cycles(u0)
    tracker = cycles.workspace.tracker
    contours = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
    xs = 0.5 * (np.polynomial.legendre.leggauss(16)[0] + 1.0)
    node_sets = {"polygon": [EllipseContour(c.f1, c.f2, 0.08).point(np.arange(8) / 8)
                             for c in contours], "panels": []}
    for n_panels in (8, 16, 32, 64, 128, 256):
        t = (np.arange(n_panels)[:, None] + xs).ravel() / n_panels
        node_sets["panels"] += [c.point(t) for c in contours]
    far_steps = dict.fromkeys(node_sets, 0)
    for kind, sets in node_sets.items():
        for zs in sets:
            y_start = tracker.anchor(complex(zs[0]))
            expect, far = _scalar_track(curve, zs, y_start)
            far_steps[kind] += far
            got = tracker.track_along(zs, y_start)
            assert np.all(np.abs(got - expect) <= 1e-13 * np.abs(expect))
    assert far_steps["polygon"] == 7 * len(contours)
    assert 0 < far_steps["panels"] < sum(len(zs) for zs in node_sets["panels"]) // 2


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3])
def test_tracked_sheets_take_each_nodes_own_sqrt(u0):
    # a walk lands on its end point exactly, and every tracked node keeps its
    # own array value of sqrt(Q), so a sheet derived from these nodes on
    # another curve can be bitwise the one tracked there
    curve, cycles = _curve_and_cycles(u0)
    tracker = cycles.workspace.tracker
    xs = 0.5 * (np.polynomial.legendre.leggauss(16)[0] + 1.0)
    for cont in [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops:
        z0 = complex(cont.point(0.0))
        z1 = complex(cont.point(0.37))
        y1 = tracker.walk_segment(z0, tracker.anchor(z0), z1)
        assert y1 in (np.sqrt(curve.q_at(z1)), -np.sqrt(curve.q_at(z1)))
        for n_panels in (8, 64):
            zs = cont.point((np.arange(n_panels)[:, None] + xs).ravel() / n_panels)
            ys = tracker.track_along(zs, tracker.anchor(complex(zs[0])))
            assert np.abs(ys).tobytes() == np.abs(np.sqrt(curve.q_at(zs))).tobytes()


def _grazing_segments(curve, rng):
    """Segments passing each branch point at 1e-2 ... 1e-9 of the scale, on either
    side and at a random place along them, then random chords of the disc of
    radius 2 * scale, many of which cross cuts."""
    scale = curve.scale()
    for e in curve.branch_points:
        for k in range(2, 10):
            tangent = np.exp(2j * np.pi * rng.random())
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** -k * scale * 1j * tangent
            length, at = scale * (0.5 + 2.5 * rng.random()), 0.1 + 0.8 * rng.random()
            yield e + offset - at * length * tangent, e + offset + (1 - at) * length * tangent
    for _ in range(40):
        yield tuple(2 * scale * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2)))


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3])
def test_closed_form_walk_equals_stepped_oracle(u0):
    # on segments grazing a branch point down to 1e-9 of the scale, and on
    # random chords across the cuts, the closed form lands on the stepped
    # oracle's sheet, so on its very value of sqrt(Q(z1)); the grazing ones
    # take the oracle many steps
    curve, cycles = _curve_and_cycles(u0)
    tracker = SheetTracker(curve)
    rng = np.random.default_rng(2401 + curve.g)
    steps, crossings = [], 0
    for z0, z1 in _grazing_segments(curve, rng):
        y0 = np.sqrt(curve.q_at(z0)) * rng.choice([-1.0, 1.0])
        expect, n = _stepped_walk(curve, z0, y0, z1)
        steps.append(n)
        crossings += any(_segments_cross(z0, z1, a, b) for a, b in cycles.cuts)
        assert tracker.walk_segment(z0, y0, z1).tobytes() == expect.tobytes()
    assert max(steps) > 150 and crossings >= 10


def test_walk_refuses_a_segment_through_a_branch_point():
    # a segment through a branch point has no continuation to choose: the
    # closed form refuses it and names both ends, the branch point, its
    # deficit pi - |arg r| and the gate; track_along's far step and a
    # workspace row's closure refuse it the same way
    curve, cycles = _curve_and_cycles(U0_G2)
    tracker = cycles.workspace.tracker
    e = complex(curve.branch_points[2])
    z0, z1 = e - (0.3 + 0.1j), e + (0.3 + 0.1j)
    pattern = (r"sheet continuation from (\S+) to (\S+) meets branch point (\S+): "
               r"pi - \|arg\(\(z1 - e\)/\(z0 - e\)\)\| = (\S+) against gate (\S+)")
    for call in (lambda: tracker.walk_segment(z0, 1.0, z1),
                 lambda: tracker.track_along(np.array([z0, z1]), 1.0)):
        with pytest.raises(QuadratureNotConverged) as err:
            call()
        m = re.fullmatch(pattern, str(err.value))
        assert m, str(err.value)
        assert complex(m.group(1)) == pytest.approx(z0, rel=1e-5)
        assert complex(m.group(2)) == pytest.approx(z1, rel=1e-5)
        assert complex(m.group(3)) == pytest.approx(e, rel=1e-5)
        assert 0.0 <= float(m.group(4)) <= float(m.group(5)) == 1e-12
    # the same segment nudged off the branch point by 1e-9 is continued
    assert tracker.walk_segment(z0 + 1e-9j, 1.0, z1 + 1e-9j) ** 2 == pytest.approx(
        curve.q_at(z1 + 1e-9j), rel=1e-12)
    # rows of a workspace: the row whose branch point is on the segment fails
    # alone, the nearby curve beside it closes
    rows = CurveRows([new_curve(2, np.array(U0_G2) + 1e-3), curve])
    y = np.sqrt(rows.q_at(np.array([z0, z1])))
    closure, errors = hyperelliptic_module._closure(rows.branch_points, z0, z1, y[:, 0], y[:, 1])
    assert closure[0] == 0.0 and list(errors) == [1]
    assert re.fullmatch(pattern, str(errors[1]))


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
    b1 = cycles.b_cycles[0]
    vals = ws.integrate([k for _, k in b1], ds_sw(curve), tol=1e-12, start_panels=32)
    v2 = sum(c * v for (c, _), v in zip(b1, vals))
    assert abs(v1 - v2) < 1e-8 * max(1.0, abs(v1))


def _gauss_legendre_integrate(self, contours, integrand, tol=None):
    """Composite Gauss-Legendre, 32 panels of 16 nodes, with the sheets tracked on
    each curve of the workspace, one contour at a time: the quadrature oracle, with
    no levels, no gate and no stacking."""
    x, w = np.polynomial.legendre.leggauss(16)
    t = (np.arange(32)[:, None] + 0.5 * (x + 1.0)).ravel() / 32
    out = []
    for contour in contours:
        z0, z = complex(contour.point(0.0)), contour.point(t)
        ys = []
        for c in (self.curve.rows if isinstance(self.curve, CurveRows) else [self.curve]):
            tracker = SheetTracker(c)
            ys.append(tracker.track_along(np.append(z0, z), tracker.anchor(z0))[1:])
        y = np.array(ys) if isinstance(self.curve, CurveRows) else ys[0]
        out.append(np.sum(np.tile(w / 64, 32) * integrand(z, y) * contour.velocity(t), axis=-1))
    return np.array(out)


def _quadrature_results(u0):
    """Periods, kernel correction and the verifier's invert_a_map rows at ``u0``."""
    curve, cycles = _curve_and_cycles(u0)
    pd = periods(curve, cycles)
    r = 1e-3 * max(1.0, float(np.max(np.abs(pd.a))))
    targets = [pd.a + r * w * e for e in np.eye(curve.g) for w in (1, 1j, -1, -1j)]
    rows = invert_a_map(curve, cycles, pd, targets, tol=1e-11)
    return {"a": pd.a, "b": pd.b, "tau": pd.tau,
            "correction": bergman_kernel(curve, cycles, pd).correction,
            "rows u": np.array([c.u for c, _, _ in rows]),
            **{f"rows {f}": np.array([getattr(p, f) for _, _, p in rows])
               for f in ("a", "b", "tau")}}


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3], ids=["g1", "g2", "g3"])
def test_quadrature_matches_gauss_legendre_oracle(u0, monkeypatch):
    # the trapezoidal levels give the periods, tau, the kernel correction and
    # the invert_a_map rows of composite Gauss-Legendre, to rounding
    got = _quadrature_results(u0)
    monkeypatch.setattr(QuadratureWorkspace, "integrate", _gauss_legendre_integrate)
    ref = _quadrature_results(u0)
    for k, v in ref.items():
        assert np.max(np.abs(got[k] - v)) <= 1e-14 * np.max(np.abs(v)), k


def test_thin_contour_converges_below_the_cap():
    # dz / y has no singularity at the foci in the ellipse parameter, so an
    # ellipse of sigma 0.1 round the first cut converges at the first level;
    # one whose sigma is 0.1 short of the nearest foreign branch point has a
    # singularity 0.1 off the real axis of the parameter and doubles past the
    # first level, but converges far below the cap.  Both give the A-periods
    # of the standard contour
    curve, cycles = _curve_and_cycles(U0_G2)
    pd = periods(curve, cycles)
    a0 = cycles.a_cycles[0][0][1]
    foreign = min(a0.elliptic_sigma(e) for e in curve.branch_points
                  if min(abs(e - a0.f1), abs(e - a0.f2)) > 1e-12)
    expect = np.append(pd.a_jacobian[0], pd.a[0])
    levels = []
    for sigma in (0.1, foreign - 0.1):
        thin = EllipseContour(a0.f1, a0.f2, sigma, start_outward_from=np.mean(curve.branch_points))
        val, level = _scalar_integral(curve, [(1.0, thin)], _period_form(curve))
        assert np.max(np.abs(val - expect)) <= 1e-13 * np.max(np.abs(expect)), sigma
        levels.append(level)
    assert levels[0] == 128 < levels[1] <= hyperelliptic_module._MAX_NODES // 16


def _scalar_integral(curve, cycle, f):
    """integrate_cycle of one scalar form on a fresh workspace, and its deepest panel count."""
    ws = QuadratureWorkspace(curve)
    seen = []
    nodes = ws.nodes
    ws.nodes = lambda cont, n: seen.append(n) or nodes(cont, n)
    return ws.integrate_cycle(cycle, f), max(seen)


@pytest.mark.parametrize("genus, u0", [(1, U0_G1), (2, U0_G2)])
def test_array_integrand_matches_scalar_calls(genus, u0):
    # each component of a stacked integrand is accepted at its own doubling
    # and equals, bitwise, the integral of that component alone; a pole just
    # outside the first A-contour makes its component converge later
    curve = new_curve(genus, u0)
    cycles = build_cycles(curve)
    a0 = cycles.a_cycles[0][0][1]
    pole = EllipseContour(a0.f1, a0.f2, 1.3 * a0.sigma).point(0.3)
    comps = [ds_sw(curve), lambda z, y: 1.0 / ((z - pole) * y)]
    comps += [lambda z, y, m=m: z ** m / y for m in range(genus)]
    levels = set()
    for cycle in cycles.a_cycles + cycles.b_cycles:
        got = cycles.workspace.integrate_cycle(cycle, lambda z, y: np.stack([f(z, y) for f in comps]))
        assert got.shape == (len(comps),)
        for f, val in zip(comps, got):
            alone, level = _scalar_integral(curve, cycle, f)
            assert val.tobytes() == np.complex128(alone).tobytes()
            levels.add(level)
    assert len(levels) > 1


def test_integrate_error_names_its_numbers():
    # a pole just outside the first A-contour is not resolved by 128 nodes;
    # the error names the node count, that component's |delta| between 128
    # nodes and the 64 even ones against its gate, and the sheet closure
    curve, cycles = _curve_and_cycles(U0_G2)
    ws = cycles.workspace
    a0 = cycles.a_cycles[0][0][1]
    pole = EllipseContour(a0.f1, a0.f2, 1.3 * a0.sigma).point(0.3)

    def form(z, y):
        return np.stack([ds_sw(curve)(z, y), 1.0 / ((z - pole) * y)])

    with pytest.raises(QuadratureNotConverged) as err:
        ws.integrate([a0], form, max_panels=128)
    m = re.fullmatch(r"contour integral did not converge by (\d+) nodes: worst \|delta\| = "
                     r"(\S+) against gate (\S+) \(component (\d+)\), "
                     r"sheet closure (\S+) against 1e-08", str(err.value))
    assert m, str(err.value)
    assert (int(m.group(1)), int(m.group(4))) == (128, 1)
    d128, d64 = ws.nodes(a0, 128), ws.nodes(a0, 64)
    terms = d128.w * form(d128.z, d128.y)[1] * d128.dzdt
    v128, v64 = np.sum(terms), 2 * np.sum(terms[::2])
    # the even nodes of a level are the level below: the rules nest
    assert d128.z[::2].tobytes() == d64.z.tobytes()
    assert v64 == pytest.approx(np.sum(d64.w * form(d64.z, d64.y)[1] * d64.dzdt), rel=1e-14)
    delta, gate = float(m.group(2)), float(m.group(3))
    assert delta == pytest.approx(abs(v128 - v64), rel=1e-3)
    assert gate == pytest.approx(1e-10 * max(1.0, abs(v128)), rel=1e-3)
    assert delta > gate
    assert float(m.group(5)) < 1e-8


def test_doubled_level_evaluates_only_its_new_nodes():
    # the even nodes of a doubled level are the level below, so at each
    # doubling the integrand sees the new nodes alone, and the integral is
    # bitwise the sum over every node of the last level evaluated afresh.
    # A pole near the contour makes the form double twice
    curve, cycles = _curve_and_cycles(U0_G1)
    ws = cycles.workspace
    a0 = cycles.a_cycles[0][0][1]
    pole_form = _pole_form(a0, 0.125)
    seen = []

    def form(z, y):
        seen.append(z.copy())
        return pole_form(z, y)

    got = ws.integrate([a0], form)[0]
    levels = [ws.nodes(a0, n).z for n in (128, 256, 512)]
    assert [len(z) for z in seen] == [128, 128, 256]
    assert [z.tobytes() for z in seen] == [levels[0].tobytes()] + [z[1::2].tobytes()
                                                                  for z in levels[1:]]
    last = ws.nodes(a0, 512)
    terms = np.multiply(last.w, pole_form(last.z, last.y), dtype=complex)
    terms *= last.dzdt
    assert got.tobytes() == np.sum(terms, axis=-1).tobytes()


def test_anchor_error_names_its_numbers():
    curve, cycles = _curve_and_cycles(U0_G2)
    e = complex(curve.branch_points[1])
    with pytest.raises(QuadratureNotConverged) as err:
        cycles.workspace.tracker.anchor(e)
    m = re.fullmatch(r"could not anchor sheet at (\S+): every radial approach passes within "
                     r"(\S+) of a branch point; nearest branch point (\S+) at distance (\S+)",
                     str(err.value))
    assert m, str(err.value)
    assert complex(m.group(1)) == complex(m.group(3)) == pytest.approx(e, rel=1e-5)
    assert float(m.group(2)) == pytest.approx(1e-6 * curve.scale(), rel=1e-3)
    assert float(m.group(4)) == 0.0


def test_invert_a_map_roundtrip():
    curve, cycles, pd = setup_g1()
    target = pd.a * (1.0 + 1e-3)
    (moved, moved_cycles, _), = invert_a_map(curve, cycles, pd, [target])
    ws = moved_cycles.workspace
    a_new = ws.integrate_cycle(moved_cycles.a_cycles[0], ds_sw(moved))
    assert abs(a_new - target[0]) < 1e-9 * max(1.0, abs(target[0]))


def _period_fields(pd):
    return [getattr(pd, f).tobytes() for f in ("a", "b", "tau", "norm_matrix", "a_jacobian")]


@pytest.mark.parametrize("genus, u0", [(1, U0_G1), (2, U0_G2), (3, U0_G3)])
def test_moved_periods_match_fresh_workspace(genus, u0):
    # the cycles invert_a_map returns carry a workspace on the moved curve
    # that gives exactly the periods of a freshly built one
    curve = new_curve(genus, u0)
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    step = np.zeros(genus)
    step[-1] = 1e-3 * max(1.0, float(np.max(np.abs(pd.a))))
    (moved, moved_cycles, _), = invert_a_map(curve, cycles, pd, [pd.a + step], tol=1e-11)
    assert moved_cycles.workspace.curve is moved
    fresh = replace(cycles, workspace=QuadratureWorkspace(moved))
    assert _period_fields(periods(moved, moved_cycles)) == _period_fields(periods(moved, fresh))


@pytest.mark.parametrize("genus, u0", [(1, U0_G1), (2, U0_G2), (3, U0_G3)])
def test_invert_a_map_returns_the_periods_of_its_curve(genus, u0):
    # the PeriodData that comes back with the moved curve reuses the accepted
    # Newton trial's A pass; it is bitwise what periods() gives there, at each
    # circle node a + r i^j e_k the verifier uses
    curve, cycles = _curve_and_cycles(u0)
    pd = periods(curve, cycles)
    assert invert_a_map(curve, cycles, pd, [pd.a]) == [(curve, cycles, pd)]
    r = 1e-3 * max(1.0, float(np.max(np.abs(pd.a))))
    for k in range(genus):
        for w in (1, 1j, -1, -1j):
            (moved, moved_cycles, moved_pd), = invert_a_map(
                curve, cycles, pd, [pd.a + r * w * np.eye(genus)[k]], tol=1e-11)
            assert moved is not curve
            assert _period_fields(moved_pd) == _period_fields(periods(moved, moved_cycles))


def test_b_periods_sum_each_chain_loop_once():
    # B_i = C_i + ... + C_g: the chain loops are integrated once each, in one
    # pass with the A contours, and summed in cycle order, bitwise the
    # per-cycle sum of integrate_cycle
    curve, cycles = _curve_and_cycles(U0_G3)
    ws = cycles.workspace
    calls = []
    integrate = ws.integrate
    ws.integrate = lambda conts, *args: calls.append(list(conts)) or integrate(conts, *args)
    try:
        pd = periods(curve, cycles)
    finally:
        del ws.integrate
    conts = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
    assert calls == [conts]
    form = _period_form(curve)
    expect = np.array([ws.integrate_cycle(b, form) for b in cycles.b_cycles])
    assert _cycle_periods(ws, cycles.b_cycles, form, 1e-10).tobytes() == expect.tobytes()
    assert pd.b.tobytes() == expect[:, -1].tobytes()


def test_derived_sheets_match_fresh_tracking():
    # invert_a_map derives each trial's sheets from the reference nodes; every
    # level it and the periods on its curve used carries bitwise the sheet
    # values and closure that tracking on the moved curve gives, at the
    # reference's own nodes, the contour's start among them
    curve, cycles = _curve_and_cycles(U0_G2)
    pd = periods(curve, cycles)
    (moved, moved_cycles, _), = invert_a_map(curve, cycles, pd, [pd.a + 1e-3], tol=1e-11)
    periods(moved, moved_cycles)
    derived, fresh = moved_cycles.workspace, QuadratureWorkspace(moved)
    conts = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
    assert {cont for cont, _ in derived._cache} == set(conts)
    for (cont, n_panels), data in derived._cache.items():
        ref, new = cycles.workspace.nodes(cont, n_panels), fresh.nodes(cont, n_panels)
        assert data.z is ref.z and data.dzdt is ref.dzdt and data.w == ref.w
        assert data.z.tobytes() == new.z.tobytes()
        assert data.y.tobytes() == new.y.tobytes()
        assert data.closures([0]) == new.closures([0])


def _derivation_refusal(curve, cycles, err):
    m = re.fullmatch(r"sheet of the moved curve is ambiguous at node (\S+) of the contour with "
                     r"foci (\S+), (\S+): nearer/farther distance to the reference sheet "
                     r"(\S+) against gate (\S+)", str(err))
    assert m, str(err)
    node, f1, f2 = (complex(m.group(i)) for i in (1, 2, 3))
    ratio, gate = float(m.group(4)), float(m.group(5))
    assert gate == 0.25 < ratio < 1.0
    conts = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
    cont = next(c for c in conts if np.allclose([c.f1, c.f2], [f1, f2], rtol=1e-5))
    zs = cycles.workspace.nodes(cont, 128).z
    assert float(np.min(np.abs(zs - node))) < 1e-5
    return cont


def test_derived_sheet_refuses_ambiguous_sign():
    # moving u by 0.05 keeps every branch point inside its reference contours,
    # but one comes so near the chain loop that sqrt(Q) at a node is no
    # longer clearly nearer one sign of the reference sheet than the other
    curve, cycles, _ = setup_g1()
    moved = new_curve(1, (U0_G1[0] + 0.05,))
    assert _neighbourhood_violations([moved], cycles) == [None]
    derived = replace(cycles, workspace=cycles.workspace.moved_to(moved))
    with pytest.raises(OutOfNeighbourhood) as err:
        periods(moved, derived)
    assert _derivation_refusal(moved, cycles, err.value) in cycles.chain_loops


def test_invert_a_map_refuses_ambiguous_sheet(monkeypatch):
    # along this direction the Newton trials near the target keep their branch
    # points inside the contours but miss the sheet gate; each such trial is a
    # failed damping step of its own row, and the refusal comes when a whole
    # damping sequence of 5 trials ends on one, instead of a quadrature on a
    # tracked sheet running into the 4096-panel cap
    curve, cycles, pd = setup_g1()
    good = pd.a * (1.0 + 1e-3)
    trials = []
    moved_to = QuadratureWorkspace.moved_to
    monkeypatch.setattr(QuadratureWorkspace, "moved_to", lambda self, c: trials.extend(
        c.rows if isinstance(c, CurveRows) else [c]) or moved_to(self, c))
    invert_a_map(curve, cycles, pd, [good])
    good_trials = len({id(c) for c in trials})
    trials.clear()
    with pytest.raises(OutOfNeighbourhood) as err:
        invert_a_map(curve, cycles, pd, [good, pd.a * (1.0 + 0.05 * np.exp(0.75j * np.pi))])
    _derivation_refusal(curve, cycles, err.value)
    assert len({id(c) for c in trials}) - good_trials >= 5


def test_moved_curves_are_never_tracked(monkeypatch):
    # one g2 verify anchors and tracks sheets on the reference curve only,
    # in one pass: build_cycles tracks the first level of the two A contours
    # and the two chain loops together, and every integral reads that
    # tracking.  Its quadrature work is that of the per-layer benchmark
    # counts: 3 integrate calls (periods over the 4 contours, kernel moments
    # over the 2 A contours, and the 16 line nodes over the 4 contours), 10
    # contour levels of 128 nodes read, each accepted there.  A level's sheet
    # closure is computed only where integrate reads it: 68 row closures in
    # 3 array calls, one for the periods' block of 4 contours and one for each
    # block of 2 contours the line pass's 16 rows take (the kernel reads the
    # levels periods closed), where each row took a call of its own
    seen = {"curves": set(), "tracks": 0, "integrate": 0, "panels": 0, "closures": 0,
            "closure_calls": 0}
    anchor, track = SheetTracker.anchor, SheetTracker.track_along
    integrate, nodes = QuadratureWorkspace.integrate, QuadratureWorkspace.nodes
    closure = hyperelliptic_module._closure

    def counted_closure(*args):
        seen["closures"] += len(args[-1])
        seen["closure_calls"] += 1
        return closure(*args)

    def counted_anchor(self, *args):
        seen["curves"].add(id(self.curve))
        return anchor(self, *args)

    def counted_track(self, *args):
        seen["curves"].add(id(self.curve))
        seen["tracks"] += 1
        return track(self, *args)

    def counted_integrate(self, *args, **kwargs):
        seen["integrate"] += 1
        return integrate(self, *args, **kwargs)

    def counted_nodes(self, contour, n_panels):
        seen["panels"] += n_panels
        return nodes(self, contour, n_panels)

    monkeypatch.setattr(SheetTracker, "anchor", counted_anchor)
    monkeypatch.setattr(SheetTracker, "track_along", counted_track)
    monkeypatch.setattr(QuadratureWorkspace, "integrate", counted_integrate)
    monkeypatch.setattr(QuadratureWorkspace, "nodes", counted_nodes)
    monkeypatch.setattr(hyperelliptic_module, "_closure", counted_closure)
    rep = verify_theorem(VerifyConfig(genus=2, u0=U0_G2))
    assert rep.passed
    assert seen == {"curves": {id(rep.artifacts.curve)}, "tracks": 1, "integrate": 3,
                    "panels": 10 * 128, "closures": 68, "closure_calls": 3}


def test_scalar_sqrt_evaluations_per_verify(monkeypatch):
    # sheets are continued in closed form, and the contours are anchored and
    # tracked together, so a g2 verify evaluates Q on the reference curve in
    # three array calls and never on a scalar: two points per contour anchor,
    # its far point and its target, for the four anchors at once (the
    # stepped walks made 326 scalar calls, one per step; anchoring contour by
    # contour made 8), and the first level of the four contours.  A reversed
    # chain loop reads its forward loop's anchor, a moved curve's sheets
    # derive theirs at the first node, and the kernel normalization anchors
    # no point of its own
    calls = []
    q_at = hyperelliptic_module.SWCurve.q_at
    monkeypatch.setattr(hyperelliptic_module.SWCurve, "q_at",
                        lambda self, z: calls.append(np.shape(z)) or q_at(self, z))
    assert verify_theorem(VerifyConfig(genus=2, u0=U0_G2)).passed
    assert calls == [(4,), (4,), (4, 128)]


def test_workspace_of_another_curve_rejected():
    curve, cycles, pd = setup_g1()
    (moved, moved_cycles, moved_pd), = invert_a_map(curve, cycles, pd, [pd.a * (1.0 + 1e-3)])
    with pytest.raises(ValueError, match="another curve"):
        periods(moved, cycles)
    with pytest.raises(ValueError, match="another curve"):
        bergman_kernel(moved, cycles, moved_pd)
    with pytest.raises(ValueError, match="another curve"):
        invert_a_map(moved, cycles, moved_pd, [pd.a])


def test_invert_a_map_refuses_target_outside_contours():
    # a 5% move of the A-period carries a branch point out of the thin
    # reference ellipse around its cut; the reused contours no longer
    # compute A-periods there.  For the complex 10% move a Newton trial
    # crosses a contour before any converged curve exists: the trial is a
    # failed damping step, not a quadrature run into the panel cap
    curve, cycles, pd = setup_g1()
    for target in (pd.a + 0.05 * np.abs(pd.a), pd.a * (1.0 + 0.1j)):
        with pytest.raises(OutOfNeighbourhood, match="elliptic sigma"):
            invert_a_map(curve, cycles, pd, [target])


def test_invert_a_map_refuses_when_damping_finds_no_decrease():
    # with the Jacobian's sign flipped (the minus of the variational identity
    # dropped) the step points away from the target: the full step and its
    # four halvings all raise the residual, so no trial is accepted and the
    # refusal names the starting residual and the last step tried
    curve, cycles, pd = setup_g1()
    target = pd.a * (1.0 + 1e-3)
    with pytest.raises(QuadratureNotConverged) as err:
        invert_a_map(curve, cycles, replace(pd, a_jacobian=-pd.a_jacobian), [target])
    m = re.fullmatch(r"Newton damping failed for a -> u: max \|err\| (\S+) against tol\*scale "
                     r"(\S+), no decrease down to step (\S+) x \|du\| (\S+)", str(err.value))
    assert m, str(err.value)
    assert float(m.group(1)) == pytest.approx(abs(target[0] - pd.a[0]), rel=1e-3)
    assert float(m.group(2)) == pytest.approx(1e-10 * max(1.0, abs(target[0])), rel=1e-3)
    assert m.group(3) == "0.0625"
    du = np.linalg.solve(pd.a_jacobian, target - pd.a)
    assert float(m.group(4)) == pytest.approx(np.max(np.abs(du)), rel=1e-3)


def test_invert_a_map_refuses_after_50_steps(monkeypatch):
    # with the A-periods of the holomorphic forms read 100 times too large,
    # the Jacobian and every trial's with them, each full Newton step goes 1%
    # of the way: every step is accepted, the residual falls by about 1% a
    # step, and the 50-step cap refuses the solve
    curve, cycles, pd = setup_g1()
    target = pd.a * (1.0 + 1e-3)
    form = hyperelliptic_module._period_form

    def steep(rows):
        def scaled(z, y):
            out = form(rows)(z, y)
            out[:rows.g] *= 100.0
            return out
        return scaled

    monkeypatch.setattr(hyperelliptic_module, "_period_form", steep)
    with pytest.raises(QuadratureNotConverged) as err:
        invert_a_map(curve, cycles, replace(pd, a_jacobian=100.0 * pd.a_jacobian), [target])
    m = re.fullmatch(r"Newton iteration for a -> u did not converge in 50 steps: max \|err\| "
                     r"(\S+) against tol\*scale (\S+), last step (\S+) x \|du\| (\S+)",
                     str(err.value))
    assert m, str(err.value)
    err0 = abs(target[0] - pd.a[0])
    assert float(m.group(1)) == pytest.approx(0.99 ** 50 * err0, rel=1e-2)
    assert float(m.group(2)) == pytest.approx(1e-10 * max(1.0, abs(target[0])), rel=1e-3)
    assert m.group(3) == "1"
    du = 0.01 * 0.99 ** 49 * err0 / abs(pd.a_jacobian[0, 0])
    assert float(m.group(4)) == pytest.approx(du, rel=1e-2)


def test_line_node_outside_the_contours_is_refused_by_name(monkeypatch):
    # a line node whose branch point leaves the reference contours is
    # refused before any integral, naming the node: its index on the
    # circle, its modulus and its u, the first such node of all
    curve, cycles, pd = setup_g1()
    r = 0.05 * np.max(np.abs(pd.a))
    nodes = (1, 1j, -1, -1j)
    v = np.linalg.solve(-pd.a_jacobian, np.eye(1))
    us = [np.array(curve.u) + r * w * v[:, 0] for w in nodes]
    why = _neighbourhood_violations([new_curve(1, u) for u in us], cycles)
    first = next(j for j, w in enumerate(why) if w is not None)
    monkeypatch.setattr(QuadratureWorkspace, "integrate", None)     # no integral may run
    with pytest.raises(OutOfNeighbourhood) as err:
        line_periods(curve, cycles, pd, r, nodes)
    m = re.fullmatch(r"line node (\d+) of modulus (\d+) at u = \((\S+)\): (.*)", str(err.value))
    assert m, str(err.value)
    assert (int(m.group(1)), int(m.group(2))) == (first, 1)
    assert complex(m.group(3)) == pytest.approx(us[first][0], rel=1e-5)
    assert m.group(4) == why[first] and "elliptic sigma" in why[first]


def test_line_periods_are_the_periods_of_each_node():
    # the stacked pass over the A and B cycles together gives, at every
    # node, bitwise the periods of that node's curve alone
    for u0 in (U0_G1, U0_G2):
        curve, cycles = _curve_and_cycles(u0)
        pd = periods(curve, cycles)
        r = 2e-3 * max(1.0, float(np.max(np.abs(pd.a))))
        nodes = (1, 1j, -1, -1j)
        got = line_periods(curve, cycles, pd, r, nodes)
        v = np.linalg.solve(-pd.a_jacobian, np.eye(curve.g))
        assert len(got) == len(nodes) * curve.g
        for i, p in enumerate(got):
            k, j = divmod(i, len(nodes))
            moved = new_curve(curve.g, np.array(curve.u) + r * nodes[j] * v[:, k])
            alone = periods(moved, replace(cycles, workspace=cycles.workspace.moved_to(moved)))
            assert _period_fields(p) == _period_fields(alone)


def _invert_fields(out):
    return [[np.asarray(c.u).tobytes(), c.branch_points.tobytes()] + _period_fields(p)
            for c, _, p in out]


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3] + _draws_g2(50, 19),
                         ids=["g1", "g2", "g3"] + [f"draw{i}" for i in range(50)])
def test_batch_invert_equals_solo(u0):
    # the 4g circle nodes solved in one call are, field for field, each node
    # solved alone; the cycles returned per node sit on their own curve
    curve, cycles = _curve_and_cycles(u0)
    pd = periods(curve, cycles)
    r = 1e-3 * max(1.0, float(np.max(np.abs(pd.a))))
    targets = [pd.a + r * w * e for e in np.eye(len(u0)) for w in (1, 1j, -1, -1j)]
    batch = invert_a_map(curve, cycles, pd, targets)
    solo = [invert_a_map(curve, cycles, pd, [t])[0] for t in targets]
    assert _invert_fields(batch) == _invert_fields(solo)
    assert all(c.workspace.curve is m for m, c, _ in batch)


def _solo_error(curve, cycles, pd, target):
    with pytest.raises(OutOfNeighbourhood) as err:
        invert_a_map(curve, cycles, pd, [target])
    return str(err.value)


def test_batch_invert_raises_the_lowest_failing_row():
    # failing rows do not fail their neighbours; the error raised is the
    # lowest failing row's, word for word its solo message
    curve, cycles, pd = setup_g1()
    good = [pd.a * (1.0 + s) for s in (1e-3, -1e-3j, 2e-3)]
    out_a, out_b = pd.a + 0.05 * np.abs(pd.a), pd.a * (1.0 + 0.1j)
    sheet = pd.a * (1.0 + 0.05 * np.exp(0.75j * np.pi))
    solo = {id(t): _solo_error(curve, cycles, pd, t) for t in (out_a, out_b, sheet)}
    assert len(set(solo.values())) == 3
    for batch, first in (([good[0], out_a, good[1]], out_a),
                         ([good[0], good[1], out_b, good[2], out_a], out_b),
                         ([out_a, out_b], out_a),
                         ([good[0], sheet, good[1], out_b], sheet)):
        with pytest.raises(OutOfNeighbourhood) as err:
            invert_a_map(curve, cycles, pd, batch)
        assert str(err.value) == solo[id(first)]
    assert _invert_fields(invert_a_map(curve, cycles, pd, good)) == _invert_fields(
        [invert_a_map(curve, cycles, pd, [t])[0] for t in good])


def test_row_workspace_fails_rows_alone():
    # a CurveRows workspace reports each row's own failure, with the message
    # the row's single moved workspace raises: a sheet refusal, and the
    # panel cap with each row's own worst component and closure
    curve, cycles, _ = setup_g1()
    rows = [new_curve(1, (U0_G1[0] + du,)) for du in (1e-3, 0.05, -2e-3j)]
    cont = cycles.chain_loops[0]
    ws = cycles.workspace.moved_to(CurveRows(rows))

    def solo(c, **kw):
        with pytest.raises(Exception) as err:
            cycles.workspace.moved_to(c).integrate([cont], _period_form(c), **kw)
        return type(err.value), str(err.value)

    with pytest.raises(_RowsFailed) as err:
        ws.integrate([cont], _period_form(ws.curve))
    assert {r: (type(e), str(e)) for r, e in err.value.errors.items()} == {1: solo(rows[1])}
    ws = cycles.workspace.moved_to(CurveRows(rows[::2]))
    with pytest.raises(_RowsFailed) as err:
        ws.integrate([cont], _period_form(ws.curve), tol=1e-30, max_panels=256)
    assert {r: (type(e), str(e)) for r, e in err.value.errors.items()} == {
        r: solo(c, tol=1e-30, max_panels=256) for r, c in enumerate(rows[::2])}


def _pole_form(cont, depth):
    """1 / y, plus 1 / (z - p) on the last row, for a pole p outside ``cont`` at elliptic
    sigma ``depth`` beyond it.  That term integrates to 0, but the trapezoidal rule resolves
    it only at about N depth > 25, so the last row needs more nodes the nearer p is.  The
    form reads only the nodes, not their number or position, as integrate evaluates a
    doubled level's new nodes alone."""
    pole = EllipseContour(cont.f1, cont.f2, cont.sigma + depth).point(0.3)

    def form(z, y):
        f = 1.0 / y
        np.atleast_2d(f)[-1] += 1.0 / (z - pole)
        return f
    return form


def test_rows_fail_only_at_levels_they_need():
    # row 0 is accepted at 256 nodes and row 1 only at 1024; a failure
    # recorded for row 0 at 512 nodes is not its error (alone it never
    # reaches 512), while the same failure of row 1, still open there, is
    # raised as row 1's own
    curve, cycles, _ = setup_g1()
    rows = CurveRows([new_curve(1, (U0_G1[0] + du,)) for du in (1e-3, -2e-3j)])
    cont = cycles.a_cycles[0][0][1]
    form = _pole_form(cont, 0.06)

    seen = []
    probe = cycles.workspace.moved_to(rows)
    nodes = probe.nodes
    probe.nodes = lambda c, n: seen.append(n) or nodes(c, n)
    expect = probe.integrate([cont], form)[0]
    assert seen == [128, 256, 512, 1024]
    assert expect[0] == cycles.workspace.moved_to(rows.rows[0]).integrate(
        [cont], lambda z, y: 1 / y)[0]
    ws = cycles.workspace.moved_to(rows)
    errors = ws.nodes(cont, 512).errors
    errors[0] = OutOfNeighbourhood("row 0 at 512 nodes")
    assert ws.integrate([cont], form)[0].tobytes() == expect.tobytes()
    errors[1] = OutOfNeighbourhood("row 1 at 512 nodes")
    with pytest.raises(_RowsFailed) as err:
        ws.integrate([cont], form)
    assert {r: str(e) for r, e in err.value.errors.items()} == {1: "row 1 at 512 nodes"}


def test_doubled_level_derives_only_new_nodes(monkeypatch):
    # a g1 chi=5 verify doubles both contours to 256 nodes; the line pass
    # derives the 8 rows' sheets on both contours in one pass per level, and
    # at 256 at the 128 new odd nodes of each contour only, the even ones
    # being the 128 level's
    derived, inside = [], []
    levels, q_at = QuadratureWorkspace._derived_levels, CurveRows.q_at

    def record(self, contours, n_panels):
        derived.append([n_panels, len(self._rows.rows), len(contours), 0])
        inside.append(True)
        try:
            return levels(self, contours, n_panels)
        finally:
            inside.pop()

    def count(self, z):
        if inside:
            derived[-1][3] += np.size(z)
        return q_at(self, z)

    monkeypatch.setattr(QuadratureWorkspace, "_derived_levels", record)
    monkeypatch.setattr(CurveRows, "q_at", count)
    report = verify_theorem(VerifyConfig(genus=1, u0=U0_G1, chi_max=5))
    assert report.passed
    assert report.metadata["quadrature"]["nodes"] == {"A_1": 256, "C_1": 256}
    assert sorted(map(tuple, derived)) == [(128, 8, 2, 2 * 128), (256, 8, 2, 2 * 128)]


def test_doubled_level_keeps_the_whole_levels_worst_node():
    # a doubled level derived from the level below carries the sheets, each
    # row's worst gate ratio and node, and the refusals of the same level
    # derived at every node afresh; row 1 misses the gate
    curve, cycles, _ = setup_g1()
    rows = CurveRows([new_curve(1, (U0_G1[0] + du,)) for du in (1e-3, 0.05, -2e-3j)])
    refused = set()
    for cont in cycles.chain_loops + [cycles.a_cycles[0][0][1]]:
        doubled, fresh = (cycles.workspace.moved_to(rows) for _ in range(2))
        doubled.nodes(cont, 128)
        a, b = doubled.nodes(cont, 256), fresh.nodes(cont, 256)
        assert a.y.tobytes() == b.y.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.worst, b.worst))
        assert {r: str(e) for r, e in a.errors.items()} == {r: str(e) for r, e in b.errors.items()}
        refused |= set(a.errors)
    assert refused == {1}


def _failing_row(monkeypatch, level, row):
    """``_closure`` with the closure of ``row`` on ``level`` failing: the entries that
    start at the level's last node with the row's value there."""
    closure = hyperelliptic_module._closure

    def failing(e, z_last, z_start, y_last, y0):
        out, errors = closure(e, z_last, z_start, y_last, y0)
        hit = (z_last == level.z[-1]) & (y_last == np.atleast_2d(level.y)[row, -1])
        return out, {**errors, **{int(i): QuadratureNotConverged("closure failed")
                                  for i in np.flatnonzero(hit)}}
    monkeypatch.setattr(hyperelliptic_module, "_closure", failing)


def test_closure_walked_only_where_read(monkeypatch):
    # integrate reads a row's sheet closure at each level only while the row
    # is open: a closure that would fail at a level after the row was
    # accepted is never computed, and one that fails at any level the row
    # needs is its error, on a CurveRows workspace and on a single moved
    # curve alike.  The last row needs 512 nodes; row 0 of two is accepted
    # at 256
    curve, cycles, _ = setup_g1()
    moved = [new_curve(1, (U0_G1[0] + du,)) for du in (1e-3, -2e-3j)]
    cont = cycles.a_cycles[0][0][1]
    form = _pole_form(cont, 0.125)

    for target in (CurveRows(moved), moved[1]):
        row = 1 if isinstance(target, CurveRows) else 0
        expect = cycles.workspace.moved_to(target).integrate([cont], form)[0]
        if row:
            ws = cycles.workspace.moved_to(target)
            with monkeypatch.context() as m:
                _failing_row(m, ws.nodes(cont, 512), 0)
                assert ws.integrate([cont], form)[0].tobytes() == expect.tobytes()
            read = {n: np.flatnonzero(~np.isnan(ws.nodes(cont, n)._closure)).tolist()
                    for n in (256, 512)}
            assert read == {256: [0, 1], 512: [1]}
        for level in (128, 256, 512):
            ws = cycles.workspace.moved_to(target)
            with monkeypatch.context() as m, pytest.raises(
                    _RowsFailed if row else QuadratureNotConverged) as err:
                _failing_row(m, ws.nodes(cont, level), row)
                ws.integrate([cont], form)
            errors = err.value.errors if row else {0: err.value}
            assert {r: str(e) for r, e in errors.items()} == {row: "closure failed"}


def _contour_by_contour(ws, cycle_list, form, tol):
    """``_cycle_periods`` with each distinct contour integrated alone, one ``integrate``
    call per contour: the reference for the stacked pass."""
    vals = {}
    for cycle in cycle_list:
        for _, k in cycle:
            if k not in vals:
                vals[k] = ws.integrate([k], form, tol)[0]
    return np.array([sum(c * vals[k] for c, k in cycle) for cycle in cycle_list])


def _one_level_at_a_time(fill):
    """``QuadratureWorkspace._fill`` making each contour's level in a pass of its own."""
    def one_by_one(self, contours, n_panels):
        for c in contours:
            fill(self, [c], n_panels)
    return one_by_one


def _stacked_and_alone(monkeypatch, run):
    """``run()`` as it is, then with every contour tracked, derived and integrated alone."""
    stacked = run()
    with monkeypatch.context() as m:
        m.setattr(hyperelliptic_module, "_cycle_periods", _contour_by_contour)
        m.setattr(QuadratureWorkspace, "_fill", _one_level_at_a_time(QuadratureWorkspace._fill))
        alone = run()
    return stacked, alone


def _pipeline_bytes(u0):
    """Every number the verifier takes from this module at ``u0``, as bytes: the tracked
    sheets of every level kept, the periods, the kernel correction, the kernel moments
    of ``_cycle_periods`` and the PeriodData of the verifier's line nodes."""
    from swtr.cli import CIRCLE_NODES, DERIVATIVE_RADIUS
    curve, cycles = _curve_and_cycles(u0)
    pd = periods(curve, cycles)
    bk = bergman_kernel(curve, cycles, pd)
    moments = hyperelliptic_module._cycle_periods(
        cycles.workspace, cycles.a_cycles + cycles.b_cycles,
        lambda z, y: np.stack([z ** j / y for j in range(2 * curve.g + 3)]), 1e-10)
    r = DERIVATIVE_RADIUS * max(1.0, float(np.max(np.abs(pd.a))))
    on_lines = line_periods(curve, cycles, pd, r, CIRCLE_NODES)
    conts = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
    levels = {(i, n): d.y.tobytes() for (c, n), d in cycles.workspace._cache.items()
              for i, k in enumerate(conts) if k is c}
    return {"levels": levels, "periods": _period_fields(pd), "kernel": bk.correction.tobytes(),
            "moments": moments.tobytes(), "lines": [_period_fields(p) for p in on_lines]}


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3] + _draws_g2(20, 23),
                         ids=["g1", "g2", "g3"] + [f"draw{i}" for i in range(20)])
def test_stacked_pass_keeps_every_bit(u0, monkeypatch):
    # the contours of a cycle basis tracked, derived and integrated together
    # give bitwise what each contour gives alone: the tracked sheets of every
    # level, periods, the kernel, _cycle_periods and each line node's periods
    stacked, alone = _stacked_and_alone(monkeypatch, lambda: _pipeline_bytes(u0))
    assert stacked == alone
    assert {i for i, _ in stacked["levels"]} == set(range(2 * len(u0)))
    assert len(stacked["lines"]) == 8 * len(u0)


def test_stacked_pass_keeps_every_bit_through_a_doubling(monkeypatch):
    # at the g1 chi=5 CI point the line pass doubles both contours to 256
    # nodes; every number the verifier reports is bitwise the one each
    # contour integrated alone gives
    def report():
        rep = verify_theorem(VerifyConfig(genus=1, u0=U0_G1, chi_max=5))
        checks = [(c.name, np.complex128(c.lhs).tobytes(), np.complex128(c.rhs).tobytes())
                  for c in rep.checks]
        return checks, repr({k: v for k, v in rep.metadata.items()})

    stacked, alone = _stacked_and_alone(monkeypatch, report)
    assert stacked == alone
    assert "'nodes': {'A_1': 256, 'C_1': 256}" in stacked[1]


def test_row_error_is_its_first_contours():
    # a row that fails on two contours gets the error of the first of them in
    # the order integrate is given, what integrating the contours one after
    # another raises, and its neighbour is integrated as if alone; one moved
    # curve raises the same error
    curve, cycles = _curve_and_cycles(U0_G2)
    moved = [new_curve(2, np.array(U0_G2) + du) for du in (1e-3, -1e-3j)]
    conts = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
    for order in (conts, conts[::-1]):
        for target, row in ((CurveRows(moved), 1), (moved[1], 0)):
            ws = cycles.workspace.moved_to(target)
            for i in (1, 3):
                ws.nodes(order[i], 128).errors[row] = OutOfNeighbourhood(f"row fails on {i}")
            with pytest.raises(_RowsFailed if row else OutOfNeighbourhood) as err:
                ws.integrate(order, _period_form(target))
            errors = err.value.errors if row else {0: err.value}
            assert {r: str(e) for r, e in errors.items()} == {row: "row fails on 1"}


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


def _sampled_correction(curve, cycles, pd, seed=11):
    """The correction by sampling: A-periods of B0(., q) (the kernel with zero
    correction) at 2g + 2 random q, least-squares fitted in the forms
    z_q^m dz_q / y_q, m < g."""
    g, ws = curve.g, cycles.workspace
    base = BergmanData(curve=curve, cycles=cycles, pd=pd,
                       f_coeffs=_f_polynomial(curve.q_coeffs, g), correction=np.zeros((g, g)))
    rng = np.random.default_rng(seed)
    ang = 2 * np.pi * (np.arange(2 * g + 2) + 0.3 * rng.random(2 * g + 2)) / (2 * g + 2)
    qs = [(zq, ws.tracker.anchor(zq)) for zq in
          complex(np.mean(curve.branch_points)) + 1.9 * curve.scale() * np.exp(1j * ang)]
    rho = _cycle_periods(ws, cycles.a_cycles,
                         lambda z, y: np.stack([base.value(z, y, *q) for q in qs]), 1e-10)
    phi = np.array([[zq ** m / yq for m in range(g)] for zq, yq in qs])
    r_mat, _, rank, _ = np.linalg.lstsq(phi, rho.T, rcond=None)
    assert rank == g
    assert np.max(np.abs(phi @ r_mat - rho.T)) < 1e-12 * max(1.0, np.max(np.abs(rho)))
    corr = -r_mat.T @ pd.a_jacobian.T
    return 0.5 * (corr + corr.T)


@pytest.mark.parametrize("u0", [U0_G1, U0_G2, U0_G3] + _draws_g2(20, 29),
                         ids=["g1", "g2", "g3"] + [f"draw{i}" for i in range(20)])
def test_closed_form_correction_matches_sampled_fit(u0):
    # the correction from the A-period moments is the one a least-squares fit
    # of sampled A-periods finds, to rounding
    curve, cycles = _curve_and_cycles(u0)
    pd = periods(curve, cycles)
    corr = bergman_kernel(curve, cycles, pd).correction
    ref = _sampled_correction(curve, cycles, pd)
    assert np.max(np.abs(corr - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_corrupted_moment_fails_the_holomorphy_gate():
    # a moment off by delta leaves 1/2 f[0, 0] delta = q_0 delta / 2 in the
    # z_q^-2 coefficient of the A_1-period, which must vanish
    curve, cycles, pd = setup_g1()
    delta = 1e-3
    bad = pd.a_jacobian.copy()
    bad[0, 0] += delta
    with pytest.raises(NormalizationSolveFailed) as err:
        bergman_kernel(curve, cycles, replace(pd, a_jacobian=bad))
    m = re.fullmatch(r"A_1-period of the base kernel is not holomorphic in q: \|coefficient "
                     r"of z_q\^-2\| (\S+) against gate (\S+) \(largest term (\S+)\)",
                     str(err.value))
    assert m, str(err.value)
    coeff, gate, largest = map(float, m.groups())
    assert coeff == pytest.approx(abs(curve.q_coeffs[0]) * delta / 2, rel=1e-3)
    assert gate == pytest.approx(1e-6 * max(1.0, largest), rel=1e-3)
    assert coeff > gate and largest >= coeff


def test_f_at_matches_polyval2d():
    # Horner in z1 then z2 is the same arithmetic as polyval2d on the
    # broadcast points: bitwise equal for grids, scalars and mixed shapes
    curve, cycles = _curve_and_cycles(U0_G2)
    bk = bergman_kernel(curve, cycles, periods(curve, cycles))
    rng = np.random.default_rng(17)
    z1, z2 = (rng.standard_normal(64) + 1j * rng.standard_normal(64) for _ in range(2))
    cases = [(z1[:, None], z2[None, :]), (complex(z1[0]), complex(z2[0])),
             (z1, complex(z2[0])), (complex(z1[0]), z2), (z1, z2)]
    for a, b in cases:
        ref = npoly.polyval2d(*np.broadcast_arrays(np.asarray(a), np.asarray(b)), bk.f_coeffs)
        got = bk.f_at(a, b)
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_kernel_grid_memory_genus_two():
    # one 256 x 256 kernel grid, as in a chart-pair extraction; stacking the
    # broadcast points for polyval2d peaked at ~17 MB here
    curve, cycles = _curve_and_cycles(U0_G2)
    bk = bergman_kernel(curve, cycles, periods(curve, cycles))
    th = 2 * np.pi * np.arange(256) / 256
    z1 = complex(curve.branch_points[0]) + 0.2 * np.exp(1j * th)
    z2 = complex(curve.branch_points[2]) + 0.3 * np.exp(1j * th)
    y1, y2 = np.sqrt(curve.q_at(z1)), np.sqrt(curve.q_at(z2))
    tracemalloc.start()
    try:
        grid = bk.value(z1[:, None], y1[:, None], z2[None, :], y2[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (256, 256)
    assert peak < 10e6


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
