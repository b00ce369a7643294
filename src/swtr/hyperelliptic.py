"""Hyperelliptic curve family, cycles, period integrals and the normalized kernel.

The curve of genus g is y^2 = P(z)^2 - 4 L^{2g+2} with
P(z) = z^{g+1} + u_g z^{g-1} + ... + u_1, carrying the distinguished
residueless one-form dS = z P'(z) dz / y with double poles over z = infinity.
Holomorphic one-forms are spanned by z^{m-1} dz / y.

Cycles are realized as ellipses in the z-plane with branch points as foci:
A_i encircles the i-th branch cut, the chain loops C_i bridge consecutive
cuts, and B_i = C_i + C_{i+1} + ... + C_g.  Sheets are tracked by analytic
continuation of y along each contour, anchored on the principal sheet
(y ~ +z^{g+1} at large |z|).  All period integrals use composite
Gauss-Legendre panels with adaptive doubling.

The normalized symmetric two-form is built from the classical algebraic
bidifferential

    B0 = (y1 y2 + f(z1, z2)) dz1 dz2 / (2 y1 y2 (z1 - z2)^2),

with f the symmetric polynomial satisfying f(z,z) = Q(z) and
d2 f(z,z) = Q'(z)/2, plus the holomorphic correction that cancels all
A-periods.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    CycleConstructionFailed,
    NormalizationSolveFailed,
    OutOfNeighbourhood,
    QuadratureNotConverged,
    SingularCurve,
)

@functools.cache
def _gl_nodes():
    x, w = np.polynomial.legendre.leggauss(16)
    return 0.5 * (x + 1.0), 0.5 * w   # 16-point nodes/weights on [0, 1]


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

@dataclass
class SWCurve:
    g: int
    u: tuple
    Lambda: complex
    p_coeffs: np.ndarray          # ascending, degree g+1
    q_coeffs: np.ndarray          # ascending, P^2 - 4 L^{2g+2}
    branch_points: np.ndarray     # 2g+2 roots of Q
    ram_roots: np.ndarray         # g roots of P'

    def p_at(self, z):
        return npoly.polyval(z, self.p_coeffs)

    def dp_at(self, z):
        return npoly.polyval(z, npoly.polyder(self.p_coeffs))

    def q_at(self, z):
        return npoly.polyval(z, self.q_coeffs)

    @property
    def lam_pow(self):
        return self.Lambda ** (self.g + 1)

    def scale(self):
        return max(1.0, float(np.max(np.abs(self.branch_points))))


def new_curve(g, u, Lambda=1.0, tol=1e-8):
    """Validated curve; raises SingularCurve on colliding branch points."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    u = tuple(complex(v) for v in u)
    if len(u) != g:
        raise ValueError(f"need {g} moduli for genus {g}")
    p = np.zeros(g + 2, dtype=complex)
    p[g + 1] = 1.0
    for i, ui in enumerate(u):
        p[i] = ui             # u_1 + u_2 z + ... + u_g z^{g-1}; no z^g term
    lam = complex(Lambda) ** (g + 1)
    q = npoly.polymul(p, p)
    q[0] -= 4.0 * lam ** 2
    plus = np.roots(np.array(p[::-1], dtype=complex) - _shift_const(g, 2 * lam))
    minus = np.roots(np.array(p[::-1], dtype=complex) - _shift_const(g, -2 * lam))
    branch = np.concatenate([plus, minus])
    scale = max(1.0, float(np.max(np.abs(branch))))
    for a, b in itertools.combinations(range(len(branch)), 2):
        if abs(branch[a] - branch[b]) < tol * scale:
            raise SingularCurve(
                f"branch points {branch[a]:.6g} and {branch[b]:.6g} collide")
    ram = np.roots(npoly.polyder(p)[::-1])
    return SWCurve(g=g, u=u, Lambda=complex(Lambda), p_coeffs=p, q_coeffs=q,
                   branch_points=branch, ram_roots=ram)


def _shift_const(g, c):
    arr = np.zeros(g + 2, dtype=complex)
    arr[-1] = c
    return arr


def ramification_w_values(curve, i):
    """The two w-values over the i-th critical point of P."""
    zi = curve.ram_roots[i]
    p0 = curve.p_at(zi)
    y0 = np.sqrt(p0 ** 2 - 4.0 * curve.lam_pow ** 2)
    lam = curve.lam_pow
    return (p0 + y0) / (2.0 * lam), (p0 - y0) / (2.0 * lam)


# ---------------------------------------------------------------------------
# sheet tracking
# ---------------------------------------------------------------------------

class SheetTracker:
    """Analytic continuation of y = sqrt(Q) with a principal-sheet anchor."""

    def __init__(self, curve):
        self.curve = curve
        self.centroid = complex(np.mean(curve.branch_points))
        self.r_far = 6.0 * max(1.0, float(np.max(np.abs(curve.branch_points - self.centroid))))

    def principal_far(self, z):
        gg = self.curve.g
        ratio = self.curve.q_at(z) / z ** (2 * gg + 2)
        return z ** (gg + 1) * np.sqrt(ratio)

    def walk_segment(self, z0, y0, z1):
        """Continue y from (z0, y0) to z1 along the straight segment."""
        z = z0
        y = y0
        total = abs(z1 - z0)
        if total == 0:
            return y0
        pos = 0.0
        guard = 0
        while pos < total:
            dist = float(np.min(np.abs(z - self.curve.branch_points)))
            step = max(min(0.2 * dist, total - pos), 1e-12)
            pos = min(pos + step, total)
            z = z0 + (z1 - z0) * (pos / total)
            cand = np.sqrt(self.curve.q_at(z))
            y = cand if abs(cand - y) <= abs(cand + y) else -cand
            guard += 1
            if guard > 200000:
                raise QuadratureNotConverged("sheet walk did not terminate")
        return y

    def anchor(self, z_target):
        """y at z_target continued radially from the principal sheet far away."""
        d = z_target - self.centroid
        if abs(d) < 1e-9:
            d = 1.0
        d = d / abs(d)
        for rot in (0.0, 0.15, -0.15, 0.35, -0.35):
            dd = d * np.exp(1j * rot)
            z_far = self.centroid + self.r_far * dd
            seg_ok = True
            for e in self.curve.branch_points:
                if _segment_distance(z_far, z_target, e) < 1e-6 * self.curve.scale():
                    seg_ok = False
                    break
            if seg_ok:
                return self.walk_segment(z_far, self.principal_far(z_far), z_target)
        raise QuadratureNotConverged("could not anchor sheet at target point")

    def track_along(self, zs, y_start):
        """Sheet values along an ordered list of points (closed or open)."""
        ys = np.empty(len(zs), dtype=complex)
        y = y_start
        prev = zs[0]
        for i, z in enumerate(zs):
            if i and abs(z - prev) > 0.15 * float(np.min(np.abs(prev - self.curve.branch_points))):
                y = self.walk_segment(prev, y, z)
            else:
                cand = np.sqrt(self.curve.q_at(z))
                y = cand if abs(cand - y) <= abs(cand + y) else -cand
            ys[i] = y
            prev = z
        return ys


def _segment_distance(a, b, p):
    ab = b - a
    t = np.clip(((p - a) * np.conj(ab)).real / abs(ab) ** 2, 0.0, 1.0)
    return abs(a + t * ab - p)


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

class EllipseContour:
    """Ellipse with the two given points as foci, counterclockwise unless reversed."""

    def __init__(self, f1, f2, sigma, start_outward_from=None):
        self.f1 = complex(f1)
        self.f2 = complex(f2)
        self.center = 0.5 * (f1 + f2)
        self.u = 0.5 * (f2 - f1)
        self.sigma = float(sigma)
        self.orientation = 1
        if start_outward_from is not None:
            d0 = abs(self.center + self.u * np.cosh(sigma) - start_outward_from)
            d1 = abs(self.center - self.u * np.cosh(sigma) - start_outward_from)
            if d0 < d1:
                self.u = -self.u

    def reversed(self):
        """Copy traversed the other way: evaluated at 1 - t, velocity negated."""
        out = copy.copy(self)
        out.orientation = -self.orientation
        return out

    def _theta(self, t):
        t = np.asarray(t)
        return 2.0 * np.pi * (t if self.orientation > 0 else 1.0 - t)

    def point(self, t):
        th = self._theta(t)
        return (self.center + self.u * (np.cos(th) * np.cosh(self.sigma)
                                        + 1j * np.sin(th) * np.sinh(self.sigma)))

    def velocity(self, t):
        th = self._theta(t)
        v = 2.0 * np.pi * self.u * (-np.sin(th) * np.cosh(self.sigma)
                                    + 1j * np.cos(th) * np.sinh(self.sigma))
        return v if self.orientation > 0 else -v

    def elliptic_sigma(self, p):
        """Elliptic radial coordinate of p in this focal frame."""
        w = (p - self.center) / self.u
        return abs(np.arccosh(complex(w)).real)

    def contains(self, p):
        return self.elliptic_sigma(p) < self.sigma


# ---------------------------------------------------------------------------
# quadrature workspace
# ---------------------------------------------------------------------------

class _ContourNodes:
    __slots__ = ("z", "dzdt", "w", "y", "closure")

    def __init__(self, z, dzdt, w, y, closure):
        self.z = z
        self.dzdt = dzdt
        self.w = w
        self.y = y
        self.closure = closure


class QuadratureWorkspace:
    """Caches Gauss-Legendre nodes per (contour, panel count), on the sheets of ``curve``."""

    def __init__(self, curve):
        self.curve = curve
        self.tracker = SheetTracker(curve)
        self._cache = {}
        self._anchor_cache = {}

    def _anchor_for(self, contour):
        if contour not in self._anchor_cache:
            z0 = complex(contour.point(0.0))
            self._anchor_cache[contour] = self.tracker.anchor(z0)
        return self._anchor_cache[contour]

    def track(self, contour, t):
        """Points of ``contour`` at parameters ``t`` and y continued along them."""
        z = contour.point(t)
        z_start = complex(contour.point(0.0))
        y_first = self.tracker.walk_segment(z_start, self._anchor_for(contour), complex(z[0]))
        return z, self.tracker.track_along(z, y_first)

    def nodes(self, contour, n_panels):
        key = (contour, n_panels)
        data = self._cache.get(key)
        if data is None:
            xs, ws = _gl_nodes()
            t = (np.arange(n_panels)[:, None] + xs[None, :]).ravel() / n_panels
            w = np.tile(ws, n_panels) / n_panels
            z, ys = self.track(contour, t)
            dzdt = contour.velocity(t)
            y0 = self._anchor_for(contour)
            z_start = complex(contour.point(0.0))
            y_close = self.tracker.walk_segment(complex(z[-1]), ys[-1], z_start)
            closure = abs(y_close - y0) / max(abs(y0), 1e-30)
            data = _ContourNodes(z, dzdt, w, ys, closure)
            self._cache[key] = data
        return data

    def integrate(self, contour, integrand, tol=1e-10, start_panels=8,
                  max_panels=4096):
        """Adaptive integral of integrand(z, y) dz over a closed contour."""
        prev = None
        n = start_panels
        while n <= max_panels:
            data = self.nodes(contour, n)
            val = np.sum(data.w * integrand(data.z, data.y) * data.dzdt)
            if data.closure < 1e-8 and prev is not None \
                    and abs(val - prev) <= tol * max(1.0, abs(val)):
                return val
            prev = val
            n *= 2
        raise QuadratureNotConverged(
            f"contour integral did not converge below {tol}")

    def integrate_cycle(self, cycle, integrand, tol=1e-10):
        """Integral over a composite cycle [(coef, contour), ...]."""
        return sum(c * self.integrate(k, integrand, tol) for c, k in cycle)


# ---------------------------------------------------------------------------
# cycle construction
# ---------------------------------------------------------------------------

@dataclass
class CycleBasis:
    a_cycles: list                # list of [(coef, contour)] composites
    b_cycles: list
    chain_loops: list             # the C_i building blocks of the B's
    cuts: list                    # list of (e1, e2) branch-point pairs
    intersection_matrix: np.ndarray = None
    workspace: QuadratureWorkspace = None


def _segments_cross(a1, a2, b1, b2):
    def orient(p, q, r):
        return np.sign(((q - p) * np.conj(r - p)).imag)
    return (orient(a1, a2, b1) * orient(a1, a2, b2) < 0
            and orient(b1, b2, a1) * orient(b1, b2, a2) < 0)


def ram_guards(curve, factor=0.55):
    """Exclusion discs (center, radius) around the ramification z-roots.

    The radius is the z-plane image of ``factor`` times the chart annulus
    scale, estimated from the leading chart coefficients; contours used for
    period quadrature must stay outside so that local coefficient extraction
    never collides with them.
    """
    guards = []
    for zi in curve.ram_roots:
        p0 = npoly.polyval(zi, curve.p_coeffs)
        y0 = abs(np.sqrt(p0 ** 2 - 4.0 * curve.lam_pow ** 2))
        ddp = npoly.polyval(zi, npoly.polyder(curve.p_coeffs, 2))
        root_scale = abs(np.sqrt(2.0 / ddp))
        lead = (root_scale / y0) ** (1.0 / 3.0)
        cands = [abs(npoly.polyval(zj, curve.p_coeffs) - p0)
                 for zj in curve.ram_roots if abs(zj - zi) > 1e-12]
        cands += [abs(2.0 * curve.lam_pow - p0), abs(-2.0 * curve.lam_pow - p0)]
        d_min = lead * min(cands) ** 0.5
        dz_detabar = root_scale / lead
        guards.append((complex(zi), factor * d_min * dz_detabar))
    return guards


def _make_ellipse(curve, f1, f2, others, centroid, guards=(), sigma_cap=1.2):
    probe = EllipseContour(f1, f2, 1.0)
    sig_others = [probe.elliptic_sigma(e) for e in others]
    sig_max = min(sig_others) if sig_others else sigma_cap / 0.55
    sigma = min(0.55 * sig_max, sigma_cap)
    ths = np.linspace(0.0, 1.0, 160, endpoint=False)
    while sigma >= 0.06:
        cont = EllipseContour(f1, f2, sigma, start_outward_from=centroid)
        pts = cont.point(ths)
        clear = all(float(np.min(np.abs(pts - c))) > r for c, r in guards)
        if clear:
            for e in others:
                if cont.contains(e):
                    raise CycleConstructionFailed(
                        "ellipse swallowed a foreign branch point")
            return cont
        sigma *= 0.8
    raise CycleConstructionFailed(
        f"cut ({f1:.3g}, {f2:.3g}) cannot clear the ramification discs")


def build_cycles(curve):
    """Symplectic homology basis from the branch-cut chain.

    Pairing is nearest-neighbour on the argument-sorted branch points with a
    crossing check.  A_i rings cut i; the chain loop C_i rings the bridge
    between cuts i and i+1; B_i = C_i + ... + C_g.  The intersection matrix
    is verified combinatorially with sheet-aware crossing counts.
    """
    pts = np.array(curve.branch_points)
    centroid = complex(np.mean(pts))
    order_idx = np.argsort(np.angle(pts - centroid))
    sorted_pts = pts[order_idx]
    n = len(sorted_pts)

    def pairing(offset):
        cuts = [(sorted_pts[(2 * i + offset) % n], sorted_pts[(2 * i + 1 + offset) % n])
                for i in range(n // 2)]
        total = sum(abs(b - a) for a, b in cuts)
        for (a1, a2), (b1, b2) in itertools.combinations(cuts, 2):
            if _segments_cross(a1, a2, b1, b2):
                return None, np.inf
        return cuts, total

    best = None
    for offset in (0, 1):
        cuts, total = pairing(offset)
        if cuts is not None and (best is None or total < best[1]):
            best = (cuts, total)
    if best is None:
        raise CycleConstructionFailed("no non-crossing adjacent pairing of branch cuts")
    cuts = best[0]
    g = curve.g
    guards = ram_guards(curve)

    def foreign(f1, f2):
        return [e for e in pts if abs(e - f1) > 1e-12 and abs(e - f2) > 1e-12]

    a_conts = []
    c_conts = []
    for i in range(g):
        a_conts.append(_make_ellipse(curve, cuts[i][0], cuts[i][1],
                                     foreign(*cuts[i]), centroid, guards))
    for i in range(g):
        f1, f2 = cuts[i][1], cuts[i + 1][0]
        c_conts.append(_make_ellipse(curve, f1, f2, foreign(f1, f2),
                                     centroid, guards))

    ws = QuadratureWorkspace(curve)
    x_mat = np.zeros((g, g))
    for i in range(g):
        for j in range(g):
            x_mat[i, j] = _intersection_number(ws, a_conts[i], c_conts[j])
    for j in range(g):
        if x_mat[j, j] == -1:
            c_conts[j] = c_conts[j].reversed()
            x_mat[:, j] *= -1
        elif x_mat[j, j] != 1:
            raise CycleConstructionFailed(
                f"A_{j} and C_{j} do not intersect once (got {x_mat[j, j]})")
    m_int = np.zeros((g, g))
    for i in range(g):
        for j in range(g):
            m_int[i, j] = sum(x_mat[i, k] for k in range(j, g))
    if not np.allclose(m_int, np.eye(g)):
        raise CycleConstructionFailed(f"intersection matrix {m_int} is not the identity")

    a_cycles = [[(1.0, c)] for c in a_conts]
    b_cycles = [[(1.0, c_conts[k]) for k in range(i, g)] for i in range(g)]
    return CycleBasis(a_cycles=a_cycles, b_cycles=b_cycles, chain_loops=c_conts,
                      cuts=cuts, intersection_matrix=m_int, workspace=ws)


def _intersection_number(ws, cont_a, cont_b):
    n = 600
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    za, ya = ws.track(cont_a, t)
    zb, yb = ws.track(cont_b, t)
    za2 = np.roll(za, -1)
    zb2 = np.roll(zb, -1)
    total = 0
    # vectorized bounding prefilter
    amin = np.minimum(za.real, za2.real)[:, None]
    amax = np.maximum(za.real, za2.real)[:, None]
    bmin = np.minimum(zb.real, zb2.real)[None, :]
    bmax = np.maximum(zb.real, zb2.real)[None, :]
    cand = (amin <= bmax) & (bmin <= amax)
    aimin = np.minimum(za.imag, za2.imag)[:, None]
    aimax = np.maximum(za.imag, za2.imag)[:, None]
    bimin = np.minimum(zb.imag, zb2.imag)[None, :]
    bimax = np.maximum(zb.imag, zb2.imag)[None, :]
    cand &= (aimin <= bimax) & (bimin <= aimax)
    for i, j in zip(*np.nonzero(cand)):
        a1, a2 = za[i], za2[i]
        b1, b2 = zb[j], zb2[j]
        if not _segments_cross(a1, a2, b1, b2):
            continue
        da, db = a2 - a1, b2 - b1
        denom = (np.conj(da) * db).imag
        # crossing parameters
        s = ((b1 - a1) * np.conj(db)).imag / (da * np.conj(db)).imag
        ya_c = ya[i] * (1 - s) + ya[(i + 1) % n] * s
        tpar = ((a1 - b1) * np.conj(da)).imag / (db * np.conj(da)).imag
        yb_c = yb[j] * (1 - tpar) + yb[(j + 1) % n] * tpar
        if abs(ya_c - yb_c) < abs(ya_c + yb_c):
            total += int(np.sign(denom))
    return total


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

@dataclass
class PeriodData:
    a: np.ndarray
    b: np.ndarray
    tau: np.ndarray
    norm_matrix: np.ndarray       # omega_j = sum_m norm[m, j] z^{m-1} dz / y
    a_jacobian: np.ndarray        # d a^i / d u^j = A-periods of z^{j-1} dz / y


def _holomorphic_forms(g):
    """z^{m-1} / y for m = 1..g: the holomorphic one-forms against dz."""
    return [lambda z, y, m=m: z ** (m - 1) / y for m in range(1, g + 1)]


def ds_sw(curve):
    return lambda z, y: z * curve.dp_at(z) / y


def _workspace_for(curve, cycles):
    """The quadrature workspace of ``cycles``, which must sit on ``curve``."""
    if cycles.workspace.curve is not curve:
        raise ValueError(
            "the cycles' quadrature workspace belongs to another curve; "
            "pass the cycles that invert_a_map returns with the moved curve")
    return cycles.workspace


def _cycle_periods(ws, cycle_list, forms, tol):
    """[i, f] = period of forms[f] over cycle_list[i]."""
    return np.array([[ws.integrate_cycle(c, f, tol) for f in forms] for c in cycle_list])


def periods(curve, cycles):
    """A/B-periods of dS, the normalization matrix and the period matrix."""
    g = curve.g
    tol = 1e-10
    ws = _workspace_for(curve, cycles)
    forms = _holomorphic_forms(g)
    m_mat = _cycle_periods(ws, cycles.a_cycles, forms, tol)
    try:
        x_mat = np.linalg.inv(m_mat)
    except np.linalg.LinAlgError as exc:
        raise NormalizationSolveFailed(f"A-period matrix singular: {exc}") from exc
    a_vec = _cycle_periods(ws, cycles.a_cycles, [ds_sw(curve)], tol)[:, 0]
    b_vec = _cycle_periods(ws, cycles.b_cycles, [ds_sw(curve)], tol)[:, 0]
    phib = _cycle_periods(ws, cycles.b_cycles, forms, tol)
    tau = np.zeros((g, g), dtype=complex)
    for i in range(g):
        for j in range(g):
            tau[i, j] = phib[j] @ x_mat[:, i]
    asym = float(np.max(np.abs(tau - tau.T)))
    if asym > 1e-6 * max(1.0, float(np.max(np.abs(tau)))):
        raise CycleConstructionFailed(f"period matrix asymmetry {asym:.3e}")
    eig = np.linalg.eigvalsh(0.5 * (tau.imag + tau.imag.T))
    if np.min(eig) <= 0:
        raise CycleConstructionFailed("period matrix has non-positive imaginary part")
    return PeriodData(a=a_vec, b=b_vec, tau=tau, norm_matrix=x_mat, a_jacobian=m_mat)


def omega_value(pd, j, z, y):
    """Normalized holomorphic form omega_j against dz at (z, y)."""
    g = pd.norm_matrix.shape[0]
    mono = np.stack([np.asarray(z) ** (m - 1) for m in range(1, g + 1)])
    return np.tensordot(pd.norm_matrix[:, j], mono, axes=(0, 0)) / y


def residue_at_infinity(curve):
    """|loop integral| of dS on a huge circle; vanishes for residueless poles."""
    n = 4096
    r = 40.0 * curve.scale()
    th = 2.0 * np.pi * np.arange(n) / n
    z = r * np.exp(1j * th)
    y = SheetTracker(curve).principal_far(z)
    f = z * curve.dp_at(z) / y
    dz = 1j * z * 2.0 * np.pi / n
    return abs(np.sum(f * dz)) / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# normalized symmetric two-form
# ---------------------------------------------------------------------------

@dataclass
class BergmanData:
    curve: SWCurve
    cycles: CycleBasis
    pd: PeriodData
    f_coeffs: np.ndarray          # f(z1, z2) = sum f[i, j] z1^i z2^j
    correction: np.ndarray        # sum c[j, k] omega_j (x) omega_k

    def f_at(self, z1, z2):
        z1b, z2b = np.broadcast_arrays(np.asarray(z1), np.asarray(z2))
        return npoly.polyval2d(z1b, z2b, self.f_coeffs)

    def base_value(self, z1, y1, z2, y2):
        return (y1 * y2 + self.f_at(z1, z2)) / (2.0 * y1 * y2 * (z1 - z2) ** 2)

    def value(self, z1, y1, z2, y2):
        """Kernel against dz1 dz2 at two points given with their sheets."""
        val = self.base_value(z1, y1, z2, y2)
        g = self.curve.g
        w1 = np.stack([np.broadcast_to(omega_value(self.pd, j, z1, y1), np.shape(val))
                       for j in range(g)])
        w2 = np.stack([np.broadcast_to(omega_value(self.pd, j, z2, y2), np.shape(val))
                       for j in range(g)])
        return val + np.einsum("jk,j...,k...->...", self.correction, w1, w2)


def _f_polynomial(q_coeffs, g):
    """Symmetric f with f(z,z) = Q(z), d2 f(z,z) = Q'(z)/2."""
    q = np.zeros(2 * g + 4, dtype=complex)
    q[: len(q_coeffs)] = q_coeffs
    f = np.zeros((g + 3, g + 3), dtype=complex)
    for i in range(g + 2):
        f[i, i] += q[2 * i]
        f[i + 1, i] += 0.5 * q[2 * i + 1]
        f[i, i + 1] += 0.5 * q[2 * i + 1]
    return f


def bergman_kernel(curve, cycles, pd, seed=11):
    """Normalized kernel: algebraic base plus the A-period-cancelling correction."""
    g = curve.g
    tol = 1e-10
    ws = _workspace_for(curve, cycles)
    f_coeffs = _f_polynomial(curve.q_coeffs, g)
    base = BergmanData(curve=curve, cycles=cycles, pd=pd, f_coeffs=f_coeffs,
                       correction=np.zeros((g, g), dtype=complex))
    rng = np.random.default_rng(seed)
    r_q = 1.9 * curve.scale()
    n_samp = 2 * g + 2
    qs = []
    for t in range(n_samp):
        ang = 2.0 * np.pi * (t + 0.3 * rng.random()) / n_samp
        zq = complex(np.mean(curve.branch_points)) + r_q * np.exp(1j * ang)
        yq = ws.tracker.anchor(zq)
        qs.append((zq, yq))
    rho = _cycle_periods(ws, cycles.a_cycles,
                         [lambda z, y, q=q: base.base_value(z, y, *q) for q in qs], tol)
    phi_mat = np.array([[f(zq, yq) for f in _holomorphic_forms(g)] for zq, yq in qs])
    r_mat, res, rank, _ = np.linalg.lstsq(phi_mat, rho.T, rcond=None)
    r_mat = r_mat.T            # rho_i = sum_m r_mat[i, m] phi_m
    if rank < g:
        raise NormalizationSolveFailed("sample system for A-period data is rank-deficient")
    fit_err = float(np.max(np.abs(phi_mat @ r_mat.T - rho.T)))
    if fit_err > 1e-6 * max(1.0, float(np.max(np.abs(rho)))):
        raise NormalizationSolveFailed(
            f"A-periods of the base kernel are not holomorphic in q (residual {fit_err:.3e})")
    rho_omega = r_mat @ pd.a_jacobian.T   # coefficients in the omega basis
    corr = -rho_omega
    asym = float(np.max(np.abs(corr - corr.T)))
    if asym > 1e-7 * max(1.0, float(np.max(np.abs(corr)))):
        raise NormalizationSolveFailed(f"correction matrix asymmetry {asym:.3e}")
    corr = 0.5 * (corr + corr.T)
    return BergmanData(curve=curve, cycles=cycles, pd=pd, f_coeffs=f_coeffs,
                       correction=corr)


# ---------------------------------------------------------------------------
# moduli <-> A-period inversion
# ---------------------------------------------------------------------------

def _check_neighbourhood(curve, cycles):
    """Each branch point of ``curve`` inside the reference contours around its cut only."""
    pts = curve.branch_points
    for cont in [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops:
        own = {int(np.argmin(np.abs(pts - f))) for f in (cont.f1, cont.f2)}
        for i, e in enumerate(pts):
            sig = cont.elliptic_sigma(e)
            if (sig < cont.sigma) != (i in own):
                raise OutOfNeighbourhood(
                    f"branch point {e:.6g} at elliptic sigma {sig:.3g} is "
                    f"{'outside' if i in own else 'inside'} the reference contour of "
                    f"sigma {cont.sigma:.3g} with foci {cont.f1:.6g}, {cont.f2:.6g}")


def invert_a_map(curve0, cycles0, a_target, tol=1e-10):
    """Damped Newton solve for moduli u with a(u) = a_target, from curve0.

    The Jacobian is d a^i / d u^j = - A-period of z^{j-1} dz / y; the minus
    sign follows from dS = +z P' dz / y and the fixed variational identity
    d(dS)/du^j|_z = -z^{j-1} dz/y + d(z^j / y).  The reference cycle contours
    are reused, valid for targets in a small neighbourhood; OutOfNeighbourhood
    is raised when a moved branch point leaves it.

    Returns ``(curve, cycles)``: the moved curve and the reference contours
    paired with a quadrature workspace on that curve, ready for ``periods``.
    """
    u = np.array(curve0.u, dtype=complex)
    a_target = np.asarray(a_target, dtype=complex)
    a_cycles = cycles0.a_cycles
    curve, cycles = curve0, cycles0
    err = a_target - _cycle_periods(cycles.workspace, a_cycles, [ds_sw(curve)], tol)[:, 0]
    scale = max(1.0, float(np.max(np.abs(a_target))))
    for _ in range(50):
        if float(np.max(np.abs(err))) < tol * scale:
            _check_neighbourhood(curve, cycles0)
            return curve, cycles
        m_mat = _cycle_periods(cycles.workspace, a_cycles, _holomorphic_forms(curve.g), tol)
        du = np.linalg.solve(-m_mat, err)
        step = 1.0
        for _ in range(5):
            u_try = u + step * du
            curve_try = new_curve(curve0.g, u_try, curve0.Lambda)
            cycles_try = replace(cycles0, workspace=QuadratureWorkspace(curve_try))
            a_try = _cycle_periods(cycles_try.workspace, a_cycles, [ds_sw(curve_try)], tol)
            err_try = a_target - a_try[:, 0]
            if float(np.max(np.abs(err_try))) < float(np.max(np.abs(err))):
                u, curve, cycles, err = u_try, curve_try, cycles_try, err_try
                break
            step *= 0.5
        else:
            raise QuadratureNotConverged("Newton damping failed for a -> u")
    raise QuadratureNotConverged("Newton iteration for a -> u did not converge")
