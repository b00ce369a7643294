"""Hyperelliptic curve family, cycles, period integrals and the normalized kernel.

The curve of genus g is y^2 = P(z)^2 - 4 L^{2g+2} with
P(z) = z^{g+1} + u_g z^{g-1} + ... + u_1, carrying the distinguished
residueless one-form dS = z P'(z) dz / y with double poles over z = infinity.
Holomorphic one-forms are spanned by z^{m-1} dz / y.

Cycles are realized as ellipses in the z-plane with branch points as foci:
A_i encircles the i-th branch cut, the clockwise chain loops C_i bridge
consecutive cuts, and B_i = s_i C_i + ... + s_g C_g with signs s_k = +-1.
Sheets are continued along each contour from the principal sheet
(y ~ +z^{g+1} at large |z|) in closed form: Q is monic, so along a straight
segment that misses every branch point e,
y(z1) = y(z0) prod_e sqrt((z1 - e) / (z0 - e)) with principal roots.  A
nearby curve reuses the reference nodes and takes at each the sign of
sqrt(Q) nearer the reference sheet, under a checked margin.  Period
integrals use the periodic trapezoidal rule on the ellipse parameter, which
converges geometrically for these analytic periodic integrands and nests:
the terms at N nodes give I_N and, from the even ones, I_{N/2}, so a
doubled level evaluates the integrand at its new nodes only.  The contours
of a cycle basis start at one level and double together, so they are
tracked, crossed and integrated in one stacked array pass per level, each
contour's numbers bitwise those it gets alone.

The normalized symmetric two-form is built from the classical algebraic
bidifferential

    B0 = (y1 y2 + f(z1, z2)) dz1 dz2 / (2 y1 y2 (z1 - z2)^2),

with f the symmetric polynomial satisfying f(z,z) = Q(z) and
d2 f(z,z) = Q'(z)/2, plus the holomorphic correction that cancels all
A-periods, exact in the A-period moments of z^j dz / y, j = 0..2g+2.
"""

from __future__ import annotations

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
    SwtrError,
)

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
    dp_coeffs: np.ndarray         # ascending, P'
    branch_points: np.ndarray     # 2g+2 roots of Q

    @functools.cached_property
    def ram_roots(self):
        """The g roots of P', computed on first read."""
        return np.roots(self.dp_coeffs[::-1])

    def p_at(self, z):
        return npoly.polyval(z, self.p_coeffs)

    def dp_at(self, z):
        return npoly.polyval(z, self.dp_coeffs)

    def q_at(self, z):
        return npoly.polyval(z, self.q_coeffs)

    @property
    def lam_pow(self):
        return self.Lambda ** (self.g + 1)

    def scale(self):
        return max(1.0, float(np.max(np.abs(self.branch_points))))


def new_curve(g, u, Lambda=1.0):
    """Validated curve; raises SingularCurve on colliding branch points.

    The one-row case of ``_new_curves``.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    u = tuple(complex(v) for v in u)
    if len(u) != g:
        raise ValueError(f"need {g} moduli for genus {g}")
    curve = _new_curves(g, [u], Lambda)[0]
    if isinstance(curve, SingularCurve):
        raise curve
    return curve


def _new_curves(g, us, Lambda):
    """The curves at the rows of ``us`` (K moduli tuples of length g).

    A row whose branch points collide, within 1e-8 max(1, max |e|), gets its
    SingularCurve in place of a curve.  The branch points e of all rows, the
    roots of P -+ 2 L^{g+1}, come from one ``np.linalg.eigvals`` over the
    companion matrices built as ``np.roots`` builds them, bitwise its roots.
    """
    us = np.asarray(us, dtype=complex).reshape(-1, g)
    lam = complex(Lambda) ** (g + 1)
    p = np.zeros((len(us), g + 2), dtype=complex)
    p[:, g + 1] = 1.0
    p[:, :g] = us                 # u_1 + u_2 z + ... + u_g z^{g-1}; no z^g term
    # [row, sign]: P -+ 2 L^{g+1}, highest degree first
    polys = np.stack([p[:, ::-1] - _shift_const(g, c) for c in (2 * lam, -2 * lam)], axis=1)
    comp = np.zeros(polys.shape[:2] + (g + 1, g + 1), dtype=complex)
    comp[..., np.arange(1, g + 1), np.arange(g)] = 1.0
    comp[..., 0, :] = -polys[..., 1:] / polys[..., :1]
    branch = np.linalg.eigvals(comp).reshape(len(us), 2 * g + 2)
    for r in np.flatnonzero((polys[..., -1] == 0).any(axis=1)):
        # np.roots splits off a zero root before it builds a smaller companion
        branch[r] = np.concatenate([np.roots(poly) for poly in polys[r]])
    scale = np.maximum(1.0, np.max(np.abs(branch), axis=1))
    ia, ib = np.triu_indices(2 * g + 2, 1)
    collide = np.abs(branch[:, ia] - branch[:, ib]) < 1e-8 * scale[:, None]
    dp = p[:, 1:] * np.arange(1, g + 2)        # npoly.polyder, row by row
    singular = collide.any(axis=1)
    Lambda, shift = complex(Lambda), 4.0 * lam ** 2
    curves = []
    for r, (row, u) in enumerate(zip(p, us.tolist())):
        if singular[r]:
            hit = np.flatnonzero(collide[r])[0]
            a, b = branch[r, ia[hit]], branch[r, ib[hit]]
            curves.append(SingularCurve(f"branch points {a:.6g} and {b:.6g} collide"))
            continue
        q = np.convolve(row, row)                 # npoly.polymul(row, row)
        q[0] -= shift
        curves.append(SWCurve(g=g, u=tuple(u), Lambda=Lambda, p_coeffs=row, q_coeffs=q,
                              dp_coeffs=dp[r], branch_points=branch[r]))
    return curves


def _shift_const(g, c):
    arr = np.zeros(g + 2, dtype=complex)
    arr[-1] = c
    return arr


# ---------------------------------------------------------------------------
# sheet tracking
# ---------------------------------------------------------------------------

class SheetTracker:
    """Continuation of y = sqrt(Q) in closed form, anchored on the principal sheet."""

    def __init__(self, curve):
        self.curve = curve

    @functools.cached_property
    def centroid(self):
        return complex(np.mean(self.curve.branch_points))

    @functools.cached_property
    def r_far(self):
        return 6.0 * max(1.0, float(np.max(np.abs(self.curve.branch_points - self.centroid))))

    def principal_far(self, z):
        gg = self.curve.g
        ratio = self.curve.q_at(z) / z ** (2 * gg + 2)
        return z ** (gg + 1) * np.sqrt(ratio)

    def _walk(self, z0, y0, z1):
        """y at each z1, the sign of sqrt(Q(z1)) nearer y0 times ``_continuation``'s factor
        along z0 -> z1, elementwise, and {segment: QuadratureNotConverged} of those refused."""
        factor, errors = _continuation(self.curve.branch_points, z0, z1)
        est = y0 * factor
        cand = np.sqrt(self.curve.q_at(z1))
        return np.where(np.abs(cand - est) <= np.abs(cand + est), cand, -cand)[()], errors

    def anchors(self, targets):
        """y at each of ``targets`` continued radially from the principal sheet far away.

        One segment from radius ``r_far`` per target, on the first turned ray
        that passes every branch point at ``_ANCHOR_GAP`` * scale or more; all
        targets' rays, far sheets and walks are one array pass each.  Returns the
        values and {target index: QuadratureNotConverged} of the targets that
        no ray reaches or whose walk is refused.
        """
        targets = np.asarray(targets, dtype=complex)
        e = self.curve.branch_points
        d = targets - self.centroid
        d = np.where(np.abs(d) < 1e-9, 1.0, d)
        d = d / np.abs(d)
        gap = _ANCHOR_GAP * self.curve.scale()
        rays = self.centroid + self.r_far * (d[:, None] * np.exp(1j * _ANCHOR_TURNS))
        clear = np.min(_segment_distance(rays[..., None], targets[:, None, None], e),
                       axis=-1) >= gap
        z_far = rays[np.arange(len(targets)), np.argmax(clear, axis=1)]
        ys, errors = self._walk(z_far, self.principal_far(z_far), targets)
        for i in np.flatnonzero(~clear.any(axis=1)):
            dists = np.abs(e - targets[i])
            near = int(np.argmin(dists))
            errors[int(i)] = QuadratureNotConverged(
                f"could not anchor sheet at {targets[i]:.6g}: every radial approach passes "
                f"within {gap:.3e} of a branch point; nearest branch point "
                f"{e[near]:.6g} at distance {dists[near]:.3e}")
        return ys, errors

    def track_along(self, zs, y_start):
        """Sheet values along ordered lists of points (closed or open), one per row of ``zs``.

        ``zs`` has the points on its last axis, and ``y_start`` one value
        per list.  Each node takes the sign of sqrt(Q) nearer its
        predecessor's value carried to it: times the factor of
        ``_continuation`` on a far step, longer than 0.15 times the distance
        from its start to the branch points, as it is on a near step.  So
        each list's sheet is one running product of flips along the last
        axis, and a node's y is exactly +-``np.sqrt(q_at(zs))``.  All lists
        share one evaluation of Q and one continuation of their far steps; a
        refused step raises the error of the first list in order.
        """
        zs = np.asarray(zs, dtype=complex)
        e = self.curve.branch_points
        cand = np.sqrt(self.curve.q_at(zs))
        dist = np.min(np.abs(zs[..., None, :-1] - e[:, None]), axis=-2)
        far = np.nonzero(np.abs(np.diff(zs)) > 0.15 * dist)
        factor, errors = _continuation(e, zs[..., :-1][far], zs[..., 1:][far])
        if errors:
            raise errors[min(errors)]
        prev = cand[..., :-1].copy()
        prev[far] *= factor
        flips = np.abs(cand[..., 1:] - prev) > np.abs(cand[..., 1:] + prev)
        first = np.abs(cand[..., :1] - np.asarray(y_start)[..., None]) > np.abs(
            cand[..., :1] + np.asarray(y_start)[..., None])
        signs = np.logical_xor.accumulate(np.concatenate([first, flips], axis=-1), axis=-1)
        return np.where(signs, -cand, cand)


# the turns of the ray from the centroid that ``SheetTracker.anchors`` tries, in order
_ANCHOR_TURNS = np.array([0.0, 0.15, -0.15, 0.35, -0.35])
# an anchor's ray passes every branch point at this times the curve's scale or more
_ANCHOR_GAP = 1e-6


# a segment is refused where pi - |arg r_e| is at most this for a branch point e
_SEGMENT_GATE = 1e-12


def _continuation(e, z0, z1):
    """y(z1) / y(z0) along the straight segments z0 -> z1 in closed form, and those refused.

    Q is monic, so y(z1) / y(z0) = prod_e sqrt(r_e), r_e = (z1 - e) / (z0 - e),
    each factor continued along the path: on a straight segment that misses
    e, arg(z - e) moves by less than pi, so that is the principal root.
    ``e`` has branch points on its last axis: one curve's for every segment,
    or a row per segment.  Returns the factors and {flat segment index:
    QuadratureNotConverged} where pi - |arg r_e| <= ``_SEGMENT_GATE``: z - e
    and the quotient are rounded to a few u = 2^-53, so arg r_e is off by
    about 1e-15, a thousandth of the gate.  A branch point at distance d from
    a segment of length L leaves pi - |arg r_e| >= about 4 d / L.
    """
    z0, z1 = np.asarray(z0)[..., None], np.asarray(z1)[..., None]
    r = (z1 - e) / (z0 - e)
    deficit = np.arctan2(np.abs(r.imag), -r.real)       # pi - |arg r|
    errors = {}
    if not (deficit > _SEGMENT_GATE).all():
        z0, z1, e, deficit = (a.reshape(-1, r.shape[-1])
                              for a in np.broadcast_arrays(z0, z1, e, deficit))
        for s in np.flatnonzero(~(deficit > _SEGMENT_GATE).all(axis=-1)):
            k = np.argmin(deficit[s])       # the refused branch point, or a nan
            errors[int(s)] = QuadratureNotConverged(
                f"sheet continuation from {z0[s, 0]:.6g} to {z1[s, 0]:.6g} meets branch point "
                f"{e[s, k]:.6g}: pi - |arg((z1 - e)/(z0 - e))| = {deficit[s, k]:.3e} "
                f"against gate {_SEGMENT_GATE:g}")
    return np.multiply.reduce(np.sqrt(r), axis=-1)[()], errors


def _segment_distance(a, b, p):
    ab = b - a
    t = np.minimum(np.maximum(((p - a) * np.conj(ab)).real / abs(ab) ** 2, 0.0), 1.0)
    return np.abs(a + t * ab - p)


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

class EllipseContour:
    """Ellipse with the two given points as foci: counterclockwise for ``orientation``
    +1, clockwise for -1, from the same start point."""

    def __init__(self, f1, f2, sigma, orientation=1, start_outward_from=None):
        self.f1 = complex(f1)
        self.f2 = complex(f2)
        self.center = 0.5 * (f1 + f2)
        self.u = 0.5 * (f2 - f1)
        self.sigma = float(sigma)
        self.orientation = orientation
        if start_outward_from is not None:
            d0 = abs(self.center + self.u * np.cosh(sigma) - start_outward_from)
            d1 = abs(self.center - self.u * np.cosh(sigma) - start_outward_from)
            if d0 < d1:
                self.u = -self.u

    def _theta(self, t):
        # clockwise, t and 1 - t mod 1 share a node grid t = k / N, N a power of two
        t = np.asarray(t)
        return 2.0 * np.pi * (t if self.orientation > 0 else (1.0 - t) % 1.0)

    def point(self, t):
        th = self._theta(t)
        return (self.center + self.u * (np.cos(th) * np.cosh(self.sigma)
                                        + 1j * np.sin(th) * np.sinh(self.sigma)))

    def velocity(self, t):
        th = self._theta(t)
        v = 2.0 * np.pi * self.u * (-np.sin(th) * np.cosh(self.sigma)
                                    + 1j * np.cos(th) * np.sinh(self.sigma))
        return v if self.orientation > 0 else -v


def _elliptic_sigma(p, center, u):
    """|Re arccosh((p - center) / u)|, elementwise over broadcast arrays."""
    return np.abs(np.arccosh(np.asarray((p - center) / u, dtype=complex)).real)


# ---------------------------------------------------------------------------
# quadrature workspace
# ---------------------------------------------------------------------------

# the trapezoidal rule's first level, and its cap: the reach of the 4096
# sixteen-node Gauss-Legendre panels it replaced
_START_NODES = 128
_MAX_NODES = 65536
# ``integrate`` takes its contours in blocks of as many as keep one component's
# values, rows times nodes at the first level, at most this many: a cycle
# basis on one curve is one block, and the line pass's 8g rows take two
# contours a block at genus 2 and one from genus 3.  The integrand's arrays
# then stay cache-sized: measured on verifies, larger blocks of 16 or 24 rows
# cost more per value than one contour alone
_BLOCK_VALUES = 4096


class _ContourNodes:
    """One level of a contour: N nodes t = k / N, weight 1 / N, and the sheets there.

    ``e`` holds the branch points of each row.  A row's sheet closure, from
    the last node back to the first, is computed when first read
    (``_read_closures``).  ``errors`` holds the rows that failed at this
    level, a derived sheet that misses its gate or a closure refused, for
    ``integrate`` to raise where a row needs the level.  On a derived level
    ``worst`` holds each row's largest sheet-gate ratio over the level and
    the node it is at.
    """

    __slots__ = ("z", "dzdt", "w", "y", "e", "errors", "worst", "_closure")

    def __init__(self, z, dzdt, y, e, errors=None, worst=None):
        self.z = z
        self.dzdt = dzdt
        self.w = 1.0 / len(z)
        self.y = y
        self.e = e                    # (K, 2g+2): the branch points of each row
        self.errors = errors or {}    # {row: exception}; a single curve is row 0
        self.worst = worst            # (ratio, node), one entry per row
        self._closure = np.full(len(e), np.nan)      # per row, nan until read


class CurveRows:
    """Nearby curves of one genus, evaluated together at the reference nodes.

    ``q_at(z)`` and ``dp_at(z)`` take nodes of shape (N,) and give one row per
    curve, shape (K, N); nodes of shape (C, 1, N) give (C, K, N).  Each entry
    is the Horner arithmetic of its row's own curve, per element.  Row r is
    bitwise ``rows[r].q_at(z)`` or ``rows[r].dp_at(z)`` on the same node
    array.  It need not be the scalar call on one node: numpy's vector
    complex multiply rounds differently from its scalar one at about half of
    all points, and a one-row workspace on one node rounds like the scalar
    call.
    """

    def __init__(self, curves):
        self.rows = list(curves)
        self.g = self.rows[0].g
        self.branch_points = np.array([c.branch_points for c in self.rows])   # (K, 2g+2)
        self._q, self._dp = (np.stack([getattr(c, f) for c in self.rows], axis=-1)[..., None]
                             for f in ("q_coeffs", "dp_coeffs"))

    def q_at(self, z):
        return _horner(z, self._q)

    def dp_at(self, z):
        return _horner(z, self._dp)


def _horner(z, c):
    """``npoly.polyval(z, c, tensor=False)`` in one array, bitwise.

    The same products and sums in the same order, each step written in
    place instead of into two new arrays.
    """
    out = c[-1] + z * 0
    for a in c[-2::-1]:
        out *= z
        out += a
    return out


class _RowsFailed(Exception):
    """Rows of a CurveRows workspace that failed, ``errors`` = {row: exception}."""

    def __init__(self, errors):
        super().__init__(errors)
        self.errors = errors


# a derived sheet value y = +-sqrt(Q) must sit clearly nearer the reference
# value than -y does: |y - y_ref| <= _SHEET_GATE * |y + y_ref|
_SHEET_GATE = 0.25


def _nearer_sheet(cand, y_ref, z):
    """+-cand, each entry on the sign nearer y_ref, and each row's worst ratio and its node.

    ``cand`` holds one row per curve for each of C contours, shape (C, K, N),
    against y_ref and the nodes z of shape (C, N); it is negated in place
    where -cand is nearer.  The ratio is the nearer distance over the farther
    one, nan where both are 0; a row's worst is its largest, or its first
    nan.  The worst ratios and their nodes have shape (C, K).
    """
    same, flip = np.abs(cand - y_ref[:, None]), np.abs(cand + y_ref[:, None])
    ratio = np.minimum(same, flip)
    ratio /= np.maximum(same, flip)
    worst = np.argmax(ratio, axis=-1)
    np.negative(cand, out=cand, where=~(same <= flip))
    contour, row = np.ogrid[:ratio.shape[0], :ratio.shape[1]]
    return cand, ratio[contour, row, worst], z[contour, worst]


def _sheet_errors(ratio, node, contour):
    """{row: OutOfNeighbourhood} of the rows whose worst ratio misses the gate."""
    return {int(r): OutOfNeighbourhood(
        f"sheet of the moved curve is ambiguous at node {node[r]:.6g} of the "
        f"contour with foci {contour.f1:.6g}, {contour.f2:.6g}: nearer/farther distance "
        f"to the reference sheet {ratio[r]:.3g} against gate {_SHEET_GATE:g}")
        for r in np.flatnonzero(~(ratio <= _SHEET_GATE))}


class QuadratureWorkspace:
    """Caches trapezoidal levels per (contour, node count), on the sheets of ``curve``.

    The levels of a list of contours at one node count are made together,
    in one array pass (``_fill``): a tracked workspace anchors and tracks
    the nodes of every contour at once, a derived one derives them at once.
    Each (contour, N) level is then kept on its own, where ``nodes``,
    ``integrate`` and ``quadrature_record`` read it.  ``integrate`` takes a
    list of contours and integrates them together.

    A workspace made by ``moved_to`` derives its sheets from the one it was
    moved from: it shares that workspace's nodes z and dz/dt, and at each
    node y is the sign of sqrt(Q) on the moved curve nearer the reference
    value.  The nearer sign must be at most ``_SHEET_GATE`` times the
    distance to the other, or the level records OutOfNeighbourhood for the
    row, which ``integrate`` raises where the row needs that level.  A level
    is tracked once on the reference and kept there.

    Moved to a ``CurveRows``, the workspace derives the sheets of K curves
    at once: y has shape (K, N), and the closure one entry per row, each
    row's closure on its own branch points.  A single moved curve is the
    one-row case.  A row that fails is recorded in the level's ``errors``
    instead of failing its neighbours.
    """

    def __init__(self, curve):
        self.curve = curve
        self._stacked = isinstance(curve, CurveRows)
        self._rows = curve if self._stacked else CurveRows([curve])
        self.tracker = SheetTracker(self._rows.rows[0])
        self._reference = None
        self._cache = {}
        self._anchors = {}            # start point -> y there, on a tracked workspace

    def moved_to(self, curve):
        """Workspace on the nearby ``curve`` (or ``CurveRows``), its sheets derived from this one's."""
        moved = QuadratureWorkspace(curve)
        moved._reference = self
        return moved

    def nodes(self, contour, n_panels):
        """Nodes, weight, sheets and sheet closure of ``contour`` at ``n_panels`` one-node panels."""
        self._fill([contour], n_panels)
        return self._cache[contour, n_panels]

    def _fill(self, contours, n_panels):
        """Make the levels at ``n_panels`` of ``contours`` not kept yet, in one pass."""
        todo = [c for c in dict.fromkeys(contours) if (c, n_panels) not in self._cache]
        if todo:
            make = self._tracked_levels if self._reference is None else self._derived_levels
            self._cache.update(((c, n_panels), d) for c, d in zip(todo, make(todo, n_panels)))

    def _tracked_levels(self, contours, n_panels):
        """The levels of ``contours``, tracked together.

        One ``SheetTracker.anchors`` pass over the start points not anchored
        yet, then one ``track_along`` over the (C, N) nodes.  A failure
        raises the error of the first contour in order, its anchor's before
        its track's, as tracking the contours one by one would.
        """
        t = np.arange(n_panels) / n_panels
        z = np.array([c.point(t) for c in contours])
        starts = [complex(s) for s in z[:, 0]]
        new = [s for s in dict.fromkeys(starts) if s not in self._anchors]
        anchored, errors = self.tracker.anchors(new) if new else ((), {})
        self._anchors.update((s, y) for i, (s, y) in enumerate(zip(new, anchored))
                             if i not in errors)
        bad = next((i for i, s in enumerate(starts) if s not in self._anchors), len(starts))
        if bad:
            ys = self.tracker.track_along(z[:bad],
                                          np.array([self._anchors[s] for s in starts[:bad]]))
        if bad < len(starts):
            raise errors[new.index(starts[bad])]
        return [_ContourNodes(zc, c.velocity(t), yc, self._rows.branch_points)
                for c, zc, yc in zip(contours, z, ys)]

    def _derived_levels(self, contours, n_panels):
        """The moved sheets at the reference nodes of the levels of ``contours``.

        The even nodes of a doubled level are the level below: where it is
        kept, only the new odd nodes are derived, and a row's worst ratio is
        the larger of the two halves'.  So a refusal names the worst node of
        the whole level.  The contours whose level below is kept, and those
        derived at every node, are one array pass each.
        """
        self._reference._fill(contours, n_panels)
        refs = [self._reference._cache[c, n_panels] for c in contours]
        below = [self._cache.get((c, n_panels // 2)) if n_panels % 2 == 0 else None
                 for c in contours]
        out = [None] * len(contours)
        for doubled in (False, True):
            idx = [i for i, b in enumerate(below) if (b is not None) == doubled]
            if not idx:
                continue
            step = slice(1, None, 2) if doubled else slice(None)
            z, y_ref = (np.stack([getattr(refs[i], f)[step] for i in idx]) for f in ("z", "y"))
            ys, ratio, node = _nearer_sheet(np.sqrt(self._rows.q_at(z[:, None])), y_ref, z)
            if doubled:
                fresh = ys
                ys = np.empty(fresh.shape[:-1] + (n_panels,), dtype=complex)
                ys[..., ::2] = np.stack([np.atleast_2d(below[i].y) for i in idx])
                ys[..., 1::2] = fresh
                kept_ratio, kept_node = (np.stack([below[i].worst[k] for i in idx]) for k in (0, 1))
                keep = (kept_ratio >= ratio) | np.isnan(kept_ratio)
                ratio, node = np.where(keep, kept_ratio, ratio), np.where(keep, kept_node, node)
            for j, i in enumerate(idx):
                out[i] = _ContourNodes(
                    refs[i].z, refs[i].dzdt, ys[j] if self._stacked else ys[j, 0],
                    self._rows.branch_points, _sheet_errors(ratio[j], node[j], contours[i]),
                    (ratio[j], node[j]))
        return out

    def integrate(self, contours, integrand, tol=1e-10, start_panels=_START_NODES,
                  max_panels=_MAX_NODES):
        """Integrals of integrand(z, y) dz over closed contours by the periodic trapezoidal rule.

        Returns one integral per contour of ``contours``, on the leading
        axis.  The contours share each pass: at each N the levels of the
        contours still open are made together (``_fill``), and the integrand
        is called once on all their nodes laid end to end, z of shape (C N,)
        and y of shape (C N,), or (K, C N) on a CurveRows workspace.  It may
        return an array whose last axis runs over those nodes.  The contours
        are taken in blocks of consecutive contours that keep rows times
        nodes at most ``_BLOCK_VALUES`` at the first level: one block for a
        cycle basis on one curve.  N doubles from ``start_panels`` while it
        is at most ``max_panels``; the first level always runs.  The terms at
        N nodes give I_N and, twice the sum over the even nodes, I_{N/2}.
        The even nodes of a doubled level are the level below, so the
        integrand is evaluated only at the N/2 new ones, interleaved with the
        kept terms halved (exact: the weight halves).

        Each (component, row, contour) entry is accepted at the first N where
        the row's sheets close on that contour and its own |I_N - I_{N/2}|
        passes the gate, and keeps I_N, so it equals, bitwise, the integral
        of that component alone over that contour alone.  A contour leaves
        the pass once all its entries are accepted.  On a CurveRows workspace
        the last axis of each contour's value runs over the rows.  The
        closure is read, so computed, only for rows still open on a contour.
        A row that fails at a level it still needs (its derived sheet, its
        closure, or the cap) stops on that contour while the others go on;
        its error is the one on the first contour in order it fails on, the
        one integrating the contours one after another would raise.  On a
        CurveRows workspace ``_RowsFailed`` names each failing row's error;
        a single curve raises its own.
        """
        values, errors = [], {}
        size = max(1, _BLOCK_VALUES // (len(self._rows.rows) * start_panels))
        for lo in range(0, len(contours), size):
            vals, failed = self._pass(contours[lo:lo + size], integrand, tol, start_panels,
                                      max_panels)
            values += vals
            errors.update(((lo + c, r), exc) for (c, r), exc in failed.items())
        if errors:
            first = {}
            for c, r in sorted(errors):
                first.setdefault(r, errors[c, r])
            raise _RowsFailed(first) if self._stacked else first[0]
        return np.array(values)

    def _pass(self, contours, integrand, tol, start_panels, max_panels):
        """``integrate`` over one block of contours, sharing each level.

        Returns each contour's value and {(contour, row): error} of the rows
        that failed on a contour.
        """
        n_rows, values, errors = len(self._rows.rows), [None] * len(contours), {}
        live = list(range(len(contours)))      # the contours with an entry still open
        out = done = terms = None              # [component, row, live contour]
        n = start_panels
        while True:
            self._fill([contours[c] for c in live], n)
            levels = [self.nodes(contours[c], n) for c in live]
            terms = _level_terms(levels, integrand, terms)
            val = terms.sum(axis=-1)
            shape = val.shape[:-1]
            delta = np.abs(val - 2.0 * terms[..., ::2].sum(axis=-1))
            gate = tol * np.maximum(1.0, np.abs(val))
            val, delta, gate = (a.reshape(-1, n_rows, len(live)) for a in (val, delta, gate))
            need = np.ones((n_rows, len(live)), dtype=bool) if done is None else ~done.all(axis=0)
            closure, failed = _read_closures(levels, need)
            accepted = (delta <= gate) & (closure < 1e-8)
            if failed.any():
                for r, i in zip(*np.nonzero(failed)):
                    errors[live[i], int(r)] = levels[i].errors[r]
                accepted |= failed
            out = val if done is None else np.where(done, out, val)
            done = accepted if done is None else done | accepted
            finished = done.all(axis=(0, 1))
            if finished.all():
                break
            if 2 * n > max_panels:
                for r, i in zip(*np.nonzero(~done.all(axis=0))):
                    errors[live[i], int(r)] = _not_converged(n, delta[:, r, i], gate[:, r, i],
                                                             done[:, r, i], closure[r, i])
                break
            if finished.any():
                for i in np.flatnonzero(finished):
                    values[live[i]] = out[..., i].reshape(shape)
                keep = ~finished
                out, done, terms = out[..., keep], done[..., keep], terms[..., keep, :]
                live = [c for c, f in zip(live, finished) if not f]
            n *= 2
        for i, c in enumerate(live):
            values[c] = out[..., i].reshape(shape)
        return values, errors


def quadrature_record(cycles):
    """The rule, its first level and cap, and per contour (A_i, then the chain
    loops C_i) the largest node count any integral on it used, here or on a
    moved workspace: the level its most demanding integral converged at."""
    conts = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
    names = [f"{x}_{i + 1}" for x in "AC" for i in range(len(cycles.chain_loops))]
    return {"rule": "periodic trapezoidal on the ellipse parameter, nested doubling",
            "start_nodes": _START_NODES, "max_nodes": _MAX_NODES,
            "nodes": {name: max(n for k, n in cycles.workspace._cache if k is c)
                      for name, c in zip(names, conts)}}


def _level_terms(levels, integrand, below):
    """w f(z, y) dz/dt at the nodes of ``levels``, one per contour at one N, given the terms
    ``below`` or None.

    The integrand is called once on the contours' nodes laid end to end, and
    its values are split into a contour axis before the node axis: terms of
    shape (..., C, N).  With the level below, the integrand is evaluated at
    the odd nodes only, and the even nodes take the kept terms times 1/2:
    the weight 1/N is half the weight below, and scaling by 2 is exact.
    Each value rounds as in an evaluation of its contour alone at every
    node: numpy's array arithmetic rounds an element alike whatever the
    array's length or layout.
    """
    step = slice(None) if below is None else slice(1, None, 2)
    z, y, dzdt = (_joined([getattr(d, f)[..., step] for d in levels]) for f in ("z", "y", "dzdt"))
    fresh = np.multiply(levels[0].w, integrand(z, y), dtype=complex)
    fresh *= dzdt                 # in place: no second array of terms
    fresh = fresh.reshape(fresh.shape[:-1] + (len(levels), -1))
    if below is None:
        return fresh
    terms = np.empty(fresh.shape[:-1] + (2 * fresh.shape[-1],), dtype=complex)
    np.multiply(below, 0.5, out=terms[..., ::2])
    terms[..., 1::2] = fresh
    return terms


def _joined(arrays):
    """The arrays laid end to end on their last axis, as one contiguous array."""
    return np.ascontiguousarray(arrays[0]) if len(arrays) == 1 else np.concatenate(arrays, axis=-1)


def _read_closures(levels, need):
    """(closure, failed), each [row, level]: the sheet closures of the rows ``need`` marks.

    ``need`` [row, level] marks the rows to read.  Those not computed yet,
    nor failed, are computed in one ``_closure`` call over all the levels and
    kept on their level; a row whose closure fails becomes its entry in the
    level's ``errors``.  ``closure`` holds every row computed so far, nan
    for the others; ``failed`` marks the rows of ``need`` that have an
    error at their level.
    """
    closure = np.array([d._closure for d in levels]).T
    failed = np.zeros(need.shape, dtype=bool)
    for i, d in enumerate(levels):
        if d.errors:
            failed[list(d.errors), i] = True
    rows, at = np.nonzero(need & np.isnan(closure) & ~failed)
    if len(rows):
        ends = np.array([np.atleast_2d(d.y)[:, [-1, 0]] for d in levels])     # [level, row, end]
        z = np.array([(d.z[-1], d.z[0]) for d in levels])
        e = np.array([d.e for d in levels])
        closure[rows, at], errors = _closure(e[at, rows], z[at, 0], z[at, 1], ends[at, rows, 0],
                                             ends[at, rows, 1])
        for k, exc in errors.items():
            closure[rows[k], at[k]] = np.nan
            levels[at[k]].errors[int(rows[k])] = exc
            failed[rows[k], at[k]] = True
        for i, d in enumerate(levels):
            d._closure[:] = closure[:, i]
    return closure, failed & need


def _closure(e, z_last, z_start, y_last, y0):
    """Relative mismatch of y continued from a contour's last node back to its start, per entry.

    Entry i carries ``y_last[i]`` from ``z_last[i]`` to ``z_start[i]`` by
    ``_continuation`` on the branch points ``e[i]``; it lands on the sign of
    ``y0[i]``, the value at the start, nearer it, so a closure is 0 or 2.
    Returns the closures and {entry: QuadratureNotConverged} of the
    continuations refused.
    """
    factor, errors = _continuation(e, z_last, z_start)
    est = y_last * factor
    return np.where(np.abs(y0 - est) <= np.abs(y0 + est), 0.0, 2.0), errors


def _not_converged(last, delta, gate, done, closure):
    worst = np.argmax(np.where(done, -np.inf, delta / gate))   # flat component index
    return QuadratureNotConverged(
        f"contour integral did not converge by {last} nodes: worst |delta| = "
        f"{delta.flat[worst]:.3e} against gate {gate.flat[worst]:.3e} (component {worst}), "
        f"sheet closure {closure:.3e} against 1e-08")


# ---------------------------------------------------------------------------
# cycle construction
# ---------------------------------------------------------------------------

@dataclass
class CycleBasis:
    """A/B cycles as [(coef, contour)] composites, oriented by their coefficients."""

    a_cycles: list                # list of [(coef, contour)] composites
    b_cycles: list
    chain_loops: list             # the C_i building blocks of the B's, clockwise
    cuts: list                    # list of (e1, e2) branch-point pairs
    intersection_matrix: np.ndarray = None
    workspace: QuadratureWorkspace = None


def _segments_cross(a1, a2, b1, b2):
    """Whether segment a1-a2 properly crosses b1-b2; elementwise on arrays."""
    def orient(p, q, r):
        return np.sign(((q - p) * np.conj(r - p)).imag)
    return ((orient(a1, a2, b1) * orient(a1, a2, b2) < 0)
            & (orient(b1, b2, a1) * orient(b1, b2, a2) < 0))


def build_cycles(curve):
    """Symplectic homology basis from the branch-cut chain.

    Pairing is nearest-neighbour on the argument-sorted branch points with a
    crossing check.  A_i rings cut i counterclockwise; the chain loop C_i
    rings the bridge between cuts i and i+1 clockwise, and B_i = s_i C_i +
    ... + s_g C_g, the sign s_k = +-1 the crossing count of A_k with C_k:
    orientation lives in these coefficients only.  A contour whose start
    lies within the anchor gap of a branch point is refused before any
    tracking.  The intersection matrix is verified combinatorially with
    sheet-aware crossing counts: every A_i is crossed with every C_j as
    polygons of the nodes of their first quadrature level, which the
    integrals then read.  That level is tracked for all 2g contours in one
    pass, and the g x g crossing counts are one array pass
    (``_intersection_matrix``).
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

    cuts, _ = min((pairing(offset) for offset in (0, 1)), key=lambda pair: pair[1])
    if cuts is None:
        raise CycleConstructionFailed("no non-crossing adjacent pairing of branch cuts")
    g = curve.g
    gap = _ANCHOR_GAP * curve.scale()

    def ellipse(f1, f2, orientation):
        # 0.55 of the way to the nearest foreign branch point in elliptic sigma, at most 1.2;
        # start_outward_from's turn of the frame keeps every sigma, so all stay outside
        others = pts[(np.abs(pts - f1) > 1e-12) & (np.abs(pts - f2) > 1e-12)]
        sig = _elliptic_sigma(others, 0.5 * (f1 + f2), 0.5 * (f2 - f1))
        k = np.argmin(sig)
        cont = EllipseContour(f1, f2, min(0.55 * sig[k], 1.2), orientation,
                              start_outward_from=centroid)
        dist = np.min(np.abs(pts - cont.point(0.0)))
        if dist < gap:
            raise CycleConstructionFailed(
                f"contour with foci {f1:.6g}, {f2:.6g} is too thin to anchor: sigma {cont.sigma:.3g}, "
                f"nearest foreign branch point {others[k]:.6g} at elliptic sigma {sig[k]:.3g}; its "
                f"start lies {dist:.3e} from a branch point, inside the anchor gap {gap:.3e}")
        return cont

    a_conts = [ellipse(*cut, 1) for cut in cuts[:g]]
    c_conts = [ellipse(cuts[i][1], cuts[i + 1][0], -1) for i in range(g)]

    ws = QuadratureWorkspace(curve)
    x_mat = _intersection_matrix(ws, a_conts, c_conts)
    sign = np.diag(x_mat).tolist()
    for j, s in enumerate(sign):
        if abs(s) != 1:
            raise CycleConstructionFailed(f"A_{j} and C_{j} do not intersect once (got {s})")
    x_mat *= sign                   # [i, j] = A_i . s_j C_j
    m_int = np.array([[sum(x_mat[i, j:]) for j in range(g)] for i in range(g)])
    if not np.allclose(m_int, np.eye(g)):
        raise CycleConstructionFailed(f"intersection matrix {m_int} is not the identity")

    a_cycles = [[(1.0, c)] for c in a_conts]
    b_cycles = [[(sign[k], c_conts[k]) for k in range(i, g)] for i in range(g)]
    return CycleBasis(a_cycles=a_cycles, b_cycles=b_cycles, chain_loops=c_conts,
                      cuts=cuts, intersection_matrix=m_int, workspace=ws)


def _intersection_matrix(ws, a_conts, c_conts):
    """[i, j] = sheet-aware signed crossing count of A contour i with chain loop j.

    Each contour is the polygon of its first quadrature level's nodes, all
    tracked in one pass.  Every pair is counted in one array pass: the
    segments of the A contours that meet the bounding box of a chain loop
    are paired with those of the chain loops that meet the box of an A
    contour where their own boxes meet; a proper crossing counts its
    orientation for its pair (i, j) where the sheets interpolated to it agree.
    """
    conts = a_conts + c_conts
    ws._fill(conts, _START_NODES)
    z, y = (np.array([getattr(ws._cache[c, _START_NODES], f) for c in conts]) for f in "zy")
    n_a, n = len(a_conts), z.shape[-1]
    box = _segment_boxes(z)                                    # (4, contour, segment)
    hull = np.array([box[0].min(-1), box[1].max(-1), box[2].min(-1), box[3].max(-1)])
    box = box.reshape(4, -1)                                   # segment c n + k
    sa = np.flatnonzero(_boxes_meet(box[:, :n_a * n, None], hull[:, None, n_a:]).any(axis=1))
    sb = n_a * n + np.flatnonzero(
        _boxes_meet(box[:, n_a * n:, None], hull[:, None, :n_a]).any(axis=1))
    ia, ib = np.nonzero(_boxes_meet(box[:, sa, None], box[:, None, sb]))
    sa, sb = sa[ia], sb[ib]
    z, y = z.reshape(-1), y.reshape(-1)
    ea, eb = sa + 1 - n * ((sa + 1) % n == 0), sb + 1 - n * ((sb + 1) % n == 0)   # segment ends
    cross = _segments_cross(z[sa], z[ea], z[sb], z[eb])
    sa, sb, ea, eb = sa[cross], sb[cross], ea[cross], eb[cross]
    a1, a2, b1, b2 = z[sa], z[ea], z[sb], z[eb]
    da, db = a2 - a1, b2 - b1
    denom = (np.conj(da) * db).imag
    # crossing parameters
    s = ((b1 - a1) * np.conj(db)).imag / (da * np.conj(db)).imag
    ya_c = y[sa] * (1 - s) + y[ea] * s
    tpar = ((a1 - b1) * np.conj(da)).imag / (db * np.conj(da)).imag
    yb_c = y[sb] * (1 - tpar) + y[eb] * tpar
    agree = np.abs(ya_c - yb_c) < np.abs(ya_c + yb_c)
    n_c = len(c_conts)
    pair = (sa // n) * n_c + (sb // n - n_a)
    return np.bincount(pair[agree], weights=np.sign(denom[agree]),
                       minlength=n_a * n_c).reshape(n_a, n_c)


def _segment_boxes(z):
    """[4, ..., n]: min and max real part, then min and max imaginary part, of each
    z[..., i] -> z[..., i+1], the last segment closing the polygon."""
    z2 = np.roll(z, -1, axis=-1)
    return np.array([np.minimum(z.real, z2.real), np.maximum(z.real, z2.real),
                     np.minimum(z.imag, z2.imag), np.maximum(z.imag, z2.imag)])


def _boxes_meet(p, q):
    return (p[0] <= q[1]) & (q[0] <= p[1]) & (p[2] <= q[3]) & (q[2] <= p[3])


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


def ds_sw(curve):
    return lambda z, y: z * curve.dp_at(z) / y


def _workspace_for(curve, cycles):
    """The quadrature workspace of ``cycles``, which must sit on ``curve``."""
    if cycles.workspace.curve is not curve:
        raise ValueError(
            "the cycles' quadrature workspace belongs to another curve; "
            "pass the cycles that invert_a_map returns with the moved curve")
    return cycles.workspace


def _cycle_periods(ws, cycle_list, form, tol):
    """[i, ...] = period of the (array-valued) form over cycle_list[i].

    The distinct contours of the cycles are integrated together, in one
    ``integrate`` call, each once however many cycles contain it; a cycle's
    period sums its terms in order.
    """
    conts = list(dict.fromkeys(k for cycle in cycle_list for _, k in cycle))
    vals = dict(zip(conts, ws.integrate(conts, form, tol)))
    return np.array([sum(c * vals[k] for c, k in cycle) for cycle in cycle_list])


_PERIOD_TOL = 1e-10


def _period_form(curve):
    """The g holomorphic forms and dS stacked: one integrand for every period.

    Written into one array, dS first, so a stack of K curves holds no second
    copy of the (g + 1, K, N) values.
    """
    g, ds = curve.g, ds_sw(curve)

    def form(z, y):
        d = ds(z, y)
        out = np.empty((g + 1,) + d.shape, dtype=complex)
        for m in range(g):
            np.divide(z ** m, y, out=out[m])
        out[g] = d
        return out
    return form


def _period_data(g, a_per, b_per):
    """One PeriodData per row of the A passes ``a_per`` and B passes ``b_per``, each (K, g, g + 1).

    The rows are stacked through the inversion, tau and its gates.  A row
    whose A-period matrix is singular, or whose tau is asymmetric or has an
    imaginary part that is not positive definite, gets its SwtrError in
    place of its PeriodData.
    """
    m_mat, a_vec = a_per[..., :g], a_per[..., g]
    phib, b_vec = b_per[..., :g], b_per[..., g]
    errors = {}
    try:
        x_mat = np.linalg.inv(m_mat)
    except np.linalg.LinAlgError:
        x_mat = np.zeros_like(m_mat)
        for r, m in enumerate(m_mat):
            try:
                x_mat[r] = np.linalg.inv(m)
            except np.linalg.LinAlgError as exc:
                errors[r] = NormalizationSolveFailed(f"A-period matrix singular: {exc}")
    # tau[r, i, j] = phib[r, j] @ x[r, :, i], bitwise; vecdot conjugates its first argument
    tau = np.vecdot(np.conj(x_mat.swapaxes(1, 2))[:, :, None], phib[:, None])
    asym = np.max(np.abs(tau - tau.swapaxes(1, 2)), axis=(1, 2))
    gate = 1e-6 * np.maximum(1.0, np.max(np.abs(tau), axis=(1, 2)))
    eig = np.linalg.eigvalsh(0.5 * (tau.imag + tau.imag.swapaxes(1, 2))).min(axis=1)
    out = []
    for r in range(len(tau)):
        if r in errors:
            out.append(errors[r])
        elif asym[r] > gate[r]:
            out.append(CycleConstructionFailed(f"period matrix asymmetry {asym[r]:.3e}"))
        elif eig[r] <= 0:
            out.append(CycleConstructionFailed("period matrix has non-positive imaginary part"))
        else:
            out.append(PeriodData(a=a_vec[r], b=b_vec[r], tau=tau[r], norm_matrix=x_mat[r],
                                  a_jacobian=m_mat[r]))
    return out


def periods(curve, cycles):
    """A/B-periods of dS, the normalization matrix and the period matrix.

    One pass integrates the g holomorphic forms and dS, as one stacked
    integrand, over the A contours and the chain loops together, each chain
    loop C_k once; B_i = C_i + ... + C_g is summed from those integrals.
    """
    ws, form, g = _workspace_for(curve, cycles), _period_form(curve), curve.g
    per = _cycle_periods(ws, cycles.a_cycles + cycles.b_cycles, form, _PERIOD_TOL)
    pd, = _period_data(g, per[None, :g], per[None, g:])
    if isinstance(pd, SwtrError):
        raise pd
    return pd


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
        # Horner in z1 first keeps z1's own shape for each power of z2; the z2
        # pass then broadcasts, so no (g+3)-fold stack of the full grid is made
        inner = npoly.polyval(np.asarray(z1), self.f_coeffs)
        return npoly.polyval(np.asarray(z2), inner, tensor=False)

    def value(self, z1, y1, z2, y2):
        """Kernel against dz1 dz2 at two points given with their sheets."""
        # einsum broadcasts the two points' shapes; no copy of the grid is made
        w1, w2 = (np.stack([omega_value(self.pd, j, z, y) for j in range(self.curve.g)])
                  for z, y in ((z1, y1), (z2, y2)))
        return ((y1 * y2 + self.f_at(z1, z2)) / (2.0 * y1 * y2 * (z1 - z2) ** 2)
                + np.einsum("jk,j...,k...->...", self.correction, w1, w2))


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


def bergman_kernel(curve, cycles, pd):
    """Normalized kernel: algebraic base plus the A-period-cancelling correction.

    With M_i[j] the A_i-period of z^j dz / y, the y_p y_q term exact in z_p
    and 1 / (z - z_q)^2 expanded at z_q = infinity, y_q times the A_i-period
    of B0(., q) is sum_e c_i[e] z_q^e, c_i[e] = 1/2 sum_{a, b >= e + 2} f[a, b]
    (b - e - 1) M_i[a + b - e - 2].  The correction cancels c_i[0..g-1];
    c_i[-1] and c_i[-2] vanish, the period being holomorphic in q, and are gated.
    """
    g = curve.g
    f_coeffs = _f_polynomial(curve.q_coeffs, g)
    high = _cycle_periods(_workspace_for(curve, cycles), cycles.a_cycles,
                          lambda z, y: np.stack([z ** j for j in range(g, 2 * g + 3)]) / y,
                          _PERIOD_TOL)
    moments = np.concatenate([pd.a_jacobian, high], axis=1)
    e = np.arange(-2, g)[:, None, None]
    a, b = np.arange(g + 2)[:, None], np.arange(g + 2)      # f has no row or column g + 2
    # terms[i, e + 2, a, b]: the summands of c_i[e]
    terms = (0.5 * f_coeffs[:g + 2, :g + 2] * np.where(b >= e + 2, b - e - 1, 0)
             * moments[:, np.maximum(a + b - e - 2, 0)])
    coeffs = terms.sum(axis=(2, 3))
    largest = np.abs(terms).max(axis=(2, 3))
    gate = 1e-6 * np.maximum(1.0, largest)
    bad = np.argwhere(np.abs(coeffs[:, :2]) > gate[:, :2])
    if len(bad):
        i, k = bad[0]
        raise NormalizationSolveFailed(
            f"A_{i + 1}-period of the base kernel is not holomorphic in q: |coefficient of "
            f"z_q^{k - 2}| {abs(coeffs[i, k]):.3e} against gate {gate[i, k]:.3e} "
            f"(largest term {largest[i, k]:.3e})")
    corr = -coeffs[:, 2:] @ pd.a_jacobian.T     # in the omega basis
    asym = float(np.max(np.abs(corr - corr.T)))
    if asym > 1e-7 * max(1.0, float(np.max(np.abs(corr)))):
        raise NormalizationSolveFailed(f"correction matrix asymmetry {asym:.3e}")
    corr = 0.5 * (corr + corr.T)
    return BergmanData(curve=curve, cycles=cycles, pd=pd, f_coeffs=f_coeffs,
                       correction=corr)


# ---------------------------------------------------------------------------
# moduli <-> A-period inversion
# ---------------------------------------------------------------------------

def _neighbourhood_violations(curves, cycles):
    """For each curve, why a branch point is not inside the contours around its cut only, or None.

    One array pass over every contour and every curve's branch points; a
    curve's message names its first offending point on its first offending
    contour, A contours first, then the chain loops.
    """
    if not curves:
        return []
    pts = np.array([c.branch_points for c in curves])                  # (R, P)
    conts = [c for cycle in cycles.a_cycles for _, c in cycle] + cycles.chain_loops
    f1, f2, center, u, sigma = (np.array([getattr(c, f) for c in conts])[:, None, None]
                                for f in ("f1", "f2", "center", "u", "sigma"))
    # [contour, curve, branch point]
    cont_i, row_i = np.ogrid[:len(conts), :len(pts)]
    own = np.zeros((len(conts),) + pts.shape, dtype=bool)
    for f in (f1, f2):
        own[cont_i, row_i, np.argmin(np.abs(pts - f), axis=-1)] = True
    sig = _elliptic_sigma(pts, center, u)
    wrong = ((sig < sigma) != own).swapaxes(0, 1).reshape(len(pts), -1)   # contours, then points
    first = np.argmax(wrong, axis=1)
    out = [None] * len(pts)
    for r in np.flatnonzero(wrong.any(axis=1)):
        c, i = divmod(int(first[r]), pts.shape[1])
        out[r] = (f"branch point {pts[r, i]:.6g} at elliptic sigma {sig[c, r, i]:.3g} is "
                  f"{'outside' if own[c, r, i] else 'inside'} the reference contour of "
                  f"sigma {conts[c].sigma:.3g} with foci {conts[c].f1:.6g}, {conts[c].f2:.6g}")
    return out


def _moved_periods(cycles0, curves, cycle_list, tol):
    """Periods of ``_period_form`` over ``cycle_list`` on each of ``curves``, moved from cycles0.

    ``curves`` holds what ``_new_curves`` gives, a curve or its SingularCurve
    per row.  The curves are checked against the reference contours, then
    one ``_cycle_periods`` pass on ``cycles0.workspace.moved_to(CurveRows(...))``
    integrates the K rows over the C distinct contours together.  Returns
    (per, {row: exception}): per of shape (K, cycle, form) when no row
    failed, else None.  No row's values or error depend on which other rows
    share the pass.
    """
    errors = {i: c for i, c in enumerate(curves) if not isinstance(c, SWCurve)}
    built = [i for i in range(len(curves)) if i not in errors]
    outside = _neighbourhood_violations([curves[i] for i in built], cycles0)
    errors.update((i, OutOfNeighbourhood(why)) for i, why in zip(built, outside) if why)
    if errors:
        return None, errors
    ws = cycles0.workspace.moved_to(CurveRows(curves))
    try:
        per = _cycle_periods(ws, cycle_list, _period_form(ws.curve), tol)
    except _RowsFailed as exc:
        return None, exc.errors
    return np.ascontiguousarray(np.moveaxis(per, -1, 0)), {}


def line_periods(curve0, cycles0, pd0, r, nodes):
    """Periods at the moduli u0 + r w v_k for each modulus k and each w of ``nodes``, k outer.

    v_k = J^-1 e_k with J = da/du = -``pd0.a_jacobian``, so the line
    s -> u0 + s v_k leaves a0 with velocity e_k: d/ds at s = 0 is d/da_k.
    These are the first Newton trials of ``invert_a_map`` towards
    a0 + r w e_k; nothing is solved.  The g len(nodes) curves are built at
    once, and one ``_moved_periods`` pass integrates ``_period_form`` over
    the A and B cycles together at ``_PERIOD_TOL``, on sheets derived from
    the reference nodes; one ``_period_data`` takes every row.  The first
    failing node's SingularCurve, OutOfNeighbourhood, QuadratureNotConverged
    or PeriodData error is raised, naming the node.  Returns one PeriodData
    per node.
    """
    _workspace_for(curve0, cycles0)
    g, n = curve0.g, len(nodes)
    v = np.linalg.solve(-pd0.a_jacobian, np.eye(g))
    us = [np.array(curve0.u) + r * w * v[:, k] for k in range(g) for w in nodes]

    def failed(errors):
        i = min(errors)
        k, j = divmod(i, n)
        where = ", ".join(f"{x:.6g}" for x in us[i])
        return type(errors[i])(
            f"line node {j} of modulus {k + 1} at u = ({where}): {errors[i]}")

    per, errors = _moved_periods(cycles0, _new_curves(g, us, curve0.Lambda),
                                 cycles0.a_cycles + cycles0.b_cycles, _PERIOD_TOL)
    if errors:
        raise failed(errors)
    pds = _period_data(g, per[:, :g], per[:, g:])
    errors = {i: pd for i, pd in enumerate(pds) if isinstance(pd, SwtrError)}
    if errors:
        raise failed(errors)
    return pds


def invert_a_map(curve0, cycles0, pd0, a_targets, tol=1e-10):
    """Damped Newton solves for moduli u with a(u) = t from curve0, one per row t of ``a_targets``.

    ``pd0`` holds the periods of curve0 on cycles0; each solve starts from
    its A-periods and Jacobian, with no integral on curve0.  The Jacobian is
    d a^i / d u^j = - A-period of z^{j-1} dz / y; the minus sign follows from
    dS = +z P' dz / y and the fixed variational identity
    d(dS)/du^j|_z = -z^{j-1} dz/y + d(z^j / y).  The reference contours are
    reused, valid for targets in a small neighbourhood, and every trial
    curve's sheets are derived from the reference nodes.

    The targets are solved one after another, each in its own loop of at
    most 50 Newton steps.  A step is accepted when its trial strictly
    lowers max |t - a|, else it is halved, at most 5 times.  Each trial
    curve is built and integrated by ``_moved_periods``: the g holomorphic
    forms and dS over the A-cycles at ``tol``.  A trial outside the contours,
    or whose derived sheet misses the margin gate, is a failed damping step,
    and OutOfNeighbourhood is raised when the damping ends on one.  The
    first failing target's error is raised.

    Returns one ``(curve, cycles, pd)`` per row: the moved curve, the
    reference contours with ``cycles0.workspace.moved_to(curve)``, and the
    periods there, what ``periods(curve, cycles)`` gives; ``pd`` reuses the
    accepted trial's A pass, integrated at ``tol``, with one B pass.

    The verifier does not call it: its derivative nodes sit on lines in
    u-space (``line_periods``), where no a-target needs solving.
    """
    _workspace_for(curve0, cycles0)
    g = curve0.g
    a_targets = np.asarray(a_targets, dtype=complex)
    if a_targets.ndim != 2 or a_targets.shape[1] != g:
        raise ValueError(f"a_targets must be a (K, {g}) array, got shape {a_targets.shape}")
    out = []
    for target in a_targets:
        scale = max(1.0, float(np.max(np.abs(target))))
        u, curve, a_per = np.array(curve0.u, dtype=complex), curve0, None
        err, m_mat, step = target - pd0.a, pd0.a_jacobian, 1.0
        for steps in itertools.count():
            if steps == 50:
                raise QuadratureNotConverged(
                    f"Newton iteration for a -> u did not converge in 50 steps: max |err| "
                    f"{np.max(np.abs(err)):.3e} against tol*scale {tol * scale:.3e}, "
                    f"last step {step:g} x |du| {np.max(np.abs(du)):.3e}")
            if float(np.max(np.abs(err))) < tol * scale:
                break
            du, step = np.linalg.solve(-m_mat, err), 1.0
            for _ in range(5):
                trial, = _new_curves(g, [u + step * du], curve0.Lambda)
                per, errors = _moved_periods(cycles0, [trial], cycles0.a_cycles, tol)
                if errors and not isinstance(errors[0], OutOfNeighbourhood):
                    raise errors[0]
                if not errors and np.max(np.abs(target - per[0, :, g])) < np.max(np.abs(err)):
                    u, curve, a_per = u + step * du, trial, per[0]
                    err, m_mat = target - a_per[:, g], a_per[:, :g]
                    break
                step *= 0.5
            else:
                if errors:
                    raise errors[0]
                raise QuadratureNotConverged(
                    f"Newton damping failed for a -> u: max |err| {np.max(np.abs(err)):.3e} "
                    f"against tol*scale {tol * scale:.3e}, no decrease down to step "
                    f"{2 * step:g} x |du| {np.max(np.abs(du)):.3e}")
        if a_per is None:
            out.append((curve0, cycles0, pd0))
            continue
        b_per, errors = _moved_periods(cycles0, [curve], cycles0.b_cycles, _PERIOD_TOL)
        if errors:
            raise errors[0]
        pd, = _period_data(g, a_per[None], b_per)
        if isinstance(pd, SwtrError):
            raise pd
        out.append((curve, replace(cycles0, workspace=cycles0.workspace.moved_to(curve)), pd))
    return out
