"""Standard-coordinate charts at ramification points and local/global data.

At each critical point z_i of P the curve carries two ramification points of
the foliation projection, labeled (i, +1) and (i, -1) by the sheet of
y = sqrt(P^2 - 4 L^{2g+2}).  The standard coordinate etabar is built so that
the reference curve takes the normal form (x = etabar^2, y = etabar) in an
adapted chart: with eta^2 = P(z) - P(z_i),

    etabar_s(eta)^3 = 3 s * int_0^eta  tau z_odd(tau) / y_plus(tau) dtau,

cube root chosen with positive leading coefficient, so etabar_- = -etabar_+.
The induced one-form satisfies dS(etabar) - dS(-etabar) = 4 etabar^2 detabar
exactly, which is verified coefficientwise at construction time.  The g upper
charts of a curve are built as one stack of coefficient arrays, one row per
critical point, by the one-variable helpers of ``laurent``; each chart's
series are then single LaurentSeries wraps of its rows.

Local expansions compute the kernel's regular part s^{(k,a)(k',b)} and the
Taylor data c^{k,a}_j of the normalized holomorphic forms by truncated series
algebra on the chart series, in one and two variables.  The global embedding
of a nearby curve, its one-form transported along the leaves P = const less
the reference one, is series algebra too, by the square-root flow; its
principal parts and A-periods decompose it in the basis of principal-part
differentials plus holomorphic forms.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .airy import WElement
from .errors import (DivisionByZeroSeries, ExtractionNotConverged, OutOfNeighbourhood,
                     TruncationInsufficient)
from .hyperelliptic import _cycle_periods
from .laurent import (LaurentSeries, SeriesDifferential, compose1, divide_diagonal2, inverse2,
                      mul1, mul2, power1, revert1, sqrt_shift_flow)


@dataclass
class StandardChart:
    label: tuple                  # (ram index, sheet)
    z_root: complex               # z_i(u0)
    p0: complex                   # P(z_i; u0)
    order: int                    # the order the chart was built to
    p_shift: np.ndarray           # Taylor coefficients of P at z_root
    z_of_eta: LaurentSeries       # curve coordinate as a series in eta
    y_plus: LaurentSeries         # even series with value +|branch| sqrt at 0
    f_series: LaurentSeries       # F(v), v = w - P0, with F(etabar^2-image) id
    eta_of_etabar: LaurentSeries
    z_of_etabar: LaurentSeries
    dz_detabar: LaurentSeries
    y_curve: LaurentSeries        # sheet-signed y along the curve, in etabar
    ds_detabar: LaurentSeries
    eps_alpha: float
    extraction_radius: float      # |etabar| where truncations and residuals are weighed
    residuals: dict               # weighed residual of each chart identity on that circle


@dataclass
class _ChartStack:
    """The upper-sheet charts at the ramification points ``points``, one row each.

    Each series is an array [x^0 .. x^(n-1)] in its variable (eta, etabar, or
    v = eta^2 for f_series), known to x^(n-1) unless noted.
    """
    points: list
    order: int                    # t: dz/detabar is known to etabar^t
    p_shift: np.ndarray           # Taylor coefficients of P at each root
    z_of_eta: np.ndarray          # eta^0 .. eta^(t+1), from the root z_of_eta[:, 0]
    y_plus: np.ndarray            # eta^0 .. eta^(t+2)
    f_series: np.ndarray          # v^0 .. v^((t+2) // 2), v^0 zero
    eta_of_etabar: np.ndarray     # etabar^0 .. etabar^(t+1)
    z_of_etabar: np.ndarray       # etabar^0 .. etabar^(t+1)
    dz_detabar: np.ndarray        # etabar^0 .. etabar^t
    y_curve: np.ndarray           # etabar^0 .. etabar^(t+1)
    ds_detabar: np.ndarray        # etabar^0 .. etabar^(t+1)
    eps_alpha: np.ndarray
    extraction_radius: np.ndarray


#: largest weighed residual or truncation error a chart may carry on its extraction circle
_CIRCLE_TOL = 1e-10

#: the chart identities, in the order they are checked
_GATES = ("one-form", "F round-trip")


def _taylor_shift(p_coeffs, z0):
    """Coefficients of P(z0 + d) in d, ascending, one row per point of the array z0.

    Repeated synthetic division of P by z - z0; its first pass is Horner's rule,
    so P(z0) is ``npoly.polyval``'s value.
    """
    c = np.tile(np.asarray(p_coeffs, dtype=complex)[::-1], (len(z0), 1))
    deg = c.shape[1] - 1
    for i in range(deg):
        for j in range(1, deg + 1 - i):
            c[:, j] += z0 * c[:, j - 1]
    return c[:, ::-1]


def _series(row, min_exp, trunc_order):
    """The LaurentSeries of a stack row [x^0 ..], known on [min_exp, trunc_order]."""
    return LaurentSeries._wrap(row, 0, min_exp, trunc_order)


@contextmanager
def _named(labels):
    """Name the chart of the row whose stacked power is not finite."""
    try:
        yield
    except DivisionByZeroSeries as err:
        if err.row is None:
            raise
        raise DivisionByZeroSeries(f"chart {labels[err.row]}: {err}") from None


def critical_value_gap(curve, i):
    """Distance from P(z_i) to the other critical values of P and to +-2 L^{g+1}."""
    p0 = curve.p_at(curve.ram_roots[i])
    cands = [abs(curve.p_at(zj) - p0) for j, zj in enumerate(curve.ram_roots) if j != i]
    return min(cands + [abs(2.0 * curve.lam_pow - p0), abs(-2.0 * curve.lam_pow - p0)])


def _eta_chart(curve, z_roots, order):
    """Rows (Taylor coefficients of P, z_of_eta, y_plus) at the critical points z_roots of P.

    eta^2 = P(z) - P(z_root); z_of_eta holds eta^0 .. eta^(order+1) and
    y_plus(eta) = sqrt((eta^2 + P0)^2 - 4 L^{2g+2}), principal at eta = 0,
    eta^0 .. eta^(order+2).
    """
    shifted = _taylor_shift(curve.p_coeffs, z_roots)
    # eta / delta = sqrt((P(z_root + delta) - P0) / delta^2), principal, known to delta^order
    quot = np.zeros((len(z_roots), order + 1), dtype=complex)
    top = min(shifted.shape[1], order + 3)
    quot[:, :top - 2] = shifted[:, 2:top]
    z_of_eta = np.concatenate([z_roots[:, None], revert1(power1(quot, 0.5))], axis=1)
    y_sq = np.zeros((len(z_roots), order + 3), dtype=complex)
    y_sq[:, 0] = shifted[:, 0] * shifted[:, 0] - 4.0 * curve.lam_pow ** 2
    y_sq[:, 2] = 2.0 * shifted[:, 0]
    y_sq[:, 4:5] = 1.0
    return shifted, z_of_eta, power1(y_sq, 0.5)


def _build_upper_charts(curve, points, order):
    """The charts at the upper-sheet ramification points (i, +1), i in ``points``, as one stack."""
    t = order
    z_roots = np.array([complex(curve.ram_roots[i]) for i in points])
    shifted, z_of_eta, y_plus = _eta_chart(curve, z_roots, t)
    # etabar_+^3 = 3 * primitive of eta z_odd / y_plus, known to eta^(t+3)
    eta_z_odd = np.zeros((len(points), t + 3), dtype=complex)
    eta_z_odd[:, 2::2] = z_of_eta[:, 1::2]
    inv_y_plus = power1(y_plus, -1)
    integrand = mul1(eta_z_odd, inv_y_plus)
    # etabar_+ / eta, known to eta^t, and eta / etabar_+
    etabar_unit = power1(3.0 * (integrand[:, 2:] / np.arange(3, t + 4)), 1.0 / 3.0)
    eta = np.zeros((len(points), t + 2), dtype=complex)
    eta[:, 1:] = revert1(etabar_unit)
    # F(v): even part of etabar_+^2 re-indexed in v = eta^2
    f_series = np.zeros((len(points), (t + 2) // 2 + 1), dtype=complex)
    f_series[:, 1:] = mul1(etabar_unit, etabar_unit)[:, 0::2][:, :(t + 2) // 2]

    z_of_etabar, y_curve, inv_y_curve = compose1(
        np.stack([z_of_eta, y_plus[:, :t + 2], inv_y_plus[:, :t + 2]]), eta)
    ks = np.arange(1, t + 2)
    dz_detabar = z_of_etabar[:, 1:] * ks
    # dS / detabar = 2 z eta (d eta / d etabar) / y on the upper sheet; d eta / d etabar
    # is known to etabar^t, and its unknown next term meets the zero etabar^0 of z eta
    deta = np.zeros_like(eta)
    deta[:, :-1] = eta[:, 1:] * ks
    ds_detabar = mul1(2.0 * mul1(mul1(z_of_etabar, eta), deta), inv_y_curve)

    # distance to the nearest other critical value in the etabar metric
    d_min = np.abs(etabar_unit[:, 0]) * np.array([critical_value_gap(curve, i) for i in points]) ** 0.5
    return _ChartStack(
        points=list(points), order=t, p_shift=shifted,
        z_of_eta=z_of_eta, y_plus=y_plus, f_series=f_series, eta_of_etabar=eta,
        z_of_etabar=z_of_etabar, dz_detabar=dz_detabar, y_curve=y_curve,
        ds_detabar=ds_detabar, eps_alpha=0.2 * d_min, extraction_radius=0.35 * d_min)


def _chart_residuals(stack):
    """Both chart identities as residual rows [etabar^0 .. etabar^(t+1)], in the order of ``_GATES``.

    one-form: the even part of dS/detabar less 2 etabar^2, that is, the chart
    puts the curve in the normal form y = etabar; F round-trip: F composed
    with P(z_of_etabar) - P0 (through P itself, from etabar^2: P'(z_root) = 0)
    less etabar^2.
    """
    one_form = stack.ds_detabar.copy()
    one_form[:, 1::2] = 0.0
    one_form[:, 2] -= 2.0
    p_poly = stack.p_shift.copy()
    p_poly[:, :2] = 0.0
    moved = stack.z_of_etabar.copy()
    moved[:, 0] = 0.0
    round_trip = compose1(stack.f_series, compose1(p_poly, moved))
    round_trip[:, 2] -= 1.0
    return one_form, round_trip


def _validate_charts(stack):
    """Chart invariants as array residuals, weighed on each chart's coefficient-extraction circle.

    Each residual sum r_e etabar^e, over the window its series know, is
    weighed where the data is consumed, relative to etabar^2: as
    max_e |r_e| rho^(e - 2) with rho = extraction_radius.  Returns the
    weighed residuals, one row per chart and one column per gate.  Only the
    upper charts are checked: the lower charts' residuals are their parity
    flips, which weigh the same.
    """
    residuals = _chart_residuals(stack)
    rho = stack.extraction_radius[:, None]
    weights = rho ** (np.arange(residuals[0].shape[1]) - 2)
    devs = np.stack([np.max(np.abs(r) * weights, axis=1) for r in residuals], axis=1)
    for row, i in enumerate(stack.points):
        for name, dev in zip(_GATES, devs[row]):
            if dev > _CIRCLE_TOL:
                raise ExtractionNotConverged(
                    f"chart {(i, 1)}: {name} residual {dev:.2e} above gate {_CIRCLE_TOL:.0e}"
                    f" on |etabar| = {stack.extraction_radius[row]:.6g}")
    return devs


def _upper_chart(stack, row, devs):
    """The StandardChart of one stack row, each series a single wrap of its row."""
    t = stack.order
    return StandardChart(
        label=(stack.points[row], +1), z_root=stack.z_of_eta[row, 0], p0=stack.p_shift[row, 0],
        order=t, p_shift=stack.p_shift[row],
        z_of_eta=_series(stack.z_of_eta[row], 0, t + 1),
        y_plus=_series(stack.y_plus[row], 0, t + 2),
        f_series=_series(stack.f_series[row], 1, (t + 2) // 2),
        eta_of_etabar=_series(stack.eta_of_etabar[row], 1, t + 1),
        z_of_etabar=_series(stack.z_of_etabar[row], 0, t + 1),
        dz_detabar=_series(stack.dz_detabar[row], -1, t),
        y_curve=_series(stack.y_curve[row], 0, t + 1),
        ds_detabar=_series(stack.ds_detabar[row], 1, t + 1),
        eps_alpha=float(stack.eps_alpha[row]),
        extraction_radius=float(stack.extraction_radius[row]),
        residuals=dict(zip(_GATES, devs.tolist())))


def _lower_sheet(upper):
    """The chart at (i, -1), the image of the (i, +1) chart under sigma(z, y) = (z, -y).

    etabar_- = -etabar_+ as functions of eta, so each etabar series of the
    lower chart is its upper partner at -etabar (``parity_flip``); y_curve and
    dz/detabar also change sign, from the sheet of y and from the chain rule.
    eta_of_etabar is odd, so these flips give the same coefficients, bitwise,
    as composing z_of_eta and y_plus with -eta_of_etabar.  Series in eta are
    shared.
    """
    return replace(
        upper, label=(upper.label[0], -1),
        eta_of_etabar=upper.eta_of_etabar.parity_flip(),
        z_of_etabar=upper.z_of_etabar.parity_flip(),
        dz_detabar=-upper.dz_detabar.parity_flip(),
        y_curve=-upper.y_curve.parity_flip(),
        ds_detabar=upper.ds_detabar.parity_flip())


def _match_ram_roots(curve, ref):
    """Index map aligning curve.ram_roots with ref.ram_roots by proximity, greedily in ref order."""
    free, matching = list(range(len(curve.ram_roots))), {}
    for i, z0 in enumerate(ref.ram_roots):
        matching[i] = min(free, key=lambda j: abs(curve.ram_roots[j] - z0))
        free.remove(matching[i])
    return matching


def flow_parameter(chart, curve, matching):
    """F(P(z_i(u); u)) for a nearby curve; the neighbourhood guard applies."""
    zj = complex(curve.ram_roots[matching[chart.label[0]]])
    delta = npoly.polyval(zj, curve.p_coeffs) - chart.p0
    val = chart.f_series.evaluate(delta)
    if abs(val) > 0.5 * chart.eps_alpha ** 2:
        raise OutOfNeighbourhood(
            f"|F(dP)| = {abs(val):.3e} beyond guard {0.5 * chart.eps_alpha ** 2:.3e}"
            f" at chart {chart.label}")
    return val


def standard_charts(ref, order):
    """Validated charts of the reference curve at every ramification point, to ``order``.

    dz/detabar is known to etabar^order: ``local_expansions`` reaches mode
    (order - 1) / 2.  The global helpers raise TruncationInsufficient where
    the order's truncation weighs above the chart gate on the extraction
    circle.  The (i, +1) charts are built as one stack and checked there;
    each (i, -1) chart is its partner's image under the sheet involution.
    """
    with _named([(i, 1) for i in range(ref.g)]):
        stack = _build_upper_charts(ref, range(ref.g), order)
    devs = _validate_charts(stack)
    charts = {}
    for row in range(len(stack.points)):
        upper = _upper_chart(stack, row, devs[row])
        for ch in (upper, _lower_sheet(upper)):
            charts[ch.label] = ch
    return charts


# ---------------------------------------------------------------------------
# local expansions of the kernel and the normalized forms
# ---------------------------------------------------------------------------

def _chart_nodes(ch, radius, nfft):
    theta = 2.0 * np.pi * np.arange(nfft) / nfft
    etab = radius * np.exp(1j * theta)
    return (etab, ch.z_of_etabar.evaluate(etab), ch.y_curve.evaluate(etab),
            ch.dz_detabar.evaluate(etab))


def _chart_rows(charts, n, f_size):
    """Coefficients of etabar^0..etabar^(n-1) of dz/detabar, z and z^i dz/detabar / y, i < f_size.

    Returns arrays (dz, z, forms) of shapes (charts, n), (charts, n) and
    (charts, f_size, n) over the sorted labels.  Every chart's own series are
    read with ``LaurentSeries.taylor``, so a series too short raises, and the
    forms of all charts are stacked products.
    """
    labels = sorted(charts)
    dz, z, y = (np.array([getattr(charts[lab], name).taylor(n) for lab in labels])
                for name in ("dz_detabar", "z_of_etabar", "y_curve"))
    with _named(labels):
        forms = [mul1(dz, power1(y, -1))]
    for _ in range(1, f_size):
        forms.append(mul1(forms[-1], z))
    return dz, z, np.stack(forms, axis=1)


def _outer_sum(weights, rows_a, rows_b):
    """sum weights[i, j] rows_a[..., i, :] (x) rows_b[..., j, :] over the nonzero weights.

    The terms are added in row-major (i, j) order to an array that starts at
    +0; leading axes of the rows broadcast, a batch of rows each summed as alone.
    """
    batch = np.broadcast_shapes(rows_a.shape[:-2], rows_b.shape[:-2])
    out = np.zeros(batch + (rows_a.shape[-1], rows_b.shape[-1]), dtype=complex)
    for i, j in zip(*np.nonzero(weights)):
        out += weights[i, j] * (rows_a[..., i, :, None] * rows_b[..., j, None, :])
    return out


def _regular_parts(bk, rows_a, rows_b, eps):
    """Regular parts of the algebraic kernel B_0 dz1 dz2 in (etabar_a, etabar_b), one per chart pair.

    B_0 dz1 dz2 = M / (z_a - z_b)^2 with M = (y1 y2 + f) z1' z2' / (2 y1 y2).  At
    different critical points (eps 0) z_a - z_b is invertible.  At the same
    one, with eps the product of the sheets, z_a - z_b = (t1 - eps t2) D and
    H = M / D^2 - [eps = 1] vanishes to second order on t1 = eps t2, so the
    regular part is H / (t1 - eps t2)^2, known to three total degrees less.

    ``rows_a`` and ``rows_b`` are the ``_chart_rows`` of each pair, stacked
    on a leading pair axis, and ``eps`` one entry per pair.  All pairs go
    through one stack of size n: a same-point D, one degree shorter, is
    zero-padded, and its quotient cut back afterwards, exact because no
    coefficient depends on the working size.  Returns the blocks of size
    n - 3 (the same-point reach), as a (pairs, n - 3, n - 3) array.
    """
    (dz_a, z_a, forms_a), (dz_b, z_b, forms_b) = rows_a, rows_b
    numer = 0.5 * (dz_a[:, :, None] * dz_b[:, None, :] + _outer_sum(bk.f_coeffs, forms_a, forms_b))
    diff = np.zeros_like(numer)
    diff[:, :, 0] = z_a
    diff[:, 0, :] -= z_b
    same = np.flatnonzero(eps)
    diff[same, :-1, :-1] = divide_diagonal2(diff[same], eps[same])
    diff[same, -1, :] = diff[same, :, -1] = 0.0
    reg = mul2(numer, inverse2(mul2(diff, diff)))
    h = reg[same, :-1, :-1]
    h[:, 0, 0] -= eps[same] == 1
    n = numer.shape[-1] - 3
    reg = reg[:, :n, :n]
    reg[same] = divide_diagonal2(divide_diagonal2(h, eps[same]), eps[same])
    return reg


def local_expansions(bk, charts, k_bound):
    """Kernel regular-part coefficients and normalized-form Taylor data to mode k_bound.

    Returns ``(s_coeffs, c_coeffs)``: ``s_coeffs[(k,a),(k',b)]`` is
    [t1^(k-1) t2^(k'-1)] of the kernel against detabar_a detabar_b, less
    1/(t1 - t2)^2 on equal charts, over k k', and ``c_coeffs[(k,a)]`` is
    [t^(k-1)] of every normalized form against detabar_a, over k, for modes
    k, k' <= k_bound.  Both are truncated series algebra on the chart series
    z_of_etabar, y_curve and dz_detabar; the three exact divisions of
    ``_regular_parts`` need the charts to total degree 2 k_bound + 1.  The
    kernel's correction term adds sum corr_jl c^{k,a}_j c^{k',b}_l.  One
    block is computed per unordered chart pair, all pairs in one stack, and
    mirrored, so s is exactly symmetric.  No coefficient of a mode depends
    on k_bound.
    """
    norm = bk.pd.norm_matrix
    labels = sorted(charts)
    dz, z, forms = _chart_rows(charts, 2 * k_bound + 2, len(bk.f_coeffs))
    ks = np.arange(1, k_bound + 1)
    # cmat[l, j, k - 1] = c^{k,labels[l]}_j, with omega_j = sum_m norm[m, j] z^m dz / y
    cmat = _outer_sum(np.eye(len(norm)), norm, forms[:, :len(norm), :k_bound] / ks)
    c_coeffs = {(k, lab): cmat[l, :, k - 1] for l, lab in enumerate(labels)
                for k in range(1, k_bound + 1)}
    ia, ib = np.triu_indices(len(labels))
    eps = np.array([labels[a][1] * labels[b][1] if labels[a][0] == labels[b][0] else 0
                    for a, b in zip(ia, ib)])
    reg = _regular_parts(bk, (dz[ia], z[ia], forms[ia]), (dz[ib], z[ib], forms[ib]), eps)
    blocks = (reg[:, :k_bound, :k_bound] / np.outer(ks, ks)
              + _outer_sum(bk.correction, cmat[ia], cmat[ib]))
    diag = ia == ib
    blocks[diag] = 0.5 * (blocks[diag] + blocks[diag].swapaxes(1, 2))
    s_coeffs = {}
    for a, b, block in zip(ia, ib, blocks):
        a, b = labels[a], labels[b]
        for (k, kp), val in np.ndenumerate(block):
            s_coeffs[((k + 1, a), (kp + 1, b))] = s_coeffs[((kp + 1, b), (k + 1, a))] = val
    return s_coeffs, c_coeffs


# ---------------------------------------------------------------------------
# the global embedding and its decomposition
# ---------------------------------------------------------------------------

def _transported_difference(ch, p_u, z_of_h, y_of_h):
    """dS(ref) - transported dS(curve) against detabar at the chart ch.

    With Z_u(h) = z_of_h the curve's own eta-chart at its critical point z_u,
    y_of_h its y on the chart's sheet (y_plus, or -y_plus on the lower one)
    and delta = P(z_u) - P0 = p_u - P0, the leaf point over eta is
    Z_u(sqrt(eta^2 - delta)), so the transported form is 2 Z_u(h) h dh /
    y_of_h(h) flowed by -delta.  Its first term below the
    floor -order // 2 (negative exponents are even), pulled back, is weighed
    as ``_validate_charts`` weighs residuals; the rest is smaller by powers of
    |delta / eta^2|, which the guard bounds.
    """
    floor = -ch.order // 2
    form = SeriesDifferential(LaurentSeries.monomial(2.0, 1) * z_of_h / y_of_h)
    flowed = sqrt_shift_flow(form, ch.p0 - p_u, min_exp=floor - 2).base
    kept = LaurentSeries({e: c for e, c in flowed.items() if e >= floor}, floor, flowed.trunc_order)
    deta = ch.eta_of_etabar.derivative()
    tail = (flowed - kept).compose(ch.eta_of_etabar) * deta
    r = ch.extraction_radius
    dev, at = max(((abs(c) * r ** (e - 2), e) for e, c in tail.items()), default=(0.0, None))
    if dev > _CIRCLE_TOL:
        raise TruncationInsufficient(
            f"chart {ch.label}: Laurent tail below floor etabar^{floor} weighs {dev:.2e}"
            f" at etabar^{at}, above gate {_CIRCLE_TOL:.0e} on |etabar| = {r:.6g}")
    return ch.ds_detabar - kept.compose(ch.eta_of_etabar) * deta


def sw_embed_global(curve, ref, charts):
    """Laurent data of [dS(ref) - transported dS(curve)] at every chart, by series algebra.

    Residue-free by construction, on the window [-order // 2, top] of the
    charts' order ([-22, 22] at 44).  Every chart is embedded from its own
    series, the curve's y taken on the chart's sheet.  The curve's
    eta-charts at the critical points matched to the upper charts are one
    stack, which the (i, -1) chart shares with its (i, +1) partner.  Raises
    OutOfNeighbourhood when the deformed curve leaves the chart guard, and
    TruncationInsufficient when the tail the window drops weighs above the
    chart gate.
    """
    matching = _match_ram_roots(curve, ref)
    for ch in charts.values():
        flow_parameter(ch, curve, matching)
    labels = sorted(lab for lab in charts if lab[1] == 1)
    t = charts[labels[0]].order
    with _named(labels):
        shifted, z_of_h, y_of_h = _eta_chart(
            curve, np.array([complex(curve.ram_roots[matching[i]]) for i, _ in labels]), t)
    row = {i: r for r, (i, _) in enumerate(labels)}
    # the upper charts' tails are weighed first
    series = {(i, sheet): _transported_difference(
        charts[(i, sheet)], shifted[row[i], 0], _series(z_of_h[row[i]], 0, t + 1),
        _series(sheet * y_of_h[row[i]], 0, t + 2))
        for i, sheet in sorted(charts, key=lambda lab: (-lab[1], lab[0]))}
    return WElement({lab: SeriesDifferential(series[lab]) for lab in sorted(charts)})


def decompose_in_g(w_elem, pd, s_coeffs, c_coeffs, k_bound):
    """Principal coefficients and holomorphic components of a local family.

    Solves (least squares over the regular modes)

        x^{(m,a)} = sum_{a',k'} xi_{a',k'} s^{(k',a')(m,a)} + sum_j A^j c^{m,a}_j

    with xi read off the principal parts.  Returns (xi, A, residual).  A mode
    the local data or the family's windows lack raises TruncationInsufficient,
    naming the first one.
    """
    labels = sorted(w_elem.series)

    def read(data, key, what):
        if key not in data:
            raise TruncationInsufficient(f"no {what} {key} for k_bound {k_bound}")
        return data[key]

    def coord(lab, exp, mode):
        base = w_elem.series[lab].base
        if exp > base.trunc_order:
            raise TruncationInsufficient(
                f"mode {mode} needs z^{exp}, beyond the window [{base.min_exp}, {base.trunc_order}]"
                f" of the family at {lab} for k_bound {k_bound}")
        return base.coeff(exp)

    xi = {}
    for lab in labels:
        for k in range(1, k_bound + 1):
            val = coord(lab, -k - 1, (k, lab))          # y_{k,lab} = J_{+k}
            if abs(val) > 1e-14:
                xi[(k, lab)] = val
    rows = []
    rhs = []
    for lab in labels:
        for m in range(1, k_bound + 1):
            rows.append(read(c_coeffs, (m, lab), "c data for mode"))
            acc = coord(lab, m - 1, (m, lab)) / m      # x^{m,lab} = J_{-m} / m
            for mode, v in xi.items():
                acc -= v * read(s_coeffs, (mode, (m, lab)), "s data for mode pair")
            rhs.append(acc)
    rows, rhs = np.array(rows), np.array(rhs)
    avec, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    residual = float(np.max(np.abs(rows @ avec - rhs)))
    return xi, avec, residual


# ---------------------------------------------------------------------------
# global evaluation helpers
# ---------------------------------------------------------------------------

def _ebar_form(bk, chart, k_bound):
    """(form, z, y): the form (z, y) -> ebar^{k,chart} against dz, k = 1..k_bound, and the z and y
    of the extraction circle's nodes it is built on once."""
    nfft = 128
    r = chart.extraction_radius
    # each sampled series' top known coefficient, weighed relative to its largest term
    for name in ("z_of_etabar", "y_curve", "dz_detabar"):
        ser = getattr(chart, name)
        top = ser.trunc_order
        dev = abs(ser.get(top)) * r ** top / max(abs(c) * r ** e for e, c in ser.items())
        if dev > _CIRCLE_TOL:
            raise TruncationInsufficient(
                f"chart {chart.label}: {name} at etabar^{top} weighs {dev:.2e},"
                f" above gate {_CIRCLE_TOL:.0e} on |etabar| = {r:.6g}")
    etab, z2, y2, dz2 = _chart_nodes(chart, r, nfft)

    def form(z_pts, y_pts):
        grid = bk.value(np.asarray(z_pts)[:, None], np.asarray(y_pts)[:, None],
                        z2[None, :], y2[None, :]) * dz2[None, :]
        raw = np.fft.fft(grid, axis=1) / nfft
        out = np.zeros((k_bound, len(z_pts)), dtype=complex)
        for k in range(1, k_bound + 1):
            out[k - 1] = raw[:, k - 1] / r ** (k - 1) / k
        return out
    return form, z2, y2


#: how far past its extraction circle a chart refuses a point, as a scale about its root
_CIRCLE_MARGIN = 1.15


def ebar_at_points(bk, chart, z_pts, y_pts, k_bound):
    """ebar^{k,chart}(p) against dz_p at global points, for k = 1..k_bound.

    The kernel's pole at p spoils the extraction on the circle nodes when p
    nears them on the chart's sheet: such a p inside the node polygon scaled
    by ``_CIRCLE_MARGIN`` about the root (winding number not zero) raises
    OutOfNeighbourhood.  Against an extraction at half the radius r the
    values are off by about 3e-7 relative at |etabar| = 1.15 r, 1e-9 at 1.2 r.
    """
    form, z_circle, y_circle = _ebar_form(bk, chart, k_bound)
    z_pts, y_pts = np.asarray(z_pts), np.asarray(y_pts)
    rel = chart.z_root + _CIRCLE_MARGIN * (z_circle - chart.z_root) - z_pts[:, None]
    winds = np.abs(np.angle(np.roll(rel, -1, axis=1) / rel).sum(axis=1)) > np.pi
    near = y_circle[np.argmin(np.abs(z_circle - z_pts[:, None]), axis=1)]
    inside = np.flatnonzero(winds & (np.abs(y_pts - near) < np.abs(y_pts + near)))
    if inside.size:
        z = z_pts[inside[0]]
        dist, reach = abs(z - chart.z_root), _CIRCLE_MARGIN * np.max(np.abs(z_circle - chart.z_root))
        raise OutOfNeighbourhood(
            f"ebar at chart {chart.label}: point z = {z:.6g} on its sheet is {dist:.3g} from the root,"
            f" inside the extraction circle |etabar| = {chart.extraction_radius:.6g}"
            f" scaled by {_CIRCLE_MARGIN:g}, which reaches {reach:.3g} from it")
    return form(z_pts, y_pts)


def ebar_periods(bk, cycle_list, chart, k_bound):
    """[i, k-1] = period of ebar^{k,chart} over cycle_list[i], for k = 1..k_bound.

    Contours may cross the chart's circle: the form is a sum of normalized kernels
    at its nodes, whose double poles carry no residue, so the periods do not move.
    """
    return _cycle_periods(bk.cycles.workspace, cycle_list,
                          _ebar_form(bk, chart, k_bound)[0], 1e-9)
