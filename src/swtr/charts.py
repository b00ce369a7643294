"""Standard-coordinate charts at ramification points and local/global data.

At each critical point z_i of P the curve carries two ramification points of
the foliation projection, labeled (i, +1) and (i, -1) by the sheet of
y = sqrt(P^2 - 4 L^{2g+2}).  The standard coordinate etabar is built so that
the reference curve takes the normal form (x = etabar^2, y = etabar) in an
adapted chart: with eta^2 = P(z) - P(z_i),

    etabar_s(eta)^3 = 3 s * int_0^eta  tau z_odd(tau) / y_plus(tau) dtau,

cube root chosen with positive leading coefficient, so etabar_- = -etabar_+.
The induced one-form satisfies dS(etabar) - dS(-etabar) = 4 etabar^2 detabar
exactly, which is verified coefficientwise at construction time.

Local expansions compute the kernel's regular part s^{(k,a)(k',b)} and the
Taylor data c^{k,a}_j of the normalized holomorphic forms by truncated series
algebra on the chart series, in one and two variables.  The global embedding
of a nearby curve, its one-form transported along the leaves P = const less
the reference one, is series algebra too, by the square-root flow; its
principal parts and A-periods decompose it in the basis of principal-part
differentials plus holomorphic forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .airy import WElement
from .errors import ExtractionNotConverged, OutOfNeighbourhood, TruncationInsufficient
from .hyperelliptic import _cycle_periods, critical_value_gap
from .laurent import (LaurentSeries, SeriesDifferential, divide_diagonal2, inverse2, mul2,
                      sqrt_shift_flow)


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


#: largest weighed residual or truncation error a chart may carry on its extraction circle
_CIRCLE_TOL = 1e-10


def _taylor_shift(p_coeffs, z0):
    """Coefficients of P(z0 + d) in d, ascending."""
    out = []
    work = np.array(p_coeffs, dtype=complex)
    fact = 1.0
    for m in range(len(p_coeffs)):
        out.append(npoly.polyval(z0, work) / fact)
        work = npoly.polyder(work)
        fact *= (m + 1)
    return np.array(out, dtype=complex)


def _eta_chart(curve, z_root, order):
    """(Taylor coefficients of P at z_root, z_of_eta, y_plus) with eta^2 = P(z) - P(z_root).

    z_root is a critical point of P; y_plus(eta) = sqrt((eta^2 + P0)^2 - 4 L^{2g+2}),
    principal at eta = 0.
    """
    shifted = _taylor_shift(curve.p_coeffs, z_root)
    poly = LaurentSeries({m: shifted[m] for m in range(2, len(shifted)) if shifted[m] != 0},
                         min_exp=2, trunc_order=order + 2)
    # eta(delta) = sqrt(P(z_root + delta) - P0), principal branch of P''/2, reverted
    z_of_eta = poly.pow_frac(1, 2).functional_inverse() + z_root
    wser = LaurentSeries({0: shifted[0], 2: 1.0}, 0, order + 2)
    y_sq = wser * wser - 4.0 * curve.lam_pow ** 2
    return shifted, z_of_eta, y_sq.pow_frac(1, 2)


def _build_one_chart(curve, i, order):
    """The chart at the upper-sheet ramification point (i, +1)."""
    zi = complex(curve.ram_roots[i])
    shifted, z_of_eta, y_plus = _eta_chart(curve, zi, order)
    z_odd, _ = z_of_eta.parity_split()
    # etabar_+^3 = 3 * primitive of eta z_odd / y_plus
    integrand = LaurentSeries.monomial(1.0, 1) * z_odd / y_plus
    fcube = SeriesDifferential(integrand).primitive().scale(3.0)
    etabar_plus = fcube.pow_frac(1, 3)
    eta_of_etabar = etabar_plus.functional_inverse()
    # F(v): even part of etabar_+^2 re-indexed in v = eta^2
    etabar_sq = etabar_plus * etabar_plus
    f_series = LaurentSeries.from_list(
        [etabar_sq.get(e) for e in range(2, etabar_sq.trunc_order + 1, 2)],
        start=1, trunc_order=etabar_sq.trunc_order // 2)

    z_of_etabar = z_of_eta.compose(eta_of_etabar)
    dz_detabar = z_of_etabar.derivative()
    y_curve = y_plus.compose(eta_of_etabar)
    # dS / detabar = 2 z eta (d eta / d etabar) / y  on the upper sheet
    ds_detabar = (z_of_etabar * eta_of_etabar * eta_of_etabar.derivative()
                  ).scale(2.0) / y_curve

    # distance to the nearest other critical value in the etabar metric
    d_min = abs(etabar_plus.get(1)) * critical_value_gap(curve, i) ** 0.5
    return StandardChart(
        label=(i, +1), z_root=zi, p0=shifted[0], order=order,
        p_shift=shifted, z_of_eta=z_of_eta, y_plus=y_plus,
        f_series=f_series, eta_of_etabar=eta_of_etabar,
        z_of_etabar=z_of_etabar, dz_detabar=dz_detabar, y_curve=y_curve,
        ds_detabar=ds_detabar,
        eps_alpha=0.2 * d_min, extraction_radius=0.35 * d_min)


def _lower_sheet(upper):
    """The chart at (i, -1), the image of the (i, +1) chart under sigma(z, y) = (z, -y).

    etabar_- = -etabar_+ as functions of eta, so each etabar series of the
    lower chart is its upper partner at -etabar (``parity_flip``); y_curve and
    dz/detabar also change sign, from the sheet of y and from the chain rule.
    The series of the upper chart in etabar have exact parity, so these flips
    give the same coefficients, bitwise, as composing z_of_eta and y_plus with
    -eta_of_etabar.  Series in eta are shared.
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
    circle.  Only the (i, +1) charts are built; each (i, -1) chart is its
    partner's image under the sheet involution.
    """
    charts = {}
    for i in range(ref.g):
        upper = _build_one_chart(ref, i, order)
        for ch in (upper, _lower_sheet(upper)):
            _validate_chart(ch)
            charts[ch.label] = ch
    return charts


def _validate_chart(ch):
    """Chart invariants as series identities, weighed on the coefficient-extraction circle.

    Each residual sum r_e etabar^e, over the window its series know, is
    weighed where the data is consumed, relative to etabar^2: as
    max_e |r_e| rho^(e - 2) with rho = extraction_radius.
    """
    r = ch.extraction_radius
    _, even = ch.ds_detabar.parity_split()
    square = LaurentSeries.monomial(1.0, 2)
    checks = (
        # one-form identity: even part of dS/detabar equals 2 etabar^2, that
        # is, the chart puts the curve in the normal form y = etabar
        ("one-form", even - square.scale(2.0)),
        # F composed with the curve data returns etabar^2
        ("F round-trip", ch.f_series.compose(_pcompose_v(ch)) - square),
    )
    for name, residual in checks:
        dev = max((abs(c) * r ** (e - 2) for e, c in residual.items()), default=0.0)
        if dev > _CIRCLE_TOL:
            raise ExtractionNotConverged(
                f"chart {ch.label}: {name} residual {dev:.2e} above gate {_CIRCLE_TOL:.0e}"
                f" on |etabar| = {r:.6g}")


def _pcompose_v(ch):
    """P(z_of_etabar) - P0 in etabar through P itself, from etabar^2: P'(z_root) = 0."""
    return LaurentSeries(dict(enumerate(ch.p_shift[2:], 2))).compose(ch.z_of_etabar - ch.z_root)


# ---------------------------------------------------------------------------
# local expansions of the kernel and the normalized forms
# ---------------------------------------------------------------------------

def _chart_nodes(ch, radius, nfft):
    theta = 2.0 * np.pi * np.arange(nfft) / nfft
    etab = radius * np.exp(1j * theta)
    return (etab, ch.z_of_etabar.evaluate(etab), ch.y_curve.evaluate(etab),
            ch.dz_detabar.evaluate(etab))


def _chart_rows(ch, n, f_size):
    """Coefficients of etabar^0..etabar^(n-1) of dz/detabar, z and z^i dz/detabar / y, i < f_size.

    They are read with ``coeff``, so a chart series too short for them raises.
    """
    series = [ch.dz_detabar, ch.z_of_etabar, ch.dz_detabar / ch.y_curve]
    while len(series) < f_size + 2:
        series.append(series[-1] * ch.z_of_etabar)
    rows = np.array([[ser.coeff(e) for e in range(n)] for ser in series], dtype=complex)
    return rows[0], rows[1], rows[2:]


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
    dz, z, forms = (np.array(field) for field in zip(*(
        _chart_rows(charts[lab], 2 * k_bound + 2, len(bk.f_coeffs)) for lab in labels)))
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

def _transported_difference(curve, ch, z_u):
    """dS(ref) - transported dS(curve) against detabar at the upper-sheet chart ch.

    With Z_u(h) the curve's own eta-chart at its critical point z_u and
    delta = P(z_u) - P0, the leaf point over eta is Z_u(sqrt(eta^2 - delta)),
    so the transported form is 2 Z_u(h) h dh / y_plus(h) flowed by -delta.
    Its first term below the floor -order // 2 (negative exponents are even),
    pulled back, is weighed as ``_validate_chart`` weighs residuals; the rest
    is smaller by powers of |delta / eta^2|, which the guard bounds.
    """
    floor = -ch.order // 2
    shifted, z_of_h, y_of_h = _eta_chart(curve, z_u, ch.order)
    form = SeriesDifferential(LaurentSeries.monomial(2.0, 1) * z_of_h / y_of_h)
    flowed = sqrt_shift_flow(form, ch.p0 - shifted[0], min_exp=floor - 2).base
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
    charts' order ([-22, 22] at 44); each (i, -1) series is its (i, +1)
    partner's at -etabar.  Raises OutOfNeighbourhood when the deformed curve
    leaves the chart guard, and TruncationInsufficient when the tail the
    window drops weighs above the chart gate.
    """
    matching = _match_ram_roots(curve, ref)
    for ch in charts.values():
        flow_parameter(ch, curve, matching)
    upper = {i: _transported_difference(curve, ch, complex(curve.ram_roots[matching[i]]))
             for (i, sheet), ch in charts.items() if sheet == 1}
    return WElement({(i, sheet): SeriesDifferential(
        upper[i] if sheet == 1 else upper[i].parity_flip()) for i, sheet in sorted(charts)})


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
    """The form (z, y) -> ebar^{k,chart} against dz, k = 1..k_bound, on chart nodes built once."""
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
    return form


def ebar_at_points(bk, chart, z_pts, y_pts, k_bound):
    """ebar^{k,chart}(p) against dz_p at global points, for k = 1..k_bound."""
    return _ebar_form(bk, chart, k_bound)(z_pts, y_pts)


def ebar_periods(bk, cycle_list, chart, k_bound):
    """[i, k-1] = period of ebar^{k,chart} over cycle_list[i], for k = 1..k_bound."""
    return _cycle_periods(bk.cycles.workspace, cycle_list,
                          _ebar_form(bk, chart, k_bound), 1e-9)
