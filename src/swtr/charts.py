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

Local expansions extract the kernel's regular part s^{(k,a)(k',b)} and the
Taylor data c^{k,a}_j of the normalized holomorphic forms by FFT on circles
inside the chart annuli.  The global embedding of a nearby curve is the
difference of its transported one-form from the reference one, expanded at
every ramification point; its principal parts and A-periods decompose it in
the basis of principal-part differentials plus holomorphic forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .airy import WElement
from .errors import ExtractionNotConverged, OutOfNeighbourhood
from .hyperelliptic import omega_value
from .laurent import LaurentSeries, SeriesDifferential


@dataclass
class StandardChart:
    label: tuple                  # (ram index, sheet)
    z_root: complex               # z_i(u0)
    p0: complex                   # P(z_i; u0)
    y0: complex                   # sheet-signed sqrt(P0^2 - 4 L^{2g+2})
    w_value: complex
    p_shift: np.ndarray           # Taylor coefficients of P at z_root
    z_of_eta: LaurentSeries       # curve coordinate as a series in eta
    y_plus: LaurentSeries         # even series with value +|branch| sqrt at 0
    f_series: LaurentSeries       # F(v), v = w - P0, with F(etabar^2-image) id
    eta_of_etabar: LaurentSeries
    z_of_etabar: LaurentSeries
    dz_detabar: LaurentSeries
    y_curve: LaurentSeries        # sheet-signed y along the curve, in etabar
    y_of_etabar: LaurentSeries    # chart normal-form coordinate; equals etabar
    ds_detabar: LaurentSeries
    eps_alpha: float
    extraction_radius: float


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


def _build_one_chart(curve, i, sheet, order):
    zi = complex(curve.ram_roots[i])
    shifted = _taylor_shift(curve.p_coeffs, zi)
    p0 = shifted[0]
    lam2 = 4.0 * curve.lam_pow ** 2
    # eta(delta) = sqrt(P(zi + delta) - P0), principal branch of P''/2
    poly = LaurentSeries({m: shifted[m] for m in range(2, len(shifted)) if shifted[m] != 0},
                         min_exp=2, trunc_order=order + 2)
    eta_of_delta = poly.pow_frac(1, 2, 0)
    delta_of_eta = eta_of_delta.functional_inverse()
    z_of_eta = delta_of_eta + LaurentSeries.monomial(zi, 0)
    z_odd, _ = z_of_eta.parity_split()
    # y_plus(eta) = sqrt((eta^2 + P0)^2 - 4 L^{2g+2}), principal at eta = 0
    wser = LaurentSeries({0: p0, 2: 1.0}, 0, order + 2)
    y_sq = wser * wser - lam2
    y_plus = y_sq.pow_frac(1, 2, 0)
    y0 = complex(y_plus.get(0))
    # etabar_+^3 = 3 * primitive of eta z_odd / y_plus
    integrand = LaurentSeries.monomial(1.0, 1) * z_odd / y_plus
    fcube = SeriesDifferential(integrand).primitive().scale(3.0)
    etabar_plus = fcube.pow_frac(1, 3, 0)
    inv_plus = etabar_plus.functional_inverse()
    # F(v): even part of etabar_+^2 re-indexed in v = eta^2
    etabar_sq = etabar_plus * etabar_plus
    f_series = LaurentSeries({e // 2: c for e, c in etabar_sq.coeffs.items() if e % 2 == 0},
                             min_exp=1, trunc_order=etabar_sq.trunc_order // 2)

    eta_of_etabar = inv_plus.scale(float(sheet))
    z_of_etabar = z_of_eta.compose(eta_of_etabar)
    dz_detabar = z_of_etabar.derivative()
    y_curve = y_plus.compose(eta_of_etabar).scale(float(sheet))
    # dS / detabar = 2 z eta (d eta / d etabar) / y  on the chosen sheet
    ds_detabar = (z_of_etabar * eta_of_etabar * eta_of_etabar.derivative()
                  ).scale(2.0) / y_curve
    # chart normal-form coordinate along the curve
    z_even = z_of_eta - z_odd
    ratio = (z_of_eta - z_even) / z_odd
    y_of_etabar = ratio.compose(eta_of_etabar) * LaurentSeries.monomial(1.0, 1)

    # distance to the nearest other critical value in the etabar metric
    g0 = abs(etabar_plus.get(1))
    cands = []
    for j, zj in enumerate(curve.ram_roots):
        if j != i:
            cands.append(abs(npoly.polyval(zj, curve.p_coeffs) - p0))
    cands.append(abs(2.0 * curve.lam_pow - p0))
    cands.append(abs(-2.0 * curve.lam_pow - p0))
    d_min = g0 * min(cands) ** 0.5
    w_val = (p0 + sheet * y0) / (2.0 * curve.lam_pow)
    return StandardChart(
        label=(i, sheet), z_root=zi, p0=p0, y0=sheet * y0, w_value=w_val,
        p_shift=shifted, z_of_eta=z_of_eta, y_plus=y_plus,
        f_series=f_series, eta_of_etabar=eta_of_etabar,
        z_of_etabar=z_of_etabar, dz_detabar=dz_detabar, y_curve=y_curve,
        y_of_etabar=y_of_etabar, ds_detabar=ds_detabar,
        eps_alpha=0.2 * d_min, extraction_radius=0.35 * d_min)


def _match_ram_roots(curve, ref):
    """Index map aligning curve.ram_roots with ref.ram_roots by proximity."""
    used = set()
    matching = {}
    for i, z0 in enumerate(ref.ram_roots):
        best, jbest = np.inf, None
        for j, z in enumerate(curve.ram_roots):
            if j in used:
                continue
            if abs(z - z0) < best:
                best, jbest = abs(z - z0), j
        used.add(jbest)
        matching[i] = jbest
    return matching


def flow_parameter(chart, curve, ref, matching):
    """F(P(z_i(u); u)) for a nearby curve; the neighbourhood guard applies."""
    zj = complex(curve.ram_roots[matching[chart.label[0]]])
    delta = npoly.polyval(zj, curve.p_coeffs) - chart.p0
    val = chart.f_series.evaluate(delta)
    if abs(val) > 0.5 * chart.eps_alpha ** 2:
        raise OutOfNeighbourhood(
            f"|F(dP)| = {abs(val):.3e} beyond guard {0.5 * chart.eps_alpha ** 2:.3e}"
            f" at chart {chart.label}")
    return val


def standard_charts(curve, ref, order=44):
    """Charts of the reference curve, validated, plus the neighbourhood guard.

    For ``curve is ref`` the construction is purely local; otherwise the flow
    parameter of every chart is evaluated to enforce the chart neighbourhood.
    """
    charts = {}
    for i in range(ref.g):
        for sheet in (+1, -1):
            ch = _build_one_chart(ref, i, sheet, order)
            _validate_chart(ch, order)
            charts[ch.label] = ch
    if curve is not ref:
        matching = _match_ram_roots(curve, ref)
        for ch in charts.values():
            flow_parameter(ch, curve, ref, matching)
    return charts


def _validate_chart(ch, order):
    """Chart invariants, sampled on the coefficient-extraction circle.

    The chart series have a finite convergence radius (the distance to the
    nearest critical value), so the residuals are measured where the data is
    consumed: on |etabar| = extraction_radius, relative to the target value.
    """
    tol = 1e-10
    r = ch.extraction_radius
    pts = r * np.exp(2j * np.pi * (np.arange(8) + 0.3) / 8)
    # normal form: the chart coordinate along the curve is etabar itself
    dev = max(abs(ch.y_of_etabar.evaluate(e) - e) / abs(e) for e in pts)
    if dev > tol:
        raise ExtractionNotConverged(f"chart {ch.label}: normal form residual {dev:.2e}")
    # one-form identity: even part of dS/detabar equals 2 etabar^2
    _, even = ch.ds_detabar.parity_split()
    dev = max(abs(even.evaluate(e) - 2.0 * e * e) / abs(2.0 * e * e) for e in pts)
    if dev > tol:
        raise ExtractionNotConverged(f"chart {ch.label}: one-form residual {dev:.2e}")
    # F composed with the curve data returns etabar^2
    vser = _pcompose_v(ch, order)
    dev = max(abs(ch.f_series.evaluate(vser.evaluate(e)) - e * e) / abs(e * e)
              for e in pts)
    if dev > tol:
        raise ExtractionNotConverged(f"chart {ch.label}: F round-trip residual {dev:.2e}")


def _pcompose_v(ch, order):
    """P(z_of_etabar) - P0 as a series in etabar, through P itself."""
    delta = ch.z_of_etabar - LaurentSeries.monomial(ch.z_root, 0)
    acc = LaurentSeries.zero(trunc_order=delta.trunc_order)
    power = LaurentSeries.monomial(1.0, 0)
    for m in range(1, len(ch.p_shift)):
        power = power * delta
        if ch.p_shift[m] != 0:
            acc = acc + power.scale(ch.p_shift[m])
    return acc


# ---------------------------------------------------------------------------
# local expansions of the kernel and the normalized forms
# ---------------------------------------------------------------------------

def _chart_nodes(ch, radius, nfft):
    theta = 2.0 * np.pi * np.arange(nfft) / nfft
    etab = radius * np.exp(1j * theta)
    z = np.array([ch.z_of_etabar.evaluate(e) for e in etab])
    y = np.array([ch.y_curve.evaluate(e) for e in etab])
    dz = np.array([ch.dz_detabar.evaluate(e) for e in etab])
    return etab, z, y, dz


def _fft_coeffs(values, radius, kmax):
    n = len(values)
    raw = np.fft.fft(values) / n
    out = np.zeros(kmax + 1, dtype=complex)
    for t in range(kmax + 1):
        out[t] = raw[t] / radius ** t
    return out


def local_expansions(bk, charts, k_bound=8):
    """Kernel regular-part coefficients and normalized-form Taylor data.

    Returns ``(s_coeffs, c_coeffs)``: ``s_coeffs[(k,a),(k',b)]`` from double
    FFT extraction of the kernel composed with the charts (diagonal singular
    part subtracted on equal charts), and ``c_coeffs[(k,a)]`` a genus-vector
    with the expansion coefficients of every normalized form.  Every
    coefficient is checked against a second extraction on a smaller circle.
    """
    nfft = 256
    pd = bk.pd
    g = bk.curve.g
    labels = sorted(charts)
    node_cache = {}

    def nodes(lab, radius):
        key = (lab, radius)
        if key not in node_cache:
            node_cache[key] = _chart_nodes(charts[lab], radius, nfft)
        return node_cache[key]

    def c_for_radius(lab, rfac):
        ch = charts[lab]
        r = ch.extraction_radius * rfac
        etab, z, y, dz = nodes(lab, r)
        out = {}
        for j in range(g):
            vals = omega_value(pd, j, z, y) * dz
            coeffs = _fft_coeffs(vals, r, k_bound)
            for k in range(1, k_bound + 1):
                out.setdefault((k, lab), np.zeros(g, dtype=complex))[j] = \
                    coeffs[k - 1] / k
        return out

    def s_for_radius(lab1, lab2, rfac):
        ch1, ch2 = charts[lab1], charts[lab2]
        r1 = ch1.extraction_radius * rfac
        r2 = 0.7 * ch2.extraction_radius * rfac
        e1, z1, y1, dz1 = nodes(lab1, r1)
        e2, z2, y2, dz2 = nodes(lab2, r2)
        grid = bk.value(z1[:, None], y1[:, None], z2[None, :], y2[None, :])
        grid = grid * dz1[:, None] * dz2[None, :]
        if lab1 == lab2:
            grid = grid - 1.0 / (e1[:, None] - e2[None, :]) ** 2
        scale = float(np.max(np.abs(grid)))
        raw = np.fft.fft2(grid) / (nfft * nfft)
        out = {}
        floor = {}
        for k in range(1, k_bound + 1):
            for kp in range(1, k_bound + 1):
                p_val = raw[k - 1, kp - 1] / (r1 ** (k - 1) * r2 ** (kp - 1))
                key = ((k, lab1), (kp, lab2))
                out[key] = p_val / (k * kp)
                # double-precision extraction noise for this coefficient
                floor[key] = (2e-16 * scale
                              / (r1 ** (k - 1) * r2 ** (kp - 1) * k * kp))
        return out, floor

    c_coeffs = {}
    s_coeffs = {}
    for lab in labels:
        c1 = c_for_radius(lab, 1.0)
        c2 = c_for_radius(lab, 0.8)
        for key, vec in c1.items():
            scale = max(1.0, float(np.max(np.abs(vec))), float(np.max(np.abs(c2[key]))))
            if np.max(np.abs(vec - c2[key])) > 1e-7 * scale:
                raise ExtractionNotConverged(f"c-coefficients unstable at {key}")
        c_coeffs.update(c1)
    noise = {}
    for lab1 in labels:
        for lab2 in labels:
            s1, floor = s_for_radius(lab1, lab2, 1.0)
            s2, floor2 = s_for_radius(lab1, lab2, 0.85)
            for key, val in s1.items():
                gate = max(1e-9 * max(1.0, abs(val)),
                           100.0 * (floor[key] + floor2[key]))
                if abs(val - s2[key]) > gate:
                    raise ExtractionNotConverged(f"s-coefficients unstable at {key}")
            s_coeffs.update(s1)
            noise.update(floor)
    # symmetry of the regular part within the extraction noise floor, then
    # exact symmetrization over unordered mode pairs
    asym = 0.0
    for (m1, m2) in [k for k in s_coeffs if str(k[0]) <= str(k[1])]:
        val = s_coeffs[(m1, m2)]
        back = s_coeffs[(m2, m1)]
        gate = max(1e-9 * max(1.0, abs(val)),
                   100.0 * (noise[(m1, m2)] + noise[(m2, m1)]))
        asym = max(asym, abs(val - back) / gate)
        avg = 0.5 * (val + back)
        s_coeffs[(m1, m2)] = avg
        s_coeffs[(m2, m1)] = avg
    if asym > 1.0:
        raise ExtractionNotConverged(
            f"regular part asymmetry {asym:.2e} times the noise gate")
    return s_coeffs, c_coeffs


# ---------------------------------------------------------------------------
# the global embedding and its decomposition
# ---------------------------------------------------------------------------

def _transport_roots(curve, w_targets, z_starts):
    """Roots of P(z; u) = W near given starts, by Newton continuation."""
    out = np.array(z_starts, dtype=complex)
    pc = curve.p_coeffs
    dpc = npoly.polyder(pc)
    for _ in range(60):
        val = npoly.polyval(out, pc) - w_targets
        step = val / npoly.polyval(out, dpc)
        out = out - step
        if float(np.max(np.abs(step))) < 1e-14 * max(1.0, float(np.max(np.abs(out)))):
            return out
    raise OutOfNeighbourhood("leaf transport Newton did not converge")


def sw_embed_global(curve, ref, charts):
    """Laurent data of [dS(ref) - transported dS(curve)] at every chart.

    Residue-free by construction; the coefficients of z^-24 .. z^24 are
    extracted by a 256-point FFT on the chart extraction circles.  Raises
    OutOfNeighbourhood when the deformed curve leaves the chart guard.
    """
    nfft, window = 256, 24
    matching = _match_ram_roots(curve, ref)
    series = {}
    for lab, ch in sorted(charts.items()):
        flow_parameter(ch, curve, ref, matching)
        r = ch.extraction_radius
        theta = 2.0 * np.pi * np.arange(nfft) / nfft
        etab = r * np.exp(1j * theta)
        eta = np.array([ch.eta_of_etabar.evaluate(e) for e in etab])
        deta_detabar = ch.eta_of_etabar.derivative()
        deta = np.array([deta_detabar.evaluate(e) for e in etab])
        w_vals = eta ** 2 + ch.p0
        z0 = np.array([ch.z_of_eta.evaluate(e) for e in eta])
        y_pt = ch.label[1] * np.array([ch.y_plus.evaluate(e) for e in eta])
        z_u = _transport_roots(curve, w_vals, z0)
        phi = (z0 - z_u) * 2.0 * eta * deta / y_pt
        raw = np.fft.fft(phi) / nfft
        coeffs = {}
        for t in range(-window, window + 1):
            c = raw[t % nfft] / r ** t
            if abs(c) > 1e-15:
                coeffs[t] = c
        base = LaurentSeries(coeffs, min_exp=-window, trunc_order=window)
        series[lab] = SeriesDifferential(base)
    return WElement(series)


def decompose_in_g(w_elem, pd, s_coeffs, c_coeffs, k_bound=8):
    """Principal coefficients and holomorphic components of a local family.

    Solves (least squares over the regular modes)

        x^{(m,a)} = sum_{a',k'} xi_{a',k'} s^{(k',a')(m,a)} + sum_j A^j c^{m,a}_j

    with xi read off the principal parts.  Returns (xi, A, residual).
    """
    labels = sorted(w_elem.series)
    g = len(next(iter(c_coeffs.values())))
    xi = {}
    for lab in labels:
        for k in range(1, k_bound + 1):
            val = w_elem.y(k, lab)
            if abs(val) > 1e-14:
                xi[(k, lab)] = val
    rows = []
    rhs = []
    for lab in labels:
        for m in range(1, k_bound + 1):
            x_val = w_elem.x(m, lab)
            acc = x_val
            for (kk, lab2), v in xi.items():
                acc -= v * s_coeffs.get(((kk, lab2), (m, lab)), 0j)
            rows.append(c_coeffs[(m, lab)])
            rhs.append(acc)
    rows = np.array(rows)
    rhs = np.array(rhs)
    avec, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    residual = float(np.max(np.abs(rows @ avec - rhs)))
    return xi, avec, residual


# ---------------------------------------------------------------------------
# global evaluation helpers
# ---------------------------------------------------------------------------

def ebar_at_points(bk, chart, z_pts, y_pts, k_bound):
    """ebar^{k,chart}(p) against dz_p at global points, for k = 1..k_bound."""
    nfft = 128
    r = chart.extraction_radius
    etab, z2, y2, dz2 = _chart_nodes(chart, r, nfft)
    grid = bk.value(np.asarray(z_pts)[:, None], np.asarray(y_pts)[:, None],
                    z2[None, :], y2[None, :]) * dz2[None, :]
    raw = np.fft.fft(grid, axis=1) / nfft
    out = np.zeros((k_bound, len(z_pts)), dtype=complex)
    for k in range(1, k_bound + 1):
        out[k - 1] = raw[:, k - 1] / r ** (k - 1) / k
    return out


def bperiods_of_ebars(bk, cycles, chart, k_bound):
    """B-periods of ebar^{k,chart} for k = 1..k_bound by global quadrature."""
    tol = 1e-9
    ws = cycles.workspace
    out = np.zeros((len(cycles.b_cycles), k_bound), dtype=complex)
    for jb, cycle in enumerate(cycles.b_cycles):
        total = np.zeros(k_bound, dtype=complex)
        for coef, cont in cycle:
            prev = None
            n = 8
            while n <= 512:
                data = ws.nodes(cont, n)
                vals = ebar_at_points(bk, chart, data.z, data.y, k_bound)
                cur = vals @ (data.w * data.dzdt)
                if prev is not None and float(np.max(np.abs(cur - prev))) <= \
                        tol * max(1.0, float(np.max(np.abs(cur)))):
                    break
                prev = cur
                n *= 2
            else:
                raise ExtractionNotConverged("B-period of ebar did not converge")
            total += coef * cur
        out[jb] = total
    return out


def a_periods_of_ebars(bk, cycles, chart, k_bound):
    """A-periods of ebar^{k,chart} for k = 1..k_bound on 32 panels."""
    ws = cycles.workspace
    out = np.zeros((len(cycles.a_cycles), k_bound), dtype=complex)
    for ja, cycle in enumerate(cycles.a_cycles):
        for coef, cont in cycle:
            data = ws.nodes(cont, 32)
            vals = ebar_at_points(bk, chart, data.z, data.y, k_bound)
            out[ja] += coef * (vals @ (data.w * data.dzdt))
    return out
