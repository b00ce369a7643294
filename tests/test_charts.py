"""Tests for standard charts, local expansions and the global embedding."""

import ast
import cmath
import re
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from test_laurent import (
    float_hex,
    mp_reversion,
    newton_reversion,
    scalar_evaluate,
    series_hex,
    uncut_compose,
)

import swtr.charts as charts_module
import swtr.laurent as laurent_module
from swtr.airy import eval_hamiltonians, max_index_bound
from swtr.charts import (
    _build_upper_charts,
    _chart_nodes,
    _chart_residuals,
    _chart_rows,
    _outer_sum,
    _series,
    _validate_charts,
    decompose_in_g,
    ebar_at_points,
    ebar_periods,
    local_expansions,
    standard_charts,
    sw_embed_global,
)
from swtr.errors import (
    DivisionByZeroSeries,
    ExtractionNotConverged,
    OutOfNeighbourhood,
    TruncationInsufficient,
)
from swtr.hyperelliptic import (
    BergmanData,
    QuadratureWorkspace,
    bergman_kernel,
    build_cycles,
    ds_sw,
    new_curve,
    omega_value,
    periods,
)
from swtr.laurent import (
    LaurentSeries,
    SeriesDifferential,
    compose1,
    divide_diagonal2,
    inverse2,
    mul1,
    mul2,
    power1,
    symplectic_pairing,
)

U0 = (0.3 + 0.1j,)
U0_G2 = (0.3 + 0.1j, 0.2 - 0.15j)
U0_G3 = (0.3 + 0.1j, 0.2 - 0.15j, 0.1 + 0.05j)

# charts to this order pass the truncation gates of the global helpers on
# their extraction circles: the top-coefficient gate of ebar_at_points and
# ebar_periods (order 7 fails it), and the Laurent tail gate of
# sw_embed_global for the moves below, on a window [-22, 22] that reaches the
# decompositions' mode 8
CHART_ORDER = 44


class _Setup:
    _cache = {}

    @classmethod
    def get(cls, u=U0, g=1):
        key = (g, u)
        if key not in cls._cache:
            curve = new_curve(g, u)
            cycles = build_cycles(curve)
            pd = periods(curve, cycles)
            bk = bergman_kernel(curve, cycles, pd)
            charts = standard_charts(curve, CHART_ORDER)
            s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound=7)
            cls._cache[key] = (curve, cycles, pd, bk, charts, s_coeffs, c_coeffs)
        return cls._cache[key]


# ---------------------------------------------------------------------------
# the FFT oracle: s and c extracted from the kernel sampled on chart circles
# ---------------------------------------------------------------------------

# Each coefficient is extracted on two circles and accepted only where the two
# agree within its gate; the series data are checked against the first circle
# within the same gate.

#: FFT size of the oracle circles
_LOCAL_NFFT = 256


def _fft_coeffs(values, radius, kmax):
    n = len(values)
    raw = np.fft.fft(values) / n
    out = np.zeros(kmax + 1, dtype=complex)
    for t in range(kmax + 1):
        out[t] = raw[t] / radius ** t
    return out


def _node_cache(charts, nfft):
    """nodes(lab, radius): the chart nodes of one circle, computed once."""
    cache = {}

    def nodes(lab, radius):
        if (lab, radius) not in cache:
            cache[(lab, radius)] = _chart_nodes(charts[lab], radius, nfft)
        return cache[(lab, radius)]
    return nodes


def _c_gate(vec1, vec2):
    return 1e-7 * max(1.0, float(np.max(np.abs(vec1))), float(np.max(np.abs(vec2))))


def _s_gate(val, floor1, floor2):
    return max(1e-9 * max(1.0, abs(val)), 100.0 * (floor1 + floor2))


def _c_at_radius(pd, charts, nodes, lab, rfac, k_bound):
    r = charts[lab].extraction_radius * rfac
    etab, z, y, dz = nodes(lab, r)
    g = pd.norm_matrix.shape[0]
    out = {}
    for j in range(g):
        coeffs = _fft_coeffs(omega_value(pd, j, z, y) * dz, r, k_bound)
        for k in range(1, k_bound + 1):
            out.setdefault((k, lab), np.zeros(g, dtype=complex))[j] = coeffs[k - 1] / k
    return out, r


def _extract_c(pd, charts, nodes, lab, k_bound):
    """({key: c}, {key: gate}) of c^{k,lab}, k <= k_bound, gated against a second, smaller circle."""
    c1, r1 = _c_at_radius(pd, charts, nodes, lab, 1.0, k_bound)
    c2, r2 = _c_at_radius(pd, charts, nodes, lab, 0.8, k_bound)
    gates = {}
    for key, vec in c1.items():
        delta = float(np.max(np.abs(vec - c2[key])))
        gates[key] = _c_gate(vec, c2[key])
        if delta > gates[key]:
            raise ExtractionNotConverged(
                f"c-coefficients unstable at {key}: |delta| = {delta:.3e} between"
                f" radii {r1:.6g} and {r2:.6g}, gate {gates[key]:.3e}")
    return c1, gates


def _chart_difference(ser, e1, e2):
    """ser(e1) - ser(e2) as sum_k c_k (e1^k - e2^k), each power difference by a recurrence.

    Unlike the difference of two values, its rounding does not grow as
    |ser| / |ser(e1) - ser(e2)|.
    """
    d = e1 - e2
    out = np.zeros(np.broadcast(e1, e2).shape, dtype=complex)
    power_diff, e2_power = d, np.ones_like(e2)       # e1^k - e2^k and e2^(k-1)
    for k in range(1, ser.trunc_order + 1):
        if k > 1:
            e2_power = e2_power * e2
            power_diff = e1 * power_diff + d * e2_power
        out = out + ser.get(k) * power_diff
    return out


def _s_at_radius(bk, charts, nodes, lab1, lab2, rfac, k_bound):
    r1 = charts[lab1].extraction_radius * rfac
    r2 = 0.7 * charts[lab2].extraction_radius * rfac
    e1, z1, y1, dz1 = nodes(lab1, r1)
    e2, z2, y2, dz2 = nodes(lab2, r2)
    z1, y1, z2, y2 = z1[:, None], y1[:, None], z2[None, :], y2[None, :]
    if lab1 == lab2:
        # BergmanData.value with z1 - z2 summed from the chart series: the
        # singular part subtracted below cancels about three digits of the
        # kernel, and the rounding of z1 - z2 from two values would carry
        # into the extraction a noise that turns on the last bits of the chart
        dzz = _chart_difference(charts[lab1].z_of_etabar, e1[:, None], e2[None, :])
        w1, w2 = (np.stack([omega_value(bk.pd, j, z, y) for j in range(bk.curve.g)])
                  for z, y in ((z1, y1), (z2, y2)))
        grid = ((y1 * y2 + bk.f_at(z1, z2)) / (2.0 * y1 * y2 * dzz ** 2)
                + np.einsum("jk,j...,k...->...", bk.correction, w1, w2))
    else:
        grid = bk.value(z1, y1, z2, y2)
    grid = grid * dz1[:, None] * dz2[None, :]
    if lab1 == lab2:
        grid = grid - 1.0 / (e1[:, None] - e2[None, :]) ** 2
    scale = float(np.max(np.abs(grid)))
    nfft = len(e1)
    raw = np.fft.fft2(grid) / (nfft * nfft)
    out, floor = {}, {}
    for k in range(1, k_bound + 1):
        for kp in range(1, k_bound + 1):
            key = ((k, lab1), (kp, lab2))
            out[key] = raw[k - 1, kp - 1] / (r1 ** (k - 1) * r2 ** (kp - 1)) / (k * kp)
            # double-precision extraction noise for this coefficient
            floor[key] = 2e-16 * scale / (r1 ** (k - 1) * r2 ** (kp - 1) * k * kp)
    return out, floor, (r1, r2)


def _extract_s(bk, charts, nodes, lab1, lab2, k_bound):
    """({key: s}, {key: gate}) of one chart pair, gated against smaller circles.

    The kernel is sampled on a grid of the two charts' circles, with the
    diagonal singular part subtracted on equal charts.
    """
    s1, floor1, radii1 = _s_at_radius(bk, charts, nodes, lab1, lab2, 1.0, k_bound)
    s2, floor2, radii2 = _s_at_radius(bk, charts, nodes, lab1, lab2, 0.85, k_bound)
    gates = {}
    for key, val in s1.items():
        delta = abs(val - s2[key])
        gates[key] = _s_gate(val, floor1[key], floor2[key])
        if delta > gates[key]:
            raise ExtractionNotConverged(
                f"s-coefficients unstable at {key}: |delta| = {delta:.3e} between"
                f" radii ({radii1[0]:.6g}, {radii1[1]:.6g}) and"
                f" ({radii2[0]:.6g}, {radii2[1]:.6g}), gate {gates[key]:.3e}")
    return s1, gates


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------

def test_chart_normal_form_and_one_form_identity():
    # construction self-validates that the odd one-form combination equals
    # 4 etabar^2 detabar, i.e. the normal form y = etabar; confirm the values here
    curve, _, _, _, charts, _, _ = _Setup.get()
    for ch in charts.values():
        _, even = ch.ds_detabar.parity_split()
        assert abs(even.get(2) - 2.0) < 1e-10
        assert abs(even.get(0)) < 1e-10 and abs(even.get(4)) < 1e-10


def test_chart_f_leading_coefficient():
    # leading coefficient of F is ((2/P'')^(1/2) / y0)^(2/3); the bare
    # (2/P'')^(1/3) value omits the branch-value normalization
    curve, _, _, _, charts, _, _ = _Setup.get()
    for ch in charts.values():
        ddp = ch.p_shift[2] * 2.0
        y_plus0 = ch.y_plus.get(0)
        expect = (np.sqrt(2.0 / ddp) / y_plus0) ** (2.0 / 3.0)
        got = ch.f_series.get(1)
        assert abs(got - expect) < 1e-12 * abs(expect)


def test_chart_sheets_are_opposite():
    curve, _, _, _, charts, _, _ = _Setup.get()
    plus = charts[(0, 1)]
    minus = charts[(0, -1)]
    # etabar_- = -etabar_+ as functions of eta
    for e in range(1, 20):
        assert abs(plus.eta_of_etabar.get(e) + minus.eta_of_etabar.get(e)) < 1e-12


@pytest.mark.parametrize("u", [U0, U0_G2], ids=["g1", "g2"])
def test_lower_sheet_charts_match_direct_route(u):
    # the (i, -1) charts built directly, by the stacked route with
    # -etabar_+^{-1} for etabar_+^{-1}: the sigma-derived series are bitwise
    # equal to them
    curve, _, _, _, charts, _, _ = _Setup.get(u, len(u))
    stack = _build_upper_charts(curve, range(curve.g), CHART_ORDER)
    t = CHART_ORDER
    eta = -stack.eta_of_etabar
    z, y, inv_y = compose1(np.stack([stack.z_of_eta, stack.y_plus[:, :t + 2],
                                     power1(stack.y_plus, -1)[:, :t + 2]]), eta)
    y, inv_y = -y, -inv_y
    deta = np.zeros_like(eta)
    deta[:, :-1] = eta[:, 1:] * np.arange(1, t + 2)
    direct = {
        "eta_of_etabar": (eta, 1, t + 1),
        "z_of_etabar": (z, 0, t + 1),
        "dz_detabar": (z[:, 1:] * np.arange(1, t + 2), -1, t),
        "y_curve": (y, 0, t + 1),
        "ds_detabar": (mul1(2.0 * mul1(mul1(z, eta), deta), inv_y), 1, t + 1),
    }
    for i in range(curve.g):
        minus = charts[(i, -1)]
        for name, (rows, min_exp, trunc) in direct.items():
            got, ser = getattr(minus, name), _series(rows[i], min_exp, trunc)
            assert (got.coeffs, got.min_exp, got.trunc_order) == \
                (ser.coeffs, ser.min_exp, ser.trunc_order), name


@pytest.mark.parametrize("u, k_bound", [(U0, 7), (U0_G2, 7), (U0_G3, 5)],
                         ids=["g1", "g2", "g3"])
def test_lower_sheet_data_match_direct_extraction(u, k_bound):
    # every (2g)^2 chart pair, the (-) charts included, extracted by the FFT
    # oracle on its own nodes: the series s and c are within each key's gate
    curve, _, pd, bk, charts, _, _ = _Setup.get(u, len(u))
    s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound)
    nodes = _node_cache(charts, _LOCAL_NFFT)
    worst_s = worst_c = 0.0
    for lab1 in sorted(charts):
        for lab2 in sorted(charts):
            vals, gates = _extract_s(bk, charts, nodes, lab1, lab2, k_bound)
            worst_s = max(worst_s, max(abs(s_coeffs[key] - val) / gates[key]
                                       for key, val in vals.items()))
        vals, gates = _extract_c(pd, charts, nodes, lab1, k_bound)
        worst_c = max(worst_c, max(float(np.max(np.abs(c_coeffs[key] - vec))) / gates[key]
                                   for key, vec in vals.items()))
    assert worst_s <= 1.0 and worst_c <= 1.0, (worst_s, worst_c)


@pytest.mark.parametrize("u", [U0, U0_G2, U0_G3], ids=["g1", "g2", "g3"])
def test_sigma_rules(u):
    # sigma(z, y) = (z, -y) maps (k, (i, a)) to (k, (i, -a)) and etabar to
    # -etabar: c^{k,(i,-)} = (-1)^(k+1) c^{k,(i,+)} and
    # s^{(k,(i,-))(k',(j,-b))} = (-1)^(k+k') s^{(k,(i,+))(k',(j,b))}
    *_, bk, charts, _, _ = _Setup.get(u, len(u))
    s_coeffs, c_coeffs = local_expansions(bk, charts, 9)
    flip = {(k, (i, a)): (k, (i, -a)) for k, (i, a) in c_coeffs}
    for (m1, m2), val in s_coeffs.items():
        image = (-1.0) ** (m1[0] + m2[0]) * s_coeffs[(flip[m1], flip[m2])]
        assert abs(val - image) <= 1e-10 * max(1.0, abs(val)), (m1, m2)
    for m, vec in c_coeffs.items():
        image = (-1.0) ** (m[0] + 1) * c_coeffs[flip[m]]
        assert np.max(np.abs(vec - image)) <= 1e-10 * max(1.0, float(np.max(np.abs(vec)))), m


def test_local_expansions_read_every_chart():
    # each chart's c data are read from its own series: a (0, -1) chart with
    # dz/detabar doubled gives every c^{k,(0,-)} exactly doubled and leaves
    # the c data of every other chart as they were, bit for bit
    *_, bk, charts, _, _ = _Setup.get(U0_G2, 2)
    chart = charts[(0, -1)]
    doubled = {**charts, (0, -1): replace(chart, dz_detabar=chart.dz_detabar.scale(2.0))}
    _, c_coeffs = local_expansions(bk, charts, 5)
    _, c_doubled = local_expansions(bk, doubled, 5)
    assert list(c_doubled) == list(c_coeffs)
    for (k, lab), vec in c_coeffs.items():
        expect = 2.0 * vec if lab == (0, -1) else vec
        assert c_doubled[(k, lab)].tobytes() == expect.tobytes(), (k, lab)


@pytest.mark.parametrize("u", [U0, U0_G2, U0_G3], ids=["g1", "g2", "g3"])
def test_local_data_do_not_depend_on_the_working_order(u):
    # s to mode k_bound needs the charts to total degree 2 k_bound + 1; the
    # modes of a lower bound, read from a larger working size, are the same
    # in every bit, and s is symmetric in every bit
    *_, bk, charts, _, _ = _Setup.get(u, len(u))
    low_s, low_c = local_expansions(bk, charts, 4)
    high_s, high_c = local_expansions(bk, charts, 11)
    assert all(high_s[key] == val for key, val in low_s.items())
    assert all(high_c[key].tobytes() == vec.tobytes() for key, vec in low_c.items())
    assert all(val == high_s[(m2, m1)] for (m1, m2), val in high_s.items())


def _regular_part(bk, rows_a, rows_b, eps):
    """The regular part of one chart pair, by 2-D series algebra: the reference for the stack.

    At the same critical point (eps = +-1) z_a - z_b = (t1 - eps t2) D works
    one size smaller, and H = M / D^2 - [eps = 1] is divided twice more.
    """
    (dz_a, z_a, forms_a), (dz_b, z_b, forms_b) = rows_a, rows_b
    numer = 0.5 * (np.outer(dz_a, dz_b) + _outer_sum(bk.f_coeffs, forms_a, forms_b))
    diff = np.zeros_like(numer)
    diff[:, 0] = z_a
    diff[0, :] -= z_b
    if eps is None:
        return mul2(numer, inverse2(mul2(diff, diff)))
    quot = divide_diagonal2(diff, eps)
    h = mul2(numer[:-1, :-1], inverse2(mul2(quot, quot)))
    h[0, 0] -= eps == 1
    return divide_diagonal2(divide_diagonal2(h, eps), eps)


def _pairwise_local_expansions(bk, charts, k_bound):
    """``local_expansions`` one chart pair at a time, each by ``_regular_part``."""
    norm = bk.pd.norm_matrix
    labels = sorted(charts)
    stacked = _chart_rows(charts, 2 * k_bound + 2, len(bk.f_coeffs))
    rows = {lab: tuple(field[row] for field in stacked) for row, lab in enumerate(labels)}
    ks = np.arange(1, k_bound + 1)
    cmat = {lab: _outer_sum(np.eye(len(norm)), norm, rows[lab][2][:len(norm), :k_bound] / ks)
            for lab in labels}
    c_coeffs = {(k, lab): cmat[lab][:, k - 1] for lab in labels for k in range(1, k_bound + 1)}
    s_coeffs = {}
    for ia, a in enumerate(labels):
        for b in labels[ia:]:
            eps = a[1] * b[1] if a[0] == b[0] else None
            reg = _regular_part(bk, rows[a], rows[b], eps)[:k_bound, :k_bound]
            block = reg / np.outer(ks, ks) + _outer_sum(bk.correction, cmat[a], cmat[b])
            if a == b:
                block = 0.5 * (block + block.T)
            for (k, kp), val in np.ndenumerate(block):
                s_coeffs[((k + 1, a), (kp + 1, b))] = s_coeffs[((kp + 1, b), (k + 1, a))] = val
    return s_coeffs, c_coeffs


def _local_data_hex(s_coeffs, c_coeffs):
    """s and c in key order, every value as float hex (so the sign of zero counts)."""
    return ([(key, float_hex(val), type(val)) for key, val in s_coeffs.items()],
            [(key, float_hex(vec)) for key, vec in c_coeffs.items()])


@pytest.mark.parametrize("u, k_bound", [(U0, 3), (U0_G2, 3), (U0_G3, 3), (U0_G2, 11)],
                         ids=["g1", "g2", "g3", "g2-chi4"])
def test_stacked_pairs_match_pairwise_loop(u, k_bound):
    # every chart pair in one stack gives the s and c of the pair-by-pair
    # loop, bit for bit and key for key, at the acceptance points (chi 1)
    # and at g2 chi 4
    *_, bk, charts, _, _ = _Setup.get(u, len(u))
    assert _local_data_hex(*local_expansions(bk, charts, k_bound)) == \
        _local_data_hex(*_pairwise_local_expansions(bk, charts, k_bound))


def test_stacked_pairs_match_pairwise_loop_on_draws():
    # the same at 20 moduli drawn within 0.03 of the g2 acceptance point
    rng = np.random.default_rng(41)
    for _ in range(20):
        u = tuple(c + 0.03 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                  for c in U0_G2)
        curve = new_curve(2, u)
        cycles = build_cycles(curve)
        bk = bergman_kernel(curve, cycles, periods(curve, cycles))
        charts = standard_charts(curve, 7)
        assert _local_data_hex(*local_expansions(bk, charts, 3)) == \
            _local_data_hex(*_pairwise_local_expansions(bk, charts, 3)), u


def test_local_expansions_mul2_count(monkeypatch):
    # all chart pairs are one stack: one product D^2 and one by the
    # numerator, whatever the number of pairs (10 at g2, 21 at g3);
    # inverse2 takes its terms one degree at a time, with no mul2
    setups = {len(u): _Setup.get(u, len(u)) for u in (U0_G2, U0_G3)}
    calls = {}

    def counted(x, y):
        calls[genus] += 1
        return mul2(x, y)

    monkeypatch.setattr(laurent_module, "mul2", counted)
    monkeypatch.setattr(charts_module, "mul2", counted)
    for genus, (*_, bk, charts, _, _) in setups.items():
        calls[genus] = 0
        local_expansions(bk, charts, 7)
    assert calls == {2: 2, 3: 2}


def test_local_data_beyond_the_chart_order_raise():
    # charts built to order 30 hold dz/detabar to etabar^30 (z to etabar^31);
    # s to mode 15 needs total degree 31 and is refused by name
    curve, _, _, bk, _, _, _ = _Setup.get(U0_G2, 2)
    charts = standard_charts(curve, order=30)
    local_expansions(bk, charts, 14)
    with pytest.raises(TruncationInsufficient, match=re.escape("beyond truncation order 30")):
        local_expansions(bk, charts, 15)


def test_one_sheet_work_count(monkeypatch):
    # charts are built for the upper sheet only, g of them in one stack, and
    # the local data sample no kernel grid (2 radii x g upper charts x 2g
    # charts of them by FFT)
    curve, _, _, bk, charts, _, _ = _Setup.get(U0_G2, 2)
    calls = {"value": 0, "stacks": []}
    value, build = BergmanData.value, charts_module._build_upper_charts

    def counted_value(*args, **kwargs):
        calls["value"] += 1
        return value(*args, **kwargs)

    def counted_build(curve, points, order):
        calls["stacks"].append(list(points))
        return build(curve, points, order)

    monkeypatch.setattr(BergmanData, "value", counted_value)
    monkeypatch.setattr(charts_module, "_build_upper_charts", counted_build)
    local_expansions(bk, charts, k_bound=7)
    standard_charts(curve, CHART_ORDER)
    assert calls == {"value": 0, "stacks": [[0, 1]]}


def test_extraction_error_names_its_numbers():
    # on 16-point circles the oracle cannot resolve mode 8 (its aliases reach
    # it); the error names the key, |delta| between the two extractions,
    # their radii and the gate
    *_, bk, charts, _, _ = _Setup.get(U0_G2, 2)
    nodes = _node_cache(charts, 16)
    with pytest.raises(ExtractionNotConverged) as err:
        for lab1 in sorted(charts):
            for lab2 in sorted(charts):
                _extract_s(bk, charts, nodes, lab1, lab2, 8)
    m = re.fullmatch(r"s-coefficients unstable at (.*): \|delta\| = (\S+) between radii"
                     r" \((\S+), (\S+)\) and \((\S+), (\S+)\), gate (\S+)", str(err.value))
    assert m, str(err.value)
    (_, lab1), (_, lab2) = ast.literal_eval(m.group(1))
    delta, gate = float(m.group(2)), float(m.group(7))
    assert delta > gate > 0
    r1, r2 = charts[lab1].extraction_radius, 0.7 * charts[lab2].extraction_radius
    radii = [float(m.group(i)) for i in range(3, 7)]
    assert np.allclose(radii, [r1, r2, 0.85 * r1, 0.85 * r2], rtol=1e-5)


def test_chart_neighbourhood_guard():
    ref, _, _, _, charts, _, _ = _Setup.get()
    near = new_curve(1, (U0[0] + 0.002,))
    sw_embed_global(near, ref, charts)   # fine
    far = new_curve(1, (U0[0] + 0.8,))
    with pytest.raises(OutOfNeighbourhood):
        sw_embed_global(far, ref, charts)


def _chart_series(ch):
    return {f.name: getattr(ch, f.name) for f in fields(ch)
            if isinstance(getattr(ch, f.name), LaurentSeries)}


@pytest.mark.parametrize("u", [U0, U0_G2, U0_G3], ids=["g1", "g2", "g3"])
def test_chart_series_evaluate_bitwise(u):
    # every chart series on the nodes of every FFT-oracle circle (c at 1 and
    # 0.8, s at 1 and 0.85 and, as second chart, 0.7 and 0.7 * 0.85 of the
    # extraction radius): the array path is CPython's scalar sum, bit for bit,
    # and so is the scalar path on every 8th node
    charts = standard_charts(new_curve(len(u), u), CHART_ORDER)
    theta = 2.0 * np.pi * np.arange(_LOCAL_NFFT) / _LOCAL_NFFT
    for ch in charts.values():
        for rfac in (1.0, 0.8, 0.85, 0.7, 0.7 * 0.85):
            etab = ch.extraction_radius * rfac * np.exp(1j * theta)
            for name, ser in _chart_series(ch).items():
                oracle = float_hex([scalar_evaluate(ser, complex(e)) for e in etab])
                assert float_hex(ser.evaluate(etab)) == oracle, (ch.label, rfac, name)
                assert float_hex([ser.evaluate(e) for e in etab[::8]]) == oracle[::8]


def uncut_compose1(f, g):
    """Horner's rule over every term of f, at f's size when larger, cut back: the oracle of compose1."""
    n = g.shape[-1]
    wide = np.zeros(g.shape[:-1] + (max(n, f.shape[-1]),), dtype=complex)
    wide[..., :n] = g
    return compose1(f, wide)[..., :n]


@pytest.mark.parametrize("u", [U0, U0_G2, U0_G3], ids=["g1", "g2", "g3"])
def test_chart_series_match_uncut_compose(u, monkeypatch):
    # compose1 reads no term of f beyond its output window; the charts built
    # with Horner's rule over every term are the same in every bit and key order
    curve = new_curve(len(u), u)
    cut = standard_charts(curve, CHART_ORDER)
    monkeypatch.setattr(charts_module, "compose1", uncut_compose1)
    full = standard_charts(curve, CHART_ORDER)
    for lab, ch in cut.items():
        for name, ser in _chart_series(ch).items():
            assert series_hex(ser) == series_hex(getattr(full[lab], name)), (lab, name)


# ---------------------------------------------------------------------------
# the series route: each chart by LaurentSeries algebra, the oracle of the stack
# ---------------------------------------------------------------------------

def pow_frac(f, p, q):
    """g with g**q = f**p, leading with the principal value of lead**(p/q)."""
    m = f.order()
    return f._unit_power(p / q, cmath.exp((p / q) * cmath.log(f.get(m))), m * p // q)


def series_reversion(f):
    """Lagrange's formula by LaurentSeries products, one per power of phi = z / f."""
    phi = f.shift(-1).inverse()
    power, h = phi, [phi.get(0)]
    for n in range(2, f.trunc_order + 1):
        power = phi * power
        h.append(power.get(n - 1) / n)
    return LaurentSeries.from_list(h, start=1)


def series_route_chart(curve, i, order):
    """The series of the upper chart at i, built alone by LaurentSeries algebra."""
    zi = complex(curve.ram_roots[i])
    shifted = [npoly.polyval(zi, npoly.polyder(curve.p_coeffs, m)) / np.prod(np.arange(1, m + 1))
               for m in range(len(curve.p_coeffs))]
    poly = LaurentSeries({m: shifted[m] for m in range(2, len(shifted)) if shifted[m] != 0},
                         min_exp=2, trunc_order=order + 2)
    z_of_eta = series_reversion(pow_frac(poly, 1, 2)) + zi
    wser = LaurentSeries({0: shifted[0], 2: 1.0}, 0, order + 2)
    y_plus = pow_frac(wser * wser - 4.0 * curve.lam_pow ** 2, 1, 2)
    z_odd, _ = z_of_eta.parity_split()
    integrand = LaurentSeries.monomial(1.0, 1) * z_odd / y_plus
    etabar_plus = pow_frac(SeriesDifferential(integrand).primitive().scale(3.0), 1, 3)
    eta_of_etabar = series_reversion(etabar_plus)
    etabar_sq = etabar_plus * etabar_plus
    z_of_etabar = z_of_eta.compose(eta_of_etabar)
    y_curve = y_plus.compose(eta_of_etabar)
    return {
        "z_of_eta": z_of_eta, "y_plus": y_plus,
        "f_series": LaurentSeries.from_list(
            [etabar_sq.get(e) for e in range(2, etabar_sq.trunc_order + 1, 2)],
            start=1, trunc_order=etabar_sq.trunc_order // 2),
        "eta_of_etabar": eta_of_etabar, "z_of_etabar": z_of_etabar,
        "dz_detabar": z_of_etabar.derivative(), "y_curve": y_curve,
        "ds_detabar": (z_of_etabar * eta_of_etabar * eta_of_etabar.derivative()
                       ).scale(2.0) / y_curve,
    }


def _weighed_gap(got, want, radius):
    """max_e |got_e - want_e| radius^e over the largest |want_e| radius^e."""
    exps = sorted(set(got.coeffs) | set(want.coeffs))
    return (max(abs(got.get(e) - want.get(e)) * radius ** e for e in exps)
            / max(abs(want.get(e)) * radius ** e for e in exps))


#: largest weighed gap between a stacked chart series and the series route
_ROUTE_GAP = 1e-15


@pytest.mark.parametrize("u", [U0, U0_G2, U0_G3], ids=["g1", "g2", "g3"])
@pytest.mark.parametrize("order", [7, 13, 23, 44])
def test_stacked_charts_match_series_route(u, order):
    # every series of every upper chart, on the same window as the series
    # route's and within _ROUTE_GAP of it weighed on the extraction circle
    # (series in eta on its image |eta_1| rho, F in v on |v_2| rho^2); the
    # lower charts are parity flips of both, which weigh the same
    curve = new_curve(len(u), u)
    charts = standard_charts(curve, order)
    for i in range(curve.g):
        ch, oracle = charts[(i, 1)], series_route_chart(curve, i, order)
        rho = ch.extraction_radius
        radii = {"z_of_eta": abs(ch.eta_of_etabar.get(1)) * rho,
                 "y_plus": abs(ch.eta_of_etabar.get(1)) * rho,
                 "f_series": abs(ch.p_shift[2] * ch.z_of_etabar.get(1) ** 2) * rho ** 2}
        for name, want in oracle.items():
            got = getattr(ch, name)
            assert (got.min_exp, got.trunc_order) == (want.min_exp, want.trunc_order), name
            gap = _weighed_gap(got, want, radii.get(name, rho))
            assert gap <= _ROUTE_GAP, (i, name, gap)


@pytest.mark.parametrize("u", [U0, U0_G2, U0_G3], ids=["g1", "g2", "g3"])
@pytest.mark.parametrize("order", [7, 13, 23, 44])
def test_chart_reversions_match_newton_and_mpmath(monkeypatch, u, order):
    # both reversions of every chart, delta(eta) and eta(etabar): Lagrange's
    # formula agrees with Newton's doubling to rounding, and both with a
    # 60-digit reversion of the same input on the extraction circle (in eta,
    # its image |eta_1| rho)
    reversions, revert = [], charts_module.revert1

    def recorded(c):
        h = revert(c)
        reversions.append((c, h))
        return h
    monkeypatch.setattr(charts_module, "revert1", recorded)
    charts = standard_charts(new_curve(len(u), u), order)
    assert [len(c) for c, _ in reversions] == [len(u)] * 2
    for i in range(len(u)):
        ch = charts[(i, 1)]
        assert np.array_equal(reversions[1][1][i], ch.eta_of_etabar.taylor(order + 2)[1:])
        rho = ch.extraction_radius
        for (c, h), radius in zip(reversions, (abs(ch.eta_of_etabar.get(1)) * rho, rho)):
            f = LaurentSeries.from_list(list(c[i]), start=1)
            oracle, t = newton_reversion(f), f.trunc_order
            assert (oracle.min_exp, oracle.trunc_order) == (1, t) and len(h[i]) == t
            exps = np.arange(1, t + 1)
            got, newton = h[i], np.array([oracle.get(e) for e in exps])
            assert np.max(np.abs(got - newton)) <= 1e-13 * np.max(np.abs(newton)), (i, t)
            weights = radius ** exps
            exact = np.array(mp_reversion(f)) * weights
            for approx in (got, newton):
                assert np.max(np.abs(approx * weights - exact)) <= 1e-15 * np.max(np.abs(exact))


@pytest.mark.parametrize("u", [U0_G2, U0_G3], ids=["g2", "g3"])
def test_chart_stack_rows_do_not_depend_on_the_subset(u):
    # the stack over any subset of the points, in any order, gives the rows
    # of the full stack in every bit
    curve = new_curve(len(u), u)
    full = _build_upper_charts(curve, range(curve.g), 13)
    for subset in ([0], [curve.g - 1], [curve.g - 1, 0], [1, 0]):
        sub = _build_upper_charts(curve, subset, 13)
        assert sub.points == subset
        for field in fields(sub):
            if field.name in ("points", "order"):
                continue
            got, want = getattr(sub, field.name), getattr(full, field.name)[subset]
            assert float_hex(got) == float_hex(want), (subset, field.name)


@pytest.mark.parametrize("u", [U0, U0_G2, U0_G3], ids=["g1", "g2", "g3"])
def test_lower_chart_residuals_are_parity_flips(u):
    # the identities checked on the lower charts' own series give the upper
    # residuals at -etabar, bit for bit (zeros up to sign), so checking the
    # upper stack checks both sheets
    curve, t = new_curve(len(u), u), 13
    charts = standard_charts(curve, t)
    upper = _build_upper_charts(curve, range(curve.g), t)
    lower = replace(upper, **{
        name: np.array([getattr(charts[(i, -1)], name).taylor(t + 2) for i in upper.points])
        for name in ("ds_detabar", "z_of_etabar")})
    flip = (-1.0) ** np.arange(t + 2)
    for got, want in zip(_chart_residuals(lower), _chart_residuals(upper)):
        assert float_hex(got + 0.0) == float_hex(want * flip + 0.0)


def test_laurent_work_count(monkeypatch):
    # g2: local_expansions evaluates no chart series (it read 14 circles x z, y
    # and dz/detabar, 42 array calls, when it sampled the kernel);
    # standard_charts makes no LaurentSeries product (180 before the stack)
    # and the same stacked calls at every genus: at the order the verifier
    # builds at chi = 1 (7), 5 products, 6 powers, 2 reversions and 3
    # compositions
    curve, _, _, bk, charts, _, _ = _Setup.get(U0_G2, 2)
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(LaurentSeries, "evaluate", counted("evaluate", LaurentSeries.evaluate))
    monkeypatch.setattr(LaurentSeries, "__mul__", counted("mul", LaurentSeries.__mul__))
    for module in (charts_module, laurent_module):
        for name in ("mul1", "power1", "revert1", "compose1"):
            monkeypatch.setattr(module, name, counted(name, getattr(laurent_module, name)))
    local_expansions(bk, charts, k_bound=7)
    assert calls["evaluate"] == 0
    counts = []
    for u in (U0, U0_G2, U0_G3):
        calls.clear()
        standard_charts(new_curve(len(u), u), 2 * (max_index_bound(1) - 1) + 1)
        counts.append(dict(calls))
    assert counts == [{"mul1": 5, "power1": 6, "revert1": 2, "compose1": 3}] * 3


@pytest.mark.parametrize("order, where, name, field", [
    pytest.param(order, where, name, field, id=f"{name}-{field}" + (
        "" if (order, where) == (44, "z2") else f"-order{order}-{where}"))
    for order in (7, 44) for where in ("z2", "top")
    for name, field in (("one-form", "ds_detabar"), ("F round-trip", "f_series"))])
def test_chart_validation_error_names_its_numbers(order, where, name, field):
    # a chart series off by 1e-6 z^2, or by a term that moves the top known
    # coefficient of its residual by 1e-6 once weighed, fails its invariant,
    # at the order the verifier builds for g1 at chi = 1 (7) and at 44; the
    # error names the residual, the gate and the radius it is weighed at
    stack = _build_upper_charts(new_curve(1, U0), [0], order)
    rho = stack.extraction_radius[0]
    term = np.zeros_like(getattr(stack, field))
    if field == "ds_detabar":
        e = 2 if where == "z2" else (order + 1) // 2 * 2
        term[0, e] = 1e-6 if where == "z2" else 1e-6 * rho ** (2 - e)
    else:
        # F's v^j reaches etabar^2j through v_2^j, v_2 = P''/2 z_1^2
        j = 2 if where == "z2" else (order + 1) // 2
        v2 = stack.p_shift[0, 2] * stack.z_of_etabar[0, 1] ** 2
        term[0, j] = 1e-6 if where == "z2" else 1e-6 * rho ** (2 - 2 * j) / v2 ** j
    broken = replace(stack, **{field: getattr(stack, field) + term})
    with pytest.raises(ExtractionNotConverged) as err:
        _validate_charts(broken)
    m = re.fullmatch(r"chart \(0, 1\): (.*) residual (\S+) above gate (\S+)"
                     r" on \|etabar\| = (\S+)", str(err.value))
    assert m, str(err.value)
    assert m.group(1) == name
    assert float(m.group(2)) > float(m.group(3)) == 1e-10
    if where == "top":
        assert float(m.group(2)) == pytest.approx(1e-6, rel=1e-2)
    assert np.isclose(float(m.group(4)), rho, rtol=1e-5)


def test_non_finite_chart_power_names_the_chart(monkeypatch):
    # a P'' too small to divide by at the second critical point: its square
    # root overflows, and the error names the chart
    shift = charts_module._taylor_shift

    def tiny_second(p_coeffs, z0):
        out = shift(p_coeffs, z0)
        out[1, 2] = 1e-200
        return out
    monkeypatch.setattr(charts_module, "_taylor_shift", tiny_second)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivisionByZeroSeries, match=r"^chart \(1, 1\): power 0\.5 of row 1"
                           r" with leading coefficient 1e-200\+0j is not finite at z\^2$"):
            standard_charts(new_curve(2, U0_G2), 7)


# ---------------------------------------------------------------------------
# local expansions
# ---------------------------------------------------------------------------

def test_s_coeffs_symmetric():
    *_, s_coeffs, _ = _Setup.get()
    for (m1, m2), v in s_coeffs.items():
        assert v == s_coeffs[(m2, m1)]


def test_c_coeffs_sheet_relation():
    # With the branch choice that enforces the 4 etabar^2 detabar identity on
    # both sheets, the standard coordinate at the lower sheet is the negative
    # of the upper one, so c^{k,(i,-)}_j = (-1)^(k+1) c^{k,(i,+)}_j: the
    # blanket sign flip holds for even k only.
    *_, c_coeffs = _Setup.get()
    for k in range(1, 8):
        cp = c_coeffs[(k, (0, 1))]
        cm = c_coeffs[(k, (0, -1))]
        expect = (-1.0) ** (k + 1) * cp
        assert np.max(np.abs(cm - expect)) < 1e-9 * max(1.0, float(np.max(np.abs(cp))))


def test_c_matrix_invertible():
    *_, c_coeffs = _Setup.get()
    cmat = np.array([c_coeffs[(1, (0, 1))]])
    det = abs(np.linalg.det(cmat))
    assert det > 1e-8


def test_local_one_form_matches_c_data():
    # the Taylor data of omega_j in the chart reproduces omega_j numerically
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get()
    ch = charts[(0, 1)]
    zpt = 0.31 * ch.extraction_radius
    z = ch.z_of_etabar.evaluate(zpt)
    y = ch.y_curve.evaluate(zpt)
    dz = ch.dz_detabar.evaluate(zpt)
    direct = omega_value(pd, 0, z, y) * dz
    series = sum(c_coeffs[(k, ch.label)][0] * k * zpt ** (k - 1) for k in range(1, 8))
    assert abs(direct - series) < 1e-7 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# local/global consistency
# ---------------------------------------------------------------------------

def test_bperiods_of_ebars_match_c_data():
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get()
    for lab, ch in charts.items():
        bp = ebar_periods(bk, cycles.b_cycles, ch, k_bound=5)
        for k in range(1, 6):
            expect = 2j * np.pi * c_coeffs[(k, lab)]
            got = bp[:, k - 1]
            assert np.max(np.abs(got - expect)) < 1e-6 * max(1.0, float(np.max(np.abs(expect))))


def test_ebar_truncation_gate_names_its_numbers():
    # the ebar forms sample z_of_etabar, y_curve and dz_detabar on the
    # extraction circle: at order 7 a top known coefficient, weighed there
    # relative to its series' largest term, is above the chart gate, and the
    # error names the chart, the series, the exponent, the weight, the gate
    # and the radius; the order-44 charts pass
    curve, _, _, bk, charts, _, _ = _Setup.get()
    ch = standard_charts(curve, 7)[(0, 1)]
    z = np.array([0.9 + 0.4j])
    y = np.sqrt(curve.q_at(z))
    with pytest.raises(TruncationInsufficient) as err:
        ebar_at_points(bk, ch, z, y, k_bound=3)
    m = re.fullmatch(r"chart \(0, 1\): (\w+) at etabar\^(\d+) weighs (\S+), above gate (\S+)"
                     r" on \|etabar\| = (\S+)", str(err.value))
    assert m, str(err.value)
    name, top = m.group(1), int(m.group(2))
    assert name in ("z_of_etabar", "y_curve", "dz_detabar")
    assert top == getattr(ch, name).trunc_order
    assert float(m.group(3)) > float(m.group(4)) == 1e-10
    assert np.isclose(float(m.group(5)), ch.extraction_radius, rtol=1e-5)
    assert np.all(np.isfinite(ebar_at_points(bk, charts[(0, 1)], z, y, k_bound=3)))


def test_a_periods_of_ebars_vanish():
    curve, cycles, pd, bk, charts, *_ = _Setup.get()
    ch = charts[(0, 1)]
    ap = ebar_periods(bk, cycles.a_cycles, ch, k_bound=5)
    assert float(np.max(np.abs(ap))) < 1e-7


def test_riemann_bilinear_crosscheck():
    # local pairing of ebar^{k,a} with omega_j against the global period form
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get()
    g = curve.g
    for lab, ch in charts.items():
        bp = ebar_periods(bk, cycles.b_cycles, ch, k_bound=4)
        ap = ebar_periods(bk, cycles.a_cycles, ch, k_bound=4)
        for k in range(1, 5):
            for j in range(g):
                # local side: sum over labels of Res(i(ebar) int i(omega))
                local = 0j
                for lab2 in charts:
                    coeffs = {-k - 1: 1.0} if lab2 == lab else {}
                    base = dict(coeffs)
                    for m in range(1, 8):
                        sval = s_coeffs.get(((k, lab), (m, lab2)), 0j)
                        if sval:
                            base[m - 1] = base.get(m - 1, 0j) + sval * m
                    xi1 = SeriesDifferential(LaurentSeries(base, -k - 1, 10))
                    om = {m - 1: c_coeffs[(m, lab2)][j] * m for m in range(1, 8)}
                    xi2 = SeriesDifferential(LaurentSeries(om, 0, 10))
                    local += symplectic_pairing(xi1, xi2)
                # global side via the period pairing
                glob = 0j
                for l in range(g):
                    a_om = 1.0 if l == j else 0.0
                    b_om = pd.tau[j, l]
                    glob += (a_om * bp[l, k - 1] - b_om * ap[l, k - 1])
                glob /= 2j * np.pi
                assert abs(local - glob) < 1e-6 * max(1.0, abs(local))


# ---------------------------------------------------------------------------
# the global embedding
# ---------------------------------------------------------------------------

def _newton_leaf_points(curve, w_targets, z_starts):
    """Roots of P(z; u) = W near the starts by Newton's iteration: the leaf transport by sampling."""
    out = np.array(z_starts, dtype=complex)
    for _ in range(60):
        step = (npoly.polyval(out, curve.p_coeffs) - w_targets) / npoly.polyval(out, curve.dp_coeffs)
        out = out - step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, float(np.max(np.abs(out)))):
            return out
    raise AssertionError("leaf transport Newton did not converge")


def _fft_embedding(curve, charts, nfft=256, window=24):
    """{label: {t: [etabar^t]}} of the embedding sampled on each extraction circle.

    dS(ref) - transported dS(curve) at every node, the transport a Newton
    solve of P(z; u) = P(z0) from the node's z0, and z^-24 .. z^24 read off
    one FFT: the oracle of the series embedding.
    """
    out = {}
    for lab, ch in charts.items():
        r = ch.extraction_radius
        etab = r * np.exp(2j * np.pi * np.arange(nfft) / nfft)
        eta = ch.eta_of_etabar.evaluate(etab)
        deta = ch.eta_of_etabar.derivative().evaluate(etab)
        z0 = ch.z_of_eta.evaluate(eta)
        z_u = _newton_leaf_points(curve, eta ** 2 + ch.p0, z0)
        phi = (z0 - z_u) * 2.0 * eta * deta / (lab[1] * ch.y_plus.evaluate(eta))
        raw = np.fft.fft(phi) / nfft
        out[lab] = {t: raw[t % nfft] / r ** t for t in range(-window, window + 1)}
    return out


@pytest.mark.parametrize("u, du", [
    (U0, (0.01 - 0.004j,)),
    (U0_G2, (0.0005, 0.0005j)),
    (U0_G3, (0.001, -0.0007j, 0.0005 + 0.0005j))], ids=["g1", "g2", "g3"])
def test_embed_matches_fft_oracle(u, du):
    # the series embedding at every label against the embedding sampled on
    # the extraction circle, within 1e-9 of the largest coefficient on
    # etabar^-8 .. etabar^6; its window is [-22, 22] at order 44
    curve, _, _, _, charts, _, _ = _Setup.get(u, len(u))
    near = new_curve(len(u), tuple(a + b for a, b in zip(u, du)))
    w = sw_embed_global(near, curve, charts)
    oracle = _fft_embedding(near, charts)
    assert sorted(w.series) == sorted(charts)
    for lab, coeffs in oracle.items():
        base = w.series[lab].base
        assert (base.min_exp, base.trunc_order) == (-22, 22)
        scale = max(abs(coeffs[t]) for t in range(-8, 7))
        dev = max(abs(base.coeff(t) - coeffs[t]) for t in range(-8, 7))
        assert dev <= 1e-9 * scale, (lab, dev / scale)


def test_embed_tail_gate_names_its_numbers():
    # order-13 charts: a move of 0.002 is embedded on [-6, 7]; one of 0.03,
    # still inside the neighbourhood guard, leaves a Laurent tail below the
    # floor -7 that weighs above the chart gate; the error names the chart,
    # the floor, the weighed coefficient, the gate and the radius
    ref = new_curve(1, U0)
    charts = standard_charts(ref, 13)
    base = sw_embed_global(new_curve(1, (U0[0] + 0.002,)), ref, charts).series[(0, 1)].base
    assert (base.min_exp, base.trunc_order) == (-6, 7)
    with pytest.raises(TruncationInsufficient) as err:
        sw_embed_global(new_curve(1, (U0[0] + 0.03,)), ref, charts)
    m = re.fullmatch(r"chart \(0, 1\): Laurent tail below floor etabar\^(\S+) weighs (\S+)"
                     r" at etabar\^(\S+), above gate (\S+) on \|etabar\| = (\S+)", str(err.value))
    assert m, str(err.value)
    assert (int(m.group(1)), int(m.group(3))) == (-7, -8)
    assert float(m.group(2)) > float(m.group(4)) == 1e-10
    assert np.isclose(float(m.group(5)), charts[(0, 1)].extraction_radius, rtol=1e-5)


def test_decompose_refuses_modes_beyond_the_embedding_window():
    # charts at the order the verifier builds for g1 at chi = 1 (7): a move
    # of 0.002 leaves a tail above the gate below the floor -4 (the sampled
    # embedding was 1.6e-2 off there, and decomposed without an error); one
    # of 0.0005 is embedded on [-4, 3], within 1e-9 of the order-44 data
    # there, and mode 5 needs etabar^4, which decompose_in_g refuses by name
    curve, _, pd, _, wide, s_coeffs, c_coeffs = _Setup.get()
    charts = standard_charts(curve, 7)
    with pytest.raises(TruncationInsufficient, match=re.escape("below floor etabar^-4")):
        sw_embed_global(new_curve(1, (U0[0] + 0.002,)), curve, charts)
    near = new_curve(1, (U0[0] + 0.0005,))
    w = sw_embed_global(near, curve, charts)
    ref = sw_embed_global(near, curve, wide)
    for lab, xi in w.series.items():
        assert (xi.base.min_exp, xi.base.trunc_order) == (-4, 3)
        scale = ref.series[lab].base.max_abs()
        assert all(abs(c - ref.series[lab].base.get(e)) < 1e-9 * scale for e, c in xi.base.items())
    with pytest.raises(TruncationInsufficient, match=re.escape(
            "mode (5, (0, -1)) needs z^4, beyond the window [-4, 3] of the family at (0, -1)"
            " for k_bound 7")):
        decompose_in_g(w, pd, s_coeffs, c_coeffs, k_bound=7)


def test_embed_reads_every_chart_it_is_given():
    # each chart is embedded from its own series: doubling ds_detabar of the
    # (0, -1) chart changes that chart's embedded series alone
    curve, _, _, _, charts, _, _ = _Setup.get()
    near = new_curve(1, (U0[0] + 0.002,))
    base = sw_embed_global(near, curve, charts)
    lower = charts[(0, -1)]
    moved = {**charts, (0, -1): replace(lower, ds_detabar=lower.ds_detabar * 2.0)}
    got = sw_embed_global(near, curve, moved)
    for lab, xi in got.series.items():
        same = xi.base.items() == base.series[lab].base.items()
        assert same == (lab != (0, -1)), lab
    diff = got.series[(0, -1)].base - base.series[(0, -1)].base
    assert diff.max_abs() == lower.ds_detabar.max_abs()


def test_embed_reference_is_zero():
    curve, cycles, pd, bk, charts, *_ = _Setup.get()
    w = sw_embed_global(curve, curve, charts)
    for xi in w.series.values():
        assert xi.base.max_abs() < 1e-12


def test_embed_satisfies_residue_constraints():
    curve, cycles, pd, bk, charts, *_ = _Setup.get()
    near = new_curve(1, (U0[0] + 0.01 - 0.004j,))
    w = sw_embed_global(near, curve, charts)
    h = eval_hamiltonians(w, i_max=12)
    assert max(abs(v) for v in h.values()) < 1e-9


def test_embed_a_periods_match_period_difference():
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get()
    near = new_curve(1, (U0[0] + 0.012 + 0.005j,))
    ws_near = QuadratureWorkspace(near)
    a_near = np.array([ws_near.integrate_cycle(c, ds_sw(near)) for c in cycles.a_cycles])
    w = sw_embed_global(near, curve, charts)
    # quadrature of the embedded form along A_1: the transported one-form is
    # holomorphic there, so integrate dS(ref) - transported dS(near) directly
    ws = cycles.workspace

    def phi_integrand(z, y):
        z_u = _newton_leaf_points(near, curve.p_at(z), z)
        return (z - z_u) * curve.dp_at(z) / y

    val = ws.integrate_cycle(cycles.a_cycles[0], phi_integrand, tol=1e-9)
    expect = pd.a[0] - a_near[0]
    assert abs(val - expect) < 1e-6 * max(1.0, abs(expect))
    # and the decomposition recovers the same holomorphic component
    xi, avec, resid = decompose_in_g(w, pd, s_coeffs, c_coeffs, k_bound=7)
    assert resid < 1e-7
    assert abs(avec[0] - expect) < 1e-6 * max(1.0, abs(expect))


def test_decompose_basis_elements():
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get()
    lab = (0, 1)
    # input = local data of omega_1: principal parts vanish, a = (1,)
    base = {m - 1: c_coeffs[(m, lab)][0] * m for m in range(1, 8)}
    base2 = {m - 1: c_coeffs[(m, (0, -1))][0] * m for m in range(1, 8)}
    from swtr.airy import WElement
    w = WElement({lab: SeriesDifferential(LaurentSeries(base, 0, 8)),
                  (0, -1): SeriesDifferential(LaurentSeries(base2, 0, 8))})
    xi, avec, resid = decompose_in_g(w, pd, s_coeffs, c_coeffs, k_bound=7)
    assert not xi
    assert abs(avec[0] - 1.0) < 1e-7
    # input = local data of ebar^{2,lab}: xi = {(2,lab): 1}, a = 0
    base_p = {-3: 1.0}
    tails = {}
    for lab2 in charts:
        t = {}
        for m in range(1, 8):
            sval = s_coeffs.get(((2, lab), (m, lab2)), 0j)
            if sval:
                t[m - 1] = sval * m
        tails[lab2] = t
    data = {}
    for lab2 in charts:
        coeffs = dict(tails[lab2])
        if lab2 == lab:
            for e, c in base_p.items():
                coeffs[e] = coeffs.get(e, 0j) + c
        data[lab2] = SeriesDifferential(LaurentSeries(coeffs, -3, 8))
    w2 = WElement(data)
    xi2, avec2, resid2 = decompose_in_g(w2, pd, s_coeffs, c_coeffs, k_bound=7)
    assert set(xi2) == {(2, lab)}
    assert abs(xi2[(2, lab)] - 1.0) < 1e-12
    assert np.max(np.abs(avec2)) < 1e-7


def test_decompose_refuses_missing_modes():
    # data to mode 7 decomposed to k_bound 8: the first missing c mode is
    # refused by name, and so is the first missing s pair when c reaches 8
    # (it was read as 0 before)
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get()
    w = sw_embed_global(new_curve(1, (U0[0] + 0.008 - 0.006j,)), curve, charts)
    with pytest.raises(TruncationInsufficient,
                       match=re.escape("no c data for mode (8, (0, -1)) for k_bound 8")):
        decompose_in_g(w, pd, s_coeffs, c_coeffs, k_bound=8)
    wide_s, wide_c = local_expansions(bk, charts, 8)
    with pytest.raises(TruncationInsufficient, match=re.escape(
            "no s data for mode pair ((1, (0, -1)), (8, (0, -1))) for k_bound 8")):
        decompose_in_g(w, pd, s_coeffs, wide_c, k_bound=8)
    assert decompose_in_g(w, pd, wide_s, wide_c, k_bound=8)[2] < 1e-7


def test_embed_genus_two():
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get(U0_G2, 2)
    near = new_curve(2, (0.3005 + 0.1j, 0.2 - 0.1495j))
    w = sw_embed_global(near, curve, charts)
    h = eval_hamiltonians(w, i_max=10)
    assert max(abs(v) for v in h.values()) < 1e-9
    xi, avec, resid = decompose_in_g(w, pd, s_coeffs, c_coeffs, k_bound=7)
    assert resid < 1e-7
    ws_near = QuadratureWorkspace(near)
    a_near = np.array([ws_near.integrate_cycle(c, ds_sw(near))
                       for c in cycles.a_cycles])
    expect = pd.a - a_near
    assert np.max(np.abs(avec - expect)) < 1e-6 * max(1.0, float(np.max(np.abs(expect))))


def test_exact_quadratic_disc_hamiltonians():
    # the quadratic disc (x = z^2 + a, y = z) annihilates the constraints to
    # near machine precision
    from swtr.airy import embed_disc
    w = embed_disc(0.07 - 0.03j, LaurentSeries.monomial(1.0, 1), min_exp=-60)
    h = eval_hamiltonians(w, i_max=15)
    assert max(abs(v) for v in h.values()) < 1e-12


def test_embed_reconstruction_on_annulus():
    # reconstruction from (xi, a) against direct evaluation of the embedding
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get()
    near = new_curve(1, (U0[0] + 0.008 - 0.006j,))
    w = sw_embed_global(near, curve, charts)
    xi, avec, _ = decompose_in_g(w, pd, s_coeffs, c_coeffs, k_bound=7)
    ch = charts[(0, 1)]
    for t in (0.15, 0.4):
        etab = ch.extraction_radius * np.exp(2j * np.pi * t) * 1.2
        z = ch.z_of_etabar.evaluate(etab)
        y = ch.y_curve.evaluate(etab)
        dz = ch.dz_detabar.evaluate(etab)
        # direct embedding value per detabar
        z_u = _newton_leaf_points(near, curve.p_at(z), z)
        direct = (z - z_u) * curve.dp_at(z) / y * dz
        # reconstruction: sum xi ebar + sum a omega, in the same frame
        recon = 0j
        for (k, lab2), v in xi.items():
            eb = ebar_at_points(bk, charts[lab2], [z], [y], k_bound=k)
            recon += v * eb[k - 1, 0] * dz
        recon += avec[0] * omega_value(pd, 0, z, y) * dz
        assert abs(direct - recon) < 1e-6 * max(1.0, abs(direct))
