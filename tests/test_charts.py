"""Tests for standard charts, local expansions and the global embedding."""

import numpy as np
import pytest

from swtr.airy import eval_hamiltonians
from swtr.charts import (
    a_periods_of_ebars,
    bperiods_of_ebars,
    decompose_in_g,
    ebar_at_points,
    local_expansions,
    standard_charts,
    sw_embed_global,
)
from swtr.errors import OutOfNeighbourhood
from swtr.hyperelliptic import (
    QuadratureWorkspace,
    bergman_kernel,
    build_cycles,
    ds_sw,
    new_curve,
    omega_value,
    periods,
)
from swtr.laurent import LaurentSeries, SeriesDifferential, symplectic_pairing

U0 = (0.3 + 0.1j,)


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
            charts = standard_charts(curve, curve)
            s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound=7)
            cls._cache[key] = (curve, cycles, pd, bk, charts, s_coeffs, c_coeffs)
        return cls._cache[key]


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------

def test_chart_normal_form_and_one_form_identity():
    # construction self-validates: y_of_etabar = etabar and the odd one-form
    # combination equals 4 etabar^2 detabar; just confirm the values here
    curve, _, _, _, charts, _, _ = _Setup.get()
    for ch in charts.values():
        assert abs(ch.y_of_etabar.get(1) - 1.0) < 1e-12
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
    assert abs(plus.y0 + minus.y0) < 1e-12
    assert abs(plus.w_value * minus.w_value - 1.0) < 1e-12   # w and 1/w
    # etabar_- = -etabar_+ as functions of eta
    for e in range(1, 20):
        assert abs(plus.eta_of_etabar.get(e) + minus.eta_of_etabar.get(e)) < 1e-12


def test_chart_neighbourhood_guard():
    curve, *_ = _Setup.get()
    ref = curve
    near = new_curve(1, (U0[0] + 0.002,))
    standard_charts(near, ref)   # fine
    far = new_curve(1, (U0[0] + 0.8,))
    with pytest.raises(OutOfNeighbourhood):
        standard_charts(far, ref)


# ---------------------------------------------------------------------------
# local expansions
# ---------------------------------------------------------------------------

def test_s_coeffs_symmetric():
    *_, s_coeffs, _ = _Setup.get()
    for (m1, m2), v in s_coeffs.items():
        assert abs(v - s_coeffs[(m2, m1)]) < 1e-9


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
        bp = bperiods_of_ebars(bk, cycles, ch, k_bound=5)
        for k in range(1, 6):
            expect = 2j * np.pi * c_coeffs[(k, lab)]
            got = bp[:, k - 1]
            assert np.max(np.abs(got - expect)) < 1e-6 * max(1.0, float(np.max(np.abs(expect))))


def test_a_periods_of_ebars_vanish():
    curve, cycles, pd, bk, charts, *_ = _Setup.get()
    ch = charts[(0, 1)]
    ap = a_periods_of_ebars(bk, cycles, ch, k_bound=5)
    assert float(np.max(np.abs(ap))) < 1e-7


def test_riemann_bilinear_crosscheck():
    # local pairing of ebar^{k,a} with omega_j against the global period form
    curve, cycles, pd, bk, charts, s_coeffs, c_coeffs = _Setup.get()
    g = curve.g
    for lab, ch in charts.items():
        bp = bperiods_of_ebars(bk, cycles, ch, k_bound=4)
        ap = a_periods_of_ebars(bk, cycles, ch, k_bound=4)
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
        from swtr.charts import _transport_roots
        z_u = _transport_roots(near, npoly_val(curve, z), z)
        return (z - z_u) * curve.dp_at(z) / y

    def npoly_val(cur, z):
        from numpy.polynomial import polynomial as npp
        return npp.polyval(z, cur.p_coeffs)

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


def test_embed_genus_two():
    curve = new_curve(2, (0.3 + 0.1j, 0.2 - 0.15j))
    cycles = build_cycles(curve)
    pd = periods(curve, cycles)
    bk = bergman_kernel(curve, cycles, pd)
    charts = standard_charts(curve, curve)
    s_coeffs, c_coeffs = local_expansions(bk, charts, k_bound=7)
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
    from swtr.charts import _transport_roots
    for t in (0.15, 0.4):
        etab = ch.extraction_radius * np.exp(2j * np.pi * t) * 1.2
        z = ch.z_of_etabar.evaluate(etab)
        y = ch.y_curve.evaluate(etab)
        dz = ch.dz_detabar.evaluate(etab)
        # direct embedding value per detabar
        from numpy.polynomial import polynomial as npp
        z_u = _transport_roots(near, np.array([npp.polyval(z, curve.p_coeffs)]),
                               np.array([z]))[0]
        direct = (z - z_u) * curve.dp_at(z) / y * dz
        # reconstruction: sum xi ebar + sum a omega, in the same frame
        recon = 0j
        for (k, lab2), v in xi.items():
            eb = ebar_at_points(bk, charts[lab2], [z], [y], k_bound=k)
            recon += v * eb[k - 1, 0] * dz
        recon += avec[0] * omega_value(pd, 0, z, y) * dz
        assert abs(direct - recon) < 1e-6 * max(1.0, abs(direct))
