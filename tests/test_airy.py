"""Tests for the quadratic-Hamiltonian tensor families and the abstract recursion."""

import itertools
import math
import re

import numpy as np
import pytest

import swtr.airy as airy_module
from swtr.airy import (
    GaugeData,
    WElement,
    atr_run,
    build_residue_constraint_tensors,
    build_tr_variant_tensors,
    embed_disc,
    eval_hamiltonians,
    gauge_transform,
    hamiltonians_from_tensors,
    residue_constraint_entry,
    residue_formula_deviation,
    symmetry_deviation,
    tr_variant_entry,
    validate_gauge,
)
from swtr.errors import DegenerateDisc, InvalidGauge, TruncationInsufficient
from swtr.laurent import LaurentSeries, SeriesDifferential

L = LaurentSeries
RAM = ("0",)


def make_w(coeffs_by_mode, label="0", kmax=20):
    """WElement from J-coordinates {(m): value} at one label (m != 0)."""
    data = {-m - 1: v for m, v in coeffs_by_mode.items()}
    base = L(data, min_exp=min(data, default=0), trunc_order=kmax + 2)
    return WElement({label: SeriesDifferential(base)})


# ---------------------------------------------------------------------------
# tensor families
# ---------------------------------------------------------------------------

def test_golden_tensor_values():
    t = build_residue_constraint_tensors(8, RAM)
    lab = "0"
    assert abs(t.a[t.mode(1, lab), t.mode(1, lab), t.mode(1, lab)] - 0.25) < 1e-15
    assert abs(t.eps[t.mode(3, lab)] - 1.0 / 16.0) < 1e-15
    assert abs(t.b[t.mode(1, lab), t.mode(3, lab), t.mode(1, lab)] - 0.75) < 1e-15


def test_block_diagonal_across_labels():
    t = build_residue_constraint_tensors(6, ("p", "q"))
    i = t.mode(1, "p")
    j = t.mode(1, "q")
    assert np.max(np.abs(t.a[i, j, :])) == 0
    assert np.max(np.abs(t.b[i, j, :])) == 0


def test_tensor_symmetries():
    for t in (build_residue_constraint_tensors(9, RAM),
              build_tr_variant_tensors(9, ("p", "q"))):
        ok, info = t.check_symmetries()
        assert ok, info


def test_residue_formula_agreement():
    t = build_residue_constraint_tensors(9, RAM, validate=False)
    lab = "0"
    for i, j, k in itertools.product(range(1, 10), repeat=3):
        ii, jj, kk = t.mode(i, lab), t.mode(j, lab), t.mode(k, lab)
        assert abs(t.a[ii, jj, kk] - residue_constraint_entry("a", i, j, k)) < 1e-14
        assert abs(t.b[ii, jj, kk] - residue_constraint_entry("b", i, j, k)) < 1e-14
        assert abs(t.c[ii, jj, kk] - residue_constraint_entry("c", i, j, k)) < 1e-14


def test_tr_variant_against_residue_formulas():
    t = build_tr_variant_tensors(9, RAM, validate=False)
    lab = "0"
    for i, j, k in itertools.product(range(1, 10), repeat=3):
        ii, jj, kk = t.mode(i, lab), t.mode(j, lab), t.mode(k, lab)
        assert abs(t.b[ii, jj, kk] - tr_variant_entry("b", i, j, k)) < 1e-14
        assert abs(t.c[ii, jj, kk] - tr_variant_entry("c", i, j, k)) < 1e-14


@pytest.mark.parametrize("tr_variant", [False, True], ids=["airy", "tr-variant"])
def test_residue_formula_deviation_names_the_worst_entry(tr_variant):
    # one b entry off by 1e-9 and one c entry by 1e-12: the worst is the b one,
    # and family validation refuses it by kind, indices and value
    build = build_tr_variant_tensors if tr_variant else build_residue_constraint_tensors
    t = build(9, RAM)
    assert residue_formula_deviation(t, 9, tr_variant)[0] < 1e-14
    ib = (t.mode(3, "0"), t.mode(2, "0"), t.mode(2, "0"))
    ic = (t.mode(9, "0"), t.mode(1, "0"), t.mode(5, "0"))
    t.b[ib] += 1e-9
    t.c[ic] += 1e-12
    dev, (kind, i, j, k, stored) = residue_formula_deviation(t, 9, tr_variant)
    assert (kind, i, j, k, stored) == ("b", 3, 2, 2, t.b[ib])
    assert dev == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(AssertionError, match=re.escape(f"b[3,2,2] = {t.b[ib]} disagrees")):
        airy_module._validate_family(t, tr_variant)


def test_tr_variant_odd_restriction_matches():
    airy = build_residue_constraint_tensors(11, RAM)
    tr = build_tr_variant_tensors(11, RAM)
    lab = "0"
    odd = [airy.mode(k, lab) for k in range(1, 12, 2)]
    sub = np.ix_(odd, odd, odd)
    assert np.max(np.abs(airy.a[sub] - tr.a[sub])) < 1e-14
    assert np.max(np.abs(airy.b[sub] - tr.b[sub])) < 1e-14
    assert np.max(np.abs(airy.c[sub] - tr.c[sub])) < 1e-14
    assert np.max(np.abs(airy.eps - tr.eps)) < 1e-15


def test_tr_variant_even_first_index_vanishes():
    tr = build_tr_variant_tensors(10, RAM)
    lab = "0"
    even = [tr.mode(k, lab) for k in range(2, 11, 2)]
    assert np.max(np.abs(tr.a[even])) == 0
    assert np.max(np.abs(tr.b[even])) == 0
    assert np.max(np.abs(tr.c[even])) == 0


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def _dense_to_gauge(modes, cm, dm, sm, i_cutoff):
    c = {}
    d = {}
    s = {}
    for a_idx, ma in enumerate(modes):
        for b_idx, mb in enumerate(modes):
            if cm[a_idx, b_idx] != (1.0 if a_idx == b_idx else 0.0):
                c[(ma, mb)] = cm[a_idx, b_idx]
            if dm[a_idx, b_idx] != (1.0 if a_idx == b_idx else 0.0):
                d[(ma, mb)] = dm[a_idx, b_idx]
            if sm[a_idx, b_idx] != 0 and a_idx <= b_idx:
                s[(ma, mb)] = sm[a_idx, b_idx]
    return GaugeData(c=c, d=d, s=s, i_cutoff=i_cutoff)


def random_gauge(modes, rng, i_cutoff=4, with_cd=True):
    dim = len(modes)
    cm = np.eye(dim, dtype=complex)
    if with_cd:
        small = [i for i, m in enumerate(modes) if m[0] <= i_cutoff]
        for i in small:
            for j in small:
                if i != j:
                    cm[i, j] += 0.15 * (rng.standard_normal() + 1j * rng.standard_normal())
    dm = np.linalg.inv(cm)
    sm = np.zeros((dim, dim), dtype=complex)
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if i <= j and mi[0] <= 6 and mj[0] <= 6:
                sm[i, j] = 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
                sm[j, i] = sm[i, j]
    return _dense_to_gauge(modes, cm, dm, sm, i_cutoff), cm, dm, sm


def test_identity_gauge_is_noop():
    t = build_residue_constraint_tensors(7, RAM)
    out = gauge_transform(t, GaugeData())
    assert np.max(np.abs(out.a - t.a)) == 0
    assert np.max(np.abs(out.b - t.b)) == 0
    assert np.max(np.abs(out.c - t.c)) == 0
    assert np.max(np.abs(out.eps - t.eps)) == 0


def test_s_only_gauge_keeps_a():
    t = build_residue_constraint_tensors(7, RAM)
    rng = np.random.default_rng(2)
    g, *_ = random_gauge(t.modes, rng, with_cd=False)
    out = gauge_transform(t, g)
    assert np.max(np.abs(out.a - t.a)) == 0


def test_s_only_gauge_eps_correction():
    # eps_bar_i = eps_i + a_{ijk} s^{jk}: the correction from a_{111} lands at
    # index (1, a); the entry at (3, a) stays 1/16
    t = build_residue_constraint_tensors(7, RAM)
    s11 = 0.3 - 0.7j
    g = GaugeData(s={((1, "0"), (1, "0")): s11})
    out = gauge_transform(t, g)
    assert abs(out.eps[t.mode(1, "0")] - 0.25 * s11) < 1e-14
    assert abs(out.eps[t.mode(3, "0")] - 1.0 / 16.0) < 1e-14


def test_validate_gauge_reports():
    t = build_residue_constraint_tensors(6, RAM)
    rep = validate_gauge(GaugeData(), t.modes)
    assert rep.passed
    # only conditions that are computed are reported
    assert [name for name, _, _ in rep.conditions] == [
        "c_d_inverse", "identity_beyond_cutoff", "s_symmetric"]
    # c with a broken column: C.1 fails
    bad = GaugeData(c={((1, "0"), (1, "0")): 0.0}, i_cutoff=2)
    rep = validate_gauge(bad, t.modes)
    assert not rep.passed and rep.residual("c_d_inverse") > 0.5
    # non-symmetric s: C.4 fails
    bad = GaugeData(s={((1, "0"), (2, "0")): 1.0, ((2, "0"), (1, "0")): -1.0})
    rep = validate_gauge(bad, t.modes)
    assert not rep.passed and rep.residual("s_symmetric") > 1.0


def test_invalid_gauge_raises():
    t = build_residue_constraint_tensors(6, RAM)
    with pytest.raises(InvalidGauge):
        gauge_transform(t, GaugeData(c={((1, "0"), (1, "0")): 2.0}, i_cutoff=2))


def test_gauge_composition():
    t = build_residue_constraint_tensors(7, RAM)
    rng = np.random.default_rng(9)
    g1, c1, d1, s1 = random_gauge(t.modes, rng)
    g2, c2, d2, s2 = random_gauge(t.modes, rng)
    once = gauge_transform(gauge_transform(t, g1), g2)
    c12 = c1 @ c2
    d12 = d2 @ d1
    s12 = s1 + c1 @ s2 @ c1.T
    g12 = _dense_to_gauge(t.modes, c12, d12, s12, i_cutoff=7)
    both = gauge_transform(t, g12)
    for x, y in ((once.a, both.a), (once.b, both.b), (once.c, both.c), (once.eps, both.eps)):
        assert np.max(np.abs(x - y)) < 1e-10


# ---------------------------------------------------------------------------
# abstract recursion
# ---------------------------------------------------------------------------

def test_atr_golden_values():
    t = build_residue_constraint_tensors(9, RAM)
    table = atr_run(t, chi_max=2)
    lab = "0"
    m1, m3 = (1, lab), (3, lab)
    assert abs(table.value(0, 3, (m1, m1, m1)) - 0.5) < 1e-13
    assert abs(table.value(1, 1, (m3,)) - 1.0 / 16.0) < 1e-13


def test_atr_symmetry():
    t = build_residue_constraint_tensors(15, ("p", "q"))
    rng = np.random.default_rng(3)
    s = {}
    for mi in t.modes:
        for mj in t.modes:
            if mi <= mj and mi[0] <= 6 and mj[0] <= 6:
                s[(mi, mj)] = 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
    bar = gauge_transform(t, GaugeData(s=s))
    table = atr_run(bar, chi_max=3)
    assert symmetry_deviation(table, bar) < 1e-10


def test_atr_truncation_guard():
    t = build_residue_constraint_tensors(5, RAM)
    with pytest.raises(TruncationInsufficient):
        atr_run(t, chi_max=3)   # S_{1,3} needs indices up to 8 > kmax


def test_max_index_bound_covers_bounds():
    from swtr.airy import default_index_bound, max_index_bound
    for chi in range(1, 6):
        bounds = [default_index_bound(g, c + 2 - 2 * g)
                  for c in range(1, chi + 1) for g in range(0, (c + 1) // 2 + 1)]
        assert max_index_bound(chi) == max(bounds)
    atr_run(build_residue_constraint_tensors(max_index_bound(2), RAM), chi_max=2)
    with pytest.raises(TruncationInsufficient):   # the bound is the least that works
        atr_run(build_residue_constraint_tensors(max_index_bound(2) - 1, RAM), chi_max=2)


def test_max_index_bound_values():
    # one less is the largest odd table mode, which the local data must reach
    from swtr.airy import max_index_bound
    assert [max_index_bound(chi) - 1 for chi in (1, 2, 3, 4)] == [3, 5, 9, 11]


def test_structure_constants():
    t = build_residue_constraint_tensors(8, RAM)
    g_tensor = t.structure_constants()
    assert np.all(np.isfinite(g_tensor))
    # antisymmetry in the two lower indices by construction
    assert np.max(np.abs(g_tensor + np.transpose(g_tensor, (1, 0, 2)))) == 0


def test_generating_function_property():
    # substituting y_i = d_i S_0 into the Hamiltonians vanishes order by order
    t = build_residue_constraint_tensors(13, RAM)
    table = atr_run(t, chi_max=4)

    def y_from_s0(xdict):
        # d_i S0 from the symmetric entries: one contribution per distinct
        # mode of each index multiset, weighted by the remaining multiplicities
        y = {m: 0j for m in t.modes}
        for (g, n), cell in table.entries.items():
            if g != 0:
                continue
            for key, val in cell.items():
                kmodes = [t.modes[i] for i in key]
                for target in set(kmodes):
                    restm = list(kmodes)
                    restm.remove(target)
                    counts = {}
                    for m in restm:
                        counts[m] = counts.get(m, 0) + 1
                    denom = math.prod(math.factorial(c) for c in counts.values())
                    prod = val / denom
                    for m in restm:
                        prod *= xdict.get(m, 0j)
                    y[target] += prod
        return y

    def residual(eps):
        xdict = {(1, "0"): eps, (2, "0"): 0.6 * eps}
        y = y_from_s0(xdict)
        j = {}
        for (k, lab), v in xdict.items():
            j[-k] = k * v
        for (k, lab), v in y.items():
            if v != 0:
                j[k] = j.get(k, 0j) + v
        w = make_w(j, kmax=30)
        h = eval_hamiltonians(w, i_max=9)
        return max(abs(v) for v in h.values())

    r1 = residual(0.05)
    r2 = residual(0.025)
    assert r1 < 1e-6
    # vanishing order >= 5 in the regular modes
    assert r2 < r1 / 16.0


def test_atr_eo_cross_reference_is_deferred():
    # the S_{0,4} spec example is exercised via the local recursion in
    # test_spectral.py; here only check the cell exists and is symmetric
    t = build_residue_constraint_tensors(9, RAM)
    table = atr_run(t, chi_max=2)
    assert (0, 4) in table.entries
    assert table.max_abs(0, 4) > 0


# ---------------------------------------------------------------------------
# Hamiltonian evaluation
# ---------------------------------------------------------------------------

def test_hamiltonians_vanish_on_zero():
    w = make_w({})
    h = eval_hamiltonians(w, i_max=12)
    assert max(abs(v) for v in h.values()) == 0


def test_even_hamiltonian_reads_mode():
    w = make_w({2: 1.0})
    h = eval_hamiltonians(w, i_max=6)
    assert abs(h[(2, "0")] + 1.0) < 1e-14


def test_tensor_vs_residue_consistency():
    kmax = 12
    t = build_residue_constraint_tensors(kmax, RAM)
    rng = np.random.default_rng(5)
    for _ in range(6):
        j = {}
        for k in range(1, 7):
            j[k] = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        for k in range(1, kmax + 1):
            j[-k] = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        w = make_w(j, kmax=3 * kmax)
        direct = eval_hamiltonians(w, i_max=kmax)
        assembled = hamiltonians_from_tensors(w, t)
        for k in range(1, kmax + 1):
            scale = max(abs(direct[(k, "0")]), 1.0)
            assert abs(direct[(k, "0")] - assembled[(k, "0")]) < 1e-10 * scale


def test_tr_variant_hamiltonian_consistency():
    kmax = 10
    t = build_tr_variant_tensors(kmax, RAM)
    rng = np.random.default_rng(8)
    j = {}
    for k in range(1, 6):
        j[k] = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
    for k in range(1, kmax + 1):
        j[-k] = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
    w = make_w(j, kmax=3 * kmax)
    direct = eval_hamiltonians(w, i_max=kmax, variant="tr_variant")
    assembled = hamiltonians_from_tensors(w, t)
    for k in range(1, kmax + 1, 2):   # odd sector carries the quadratic part
        scale = max(abs(direct[(k, "0")]), 1.0)
        assert abs(direct[(k, "0")] - assembled[(k, "0")]) < 1e-10 * scale


# ---------------------------------------------------------------------------
# disc embedding
# ---------------------------------------------------------------------------

def test_embed_disc_reference_point_is_zero():
    w = embed_disc(0.0, L.monomial(1.0, 1))
    assert w.series["0"].base.max_abs() == 0


def test_embed_disc_j_values():
    a = 0.07 - 0.03j
    w = embed_disc(a, L.monomial(1.0, 1), min_exp=-40)
    assert abs(w.j_coord(-1, "0") - a) < 1e-14
    for k in range(2, 7):
        expect = a ** k * _double_factorial(2 * k - 3) / (math.factorial(k) * 2 ** (k - 1))
        assert abs(w.j_coord(2 * k - 3, "0") - expect) < 1e-12


def _double_factorial(n):
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def test_embed_disc_satisfies_constraints():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = 0.08 * (rng.standard_normal() + 1j * rng.standard_normal())
        coeffs = {1: 1.0 + 0.3 * rng.standard_normal()}
        for e in range(0, 9):
            if e != 1:
                coeffs[e] = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        y = L(coeffs, 0, 8)
        w = embed_disc(a, y, min_exp=-80)
        h = eval_hamiltonians(w, i_max=15)
        assert max(abs(v) for v in h.values()) < 1e-10


def test_embed_disc_rejects_degenerate():
    with pytest.raises(DegenerateDisc):
        embed_disc(0.1, L.monomial(1.0, 2))


def test_triviality_random_search():
    rng = np.random.default_rng(123)
    worst = np.inf
    for _ in range(200):
        j = {}
        ks = rng.choice(np.arange(1, 13), size=6, replace=False)
        for k in ks:
            j[int(k)] = rng.standard_normal() + 1j * rng.standard_normal()
        j[-1] = 0.5 + rng.random()   # x^1 bounded away from zero
        w = make_w(j, kmax=40)
        h = eval_hamiltonians(w, i_max=15)
        worst = min(worst, max(abs(v) for v in h.values()))
    assert worst > 1e-8
