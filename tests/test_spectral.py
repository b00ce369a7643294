"""Tests for the local recursion and its equivalence with the abstract one."""

import ast
import itertools
import re

import numpy as np
import pytest

from swtr.airy import (
    GaugeData,
    _AtrEngine,
    atr_run,
    build_tr_variant_tensors,
    gauge_transform,
    recursion_cells,
)
from swtr.errors import OutOfAnnulus
from swtr.laurent import LaurentSeries
from swtr.spectral import (
    LocalSpectralCurve,
    _EoEngine,
    atr_eo_crosscheck,
    eo_run,
    eo_symmetry_deviation,
    omega_eval,
    support_bound_check,
)


def airy_point(ram=("0",), s=None):
    return LocalSpectralCurve(ram=ram, bergman_reg=s or {})


def random_s(ram, kbound, rng, cross=True, scale=0.25):
    s = {}
    modes = [(k, lab) for lab in ram for k in range(1, kbound + 1)]
    for i, m1 in enumerate(modes):
        for m2 in modes[i:]:
            if not cross and m1[1] != m2[1]:
                continue
            val = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            s[(m1, m2)] = val
    return s


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------

def test_airy_point_golden_values():
    omega = eo_run(airy_point(), chi_max=2)
    m1, m3 = (1, "0"), (3, "0")
    assert abs(omega.value(0, 3, (m1, m1, m1)) - 0.5) < 1e-13
    assert abs(omega.value(1, 1, (m3,)) - 1.0 / 16.0) < 1e-13


def test_one_form_s_correction_in_omega11():
    # with regular part s^{11}, omega_{1,1} picks up (1/4) s^{11} ebar^1
    s11 = 0.21 - 0.13j
    curve = airy_point(s={((1, "0"), (1, "0")): s11})
    omega = eo_run(curve, chi_max=1)
    assert abs(omega.value(1, 1, ((1, "0"),)) - 0.25 * s11) < 1e-13
    assert abs(omega.value(1, 1, ((3, "0"),)) - 1.0 / 16.0) < 1e-13


def test_two_points_no_cross_coupling():
    rng = np.random.default_rng(1)
    s = random_s(("p", "q"), 5, rng, cross=False)
    omega = eo_run(LocalSpectralCurve(ram=("p", "q"), bergman_reg=s), chi_max=2)
    for (g, n), cell in omega.table.entries.items():
        for key, val in cell.items():
            labels = {omega.table.modes[i][1] for i in key}
            if len(labels) > 1:
                assert abs(val) < 1e-12


# ---------------------------------------------------------------------------
# equivalence of the two recursions
# ---------------------------------------------------------------------------

def test_atr_eo_identity_gauge():
    t = build_tr_variant_tensors(9, ("0",))
    dev = atr_eo_crosscheck(t, GaugeData(), chi_max=2)
    assert dev < 1e-10


def test_atr_eo_single_point_chi4():
    rng = np.random.default_rng(42)
    t = build_tr_variant_tensors(17, ("0",))
    s = random_s(("0",), 13, rng)
    dev = atr_eo_crosscheck(t, GaugeData(s=s), chi_max=4)
    assert dev < 1e-9


def test_atr_eo_two_points_chi3():
    rng = np.random.default_rng(7)
    t = build_tr_variant_tensors(11, ("p", "q"))
    s = random_s(("p", "q"), 9, rng)
    dev = atr_eo_crosscheck(t, GaugeData(s=s), chi_max=3)
    assert dev < 1e-9


def test_extraction_order_independence():
    rng = np.random.default_rng(3)
    s = random_s(("0",), 9, rng)
    curve = LocalSpectralCurve(ram=("0",), bergman_reg=s)
    o1 = eo_run(curve, chi_max=3)
    o2 = eo_run(curve, chi_max=3, extra_order=8)
    for (g, n) in o1.cells():
        keys = set(o1.table.entries[(g, n)]) | set(o2.table.entries[(g, n)])
        for key in keys:
            v1 = o1.table.entries[(g, n)].get(key, 0j)
            v2 = o2.table.entries[(g, n)].get(key, 0j)
            assert abs(v1 - v2) < 1e-11 * max(1.0, abs(v1))


def test_output_symmetry():
    rng = np.random.default_rng(11)
    s = random_s(("0",), 9, rng)
    omega = eo_run(LocalSpectralCurve(ram=("0",), bergman_reg=s), chi_max=3)
    assert eo_symmetry_deviation(omega, rng) < 1e-10


def test_nontrivial_denominator_still_symmetric():
    # odd one-form with a quartic correction: outputs stay symmetric
    rng = np.random.default_rng(5)
    denom = LaurentSeries({2: 4.0, 4: 0.8 - 0.3j}, 2, 40)
    s = random_s(("0",), 7, rng)
    curve = LocalSpectralCurve(ram=("0",), denom={"0": denom}, bergman_reg=s)
    omega = eo_run(curve, chi_max=3)
    assert eo_symmetry_deviation(omega, rng) < 1e-10
    o2 = eo_run(curve, chi_max=3, extra_order=6)
    for key, val in omega.table.entries[(1, 2)].items():
        assert abs(val - o2.table.entries[(1, 2)].get(key, 0j)) < 1e-11 * max(1.0, abs(val))


def test_chi4_four_points_with_quartic_denominator():
    # breadth at chi = 4: every cell is filled and stays pivot-symmetric
    rng = np.random.default_rng(23)
    ram = ("0", "1", "2", "3")
    denom = {lab: LaurentSeries({2: 4.0, 4: 0.8 - 0.3j}, 2, 40) for lab in ram}
    curve = LocalSpectralCurve(ram=ram, denom=denom, bergman_reg=random_s(ram, 13, rng))
    omega = eo_run(curve, chi_max=4)
    for chi in range(1, 5):
        for g in range(0, (chi + 1) // 2 + 1):
            n = chi + 2 - 2 * g
            if n >= 1:
                assert omega.table.entries.get((g, n)), (g, n)
    assert eo_symmetry_deviation(omega, rng) < 1e-10


# ---------------------------------------------------------------------------
# support bounds and odd support
# ---------------------------------------------------------------------------

def test_support_bounds():
    rng = np.random.default_rng(19)
    s = random_s(("0",), 11, rng)
    omega = eo_run(LocalSpectralCurve(ram=("0",), bergman_reg=s), chi_max=3)
    report = support_bound_check(omega)
    assert report[(0, 3)]["max_index"] <= 2
    assert report[(1, 1)]["max_index"] == 3
    for cell, info in report.items():
        assert info["within_bound"], (cell, info)
        assert info["even_leg_residual"] < 1e-10, (cell, info)
        assert info["outside_support_residual"] == 0.0, (cell, info)


def test_airy_support_is_minimal():
    omega = eo_run(airy_point(), chi_max=2)
    report = support_bound_check(omega)
    assert report[(0, 3)]["max_index"] == 1
    assert report[(1, 1)]["max_index"] == 3


def test_eo_truncation_guard():
    from swtr.errors import TruncationInsufficient
    with pytest.raises(TruncationInsufficient):
        eo_run(airy_point(), chi_max=3, kmax=5)   # omega_{1,3} needs index 8


def _recorded(engine):
    """Run the engine; per cell, the tuples its run passed to compute_value."""
    seen = {}
    value = engine.compute_value

    def record(g, n, idx, pivot_pos=0):
        seen.setdefault((g, n), []).append(idx)
        return value(g, n, idx, pivot_pos)

    engine.compute_value = record
    engine.run()
    return seen


def test_oracle_keeps_full_enumeration():
    # the abstract recursion is the oracle for the degree prune, so it must
    # evaluate every tuple up to the index bound; the local one only its support
    rng = np.random.default_rng(29)
    s = {key: v for key, v in random_s(("0",), 13, rng).items()
         if key[0][0] % 2 and key[1][0] % 2}
    atr = _AtrEngine(gauge_transform(build_tr_variant_tensors(13, ("0",)), GaugeData(s=s)), 4)
    eo = _EoEngine(LocalSpectralCurve(ram=("0",), bergman_reg=s), 4, 12)
    atr_seen = _recorded(atr)
    eo.run()        # fills whole cells: no per-tuple compute_value calls to record
    assert atr.step == eo.step == 2
    assert set(atr_seen) == set(recursion_cells(4)) - set(atr.seeded)
    for g, n in recursion_cells(4):
        full = list(itertools.combinations_with_replacement(atr.allowed(g, n), n))
        assert [atr.modes[i] for i in atr.allowed(g, n)] == [eo.modes[i] for i in eo.allowed(g, n)]
        if (g, n) not in atr.seeded:
            assert atr_seen[(g, n)] == full, (g, n)
        if n == 1:      # every allowed mode is within the degree bound
            assert len(eo.support(g, n)) == len(full), (g, n)
        elif 2 * g - 2 + n >= 2:
            assert len(eo.support(g, n)) < len(full), (g, n)
    assert eo.evaluated == sum(len(eo.support(g, n)) for g, n in recursion_cells(4))


QUARTIC = LaurentSeries({2: 4.0, 4: 0.8 - 0.3j}, 2, 40)


@pytest.mark.parametrize("ram, chi, denom", [
    (("0", "1", "2", "3"), 4, QUARTIC),
    (("p", "q"), 5, None),
    (("0",), 6, None),
], ids=["4pt-chi4-quartic", "2pt-chi5", "1pt-chi6"])
def test_whole_cell_fill_matches_per_entry_reference(ram, chi, denom):
    # the whole-cell fill against compute_value, entry by entry on the support
    rng = np.random.default_rng(31)
    curve = LocalSpectralCurve(ram=ram, denom={lab: denom for lab in ram} if denom else {},
                               bergman_reg=random_s(ram, 13, rng))
    omega = eo_run(curve, chi)
    engine = omega.engine
    for g, n in recursion_cells(chi):
        cell = omega.table.entries[(g, n)]
        ref = {idx: engine.compute_value(g, n, idx) for idx in engine.support(g, n)}
        assert set(cell) == {idx for idx, val in ref.items() if val != 0}, (g, n)
        for idx, val in cell.items():
            assert abs(val - ref[idx]) <= 1e-14 * abs(ref[idx]), (g, n, idx)


def _symmetrized(s):
    """Every pair of ``s`` in both orders."""
    return {**s, **{(m2, m1): v for (m1, m2), v in s.items()}}


def _loop_setup(engine, sym):
    """loc_p, loc_m, b_pm and res_vec entry by entry from the pair dict ``sym``."""
    cur, lo, hi, nlen = engine.curve, engine.lo, engine.hi, engine.nlen
    loc_p, loc_m, b_pm, res_vec = {}, {}, {}, {}
    for lab in cur.ram:
        lp = np.zeros((engine.dim, nlen), dtype=complex)
        lm = np.zeros((engine.dim, nlen), dtype=complex)
        for mi, (k, blab) in enumerate(engine.modes):
            if blab == lab:
                lp[mi, -k - 1 - lo] += 1.0
                lm[mi, -k - 1 - lo] += (-1.0) ** k
            for m2k in range(1, hi + 2):
                s = sym.get(((k, blab), (m2k, lab)), 0j)
                lp[mi, m2k - 1 - lo] += s * m2k
                lm[mi, m2k - 1 - lo] += s * m2k * (-1.0) ** m2k
        loc_p[lab], loc_m[lab] = lp, lm
        bpm = np.zeros(nlen, dtype=complex)
        bpm[-2 - lo] = -0.25
        for (m1, m2), s in sym.items():
            if m1[1] == lab and m2[1] == lab and m1[0] + m2[0] - 2 <= hi:
                bpm[m1[0] + m2[0] - 2 - lo] += s * m1[0] * m2[0] * (-1.0) ** m2[0]
        b_pm[lab] = bpm
        inv_d = cur.denom[lab].inverse()
        res_vec[lab] = np.array([[inv_d.get(-1 - k1 - 2 * lo - j) for j in range(2 * nlen - 1)]
                                 for k1 in range(1, engine.kmax + 1, 2)])
    return loc_p, loc_m, b_pm, res_vec


def test_setup_tables_match_loop_reference():
    # the array-built window series and residue tables against the entry loop
    rng = np.random.default_rng(37)
    ram = ("p", "q", "r")
    s = random_s(ram + ("x",), 11, rng)     # label x is not a ramification point here
    s.update(random_s(("p",), 30, rng))     # modes beyond the window are left out
    curve = LocalSpectralCurve(ram=ram, denom={"q": QUARTIC}, bergman_reg=s)
    engine = _EoEngine(curve, 3, 10, extra_order=3)
    refs = _loop_setup(engine, _symmetrized(s))
    for name, ref in zip(("loc_p", "loc_m", "b_pm", "res_vec"), refs):
        for lab in ram:
            got = getattr(engine, name)[lab]
            assert got.shape == ref[lab].shape, (name, lab)
            assert np.max(np.abs(got - ref[lab])) <= 1e-15 * np.max(np.abs(ref[lab])), (name, lab)
    for lab in ram:
        lp, lm, res = engine.loc_p[lab], engine.loc_m[lab], engine.res_vec[lab]
        conv = np.array([[np.convolve(a, b) for b in lm] for a in lp])
        ref = np.einsum("abl,pl->pab", conv, res)
        assert np.max(np.abs(engine.res_tensor[lab] - ref)) <= 1e-14 * np.max(np.abs(ref)), lab


def test_kernel_matrix_does_not_depend_on_pair_order():
    # the upper triangle and both orders of the same data give one s and one table
    rng = np.random.default_rng(41)
    ram = ("0", "1", "2", "3")
    upper = random_s(ram, 13, rng)
    full = _symmetrized(upper)
    reverse = dict(reversed(list(full.items())))
    c_up, c_full, c_rev = (LocalSpectralCurve(ram=ram, bergman_reg=s)
                           for s in (upper, full, reverse))
    assert c_up.s.shape == (4 * 13, 4 * 13)
    assert np.array_equal(c_up.s, c_up.s.T)
    assert np.array_equal(c_up.s, c_full.s) and np.array_equal(c_up.s, c_rev.s)
    for (m1, m2), v in upper.items():
        assert c_up.block(m1[1], m2[1])[m1[0] - 1, m2[0] - 1] == v
    t_up, t_full = (eo_run(c, 3).table.entries for c in (c_up, c_full))
    assert t_up.keys() == t_full.keys()
    for cell, entries in t_up.items():
        assert entries.keys() == t_full[cell].keys(), cell
        for idx, val in entries.items():
            other = t_full[cell][idx]
            assert (val.real.hex(), val.imag.hex()) == (other.real.hex(), other.imag.hex())
    # two orders that agree within the gate: the later pair gives both entries
    m1, m2 = (1, "0"), (3, "0")
    for pairs, want in (({(m1, m2): 0.5, (m2, m1): 0.5 + 1e-13}, 0.5 + 1e-13),
                        ({(m2, m1): 0.5 + 1e-13, (m1, m2): 0.5}, 0.5)):
        block = LocalSpectralCurve(ram=("0",), bergman_reg=pairs).block("0", "0")
        assert block[0, 2] == block[2, 0] == want


def test_kernel_matrix_keeps_ram_labels_and_window_modes():
    # pairs at a label outside ram are dropped; modes beyond the recursion's
    # window stay in s but not in the window series
    rng = np.random.default_rng(43)
    ram = ("p", "q")
    s = random_s(ram + ("x",), 7, rng)
    s.update(random_s(("p",), 40, rng))
    curve = LocalSpectralCurve(ram=ram, bergman_reg=s)
    assert curve.s.shape == (2 * 40, 2 * 40)
    inside = {key: v for key, v in s.items() if key[0][1] != "x" and key[1][1] != "x"}
    assert np.array_equal(curve.s, LocalSpectralCurve(ram=ram, bergman_reg=inside).s)
    # a dropped pair still passes the symmetry gate
    with pytest.raises(ValueError, match=r"not symmetric at \(\(1, 'x'\), \(3, 'x'\)\)"):
        LocalSpectralCurve(ram=ram, bergman_reg={**s, ((3, "x"), (1, "x")): 9.0})
    engine = _EoEngine(curve, 3, 9)
    window = engine.hi + 1
    assert window < 40
    short = {key: v for key, v in inside.items() if max(key[0][0], key[1][0]) <= window}
    ref = _EoEngine(LocalSpectralCurve(ram=ram, bergman_reg=short), 3, 9)
    for name in ("loc_p", "loc_m", "b_pm", "res_tensor"):
        for lab in ram:
            assert np.array_equal(getattr(engine, name)[lab], getattr(ref, name)[lab]), (name, lab)


def test_evaluation_reads_the_input_pairs():
    # ebar_value and the (0,2) evaluation against direct sums over the pair dict
    rng = np.random.default_rng(47)
    ram = ("p", "q")
    s = random_s(ram, 9, rng)
    sym = _symmetrized(s)
    omega = eo_run(LocalSpectralCurve(ram=ram, bergman_reg=s), chi_max=1)
    zs = {"p": 0.31 + 0.12j, "q": -0.21 + 0.27j}
    for mode in omega.table.modes + [(2, "q"), (9, "p"), (11, "p")]:
        for lab, z in zs.items():
            ref = z ** (-mode[0] - 1) if mode[1] == lab else 0j
            for (m1, m2), v in sym.items():
                if m1 == mode and m2[1] == lab:
                    ref += v * m2[0] * z ** (m2[0] - 1)
            got = omega.ebar_value(mode, lab, z)
            assert abs(got - ref) <= 1e-14 * abs(ref), (mode, lab)
    for (la, za), (lb, zb) in itertools.product([("p", zs["p"]), ("q", zs["q"])],
                                                [("p", 0.18 - 0.33j), ("q", 0.4 + 0.05j)]):
        ref = 1.0 / (za - zb) ** 2 if la == lb else 0j
        for (m1, m2), v in sym.items():
            if m1[1] == la and m2[1] == lb:
                ref += v * m1[0] * m2[0] * za ** (m1[0] - 1) * zb ** (m2[0] - 1)
        got = omega_eval(omega, 0, 2, [(la, za), (lb, zb)])
        assert abs(got - ref) <= 1e-14 * abs(ref), (la, lb)


def test_curve_errors_name_their_numbers():
    m1, m2 = (1, "0"), (3, "0")
    with pytest.raises(ValueError) as err:
        LocalSpectralCurve(ram=("0",), bergman_reg={(m1, m2): 0.5, (m2, m1): 0.5 + 1e-9})
    m = re.fullmatch(r"bergman_reg is not symmetric at (.*): (\S+) against (\S+), "
                     r"\|delta\| = (\S+), gate (\S+)", str(err.value))
    assert m, str(err.value)
    assert ast.literal_eval(m.group(1)) == (m1, m2)
    assert (float(m.group(2)), float(m.group(3))) == (0.5, 0.5 + 1e-9)
    assert float(m.group(4)) == pytest.approx(1e-9, rel=1e-3)
    assert float(m.group(5)) == 1e-12

    with pytest.raises(ValueError) as err:
        LocalSpectralCurve(ram=("0",), denom={"0": LaurentSeries({2: 4.0, 5: -0.3j}, 2, 40)})
    m = re.fullmatch(r"denom at '0' is not even: odd part from z\^(\S+), "
                     r"max \|coefficient\| (\S+)", str(err.value))
    assert m, str(err.value)
    assert (int(m.group(1)), float(m.group(2))) == (5, 0.3)

    with pytest.raises(ValueError) as err:
        LocalSpectralCurve(ram=("0",), denom={"0": LaurentSeries({0: 1.0, 2: 4.0}, 0, 40)})
    m = re.fullmatch(r"denom at '0' needs a double zero with nonzero z\^2 coefficient: "
                     r"lowest exponent (\S+), z\^2 coefficient (\S+)", str(err.value))
    assert m, str(err.value)
    assert (int(m.group(1)), complex(m.group(2))) == (0, 4.0)



def test_default_denominator_leaves_callers_dict_alone():
    # the default 4 z^2 series goes into the curve's own copy of denom
    d = {}
    curve = LocalSpectralCurve(ram=("0", "1"), denom=d)
    assert d == {}
    assert sorted(curve.denom) == ["0", "1"]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_omega02_near_diagonal():
    omega = eo_run(airy_point(), chi_max=1)
    z = 0.3 + 0.1j
    eps = 1e-3
    val = omega_eval(omega, 0, 2, [("0", z), ("0", z + eps)])
    assert abs(val * eps ** 2 - 1.0) < 5e-3


def test_omega_eval_symmetry_under_swap():
    rng = np.random.default_rng(2)
    s = random_s(("0",), 7, rng)
    omega = eo_run(LocalSpectralCurve(ram=("0",), bergman_reg=s), chi_max=2)
    pts = [("0", 0.31 + 0.05j), ("0", -0.22 + 0.18j), ("0", 0.12 - 0.27j)]
    v1 = omega_eval(omega, 0, 3, pts)
    v2 = omega_eval(omega, 0, 3, [pts[1], pts[0], pts[2]])
    assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


def test_omega11_contour_residue_vanishes():
    rng = np.random.default_rng(8)
    s = random_s(("0",), 7, rng)
    omega = eo_run(LocalSpectralCurve(ram=("0",), bergman_reg=s), chi_max=1)
    nn = 256
    r = 0.4
    total = 0j
    for m in range(nn):
        z = r * np.exp(2j * np.pi * m / nn)
        total += omega_eval(omega, 1, 1, [("0", z)]) * z
    total *= 2j * np.pi / nn
    assert abs(total) < 1e-10


def test_omega_eval_annulus_guard():
    omega = eo_run(airy_point(), chi_max=1)
    with pytest.raises(OutOfAnnulus):
        omega_eval(omega, 1, 1, [("0", 1e-6)])


def test_eo_vs_atr_s04_airy_disc():
    # the (0,4) cell of the abstract recursion against the local recursion on
    # the bare disc: the two pipelines are independent implementations
    from swtr.airy import build_residue_constraint_tensors
    t = build_residue_constraint_tensors(9, ("0",))
    table = atr_run(t, chi_max=2)
    omega = eo_run(airy_point(), chi_max=2)
    keys = {tuple(sorted(table.modes[i] for i in key))
            for key in table.entries[(0, 4)]}
    keys |= {tuple(sorted(omega.table.modes[i] for i in key))
             for key in omega.table.entries[(0, 4)]}
    assert keys
    for modes in keys:
        assert abs(table.value(0, 4, modes) - omega.value(0, 4, modes)) < 1e-12
