"""Tests for the local recursion and its equivalence with the abstract one."""

import ast
import bisect
import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from swtr.airy import (
    GaugeData,
    _AtrEngine,
    _splits,
    atr_run,
    build_tr_variant_tensors,
    default_index_bound,
    gauge_transform,
    max_index_bound,
    recursion_cells,
)
from swtr.cli import VerifyConfig, verify_theorem
from swtr.errors import OutOfAnnulus
from swtr.laurent import LaurentSeries
from swtr.spectral import (
    LocalSpectralCurve,
    OmegaGN,
    _PLAN_SLOTS,
    _STACK,
    _EoEngine,
    _plan,
    _product_columns,
    _ways,
    atr_eo_crosscheck,
    eo_run,
    eo_symmetry_deviation,
    fill_cells,
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


def _double_factorial(k):
    """k!! for odd k >= -1, with (-1)!! = 1."""
    return math.prod(range(k, 0, -2))


@functools.cache
def _intersection(g, ds):
    """<tau_{d_1} ... tau_{d_n}>_g over the moduli of curves, ``ds`` sorted, as a Fraction.

    The DVV recursion (the Virasoro constraints) on the largest d, with
    <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24; 0 off the dimension 3g - 3 + n.
    """
    if g < 0 or sum(ds) != 3 * g - 3 + len(ds) or min(ds, default=0) < 0:
        return Fraction(0)
    if (g, ds) in ((0, (0, 0, 0)), (1, (1,))):
        return Fraction(1) if g == 0 else Fraction(1, 24)
    k, rest = ds[-1] - 1, ds[:-1]           # tau_{k+1} tau_rest
    if k < 0:
        return Fraction(0)

    def key(*d):
        return tuple(sorted(d))

    total = Fraction(0)
    for j, d in enumerate(rest):
        others = rest[:j] + rest[j + 1:]
        total += Fraction(_double_factorial(2 * k + 2 * d + 1), _double_factorial(2 * d - 1)) * \
            _intersection(g, key(*others, d + k))
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(_double_factorial(2 * r + 1) * _double_factorial(2 * s + 1), 2)
        total += weight * _intersection(g - 1, key(r, s, *rest))
        for size in range(len(rest) + 1):
            for part in set(itertools.combinations(range(len(rest)), size)):
                one = tuple(rest[i] for i in part)
                two = tuple(rest[i] for i in range(len(rest)) if i not in part)
                for g1 in range(g + 1):
                    total += weight * _intersection(g1, key(r, *one)) * \
                        _intersection(g - g1, key(s, *two))
    return total / _double_factorial(2 * k + 3)


@pytest.mark.parametrize("points", [1, 3], ids=["1pt", "3pt"])
def test_zero_kernel_gives_witten_kontsevich_numbers(points):
    # with s = 0 each point is the Airy curve alone: an entry with every leg
    # at one point is 2^{2-2g-n} prod k_i!! <tau_{(k_1-1)/2} ... tau_{(k_n-1)/2}>_g
    # (Witten-Kontsevich), an entry across points is 0, so never stored
    ram = tuple(str(q) for q in range(points))
    omega = eo_run(LocalSpectralCurve(ram=ram), 6)
    for (g, n), cell in omega.table.entries.items():
        want = {}
        for idx in omega.engine.support(g, n):
            ks, labels = zip(*(omega.table.modes[i] for i in idx))
            num = _intersection(g, tuple(sorted((k - 1) // 2 for k in ks)))
            if num and len(set(labels)) == 1:
                want[idx] = num * Fraction(2) ** (2 - 2 * g - n) * math.prod(
                    map(_double_factorial, ks))
        assert set(cell) == set(want), (g, n)
        for idx, val in cell.items():
            assert abs(val - float(want[idx])) <= 1e-14 * float(want[idx]), (g, n, idx)
    # (2, 1) at mode 9: 2^{-3} 9!! <tau_4>_2 = 945 / (8 * 1152)
    assert omega.value(2, 1, ((9, ram[0]),)) == 945 / (8 * 1152)


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


def test_factor_tables_are_freed_when_the_run_returns():
    # the recursion's factor tables (51.8 MB at chi = 7 on 4 points) are not
    # kept past eo_run; the pivot sampler rebuilds the ones it reads, to the
    # same bits as with the tables kept
    curve = _split_test_curve(("0", "1", "2", "3"))
    omega = eo_run(curve, 4)
    assert omega.engine._factor_cache == {}
    kept = _EoEngine(curve, 4, max_index_bound(4))
    table = kept.run()
    assert kept._factor_cache
    dev = eo_symmetry_deviation(omega)
    assert 0 < dev < 1e-10
    assert dev == eo_symmetry_deviation(OmegaGN(table, curve, kept))


def test_reference_paths_free_their_factor_tables():
    # the pivot sampler and the support check rebuild the factor tables they
    # read and free them when they return, as eo_run does; each returns, to
    # the bit, what it returns on an engine that kept the run's tables
    curve = _split_test_curve(("0", "1"))
    omega = eo_run(curve, 3)
    for check in (eo_symmetry_deviation, support_bound_check):
        kept = _EoEngine(curve, 3, max_index_bound(3))
        table = kept.run()
        assert kept._factor_cache
        expect = check(OmegaGN(table, curve, kept))
        assert check(omega) == expect
        assert omega.engine._factor_cache == {} and kept._factor_cache == {}


def test_chi4_four_points_fill_every_cell():
    # breadth at chi = 4: every cell is filled and stays pivot-symmetric
    rng = np.random.default_rng(23)
    ram = ("0", "1", "2", "3")
    curve = LocalSpectralCurve(ram=ram, bergman_reg=random_s(ram, 13, rng))
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
        assert info["unreached_residual"] == 0.0, (cell, info)


def test_airy_support_is_minimal():
    omega = eo_run(airy_point(), chi_max=2)
    report = support_bound_check(omega)
    assert report[(0, 3)]["max_index"] == 1
    assert report[(1, 1)]["max_index"] == 3


def test_eo_truncation_guard():
    from swtr.errors import TruncationInsufficient
    with pytest.raises(TruncationInsufficient):
        eo_run(airy_point(), chi_max=3, kmax=5)   # omega_{1,3} needs index 8


@pytest.mark.parametrize("ram, chi, cells, filled", [
    (("0", "1", "2", "3"), 4, [(0, 6)], [(0, 3), (0, 4), (0, 5), (0, 6)]),
    (("p", "q"), 4, [(1, 2)], [(0, 3), (1, 1), (1, 2)]),
    (("0",), 5, [(2, 1), (0, 4)], [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]),
], ids=["4pt-genus-zero", "2pt-one-cell", "1pt-two-cells"])
def test_cells_fill_their_downward_closure_bitwise(ram, chi, cells, filled):
    # a run asked for some cells fills them and the cells they read, in the
    # recursion's order, with kmax their largest index bound and a level a
    # chi up to the top cell's; compared key by key in mode tuples (the index
    # keys shift with the mode list), each genus-zero cell is the whole
    # run's to the bit, and the others to rounding: their genus terms
    # contract a residue tensor summed over a window that kmax sizes
    curve = _split_test_curve(ram)
    omega, whole = eo_run(curve, chi, cells=cells), eo_run(curve, chi)
    assert omega.cells() == sorted(filled) and omega.engine.cells == tuple(filled)
    assert omega.engine.kmax == max(default_index_bound(g, n) for g, n in filled)
    assert omega.engine.kmax < whole.engine.kmax
    assert len(omega.engine._plan.levels) == max(2 * g - 2 + n for g, n in filled)
    assert omega.engine.evaluated < whole.engine.evaluated

    def by_modes(table, cell):
        return {tuple(table.modes[i] for i in key): val for key, val in table.entries[cell].items()}
    for cell in filled:
        got, want = by_modes(omega.table, cell), by_modes(whole.table, cell)
        assert list(got) == list(want), cell
        if cell[0] == 0:
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
        else:
            scale = max(map(abs, want.values()))
            assert max(abs(got[key] - val) for key, val in want.items()) <= 1e-14 * scale, cell


def test_cells_name_recursion_cells():
    # cells outside 1 <= 2g - 2 + n <= chi_max, or none, are refused by name
    for cells, text in (([], "cells is empty"),
                        ([(0, 3), (0, 5)],
                         "cell (0, 5) is not a cell (g, n) with 1 <= 2g - 2 + n <= 2"),
                        ([(0, 2)], "cell (0, 2) is not a cell")):
        with pytest.raises(ValueError, match=re.escape(text)):
            eo_run(airy_point(), 2, cells=cells)


def test_engine_checks_kmax_once_at_construction(monkeypatch):
    # the bound is checked over the cells to fill when the engine is built,
    # naming the first cell beyond kmax; the run checks none again
    from swtr.errors import TruncationInsufficient
    with pytest.raises(TruncationInsufficient, match=re.escape("cell (2, 1) needs indices up to "
                                                               "10 > kmax=9")):
        _EoEngine(airy_point(), 3, 9)
    with pytest.raises(TruncationInsufficient, match=re.escape("cell (0, 5) needs indices up to "
                                                               "6 > kmax=5")):
        eo_run(airy_point(), 3, kmax=5, cells=[(0, 5)])
    checked = []
    bound = _EoEngine.index_bound
    monkeypatch.setattr(_EoEngine, "index_bound",
                        lambda self, g, n: checked.append((g, n)) or bound(self, g, n))
    engine = _EoEngine(airy_point(), 3, 6, cells=[(0, 5)])
    assert checked == [(0, 3), (0, 4), (0, 5)]
    engine.run()
    assert checked == [(0, 3), (0, 4), (0, 5)]


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


def _split_test_curve(ram, seed=31):
    """Random kernel data to mode 13 at ``ram``."""
    rng = np.random.default_rng(seed)
    return LocalSpectralCurve(ram=ram, bergman_reg=random_s(ram, 13, rng))


@pytest.mark.parametrize("ram, chi", [
    (("0", "1", "2", "3"), 4),
    (("p", "q"), 5),
    (("0",), 6),
], ids=["4pt-chi4", "2pt-chi5", "1pt-chi6"])
def test_whole_cell_fill_matches_per_entry_reference(ram, chi):
    # the whole-cell fill against compute_value, entry by entry on the support
    omega = eo_run(_split_test_curve(ram), chi)
    engine = omega.engine
    for g, n in recursion_cells(chi):
        cell = omega.table.entries[(g, n)]
        ref = {idx: engine.compute_value(g, n, idx) for idx in engine.support(g, n)}
        assert set(cell) == {idx for idx, val in ref.items() if val != 0}, (g, n)
        for idx, val in cell.items():
            assert abs(val - ref[idx]) <= 1e-14 * abs(ref[idx]), (g, n, idx)


@pytest.mark.parametrize("ram, chi", [
    (("0", "1", "2", "3"), 4),
    (("p", "q"), 5),
], ids=["4pt-chi4", "2pt-chi5"])
def test_unreached_support_tuples_are_exactly_zero(ram, chi):
    # every support tuple whose rest no lower cell reaches, which the fill
    # skips, comes out exactly 0 in the per-entry reference; the tuples the
    # fill reaches are the ones it counts
    omega = eo_run(_split_test_curve(ram), chi)
    engine = omega.engine
    reached = {cell: engine._reached(*cell) for cell in omega.table.entries}
    assert sum(map(len, reached.values())) == engine.evaluated
    skipped = sum(len(set(engine.support(*cell)) - reached[cell]) for cell in reached)
    assert skipped > 0
    report = support_bound_check(omega)
    for cell, info in report.items():
        assert info["unreached_residual"] == 0.0, (cell, info)


def _lower_pairs(self, g, n, q):
    """(first factor, second factor at -z, merged legs, subsets) of each
    splitting-term pair at the point q, in the recursion's pair order."""
    first = self.index[(1, self.ram[q])]
    room = 3 * g - 3 + n
    for g1, n1, g2, n2 in dict.fromkeys((s[0], s[1], s[3], s[4]) for s in _splits(g, n)):
        ones, deg1 = self._factor_rows(g1, n1, q)
        twos, deg2 = self._factor_rows(g2, n2, q)
        table1, table2 = self._factors(g1, n1)[1], self._factors(g2, n2)[1]
        twos = [(legs, table2[r], d) for (legs, r), d in zip(twos.items(), deg2)
                if not legs or legs[0] >= first]
        deg2 = [d for _, _, d in twos]
        for (legs1, r1), d1 in zip(ones.items(), deg1):
            if legs1 and legs1[0] < first:
                continue
            for legs2, f2, _ in twos[:bisect.bisect_right(deg2, room - d1)]:
                yield (table1[r1], f2 * self._flip, tuple(sorted(legs1 + legs2)),
                       _ways(legs1, legs2))


def _cell_by_cell(fill):
    """A ``run`` that fills the engine's cells one at a time in the recursion's order, each by
    ``fill``."""
    def run(self):
        for g, n in self.cells:
            self.table.entries[(g, n)] = fill(self, g, n)
            self.table.bounds[(g, n)] = default_index_bound(g, n)
            self._cell_cache.clear()
        return self.table
    return run


def _genus_terms(self, g, n, q, nrows, at, a, b, src):
    """Genus-reduction residues of ``nrows`` rests and every pivot at the point q.

    An entry of omega_{g-1,n+1} at (a, b, rest), the ``src``-th stored,
    adds its value times C[p, a, b] + C[p, b, a] (once for a = b) to (its
    row ``at``, pivot p).
    """
    out = np.zeros((nrows, self.npiv), dtype=complex)
    if len(at):
        c = self.res_tensor[q]
        vals = self._cell_values(g - 1, n + 1)[src]
        terms = (c[:, a, b] + np.where(a != b, c[:, b, a], 0)) * vals
        np.add.at(out, at, terms.T)
    return out


def _pivots(self, g, n, q, rows):
    """(tuple, row, pivot p) of each entry at the point q with its rest in
    ``rows``, sorted: the per-entry reference of ``_EoEngine._pivots``.

    The pivot is the mode (2p + 1) at q within the degree budget the rest
    leaves, and no larger than the rest's first leg.
    """
    first, room = self.index[(1, self.ram[q])], 3 * g - 3 + n
    by_pivot = []           # the rests that take each pivot, sorted
    for rest in sorted(rows):
        top = room - sum(map(self.degree.__getitem__, rest))
        if rest:
            top = min(top, rest[0] - first)
        while len(by_pivot) <= top:
            by_pivot.append([])
        for p in range(top + 1):
            by_pivot[p].append(rest)
    for p, rests in enumerate(by_pivot):
        for rest in rests:
            yield (first + p,) + rest, rows[rest], p


def _convolve_cell(self, g, n):
    """One cell, one point at a time, by one full ``np.convolve`` per pair: the
    oracle of ``_EoEngine.run``, which forms only the columns each rest's pivots
    read, for all the cells and points of a level in one stack.  Every sum is added
    one per subset in pair order."""
    self.allowed(g, n)
    cell = {}
    for q in range(len(self.ram)):
        rows, genus = self._first_rows(g, n, q)
        adds = []
        for f1, f2, legs, ways in _lower_pairs(self, g, n, q):
            self.products += 1
            adds.append((rows.setdefault(legs, len(rows)), np.convolve(f1, f2), ways))
        xi = np.zeros((len(rows), 2 * self.nlen - 1), dtype=complex)
        for row, term, ways in adds:
            for _ in range(ways):
                xi[row] += term
        if (g, n) == (1, 1):
            xi[0, -self.lo:-self.lo + self.nlen] += self.b_pm[q]
        vals = -(xi @ self.res_vec.T)
        if genus is not None:
            vals -= _genus_terms(self, g, n, q, len(rows), *genus)
        for idx, r, p in _pivots(self, g, n, q, rows):
            self.evaluated += 1
            if (val := vals[r, p]) != 0:
                cell[idx] = val
    return dict(sorted(cell.items()))


def _support_cell(self, g, n):
    """One cell filled on its whole degree-bounded support: the oracle of the
    reached-rest fill of ``_EoEngine.run``.

    Every support tuple is evaluated.  At each point its rests are the rows;
    pairs and genus-term entries are looked up by rest, and those whose rest
    is no row are skipped.  The pairs of a point are stacked as the engine
    stacks a level's.
    """
    support = self.support(g, n)
    self.evaluated += len(support)
    rows = [{} for _ in self.ram]
    for idx in support:
        at = rows[self.ram.index(self.modes[idx[0]][1])]
        at.setdefault(idx[1:], len(at))
    vals = []
    for q, at in enumerate(rows):
        cols = self.res_cols
        part = np.zeros((len(at), len(cols)), dtype=complex)
        pairs = [(f1, f2, at[legs], ways) for f1, f2, legs, ways in _lower_pairs(self, g, n, q)
                 if legs in at]
        for i in range(0, len(pairs), _STACK):
            chunk = pairs[i:i + _STACK]
            self.products += len(chunk)
            firsts, seconds, where, ways = zip(*chunk)
            terms = _all_product_columns(np.array(firsts), np.array(seconds)[:, ::-1].copy(),
                                         cols)
            each = np.repeat(np.arange(len(chunk)), ways)
            np.add.at(part, np.array(where)[each], terms[each])
        xi = np.zeros((len(at), 2 * self.nlen - 1), dtype=complex)
        xi[:, cols] = part
        if (g, n) == (1, 1):
            xi[at[()], -self.lo:-self.lo + self.nlen] += self.b_pm[q]
        vals.append(-(xi @ self.res_vec.T))
        if g >= 1 and (g, n) != (1, 1):
            where, pairs, coef = [], [], []
            for key, val in self.table.entries[(g - 1, n + 1)].items():
                for a, b in dict.fromkeys(itertools.combinations(key, 2)):
                    rest = list(key)
                    rest.remove(a)
                    rest.remove(b)
                    if tuple(rest) in at:
                        where.append(at[tuple(rest)])
                        pairs.append((a, b))
                        coef.append(val)
            out = np.zeros_like(vals[q])
            if where:
                a, b = np.array(pairs).T
                c = self.res_tensor[q]
                terms = (c[:, a, b] + np.where(a != b, c[:, b, a], 0)) * np.array(coef)
                np.add.at(out, where, terms.T)
            vals[q] -= out
    cell = {}
    for idx in support:
        q = self.ram.index(self.modes[idx[0]][1])
        val = vals[q][rows[q][idx[1:]], self.degree[idx[0]]]
        if val != 0:
            cell[idx] = val
    return cell


def _all_product_columns(f1, r2, cols):
    """Columns ``cols`` of ``np.convolve(f1[i], f2[i])`` for every row i, ``r2`` the rows of f2
    reversed: the all-column reference of ``_product_columns``, which forms a column only for
    the leading rows that read it.

    Output k of convolve is one dtype ``dot`` of f1[:k+1] with r2[L-1-k:]
    for k < L, else of f1[k-L+1:] with r2[:2L-1-k], L the series length;
    a stacked (P, 1, m) @ (P, m, 1) matmul takes that dot on every row.
    """
    size = f1.shape[1]
    out = np.empty((len(f1), len(cols)), dtype=complex)
    for c, k in enumerate(cols):
        lo1, hi1 = max(0, k - size + 1), min(size, k + 1)
        lo2, hi2 = max(0, size - 1 - k), min(size, 2 * size - 1 - k)
        out[:, c] = (f1[:, None, lo1:hi1] @ r2[:, lo2:hi2, None])[:, 0, 0]
    return out


def _all_column_forms(pairs, tops, npiv):
    """``_EoEngine._forms`` of the all-column reference: every pair forms every pivot's column.

    The pairs stay in the order they were found, with the rows they add to
    and how many times.
    """
    return pairs, (), pairs.shape[1] * npiv


def _all_column_split_part(self, level, stack):
    """``_EoEngine._split_part`` forming every column of every pair and adding it: the
    reference of the read-column products, on ``_all_column_forms``'s plan."""
    cols = self.res_cols
    part = np.zeros((level.rows, len(cols)), dtype=complex)
    first, second, at, ways = level.pairs
    flip = self._flip[::-1].copy()
    width = np.arange(len(cols))
    for start in range(0, len(at), _STACK):
        stop = min(start + _STACK, len(at))
        flipped = stack[second[start:stop]][:, ::-1] * flip
        terms = _all_product_columns(stack[first[start:stop]], flipped, cols)
        each = np.repeat(np.arange(stop - start), ways[start:stop])
        flat = at[start:stop][each, None] * len(cols) + width
        np.add.at(part.reshape(-1), flat.ravel(), terms[each].ravel())
    return part


def _all_columns(monkeypatch):
    """Make the recursion form and add every column of every pair, as the reference does."""
    monkeypatch.setattr(_EoEngine, "_forms", staticmethod(_all_column_forms))
    monkeypatch.setattr(_EoEngine, "_split_part", _all_column_split_part)


def _table_bits(table):
    """Cells, keys in stored order, and the float hex of every value."""
    return [(cell, [(idx, val.real.hex(), val.imag.hex()) for idx, val in entries.items()])
            for cell, entries in table.entries.items()]


FILL_CASES = pytest.mark.parametrize("ram, chi", [
    (("0", "1", "2", "3"), 4),
    (("p", "q"), 4),
    (("p", "q"), 5),
    (("0",), 6),
    (None, None),
], ids=["4pt-chi4", "2pt-chi4", "2pt-chi5", "1pt-chi6", "verify-g2"])


def _fill_case(ram, chi, other=False):
    """The run of a FILL_CASES case: eo_run, or the genus-2 verify's recursion.

    ``other`` takes other kernel data on the same curve shape.
    """
    if ram is None:
        u0 = (0.31 + 0.1j, 0.2 - 0.16j) if other else (0.3 + 0.1j, 0.2 - 0.15j)
        return verify_theorem(VerifyConfig(genus=2, u0=u0)).omega
    return eo_run(_split_test_curve(ram, seed=37 if other else 31), chi)


@FILL_CASES
def test_split_terms_match_convolve_loop_bitwise(monkeypatch, ram, chi):
    # the read columns of a level's stacked products, added one per subset in
    # pair order, leave every stored value and the key order as the
    # full-convolve loop one cell and one point at a time
    omega = _fill_case(ram, chi)
    with monkeypatch.context() as m:
        m.setattr(_EoEngine, "run", _cell_by_cell(_convolve_cell))
        ref = _fill_case(ram, chi)
    assert omega.engine.products == ref.engine.products > 0
    assert _table_bits(omega.table) == _table_bits(ref.table)


@FILL_CASES
def test_reached_fill_matches_support_fill_bitwise(monkeypatch, ram, chi):
    # filling on the reached rests skips only exact zeros: the stored values,
    # the key order and the products are the support-driven fill's; on one
    # point every support tuple is reached, on more the fill visits fewer
    omega = _fill_case(ram, chi)
    with monkeypatch.context() as m:
        m.setattr(_EoEngine, "run", _cell_by_cell(_support_cell))
        ref = _fill_case(ram, chi)
    assert omega.engine.products == ref.engine.products > 0
    assert _table_bits(omega.table) == _table_bits(ref.table)
    support = sum(len(omega.engine.support(g, n)) for g, n in omega.table.entries)
    assert ref.engine.evaluated == support
    if len(omega.curve.ram) == 1:
        assert omega.engine.evaluated == support
    else:
        assert omega.engine.evaluated < support


def _counts(omega):
    return omega.engine.evaluated, omega.engine.products


@FILL_CASES
def test_replayed_plan_matches_a_fresh_plan_bitwise(ram, chi):
    # a shape's first run records every level's plan, and a run on the plan
    # that other kernel data recorded gives the values, key order and counts
    # of the run that records its own; each kernel's data both ways
    _plan.cache_clear()
    recorded = _fill_case(ram, chi, other=True)
    assert len(recorded.engine._plan.levels) == recorded.engine.chi_max
    replayed = _fill_case(ram, chi)
    _plan.cache_clear()
    fresh = _fill_case(ram, chi)
    assert len(fresh.engine._plan.levels) == fresh.engine.chi_max
    other = _fill_case(ram, chi, other=True)
    runs, top = (recorded, replayed, fresh, other), fresh.engine.chi_max
    assert [omega.engine.replayed for omega in runs] == [0, top, 0, top]
    assert _counts(replayed) == _counts(fresh)
    assert _table_bits(replayed.table) == _table_bits(fresh.table)
    assert _counts(recorded) == _counts(other)
    assert _table_bits(recorded.table) == _table_bits(other.table)


@FILL_CASES
def test_read_columns_give_the_all_column_tables_bitwise(monkeypatch, ram, chi):
    # a pair forms and adds only the columns its row reads and leaves the
    # values, key order and counts of forming and adding every column: on a
    # shape's first run, which records its plan, and on the run that
    # replays it; they are fewer than all where a point has more than one
    # pivot, as a row reads only the columns of the pivots it takes
    def runs():
        _plan.cache_clear()
        return [_fill_case(ram, chi), _fill_case(ram, chi, other=True)]

    got = runs()
    with monkeypatch.context() as m:
        _all_columns(m)
        want = runs()
    engine = got[0].engine
    assert [omega.engine.replayed for omega in got + want] == [0, engine.chi_max] * 2
    for omega, ref in zip(got, want):
        assert _counts(omega) == _counts(ref)
        assert _table_bits(omega.table) == _table_bits(ref.table)
        assert 0 < omega.engine.formed <= ref.engine.formed
        assert (omega.engine.formed < ref.engine.formed) == (engine.npiv > 1)


@pytest.mark.parametrize("ram, chi, sparse", [
    (("p", "q"), 5, dict(cross=False)),
    (("a", "b", "c"), 4, dict(zero=True)),
], ids=["2pt-block-diagonal", "3pt-airy"])
def test_read_columns_on_sparse_kernels_bitwise(monkeypatch, ram, chi, sparse):
    # a dense kernel records a shape's plan, a sparser one records afresh
    # from the first level it cannot replay and a second sparse one replays
    # that: each run's values, key order and counts are those of forming
    # and adding every column
    def run(zero=False, cross=True, seed=0):
        s = {} if zero else random_s(ram, 9, np.random.default_rng(seed), cross=cross)
        return eo_run(LocalSpectralCurve(ram=ram, bergman_reg=s), chi)

    def runs():
        _plan.cache_clear()
        return [run(), run(**sparse, seed=1), run(**sparse, seed=2)]

    got = runs()
    with monkeypatch.context() as m:
        _all_columns(m)
        want = runs()
    replayed = [omega.engine.replayed for omega in got]
    assert replayed == [omega.engine.replayed for omega in want]
    assert replayed[0] == 0 and replayed[1] < chi and replayed[2] == chi
    for omega, ref in zip(got, want):
        assert _counts(omega) == _counts(ref)
        assert _table_bits(omega.table) == _table_bits(ref.table)
        assert omega.engine.formed < ref.engine.formed


@pytest.mark.parametrize("points, chi, formed, every", [(4, 3, 682, 2610), (1, 5, 447, 2976)],
                         ids=["4pt-chi3", "1pt-chi5"])
def test_formed_products_are_the_read_columns(monkeypatch, points, chi, formed, every):
    # the (pair, column) products a run forms, on a kernel with no zero: the
    # columns the rows read, against one per pivot for every pair; the
    # first run and the one that replays its plan form the same
    ram = tuple(str(q) for q in range(points))

    def runs():
        _plan.cache_clear()
        return [eo_run(LocalSpectralCurve(ram=ram, bergman_reg=random_s(
            ram, 7, np.random.default_rng(seed))), chi).engine for seed in (0, 1)]

    assert [(engine.formed, engine.replayed) for engine in runs()] == [(formed, 0), (formed, chi)]
    with monkeypatch.context() as m:
        _all_columns(m)
        assert [engine.formed for engine in runs()] == [every] * 2


def test_residue_pass_keeps_the_bits_of_the_xi_matmul():
    # on random dense xi rows, where a sum of many terms would round by its
    # order, the residue pass on their columns res_cols, with (1, 1)'s
    # B(z, -z) added, gives the bits of -(xi @ res_vec.T) and of each row's
    # own -(xi[r] @ res_vec.T): every other term of those products is an
    # exact zero.  Parts of one row and of many, with and without (1, 1) rows
    rng = np.random.default_rng(67)
    ram = ("p", "q", "r")
    curve = LocalSpectralCurve(ram=ram, bergman_reg=random_s(ram, 9, rng))
    engine = _EoEngine(curve, 4, max_index_bound(4))
    width = 2 * engine.nlen - 1
    for rows, b11 in ((1, False), (1, True), (2, True), (7, False), (40, True)):
        xi = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
        part = xi[:, engine.res_cols].copy()
        ones = np.flatnonzero(rng.random(rows) < 0.3) if b11 else np.zeros(0, dtype=int)
        if b11 and not len(ones):
            ones = np.array([rows - 1])
        qs = rng.integers(0, len(ram), len(ones))
        xi[ones, -engine.lo:-engine.lo + engine.nlen] += engine.b_pm[qs]
        want = -(xi @ engine.res_vec.T)
        engine._residue_pass(part, (ones, qs) if b11 else None, None, None)
        assert part.tobytes() == want.tobytes(), (rows, b11)
        for row, got in zip(xi, part):
            assert got.tobytes() == (-(row @ engine.res_vec.T)).tobytes(), (rows, b11)


def _plan_arrays(node):
    """Every array a plan's levels hold, through tuples, lists and dicts."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _plan_arrays(value)
    elif isinstance(node, (tuple, list)):
        for value in node:
            yield from _plan_arrays(value)
    else:
        assert node is None or isinstance(node, int), type(node)


@pytest.mark.parametrize("ram, chi, then", [
    (("p", "q"), 5, dict(cross=False)),
    (("a", "b", "c"), 4, dict(zero=True)),
], ids=["2pt-block-diagonal", "3pt-airy"])
def test_changed_pattern_forces_a_rebuild(ram, chi, then):
    # a kernel with fewer nonzero lower entries or factor rows than the one a
    # plan was recorded on (no cross-point coupling, the zero kernel) gets
    # the tables, key order and counts of a fresh plan
    def run(zero=False, cross=True, seed=0):
        s = {} if zero else random_s(ram, 9, np.random.default_rng(seed), cross=cross)
        return eo_run(LocalSpectralCurve(ram=ram, bergman_reg=s), chi)

    _plan.cache_clear()
    recorded = run()     # the shape's first run records its plan
    rebuilt = run(**then, seed=1)
    assert rebuilt.engine.replayed < chi
    # the same shape records afresh from the first level it cannot replay
    assert rebuilt.engine._plan is recorded.engine._plan
    assert len(recorded.engine._plan.levels) == chi
    # the plans hold no kernel value: only integer and bool arrays
    for plan in (recorded.engine._plan, rebuilt.engine._plan):
        for arr in _plan_arrays(plan.levels):
            assert arr.dtype.kind in "biu", arr.dtype
    _plan.cache_clear()
    fresh = run(**then, seed=1)
    assert _counts(rebuilt) == _counts(fresh)
    assert _table_bits(rebuilt.table) == _table_bits(fresh.table)


@pytest.mark.parametrize("field", ["lower", "factors"])
def test_level_recorded_under_other_masks_is_enumerated_afresh(field):
    # a level is replayed only if the level below stored the keys it was
    # recorded under and the factor tables have its nonzero rows: with one
    # mask of the fourth level's recording flipped, the run enumerates that
    # level and the next afresh, to a fresh plan's bits
    ram, chi = ("p", "q"), 5

    def run(seed):
        s = random_s(ram, 9, np.random.default_rng(seed))
        return eo_run(LocalSpectralCurve(ram=ram, bergman_reg=s), chi)

    _plan.cache_clear()
    plan = run(0).engine._plan      # the shape's first run records its plan
    level = plan.levels[3]
    if field == "lower":
        masks = level.lower.copy()
        masks[0] = not masks[0]
    else:
        masks = dict(level.factors)
        cell = next(iter(masks))
        nonzero = masks[cell].nonzero.copy()
        nonzero[0, 0] = not nonzero[0, 0]
        masks[cell] = masks[cell]._replace(nonzero=nonzero)
    plan.levels[3] = level._replace(**{field: masks})
    rebuilt = run(1)
    assert rebuilt.engine.replayed == 3 and plan.levels[3].pairs is not level.pairs
    _plan.cache_clear()
    fresh = run(1)
    assert _counts(rebuilt) == _counts(fresh)
    assert _table_bits(rebuilt.table) == _table_bits(fresh.table)


def test_plan_cache_keeps_at_most_its_slots():
    # one plan per curve shape, never more than the slots; a shape still
    # held is a hit
    _plan.cache_clear()
    curve = airy_point()
    for kmax in range(5, 5 + 2 * (_PLAN_SLOTS + 3), 2):
        eo_run(curve, 1, kmax=kmax)
        assert _plan.cache_info().currsize <= _PLAN_SLOTS
    assert _plan.cache_info().currsize == _PLAN_SLOTS
    eo_run(curve, 1, kmax=kmax)
    assert _plan.cache_info().hits == 1


def test_engines_of_one_shape_share_the_plans_kernel_table():
    # omega_{0,2}'s factor table, its row index and the window's index arrays
    # are formed once per shape: two engines on other kernel data read the
    # plan's, by identity, and each run copies the table to its stack's start
    _plan.cache_clear()
    ram = ("p", "q", "r")
    one, two = (_EoEngine(_split_test_curve(ram, seed), 3, max_index_bound(3))
                for seed in (31, 37))
    plan = one._plan
    assert two._plan is plan and plan.window is not None
    assert one._flip is two._flip is plan.window.flip
    assert one.res_vec is two.res_vec is plan.window.res_vec
    rows, kernel, index = plan.window.kernel
    assert not kernel.flags.writeable
    for engine in (one, two):
        got_rows, got = engine._factors(0, 2)
        assert got_rows is rows and got is kernel
        for q in range(len(ram)):
            assert engine._factor_rows(0, 2, q) is index[0, 2, q]
    # row q * dim + j is the two-form against the leg j at the point q
    for q, lab in enumerate(ram):
        for j, mode in enumerate(one.modes):
            want = one._f_leg(mode, lab)
            want = np.zeros(one.nlen, dtype=complex) if want is None else want
            assert kernel[q * one.dim + j].tobytes() == want.tobytes(), (lab, mode)
    for engine in (one, two):
        engine.run()
        placed = engine._factor_cache[(0, 2)][1]
        assert placed is not kernel and placed.tobytes() == kernel.tobytes()
        assert engine._offsets[(0, 2)] == 0


def test_replayed_run_forms_no_kernel_table(monkeypatch):
    # a run reads omega_{0,2}'s table from its plan: neither the shape's first
    # run nor the replays form it, while every lower cell's is formed per run
    _plan.cache_clear()
    formed = []
    table = _EoEngine._factor_table

    def counted(self, g, n, *args, **kwargs):
        formed.append((g, n))
        return table(self, g, n, *args, **kwargs)

    monkeypatch.setattr(_EoEngine, "_factor_table", counted)
    runs = [_fill_case(("0", "1", "2", "3"), 4, other) for other in (False, True, False)]
    assert [omega.engine.replayed for omega in runs] == [0, 4, 4]
    assert (0, 2) not in formed
    assert formed == [cell for _ in runs for cell in fill_cells(3)]


def test_replayed_run_starts_its_stack_at_the_rows_the_last_run_used(monkeypatch):
    # the plan keeps the rows of the stack of factor tables its last run
    # used; a replay starts there and never grows its stack
    _plan.cache_clear()
    first = _fill_case(("0", "1", "2", "3"), 4)
    rows = first.engine._plan.rows
    assert rows == first.engine._used > 0
    full = []
    place = _EoEngine._place

    def counted(self, cell, count):
        full.append(self._used + count > len(self._stack))
        return place(self, cell, count)

    monkeypatch.setattr(_EoEngine, "_place", counted)
    again = _fill_case(("0", "1", "2", "3"), 4, other=True)
    assert again.engine.replayed == 4 and full and not any(full)
    assert again.engine._used == again.engine._plan.rows == rows


def test_genus_zero_run_forms_no_residue_tensor():
    # the residue tensor is formed on its first read: a run whose levels take
    # no genus term never forms it, and a read after the run gives its bits
    curve = _split_test_curve(("p", "q"), None)
    engine = _EoEngine(curve, 3, max_index_bound(3), cells=[(0, 5)])
    engine.run()
    assert "res_tensor" not in vars(engine)
    hankel = engine._plan.window.hankel
    for q in range(2):
        ref = engine.loc_p[q] @ hankel @ engine.loc_m[q].T
        assert engine.res_tensor[q].tobytes() == ref.tobytes()
    full = _EoEngine(curve, 3, max_index_bound(3))
    full.run()
    assert "res_tensor" in vars(full)


def test_product_columns_are_convolve_columns_bitwise():
    # every column of the stacked dots is np.convolve's to the bit, at the
    # window length of each chi's engine (and a wider window), for factors
    # that start with zeros as the lower cells' series do; a column formed
    # for its leading rows only has their bits, as does the all-column
    # reference
    rng = np.random.default_rng(59)
    sizes = {_EoEngine(airy_point(), chi, max_index_bound(chi), extra).nlen
             for chi in range(1, 8) for extra in (0, 8)}
    for size in sorted(sizes):
        for mag in (1e-8, 1.0, 1e8):
            f1, f2 = (mag * (rng.standard_normal((9, size)) + 1j * rng.standard_normal((9, size)))
                      * np.exp(rng.uniform(-4, 4, (9, size))) for _ in range(2))
            f1[:, :3] = 0
            f2[:4, :size // 2] = 0
            cols = np.arange(2 * size - 1)
            ref = np.array([np.convolve(a, b) for a, b in zip(f1, f2)])
            got = _all_product_columns(f1, f2[:, ::-1].copy(), cols)
            assert got.tobytes() == ref.tobytes(), (size, mag)
            counts = rng.integers(0, len(f1) + 1, len(cols))
            counts[:2] = len(f1), 0
            got = _product_columns(f1, f2[:, ::-1].copy(), cols, counts)
            want = np.concatenate([ref[:m, k] for k, m in zip(cols, counts)])
            assert got.tobytes() == want.tobytes(), (size, mag)
    # each pivot's residue reads one column of the product, res_cols[p]
    engine = _EoEngine(airy_point(), 3, 10)
    assert [np.flatnonzero(row).tolist() for row in engine.res_vec] == [[c] for c in engine.res_cols]


def _dilaton_residual(omega, g, n):
    """max over J of |sum_a S_{g,n+1}[J, (3,a)] - (3/2)(2g-2+n) S_{g,n}[J]|, relative.

    J runs over the support of omega_{g,n}, the scale is the largest |rhs|.
    """
    engine, entries = omega.engine, omega.table.entries
    lower, upper = entries[(g, n)], entries[(g, n + 1)]
    threes = [engine.index[(3, lab)] for lab in omega.curve.ram]
    factor = 1.5 * (2 * g - 2 + n)
    worst = 0.0
    for idx in engine.support(g, n):
        lhs = sum(upper.get(tuple(sorted(idx + (j,))), 0j) for j in threes)
        worst = max(worst, abs(lhs - factor * lower.get(idx, 0j)))
    return worst / (factor * max(abs(v) for v in lower.values()))


@pytest.mark.parametrize("ram, chi", [
    (("0", "1", "2", "3"), 4),
    (("p", "q"), 5),
    (("0",), 6),
], ids=["4pt-chi4", "2pt-chi5", "1pt-chi6"])
def test_dilaton_equation_in_every_cell(ram, chi):
    # with D = 4 z^2 only the mode-3 leg survives the dilaton residue, so
    # sum_a S_{g,n+1}[J, (3,a)] = (3/2)(2g - 2 + n) S_{g,n}[J] in every cell
    # whose (g, n+1) the run holds; no compute_value or kernel is involved
    omega = eo_run(_split_test_curve(ram, None), chi)
    cells = [(g, n) for g, n in recursion_cells(chi) if (g, n + 1) in omega.table.entries]
    assert len(cells) == len(recursion_cells(chi - 1))
    for g, n in cells:
        assert _dilaton_residual(omega, g, n) < 1e-13, (g, n)


def _symmetrized(s):
    """Every pair of ``s`` in both orders."""
    return {**s, **{(m2, m1): v for (m1, m2), v in s.items()}}


def _loop_setup(engine, sym):
    """loc_p, loc_m and b_pm per label, and res_vec, entry by entry from the pair dict ``sym``."""
    cur, lo, hi, nlen = engine.curve, engine.lo, engine.hi, engine.nlen
    loc_p, loc_m, b_pm = {}, {}, {}
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
    # residue against z^{k1} / D(z): the coefficient of z^{-1-k1} of 1 / D, D = 4 z^2
    inv_d = LaurentSeries.monomial(4.0, 2).inverse()
    res_vec = np.array([[inv_d.get(-1 - k1 - 2 * lo - j) for j in range(2 * nlen - 1)]
                        for k1 in range(1, engine.kmax + 1, 2)])
    return loc_p, loc_m, b_pm, res_vec


def test_setup_tables_match_loop_reference():
    # the array-built window series and residue tables against the entry loop
    rng = np.random.default_rng(37)
    ram = ("p", "q", "r")
    s = random_s(ram + ("x",), 11, rng)     # label x is not a ramification point here
    s.update(random_s(("p",), 30, rng))     # modes beyond the window are left out
    curve = LocalSpectralCurve(ram=ram, bergman_reg=s)
    engine = _EoEngine(curve, 3, 10, extra_order=3)
    *refs, res = _loop_setup(engine, _symmetrized(s))
    for name, ref in zip(("loc_p", "loc_m", "b_pm"), refs):
        for q, lab in enumerate(ram):
            got = getattr(engine, name)[q]
            assert got.shape == ref[lab].shape, (name, lab)
            assert np.max(np.abs(got - ref[lab])) <= 1e-15 * np.max(np.abs(ref[lab])), (name, lab)
    assert engine.res_vec.shape == res.shape and np.array_equal(engine.res_vec, res)
    for q, lab in enumerate(ram):
        lp, lm = engine.loc_p[q], engine.loc_m[q]
        conv = np.array([[np.convolve(a, b) for b in lm] for a in lp])
        ref = np.einsum("abl,pl->pab", conv, res)
        assert np.max(np.abs(engine.res_tensor[q] - ref)) <= 1e-14 * np.max(np.abs(ref)), lab


def _per_point_setup(engine):
    """(res_vec, res_cols) and loc_p, loc_m, b_pm and res_tensor, one point at a time."""
    cur, lo, hi, nlen = engine.curve, engine.lo, engine.hi, engine.nlen
    npiv = (engine.kmax + 1) // 2
    big_k = hi + 1
    ks = np.arange(1, big_k + 1)
    flip = np.where(np.arange(lo, hi + 1) % 2, 1.0, -1.0)
    nr, top = len(engine.ram), len(cur.s) // len(engine.ram)
    cut = min(top, big_k)
    s = np.zeros((nr, big_k, nr, big_k), dtype=complex)
    s[:, :cut, :, :cut] = cur.s.reshape(nr, top, nr, top)[:, :cut, :, :cut]
    ii = np.arange(nlen)
    inv_d = LaurentSeries.monomial(4.0, 2).inverse()
    needed = -2 - 2 * lo
    exps = needed - 2 * np.arange(npiv)[:, None] - np.arange(2 * nlen - 1)
    low = int(exps.min())
    res = np.array([inv_d.get(x) for x in range(low, needed + 1)], dtype=complex)[exps - low]
    out = []
    for q in range(nr):
        lp = np.zeros((engine.dim, nlen), dtype=complex)
        lp[:, -lo:] = s[:, 0:engine.kmax:2, q].reshape(engine.dim, big_k) * ks
        lp[q * npiv + np.arange(npiv), -2 * np.arange(npiv) - 2 - lo] = 1.0
        lm = lp * flip
        terms = s[q, :, q] * ks[:, None] * ks * (-1.0) ** ks
        diag = np.zeros(2 * big_k - 1, dtype=complex)
        np.add.at(diag, (ks[:, None] + ks - 2).ravel(), terms.ravel())
        bpm = np.zeros(nlen, dtype=complex)
        bpm[-2 - lo] = -0.25
        bpm[-lo:] += diag[:big_k]
        out.append((lp, lm, bpm, lp @ res[:, ii[:, None] + ii] @ lm.T))
    return (res, np.array([np.flatnonzero(row)[0] for row in res])), out


def test_stacked_setup_matches_per_point_copy_bitwise():
    # the set-up stacked over the points gives, point by point, the bits of
    # the per-point set-up, and its residue tables those of 1 / (4 z^2)
    rng = np.random.default_rng(53)
    ram = ("p", "q", "r", "t")
    s = random_s(ram + ("x",), 11, rng)
    s.update(random_s(("p",), 30, rng))
    curve = LocalSpectralCurve(ram=ram, bergman_reg=s)
    for chi, extra in ((3, 3), (5, 0)):
        engine = _EoEngine(curve, chi, max_index_bound(chi), extra_order=extra)
        residues, points = _per_point_setup(engine)
        for name, want in zip(("res_vec", "res_cols"), residues):
            got = getattr(engine, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (chi, name)
        for q, ref in enumerate(points):
            for name, want in zip(("loc_p", "loc_m", "b_pm", "res_tensor"), ref):
                got = getattr(engine, name)[q]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (chi, name, q)


def test_stacked_residue_tensor_is_the_per_point_product_bitwise():
    # res_tensor, formed for all the points in one stacked product, holds at
    # each point the bits of that point's loc_p[q] @ H @ loc_m[q].T
    rng = np.random.default_rng(61)
    for ram, chi in ((("0",), 5), (("p", "q", "r", "t"), 3), (("0", "1", "2", "3"), 4)):
        curve = LocalSpectralCurve(ram=ram, bergman_reg=random_s(ram, 13, rng))
        engine = _EoEngine(curve, chi, max_index_bound(chi))
        hankel = engine._plan.window.hankel
        npiv = (engine.kmax + 1) // 2
        assert engine.res_tensor.shape == (len(ram), npiv, engine.dim, engine.dim)
        for q in range(len(ram)):
            ref = engine.loc_p[q] @ hankel @ engine.loc_m[q].T
            assert engine.res_tensor[q].tobytes() == ref.tobytes(), (ram, q)


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
    engine = _EoEngine(curve, 2, 9)
    window = engine.hi + 1
    assert window < 40
    short = {key: v for key, v in inside.items() if max(key[0][0], key[1][0]) <= window}
    ref = _EoEngine(LocalSpectralCurve(ram=ram, bergman_reg=short), 2, 9)
    for name in ("loc_p", "loc_m", "b_pm", "res_tensor"):
        for q, lab in enumerate(ram):
            assert np.array_equal(getattr(engine, name)[q], getattr(ref, name)[q]), (name, lab)


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

    with pytest.raises(ValueError, match="ram is empty"):
        LocalSpectralCurve(ram=())



def test_curve_refuses_modes_below_one():
    # k = 0 would take row k - 1 = -1, the last mode's, and k = -1 a row past
    # s; a k that is not an integer is no mode either.  The first pair with
    # such a mode is named, at any label
    for k, lab in ((0, "a"), (-1, "a"), (1.5, "a"), ("1", "a"), (0, "x")):
        pairs = {((1, "a"), (1, "a")): 0.2, ((k, lab), (1, "a")): 0.1, ((1, "a"), (k, lab)): 0.1}
        with pytest.raises(ValueError) as err:
            LocalSpectralCurve(ram=("a",), bergman_reg=pairs)
        assert str(err.value) == (f"bergman_reg pair (({k!r}, {lab!r}), (1, 'a')) has mode "
                                  f"k = {k!r}: a mode needs an integer k >= 1")
    curve = LocalSpectralCurve(ram=("a",), bergman_reg={((np.int64(1), "a"), (3, "a")): 0.1})
    assert curve.s[0, 2] == curve.s[2, 0] == 0.1


def test_eo_run_refuses_empty_windows():
    # no mode, or a residue window cut below the recursion's own, is refused
    # by name before any work
    for kwargs, text in ((dict(chi_max=0), "chi_max must be at least 1, got 0"),
                         (dict(kmax=0), "kmax must be at least 1, got 0"),
                         (dict(kmax=-2), "kmax must be at least 1, got -2"),
                         (dict(extra_order=-1), "extra_order must be at least 0, got -1"),
                         (dict(extra_order=-8), "extra_order must be at least 0, got -8")):
        with pytest.raises(ValueError) as err:
            eo_run(airy_point(), **{"chi_max": 2, **kwargs})
        assert str(err.value) == text


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
