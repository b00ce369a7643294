"""Local topological recursion on a collection of ramification points.

The spectral data is local: at each ramification point the involution is
``z -> -z``, the odd part of the one-form is ``D(z) dz`` (default ``4 z^2 dz``)
and the two-form is the normalized kernel whose regular part has coefficients
``s^{(k,a)(k',b)}`` in the standard coordinates.  The recursion produces the
coefficient tensors of the multi-differentials in the basis of normalized
principal-part differentials ("bergman" basis); evaluation anywhere on the
annuli is done on demand from those tensors.

The recursion kernel at a point with odd combination D(z) dz is

    K(p1, z) = - sum_{k odd} z^k  ebar^{k}(p1) / (D(z) dz),

which reduces to dz1 / (4 z (z^2 - z1^2) dz) for the bare quadratic disc.
Residue extraction happens on truncated Laurent windows; repeating it with a
larger window is the "formal extraction order" refinement check.

The nonzero entries of a cell omega_{g,n} lie on its degree-bounded
support: with d_i = (k_i - 1) / 2, the tuples with sum d_i <= 3g - 3 + n.
Every other entry vanishes exactly, because the pole orders of the lower
cells leave the residue nothing to pick up.  ``support`` lists these
tuples; the fill visits fewer.  A run fills every cell up to chi_max, or
the cells it is asked for and the lower ones they read (``fill_cells``):
a (0, n) cell reads only (0, m) cells with m < n.  The cells are filled one
level chi = 2g - 2 + n at a time: a level reads only lower ones, so every
cell and point of a level shares one product pass.  At a point, a cell's
entries whose pivot (first index) sits there are grouped by their other
legs, the rest: the series xi the residue is taken of depends on the rest only, so a
product of the rests' xi with the point's residue vectors gives every
pivot.  The rests of a level's cells and points, a job each, go in blocks
of whole jobs at points with one D, one residue pass a block: a matmul over
its rows and a stacked one over the rows of its one-row jobs, so each row
has the bits of its own job's matmul.  The splitting terms of xi come from
pairs of nonzero lower-cell factors (a lower cell with one argument at +-z
and the others on legs); the genus term from the entries of
omega_{g-1,n+1}, two of whose legs meet the residue.  So the rests are the
ones these reach: the merged legs of a pair, the other legs of an entry.
An entry with any other rest has xi = 0 and genus term 0, and is exactly 0.
Each reached rest takes the pivots at the point that its degree budget
allows and that sort first.  The factor tables hold the lower cells at +z;
the -z series is an exact sign per column, applied to the stacked second
factors.  Of each pair's product only the columns its rest's own pivots
read are formed: with the default D = 4 z^2 the pivot p reads one column,
so a rest that takes the pivots 0..top reads top + 1 columns.  They are
stacked BLAS dots, bitwise the columns ``np.convolve`` gives, and the
points whose residue vectors first read each column at the same pivot
share their stacks.  A column a rest does not read meets only exact zeros
of ``res_vec`` at its pivots, and each column it reads gets every add of
its pairs in their order, so the values keep their bits.  ``products``
counts the pairs, ``formed`` the (pair, column) products.  The factor
tables of a run lie end to end in one stack, so no level copies them.  The
genus term is contracted against the residue tensor C^p_{ab} stacked over
the points, the residue of ebar^a(z) ebar^b(-z) against z^{2p+1} / D(z):
one gather and one add per block, at the pivots each rest takes.

What a level enumerates (its pairs of factors, the rests they reach, the
genus-term entries and the pivots of each rest) depends on the curve's shape
alone (the number of points, D at each, the cells filled and the mode
window) and on which lower entries and factor rows are nonzero; the kernel
values enter only the numbers.  So every run of a shape either records a
level's plan as integer index arrays or replays the plan a run before it
recorded, and a replay forms the factor tables and gathers, multiplies, adds and
contracts as recorded, with no Python per pair, entry, job or point.  A level is
replayed only if the level below stored the keys it was recorded under and
the factor tables have the recorded nonzero rows; else it and every later
level are recorded afresh, so a sparser kernel (block-diagonal, zero) gets
the tables of a fresh run, and a shape's first run records them all.  Both
fill on the same plan, so their tables agree to the bit.  The plans, with
D's residue tables, sit in an LRU of ``_PLAN_SLOTS`` shapes; a 4-point
chi = 8 plan takes about 64 MB.

``compute_value`` evaluates one entry with any pivot from the same factors
and tensor, with the full convolution; it is the reference for the fill,
the pivot-symmetry check and the support check.
The cell order, the leg splits, the lower-cell lookups of ``compute_value``
and the pivot sampler are ``airy._CellRecursion``, shared with
``airy.atr_run``; the degree prune and the reach are this engine's alone.
``atr_run`` enumerates every tuple up to the index bound 6g + 2n - 4, so as
the oracle it rests on neither.  ``support_bound_check`` evaluates the
tuples beyond the degree bound, and those within it that the fill does not
reach, and reports the largest of each, which must be 0.
"""

from __future__ import annotations

import array
import bisect
import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .airy import (_CellRecursion, _splits, atr_run, default_index_bound, gauge_transform,
                   recursion_cells)
from .errors import OutOfAnnulus, TruncationInsufficient
from .laurent import LaurentSeries


@dataclass
class LocalSpectralCurve:
    """Ramification labels plus local one-form and kernel data.

    ``denom[label]`` is the series D with D(z) dz the odd combination of the
    one-form; it must have only even exponents, a double zero at the origin
    and a nonzero z^2 coefficient.  ``bergman_reg`` maps mode pairs to the
    regular-part coefficients s^{(k,a)(k',b)} of the two-form, each pair in
    one or both orders, which must agree, every k an integer k >= 1.  It
    enters the recursion once, as the symmetric matrix ``s`` over ``ram`` x
    k = 1..K, K the largest k at a label of ``ram``: row (a, k) is
    ``ram.index(a) * K + k - 1``.  Pairs at other labels are dropped; of a
    pair in both orders the later one counts.
    """

    ram: tuple
    denom: dict = field(default_factory=dict)
    bergman_reg: dict = field(default_factory=dict)
    s: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.ram = tuple(self.ram)
        if not self.ram:
            raise ValueError("ram is empty: a local curve needs at least one ramification point")
        self.denom = dict(self.denom)
        for lab in self.ram:
            d = self.denom.get(lab)
            if d is None:
                self.denom[lab] = LaurentSeries.monomial(4.0, 2)
                continue
            odd = d.parity_split()[0]
            if not odd.is_zero():
                raise ValueError(
                    f"denom at {lab!r} is not even: odd part from z^{odd.order()}, "
                    f"max |coefficient| {odd.max_abs():.3e}")
            if d.order() != 2:
                raise ValueError(
                    f"denom at {lab!r} needs a double zero with nonzero z^2 coefficient: "
                    f"lowest exponent {d.order()}, z^2 coefficient {d.get(2)}")
        self.s = self._kernel_matrix()

    def _kernel_matrix(self):
        """``s`` from ``bergman_reg``, after the symmetry gate on every pair."""
        reg = self.bergman_reg
        pos = {lab: q for q, lab in enumerate(self.ram)}
        ids = _Numbering()      # each distinct mode by the order it is first met
        legs = np.fromiter(map(ids.__getitem__, itertools.chain.from_iterable(reg)), np.intp,
                           2 * len(reg)).reshape(-1, 2)
        modes = list(ids)
        bad = np.array([not isinstance(k, (int, np.integer)) or k < 1 for k, _ in modes], bool)
        if bad.any():
            first = bad[legs].any(axis=1).argmax()
            m1, m2 = modes[legs[first, 0]], modes[legs[first, 1]]
            raise ValueError(f"bergman_reg pair ({m1}, {m2}) has mode k = "
                             f"{(m2 if bad[legs[first]].argmax() else m1)[0]!r}: "
                             "a mode needs an integer k >= 1")
        top = max((k for k, lab in modes if lab in pos), default=0)
        dim = len(self.ram) * top
        other = itertools.count(dim)        # rows past s: the modes at other labels
        row = np.array([pos[lab] * top + k - 1 if lab in pos else next(other)
                        for k, lab in modes], dtype=np.intp)
        a, b = row[legs].T if len(reg) else (np.empty(0, np.intp),) * 2
        given = np.zeros((next(other),) * 2, dtype=complex)
        rank = np.full(given.shape, -1)     # dict position of each given pair
        given[a, b], rank[a, b] = np.fromiter(reg.values(), complex, len(reg)), np.arange(len(reg))
        both = (rank >= 0) & (rank.T >= 0)
        bad = both & (abs(given.T - given) > 1e-12 * np.maximum(1.0, abs(given)))
        if bad.any():
            m1, m2 = list(reg)[rank[bad].min()]
            v, back = reg[(m1, m2)], reg[(m2, m1)]
            raise ValueError(
                f"bergman_reg is not symmetric at ({m1}, {m2}): {v} against {back}, "
                f"|delta| = {abs(back - v):.3e}, gate {1e-12 * max(1.0, abs(v)):.3e}")
        # of a pair in both orders the later one counts
        return np.where(rank >= rank.T, given, given.T)[:dim, :dim]

    def block(self, a, b):
        """The K x K block of ``s`` with rows at the point ``a`` and columns at ``b``."""
        k = len(self.s) // len(self.ram)
        qa, qb = self.ram.index(a), self.ram.index(b)
        return self.s[qa * k:(qa + 1) * k, qb * k:(qb + 1) * k]


class _Numbering(dict):
    """A dict that numbers each key by the order it is first looked up."""

    def __missing__(self, key):
        self[key] = len(self)
        return self[key]


class OmegaGN:
    """Recursion output: bergman-basis tensors and the engine that filled them."""

    annulus = (5e-4, 0.8)         # |z| range where local evaluation is trusted

    def __init__(self, table, curve, engine):
        self.table = table
        self.curve = curve
        self.engine = engine

    def value(self, g, n, idx_modes):
        return self.table.value(g, n, idx_modes)

    def cells(self):
        return self.table.cells()

    def ebar_value(self, mode, label, z):
        """Numeric value of ebar^{mode} / dz at a point of the chart ``label``."""
        k, blab = mode
        val = z ** (-k - 1) if blab == label else 0j
        block = self.curve.block(blab, label)
        if k <= len(block):
            ks = np.arange(1, len(block) + 1)
            val += block[k - 1] @ (ks * z ** (ks - 1))
        return val

    def _check_annulus(self, z):
        lo, hi = self.annulus
        if not (lo <= abs(z) <= hi):
            raise OutOfAnnulus(f"|z| = {abs(z):.3g} outside trusted annulus [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# recursion engine
# ---------------------------------------------------------------------------

class _FactorRows(NamedTuple):
    """The rows of a lower cell's factor table, as integers.

    Row r is omega_{g,n}(+z, legs[r]) over the window.  Its coefficients
    against the free index come from the cell's stored values: ``vec[at[0],
    at[1]] = values[src]``.  ``nonzero[q, r]`` says whether the row's series
    at the point q is nonzero.
    """

    legs: np.ndarray
    at: np.ndarray
    src: np.ndarray
    nonzero: np.ndarray


class _Block(NamedTuple):
    """One residue pass: the rows ``start:stop`` of a column group's part, whole jobs.

    Its jobs sit at points with one D, that of the point ``q``.  In rows of
    the block, ``ones`` is None or the rows of its one-row jobs, and ``b11``
    None or the (rows, points) of its (1, 1) jobs, whose xi adds B(z, -z).
    ``genus`` is None or the (add, take, q, a, b, src, cross) arrays of the
    genus-term entries, in job order and each job's entry order: ``add``
    holds row * npiv + p of each entry at each pivot p its row takes, and
    ``take`` where that term sits among the entries' terms at every pivot,
    entry * npiv + p; src indexes the stored values of the level below
    stacked in cell order, and ``cross`` lists the entries with a != b.
    ``out`` is the flat gather row * npiv + p of each entry the jobs
    evaluate, in job and tuple order.
    """

    start: int
    stop: int
    q: int
    ones: np.ndarray
    b11: tuple
    genus: tuple
    out: np.ndarray


class _Keys(NamedTuple):
    """A recorded level's entries: where they sit, their keys, and the dict keys last stored.

    ``gather`` indexes the level's evaluated entries (the blocks' ``out`` laid
    end to end) in key order: cell after cell, each cell's tuples sorted.
    ``counts`` holds each cell's entries, ``keys`` their tuples end to end in
    one integer array, ``stored`` the mask of those stored (nonzero) when the
    level was last filled, ``tuples`` their keys as tuples, a list per cell.
    """

    gather: np.ndarray
    counts: list
    keys: np.ndarray
    stored: np.ndarray
    tuples: list


class _Group(NamedTuple):
    """A column group's share of a level: its pairs, the products they form, its residue passes.

    ``pairs`` is (2, P): the first and the second factor's row in the run's
    stack of factor tables.  Each pair adds its product to a row of the
    group's part, a number of times; the pairs go by the largest pivot of
    that row, largest first, and keep their order otherwise, so each row
    gets its pairs in the order they were found.  ``forms`` holds, for each
    ``_STACK`` pairs in turn, (counts, rep, add): ``counts[c]`` of its
    leading pairs have a row that reads the column c of the group's columns
    (``_forms``), ``rep`` is None or how many times each formed product
    adds, and ``add`` the flat index row * columns + c of each add, column
    after column, in pair order.  ``formed`` counts the products formed,
    ``rows`` the part's rows, and the ``_Block`` list splits them into
    residue passes of whole jobs.  A job is one cell at one point: its rows
    are its rests.
    """

    pairs: np.ndarray
    forms: tuple
    formed: int
    rows: int
    blocks: list


class _Level(NamedTuple):
    """The integer plan of one level: what its lower cells' key pattern decides.

    ``lower`` is the mask of the planned entries of the level below that
    were stored (nonzero) when the level was recorded, ``factors`` maps each
    cell of the level below to its factor table's rows (their nonzero masks
    as recorded).  ``groups`` holds a ``_Group`` per column group.  ``keys``
    is the level's ``_Keys``.
    """

    lower: np.ndarray
    factors: dict
    groups: tuple
    keys: _Keys


class _Plan:
    """What the recursions on one curve shape share: D's residue tables, each level's plan.

    ``residues`` is (res_vec, res_cols, the Hankel gather stacked over the
    points, column groups), formed by the first engine of the shape;
    ``levels`` holds the ``_Level`` of each chi as the last run recorded or
    filled it.  No value of the kernel data s enters any of them.
    """

    def __init__(self):
        self.residues = None
        self.levels = []


# recursion plans kept, least recently used first out: one per curve shape
_PLAN_SLOTS = 4


@functools.lru_cache(maxsize=_PLAN_SLOTS)
def _plan(shape):
    """The ``_Plan`` of a curve shape: (points, D key per point, cells filled, kmax, extra_order)."""
    return _Plan()


def _reads(g, n):
    """The cells the fill of omega_{g,n} reads: its splitting factors and its genus-term cell.

    (0, 2) is the kernel, no cell; so is the genus-term cell of (1, 1).
    """
    got = {cell for factors in _factor_cells(g, n) for cell in (factors[:2], factors[2:])}
    if g >= 1 and (g, n) != (1, 1):
        got.add((g - 1, n + 1))
    got.discard((0, 2))
    return got


def fill_cells(chi_max, cells=None):
    """The cells a run fills, in the order of ``recursion_cells``: ``cells`` and all they read.

    Every cell with 2g - 2 + n <= chi_max when ``cells`` is None; else the
    (g, n) of ``cells``, each with 1 <= 2g - 2 + n <= chi_max, and every
    cell they read.
    """
    return _closure(chi_max, None if cells is None else tuple(map(tuple, cells)))


@functools.cache
def _closure(chi_max, cells):
    """``fill_cells`` for a tuple ``cells``, once per key.

    A cell reads only cells of smaller chi, so one pass down the recursion
    order closes the set.
    """
    every = recursion_cells(chi_max)
    if cells is None:
        return tuple(every)
    if not cells:
        raise ValueError("cells is empty: name at least one cell (g, n)")
    wanted = set(cells)
    unknown = sorted(wanted.difference(every))
    if unknown:
        raise ValueError(f"cell {unknown[0]} is not a cell (g, n) with "
                         f"1 <= 2g - 2 + n <= {chi_max}")
    for cell in reversed(every):
        if cell in wanted:
            wanted |= _reads(*cell)
    return tuple(cell for cell in every if cell in wanted)


def fill_bound(chi_max, cells=None):
    """The largest index bound 6g + 2n - 4 of the cells ``fill_cells`` gives: eo_run's kmax."""
    return max(default_index_bound(g, n) for g, n in fill_cells(chi_max, cells))


def _denom_key(d):
    """A one-form series D by its window, exponents and coefficient bits."""
    terms = d.coeffs
    return d.min_exp, d.trunc_order, tuple(terms), np.array(list(terms.values())).tobytes()


class _EoEngine(_CellRecursion):
    """Local recursion: residues at each point, filled a whole level at a time."""

    def __init__(self, curve, chi_max, kmax, extra_order=0, cells=None):
        # mode list restricted to odd indices (the output lives in the odd part)
        modes = [(k, lab) for lab in curve.ram for k in range(1, kmax + 1, 2)]
        super().__init__(modes, curve.ram, kmax, chi_max, 2, "bergman")
        self.cells = fill_cells(chi_max, cells)     # the cells run() fills, in its order
        for g, n in self.cells:
            self.index_bound(g, n)      # a kmax below a cell's bound is refused here, once
        self.curve = curve
        self.lo = -(kmax + 3)
        self.hi = kmax + 5 + extra_order
        self.nlen = self.hi - self.lo + 1
        self.degree = [(k - 1) // 2 for k, _ in self.modes]
        self.products = 0               # split-term pairs whose product was formed
        self.formed = 0                 # (pair, column) products formed: the columns rows read
        self.replayed = 0               # levels filled on a plan a run before this one recorded
        self._factor_cache = {}
        self._values = {}               # stored values of each cell, in its key order
        self._key_type = np.min_scalar_type(-self.dim)
        dkeys = tuple(_denom_key(curve.denom[lab]) for lab in self.ram)
        self._plan = _plan((len(self.ram), dkeys, self.cells, kmax, extra_order))
        self._setup(dkeys)

    def _setup(self, dkeys):
        """Window series of the kernel data at every point, and their residue tables.

        One stack over the points, axis 0 the position q of the point in
        ``ram``.  Over the exponent window [lo, hi]: row j of ``loc_p[q]`` is
        ebar^{j}(z) / dz at the point, row j of ``loc_m[q]`` the same form at
        -z, ``b_pm[q]`` is B(z, -z) / dz^2.  Row p of ``res_vec[q]`` dotted
        with a product series (exponents from 2 lo) is its residue against
        z^{2p+1} / D(z), ``res_cols[q]`` lists the columns it reads, and
        ``res_tensor[q, p, a, b]`` is that residue of loc_p[q, a] * loc_m[q, b].
        1/D, ``res_vec``, ``res_cols`` and the Hankel gather of ``res_vec``
        depend on D alone: the plan keeps them (``_residues``), one set per
        distinct D shared by the points that have it; ``_d_point[q]`` is the
        first point with the D of q.
        """
        cur = self.curve
        lo, nlen = self.lo, self.nlen
        npiv = (self.kmax + 1) // 2
        big_k = self.hi + 1             # largest k with z^{k-1} in the window
        ks = np.arange(1, big_k + 1)
        e = np.arange(lo, self.hi + 1)
        # form at -z against dz: (-z)^e d(-z) = -(-1)^e z^e dz
        self._flip = np.where(e % 2, 1.0, -1.0)
        # s[a, k - 1, b, k' - 1] over the window's modes, cut or zero-padded
        nr, top = len(self.ram), len(cur.s) // len(self.ram)
        cut = min(top, big_k)
        s = np.zeros((nr, big_k, nr, big_k), dtype=complex)
        s[:, :cut, :, :cut] = cur.s.reshape(nr, top, nr, top)[:, :cut, :, :cut]
        qs, p = np.arange(nr), np.arange(npiv)
        self.loc_p = np.zeros((nr, self.dim, nlen), dtype=complex)
        odd = s[:, 0:self.kmax:2].reshape(self.dim, nr, big_k)      # rows (a, k) at each point
        self.loc_p[:, :, -lo:] = odd.swapaxes(0, 1) * ks
        # principal parts: ebar^{k} at its own point has z^{-k-1}, k = 2p + 1
        self.loc_p[qs[:, None], qs[:, None] * npiv + p, -2 * p - 2 - lo] = 1.0
        self.loc_m = self.loc_p * self._flip
        # two-form with both arguments local: B(z, -z) / dz^2, summed along
        # the anti-diagonals k + k' - 2 = exponent
        terms = s[qs, :, qs] * ks[:, None] * ks * (-1.0) ** ks
        diag = np.zeros((nr, 2 * big_k - 1), dtype=complex)
        np.add.at(diag, (qs[:, None], (ks[:, None] + ks - 2).ravel()), terms.reshape(nr, -1))
        self.b_pm = np.zeros((nr, nlen), dtype=complex)
        self.b_pm[:, -2 - lo] = -0.25
        self.b_pm[:, -lo:] += diag[:, :big_k]
        if self._plan.residues is None:
            self._plan.residues = self._residues(dkeys)
        self.res_vec, self.res_cols, hankel, self._col_groups = self._plan.residues
        self._d_point = [next(r for r in range(nr) if self.res_vec[r] is res)
                         for res in self.res_vec]
        # C[q, p, a, b] = loc_p[q, a] . H_p[q] . loc_m[q, b]
        self.res_tensor = self.loc_p[:, None] @ hankel @ self.loc_m[:, None].swapaxes(-1, -2)

    def _residues(self, dkeys):
        """(res_vec, res_cols) per point, the Hankel gather stacked over them, the column groups.

        Each is formed once per distinct D; ``_col_groups`` lists (res_cols,
        points, reads) per distinct first pivot reading each column of the
        window (``_first_pivots``), which fixes the columns too: ``reads``
        holds it at the columns res_cols.
        """
        lo, nlen = self.lo, self.nlen
        p = np.arange((self.kmax + 1) // 2)
        # residue of z^{2 lo + l} against z^{k1} / D(z): the coefficient of
        # z^{-1 - k1 - 2 lo - l} of 1 / D
        needed = -1 - 1 - 2 * lo
        exps = needed - 2 * p[:, None] - np.arange(2 * nlen - 1)
        low = int(exps.min())
        ii = np.arange(nlen)
        shared, groups = {}, {}
        for q, (lab, key) in enumerate(zip(self.ram, dkeys)):
            if key not in shared:
                inv_d = self.curve.denom[lab].inverse()
                if inv_d.trunc_order < needed:
                    raise TruncationInsufficient(
                        f"denom at {lab!r} truncated below order {needed + 4}")
                coef = np.array([inv_d.get(x) for x in range(low, needed + 1)], dtype=complex)
                res = coef[exps - low]
                first = _first_pivots(res)
                cols = np.flatnonzero(first < len(res))
                # H_p[i, j] = res[p, i + j]
                shared[key] = res, cols, res[:, ii[:, None] + ii], first
            res, cols, _, first = shared[key]
            groups.setdefault(first.tobytes(), (cols, [], first[cols]))[1].append(q)
        res_vec, res_cols, hankel, _ = zip(*(shared[key] for key in dkeys))
        return list(res_vec), list(res_cols), np.stack(hankel), list(groups.values())

    # building blocks ---------------------------------------------------------

    def _fit(self, g, n, rest):
        """Modes within the degree budget 3g - 3 + n that ``rest`` leaves in omega_{g,n}."""
        budget = 3 * g - 3 + n - sum(self.degree[j] for j in rest)
        return [j for j in range(self.dim) if self.degree[j] <= budget]

    def _f_leg(self, mode, lab):
        """Series of the two-form with one local argument at +z against leg ``mode``.

        None when the leg sits at another point or beyond the window.
        """
        k, blab = mode
        if blab != lab or k - 1 > self.hi:
            return None
        arr = np.zeros(self.nlen, dtype=complex)
        arr[k - 1 - self.lo] = k
        return arr

    def _cell_values(self, g, n):
        """The stored values of omega_{g,n}, in its key order."""
        vals = self._values.get((g, n))
        if vals is None:
            entries = self.table.entries[(g, n)]
            vals = self._values[(g, n)] = np.fromiter(entries.values(), complex, len(entries))
        return vals

    def _factor_table(self, g, n, rows=None, place=False):
        """(rows, table): omega_{g,n}(+z, legs) at every point over the window.

        ``table`` is flat, row q * R + r the series at the point q of row r of
        ``rows`` (``_FactorRows``, R rows); with ``place`` it is formed in the
        run's stack of factor tables (``_place``).  The legs and the scatter
        come from ``rows`` (a plan's) or, when it is None, from the cell's
        keys; the nonzero masks are the table's, and ``rows`` comes back
        unchanged only if they are the ones it holds.  For (0, 2) row j is the
        two-form against the leg j at the leg's point (``_f_leg``).  The series
        at -z is the one at +z times ``_flip``, an exact sign per column,
        formed only where it is read.  Built from the keys, it also indexes its
        rows by legs for ``_factor_rows``.
        """
        nr, dim = len(self.ram), self.dim
        if (g, n) == (0, 2):
            rows = _FactorRows(np.arange(dim)[:, None], None, None, None)
            legs = [(j,) for j in range(dim)]
        else:
            legs = None
            if rows is None:
                # row r: the entries of omega_{g,n} at (j, legs[r]) over the free index j
                legs, at, src = {}, [], []
                for e, idx in enumerate(self.table.entries[(g, n)]):
                    for p in range(n):
                        if p == 0 or idx[p] != idx[p - 1]:
                            at += (legs.setdefault(idx[:p] + idx[p + 1:], len(legs)), idx[p])
                            src.append(e)
                legs = list(legs)
                flat = np.fromiter(itertools.chain.from_iterable(legs), self._key_type,
                                   len(legs) * (n - 1))
                rows = _FactorRows(flat.reshape(len(legs), n - 1),
                                   np.array(at, dtype=np.int32).reshape(-1, 2).T,
                                   np.array(src, dtype=np.int32), None)
        shape = (nr, len(rows.legs), self.nlen)
        if place:
            table = self._place((g, n), nr * shape[1]).reshape(shape)
        else:
            table = np.empty(shape, dtype=complex)
        if (g, n) == (0, 2):
            ks = np.array([k for k, _ in self.modes])
            qs = np.arange(dim) // (dim // nr)      # the point of each mode
            table[...] = 0
            table[qs, np.arange(dim), ks - 1 - self.lo] = ks
        else:
            vec = np.zeros((len(rows.legs), dim), dtype=complex)
            vec[rows.at[0], rows.at[1]] = self._cell_values(g, n)[rows.src]
            np.matmul(vec, self.loc_p, out=table)
        nonzero = table.any(axis=2)
        if not _same(nonzero, rows.nonzero):
            rows = rows._replace(nonzero=nonzero)
        if legs is not None:
            self._index_rows(g, n, legs, nonzero)
        return rows, table.reshape(-1, self.nlen)

    def _place(self, cell, count):
        """``count`` rows at the end of the run's stack of factor tables, for the table of ``cell``.

        The tables of a run are laid end to end in the order they are formed,
        so a cell's offset is the same at every level, and a level's products
        index the stack with no copy of it.  A full stack moves to one twice
        its size, and the cached tables with it; pages not yet written take
        no memory.
        """
        used = self._used
        if used + count > len(self._stack):
            grown = np.empty((max(2 * len(self._stack), used + count), self.nlen), dtype=complex)
            grown[:used] = self._stack[:used]
            self._stack = grown
            for done, start in self._offsets.items():
                rows, table = self._factor_cache[done]
                self._factor_cache[done] = rows, grown[start:start + len(table)]
        self._offsets[cell] = used
        self._used = used + count
        return self._stack[used:used + count]

    def _factors(self, g, n):
        """The ``_factor_table`` of omega_{g,n}, formed from its keys the first time it is read."""
        got = self._factor_cache.get((g, n))
        if got is None:
            got = self._factor_cache[(g, n)] = self._factor_table(g, n)
        return got

    def _factor_rows(self, g, n, q):
        """Rows of omega_{g,n}'s factor table nonzero at the point q, by legs, in increasing degree.

        The dict maps legs to the row in the flat table; the list holds the
        rows' degree sums (``_index_rows``).
        """
        got = self._factor_cache.get((g, n, q))
        if got is None:
            rows, _ = self._factors(g, n)
            if (g, n, q) not in self._factor_cache:     # the table's rows came from a plan
                self._index_rows(g, n, list(map(tuple, rows.legs.tolist())), rows.nonzero)
            got = self._factor_cache[g, n, q]
        return got

    def _index_rows(self, g, n, legs, nonzero):
        """``_factor_rows`` of omega_{g,n} at every point, from its rows' legs and nonzero masks."""
        deg = [sum(map(self.degree.__getitem__, leg)) for leg in legs]
        order = sorted(range(len(legs)), key=deg.__getitem__)
        for q, mask in enumerate(nonzero.tolist()):
            kept = [r for r in order if mask[r]]
            self._factor_cache[g, n, q] = ({legs[r]: q * len(legs) + r for r in kept},
                                           [deg[r] for r in kept])

    def _factor(self, g, n, legs, q, minus):
        """Series of omega_{g,n}(q(+-z), legs) over the window, or None if it is 0."""
        r = self._factor_rows(g, n, q)[0].get(tuple(sorted(legs)))
        if r is None:
            return None
        f = self._factors(g, n)[1][r]
        return f * self._flip if minus else f

    # the level fill ----------------------------------------------------------

    def run(self):
        """Fill the cells one level chi = 2g - 2 + n at a time, by increasing chi.

        A level's cells read only lower levels: every splitting factor and
        the genus-term cell (g - 1, n + 1) have a smaller chi.  So all the
        cells and points of a level share one product pass (``_fill``).  The
        factor tables of the run go into one stack as the cells are first
        read (``_place``).  A level is filled on the plan a run before this
        one recorded for it when the level below stored the keys it was
        recorded under and its factor tables have the recorded nonzero rows;
        else this run records the plan of that level and of every later one
        (``_record``) and fills on it.  So a shape's first run records them
        all, and the runs after it replay them.
        """
        levels = self._plan.levels
        # the level below: its cells, which planned entries it stored, their values
        below, stored, values = [], np.zeros(0, dtype=bool), None
        start = max(1, _STACK_START_BYTES // (16 * self.nlen))
        self._stack, self._used, self._offsets = np.empty((start, self.nlen), dtype=complex), 0, {}
        self._factor_cache[(0, 2)] = self._factor_table(0, 2, place=True)
        replay = True
        chis = itertools.groupby(self.cells, lambda c: 2 * c[0] - 2 + c[1])
        for i, (_, cells) in enumerate(chis):
            cells = list(cells)
            level = levels[i] if replay and i < len(levels) else None
            replay = level is not None and _same(stored, level.lower)
            # the level below is first read here, as factors
            for cell in below:
                rows = level.factors[cell] if replay else None
                self._factor_cache[cell] = self._factor_table(*cell, rows, place=True)
                replay = replay and self._factor_cache[cell][0] is rows
            if replay:
                self.replayed += 1
            else:
                level = self._record(cells, below, stored)
            stored, values, keys = self._fill(cells, level, values)
            if keys is not level.keys:
                levels[i:i + 1] = [level._replace(keys=keys)]
            below = cells
            for g, n in cells:
                self.table.bounds[(g, n)] = default_index_bound(g, n)
            self._cell_cache.clear()
        self._stack = None          # the cached tables hold it until they are freed
        return self.table

    def _fill(self, cells, level, lower):
        """Fill a level's cells on its plan; return which planned entries they stored, the
        values stored and the level's ``_Keys`` as filled.

        A job is one cell at one point q: its entries whose pivot sits at q,
        grouped by their other legs, the rest.  A job's rows are its rests,
        one xi series each.  The jobs whose points read the same columns
        share their splitting terms (``_split_part``), whose factors are rows
        of the run's stack of factor tables; each block of whole jobs then
        takes one residue pass (``_block_values``), which gives every pivot
        of every row, and gathers its entries.  One gather puts the level's
        entries in key order, cell after cell, each cell's sorted, the order
        of ``support``; the nonzero ones are stored.  ``lower`` holds the
        values the level below stored, cell after cell, which the genus
        terms read.
        """
        stack = self._stack[:self._used]
        found = []          # the entries of each block
        for (cols, _, _), group in zip(self._col_groups, level.groups):
            part = self._split_part(group, cols, stack)
            for block in group.blocks:
                found.append(self._block_values(block, part, cols, lower).reshape(-1)[block.out])
            self.products += group.pairs.shape[1]
            self.formed += group.formed
        plan = level.keys
        vals = (np.concatenate(found) if found else np.empty(0, dtype=complex))[plan.gather]
        self.evaluated += len(vals)
        stored = vals != 0
        if not _same(stored, plan.stored):
            plan = plan._replace(stored=stored, tuples=_stored_tuples(cells, plan, stored))
        vals = vals[stored]
        start = 0
        for cell, keys in zip(cells, plan.tuples):
            cell_vals = self._values[cell] = vals[start:start + len(keys)]
            self.table.entries[cell] = dict(zip(keys, cell_vals))
            start += len(keys)
        return stored, vals, plan

    def _split_part(self, group, cols, stack):
        """Columns ``cols`` of the splitting terms of a column group's rows, a ``_Group``.

        Each pair of nonzero lower-cell factors adds its product to the rest
        their merged legs make, once per leg-position subset that gives the
        pair.  Of the columns ``cols`` a pair forms only those its row reads:
        the columns that some pivot its rest takes reads.  Each is bitwise
        ``np.convolve``'s (``_product_columns``), for up to ``_STACK`` pairs
        at a time across the jobs, the second factors flipped to -z as a
        stack.  The adds go one per subset in pair order, as in
        ``compute_value``: a single add of the multiple would round
        differently.  They go to the flat part at the plan's indices, column
        after column: each read entry gets every add of its row's pairs, in
        their order.  An unread entry stays 0, and it meets only exact zeros
        of ``res_vec`` at the pivots its row takes, so every value the level
        keeps has the bits of a part with every column formed.
        """
        part = np.zeros((group.rows, len(cols)), dtype=complex)
        first, second = group.pairs[:2]
        flip = self._flip[::-1].copy()      # a reversed view would take a slow buffered loop
        for start, (counts, rep, add) in zip(itertools.count(0, _STACK), group.forms):
            flipped = stack[second[start:start + _STACK]][:, ::-1] * flip
            terms = _product_columns(stack[first[start:start + _STACK]], flipped, cols, counts)
            np.add.at(part.reshape(-1), add, terms if rep is None else terms.repeat(rep))
        return part

    def _block_values(self, block, part, cols, lower):
        """-(xi @ res_vec[q].T) less the genus terms, for every row of a ``_Block``.

        A row's xi holds its part's columns ``cols`` and, for (1, 1), B(z, -z)
        too.  One matmul takes every row; a one-row job's matmul is not a row
        of a larger one, bitwise, so one stacked (J, 1, W) matmul takes those
        rows again, each with the bits of its job's own.  A block of one job
        with more rows than ``_BLOCK_BYTES`` of xi takes its matmul in slices
        of rows, none of one row, so its xi is never formed whole.  The genus
        terms of all the jobs are one gather from ``res_tensor`` and one flat
        add: an entry of omega_{g-1,n+1} at (a, b, rest), whose value is
        ``lower[src]``, adds that value times C[q, p, a, b] + C[q, p, b, a]
        (once for a = b) to its row at every pivot p the row takes; the
        others are not gathered.  Jobs have rows of their own, so each row
        gets its adds in its job's entry order.
        """
        start, stop, q, ones, b11, genus, _ = block
        res = self.res_vec[q].T
        width = 2 * self.nlen - 1
        vals = np.empty((stop - start, res.shape[1]), dtype=complex)
        # a block larger than a pass is one job, whose rows go in slices of two or more
        cuts = list(range(0, stop - start, max(2, _block_rows(width)))) + [stop - start]
        if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
            del cuts[-2]
        for lo, hi in itertools.pairwise(cuts):
            xi = np.zeros((hi - lo, width), dtype=complex)
            xi[:, cols] = part[start + lo:start + hi]
            if b11 is not None:
                rows, qs = b11
                xi[rows, -self.lo:-self.lo + self.nlen] += self.b_pm[qs]
            np.matmul(xi, res, out=vals[lo:hi])
            if ones is not None:
                vals[ones] = (xi[ones, None] @ res)[:, 0]
        np.negative(vals, out=vals)
        if genus is not None:
            add, take, qs, a, b, src, cross = genus
            c = self.res_tensor
            terms = c[qs, :, a, b]
            terms[cross] += c[qs[cross], :, b[cross], a[cross]]
            terms *= lower[src, None]
            adds = np.zeros_like(vals)
            np.add.at(adds.reshape(-1), add, terms.reshape(-1)[take])
            vals -= adds
        return vals

    # the plan ------------------------------------------------------------------

    def _record(self, cells, below, stored):
        """The ``_Level`` of ``cells`` under the keys ``stored`` of the level ``below``."""
        sizes = [len(self._cell_values(*cell)) for cell in below]
        lower = dict(zip(below, itertools.accumulate(sizes, initial=0)))
        groups, spans, keys = [], {}, {}
        done = 0            # the entries the jobs before evaluate, in the fill's order
        for _, points, reads in self._col_groups:
            # the jobs at the points of one D one after another: a block has one D
            jobs = [(g, n, q) for d in dict.fromkeys(self._d_point[q] for q in points)
                    for g, n in cells for q in points if self._d_point[q] == d]
            pairs, planned, flat, got, tops = self._record_jobs(jobs, self._offsets)
            groups.append(_Group(*self._forms(pairs, tops, reads),
                                 *self._blocks(planned, flat, tops, lower)))
            for job, job_keys in zip(planned, got):
                spans[job[:3]], keys[job[:3]] = range(done, done + job[5]), job_keys
                done += job[5]
        # in key order: cell after cell, and in a cell by point
        jobs = [(g, n, q) for g, n in cells for q in range(len(self.ram))]
        gather = np.fromiter(itertools.chain.from_iterable(map(spans.get, jobs)), np.int32, done)
        counts = [sum(len(spans[g, n, q]) for q in range(len(self.ram))) for g, n in cells]
        return _Level(stored, {cell: self._factor_cache[cell][0] for cell in below},
                      tuple(groups),
                      _Keys(gather, counts, np.concatenate(list(map(keys.get, jobs))), None, None))

    @staticmethod
    def _forms(pairs, tops, reads):
        """(pairs, forms, formed) of a ``_Group`` from ``_record_jobs``'s (4, P) pairs.

        ``tops`` holds the largest pivot of each row of the group's part,
        ``reads[c]`` the smallest pivot that reads the group's column c: a row
        reads the columns whose ``reads`` is at most its top.  With the pairs
        of the rows that read the most first, the pairs that form a column are
        the leading ones of each ``_STACK``.  A row's pairs share its top, so
        a stable sort keeps them in the order they were found.
        """
        pairs = pairs[:, np.argsort(-tops[pairs[2]], kind="stable")]
        _, _, at, ways = pairs
        top, most = tops[at], ways.max(initial=1)
        width = np.arange(len(reads), dtype=np.int32)[:, None]
        forms, formed = [], 0
        for start in range(0, len(top), _STACK):
            read = top[start:start + _STACK] >= reads[:, None]     # column by pair
            add = (at[start:start + _STACK] * len(reads) + width)[read]
            rep = None
            if most > 1:
                rep = (ways[start:start + _STACK] * read)[read].astype(np.min_scalar_type(most))
                add = add.repeat(rep)
            forms.append((read.sum(axis=1), rep, add))
            formed += int(read.sum())
        return pairs[:2].copy(), tuple(forms), formed

    def _blocks(self, jobs, flat, tops, lower):
        """(rows, blocks): a column group's rows and its residue passes, a ``_Block`` each.

        ``jobs``, ``flat`` and ``tops`` come as ``_record_jobs`` gives them,
        the jobs' rows one after another.  A block takes whole jobs in order, at points
        with one D: as many as keep its xi within ``_BLOCK_BYTES``, or one.
        ``lower`` maps each cell of the level below to the offset of its
        stored values in their stack.
        """
        npiv = (self.kmax + 1) // 2
        most = _block_rows(2 * self.nlen - 1)
        chunks, width, d = [], most, None
        for job in jobs:
            if not job[3]:
                continue        # no rests: nothing to evaluate
            if width + job[3] > most or self._d_point[job[2]] != d:
                chunks.append([])
                width, d = 0, self._d_point[job[2]]
            chunks[-1].append(job)
            width += job[3]
        blocks, start, done = [], 0, 0
        for chunk in chunks:
            firsts = list(itertools.accumulate((job[3] for job in chunk), initial=0))
            ones = [first for job, first in zip(chunk, firsts) if job[3] == 1]
            b11 = [(first, job[2]) for job, first in zip(chunk, firsts) if job[:2] == (1, 1)]
            count = sum(job[5] for job in chunk)
            blocks.append(_Block(start, start + firsts[-1], chunk[0][2],
                                 np.array(ones) if ones else None,
                                 tuple(map(np.array, zip(*b11))) if b11 else None,
                                 self._block_genus(chunk, firsts, lower,
                                                   tops[start:start + firsts[-1]]),
                                 flat[done:done + count] - start * npiv))
            start += firsts[-1]
            done += count
        return start, blocks

    def _block_genus(self, jobs, firsts, lower, tops):
        """The (add, take, q, a, b, src, cross) arrays of the genus-term entries of a block's
        ``jobs``, or None.

        ``firsts`` holds each job's first row in the block, ``lower`` the
        offset of each lower cell's stored values in their stack, ``tops``
        the largest pivot of each row of the block.  An entry adds to its row
        at the pivots 0..top the row takes, the ones the block gathers:
        ``take`` indexes them in the flat (entries, npiv) terms, ``add`` in
        the block's flat values.
        """
        have = [(job, first) for job, first in zip(jobs, firsts) if job[4] is not None]
        counts = [len(job[4][0]) for job, _ in have]
        if not sum(counts):
            return None
        shifts = np.array([(first, job[2], lower[job[0] - 1, job[1] + 1]) for job, first in have],
                          dtype=np.int32)
        first, q, offset = np.repeat(shifts.T, counts, axis=1)
        at, a, b, src = (np.concatenate(arrays) for arrays in zip(*(job[4] for job, _ in have)))
        at += first
        pivots = np.arange(self.res_tensor.shape[1], dtype=np.int32)
        keep = pivots <= tops[at, None]     # the pivots each entry's row takes
        return ((at[:, None] * len(pivots) + pivots)[keep], np.flatnonzero(keep).astype(np.int32),
                q, a, b, src + offset, np.flatnonzero(a != b).astype(np.int32))

    def _record_jobs(self, jobs, offsets):
        """(pairs, jobs, flat, keys, tops): the plan of ``jobs``, (g, n, q) each, and their entries.

        A job's rows are the rests of its genus-term entries (``_first_rows``)
        and then those its splitting-term pairs reach.  The first factor is a
        lower cell at +z; the second is one at -z, given at +z
        (``_factor_rows``), each a row of the stack of factor tables, in which
        a cell's table starts at its ``offsets`` entry.  A pair adds to the
        rest their merged legs make, once per leg-position subset that gives
        the pair (``_ways``).  The jobs come back as (g, n, q, rows,
        genus-term entries, entries), rows and entries counted.  The entries
        are the pivots the rests take (``_pivots``): ``flat`` holds where each
        sits in the part's rows of the jobs, job after job, ``keys`` each
        job's tuples end to end in an integer array, and ``tops`` the largest
        pivot of each row.
        """
        pairs, out, flat, keys, tops = [], [], array.array("i"), [], array.array("i")
        found = []          # pairs not yet in ``pairs``, four numbers each
        base = 0
        for g, n, q in jobs:
            rows, genus = self._first_rows(g, n, q)
            first = self.index[(1, self.ram[q])]    # every rest here starts at q's modes or later
            room = 3 * g - 3 + n                    # no rest has a larger degree sum
            for g1, n1, g2, n2 in _factor_cells(g, n):
                ones, deg1 = self._factor_rows(g1, n1, q)
                twos, deg2 = self._factor_rows(g2, n2, q)
                at1, at2 = offsets[g1, n1], offsets[g2, n2]
                twos = [(legs, at2 + r, d) for (legs, r), d in zip(twos.items(), deg2)
                        if not legs or legs[0] >= first]
                deg2 = [d for _, _, d in twos]
                for (legs1, r1), d1 in zip(ones.items(), deg1):
                    if legs1 and legs1[0] < first:
                        continue
                    r1, apart = at1 + r1, set(legs1).isdisjoint
                    for legs2, r2, _ in twos[:bisect.bisect_right(deg2, room - d1)]:
                        row = rows.setdefault(tuple(sorted(legs1 + legs2)), len(rows))
                        ways = 1 if apart(legs2) else _ways(legs1, legs2)
                        found += (r1, r2, base + row, ways)
            if len(found) > _STACK * 64:     # a list holds each number as an object
                pairs.append(np.array(found, dtype=np.int32))
                found = []
            got = self._pivots(rows, first, room, base, flat, tops)
            keys.append(np.fromiter(itertools.chain.from_iterable(got), self._key_type,
                                    len(got) * n))
            out.append((g, n, q, len(rows), genus, len(got)))
            base += len(rows)
        pairs.append(np.array(found, dtype=np.int32))
        pairs = np.concatenate(pairs).reshape(-1, 4).T.copy()
        return (pairs, tuple(out), np.frombuffer(flat, dtype=np.intc), keys,
                np.frombuffer(tops, dtype=np.intc))

    def _pivots(self, rows, first, room, base, flat, tops):
        """The tuples of the entries of a job with its rests in ``rows``, sorted.

        The pivot is a mode (2p + 1) at the job's point, from its first mode
        ``first``, within the budget ``room`` less the rest's degree, and no
        larger than the rest's first leg.  So the tuples sort by pivot, then
        by rest.  Each entry's (base + row) * npiv + p, row its rest's, goes
        on ``flat``, and each row's largest p on ``tops``, in row order.
        """
        npiv = (self.kmax + 1) // 2
        rests = sorted(rows)
        # every rest takes p = 0: the pairs and entries that reach it fit its budget
        keys = [(first,) + rest for rest in rests]
        at = [(base + row) * npiv for row in map(rows.__getitem__, rests)]
        flat.extend(at)
        # the rests that take p = 1 and up, with the largest p each takes
        if rests == [()]:       # a one-leg cell's job: the empty rest alone
            more = [((), at[0], room)]
        else:
            degree = self.degree.__getitem__
            more = [(rest, a, top) for rest, a in zip(rests, at) if rest[0] > first
                    and (top := min(rest[0] - first, room - sum(map(degree, rest)))) > 0]
        top = [0] * len(rows)
        for rest, _, most in more:
            top[rows[rest]] = most
        tops.extend(top)
        p = 1
        while more:
            head = (first + p,)
            keys += [head + rest for rest, _, _ in more]
            flat.extend([a + p for _, a, _ in more])
            p += 1
            more = [m for m in more if m[2] >= p]
        return keys

    def _reached(self, g, n):
        """The tuples the fill of a cell reaches, enumerated afresh, with no products formed."""
        # the factor rows' offsets in the stack do not matter: only the keys are read
        keys = self._record_jobs([(g, n, q) for q in range(len(self.ram))],
                                          collections.defaultdict(int))[3]
        return set(zip(*[iter(np.concatenate(keys).tolist())] * n))

    def _genus_triples(self, g, n):
        """(rests, their first legs, a, b, src) over the entries of omega_{g-1,n+1}
        and their leg pairs.

        Each entry at (a, b, rest), the src-th stored, is listed once per
        distinct pair (a, b) of its legs, in the cell's key order;
        ``_cell_cache`` keeps the lists for every point of the cell while its
        level is filled.
        """
        key = ("genus", g, n)
        if key not in self._cell_cache:
            rests, pairs, src = [], [], []
            for e, idx in enumerate(self.table.entries[(g - 1, n + 1)]):
                for a, b in dict.fromkeys(itertools.combinations(idx, 2)):
                    rest = list(idx)
                    rest.remove(a)
                    rest.remove(b)
                    rests.append(tuple(rest))
                    pairs += (a, b)
                    src.append(e)
            a, b = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
            # first leg of each rest; the empty rest is reached at every point
            lead = [rest[0] if rest else self.dim for rest in rests]
            self._cell_cache[key] = rests, lead, a, b, np.array(src, dtype=np.int32)
        return self._cell_cache[key]

    def _first_rows(self, g, n, q):
        """The rows at the point q before the pairs add theirs, and the genus-term entries.

        (1, 1) has the empty rest, which B(z, -z) reaches.  Otherwise, for
        g >= 1, the rows are the rests of the genus-term entries at q (those
        whose rest starts at q's modes or later), and the entries come as
        their rows and their (a, b, src) (``_genus_triples``); None for g = 0
        and for (1, 1).
        """
        if (g, n) == (1, 1):
            return {(): 0}, None
        if g == 0:
            return {}, None
        rests, lead, a, b, src = self._genus_triples(g, n)
        first = self.index[(1, self.ram[q])]
        reach = [i for i, leg in enumerate(lead) if leg >= first]
        rows = {}
        at = np.array([rows.setdefault(rests[i], len(rows)) for i in reach], dtype=np.int32)
        if len(reach) < len(rests):     # at the first point every entry is reached
            a, b, src = a[reach], b[reach], src[reach]
        return rows, (at, a, b, src)

    def compute_value(self, g, n, idx, pivot_pos=0):
        """One entry with the leg at ``pivot_pos`` as pivot: the per-entry reference."""
        k1, lab = self.modes[idx[pivot_pos]]
        p, q = (k1 - 1) // 2, self.ram.index(lab)
        rest = idx[:pivot_pos] + idx[pivot_pos + 1:]
        xi = np.zeros(2 * self.nlen - 1, dtype=complex)
        for g1, n1, pos1, g2, n2, pos2 in _splits(g, n):
            f1 = self._factor(g1, n1, tuple(rest[i] for i in pos1), q, minus=False)
            if f1 is None:
                continue
            f2 = self._factor(g2, n2, tuple(rest[i] for i in pos2), q, minus=True)
            if f2 is not None:
                xi += np.convolve(f1, f2)
        if (g, n) == (1, 1):
            xi[-self.lo:-self.lo + self.nlen] += self.b_pm[q]
        val = -(xi @ self.res_vec[q][p])
        if g >= 1 and (g, n) != (1, 1):
            m2 = self._pair_matrix(g - 1, n + 1, rest)
            if m2 is not None:
                val -= np.sum(m2 * self.res_tensor[q][p])
        return val

    def support(self, g, n):
        """Index tuples of omega_{g,n} with degrees summing to at most 3g - 3 + n.

        The degree of index k is d = (k - 1) / 2.  Tuples come in the order of
        ``combinations_with_replacement(allowed(g, n), n)``; every tuple
        beyond the degree bound has a zero entry.  The fill visits only the
        ones whose rest is reached; the support check reads them all.
        """
        self.allowed(g, n)      # every mode within the degree bound is allowed
        room = 3 * g - 3 + n
        fits = [[j for j in range(self.dim) if self.degree[j] <= b] for b in range(room + 1)]
        grown = [((), 0)]           # (sorted tuple, its degree sum)
        for _ in range(n):
            grown = [(t + (j,), d + self.degree[j]) for t, d in grown
                     for j in fits[room - d] if not t or j >= t[-1]]
        return [t for t, _ in grown]


# pairs stacked per _product_columns call: a chi=7 level at 4 points has tens of
# thousands, whose whole stack would raise the run's peak memory by a third
_STACK = 1024

# bytes of xi a residue pass forms at most; a job that needs more takes
# passes of part of its rows, two rows at least
_BLOCK_BYTES = 1 << 21

# bytes the run's stack of factor tables starts with; it doubles when full
_STACK_START_BYTES = 1 << 20


def _product_columns(f1, r2, cols, counts):
    """Column ``cols[c]`` of ``np.convolve(f1[i], f2[i])`` for the rows i < ``counts[c]``, bitwise.

    ``f1`` and ``r2`` are (P, L) stacks, ``r2`` holding the rows of f2
    reversed and C-contiguous.  The columns come one after another in one
    flat array, each its ``counts[c]`` rows.  For two series of length L,
    ``np.convolve`` takes output k as one dtype ``dot``: of f1[:k+1] with
    r2[L-1-k:] for k < L, else of f1[k-L+1:] with r2[:2L-1-k].  A stacked
    (m, 1, w) @ (m, w, 1) matmul takes that same BLAS dot on each row's
    segments, one row at a time, so every column is convolve's to the bit
    however many rows it takes.  A reversed view, with its negative stride,
    would take numpy's own loop and round differently.
    """
    size = f1.shape[1]
    out = np.empty(int(counts.sum()), dtype=complex)
    at = 0
    for k, m in zip(cols.tolist(), counts.tolist()):
        lo1, hi1 = max(0, k - size + 1), min(size, k + 1)
        lo2, hi2 = max(0, size - 1 - k), min(size, 2 * size - 1 - k)
        np.matmul(f1[:m, None, lo1:hi1], r2[:m, lo2:hi2, None], out=out[at:at + m, None, None])
        at += m
    return out


def _block_rows(width):
    """Rows of xi, ``width`` columns wide, that a residue pass forms at most: one at least."""
    return max(1, _BLOCK_BYTES // (16 * width))


def _first_pivots(res):
    """The smallest pivot whose row of the ``res_vec`` ``res`` reads each column, else len(res)."""
    read = res != 0
    return np.where(read.any(axis=0), read.argmax(axis=0), len(res))


def _stored_tuples(cells, keys, stored):
    """Each cell's ``stored`` entries of a level's ``_Keys`` as tuples: the table's dict keys."""
    numbers, kept = iter(keys.keys.tolist()), stored.tolist()
    tuples, start = [], 0
    for (_, n), count in zip(cells, keys.counts):
        every = itertools.islice(zip(*[numbers] * n), count)
        tuples.append(list(itertools.compress(every, kept[start:start + count])))
        start += count
    return tuples


@functools.cache
def _factor_cells(g, n):
    """The (g1, n1, g2, n2) of the factors of ``_splits(g, n)``, each once, in their order."""
    return tuple(dict.fromkeys((s[0], s[1], s[3], s[4]) for s in _splits(g, n)))


def _same(mask, other):
    """Whether the bool array ``mask`` equals ``other``, None or a bool array of its shape.

    Equal bytes are equal masks; ``np.array_equal`` costs 20 times as much on
    a mask of a few dozen entries, and a replay compares a few per level.
    """
    return other is not None and mask.tobytes() == other.tobytes()


def _ways(legs1, legs2):
    """Leg-position subsets of the merged legs that hand ``legs1`` to the first factor."""
    ways = 1
    for j in set(legs1).intersection(legs2):
        ways *= math.comb(legs1.count(j) + legs2.count(j), legs1.count(j))
    return ways


def eo_run(curve, chi_max, kmax=None, extra_order=0, cells=None):
    """omega_{g,n} as bergman-basis tensors: all with 2g - 2 + n <= chi_max, or ``cells``.

    ``cells`` lists (g, n) up to chi_max; the run fills them and the cells
    they read (``fill_cells``), with kmax by default the largest index bound
    among those (``fill_bound``).
    """
    if chi_max < 1:
        raise ValueError(f"chi_max must be at least 1, got {chi_max}")
    if kmax is not None and kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    if extra_order < 0:
        raise ValueError(f"extra_order must be at least 0, got {extra_order}")
    if kmax is None:
        kmax = fill_bound(chi_max, cells)
    engine = _EoEngine(curve, chi_max, kmax, extra_order, cells)
    table = engine.run()
    engine._factor_cache.clear()    # tens of MB at chi = 7; _factors rebuilds what is read
    return OmegaGN(table, curve, engine)


def eo_symmetry_deviation(omega, rng=None):
    """Max pivot-change deviation over up to 120 sampled entries per cell.

    The factor tables the samples rebuild are freed when it returns, as by ``eo_run``.
    """
    try:
        return omega.engine.pivot_deviation(rng or np.random.default_rng(0), 120)
    finally:
        omega.engine._factor_cache.clear()


def omega_eval(omega, g, n, points):
    """Value of the multi-differential coefficient at local points.

    ``points`` is a list of (label, z) pairs in the local frames; the result
    is the coefficient function against dz_1 ... dz_n.
    """
    for _, z in points:
        omega._check_annulus(z)
    if len(points) != n:
        raise ValueError("need exactly n evaluation points")
    if (g, n) == (0, 2):
        (la, za), (lb, zb) = points
        val = 1.0 / (za - zb) ** 2 if la == lb else 0j
        block = omega.curve.block(la, lb)
        ks = np.arange(1, len(block) + 1)
        return val + (ks * za ** (ks - 1)) @ block @ (ks * zb ** (ks - 1))
    cell = omega.table.entries.get((g, n))
    if cell is None:
        raise KeyError(f"omega_{{{g},{n}}} not computed")
    modes = omega.table.modes
    # per-point value of every basis differential
    basis_vals = np.array([[omega.ebar_value(m, lab, z) for m in modes]
                           for lab, z in points])
    # full ordered sum: each stored symmetric entry contributes once per
    # distinct permutation of its index multiset
    total = 0j
    for key, val in cell.items():
        for perm in set(itertools.permutations(key)):
            prod = val
            for pos, mi in enumerate(perm):
                prod *= basis_vals[pos, mi]
            total += prod
    return total


def support_bound_check(omega, tol=1e-10):
    """Report max observed index against 6g + 2n - 4, plus even-index probes.

    ``outside_support_residual`` is the largest |entry| the recursion gives
    for an index tuple within the per-index bound but outside the degree
    bound; ``unreached_residual`` the largest over the tuples within the
    degree bound whose rest no lower cell reaches, which ``eo_run`` does not
    visit.  Both must be exactly 0.  The factor tables the probes rebuild are
    freed when it returns, as by ``eo_run``.
    """
    try:
        return _support_report(omega, tol)
    finally:
        omega.engine._factor_cache.clear()
        omega.engine._cell_cache.clear()


def _support_report(omega, tol):
    report = {}
    engine = omega.engine
    for (g, n), cell in omega.table.entries.items():
        bound = default_index_bound(g, n)
        max_idx = 0
        for key, val in cell.items():
            if abs(val) > tol:
                max_idx = max(max_idx, max(omega.table.modes[i][0] for i in key))
        inside = set(engine.support(g, n))
        outside = 0.0
        for idx in itertools.combinations_with_replacement(engine.allowed(g, n), n):
            if idx not in inside:
                outside = max(outside, abs(engine.compute_value(g, n, idx)))
        unreached = 0.0
        for idx in inside - engine._reached(g, n):
            unreached = max(unreached, abs(engine.compute_value(g, n, idx)))
        even_dev = 0.0
        # probe targets carrying one even-index leg (odd pivot): must vanish
        if n >= 2:
            for keven in range(2, min(bound, 6) + 1, 2):
                even_dev = max(even_dev, abs(_even_leg_probe(engine, g, n, keven, 0)))
        report[(g, n)] = {
            "max_index": max_idx,
            "bound": bound,
            "within_bound": max_idx <= bound,
            "even_leg_residual": even_dev,
            "outside_support_residual": outside,
            "unreached_residual": unreached,
        }
    return report


def _even_leg_probe(engine, g, n, k_even, q):
    """Recursion value for a target with one even-index leg at the point q.

    With odd pivot, the only structurally nonzero contributions place the
    even leg on a two-form factor; tensor factors carrying it vanish by the
    odd support of every lower cell.  The probe must come out ~0.
    """
    if (g, n - 1) == (0, 1):
        return 0j
    lab = engine.ram[q]
    legs = (engine.index[(1, lab)],) * (n - 2)
    xi = np.zeros(2 * engine.nlen - 1, dtype=complex)
    for even_on_minus in (False, True):
        f_even = engine._f_leg((k_even, lab), lab)
        other = engine._factor(g, n - 1, legs, q, not even_on_minus)
        if f_even is not None and other is not None:
            xi += np.convolve(f_even * engine._flip if even_on_minus else f_even, other)
    return -(xi @ engine.res_vec[q][0])


def atr_eo_crosscheck(tensors, gauge, chi_max, denom=None):
    """Componentwise max |S_atr - S_eo| between the two pipelines.

    ``tensors`` is a local-recursion tensor family; ``gauge`` carries the
    regular-part coefficients (c = d = identity for the bergman basis).  The
    local recursion uses the same regular part and the default odd one-form.
    """
    bar = gauge_transform(tensors, gauge)
    s_atr = atr_run(bar, chi_max)
    curve = LocalSpectralCurve(ram=tensors.ram, denom=denom or {}, bergman_reg=gauge.s)
    omega = eo_run(curve, chi_max)
    dev = 0.0
    for (g, n) in s_atr.cells():
        keys = set()
        for key in s_atr.entries.get((g, n), {}):
            keys.add(tuple(sorted(s_atr.modes[i] for i in key)))
        for key in omega.table.entries.get((g, n), {}):
            keys.add(tuple(sorted(omega.table.modes[i] for i in key)))
        for key in keys:
            dev = max(dev, abs(s_atr.value(g, n, key) - omega.value(g, n, key)))
    return dev
