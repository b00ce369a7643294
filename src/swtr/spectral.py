"""Local topological recursion on a collection of ramification points.

The spectral data is local: at each ramification point the involution is
``z -> -z``, the odd part of the one-form is ``4 z^2 dz`` (the standard
charts' Airy normal form x = etabar^2, y = etabar) and the two-form is the
normalized kernel whose regular part has coefficients ``s^{(k,a)(k',b)}`` in
the standard coordinates.  The recursion produces the coefficient tensors of
the multi-differentials in the basis of normalized principal-part
differentials ("bergman" basis); evaluation anywhere on the annuli is done
on demand from those tensors.

The recursion kernel at a point is

    K(p1, z) = - sum_{k odd} z^k  ebar^{k}(p1) / (4 z^2 dz),

which reduces to dz1 / (4 z (z^2 - z1^2) dz) for the bare quadratic disc.
So the residue of a series xi against z^{2p+1} / (4 z^2) is the
coefficient of z^{-2p-2} of xi over 4.  Residue extraction happens on
truncated Laurent windows.

The nonzero entries of a cell omega_{g,n} lie on its degree-bounded
support: with d_i = (k_i - 1) / 2, the tuples with sum d_i <= 3g - 3 + n.
Every other entry vanishes exactly, because the pole orders of the lower
cells leave the residue nothing to pick up.  ``support`` lists these
tuples; the fill visits fewer.  A run fills every cell up to chi_max, or
the cells it is asked for and the lower ones they read (``fill_cells``):
a (0, n) cell reads only (0, m) cells with m < n.  The cells are filled one
level chi = 2g - 2 + n at a time: a level reads only lower ones, so every
cell and point of a level shares one product pass and one residue pass.
At a point, a cell's entries whose pivot (first index) sits there are
grouped by their other legs, the rest: the series xi the residue is taken
of depends on the rest only, and the pivot 2p + 1 reads one coefficient of
it, the product column ``res_cols[p]``.  So a level's part has a row per
rest and a column per pivot, and no xi is formed.  A job is one cell at one
point, its rows its rests, and the level's jobs go in key order.

Every term of xi is the product of a pair of factors, series over the
window.  A splitting term pairs two nonzero lower-cell factors (a lower
cell with one argument at +-z and the others on legs) and adds to the rest
their merged legs make.  The genus term is
omega_{g-1,n+1}(z, -z, R) = sum_a ebar^a(z) F_{a R}(-z), F_L the row L of
omega_{g-1,n+1}'s factor table: it pairs the window series ``loc_p[q, a]``
with the row L and adds once to the rest R = L less a, for each distinct
leg a of each nonzero row L.  So the rests are the ones these pairs reach;
an entry with any other rest has xi = 0 and is exactly 0.  Each reached
rest takes the pivots at the point that its degree budget allows and that
sort first, 0..top.  The window series and the factor tables hold the forms
at +z; the -z series is an exact sign per column, applied to the stacked
second factors.  Of each pair's product only the columns its rest's pivots
read are formed, top + 1 of them.  They are stacked BLAS dots, bitwise the
columns ``np.convolve`` gives, one matmul per column over the pairs that
read it; a column no pair reads makes no call.  Each gets every add of its
pairs in their order, the genus pairs last.  The residue pass adds
B(z, -z) to the (1, 1) rows and scales the part by -1/4 in place: the bits
of -(xi @ res_vec.T), whose other terms are exact zeros.  ``products``
counts the pairs, ``formed`` the (pair, column) products.  The window
series and the factor tables of a run lie end to end in one stack, so no
level copies them.

What a level enumerates (its pairs of factors, the rests they reach and the
pivots of each rest) depends on the curve's shape alone (the number of
points, the cells filled and the mode window) and on which window series,
lower entries and factor rows are nonzero; the kernel values enter only the
numbers.  So every run of a shape either records a level's plan as integer
index arrays or replays the plan a run before it recorded, and a replay
forms the factor tables and gathers, multiplies and adds as recorded, with
no Python per pair, entry, job or point.  A level is replayed only if the
level below stored the keys it was recorded under and the factor tables
have the recorded nonzero rows, and the first level only if the window
series have them; else it and every later level are recorded afresh, so a
sparser kernel (block-diagonal, zero) gets the tables of a fresh run, and a
shape's first run records them all.  Both fill on the same plan, so their
tables agree to the bit.  The plan of the last shape run is kept
(``_PLAN_SLOTS``), with all that its shape alone gives: ``res_vec``, the
index arrays the window series are formed with, the two factor segments
of each product column's dots and the reversed flip the product pass
applies, omega_{0,2}'s factor table, which a run copies to the start of
its stack, and the rows of that stack the last run used, where the next
one starts.  So a run forms only what the kernel data changes: the window
series, B(z, -z) and the lower cells' factor tables.  A 4-point chi = 8
plan takes about 46 MB.  The kernel data of a shape's runs changes its
values, not its pair keys, so ``LocalSpectralCurve`` keeps in one slot the
layout of the last pair keys it read (``_layout``): the mode numbering, the
rows of ``s`` and the pairs given in both orders.  It holds ``ram`` and one
list of the keys, and a dict whose keys equal that list in order at an equal
``ram`` reuses it; every gate still reads the dict's own modes and values,
so a reuse gives the bits of ``s`` and the errors a fresh parse gives.

``compute_value`` evaluates one entry with any pivot as the formula
reads: one xi from the same window series and factors, with the full
convolution of each pair, and its residue against ``res_vec``; it is the
reference for the fill, the pivot-symmetry check and the support check.
The mode numbering, the index bound and the pivot sampler are
``airy._CellRecursion``, and the leg splits ``airy._splits``, shared with
``airy.atr_run``; the degree prune and the reach are this engine's alone.
``eo_symmetry_deviation`` and ``eo_dilaton_deviation`` check a run's table,
the first against ``compute_value`` at other pivots, the second against
the dilaton equation from the stored entries alone.
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
from .errors import OutOfAnnulus


@dataclass
class LocalSpectralCurve:
    """Ramification labels plus the two-form's kernel data.

    The odd part of the one-form is 4 z^2 dz at every label.
    ``bergman_reg`` maps mode pairs to the regular-part coefficients
    s^{(k,a)(k',b)} of the two-form, each pair in one or both orders, which
    must agree, every k an integer k >= 1 (not a ``bool``) and every value
    finite.  The labels of ``ram`` are distinct.  It enters the recursion
    once, as the symmetric matrix ``s`` over ``ram`` x k = 1..K, K the
    largest k at a label of ``ram``: row (a, k) is
    ``ram.index(a) * K + k - 1``.  Pairs at other labels are dropped; of a
    pair in both orders the later one counts.  What the keys alone give is
    kept for the next curve whose ``ram`` is equal and whose keys are equal
    in order (``_layout``, one slot holding one key list); its ``s`` and its
    errors are a fresh parse's.
    """

    ram: tuple
    bergman_reg: dict = field(default_factory=dict)
    s: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.ram = tuple(self.ram)
        if not self.ram:
            raise ValueError("ram is empty: a local curve needs at least one ramification point")
        if len(set(self.ram)) < len(self.ram):
            lab = next(lab for i, lab in enumerate(self.ram) if lab in self.ram[:i])
            raise ValueError(f"ram repeats the label {lab!r}: each ramification point needs "
                             "its own label")
        self.s = self._kernel_matrix()

    def _kernel_matrix(self):
        """``s`` from ``bergman_reg``, after the mode, finite and symmetry gates on every pair."""
        reg = self.bergman_reg
        keys = list(reg)
        layout = _layout(self.ram, keys)
        # a layout equal by == can still hold a bad k here: (1.0, "0") == (1, "0")
        _modes(keys, layout.legs, layout.first)
        values = np.fromiter(reg.values(), complex, len(reg))
        bad = ~np.isfinite(values)
        if bad.any():
            (m1, m2), v = list(reg.items())[bad.argmax()]
            raise ValueError(f"bergman_reg pair ({m1}, {m2}) has value {v!r}: "
                             "a coefficient needs to be finite")
        given, back = values[layout.both], values[layout.partner]
        bad = abs(back - given) > 1e-12 * np.maximum(1.0, abs(given))
        if bad.any():
            m1, m2 = keys[layout.both[bad.argmax()]]
            v, back = reg[(m1, m2)], reg[(m2, m1)]
            raise ValueError(
                f"bergman_reg is not symmetric at ({m1}, {m2}): {v} against {back}, "
                f"|delta| = {abs(back - v):.3e}, gate {1e-12 * max(1.0, abs(v)):.3e}")
        s = np.zeros((layout.dim,) * 2, dtype=complex)
        flat, kept = s.reshape(-1), values[layout.kept]
        flat[layout.at], flat[layout.at_t] = kept, kept
        return s

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


class _KeyLayout(NamedTuple):
    """What the pair keys of a ``bergman_reg`` alone give, pairs by dict position.

    Modes are numbered in the order they are first met, legs in key order.
    A pair counts unless its reverse comes later in the dict; the counted
    pairs at labels of ``ram`` are ``kept``, each entered at two flat
    indices of ``s``, (a, b) and (b, a).
    """

    legs: np.ndarray        # (pairs, 2) mode number of each leg
    first: list             # flat leg index 2 * pair + side where each mode is first met
    dim: int                # side of s: len(ram) * K
    both: np.ndarray        # pairs given in both orders (not a diagonal pair), ascending
    partner: np.ndarray     # the position of each one's reverse
    kept: np.ndarray
    at: np.ndarray          # flat index in s of each kept pair (a, b)
    at_t: np.ndarray        # and of (b, a)


_layout_slot = None         # (ram, key list, _KeyLayout) of the last pair dict parsed


def _layout(ram, keys):
    """The ``_KeyLayout`` of ``keys`` at ``ram``, kept for the next equal key list."""
    global _layout_slot
    slot = _layout_slot
    if slot is not None and slot[0] == ram and slot[1] == keys:
        return slot[2]
    layout = _key_layout(ram, keys)
    _layout_slot = ram, keys, layout
    return layout


def _key_layout(ram, keys):
    """``keys``' ``_KeyLayout`` at ``ram``, after the mode gate."""
    ids = _Numbering()
    legs = np.fromiter(map(ids.__getitem__, itertools.chain.from_iterable(keys)), np.intp,
                       2 * len(keys)).reshape(-1, 2)
    first = np.unique(legs, return_index=True)[1].tolist()
    modes = _modes(keys, legs, first)        # the rows below need every k valid
    pos = {lab: q for q, lab in enumerate(ram)}
    top = max((k for k, lab in modes if lab in pos), default=0)
    dim = len(ram) * top
    row = np.array([pos[lab] * top + k - 1 if lab in pos else -1 for k, lab in modes],
                   dtype=np.intp)
    pair = np.arange(len(keys))
    rank = np.full((len(modes),) * 2, -1)    # dict position of each given pair
    rank[legs[:, 0], legs[:, 1]] = pair
    partner = rank[legs[:, 1], legs[:, 0]]
    both = np.flatnonzero((partner >= 0) & (partner != pair))
    a, b = row[legs].T
    kept = np.flatnonzero((partner <= pair) & (a >= 0) & (b >= 0))
    a, b = a[kept], b[kept]
    return _KeyLayout(legs, first, dim, both, partner[both], kept, a * dim + b, b * dim + a)


def _modes(keys, legs, first):
    """The modes of ``keys`` as first met, after refusing a k that is no integer >= 1."""
    modes = [keys[p >> 1][p & 1] for p in first]
    bad = [isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1 for k, _ in modes]
    if any(bad):
        bad = np.array(bad)
        i = bad[legs].any(axis=1).argmax()
        m1, m2 = modes[legs[i, 0]], modes[legs[i, 1]]
        raise ValueError(f"bergman_reg pair ({m1}, {m2}) has mode k = "
                         f"{(m2 if bad[legs[i]].argmax() else m1)[0]!r}: "
                         "a mode needs an integer k >= 1")
    return modes


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


class _Keys(NamedTuple):
    """A recorded level's entries: where they sit, their keys, and the dict keys last stored.

    ``gather`` holds the flat index row * npiv + p in the level's part of
    each entry, in key order: cell after cell, each cell's tuples sorted.
    ``counts`` holds each cell's entries, ``keys`` their tuples end to end in
    one integer array, ``stored`` the mask of those stored (nonzero) when the
    level was last filled, ``tuples`` their keys as tuples, a list per cell.
    """

    gather: np.ndarray
    counts: list
    keys: np.ndarray
    stored: np.ndarray
    tuples: list


class _Level(NamedTuple):
    """The integer plan of one level: what its lower cells' key pattern decides.

    ``lower`` is the mask of the planned entries of the level below that
    were stored (nonzero) when the level was recorded; the first level's is
    the mask of the nonzero window series ``loc_p``, (points, modes), which
    the genus pairs of every level read.  A plan's later levels are recorded
    in runs that replayed its first one, so all under that mask.
    ``factors`` maps each cell of the level below to its factor table's rows
    (their nonzero masks as recorded).  The level's part has ``rows`` rows,
    the rests of its jobs, job after job in key order, and a column per
    pivot.  ``pairs`` is (2, P): the first and the second factor's row in
    the run's stack of window series and factor tables, genus pairs and
    splitting pairs alike.  Each pair adds its product to a row of the part, a
    number of times; the pairs go by the largest pivot of that row, largest
    first, and keep their order otherwise, so each row gets its pairs in
    the order they were found.  ``forms`` holds, for each ``_STACK`` pairs
    in turn, (counts, rep, add): ``counts[p]`` of its leading pairs have a
    row that takes the pivot p (``_forms``; a list), ``rep`` is None or how
    many times each formed product adds, and ``add`` the flat index
    row * npiv + p of each add, pivot after pivot, in pair order.  ``formed`` counts the
    products formed.  ``b11`` is None or the (rows, points) of the (1, 1)
    jobs, whose xi adds B(z, -z).  ``keys`` is the level's ``_Keys``.
    """

    lower: np.ndarray
    factors: dict
    pairs: np.ndarray
    forms: tuple
    formed: int
    rows: int
    b11: tuple
    keys: _Keys


class _Window(NamedTuple):
    """What a run's window series and factor tables take from the curve's shape alone.

    ``ks`` holds k = 1..K, K the largest k with z^{k-1} in the window, and
    ``sign`` (-1)^k over them.  ``flip`` takes a form at +z to the same form
    at -z, an exact sign per exponent, and ``rflip`` is it reversed, as the
    product pass applies it to the reversed second factors.  ``poles`` is
    the flat index in ``loc_p`` of every point's principal parts, ``anti``
    the flat index of each term of B(z, -z) among the (points, 2K - 1)
    anti-diagonal sums.  Row p of ``res_vec`` dotted with a product series
    (exponents from 2 lo) is its residue against z^{2p+1} / (4 z^2): 1/4 at
    the one column ``res_cols[p]`` = -2 lo - 2p, which is the exponent
    ``res_cols[p] + lo`` of B(z, -z), ``b_cols[p]``.  ``segments`` holds the
    two factor segments each column's dots take (``_segments``).
    ``kernel`` is omega_{0,2}'s factor table: its rows, the table,
    read-only, and its ``_factor_rows`` at every point, keyed (0, 2, q).
    """

    ks: np.ndarray
    sign: np.ndarray
    flip: np.ndarray
    rflip: np.ndarray
    poles: np.ndarray
    anti: np.ndarray
    res_vec: np.ndarray
    res_cols: np.ndarray
    b_cols: np.ndarray
    segments: tuple
    kernel: tuple


class _Plan:
    """What the recursions on one curve shape share: all the shape alone gives, each level's plan.

    ``window`` is the shape's ``_Window``, formed by the first engine of the
    shape; ``levels`` holds the ``_Level`` of each chi as the last run
    recorded or filled it, and ``rows`` the rows of the stack of factor
    tables that run used, the size the next run's stack starts at.  No value
    of the kernel data s enters any of them, so a run forms only what s
    changes: the window series, B(z, -z) and the lower cells' factor tables.
    """

    def __init__(self):
        self.window = None
        self.levels = []
        self.rows = None


# recursion plans kept, least recently used first out: no command or
# benchmark workload reruns an earlier shape, and a 4-point chi = 8 plan
# takes tens of MB
_PLAN_SLOTS = 1


@functools.lru_cache(maxsize=_PLAN_SLOTS)
def _plan(shape):
    """The ``_Plan`` of a curve shape: (points, cells filled)."""
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
    """The largest index bound 6g + 2n - 4 of the cells ``fill_cells`` gives: the engine's kmax.

    Memoized per (chi_max, cells), as ``fill_cells`` is.
    """
    return _bound(chi_max, None if cells is None else tuple(map(tuple, cells)))


@functools.cache
def _bound(chi_max, cells):
    """``fill_bound`` for a tuple ``cells``, once per key."""
    return max(default_index_bound(g, n) for g, n in _closure(chi_max, cells))


class _EoEngine(_CellRecursion):
    """Local recursion: residues at each point, filled a whole level at a time."""

    def __init__(self, curve, chi_max, cells=None):
        self.cells = fill_cells(chi_max, cells)     # the cells run() fills, in its order
        kmax = fill_bound(chi_max, cells)           # their largest index bound
        # mode list restricted to odd indices (the output lives in the odd part)
        modes = [(k, lab) for lab in curve.ram for k in range(1, kmax + 1, 2)]
        super().__init__(modes, curve.ram, kmax, chi_max, 2, "bergman")
        self.curve = curve
        self.lo = -(kmax + 3)
        self.hi = kmax + 5
        self.nlen = self.hi - self.lo + 1
        self.npiv = (kmax + 1) // 2     # the pivots 2p + 1 at a point
        self.degree = [(k - 1) // 2 for k, _ in self.modes]
        self.products = 0               # pairs whose product was formed
        self.formed = 0                 # (pair, column) products formed: the columns rows read
        self.replayed = 0               # levels filled on a plan a run before this one recorded
        self._factor_cache = {}
        self._values = {}               # stored values of each cell, in its key order
        self._key_type = np.min_scalar_type(-self.dim)
        self._plan = _plan((len(self.ram), self.cells))
        self._setup()

    def _setup(self):
        """Window series of the kernel data at every point.

        One stack over the points, axis 0 the position q of the point in
        ``ram``.  Over the exponent window [lo, hi]: row j of ``loc_p[q]`` is
        ebar^{j}(z) / dz at the point, the first factor of the genus pairs,
        ``_live[q, j]`` whether it is nonzero, and ``b_pm[q]`` is
        B(z, -z) / dz^2.  The plan keeps what the shape alone gives, formed
        by its first engine: the ``_Window``, with ``res_vec``, ``res_cols``,
        the index arrays the series are formed with, the product columns'
        segments and omega_{0,2}'s factor table.  So each engine forms loc_p
        and b_pm.
        """
        plan = self._plan
        if plan.window is None:
            plan.window = self._window()
        window = plan.window
        ks, sign, self._flip, self.res_vec, self.res_cols = (
            window.ks, window.sign, window.flip, window.res_vec, window.res_cols)
        lo, nr, big_k = self.lo, len(self.ram), len(ks)
        # s[a, k - 1, b, k' - 1] over the window's modes, cut or zero-padded
        top = len(self.curve.s) // nr
        cut = min(top, big_k)
        s = np.zeros((nr, big_k, nr, big_k), dtype=complex)
        s[:, :cut, :, :cut] = self.curve.s.reshape(nr, top, nr, top)[:, :cut, :, :cut]
        self.loc_p = np.zeros((nr, self.dim, self.nlen), dtype=complex)
        odd = s[:, 0:self.kmax:2].reshape(self.dim, nr, big_k)      # rows (a, k) at each point
        self.loc_p[:, :, -lo:] = odd.swapaxes(0, 1) * ks
        self.loc_p.reshape(-1)[window.poles] = 1.0
        self._live = _nonzero_rows(self.loc_p)
        # two-form with both arguments local: B(z, -z) / dz^2, summed along
        # the anti-diagonals k + k' - 2 = exponent
        qs = np.arange(nr)
        terms = s[qs, :, qs] * ks[:, None] * ks * sign
        diag = np.zeros((nr, 2 * big_k - 1), dtype=complex)
        np.add.at(diag.reshape(-1), window.anti, terms.reshape(-1))
        self.b_pm = np.zeros((nr, self.nlen), dtype=complex)
        self.b_pm[:, -2 - lo] = -0.25
        self.b_pm[:, -lo:] += diag[:, :big_k]

    def _window(self):
        """The ``_Window`` of the engine's shape."""
        lo, nlen, nr, dim, npiv = self.lo, self.nlen, len(self.ram), self.dim, self.npiv
        ks = np.arange(1, self.hi + 2)
        e = np.arange(lo, self.hi + 1)
        # form at -z against dz: (-z)^e d(-z) = -(-1)^e z^e dz
        flip = np.where(e % 2, 1.0, -1.0)
        # principal parts: ebar^{k} at its own point q has z^{-k-1}, k = 2p + 1
        qs, p = np.arange(nr)[:, None], np.arange(npiv)
        poles = ((qs * dim + qs * npiv + p) * nlen - 2 * p - 2 - lo).ravel()
        # the term (q, k, k') of B(z, -z) adds to the exponent k + k' - 2 at q
        anti = (qs * (2 * len(ks) - 1) + (ks[:, None] + ks - 2).ravel()).ravel()
        # residue of z^{2 lo + l} against z^{2p+1} / (4 z^2): the coefficient
        # of z^{-2p-2-2 lo-l} of z^{-2} / 4, nonzero at l = -2 lo - 2p
        cols = -2 * lo - 2 * p
        res_vec = np.zeros((npiv, 2 * nlen - 1), dtype=complex)
        res_vec[p, cols] = 0.25
        return _Window(ks, (-1.0) ** ks, flip, flip[::-1].copy(), poles, anti, res_vec, cols,
                       cols + lo, _segments(nlen, cols), self._kernel_factors())

    def _kernel_factors(self):
        """(rows, table, index): omega_{0,2}'s ``_factor_table`` and its ``_factor_rows``.

        Row j is the two-form against the leg j at the leg's point
        (``_f_leg``).  ``index`` holds the ``_factor_rows`` at every point,
        keyed (0, 2, q).  The table is read-only: every engine of the shape
        reads it, and a run copies it to the start of its stack.
        """
        nr, dim = len(self.ram), self.dim
        ks = np.array([k for k, _ in self.modes])
        qs = np.arange(dim) // (dim // nr)      # the point of each mode
        table = np.zeros((nr, dim, self.nlen), dtype=complex)
        table[qs, np.arange(dim), ks - 1 - self.lo] = ks
        nonzero = table.any(axis=2)
        table = table.reshape(-1, self.nlen)
        table.flags.writeable = False
        rows = _FactorRows(np.arange(dim)[:, None], None, None, nonzero)
        return rows, table, self._index_rows(0, 2, [(j,) for j in range(dim)], nonzero)

    # building blocks ---------------------------------------------------------

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
        unchanged only if they are the ones it holds.  The series at -z is
        the one at +z times ``_flip``, an exact sign per column, formed only
        where it is read.  Built from the keys, it also indexes its rows by
        legs for ``_factor_rows``.  omega_{0,2}'s is the plan's
        (``_kernel_factors``).
        """
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
        shape = (len(self.ram), len(rows.legs), self.nlen)
        if place:
            table = self._place((g, n), shape[0] * shape[1]).reshape(shape)
        else:
            table = np.empty(shape, dtype=complex)
        vec = np.zeros((len(rows.legs), self.dim), dtype=complex)
        vec[rows.at[0], rows.at[1]] = self._cell_values(g, n)[rows.src]
        np.matmul(vec, self.loc_p, out=table)
        nonzero = _nonzero_rows(table)
        if not _same(nonzero, rows.nonzero):
            rows = rows._replace(nonzero=nonzero)
        if legs is not None:
            self._factor_cache.update(self._index_rows(g, n, legs, nonzero))
        return rows, table.reshape(-1, self.nlen)

    def _place(self, cell, count):
        """``count`` rows at the end of the run's stack of factor tables, for the table of ``cell``.

        The tables of a run are laid end to end after the window series, in
        the order they are formed,
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
        """The ``_factor_table`` of omega_{g,n}, formed from its keys the first time it is read.

        omega_{0,2}'s is the plan's, with its ``_factor_rows``.
        """
        got = self._factor_cache.get((g, n))
        if got is None:
            if (g, n) == (0, 2):
                rows, table, index = self._plan.window.kernel
                self._factor_cache.update(index)
                got = rows, table
            else:
                got = self._factor_table(g, n)
            self._factor_cache[(g, n)] = got
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
                self._factor_cache.update(
                    self._index_rows(g, n, list(map(tuple, rows.legs.tolist())), rows.nonzero))
            got = self._factor_cache[g, n, q]
        return got

    def _index_rows(self, g, n, legs, nonzero):
        """``_factor_rows`` of omega_{g,n} at every point, keyed (g, n, q), from its rows' legs
        and nonzero masks."""
        deg = [sum(map(self.degree.__getitem__, leg)) for leg in legs]
        order = sorted(range(len(legs)), key=deg.__getitem__)
        index = {}
        for q, mask in enumerate(nonzero.tolist()):
            kept = [r for r in order if mask[r]]
            index[g, n, q] = ({legs[r]: q * len(legs) + r for r in kept}, [deg[r] for r in kept])
        return index

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
        run's stack holds the window series first, row q * dim + a the
        series ``loc_p[q, a]``, then omega_{0,2}'s table and the factor
        tables as the cells are first read (``_place``); it starts at the
        rows the shape's last run used.  A level is filled on the plan a run
        before this one recorded for it when the level below stored the keys
        it was recorded under (for the first level: the window series are
        nonzero where they were) and its factor tables have the recorded
        nonzero rows; else this run records the plan of that level and of
        every later one (``_record``) and fills on it.  So a shape's first
        run records them all, and the runs after it replay them.
        """
        levels = self._plan.levels
        # the level below: its cells and which planned entries it stored
        below, stored = [], self._live.reshape(-1)
        ebar = self.loc_p.reshape(-1, self.nlen)
        start = self._plan.rows or max(len(ebar), _STACK_START_BYTES // (16 * self.nlen))
        self._stack = np.empty((start, self.nlen), dtype=complex)
        self._stack[:len(ebar)] = ebar
        self._used, self._offsets = len(ebar), {}
        rows, kernel = self._factors(0, 2)      # the plan's, copied to the stack
        placed = self._place((0, 2), len(kernel))
        placed[...] = kernel
        self._factor_cache[(0, 2)] = rows, placed
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
            stored, keys = self._fill(cells, level)
            if keys is not level.keys:
                levels[i:i + 1] = [level._replace(keys=keys)]
            below = cells
            for g, n in cells:
                self.table.bounds[(g, n)] = default_index_bound(g, n)
        self._plan.rows = self._used
        self._stack = None          # the cached tables hold it until they are freed
        return self.table

    def _fill(self, cells, level):
        """Fill a level's cells on its plan; return which planned entries they stored and the
        level's ``_Keys`` as filled.

        The level's pairs (``_product_pass``), whose factors are rows of the
        run's stack, and one residue pass (``_residue_pass``) give every
        pivot of every row; one gather puts the level's entries in key
        order, cell after cell, each cell's sorted, the order of
        ``support``.  The nonzero ones are stored, each cell's dict with
        Python complex values of the same bits.
        """
        part = self._product_pass(level, self._stack[:self._used])
        self._residue_pass(part, level.b11)
        self.products += level.pairs.shape[1]
        self.formed += level.formed
        plan = level.keys
        vals = part.reshape(-1)[plan.gather]
        self.evaluated += len(vals)
        stored = vals != 0
        if not _same(stored, plan.stored):
            plan = plan._replace(stored=stored, tuples=_stored_tuples(cells, plan, stored))
        vals = vals[stored]
        start, numbers = 0, iter(vals.tolist())
        for cell, keys in zip(cells, plan.tuples):
            self._values[cell] = vals[start:start + len(keys)]
            self.table.entries[cell] = dict(zip(keys, numbers))
            start += len(keys)
        return stored, plan

    def _product_pass(self, level, stack):
        """The terms of xi at a level's rows, a column per pivot (a ``_Level``'s part).

        Each pair adds the product of its factors, the first at +z and the
        second at -z, to its row, once per leg-position subset that gives a
        splitting pair.  Of the columns ``res_cols`` a pair forms only those
        its row reads: one per pivot its rest takes.  Each is bitwise
        ``np.convolve``'s (``_product_columns``, on the plan's segments), for
        up to ``_STACK`` pairs at a time across the jobs, the second factors
        flipped to -z as a stack by the plan's reversed flip; a column no
        pair of the stack reads makes no call.  The adds go one per subset
        in pair order, as in ``compute_value``: a single add of the multiple
        would round differently.  They go to the flat part at the plan's
        indices, pivot after pivot: each read entry gets every add of its
        row's pairs, in their order.  An unread entry stays 0, at a pivot its
        row does not take.
        """
        part = np.zeros((level.rows, self.npiv), dtype=complex)
        first, second = level.pairs
        # the flip reversed, contiguous: a reversed view would take a slow buffered loop
        flip, segments = self._plan.window.rflip, self._plan.window.segments
        for start, (counts, rep, add) in zip(itertools.count(0, _STACK), level.forms):
            flipped = stack[second[start:start + _STACK]][:, ::-1] * flip
            terms = _product_columns(stack[first[start:start + _STACK]], flipped, segments,
                                     counts)
            np.add.at(part.reshape(-1), add, terms if rep is None else terms.repeat(rep))
        return part

    def _residue_pass(self, part, b11):
        """Turn a level's part into -(xi @ res_vec.T), in place.

        Column p of a row's part is the one column ``res_cols[p]`` of its xi
        that row p of ``res_vec`` reads, at 1/4; so with B(z, -z) added to
        the (1, 1) rows ``b11`` (rows, points) and the part scaled by -1/4,
        each value has the bits of -(xi @ res_vec.T), whose other terms are
        exact zeros.
        """
        if b11 is not None:
            rows, qs = b11
            part[rows] += self.b_pm[qs[:, None], self._plan.window.b_cols]
        part *= -0.25

    # the plan ------------------------------------------------------------------

    def _record(self, cells, below, stored):
        """The ``_Level`` of ``cells`` under the keys ``stored`` of the level ``below``.

        Its jobs go in key order: cell after cell, and in a cell by point.
        """
        nr = len(self.ram)
        jobs = [(g, n, q) for g, n in cells for q in range(nr)]
        pairs, planned, flat, keys, tops = self._record_jobs(jobs, self._offsets)
        firsts = list(itertools.accumulate((job[3] for job in planned), initial=0))
        b11 = [(first, job[2]) for job, first in zip(planned, firsts) if job[:2] == (1, 1)]
        counts = [sum(job[4] for job in planned[i:i + nr]) for i in range(0, len(planned), nr)]
        return _Level(stored, {cell: self._factor_cache[cell][0] for cell in below},
                      *self._forms(pairs, tops, self.npiv), firsts[-1],
                      tuple(map(np.array, zip(*b11))) if b11 else None,
                      _Keys(flat, counts, np.concatenate(keys), None, None))

    @staticmethod
    def _forms(pairs, tops, npiv):
        """(pairs, forms, formed) of a ``_Level`` from ``_record_jobs``'s (4, P) pairs.

        ``tops`` holds the largest pivot of each row of the level's part: a
        row reads the columns of the pivots 0..top.  With the pairs of the
        rows that read the most first, the pairs that form a column are the
        leading ones of each ``_STACK``.  A row's pairs share its top, so a
        stable sort keeps them in the order they were found.
        """
        pairs = pairs[:, np.argsort(-tops[pairs[2]], kind="stable")]
        _, _, at, ways = pairs
        top, most = tops[at], ways.max(initial=1)
        pivots = np.arange(npiv, dtype=np.int32)[:, None]
        forms, formed = [], 0
        for start in range(0, len(top), _STACK):
            read = top[start:start + _STACK] >= pivots     # pivot by pair
            add = (at[start:start + _STACK] * npiv + pivots)[read]
            rep = None
            if most > 1:
                rep = (ways[start:start + _STACK] * read)[read].astype(np.min_scalar_type(most))
                add = add.repeat(rep)
            forms.append((read.sum(axis=1).tolist(), rep, add))
            formed += int(read.sum())
        return pairs[:2].copy(), tuple(forms), formed

    def _record_jobs(self, jobs, offsets):
        """(pairs, jobs, flat, keys, tops): the plan of ``jobs``, (g, n, q) each, and their entries.

        A job's rows are the rests its pairs reach, its splitting pairs and
        then its genus pairs: (1, 1) has the empty rest, which B(z, -z)
        reaches, and no pair.  A splitting pair's first factor is a lower
        cell at +z, its second one at -z, given at +z; it adds to the rest
        their merged legs make, once per leg-position subset that gives the
        pair (``_ways``).  A genus pair of (g, n) at q is the window series
        ``loc_p[q, a]``, row q * dim + a of the stack, with a nonzero row L
        of omega_{g-1,n+1}'s factor table at q; it adds once to the rest L
        less a, for each distinct leg a of L with a nonzero series.  Factor
        rows are ``_factor_rows``'s, a cell's table starting at its
        ``offsets`` entry in the stack.  Each rest starts at q's modes or
        later.  The jobs come back as (g, n, q, rows, entries), rows and
        entries counted.  The entries are the pivots the rests take
        (``_pivots``): ``flat`` holds where each sits in the part's rows of
        the jobs, job after job, ``keys`` each job's tuples end to end in an
        integer array, and ``tops`` the largest pivot of each row.
        """
        pairs, out, flat, keys, tops = [], [], array.array("i"), [], array.array("i")
        found = []          # pairs not yet in ``pairs``, four numbers each
        base = 0
        for g, n, q in jobs:
            rows = {(): 0} if (g, n) == (1, 1) else {}
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
            if g and (g, n) != (1, 1):
                ebar, live = q * self.dim, self._live[q].tolist()
                at = offsets[g - 1, n + 1]
                for legs, r in self._factor_rows(g - 1, n + 1, q)[0].items():
                    for i, a in enumerate(legs):
                        rest = legs[:i] + legs[i + 1:]
                        if (live[a] and (not i or a != legs[i - 1])
                                and (not rest or rest[0] >= first)):
                            found += (ebar + a, at + r, base + rows.setdefault(rest, len(rows)), 1)
            if len(found) > _STACK * 64:     # a list holds each number as an object
                pairs.append(np.array(found, dtype=np.int32))
                found = []
            got = self._pivots(rows, first, room, base, flat, tops)
            keys.append(np.fromiter(itertools.chain.from_iterable(got), self._key_type,
                                    len(got) * n))
            out.append((g, n, q, len(rows), len(got)))
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
        npiv = self.npiv
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

    def compute_value(self, g, n, idx, pivot_pos=0):
        """One entry with the leg at ``pivot_pos`` as pivot: the per-entry reference.

        xi is the splitting terms, then omega_{g-1,n+1}(z, -z, rest) as
        sum_a loc_p[q, a] times the factor row a + rest at -z, all by full
        convolution, in the fill's order; (1, 1)'s genus term is B(z, -z).
        """
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
        elif g:
            for a in range(self.dim):
                f2 = self._factor(g - 1, n + 1, (a,) + rest, q, minus=True)
                if f2 is not None:
                    xi += np.convolve(self.loc_p[q, a], f2)
        return -(xi @ self.res_vec[p])

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

# bytes the stack of factor tables of a shape's first run starts with; it
# doubles when full, and the runs after it start at the rows the last one used
_STACK_START_BYTES = 1 << 20


def _segments(size, cols):
    """For each k of ``cols``, the (f1, r2) slices of the dot that gives convolve's output k.

    For two series of length ``size``, L, ``np.convolve`` takes output k as
    one dtype ``dot``: of f1[:k+1] with r2[L-1-k:] for k < L, else of
    f1[k-L+1:] with r2[:2L-1-k], r2 the second series reversed.  They
    depend on the window alone, so a plan holds them (``_Window``).
    """
    return tuple((slice(max(0, k - size + 1), min(size, k + 1)),
                  slice(max(0, size - 1 - k), min(size, 2 * size - 1 - k)))
                 for k in cols.tolist())


def _product_columns(f1, r2, segments, counts):
    """Column c of ``np.convolve(f1[i], f2[i])`` for the rows i < ``counts[c]``, bitwise.

    ``f1`` and ``r2`` are (P, L) stacks, ``r2`` holding the rows of f2
    reversed and C-contiguous; ``segments[c]`` is the pair of slices of
    column c's dot (``_segments``).  The columns come one after another in
    one flat array, each its ``counts[c]`` rows.  A stacked (m, 1, w) @
    (m, w, 1) matmul takes convolve's BLAS dot on each row's segments, one
    row at a time, so every column is convolve's to the bit however many
    rows it takes.  A column no row reads makes no call.  A reversed view,
    with its negative stride, would take numpy's own loop and round
    differently.
    """
    out = np.empty((sum(counts), 1, 1), dtype=complex)
    f1, r2 = f1[:, None], r2[:, :, None]
    at = 0
    for (s1, s2), m in zip(segments, counts):
        if not m:
            continue
        np.matmul(f1[:m, :, s1], r2[:m, s2], out=out[at:at + m])
        at += m
    return out.reshape(-1)


def _nonzero_rows(table):
    """Whether each row (last axis) of a 3-d ``table`` has a nonzero entry.

    ``ndarray.any``'s Python wrapper costs more than the reduction at the
    sizes a level's factor tables have.
    """
    return np.logical_or.reduce(table, axis=2)


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


def eo_run(curve, chi_max, cells=None):
    """omega_{g,n} as bergman-basis tensors: all with 2g - 2 + n <= chi_max, or ``cells``.

    ``cells`` lists (g, n) up to chi_max; the run fills them and the cells
    they read (``fill_cells``), with modes up to the largest index bound
    among those (``fill_bound``).
    """
    if chi_max < 1:
        raise ValueError(f"chi_max must be at least 1, got {chi_max}")
    engine = _EoEngine(curve, chi_max, cells)
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


def eo_dilaton_deviation(omega):
    """Worst dilaton residual over the cells (g, n) of a run whose (g, n + 1) it holds.

    With the odd one-form 4 z^2 dz only the mode-3 leg survives the
    dilaton residue, so sum_a S_{g,n+1}[J, (3, a)] = (3/2)(2g - 2 + n)
    S_{g,n}[J] (Eynard-Orantin 2007).  A cell's residual is the largest
    |lhs - rhs| over J in its degree-bounded support, over its largest
    |rhs|; where S_{g,n} is all zero, the largest |lhs|.  It reads the
    stored table only; 0.0 when no cell has its (g, n + 1).
    """
    entries = omega.table.entries
    return max((_dilaton_residual(omega, g, n) for g, n in entries if (g, n + 1) in entries),
               default=0.0)


def _dilaton_residual(omega, g, n):
    """The dilaton residual of the cell (g, n), as ``eo_dilaton_deviation`` takes it."""
    engine, entries = omega.engine, omega.table.entries
    lower, upper = entries[(g, n)], entries[(g, n + 1)]
    threes = [engine.index[(3, lab)] for lab in omega.curve.ram]
    factor = 1.5 * (2 * g - 2 + n)
    worst = 0.0
    for idx in engine.support(g, n):
        lhs = sum(upper.get(tuple(sorted(idx + (j,))), 0j) for j in threes)
        worst = max(worst, abs(lhs - factor * lower.get(idx, 0j)))
    scale = factor * max(map(abs, lower.values()), default=0.0)
    return worst / scale if scale else worst


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
    return -(xi @ engine.res_vec[0])


def atr_eo_crosscheck(tensors, gauge, chi_max):
    """Componentwise max |S_atr - S_eo| between the two pipelines.

    ``tensors`` is a local-recursion tensor family; ``gauge`` carries the
    regular-part coefficients (c = d = identity for the bergman basis).  The
    local recursion uses the same regular part and its one-form 4 z^2 dz.
    """
    bar = gauge_transform(tensors, gauge)
    s_atr = atr_run(bar, chi_max)
    curve = LocalSpectralCurve(ram=tensors.ram, bergman_reg=gauge.s)
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
