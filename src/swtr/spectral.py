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

The nonzero entries of a cell omega_{g,n} lie on its degree-bounded support:
with d_i = (k_i - 1) / 2, the tuples with sum d_i <= 3g - 3 + n.  Every
other entry vanishes exactly, because the pole orders of the lower cells
leave the residue nothing to pick up.  ``support`` lists these tuples; the
fill visits fewer.  The cells are filled one level chi = 2g - 2 + n at a
time: a level reads only lower ones, so every cell and point of a level
shares one product pass.  At a point, a cell's entries whose pivot (first
index) sits there are grouped by their other legs, the rest: the series xi
the residue is taken of depends on the rest only, so one product of all the
rests' xi with the point's residue vectors gives every pivot.  The
splitting terms of xi come from pairs of nonzero lower-cell factors (a
lower cell with one argument at +-z and the others on legs); the genus
term from the entries of omega_{g-1,n+1}, two of whose legs meet the
residue.  So the rests are the ones these reach: the merged legs of a
pair, the other legs of an entry.  An entry with any other rest has xi = 0
and genus term 0, and is exactly 0.  Each reached rest takes the pivots at
the point that its degree budget allows and that sort first.  The factor
tables hold the lower cells at +z; the -z series is an exact sign per
column, applied to the stacked second factors.  Of each pair's product only
the columns the residue vectors read are formed (one per pivot with the
default D = 4 z^2), as stacked BLAS dots that are bitwise the columns
``np.convolve`` gives, so the pairs of the points that read the same
columns share their stacks; ``products`` counts the pairs.  The genus term
is contracted against the point's residue tensor C^p_{ab}, the residue of
ebar^a(z) ebar^b(-z) against z^{2p+1} / D(z).
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

import bisect
import collections
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .airy import (_CellRecursion, _splits, atr_run, default_index_bound, gauge_transform,
                   max_index_bound, recursion_cells)
from .errors import OutOfAnnulus, TruncationInsufficient
from .laurent import LaurentSeries


@dataclass
class LocalSpectralCurve:
    """Ramification labels plus local one-form and kernel data.

    ``denom[label]`` is the series D with D(z) dz the odd combination of the
    one-form; it must have only even exponents, a double zero at the origin
    and a nonzero z^2 coefficient.  ``bergman_reg`` maps mode pairs to the
    regular-part coefficients s^{(k,a)(k',b)} of the two-form, each pair in
    one or both orders, which must agree.  It enters the recursion once, as
    the symmetric matrix ``s`` over ``ram`` x k = 1..K, K the largest k at a
    label of ``ram``: row (a, k) is ``ram.index(a) * K + k - 1``.  Pairs at
    other labels are dropped; of a pair in both orders the later one counts.
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
        m1s, m2s = zip(*reg) if reg else ((), ())
        pos = {lab: q for q, lab in enumerate(self.ram)}
        modes = dict.fromkeys(m1s + m2s)
        top = max((k for k, lab in modes if lab in pos), default=0)
        dim = len(self.ram) * top
        other = itertools.count(dim)        # rows past s: the modes at other labels
        row = {m: pos[m[1]] * top + m[0] - 1 if m[1] in pos else next(other) for m in modes}
        a, b = (np.fromiter(map(row.get, ms), int, len(reg)) for ms in (m1s, m2s))
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

class _EoEngine(_CellRecursion):
    """Local recursion: residues at each point, filled a whole level at a time."""

    def __init__(self, curve, chi_max, kmax, extra_order=0):
        # mode list restricted to odd indices (the output lives in the odd part)
        modes = [(k, lab) for lab in curve.ram for k in range(1, kmax + 1, 2)]
        super().__init__(modes, curve.ram, kmax, chi_max, 2, "bergman")
        self.curve = curve
        self.lo = -(kmax + 3)
        self.hi = kmax + 5 + extra_order
        self.nlen = self.hi - self.lo + 1
        self.degree = [(k - 1) // 2 for k, _ in self.modes]
        self.products = 0               # split-term pairs whose product was formed
        self._factor_cache = {}
        self._setup()

    def _setup(self):
        """Window series of the kernel data at every point, and their residue tables.

        One stack over the points, axis 0 the position q of the point in
        ``ram``.  Over the exponent window [lo, hi]: row j of ``loc_p[q]`` is
        ebar^{j}(z) / dz at the point, row j of ``loc_m[q]`` the same form at
        -z, ``b_pm[q]`` is B(z, -z) / dz^2.  Row p of ``res_vec[q]`` dotted
        with a product series (exponents from 2 lo) is its residue against
        z^{2p+1} / D(z), ``res_cols[q]`` lists the columns it reads, and
        ``res_tensor[q][p, a, b]`` is that residue of loc_p[q][a] * loc_m[q][b].
        1/D, ``res_vec``, ``res_cols`` and the Hankel gather of ``res_vec``
        are formed once per distinct D and shared by the points that have it;
        ``_col_groups`` lists (res_cols, points) per distinct column set.
        """
        cur = self.curve
        lo, hi, nlen = self.lo, self.hi, self.nlen
        npiv = (self.kmax + 1) // 2
        big_k = hi + 1                  # largest k with z^{k-1} in the window
        ks = np.arange(1, big_k + 1)
        e = np.arange(lo, hi + 1)
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
        # residue of z^{2 lo + l} against z^{k1} / D(z): the coefficient of
        # z^{-1 - k1 - 2 lo - l} of 1 / D
        needed = -1 - 1 - 2 * lo
        exps = needed - 2 * p[:, None] - np.arange(2 * nlen - 1)
        low = int(exps.min())
        ii = np.arange(nlen)
        shared, groups = {}, {}
        self.res_vec, self.res_cols, self.res_tensor = [], [], []
        for q, lab in enumerate(self.ram):
            d = cur.denom[lab]
            d_terms = d.coeffs      # D's window, exponents and coefficient bits are the key
            key = (d.min_exp, d.trunc_order, tuple(d_terms),
                   np.array(list(d_terms.values())).tobytes())
            if key not in shared:
                inv_d = d.inverse()
                if inv_d.trunc_order < needed:
                    raise TruncationInsufficient(
                        f"denom at {lab!r} truncated below order {needed + 4}")
                coef = np.array([inv_d.get(x) for x in range(low, needed + 1)], dtype=complex)
                res = coef[exps - low]
                # H_p[i, j] = res[p, i + j]
                shared[key] = res, np.flatnonzero(res.any(axis=0)), res[:, ii[:, None] + ii]
            res, cols, hankel = shared[key]
            self.res_vec.append(res)
            self.res_cols.append(cols)
            # C[p, a, b] = loc_p[a] . H_p . loc_m[b]
            self.res_tensor.append(self.loc_p[q] @ hankel @ self.loc_m[q].T)
            groups.setdefault(cols.tobytes(), (cols, []))[1].append(q)
        self._col_groups = list(groups.values())

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

    def _factors(self, g, n, q):
        """Nonzero series of omega_{g,n}(q(+z), legs) at the point q over the window, by legs.

        The dict runs in increasing degree sum of the legs; the list holds
        those sums.  For (0, 2) the series are the two-form against one leg
        (``_f_leg``).  The series at -z is the one at +z times ``_flip``, an
        exact sign per column, and is formed only where it is read.  A cell's
        tables are built for every point at once, the first time one is asked for.
        """
        tables = self._factor_cache.get((g, n))
        if tables is None:
            tables = self._factor_cache[(g, n)] = self._factor_tables(g, n)
        return tables[q]

    def _factor_tables(self, g, n):
        """The ``_factors`` tables of one cell, one per point."""
        if (g, n) == (0, 2):
            out = []
            for lab in self.ram:
                legs = [(j,) for j, (_, b) in enumerate(self.modes) if b == lab]
                out.append(({leg: self._f_leg(self.modes[leg[0]], lab) for leg in legs},
                            [self.degree[j] for j, in legs]))
            return out
        # row r: the entries of omega_{g,n} at (j, legs[r]) over the free index j
        rows, at, vals = {}, [], []
        for idx, val in self.table.entries[(g, n)].items():
            for p in range(n):
                if p == 0 or idx[p] != idx[p - 1]:
                    at.append((rows.setdefault(idx[:p] + idx[p + 1:], len(rows)), idx[p]))
                    vals.append(val)
        vec = np.zeros((len(rows), self.dim), dtype=complex)
        if at:
            vec[tuple(np.array(at).T)] = vals
        legs = list(rows)
        deg = [sum(self.degree[j] for j in leg) for leg in legs]
        order = sorted(range(len(legs)), key=deg.__getitem__)
        out = []
        for loc in self.loc_p:
            plus = vec @ loc
            nonzero = plus.any(axis=1)
            keep = [r for r in order if nonzero[r]]
            out.append(({legs[r]: plus[r] for r in keep}, [deg[r] for r in keep]))
        return out

    def _factor(self, g, n, legs, q, minus):
        """Series of omega_{g,n}(q(+-z), legs) over the window, or None if it is 0."""
        f = self._factors(g, n, q)[0].get(tuple(sorted(legs)))
        return f * self._flip if minus and f is not None else f

    # the level fill ----------------------------------------------------------

    def run(self):
        """Fill the cells one level chi = 2g - 2 + n at a time, by increasing chi.

        A level's cells read only lower levels: every splitting factor and
        the genus-term cell (g - 1, n + 1) have a smaller chi.  So all the
        cells and points of a level share one product pass (``_level``).
        """
        levels = itertools.groupby(recursion_cells(self.chi_max), lambda c: 2 * c[0] - 2 + c[1])
        for _, level in levels:
            level = list(level)
            for g, n in level:
                self.allowed(g, n)      # every mode within the degree bound is allowed
            self.table.entries.update(self._level(level))
            for g, n in level:
                self.table.bounds[(g, n)] = default_index_bound(g, n)
            self._cell_cache.clear()
        return self.table

    def _level(self, cells):
        """Recursion values of the cells of one level on the rests their lower cells reach.

        A job is one cell at one point q: its entries whose pivot sits at q,
        grouped by their other legs, the rest.  A job's rows are its rests,
        one xi series each, whose residues against every pivot come out of
        one product with ``res_vec[q]``; the jobs whose points read the same
        columns share their splitting terms (``_split_parts``).  A rest is
        reached by a splitting-term pair or a genus-term entry; the entries
        of every other rest are exactly 0.  Each cell's keys come out
        sorted, in the order of ``support``.
        """
        out = {cell: {} for cell in cells}
        for cols, points in self._col_groups:
            jobs = [(g, n, q) for g, n in cells for q in points]
            part, spans = self._split_parts(jobs, cols)
            for (g, n, q), (rows, genus, base) in zip(jobs, spans):
                xi = np.zeros((len(rows), 2 * self.nlen - 1), dtype=complex)
                xi[:, cols] = part[base:base + len(rows)]
                if (g, n) == (1, 1):
                    xi[0, -self.lo:-self.lo + self.nlen] += self.b_pm[q]
                # one matmul per job: a one-row matmul is not a row of a stacked one, bitwise
                vals = -(xi @ self.res_vec[q].T)
                if genus is not None:
                    vals -= self._genus_terms(q, len(rows), *genus)
                cell = out[g, n]
                for idx, r, p in self._pivots(g, n, q, rows):
                    self.evaluated += 1
                    if (val := vals[r, p]) != 0:
                        cell[idx] = val
        return {cell: dict(sorted(entries.items())) for cell, entries in out.items()}

    def _split_parts(self, jobs, cols):
        """Columns ``cols`` of the splitting terms of every rest of ``jobs``.

        Returns (part, spans), a job's rows starting at its span's base in
        ``part`` (``_split_pairs``).  Each pair of nonzero lower-cell factors
        adds its product to the rest their merged legs make, once per
        leg-position subset that gives the pair.  Only the columns ``cols``
        are formed, each bitwise ``np.convolve``'s (``_product_columns``),
        for up to ``_STACK`` pairs at a time across the jobs, the second
        factors flipped to -z as a stack.  The adds go one per subset in pair
        order, as in ``compute_value``: a single add of the multiple would
        round differently.
        """
        spans = []
        stream, flip = self._split_pairs(jobs, spans), self._flip[::-1]
        part = np.zeros((0, len(cols)), dtype=complex)
        while chunk := list(itertools.islice(stream, _STACK)):
            self.products += len(chunk)
            firsts, seconds, at, ways = zip(*chunk)
            at = np.array(at)
            terms = _product_columns(np.array(firsts), np.array(seconds)[:, ::-1] * flip, cols)
            each = np.repeat(np.arange(len(chunk)), ways)
            part = _grown(part, at.max() + 1)
            np.add.at(part, at[each], terms[each])
        rows, _, base = spans[-1]
        return _grown(part, base + len(rows)), spans

    def _pivots(self, g, n, q, rows):
        """(tuple, row, pivot p) of each entry at the point q with its rest in ``rows``.

        The pivot is the mode (2p + 1) at q within the degree budget the rest
        leaves, and no larger than the rest's first leg: the first index of
        the sorted tuple.
        """
        first, room = self.index[(1, self.ram[q])], 3 * g - 3 + n
        for rest, r in rows.items():
            top = room - sum(map(self.degree.__getitem__, rest))
            if rest:
                top = min(top, rest[0] - first)
            for p in range(top + 1):
                yield (first + p,) + rest, r, p

    def _reached(self, g, n):
        """The tuples the fill of a cell reaches, from the same rows, with no products formed."""
        spans = []
        collections.deque(self._split_pairs([(g, n, q) for q in range(len(self.ram))], spans),
                          maxlen=0)
        return {idx for q, (rows, _, _) in enumerate(spans)
                for idx, _, _ in self._pivots(g, n, q, rows)}

    def _split_pairs(self, jobs, spans):
        """(first factor, second factor, row, subsets) of each splitting-term pair of ``jobs``.

        The jobs, (g, n, q) each, run one after another.  Before its pairs a
        job appends its span (rows, genus, base) to ``spans``: its rows and
        genus-term entries (``_first_rows``), to which the pairs add the
        rests they reach, and the number of rows of the jobs before it.  The
        first factor is a lower cell at +z; the second is one at -z, given at
        +z (``_factors``).  Row is base plus that of the rest their merged
        legs make; subsets counts the leg-position subsets that give the
        pair (``_ways``).
        """
        base = 0
        for g, n, q in jobs:
            rows, genus = self._first_rows(g, n, q)
            spans.append((rows, genus, base))
            first = self.index[(1, self.ram[q])]    # every rest here starts at q's modes or later
            room = 3 * g - 3 + n                    # no rest has a larger degree sum
            for g1, n1, g2, n2 in dict.fromkeys((s[0], s[1], s[3], s[4]) for s in _splits(g, n)):
                ones, deg1 = self._factors(g1, n1, q)
                twos, deg2 = self._factors(g2, n2, q)
                twos = [(legs, f, d) for (legs, f), d in zip(twos.items(), deg2)
                        if not legs or legs[0] >= first]
                deg2 = [d for _, _, d in twos]
                for (legs1, f1), d1 in zip(ones.items(), deg1):
                    if legs1 and legs1[0] < first:
                        continue
                    for legs2, f2, _ in twos[:bisect.bisect_right(deg2, room - d1)]:
                        row = rows.setdefault(tuple(sorted(legs1 + legs2)), len(rows))
                        yield f1, f2, base + row, _ways(legs1, legs2)
            base += len(rows)

    def _genus_triples(self, g, n):
        """(rests, their first legs, a, b, values) over the entries of omega_{g-1,n+1}
        and their leg pairs.

        Each entry at (a, b, rest) is listed once per distinct pair (a, b) of
        its legs, in the cell's key order; ``_cell_cache`` keeps the lists
        for every point of the cell while its level is filled.
        """
        key = ("genus", g, n)
        if key not in self._cell_cache:
            rests, pairs, vals = [], [], []
            for idx, val in self.table.entries[(g - 1, n + 1)].items():
                for a, b in dict.fromkeys(itertools.combinations(idx, 2)):
                    rest = list(idx)
                    rest.remove(a)
                    rest.remove(b)
                    rests.append(tuple(rest))
                    pairs.append((a, b))
                    vals.append(val)
            a, b = np.array(pairs, dtype=int).reshape(-1, 2).T
            # first leg of each rest; the empty rest is reached at every point
            lead = [rest[0] if rest else self.dim for rest in rests]
            self._cell_cache[key] = rests, lead, a, b, np.array(vals, dtype=complex)
        return self._cell_cache[key]

    def _first_rows(self, g, n, q):
        """The rows at the point q before the pairs add theirs, and the genus-term entries.

        (1, 1) has the empty rest, which B(z, -z) reaches.  Otherwise, for
        g >= 1, the rows are the rests of the genus-term entries at q (those
        whose rest starts at q's modes or later), and the entries come as
        their rows and their (a, b, value); None for g = 0 and for (1, 1).
        """
        if (g, n) == (1, 1):
            return {(): 0}, None
        if g == 0:
            return {}, None
        rests, lead, a, b, vals = self._genus_triples(g, n)
        first = self.index[(1, self.ram[q])]
        reach = [i for i, leg in enumerate(lead) if leg >= first]
        rows = {}
        at = [rows.setdefault(rests[i], len(rows)) for i in reach]
        if len(reach) < len(rests):     # at the first point every entry is reached
            a, b, vals = a[reach], b[reach], vals[reach]
        return rows, (at, a, b, vals)

    def _genus_terms(self, q, nrows, at, a, b, vals):
        """Genus-reduction residues of ``nrows`` rests and every pivot at the point q.

        An entry of omega_{g-1,n+1} at (a, b, rest) adds its value times
        C[p, a, b] + C[p, b, a] (once for a = b) to (its row ``at``, pivot p).
        """
        out = np.zeros((nrows, self.res_vec[q].shape[0]), dtype=complex)
        if at:
            c = self.res_tensor[q]
            terms = (c[:, a, b] + np.where(a != b, c[:, b, a], 0)) * vals
            np.add.at(out, at, terms.T)
        return out

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


def _product_columns(f1, r2, cols):
    """Columns ``cols`` of ``np.convolve(f1[i], f2[i])`` for every row i, bitwise.

    ``f1`` and ``r2`` are (P, L) stacks, ``r2`` holding the rows of f2
    reversed and C-contiguous.  For two series of length L, ``np.convolve``
    takes output k as one dtype ``dot``: of f1[:k+1] with r2[L-1-k:] for
    k < L, else of f1[k-L+1:] with r2[:2L-1-k].  A stacked (P, 1, m) @
    (P, m, 1) matmul takes that same BLAS dot on each row's segments, so
    every column is convolve's to the bit.  A reversed view, with its
    negative stride, would take numpy's own loop and round differently.
    """
    size = f1.shape[1]
    out = np.empty((len(f1), len(cols)), dtype=complex)
    for c, k in enumerate(cols):
        lo1, hi1 = max(0, k - size + 1), min(size, k + 1)
        lo2, hi2 = max(0, size - 1 - k), min(size, 2 * size - 1 - k)
        out[:, c] = (f1[:, None, lo1:hi1] @ r2[:, lo2:hi2, None])[:, 0, 0]
    return out


def _grown(arr, size):
    """``arr`` if it has ``size`` rows, else with zero rows appended: at least as many as it has."""
    if size <= len(arr):
        return arr
    more = np.zeros((max(size, 2 * len(arr)) - len(arr), arr.shape[1]), dtype=arr.dtype)
    return np.concatenate((arr, more))


def _ways(legs1, legs2):
    """Leg-position subsets of the merged legs that hand ``legs1`` to the first factor."""
    ways = 1
    for j in set(legs1).intersection(legs2):
        ways *= math.comb(legs1.count(j) + legs2.count(j), legs1.count(j))
    return ways


def eo_run(curve, chi_max, kmax=None, extra_order=0):
    """All omega_{g,n} with 2g - 2 + n <= chi_max as bergman-basis tensors."""
    if chi_max < 1:
        raise ValueError("chi_max must be at least 1")
    if kmax is None:
        kmax = max_index_bound(chi_max)
    engine = _EoEngine(curve, chi_max, kmax, extra_order)
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
