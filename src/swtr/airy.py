"""Residue-constraint quadratic Hamiltonians as sparse tensor families.

The mode space is indexed by pairs ``(k, label)`` with ``k >= 1`` and
``label`` ranging over a finite set of ramification labels.  An element of
the symplectic series space carries one residue-free Laurent differential per
label; its coordinates are ``x^{k,a} = J_{-k}/k`` (regular modes) and
``y_{k,a} = J_{+k}`` (principal modes), where ``J_m`` is the coefficient of
``z^m dz/z``.

Two tensor families are built here:

* the residue-constraint family, with closed forms
  ``a_{111} = 1/4``, ``b_{ij}^{i+j-3} = j/4`` (first index odd),
  ``c_{j+k+3}^{jk} = 1/4`` (j+k even) and ``eps_3 = 1/16``;
* its local-recursion variant, whose entries are residues of the same
  quadratic integrands with the third factor evaluated at ``-z``.

Both families are block-diagonal across labels.  The abstract recursion
``atr_run`` consumes a tensor family and produces the symmetric coefficient
tensors S_{g,n}; gauge transformations mix the regular/principal splitting
through a triple ``(c, d, s)``.  Its cell bookkeeping (mode numbering,
index bound, allowed modes and support, pivot sampler) is
``_CellRecursion``, which the local recursion ``spectral._EoEngine``
shares, with the leg splits ``_splits``; each engine has its own ``run``.
Only the local one prunes, to the tuples within the degree bound whose
rest its lower cells reach, while ``atr_run`` evaluates every tuple.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDisc, InvalidGauge, TruncationInsufficient
from .laurent import LaurentSeries, SeriesDifferential, sqrt_shift_flow

def make_modes(kmax, ram):
    """Canonical mode enumeration: labels in given order, k = 1..kmax."""
    return [(k, a) for a in ram for k in range(1, kmax + 1)]


# ---------------------------------------------------------------------------
# tensor container
# ---------------------------------------------------------------------------

@dataclass
class AiryTensors:
    """Dense tensors (a, b, c, eps) over the flattened mode space.

    Index conventions: ``a[i,j,k]`` all lower and fully symmetric;
    ``b[i,j,k]`` lower (i, j), upper k, no symmetry; ``c[i,j,k]`` lower i,
    upper (j, k) symmetric; ``eps[i]`` lower.
    """

    kmax: int
    ram: tuple
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    eps: np.ndarray
    modes: list = field(default_factory=list)

    def __post_init__(self):
        if not self.modes:
            self.modes = make_modes(self.kmax, self.ram)
        self.index = {m: i for i, m in enumerate(self.modes)}

    @property
    def dim(self):
        return len(self.modes)

    def mode(self, k, label):
        return self.index[(k, label)]

    def check_symmetries(self, tol=1e-12):
        """a symmetric in all indices, c symmetric in its upper pair."""
        a, c = self.a, self.c
        dev = 0.0
        for perm in itertools.permutations((0, 1, 2)):
            dev = max(dev, float(np.max(np.abs(a - np.transpose(a, perm)))))
        dev_c = float(np.max(np.abs(c - np.transpose(c, (0, 2, 1)))))
        return max(dev, dev_c) <= tol, {"a_symmetry": dev, "c_upper_symmetry": dev_c}

    def structure_constants(self):
        """g^k_{ij} = 2 (b^k_{ij} - b^k_{ji})."""
        return 2.0 * (self.b - np.transpose(self.b, (1, 0, 2)))


def _residue_entry(kind, i, j, k, tr_variant):
    """Tensor entry as a series residue of the quadratic integrand.

    ``kind`` selects the factor types: "a" -> f_i f_j f_k, "b" -> f_i f_j e^k,
    "c" -> f_i e^j e^k.  The third factor is evaluated at -z for the local
    recursion variant.  Entries with even first index vanish.  The overall
    prefactor is 1/(4i) for the residue-constraint family and -1/(4i) for the
    variant; the two choices make each family match its defining Hamiltonians.
    """
    if i % 2 == 0:
        return 0j
    u_i = SeriesDifferential.f_basis(i)
    u_j = SeriesDifferential.f_basis(j) if kind in ("a", "b") else SeriesDifferential.e_basis(j)
    u_k = SeriesDifferential.f_basis(k) if kind == "a" else SeriesDifferential.e_basis(k)
    third = u_k.parity_flip() if tr_variant else u_k
    sign = -1.0 if tr_variant else 1.0
    # residue of [u_i u_j u_third / (z dz^2)] dz = coefficient of z^0 in the
    # product of the three dz-coefficient functions
    integrand = u_i.base * u_j.base * third.base
    return sign / (4.0 * i) * integrand.get(0)


def residue_constraint_entry(kind, i, j, k):
    """Residue-formula evaluation for the residue-constraint family."""
    return _residue_entry(kind, i, j, k, tr_variant=False)


def tr_variant_entry(kind, i, j, k):
    """Residue-formula evaluation for the local-recursion variant."""
    return _residue_entry(kind, i, j, k, tr_variant=True)


def _build_family(kmax, ram, tr_variant, validate):
    if kmax < 5:
        raise ValueError("kmax must be at least 5")
    ram = tuple(ram)
    modes = make_modes(kmax, ram)
    dim = len(modes)
    a = np.zeros((dim, dim, dim), dtype=complex)
    b = np.zeros((dim, dim, dim), dtype=complex)
    c = np.zeros((dim, dim, dim), dtype=complex)
    eps = np.zeros(dim, dtype=complex)
    index = {m: i for i, m in enumerate(modes)}
    for lab in ram:
        ia1 = index[(1, lab)]
        a[ia1, ia1, ia1] = 0.25
        if kmax >= 3:
            eps[index[(3, lab)]] = 1.0 / 16.0
        for i in range(1, kmax + 1, 2):
            for j in range(1, kmax + 1):
                k = i + j - 3
                if 1 <= k <= kmax:
                    val = j / 4.0
                    if tr_variant and j % 2 == 0:
                        val = -val
                    b[index[(i, lab)], index[(j, lab)], index[(k, lab)]] = val
            for jj in range(1, kmax + 1):
                kk = i - jj - 3
                if 1 <= kk <= kmax and (jj + kk) % 2 == 0:
                    val = 0.25
                    if tr_variant and jj % 2 == 0:
                        val = -val
                    c[index[(i, lab)], index[(jj, lab)], index[(kk, lab)]] = val
    t = AiryTensors(kmax=kmax, ram=ram, a=a, b=b, c=c, eps=eps, modes=modes)
    if validate:
        _validate_family(t, tr_variant)
    return t


def residue_formula_deviation(t, bound, tr_variant=False):
    """(|stored - residue formula|, (kind, i, j, k, stored)) of the worst a, b, c entry.

    Entries at the first label with indices up to ``bound`` are compared.
    """
    entry = tr_variant_entry if tr_variant else residue_constraint_entry
    lab = t.ram[0]
    worst = (-1.0, None)
    for i, j, k in itertools.product(range(1, bound + 1), repeat=3):
        ii, jj, kk = t.mode(i, lab), t.mode(j, lab), t.mode(k, lab)
        for kind, family in (("a", t.a), ("b", t.b), ("c", t.c)):
            dev = abs(family[ii, jj, kk] - entry(kind, i, j, k))
            if dev > worst[0]:
                worst = (dev, (kind, i, j, k, family[ii, jj, kk]))
    return worst


def _validate_family(t, tr_variant):
    """Every entry with indices up to 9 against its residue formula."""
    dev, (kind, i, j, k, stored) = residue_formula_deviation(t, min(9, t.kmax), tr_variant)
    if dev > 1e-13:
        raise AssertionError(f"{kind}[{i},{j},{k}] = {stored} disagrees with residue formula"
                             f" by {dev:.2e}")


def build_residue_constraint_tensors(kmax, ram=("0",), validate=True):
    """Closed-form residue-constraint tensors, block-diagonal across labels."""
    return _build_family(kmax, ram, False, validate)


def build_tr_variant_tensors(kmax, ram=("0",), validate=True):
    """Local-recursion variant tensors (third integrand factor at -z)."""
    return _build_family(kmax, ram, True, validate)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def _identity_plus(entries, modes, index):
    """The identity over ``modes`` with the sparse {(row mode, column mode): value} written over it."""
    mat = np.eye(len(modes), dtype=complex)
    for (row, col), v in entries.items():
        mat[index[row], index[col]] = v
    return mat


@dataclass
class GaugeData:
    """Change of canonical basis: new-basis indices are identified with modes.

    ``c`` and ``d`` map (upper_mode, lower_mode) -> value, sparse with an
    implicit identity; ``s`` is a symmetric matrix (mode, mode) -> value.
    ``i_cutoff`` is the k beyond which every column of c and d is exactly the
    identity column.
    """

    c: dict = field(default_factory=dict)
    d: dict = field(default_factory=dict)
    s: dict = field(default_factory=dict)
    i_cutoff: int = 0

    def c_matrix(self, modes, index):
        return _identity_plus(self.c, modes, index)

    def d_matrix(self, modes, index):
        return _identity_plus(self.d, modes, index)

    def s_matrix(self, modes, index):
        mat = np.zeros((len(modes), len(modes)), dtype=complex)
        for (m1, m2), v in self.s.items():
            mat[index[m1], index[m2]] = v
            mat[index[m2], index[m1]] = v
        return mat


@dataclass
class GaugeReport:
    conditions: list

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.conditions)

    def residual(self, name):
        for n, _, r in self.conditions:
            if n == name:
                return r
        raise KeyError(name)


def validate_gauge(g, modes, tol=1e-12):
    """Numeric report on the admissibility conditions for (c, d, s)."""
    index = {m: i for i, m in enumerate(modes)}
    cm = g.c_matrix(modes, index)
    dm = g.d_matrix(modes, index)
    ident = np.eye(len(modes))
    r_inv = max(float(np.max(np.abs(cm @ dm - ident))),
                float(np.max(np.abs(dm @ cm - ident))))
    r_cut = 0.0
    for (old, new), v in g.c.items():
        if new[0] > g.i_cutoff:
            r_cut = max(r_cut, abs(v - (1.0 if old == new else 0.0)))
    for (new, old), v in g.d.items():
        if new[0] > g.i_cutoff:
            r_cut = max(r_cut, abs(v - (1.0 if old == new else 0.0)))
    r_sym = 0.0
    for (m1, m2), v in g.s.items():
        r_sym = max(r_sym, abs(v - g.s.get((m2, m1), v)))
    return GaugeReport(conditions=[
        ("c_d_inverse", r_inv <= tol, r_inv),
        ("identity_beyond_cutoff", r_cut <= tol, r_cut),
        ("s_symmetric", r_sym <= tol, r_sym),
    ])


def gauge_transform(t, g, tol=1e-12):
    """Transform (a, b, c, eps) under the basis change encoded by (c, d, s)."""
    report = validate_gauge(g, t.modes, tol)
    if not report.passed:
        raise InvalidGauge(f"gauge conditions failed: {report.conditions}")
    cm = g.c_matrix(t.modes, t.index)   # cm[J, i] = c^J_i
    dm = g.d_matrix(t.modes, t.index)   # dm[i, J] = d^i_J
    sm = g.s_matrix(t.modes, t.index)
    a_bar = np.einsum("JKL,Ji,Kj,Lk->ijk", t.a, cm, cm, cm, optimize=True)
    b_core = t.b + np.einsum("JKp,pL->JKL", t.a, sm, optimize=True)
    b_bar = np.einsum("JKL,Ji,Kj,kL->ijk", b_core, cm, cm, dm, optimize=True)
    c_core = (t.c
              + np.einsum("JpL,pK->JKL", t.b, sm, optimize=True)
              + np.einsum("JqK,qL->JKL", t.b, sm, optimize=True)
              + np.einsum("Jpq,pK,qL->JKL", t.a, sm, sm, optimize=True))
    c_bar = np.einsum("JKL,Ji,jK,kL->ijk", c_core, cm, dm, dm, optimize=True)
    eps_bar = np.einsum("J,Ji->i", t.eps + np.einsum("Jpq,pq->J", t.a, sm), cm,
                        optimize=True)
    return AiryTensors(kmax=t.kmax, ram=t.ram, a=a_bar, b=b_bar, c=c_bar,
                       eps=eps_bar, modes=list(t.modes))


# ---------------------------------------------------------------------------
# elements of the symplectic series space
# ---------------------------------------------------------------------------

class WElement:
    """Labeled family of residue-free Laurent differentials, one per label."""

    def __init__(self, series_by_label):
        self.series = dict(series_by_label)
        for lab, xi in self.series.items():
            if not xi.is_residue_free():
                raise ValueError(f"series at label {lab!r} carries a residue")

    def j_coord(self, m, label):
        """Coefficient of z^m dz/z at the given label (m any nonzero integer)."""
        return self.series[label].base.get(-m - 1)

    def x(self, k, label):
        """Regular-mode coordinate x^{k,label} = J_{-k}/k."""
        return self.series[label].base.get(k - 1) / k

    def y(self, k, label):
        """Principal-mode coordinate y_{k,label} = J_{+k}."""
        return self.series[label].base.get(-k - 1)

    def mode_vectors(self, modes):
        xv = np.array([self.x(k, lab) if lab in self.series else 0j for k, lab in modes])
        yv = np.array([self.y(k, lab) if lab in self.series else 0j for k, lab in modes])
        return xv, yv


def eval_hamiltonians(w, i_max, variant="residue_constraints"):
    """Hamiltonian values H_{(i,label)} as residues of the quadratic integrand.

    The values are computed directly from the defining residues, never from
    the tensor expansion; agreement with the tensors is a cross-check.
    """
    out = {}
    for lab, xi in w.series.items():
        big_w = xi.base
        half = big_w.shift(-1).scale(-0.5)
        a_ser = LaurentSeries.monomial(1.0, 1) + half
        if variant == "residue_constraints":
            a_sq = a_ser * a_ser
            for i in range(1, i_max + 1):
                if i % 2:
                    out[(i, lab)] = a_sq.get(-i - 1)
                else:
                    out[(i, lab)] = 2.0 * a_ser.get(-i - 2)
        elif variant == "tr_variant":
            half_flip = big_w.parity_flip().shift(-1).scale(-0.5)
            a_tilde = LaurentSeries.monomial(1.0, 1) + half_flip
            prod = a_ser * a_tilde
            for i in range(1, i_max + 1):
                if i % 2:
                    out[(i, lab)] = prod.get(-i - 1)
                else:
                    out[(i, lab)] = 2.0 * a_ser.get(-i)
        else:
            raise ValueError(f"unknown variant {variant!r}")
    return out


def hamiltonians_from_tensors(w, t):
    """Cross-check assembly H_i = -y_i + a xx + 2 b xy + c yy from tensors."""
    xv, yv = w.mode_vectors(t.modes)
    h = (-yv
         + np.einsum("ijk,j,k->i", t.a, xv, xv, optimize=True)
         + 2.0 * np.einsum("ijk,j,k->i", t.b, xv, yv, optimize=True)
         + np.einsum("ijk,j,k->i", t.c, yv, yv, optimize=True))
    return {m: h[idx] for idx, m in enumerate(t.modes)}


def embed_disc(a, y_series, label="0", min_exp=-80):
    """Disc-deformation image in the symplectic series space.

    The disc (x = z^2 + a, y = y_series(z)) with tangency order 1 maps to
    ``z d(z^2) - [y d(z^2) pulled back along z -> sqrt(z^2 - a)]``, expanded
    on an annulus.  The result is residue-free and annihilates every
    residue-constraint Hamiltonian up to truncation error.
    """
    if abs(y_series.get(1)) == 0:
        raise DegenerateDisc("linear coefficient b1 must be nonzero")
    base = y_series.shift(1).scale(2.0)  # y(z) d(z^2) = 2 z y(z) dz
    flowed = sqrt_shift_flow(SeriesDifferential(base), -a, min_exp=min_exp)
    phi = SeriesDifferential(LaurentSeries.monomial(2.0, 2)) - flowed
    return WElement({label: phi})


# ---------------------------------------------------------------------------
# abstract recursion on tensor coefficients
# ---------------------------------------------------------------------------

def default_index_bound(g, n):
    """Index bound for the support of S_{g,n} in the normalized gauge."""
    return 6 * g + 2 * n - 4


def max_index_bound(chi_max):
    """Largest 6g + 2n - 4 of the cells up to chi_max; even, so one above the top odd mode."""
    return max(default_index_bound(g, n) for g, n in recursion_cells(chi_max))


class SgnTable:
    """Map (g, n) -> symmetric coefficient tensor, stored on sorted tuples."""

    def __init__(self, modes, basis_tag="canonical"):
        self.modes = list(modes)
        self.index = {m: i for i, m in enumerate(self.modes)}
        self.basis_tag = basis_tag
        self.entries = {}
        self.bounds = {}

    def value(self, g, n, idx_modes):
        if any(m not in self.index for m in idx_modes):
            return 0j
        key = tuple(sorted(self.index[m] for m in idx_modes))
        return self.entries.get((g, n), {}).get(key, 0j)

    def cells(self):
        return sorted(self.entries)

    def max_abs(self, g, n):
        table = self.entries.get((g, n), {})
        return max((abs(v) for v in table.values()), default=0.0)

    def rows(self):
        """Flat rows (g, n, mode tuple, value) for serialization."""
        out = []
        for (g, n) in self.cells():
            for key, val in sorted(self.entries[(g, n)].items()):
                out.append((g, n, tuple(self.modes[i] for i in key), val))
        return out


def recursion_cells(chi_max):
    """Cells (g, n) with 1 <= 2g - 2 + n <= chi_max, by increasing chi, then g."""
    return [(g, chi + 2 - 2 * g) for chi in range(1, chi_max + 1)
            for g in range((chi + 1) // 2 + 1)]


@functools.cache
def _splits(g, n):
    """Ways to share the genus and the n - 1 non-pivot legs of a (g, n) entry.

    Entries ``(g1, n1, pos1, g2, n2, pos2)``: the first factor is a (g1, n1)
    cell carrying the legs at positions ``pos1`` of the non-pivot legs, the
    second a (g2, n2) cell carrying those at ``pos2``.  Splits with a (0, 1)
    factor are left out; the order is that of the recursion's sum.
    """
    positions = range(n - 1)
    return tuple(
        (g1, 1 + r, pos1, g - g1, n - r, tuple(p for p in positions if p not in pos1))
        for g1 in range(g + 1) for r in range(n)
        for pos1 in itertools.combinations(positions, r)
        if (g1, 1 + r) != (0, 1) and (g - g1, n - r) != (0, 1))


class _CellRecursion:
    """Bookkeeping shared by the abstract and the local recursion.

    The mode numbering, the per-index bound, the allowed modes and the
    support of a cell, and the pivot sampler.  A subclass supplies ``run``,
    which fills the cells in the order of ``recursion_cells``, and
    ``compute_value(g, n, idx, pivot_pos)``, one entry with any leg as the
    pivot, which ``pivot_deviation`` samples: the abstract recursion fills
    each cell by it, tuple by tuple, and the local recursion fills a whole
    level of cells at once, on the rests their lower cells reach, keeping
    ``compute_value`` as its per-entry reference.
    """

    seeded = ()         # cells given as initial data, not by the recursion

    def __init__(self, modes, ram, kmax, chi_max, step, basis_tag):
        self.table = SgnTable(modes, basis_tag)
        self.modes, self.index = self.table.modes, self.table.index
        self.dim = len(self.modes)
        self.ram = tuple(ram)
        self.kmax = kmax
        self.chi_max = chi_max
        self.step = step            # 2 when only odd modes enter the recursion
        self.evaluated = 0          # tuples run() evaluated: the support, or the reached ones

    def index_bound(self, g, n):
        """The per-index bound 6g + 2n - 4 of a cell; TruncationInsufficient above kmax."""
        bound = default_index_bound(g, n)
        if bound > self.kmax:
            raise TruncationInsufficient(
                f"cell ({g}, {n}) needs indices up to {bound} > kmax={self.kmax}")
        return bound

    def allowed(self, g, n):
        """Sorted mode indices up to the per-index bound 6g + 2n - 4 of a cell."""
        return sorted(self.index[(k, lab)] for lab in self.ram
                      for k in range(1, self.index_bound(g, n) + 1, self.step))

    def support(self, g, n):
        """Index tuples the recursion evaluates for a cell: every sorted tuple here."""
        return itertools.combinations_with_replacement(self.allowed(g, n), n)

    def pivot_deviation(self, rng, samples):
        """Max |entry - its value with another pivot| over sampled entries.

        Up to ``samples`` stored entries per recursion cell with n >= 2 are
        drawn, each recomputed with a random non-first pivot.
        """
        dev = 0.0
        for (g, n), cell in self.table.entries.items():
            if n < 2 or (g, n) in self.seeded or not cell:
                continue
            keys = list(cell)
            picks = rng.choice(len(keys), size=min(samples, len(keys)), replace=False)
            for p in picks:
                idx = keys[int(p)]
                pivot = int(rng.integers(1, n))
                dev = max(dev, abs(self.compute_value(g, n, idx, pivot) - cell[idx]))
        return dev


def _tensors_preserve_odd(t):
    """True when the recursion stays inside the odd-mode substructure."""
    odd = np.array([k % 2 == 1 for k, _ in t.modes])
    even = ~odd
    return not (np.any(t.a[even]) or np.any(t.a[:, even]) or np.any(t.a[:, :, even])
                or np.any(t.eps[even])
                # upper k odd must force lower (i, j) odd
                or np.any(t.b[even][:, :, odd]) or np.any(t.b[:, even][:, :, odd])
                # upper (j, k) odd must force lower i odd
                or np.any(t.c[even][:, odd][:, :, odd]))


class _AtrEngine(_CellRecursion):
    """Abstract recursion: tensor contractions on every tuple up to the index bound.

    ``run`` fills the cells in the order of ``recursion_cells``, each by
    ``_cell``.  Per entry, lower cells are read through ``_svec`` (one free
    index) and ``_pair_matrix`` (two free indices), over every mode.
    ``_cell_cache`` holds what only the cell being filled reads.
    """

    seeded = ((0, 3), (1, 1))

    def __init__(self, t, chi_max):
        step = 2 if _tensors_preserve_odd(t) else 1
        super().__init__(t.modes, t.ram, t.kmax, chi_max, step, "canonical")
        self.t = t
        self._vec_cache = {}
        self._cell_cache = {}

    def run(self):
        for g, n in recursion_cells(self.chi_max):
            self.table.entries[(g, n)] = self._cell(g, n)
            self.table.bounds[(g, n)] = default_index_bound(g, n)
            self._cell_cache.clear()
        return self.table

    def _cell(self, g, n):
        """Nonzero values of a cell: seeded for (0, 3) and (1, 1), else on its support."""
        t = self.t
        if (g, n) == (0, 3):        # S_{0,3} = 2a
            return {idx: val for idx in self.support(0, 3) if (val := 2.0 * t.a[idx]) != 0}
        if (g, n) == (1, 1):        # S_{1,1} = eps
            return {(i,): t.eps[i] for i in self.allowed(1, 1) if t.eps[i] != 0}
        cell = {}
        for idx in self.support(g, n):
            self.evaluated += 1
            val = self.compute_value(g, n, idx)
            if val != 0:
                cell[idx] = val
        return cell

    def _svec(self, g, n, rest):
        """Entries (j, rest) of a cell over every mode j."""
        key = (g, n, rest)
        vec = self._vec_cache.get(key)
        if vec is None:
            table = self.table.entries.get((g, n), {})
            vec = np.zeros(self.dim, dtype=complex)
            for j in range(self.dim):
                val = table.get(tuple(sorted((j,) + rest)))
                if val is not None:
                    vec[j] = val
            self._vec_cache[key] = vec
        return vec

    def _pair_matrix(self, g, n, rest):
        """Entries (j1, j2, rest) of a cell over all mode pairs, or None if all are 0."""
        key = ("pair", g, n, rest)
        if key not in self._cell_cache:
            table = self.table.entries.get((g, n), {})
            m2 = np.zeros((self.dim, self.dim), dtype=complex)
            for j1 in range(self.dim):
                for j2 in range(j1, self.dim):
                    val = table.get(tuple(sorted((j1, j2) + rest)))
                    if val is not None:
                        m2[j1, j2] = m2[j2, j1] = val
            self._cell_cache[key] = m2 if np.any(m2) else None
        return self._cell_cache[key]

    def compute_value(self, g, n, idx, pivot_pos=0):
        """Recursion value for S_{g,n} at the (sorted) flat-index tuple."""
        t = self.t
        i1 = idx[pivot_pos]
        rest = idx[:pivot_pos] + idx[pivot_pos + 1:]
        total = 0j
        for pos in range(n - 1):
            vec = self._svec(g, n - 1, rest[:pos] + rest[pos + 1:])
            total += 2.0 * (t.b[i1, rest[pos], :] @ vec)
        for g1, n1, pos1, g2, n2, pos2 in _splits(g, n):
            # splits with a (0, 2) factor are the b term above
            if (g1, n1) == (0, 2) or (g2, n2) == (0, 2):
                continue
            v1 = self._svec(g1, n1, tuple(rest[p] for p in pos1))
            v2 = self._svec(g2, n2, tuple(rest[p] for p in pos2))
            total += v1 @ t.c[i1] @ v2
        if g >= 1:
            m2 = self._pair_matrix(g - 1, n + 1, rest)
            if m2 is not None:
                total += np.einsum("jk,jk->", t.c[i1], m2)
        return total


def atr_run(t, chi_max):
    """All S_{g,n} with 2g - 2 + n <= chi_max from the abstract recursion.

    The per-cell index bound is 6g + 2n - 4, which is the support bound for
    the built-in families and their regular-part gauge transformations
    (identity c, d).  Only odd modes are enumerated when the tensors keep the
    recursion inside the odd-mode substructure.
    """
    if chi_max < 1:
        raise ValueError("chi_max must be at least 1")
    return _AtrEngine(t, chi_max).run()


def symmetry_deviation(table, t):
    """Max |S(pivot 0) - S(other pivot)| over up to 200 seeded samples per cell."""
    engine = _AtrEngine(t, 1)
    engine.table = table
    return engine.pivot_deviation(np.random.default_rng(0), 200)
