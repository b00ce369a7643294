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

Each cell omega_{g,n} is evaluated only on its degree-bounded support: with
d_i = (k_i - 1) / 2, the tuples with sum d_i <= 3g - 3 + n.  Every other
entry vanishes exactly, because the pole orders of the lower cells leave the
residue nothing to pick up.  The series the residue is taken of does not
depend on the pivot index, so it is shared by all entries that differ only
in the pivot.  ``airy.atr_run`` keeps the full enumeration up to the index
bound 6g + 2n - 4: it is the independent oracle the two recursions are
checked against, so it must not rest on the same prune.
``support_bound_check`` evaluates the tuples beyond the degree bound and
reports the largest of them, which must be 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .airy import SgnTable, atr_run, default_index_bound, gauge_transform
from .errors import OutOfAnnulus, TruncationInsufficient
from .laurent import LaurentSeries


@dataclass
class LocalSpectralCurve:
    """Ramification labels plus local one-form and kernel data.

    ``denom[label]`` is the series D with D(z) dz the odd combination of the
    one-form; it must have only even exponents, a double zero at the origin
    and a nonzero z^2 coefficient.  ``bergman_reg`` maps mode pairs to the
    regular-part coefficients s^{(k,a)(k',b)} of the two-form and is symmetric.
    """

    ram: tuple
    denom: dict = field(default_factory=dict)
    bergman_reg: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ram = tuple(self.ram)
        for lab in self.ram:
            d = self.denom.get(lab)
            if d is None:
                self.denom[lab] = LaurentSeries.monomial(4.0, 2)
            else:
                if any(e % 2 for e in d.coeffs) or d.order() != 2 or d.get(2) == 0:
                    raise ValueError(
                        f"denom at {lab!r}: need an even series with a double zero "
                        "and nonzero z^2 coefficient")
        sym = {}
        for (m1, m2), v in self.bergman_reg.items():
            back = self.bergman_reg.get((m2, m1))
            if back is not None and abs(back - v) > 1e-12 * max(1.0, abs(v)):
                raise ValueError("bergman_reg is not symmetric")
            sym[(m1, m2)] = v
            sym[(m2, m1)] = v
        self.bergman_reg = sym


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
        val = 0j
        if blab == label:
            val += z ** (-k - 1)
        for (m1, m2), s in self.curve.bergman_reg.items():
            if m1 == mode and m2[1] == label:
                val += s * m2[0] * z ** (m2[0] - 1)
        return val

    def _check_annulus(self, z):
        lo, hi = self.annulus
        if not (lo <= abs(z) <= hi):
            raise OutOfAnnulus(f"|z| = {abs(z):.3g} outside trusted annulus [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# recursion engine
# ---------------------------------------------------------------------------

class _EoEngine:
    def __init__(self, curve, chi_max, kmax, extra_order=0):
        self.curve = curve
        self.chi_max = chi_max
        self.kmax = kmax
        # mode list restricted to odd indices (the output lives in the odd part)
        self.modes = [(k, lab) for lab in curve.ram for k in range(1, kmax + 1, 2)]
        self.index = {m: i for i, m in enumerate(self.modes)}
        self.dim = len(self.modes)
        self.lo = -(kmax + 3)
        self.hi = kmax + 5 + extra_order
        self.nlen = self.hi - self.lo + 1
        self.table = SgnTable(self.modes, basis_tag="bergman")
        self.degree = [(k - 1) // 2 for k, _ in self.modes]
        self.evaluated = 0          # tuples passed to compute_value by run()
        self._vec_cache = {}
        self._factor_cache = {}
        self._pair_cache = {}
        # pivot-free series and pair matrices of the cell being filled
        self._xi_cache = {}
        self._m2_cache = {}
        self._setup()

    def _setup(self):
        cur = self.curve
        self.loc_p = {}
        self.loc_m = {}
        self.b_pm = {}
        self.res_vec = {}
        for lab in cur.ram:
            lp = np.zeros((self.dim, self.nlen), dtype=complex)
            lm = np.zeros((self.dim, self.nlen), dtype=complex)
            for mi, mode in enumerate(self.modes):
                k, blab = mode
                if blab == lab and -k - 1 >= self.lo:
                    lp[mi, -k - 1 - self.lo] += 1.0
                    # differential at -z: (-z)^{-k-1} d(-z) = (-1)^k z^{-k-1} dz
                    lm[mi, -k - 1 - self.lo] += (-1.0) ** k
                for m2k in range(1, self.hi + 2):
                    s = cur.bergman_reg.get((mode, (m2k, lab)), 0j)
                    if s and m2k - 1 <= self.hi:
                        lp[mi, m2k - 1 - self.lo] += s * m2k
                        lm[mi, m2k - 1 - self.lo] += s * m2k * (-1.0) ** m2k
            self.loc_p[lab] = lp
            self.loc_m[lab] = lm
            # two-form with both arguments local: B(z, -z) / dz^2
            bpm = np.zeros(self.nlen, dtype=complex)
            bpm[-2 - self.lo] = -0.25
            for (m1, m2), s in cur.bergman_reg.items():
                if m1[1] == lab and m2[1] == lab:
                    e = m1[0] + m2[0] - 2
                    if e <= self.hi:
                        bpm[e - self.lo] += s * m1[0] * m2[0] * (-1.0) ** m2[0]
            self.b_pm[lab] = bpm
            # residue contraction against z^{k1} / D(z)
            inv_d = cur.denom[lab].inverse()
            needed = -1 - 1 - 2 * self.lo
            if inv_d.trunc_order < needed:
                raise TruncationInsufficient(
                    f"denom at {lab!r} truncated below order {needed + 4}")
            conv_len = 2 * self.nlen - 1
            vecs = {}
            for k1 in range(1, self.kmax + 1, 2):
                v = np.zeros(conv_len, dtype=complex)
                for j in range(conv_len):
                    e = 2 * self.lo + j
                    v[j] = inv_d.get(-1 - k1 - e)
                vecs[k1] = v
            self.res_vec[lab] = vecs

    # building blocks ---------------------------------------------------------

    def _fit(self, g, n, rest):
        """Modes within the degree budget 3g - 3 + n that ``rest`` leaves in omega_{g,n}."""
        budget = 3 * g - 3 + n - sum(self.degree[j] for j in rest)
        return [j for j in range(self.dim) if self.degree[j] <= budget]

    def _svec(self, g, n, rest):
        key = (g, n, rest)
        vec = self._vec_cache.get(key)
        if vec is None:
            table = self.table.entries.get((g, n), {})
            vec = np.zeros(self.dim, dtype=complex)
            for j in self._fit(g, n, rest):
                val = table.get(tuple(sorted((j,) + rest)))
                if val is not None:
                    vec[j] = val
            self._vec_cache[key] = vec
        return vec

    def _factor(self, g, n, legs, lab, minus):
        """Series of omega_{g,n}(q(+-z), legs) over the window, or None if it is 0."""
        key = (g, n, legs, lab, minus)
        if key not in self._factor_cache:
            vec = self._svec(g, n, tuple(sorted(legs)))
            mat = self.loc_m[lab] if minus else self.loc_p[lab]
            arr = vec @ mat
            self._factor_cache[key] = arr if np.any(arr) else None
        return self._factor_cache[key]

    def _f_leg(self, mode, lab, minus):
        """Series of the two-form with one local argument against leg ``mode``.

        None when the leg sits at another point or beyond the window.
        """
        k, blab = mode
        if blab != lab or k - 1 > self.hi:
            return None
        arr = np.zeros(self.nlen, dtype=complex)
        arr[k - 1 - self.lo] = k * ((-1.0) ** k if minus else 1.0)
        return arr

    def _pair_tensor(self, lab):
        """conv(loc_p[j1], loc_m[j2]) for all mode pairs, cached per point."""
        c2 = self._pair_cache.get(lab)
        if c2 is None:
            lp, lm = self.loc_p[lab], self.loc_m[lab]
            conv_len = 2 * self.nlen - 1
            c2 = np.zeros((self.dim, self.dim, conv_len), dtype=complex)
            for j1 in range(self.dim):
                for j2 in range(self.dim):
                    c2[j1, j2] = np.convolve(lp[j1], lm[j2])
            self._pair_cache[lab] = c2
        return c2

    def _pair_matrix(self, g, n, rest):
        """omega_{g,n}(j1, j2, rest) over all mode pairs, or None if it is 0."""
        key = (g, n, rest)
        if key not in self._m2_cache:
            table = self.table.entries.get((g, n), {})
            m2 = np.zeros((self.dim, self.dim), dtype=complex)
            for j1 in self._fit(g, n, rest):
                for j2 in self._fit(g, n, rest + (j1,)):
                    if j2 < j1:
                        continue
                    val = table.get(tuple(sorted((j1, j2) + rest)))
                    if val is not None:
                        m2[j1, j2] = m2[j2, j1] = val
            self._m2_cache[key] = m2 if np.any(m2) else None
        return self._m2_cache[key]

    def _xi(self, g, n, lab, rest):
        """Series whose residue against z^{k1} / D(z) gives the entry (k1, rest).

        It does not depend on the pivot index k1, so it is cached per cell.
        """
        key = (g, n, lab, rest)
        xi = self._xi_cache.get(key)
        if xi is not None:
            return xi
        conv_len = 2 * self.nlen - 1
        xi = np.zeros(conv_len, dtype=complex)
        # splitting terms (two-form legs allowed, one-form excluded)
        positions = range(n - 1)
        for g1 in range(g + 1):
            g2 = g - g1
            for r in range(n):
                for combo in itertools.combinations(positions, r):
                    n1, n2 = 1 + r, n - r
                    if (g1, n1) == (0, 1) or (g2, n2) == (0, 1):
                        continue
                    legs1 = tuple(rest[p] for p in combo)
                    if (g1, n1) == (0, 2):
                        f1 = self._f_leg(self.modes[legs1[0]], lab, minus=False)
                    else:
                        f1 = self._factor(g1, n1, legs1, lab, minus=False)
                    if f1 is None:
                        continue
                    legs2 = tuple(rest[p] for p in positions if p not in combo)
                    if (g2, n2) == (0, 2):
                        f2 = self._f_leg(self.modes[legs2[0]], lab, minus=True)
                    else:
                        f2 = self._factor(g2, n2, legs2, lab, minus=True)
                    if f2 is not None:
                        xi += np.convolve(f1, f2)
        # genus-reduction term
        if g >= 1:
            if (g - 1, n + 1) == (0, 2):
                pad = np.zeros(conv_len, dtype=complex)
                pad[-self.lo: -self.lo + self.nlen] = self.b_pm[lab]
                xi += pad
            else:
                m2 = self._pair_matrix(g - 1, n + 1, rest)
                if m2 is not None:
                    xi += np.einsum("jk,jkl->l", m2, self._pair_tensor(lab), optimize=True)
        self._xi_cache[key] = xi
        return xi

    def compute_value(self, g, n, idx, pivot_pos=0):
        k1, lab = self.modes[idx[pivot_pos]]
        rest = idx[:pivot_pos] + idx[pivot_pos + 1:]
        return -(self._xi(g, n, lab, rest) @ self.res_vec[lab][k1])

    def allowed(self, g, n):
        bound = default_index_bound(g, n)
        if bound > self.kmax:
            raise TruncationInsufficient(
                f"omega_{{{g},{n}}} needs indices up to {bound} > kmax={self.kmax}")
        return sorted(self.index[(k, lab)] for lab in self.curve.ram
                      for k in range(1, bound + 1, 2))

    def support(self, g, n):
        """Index tuples of omega_{g,n} with degrees summing to at most 3g - 3 + n.

        The degree of index k is d = (k - 1) / 2.  Tuples come in the order of
        ``combinations_with_replacement(allowed(g, n), n)``; every tuple
        beyond the degree bound has a zero entry.
        """
        allowed = self.allowed(g, n)
        degree = self.degree

        def extend(prefix, start, budget):
            if len(prefix) == n:
                yield prefix
                return
            for pos in range(start, len(allowed)):
                j = allowed[pos]
                if degree[j] <= budget:
                    yield from extend(prefix + (j,), pos, budget - degree[j])

        return extend((), 0, 3 * g - 3 + n)

    def run(self):
        for chi in range(1, self.chi_max + 1):
            for g in range(0, (chi + 1) // 2 + 1):
                n = chi + 2 - 2 * g
                if n < 1:
                    continue
                cell = {}
                for idx in self.support(g, n):
                    self.evaluated += 1
                    val = self.compute_value(g, n, idx)
                    if val != 0:
                        cell[idx] = val
                self.table.entries[(g, n)] = cell
                self.table.bounds[(g, n)] = default_index_bound(g, n)
                self._xi_cache.clear()
                self._m2_cache.clear()
        return self.table


def eo_run(curve, chi_max, kmax=None, extra_order=0):
    """All omega_{g,n} with 2g - 2 + n <= chi_max as bergman-basis tensors."""
    if chi_max < 1:
        raise ValueError("chi_max must be at least 1")
    if kmax is None:
        kmax = max(default_index_bound(g, chi + 2 - 2 * g)
                   for chi in range(1, chi_max + 1)
                   for g in range(0, (chi + 1) // 2 + 1)
                   if chi + 2 - 2 * g >= 1)
    engine = _EoEngine(curve, chi_max, kmax, extra_order)
    return OmegaGN(engine.run(), curve, engine)


def eo_symmetry_deviation(omega, rng=None):
    """Max pivot-change deviation over up to 120 sampled entries per cell."""
    rng = rng or np.random.default_rng(0)
    engine = omega.engine
    dev = 0.0
    for (g, n), cell in omega.table.entries.items():
        if n < 2:
            continue
        keys = list(cell)
        if not keys:
            continue
        picks = rng.choice(len(keys), size=min(120, len(keys)), replace=False)
        for p in picks:
            idx = keys[int(p)]
            pivot = int(rng.integers(1, n))
            dev = max(dev, abs(engine.compute_value(g, n, idx, pivot) - cell[idx]))
    return dev


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
        val = 0j
        if la == lb:
            val += 1.0 / (za - zb) ** 2
        for (m1, m2), s in omega.curve.bergman_reg.items():
            if m1[1] == la and m2[1] == lb:
                val += s * m1[0] * m2[0] * za ** (m1[0] - 1) * zb ** (m2[0] - 1)
        return val
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
    bound that ``eo_run`` enumerates; it must be exactly 0.
    """
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
        even_dev = 0.0
        # probe targets carrying one even-index leg (odd pivot): must vanish
        if n >= 2:
            lab = omega.curve.ram[0]
            for keven in range(2, min(bound, 6) + 1, 2):
                even_dev = max(even_dev, abs(_even_leg_probe(engine, g, n, keven, lab)))
        report[(g, n)] = {
            "max_index": max_idx,
            "bound": bound,
            "within_bound": max_idx <= bound,
            "even_leg_residual": even_dev,
            "outside_support_residual": outside,
        }
    return report


def _even_leg_probe(engine, g, n, k_even, lab):
    """Recursion value for a target with one even-index leg at ``lab``.

    With odd pivot, the only structurally nonzero contributions place the
    even leg on a two-form factor; tensor factors carrying it vanish by the
    odd support of every lower cell.  The probe must come out ~0.
    """
    k1 = 1
    conv_len = 2 * engine.nlen - 1
    xi = np.zeros(conv_len, dtype=complex)
    legs_rest = [(1, lab)] * (n - 2)
    for even_on_minus in (False, True):
        f_even = np.zeros(engine.nlen, dtype=complex)
        if k_even - 1 <= engine.hi:
            f_even[k_even - 1 - engine.lo] = k_even * ((-1.0) ** k_even if even_on_minus else 1.0)
        legs2 = tuple(sorted(engine.index[m] for m in legs_rest))
        if (g, n - 1) == (0, 1):
            continue
        if (g, n - 1) == (0, 2):
            other = engine._f_leg(engine.modes[legs2[0]], lab, minus=not even_on_minus)
        else:
            other = engine._factor(g, n - 1, legs2, lab, minus=not even_on_minus)
        if other is not None:
            xi += np.convolve(f_even, other)
    return -(xi @ engine.res_vec[lab][k1])


def atr_eo_crosscheck(tensors, gauge, chi_max, denom=None):
    """Componentwise max |S_atr - S_eo| between the two pipelines.

    ``tensors`` is a local-recursion tensor family; ``gauge`` carries the
    regular-part coefficients (c = d = identity for the bergman basis).  The
    local recursion uses the same regular part and the default odd one-form.
    """
    bar = gauge_transform(tensors, gauge)
    s_atr = atr_run(bar, chi_max)
    curve = LocalSpectralCurve(ram=tensors.ram, denom=denom or {},
                               bergman_reg=dict(gauge.s))
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
