"""Truncated one-variable Laurent series over complex coefficients.

A :class:`LaurentSeries` stores coefficients on a closed exponent window
``[min_exp, trunc_order]``.  Coefficients below ``min_exp`` are exactly zero;
coefficients above ``trunc_order`` are *unknown*, not zero.  Every operation
computes the tightest sound output window, so downstream consumers can trust
any coefficient they can read.  Convergence annuli are replaced by this
explicit truncation bookkeeping; all numerical tolerances downstream absorb
the resulting truncation error.

:class:`SeriesDifferential` wraps a series ``f`` interpreted as ``f(z) dz``.
It carries the residue, the formal primitive, the symplectic pairing
``Omega(f, g) = Res(f * int(g))`` and the square-root substitution flow
``z -> sqrt(z**2 + a)``.
"""

from __future__ import annotations

import cmath

from .errors import (
    BranchUndefined,
    DivisionByZeroSeries,
    NonzeroResidue,
    NotInvertible,
    TruncationInsufficient,
)

#: sentinel truncation order for exactly known series (polynomials, monomials)
EXACT = 10**9

#: relative tolerance used by residue-free checks
RESIDUE_FREE_RTOL = 1e-11


def _clamp(order):
    return EXACT if order >= EXACT else order


class LaurentSeries:
    """Laurent series sum_k c_k z**k known on the window [min_exp, trunc_order]."""

    __slots__ = ("coeffs", "min_exp", "trunc_order", "var")

    def __init__(self, coeffs, min_exp=None, trunc_order=EXACT, var="z"):
        trunc_order = _clamp(trunc_order)
        data = {}
        for e, c in dict(coeffs).items():
            if c != 0 and e <= trunc_order:
                data[int(e)] = complex(c)
        if min_exp is None:
            min_exp = min(data) if data else 0
        for e in data:
            if e < min_exp:
                raise ValueError("coefficient below the declared window floor")
        self.coeffs = data
        self.min_exp = int(min_exp)
        self.trunc_order = trunc_order
        self.var = var

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc_order=EXACT, var="z"):
        return cls({}, min_exp=0, trunc_order=trunc_order, var=var)

    @classmethod
    def monomial(cls, coeff, exp, trunc_order=EXACT, var="z"):
        return cls({exp: coeff}, min_exp=exp, trunc_order=trunc_order, var=var)

    @classmethod
    def from_list(cls, coeffs, start=0, trunc_order=None, var="z"):
        """Series sum coeffs[i] z**(start+i); trunc defaults to the last listed exponent."""
        if trunc_order is None:
            trunc_order = start + len(coeffs) - 1
        return cls({start + i: c for i, c in enumerate(coeffs)},
                   min_exp=start, trunc_order=trunc_order, var=var)

    # -- access ------------------------------------------------------------

    def get(self, exp):
        """Coefficient at ``exp``; zero outside the stored support (lenient)."""
        return self.coeffs.get(exp, 0j)

    def coeff(self, exp):
        """Coefficient at ``exp``; raises if the exponent is beyond the window."""
        if exp > self.trunc_order:
            raise TruncationInsufficient(
                f"coefficient at {self.var}^{exp} beyond truncation order {self.trunc_order}")
        return self.coeffs.get(exp, 0j)

    def __getitem__(self, exp):
        return self.coeff(exp)

    def order(self):
        """Lowest exponent with a nonzero coefficient (None for zero series)."""
        return min(self.coeffs) if self.coeffs else None

    def max_abs(self):
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return self.coeffs.items()

    def __repr__(self):
        terms = sorted(self.coeffs)[:6]
        body = " + ".join(f"({self.coeffs[e]:.3g}){self.var}^{e}" for e in terms)
        more = " + ..." if len(self.coeffs) > 6 else ""
        return f"<LaurentSeries {body or '0'}{more} | window [{self.min_exp},{self.trunc_order}]>"

    # -- ring operations ----------------------------------------------------

    def _wrap(self, coeffs, min_exp, trunc_order):
        return LaurentSeries(coeffs, min_exp=min_exp, trunc_order=trunc_order, var=self.var)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0j) + c
        return self._wrap(out, min(self.min_exp, other.min_exp),
                          min(self.trunc_order, other.trunc_order))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.coeffs.items()},
                          self.min_exp, self.trunc_order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor):
        factor = complex(factor)
        if factor == 0:
            return self._wrap({}, self.min_exp, self.trunc_order)
        return self._wrap({e: factor * c for e, c in self.coeffs.items()},
                          self.min_exp, self.trunc_order)

    def shift(self, k):
        """Multiply by z**k."""
        return self._wrap({e + k: c for e, c in self.coeffs.items()},
                          self.min_exp + k, _clamp(self.trunc_order + k))

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        if self.trunc_order >= EXACT and other.trunc_order >= EXACT:
            trunc = EXACT
        else:
            trunc = min(_clamp(self.trunc_order + other.min_exp),
                        _clamp(other.trunc_order + self.min_exp))
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= trunc:
                    out[e] = out.get(e, 0j) + c1 * c2
        return self._wrap(out, self.min_exp + other.min_exp, trunc)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if self.is_zero():
            raise DivisionByZeroSeries("inverse of the zero series")
        m = self.order()
        lead = self.coeffs[m]
        # N with strictly positive exponents: self = lead z^m (1 + N)
        n_trunc = _clamp(self.trunc_order - m)
        tail = {e - m: c / lead for e, c in self.coeffs.items() if e != m}
        geom = self._wrap({0: 1.0}, 0, n_trunc)
        if tail:
            n_ser = self._wrap(tail, min(tail), n_trunc)
            power = self._wrap({0: 1.0}, 0, n_trunc)
            sign = 1.0
            for _ in range(n_trunc // min(tail) + 1):
                power = power * n_ser
                sign = -sign
                if power.is_zero():
                    break
                geom = geom + power.scale(sign)
        return geom.scale(1.0 / lead).shift(-m)

    def __truediv__(self, other):
        if isinstance(other, LaurentSeries):
            return self * other.inverse()
        return self.scale(1.0 / complex(other))

    def __rtruediv__(self, other):
        return self.inverse().scale(complex(other))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("use pow_frac for fractional powers")
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentSeries({0: 1.0}, 0, self.trunc_order if n else EXACT, var=self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- composition and inversion ------------------------------------------

    def compose(self, g):
        """Substitute ``g`` (a series with min order >= 1) for the variable."""
        og = g.order()
        if og is None or og < 1:
            raise ValueError("composition requires g with order >= 1")
        neg = {e: c for e, c in self.coeffs.items() if e < 0}
        pos = {e: c for e, c in self.coeffs.items() if e >= 0}
        result = LaurentSeries.zero(trunc_order=min(self.trunc_order, g.trunc_order), var=g.var)
        if pos:
            top = max(pos)
            acc = LaurentSeries({0: pos.get(top, 0j)}, 0, EXACT, var=g.var)
            for e in range(top - 1, -1, -1):
                acc = acc * g
                ce = pos.get(e, 0j)
                if ce:
                    acc = acc + ce
            result = result + acc
        if neg:
            # Horner in 1/g, ascending from the most negative exponent
            ginv = g.inverse()
            bot = min(neg)
            acc = LaurentSeries({0: neg.get(bot, 0j)}, 0, EXACT, var=g.var)
            for e in range(bot + 1, 0):
                acc = acc * ginv
                ce = neg.get(e, 0j)
                if ce:
                    acc = acc + ce
            result = result + acc * ginv
        return result

    def functional_inverse(self):
        """Series h with self(h(z)) = z up to truncation; needs c1 != 0."""
        if self.get(0) != 0 or self.get(1) == 0:
            raise NotInvertible("functional inverse needs f = c1 z + O(z^2), c1 != 0")
        target = min(self.trunc_order, EXACT - 1)
        c1 = self.get(1)
        h = LaurentSeries({1: 1.0 / c1}, 1, 1, var=self.var)
        deriv = self.derivative()
        known = 1
        while known < target:
            prev = known
            known = min(2 * known, target)
            h = LaurentSeries(h.coeffs, 1, known, var=self.var)
            err = self.compose(h) - LaurentSeries.monomial(1.0, 1)
            # the error vanishes to order prev by Newton's quadratic convergence;
            # declaring that keeps the correction window sound up to `known`
            err = LaurentSeries({e: c for e, c in err.coeffs.items() if e > prev},
                                prev + 1, err.trunc_order, var=self.var)
            corr = err * deriv.compose(h).inverse()
            h = LaurentSeries({e: h.get(e) - corr.get(e)
                               for e in range(1, known + 1)}, 1, known, var=self.var)
        return h

    def pow_frac(self, p, q, branch=0):
        """Branch-selected series g with g**q = self**p.

        Requires self = c z^m (1 + O(z)) with m*p divisible by q; ``branch``
        indexes the q-th root of c**p.
        """
        if self.is_zero():
            raise DivisionByZeroSeries("fractional power of the zero series")
        q = int(q)
        p = int(p)
        if q <= 0:
            raise ValueError("q must be a positive integer")
        m = self.order()
        if (m * p) % q != 0:
            raise BranchUndefined(f"leading exponent {m} incompatible with power {p}/{q}")
        lead = self.coeffs[m]
        root = cmath.exp((p / q) * cmath.log(lead)) * cmath.exp(2j * cmath.pi * branch / q)
        n_trunc = _clamp(self.trunc_order - m)
        tail = {e - m: c / lead for e, c in self.coeffs.items() if e != m}
        out = self._wrap({0: 1.0}, 0, n_trunc)
        if tail:
            n_ser = self._wrap(tail, min(tail), n_trunc)
            power = self._wrap({0: 1.0}, 0, n_trunc)
            alpha = p / q
            order_n = min(tail)
            kmax = n_trunc // order_n + 1
            binom = 1.0
            for k in range(1, kmax + 1):
                binom *= (alpha - (k - 1)) / k
                power = power * n_ser
                if power.is_zero() or binom == 0.0:
                    break
                out = out + power.scale(binom)
        return out.scale(root).shift(m * p // q)

    # -- calculus -----------------------------------------------------------

    def derivative(self):
        return self._wrap({e - 1: e * c for e, c in self.coeffs.items() if e != 0},
                          self.min_exp - 1, _clamp(self.trunc_order - 1))

    def parity_split(self):
        """Return (odd, even) parts with matching windows."""
        odd = {e: c for e, c in self.coeffs.items() if e % 2}
        even = {e: c for e, c in self.coeffs.items() if not e % 2}
        return (self._wrap(odd, self.min_exp, self.trunc_order),
                self._wrap(even, self.min_exp, self.trunc_order))

    def parity_flip(self):
        """Substitute z -> -z."""
        return self._wrap({e: c * (-1) ** (e % 2) for e, c in self.coeffs.items()},
                          self.min_exp, self.trunc_order)

    def evaluate(self, z):
        """Numeric evaluation of the truncated sum at a complex point."""
        z = complex(z)
        return sum(c * z ** e for e, c in self.coeffs.items())


class SeriesDifferential:
    """Differential f(z) dz backed by the Laurent series ``base`` for f."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    @classmethod
    def e_basis(cls, k, trunc_order=EXACT):
        """e^k = z^{-k} dz/z, the k-th principal-part basis differential."""
        return cls(LaurentSeries.monomial(1.0, -k - 1, trunc_order))

    @classmethod
    def f_basis(cls, k, trunc_order=EXACT):
        """f_k = k z^k dz/z, the k-th regular basis differential."""
        return cls(LaurentSeries.monomial(float(k), k - 1, trunc_order))

    def residue(self):
        return self.base.get(-1)

    def is_residue_free(self, rtol=RESIDUE_FREE_RTOL):
        return abs(self.residue()) <= rtol * max(self.base.max_abs(), 1e-300)

    def primitive(self, rtol=RESIDUE_FREE_RTOL):
        """Term-by-term antiderivative with zero constant; residue must vanish."""
        if not self.is_residue_free(rtol):
            raise NonzeroResidue(f"residue {self.residue():.3e} is not negligible")
        coeffs = {e + 1: c / (e + 1) for e, c in self.base.coeffs.items() if e != -1}
        return LaurentSeries(coeffs, self.base.min_exp + 1,
                             _clamp(self.base.trunc_order + 1), var=self.base.var)

    def __add__(self, other):
        return SeriesDifferential(self.base + other.base)

    def __sub__(self, other):
        return SeriesDifferential(self.base - other.base)

    def __neg__(self):
        return SeriesDifferential(-self.base)

    def scale(self, factor):
        return SeriesDifferential(self.base.scale(factor))

    def parity_flip(self):
        """The differential evaluated at -z: f(-z) d(-z)."""
        return SeriesDifferential(self.base.parity_flip().scale(-1.0))

    def __repr__(self):
        return f"<SeriesDifferential {self.base!r} dz>"


def symplectic_pairing(xi1, xi2, rtol=RESIDUE_FREE_RTOL):
    """Omega(xi1, xi2) = Res_{z=0}(xi1 * int(xi2)) for residue-free differentials."""
    if not xi1.is_residue_free(rtol):
        raise NonzeroResidue("first argument carries a residue")
    prim = xi2.primitive(rtol)
    total = 0j
    for e, c in xi1.base.coeffs.items():
        other = prim.coeffs.get(-1 - e)
        if other is not None:
            total += c * other
    return total


def sqrt_shift_flow(xi, a, min_exp=None):
    """Substitute z -> sqrt(z**2 + a) in the differential ``xi``.

    For xi = f(z) dz the result is f(h) dh with h = sqrt(z**2 + a), expanded
    as a Laurent series on an annulus |z| > sqrt(|a|).  The output window
    floor defaults to -(trunc_order + 4); contributions discarded below it
    scale like a**((e - floor)/2) and are absorbed by downstream tolerances.
    Residue-free inputs map to residue-free outputs.
    """
    a = complex(a)
    f = xi.base
    if a == 0:
        return SeriesDifferential(f)
    trunc = f.trunc_order
    top = max((e for e in f.coeffs), default=0)
    if min_exp is None:
        min_exp = -(abs(top) + 40)
    out = {}
    # coefficient of z^e collects f[e + 2j] * binom((e + 2j - 1)/2, j) * a^j
    for k, c in f.coeffs.items():
        half = (k - 1) / 2.0
        binom = 1.0
        aj = 1.0 + 0j
        e = k
        j = 0
        while e >= min_exp:
            if j > 0:
                binom *= (half - (j - 1)) / j
                aj *= a
                if binom == 0.0:
                    break
            val = c * binom * aj
            if val != 0:
                out[e] = out.get(e, 0j) + val
            j += 1
            e = k - 2 * j
    base = LaurentSeries(out, min_exp=min(min_exp, min(out) if out else 0),
                         trunc_order=trunc, var=f.var)
    return SeriesDifferential(base)
