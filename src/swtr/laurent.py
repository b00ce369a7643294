"""Truncated one-variable Laurent series over complex coefficients.

A :class:`LaurentSeries` stores coefficients on a closed exponent window
``[min_exp, trunc_order]``.  Coefficients below ``min_exp`` are exactly zero;
coefficients above ``trunc_order`` are *unknown*, not zero.  Every operation
computes the tightest sound output window, so downstream consumers can trust
any coefficient they can read.  Convergence annuli are replaced by this
explicit truncation bookkeeping; all numerical tolerances downstream absorb
the resulting truncation error.  The terms are one complex array from the
first to the last nonzero coefficient, never out to ``trunc_order``; an exact
zero inside it is an absent term.  Products are ``np.convolve`` cut to the window,
and every series is in the variable z.

:class:`SeriesDifferential` wraps a series ``f`` interpreted as ``f(z) dz``.
It carries the residue, the formal primitive, the symplectic pairing
``Omega(f, g) = Res(f * int(g))`` and the square-root substitution flow
``z -> sqrt(z**2 + a)``.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
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


def _horner(poly, x):
    """sum poly[i] x**i for i >= 0 by Horner's rule from the top term; absent keys are zero."""
    top = max(poly)
    acc = LaurentSeries({0: poly[top]}, 0, EXACT)
    for i in range(top - 1, -1, -1):
        acc = acc * x
        if poly.get(i):
            acc = acc + poly[i]
    return acc


class LaurentSeries:
    """Laurent series sum_k c_k z**k known on [min_exp, trunc_order]; ``_c[i]`` is c_{_lo+i}."""

    __slots__ = ("_c", "_lo", "min_exp", "trunc_order")

    def __init__(self, coeffs, min_exp=None, trunc_order=EXACT):
        trunc_order = _clamp(trunc_order)
        terms = {int(e): complex(c) for e, c in dict(coeffs).items() if c and e <= trunc_order}
        lo = min(terms, default=0)
        arr = np.zeros(max(terms, default=lo - 1) - lo + 1, dtype=complex)
        arr[[e - lo for e in terms]] = list(terms.values())
        if min_exp is None:
            min_exp = lo
        elif terms and lo < min_exp:
            raise ValueError("coefficient below the declared window floor")
        self._set(arr, lo, min_exp, trunc_order)

    def _set(self, arr, lo, min_exp, trunc_order):
        """Store ``arr`` (from z**lo) cut to the window and trimmed to its nonzero span."""
        trunc_order = _clamp(trunc_order)
        nz = arr[:max(trunc_order - lo + 1, 0)].nonzero()[0]
        self._c, self._lo = (arr[nz[0]:nz[-1] + 1], lo + int(nz[0])) if len(nz) else (arr[:0], 0)
        self.min_exp, self.trunc_order = int(min_exp), trunc_order

    @staticmethod
    def _wrap(arr, lo, min_exp, trunc_order):
        """The series with terms ``arr`` from z**lo, known on [min_exp, trunc_order]."""
        out = object.__new__(LaurentSeries)
        out._set(arr, lo, min_exp, trunc_order)
        return out

    def _window(self, min_exp, trunc_order):
        """The terms from z**min_exp on, declared known on [min_exp, trunc_order]."""
        start = max(min_exp - self._lo, 0)
        return self._wrap(self._c[start:], self._lo + start, min_exp, trunc_order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc_order=EXACT):
        return cls({}, min_exp=0, trunc_order=trunc_order)

    @classmethod
    def monomial(cls, coeff, exp, trunc_order=EXACT):
        return cls({exp: coeff}, min_exp=exp, trunc_order=trunc_order)

    @classmethod
    def from_list(cls, coeffs, start=0, trunc_order=None):
        """Series sum coeffs[i] z**(start+i); trunc defaults to the last listed exponent."""
        if trunc_order is None:
            trunc_order = start + len(coeffs) - 1
        return cls(dict(enumerate(coeffs, start)), min_exp=start, trunc_order=trunc_order)

    # -- access ------------------------------------------------------------

    def get(self, exp):
        """Coefficient at ``exp``, a Python complex; zero outside the stored support (lenient)."""
        i = exp - self._lo
        if 0 <= i < len(self._c):
            c = self._c.item(i)
            if c:
                return c
        return 0j

    def coeff(self, exp):
        """Coefficient at ``exp``; raises if the exponent is beyond the window."""
        if exp > self.trunc_order:
            raise TruncationInsufficient(
                f"coefficient at z^{exp} beyond truncation order {self.trunc_order}")
        return self.get(exp)

    __getitem__ = coeff

    def taylor(self, n):
        """[z^0 .. z^(n-1)] as a complex array, for a series without negative terms.

        Raises like ``coeff`` when z^(n-1) is beyond the window.
        """
        self.coeff(n - 1)
        if self._lo < 0:
            raise ValueError(f"series has a term at z^{self._lo}")
        out = np.zeros(n, dtype=complex)
        c = self._c[:max(n - self._lo, 0)]
        out[self._lo:self._lo + len(c)] = c
        return out

    @property
    def coeffs(self):
        """Read-only {exponent: coefficient} of the nonzero terms, in ascending exponent order."""
        nz = np.flatnonzero(self._c)
        return MappingProxyType(dict(zip((nz + self._lo).tolist(), self._c[nz].tolist())))

    def items(self):
        return self.coeffs.items()

    def order(self):
        """Lowest exponent with a nonzero coefficient (None for zero series)."""
        return self._lo if len(self._c) else None

    def max_abs(self):
        return float(np.abs(self._c).max(initial=0.0))

    def is_zero(self):
        return not len(self._c)

    def __repr__(self):
        terms = list(self.items())
        body = " + ".join(f"({c:.3g})z^{e}" for e, c in terms[:6])
        more = " + ..." if len(terms) > 6 else ""
        return f"<LaurentSeries {body or '0'}{more} | window [{self.min_exp},{self.trunc_order}]>"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = self._wrap(np.array([complex(other)]), 0, 0, EXACT)
        parts = [(s._c, s._lo) for s in (self, other) if len(s._c)]
        lo = min((first for _, first in parts), default=0)
        out = np.zeros(max((first + len(c) for c, first in parts), default=lo) - lo, dtype=complex)
        for c, first in parts:
            out[first - lo:first - lo + len(c)] += c
        return self._wrap(out, lo, min(self.min_exp, other.min_exp),
                          min(self.trunc_order, other.trunc_order))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-self._c, self._lo, self.min_exp, self.trunc_order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor):
        return self._wrap(complex(factor) * self._c, self._lo, self.min_exp, self.trunc_order)

    def _moved_trunc(self, k):
        """The truncation order moved by k; an exactly known series stays exact."""
        return EXACT if self.trunc_order >= EXACT else _clamp(self.trunc_order + k)

    def shift(self, k):
        """Multiply by z**k."""
        return self._wrap(self._c, self._lo + k, self.min_exp + k, self._moved_trunc(k))

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        if self.trunc_order >= EXACT and other.trunc_order >= EXACT:
            trunc = EXACT
        else:
            trunc = min(_clamp(self.trunc_order + other.min_exp),
                        _clamp(other.trunc_order + self.min_exp))
        a, b, lo = self._c, other._c, self._lo + other._lo
        # the outputs up to trunc need no operand term beyond the first n
        n = min(len(a) + len(b) - 1, trunc - lo + 1) if len(a) and len(b) else 0
        out = np.convolve(a[:n], b[:n])[:n] if n > 0 else a[:0]
        return self._wrap(out, lo, self.min_exp + other.min_exp, trunc)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if self.is_zero():
            raise DivisionByZeroSeries("inverse of the zero series")
        return self._unit_power(-1, 1.0 / self._c.item(0), -self._lo)

    @np.errstate(over="ignore", invalid="ignore")
    def _unit_power(self, alpha, lead_power, exp):
        """lead_power z^exp (1 + N)**alpha for self = lead z^m (1 + N), N of positive order.

        The caller passes lead**alpha on its branch and exp = m alpha.  N is the
        tail divided by the lead with CPython's complex ``/``, one term at a
        time.  The binomial series ends only for a nonnegative integer alpha:
        for others an exact N raises.  A term that is not finite (the lead is
        too small) raises.
        """
        c, lead = self._c, self._c.item(0)
        n_trunc = _clamp(self.trunc_order - self._lo)
        out = self._wrap(np.ones(1, dtype=complex), 0, 0, n_trunc)
        tail = np.array([x / lead for x in c[1:].tolist()], dtype=complex)
        n_ser = self._wrap(tail, 1, 1, n_trunc)
        if not n_ser.is_zero():
            n_ser = n_ser._window(n_ser.order(), n_trunc)
            if self.trunc_order >= EXACT and not (alpha >= 0 and float(alpha).is_integer()):
                raise TruncationInsufficient(
                    f"(1 + N)^{alpha} of an exactly known series with"
                    f" {np.count_nonzero(c)} terms"
                    f" has no finite window: N starts at z^{n_ser.min_exp}")
            power, binom = out, 1.0
            for k in range(1, n_trunc // n_ser.min_exp + 2):
                binom *= (alpha - (k - 1)) / k
                power = power * n_ser
                if power.is_zero() or binom == 0.0:
                    break
                out = out + power.scale(binom)
        out = out.scale(lead_power).shift(exp)
        finite = np.isfinite(out._c)
        if not finite.all():
            raise DivisionByZeroSeries(f"power {alpha} of a series with leading coefficient {lead:.6g}"
                                       f" at z^{self._lo} is not finite at z^{out._lo + finite.argmin()}")
        return out

    def __truediv__(self, other):
        if isinstance(other, LaurentSeries):
            return self * other.inverse()
        return self.scale(1.0 / complex(other))

    def __rtruediv__(self, other):
        return self.inverse().scale(complex(other))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer powers only; power1 takes fractional ones")
        if n < 0:
            return self.inverse() ** (-n)
        result = self._wrap(np.ones(1, dtype=complex), 0, 0, self.trunc_order if n else EXACT)
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
        """Substitute ``g`` (a series with min order >= 1) for the variable.

        The result is known to min((t + 1) * ord(g) - 1, g.trunc_order), where
        t is self.trunc_order: the first unknown term z**(t+1) of self starts
        at that order once substituted.  A term c z**e with e >= 0 and
        e * ord(g) beyond the window only reaches coefficients above it, so
        Horner's rule starts below such terms.
        """
        og = g.order()
        if og is None or og < 1:
            raise ValueError("composition requires g with order >= 1")
        t = self.trunc_order
        trunc = min((t + 1) * og - 1, g.trunc_order)
        neg = {e: c for e, c in self.items() if e < 0}
        pos = {e: c for e, c in self.items() if 0 <= e and e * og <= trunc}
        result = LaurentSeries.zero(trunc_order=trunc)
        if pos:
            result = result + _horner(pos, g)
        if neg:
            # Horner in 1/g, ascending from the most negative exponent
            ginv = g.inverse()
            result = result + _horner({-1 - e: c for e, c in neg.items()}, ginv) * ginv
        return result

    def functional_inverse(self):
        """Series h with self(h(z)) = z up to truncation; needs self = c1 z + O(z^2), c1 != 0.

        ``revert1`` (Lagrange's formula) on the terms z^1 .. z^t where self is
        known to z^t; h is known to z^t too.
        """
        m = self.order()
        if m != 1:
            raise NotInvertible("functional inverse needs f = c1 z + O(z^2), c1 != 0;"
                                + (" f is zero" if m is None else f" f starts at z^{m}"))
        exact = self.trunc_order >= EXACT
        if exact and len(self._c) > 1:
            raise TruncationInsufficient(f"functional inverse of an exactly known series with"
                                         f" {np.count_nonzero(self._c)} terms has no finite window")
        head = self.shift(-1).taylor(1 if exact else self.trunc_order)
        return self._wrap(revert1(head), 1, 1, self.trunc_order)

    # -- calculus -----------------------------------------------------------

    def derivative(self):
        exps = np.arange(self._lo, self._lo + len(self._c))
        return self._wrap(self._c * exps, self._lo - 1, self.min_exp - 1, self._moved_trunc(-1))

    def parity_split(self):
        """Return (odd, even) parts with matching windows."""
        odd, even = self._c.copy(), self._c.copy()
        odd[self._lo % 2::2] = 0
        even[(self._lo + 1) % 2::2] = 0
        return (self._wrap(odd, self._lo, self.min_exp, self.trunc_order),
                self._wrap(even, self._lo, self.min_exp, self.trunc_order))

    def parity_flip(self):
        """Substitute z -> -z."""
        out = self._c.copy()
        out[(self._lo + 1) % 2::2] = -out[(self._lo + 1) % 2::2]
        return self._wrap(out, self._lo, self.min_exp, self.trunc_order)

    def evaluate(self, z):
        """The truncated sum at ``z``: a complex for a scalar, an array of its shape for an array.

        Each point gets CPython's own ``sum(c * z**e)`` over the terms from
        the highest exponent down, added one at a time from 0j; ``0 ** -k``
        raises ZeroDivisionError.  For |e| <= 100 CPython's ``**`` is repeated
        squaring, so the value is the same on every host; beyond, it calls the
        C library's ``pow``.
        """
        zs = np.asarray(z, dtype=complex)
        terms = list(reversed(self.coeffs.items()))
        sums = []
        for x in zs.ravel().tolist():
            acc = 0j
            for e, c in terms:
                acc = acc + c * x ** e
            sums.append(acc)
        return sums[0] if zs.ndim == 0 else np.array(sums, dtype=complex).reshape(zs.shape)


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
        f = self.base
        div = np.arange(f._lo + 1, f._lo + 1 + len(f._c), dtype=float)
        div[div == 0] = np.inf          # drops the (negligible) residue term
        out = np.empty_like(f._c)
        out.real, out.imag = f._c.real / div, f._c.imag / div
        return f._wrap(out, f._lo + 1, f.min_exp + 1, _clamp(f.trunc_order + 1))

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
    return sum((c * prim.get(-1 - e) for e, c in xi1.base.items()), 0j)


def sqrt_shift_flow(xi, a, min_exp=None):
    """Substitute z -> sqrt(z**2 + a) in the differential ``xi``.

    For xi = f(z) dz the result is f(h) dh with h = sqrt(z**2 + a), expanded
    as a Laurent series on an annulus |z| > sqrt(|a|).  The output window
    floor defaults to 40 below -|top exponent|; contributions discarded below it
    scale like a**((e - floor)/2) and are not bounded here: a caller that
    needs them bounded gates them (``charts.sw_embed_global`` weighs the
    first dropped term on its chart's extraction circle).  Residue-free
    inputs map to residue-free outputs.
    """
    a = complex(a)
    f = xi.base
    if a == 0:
        return SeriesDifferential(f)
    top = f._lo + len(f._c) - 1 if len(f._c) else 0
    if min_exp is None:
        min_exp = -(abs(top) + 40)
    out = np.zeros(max(top - min_exp + 1, 0), dtype=complex)
    # coefficient of z^e collects f[e + 2j] * binom((e + 2j - 1)/2, j) * a^j
    for k, c in f._window(min_exp, f.trunc_order).items():
        j = np.arange((k - min_exp) // 2 + 1)
        binom = np.cumprod(np.concatenate(([1.0], ((k - 1) / 2.0 - j[:-1]) / j[1:])))
        out[k - min_exp::-2] += c * binom * a ** j
    return SeriesDifferential(f._wrap(out, min_exp, min_exp if out.any() else min(min_exp, 0),
                                      f.trunc_order))


# ---------------------------------------------------------------------------
# one-variable power series on fixed windows
# ---------------------------------------------------------------------------

# A complex array x of size n along its last axis holds x[k] = [z^k] of a
# power series known to z^(n - 1).  Leading axes are a batch of rows: each
# row of a stacked call is, bit for bit, the call on that row alone.  No
# coefficient depends on n, so the first m of size n are those of size m.

@functools.cache
def _toeplitz_index(n):
    """index[i, k] = n - 1 + k - i, read-only: it is shared by every call of size n."""
    i = np.arange(n)
    index = n - 1 + i - i[:, None]
    index.flags.writeable = False
    return index


def _toeplitz(b):
    """t[..., i, k] = b[..., k - i] for k >= i, else 0: the product with b as a matrix."""
    n = b.shape[-1]
    padded = np.zeros(b.shape[:-1] + (2 * n - 1,), dtype=complex)
    padded[..., n - 1:] = b
    return padded[..., _toeplitz_index(n)]


def _times(a, t):
    """Product of a with the series whose ``_toeplitz`` matrix is t, summed in ascending i."""
    return np.add.reduce(a[..., :, None] * t, axis=-2)


def mul1(a, b):
    """Truncated product: out[..., k] = sum_{i <= k} a[..., i] b[..., k - i], leading axes broadcast."""
    return _times(a, _toeplitz(b))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def power1(c, alpha):
    """c**alpha for rows with c[..., 0] != 0: lead**alpha (1 + N)**alpha, lead principal.

    With u = c / lead = 1 + N, Miller's recurrence g_m = sum_{j<m} w_mj g_j,
    w_mj = ((alpha + 1)(m - j) / m - 1) u_(m-j), g_0 = 1, gives one
    coefficient per step, summed in ascending j.  A result that is not
    finite (the lead is too small to divide by) raises, naming the row over
    the leading axes and the first such exponent.
    """
    n = c.shape[-1]
    lead = c[..., :1]
    m = np.arange(n)
    scale = np.divide((alpha + 1) * (m - m[:, None]), m, out=np.zeros((n, n)), where=m > 0) - 1.0
    # w[..., j, m] = w_mj for j < m
    w = scale * _toeplitz(c / lead)
    g = np.zeros(c.shape, dtype=complex)
    g[..., 0] = 1.0
    for k in range(1, n):
        g[..., k] = np.add.reduce(w[..., :k, k] * g[..., :k], axis=-1)
    out = lead ** alpha * g
    bad = ~np.isfinite(out)
    if bad.any():
        *row, e = np.unravel_index(np.argmax(bad), bad.shape)
        r = int(np.ravel_multi_index(row, bad.shape[:-1])) if row else 0
        raise DivisionByZeroSeries(
            f"power {alpha} of row {r} with leading coefficient {lead.flat[r]:.6g}"
            f" is not finite at z^{e}", row=r)
    return out


def revert1(c):
    """Reversion, row by row: h = z (out[0] + out[1] z + ...) with f(h(z)) = z, f = z (c[0] + c[1] z + ...).

    Lagrange's formula: with phi = z / f = 1 / (c[0] + c[1] z + ...),
    [z^m] h = [z^(m-1)] phi^m / m for m = 1 .. n, one stacked product
    phi * phi^(m-1) per power on phi's product matrix, built once.
    """
    if not np.all(c[..., 0]):
        r = int(np.argmin(np.reshape(c[..., 0] != 0, -1)))
        row = np.reshape(c, (-1, c.shape[-1]))[r]
        what = "is zero" if not row.any() else f"starts at z^{int(np.flatnonzero(row)[0]) + 1}"
        raise NotInvertible(f"reversion needs f = c1 z + O(z^2), c1 != 0; row {r} {what}")
    n = c.shape[-1]
    phi = power1(c, -1)
    t = _toeplitz(phi)
    h = np.empty_like(phi)
    power = phi
    h[..., 0] = phi[..., 0]
    for m in range(2, n + 1):
        power = _times(power, t)
        h[..., m - 1] = power[..., m - 1] / m
    return h


def compose1(f, g):
    """f(g(z)) row by row, for g[..., 0] == 0, by Horner's rule on g's product matrix built once.

    Terms of f from z^n on (n = g's size) reach no known coefficient and are
    not read; the leading axes of f broadcast against g's.
    """
    n = g.shape[-1]
    f = f[..., :n]
    t = _toeplitz(g)
    acc = np.zeros(np.broadcast_shapes(f.shape[:-1], g.shape[:-1]) + (n,), dtype=complex)
    acc[..., 0] = f[..., -1]
    for i in range(f.shape[-1] - 2, -1, -1):
        acc = _times(acc, t)
        acc[..., 0] += f[..., i]
    return acc


# ---------------------------------------------------------------------------
# two-variable power series
# ---------------------------------------------------------------------------

# A square complex array x of size n holds x[p, q] = [t1^p t2^q] of a power
# series known to total degree n - 1; its entries of higher degree are zero.
# Every coefficient of degree d is summed in an order that does not depend on
# n, so it is the same, bit for bit, in every working size that knows it.
# Leading axes are a batch of rows: each row of a stacked call is, bit for
# bit, the call on that row alone, and a 2-D array is the one-row case.

def _below_degree(x):
    """x with its entries of total degree >= its size set to zero."""
    n = x.shape[-1]
    return np.where(np.add.outer(np.arange(n), np.arange(n)) < n, x, 0)


# complex entries in one stacked batch of mul2 terms (256 KB)
_MUL2_BATCH = 1 << 14


def mul2(x, y):
    """Product of two two-variable series of the same size, row by row over leading axes.

    Each nonzero x[i, j] adds x[i, j] y[p - i, q - j] to out[p, q], in
    row-major (i, j) order, as the term-by-term loop does.  The terms go in
    batches: one stacked multiply of the batch's x[i, j] against windows of
    y shifted by (i, j) (zero where p < i or q < j), then one sequential
    reduction over the stack seeded with out.  A term outside its window
    adds zero, which leaves every entry as it was: out starts at +0 and a sum
    is -0 only when both addends are.  So does a term that is zero in one
    row, so a chunk of rows takes the terms of the union of their nonzero
    patterns and each row comes out, bit for bit, as it does alone.

    A batch holds about ``_MUL2_BATCH`` entries over its rows and terms.  A
    chunk holds at most ``_MUL2_BATCH / n^3`` rows, so a batch covers about
    n terms or more: the copy of out that seeds each reduction stays small
    next to its terms.  At the working sizes of a default verify every chart
    pair and every term fit in one batch; at size 32 a chunk is one row and
    a batch 16 of its terms, so no stack grows with n^4.
    """
    shape, n = x.shape, x.shape[-1]
    x = _below_degree(x).reshape(-1, n, n)
    y = y.reshape(-1, n, n)
    out = np.zeros(x.shape, dtype=complex)
    chunk = max(1, _MUL2_BATCH // n ** 3)
    for r in range(0, len(x), chunk):
        _mul2_chunk(x[r:r + chunk], y[r:r + chunk], out[r:r + chunk])
    return _below_degree(out).reshape(shape)


def _mul2_chunk(x, y, out):
    """Add the products of the rows of x and y, shape (rows, n, n), to out, in batches of terms."""
    k, n = len(x), x.shape[-1]
    padded = np.zeros((k, 2 * n, 2 * n), dtype=complex)
    padded[:, n:, n:] = y
    # shifted[a, b, r, p, q] = padded[r, a + p, b + q]: row r of y moved by (n - a, n - b)
    s_row, s_p, s_q = padded.strides
    shifted = as_strided(padded, (n + 1, n + 1, k, n, n), (s_p, s_q, s_row, s_p, s_q),
                         writeable=False)
    rows, cols = np.nonzero(np.any(x, axis=0))
    step = max(1, _MUL2_BATCH // (k * n * n))
    for start in range(0, len(rows), step):
        i, j = rows[start:start + step], cols[start:start + step]
        lo = i[0]
        stack = np.empty((len(i) + 1, k, n - lo, n), dtype=complex)
        stack[0] = out[:, lo:]
        np.multiply(x[:, i, j].T[..., None, None], shifted[n + lo - i, n - j, :, :n - lo],
                    out=stack[1:])
        np.add.reduce(stack, axis=0, out=out[:, lo:])


@functools.cache
def _inverse2_plan(n, d):
    """Gather plan of the terms of degree d in ``inverse2`` at size n, read-only.

    Column c is the entry (c, d - c).  Row t holds its t-th term (i, j) in
    row-major order over 1 <= i + j, i <= c, j <= d - c: the flat index of
    u[i, j] and that of r[c - i, d - c - j] in an (n, n) array.  A column
    with fewer terms is padded with n * n, a slot that holds a zero.
    """
    c, i, j = (a.ravel() for a in np.indices((d + 1,) * 3))
    keep = (i <= c) & (j <= d - c) & (i + j > 0)
    c, i, j = c[keep], i[keep], j[keep]
    rank = i * (d - c + 1) + j - 1
    u_at = np.full((int(rank.max()) + 1, d + 1), n * n)
    r_at = u_at.copy()
    u_at[rank, c] = i * n + j
    r_at[rank, c] = (c - i) * n + d - c - j
    u_at.flags.writeable = r_at.flags.writeable = False
    return u_at, r_at


def inverse2(x):
    """1/x for a two-variable series with x[0, 0] != 0, row by row over leading axes.

    With x = x[0, 0] (1 + u), r = 1/(1 + u) has r[0, 0] = 1 and, one total
    degree d = p + q at a time, r[p, q] = -sum u[i, j] r[p - i, q - j] over
    the terms of degree 1 .. d, in row-major (i, j) order and summed from +0.
    That is every bit of Horner's rule r <- 1 - u r, signed zeros included,
    with each product formed once.  The terms of a degree are gathered by
    ``_inverse2_plan`` in batches of about ``_MUL2_BATCH`` entries, each one
    sequential reduction seeded with the running sum.
    """
    shape, n = x.shape, x.shape[-1]
    scale = 1.0 / x[..., :1, :1]
    u = x * scale
    u[..., 0, 0] = 0.0
    flat_u = np.zeros((u.size // (n * n), n * n + 1), dtype=complex)
    flat_u[:, :-1] = u.reshape(-1, n * n)
    # entries beyond the last degree are -0, as Horner's negated product leaves them
    r = np.full(flat_u.shape, complex(-0.0, -0.0))
    r[:, 0], r[:, -1] = 1.0, 0.0
    rows = len(r)
    for d in range(1, n):
        u_at, r_at = _inverse2_plan(n, d)
        acc = np.zeros((rows, d + 1), dtype=complex)
        step = max(1, _MUL2_BATCH // (rows * (d + 1)))
        for start in range(0, len(u_at), step):
            a, b = u_at[start:start + step], r_at[start:start + step]
            stack = np.empty((rows, len(a) + 1, d + 1), dtype=complex)
            stack[:, 0] = acc
            np.multiply(flat_u[:, a], r[:, b], out=stack[:, 1:])
            np.add.reduce(stack, axis=1, out=acc)
        r[:, np.arange(d + 1) * (n - 1) + d] = -acc
    return r[:, :-1].reshape(shape) * scale


def divide_diagonal2(x, eps):
    """q with x = (t1 - eps t2) q, one total degree shorter; x must vanish on t1 = eps t2.

    q[p, m] = x[p + 1, m] + eps q[p + 1, m - 1]; the remainder x[0, :] is not
    read.  Over leading axes ``eps`` is one sign per row, or one for all.
    """
    eps = np.asarray(eps)[..., None]
    q = np.array(x[..., 1:, :-1], dtype=complex)
    for m in range(1, q.shape[-1]):
        q[..., :-1, m] += eps * q[..., 1:, m - 1]
    return _below_degree(q)
