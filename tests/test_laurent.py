"""Tests for the truncated Laurent series substrate."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swtr.errors import (
    DivisionByZeroSeries,
    NonzeroResidue,
    NotInvertible,
    TruncationInsufficient,
)
from swtr.laurent import (
    EXACT,
    LaurentSeries,
    SeriesDifferential,
    compose1,
    divide_diagonal2,
    inverse2,
    mul1,
    mul2,
    power1,
    revert1,
    sqrt_shift_flow,
    symplectic_pairing,
)
from swtr.laurent import _MUL2_BATCH, _below_degree, _inverse2_plan

L = LaurentSeries


def random_series(rng, min_exp=-4, trunc=12, scale=1.0):
    coeffs = {}
    for e in range(min_exp, trunc + 1):
        coeffs[e] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
    return L(coeffs, min_exp=min_exp, trunc_order=trunc)


def max_coeff_diff(f, g, lo=None, hi=None):
    lo = lo if lo is not None else max(f.min_exp, g.min_exp)
    hi = hi if hi is not None else min(f.trunc_order, g.trunc_order)
    return max(abs(f.get(e) - g.get(e)) for e in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_add_cancellation():
    f = L.from_list([1.0, 1.0], start=1)      # z + z^2
    g = L.monomial(-1.0, 1)                   # -z
    h = f + g
    assert h.get(1) == 0
    assert h.get(2) == 1.0


def test_monomial_product():
    f = L.monomial(1.0, -2)                   # coefficient of dz/z^2
    g = L.monomial(1.0, 3)
    assert (f * g).get(1) == 1.0


def test_geometric_series_by_long_division():
    # oracle: direct long division of 1 by (1 - z)
    n = 20
    denom = L.from_list([1.0, -1.0], start=0, trunc_order=n)
    inv = denom.inverse()
    # long-division oracle
    rem = {0: 1.0}
    quot = {}
    for k in range(n + 1):
        c = rem.get(k, 0.0)
        quot[k] = c
        rem[k + 1] = rem.get(k + 1, 0.0) + c
    for k in range(n + 1):
        assert abs(inv.get(k) - quot[k]) < 1e-14


def test_divide_by_zero_series():
    with pytest.raises(DivisionByZeroSeries):
        L.monomial(1.0, 0) / L.zero(trunc_order=8)


def test_truncation_windows_are_sound():
    # multiplying a series known to z^2 by one of order 1 can only be trusted
    # to z^3; reading beyond the window raises instead of returning garbage
    from swtr.errors import TruncationInsufficient
    f = L.from_list([1.0, 1.0, 1.0], start=0, trunc_order=2)   # 1/(1-z) truncated
    g = L.from_list([1.0, 2.0], start=1, trunc_order=5)
    h = f * g
    assert h.trunc_order == 3
    assert abs(h.get(3) - 3.0) < 1e-15
    with pytest.raises(TruncationInsufficient):
        h.coeff(4)
    # addition window is the tighter of the two
    assert (f + g).trunc_order == 2


def test_ring_axioms_random():
    rng = np.random.default_rng(7)
    for _ in range(8):
        f = random_series(rng)
        g = random_series(rng)
        h = random_series(rng)
        lhs = (f * g) * h
        rhs = f * (g * h)
        scale = max(lhs.max_abs(), 1.0)
        assert max_coeff_diff(lhs, rhs) < 1e-13 * scale
        lhs = f * (g + h)
        rhs = f * g + f * h
        assert max_coeff_diff(lhs, rhs) < 1e-13 * scale


# ---------------------------------------------------------------------------
# composition and functional inversion
# ---------------------------------------------------------------------------

def test_inverse_of_identity_and_scaling():
    z = L.monomial(1.0, 1, trunc_order=10)
    assert max_coeff_diff(z.functional_inverse(), z) < 1e-15
    cz = L.monomial(2.5 - 1j, 1, trunc_order=10)
    inv = cz.functional_inverse()
    assert abs(inv.get(1) - 1.0 / (2.5 - 1j)) < 1e-15


def lagrange_inversion(f, n):
    """Coefficients of the compositional inverse via the Lagrange formula.

    [z^k] f^{-1} = (1/k) [w^{k-1}] (w / f(w))^k, computed with exact series
    arithmetic on the truncated input.
    """
    out = {}
    for k in range(1, n + 1):
        ratio = L.monomial(1.0, 1, trunc_order=n + k) / L(dict(f.coeffs), 1, n + k)
        out[k] = (ratio ** k).get(k - 1) / k
    return out


def newton_reversion(f):
    """Newton's doubling h <- h - (f(h) - z) / f'(h): the oracle of ``functional_inverse``.

    Each step composes f and f' with h from scratch; the error of a step
    known to z^prev vanishes to that order, which keeps its window sound.
    """
    h = L({1: 1.0 / f.get(1)}, 1, 1)
    deriv = f.derivative()
    known = 1
    while known < f.trunc_order:
        prev, known = known, min(2 * known, f.trunc_order)
        h = h._window(1, known)
        err = (f.compose(h) - L.monomial(1.0, 1))._window(prev + 1, known)
        h = (h - err * deriv.compose(h).inverse())._window(1, known)
    return h


def mp_reversion(f, dps=60):
    """[z^1..z^t] of the reversion of f, known to z^t, term by term in mpmath at ``dps`` digits.

    h_n solves [z^n] f(h) = [n == 1], where [z^n] h^k for k >= 2 needs only
    h_1..h_(n-1): the power table is filled one column n at a time.
    """
    t = f.trunc_order
    with mpmath.workdps(dps):
        fc = [mpmath.mpc(f.get(e)) for e in range(t + 1)]
        h = [mpmath.mpc(0)] * (t + 1)
        powers = {1: h}                       # powers[k][m] = [z^m] h^k
        for n in range(1, t + 1):
            acc = mpmath.mpc(int(n == 1))
            for k in range(2, n + 1):
                row = powers.setdefault(k, [mpmath.mpc(0)] * (t + 1))
                row[n] = mpmath.fsum(h[j] * powers[k - 1][n - j] for j in range(1, n - k + 2))
                acc -= fc[k] * row[n]
            h[n] = acc / fc[1]
        return [complex(c) for c in h[1:]]


def test_functional_inverse_against_lagrange():
    n = 12
    f = L.from_list([1.0, 1.0], start=1, trunc_order=n)   # z + z^2
    h = f.functional_inverse()
    oracle = lagrange_inversion(f, n)
    # first few closed-form values: z - z^2 + 2z^3 - 5z^4 + ...
    assert abs(oracle[1] - 1) < 1e-14 and abs(oracle[2] + 1) < 1e-14
    assert abs(oracle[3] - 2) < 1e-14 and abs(oracle[4] + 5) < 1e-13
    for k in range(1, n + 1):
        assert abs(h.get(k) - oracle[k]) < 1e-12


def test_compose_inverse_is_identity_random():
    # each coefficient of f(h) - z is gated on its own scale: a few ulps of
    # S_e = [z^e] |f|(|h|), the sum of the moduli of the terms composing it
    # (|h_10| reaches 7.4e3 in the fifth draw, whose ulp is 9.1e-13)
    rng = np.random.default_rng(11)
    for _ in range(5):
        coeffs = {1: 1.0 + 0.2 * rng.standard_normal()}
        for e in range(2, 11):
            coeffs[e] = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        f = L(coeffs, 1, 10)
        h = f.functional_inverse()
        comp = f.compose(h)
        moduli = L({e: abs(c) for e, c in f.items()}, 1, 10).compose(
            L({e: abs(c) for e, c in h.items()}, 1, 10))
        assert comp.trunc_order == 10
        for e in range(1, 11):
            gate = 4 * np.finfo(float).eps * moduli.get(e).real
            assert abs(comp.get(e) - (e == 1)) <= gate, (e, gate)


def test_compose_with_negative_exponents():
    # f = 1/z composed with g = z/(1-z) is (1-z)/z
    f = L.monomial(1.0, -1)
    g = (L.monomial(1.0, 1, trunc_order=12) / L.from_list([1.0, -1.0], 0, 12))
    comp = f.compose(g)
    expect = L({-1: 1.0, 0: -1.0}, -1, comp.trunc_order)
    assert max_coeff_diff(comp, expect) < 1e-13


# ---------------------------------------------------------------------------
# fractional powers
# ---------------------------------------------------------------------------

def test_sqrt_binomial_series():
    n = 14
    f = np.zeros(n + 1, dtype=complex)
    f[:2] = 1.0                          # 1 + z
    g = power1(f, 0.5)
    for k in range(n + 1):
        # binom(1/2, k) = (-1)^(k+1) C(2k,k) / (4^k (2k-1))
        oracle = (-1) ** (k + 1) * math.comb(2 * k, k) / (4.0 ** k * (2 * k - 1))
        assert abs(g[k] - oracle) < 1e-13
    assert np.max(np.abs(mul1(g, g) - f)) < 1e-13


def test_sqrt_of_square_branch0():
    # z^2 = z^2 * 1: the unit part's root is exactly 1; a lead on the
    # negative real axis takes the principal root
    g = power1(np.array([1.0, 0.0, 0.0], dtype=complex), 0.5)
    assert g.tolist() == [1.0, 0.0, 0.0]
    assert power1(np.array([-4.0 + 0j]), 0.5)[0] == 2j


def test_two_thirds_power_matches_exp_log():
    n = 12
    # (z^3 (1 + z))^(2/3) = z^2 (1 + z)^(2/3), known to z^(n+2)
    f = np.zeros(n + 1, dtype=complex)
    f[:2] = 1.0
    g = L.from_list(list(power1(f, 2.0 / 3.0)), start=2)
    # oracle: z^2 * exp((2/3) log(1+z)) computed by series exp/log
    log1p = L({k: (-1) ** (k + 1) / k for k in range(1, n + 1)}, 1, n)
    expo = L({0: 1.0}, 0, n)
    term = L({0: 1.0}, 0, n)
    for k in range(1, n + 1):
        term = term * log1p.scale(2.0 / 3.0) / k
        expo = expo + term
    oracle = expo.shift(2)
    assert max_coeff_diff(g, oracle) < 1e-12
    # leading terms quoted for the 2/3 power: z^2 (1 + 2z/3 - z^2/9 + ...)
    assert abs(g.get(2) - 1.0) < 1e-14
    assert abs(g.get(3) - 2.0 / 3.0) < 1e-14
    assert abs(g.get(4) + 1.0 / 9.0) < 1e-14


def test_power1_qth_power_roundtrip_random():
    rng = np.random.default_rng(3)
    for p, q in [(1, 2), (2, 3), (3, 2), (-1, 2)]:
        coeffs = [1.5 + 0.5j]
        for _ in range(1, 11):
            coeffs.append(0.3 * (rng.standard_normal() + 1j * rng.standard_normal()))
        f = L.from_list(coeffs)
        g = L.from_list(list(power1(np.array(coeffs), p / q)))
        assert max_coeff_diff(g ** q, f ** p) < 1e-12 * max((f ** p).max_abs(), 1.0)


def test_not_invertible():
    with pytest.raises(NotInvertible, match=r"starts at z\^2"):
        L.monomial(1.0, 2, trunc_order=8).functional_inverse()
    # a term below z^1 is refused too: h = z / c1 would give f(h) = z^-1 + z + z^2 / 4
    with pytest.raises(NotInvertible, match=r"starts at z\^-1"):
        L({-1: 0.5, 1: 2.0, 2: 1.0}, -1, 8).functional_inverse()
    with pytest.raises(NotInvertible, match="is zero"):
        L.zero(8).functional_inverse()


def test_functional_inverse_of_exact_input():
    # exact linear input has the exact inverse z / c1; exact input with more
    # terms has no finite window (its reversion would run to EXACT) and
    # raises, naming its term count
    h = L({1: 2.0}).functional_inverse()
    assert (dict(h.coeffs), h.min_exp, h.trunc_order) == ({1: 0.5}, 1, EXACT)
    with pytest.raises(TruncationInsufficient, match="exactly known series with 2 terms"):
        L({1: 2.0, 3: 1.0}).functional_inverse()


# ---------------------------------------------------------------------------
# residues, primitives, pairing
# ---------------------------------------------------------------------------

def test_residue_of_dz_over_z():
    assert SeriesDifferential(L.monomial(1.0, -1)).residue() == 1.0


def test_residue_of_other_powers_vanishes():
    for k in [-3, -2, 0, 1, 5]:
        assert SeriesDifferential(L.monomial(1.0, k)).residue() == 0


def test_primitive_of_2z_dz():
    prim = SeriesDifferential(L.monomial(2.0, 1)).primitive()
    assert prim.get(2) == 1.0 and len(prim.coeffs) == 1


def test_primitive_rejects_residue():
    with pytest.raises(NonzeroResidue):
        SeriesDifferential(L.monomial(1.0, -1)).primitive()


def test_pairing_canonical_basis():
    # Omega(e^i, f_j) = delta_ij, Omega(e^i, e^j) = Omega(f_i, f_j) = 0
    for i in range(1, 5):
        for j in range(1, 5):
            e_i = SeriesDifferential.e_basis(i)
            f_j = SeriesDifferential.f_basis(j)
            assert abs(symplectic_pairing(e_i, f_j) - (1.0 if i == j else 0.0)) < 1e-15
            e_j = SeriesDifferential.e_basis(j)
            assert abs(symplectic_pairing(e_i, e_j)) < 1e-15
            f_i = SeriesDifferential.f_basis(i)
            assert abs(symplectic_pairing(f_i, f_j)) < 1e-15


def test_pairing_antisymmetry_bilinearity_random():
    rng = np.random.default_rng(5)
    for _ in range(6):
        f, g, h = (L({e: c for e, c in random_series(rng, -6, 14).items() if e != -1}, -6, 14)
                   for _ in range(3))
        xf, xg, xh = (SeriesDifferential(s) for s in (f, g, h))
        o_fg = symplectic_pairing(xf, xg)
        o_gf = symplectic_pairing(xg, xf)
        scale = max(abs(o_fg), 1.0)
        assert abs(o_fg + o_gf) < 1e-13 * scale
        assert abs(symplectic_pairing(xf, xf)) < 1e-13 * scale
        lam = 0.7 - 0.3j
        lhs = symplectic_pairing(SeriesDifferential(f + g.scale(lam)), xh)
        rhs = symplectic_pairing(xf, xh) + lam * symplectic_pairing(xg, xh)
        assert abs(lhs - rhs) < 1e-13 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# square-root substitution flow
# ---------------------------------------------------------------------------

def test_flow_at_zero_is_identity():
    f = SeriesDifferential(L.from_list([2.0, 0.0, 1.0], start=1))
    out = sqrt_shift_flow(f, 0.0)
    assert max_coeff_diff(out.base, f.base) == 0


def test_flow_of_z_d_z_squared():
    # z d(z^2) = 2 z^2 dz maps to 2 z^2 (1 + a/(2z^2) - a^2/(8 z^4) + ...) dz
    a = 0.37 - 0.11j
    out = sqrt_shift_flow(SeriesDifferential(L.monomial(2.0, 2)), a, min_exp=-12)
    assert abs(out.base.get(2) - 2.0) < 1e-15
    assert abs(out.base.get(0) - a) < 1e-15
    assert abs(out.base.get(-2) + a * a / 4.0) < 1e-15


def test_flow_preserves_residue_freeness():
    rng = np.random.default_rng(17)
    coeffs = {e: rng.standard_normal() + 1j * rng.standard_normal() for e in range(-5, 12)}
    coeffs.pop(-1)
    f = SeriesDifferential(L(coeffs, -5, 11))
    out = sqrt_shift_flow(f, 0.08 + 0.02j, min_exp=-40)
    assert abs(out.base.get(-1)) < 1e-13 * out.base.max_abs()


def test_flow_roundtrip():
    a = 0.05 + 0.02j
    f = SeriesDifferential(L.from_list([1.0, 0.5, 0.25, 0.1], start=1))
    there = sqrt_shift_flow(f, a, min_exp=-60)
    back = sqrt_shift_flow(there, -a, min_exp=-60)
    for e in range(-10, 4):
        assert abs(back.base.get(e) - f.base.get(e)) < 1e-12


# ---------------------------------------------------------------------------
# parity split
# ---------------------------------------------------------------------------

def test_parity_split_simple():
    f = L.from_list([1.0, 1.0], start=1)   # z + z^2
    odd, even = f.parity_split()
    assert odd.get(1) == 1.0 and odd.get(2) == 0
    assert even.get(2) == 1.0 and even.get(1) == 0


def test_parity_split_even_series():
    f = L.from_list([3.0, 0.0, -2.0], start=0)
    odd, even = f.parity_split()
    assert odd.is_zero()
    assert max_coeff_diff(even, f) == 0


def test_parity_split_definition_random():
    rng = np.random.default_rng(23)
    f = random_series(rng, -5, 9)
    odd, even = f.parity_split()
    flipped = f.parity_flip()
    for e in range(-5, 10):
        assert abs(f.get(e) - flipped.get(e) - 2 * odd.get(e)) < 1e-14
        assert abs(odd.get(e) + even.get(e) - f.get(e)) < 1e-15


# ---------------------------------------------------------------------------
# window soundness against exact arithmetic
# ---------------------------------------------------------------------------

# A window [min_exp, trunc] of an integer Laurent polynomial whose terms above
# trunc are hidden: every coefficient an operation reports up to its output
# trunc_order must be the one of the untruncated inputs.  Leading coefficients
# are +-1 so inverses stay integral and the float results are exact.

SOUNDNESS = settings(max_examples=50, derandomize=True, deadline=None, database=None)

finite = st.floats(-1e3, 1e3, allow_nan=False)
coefficients = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@st.composite
def windows(draw, min_exps, finite=True):
    m = draw(min_exps)
    known = [draw(st.sampled_from((1, -1)))] + draw(st.lists(st.integers(-2, 2), max_size=5))
    # the first hidden term is nonzero, so a window one too long shows
    hidden = [draw(st.sampled_from((2, -2, 1, -1)))] + draw(st.lists(st.integers(-2, 2), max_size=2))
    if not finite and draw(st.booleans()):
        hidden, trunc = [], EXACT
    else:
        trunc = m + len(known) - 1
    full = {m + i: c for i, c in enumerate(known + hidden) if c}
    return L({e: c for e, c in full.items() if e <= trunc}, m, trunc), full


def _exact_mul(a, b, cap):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 <= cap:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _exact_inverse(a, cap):
    """1/a up to z^cap for a Laurent polynomial a with leading coefficient +-1."""
    m = min(a)
    b = []
    for n in range(cap + m + 1):
        acc = (1 if n == 0 else 0) - sum(a.get(m + k, 0) * b[n - k] for k in range(1, n + 1))
        b.append(acc * a[m])
    return {n - m: c for n, c in enumerate(b) if c}


def _exact_compose(f, g, cap):
    # a factor 1/g starts at z^-min(g): partial products of g^e, e < 0, are
    # needed that much further per factor still to come
    work = cap + max(0, -min(f, default=0)) * min(g)
    ginv = _exact_inverse(g, work)
    out = {}
    for e, c in f.items():
        power = {0: 1}
        for _ in range(abs(e)):
            power = _exact_mul(power, g if e > 0 else ginv, work)
        for k, v in power.items():
            out[k] = out.get(k, 0) + c * v
    return out


def _assert_sound(result, exact):
    cap = result.trunc_order
    if cap >= EXACT:
        cap = max(list(exact) + list(result.coeffs), default=0)
    for e in range(min(list(exact) + [result.min_exp]), cap + 1):
        assert result.get(e) == exact.get(e, 0), (e, result, exact)


@SOUNDNESS
@given(windows(st.integers(-3, 3), finite=False), windows(st.integers(-3, 3), finite=False))
def test_mul_window_sound(fa, gb):
    (f, f_full), (g, g_full) = fa, gb
    prod = f * g
    _assert_sound(prod, _exact_mul(f_full, g_full, prod.trunc_order))


def dict_product(f, g):
    """The double loop over term pairs into a dict, on the product window: the oracle of ``*``."""
    if f.trunc_order >= EXACT and g.trunc_order >= EXACT:
        trunc = EXACT
    else:
        trunc = min(f.trunc_order + g.min_exp, g.trunc_order + f.min_exp, EXACT)
    out, size = {}, {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            if e1 + e2 <= trunc:
                out[e1 + e2] = out.get(e1 + e2, 0j) + c1 * c2
                size[e1 + e2] = size.get(e1 + e2, 0.0) + abs(c1) * abs(c2)
    return L(out, f.min_exp + g.min_exp, trunc), size


@SOUNDNESS
@given(windows(st.integers(-3, 3), finite=False), windows(st.integers(-3, 3), finite=False),
       coefficients, coefficients)
def test_mul_matches_dict_double_loop(fa, gb, u, v):
    # on integer coefficients the convolve product has the oracle's window,
    # nonzero support and values; scaled by u and v, every coefficient is
    # within 4 eps sum |a_i||b_j| of the oracle's
    (f, _), (g, _) = fa, gb
    for a, b in ((f, g), (f.scale(u), g.scale(v))):
        got, (want, size) = a * b, dict_product(a, b)
        assert (got.min_exp, got.trunc_order) == (want.min_exp, want.trunc_order)
        for e in set(got.coeffs) | set(want.coeffs):
            assert abs(got.get(e) - want.get(e)) <= 4 * np.finfo(float).eps * size[e], e
    assert dict((f * g).coeffs) == dict(dict_product(f, g)[0].coeffs)


def test_exact_and_spread_series_stay_small():
    # the coefficient array spans only the stored terms, never out to the
    # window: exactly known (EXACT = 1e9) and widely spread series allocate
    # their terms only
    import tracemalloc
    tracemalloc.start()
    try:
        lo, hi = L.monomial(2.0, -400), L.monomial(3.0, 400)
        spread = lo + hi
        results = [lo * hi, spread, spread * spread, spread - hi, lo.inverse(),
                   L.monomial(4.0, -400, trunc_order=400).inverse(), hi.shift(-800),
                   spread.scale(0.5), spread.derivative(), L({1: 2.0}).functional_inverse()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert (dict(results[0].coeffs), results[0].trunc_order) == ({0: 6.0}, EXACT)
    assert dict(results[2].coeffs) == {-800: 4.0, 0: 12.0, 800: 9.0}
    assert dict(results[3].coeffs) == {-400: 2.0} and results[4].coeffs == {400: 0.5}


@SOUNDNESS
@given(windows(st.integers(-3, 3)))
def test_inverse_window_sound(fa):
    f, f_full = fa
    inv = f.inverse()
    _assert_sound(inv, _exact_inverse(f_full, inv.trunc_order))


@SOUNDNESS
@given(windows(st.integers(-2, 3), finite=False), windows(st.integers(1, 2)))
def test_compose_window_sound(fa, gb):
    (f, f_full), (g, g_full) = fa, gb
    comp = f.compose(g)
    _assert_sound(comp, _exact_compose(f_full, g_full, comp.trunc_order))


# ---------------------------------------------------------------------------
# bit-exact evaluation and the compose cut, against the scalar and uncut oracles
# ---------------------------------------------------------------------------

def scalar_evaluate(series, z):
    """CPython's scalar sum of the terms, highest exponent first: the oracle of ``evaluate``."""
    acc = 0j
    for e, c in reversed(series.coeffs.items()):
        acc = acc + c * z ** e
    return acc


def float_hex(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in np.ravel(values)]


def series_hex(series):
    """Coefficients in key order as float hex, with the window."""
    return (float_hex(list(series.coeffs.values())), list(series.coeffs),
            series.min_exp, series.trunc_order)


def uncut_compose(f, g):
    """Horner's rule over every term of f, whatever its output order: the oracle of ``compose``.

    The output window is the one ``compose`` declares.
    """
    og = g.order()
    if og is None or og < 1:
        raise ValueError("composition requires g with order >= 1")
    neg = {e: c for e, c in f.coeffs.items() if e < 0}
    pos = {e: c for e, c in f.coeffs.items() if e >= 0}
    t = f.trunc_order
    result = L.zero(trunc_order=min((t + 1) * og - 1, g.trunc_order))
    if pos:
        top = max(pos)
        acc = L({0: pos.get(top, 0j)}, 0, EXACT)
        for e in range(top - 1, -1, -1):
            acc = acc * g
            ce = pos.get(e, 0j)
            if ce:
                acc = acc + ce
        result = result + acc
    if neg:
        ginv = g.inverse()
        bot = min(neg)
        acc = L({0: neg.get(bot, 0j)}, 0, EXACT)
        for e in range(bot + 1, 0):
            acc = acc * ginv
            ce = neg.get(e, 0j)
            if ce:
                acc = acc + ce
        result = result + acc * ginv
    return result


BITWISE = settings(max_examples=200, derandomize=True, deadline=None, database=None)


@st.composite
def term_dicts(draw):
    """Coefficients on up to 20 exponents in [-30, 30], in drawn (unsorted) key order."""
    exps = draw(st.lists(st.integers(-30, 30), unique=True, max_size=20))
    return {e: complex(draw(finite), draw(finite)) for e in exps}


@BITWISE
@given(term_dicts(), st.lists(st.complex_numbers(min_magnitude=0.05, max_magnitude=3,
                                                 allow_nan=False, allow_infinity=False),
                              min_size=1, max_size=8))
# beyond |e| = 100 CPython's ** leaves repeated squaring for its polar c_pow
@example({101: 0.5 - 1j, 120: 2.0, 150: -1j, -130: 1.5, 0: 1.0},
         [1.24 + 0.38j, 0.59 + 1.16j, -0.54 + 1.18j, -1.04 - 0.78j])
def test_evaluate_matches_scalar_sum_bitwise(coeffs, zs):
    f = L(coeffs, min_exp=min(coeffs, default=0))
    oracle = float_hex([scalar_evaluate(f, complex(z)) for z in zs])
    assert float_hex(f.evaluate(np.array(zs))) == oracle
    assert float_hex([f.evaluate(z) for z in zs]) == oracle


def test_evaluate_signed_zeros_bitwise():
    # points and coefficients on the axes, where only the exact CPython
    # operation order gives the oracle's signs of zero, and points on the
    # diagonals, where the two branches of Smith's quotient meet
    f = L({-3: -0.0 + 2j, 0: 1.0 - 0.0j, 2: -1.0 + 0j, 5: 0.5j, -1: -2.0}, -3)
    zs = np.array([0.5j, -0.5j, complex(-0.0, 0.7), complex(0.7, -0.0), -0.3, 1.0,
                   0.5 + 0.5j, -0.5 + 0.5j, 0.25 - 0.25j])
    oracle = float_hex([scalar_evaluate(f, complex(z)) for z in zs])
    assert float_hex(f.evaluate(zs)) == oracle
    assert float_hex([f.evaluate(complex(z)) for z in zs]) == oracle


def test_evaluate_return_types():
    # a scalar in gives a Python complex out; an array gives an array of its shape
    f = L({-2: 1.5 - 1j, 0: 2.0, 3: 0.25j}, -2)
    grid = np.full((3, 4), 0.3 + 0.1j)
    assert type(f.evaluate(0.3 + 0.1j)) is complex
    assert type(f.evaluate(np.complex128(0.3 + 0.1j))) is complex
    assert type(f.evaluate(2)) is complex
    out = f.evaluate(grid)
    assert isinstance(out, np.ndarray) and out.shape == (3, 4) and out.dtype == complex
    assert float_hex(out) == float_hex([scalar_evaluate(f, 0.3 + 0.1j)] * 12)
    zero = L.zero()
    assert type(zero.evaluate(0.5)) is complex and zero.evaluate(0.5) == 0
    assert zero.evaluate(grid).shape == (3, 4) and not zero.evaluate(grid).any()
    # CPython refuses 0 ** -k; so does the array path, at any point of the array
    with pytest.raises(ZeroDivisionError):
        f.evaluate(np.array([0.5, 0.0]))


@st.composite
def compose_inputs(draw):
    """(f, g) with exponents of f in [-3, 14] and g of order 1..6, g's floor in [0, ord g]."""
    f = draw(st.dictionaries(st.integers(-3, 14), coefficients, max_size=12))
    f = L(f, min_exp=min(f, default=0),
          trunc_order=draw(st.one_of(st.just(EXACT), st.integers(max(f, default=0), 20))))
    g = draw(st.dictionaries(st.integers(1, 6), coefficients, min_size=1, max_size=6))
    g = L(g)
    assume(not g.is_zero())
    g = L(g.coeffs, min_exp=draw(st.integers(0, g.order())),
          trunc_order=draw(st.integers(max(g.coeffs), 12)))
    return f, g


@BITWISE
@given(compose_inputs())
def test_compose_matches_uncut_horner(fg):
    # the terms compose skips reach no coefficient of the result's window, and
    # skipping them moves neither a bit, nor the key order, nor the window; a
    # 1/g that is not finite raises the same typed error on both sides
    f, g = fg

    def outcome(compose):
        try:
            return series_hex(compose(f, g))
        except DivisionByZeroSeries:
            return DivisionByZeroSeries
    assert outcome(L.compose) == outcome(uncut_compose)


def test_compose_window_of_negative_truncation():
    # f = z^-2 known to z^-2 and g = z^2 + O(z^5): the first unknown term of
    # f, c z^-1, starts at c z^-2 once substituted, so the result is known to
    # z^-3 only
    f = L({-2: 1.0}, -2, -2)
    g = L({2: 1.0}, 2, 4)
    assert f.compose(g).trunc_order == -3


def test_compose_window_of_order_two_substitution():
    # f known to z^2 and g = z^2 + z^3 + O(z^10): the first unknown term of f,
    # c z^3, starts at z^6 once substituted, so the result is known to z^5
    f = L({0: 1.0, 1: 1.0, 2: 1.0}, 0, 2)
    comp = f.compose(L({2: 1.0, 3: 1.0}, 2, 9))
    assert comp.trunc_order == 5
    assert comp.coeffs == {0: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 2.0}


@SOUNDNESS
@given(windows(st.integers(-2, 3), finite=False), windows(st.integers(1, 2)),
       st.integers(1, 3))
def test_compose_window_sound_for_floor_below_zero(fa, gb, drop):
    # a floor of g below 0 makes the windows of the Horner products looser
    # with each product, so the uncut Horner sum reports a narrower window
    # than compose; the one compose reports is sound
    (f, f_full), (g, g_full) = fa, gb
    g = L(g.coeffs, -drop, g.trunc_order)
    comp = f.compose(g)
    _assert_sound(comp, _exact_compose(f_full, g_full, comp.trunc_order))


# ---------------------------------------------------------------------------
# the binomial loop of inverse
# ---------------------------------------------------------------------------

def geometric_inverse(f):
    """1/f = z^-m / lead * sum (-N)^k for f = lead z^m (1 + N): the oracle of ``inverse``."""
    m = f.order()
    lead = f.coeffs[m]
    n_trunc = min(f.trunc_order - m, EXACT)
    tail = {e - m: c / lead for e, c in f.coeffs.items() if e != m}
    geom = L({0: 1.0}, 0, n_trunc)
    if tail:
        n_ser = L(tail, min(tail), n_trunc)
        power = L({0: 1.0}, 0, n_trunc)
        sign = 1.0
        for _ in range(n_trunc // min(tail) + 1):
            power = power * n_ser
            sign = -sign
            if power.is_zero():
                break
            geom = geom + power.scale(sign)
    return geom.scale(1.0 / lead).shift(-m)


@st.composite
def invertible(draw):
    """A series with exponents in [-3, 8], a lead of modulus >= 0.1 and a finite window."""
    m = draw(st.integers(-3, 3))
    tail = draw(st.dictionaries(st.integers(m + 1, 8), coefficients, max_size=8))
    lead = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                                   allow_nan=False, allow_infinity=False))
    return L({m: lead, **tail}, m, draw(st.integers(max(tail, default=m), 14)))


@BITWISE
@given(invertible())
def test_inverse_matches_geometric_series_bitwise(f):
    # the binomial factors of alpha = -1 are exactly -1.0 and 1.0, so the
    # shared loop gives the geometric series in every bit, key and window
    assert series_hex(f.inverse()) == series_hex(geometric_inverse(f))


def test_exact_series_without_finite_window_raises():
    # (1 + N)^alpha of an exactly known N ends only for a nonnegative integer
    # alpha; otherwise the error names the term count and where N starts
    with pytest.raises(TruncationInsufficient, match=r"with 2 terms .* N starts at z\^1"):
        L.monomial(1.0, -1).compose(L({1: 1.0, 2: 1.0}))
    with pytest.raises(TruncationInsufficient, match=r"with 3 terms .* N starts at z\^2"):
        L({0: 4.0, 2: 1.0, 5: 1.0})._unit_power(0.5, 2.0, 0)
    square = L({1: 1.0, 2: 1.0})._unit_power(2, 1.0, 2)
    assert (square.coeffs, square.trunc_order) == ({2: 1.0, 3: 2.0, 4: 1.0}, EXACT)
    assert L.monomial(2.0, 3).inverse().coeffs == {-3: 0.5}


def test_non_finite_power_raises():
    # a lead too small against the other terms to divide by overflows the
    # binomial loop or Miller's recurrence: the error names alpha, the lead
    # and the first exponent whose term is not finite (in a stack, the row
    # too), and no RuntimeWarning escapes
    tiny = L({1: 1.18e-38, 2: 1.0}, 1, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivisionByZeroSeries,
                           match=r"power -1 .* 1\.18e-38\+0j at z\^1 is not finite at z\^7$"):
            tiny.inverse()
        # through the inverse of tiny / z, known to z^8
        with pytest.raises(DivisionByZeroSeries, match=r"power -1 of row 0 with leading"
                           r" coefficient 1\.18e-38\+0j is not finite at z\^8$"):
            tiny.functional_inverse()
        # the unit part of 1e-200 z^2 + z^3 known to z^6; z^2 of it is z^4 of the root
        unit = np.array([1e-200, 1.0, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(DivisionByZeroSeries, match=r"power 0\.5 of row 0 with leading"
                           r" coefficient 1e-200\+0j is not finite at z\^2$"):
            power1(unit, 0.5)
        with pytest.raises(DivisionByZeroSeries, match=r"power 0\.5 of row 1 .* z\^2$") as err:
            power1(np.stack([np.ones(5, dtype=complex), unit]), 0.5)
        assert err.value.row == 1


# ---------------------------------------------------------------------------
# two-variable series: window soundness against exact arithmetic
# ---------------------------------------------------------------------------

# An n x n array claims the coefficients of total degree < n.  The untruncated
# inputs are integer polynomials whose terms of degree n are lead * (1 or 2),
# so a result that claims one more degree shows; a product, a reciprocal or a
# division that does must fail these tests.

@st.composite
def bivariate(draw, sizes=st.integers(1, 5)):
    """(n x n array, untruncated {(p, q): integer}) with a lead of +-1 at (0, 0)."""
    n = draw(sizes)
    lead = draw(st.sampled_from((1, -1)))
    full = {(0, 0): lead}
    for d in range(1, n + 2):
        for p in range(d + 1):
            if d < n:
                full[(p, d - p)] = draw(st.integers(-2, 2))
            elif d == n:
                full[(p, d - p)] = lead * draw(st.sampled_from((1, 2)))
            else:
                full[(p, d - p)] = draw(st.integers(-2, 2))
    arr = np.zeros((n, n), dtype=complex)
    for (p, q), c in full.items():
        if p + q < n:
            arr[p, q] = c
    return arr, full


def _exact_mul2(a, b):
    out = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            out[(p1 + p2, q1 + q2)] = out.get((p1 + p2, q1 + q2), 0) + c1 * c2
    return out


def _exact_inverse2(a, cap):
    """1/a to total degree cap, for a with a[(0, 0)] = +-1."""
    lead, out = a[(0, 0)], {(0, 0): a[(0, 0)]}
    for d in range(1, cap + 1):
        for p in range(d + 1):
            acc = sum(c * out.get((p - i, d - p - j), 0) for (i, j), c in a.items()
                      if (i, j) != (0, 0) and i <= p and j <= d - p)
            out[(p, d - p)] = -lead * acc
    return out


def _assert_sound2(result, exact):
    n = len(result)
    assert result.shape == (n, n)
    for p in range(n):
        for q in range(n):
            want = exact.get((p, q), 0) if p + q < n else 0
            assert result[p, q] == want, (p, q, result, exact)


@SOUNDNESS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(bivariate(st.just(n)),
                                                    bivariate(st.just(n)))))
def test_mul2_window_sound(pair):
    (f, f_full), (g, g_full) = pair
    _assert_sound2(mul2(f, g), _exact_mul2(f_full, g_full))


def _loop_mul2(x, y):
    """The term-by-term product: out[i:, j:] += x[i, j] y for each nonzero x[i, j], row by row."""
    n = len(x)
    out = np.zeros((n, n), dtype=complex)
    for i, j in zip(*np.nonzero(_below_degree(x))):
        out[i:, j:] += x[i, j] * y[:n - i, :n - j]
    return _below_degree(out)


def test_mul2_matches_term_loop_bitwise():
    # the batched products add each term in the loop's (i, j) order, in one
    # batch or, from size 16, in several: every bit agrees, zeros and their
    # signs included, over sparse and dense operands of magnitudes 1e-8 .. 1e8
    rng = np.random.default_rng(23)
    for n in list(range(1, 24)) * 8 + [32, 32]:
        x, y = (rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
                ) * 10.0 ** rng.integers(-8, 9, size=(2, n, n))
        x[rng.random((n, n)) < rng.random()] = 0
        y[rng.random((n, n)) < rng.random()] = 0
        y.imag[rng.random((n, n)) < 0.2] = -0.0
        got, want = mul2(x, y), _loop_mul2(x, y)
        assert got.tobytes() == want.tobytes(), n


def _row_stack(rng, k, n, invertible=False):
    """k rows of size n: dense and sparse patterns, exact (and signed) zeros, magnitudes 1e-8 .. 1e8.

    Unless ``invertible``, one row is all zero; otherwise every row has x[0, 0] != 0.
    """
    x = (rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
         ) * 10.0 ** rng.integers(-8, 9, size=(k, n, n))
    for r, row in enumerate(x):
        if r % 3 == 1:                  # first row and column only, as z_a - z_b
            row[1:, 1:] = 0
        row[rng.random((n, n)) < rng.random()] = 0
        row.imag[rng.random((n, n)) < 0.2] = -0.0
    if invertible:
        x[:, 0, 0] += 1.0
    else:
        x[rng.integers(k)] = 0
    return x


# (rows, size): every size 1 - 32, and stacks the product splits into
# chunks of rows (more than _MUL2_BATCH / n^3 rows) or batches of terms
_STACKS = [(5, n) for n in range(1, 33)] + [(40, 8), (9, 12), (6, 16), (3, 24)]


def test_stacked_mul2_rows_equal_solo_bitwise():
    # each row of a stacked product is the 2-D product of that row, every
    # bit of it, zeros and their signs included
    assert any(k > max(1, _MUL2_BATCH // n ** 3) for k, n in _STACKS)
    rng = np.random.default_rng(29)
    for k, n in _STACKS:
        x, y = _row_stack(rng, k, n), _row_stack(rng, k, n)
        got = mul2(x, y)
        assert got.shape == (k, n, n)
        for r in range(k):
            assert got[r].view(float).tobytes() == mul2(x[r], y[r]).view(float).tobytes(), (k, n, r)
    # any leading axes: a (2, 3) stack is six rows
    x, y = _row_stack(rng, 6, 7), _row_stack(rng, 6, 7)
    got = mul2(x.reshape(2, 3, 7, 7), y.reshape(2, 3, 7, 7))
    assert got.reshape(6, 7, 7).tobytes() == mul2(x, y).tobytes()


def test_stacked_inverse2_rows_equal_solo_bitwise():
    rng = np.random.default_rng(31)
    for k, n in [(5, n) for n in (1, 2, 3, 5, 8, 13, 16, 21, 32)] + [(40, 8), (6, 16)]:
        x = _row_stack(rng, k, n, invertible=True)
        got = inverse2(x)
        for r in range(k):
            assert got[r].view(float).tobytes() == inverse2(x[r]).view(float).tobytes(), (k, n, r)


def _horner_inverse2(x):
    """1/x by Horner's rule r <- 1 - u r, one mul2 per degree: step m works at size m."""
    scale = 1.0 / x[..., :1, :1]
    u = x * scale
    u[..., 0, 0] = 0.0
    r = np.ones(x.shape[:-2] + (1, 1), dtype=complex)
    for m in range(2, x.shape[-1] + 1):
        prev = r
        r = np.zeros(x.shape[:-2] + (m, m), dtype=complex)
        r[..., :-1, :-1] = prev
        r = -mul2(u[..., :m, :m], r)
        r[..., 0, 0] += 1.0
    return r * scale


def test_inverse2_matches_horner_bitwise():
    # the anti-diagonal sums give every bit of Horner's rule, zeros and their
    # signs included, on every size 1 - 44 (the g2 chi = 7 working size) and
    # on stacks whose top degrees split into several batches of terms
    rng = np.random.default_rng(61)
    stacks = [(5 if n <= 32 else 2, n) for n in range(1, 45)] + [(40, 8), (6, 16), (10, 8), (21, 8)]
    # at the top degree of the largest sizes the terms take several batches
    assert any(len(_inverse2_plan(n, n - 1)[0]) > _MUL2_BATCH // (k * n) for k, n in stacks[1:])
    for k, n in stacks:
        x = _row_stack(rng, k, n, invertible=True)
        assert inverse2(x).tobytes() == _horner_inverse2(x).tobytes(), (k, n)
    x = _row_stack(rng, 1, 9, invertible=True)[0]
    assert inverse2(x).tobytes() == _horner_inverse2(x).tobytes()


def test_stacked_divide_diagonal2_rows_equal_solo_bitwise():
    # one sign per row, or one for the whole stack
    rng = np.random.default_rng(37)
    for n in range(2, 33):
        x = _row_stack(rng, 6, n)
        eps = np.array([1, -1, -1, 1, 1, -1])
        got = divide_diagonal2(x, eps)
        for r in range(len(x)):
            solo = divide_diagonal2(x[r], int(eps[r]))
            assert got[r].view(float).tobytes() == solo.view(float).tobytes(), (n, r)
        assert divide_diagonal2(x, -1).tobytes() == divide_diagonal2(x, -np.ones(6)).tobytes()


@SOUNDNESS
@given(bivariate())
def test_inverse2_window_sound(fa):
    f, f_full = fa
    _assert_sound2(inverse2(f), _exact_inverse2(f_full, len(f)))


@SOUNDNESS
@given(bivariate(), st.sampled_from((1, -1)))
def test_divide_diagonal2_window_sound(qa, eps):
    # x = (t1 - eps t2) q, claimed to degree n: the quotient is q to degree
    # n - 1, and (t1 - eps t2) times it leaves a zero remainder
    q, q_full = qa
    n = len(q) + 1
    x_full = _exact_mul2({(1, 0): 1, (0, 1): -eps}, q_full)
    x = np.array([[x_full.get((p, m), 0) if p + m < n else 0 for m in range(n)]
                  for p in range(n)], dtype=complex)
    got = divide_diagonal2(x, eps)
    _assert_sound2(got, q_full)
    back = _exact_mul2({(1, 0): 1, (0, 1): -eps},
                       {(p, m): got[p, m] for p in range(n - 1) for m in range(n - 1)})
    _assert_sound2(x, back)


@SOUNDNESS
@given(bivariate(st.integers(2, 5)), bivariate(st.integers(2, 5)), coefficients, coefficients)
def test_bivariate_low_degrees_do_not_depend_on_size(fa, gb, u, v):
    # on complex coefficients, every coefficient of degree d is the same, bit
    # for bit, at every size that knows it
    (f, _), (g, _) = fa, gb
    n = min(len(f), len(g))
    f, g = f[:n, :n] * u, g[:n, :n] * v
    g[0, 0] = 1.5 + 0.25j
    for m in range(1, n):
        pairs = ((mul2(f[:m, :m], g[:m, :m]), mul2(f, g)),
                 (inverse2(g[:m, :m]), inverse2(g)),
                 (divide_diagonal2(f[:m + 1, :m + 1], 1), divide_diagonal2(f, 1)),
                 (divide_diagonal2(f[:m + 1, :m + 1], -1), divide_diagonal2(f, -1)))
        for small, large in pairs:
            known = np.add.outer(np.arange(len(small)), np.arange(len(small))) < len(small)
            assert float_hex(small[known]) == float_hex(large[:len(small), :len(small)][known])


# ---------------------------------------------------------------------------
# exactly known series keep their window under shift and derivative
# ---------------------------------------------------------------------------

def test_shift_and_derivative_keep_exact():
    # an exact series stays exact, so the binomial loop of a non-integer
    # power of it raises instead of running toward EXACT products
    f = L({1: 2.0, 3: 1.0})
    assert f.shift(-1).trunc_order == f.shift(-3).trunc_order == EXACT
    assert f.derivative().trunc_order == EXACT
    assert L({1: 2.0}, 1, 8).shift(-1).trunc_order == 7
    with pytest.raises(TruncationInsufficient, match="exactly known series with 2 terms"):
        f.shift(-1).inverse()
    with pytest.raises(TruncationInsufficient, match="exactly known series with 2 terms"):
        f.derivative().inverse()


# ---------------------------------------------------------------------------
# one-variable stacks: rows, working sizes and the series oracles
# ---------------------------------------------------------------------------

def _stack1(rng, k, n, lead=False):
    """k rows of size n: dense and sparse rows, exact (and signed) zeros, magnitudes 1e-3 .. 1e3.

    With ``lead`` every row has x[0] of modulus >= 0.5; otherwise one row is all zero.
    """
    x = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
         ) * 10.0 ** rng.integers(-3, 4, size=(k, n))
    x[rng.random((k, n)) < 0.3] = 0
    x.imag[rng.random((k, n)) < 0.2] = -0.0
    if lead:
        x[:, 0] = (0.5 + rng.random(k)) * np.exp(2j * np.pi * rng.random(k))
    else:
        x[rng.integers(k)] = 0
    return x


def _helpers1(rng, k, n):
    """(name, stacked call, per-row call) for each one-variable helper on fresh stacks."""
    a, b = _stack1(rng, k, n), _stack1(rng, k, n)
    u = _stack1(rng, k, n, lead=True) * 1e-2
    u[:, 0] *= 1e2
    g = _stack1(rng, k, n) * 0.5
    g[:, 0] = 0
    f = _stack1(rng, 2 * k, n + 3).reshape(2, k, n + 3)
    return [
        ("mul1", lambda: mul1(a, b), lambda r: mul1(a[r], b[r])),
        ("power1 1/2", lambda: power1(u, 0.5), lambda r: power1(u[r], 0.5)),
        ("power1 1/3", lambda: power1(u, 1 / 3), lambda r: power1(u[r], 1 / 3)),
        ("power1 -1", lambda: power1(u, -1), lambda r: power1(u[r], -1)),
        ("revert1", lambda: revert1(u), lambda r: revert1(u[r])),
        ("compose1", lambda: compose1(f, g), lambda r: compose1(f[:, r], g[r])),
    ]


def test_stacked_one_variable_rows_equal_solo_bitwise():
    # each row of a stacked call is the call on that row alone, every bit of
    # it, zeros and their signs included; compose1 broadcasts two series
    # over each row of g
    rng = np.random.default_rng(41)
    for k, n in [(4, n) for n in range(1, 25)] + [(9, 47)]:
        for name, stacked, solo in _helpers1(rng, k, n):
            got = stacked()
            for r in range(k):
                assert float_hex(got[..., r, :]) == float_hex(solo(r)), (name, k, n, r)


def test_one_variable_low_coefficients_do_not_depend_on_size():
    # the first m coefficients at size n are those at size m
    rng = np.random.default_rng(43)
    for n in (1, 2, 5, 8, 9, 17, 30):
        a, b = _stack1(rng, 3, n), _stack1(rng, 3, n)
        u = _stack1(rng, 3, n, lead=True)
        g = _stack1(rng, 3, n)
        g[:, 0] = 0
        f = _stack1(rng, 3, n + 2)
        for m in range(1, n + 1):
            pairs = ((mul1(a[:, :m], b[:, :m]), mul1(a, b)),
                     (power1(u[:, :m], 0.5), power1(u, 0.5)),
                     (power1(u[:, :m], -1), power1(u, -1)),
                     (revert1(u[:, :m]), revert1(u)),
                     (compose1(f, g[:, :m]), compose1(f, g)))
            for small, large in pairs:
                assert np.array_equal(small, large[:, :m]), (n, m)


def test_one_variable_helpers_match_series_oracles():
    # against LaurentSeries products, inverses and Horner composition, and a
    # 60-digit reversion, on random rows known to z^(n-1)
    rng = np.random.default_rng(47)
    for n in (1, 3, 8, 12):
        a, b = _stack1(rng, 2, n), _stack1(rng, 2, n)
        u = _stack1(rng, 2, n, lead=True) * 0.2
        u[:, 0] *= 5.0
        g = _stack1(rng, 2, n) * 0.2
        g[:, 0] = 0
        for r in range(2):
            sa, sb, su, sg = (L.from_list(list(x[r])) for x in (a, b, u, g))
            scale = max(sa.max_abs() * sb.max_abs(), 1.0)
            assert max_coeff_diff(L.from_list(list(mul1(a, b)[r])), sa * sb) <= 1e-15 * scale
            inv = su.inverse()
            assert max_coeff_diff(L.from_list(list(power1(u, -1)[r])), inv) <= 1e-14 * inv.max_abs()
            comp = sa.compose(sg) if not sg.is_zero() else L.from_list([a[r, 0]] + [0] * (n - 1))
            got = L.from_list(list(compose1(a, g)[r]))
            assert max_coeff_diff(got, comp, 0, n - 1) <= 1e-14 * max(comp.max_abs(), 1.0)
            h = revert1(u)[r]
            exact = np.array(mp_reversion(su.shift(1)))
            assert np.max(np.abs(h - exact)) <= 1e-14 * np.max(np.abs(exact))
