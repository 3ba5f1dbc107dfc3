"""Polynomial and rational function algebra, jets, partial fractions."""

import math
import warnings
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kreincalc import (
    INF,
    GramSpace,
    JetAtPoleError,
    LinearRelation,
    MoebiusMap,
    Polynomial,
    RationalFunction,
    SingularMoebiusError,
    ValidationError,
    verify_definitizing,
)
from kreincalc.rational import (
    _cluster_members,
    _series_divide,
    _taylor_shift,
    _zero_order,
)
from kreincalc.relations import is_inf
from kreincalc.tolerances import COEFF_TRIM_TOL

from helpers import exact_shift, exact_zero_degree

# zero or of ordinary size: near-zero leading coefficients manufacture
# pole-zero pairs inside the cancellation radius, which normalization is
# documented to remove (perturbing values up to that radius)
finite_coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False).filter(
    lambda x: x == 0.0 or abs(x) >= 1e-3
)


def _pole_by_pole_terms(r):
    """Principal parts one pole at a time: the cofactor of each pole expanded
    into coefficients by Polynomial.from_roots, then Taylor-shifted."""
    _, w = r.num.divmod(r.den)
    droots = r.den.clustered_roots()
    terms = []
    for k, (alpha, nu) in enumerate(droots):
        others = [c for i, (c, m) in enumerate(droots) if i != k for _ in range(m)]
        t = _series_divide(_taylor_shift(w.coeffs.tolist(), alpha),
                           _taylor_shift(Polynomial.from_roots(others).coeffs.tolist(), alpha), nu)
        terms += [(alpha, j, complex(t[nu - j])) for j in range(1, nu + 1)]
    return terms


def _random_real_rational(rng):
    """Real q with denominator degree up to 8, poles on a grid of spacing 1:
    simple real poles, conjugate pairs and at most one double or triple real
    pole, over a numerator of degree up to deg + 4.  Returns q and the
    sorted pole orders it was built with."""
    centers = list(rng.permutation(np.arange(-3.0, 3.01)))
    roots, orders = [], []
    while len(roots) < 8 and centers and rng.random() < 0.8:
        if rng.random() < 0.3 and len(roots) <= 6:
            a, b = centers.pop(), rng.uniform(0.5, 1.5)
            roots += [a + 1j * b, a - 1j * b]
            orders += [1, 1]
        else:
            m = int(min(rng.choice([1, 1, 2, 3]), 8 - len(roots)))
            m = 1 if m > 1 and max(orders, default=1) > 1 else m
            roots += [centers.pop()] * m
            orders.append(m)
    num = rng.normal(size=int(rng.integers(1, len(roots) + 6)))
    den = np.real(np.poly(roots)[::-1]) if roots else [1.0]
    return RationalFunction(Polynomial(num), Polynomial(den)), sorted(orders)


class TestPolynomial:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_coefficients_rejected(self, bad):
        # an infinite coefficient must not be trimmed into the zero polynomial
        with pytest.raises(ValidationError, match="finite"):
            Polynomial([1.0, bad])
        with pytest.raises(ValidationError, match="finite"):
            Polynomial([bad])

    def test_evaluation_matches_horner_oracle(self):
        p = Polynomial([1.0, -2.0, 0.5, 3.0])
        z = 0.7 - 1.1j
        # oracle: numpy polyval with reversed coefficient order
        want = np.polyval([3.0, 0.5, -2.0, 1.0], z)
        assert abs(p(z) - want) < 1e-12

    @given(st.lists(finite_coeff, min_size=1, max_size=5),
           st.lists(finite_coeff, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_product_evaluates_pointwise(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        z = 0.37 + 0.21j
        prod = pa * pb
        assert abs(prod(z) - pa(z) * pb(z)) <= 1e-9 * max(1.0, abs(pa(z) * pb(z)))

    @given(st.lists(finite_coeff, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_shift_is_taylor_expansion(self, coeffs):
        p = Polynomial(coeffs)
        w = 1.3
        jet = _taylor_shift(p.coeffs.tolist(), w)
        z = w + 0.1
        series = sum(jet[k] * (z - w) ** k for k in range(len(jet)))
        assert abs(series - p(z)) <= 1e-8 * max(1.0, abs(p(z)))

    def test_divmod_reconstructs(self):
        num = Polynomial([1.0, 2.0, 3.0, 4.0])
        den = Polynomial([1.0, 1.0])
        quot, rem = num.divmod(den)
        back = quot * den + rem
        assert np.allclose(back.coeffs, num.coeffs)
        assert rem.degree < den.degree

    def test_degree_and_trimming(self):
        assert Polynomial([0.0]).degree == -1
        assert Polynomial([1.0, 0.0, 0.0]).degree == 0
        assert Polynomial([1.0, 2.0]).degree == 1

    def test_trim_keeps_a_small_nonzero_leading_coefficient(self):
        # the leading coefficient 1 sits below COEFF_TRIM_TOL times the constant term
        cases = [list(range(30, 38)), list(range(10, 22)), list(np.arange(5.0, 12.75, 0.5)), [100.0] * 6]
        assert [Polynomial.from_roots(roots).degree for roots in cases] == [8, 12, 16, 6]
        big = Polynomial([-1e6, 1.0]) * Polynomial([-2e6, 1.0])
        assert big.degree == 2 and big.leading == 1.0
        assert Polynomial.from_roots([1e6, 2e6]).degree == 2
        assert Polynomial([1.0, 2.0, 1e-300]).degree == 2
        # exact zeros still shorten; every other coefficient is kept as given
        assert Polynomial([1.0, 2.0, 0.0, 0.0]).degree == 1
        assert Polynomial([1e-20, 1.0, 1.0]).coeffs.tolist() == [1e-20, 1.0, 1.0]

    def test_coefficients_are_kept_as_given(self):
        # the coefficients of prod (z - j), j = 30..39, span 2.3e15, and none is zeroed
        roots = list(range(30, 40))
        assert np.array_equal(Polynomial.from_roots(roots).coeffs, npp.polyfromroots(roots))
        # the middle coefficient -2e13 of a double zero at 1e13 stays, and with it the order of the zero
        assert RationalFunction(Polynomial.from_roots([1e13, 1e13])).zero_degree_at(1e13) == 2

    def test_cancellation_noise_does_not_raise_the_degree(self):
        third = 0.1 + 0.2  # 0.30000000000000004: the z^2 terms differ by rounding alone
        diff = Polynomial([1.0, 2.0, third]) - Polynomial([0.0, 1.0, 0.3])
        assert diff.degree == 1 and diff.coeffs.tolist() == [1.0, 1.0]
        total = Polynomial([1.0, 2.0, third]) + Polynomial([0.0, 1.0, -0.3])
        assert total.degree == 1 and total.coeffs.tolist() == [1.0, 3.0]
        # a real top difference stays, however small against the other powers
        assert (Polynomial([1e8, 0.0, 2.0]) - Polynomial([0.0, 0.0, 1.0])).degree == 2
        # the same product built two ways differs by rounding alone, and cancels to the zero polynomial
        roots = [30.1 + 0.7 * k for k in range(8)]
        a = Polynomial.from_roots(roots)
        b = Polynomial.from_roots(roots[:4]) * Polynomial.from_roots(roots[4:])
        assert not np.array_equal(a.coeffs, b.coeffs)
        assert (a - b).is_zero

    def test_from_roots_and_roots_roundtrip(self):
        roots = [1.0, -0.5, 2.0 + 1.0j]
        p = Polynomial.from_roots(roots)
        got = sorted(p.roots(), key=lambda z: (z.real, z.imag))
        want = sorted(map(complex, roots), key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))

    def test_from_roots_accepts_a_generator(self):
        # the roots are read once, so a one-shot iterable gives the full product
        p = Polynomial.from_roots((r for r in [1.0, 2.0]), leading=2.0)
        assert np.allclose(p.coeffs, [4.0, -6.0, 2.0])

    @pytest.mark.parametrize("mult", [2, 3, 4])
    def test_clustered_roots_recovers_multiplicity(self, mult):
        p = Polynomial.from_roots([0.5] * mult + [2.0])
        got = {}
        for c, m in p.clustered_roots():
            got[round(c.real, 3)] = m
        assert got == {0.5: mult, 2.0: 1}

    def test_cluster_members_returns_member_indices(self):
        groups = _cluster_members([3.0, 1.0, 1.0 + 1e-9, 2.0], 1e-6)
        assert [idx for _, idx in groups] == [[1, 2], [3], [0]]
        assert groups[0][0] == (1.0 + (1.0 + 1e-9)) / 2

    def test_clustered_roots_keeps_close_distinct_roots_apart(self):
        p = Polynomial.from_roots([1.0, 1.0 + 2e-4, 1.0 - 2e-4])
        assert len(p.clustered_roots()) == 3

    def test_conjugate_reflection(self):
        p = Polynomial([1.0 + 2.0j, 3.0])
        q = p.conj_reflect()
        z = 0.4 + 0.9j
        assert abs(q(z) - np.conj(p(np.conj(z)))) < 1e-12


class TestRationalFunction:
    def test_normalization_cancels_common_roots(self):
        num = Polynomial.from_roots([1.0, 2.0])
        den = Polynomial.from_roots([1.0, 3.0])
        r = RationalFunction(num, den)
        assert r.num.degree == 1
        assert r.den.degree == 1
        # the surviving pole and zero
        assert any(abs(p - 3.0) < 1e-8 for p, _ in r.poles())
        assert any(abs(z - 2.0) < 1e-8 for z, _ in r.num.clustered_roots())

    def test_denominator_made_monic(self):
        r = RationalFunction(Polynomial([2.0]), Polynomial([0.0, 4.0]))
        assert abs(r.den.leading - 1.0) < 1e-14

    @given(finite_coeff, finite_coeff, finite_coeff, finite_coeff)
    @settings(max_examples=150, deadline=None)
    def test_field_arithmetic_pointwise(self, a0, a1, b0, b1):
        r = RationalFunction(Polynomial([a0, a1]), Polynomial([1.0, 0.5]))
        s = RationalFunction(Polynomial([b0, b1]), Polynomial([2.0, -1.0]))
        z = 0.123 + 0.456j
        rv, sv = r(z), s(z)
        assert abs((r + s)(z) - (rv + sv)) <= 1e-8 * max(1.0, abs(rv + sv))
        assert abs((r * s)(z) - (rv * sv)) <= 1e-8 * max(1.0, abs(rv * sv))
        assert abs((r - s)(z) - (rv - sv)) <= 1e-8 * max(1.0, abs(rv - sv))

    def test_value_at_pole_and_infinity(self):
        r = RationalFunction(Polynomial([1.0]), Polynomial.from_roots([2.0]))
        assert r(2.0) is INF
        assert r(INF) == 0.0
        grows = RationalFunction(Polynomial([0.0, 0.0, 1.0]), Polynomial([1.0, 1.0]))
        assert grows(INF) is INF

    def test_poles_and_zeros_at_infinity_from_degree_gap(self):
        r = RationalFunction(Polynomial([0.0, 0.0, 0.0, 1.0]), Polynomial([1.0, 1.0]))
        poles = dict(r.poles())
        assert poles[INF] == 2
        s = RationalFunction(Polynomial([1.0]), Polynomial([1.0, 0.0, 1.0]))
        assert s.zero_degree_at(INF) == 2

    def test_sharp_symmetry_and_realness(self):
        r = RationalFunction(Polynomial([1.0, 2.0]), Polynomial([1.0, 0.0, 1.0]))
        assert r.is_real()
        # both are normalized (monic denominator), so equal functions have equal coefficients
        assert np.allclose(r.sharp().num.coeffs, r.num.coeffs) and np.allclose(r.sharp().den.coeffs, r.den.coeffs)
        c = RationalFunction(Polynomial([1.0j]), Polynomial([1.0]))
        assert not c.is_real()
        z = 0.3 + 1.7j
        assert abs(c.sharp()(z) - np.conj(c(np.conj(z)))) < 1e-12

    def test_jet_at_finite_point_matches_difference_quotients(self):
        r = RationalFunction(Polynomial([1.0, 1.0]), Polynomial([3.0, -1.0, 1.0]))
        w = 0.8
        jet = r.jet_at(w, 3)
        # oracle: 4th order central differences for the first derivatives
        h = 1e-5
        d0 = r(w)
        d1 = (r(w - 2 * h) - 8 * r(w - h) + 8 * r(w + h) - r(w + 2 * h)) / (12 * h)
        assert abs(jet[0] - d0) < 1e-10
        assert abs(jet[1] - d1) < 1e-8

    def test_jet_at_pole_raises(self):
        r = RationalFunction(Polynomial([1.0]), Polynomial.from_roots([1.5]))
        with pytest.raises(JetAtPoleError):
            r.jet_at(1.5, 2)

    def test_jet_at_infinity(self):
        # [DERIVED]: r(z) = 1/z has jet (0, 1, 0, ...) at infinity since
        # r(1/t) = t
        r = RationalFunction(Polynomial([1.0]), Polynomial([0.0, 1.0]))
        jet = r.jet_at(INF, 2)
        assert np.allclose(jet, [0.0, 1.0, 0.0])
        # r(z) = (z^2+2)/(z^2+1) = 1 + 1/z^2 - 1/z^4 + ... at infinity
        s = RationalFunction(Polynomial([2.0, 0.0, 1.0]), Polynomial([1.0, 0.0, 1.0]))
        jet2 = s.jet_at(INF, 4)
        assert np.allclose(jet2, [1.0, 0.0, 1.0, 0.0, -1.0])

    def test_zero_degree_bookkeeping(self):
        r = RationalFunction(Polynomial.from_roots([2.0, 2.0]), Polynomial([1.0, 0.0, 0.0, 1.0]))
        assert r.zero_degree_at(2.0) == 2
        assert r.zero_degree_at(5.0) == 0
        assert r.zero_degree_at(INF) == 1

    def test_zero_degree_where_the_shift_of_num_overflows(self):
        # num trims to z^3 - 1e120 z^2 - 1e120: its plain Taylor shift to the next float above the root 1e120 is
        # not finite, so the order there is read from the shift of the rho-scaled coefficients; at the other
        # points the plain shift is finite and read as it is
        r = RationalFunction(Polynomial.from_roots([1e120, 1j, -1j]))
        points = [complex(np.nextafter(1e120, np.inf)), 1e120 + 0j, 1j, -1j, 2.0 + 0j]
        assert [np.isfinite(_taylor_shift(r.num.coeffs.tolist(), w)).all() for w in points] == [False] + [True] * 4
        assert [r.zero_degree_at(w) for w in points] == r._jets(points)[0] == [1, 1, 1, 1, 0]

    def test_a_modulus_that_passes_the_float_range_is_a_validation_error(self):
        # finite parts whose modulus passes the float range, where Python's abs raises: as given, or once the
        # division by den's leading coefficient 0.9 makes it so
        for num, den in (([1.5e308 + 1.5e308j, 1.0], [1.0]), ([1.2e308 + 1.2e308j, 1.0], [0.9])):
            with pytest.raises(ValidationError, match="moduli must be finite"):
                RationalFunction(num, den)

    def test_coefficients_that_span_more_than_the_float_range_are_a_validation_error(self):
        # roots +-1e154 i: scaled by the largest modulus, the leading coefficient is subnormal, so the companion
        # matrix's c[:-1] / c[-1] overflows; no numpy warning may escape either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^polynomial coefficients span more than the float range$"):
                Polynomial([1e308, 0.5, 1]).clustered_roots()

    def test_multiple_roots_whose_jets_pass_the_float_range(self):
        # an m-fold root (m = 2..4) at a center in [-2, 2], complex half the time, and 0..2 simple real roots, the
        # largest coefficient near the top of the float range: where an entry of the Taylor shift that confirms the
        # cluster passes the float range (Python's abs raises on a finite complex whose modulus does), the order
        # is read from the rescaled shift, and the cluster is still found m-fold
        rng, overflowed = np.random.default_rng(3), 0
        for _ in range(2000):
            m = int(rng.integers(2, 5))
            center = rng.uniform(-2.0, 2.0) + (1j * rng.uniform(-2.0, 2.0) if rng.random() < 0.5 else 0.0)
            c = npp.polyfromroots([center] * m + list(rng.uniform(-2.0, 2.0, int(rng.integers(0, 3)))))
            c = c / np.abs(c).max() * (1.7e308 * rng.uniform(0.5, 1.0)) * np.exp(2j * np.pi * rng.uniform())
            q = RationalFunction(c, [1.0, 1.0])
            if not np.isfinite(np.abs(_taylor_shift(c.tolist(), center))).all():
                overflowed += 1
                assert max(k for _, k in q.num.clustered_roots()) == m, c
        assert overflowed > 0

    def test_partial_fractions_simple_poles_golden(self):
        # [DERIVED] 1/(z^2 - 1) = 1/2 * 1/(z-1) - 1/2 * 1/(z+1)
        r = RationalFunction(Polynomial([1.0]), Polynomial([-1.0, 0.0, 1.0]))
        pf = r.partial_fractions()
        assert pf.poly.degree <= 0 and abs(pf.poly(0.0)) < 1e-12
        got = {round(p.real, 6): c for p, j, c in pf.terms}
        assert abs(got[1.0] - 0.5) < 1e-9
        assert abs(got[-1.0] + 0.5) < 1e-9

    @pytest.mark.parametrize("den_roots", [
        [1.5, -0.5],
        [1.0 + 1.0j, 1.0 - 1.0j],
        [0.5, 0.5],
        [1.2 + 0.9j, 1.2 - 0.9j] * 3,
    ])
    def test_partial_fractions_reconstructs(self, den_roots):
        num = Polynomial([1.0, 2.0, -0.3, 0.7])
        den = Polynomial.from_roots(den_roots)
        r = RationalFunction(num, den)
        pf = r.partial_fractions()
        for z in [0.11 + 0.23j, -1.4 + 2.2j, 3.1 - 0.5j]:
            assert abs(pf(z) - r(z)) <= 1e-9 * max(1.0, abs(r(z)))

    def test_partial_fractions_match_the_pole_by_pole_expansion(self):
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(300):
            r, orders = _random_real_rational(rng)
            pf = r.partial_fractions()
            for z in [0.11 + 0.23j, -1.4 + 2.2j, 3.1 - 0.5j]:
                assert abs(pf(z) - r(z)) <= 1e-9 * max(1.0, abs(r(z)))
            assert sorted(m for _, m in r.den.clustered_roots()) == orders
            want = _pole_by_pole_terms(r)
            assert [(p, j) for p, j, _ in pf.terms] == [(p, j) for p, j, _ in want]
            scale = max([1.0] + [abs(c) for _, _, c in want])
            assert all(abs(c - cw) <= 1e-12 * scale for (_, _, c), (_, _, cw) in zip(pf.terms, want))
            seen.update(orders)
            seen.add("polynomial part" if pf.poly.degree >= 1 else "proper")
        assert seen == {1, 2, 3, "polynomial part", "proper"}

    def test_compose_moebius_pointwise(self):
        r = RationalFunction(Polynomial([1.0, 0.0, 2.0]), Polynomial([1.0, 1.0]))
        m = MoebiusMap(1.0, -2.0, 1.0, 3.0)
        comp = r.compose_moebius(m)
        for z in [0.2, 1.7 - 0.4j, -2.3 + 0.1j]:
            want = r(m(z))
            assert abs(comp(z) - want) <= 1e-9 * max(1.0, abs(want))

    def test_compose_moebius_singular_rejected(self):
        r = RationalFunction(Polynomial([1.0]))
        with pytest.raises(SingularMoebiusError):
            r.compose_moebius(MoebiusMap(1.0, 2.0, 2.0, 4.0))

    def test_derivative_matches_difference_quotient(self):
        r = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([1.0, 0.0, 1.0]))
        d = r.derivative()
        z = 0.3 + 0.2j
        h = 1e-6
        approx = (r(z + h) - r(z - h)) / (2 * h)
        assert abs(d(z) - approx) < 1e-8

    def test_is_constant_and_zero(self):
        assert RationalFunction(Polynomial.zero()).is_zero


# -- exact references ---------------------------------------------------------
# q with dyadic zeros and poles has float coefficients that are exact, so the
# float routines can be held to the answers of Fraction arithmetic.


def _exact_from_roots(roots, lead=1):
    """Ascending Fraction coefficients of lead * prod (z - r)."""
    c = [Fraction(lead)]
    for r in roots:
        c = [Fraction(0)] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    return c


def _exact_series(num, den, length):
    out = []
    for j in range(length):
        acc = num[j] if j < len(num) else Fraction(0)
        out.append((acc - sum(out[k] * den[j - k] for k in range(j) if j - k < len(den))) / den[0])
    return out


def _exact_jet(num, den, w, length):
    """Taylor jet of num / den at w through entry length - 1; at INF the jet of z -> r(1/z) at 0."""
    if w is INF:
        big = max(len(num), len(den))
        pad = lambda c: [Fraction(0)] * (big - len(c)) + c[::-1]  # noqa: E731
        return _exact_series(pad(num), pad(den), length)
    return _exact_series(exact_shift(num, w), exact_shift(den, w), length)


def _exact_divmod(num, den):
    rem, quo = list(num), [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    for k in range(len(num) - len(den), -1, -1):
        quo[k] = rem[k + len(den) - 1] / den[-1]
        for i, d in enumerate(den):
            rem[k + i] -= quo[k] * d
    return quo, rem[: len(den) - 1] or [Fraction(0)]


def _close(got, want, rtol=1e-12):
    """Every entry of got within rtol times the largest |want| of the exact want."""
    want = [complex(w) for w in want]
    scale = max(map(abs, want)) or 1.0
    return len(got) == len(want) and all(abs(complex(g) - w) <= rtol * scale for g, w in zip(got, want))


class ExactCase:
    """q = lead * prod (z - zero)^m / prod (z - pole)^n with dyadic zeros and poles."""

    def __init__(self, lead, zeros, poles):
        self.zeros, self.poles = zeros, poles
        self.num = _exact_from_roots([Fraction(z) for z, m in zeros.items() for _ in range(m)], lead)
        self.den = _exact_from_roots([Fraction(p) for p, n in poles.items() for _ in range(n)])
        self.q = RationalFunction(Polynomial([float(c) for c in self.num]), Polynomial([float(c) for c in self.den]))
        assert self.q.num.coeffs.tolist() == [complex(c) for c in self.num]  # the float q is the exact one
        assert self.q.den.coeffs.tolist() == [complex(c) for c in self.den]


# a zero at infinity (degree 1) over double and triple poles; a polynomial part
# of degree 5 (a pole of order 5 at infinity) with double and triple zeros
PROPER = ExactCase(3, {"1/2": 2, "-3/2": 1, "2": 1, "-1": 1}, {"-1/4": 2, "5/4": 3, "3": 1})
IMPROPER = ExactCase(-2, {"1": 1, "-2": 2, "1/2": 3, "-3/4": 1, "0": 1}, {"3/2": 2, "-1/2": 1})
# zeros and poles at powers of two of modulus about 1e5 and 1e-5: the zero order at 2^17 is read with
# rho = 2^17, and the double pole at 2^-16 takes the full shift of the remainder
SCALED = ExactCase(3, {"131072": 2, "-1/131072": 1}, {"-131072": 1, "1/65536": 2})
CASES = pytest.mark.parametrize("case", [PROPER, IMPROPER, SCALED], ids=["proper", "improper", "scaled"])
PROBES = ["1/8", "-7/4", "5/2", "7/16"]


class TestExactReference:
    @CASES
    def test_divmod(self, case):
        quo, rem = case.q.num.divmod(case.q.den)
        want_quo, want_rem = _exact_divmod(case.num, case.den)
        assert _close(quo.coeffs, want_quo) and _close(rem.coeffs, want_rem)

    @CASES
    def test_partial_fractions(self, case):
        pf = case.q.partial_fractions()
        assert _close(pf.poly.coeffs, _exact_divmod(case.num, case.den)[0])
        want = []
        for pole in sorted(map(Fraction, case.poles)):
            n = case.poles[str(pole)]
            cofactor = _exact_from_roots([Fraction(p) for p, k in case.poles.items() if Fraction(p) != pole
                                          for _ in range(k)])
            t = _exact_series(exact_shift(case.num, pole), exact_shift(cofactor, pole), n)
            want += [(pole, j, t[n - j]) for j in range(1, n + 1)]
        assert [j for _, j, _ in pf.terms] == [j for _, j, _ in want]
        assert _close([p for p, _, _ in pf.terms], [p for p, _, _ in want])
        assert _close([c for _, _, c in pf.terms], [c for _, _, c in want])

    @CASES
    def test_zero_degrees(self, case):
        zeros = [complex(Fraction(z)) for z in case.zeros]
        points = zeros + [complex(Fraction(p)) for p in case.poles] + [complex(Fraction(w)) for w in PROBES] + [INF]
        gap = max(0, len(case.den) - len(case.num))  # the degree of infinity as a zero
        want = list(case.zeros.values()) + [0] * (len(case.poles) + len(PROBES)) + [gap]
        assert [exact_zero_degree(case.q, w) for w in points] == want
        # off each zero by 5e-7 and 3e-6 i the exact jets read a lower order than the zero's
        points += [z + off for off in (5e-7, 3e-6j) for z in zeros]
        want += [exact_zero_degree(case.q, w) for w in points[len(want):]]
        assert all(d < m for d, m in zip(want[-2 * len(zeros):], 2 * list(case.zeros.values())))
        # one _jets call reads them at the points that are no poles
        poles = [complex(Fraction(p)) for p in case.poles] + ([INF] if len(case.num) > len(case.den) else [])
        regular = [k for k, w in enumerate(points) if w not in poles]
        assert case.q._jets([points[k] for k in regular])[0] == [want[k] for k in regular]
        assert [case.q.zero_degree_at(w) for w in points] == want
        # zero_degree_at takes any point as_point accepts: an infinite float is the point infinity
        assert case.q.zero_degree_at(float("inf")) == case.q.zero_degree_at(complex(1.0, -math.inf)) == gap
        with pytest.raises(ValidationError, match="NaN"):
            case.q.zero_degree_at(float("nan"))

    @CASES
    def test_finite_jets(self, case):
        points = [Fraction(w) for w in PROBES] + [Fraction(z) for z in case.zeros]
        for w in points:
            for length in range(1, 5):
                assert _close(case.q.jet_at(complex(w), length - 1), _exact_jet(case.num, case.den, w, length))
        # the batch the calculus plan takes: all values, infinity among them where it is no pole, longer jets
        # where asked
        if len(case.num) <= len(case.den):
            points.insert(2, INF)
        lengths = [1 + k % 4 for k in range(len(points))]
        want = [e for w, n in zip(points, lengths) for e in _exact_jet(case.num, case.den, w, n)]
        got = case.q._jets([w if w is INF else complex(w) for w in points], lengths)[1]
        start = 0
        for w, n in zip(points, lengths):
            assert _close(got[start: start + n], want[start: start + n]), (w, n)
            start += n

    def test_jet_at_infinity(self):
        for length in range(1, 6):
            assert _close(PROPER.q.jet_at(INF, length - 1), _exact_jet(PROPER.num, PROPER.den, INF, length))
        with pytest.raises(JetAtPoleError, match="infinity"):
            IMPROPER.q.jet_at(INF, 0)
        with pytest.raises(JetAtPoleError, match="infinity"):
            IMPROPER.q._jets([0.5, INF], [1, 2])

    @pytest.mark.parametrize("near", [False, True], ids=["at", "near"])
    def test_jets_at_a_pole_raise(self, near):
        # near: off a pole by less than the pole test resolves (a double pole by 1e-8, a triple one by
        # 1e-6, a simple one by 1e-14), with den(w) != 0 in floating point
        poles = {"-1/4": 1e-8, "5/4": 1e-6, "3": 1e-14} if near else dict.fromkeys(PROPER.poles, 0.0)
        for pole, off in poles.items():
            w = complex(Fraction(pole)) + off
            for length in (1, 2):
                with pytest.raises(JetAtPoleError, match="pole"):
                    PROPER.q._jets([0.5, w], [1, length])
                with pytest.raises(JetAtPoleError, match="pole"):
                    PROPER.q.jet_at(w, length - 1)


# -- the full-shift reference ---------------------------------------------------
# _jets takes num(w) and den(w) alone where bounds on the shifted entries prove
# the order 0 and no pole.  The reference takes the full shifts everywhere, as
# the rules read, and _jets must agree with it bit for bit, errors included.


def _reference_jets(q, points, lengths=None):
    """RationalFunction._jets with the full Taylor shift of num and den at every finite point."""
    num, den, orders, out = q.num.coeffs.tolist(), q.den.coeffs.tolist(), [], []
    for k, w in enumerate(points):
        if is_inf(w):
            if q.num.degree > q.den.degree:
                raise JetAtPoleError("jet requested at the pole infinity")
            order = max(0, q.den.degree - q.num.degree)
            top, bottom = num[::-1], den[::-1]
            top, bottom = ([0j] * (max(len(top), len(bottom)) - len(c)) + c for c in (top, bottom))
        else:
            top, bottom = _taylor_shift(num, w), _taylor_shift(den, w)
            if _zero_order(den, bottom, w, COEFF_TRIM_TOL):
                raise JetAtPoleError(f"jet requested at pole {w}")
            order = _zero_order(num, top, w, COEFF_TRIM_TOL)
        orders.append(order)
        out += _series_divide(top, bottom, order + 1 if lengths is None else lengths[k])
    return orders, out


def _outcome(call):
    """repr of call's result, or of the type and message of what it raised: equal strings are equal
    results bit for bit (repr round-trips a float exactly) or the same error."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001
        return repr((type(exc), str(exc)))


def _jets_agree(q, points, lengths=None):
    """_jets and _reference_jets give the same outcome; returns the reference's orders ([] on an error)."""
    want = _outcome(lambda: _reference_jets(q, points, lengths))
    assert _outcome(lambda: q._jets(points, lengths)) == want, (q, points, lengths)
    return _reference_jets(q, points, lengths)[0] if not want.startswith("(<class") else []


def _raw(num, den):
    """num / den with the coefficients as given: nothing cancelled, den not made monic."""
    q = RationalFunction.__new__(RationalFunction)
    q.num, q.den = Polynomial(num), Polynomial(den)
    return q


@st.composite
def _placed(draw, monic_den=False):
    """(q, points): q of degrees 0..10 over 0..10, real or complex, whose zeros and poles sit on the points, off
    them by 1e-14 to 1e-9 (relative to max(1, |w|)) or anywhere, its coefficients scaled so that the largest is
    1e-300 to 1e300; the points of modulus 1e-8 to 1e8, some pairs of them mirrored, infinity among them at times.
    With monic_den the denominator keeps the monic coefficients of its roots, unscaled."""
    real = draw(st.booleans())

    def free():
        mod = 10.0 ** draw(st.floats(-8.0, 8.0))
        if real:
            return complex(draw(st.sampled_from([1.0, -1.0])) * mod)
        return mod * complex(math.cos(t := draw(st.floats(0.0, 2.0 * math.pi))), math.sin(t))

    points = [free() for _ in range(draw(st.integers(1, 4)))]
    points += [-points[0]] * draw(st.booleans())

    def root():
        kind = draw(st.sampled_from(["on", "off", "free"]))
        if kind == "free":
            return free()
        w = draw(st.sampled_from(points))
        if kind == "on":
            return w
        off = draw(st.sampled_from([1.0, -1.0] if real else [1.0, -1.0, 1j, -1j]))
        return w + off * 10.0 ** draw(st.floats(-14.0, -9.0)) * max(1.0, abs(w))

    def poly(scaled=True):
        c = npp.polyfromroots([root() for _ in range(draw(st.integers(0, 10)))])
        c = np.real(c) if real else c
        if not scaled:
            return c
        return c / np.abs(c).max() * 10.0 ** (draw(st.sampled_from([-300.0, -150.0, 0.0, 150.0, 300.0]))
                                              + draw(st.floats(-5.0, 5.0)))

    num, den = poly(), poly(scaled=not monic_den)
    assume(np.abs(den).max() > 0.0)
    if draw(st.booleans()):
        q = _raw(num, den)
    else:
        try:
            q = RationalFunction(num, den)
        except ValidationError:  # normalization overflowed
            assume(False)
    if draw(st.booleans()):
        points.insert(draw(st.integers(0, len(points))), INF)
    return q, points


class TestFullShiftReference:
    @given(_placed(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_jets(self, placed, data):
        q, points = placed
        lengths = data.draw(st.one_of(st.none(), st.lists(st.integers(1, 3), min_size=len(points),
                                                          max_size=len(points))))
        _jets_agree(q, points, lengths)
        # one point at a time: an error at one point does not hide the others
        for w in points:
            _jets_agree(q, [w])

    # relative offsets 1e-14 to 1e-8 in steps of 10^0.1: the cuts at COEFF_TRIM_TOL fall among them
    OFFSETS = [10.0 ** (-14.0 + 0.1 * i) for i in range(61)]

    @pytest.mark.parametrize("degree", [1, 3, 10])
    def test_zeros_and_poles_across_the_cut(self, degree):
        # a zero at w + delta rho, rho = max(1, |w|), and a pole at w + delta, over degree - 1 roots at -w - rho:
        # the shifted entries at w grow with binomial weights, so a bound that misses them, or too thin a margin
        # over it, reads an order 0 or a regular point where the full shift does not
        orders, regular = set(), set()
        for w in (1e-8, -0.75, 1.0, 0.6 + 0.8j, 3e4, -1e8, 1e8j):
            rho = max(1.0, abs(w))
            for delta in self.OFFSETS:
                zero, pole = (npp.polyfromroots([w + off] + [-w - rho] * (degree - 1)) for off in (delta * rho, delta))
                for scale in (1.0, 1e6):
                    orders.update(_jets_agree(_raw(scale * zero, [1.0, 2.0]), [w]))
                    orders.update(_jets_agree(_raw(scale * zero, [1.0]), [w], [1]))
                    regular.add(bool(_jets_agree(_raw([1.0, 2.0], scale * pole), [w])))
                    _jets_agree(_raw([1.0], scale * pole), [w, -w], [1, 2])
        # the scan crosses both cuts
        assert orders == {0, 1} and regular == {False, True}

    @given(_placed(monic_den=True))
    @settings(max_examples=150, deadline=None)
    def test_a_pole_of_q_is_a_zero_of_1_over_q(self, placed):
        # the pole test is _zero_order of den: w is a pole of q exactly where 1/q has a zero, den being monic, so
        # that RationalFunction(den) keeps den's coefficients bit for bit; at infinity, where 1/q = den / num does
        q, points = placed
        assume(not q.is_zero and q.den.leading == 1.0)
        for w in points:
            if is_inf(w):
                try:
                    inverse = RationalFunction(q.den, q.num)
                except ValidationError:  # den over num's leading coefficient passes the float range
                    continue
                zero = inverse.zero_degree_at(INF) > 0
            else:
                inverse = RationalFunction(q.den)
                assert inverse.num.coeffs.tolist() == q.den.coeffs.tolist()
                zero = inverse.zero_degree_at(w) > 0
            assert ("JetAtPoleError" in _outcome(lambda: q._jets([w]))) == zero, (q, w)

    def test_coefficients_at_the_ends_of_the_float_range(self):
        # 1e-300 (z - 1000)^5 / max|c_j| at 1000: the full shift's entries times rho^(k - 5) fall below the normal
        # range, where the first rounds to a lower magnitude than its bound, and the order reads 1
        orders = []
        for top in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            for w in (1000.0, -3.5, 0.25j):
                for roots in ([w], [w] * 5, [w] * 6 + [1.0]):
                    c = npp.polyfromroots(roots)
                    q = _raw(c / np.abs(c).max() * top, [1.0])
                    orders += _jets_agree(q, [w, -w, 1.0]) + _jets_agree(q, [w, -w, 1.0], [1, 1, 1])
        assert {0, 1} <= set(orders)

    def test_a_value_whose_modulus_passes_the_float_range(self):
        # q(w) at the second point has finite parts, but Python's abs of it raises: the bound proves nothing there,
        # and the full shift gives the value
        q = RationalFunction([-1.5399265260594922e+303, 1.5399265260594922e+303])
        points = [1, 72050.4704722428 + 112211.95927849087j, 1]
        for lengths in (None, [1, 1, 1]):
            assert _jets_agree(q, points, lengths) == [1, 0, 1]


class TestPartialFractionsErrors:
    def test_overlapping_pole_clusters(self):
        # clusters given as they are: no denominator was found whose clustered roots come this close, as roots
        # that near validate as one multiple root; the cofactor at 0 of the poles eps and 10 is
        # t^2 - (10 + eps) t + 10 eps, which _zero_order reads as vanishing up to eps = 1e-12
        raised = set()
        for eps in TestFullShiftReference.OFFSETS:
            q = _raw([1.0, 1.0], npp.polyfromroots([0.0, eps, 10.0]))
            q.den._clustered = ((0j, 1), (complex(eps), 1), (10 + 0j, 1))
            raised.add("overlap" in _outcome(q.partial_fractions))
        assert raised == {False, True}

    def test_a_cofactor_that_passes_the_float_range_is_a_validation_error(self):
        # at the pole -1e300 the cofactor z^2 is 1e600; it is given by its poles, so there are no coefficients to
        # rescale
        q = _raw([1.0], [0.0, 0.0, 1e300, 1.0])
        q.den._clustered = ((-1e300 + 0j, 1), (0j, 2))
        with pytest.raises(ValidationError, match=r"Taylor coefficients at \(-1e\+300\+0j\) pass the float range"):
            q.partial_fractions()

    def test_vanishing_principal_part(self):
        # the remainder num mod den is read at its own scale, so a small residue does not vanish
        assert RationalFunction([1e-20], [-1.0, 1.0]).partial_fractions().terms == ((1.0, 1, 1e-20),)
        for c in (-1e-10, -1e-13, -1e-20):
            pair = verify_definitizing(GramSpace(np.eye(2)), LinearRelation.from_operator(np.diag([1.0, 2.0])),
                                       RationalFunction([c], [-5.0, 1.0]))
            assert [pair.degrees[w] for w in pair.points] == [0, 0]
        # a remainder that vanishes at a pole: z - 1 - 1e-14 at the pole 1 of (z - 1)(z - 2), and the zero one
        den = npp.polyfromroots([1.0, 2.0])
        for num in ([-1.0 - 1e-14, 1.0], [-1e-20 - 1e-34, 1e-20], den):
            assert "vanished" in _outcome(_raw(num, den).partial_fractions), num
        assert "vanished" not in _outcome(_raw([-1.0 - 1e-11, 1.0], den).partial_fractions)
