"""Polynomial and rational function algebra, jets, partial fractions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreincalc import (
    INF,
    JetAtPoleError,
    MoebiusMap,
    Polynomial,
    RationalFunction,
    SingularMoebiusError,
    ValidationError,
)
from kreincalc.rational import _cluster_members, _series_divide, _taylor_shift

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
        # exact zeros still shorten; small lower coefficients are still zeroed
        assert Polynomial([1.0, 2.0, 0.0, 0.0]).degree == 1
        assert Polynomial([1e-20, 1.0, 1.0]).coeffs.tolist() == [0.0, 1.0, 1.0]

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
        assert pf is case.q.partial_fractions()  # computed once per function
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
