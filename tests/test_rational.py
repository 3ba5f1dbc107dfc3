"""Polynomial and rational function algebra, jets, partial fractions."""

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
from kreincalc.rational import _cluster_members, _series_divide

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
        t = _series_divide(w.shifted(alpha), Polynomial.from_roots(others).shifted(alpha), nu)
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
        jet = p.shifted(w)
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
        assert any(abs(z - 2.0) < 1e-8 for z, _ in r.zeros())

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
        zeros = dict(s.zeros())
        assert zeros[INF] == 2

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
