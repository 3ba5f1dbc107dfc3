"""Jet algebra and the jet-valued calculus."""

import gc
import json
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from kreincalc import (
    INF,
    GramSpace,
    InconsistencyError,
    JetFunction,
    LinearRelation,
    PointNotInSpectrumError,
    PoleMeetsSpectrumError,
    Polynomial,
    RationalFunction,
    SpectrumReport,
    ValidationError,
    apply_calculus,
    decompose,
    embed_rational,
    gram_factorize,
    indicator,
    is_inf,
    jet_multiply,
    norm_f,
    rational_apply,
    spectral_projection,
    verify_definitizing,
)

from kreincalc import cli, jetcalc, rational
from kreincalc.jetcalc import _basis_table, _plan
from kreincalc.krein import _calculus_point, _resolvent_point
from kreincalc.tolerances import PSD_TOL, RANK_TOL

from helpers import jet_max_abs, random_definitizable, random_real_rational, reassemble, replace_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import planted  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"


def running_pair():
    space = GramSpace(np.diag([1.0, -1.0]))
    rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
    q = RationalFunction(Polynomial([2.0, -1.0]))
    return verify_definitizing(space, rel, q)


def running_fact():
    return gram_factorize(running_pair())


def conjugate_pair_pair():
    """diag(i, -i) on the flip Krein space; q = z^2 + 1 has total degree 2."""
    space = GramSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rel = LinearRelation.from_operator(np.diag([1.0j, -1.0j]))
    return verify_definitizing(space, rel, RationalFunction(Polynomial([1.0, 0.0, 1.0])))


def degree_ten_pair():
    """Five conjugate pairs killed by q, plus the real points -3 and 3.5.

    Each pair is a block diag(lam, conj lam) on the flip Gram matrix, the
    real points carry the sign of q, and everything is conjugated by
    S = I + 0.3 N(0, 1).  Returns the pair, the nonreal points and the
    planted projection S^-1 diag(1, 1, 0, ..., 0) S onto the first pair.
    """
    lams = [-2 + 0.5j, -1 + 1j, 0.7j, 1 + 1.2j, 2 + 0.6j]
    q = RationalFunction(Polynomial.from_roots([z for lam in lams for z in (lam, np.conj(lam))]))
    diag, gram = [], np.zeros((12, 12))
    for k, lam in enumerate(lams):
        diag += [lam, np.conj(lam)]
        gram[2 * k, 2 * k + 1] = gram[2 * k + 1, 2 * k] = 1.0
    for i, t in enumerate((-3.0, 3.5)):
        diag.append(t)
        gram[10 + i, 10 + i] = np.sign(complex(q(t)).real)
    s = np.eye(12) + 0.3 * np.random.default_rng(7).normal(size=(12, 12))
    s_inv = np.linalg.inv(s)
    pair = verify_definitizing(
        GramSpace(s.conj().T @ gram @ s),
        LinearRelation.from_operator(s_inv @ np.diag(diag) @ s),
        q,
    )
    return pair, lams, s_inv @ np.diag([1.0, 1.0] + [0.0] * 10) @ s


class TestJetPrimitives:
    def test_multiply_truncates(self):
        out = jet_multiply([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        # full convolution is (4, 13, 28, 27, 18); keep the first three
        assert np.allclose(out, [4.0, 13.0, 28.0])

    def test_multiply_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            jet_multiply([1.0, 2.0], [1.0])


class TestJetFunction:
    def test_requires_all_points(self):
        pair = running_pair()
        with pytest.raises(ValidationError):
            JetFunction.from_points(pair, {1.0: [3.0]})

    def test_requires_correct_lengths(self):
        pair = running_pair()
        with pytest.raises(ValidationError):
            JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0]})

    def test_unknown_label_rejected(self):
        pair = running_pair()
        with pytest.raises(ValidationError):
            JetFunction.from_points(pair, {1.0: [3.0], 7.0: [1.0, 0.0]})

    def test_ring_laws(self):
        rng = np.random.default_rng(47)
        planted = random_definitizable(rng, allow_jordan=True)
        pair = planted.verify()

        def rand_jet():
            return JetFunction(pair, {
                w: rng.normal(size=pair.degrees[w] + 1)
                + 1j * rng.normal(size=pair.degrees[w] + 1)
                for w in pair.points})

        a, b, c = rand_jet(), rand_jet(), rand_jet()
        one = JetFunction.one(pair)
        assert jet_max_abs((a * b) - (b * a)) < 1e-12
        assert jet_max_abs((a * (b + c)) - (a * b + a * c)) < 1e-10
        assert jet_max_abs((a * (b * c)) - ((a * b) * c)) < 1e-10
        assert jet_max_abs(a * one - a) == 0.0
        assert jet_max_abs(a + (-a)) == 0.0
        assert jet_max_abs((2.0 * a) - (a + a)) < 1e-12

    def test_sharp_is_involutive_and_conjugates_across_mates(self):
        # pair with a genuine conjugate pair in the spectrum
        space = GramSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rel = LinearRelation.from_operator(np.diag([1.0j, -1.0j]))
        q = RationalFunction(Polynomial([1.0, 0.0, 1.0]))
        pair = verify_definitizing(space, rel, q)
        phi = JetFunction.from_points(pair, {1.0j: [2.0 + 1.0j, 0.5], -1.0j: [4.0, 1.0j]})
        sharped = phi.sharp()
        w = pair.resolve(1.0j)
        assert np.allclose(sharped.values[w], np.conj(phi.values[pair.resolve(-1.0j)]))
        assert jet_max_abs(sharped.sharp() - phi) == 0.0

    def test_two_labels_on_one_point_rejected(self):
        pair = running_pair()
        with pytest.raises(ValidationError, match="both match"):
            JetFunction.from_points(pair, {1.0: [3.0], 1.00000001: [5.0], 2.0: [1.0, -2.0]})

    def test_non_finite_entries_rejected(self):
        pair = running_pair()
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="jet entries must be finite"):
                JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, bad]})


class TestEmbedRational:
    def test_jets_match_taylor_data(self):
        rng = np.random.default_rng(48)
        for trial in range(10):
            planted = random_definitizable(rng, allow_mul=(trial % 3 == 0))
            pair = planted.verify()
            func = random_real_rational(rng, avoid=list(pair.points))
            phi = embed_rational(pair, func)
            for w in pair.points:
                want = func.jet_at(w, pair.degrees[w])
                assert np.allclose(phi.values[w], want, atol=1e-9 * max(1.0, np.max(np.abs(want))))

    def test_pole_on_spectrum_rejected(self):
        pair = running_pair()
        bad = RationalFunction(Polynomial([1.0]), Polynomial.from_roots([2.0]))
        with pytest.raises(PoleMeetsSpectrumError):
            embed_rational(pair, bad)

    def test_error_names_the_first_pole_on_the_spectrum(self):
        pair = running_pair()
        for den_roots, first in (([1.0, 2.0], 1.0), ([0.5, 2.0], 2.0), ([2.0, 2.0, 3.0], 2.0)):
            bad = RationalFunction(Polynomial([1.0]), Polynomial.from_roots(den_roots))
            met = [p for p, _ in bad.poles() if pair.report.contains(p)]
            assert abs(met[0] - first) < 1e-7
            with pytest.raises(PoleMeetsSpectrumError) as info:
                embed_rational(pair, bad)
            assert str(info.value) == f"pole {met[0]} meets the spectrum"

    def test_jets_that_overflow_are_rejected(self):
        # r = 1e308 (1 + z + z^2) is 7e308 at the point 2
        with pytest.raises(ValidationError, match="jets of the function must be finite"):
            embed_rational(running_pair(), RationalFunction(Polynomial([1e308] * 3)))

    def test_q_jets_embeds_q(self):
        pair = running_pair()
        phi = embed_rational(pair, pair.q)
        w = pair.resolve(2.0)
        assert np.allclose(phi.values[w], [0.0, -1.0])
        assert np.allclose(phi.values[pair.resolve(1.0)], [1.0])


class TestDecompose:
    def test_running_example_golden(self):
        pair = running_pair()
        phi = JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, -2.0]})
        dec = decompose(pair, phi)
        # s interpolates the sub-top jet data at the critical point: s == 1
        assert abs(complex(dec.s(0.0)) - 1.0) < 1e-12
        assert abs(complex(dec.s(5.0)) - 1.0) < 1e-12
        assert abs(dec.g[pair.resolve(1.0)] - 2.0) < 1e-12
        assert abs(dec.g[pair.resolve(2.0)] - 2.0) < 1e-12
        assert jet_max_abs(reassemble(dec) - phi) < 1e-12

    def test_reassembly_random(self):
        rng = np.random.default_rng(49)
        for trial in range(15):
            planted = random_definitizable(
                rng, allow_mul=(trial % 3 == 0), allow_jordan=True)
            pair = planted.verify()
            phi = JetFunction(pair, {
                w: rng.normal(size=pair.degrees[w] + 1)
                + 1j * rng.normal(size=pair.degrees[w] + 1)
                for w in pair.points})
            dec = decompose(pair, phi)
            assert jet_max_abs(reassemble(dec) - phi) < 1e-7 * max(1.0, jet_max_abs(phi))

    def test_base_point_must_avoid_spectrum(self):
        pair = running_pair()
        phi = JetFunction.one(pair)
        with pytest.raises(ValidationError):
            decompose(pair, phi, mu=2.0)

    @pytest.mark.parametrize("call", ["decompose", "apply_calculus", "spectral_projection"])
    def test_base_point_at_infinity_is_a_validation_error(self, call):
        # the rational part has its one pole at a finite base point: infinity, in the resolvent set of the running
        # example, is not one, in any of its forms
        fact = running_fact()
        phi = JetFunction.from_points(fact.pair, {1.0: [3.0], 2.0: [1.0, -2.0]})
        run = {"decompose": lambda mu: decompose(fact.pair, phi, mu),
               "apply_calculus": lambda mu: apply_calculus(fact, phi, mu),
               "spectral_projection": lambda mu: spectral_projection(fact, [2.0], mu)}[call]
        for mu in (INF, float("inf"), complex(float("inf"), 0.0)):
            with pytest.raises(ValidationError, match="base point mu must be finite"):
                run(mu)
        run(None)  # the default base point works

    @pytest.mark.parametrize("offset", [5e-9, 5e-8])
    def test_base_point_near_the_spectrum_is_rejected_by_decompose(self, offset):
        # the rotation has spectrum {i, -i}; a base point within the resolvent
        # cutoff of i is on the spectrum for decompose as for apply_calculus
        space = GramSpace(np.diag([1.0, -1.0]))
        rel = LinearRelation.from_operator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        pair = verify_definitizing(space, rel, RationalFunction(Polynomial([1.0, 0.0, 1.0])))
        with pytest.raises(ValidationError):
            decompose(pair, JetFunction.one(pair), mu=1j + offset)

    def test_foreign_jet_function_rejected(self):
        pair = running_pair()
        space = GramSpace(np.eye(2))
        rel = LinearRelation.from_operator(np.diag([3.0, 4.0]))
        other = verify_definitizing(
            space, rel, RationalFunction(Polynomial([1.0])))
        phi = JetFunction.one(other)
        with pytest.raises(ValidationError):
            decompose(pair, phi)

    def test_basis_jets_match_rational_jets(self):
        order, m = 3, 5
        points = (0.0, INF, 1.0, -0.7 + 0.3j)
        values = np.array([np.inf if is_inf(w) else w for w in points], dtype=complex)
        for mu in (2.0j, -1.5 + 0.5j):
            table = _basis_table(mu, values, np.isfinite(values), m, order)
            for w, got in zip(points, table):
                for j in range(m):
                    want = RationalFunction(Polynomial.one(), Polynomial.from_roots([mu] * j)).jet_at(w, order)
                    assert np.allclose(got[:, j], want, rtol=1e-12, atol=1e-12), (mu, w, j)


def mul3_pair():
    """1 plus a multivalued part, with q = z / (z^2 + 1)^2 critical at infinity to degree 3."""
    rel = LinearRelation.from_graph_columns(np.diag([1.0, 0.0]), np.eye(2))
    q = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([1.0, 0.0, 2.0, 0.0, 1.0]))
    return verify_definitizing(GramSpace.standard(2), rel, q)


class TestApplyCalculus:
    def test_a_base_point_whose_powers_overflow_is_a_validation_error(self):
        pair = mul3_pair()
        assert pair.degrees[INF] == 3  # so the basis rows at infinity hold mu^2
        phi = JetFunction.from_points(pair, {1.0: [2.0], INF: [4.0, 0.5, 0.25, 0.125]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="too large: its powers at infinity overflow"):
                decompose(pair, phi, mu=1e200j)
            assert decompose(pair, phi).coeffs.size == 3  # at the default base point

    def test_running_example_golden(self):
        fact = running_fact()
        phi = JetFunction.from_points(fact.pair, {1.0: [3.0], 2.0: [1.0, -2.0]})
        assert np.allclose(apply_calculus(fact, phi), np.diag([3.0, 1.0]), atol=1e-12)

    def test_one_maps_to_identity(self):
        fact = running_fact()
        assert np.allclose(apply_calculus(fact, JetFunction.one(fact.pair)), np.eye(2), atol=1e-12)

    def test_q_jets_map_to_q_matrix(self):
        rng = np.random.default_rng(51)
        for trial in range(10):
            planted = random_definitizable(rng, allow_jordan=True)
            pair = planted.verify()
            fact = gram_factorize(pair)
            got = apply_calculus(fact, embed_rational(pair, pair.q))
            assert np.allclose(got, pair.q_matrix, atol=1e-7 * max(1.0, np.linalg.norm(pair.q_matrix)))

    def test_extends_the_rational_calculus(self):
        rng = np.random.default_rng(52)
        for trial in range(20):
            planted = random_definitizable(
                rng, allow_mul=(trial % 3 == 0), allow_jordan=True)
            pair = planted.verify()
            fact = gram_factorize(pair)
            func = random_real_rational(rng, avoid=list(pair.points))
            got = apply_calculus(fact, embed_rational(pair, func))
            want = rational_apply(func, pair.relation, pair.report)
            assert np.allclose(got, want, atol=1e-6 * max(1.0, np.linalg.norm(want))), trial

    def test_is_multiplicative(self):
        rng = np.random.default_rng(53)
        for trial in range(15):
            planted = random_definitizable(
                rng, allow_mul=(trial % 4 == 0), allow_jordan=True)
            pair = planted.verify()
            fact = gram_factorize(pair)

            def rand_jet():
                return JetFunction(pair, {
                    w: rng.normal(size=pair.degrees[w] + 1)
                    + 1j * rng.normal(size=pair.degrees[w] + 1)
                    for w in pair.points})

            a, b = rand_jet(), rand_jet()
            left = apply_calculus(fact, a * b)
            right = apply_calculus(fact, a) @ apply_calculus(fact, b)
            assert np.allclose(left, right, atol=1e-6 * max(1.0, np.linalg.norm(right))), trial

    def test_is_linear(self):
        fact = running_fact()
        pair = fact.pair
        a = JetFunction.from_points(pair, {1.0: [1.0], 2.0: [0.0, 1.0]})
        b = JetFunction.from_points(pair, {1.0: [0.5], 2.0: [2.0, 0.0]})
        lhs = apply_calculus(fact, a + 3.0 * b)
        rhs = apply_calculus(fact, a) + 3.0 * apply_calculus(fact, b)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_plan_is_built_once_per_pair(self, monkeypatch):
        calls = []
        real = jetcalc._CalculusPlan

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(jetcalc, "_CalculusPlan", counting)
        fact = gram_factorize(conjugate_pair_pair())
        pair = fact.pair
        phi = JetFunction(pair, {w: [1.0, 2.0] for w in pair.points})
        first = apply_calculus(fact, phi)
        second = apply_calculus(fact, 3.0 * phi)
        assert len(calls) == 1
        assert np.allclose(second, 3.0 * first, atol=1e-12)

    def test_pair_is_freed_without_the_cycle_collector(self):
        # the pair caches its plans, so a plan that referred back to its pair
        # kept the pair's matrices alive until the next cyclic collection
        fact = gram_factorize(conjugate_pair_pair())
        phi = JetFunction(fact.pair, {w: [1.0, 2.0] for w in fact.pair.points})
        apply_calculus(fact, phi)
        ref = weakref.ref(fact.pair)
        gc.disable()
        try:
            del fact, phi
            assert ref() is None
        finally:
            gc.enable()

    def test_explicit_default_base_point_gives_the_same_bits(self):
        rng = np.random.default_rng(47)
        for trial in range(6):
            pair = random_definitizable(rng, allow_mul=(trial % 2 == 0), allow_jordan=True).verify()
            fact = gram_factorize(pair)
            phi = JetFunction(pair, {w: rng.normal(size=pair.degrees[w] + 1) for w in pair.points})
            mu = _calculus_point(pair.report, pair.q, _resolvent_point(pair.report))
            assert np.array_equal(apply_calculus(fact, phi, mu=mu), apply_calculus(fact, phi))

    def test_a_copied_pair_takes_the_base_point_of_its_own_report(self):
        pair = running_pair()
        assert pair.calculus_point == _calculus_point(pair.report, pair.q, _resolvent_point(pair.report))
        with pytest.raises(TypeError):
            replace_pair(pair, calculus_point=0j)  # derived from the pair, not a constructor argument
        # the spectral point 2 moved to 20: a copy must not keep the base point of the old report
        points = tuple(20.0 + 0j if abs(w - 2.0) < 1e-9 else w for w in pair.points)
        copy = replace_pair(pair, report=SpectrumReport(2, tuple(zip(points, (1, 1)))),
                            degrees=dict(zip(points, pair.degrees.values())))
        assert copy.resolvent_point == _resolvent_point(copy.report) != pair.resolvent_point
        assert copy.calculus_point == _calculus_point(copy.report, copy.q, copy.resolvent_point) != pair.calculus_point
        assert _plan(copy, None).mu == copy.calculus_point

    def test_accepts_a_decomposition(self):
        fact = running_fact()
        phi = JetFunction.from_points(fact.pair, {1.0: [3.0], 2.0: [1.0, -2.0]})
        dec = decompose(fact.pair, phi)
        assert np.allclose(apply_calculus(fact, dec), apply_calculus(fact, phi), atol=1e-12)
        with pytest.raises(ValidationError):
            apply_calculus(gram_factorize(running_pair()), dec)

    def test_eight_simple_zeros_on_a_diagonal(self):
        # q(A) vanishes only up to round-off here; the calculus must still
        # be right, which a split eight-fold pole at mu once broke
        t = np.arange(1.0, 9.0)
        pair = verify_definitizing(
            GramSpace.standard(8), LinearRelation.from_operator(np.diag(t)),
            RationalFunction(Polynomial.from_roots(list(t))))
        phi = JetFunction(pair, {w: [np.exp(complex(w).real), 0.5] for w in pair.points})
        got = apply_calculus(gram_factorize(pair), phi)
        want = np.diag(np.exp(t))
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_base_point_independence(self):
        rng = np.random.default_rng(54)
        for trial in range(10):
            planted = random_definitizable(rng, allow_jordan=True)
            pair = planted.verify()
            fact = gram_factorize(pair)
            phi = JetFunction(pair, {
                w: rng.normal(size=pair.degrees[w] + 1) for w in pair.points})
            first = apply_calculus(fact, phi, mu=2.0j * (1 + trial))
            second = apply_calculus(fact, phi, mu=3.0 + 1.5j)
            third = apply_calculus(fact, phi)
            scale = max(1.0, np.linalg.norm(first))
            assert np.allclose(first, second, atol=1e-6 * scale)
            assert np.allclose(first, third, atol=1e-6 * scale)


class TestProjections:
    def test_indicator_jets(self):
        pair = running_pair()
        phi = indicator(pair, [2.0])
        assert np.allclose(phi.values[pair.resolve(2.0)], [1.0, 0.0])
        assert np.allclose(phi.values[pair.resolve(1.0)], [0.0])

    def test_indicator_rejects_unknown_point(self):
        pair = running_pair()
        with pytest.raises(PointNotInSpectrumError):
            indicator(pair, [0.25])

    def test_running_example_projection(self):
        fact = running_fact()
        assert np.allclose(spectral_projection(fact, [1.0]), np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(spectral_projection(fact, [2.0]), np.diag([0.0, 1.0]), atol=1e-12)

    def test_partition_resolves_identity_and_commutes(self):
        rng = np.random.default_rng(55)
        for trial in range(12):
            planted = random_definitizable(
                rng, allow_mul=(trial % 3 == 0), allow_jordan=True)
            pair = planted.verify()
            fact = gram_factorize(pair)
            n = pair.space.dim
            total = np.zeros((n, n), dtype=complex)
            func = random_real_rational(rng, avoid=list(pair.points))
            r_matrix = rational_apply(func, pair.relation, pair.report)
            for w in pair.points:
                proj = spectral_projection(fact, [w])
                total += proj
                comm = proj @ r_matrix - r_matrix @ proj
                assert np.linalg.norm(comm) < 1e-6 * max(1.0, np.linalg.norm(r_matrix))
            assert np.allclose(total, np.eye(n), atol=1e-7)

    def test_degree_ten_projection(self):
        # five conjugate pairs of simple zeros: total critical degree 10
        pair, lams, want = degree_ten_pair()
        assert sum(pair.degrees.values()) == 10
        got = spectral_projection(gram_factorize(pair), [lams[0], np.conj(lams[0])])
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_projection_reproduces_eigenspace_dimension(self):
        fact = running_fact()
        p = spectral_projection(fact, [1.0, 2.0])
        assert np.allclose(p, np.eye(2), atol=1e-12)


class TestNormF:
    def test_running_example_value(self):
        pair = running_pair()
        phi = JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, -2.0]})
        assert abs(norm_f(phi) - 5.0) < 1e-12

    def test_a_norm_that_overflows_is_a_validation_error(self):
        phi = JetFunction.from_points(running_pair(), {1.0: [1e308], 2.0: [1e308, 0.0]})
        with pytest.raises(ValidationError, match="the norm must be finite"):
            norm_f(phi)

    def test_a_value_whose_modulus_overflows_is_a_validation_error(self):
        # each part is finite, but |1.3e308 + 1.3e308 i| passes the float range, where Python's abs raises; at the
        # critical point 2 numpy's modulus reads inf
        pair = running_pair()
        for jets in ({1.0: [1.3e308 + 1.3e308j], 2.0: [1.0, 0.0]}, {1.0: [1.0], 2.0: [1.3e308 + 1.3e308j, 0.0]}):
            with pytest.raises(ValidationError, match="the norm must be finite"):
                norm_f(JetFunction.from_points(pair, jets))

    def test_submultiplicative_on_samples(self):
        rng = np.random.default_rng(56)
        planted = random_definitizable(rng, allow_jordan=True)
        pair = planted.verify()
        for _ in range(10):
            a = JetFunction(pair, {
                w: rng.normal(size=pair.degrees[w] + 1) for w in pair.points})
            b = JetFunction(pair, {
                w: rng.normal(size=pair.degrees[w] + 1) for w in pair.points})
            assert norm_f(a + b) <= norm_f(a) + norm_f(b) + 1e-10


def basis_jets(mu, w, m, order):
    """The basis jets at one point w (complex or INF), as _basis_table gives them."""
    values = np.array([np.inf if is_inf(w) else w], dtype=complex)
    return _basis_table(mu, values, np.isfinite(values), m, order)[0]


def reference_decompose(pair, phi, mu):
    """The per-point loop that the packed decompose replaces: same basis, same system."""
    crit = [w for w in pair.points if pair.degrees[w] > 0]
    m = sum(pair.degrees[w] for w in crit)
    rows = [basis_jets(mu, w, m, pair.degrees[w])[: pair.degrees[w]] for w in crit]
    vec = np.array([phi.values[w][j] for w in crit for j in range(pair.degrees[w])], dtype=complex)
    coeffs = np.linalg.solve(np.vstack(rows), vec) if m else np.zeros(0, dtype=complex)
    g = {}
    for w in pair.points:
        d = pair.degrees[w]
        s_top = basis_jets(mu, w, m, d)[d] @ coeffs
        g[w] = complex((phi.values[w][d] - s_top) / pair.q.jet_at(w, d)[d])
    return coeffs, g


def random_jets(rng, pair):
    return JetFunction(pair, {
        w: rng.normal(size=pair.degrees[w] + 1) + 1j * rng.normal(size=pair.degrees[w] + 1)
        for w in pair.points})


class TestPackedLayout:
    """The array paths of the plan and decompose against per-point loops."""

    def planted_pairs(self, seed, count=24):
        rng = np.random.default_rng(seed)
        pairs = [random_definitizable(rng, allow_mul=(k % 3 == 0), allow_jordan=True).verify()
                 for k in range(count)]
        # the mix covers Jordan blocks, nonreal pairs and multivalued parts
        assert any(m == 2 for pair in pairs for _, m in pair.report.points)
        assert any(not is_inf(w) and abs(complex(w).imag) > 0.1 for pair in pairs for w in pair.points)
        assert any(INF in pair.points for pair in pairs)
        return rng, pairs

    def test_decompose_matches_per_point_loop(self):
        rng, pairs = self.planted_pairs(71)
        for k, pair in enumerate(pairs):
            phi = random_jets(rng, pair)
            dec = decompose(pair, phi)
            coeffs, g = reference_decompose(pair, phi, dec.base_point)
            scale = max(1.0, float(np.max(np.abs(coeffs), initial=0.0)))
            assert np.allclose(dec.coeffs, coeffs, rtol=1e-12, atol=1e-12 * scale), k
            for w in pair.points:
                assert abs(dec.g[w] - g[w]) <= 1e-12 * max(1.0, abs(g[w])), (k, w)

    def test_q_table_matches_jet_at(self):
        # the jets verify_definitizing took with the degrees are jet_at's bit for bit, infinity among the points
        _, pairs = self.planted_pairs(72)
        for k, pair in enumerate(pairs):
            want = np.concatenate([pair.q.jet_at(w, pair.degrees[w]) for w in pair.points])
            assert np.array_equal(pair.q_jets, want), k

    def test_no_jets_of_q_after_verification(self, monkeypatch):
        calls, jets = [], RationalFunction._jets
        monkeypatch.setattr(RationalFunction, "_jets", lambda self, *args: calls.append(self) or jets(self, *args))
        pair = running_pair()
        assert [f is pair.q for f in calls] == [True]  # one call gives the degrees and the jets of q
        fact = gram_factorize(pair)
        phi = JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, -2.0]})
        decompose(pair, phi)
        apply_calculus(fact, phi)
        spectral_projection(fact, [2.0])
        spectral_projection(fact, [2.0], mu=0.5 + 2.0j)
        assert len(calls) == 1

    def test_plan_rows(self):
        pair = running_pair()
        plan, layout = _plan(pair, None), pair.layout
        # rows: point 1 entry 0, point 2 entries 0 and 1
        assert layout.top.tolist() == [0, 2]
        assert layout.below.tolist() == [1]
        assert layout.owner.tolist() == [0, 1, 1]
        assert np.allclose(pair.q_jets, [1.0, 0.0, -1.0])
        assert np.allclose(plan.matrix, plan.basis[[1]])

    def test_corrupted_q_jet_fails_to_reassemble(self):
        pair = running_pair()
        phi = JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, -2.0]})
        # q(2) = 0 below the top entry at the critical point 2; g(2) = 2 there
        pair.q_jets[pair.layout.below[0]] += 1.0
        with pytest.raises(InconsistencyError, match="failed to reassemble"):
            decompose(pair, phi)

    def test_empty_pair(self):
        space = GramSpace(np.zeros((0, 0)))
        rel = LinearRelation.from_operator(np.zeros((0, 0)))
        pair = verify_definitizing(space, rel, RationalFunction(Polynomial([1.0])))
        fact = gram_factorize(pair)
        phi = JetFunction.one(pair)
        assert jet_max_abs(phi) == 0.0
        assert apply_calculus(fact, phi).shape == (0, 0)
        assert spectral_projection(fact, []).shape == (0, 0)


def fixture_problem(name):
    """The pair and the jet function of a fixture, built as the CLI builds them."""
    problem = cli.Problem(json.loads((FIXTURES / name).read_text()), RANK_TOL, PSD_TOL)
    pair = problem.pair()
    return pair, problem.jet_function(pair)


def critical_problem():
    """critical pool case 4: degrees 0, 1 and 3 (at infinity), and two Jordan chains."""
    case = planted.critical_case(planted.POOL_SEED, 4)
    q = RationalFunction(Polynomial(case.q_num), Polynomial(case.q_den))
    pair = verify_definitizing(GramSpace(case.gram), LinearRelation.from_graph_columns(case.x, case.y), q)
    jets = {INF if p == planted.INF else p: j for p, j in case.jets.items()}
    return pair, JetFunction.from_points(pair, jets)


def identity_horner(fact, dec):
    """apply_calculus's sum with identity matrices: s = b_j I + R s, then the factor-space part."""
    pair = fact.pair
    eye = np.eye(pair.space.dim, dtype=complex)
    s_matrix = np.zeros_like(eye)
    if dec.coeffs.size:
        res = pair.resolvent(dec.base_point)
        s_matrix = dec.coeffs[-1] * eye
        for c in dec.coeffs[-2::-1]:
            s_matrix = c * eye + res @ s_matrix
    if fact.rank == 0:
        return s_matrix
    left, right = fact.eigen_factors
    return s_matrix + (left * dec._g[fact.measure.index]) @ right


class TestRewrittenHelpers:
    """The list-built layout and the in-place Horner sum against the array forms they replace."""

    def test_layout_equals_its_closed_forms(self):
        mul, _ = fixture_problem("mul.json")
        critical, _ = critical_problem()
        assert mul.degrees[INF] == 1
        assert set(critical.degrees.values()) == {0, 1, 3} and critical.degrees[INF] == 3
        assert sum(m == 2 for _, m in critical.report.points) == 2
        empty = verify_definitizing(GramSpace(np.zeros((0, 0))), LinearRelation.from_operator(np.zeros((0, 0))),
                                    RationalFunction(Polynomial([1.0])))
        for pair in (mul, critical, empty):
            layout = pair.layout
            lengths = np.array([pair.degrees[w] + 1 for w in pair.points], dtype=int)
            ends = np.cumsum(lengths)
            starts = ends - lengths
            owner = np.repeat(np.arange(lengths.size), lengths)
            entry = np.arange(owner.size) - starts[owner]
            want = {"lengths": lengths, "starts": starts, "top": ends - 1, "owner": owner, "entry": entry,
                    "below": np.flatnonzero(entry < lengths[owner] - 1)}
            for name, array in want.items():
                got = getattr(layout, name)
                assert got.dtype == array.dtype and np.array_equal(got, array), (pair.points, name)
            assert layout.bounds == list(zip(starts.tolist(), ends.tolist()))

    @pytest.mark.parametrize("problem", ["running.json", "mul.json", "mul3.json", "critical case 4"])
    @pytest.mark.parametrize("mu", [None, 0.3 + 1.7j])
    def test_apply_calculus_is_the_identity_matrix_horner_sum(self, problem, mu):
        pair, phi = critical_problem() if problem == "critical case 4" else fixture_problem(problem)
        fact = gram_factorize(pair)
        dec = decompose(pair, phi, mu)
        want = identity_horner(fact, dec)
        assert np.array_equal(apply_calculus(fact, dec), want)
        assert np.array_equal(apply_calculus(fact, phi, mu), want)


class TestPackedJets:
    """JetFunction holds its jets packed; values is derived from them and cannot fall out of step."""

    def test_values_are_views_of_the_packed_jets(self):
        rng = np.random.default_rng(73)
        pair, lams, _ = degree_ten_pair()
        labels = {complex(w) + 1e-9: rng.normal(size=pair.degrees[w] + 1) for w in pair.points}
        phi = JetFunction.from_points(pair, labels)
        psi = embed_rational(pair, RationalFunction(Polynomial([1.0, -0.5j, 0.25]), Polynomial([4.0j, 1.0])))
        made = {
            "from_points": phi,
            "init": random_jets(rng, pair),
            "one": JetFunction.one(pair),
            "indicator": indicator(pair, [lams[0], np.conj(lams[0]), 3.5]),
            "embed_rational": psi,
            "sum": phi + psi,
            "difference": phi - psi,
            "product": phi * psi,
            "scaled": 2.5j * phi,
            "negated": -phi,
            "sharp": phi.sharp(),
        }
        for name, f in made.items():
            values = f.values
            assert list(values) == list(pair.points), name
            assert np.array_equal(np.concatenate([values[w] for w in pair.points]), f._jets), name
            assert all(values[w].size == pair.degrees[w] + 1 for w in pair.points), name
            assert all(np.shares_memory(values[w], f._jets) for w in pair.points), name
            with pytest.raises(TypeError):
                values[pair.points[0]] = np.eye(1, pair.degrees[pair.points[0]] + 1)[0]
        for w in pair.points:
            assert np.array_equal(made["one"].values[w], np.eye(1, pair.degrees[w] + 1)[0])  # the jet (1, 0, ..., 0)
            assert np.array_equal(made["from_points"].values[w], np.asarray(labels[complex(w) + 1e-9], dtype=complex))
        # a write to the packed jets shows in values, and the other way round
        phi._jets[0] = 7.0
        assert phi.values[pair.points[0]][0] == 7.0
        phi.values[pair.points[-1]][-1] = 9.0
        assert phi._jets[-1] == 9.0


def same_points_pairs():
    """Two pairs on the points 1 and 2 of diag(1, 2) with G = diag(1, -1): q = 2 - z vanishes at 2,
    so that pair's jets there have length 2; q = 1.5 - z vanishes at neither point."""
    space = GramSpace(np.diag([1.0, -1.0]))
    rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
    return (verify_definitizing(space, rel, RationalFunction(Polynomial([2.0, -1.0]))),
            verify_definitizing(space, rel, RationalFunction(Polynomial([1.5, -1.0]))))


class TestLayoutMismatch:
    """Jet functions whose pairs have the same points but other jet lengths do not mix."""

    def test_operators_reject_another_layout(self):
        pair, other = same_points_pairs()
        assert pair.points == other.points and pair.degrees != other.degrees
        a = JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, 5.0]})
        e = JetFunction.from_points(other, {1.0: [3.0], 2.0: [4.0]})
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            for x, y in ((a, e), (e, a)):
                with pytest.raises(ValidationError, match="different pairs"):
                    op(x, y)

    def test_decompose_and_calculus_reject_another_layout(self):
        pair, other = same_points_pairs()
        e = JetFunction.from_points(other, {1.0: [3.0], 2.0: [4.0]})
        a = JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, 5.0]})
        for target, phi in ((pair, e), (other, a)):
            with pytest.raises(ValidationError, match="does not belong"):
                decompose(target, phi)
            with pytest.raises(ValidationError, match="does not belong"):
                apply_calculus(gram_factorize(target), phi)

    def test_equal_layouts_add_their_packed_jets(self):
        pair, _ = same_points_pairs()
        twin, _ = same_points_pairs()
        a = JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, 5.0]})
        b = JetFunction.from_points(twin, {1.0: [-1.0], 2.0: [2.0, 0.5]})
        assert np.array_equal((a + b)._jets, [2.0, 3.0, 5.5])
        assert np.array_equal((a - b)._jets, [4.0, -1.0, 4.5])
        assert (a + b).pair is pair and (b - a).pair is twin
        assert np.array_equal((a * b)._jets, [-3.0, 2.0, 10.5])


class TestRootFindsPerRequest:
    """Each non-constant polynomial of q has its roots found once per request: q keeps its clusters and
    partial fractions, and the pair keeps the calculus base point."""

    @pytest.fixture
    def found(self, monkeypatch):
        calls = []
        polyroots = npp.polyroots
        monkeypatch.setattr(npp, "polyroots", lambda c: calls.append(len(c) - 1) or polyroots(c))
        return calls

    @staticmethod
    def request(space, rel, q, jets, deltas):
        pair = verify_definitizing(space, rel, q)
        fact = gram_factorize(pair)
        apply_calculus(fact, JetFunction(pair, jets(pair)))
        for delta in deltas:
            spectral_projection(fact, delta(pair))
        return pair

    def test_running_fixture(self, found):
        doc = json.loads((Path(__file__).parent / "fixtures" / "running.json").read_text())
        q = RationalFunction(Polynomial(doc["q"]["num"]))
        # the denominator is constant; the numerator's roots wait for their first use
        assert found == []
        self.request(GramSpace(np.array(doc["gram"], dtype=float)),
                     LinearRelation.from_operator(np.array(doc["relation"]["operator"], dtype=float)), q,
                     lambda pair: {w: np.ones(pair.degrees[w] + 1) for w in pair.points},
                     [lambda pair: [1.0], lambda pair: [2.0]])
        assert found == [1]

    def test_critical_pair(self, found):
        planted = random_definitizable(np.random.default_rng(5), allow_mul=True, allow_jordan=True,
                                       force_rational=True)
        num, den = planted.q.num.coeffs, planted.q.den.coeffs
        del found[:]
        # a denominator with leading coefficient 2 makes normalization divide both polynomials
        q = RationalFunction(Polynomial(2.0 * num), Polynomial(2.0 * den))
        assert found == [num.size - 1, den.size - 1]
        pair = self.request(planted.space, planted.relation, q,
                            lambda pair: {w: np.arange(1.0, pair.degrees[w] + 2) for w in pair.points},
                            [lambda pair: pair.points[:1], lambda pair: pair.points[1:]])
        assert found == [num.size - 1, den.size - 1]
        # the pair is critical-like: a zero of q, the point infinity and a pole of q all take part
        assert any(d > 0 for d in pair.degrees.values()) and INF in pair.points and q.den.degree > 0


class TestTaylorShiftsPerRequest:
    """At a spectral point where q does not vanish and that lies away from its poles, q's jet is num(w) / den(w):
    no step of a request shifts num and den in full there (RationalFunction._jets)."""

    @pytest.fixture
    def shifted(self, monkeypatch):
        at = []
        shift = rational._taylor_shift
        monkeypatch.setattr(rational, "_taylor_shift", lambda c, w, *rest: at.append(w) or shift(c, w, *rest))
        return at

    @staticmethod
    def check(pair, shifted):
        finite = [w for w in pair.points if not is_inf(w)]
        regular = [w for w in finite if pair.degrees[w] == 0]
        poles = [p for p, _ in pair.q.poles() if not is_inf(p)]
        assert regular and all(abs(w - p) >= 0.1 for w in regular for p in poles)
        assert not any(w in shifted for w in regular)
        # where q vanishes the full shift reads the order
        assert all(w in shifted for w in finite if pair.degrees[w] > 0)

    def test_running_fixture(self, shifted):
        doc = json.loads((FIXTURES / "running.json").read_text())
        pair = TestRootFindsPerRequest.request(
            GramSpace(np.array(doc["gram"], dtype=float)),
            LinearRelation.from_operator(np.array(doc["relation"]["operator"], dtype=float)),
            RationalFunction(Polynomial(doc["q"]["num"])),
            lambda pair: {w: np.ones(pair.degrees[w] + 1) for w in pair.points}, [lambda pair: [1.0]])
        self.check(pair, shifted)

    def test_planted_calc16_case(self, shifted):
        # n = 16, q with four poles, two critical points and infinity among the points
        case = planted.calc16_case(planted.POOL_SEED, 7)
        point = lambda p: INF if p == planted.INF else p  # noqa: E731
        q = RationalFunction(Polynomial(case.q_num), Polynomial(case.q_den))
        pair = verify_definitizing(GramSpace(case.gram), LinearRelation.from_graph_columns(case.x, case.y), q)
        fact = gram_factorize(pair)
        apply_calculus(fact, JetFunction.from_points(pair, {point(p): j for p, j in case.jets.items()}))
        for delta in (case.delta, case.rest):
            spectral_projection(fact, [point(p) for p in delta])
        assert q.den.degree == 4 and INF in pair.points and len(pair.points) >= 10
        self.check(pair, shifted)
