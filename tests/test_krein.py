"""Gram spaces, definitizing verification, factorization and transport."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from kreincalc import (
    INF,
    GramSpace,
    InconsistencyError,
    JetFunction,
    LinearRelation,
    NotInCommutantError,
    NotPositiveError,
    NotRealError,
    NotSelfAdjointError,
    PoleMeetsSpectrumError,
    Polynomial,
    RationalFunction,
    SpectrumReport,
    ValidationError,
    apply_calculus,
    decompose,
    gram_factorize,
    map_adjoint,
    rational_apply,
    resolvent_at,
    spectral_measure,
    spectral_projection,
    spectrum,
    theta_op,
    verify_definitizing,
    xi,
)

from kreincalc import cli, jetcalc, krein, spectral
from kreincalc.krein import _is_psd, _measure_from_resolvent, _pull_back, _resolvent_point
from kreincalc.relations import hermitian_residual
from kreincalc.tolerances import ATOM_MATCH_TOL, POINT_MATCH_TOL, PSD_TOL, RANK_TOL

from helpers import (
    exact_zero_degree,
    match_point_sets,
    random_definitizable,
    random_gram,
    random_operator,
    random_real_rational,
    replace_pair,
)

FIXTURES = Path(__file__).parent / "fixtures"


def running_example():
    """diag(1, 2) on diag(1, -1) with q(z) = 2 - z; everything about it is
    computable by hand."""
    space = GramSpace(np.diag([1.0, -1.0]))
    rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
    q = RationalFunction(Polynomial([2.0, -1.0]))
    return space, rel, q


class TestGramSpace:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            GramSpace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            GramSpace(np.diag([1.0, 0.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            GramSpace(np.diag([1.0, np.nan]))

    def test_inner_product_symmetry(self):
        rng = np.random.default_rng(31)
        g = random_gram(rng, 4)
        space = GramSpace(g)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert abs(space.inner(x, y) - np.conj(space.inner(y, x))) < 1e-10

    def test_adjoint_defining_identity(self):
        # [Bx, y] = [x, B^+ y] for all x, y
        rng = np.random.default_rng(32)
        g = random_gram(rng, 4)
        space = GramSpace(g)
        b = random_operator(rng, 4)
        bp = map_adjoint(b, space, space)
        for _ in range(5):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            y = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert abs(space.inner(b @ x, y) - space.inner(x, bp @ y)) < 1e-8

    def test_adjoint_golden(self):
        space = GramSpace(np.diag([1.0, -1.0]))
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(map_adjoint(b, space, space), [[0.0, 0.0], [-1.0, 0.0]])

    def test_positivity(self):
        space = GramSpace(np.diag([1.0, -1.0]))

        def is_positive(mat):
            """[Bx, x] >= 0 for all x: G B is Hermitian positive semidefinite."""
            h = space.gram @ mat
            return _is_psd(float(np.linalg.norm(h)), hermitian_residual(h), np.linalg.eigvalsh((h + h.conj().T) / 2.0),
                           PSD_TOL)

        assert is_positive(np.diag([1.0, 0.0]))
        assert is_positive(np.zeros((2, 2)))
        assert not is_positive(np.eye(2))
        # numerically zero noise still counts as positive
        assert is_positive(1e-15 * np.array([[1.0, 0.5], [-0.3, -1.0]]))

    def test_hilbert_norm_is_submultiplicative_and_adjoint_invariant(self):
        rng = np.random.default_rng(33)
        g = random_gram(rng, 3)
        space = GramSpace(g)
        a = random_operator(rng, 3)
        b = random_operator(rng, 3)
        na, nb = space.hilbert_norm(a), space.hilbert_norm(b)
        assert space.hilbert_norm(a @ b) <= na * nb * (1 + 1e-10)
        assert abs(space.hilbert_norm(map_adjoint(a, space, space)) - na) < 1e-8 * max(1.0, na)

    def test_map_adjoint_between_spaces(self):
        rng = np.random.default_rng(34)
        dom = GramSpace(random_gram(rng, 3))
        cod = GramSpace(random_gram(rng, 4))
        t = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        tp = map_adjoint(t, dom, cod)
        for _ in range(5):
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            y = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert abs(cod.inner(t @ x, y) - dom.inner(x, tp @ y)) < 1e-8


class TestVerifyDefinitizing:
    def test_running_example(self):
        space, rel, q = running_example()
        pair = verify_definitizing(space, rel, q)
        assert np.allclose(pair.q_matrix, np.diag([1.0, 0.0]), atol=1e-12)
        crit = pair.critical_points
        assert len(crit) == 1 and abs(crit[0] - 2.0) < 1e-9
        assert pair.degrees[pair.resolve(2.0)] == 1
        assert pair.degrees[pair.resolve(1.0)] == 0

    def test_rejects_zero_q(self):
        space, rel, _ = running_example()
        with pytest.raises(ValidationError):
            verify_definitizing(space, rel, RationalFunction(Polynomial.zero()))

    def test_rejects_nonreal_q(self):
        space, rel, _ = running_example()
        q = RationalFunction(Polynomial([1.0j, 1.0]))
        with pytest.raises(NotRealError):
            verify_definitizing(space, rel, q)

    def test_rejects_non_selfadjoint(self):
        space = GramSpace(np.eye(2))
        rel = LinearRelation.from_operator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        q = RationalFunction(Polynomial([1.0, 0.0, 1.0]))
        with pytest.raises(NotSelfAdjointError):
            verify_definitizing(space, rel, q)

    def test_critical_point_without_conjugate_mate_is_an_inconsistency(self, monkeypatch):
        # i and -i on C^2 with G = [[0, 1], [1, 0]], both zeros of q = z^2 + 1
        space = GramSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rel = LinearRelation.from_operator(np.diag([1.0j, -1.0j]))
        q = RationalFunction(Polynomial([1.0, 0.0, 1.0]))
        pair = verify_definitizing(space, rel, q)
        assert pair.critical_points == pair.points and len(pair.points) == 2
        # a spectrum that lost -i leaves the zero i without its mate
        monkeypatch.setattr("kreincalc.krein.spectrum", lambda rel: SpectrumReport(2, ((1.0j, 2),)))
        with pytest.raises(InconsistencyError, match="not symmetric under conjugation"):
            verify_definitizing(space, rel, q)

    def test_rejects_pole_on_spectrum(self):
        space, rel, _ = running_example()
        q = RationalFunction(Polynomial([1.0]), Polynomial.from_roots([2.0, 2.0]))
        with pytest.raises(PoleMeetsSpectrumError):
            verify_definitizing(space, rel, q)

    def test_rejects_indefinite_q_of_a(self):
        space, rel, _ = running_example()
        # q = 1 gives G q(A) = G, indefinite
        with pytest.raises(NotPositiveError):
            verify_definitizing(space, rel, RationalFunction(Polynomial([1.0])))

    def test_rejects_unkilled_nonreal_spectrum(self):
        # A = diag(i, -i, 0) is self-adjoint for blockdiag(flip, 1).  Pick
        # q = (z^2 + (1 + 1e-5)^2)^2: its double roots sit 1e-5 away from
        # +-i, outside the root matching radius, so the nonreal spectrum
        # counts as unkilled; yet |q(+-i)| ~ 4e-10 leaves G q(A) positive
        # within tolerance.  Every precondition passes while the proved
        # spectral inclusion fails, which must surface as an inconsistency.
        space = GramSpace(np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        rel = LinearRelation.from_operator(np.diag([1.0j, -1.0j, 0.0]))
        a2 = (1.0 + 1e-5) ** 2
        q = RationalFunction(Polynomial([a2 * a2, 0.0, 2.0 * a2, 0.0, 1.0]))
        with pytest.raises(InconsistencyError):
            verify_definitizing(space, rel, q)

    def test_degenerate_pair_accepts(self):
        # q(A) = 0 identically
        space = GramSpace(np.diag([1.0, -1.0]))
        rel = LinearRelation.from_operator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        q = RationalFunction(Polynomial([1.0, 0.0, 1.0]))
        pair = verify_definitizing(space, rel, q)
        assert match_point_sets([(1j, 1), (-1j, 1)], pair.report.points, tol=1e-9)
        assert pair.degrees[pair.resolve(1j)] == 1

    def test_random_planted_pairs(self):
        rng = np.random.default_rng(35)
        for trial in range(30):
            planted = random_definitizable(
                rng, allow_mul=(trial % 3 == 0), force_rational=(trial % 2 == 0))
            pair = planted.verify()
            assert match_point_sets(planted.spectrum_plan, pair.report.points, tol=1e-6)
            for w, d in planted.degree_plan.items():
                assert pair.degrees[pair.resolve(w, tol=1e-6)] == d

    def test_resolve_unknown_point_raises(self):
        space, rel, q = running_example()
        pair = verify_definitizing(space, rel, q)
        with pytest.raises(ValidationError):
            pair.resolve(7.3)


def reference_resolve(pair, z, tol):
    """The per-point loop that the vectorized matcher replaces."""
    if z is INF:
        if INF in pair.points:
            return INF
        raise ValidationError("infinity is not a spectral point of this pair")
    best, dist = None, np.inf
    for w in pair.points:
        if w is not INF and abs(complex(w) - z) < dist:
            best, dist = w, abs(complex(w) - z)
    if best is None or dist > tol:
        raise ValidationError(f"{z} does not match any spectral point")
    return best


def multivalued_pair():
    """diag(2) plus a multivalued coordinate on C^2; the points are 2 and infinity."""
    rel = LinearRelation.from_graph_columns(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]))
    return verify_definitizing(GramSpace(np.eye(2)), rel, RationalFunction(Polynomial([1.0])))


class TestPointMatcher:
    """One matcher, SpectrumReport.match, serves resolve, from_points, indicator and the measure."""

    def test_matches_per_label_loop(self):
        rng = np.random.default_rng(81)
        for trial in range(20):
            pair = random_definitizable(rng, allow_mul=(trial % 3 == 0)).verify()
            finite = [complex(w) for w in pair.points if w is not INF]
            labels = [w + complex(*rng.normal(size=2)) * scale
                      for w in finite for scale in (0.0, 3e-8, 5e-7, 0.3)] + [INF, 9.0]
            for tol in (POINT_MATCH_TOL, ATOM_MATCH_TOL):
                for z in labels:
                    try:
                        want = reference_resolve(pair, z, tol)
                    except ValidationError:
                        with pytest.raises(ValidationError):
                            pair.resolve(z, tol=tol)
                        continue
                    assert pair.resolve(z, tol=tol) == want
                hits = [z for z in labels if z is not INF and any(abs(z - w) <= tol for w in finite)]
                got = pair._match(hits, tol)
                assert [pair.points[i] for i in got] == [reference_resolve(pair, z, tol) for z in hits]

    def test_first_point_wins_a_tie(self):
        space, rel, q = running_example()
        # exact points 1 and 2, so that 1.5 + 0.3i is equally far from both
        exact = SpectrumReport(2, ((1.0 + 0j, 1), (2.0 + 0j, 1)))
        pair = replace_pair(verify_definitizing(space, rel, q), report=exact, points=(1.0 + 0j, 2.0 + 0j))
        assert pair._match([1.5, 1.5 + 0.3j, 2.0, 1.0], 1.0).tolist() == [0, 0, 1, 0]
        assert pair.resolve(1.5 - 0.3j, tol=1.0) == 1.0

    def test_infinity_matches_only_infinity(self):
        pair = multivalued_pair()
        assert pair.resolve(INF) is INF
        assert pair.resolve(float("inf")) is INF
        assert pair.resolve(2.0 + 1e-8) == pair.points[0]
        with pytest.raises(ValidationError, match="does not match"):
            pair.resolve(1e300)
        space, rel, q = running_example()
        bounded = verify_definitizing(space, rel, q)
        with pytest.raises(ValidationError, match="infinity is not a spectral point"):
            bounded.resolve(INF)

    def test_tolerances(self):
        space, rel, q = running_example()
        pair = verify_definitizing(space, rel, q)
        with pytest.raises(ValidationError):
            pair.resolve(1.0 + 2e-7)
        assert pair.resolve(1.0 + 2e-7, tol=ATOM_MATCH_TOL) == pair.resolve(1.0)
        with pytest.raises(ValidationError):
            pair.resolve(1.0 + 2e-6, tol=ATOM_MATCH_TOL)
        # the first failing label is the one reported
        with pytest.raises(ValidationError, match="7.3"):
            pair._match([1.0, 7.3, INF], POINT_MATCH_TOL)

    def test_atoms_are_pair_points_in_pair_order(self):
        rng = np.random.default_rng(82)
        for trial in range(10):
            pair = random_definitizable(rng, allow_mul=(trial % 2 == 0)).verify()
            fact = gram_factorize(pair)
            where = [pair.points.index(p) for p, _ in fact.measure.atoms]
            assert where == sorted(set(where))
            assert all(p is pair.points[i] for (p, _), i in zip(fact.measure.atoms, where))

    def test_measure_off_the_pair_points_is_an_inconsistency(self):
        space, rel, q = running_example()
        for pair in (verify_definitizing(space, rel, q), multivalued_pair()):
            moved = tuple((p if p is INF else p + 1e-3, m) for p, m in pair.report.points)
            report = SpectrumReport(pair.report.space_dim, moved)
            shifted = replace_pair(pair, report=report, points=tuple(p for p, _ in moved))
            with pytest.raises(InconsistencyError, match="matches no spectral point"):
                gram_factorize(shifted)


class TestZeroDegrees:
    def test_one_pass_matches_the_exact_jet_rule(self):
        rng = np.random.default_rng(83)
        for trial in range(20):
            planted = random_definitizable(rng, allow_mul=(trial % 3 == 0), allow_jordan=True)
            pair = planted.verify()
            q = pair.q
            points = list(pair.points)
            near = [c + off for c, _ in q.num.clustered_roots() for off in (5e-7, 2e-6, 1e-3j)]
            probes = points + [INF, 5.0] + near
            want = [exact_zero_degree(q, w) for w in probes]
            # one _jets call reads them at the probes that cannot be poles of q (INF and 5.0 may be)
            assert q._jets(points + near)[0] == want[: len(points)] + want[len(points) + 2:]
            assert [pair.degrees[w] for w in pair.points] == want[: len(pair.points)]
            assert [q.zero_degree_at(w) for w in probes] == want


class TestSpectralMeasure:
    def test_running_example_measure(self):
        space, rel, q = running_example()
        fact = gram_factorize(verify_definitizing(space, rel, q))
        atoms = fact.measure.atoms
        assert len(atoms) == 1
        point, proj = atoms[0]
        assert abs(point - 1.0) < 1e-9
        assert np.allclose(proj, [[1.0]])
        assert np.allclose(fact.measure.total(), np.eye(1))

    def test_measure_diagonalizes_theta(self):
        rng = np.random.default_rng(37)
        for trial in range(20):
            planted = random_definitizable(rng, allow_mul=(trial % 3 == 0))
            fact = gram_factorize(planted.verify())
            if fact.rank == 0:
                continue
            # sum of point * projector reconstructs the operator part
            acc = np.zeros((fact.rank, fact.rank), dtype=complex)
            for point, proj in fact.measure.atoms:
                if point is INF:
                    continue
                acc += complex(point) * proj
            if any(p is INF for p, _ in fact.measure.atoms):
                continue
            assert np.allclose(acc, fact.theta.operator_matrix(), atol=1e-7 * max(1.0, np.linalg.norm(acc)))

    def test_projectors_are_selfadjoint_idempotent_complete(self):
        rng = np.random.default_rng(38)
        for trial in range(15):
            planted = random_definitizable(rng, allow_mul=(trial % 2 == 0))
            fact = gram_factorize(planted.verify())
            if fact.rank == 0:
                continue
            total = np.zeros((fact.rank, fact.rank), dtype=complex)
            for _, proj in fact.measure.atoms:
                assert np.allclose(proj @ proj, proj, atol=1e-8)
                assert np.allclose(proj.conj().T, proj, atol=1e-8)
                total += proj
            assert np.allclose(total, np.eye(fact.rank), atol=1e-8)

    def test_non_selfadjoint_rejected(self):
        rel = LinearRelation.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSelfAdjointError):
            spectral_measure(rel)


def reference_atoms(fact):
    """Per-atom projectors V_i V_i* from eigh of the compressed resolvent, built atom by atom."""
    res = fact.resolvent
    eigvals, eigvecs = np.linalg.eigh((res + res.conj().T) / 2.0)
    at_inf = np.abs(eigvals) <= RANK_TOL * max(1.0, float(np.max(np.abs(eigvals))))
    labels = [INF if inf else fact.base_point + 1.0 / x for x, inf in zip(eigvals.tolist(), at_inf)]
    hits = fact.pair.report.match(labels, ATOM_MATCH_TOL)
    atoms = []
    for i in sorted(set(hits.tolist())):
        vecs = eigvecs[:, hits == i]
        atoms.append((fact.pair.points[i], vecs @ vecs.conj().T))
    return atoms


def eigen_form_cases(seed, count):
    """Factorizations of random definitizable pairs, every other one with a multivalued part."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        planted = random_definitizable(rng, allow_mul=(trial % 2 == 0), force_rational=(trial % 3 == 0))
        yield rng, gram_factorize(planted.verify())


class TestEigenFormMeasure:
    """The measure keeps eigh's basis V; atoms, integrals and the calculus are read from it."""

    def test_atoms_equal_per_atom_reference_bit_for_bit(self):
        seen_inf = False
        for _, fact in eigen_form_cases(90, 20):
            if fact.rank == 0:
                continue
            want = reference_atoms(fact)
            got = fact.measure.atoms
            assert [p for p, _ in got] == [p for p, _ in want]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
            seen_inf |= any(p is INF for p, _ in got)
        assert seen_inf

    def test_integrate_is_the_sum_over_atoms(self):
        for rng, fact in eigen_form_cases(91, 20):
            values = {p: complex(*rng.normal(size=2)) for p in fact.pair.points}
            want = np.zeros((fact.rank, fact.rank), dtype=complex)
            for p, proj in fact.measure.atoms:
                want += values[p] * proj
            got = fact.measure.integrate(values)
            assert np.allclose(got, want, rtol=0.0, atol=1e-13 * max(1.0, float(np.linalg.norm(want))))
            assert np.allclose(fact.measure.total(), np.eye(fact.rank), rtol=0.0, atol=1e-13)

    def test_calculus_is_s_of_a_plus_the_integral_through_the_factor(self):
        for rng, fact in eigen_form_cases(92, 20):
            pair = fact.pair
            phi = JetFunction(pair, {w: rng.normal(size=pair.degrees[w] + 1) for w in pair.points})
            dec = decompose(pair, phi)
            s_matrix = rational_apply(dec.s, pair.relation, pair.report)
            want = s_matrix + fact.factor @ fact.measure.integrate(dec.g) @ fact.factor_adjoint
            got = apply_calculus(fact, dec)
            assert np.allclose(got, want, rtol=0.0, atol=1e-8 * max(1.0, float(np.linalg.norm(want))))

    def test_rank_zero_measure(self):
        space = GramSpace(np.diag([1.0, -1.0]))
        rel = LinearRelation.from_operator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        q = RationalFunction(Polynomial([1.0, 0.0, 1.0]))
        pair = verify_definitizing(space, rel, q)
        fact = gram_factorize(pair)
        assert fact.rank == 0
        assert fact.measure.atoms == ()
        assert fact.measure.integrate({}).shape == fact.measure.total().shape == (0, 0)
        left, right = fact.eigen_factors
        assert left.shape == (2, 0) and right.shape == (0, 2)
        phi = JetFunction(pair, {w: counting_jet(pair.degrees[w]) for w in pair.points})
        dec = decompose(pair, phi)
        want = rational_apply(dec.s, pair.relation, pair.report)
        assert np.allclose(apply_calculus(fact, dec), want, atol=1e-10)

    def test_measure_of_theta_matches_the_factorization(self):
        for _, fact in eigen_form_cases(93, 12):
            if fact.rank == 0:
                continue
            own = spectral_measure(fact.theta)
            assert len(own.atoms) == len(fact.measure.atoms)
            for (p_own, proj_own), (p, proj) in zip(own.atoms, fact.measure.atoms):
                assert (p_own is INF and p is INF) or abs(complex(p_own) - complex(p)) < 1e-6
                assert np.allclose(proj_own, proj, atol=1e-7)
            values = {p: float(k) for k, p in enumerate(own.points)}
            assert np.allclose(own.integrate(values), sum(values[p] * proj for p, proj in own.atoms), atol=1e-12)

    def test_corrupted_column_index_does_not_reproduce_the_resolvent(self, monkeypatch):
        fact = next(f for _, f in eigen_form_cases(94, 40) if len(f.measure.atoms) >= 2)
        pair = fact.pair
        real_match = SpectrumReport.match

        def corrupted(self, labels, tol):
            hits = real_match(self, labels, tol)
            if tol == ATOM_MATCH_TOL:
                # move column 0 to the point of another atom
                hits[0] = next(i for i in hits.tolist() if i != hits[0])
            return hits

        monkeypatch.setattr(SpectrumReport, "match", corrupted)
        with pytest.raises(InconsistencyError, match="does not reproduce the resolvent"):
            _measure_from_resolvent(fact.resolvent, fact.base_point, pair.report)


def counting_jet(degree):
    """The jet (1, 2, ..., degree + 1)."""
    return np.arange(1.0, degree + 2.0)


class TestGramFactorize:
    def test_running_example_factors(self):
        space, rel, q = running_example()
        fact = gram_factorize(verify_definitizing(space, rel, q))
        assert fact.rank == 1
        assert np.allclose(fact.factor, [[1.0], [0.0]])
        assert np.allclose(fact.factor_adjoint, [[1.0, 0.0]])
        assert np.allclose(fact.gram_product, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(fact.theta.operator_matrix(), [[1.0]])
        assert fact.diagnostics["psd_margin"] > 0.99

    def test_one_eigendecomposition_of_g_q_a(self, monkeypatch):
        rng = np.random.default_rng(40)
        planted = random_definitizable(rng, allow_mul=True)
        seen = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(mat, *args, _real=real, **kwargs):
                seen.append(np.array(mat))
                return _real(mat, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        pair = planted.verify()
        h = pair.space.gram @ pair.q_matrix
        h = (h + h.conj().T) / 2.0
        fact = gram_factorize(pair)
        assert sum(np.array_equal(m, h) for m in seen) == 1
        eigvals, eigvecs = pair.psd_eig
        assert np.allclose(eigvecs @ np.diag(eigvals) @ eigvecs.conj().T, h, atol=1e-10)
        kept = eigvals[eigvals > 1e-10 * max(float(np.max(np.abs(eigvals))), 1.0)]
        assert fact.diagnostics["psd_margin"] == (float(np.min(kept)) if kept.size else 0.0)

    def test_factorization_identity_random(self):
        rng = np.random.default_rng(39)
        for trial in range(25):
            planted = random_definitizable(
                rng, allow_mul=(trial % 3 == 0), force_rational=(trial % 2 == 1))
            pair = planted.verify()
            fact = gram_factorize(pair)
            assert np.allclose(
                fact.gram_product, pair.q_matrix,
                atol=1e-7 * max(1.0, np.linalg.norm(pair.q_matrix)))
            # T^+ T is Hermitian and equals q evaluated on the factor side
            prod = fact.factor_product
            assert np.allclose(prod, prod.conj().T, atol=1e-9)
            if fact.rank:
                theta_q = rational_apply(pair.q, fact.theta, spectrum(fact.theta))
                assert np.allclose(prod, theta_q, atol=1e-7 * max(1.0, np.linalg.norm(prod)))

    def test_degenerate_rank_zero(self):
        space = GramSpace(np.diag([1.0, -1.0]))
        rel = LinearRelation.from_operator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        q = RationalFunction(Polynomial([1.0, 0.0, 1.0]))
        fact = gram_factorize(verify_definitizing(space, rel, q))
        assert fact.rank == 0
        assert fact.measure.atoms == ()
        assert fact.diagnostics["psd_margin"] == 0.0

    def test_rank_capped_by_the_critical_points(self):
        # q vanishes at every point of diag(1..8), so each point holds a
        # vector of ker q(A) and the rank is 0; two eigenvalues of G q(A),
        # rounding of up to 3e-8, pass the RANK_TOL cut and made it rank 2
        n = 8
        q = RationalFunction(Polynomial.from_roots(range(1, n + 1)))
        fact = gram_factorize(verify_definitizing(GramSpace.standard(n), LinearRelation.from_operator(np.diag(
            np.arange(1.0, n + 1))), q))
        assert fact.rank == 0 and fact.diagnostics["psd_margin"] == 0.0
        for j in range(n):
            want = np.zeros((n, n))
            want[j, j] = 1.0
            assert np.allclose(spectral_projection(fact, [j + 1.0]), want, atol=1e-8)

    def test_rank_below_the_structural_bound_is_an_inconsistency(self):
        # the points live at 1e-6 and the cuts at 1, a scale defect (ROADMAP
        # item 6): for q = z^2 the jet at the point 1e-6, (1e-12, 2e-6, 1),
        # reads a simple zero there and none at the others, and q(A) ~ 1e-11
        # falls below the RANK_TOL cut everywhere; without the bound the
        # projection onto 1e-6 came out as the identity.  q = z^2 + 1e-12,
        # kept as given, has no real zero and reads none, so its bound is 4
        rel = LinearRelation.from_operator(1e-6 * np.diag([1.0, 2.0, 3.0, 4.0]))
        for coeffs, degrees, bound in (([0.0, 0.0, 1.0], [1, 0, 0, 0], 3), ([1e-12, 0.0, 1.0], [0, 0, 0, 0], 4)):
            pair = verify_definitizing(GramSpace.standard(4), rel, RationalFunction(Polynomial(coeffs)))
            assert [pair.degrees[w] for w in pair.points] == degrees
            with pytest.raises(InconsistencyError, match=rf"rank 0 of q\(A\) is below the structural bound {bound}"):
                gram_factorize(pair)

    @pytest.mark.parametrize("n", [10, 16])
    def test_q_zero_on_the_spectrum_with_widely_spread_coefficients(self, n):
        # q = prod (z - j) on A = diag(30, ..., 29 + n), G = I: q's coefficients span more than 1 / COEFF_TRIM_TOL,
        # and every one is kept.  q(A) is 0, but its power-basis value has entries of both signs up to 1e2 (n = 10)
        # and 1e14 (n = 16): a typed error until q(A) is evaluated stably (ROADMAP item 4, step 2)
        rel = LinearRelation.from_operator(np.diag(np.arange(30.0, 30 + n)))
        q = RationalFunction(Polynomial.from_roots(range(30, 30 + n)))
        with pytest.raises(NotPositiveError):
            gram_factorize(verify_definitizing(GramSpace.standard(n), rel, q))

    def test_structural_bound_leaves_the_diagnostics_as_they_were(self):
        space, rel, q = running_example()
        fact = gram_factorize(verify_definitizing(space, rel, q))
        assert list(fact.diagnostics) == ["factor_residual", "psd_margin", "discarded_eigenvalue"]

    def test_theta_spectrum_inside_relation_spectrum(self):
        rng = np.random.default_rng(40)
        for trial in range(20):
            planted = random_definitizable(rng, allow_mul=(trial % 3 == 0))
            pair = planted.verify()
            fact = gram_factorize(pair)
            if fact.rank == 0:
                continue
            theta_points = [point for point, _ in spectrum(fact.theta).points]
            assert (pair.report.match(theta_points, ATOM_MATCH_TOL) >= 0).all()


def fixture_matrix(case, key):
    entries = np.array(case[key])
    return entries[..., 0] + 1j * entries[..., 1]


def fixture_point(p):
    return INF if p == "inf" else complex(*p)


def fixture_pair(name):
    """A pair of fixtures/factor_space_pairs.json, and the fixture entry with its planted references."""
    case = json.loads((FIXTURES / "factor_space_pairs.json").read_text())["cases"][name]
    pair = verify_definitizing(
        GramSpace(fixture_matrix(case, "gram")),
        LinearRelation.from_graph_columns(fixture_matrix(case, "X"), fixture_matrix(case, "Y")),
        RationalFunction(Polynomial(case["q_num"]), Polynomial(case["q_den"])))
    return pair, case


def relative_error(got, want):
    return float(np.linalg.norm(got - want)) / max(1.0, float(np.linalg.norm(want)))


class TestCompressedResolvent:
    def test_critical_838_matches_planted_reference(self):
        # the Hermitian residual of the compressed resolvent is 6.5e-10 here,
        # below IDENTITY_TOL; the adjoint-graph test that spectral_measure
        # once ran rejected this pair as not self-adjoint
        pair, case = fixture_pair("critical-838")
        fact = gram_factorize(pair)
        jets = {fixture_point(p): [complex(*v) for v in jet] for p, jet in case["jets"]}
        calc = apply_calculus(fact, JetFunction.from_points(pair, jets))
        assert relative_error(calc, fixture_matrix(case, "r_matrix")) < 1e-6
        for delta, proj in (("delta", "delta_proj"), ("rest", "rest_proj")):
            got = spectral_projection(fact, [fixture_point(p) for p in case[delta]])
            assert relative_error(got, fixture_matrix(case, proj)) < 1e-6

    def test_factor_outside_the_range_of_q_is_rejected(self):
        pair, _ = fixture_pair("critical-838")
        fact = gram_factorize(pair)
        u, _, _ = np.linalg.svd(fact.factor)
        bad = fact.factor.copy()
        bad[:, 0] = u[:, -1]  # orthogonal to ran T = ran q(A)
        mu = _resolvent_point(pair.report)
        res = resolvent_at(pair.relation, mu, pair.report)
        _pull_back(fact.factor, fact.left_inverse, res)
        with pytest.raises(InconsistencyError):
            _pull_back(bad, np.linalg.pinv(bad), res)

    @pytest.mark.parametrize("name", ["critical-838", "multivalued", "running"])
    def test_left_inverse_agrees_with_least_squares(self, name):
        if name == "critical-838":
            pair, _ = fixture_pair(name)
        else:
            pair = multivalued_pair() if name == "multivalued" else verify_definitizing(*running_example())
        fact = gram_factorize(pair)
        factor, left = fact.factor, fact.left_inverse
        assert np.allclose(left @ factor, np.eye(fact.rank), atol=1e-12 * np.linalg.cond(factor))
        image = resolvent_at(pair.relation, fact.base_point, pair.report) @ factor
        lsq = np.linalg.lstsq(factor, image, rcond=None)[0]
        assert np.array_equal(fact.resolvent, left @ image)
        # since L T = I, L (R T) - lsq = L (R T - T lsq): the two differ by
        # the least-squares residual, which L carries into C^r
        gap = float(np.linalg.norm(fact.resolvent - lsq))
        assert gap <= 1.01 * float(np.linalg.norm(left, 2) * np.linalg.norm(image - factor @ lsq)) + 1e-13
        if np.linalg.cond(factor) < 10.0:
            assert gap <= 1e-12 * max(1.0, float(np.linalg.norm(lsq)))

    def test_default_path_calls_neither_resolvent_at_nor_lstsq(self, monkeypatch):
        counts = {"resolvent_at": 0, "lstsq": 0}
        real_resolvent, real_lstsq = spectral.resolvent_at, np.linalg.lstsq

        def resolvent(*args, **kwargs):
            counts["resolvent_at"] += 1
            return real_resolvent(*args, **kwargs)

        def lstsq(*args, **kwargs):
            counts["lstsq"] += 1
            return real_lstsq(*args, **kwargs)

        for module in (spectral, krein):
            monkeypatch.setattr(module, "resolvent_at", resolvent)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        pair, case = fixture_pair("critical-838")
        fact = gram_factorize(pair)
        jets = {fixture_point(p): [complex(*v) for v in jet] for p, jet in case["jets"]}
        calc = apply_calculus(fact, JetFunction.from_points(pair, jets))
        proj = spectral_projection(fact, [fixture_point(p) for p in case["delta"]])
        assert counts == {"resolvent_at": 0, "lstsq": 0}
        assert relative_error(calc, fixture_matrix(case, "r_matrix")) < 1e-6
        assert relative_error(proj, fixture_matrix(case, "delta_proj")) < 1e-6
        # the running example, one critical at infinity, and one of rank 0: the pair's own base points are
        # the ones verify_definitizing solved for
        for name, rank in (("running.json", 1), ("mul.json", 1), ("degenerate.json", 0)):
            problem = cli.Problem(json.loads((FIXTURES / name).read_text()), RANK_TOL, PSD_TOL)
            pair = problem.pair()
            assert pair.resolvent_point in pair.resolvents and pair.calculus_point in pair.resolvents
            fact = gram_factorize(pair)
            assert fact.rank == rank
            apply_calculus(fact, problem.jet_function(pair))
            spectral_projection(fact, problem.delta())
            assert counts == {"resolvent_at": 0, "lstsq": 0}, name


class TestTransport:
    def test_theta_op_golden(self):
        space, rel, q = running_example()
        fact = gram_factorize(verify_definitizing(space, rel, q))
        c = np.diag([0.0, 5.0])
        assert np.allclose(theta_op(fact, c), [[0.0]])

    def test_theta_op_intertwines(self):
        rng = np.random.default_rng(41)
        for trial in range(15):
            planted = random_definitizable(rng)
            pair = planted.verify()
            fact = gram_factorize(pair)
            if fact.rank == 0:
                continue
            func = random_real_rational(rng, avoid=list(pair.points))
            c = rational_apply(func, pair.relation, pair.report)
            tc = theta_op(fact, c)
            resid = np.linalg.norm(fact.factor_adjoint @ c - tc @ fact.factor_adjoint)
            assert resid < 1e-7 * max(1.0, np.linalg.norm(c))

    def test_theta_op_rejects_non_commuting(self):
        rng = np.random.default_rng(42)
        planted = random_definitizable(rng, max_real=3)
        fact = gram_factorize(planted.verify())
        if fact.rank:
            c = random_operator(rng, planted.space.dim)
            with pytest.raises(NotInCommutantError):
                theta_op(fact, c)

    def test_xi_golden(self):
        space, rel, q = running_example()
        fact = gram_factorize(verify_definitizing(space, rel, q))
        assert np.allclose(xi(fact, np.array([[5.0]])), np.diag([5.0, 0.0]))

    def test_xi_then_theta_multiplies_by_transported_q(self):
        # the round trip is not the identity: Theta(Xi(D)) = (T^+ T) D,
        # mirroring Xi(Theta(C)) = q(A) C on the other side
        rng = np.random.default_rng(43)
        for trial in range(10):
            planted = random_definitizable(rng)
            pair = planted.verify()
            fact = gram_factorize(pair)
            if fact.rank == 0:
                continue
            func = random_real_rational(rng, avoid=[p for p, _ in spectrum(fact.theta).points])
            d = rational_apply(func, fact.theta, spectrum(fact.theta))
            back = theta_op(fact, xi(fact, d))
            want = fact.factor_product @ d
            assert np.allclose(back, want, atol=1e-6 * max(1.0, np.linalg.norm(want)))

    def test_xi_of_theta_multiplies_by_q_matrix(self):
        rng = np.random.default_rng(45)
        for trial in range(10):
            planted = random_definitizable(rng, allow_mul=(trial % 3 == 0))
            pair = planted.verify()
            fact = gram_factorize(pair)
            if fact.rank == 0:
                continue
            func = random_real_rational(rng, avoid=list(pair.points))
            c = rational_apply(func, pair.relation, pair.report)
            roundtrip = xi(fact, theta_op(fact, c))
            want = pair.q_matrix @ c
            assert np.allclose(roundtrip, want, atol=1e-6 * max(1.0, np.linalg.norm(want)))



def _nan_from(monkeypatch, module, call):
    """module.frobenius returns NaN from its call-th call on, counting from 1."""
    real, calls = module.frobenius, [0]

    def frobenius(mat):
        calls[0] += 1
        return float("nan") if calls[0] >= call else real(mat)

    monkeypatch.setattr(module, "frobenius", frobenius)


def _measure_again(fact):
    return _measure_from_resolvent(fact.resolvent, fact.base_point, fact.pair.report)


# (module whose frobenius turns NaN, from which of its calls, the operation, the error, its message);
# each residual check must fail on NaN: a NaN compares false with every bound
NAN_RESIDUAL_CHECKS = {
    "pull back": (krein, 1, lambda f: _pull_back(f.factor, f.left_inverse, np.eye(2)), InconsistencyError,
                  "not invariant"),
    "factor": (krein, 1, lambda f: gram_factorize(f.pair), InconsistencyError, r"T T\^\+ failed"),
    "measure sum": (krein, 1, _measure_again, InconsistencyError, "do not sum to the identity"),
    "measure probe": (krein, 2, _measure_again, InconsistencyError, "does not reproduce the resolvent"),
    "commutes": (krein, 1, lambda f: theta_op(f, np.diag([0.0, 5.0])), NotInCommutantError, "commute"),
    # _check_commutes takes three residuals and _pull_back two before the intertwining one
    "intertwines": (krein, 6, lambda f: theta_op(f, np.diag([0.0, 5.0])), InconsistencyError, "intertwining"),
    "idempotent": (jetcalc, 1, lambda f: spectral_projection(f, [1.0]), InconsistencyError, "idempotent"),
}


class TestNonFinite:
    """A NaN or infinite operator is a ValidationError, and a NaN residual fails its check."""

    @pytest.fixture()
    def fact(self):
        space, rel, q = running_example()
        return gram_factorize(verify_definitizing(space, rel, q))

    def test_theta_op_and_xi_reject_a_non_finite_operator(self, fact):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="operator matrix must be finite"):
                theta_op(fact, np.diag([0.0, bad]))
            with pytest.raises(ValidationError, match="factor-space operator must be finite"):
                xi(fact, np.array([[bad]]))

    def test_rational_apply_rejects_an_r_of_a_that_overflows(self, fact):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"r\(A\) must be finite"):
                rational_apply(RationalFunction(Polynomial([1e308] * 3)), fact.pair.relation)

    def test_a_q_whose_normalization_overflows_is_a_validation_error(self):
        # the running example's q over the denominator 1e-308: normalizing divides 2 by 1e-308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="finite"):
                RationalFunction(Polynomial([2.0, -1.0]), Polynomial([1e-308]))

    def test_a_nan_resolvent_is_not_self_adjoint(self, fact):
        with pytest.raises(NotSelfAdjointError):
            _measure_from_resolvent(np.full((1, 1), np.nan), fact.base_point, fact.pair.report)

    @pytest.mark.parametrize("check", sorted(NAN_RESIDUAL_CHECKS))
    def test_a_nan_residual_fails_its_check(self, monkeypatch, fact, check):
        module, call, operation, error, message = NAN_RESIDUAL_CHECKS[check]
        operation(fact)  # passes with its residuals as they are
        _nan_from(monkeypatch, module, call)
        with pytest.raises(error, match=message):
            operation(fact)
