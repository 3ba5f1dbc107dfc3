"""Spectrum computation, resolvents and the rational calculus."""

import json
from pathlib import Path

import numpy as np
import pytest

from kreincalc import (
    INF,
    GramSpace,
    JetFunction,
    LinearRelation,
    MoebiusMap,
    NotBoundedError,
    NotInResolventSetError,
    PoleMeetsSpectrumError,
    Polynomial,
    PreconditionError,
    RationalFunction,
    SpectrumReport,
    apply_calculus,
    chordal_distance,
    gram_factorize,
    rational_apply,
    resolvent_at,
    spectral_projection,
    spectrum,
    verify_definitizing,
)
from kreincalc.rational import cluster_values
from kreincalc.relations import as_point, is_inf
from kreincalc.spectral import ResolventStack
from kreincalc.tolerances import RESOLVENT_DIST_TOL, SPECTRUM_CLUSTER_TOL

from helpers import (
    match_point_sets,
    random_operator,
    random_proper_relation,
    random_rational,
    random_relation,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _record_solves(monkeypatch) -> list:
    """Wrap np.linalg.solve; each call appends (ndim of the matrix, result)."""
    calls = []
    real = np.linalg.solve

    def solve(a, b):
        out = real(a, b)
        calls.append((np.ndim(a), out))
        return out

    monkeypatch.setattr(np.linalg, "solve", solve)
    return calls


def _block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def weierstrass_pencil(rng, finite, chains, mix):
    """Relation whose pencil (Y, X) has a planted Weierstrass form.

    ``finite`` lists (point, Jordan block size); ``chains`` lists the lengths
    of the Jordan chains at infinity.  The canonical pair
    X0 = I + N_inf, Y0 = J_fin + I is moved to P X0 Q, P Y0 Q by unitary P, Q
    (``mix="unitary"``) or permutations, which keep its zeros exact
    (``mix="permutation"``).  Returns the relation and the planted points.
    """
    fin = [p * np.eye(k) + np.eye(k, k, 1) for p, k in finite]
    inf = [np.eye(k, k, 1) for k in chains]
    nf, ni = sum(k for _, k in finite), sum(chains)
    x0 = _block_diag(np.eye(nf), *inf)
    y0 = _block_diag(*fin, np.eye(ni))
    n = nf + ni
    if mix == "unitary":
        p, q = _unitary(rng, n), _unitary(rng, n)
    else:
        p, q = np.eye(n)[rng.permutation(n)], np.eye(n)[rng.permutation(n)]
    planted = [(complex(pt), k) for pt, k in finite]
    if ni:
        planted.append((INF, ni))
    return LinearRelation.from_graph_columns(p @ x0 @ q, p @ y0 @ q), planted


def qz_points(rel):
    """The spectrum by scipy's QZ with the same infinity test and clustering."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    x, y = rel.graph_columns()
    alpha, beta = scipy_linalg.eig(y, x, right=False, homogeneous_eigvals=True)
    finite, inf_count = [], 0
    for a, b in zip(alpha.ravel(), beta.ravel()):
        if abs(b) <= 1e-10 * max(abs(a), abs(b), 1.0):
            inf_count += 1
        else:
            finite.append(complex(a / b))
    out = list(cluster_values(finite, SPECTRUM_CLUSTER_TOL))
    return out + [(INF, inf_count)] if inf_count else out


def assert_same_points(got, want, tol):
    """Equal multiplicities, and each point within tol of its partner."""
    assert sorted(m for _, m in got) == sorted(m for _, m in want)
    rest = list(want)
    for p, m in got:
        same_kind = [t for t in rest if (t[0] is INF) == (p is INF) and t[1] == m]
        assert same_kind, (got, want)
        partner = min(same_kind, key=lambda t: 0.0 if p is INF else abs(complex(t[0]) - p))
        if p is not INF:
            assert abs(complex(partner[0]) - p) <= tol, (got, want)
        rest.remove(partner)


class TestSpectrum:
    def test_operator_spectrum_matches_eigenvalues(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = random_operator(rng, 4)
            rep = spectrum(LinearRelation.from_operator(a))
            eigs = [(complex(v), 1) for v in np.linalg.eigvals(a)]
            assert match_point_sets(eigs, rep.points, tol=1e-7)
            assert sum(m for _, m in rep.points) == 4
            assert rep.inf_multiplicity() == 0

    def test_graph_columns_with_point_at_infinity(self):
        # [DERIVED]: X = diag(1,0), Y = diag(0,1) pairs eigenvalue 0 with
        # a one dimensional multivalued part
        rel = LinearRelation.from_graph_columns(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        rep = spectrum(rel)
        assert rep.points == ((0j, 1), (INF, 1))

    def test_jordan_structure_at_infinity_counts_algebraically(self):
        # [DERIVED]: the pencil (X, Y) = ([[0,1],[0,0]], I) has a length-2
        # chain at infinity, so the algebraic multiplicity there is 2 even
        # though rank X = 1
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        rel = LinearRelation.from_graph_columns(x, np.eye(2))
        rep = spectrum(rel)
        assert rep.inf_multiplicity() == 2
        assert sum(m for _, m in rep.points) == 2

    def test_nonproper_relation_gives_full_sphere(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        rel = LinearRelation.from_graph_columns(x, y)
        rep = spectrum(rel)
        assert rep.is_full_sphere
        assert rep.contains(0.37 + 5.1j)
        assert rep.contains(INF)

    def test_singular_pencil_detected_for_proper_relation(self):
        # graph contains (0;0)-padding columns making det(Y - zX) vanish
        # identically: x spans e1 with y = e1, plus a vector with x = y = e2
        # direction shared; build a 2-dim graph in C^2 that is proper but
        # whose pencil is singular: columns (e1; e1) and (e1; e1) are not
        # independent, so use (e1; e1) and (2 e1; 2 e1)... instead take the
        # classic singular pencil X = [[1,0],[0,0]], Y = [[1,0],[0,0]]
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        rel = LinearRelation.from_graph_columns(x, y)
        assert rel.dim == 1
        rep = spectrum(rel)
        assert rep.is_full_sphere

    def test_multiplicity_of_repeated_eigenvalue(self):
        a = np.diag([2.0, 2.0, 5.0])
        rep = spectrum(LinearRelation.from_operator(a))
        assert rep.multiplicity_of(2.0) == 2
        assert rep.multiplicity_of(5.0) == 1
        assert rep.multiplicity_of(7.0) == 0

    def test_moebius_spectral_mapping(self):
        rng = np.random.default_rng(22)
        m = MoebiusMap(0.3, 1.0, 1.0, -0.7)
        for _ in range(20):
            rel = random_relation(rng, 3, graph_dim=3)
            if not rel.is_proper:
                continue
            rep = spectrum(rel)
            if rep.is_full_sphere:
                continue
            mapped = spectrum(rel.moebius(m))
            want = [(m(p), mult) for p, mult in rep.points]
            assert match_point_sets(want, mapped.points, tol=1e-7)


# finite Jordan 2-blocks, conjugate pairs, multivalued parts and chains at infinity
PENCIL_SPECS = [
    ([(1.5, 1), (-0.5 + 1j, 1), (-0.5 - 1j, 1), (2.0, 2), (-1.0, 1)], [1, 1]),
    ([(0.3, 2), (-2.0, 2), (1 + 0.5j, 1), (1 - 0.5j, 1), (2.5, 1)], [1]),
    ([(-1.2, 1), (0.4, 2), (2.2 + 0.7j, 1), (2.2 - 0.7j, 1)], []),
    ([(0.7, 1), (0.1, 2), (-2.6, 1)], [2, 1]),
]


class TestPencilSolver:
    @pytest.mark.parametrize("spec", range(len(PENCIL_SPECS)))
    def test_agrees_with_scipy_qz(self, spec):
        finite, chains = PENCIL_SPECS[spec]
        # QZ deflates a chain at infinity only while its zeros stay exact
        mixes = ["permutation"] if any(k > 1 for k in chains) else ["permutation", "unitary"]
        for mix in mixes:
            rng = np.random.default_rng(100 + spec)
            for _ in range(8):
                rel, planted = weierstrass_pencil(rng, finite, chains, mix)
                got = spectrum(rel).points
                assert_same_points(got, qz_points(rel), tol=1e-10)
                assert_same_points(got, planted, tol=1e-7)

    def test_chains_at_infinity_survive_unitary_mixing(self):
        # rounding splits the nu of a chain at infinity by about sqrt(eps),
        # far above the 1e-10 infinity test; the rank decisions on
        # (Y - lam0 X)^{-1} X still count the whole chain
        rng = np.random.default_rng(7)
        for finite, chains in PENCIL_SPECS:
            for _ in range(10):
                rel, planted = weierstrass_pencil(rng, finite, chains, "unitary")
                assert_same_points(spectrum(rel).points, planted, tol=1e-7)

    def test_nilpotent_block_is_a_chain_at_infinity(self):
        # X = [[0, 1], [0, 0]], Y = I: both pencil eigenvalues are infinite,
        # and the eigenvectors alone see only one of them
        rel = LinearRelation.from_graph_columns(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
        assert spectrum(rel).points == ((INF, 2),)

    @pytest.mark.parametrize("name", ["critical-981", "critical-3804"])
    def test_planted_jordan_pairs_stay_double(self, name):
        case = json.loads((FIXTURES / "jordan_pencils.json").read_text())["cases"][name]
        x, y = (np.array(case[k])[..., 0] + 1j * np.array(case[k])[..., 1] for k in ("X", "Y"))
        planted = [(INF if p == "inf" else complex(*p), m) for p, m in case["points"]]
        assert_same_points(spectrum(LinearRelation.from_graph_columns(x, y)).points, planted, tol=1e-7)


class TestResolvent:
    def test_resolvent_matches_matrix_inverse(self):
        rng = np.random.default_rng(23)
        a = random_operator(rng, 4)
        lam = 5.0 + 3.0j
        want = np.linalg.inv(a - lam * np.eye(4))
        got = resolvent_at(LinearRelation.from_operator(a), lam)
        assert np.allclose(got, want)

    def test_resolvent_at_infinity_is_operator_part(self):
        a = np.diag([1.0, 2.0])
        rel = LinearRelation.from_operator(a)
        assert np.allclose(resolvent_at(rel, INF), a)

    def test_resolvent_with_multivalued_part_golden(self):
        # [DERIVED] span{(e1; e1), (0; e2)} at lam = 0: inverse relation is
        # the graph of diag(1, 0)
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        rel = LinearRelation.from_graph_columns(x, y)
        got = resolvent_at(rel, 0.0)
        assert np.allclose(got, np.diag([1.0, 0.0]))

    def test_matches_moebius_image_with_multivalued_part(self):
        rng = np.random.default_rng(31)
        for n in (3, 5, 8):
            rel = random_proper_relation(rng, n, with_mul=True)
            assert rel.mul().dim > 0
            for lam in (0.4 + 1.1j, -2.0 + 0.3j):
                want = rel.moebius(MoebiusMap(0.0, 1.0, 1.0, -lam)).operator_matrix()  # z -> 1 / (z - lam)
                assert np.allclose(resolvent_at(rel, lam), want, atol=1e-9 * max(1.0, np.linalg.norm(want)))

    def test_unbounded_resolvent_raises_even_with_a_wrong_report(self):
        rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
        wrong = SpectrumReport(2, ((5.0, 2),))
        for lam in (2.0, 2.0 + 1e-12):  # exactly singular, and ||R|| = 1e12
            with pytest.raises(NotBoundedError):
                resolvent_at(rel, lam, wrong)

    def test_stack_raises_only_where_an_unbounded_resolvent_is_read(self):
        rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
        for bad in (2.0, 2.0 + 1e-12):  # exactly singular, and ||R|| = 1e12
            stack = ResolventStack(rel, [5.0, bad, 3j])
            for z in (5.0, 3j):
                assert np.array_equal(stack[z], resolvent_at(rel, z))
            with pytest.raises(NotBoundedError, match="relation is not an everywhere-defined operator"):
                stack[bad]
            assert bad in stack and 4.0 not in stack and INF not in stack

    def test_point_in_spectrum_rejected(self):
        rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
        with pytest.raises(NotInResolventSetError):
            resolvent_at(rel, 2.0)
        assert not spectrum(rel).contains(3.0)
        assert spectrum(rel).contains(1.0)

    def test_first_resolvent_identity(self):
        rng = np.random.default_rng(24)
        a = random_operator(rng, 4)
        rel = LinearRelation.from_operator(a)
        lam, mu = 4.0 + 1.0j, -2.0 + 2.0j
        r_lam = resolvent_at(rel, lam)
        r_mu = resolvent_at(rel, mu)
        assert np.allclose(r_lam - r_mu, (lam - mu) * r_lam @ r_mu, atol=1e-9)


class TestRationalApply:
    def test_polynomial_matches_direct_matrix_arithmetic(self):
        rng = np.random.default_rng(25)
        a = random_operator(rng, 3)
        rel = LinearRelation.from_operator(a)
        rep = spectrum(rel)
        p = RationalFunction(Polynomial([1.0, -2.0, 0.5]))
        want = np.eye(3) - 2 * a + 0.5 * (a @ a)
        assert np.allclose(rational_apply(p, rel, rep), want, atol=1e-10)

    def test_rational_matches_eigen_decomposition_oracle(self):
        # oracle: diagonalize and apply the scalar function to eigenvalues
        rng = np.random.default_rng(26)
        for _ in range(10):
            a = random_operator(rng, 4)
            vals, vecs = np.linalg.eig(a)
            if np.linalg.cond(vecs) > 1e3:
                continue
            rel = LinearRelation.from_operator(a)
            rep = spectrum(rel)
            func = random_rational(rng, avoid=[complex(v) for v in vals])
            want = vecs @ np.diag([complex(func(complex(v))) for v in vals]) @ np.linalg.inv(vecs)
            got = rational_apply(func, rel, rep)
            assert np.allclose(got, want, atol=1e-6 * max(1.0, np.linalg.norm(want)))

    def test_homomorphism_laws(self):
        rng = np.random.default_rng(27)
        a = random_operator(rng, 4)
        rel = LinearRelation.from_operator(a)
        rep = spectrum(rel)
        avoid = [p for p, _ in rep.points]
        f = random_rational(rng, avoid=avoid)
        g = random_rational(rng, avoid=avoid)
        mf = rational_apply(f, rel, rep)
        mg = rational_apply(g, rel, rep)
        sum_mat = rational_apply(f + g, rel, rep)
        prod_mat = rational_apply(f * g, rel, rep)
        assert np.allclose(mf + mg, sum_mat, atol=1e-7 * max(1.0, np.linalg.norm(sum_mat)))
        assert np.allclose(mf @ mg, prod_mat, atol=1e-7 * max(1.0, np.linalg.norm(prod_mat)))

    def test_pole_on_spectrum_rejected(self):
        rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
        rep = spectrum(rel)
        bad = RationalFunction(Polynomial([1.0]), Polynomial.from_roots([2.0]))
        with pytest.raises(PoleMeetsSpectrumError):
            rational_apply(bad, rel, rep)

    def test_error_names_the_first_pole_on_the_spectrum(self):
        # spectrum 1, 2, 3 and inf; poles() lists the finite clusters in order, then inf
        rel = LinearRelation.from_graph_columns(np.diag([1.0, 1.0, 1.0, 0.0]), np.diag([1.0, 2.0, 3.0, 1.0]))
        rep = spectrum(rel)
        cases = [([2.0, 3.0], 0, 2.0), ([0.5, 3.0], 0, 3.0), ([0.5, 2.0 + 1e-9], 0, 2.0), ([0.5], 2, INF),
                 ([2.0], 2, 2.0)]
        for den_roots, extra_degree, first in cases:
            num = Polynomial([0.0] * (len(den_roots) + extra_degree) + [1.0])
            func = RationalFunction(num, Polynomial.from_roots(den_roots))
            met = [p for p, _ in func.poles() if rep.contains(p)]
            assert met[0] is INF if first is INF else abs(met[0] - first) < 1e-7
            with pytest.raises(PoleMeetsSpectrumError) as info:
                rational_apply(func, rel, rep)
            assert str(info.value) == f"pole {met[0]} of the function meets the spectrum"

    def test_pole_test_matches_per_pole_loop(self):
        rng = np.random.default_rng(95)
        for _ in range(30):
            a = np.diag(rng.integers(-3, 4, size=4).astype(float))
            rel = LinearRelation.from_operator(a)
            rep = spectrum(rel)
            den_roots = rng.integers(-4, 5, size=int(rng.integers(1, 4))) + rng.choice([0.0, 0.5], size=1)
            func = RationalFunction(Polynomial([1.0]), Polynomial.from_roots(den_roots.tolist()))
            met = [p for p, _ in func.poles() if rep.contains(p)]
            if not met:
                assert np.all(np.isfinite(rational_apply(func, rel, rep)))
                continue
            with pytest.raises(PoleMeetsSpectrumError) as info:
                rational_apply(func, rel, rep)
            assert str(info.value) == f"pole {met[0]} of the function meets the spectrum"

    def test_polynomial_on_unbounded_relation_rejected(self):
        # polynomials have a pole at infinity
        x = np.diag([1.0, 0.0])
        y = np.diag([0.0, 1.0])
        rel = LinearRelation.from_graph_columns(x, y)
        rep = spectrum(rel)
        p = RationalFunction(Polynomial([0.0, 1.0]))
        with pytest.raises(PoleMeetsSpectrumError):
            rational_apply(p, rel, rep)

    def test_full_sphere_spectrum_rejected(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        rel = LinearRelation.from_graph_columns(x, y)
        rep = spectrum(rel)
        with pytest.raises(PreconditionError):
            rational_apply(rational_from_scalar_like(2.0), rel, rep)

    def test_value_on_multivalued_part_is_value_at_infinity(self):
        # [DERIVED]: on span{(e1; e1), (0; e2)} a function with a finite
        # limit c at infinity acts as diag(f(1), c)
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        rel = LinearRelation.from_graph_columns(x, y)
        rep = spectrum(rel)
        func = RationalFunction(Polynomial([2.0, 3.0]), Polynomial([1.0, 1.0]))
        got = rational_apply(func, rel, rep)
        f1 = complex(func(1.0))
        finf = complex(func(INF))
        assert np.allclose(got, np.diag([f1, finf]), atol=1e-10)

    def test_spectral_mapping_for_rational_functions(self):
        rng = np.random.default_rng(28)
        a = random_operator(rng, 4)
        rel = LinearRelation.from_operator(a)
        rep = spectrum(rel)
        func = random_rational(rng, avoid=[p for p, _ in rep.points])
        image = spectrum(LinearRelation.from_operator(rational_apply(func, rel, rep)))
        want = []
        for p, mult in rep.points:
            want.append((func(p), mult))
        assert match_point_sets(want, image.points, tol=1e-6)

    @pytest.mark.parametrize("with_mul", [False, True])
    def test_stacked_resolvents_equal_per_pole_resolvents(self, monkeypatch, with_mul):
        # a double pole and three simple ones, far outside the random spectra
        rng = np.random.default_rng(41)
        func = RationalFunction(Polynomial([1.0, 0.5, -0.25]),
                                Polynomial.from_roots([10j, 10j, -12.0, 11.0 - 11.0j, 13.0]))
        poles = list(dict.fromkeys(p for p, _, _ in func.partial_fractions().terms))
        for n in (3, 6, 9):
            rel = random_proper_relation(rng, n, with_mul=with_mul)
            assert (rel.mul().dim > 0) == with_mul
            rep = spectrum(rel)
            calls = _record_solves(monkeypatch)
            rational_apply(func, rel, rep)
            stacked = [out for ndim, out in calls if ndim == 3]
            assert len(stacked) == 1 and stacked[0].shape == (4, n, n)
            monkeypatch.undo()
            for k, pole in enumerate(poles):
                assert np.array_equal(np.swapaxes(stacked[0], -1, -2)[k], resolvent_at(rel, pole, rep))

    def test_four_poles_and_a_polynomial_part_take_two_solves_and_no_svd(self, monkeypatch):
        rng = np.random.default_rng(42)
        a = random_operator(rng, 6)
        rel = LinearRelation.from_operator(a)
        rep = spectrum(rel)
        # numerator degree 6 over denominator degree 4: a polynomial part of degree 2
        func = RationalFunction(Polynomial([1.0, -2.0, 0.5, 0.3, 0.1, 0.2, 0.05]),
                                Polynomial.from_roots([10j, -10j, 12.0, -12.0]))
        counts = {"solve": 0, "svd": 0}
        for name in counts:
            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        got = rational_apply(func, rel, rep)
        assert counts == {"solve": 2, "svd": 0}
        monkeypatch.undo()
        vals, vecs = np.linalg.eig(a)
        want = vecs @ np.diag([complex(func(complex(v))) for v in vals]) @ np.linalg.inv(vecs)
        assert np.allclose(got, want, atol=1e-9 * max(1.0, np.linalg.norm(want)))

    @pytest.mark.parametrize("n_poles", [1, 2, 4])
    def test_stacked_solve_holds_under_the_numpy_1_reading_of_its_right_side(self, monkeypatch, n_poles):
        # numpy 1.x reads b as a stack of vectors when b.ndim == a.ndim - 1; with
        # 1 or n poles a (n, n) right side would then pair poles with columns
        real = np.linalg.solve

        def solve(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return real(a, b[..., None])[..., 0] if b.ndim == a.ndim - 1 else real(a, b)

        rng = np.random.default_rng(44)
        a = random_operator(rng, 4)
        func = RationalFunction(Polynomial([1.0, 0.5]), Polynomial.from_roots([10.0 + 3j * k for k in range(n_poles)]))
        monkeypatch.setattr(np.linalg, "solve", solve)
        got = rational_apply(func, LinearRelation.from_operator(a))
        monkeypatch.undo()
        vals, vecs = np.linalg.eig(a)
        want = vecs @ np.diag([complex(func(complex(v))) for v in vals]) @ np.linalg.inv(vecs)
        assert np.allclose(got, want, atol=1e-10 * max(1.0, np.linalg.norm(want)))

    @pytest.mark.parametrize("n, n_poles", [(4, 0), (4, 2), (6, 4)])
    def test_stacked_solve_through_verify_holds_under_the_numpy_1_reading(self, monkeypatch, n, n_poles):
        # verify_definitizing stacks the poles of q with the factor-space point
        # and the calculus base point: stacks of 2 (no poles) and of n
        real = np.linalg.solve
        shapes = []

        def solve(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if a.ndim == 3:
                shapes.append(a.shape)
            return real(a, b[..., None])[..., 0] if b.ndim == a.ndim - 1 else real(a, b)

        rng = np.random.default_rng(45)
        v = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        vinv = np.linalg.inv(v)
        t = np.arange(1.0, n + 1.0)
        # G A = V^-* diag(t) V^-1 is Hermitian, and q >= 0 on the real axis
        space = GramSpace(vinv.conj().T @ vinv)
        rel = LinearRelation.from_operator(v @ np.diag(t) @ vinv)
        poles = [s * 1j * (10.0 + 2.0 * k) for k in range(n_poles // 2) for s in (1, -1)]
        q = RationalFunction(Polynomial.from_roots([1.0, 1.0]), Polynomial.from_roots(poles))
        phi = {1.0: [1.0, 2.0, 3.0], **{float(w): [w * w] for w in t[1:]}}

        def run():
            pair = verify_definitizing(space, rel, q)
            fact = gram_factorize(pair)
            return apply_calculus(fact, JetFunction.from_points(pair, phi)), spectral_projection(fact, [2.0])

        want = run()
        monkeypatch.setattr(np.linalg, "solve", solve)
        got = run()
        monkeypatch.undo()
        assert shapes == [(n_poles + 2, n, n)]
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=1e-10 * max(1.0, np.linalg.norm(w)))
        assert np.allclose(got[1], np.outer(v[:, 1], vinv[1]), atol=1e-9)

    def test_empty_pair_and_pole_free_function_make_no_stacked_solve(self, monkeypatch):
        calls = _record_solves(monkeypatch)
        empty = LinearRelation.from_operator(np.zeros((0, 0)))
        q = RationalFunction(Polynomial([1.0, 0.0, 0.0, 2.0]), Polynomial.from_roots([3j, -3j]))
        pair = verify_definitizing(GramSpace(np.zeros((0, 0))), empty, q)
        assert pair.q_matrix.shape == (0, 0)
        rng = np.random.default_rng(43)
        a = random_operator(rng, 4)
        p = RationalFunction(Polynomial([1.0, -2.0, 0.5]))
        got = rational_apply(p, LinearRelation.from_operator(a))
        assert np.allclose(got, np.eye(4) - 2 * a + 0.5 * (a @ a), atol=1e-10)
        assert calls and all(ndim == 2 for ndim, _ in calls)


def rational_from_scalar_like(c):
    return RationalFunction(Polynomial([c]))


def test_chordal_distance_reporting():
    rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
    rep = spectrum(rel)
    assert rep.match([1.0 + 1e-9], 1e-8).tolist() == [0]
    assert min(chordal_distance(INF, p) for p, _ in rep.points) > 0.4
    assert chordal_distance(INF, INF) == 0.0


def reference_multiplicity(rep, z):
    """Multiplicity of the nearest point of z's kind within RESOLVENT_DIST_TOL, the first on ties."""
    best, mult = np.inf, 0
    for p, m in rep.points:
        if is_inf(p) != is_inf(z):
            continue
        dist = 0.0 if is_inf(p) else abs(complex(p) - complex(z))
        if dist <= RESOLVENT_DIST_TOL and dist < best:
            best, mult = dist, m
    return mult


class TestMatch:
    def test_nearest_point_first_on_ties_infinity_apart(self):
        rep = SpectrumReport(4, ((1.0 + 0j, 1), (2.0 + 0j, 2), (INF, 1)))
        labels = [1.0, 1.9, 1.5, 1.5 + 0.3j, 3.0, INF, float("inf"), 1e300, 3.5]
        assert rep.match(labels, 1.0).tolist() == [0, 1, 0, 0, 1, 2, 2, -1, -1]
        assert rep.match([1.0 + 2e-7, 1.0 + 5e-8, INF], 1e-7).tolist() == [-1, 0, 2]
        bounded = SpectrumReport(2, ((1.0 + 0j, 1), (2.0 + 0j, 1)))
        assert bounded.match([INF], 1e300).tolist() == [-1]

    def test_empty_labels_and_empty_report(self):
        rep = SpectrumReport(2, ((1.0 + 0j, 1), (INF, 1)))
        got = rep.match([], 1.0)
        assert got.shape == (0,) and got.dtype.kind == "i"
        for empty in (SpectrumReport(0, ()), SpectrumReport(3, (), is_full_sphere=True)):
            assert empty.match([1.0, INF], 1.0).tolist() == [-1, -1]
            assert empty.match([], 1.0).shape == (0,)

    def test_multiplicity_of_matches_per_point_loop(self):
        rng = np.random.default_rng(91)
        for trial in range(30):
            finite = [(complex(*rng.normal(size=2)), int(rng.integers(1, 4))) for _ in range(trial % 6)]
            entries = tuple(finite) + (((INF, 2),) if trial % 2 else ())
            rep = SpectrumReport(sum(m for _, m in entries), entries)
            probes = [INF, 0.0, float("inf")]
            probes += [p + complex(*rng.normal(size=2)) * scale for p, _ in finite for scale in (0.0, 5e-8, 3e-7, 0.5)]
            for z in probes:
                assert rep.multiplicity_of(z) == reference_multiplicity(rep, as_point(z))
                assert rep.contains(z) == (reference_multiplicity(rep, as_point(z)) > 0)
