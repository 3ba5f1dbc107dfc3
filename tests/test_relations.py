"""Subspaces, Moebius maps and linear relations."""

import math
import warnings

import numpy as np
import pytest

from kreincalc import (
    INF,
    InconsistencyError,
    LinearRelation,
    MoebiusMap,
    NotBoundedError,
    Subspace,
    ValidationError,
    chordal_distance,
    diagonal_image,
    diagonal_preimage,
)
from kreincalc.relations import frobenius, null_space, orthonormal_columns, stable_svd

from helpers import random_definitizable, random_gram, random_invertible, random_operator, random_relation


def test_chordal_distance_against_stereographic_projection():
    # oracle: lift points to the Riemann sphere and take the straight-line
    # distance; the chordal formula must match (diameter-1 normalization)
    def lift(z):
        if z is INF:
            return np.array([0.0, 0.0, 1.0])
        x, y = z.real, z.imag
        d = 1.0 + x * x + y * y
        return np.array([2 * x / d, 2 * y / d, (x * x + y * y - 1.0) / d])

    rng = np.random.default_rng(11)
    pts = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(12)] + [INF, 0j]
    for a in pts:
        for b in pts:
            want = 0.5 * np.linalg.norm(lift(a) - lift(b))
            assert abs(chordal_distance(a, b) - want) < 1e-12


class TestSubspace:
    def test_projector_and_complement(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        sub = Subspace.from_spanning(mat)
        p = sub.projector()
        assert np.allclose(p @ p, p)
        assert np.allclose(p.conj().T, p)
        assert np.allclose(p @ mat, mat)

    def test_rank_deficient_spanning_set(self):
        mat = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        assert Subspace.from_spanning(mat).dim == 1

    def test_sum_and_intersection_dimension_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = Subspace.from_spanning(rng.normal(size=(7, rng.integers(1, 5))))
            b = Subspace.from_spanning(rng.normal(size=(7, rng.integers(1, 5))))
            # random subspaces are in general position: they meet in dimension max(0, a.dim + b.dim - 7)
            assert a.sum(b).dim == min(7, a.dim + b.dim)

    def test_image_preimage_adjointness(self):
        # dim ker T + dim im T = dim dom T applied through a subspace
        rng = np.random.default_rng(6)
        t = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        sub = Subspace.from_spanning(rng.normal(size=(7, 3)))
        img = sub.image(t)
        assert all(img.contains(Subspace.from_spanning(t @ sub.basis[:, j])) for j in range(sub.dim))
        pre = img.preimage(t)
        for j in range(sub.dim):
            assert pre.contains(Subspace.from_spanning(sub.basis[:, j]))

    def test_contains_and_same_as(self):
        a = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        full = Subspace.from_spanning(np.eye(2))
        assert full.contains(a)
        assert not a.contains(full)
        again = Subspace.from_spanning(np.array([[2.0], [0.0]]))
        assert a.same_as(again)

    def test_decisions_agree_with_the_rank_of_the_sum(self):
        # containment and equality take the rank rule that built both subspaces: b lies in a exactly when adding it
        # leaves the rank of the span as it is, so a line tilted by 1e-9 is a second direction, one tilted by
        # 1e-12 is not, and random tilts of 1e-14 to 1e-6 fall on both sides of the cut
        rng = np.random.default_rng(12)
        e1, e2 = np.eye(3)[:, :1], np.eye(3)[:, 1:2]
        draws = [(e1, e1 + 1e-9 * e2), (e1, e1 + 1e-12 * e2), (e1, 2.0 * e1), (e1, np.hstack([e1, e2]))]
        for _ in range(60):
            base = rng.normal(size=(5, int(rng.integers(1, 4))))
            draws.append((base, base + 10.0 ** rng.uniform(-14.0, -6.0) * rng.normal(size=base.shape)))
        seen = set()
        for u, v in draws:
            a, b = Subspace.from_spanning(u), Subspace.from_spanning(v)
            rank = a.sum(b).dim
            assert a.contains(b) == (rank == a.dim)
            assert a.same_as(b) == (rank == a.dim == b.dim)
            seen.add(a.same_as(b))
        assert seen == {False, True}
        a, b = Subspace.from_spanning(e1), Subspace.from_spanning(e1 + 1e-9 * e2)
        assert not a.contains(b) and not a.same_as(b) and a.sum(b).dim == 2


class TestMoebiusMap:
    def test_point_action_matches_matrix_action_on_projective_line(self):
        # oracle: act on homogeneous coordinates with the 2x2 matrix directly
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
            m = MoebiusMap(a, b, c, d)
            if not m.is_regular():
                continue
            z = complex(rng.normal(), rng.normal())
            hom = np.array([z, 1.0])
            out = np.array([[a, b], [c, d]]) @ hom
            want = INF if abs(out[1]) < 1e-14 else out[0] / out[1]
            assert chordal_distance(m(z), want) < 1e-10

    def test_compose_is_matrix_product(self):
        m1 = MoebiusMap(1.0, 2.0, 0.5, 1.0)
        m2 = MoebiusMap(0.0, -1.0, 1.0, 0.3)
        z = 0.7 + 0.2j
        assert chordal_distance(m1.compose(m2)(z), m1(m2(z))) < 1e-12

    def test_inverse(self):
        m = MoebiusMap(2.0, 1.0, 1.0, 1.0)
        z = 1.3 - 0.4j
        assert chordal_distance(m.inverse()(m(z)), z) < 1e-12

    @pytest.mark.parametrize("special, point, image", [
        (MoebiusMap(1.0, 0.0, 0.0, 1.0), 2.0 + 1.0j, 2.0 + 1.0j),
        (MoebiusMap.inversion(), 2.0, 0.5),
        (MoebiusMap.inversion(), 0.0, INF),
        (MoebiusMap.affine(2.0, 1.0), 3.0, 7.0),
        (MoebiusMap(0.0, 1.0, 1.0, -1.0), INF, 0.0),
    ])
    def test_special_maps(self, special, point, image):
        assert chordal_distance(special(point), image) < 1e-12


class TestLinearRelation:
    def test_graph_of_operator(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        rel = LinearRelation.from_operator(a)
        assert rel.is_operator()
        assert np.allclose(rel.operator_matrix(), a)
        assert rel.dom().dim == 2
        assert rel.mul().dim == 0

    def test_graph_columns_with_rank_deficiency(self):
        # duplicated columns collapse to a single graph direction
        x = np.array([[1.0, 2.0], [0.0, 0.0]])
        y = np.array([[1.0, 2.0], [0.0, 0.0]])
        rel = LinearRelation.from_graph_columns(x, y)
        assert rel.dim == 1

    def test_kernel_and_mul(self):
        # span{(e1; e1), (0; e2)}: kernel of (A - 1) is e1, mul is e2
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        rel = LinearRelation.from_graph_columns(x, y)
        assert rel.kernel(1.0).contains(Subspace.from_spanning(np.array([1.0, 0.0])))
        assert rel.kernel(1.0).dim == 1
        assert rel.mul().contains(Subspace.from_spanning(np.array([0.0, 1.0])))
        assert rel.kernel(INF).same_as(rel.mul())
        assert not rel.is_operator()
        with pytest.raises(NotBoundedError):
            rel.operator_matrix()

    def test_inverse_swaps_kernel_and_mul(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rel = random_relation(rng, 3)
            inv = rel.inverse()
            assert inv.kernel(0.0).same_as(rel.mul())
            assert inv.mul().same_as(rel.kernel(0.0))
            assert inv.dom().same_as(Subspace.from_spanning(rel.graph_columns()[1]))

    def test_moebius_identity_and_composition(self):
        rng = np.random.default_rng(4)
        rel = random_relation(rng, 4)
        assert rel.moebius(MoebiusMap(1.0, 0.0, 0.0, 1.0)).same_as(rel)
        m1 = MoebiusMap(1.0, 1.0, 0.0, 1.0)
        m2 = MoebiusMap(0.0, 1.0, 1.0, 0.0)
        lhs = rel.moebius(m1.compose(m2))
        rhs = rel.moebius(m2).moebius(m1)
        assert lhs.same_as(rhs)

    def test_moebius_on_operator_matches_matrix_arithmetic(self):
        # oracle: for phi(z) = (az + b)/(cz + d) and invertible cA + d the
        # image of graph(A) is the graph of (aA + b)(cA + d)^{-1}
        rng = np.random.default_rng(8)
        for _ in range(25):
            a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
            m = MoebiusMap(a, b, c, d)
            if abs(m.det()) < 0.1:
                continue
            mat = random_operator(rng, 3)
            bot = c * mat + d * np.eye(3)
            if np.linalg.cond(bot) > 1e3:
                continue
            want = (a * mat + b * np.eye(3)) @ np.linalg.inv(bot)
            got = LinearRelation.from_operator(mat).moebius(m)
            assert got.is_operator()
            assert np.allclose(got.operator_matrix(), want, atol=1e-8 * max(1, np.linalg.norm(want)))

    def test_shift_and_scale(self):
        a = np.diag([2.0, 5.0])
        rel = LinearRelation.from_operator(a)
        assert np.allclose(rel.moebius(MoebiusMap.affine(1.0, -1.0)).operator_matrix(), a - np.eye(2))
        assert np.allclose(rel.moebius(MoebiusMap.affine(3.0, 0.0)).operator_matrix(), 3 * a)

    def test_operator_sum_and_boxplus(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        ra = LinearRelation.from_operator(a)
        rb = LinearRelation.from_operator(b)
        assert np.allclose(ra.operator_sum(rb).operator_matrix(), a + b)
        assert ra.boxplus(rb).dim == 4

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(9)
        a = random_operator(rng, 3)
        b = random_operator(rng, 3)
        got = LinearRelation.from_operator(a).compose(LinearRelation.from_operator(b))
        assert np.allclose(got.operator_matrix(), a @ b)

    def test_adjoint_standard_gram_is_conjugate_transpose(self):
        rng = np.random.default_rng(10)
        a = random_operator(rng, 4)
        rel = LinearRelation.from_operator(a)
        adj = rel.adjoint(np.eye(4))
        assert np.allclose(adj.operator_matrix(), a.conj().T)

    def test_adjoint_golden_indefinite_gram(self):
        # [DERIVED] by hand: G = diag(1,-1), B = e1 e2^T, B^+ = G^{-1} B^* G
        g = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        adj = LinearRelation.from_operator(b).adjoint(g)
        assert np.allclose(adj.operator_matrix(), np.array([[0.0, 0.0], [-1.0, 0.0]]))

    def test_adjoint_is_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            rel = random_relation(rng, n)
            g = random_invertible(rng, n)
            g = g @ g.conj().T + 0.1 * np.eye(n)  # Hermitian, invertible
            assert rel.adjoint(g).adjoint(g).same_as(rel)

    def test_adjoint_basis_is_orthonormal_and_spans_the_flipped_complement(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            rel = random_relation(rng, n)
            g = random_gram(rng, n)
            adj = rel.adjoint(g)
            basis = adj.graph.basis
            assert np.allclose(basis.conj().T @ basis, np.eye(adj.dim), atol=1e-12)
            big = np.kron(np.eye(2), g)
            comp = null_space((big @ rel.graph.basis).conj().T)
            spanned = Subspace.from_spanning(np.vstack([comp[n:], -comp[:n]]))
            assert adj.dim == spanned.dim and adj.graph.same_as(spanned)
            # [y, u] = [x, v] for (x; y) in rel and (u; v) in the adjoint
            x, y = rel.graph_columns()
            u, v = adj.graph_columns()
            assert np.allclose(u.conj().T @ g @ y, v.conj().T @ g @ x, atol=1e-10)

    def test_adjoint_reverses_containment(self):
        x = np.array([[1.0], [0.0]])
        y = np.array([[1.0], [0.0]])
        small = LinearRelation.from_graph_columns(x, y)
        big = LinearRelation.from_operator(np.eye(2))
        g = np.diag([1.0, -1.0])
        assert big.contains(small)
        assert small.adjoint(g).contains(big.adjoint(g))

    def test_is_self_adjoint_agrees_with_the_adjoint(self):
        rng = np.random.default_rng(14)
        for trial in range(12):
            planted = random_definitizable(rng, allow_mul=(trial % 3 == 0))
            g, rel = planted.space.gram, planted.relation
            x, y = rel.graph_columns()
            n = rel.space_dim
            bump = rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape)
            perturbed = LinearRelation.from_graph_columns(x, y + 1e-3 * bump)
            wrong_dim = int(rng.choice([k for k in range(1, 2 * n + 1) if k != n]))
            nonproper = random_relation(rng, n, graph_dim=wrong_dim)
            for case, expected in ((rel, True), (perturbed, False), (nonproper, False)):
                assert case.is_self_adjoint(g) == case.adjoint(g).same_as(case) == expected
            assert rel.self_adjoint_residual(g) < 1e-12
            assert nonproper.self_adjoint_residual(g) == np.inf

    def test_nonproper_relation(self):
        # one graph vector shared between X and Y columns makes dim < n
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        rel = LinearRelation.from_graph_columns(x, y)
        assert rel.dim == 1
        assert not rel.is_proper

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LinearRelation.from_graph_columns(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        mat = np.eye(3)
        mat[1, 2] = bad
        with pytest.raises(ValidationError):
            LinearRelation.from_operator(mat)
        with pytest.raises(ValidationError):
            LinearRelation.from_graph_columns(np.eye(3), mat)
        with pytest.raises(ValidationError):
            LinearRelation.from_graph_columns(mat, np.eye(3))


class TestStableSvd:
    @staticmethod
    def failing_once(monkeypatch, times=1):
        real = np.linalg.svd
        left = [times]

        def svd(*args, **kwargs):
            if left[0] > 0:
                left[0] -= 1
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
    @pytest.mark.parametrize("full", [False, True])
    def test_retry_on_the_r_factor_matches_the_direct_svd(self, monkeypatch, shape, full):
        rng = np.random.default_rng(17)
        mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mat[:, -1] = mat[:, 0]  # rank deficient
        want_u, want_s, want_vh = np.linalg.svd(mat, full_matrices=full)
        self.failing_once(monkeypatch)
        u, s, vh = stable_svd(mat, full_matrices=full)
        assert u.shape == want_u.shape and vh.shape == want_vh.shape
        assert np.allclose(s, want_s, atol=1e-12)
        k = s.size
        assert np.allclose(u[:, :k] @ np.diag(s) @ vh[:k], mat, atol=1e-12)
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
        assert np.allclose(vh @ vh.conj().T, np.eye(vh.shape[0]), atol=1e-12)

    def test_retry_without_vectors(self, monkeypatch):
        mat = np.arange(12.0).reshape(3, 4) + 1j
        want = np.linalg.svd(mat, compute_uv=False)
        self.failing_once(monkeypatch)
        assert np.allclose(stable_svd(mat, compute_uv=False), want, atol=1e-12)

    def test_null_space_survives_one_failure(self, monkeypatch):
        mat = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        self.failing_once(monkeypatch)
        basis = null_space(mat)
        assert basis.shape == (3, 2)
        assert np.allclose(mat @ basis, 0.0, atol=1e-12)

    def test_second_failure_is_typed(self, monkeypatch):
        self.failing_once(monkeypatch, times=2)
        with pytest.raises(InconsistencyError):
            stable_svd(np.eye(3))

    def test_failure_on_non_finite_input_is_a_validation_error(self, monkeypatch):
        self.failing_once(monkeypatch)
        with pytest.raises(ValidationError):
            stable_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_subspace_primitives_on_empty_input():
    # numpy's SVD of an empty matrix gives empty factors, and an identity vh for a 0 x k one
    cols = orthonormal_columns(np.zeros((3, 0)))
    assert cols.shape == (3, 0) and cols.dtype == complex
    assert null_space(np.zeros((3, 0))).shape == (0, 0)
    assert np.array_equal(null_space(np.zeros((0, 2))), np.eye(2))


def test_diagonal_image_and_preimage():
    rng = np.random.default_rng(13)
    t = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    a = random_operator(rng, 3)
    rel = LinearRelation.from_operator(a)
    img = diagonal_image(t, rel)
    for j in range(3):
        col = np.concatenate([t @ np.eye(3)[:, j], t @ a[:, j]])
        assert img.graph.contains(Subspace.from_spanning(col))
    back = diagonal_preimage(t, img)
    assert back.contains(rel)


class TestFrobenius:
    def test_equals_numpy_norm_bit_for_bit(self):
        # the same two dot products on the raveled array: equal, not merely close
        rng = np.random.default_rng(111)
        for trial in range(200):
            scale = 10.0 ** rng.uniform(-150, 150)
            z = scale * (rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7)))
            arrays = [z, z.real, z.T, z.real.T, np.asfortranarray(z), z[::2, 1::3], z.real[::-1, ::2],
                      z.ravel(), z.real.ravel(), z[0], z[:, 0], z[:, :0], np.zeros((0, 3), dtype=complex),
                      np.zeros(0), np.zeros((4, 4)), -np.zeros((2, 2), dtype=complex)]
            for a in arrays:
                got, want = frobenius(a), float(np.linalg.norm(a))
                assert type(got) is float
                assert got == want, (trial, a.shape, a.dtype, a.strides)

    def test_squares_that_overflow_are_scaled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a in (np.full((2, 2), 1e300), np.array([3e300j, -4e300]), np.array([[1.5e308, 1e-300]])):
                assert frobenius(a) == pytest.approx(1e300 * np.linalg.norm(a / 1e300), rel=1e-15)
            assert frobenius(np.full(4, 1e308)) == math.inf  # the norm itself passes the float range
            assert frobenius(np.array([np.inf, 1.0])) == math.inf
            assert math.isnan(frobenius(np.array([np.nan, 1e300])))
