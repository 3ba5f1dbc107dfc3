"""Linear relations on C^n as subspaces of C^n x C^n.

A relation is the column span of a stacked basis (X; Y); operators are the
special case where the graph is {(x; Mx)}.  Möbius matrices act on graphs by
the block map (x; y) -> (d x + c y; b x + a y) and on spectral points by
z -> (a z + b)/(c z + d), so composing matrices composes transforms and the
usual special cases (shift, inversion, resolvent) come out right.

The point at infinity is a first-class spectral point throughout; it is
modelled by the singleton ``INF``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InconsistencyError, NotBoundedError, SingularMoebiusError, ValidationError
from .tolerances import CONTAINMENT_TOL, HERMITIAN_TOL, MOEBIUS_DET_TOL, RANK_TOL, SUBSPACE_EQ_TOL


class _Infinity:
    """The point at infinity of the extended complex plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __hash__(self) -> int:
        return hash("extended-complex-infinity")

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def conjugate(self) -> "_Infinity":
        return self


INF = _Infinity()

#: A spectral point: a finite complex number or INF.
Point = "complex | _Infinity"


def is_inf(p) -> bool:
    return isinstance(p, _Infinity)


def as_point(p):
    """Normalize to a Point; non-finite floats map to INF."""
    if is_inf(p):
        return INF
    z = complex(p)
    if math.isinf(z.real) or math.isinf(z.imag):
        return INF
    if math.isnan(z.real) or math.isnan(z.imag):
        raise ValidationError("NaN is not a spectral point")
    return z


def chordal_distance(p, q) -> float:
    """Metric on the extended plane: |p-q| / sqrt((1+|p|^2)(1+|q|^2))."""
    p, q = as_point(p), as_point(q)
    if is_inf(p) and is_inf(q):
        return 0.0
    if is_inf(p):
        return 1.0 / math.sqrt(1.0 + abs(q) ** 2)
    if is_inf(q):
        return 1.0 / math.sqrt(1.0 + abs(p) ** 2)
    return abs(p - q) / math.sqrt((1.0 + abs(p) ** 2) * (1.0 + abs(q) ** 2))


def point_sort_key(p):
    """Deterministic ordering: finite points by (re, im), infinity last."""
    if is_inf(p):
        return (1, 0.0, 0.0)
    z = complex(p)
    return (0, z.real, z.imag)


# -- numerical subspace primitives ----------------------------------------


def _sv_cutoff(values: np.ndarray, rank_tol: float) -> float:
    """Rank cut of nonnegative values, singular values or eigenvalue moduli: rank_tol times the largest, floored at 1."""
    top = float(values.max()) if values.size else 0.0
    return rank_tol * max(top, 1.0)


def require_finite(values, name: str) -> None:
    """Reject NaN and infinite entries; numpy's LAPACK calls do not check."""
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} must be finite")


def frobenius(mat: np.ndarray) -> float:
    """float(np.linalg.norm(mat)) bit for bit: its dot products on the raveled array, without its dispatch.

    Where the sum of squares overflows on finite entries, the norm is that of mat over its largest modulus,
    scaled back, so it is infinite only when it passes the float range."""
    x = mat.ravel(order="K")
    re, im = x.real, x.imag  # a real x has im = 0, and adding 0.0 leaves its x.dot(x) as it is
    with np.errstate(over="ignore"):
        total = re.dot(re) + im.dot(im)
        if total == math.inf:
            scale = float(np.abs(x).max())
            if scale < math.inf:
                return scale * frobenius(x / scale)
    return math.sqrt(total)


def hermitian_residual(mat: np.ndarray) -> float:
    """||M - M*|| / max(1, ||M||): how far a square matrix is from Hermitian."""
    return frobenius(mat - mat.conj().T) / max(1.0, frobenius(mat))


def stable_svd(mat: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """``np.linalg.svd`` that retries on the R factor of a QR when LAPACK fails.

    The retry factors the tall orientation (``mat`` or its adjoint) as Q R and
    takes the SVD of the square triangle R, whose singular values are those of
    ``mat``; a second failure is a typed InconsistencyError.
    """
    try:
        return np.linalg.svd(mat, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        require_finite(mat, "matrix")
    wide = mat.shape[0] < mat.shape[1]
    tall = mat.conj().T if wide else mat
    k = tall.shape[1]
    q, r = np.linalg.qr(tall, mode="complete" if full_matrices else "reduced")
    try:
        res = np.linalg.svd(r[:k], compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise InconsistencyError("SVD did not converge, not even on the R factor of a QR") from exc
    if not compute_uv:
        return res
    u_r, s, vh = res
    u = q[:, :k] @ u_r
    if full_matrices:
        u = np.hstack([u, q[:, k:]])
    if wide:  # mat = tall^H = vh^H diag(s) u^H
        return vh.conj().T, s, u.conj().T
    return u, s, vh


def orthonormal_columns(mat: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column span, rank decided by singular values."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError("expected a matrix of column vectors")
    n, k = mat.shape
    if k == 0:
        return np.zeros((n, 0), dtype=complex)
    u, s, _ = stable_svd(mat)
    rank = int((s > _sv_cutoff(s, rank_tol)).sum())
    return u[:, :rank]


def null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel, same rank rule as orthonormal_columns."""
    mat = np.asarray(mat, dtype=complex)
    n, k = mat.shape
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    if n == 0:
        return np.eye(k, dtype=complex)
    _, s, vh = stable_svd(mat, full_matrices=True)
    rank = int((s > _sv_cutoff(s, RANK_TOL)).sum())
    return vh[rank:, :].conj().T


_UNBOUNDED = "relation is not an everywhere-defined operator"


def _quotients(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """num den^{-1}, one LU per matrix of a stack, and whether each quotient is bounded."""
    try:
        out = np.swapaxes(np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2)), -1, -2)
    except np.linalg.LinAlgError:
        if den.ndim == 2:
            out = np.full(den.shape, np.nan, dtype=complex)
        else:
            # one exactly singular matrix fails the whole stack: take the matrices one at a time
            out = np.stack([_quotients(a, b)[0] for a, b in zip(np.broadcast_to(num, den.shape), den)])
    # the graph of a matrix R has a rank-deficient domain block, at RANK_TOL,
    # once ||R|| reaches about 1 / RANK_TOL
    finite = np.all(np.isfinite(out), axis=(-2, -1))
    norms = np.linalg.norm(np.where(finite[..., None, None], out, 0.0), axis=(-2, -1))
    return out, finite & (norms * RANK_TOL < 1.0)


def _bounded_quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num den^{-1}; NotBoundedError unless it is bounded."""
    out, bounded = _quotients(num, den)
    if not bounded.all():
        raise NotBoundedError(_UNBOUNDED)
    return out


class Subspace:
    """Subspace of C^n held as an orthonormal column basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, basis: np.ndarray, ambient_dim: int | None = None):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2:
            raise ValidationError("subspace basis must be a matrix")
        self.ambient_dim = basis.shape[0] if ambient_dim is None else int(ambient_dim)
        if basis.shape[0] != self.ambient_dim:
            raise ValidationError("basis rows do not match the ambient dimension")
        self.basis = basis

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int | None = None) -> "Subspace":
        mat = np.asarray(vectors, dtype=complex)
        if mat.ndim == 1:
            mat = mat.reshape(-1, 1)
        return cls(orthonormal_columns(mat), ambient_dim if ambient_dim is not None else mat.shape[0])

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def contains(self, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        resid = other.basis - self.basis @ (self.basis.conj().T @ other.basis)
        return frobenius(resid) <= CONTAINMENT_TOL * max(1.0, math.sqrt(other.dim))

    def same_as(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            return False
        return frobenius(self.projector() - other.projector()) <= SUBSPACE_EQ_TOL

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValidationError("subspace sum needs a common ambient space")
        return Subspace.from_spanning(np.hstack([self.basis, other.basis]), self.ambient_dim)

    def image(self, mat: np.ndarray) -> "Subspace":
        mat = np.asarray(mat, dtype=complex)
        if mat.shape[1] != self.ambient_dim:
            raise ValidationError("matrix does not act on this space")
        return Subspace.from_spanning(mat @ self.basis, mat.shape[0])

    def preimage(self, mat: np.ndarray) -> "Subspace":
        """{v : mat v in self}, the kernel of (I - P) mat."""
        mat = np.asarray(mat, dtype=complex)
        if mat.shape[0] != self.ambient_dim:
            raise ValidationError("matrix does not map into this space")
        resid = mat - self.basis @ (self.basis.conj().T @ mat)
        return Subspace(null_space(resid), mat.shape[1])

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim})"


# -- Möbius matrices -------------------------------------------------------


class MoebiusMap:
    """2x2 matrix [[a, b], [c, d]] acting as z -> (a z + b)/(c z + d)."""

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        self.a, self.b, self.c, self.d = a, b, c, d

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def is_regular(self) -> bool:
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), 1.0)
        return abs(self.det()) > MOEBIUS_DET_TOL * scale * scale

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def compose(self, inner: "MoebiusMap") -> "MoebiusMap":
        """The map applying ``inner`` first; matrix product self @ inner."""
        m = self.matrix() @ inner.matrix()
        return MoebiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    def inverse(self) -> "MoebiusMap":
        if not self.is_regular():
            raise SingularMoebiusError("cannot invert a singular Möbius matrix")
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __call__(self, z):
        z = as_point(z)
        if is_inf(z):
            if self.c == 0:
                return INF
            return complex(self.a / self.c)
        den = self.c * z + self.d
        num = self.a * z + self.b
        if abs(den) == 0.0:
            return INF
        return complex(num / den)

    def block_map(self, n: int) -> np.ndarray:
        """Action on stacked graph vectors: (x; y) -> (d x + c y; b x + a y)."""
        eye = np.eye(n, dtype=complex)
        return np.block([[self.d * eye, self.c * eye], [self.b * eye, self.a * eye]])

    @classmethod
    def inversion(cls) -> "MoebiusMap":
        return cls(0.0, 1.0, 1.0, 0.0)

    @classmethod
    def affine(cls, scale: complex, shift: complex) -> "MoebiusMap":
        """z -> scale * z + shift."""
        return cls(scale, shift, 0.0, 1.0)


# -- linear relations ------------------------------------------------------


class LinearRelation:
    """A linear relation on C^n: a subspace of C^n x C^n."""

    __slots__ = ("space_dim", "graph")

    def __init__(self, space_dim: int, graph: Subspace):
        space_dim = int(space_dim)
        if graph.ambient_dim != 2 * space_dim:
            raise ValidationError("graph must live in the doubled space")
        self.space_dim = space_dim
        self.graph = graph

    @classmethod
    def from_operator(cls, mat: np.ndarray) -> "LinearRelation":
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("operator matrix must be square")
        require_finite(mat, "operator matrix")
        n = mat.shape[0]
        stacked = np.vstack([np.eye(n, dtype=complex), mat])
        return cls(n, Subspace.from_spanning(stacked, 2 * n))

    @classmethod
    def from_graph_columns(cls, x: np.ndarray, y: np.ndarray, rank_tol: float = RANK_TOL) -> "LinearRelation":
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        if x.shape != y.shape or x.ndim != 2:
            raise ValidationError("graph columns need matching n x k shapes")
        require_finite(x, "graph column block X")
        require_finite(y, "graph column block Y")
        return cls(x.shape[0], Subspace(orthonormal_columns(np.vstack([x, y]), rank_tol), 2 * x.shape[0]))

    def graph_columns(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.space_dim
        return self.graph.basis[:n, :], self.graph.basis[n:, :]

    @property
    def dim(self) -> int:
        return self.graph.dim

    @property
    def is_proper(self) -> bool:
        """Graph dimension equals the space dimension."""
        return self.dim == self.space_dim

    def dom(self) -> Subspace:
        x, _ = self.graph_columns()
        return Subspace.from_spanning(x, self.space_dim)

    def kernel(self, lam) -> Subspace:
        """ker(A - lam) = {x : (x; lam x) in A}; lam = INF gives mul A."""
        lam = as_point(lam)
        n = self.space_dim
        eye = np.eye(n, dtype=complex)
        if is_inf(lam):
            stack = np.vstack([np.zeros((n, n), dtype=complex), eye])
        else:
            stack = np.vstack([eye, lam * eye])
        pre = self.graph.preimage(stack)
        return Subspace(pre.basis, n)

    def mul(self) -> Subspace:
        return self.kernel(INF)

    def is_operator(self) -> bool:
        return self.mul().dim == 0

    def moebius(self, moebius: MoebiusMap) -> "LinearRelation":
        block = moebius.block_map(self.space_dim)
        return LinearRelation(self.space_dim, self.graph.image(block))

    def inverse(self) -> "LinearRelation":
        return self.moebius(MoebiusMap.inversion())

    def operator_matrix(self) -> np.ndarray:
        """Matrix Y X^{-1} of an everywhere-defined single-valued relation with graph basis (X; Y)."""
        if self.dim != self.space_dim:
            raise NotBoundedError("graph dimension does not match the space")
        x, y = self.graph_columns()
        return _bounded_quotient(y, x)

    def boxplus(self, other: "LinearRelation") -> "LinearRelation":
        """Linear span of the two graphs inside the doubled space."""
        if other.space_dim != self.space_dim:
            raise ValidationError("relations live on different spaces")
        return LinearRelation(self.space_dim, self.graph.sum(other.graph))

    def operator_sum(self, other: "LinearRelation") -> "LinearRelation":
        """{(x; y1 + y2) : (x; y1) in self, (x; y2) in other}."""
        if other.space_dim != self.space_dim:
            raise ValidationError("relations live on different spaces")
        x1, y1 = self.graph_columns()
        x2, y2 = other.graph_columns()
        k1 = x1.shape[1]
        coeffs = null_space(np.hstack([x1, -x2]))
        c1, c2 = coeffs[:k1, :], coeffs[k1:, :]
        return LinearRelation.from_graph_columns(x1 @ c1, y1 @ c1 + y2 @ c2)

    def compose(self, other: "LinearRelation") -> "LinearRelation":
        """self after other: {(x; z) : (x; y) in other, (y; z) in self}."""
        if other.space_dim != self.space_dim:
            raise ValidationError("relations live on different spaces")
        x1, y1 = self.graph_columns()
        x2, y2 = other.graph_columns()
        k2 = x2.shape[1]
        coeffs = null_space(np.hstack([y2, -x1]))
        c2, c1 = coeffs[:k2, :], coeffs[k2:, :]
        return LinearRelation.from_graph_columns(x2 @ c2, y1 @ c1)

    def adjoint(self, gram: np.ndarray) -> "LinearRelation":
        """Adjoint with respect to [x, y] = y* G x on the space.

        Computed as the inner-product orthogonal complement of the graph in
        the doubled space followed by the flip (x; y) -> (y; -x).  The flip
        is unitary, so the flipped kernel basis is already orthonormal.
        """
        n = self.space_dim
        gram = np.asarray(gram, dtype=complex)
        if gram.shape != (n, n):
            raise ValidationError("Gram matrix does not match the space")
        big = np.block(
            [
                [gram, np.zeros((n, n), dtype=complex)],
                [np.zeros((n, n), dtype=complex), gram],
            ]
        )
        comp = null_space((big @ self.graph.basis).conj().T)
        flipped = np.vstack([comp[n:, :], -comp[:n, :]])
        return LinearRelation(n, Subspace(flipped, 2 * n))

    def self_adjoint_residual(self, gram: np.ndarray) -> float:
        """hermitian_residual of X* G Y for the graph basis (X; Y); infinite unless proper.

        A is symmetric in [x, y] = y* G x when [y1, x2] = [x1, y2] on its
        graph, that is when X* G Y is Hermitian, and dim A+ = 2n - dim A makes
        a symmetric proper relation self-adjoint.
        """
        n = self.space_dim
        if np.shape(gram) != (n, n):
            raise ValidationError("Gram matrix does not match the space")
        if not self.is_proper:
            return math.inf
        x, y = self.graph_columns()
        return hermitian_residual(x.conj().T @ gram @ y)

    def is_self_adjoint(self, gram: np.ndarray) -> bool:
        """A = A+ in the Krein space with Gram matrix G."""
        return self.self_adjoint_residual(gram) <= HERMITIAN_TOL

    def contains(self, other: "LinearRelation") -> bool:
        return self.graph.contains(other.graph)

    def same_as(self, other: "LinearRelation") -> bool:
        return self.space_dim == other.space_dim and self.graph.same_as(other.graph)

    def __repr__(self) -> str:
        return f"LinearRelation(n={self.space_dim}, graph_dim={self.dim})"


def diagonal_image(mat: np.ndarray, rel: LinearRelation) -> LinearRelation:
    """(T x T)(B) = {(T u; T v) : (u; v) in B}; T may change the dimension."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[1] != rel.space_dim:
        raise ValidationError("matrix does not act on the relation's space")
    x, y = rel.graph_columns()
    return LinearRelation.from_graph_columns(mat @ x, mat @ y)


def diagonal_preimage(mat: np.ndarray, rel: LinearRelation) -> LinearRelation:
    """(T x T)^{-1}(A) = {(u; v) : (T u; T v) in A}."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[0] != rel.space_dim:
        raise ValidationError("matrix does not map into the relation's space")
    m = mat.shape[1]
    block = np.block(
        [
            [mat, np.zeros_like(mat)],
            [np.zeros_like(mat), mat],
        ]
    )
    pre = rel.graph.preimage(block)
    return LinearRelation(m, Subspace(pre.basis, 2 * m))
