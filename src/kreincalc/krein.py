"""Krein-space structure: definitizability, Gram factorization, transport.

A Krein space here is C^n with an invertible Hermitian Gram matrix G and
inner product [x, y] = y* G x.  A self-adjoint relation A is definitizable
when some rational q with poles in the resolvent set makes [q(A)x, x] >= 0;
the Hermitian positive semidefinite matrix H = G q(A) then factors as
q(A) = T T^+ through a Hilbert space C^r.  ran T = ran q(A) is invariant
under the resolvent R of A at a real point mu, so R T = T X for one r x r
matrix X, the compressed resolvent.  X is Hermitian: it is the resolvent at
mu of the genuinely self-adjoint relation theta(A) on C^r, and its
eigendecomposition is the spectral measure that drives the calculus.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistencyError,
    NotInCommutantError,
    NotPositiveError,
    NotRealError,
    NotSelfAdjointError,
    PreconditionError,
    ValidationError,
)
from .rational import RationalFunction, _cluster_members
from .relations import (
    INF,
    LinearRelation,
    as_point,
    hermitian_residual,
    is_inf,
    require_finite,
)
from .spectral import SpectrumReport, rational_apply, resolvent_at, spectrum
from .tolerances import (ATOM_MATCH_TOL, COMMUTANT_TOL, FACTOR_TOL, HERMITIAN_TOL, IDENTITY_TOL, MEASURE_TOL,
                         POINT_MATCH_TOL, PSD_CUTOFF, PSD_TOL, RANK_TOL, REALNESS_TOL, SPECTRUM_CLUSTER_TOL)


class GramSpace:
    """C^n with an invertible Hermitian Gram matrix."""

    __slots__ = ("gram", "_abs_cache")

    def __init__(self, gram: np.ndarray):
        gram = np.asarray(gram, dtype=complex)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValidationError("Gram matrix must be square")
        require_finite(gram, "Gram matrix")
        if hermitian_residual(gram) > HERMITIAN_TOL:
            raise ValidationError("Gram matrix must be Hermitian")
        gram = (gram + gram.conj().T) / 2.0
        if gram.shape[0] > 0:
            w = np.linalg.eigvalsh(gram)
            if float(np.min(np.abs(w))) <= RANK_TOL * max(1.0, float(np.max(np.abs(w)))):
                raise ValidationError("Gram matrix must be invertible")
        self.gram = gram
        self._abs_cache = None

    @classmethod
    def standard(cls, n: int) -> "GramSpace":
        return cls(np.eye(n, dtype=complex))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def inner(self, x, y) -> complex:
        """[x, y] = y* G x."""
        x = np.asarray(x, dtype=complex).ravel()
        y = np.asarray(y, dtype=complex).ravel()
        return complex(y.conj() @ (self.gram @ x))

    def adjoint_of(self, mat: np.ndarray) -> np.ndarray:
        """Adjoint of an operator matrix: G^{-1} B* G."""
        mat = np.asarray(mat, dtype=complex)
        return np.linalg.solve(self.gram, mat.conj().T @ self.gram)

    def is_positive(self, mat: np.ndarray, tol: float = PSD_TOL, eigvals: np.ndarray | None = None) -> bool:
        """[Bx, x] >= 0 for all x, i.e. G B is Hermitian positive semidefinite.

        ``eigvals``, when given, are the eigenvalues of the Hermitian part of
        G B, already computed by the caller.
        """
        h = self.gram @ np.asarray(mat, dtype=complex)
        if hermitian_residual(h) > tol:
            return False
        if h.shape[0] == 0:
            return True
        w = np.linalg.eigvalsh((h + h.conj().T) / 2.0) if eigvals is None else eigvals
        # floor the scale so a numerically vanishing matrix counts as psd
        return bool(np.min(w) >= -tol * max(float(np.linalg.norm(h)), 1.0))

    def _abs_parts(self):
        if self._abs_cache is None:
            w, u = np.linalg.eigh(self.gram)
            sq = u @ np.diag(np.sqrt(np.abs(w))) @ u.conj().T
            isq = u @ np.diag(1.0 / np.sqrt(np.abs(w))) @ u.conj().T
            self._abs_cache = (sq, isq)
        return self._abs_cache

    def hilbert_norm(self, mat: np.ndarray) -> float:
        """Operator norm w.r.t. the compatible product (x, y) = y* |G| x."""
        sq, isq = self._abs_parts()
        return float(np.linalg.norm(sq @ np.asarray(mat, dtype=complex) @ isq, 2))


def map_adjoint(mat: np.ndarray, domain: GramSpace, codomain: GramSpace) -> np.ndarray:
    """Adjoint of T: domain -> codomain, i.e. G_dom^{-1} T* G_cod."""
    mat = np.asarray(mat, dtype=complex)
    return np.linalg.solve(domain.gram, mat.conj().T @ codomain.gram)


@dataclass(frozen=True, eq=False)
class DefinitizablePair:
    """A self-adjoint relation together with a verified definitizing function."""

    space: GramSpace
    relation: LinearRelation
    q: RationalFunction
    q_matrix: np.ndarray
    report: SpectrumReport
    points: tuple[object, ...]
    degrees: dict
    diagnostics: dict = field(default_factory=dict)
    # eigh of the Hermitian part of G q(A): (eigenvalues, eigenvectors)
    psd_eig: tuple = field(default=None, repr=False)
    # calculus plans by base point, built and read by jetcalc
    _calculus_plans: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def critical_points(self) -> tuple[object, ...]:
        return tuple(w for w in self.points if self.degrees[w] > 0)

    def resolve(self, z, tol: float = POINT_MATCH_TOL):
        """Match z against the canonical spectral points."""
        return self.points[self._match([z], tol)[0]]

    @functools.cached_property
    def _point_array(self) -> tuple[np.ndarray, np.ndarray]:
        """The points as a complex array (0 at infinity) and the mask of the finite ones."""
        finite = np.array([not is_inf(w) for w in self.points], dtype=bool)
        values = np.array([complex(w) if f else 0.0 for w, f in zip(self.points, finite)], dtype=complex)
        return values, finite

    def _match(self, labels, tol: float) -> np.ndarray:
        """Index into points of each label.

        A finite label takes the nearest finite point (the first on ties) when
        it lies within tol; infinity matches only infinity.
        """
        labels = [as_point(z) for z in labels]
        if not labels:
            return np.zeros(0, dtype=int)
        values, finite = self._point_array
        at_inf = np.array([is_inf(z) for z in labels], dtype=bool)
        coords = np.array([0.0 if inf else z for z, inf in zip(labels, at_inf)], dtype=complex)
        # a label is compared only with points of its own kind, finite or infinite
        dist = np.where(at_inf[:, None] == finite, np.inf, np.abs(coords[:, None] - values))
        missed = ~(dist.min(axis=1, initial=np.inf) <= tol)
        if missed.any():
            z = labels[int(np.argmax(missed))]
            if is_inf(z):
                raise ValidationError("infinity is not a spectral point of this pair")
            raise ValidationError(f"{z} does not match any spectral point")
        return dist.argmin(axis=1)


def _is_real_point(w) -> bool:
    """Infinity, or a point whose imaginary part is below REALNESS_TOL (relative)."""
    return is_inf(w) or abs(complex(w).imag) <= REALNESS_TOL * max(1.0, abs(complex(w)))


def verify_definitizing(
    space: GramSpace,
    rel: LinearRelation,
    q: RationalFunction,
    psd_tol: float = PSD_TOL,
) -> DefinitizablePair:
    """Check all definitizability requirements and assemble the pair.

    Self-adjointness is decided by LinearRelation.is_self_adjoint, from the
    Krein form X* G Y of the graph basis; no adjoint relation is built.
    Raises the specific precondition error on failure; a violation of the
    proved spectral inclusion (with all preconditions passing) is reported as
    an inconsistency.  Diagnostics: self_adjoint_residual (of X* G Y),
    hermitian_residual (of G q(A)) and psd_margin.
    """
    if space.dim != rel.space_dim:
        raise ValidationError("relation and Gram space dimensions differ")
    if q.is_zero:
        raise ValidationError("the zero function cannot serve as q")
    if not q.is_real():
        raise NotRealError("q must be a real rational function")
    report = spectrum(rel)
    if report.is_full_sphere:
        raise PreconditionError("relation has empty resolvent set")
    if not rel.is_self_adjoint(space.gram):
        raise NotSelfAdjointError("relation is not self-adjoint in this Krein space")
    q_matrix = rational_apply(q, rel, report)  # raises when a pole meets the spectrum
    hermitian_part = space.gram @ q_matrix
    psd_eig = np.linalg.eigh((hermitian_part + hermitian_part.conj().T) / 2.0)
    if not space.is_positive(q_matrix, psd_tol, eigvals=psd_eig[0]):
        raise NotPositiveError("[q(A)x, x] takes negative values")
    points = tuple(w for w, _ in report.points)
    degrees = dict(zip(points, q._zero_degrees(points)))
    for w, d in degrees.items():
        if not _is_real_point(w) and d == 0:
            raise InconsistencyError(
                f"spectral point {w} is neither real nor a zero of q; the "
                "definitizability conclusion fails, input tolerances are suspect"
            )
    crit = [w for w in points if degrees[w] > 0 and not is_inf(w)]
    for w in crit:
        if all(abs(complex(w).conjugate() - complex(v)) > POINT_MATCH_TOL for v in crit):
            raise InconsistencyError(
                "critical spectrum is not symmetric under conjugation"
            )
    kept = psd_eig[0][_psd_kept(psd_eig[0])]
    diagnostics = {
        "self_adjoint_residual": rel.self_adjoint_residual(space.gram),
        "hermitian_residual": hermitian_residual(hermitian_part),
        "psd_margin": float(np.min(kept)) if kept.size else 0.0,
    }
    return DefinitizablePair(
        space=space,
        relation=rel,
        q=q,
        q_matrix=q_matrix,
        report=report,
        points=points,
        degrees=degrees,
        diagnostics=diagnostics,
        psd_eig=tuple(psd_eig),
    )


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Atoms (point, orthogonal projector) of a self-adjoint relation on C^r."""

    dim: int
    atoms: tuple[tuple[object, np.ndarray], ...]

    def integrate(self, values: dict) -> np.ndarray:
        """Sum of values[point] * projector over all atoms (including infinity)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for p, proj in self.atoms:
            out += complex(values[p]) * proj
        return out

    def total(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for _, proj in self.atoms:
            out += proj
        return out


def _resolvent_point(report: SpectrumReport) -> float:
    """A real point at distance at least 1 from the finite spectrum."""
    return 1.0 + max((abs(complex(w)) for w, _ in report.points if not is_inf(w)), default=0.0)


def _pull_back(factor: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The Y with M T = T Y, for T of full column rank whose range M leaves invariant.

    Y is the least-squares solution; a residual ||M T - T Y|| above
    IDENTITY_TOL * max(1, ||M T||) means ran T is not invariant under M.
    """
    image = mat @ factor
    out, *_ = np.linalg.lstsq(factor, image, rcond=None)
    resid = float(np.linalg.norm(image - factor @ out))
    if resid > IDENTITY_TOL * max(1.0, float(np.linalg.norm(image))):
        raise InconsistencyError("range of the factor is not invariant under the operator")
    return out


def _measure_from_resolvent(res: np.ndarray, mu: float) -> SpectralMeasure:
    """Spectral measure of the relation on C^r whose resolvent at the real point mu is res.

    The relation is self-adjoint exactly when res is Hermitian.  An eigenvalue
    x != 0 of res is the spectral point mu + 1/x, and ker res is the
    multivalued part, the atom at infinity.
    """
    r = res.shape[0]
    if hermitian_residual(res) > IDENTITY_TOL:
        raise NotSelfAdjointError("relation is not self-adjoint on the Hilbert space")
    res = (res + res.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(res)
    at_inf = np.abs(eigvals) <= RANK_TOL * max(1.0, float(np.max(np.abs(eigvals))))
    finite = np.flatnonzero(~at_inf)
    atoms: list[tuple[object, np.ndarray]] = []
    for center, idx in _cluster_members(mu + 1.0 / eigvals[finite], SPECTRUM_CLUSTER_TOL):
        vecs = eigvecs[:, finite[idx]]
        atoms.append((center, vecs @ vecs.conj().T))
    if at_inf.any():
        vecs = eigvecs[:, at_inf]
        atoms.append((INF, vecs @ vecs.conj().T))
    measure = SpectralMeasure(r, tuple(atoms))
    eye = np.eye(r, dtype=complex)
    if float(np.linalg.norm(measure.total() - eye)) > MEASURE_TOL * max(1.0, float(np.sqrt(r))):
        raise InconsistencyError("spectral projectors do not sum to the identity")
    probe = 0.2131 + 1.3703j
    recon = np.zeros((r, r), dtype=complex)
    for p, proj in measure.atoms:
        if not is_inf(p):
            recon += proj / (complex(p) - probe)
    # the resolvent at the probe, res (I + (mu - probe) res)^{-1}
    resid = float(np.linalg.norm(recon - np.linalg.solve(eye + (mu - probe) * res, res)))
    if resid > MEASURE_TOL * max(1.0, float(np.linalg.norm(recon))):
        raise InconsistencyError("spectral measure does not reproduce the resolvent")
    return measure


def spectral_measure(rel: LinearRelation) -> SpectralMeasure:
    """Eigen-decomposition of a self-adjoint relation on standard C^r.

    Read off its resolvent at a real point of the resolvent set; the
    multivalued part contributes the atom at infinity.
    """
    if rel.space_dim == 0:
        return SpectralMeasure(0, ())
    report = spectrum(rel)
    if report.is_full_sphere:
        raise NotSelfAdjointError("relation is not self-adjoint on the Hilbert space")
    mu = _resolvent_point(report)
    return _measure_from_resolvent(resolvent_at(rel, mu, report), mu)


@dataclass(frozen=True, eq=False)
class Factorization:
    """Gram factorization q(A) = T T^+ through a Hilbert space C^r."""

    pair: DefinitizablePair
    rank: int
    factor: np.ndarray          # T: C^r -> C^n
    factor_adjoint: np.ndarray  # T^+ = T* G: C^n -> C^r
    resolvent: np.ndarray       # X with R T = T X, R the resolvent of A at base_point
    base_point: float           # the real point mu of the resolvent set
    measure: SpectralMeasure
    diagnostics: dict = field(default_factory=dict)

    @functools.cached_property
    def theta(self) -> LinearRelation:
        """theta(A) = {(u; v) : (T u; T v) in A} = {(X w; w + mu X w)}, built on first use."""
        res = self.resolvent
        return LinearRelation.from_graph_columns(res, np.eye(self.rank) + self.base_point * res)

    @property
    def gram_product(self) -> np.ndarray:
        """T T^+, equal to q(A)."""
        return self.factor @ self.factor_adjoint

    @property
    def factor_product(self) -> np.ndarray:
        """T^+ T on the factor space."""
        return self.factor_adjoint @ self.factor

    @functools.cached_property
    def atom_points(self) -> tuple[object, ...]:
        """The spectral point of the pair at each atom of the measure."""
        points = self.pair.points
        return tuple(points[i] for i in self.pair._match([p for p, _ in self.measure.atoms], ATOM_MATCH_TOL))


def _psd_kept(eigvals: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues of Hermitian(G q(A)) above PSD_CUTOFF * ||H||."""
    scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    # floored scale: rounding noise in a numerically vanishing q(A) is not rank
    return eigvals > PSD_CUTOFF * max(scale, 1.0)


def gram_factorize(pair: DefinitizablePair) -> Factorization:
    """Factor q(A) = T T^+ and compress the relation to the factor space.

    Eigenvalues of Hermitian(G q(A)) at or below PSD_CUTOFF * ||H|| are
    discarded as zeros; the retained part determines the rank r, the factor
    T and its adjoint.  ran T = ran q(A) is invariant under the resolvent R
    of A at a real point mu of the resolvent set, so R T = T X for an r x r
    matrix X: the resolvent of theta(A) = {(X w, w + mu X w)} at mu, whose
    eigendecomposition is the spectral measure.
    """
    g = pair.space.gram
    n = pair.space.dim
    eigvals, eigvecs = pair.psd_eig
    keep = _psd_kept(eigvals)
    rank = int(np.sum(keep))
    roots = np.sqrt(eigvals[keep])
    u_plus = eigvecs[:, keep]
    factor_adjoint = np.diag(roots) @ u_plus.conj().T
    factor = np.linalg.solve(g, factor_adjoint.conj().T)
    resid_factor = float(np.linalg.norm(factor @ factor_adjoint - pair.q_matrix))
    if resid_factor > FACTOR_TOL * max(1.0, float(np.linalg.norm(pair.q_matrix))):
        raise InconsistencyError("T T^+ failed to reproduce q(A)")
    mu = _resolvent_point(pair.report)
    if rank == 0:
        res = np.zeros((0, 0), dtype=complex)
        measure = SpectralMeasure(0, ())
    else:
        res = _pull_back(factor, resolvent_at(pair.relation, mu, pair.report))
        measure = _measure_from_resolvent(res, mu)
    diagnostics = {
        "factor_residual": resid_factor,
        "psd_margin": pair.diagnostics["psd_margin"],
        "discarded_eigenvalue": float(np.max(np.abs(eigvals[~keep]))) if rank < n else 0.0,
    }
    return Factorization(
        pair=pair,
        rank=rank,
        factor=factor,
        factor_adjoint=factor_adjoint,
        resolvent=res,
        base_point=mu,
        measure=measure,
        diagnostics=diagnostics,
    )


def _check_commutes(a: np.ndarray, b: np.ndarray, what: str) -> None:
    scale = max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    if float(np.linalg.norm(a @ b - b @ a)) > COMMUTANT_TOL * scale:
        raise NotInCommutantError(what)


def theta_op(fact: Factorization, mat: np.ndarray) -> np.ndarray:
    """Transport an operator commuting with q(A) to the factor space.

    theta(C) is the matrix with C T = T theta(C); it also satisfies
    T^+ C = theta(C) T^+.
    """
    mat = np.asarray(mat, dtype=complex)
    n = fact.pair.space.dim
    if mat.shape != (n, n):
        raise ValidationError("operator matrix has the wrong shape")
    _check_commutes(mat, fact.gram_product, "operator does not commute with q(A)")
    if fact.rank == 0:
        return np.zeros((0, 0), dtype=complex)
    out = _pull_back(fact.factor, mat)
    resid = float(np.linalg.norm(fact.factor_adjoint @ mat - out @ fact.factor_adjoint))
    if resid > IDENTITY_TOL * max(1.0, float(np.linalg.norm(mat))):
        raise InconsistencyError("intertwining identity for the transported operator failed")
    return out


def xi(fact: Factorization, mat: np.ndarray) -> np.ndarray:
    """Map D on the factor space to T D T^+; requires D to commute with T^+ T."""
    mat = np.asarray(mat, dtype=complex)
    r = fact.rank
    if mat.shape != (r, r):
        raise ValidationError("factor-space operator has the wrong shape")
    _check_commutes(mat, fact.factor_product, "operator does not commute with T^+ T")
    return fact.factor @ mat @ fact.factor_adjoint

