"""Krein-space structure: definitizability, Gram factorization, transport.

A Krein space here is C^n with an invertible Hermitian Gram matrix G and
inner product [x, y] = y* G x.  A self-adjoint relation A is definitizable
when some rational q with poles in the resolvent set makes [q(A)x, x] >= 0;
the Hermitian positive semidefinite matrix H = G q(A) then factors as
q(A) = T T^+ through a Hilbert space C^r.  From H = U diag(lambda) U* with
U+ the columns of the kept eigenvalues, T = G^{-1} U+ diag(lambda)^(1/2) has
the exact left inverse L = diag(1/lambda) T^+ G, with L T = I.  ran T = ran
q(A) is invariant under the resolvent R of A at a real point mu, so R T = T X
for the r x r matrix X = L R T, the compressed resolvent.  X is Hermitian:
it is the resolvent at mu of the genuinely self-adjoint relation theta(A) on
C^r, and its eigendecomposition X = V diag(x) V* is the spectral measure,
kept in that form: the calculus adds phi(A) = s(A) + (T V) g (V* T^+).

verify_definitizing knows every shift a request uses (the finite poles of
q, mu, and the default base point of the calculus) and takes all of their
resolvents from one stacked solve, kept on the pair.
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
from .rational import RationalFunction
from .relations import (
    INF,
    LinearRelation,
    as_point,
    hermitian_residual,
    is_inf,
    require_finite,
)
from .spectral import ResolventStack, SpectrumReport, rational_apply, resolvent_at, spectrum
from .tolerances import (ATOM_MATCH_TOL, COMMUTANT_TOL, FACTOR_TOL, HERMITIAN_TOL, IDENTITY_TOL, MEASURE_TOL,
                         POINT_MATCH_TOL, PSD_CUTOFF, PSD_TOL, RANK_TOL, REALNESS_TOL)


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


def _is_psd(h: np.ndarray, resid: float, eigvals: np.ndarray, tol: float) -> bool:
    """h = G B is psd at tol, from its Hermitian residual and the eigenvalues of its Hermitian part."""
    # floor the scale so a numerically vanishing matrix counts as psd
    return resid <= tol and (eigvals.size == 0 or bool(np.min(eigvals) >= -tol * max(float(np.linalg.norm(h)), 1.0)))


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
    # the resolvents solved with q(A): at the poles of q, _resolvent_point and _calculus_point
    resolvents: ResolventStack = field(default=None, repr=False)
    # calculus plans by base point, built and read by jetcalc
    _calculus_plans: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def critical_points(self) -> tuple[object, ...]:
        return tuple(w for w in self.points if self.degrees[w] > 0)

    def resolvent(self, z) -> np.ndarray:
        """(A - z)^{-1}, read from the stack solved with q(A) when it holds z, else from resolvent_at."""
        if self.resolvents is not None and z in self.resolvents:
            return self.resolvents[z]
        return resolvent_at(self.relation, z, self.report)

    def resolve(self, z, tol: float = POINT_MATCH_TOL):
        """Match z against the canonical spectral points."""
        return self.points[self._match([z], tol)[0]]

    def _match(self, labels, tol: float) -> np.ndarray:
        """Index into points of each label, by SpectrumReport.match; ValidationError on a miss."""
        labels = list(labels)
        hits = self.report.match(labels, tol)
        missed = hits < 0
        if missed.any():
            z = as_point(labels[int(np.argmax(missed))])
            if is_inf(z):
                raise ValidationError("infinity is not a spectral point of this pair")
            raise ValidationError(f"{z} does not match any spectral point")
        return hits


def verify_definitizing(
    space: GramSpace,
    rel: LinearRelation,
    q: RationalFunction,
    psd_tol: float = PSD_TOL,
) -> DefinitizablePair:
    """Check all definitizability requirements and assemble the pair.

    Self-adjointness is decided as in LinearRelation.is_self_adjoint, from the
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
    self_adjoint_residual = rel.self_adjoint_residual(space.gram)
    if not self_adjoint_residual <= HERMITIAN_TOL:
        raise NotSelfAdjointError("relation is not self-adjoint in this Krein space")
    # the resolvents at the finite poles of q, at the factor-space point and at
    # the default calculus base point, all from one stacked solve
    shifts = [p for p, _ in q.poles() if not is_inf(p)] + [_resolvent_point(report), _calculus_point(report, q)]
    resolvents = ResolventStack(rel, shifts)
    q_matrix = rational_apply(q, rel, report, resolvents)  # raises when a pole meets the spectrum
    hermitian_part = space.gram @ q_matrix
    q_residual = hermitian_residual(hermitian_part)
    psd_eig = np.linalg.eigh((hermitian_part + hermitian_part.conj().T) / 2.0)
    if not _is_psd(hermitian_part, q_residual, psd_eig[0], psd_tol):
        raise NotPositiveError("[q(A)x, x] takes negative values")
    points = tuple(w for w, _ in report.points)
    degrees = dict(zip(points, q._zero_degrees(points)))
    for w, d in degrees.items():
        # a point counts as real when its imaginary part is below REALNESS_TOL (relative)
        if d == 0 and not is_inf(w) and abs(complex(w).imag) > REALNESS_TOL * max(1.0, abs(complex(w))):
            raise InconsistencyError(
                f"spectral point {w} is neither real nor a zero of q; the "
                "definitizability conclusion fails, input tolerances are suspect"
            )
    crit = [w for w in points if degrees[w] > 0 and not is_inf(w)]
    mates = report.match([complex(w).conjugate() for w in crit], POINT_MATCH_TOL).tolist()
    if any(i < 0 or degrees[points[i]] == 0 for i in mates):
        raise InconsistencyError("critical spectrum is not symmetric under conjugation")
    kept = psd_eig[0][_psd_kept(psd_eig[0])]
    diagnostics = {
        "self_adjoint_residual": self_adjoint_residual,
        "hermitian_residual": q_residual,
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
        resolvents=resolvents,
    )


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Spectral measure on C^r as eigh gives it: column k of the orthonormal basis V
    lies in the atom at points[index[k]], and an integral of g is V diag(g) V*."""

    basis: np.ndarray
    index: np.ndarray
    points: tuple[object, ...]

    @functools.cached_property
    def atoms(self) -> tuple[tuple[object, np.ndarray], ...]:
        """(point, orthogonal projector V_i V_i*) per atom, in the order of points."""
        return tuple((self.points[i], vecs @ vecs.conj().T)
                     for i in sorted(set(self.index.tolist())) for vecs in [self.basis[:, self.index == i]])

    def column_values(self, values: dict) -> np.ndarray:
        """values[point] at the point of each column of the basis."""
        return np.array([values[self.points[i]] for i in self.index.tolist()], dtype=complex)

    def integrate(self, values: dict) -> np.ndarray:
        """Sum of values[point] * projector over all atoms (including infinity)."""
        return (self.basis * self.column_values(values)) @ self.basis.conj().T

    def total(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


_NO_MEASURE = SpectralMeasure(np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=int), ())


def _resolvent_point(report: SpectrumReport) -> float:
    """A real point at distance at least 1 from the finite spectrum."""
    return 1.0 + max((abs(complex(w)) for w, _ in report.points if not is_inf(w)), default=0.0)


def _calculus_point(report: SpectrumReport, q: RationalFunction) -> complex:
    """i (1 + r), r the largest modulus of a spectral point or a zero of q: a
    point at distance at least 1 from every spectral point and from the real
    axis, the calculus's default base point."""
    points = [w for w, _ in report.points] + [z for z, _ in q.zeros()]
    return 1j * (1.0 + max((abs(complex(w)) for w in points if not is_inf(w)), default=0.0))


def _pull_back(factor: np.ndarray, left_inverse: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The Y with M T = T Y, for T of full column rank whose range M leaves invariant.

    Y = L (M T) for a left inverse L of T (L T = I); a residual
    ||M T - T Y|| above IDENTITY_TOL * max(1, ||M T||) means ran T is not
    invariant under M.
    """
    image = mat @ factor
    out = left_inverse @ image
    resid = float(np.linalg.norm(image - factor @ out))
    if resid > IDENTITY_TOL * max(1.0, float(np.linalg.norm(image))):
        raise InconsistencyError("range of the factor is not invariant under the operator")
    return out


def _measure_from_resolvent(res: np.ndarray, mu: float, report: SpectrumReport) -> SpectralMeasure:
    """Spectral measure of the relation on C^r whose resolvent at the real point mu is res.

    The relation is self-adjoint exactly when res is Hermitian.  An eigenvalue
    x != 0 of res is the spectral point mu + 1/x, and ker res is the
    multivalued part, at infinity.  Each is assigned to a point of report at
    ATOM_MATCH_TOL, which keys the atoms, in report order; an eigenvalue that
    matches no point is an inconsistency.
    """
    r = res.shape[0]
    if hermitian_residual(res) > IDENTITY_TOL:
        raise NotSelfAdjointError("relation is not self-adjoint on the Hilbert space")
    res = (res + res.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(res)
    at_inf = np.abs(eigvals) <= RANK_TOL * max(1.0, float(np.max(np.abs(eigvals))))
    hits = report.match([INF if inf else mu + 1.0 / x for x, inf in zip(eigvals.tolist(), at_inf)], ATOM_MATCH_TOL)
    if (hits < 0).any():
        raise InconsistencyError("an eigenvalue of the compressed resolvent matches no spectral point")
    measure = SpectralMeasure(eigvecs, hits, tuple(w for w, _ in report.points))
    eye = np.eye(r, dtype=complex)
    if float(np.linalg.norm(measure.total() - eye)) > MEASURE_TOL * max(1.0, float(np.sqrt(r))):
        raise InconsistencyError("spectral projectors do not sum to the identity")
    probe = 0.2131 + 1.3703j
    recon = measure.integrate({p: 0.0 if is_inf(p) else 1.0 / (complex(p) - probe) for p in measure.points})
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
        return _NO_MEASURE
    report = spectrum(rel)
    if report.is_full_sphere:
        raise NotSelfAdjointError("relation is not self-adjoint on the Hilbert space")
    mu = _resolvent_point(report)
    return _measure_from_resolvent(resolvent_at(rel, mu, report), mu, report)


@dataclass(frozen=True, eq=False)
class Factorization:
    """Gram factorization q(A) = T T^+ through a Hilbert space C^r."""

    pair: DefinitizablePair
    rank: int
    factor: np.ndarray          # T: C^r -> C^n
    factor_adjoint: np.ndarray  # T^+ = T* G: C^n -> C^r
    left_inverse: np.ndarray    # L = diag(1/lambda) T^+ G with L T = I, lambda the kept eigenvalues
    resolvent: np.ndarray       # X with R T = T X, R the resolvent of A at base_point
    base_point: float           # the real point mu of the resolvent set
    measure: SpectralMeasure
    diagnostics: dict = field(default_factory=dict)

    @functools.cached_property
    def theta(self) -> LinearRelation:
        """theta(A) = {(u; v) : (T u; T v) in A} = {(X w; w + mu X w)}, built on first use."""
        res = self.resolvent
        return LinearRelation.from_graph_columns(res, np.eye(self.rank) + self.base_point * res)

    @functools.cached_property
    def eigen_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """T V and V* T^+ for the measure's basis V: T (integral of g) T^+ = (T V diag(g)) (V* T^+)."""
        return self.factor @ self.measure.basis, self.measure.basis.conj().T @ self.factor_adjoint

    @property
    def gram_product(self) -> np.ndarray:
        """T T^+, equal to q(A)."""
        return self.factor @ self.factor_adjoint

    @property
    def factor_product(self) -> np.ndarray:
        """T^+ T on the factor space."""
        return self.factor_adjoint @ self.factor


def _psd_kept(eigvals: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues of Hermitian(G q(A)) above PSD_CUTOFF * ||H||."""
    scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    # floored scale: rounding noise in a numerically vanishing q(A) is not rank
    return eigvals > PSD_CUTOFF * max(scale, 1.0)


def gram_factorize(pair: DefinitizablePair) -> Factorization:
    """Factor q(A) = T T^+ and compress the relation to the factor space.

    Eigenvalues of Hermitian(G q(A)) at or below PSD_CUTOFF * ||H|| are
    discarded as zeros; the retained part determines the rank r, the factor
    T and its adjoint.  q(A) is invertible on the root subspace of every
    spectral point where q does not vanish, so r below n minus the
    multiplicities of the critical points is an inconsistency.  With
    H = U diag(lambda) U* and U+ the kept columns, T = G^{-1} U+ diag(lambda)^(1/2)
    has the exact left inverse L = diag(lambda)^(-1/2) U+* G.  ran T = ran q(A)
    is invariant under the resolvent R of A at a real point mu of the
    resolvent set, so R T = T X for the r x r matrix X = L R T: the
    resolvent of theta(A) = {(X w, w + mu X w)} at mu, whose
    eigendecomposition is the spectral measure.
    """
    g = pair.space.gram
    n = pair.space.dim
    eigvals, eigvecs = pair.psd_eig
    keep = _psd_kept(eigvals)
    rank = int(np.sum(keep))
    # degrees holds the points in the report's order
    bound = n - sum(m for (_, m), d in zip(pair.report.points, pair.degrees.values()) if d > 0)
    if rank < bound:
        raise InconsistencyError(f"rank {rank} of q(A) is below the structural bound {bound}")
    roots = np.sqrt(eigvals[keep])
    u_plus = eigvecs[:, keep]
    factor_adjoint = np.diag(roots) @ u_plus.conj().T
    factor = np.linalg.solve(g, factor_adjoint.conj().T)
    left_inverse = (u_plus.conj().T @ g) / roots[:, None]
    resid_factor = float(np.linalg.norm(factor @ factor_adjoint - pair.q_matrix))
    if resid_factor > FACTOR_TOL * max(1.0, float(np.linalg.norm(pair.q_matrix))):
        raise InconsistencyError("T T^+ failed to reproduce q(A)")
    mu = _resolvent_point(pair.report)
    if rank == 0:
        res = np.zeros((0, 0), dtype=complex)
        measure = _NO_MEASURE
    else:
        res = _pull_back(factor, left_inverse, pair.resolvent(mu))
        measure = _measure_from_resolvent(res, mu, pair.report)
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
        left_inverse=left_inverse,
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
    out = _pull_back(fact.factor, fact.left_inverse, mat)
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

