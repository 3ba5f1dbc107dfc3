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
    LinearRelation,
    _sv_cutoff,
    as_point,
    frobenius,
    hermitian_residual,
    is_inf,
    require_finite,
)
from .spectral import ResolventStack, SpectrumReport, rational_apply, resolvent_at, spectrum
from .tolerances import (ATOM_MATCH_TOL, COMMUTANT_TOL, FACTOR_TOL, HERMITIAN_TOL, IDENTITY_TOL, MEASURE_TOL,
                         POINT_MATCH_TOL, PSD_TOL, RANK_TOL, REALNESS_TOL)


class GramSpace:
    """C^n with an invertible Hermitian Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: np.ndarray):
        gram = np.asarray(gram, dtype=complex)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValidationError("Gram matrix must be square")
        require_finite(gram, "Gram matrix")
        if not hermitian_residual(gram) <= HERMITIAN_TOL:
            raise ValidationError("Gram matrix must be Hermitian")
        gram = (gram + gram.conj().T) / 2.0
        if gram.shape[0] > 0:
            w = np.abs(np.linalg.eigvalsh(gram))
            if float(w.min()) <= _sv_cutoff(w, RANK_TOL):
                raise ValidationError("Gram matrix must be invertible")
        self.gram = gram

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

    def hilbert_norm(self, mat: np.ndarray) -> float:
        """Operator norm w.r.t. the compatible product (x, y) = y* |G| x: ||G|^(1/2) M |G|^(-1/2)||."""
        w, u = np.linalg.eigh(self.gram)
        sq = u @ np.diag(np.sqrt(np.abs(w))) @ u.conj().T
        isq = u @ np.diag(1.0 / np.sqrt(np.abs(w))) @ u.conj().T
        return float(np.linalg.norm(sq @ np.asarray(mat, dtype=complex) @ isq, 2))


def _is_psd(h_norm: float, resid: float, eigvals: np.ndarray, tol: float) -> bool:
    """h = G B is psd at tol, from ||h||, its Hermitian residual and the eigenvalues of its Hermitian part."""
    # floor the scale so a numerically vanishing matrix counts as psd
    return resid <= tol and (eigvals.size == 0 or bool(eigvals.min() >= -tol * max(h_norm, 1.0)))


def map_adjoint(mat: np.ndarray, domain: GramSpace, codomain: GramSpace) -> np.ndarray:
    """Adjoint of T: domain -> codomain, i.e. G_dom^{-1} T* G_cod."""
    mat = np.asarray(mat, dtype=complex)
    return np.linalg.solve(domain.gram, mat.conj().T @ codomain.gram)


class DefinitizablePair:
    """A self-adjoint relation together with a verified definitizing function."""

    def __init__(self, space: GramSpace, relation: LinearRelation, q: RationalFunction, q_matrix: np.ndarray,
                 report: SpectrumReport, points: tuple[object, ...], degrees: dict, q_jets: np.ndarray,
                 diagnostics: dict = None, psd_eig: tuple = None, resolvents: ResolventStack = None):
        self.space, self.relation, self.q, self.q_matrix, self.report = space, relation, q, q_matrix, report
        self.points, self.degrees = points, degrees
        self.q_jets = q_jets  # q's Taylor jets at the points through entry degrees[w], end to end in point order
        self.diagnostics = {} if diagnostics is None else diagnostics
        self.psd_eig = psd_eig  # eigh of the Hermitian part of G q(A): (eigenvalues, eigenvectors)
        # the resolvents solved with q(A): at the poles of q, _resolvent_point and _calculus_point
        self.resolvents = resolvents
        self._calculus_plans = {}  # calculus plans by base point, built and read by jetcalc

    @functools.cached_property
    def calculus_point(self) -> complex:
        """The calculus's default base point, _calculus_point of the pair's own report and q."""
        return _calculus_point(self.report, self.q)

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
    h_norm = frobenius(hermitian_part)
    q_residual = frobenius(hermitian_part - hermitian_part.conj().T) / max(1.0, h_norm)  # hermitian_residual
    psd_eig = np.linalg.eigh((hermitian_part + hermitian_part.conj().T) / 2.0)
    if not _is_psd(h_norm, q_residual, psd_eig[0], psd_tol):
        raise NotPositiveError("[q(A)x, x] takes negative values")
    points = tuple(w for w, _ in report.points)
    values, finite = report._point_array
    orders, q_jets = q._jets(points)
    degrees, zero = dict(zip(points, orders)), np.array(orders) == 0
    # a point counts as real when its imaginary part is below REALNESS_TOL (relative)
    nonreal = finite & zero & (np.abs(values.imag) > REALNESS_TOL * np.maximum(1.0, np.abs(values)))
    if nonreal.any():
        raise InconsistencyError(
            f"spectral point {points[int(nonreal.argmax())]} is neither real nor a zero of q; the "
            "definitizability conclusion fails, input tolerances are suspect"
        )
    mates = report.match(values[finite & ~zero].conj(), POINT_MATCH_TOL)
    if (mates < 0).any() or zero[mates].any():
        raise InconsistencyError("critical spectrum is not symmetric under conjugation")
    kept = psd_eig[0][psd_eig[0] > _sv_cutoff(np.abs(psd_eig[0]), RANK_TOL)]  # the eigenvalues above the rank cut
    diagnostics = {
        "self_adjoint_residual": self_adjoint_residual,
        "hermitian_residual": q_residual,
        "psd_margin": float(kept.min()) if kept.size else 0.0,
    }
    return DefinitizablePair(
        space=space,
        relation=rel,
        q=q,
        q_matrix=q_matrix,
        report=report,
        points=points,
        degrees=degrees,
        q_jets=np.array(q_jets, dtype=complex),
        diagnostics=diagnostics,
        psd_eig=tuple(psd_eig),
        resolvents=resolvents,
    )


class SpectralMeasure:
    """Spectral measure on C^r as eigh gives it: column k of the orthonormal basis V
    lies in the atom at points[index[k]], and an integral of g is V diag(g) V*."""

    def __init__(self, basis: np.ndarray, index: np.ndarray, points: tuple[object, ...]):
        self.basis, self.index, self.points = basis, index, points

    @functools.cached_property
    def atoms(self) -> tuple[tuple[object, np.ndarray], ...]:
        """(point, orthogonal projector V_i V_i*) per atom, in the order of points."""
        return tuple((self.points[i], vecs @ vecs.conj().T)
                     for i in sorted(set(self.index.tolist())) for vecs in [self.basis[:, self.index == i]])

    def integrate(self, values: dict) -> np.ndarray:
        """Sum of values[point] * projector over all atoms (including infinity)."""
        at_columns = np.array([values[self.points[i]] for i in self.index.tolist()], dtype=complex)
        return (self.basis * at_columns) @ self.basis.conj().T

    def total(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


_NO_MEASURE = SpectralMeasure(np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=int), ())


def _resolvent_point(report: SpectrumReport) -> float:
    """A real point at distance at least 1 from the finite spectrum."""
    # Python's abs(complex) and numpy's complex abs differ in the last bit on
    # about a third of inputs; mu feeds every result, so the moduli stay scalar
    values, finite = report._point_array
    return 1.0 + max(map(abs, values[finite].tolist()), default=0.0)


def _calculus_point(report: SpectrumReport, q: RationalFunction) -> complex:
    """i (1 + r), r the largest modulus of a spectral point or a zero of q: a
    point at distance at least 1 from every spectral point and from the real
    axis, the calculus's default base point."""
    # scalar moduli, as in _resolvent_point; 1 + max(r_k) is max(1 + r_k) in floating point too
    return 1j * max([_resolvent_point(report)] + [1.0 + abs(z) for z, _ in q.num.clustered_roots()])


def _pull_back(factor: np.ndarray, left_inverse: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The Y with M T = T Y, for T of full column rank whose range M leaves invariant.

    Y = L (M T) for a left inverse L of T (L T = I); a residual
    ||M T - T Y|| above IDENTITY_TOL * max(1, ||M T||) means ran T is not
    invariant under M.
    """
    image = mat @ factor
    out = left_inverse @ image
    resid = frobenius(image - factor @ out)
    if not resid <= IDENTITY_TOL * max(1.0, frobenius(image)):
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
    if not hermitian_residual(res) <= IDENTITY_TOL:
        raise NotSelfAdjointError("relation is not self-adjoint on the Hilbert space")
    res = (res + res.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(res)
    at_inf = np.abs(eigvals) <= _sv_cutoff(np.abs(eigvals), RANK_TOL)
    hits = report.match(mu + np.divide(1.0, eigvals, out=np.full(r, np.inf), where=~at_inf), ATOM_MATCH_TOL)
    if (hits < 0).any():
        raise InconsistencyError("an eigenvalue of the compressed resolvent matches no spectral point")
    measure = SpectralMeasure(eigvecs, hits, tuple(w for w, _ in report.points))
    eye = np.eye(r, dtype=complex)
    if not frobenius(measure.total() - eye) <= MEASURE_TOL * max(1.0, float(np.sqrt(r))):
        raise InconsistencyError("spectral projectors do not sum to the identity")
    probe = 0.2131 + 1.3703j
    at_probe = np.array([0.0 if is_inf(p) else 1.0 / (complex(p) - probe) for p in measure.points], dtype=complex)
    recon = (eigvecs * at_probe[hits]) @ eigvecs.conj().T  # the integral of 1 / (p - probe), column by column
    # the resolvent at the probe, res (I + (mu - probe) res)^{-1}
    resid = frobenius(recon - np.linalg.solve(eye + (mu - probe) * res, res))
    if not resid <= MEASURE_TOL * max(1.0, frobenius(recon)):
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


class Factorization:
    """Gram factorization q(A) = T T^+ through a Hilbert space C^r."""

    def __init__(self, pair: DefinitizablePair, rank: int, factor: np.ndarray, factor_adjoint: np.ndarray,
                 left_inverse: np.ndarray, resolvent: np.ndarray, base_point: float, measure: SpectralMeasure,
                 diagnostics: dict = None):
        self.pair, self.rank, self.measure = pair, rank, measure
        self.factor = factor                  # T: C^r -> C^n
        self.factor_adjoint = factor_adjoint  # T^+ = T* G: C^n -> C^r
        self.left_inverse = left_inverse      # L = diag(1/lambda) T^+ G with L T = I, lambda the kept eigenvalues
        self.resolvent = resolvent            # X with R T = T X, R the resolvent of A at base_point
        self.base_point = base_point          # the real point mu of the resolvent set
        self.diagnostics = {} if diagnostics is None else diagnostics

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


def gram_factorize(pair: DefinitizablePair) -> Factorization:
    """Factor q(A) = T T^+ and compress the relation to the factor space.

    The rank r counts the eigenvalues of Hermitian(G q(A)) above the rank cut of their moduli (_sv_cutoff at
    RANK_TOL), capped at n minus the number of critical points, as each, infinity included, carries an
    eigenvector of ker q(A) (Langer, LNM 948, 1982); the r largest are kept.  q(A) is invertible on the root
    subspace of every point where q does not vanish, so r below n minus the multiplicities of the critical
    points is an inconsistency.  With
    H = U diag(lambda) U* and U+ the kept columns, T = G^{-1} U+ diag(lambda)^(1/2)
    has the exact left inverse L = diag(lambda)^(-1/2) U+* G.  ran T = ran q(A)
    is invariant under the resolvent R of A at a real point mu of the
    resolvent set, so R T = T X for the r x r matrix X = L R T: the
    resolvent of theta(A) = {(X w, w + mu X w)} at mu, whose
    eigendecomposition is the spectral measure.
    """
    g = pair.space.gram
    n = pair.space.dim
    eigvals, eigvecs = pair.psd_eig  # ascending
    critical = [m for (_, m), d in zip(pair.report.points, pair.degrees.values()) if d > 0]  # same point order
    # the cut is floored: the noise of a vanishing q(A) is not rank
    rank = min(int((eigvals > _sv_cutoff(np.abs(eigvals), RANK_TOL)).sum()), n - len(critical))
    if rank < n - sum(critical):
        raise InconsistencyError(f"rank {rank} of q(A) is below the structural bound {n - sum(critical)}")
    roots = np.sqrt(eigvals[n - rank:])
    u_plus = eigvecs[:, n - rank:]
    factor_adjoint = np.diag(roots) @ u_plus.conj().T
    factor = np.linalg.solve(g, factor_adjoint.conj().T)
    left_inverse = (u_plus.conj().T @ g) / roots[:, None]
    resid_factor = frobenius(factor @ factor_adjoint - pair.q_matrix)
    if not resid_factor <= FACTOR_TOL * max(1.0, frobenius(pair.q_matrix)):
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
        "psd_margin": float(eigvals[n - rank]) if rank else 0.0,  # the smallest kept eigenvalue
        "discarded_eigenvalue": float(np.abs(eigvals[: n - rank]).max()) if rank < n else 0.0,
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
    scale = max(1.0, frobenius(a) * frobenius(b))
    if not frobenius(a @ b - b @ a) <= COMMUTANT_TOL * scale:
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
    require_finite(mat, "operator matrix")
    _check_commutes(mat, fact.gram_product, "operator does not commute with q(A)")
    if fact.rank == 0:
        return np.zeros((0, 0), dtype=complex)
    out = _pull_back(fact.factor, fact.left_inverse, mat)
    resid = frobenius(fact.factor_adjoint @ mat - out @ fact.factor_adjoint)
    if not resid <= IDENTITY_TOL * max(1.0, frobenius(mat)):
        raise InconsistencyError("intertwining identity for the transported operator failed")
    return out


def xi(fact: Factorization, mat: np.ndarray) -> np.ndarray:
    """Map D on the factor space to T D T^+; requires D to commute with T^+ T."""
    mat = np.asarray(mat, dtype=complex)
    r = fact.rank
    if mat.shape != (r, r):
        raise ValidationError("factor-space operator has the wrong shape")
    require_finite(mat, "factor-space operator")
    _check_commutes(mat, fact.factor_product, "operator does not commute with T^+ T")
    return fact.factor @ mat @ fact.factor_adjoint

