"""Spectra of linear relations via matrix pencils, and the rational calculus.

For a proper relation with stacked graph basis (X; Y) the finite spectrum is
the generalized eigenvalue set of the pencil (Y, X); the point infinity
enters with its algebraic multiplicity, so multiplicities always sum to the
space dimension for a regular pencil.  Degenerate (non-proper or
singular-pencil) relations report the full extended plane as spectrum.

The pencil is solved with numpy alone, by a shift: for a probe lam0 with
M = Y - lam0 X invertible, the pencil eigenvalues are lam0 + 1/nu over the
eigenvalues nu of M^{-1} X, with nu = 0 at infinity.  The eigenvectors are
taken from M^{-1} (X + conj(lam0) Y), whose spectrum is the image of the
pencil's under a rotation of the Riemann sphere, and each is read off as the
Rayleigh quotient of its graph vector (Xv; Yv); the multiplicity at
infinity comes from the nu and from rank decisions on M^{-1} X.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import (
    NotBoundedError,
    NotInResolventSetError,
    PoleMeetsSpectrumError,
    PreconditionError,
)
from .rational import RationalFunction, cluster_values
from .relations import (
    INF,
    LinearRelation,
    Subspace,
    _sv_cutoff,
    as_point,
    is_inf,
    point_sort_key,
    stable_svd,
)
from .tolerances import INF_EIGENVALUE_TOL, RANK_TOL, RESOLVENT_DIST_TOL, SHIFT_COND, SPECTRUM_CLUSTER_TOL

# Fixed probe points for singular-pencil detection and the shift; any three
# distinct values away from typical spectra work, determinism is what matters.
_PENCIL_PROBES = (0.7310 + 0.5811j, -1.2903 + 0.4117j, 2.1107 - 1.7313j)


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum as (point, multiplicity) pairs, or the full extended plane."""

    space_dim: int
    points: tuple[tuple[object, int], ...]
    is_full_sphere: bool = False

    def inf_multiplicity(self) -> int:
        for p, m in self.points:
            if is_inf(p):
                return m
        return 0

    @functools.cached_property
    def _point_array(self) -> tuple[np.ndarray, np.ndarray]:
        """The points as a complex array, inf at the point infinity, and the mask of the finite ones."""
        finite = np.array([not is_inf(p) for p, _ in self.points], dtype=bool)
        values = np.array([complex(p) if f else np.inf for (p, _), f in zip(self.points, finite)], dtype=complex)
        return values, finite

    def match(self, labels, tol: float) -> np.ndarray:
        """Index into points of each label, -1 where no point lies within tol.

        A finite label takes the nearest finite point, the first on ties;
        infinity matches only infinity.
        """
        labels = [as_point(z) for z in labels]
        if not labels or not self.points:
            return np.full(len(labels), -1, dtype=int)
        values, finite = self._point_array
        # the point infinity is inf in values, so no finite label comes within tol of it
        dist = np.abs(np.array([0.0 if is_inf(z) else z for z in labels], dtype=complex)[:, None] - values)
        at_inf = -1 if finite.all() else int(finite.argmin())
        return np.array([at_inf if is_inf(z) else (i if row[i] <= tol else -1)
                         for z, i, row in zip(labels, dist.argmin(axis=1).tolist(), dist)], dtype=int)

    def multiplicity_of(self, z) -> int:
        if self.is_full_sphere:
            return self.space_dim
        i = int(self.match([z], RESOLVENT_DIST_TOL)[0])
        return self.points[i][1] if i >= 0 else 0

    def contains(self, z) -> bool:
        """Whether z is a spectral point; the resolvent set is exactly where it is not."""
        return self.multiplicity_of(z) > 0


def spectrum(rel: LinearRelation) -> SpectrumReport:
    """Spectrum of a relation; full sphere when the pencil is singular."""
    n = rel.space_dim
    if n == 0:
        return SpectrumReport(0, ())
    if not rel.is_proper:
        return SpectrumReport(n, (), is_full_sphere=True)
    x, y = rel.graph_columns()
    lam0 = _pencil_shift(x, y)
    if lam0 is None:
        return SpectrumReport(n, (), is_full_sphere=True)
    # one LU of M = Y - lam0 X gives K = M^{-1} X and C = M^{-1} (X + conj(lam0) Y)
    solved = np.linalg.solve(y - lam0 * x, np.hstack([x, x + lam0.conjugate() * y]))
    # C = (1 + |lam0|^2) K + conj(lam0), and its eigenvalue is the image of
    # lam0 + 1/nu under a rotation of the Riemann sphere
    omega, vecs = np.linalg.eig(solved[:, n:])
    nu = (omega - lam0.conjugate()) / (1.0 + abs(lam0) ** 2)
    inf_count = _inf_multiplicity(solved[:, :n], lam0, nu)
    finite = _rayleigh_points(x @ vecs, y @ vecs, inf_count)
    entries: list[tuple[object, int]] = list(cluster_values(finite, SPECTRUM_CLUSTER_TOL))
    if inf_count:
        entries.append((INF, inf_count))
    entries.sort(key=lambda t: point_sort_key(t[0]))
    return SpectrumReport(n, tuple(entries))


def _pencil_shift(x: np.ndarray, y: np.ndarray):
    """A probe lam0 with Y - lam0 X well conditioned; None if the pencil is singular.

    The pencil counts as singular when Y - lam X is numerically singular at
    every probe.
    """
    best, best_ratio = None, 0.0
    for lam in _PENCIL_PROBES:
        s = stable_svd(y - lam * x, compute_uv=False)
        if s[-1] <= _sv_cutoff(s, RANK_TOL):
            continue
        ratio = float(s[-1] / s[0])
        if ratio >= 1.0 / SHIFT_COND:
            return lam
        if ratio > best_ratio:
            best, best_ratio = lam, ratio
    return best


def _rayleigh_points(xv: np.ndarray, yv: np.ndarray, inf_count: int) -> list[complex]:
    """Finite points of the eigenvectors v, given as the columns Xv and Yv.

    Each column gives the homogeneous Rayleigh pair (alpha, beta) of y = lam x,
    taken from whichever of x and y is longer; the inf_count pairs nearest to
    infinity in the chordal metric are dropped.
    """
    xx = np.sum(np.abs(xv) ** 2, axis=0)
    yy = np.sum(np.abs(yv) ** 2, axis=0)
    xy = np.sum(xv.conj() * yv, axis=0)
    from_x = xx >= yy
    alpha = np.where(from_x, xy, yy)
    beta = np.where(from_x, xx, xy.conj())
    near_inf = np.abs(beta) / np.hypot(np.abs(alpha), np.abs(beta))
    keep = np.argsort(near_inf, kind="stable")[inf_count:]
    return (alpha[keep] / beta[keep]).tolist()


def _inf_multiplicity(k: np.ndarray, lam0: complex, nu: np.ndarray) -> int:
    """Algebraic multiplicity of infinity, the eigenvalue 0 of K = M^{-1} X.

    An eigenvalue nu of K is the homogeneous pencil eigenvalue
    (alpha, beta) = (1 + lam0 nu, nu), infinite when |beta| is negligible.
    A Jordan chain at infinity splits its nu by about eps^(1/length), which
    that test misses, so the generalized kernel of K, ker K^j for growing j,
    is found by rank decisions as well, and the larger count is taken.
    """
    size = np.maximum(np.maximum(np.abs(1.0 + lam0 * nu), np.abs(nu)), 1.0)
    by_eigenvalue = int(np.sum(np.abs(nu) <= INF_EIGENVALUE_TOL * size))
    kernel = Subspace.zero(k.shape[0])
    while True:
        grown = kernel.preimage(k)  # {v : K v in kernel}
        if grown.dim == kernel.dim:
            return max(by_eigenvalue, kernel.dim)
        kernel = grown


def _pole_in_spectrum(func: RationalFunction, report: SpectrumReport):
    """The first pole of func, in poles() order, that is a spectral point (one match call), or None."""
    poles = [pole for pole, _ in func.poles()]
    hits = report.match(poles, RESOLVENT_DIST_TOL) >= 0
    return poles[int(np.argmax(hits))] if hits.any() else None


def resolvent_at(rel: LinearRelation, lam, report: SpectrumReport | None = None) -> np.ndarray:
    """Matrix of (A - lam)^{-1}; for lam = INF the matrix of A itself.

    With graph basis (X; Y) this is X (Y - lam X)^{-1}, and Y X^{-1} at INF,
    from one LU factorization.
    """
    lam = as_point(lam)
    report = spectrum(rel) if report is None else report
    if report.contains(lam):
        raise NotInResolventSetError(f"{lam} is not in the resolvent set")
    x, y = rel.graph_columns()
    return _bounded_quotient(y, x) if is_inf(lam) else _bounded_quotient(x, y - complex(lam) * x)


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


class ResolventStack:
    """R(z) = X (Y - z X)^{-1} of a relation with graph basis (X; Y) at a fixed set of finite shifts z.

    All of them come from one solve over their (k, n, n) stack, made when the
    first one is read.  A resolvent that is not bounded raises NotBoundedError
    where it is read, so a caller that never reads it never sees the error.
    Whether a shift lies in the resolvent set is the caller's to decide.
    """

    __slots__ = ("relation", "_index", "_stack", "_bounded")

    def __init__(self, rel: LinearRelation, shifts):
        self.relation = rel
        self._index = {z: k for k, z in enumerate(dict.fromkeys(complex(z) for z in shifts))}
        self._stack = None
        self._bounded = None

    def __contains__(self, z) -> bool:
        return not is_inf(z) and complex(z) in self._index

    def __getitem__(self, z) -> np.ndarray:
        if self._stack is None:
            x, y = self.relation.graph_columns()
            shifts = np.array(list(self._index), dtype=complex)
            # X as a (1, n, n) stack: numpy 1.x reads b as a stack of vectors when b.ndim == a.ndim - 1
            self._stack, self._bounded = _quotients(x[None], y[None] - shifts[:, None, None] * x[None])
        k = self._index[complex(z)]
        if not self._bounded[k]:
            raise NotBoundedError(_UNBOUNDED)
        return self._stack[k]


def rational_apply(
    func: RationalFunction,
    rel: LinearRelation,
    report: SpectrumReport | None = None,
    resolvents: ResolventStack | None = None,
) -> np.ndarray:
    """Evaluate r = p + sum_k sum_j c_kj (z - p_k)^-j as p(A) + sum_k sum_j c_kj R(p_k)^j.

    Every pole, infinity included when p has degree >= 1, must lie in the
    resolvent set; all poles are tested against the spectrum in one match.  The
    resolvents X (Y - p_k X)^{-1} of all finite poles are read from
    resolvents, which must hold them, or else from one ResolventStack of the
    poles; A = Y X^{-1} comes from one more solve, and each power is formed once.
    """
    n = rel.space_dim
    report = spectrum(rel) if report is None else report
    if report.is_full_sphere:
        raise PreconditionError("relation has empty resolvent set")
    pole = _pole_in_spectrum(func, report)
    if pole is not None:
        raise PoleMeetsSpectrumError(f"pole {pole} of the function meets the spectrum")
    frac = func.partial_fractions()
    parts = [(pole, [coeff for _, _, coeff in terms]) for pole, terms in groupby(frac.terms, key=lambda t: t[0])]
    x, y = rel.graph_columns()
    # (first power, factor, coefficients): p(A) in the power basis, then each pole's sum c_kj R(p_k)^j
    mat = _bounded_quotient(y, x) if frac.poly.degree >= 1 else None
    series = [(np.eye(n, dtype=complex), mat, frac.poly.coeffs)]
    if parts and n:
        resolvents = ResolventStack(rel, [pole for pole, _ in parts]) if resolvents is None else resolvents
        series += [(res, res, coeffs) for pole, coeffs in parts for res in [resolvents[pole]]]
    out = np.zeros((n, n), dtype=complex)
    for power, factor, coeffs in series:
        for j, coeff in enumerate(coeffs):
            if j:
                power = power @ factor
            out += complex(coeff) * power
    return out
