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
from bisect import bisect_left, bisect_right
from itertools import chain, count, groupby

import numpy as np

from .errors import (
    NotBoundedError,
    NotInResolventSetError,
    PoleMeetsSpectrumError,
    PreconditionError,
)
from .rational import RationalFunction, _cluster_members
from .relations import (
    INF,
    _UNBOUNDED,
    LinearRelation,
    _bounded_quotient,
    _quotients,
    _sv_cutoff,
    as_point,
    is_inf,
    null_space,
    point_sort_key,
    require_finite,
    stable_svd,
)
from .tolerances import POINT_MATCH_TOL, RANK_TOL, SHIFT_COND, SPECTRUM_CLUSTER_TOL

# Fixed probe points for singular-pencil detection and the shift; any three
# distinct values away from typical spectra work, determinism is what matters.
_PENCIL_PROBES = (0.7310 + 0.5811j, -1.2903 + 0.4117j, 2.1107 - 1.7313j)


class SpectrumReport:
    """Spectrum as (point, multiplicity) pairs, or the full extended plane."""

    def __init__(self, space_dim: int, points: tuple[tuple[object, int], ...], is_full_sphere: bool = False):
        self.space_dim, self.points, self.is_full_sphere = space_dim, points, is_full_sphere

    @functools.cached_property
    def _point_array(self) -> tuple[np.ndarray, np.ndarray]:
        """The points as a complex array, inf at the point infinity, and the mask of the finite ones."""
        finite = np.array([not is_inf(p) for p, _ in self.points], dtype=bool)
        values = np.array([complex(p) if f else np.inf for (p, _), f in zip(self.points, finite)], dtype=complex)
        return values, finite

    @functools.cached_property
    def _point_list(self) -> tuple[list[complex], list[int], list[float], int]:
        """_point_array's values as Python complex numbers, the indices of the finite ones sorted by real
        part, those real parts, and the index of the point infinity (-1: none)."""
        values, finite = self._point_array
        values = values.tolist()
        order = sorted(np.flatnonzero(finite).tolist(), key=lambda i: values[i].real)
        return values, order, [values[i].real for i in order], -1 if finite.all() else int(finite.argmin())

    def match(self, labels, tol: float) -> np.ndarray:
        """Index into points of each label, -1 where no point lies within tol.

        labels are points, or a complex array with inf at the point infinity.
        One scalar loop decides every label: a finite label takes the nearest
        finite point by Python's abs, the first on ties, when it lies within
        tol; infinity matches only infinity.
        """
        if isinstance(labels, np.ndarray):
            labels = labels.ravel().tolist()
        values, order, reals, at_inf = self._point_list
        hits = []
        for z in map(as_point, labels):  # a NaN label raises; an infinite part makes the point infinity
            if z is INF:
                hits.append(at_inf)
                continue
            # abs(z - p) >= |(z - p).real| (hypot is faithfully rounded), which exceeds tol wherever p.real
            # lies more than 2 tol from z.real, rounding included: only the points of this window can hit
            window = order[bisect_left(reals, z.real - 2 * tol):bisect_right(reals, z.real + 2 * tol)]
            dist, i = min([(abs(z - values[i]), i) for i in window], default=(np.inf, -1))  # first on ties
            hits.append(i if dist <= tol else -1)
        return np.array(hits, dtype=int)

    def multiplicity_of(self, z) -> int:
        if self.is_full_sphere:
            return self.space_dim
        i = self.match([z], POINT_MATCH_TOL)[0]
        return self.points[i][1] if i >= 0 else 0

    def contains(self, z) -> bool:
        """Whether z is a spectral point; the resolvent set is exactly where it is not."""
        return self.is_full_sphere or self.match([z], POINT_MATCH_TOL)[0] >= 0


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
    entries: list[tuple[object, int]] = [(c, len(m)) for c, m in _cluster_members(finite, SPECTRUM_CLUSTER_TOL)]
    if inf_count:
        entries.append((INF, inf_count))
    entries.sort(key=lambda t: point_sort_key(t[0]))
    return SpectrumReport(n, tuple(entries))


def _pencil_shift(x: np.ndarray, y: np.ndarray):
    """A probe lam0 with Y - lam0 X well conditioned; None if the pencil is singular.

    While every probe so far is singular, the fixed probes plus 1, 2, ... follow; a regular pencil of size n is
    singular at n points at most, so the pencil counts as singular when n + 1 probes are."""
    best, best_ratio = None, 0.0
    for tried, lam in enumerate(chain(_PENCIL_PROBES, (p + k for k in count(1) for p in _PENCIL_PROBES))):
        if tried >= len(_PENCIL_PROBES) and (best is not None or tried > x.shape[1]):
            return best
        s = stable_svd(y - lam * x, compute_uv=False)
        if s[-1] <= _sv_cutoff(s, RANK_TOL):
            continue
        ratio = float(s[-1] / s[0])
        if ratio >= 1.0 / SHIFT_COND:
            return lam
        if ratio > best_ratio:
            best, best_ratio = lam, ratio


def _rayleigh_points(xv: np.ndarray, yv: np.ndarray, inf_count: int) -> list[complex]:
    """Finite points of the eigenvectors v, given as the columns Xv and Yv.

    Each column gives the homogeneous Rayleigh pair (alpha, beta) of y = lam x,
    taken from whichever of x and y is longer; the inf_count pairs nearest to
    infinity in the chordal metric are dropped.
    """
    xx = (np.abs(xv) ** 2).sum(axis=0)
    yy = (np.abs(yv) ** 2).sum(axis=0)
    xy = (xv.conj() * yv).sum(axis=0)
    from_x = xx >= yy
    alpha = np.where(from_x, xy, yy)
    beta = np.where(from_x, xx, xy.conj())
    near_inf = np.abs(beta) / np.hypot(np.abs(alpha), np.abs(beta))
    keep = np.argsort(near_inf, kind="stable")[inf_count:]
    return (alpha[keep] / beta[keep]).tolist()


def _inf_multiplicity(k: np.ndarray, lam0: complex, nu: np.ndarray) -> int:
    """Algebraic multiplicity of infinity, the eigenvalue 0 of K = M^{-1} X.

    It is the dimension of the generalized kernel of K, ker K^j for growing
    j, by rank decisions.  An eigenvalue nu of K is the homogeneous pencil
    eigenvalue (1 + lam0 nu, nu), infinite when |nu| is below RANK_TOL (relative);
    a Jordan chain at infinity splits its nu by about eps^(1/length), so their
    count is at most that dimension and only lets the first steps skip the SVD.
    """
    size = np.maximum(np.maximum(np.abs(1.0 + lam0 * nu), np.abs(nu)), 1.0)
    by_eigenvalue = int((np.abs(nu) <= RANK_TOL * size).sum())
    kernel = np.zeros((k.shape[0], 0), dtype=complex)  # orthonormal basis of ker K^j
    while True:
        dim = kernel.shape[1]
        resid = k - kernel @ (kernel.conj().T @ k)  # its kernel is {v : K v in ker K^j}
        # singular values first, and vectors only when the kernel grows, as it does below by_eigenvalue
        if dim >= by_eigenvalue:
            s = stable_svd(resid, compute_uv=False)
            if k.shape[0] - int((s > _sv_cutoff(s, RANK_TOL)).sum()) == dim:
                return dim
        kernel = null_space(resid)
        if kernel.shape[1] == dim:
            return dim


def _pole_in_spectrum(func: RationalFunction, report: SpectrumReport):
    """The first pole of func, in poles() order, that is a spectral point, or None."""
    return next((pole for pole, _ in func.poles() if report.contains(pole)), None)


def resolvent_at(rel: LinearRelation, lam, report: SpectrumReport | None = None) -> np.ndarray:
    """Matrix of (A - lam)^{-1}; for lam = INF the matrix of A itself.

    With graph basis (X; Y) this is X (Y - lam X)^{-1}, and Y X^{-1} at INF
    (``operator_matrix``), from one LU factorization.
    """
    lam = as_point(lam)
    report = spectrum(rel) if report is None else report
    if report.contains(lam):
        raise NotInResolventSetError(f"{lam} is not in the resolvent set")
    if is_inf(lam):
        return rel.operator_matrix()
    x, y = rel.graph_columns()
    return _bounded_quotient(x, y - complex(lam) * x)


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
    resolvent set; each pole is tested with SpectrumReport.contains, and r(A)
    must be finite.  The resolvents X (Y - p_k X)^{-1} of all finite poles are
    read from resolvents, which must hold them, or else from one ResolventStack
    of the poles; A = Y X^{-1} is ``rel.operator_matrix()``, and each power is formed once.
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
    # (first power, factor, coefficients): p(A) in the power basis, then each pole's sum c_kj R(p_k)^j
    mat = rel.operator_matrix() if frac.poly.degree >= 1 else None
    series = [(np.eye(n, dtype=complex), mat, frac.poly.coeffs)]
    if parts and n:
        resolvents = ResolventStack(rel, [pole for pole, _ in parts]) if resolvents is None else resolvents
        series += [(res, res, coeffs) for pole, coeffs in parts for res in [resolvents[pole]]]
    out = np.zeros((n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in the finiteness check
        for power, factor, coeffs in series:
            for j, coeff in enumerate(coeffs):
                if j:
                    power = power @ factor
                out += complex(coeff) * power
    require_finite(out, "r(A)")
    return out
