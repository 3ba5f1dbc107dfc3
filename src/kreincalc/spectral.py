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

from dataclasses import dataclass

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
    chordal_distance,
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

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)

    def inf_multiplicity(self) -> int:
        for p, m in self.points:
            if is_inf(p):
                return m
        return 0

    def multiplicity_of(self, z) -> int:
        z = as_point(z)
        if self.is_full_sphere:
            return self.space_dim
        if is_inf(z):
            return self.inf_multiplicity()
        best = 0
        for p, m in self.points:
            if not is_inf(p) and abs(complex(p) - z) <= RESOLVENT_DIST_TOL:
                best += m
        return best

    def contains(self, z) -> bool:
        """Whether z is a spectral point; the resolvent set is exactly where it is not."""
        if self.is_full_sphere:
            return True
        return self.multiplicity_of(z) > 0

    def distance_to(self, z) -> float:
        """Absolute distance to the finite part; infinity handled apart."""
        z = as_point(z)
        if self.is_full_sphere:
            return 0.0
        if is_inf(z):
            return 0.0 if self.inf_multiplicity() > 0 else np.inf
        finite = [complex(p) for p, _ in self.points if not is_inf(p)]
        if not finite:
            return np.inf
        return min(abs(z - p) for p in finite)

    def chordal_distance_to(self, z) -> float:
        if self.is_full_sphere:
            return 0.0
        return min((chordal_distance(z, p) for p, _ in self.points), default=np.inf)


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


def in_resolvent_set(rel: LinearRelation, z, report: SpectrumReport | None = None) -> bool:
    """Membership in the resolvent set, decided against the computed spectrum."""
    report = spectrum(rel) if report is None else report
    return not report.contains(z)


def resolvent_at(rel: LinearRelation, lam, report: SpectrumReport | None = None) -> np.ndarray:
    """Matrix of (A - lam)^{-1}; for lam = INF the matrix of A itself.

    With graph basis (X; Y) this is X (Y - lam X)^{-1}, and Y X^{-1} at INF,
    from one LU factorization.
    """
    lam = as_point(lam)
    report = spectrum(rel) if report is None else report
    if not in_resolvent_set(rel, lam, report):
        raise NotInResolventSetError(f"{lam} is not in the resolvent set")
    x, y = rel.graph_columns()
    num, den = (y, x) if is_inf(lam) else (x, y - complex(lam) * x)
    try:
        out = np.linalg.solve(den.T, num.T).T
    except np.linalg.LinAlgError:
        out = None
    # the graph of a matrix R has a rank-deficient domain block, at RANK_TOL,
    # once ||R|| reaches about 1 / RANK_TOL
    if out is None or not np.all(np.isfinite(out)) or float(np.linalg.norm(out)) * RANK_TOL >= 1.0:
        raise NotBoundedError("relation is not an everywhere-defined operator")
    return out


def rational_apply(
    func: RationalFunction,
    rel: LinearRelation,
    report: SpectrumReport | None = None,
) -> np.ndarray:
    """Evaluate a rational function on a relation via partial fractions.

    Every pole (including infinity, i.e. a nontrivial polynomial part) must
    lie in the resolvent set.
    """
    n = rel.space_dim
    report = spectrum(rel) if report is None else report
    if report.is_full_sphere:
        raise PreconditionError("relation has empty resolvent set")
    for pole, _ in func.poles():
        if not in_resolvent_set(rel, pole, report):
            raise PoleMeetsSpectrumError(f"pole {pole} of the function meets the spectrum")
    frac = func.partial_fractions()
    out = np.zeros((n, n), dtype=complex)
    poly = frac.poly
    if poly.degree >= 1:
        mat = rel.operator_matrix()
        power = np.eye(n, dtype=complex)
        for coeff in poly.coeffs:
            out += complex(coeff) * power
            power = power @ mat
    elif not poly.is_zero:
        out += poly.coeffs[0] * np.eye(n, dtype=complex)
    cache: dict[complex, np.ndarray] = {}
    for pole, order, coeff in frac.terms:
        pole = complex(pole)
        if pole not in cache:
            cache[pole] = resolvent_at(rel, pole, report)
        out += coeff * np.linalg.matrix_power(cache[pole], order)
    return out
