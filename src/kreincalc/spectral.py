"""Spectra of linear relations via matrix pencils, and the rational calculus.

For a proper relation with stacked graph basis (X; Y) the finite spectrum is
the generalized eigenvalue set of the pencil (Y, X); the point infinity
enters with the number of infinite pencil eigenvalues (QZ beta values at
zero), so multiplicities always sum to the space dimension for a regular
pencil.  Degenerate (non-proper or singular-pencil) relations report the full
extended plane as spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    NotInResolventSetError,
    PoleMeetsSpectrumError,
    PreconditionError,
    ValidationError,
)
from .rational import RationalFunction, cluster_values
from .relations import (
    INF,
    LinearRelation,
    MoebiusMap,
    as_point,
    chordal_distance,
    is_inf,
    point_sort_key,
)
from .tolerances import RESOLVENT_DIST_TOL, SPECTRUM_CLUSTER_TOL

# Fixed probe points for singular-pencil detection; any three distinct values
# away from typical spectra work, determinism is what matters.
_PENCIL_PROBES = (0.7310 + 0.5811j, -1.2903 + 0.4117j, 2.1107 - 1.7313j)


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum as (point, multiplicity) pairs, or the full extended plane."""

    space_dim: int
    points: tuple[tuple[object, int], ...]
    is_full_sphere: bool = False

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)

    def support(self) -> tuple[object, ...]:
        return tuple(p for p, _ in self.points)

    def finite_values(self) -> list[complex]:
        """Finite spectral points repeated with multiplicity."""
        out: list[complex] = []
        for p, m in self.points:
            if not is_inf(p):
                out.extend([complex(p)] * m)
        return out

    def inf_multiplicity(self) -> int:
        for p, m in self.points:
            if is_inf(p):
                return m
        return 0

    def multiplicity_of(self, z, tol: float = RESOLVENT_DIST_TOL) -> int:
        z = as_point(z)
        if self.is_full_sphere:
            return self.space_dim
        if is_inf(z):
            return self.inf_multiplicity()
        best = 0
        for p, m in self.points:
            if not is_inf(p) and abs(complex(p) - z) <= tol:
                best += m
        return best

    def contains(self, z, tol: float = RESOLVENT_DIST_TOL) -> bool:
        if self.is_full_sphere:
            return True
        return self.multiplicity_of(z, tol) > 0

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


def spectrum(rel: LinearRelation, cluster_tol: float = SPECTRUM_CLUSTER_TOL) -> SpectrumReport:
    """Spectrum of a relation; full sphere when the pencil is singular."""
    n = rel.space_dim
    if n == 0:
        return SpectrumReport(0, ())
    if not rel.is_proper:
        return SpectrumReport(n, (), is_full_sphere=True)
    x, y = rel.graph_columns()
    if _pencil_is_singular(x, y):
        return SpectrumReport(n, (), is_full_sphere=True)
    hom = scipy.linalg.eig(y, x, right=False, homogeneous_eigvals=True)
    alpha, beta = np.asarray(hom[0]).ravel(), np.asarray(hom[1]).ravel()
    finite: list[complex] = []
    inf_count = 0
    for a, b in zip(alpha, beta):
        size = max(abs(a), abs(b), 1.0)
        if abs(b) <= 1e-10 * size:
            inf_count += 1
        else:
            finite.append(complex(a / b))
    entries: list[tuple[object, int]] = list(cluster_values(finite, cluster_tol))
    if inf_count:
        entries.append((INF, inf_count))
    entries.sort(key=lambda t: point_sort_key(t[0]))
    return SpectrumReport(n, tuple(entries))


def _pencil_is_singular(x: np.ndarray, y: np.ndarray) -> bool:
    for lam in _PENCIL_PROBES:
        s = scipy.linalg.svdvals(y - lam * x)
        if s[-1] > 1e-10 * max(1.0, float(s[0])):
            return False
    return True


def in_resolvent_set(rel: LinearRelation, z, report: SpectrumReport | None = None) -> bool:
    """Membership in the resolvent set, decided against the computed spectrum."""
    report = spectrum(rel) if report is None else report
    if report.is_full_sphere:
        return False
    z = as_point(z)
    if is_inf(z):
        return report.inf_multiplicity() == 0
    return report.distance_to(z) > RESOLVENT_DIST_TOL


def resolvent_at(rel: LinearRelation, lam, report: SpectrumReport | None = None) -> np.ndarray:
    """Matrix of (A - lam)^{-1}; for lam = INF the matrix of A itself."""
    lam = as_point(lam)
    report = spectrum(rel) if report is None else report
    if not in_resolvent_set(rel, lam, report):
        raise NotInResolventSetError(f"{lam} is not in the resolvent set")
    if is_inf(lam):
        return rel.operator_matrix()
    return rel.moebius(MoebiusMap.resolvent_map(complex(lam))).operator_matrix()


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
