"""Polynomials and rational functions with the bookkeeping the calculus needs.

Coefficients are stored in ascending order.  Rational functions are kept
normalized: numerator and denominator coprime (common roots cancelled by
clustering) and the denominator monic.  Poles and zeros at the point infinity
are derived from the degree gap, and Taylor jets at infinity are jets of
``z -> r(1/z)`` at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import (
    InconsistencyError,
    JetAtPoleError,
    SingularMoebiusError,
    ValidationError,
)
from .relations import INF, MoebiusMap, Point, as_point, is_inf, require_finite
from .tolerances import (COEFF_TRIM_TOL, JET_ZERO_TOL, POLE_SEPARATION_TOL, PRINCIPAL_PART_TOL, REALNESS_TOL,
                         ROOT_CLUSTER_TOL)


def _trim(coeffs) -> np.ndarray:
    """Drop exactly-zero leading coefficients; zero the lower ones negligible against the largest."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
    require_finite(c, "polynomial coefficients")
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        return np.zeros(1, dtype=complex)
    c = c[: nonzero[-1] + 1].copy()
    lower = c[:-1]
    lower[np.abs(lower) <= COEFF_TRIM_TOL * float(np.max(np.abs(c)))] = 0.0
    return c


def _cancel(a: np.ndarray, b: np.ndarray, sign: float) -> np.ndarray:
    """a + sign * b, coefficients below COEFF_TRIM_TOL times the larger operand one of their power zeroed."""
    a, b = (np.pad(c, (0, max(a.size, b.size) - c.size)) for c in (a, b))
    out = a + sign * b
    out[np.abs(out) <= COEFF_TRIM_TOL * np.maximum(np.abs(a), np.abs(b))] = 0.0
    return out


def _cluster_members(values, tol: float) -> list[tuple[complex, list[int]]]:
    """Greedy clustering; returns (running mean, member indices) per group.

    Values are visited in (real, imaginary) order, and each joins the first
    group whose mean lies within tol * max(1, |mean|).  Groups come out
    sorted by mean, members in visiting order.
    """
    vals = [complex(v) for v in values]
    centers: list[complex] = []
    members: list[list[int]] = []
    for k in sorted(range(len(vals)), key=lambda k: (vals[k].real, vals[k].imag)):
        v = vals[k]
        for i, c in enumerate(centers):
            if abs(v - c) <= tol * max(1.0, abs(c)):
                members[i].append(k)
                centers[i] = sum(vals[j] for j in members[i]) / len(members[i])
                break
        else:
            centers.append(v)
            members.append([k])
    out = list(zip(centers, members))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def cluster_values(values, tol: float) -> list[tuple[complex, int]]:
    """Greedy clustering of complex values into (center, count) groups.

    The radius scales with |center| so large roots cluster sensibly.  Order of
    the result is deterministic (sorted by real part, then imaginary part).
    """
    return [(c, len(m)) for c, m in _cluster_members(values, tol)]


def _taylor_shift(coeffs, w, terms: int | None = None) -> np.ndarray:
    """Taylor coefficients of t -> p(w + t) at a point w or an array of points.

    Repeated synthetic division.  For an array of points, row k holds
    coefficient k at every point; a single point keeps to Python complex
    arithmetic.  Pass j fixes coefficient j, so ``terms`` leading
    coefficients need only that many passes (all by default).
    """
    c = [complex(a) + 0.0 * w for a in coeffs]
    n = len(c)
    for j in range(n if terms is None else min(terms, n)):
        for i in range(n - 2, j - 1, -1):
            c[i] = c[i] + w * c[i + 1]
    return np.array(c, dtype=complex)


def _series_divide(num, den, length: int) -> np.ndarray:
    """Truncated power-series quotient num/den mod t^length; den[0] != 0.

    Works along the first axis, so columns of 2-D input divide pointwise.
    """
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    out = np.zeros((length,) + den.shape[1:], dtype=complex)
    for j in range(length):
        acc = num[j] if j < num.shape[0] else 0.0
        for k in range(max(0, j - den.shape[0] + 1), j):
            acc = acc - out[k] * den[j - k]
        out[j] = acc / den[0]
    return out


class Polynomial:
    """Polynomial with ascending complex coefficients."""

    __slots__ = ("coeffs", "_clustered")

    def __init__(self, coeffs):
        self.coeffs = _trim(coeffs)
        self._clustered = None  # clustered_roots(), computed on first use

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([0.0])

    @classmethod
    def one(cls) -> "Polynomial":
        return cls([1.0])

    @classmethod
    def from_roots(cls, roots, leading: complex = 1.0) -> "Polynomial":
        roots = list(roots)
        c = npp.polyfromroots(roots) if roots else np.array([1.0])
        return cls(np.asarray(c, dtype=complex) * leading)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return -1 if self.is_zero else self.coeffs.size - 1

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[-1])

    def __call__(self, z: complex) -> complex:
        return complex(npp.polyval(complex(z), self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(_cancel(self.coeffs, other.coeffs, 1.0))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(_cancel(self.coeffs, other.coeffs, -1.0))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return Polynomial(npp.polymul(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ValidationError("polynomial division by zero")
        quo, rem = npp.polydiv(self.coeffs, other.coeffs)
        return Polynomial(quo), Polynomial(rem)

    def _divided(self, c: complex) -> "Polynomial":
        """self / c for a nonzero scalar c; the roots, and so the cached clusters, carry over."""
        out = Polynomial(self.coeffs / c)
        out._clustered = self._clustered
        return out

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial.zero()
        return Polynomial(npp.polyder(self.coeffs))

    def conj_reflect(self) -> "Polynomial":
        """Coefficient-wise conjugate; realizes p -> conj(p(conj z))."""
        return Polynomial(np.conj(self.coeffs))

    def shifted(self, w: complex) -> np.ndarray:
        """Coefficients of t -> p(w + t), i.e. the full Taylor jet at w."""
        return _taylor_shift(self.coeffs, complex(w))

    def reversed_coeffs(self) -> np.ndarray:
        """Coefficients of z^deg * p(1/z)."""
        return self.coeffs[::-1].copy()

    def roots(self) -> np.ndarray:
        if self.degree < 1:
            return np.zeros(0, dtype=complex)
        # roots are scale invariant; renormalize by an exact power of two so
        # subnormal or huge coefficients cannot poison the companion matrix
        # (complex division by a subnormal scalar yields nan in numpy)
        exp = int(np.floor(np.log2(float(np.max(np.abs(self.coeffs))))))
        c = np.ldexp(self.coeffs.real, -exp) + 1j * np.ldexp(self.coeffs.imag, -exp)
        return np.asarray(npp.polyroots(c), dtype=complex)

    def _jet_validates(self, center: complex, mult: int) -> bool:
        jet = self.shifted(center)
        scale = float(np.max(np.abs(jet))) or 1.0
        return all(abs(jet[j]) <= JET_ZERO_TOL * scale for j in range(mult))

    def clustered_roots(self) -> list[tuple[complex, int]]:
        """Roots grouped into (center, multiplicity) pairs.

        An m-fold root scatters its numerical approximations over a disc of
        radius about eps^(1/m) relative to its magnitude, so grouping starts
        at a radius wide enough for that signature (an eight-fold root
        scatters about 0.01 relative) and descends.  A group counts as one
        multiple root only when its spread fits the signature and the
        derivative jet at the mean vanishes through order m - 1; otherwise
        it is regrouped at a tighter radius, and groups still failing at the
        base radius ROOT_CLUSTER_TOL decay into singletons.

        The result is computed once per polynomial.
        """
        if self._clustered is not None:
            return list(self._clustered)
        eps = float(np.finfo(float).eps)
        out: list[tuple[complex, int]] = []
        work: list[tuple[float, list[complex]]] = [(0.05, list(self.roots()))]
        while work:
            radius, vals = work.pop()
            for center, idx in _cluster_members(vals, radius):
                members = [vals[i] for i in idx]
                m = len(members)
                if m == 1:
                    out.append((center, 1))
                    continue
                spread = max(abs(r - center) for r in members)
                if spread <= 8.0 * eps ** (1.0 / m) * max(1.0, abs(center)) and self._jet_validates(center, m):
                    out.append((center, m))
                elif radius > ROOT_CLUSTER_TOL:
                    work.append((max(radius / 16.0, ROOT_CLUSTER_TOL), members))
                else:
                    out.extend((complex(r), 1) for r in members)
        out.sort(key=lambda t: (t[0].real, t[0].imag))
        self._clustered = tuple(out)
        return out

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


@dataclass(frozen=True)
class PartialFractions:
    """r = poly + sum of coeff / (z - pole)^order terms."""

    poly: Polynomial
    terms: tuple[tuple[complex, int, complex], ...]  # (pole, order, coeff)

    def __call__(self, z: complex) -> complex:
        val = self.poly(z)
        for pole, order, coeff in self.terms:
            val += coeff / (z - pole) ** order
        return complex(val)


class RationalFunction:
    """Quotient of polynomials, normalized coprime with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = Polynomial([1.0]) if den is None else (den if isinstance(den, Polynomial) else Polynomial(den))
        if den.is_zero:
            raise ValidationError("rational function with zero denominator")
        num, den = self._normalize(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _normalize(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
        if num.is_zero:
            return Polynomial.zero(), Polynomial.one()
        if den.degree >= 1 and num.degree >= 1:
            nroots = num.clustered_roots()
            droots = den.clustered_roots()
            cancelled = False
            kept_n = []
            for nc, nm in nroots:
                for i, (dc, dm) in enumerate(droots):
                    if dm > 0 and abs(nc - dc) <= ROOT_CLUSTER_TOL * max(1.0, abs(dc)):
                        k = min(nm, dm)
                        nm -= k
                        droots[i] = (dc, dm - k)
                        cancelled = True
                        break
                if nm > 0:
                    kept_n.append((nc, nm))
            if cancelled:
                num = Polynomial.from_roots(
                    [c for c, m in kept_n for _ in range(m)], leading=num.leading
                )
                den = Polynomial.from_roots(
                    [c for c, m in droots for _ in range(m)], leading=den.leading
                )
        lead = den.leading
        return num._divided(lead), den._divided(lead)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, z) -> complex | Point:
        """Evaluate; z may be the point infinity, and poles return infinity."""
        z = as_point(z)
        dn, dd = self.num.degree, self.den.degree
        if is_inf(z):
            if self.is_zero or dn < dd:
                return 0.0 + 0.0j
            if dn == dd:
                return complex(self.num.leading / self.den.leading)
            return INF
        vden = self.den(z)
        vnum = self.num(z)
        if abs(vden) == 0.0:
            return INF
        return complex(vnum / vden)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ValidationError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, Polynomial):
            return RationalFunction(x)
        return RationalFunction(Polynomial([complex(x)]))

    # -- structure -------------------------------------------------------

    def sharp(self) -> "RationalFunction":
        """The function z -> conj(r(conj z)); fixed points are the real ones."""
        return RationalFunction(self.num.conj_reflect(), self.den.conj_reflect())

    def is_real(self) -> bool:
        scale = max(self.num.max_abs_coeff(), self.den.max_abs_coeff(), 1.0)
        im = max(
            float(np.max(np.abs(self.num.coeffs.imag))),
            float(np.max(np.abs(self.den.coeffs.imag))),
        )
        return im <= REALNESS_TOL * scale

    def poles(self) -> list[tuple[Point, int]]:
        """Clustered poles including infinity when numerator degree wins."""
        out: list[tuple[Point, int]] = list(self.den.clustered_roots())
        gap = self.num.degree - self.den.degree
        if not self.is_zero and gap > 0:
            out.append((INF, gap))
        return out

    def zeros(self) -> list[tuple[Point, int]]:
        if self.is_zero:
            raise ValidationError("zeros of the zero rational function")
        out: list[tuple[Point, int]] = list(self.num.clustered_roots())
        gap = self.den.degree - self.num.degree
        if gap > 0:
            out.append((INF, gap))
        return out

    def zero_degree_at(self, w) -> int:
        """Multiplicity of w as a zero (0 when r(w) != 0); w may be infinity."""
        return self._zero_degrees([w])[0]

    def _zero_degrees(self, points) -> list[int]:
        """zero_degree_at for every point, from one distance matrix.

        A finite point takes the multiplicity of the first root cluster
        within ROOT_CLUSTER_TOL * max(1, |center|) of it.
        """
        if self.is_zero:
            raise ValidationError("zero degree of the zero rational function")
        points = [as_point(w) for w in points]
        gap = max(0, self.den.degree - self.num.degree)
        out = [gap if is_inf(w) else 0 for w in points]
        roots = self.num.clustered_roots()
        finite = [k for k, w in enumerate(points) if not is_inf(w)]
        if roots and finite:
            centers = np.array([c for c, _ in roots], dtype=complex)
            mults = np.array([m for _, m in roots])
            z = np.array([points[k] for k in finite], dtype=complex)
            hit = np.abs(z[:, None] - centers[None, :]) <= ROOT_CLUSTER_TOL * np.maximum(1.0, np.abs(centers))
            degrees = np.where(hit.any(axis=1), mults[np.argmax(hit, axis=1)], 0)
            for k, d in zip(finite, degrees.tolist()):
                out[k] = d
        return out

    def jet_at(self, w, order: int) -> np.ndarray:
        """Taylor jet (f(w), f'(w)/1!, ..., f^(order)(w)/order!).

        At infinity this is the jet of z -> r(1/z) at zero.  Raises when w is
        a pole.
        """
        w = as_point(w)
        length = order + 1
        if is_inf(w):
            dn, dd = max(self.num.degree, 0), max(self.den.degree, 0)
            big = max(dn, dd)
            gnum = np.concatenate([np.zeros(big - dn, dtype=complex), self.num.reversed_coeffs()])
            gden = np.concatenate([np.zeros(big - dd, dtype=complex), self.den.reversed_coeffs()])
            if abs(gden[0]) <= COEFF_TRIM_TOL * max(np.max(np.abs(gden)), 1.0):
                raise JetAtPoleError("jet requested at the pole infinity")
            return _series_divide(gnum, gden, length)
        return self._jet_table(complex(w), length)

    def _jet_table(self, w, length: int) -> np.ndarray:
        """Taylor jets through entry length - 1 at a finite point w, or at an
        array of them with one column each."""
        dshift = _taylor_shift(self.den.coeffs, w)
        pole = np.abs(dshift[0]) <= COEFF_TRIM_TOL * np.maximum(np.max(np.abs(dshift), axis=0), 1.0)
        if np.any(pole):
            raise JetAtPoleError(f"jet requested at pole {complex(np.ravel(w)[np.argmax(pole)])}")
        return _series_divide(_taylor_shift(self.num.coeffs, w, length), dshift, length)

    def partial_fractions(self) -> PartialFractions:
        """Polynomial part plus principal parts at the clustered poles, all at once.

        With w = num mod den, the principal part at a pole alpha_k of order
        nu_k is the jet of w / v_k there, v_k = prod_{i != k} (z - alpha_i)^nu_i.
        Column k of one table holds the jet of v_k at alpha_k, grown from the
        root differences alpha_k - alpha_i; one Taylor shift gives w's jets.
        """
        p, w = self.num.divmod(self.den)
        if self.den.degree < 1:
            return PartialFractions(p, ())
        alpha, nu = (np.array(v) for v in zip(*self.den.clustered_roots()))
        # factor i of column k is alpha_k - alpha_i + t (1 for i = k); row 0 stays zero
        const = alpha[:, None] - alpha + np.eye(alpha.size)
        slope = 1.0 - np.eye(alpha.size)
        table = np.zeros((self.den.degree + 2, alpha.size), dtype=complex)
        table[1] = 1.0
        for i in np.repeat(np.arange(alpha.size), nu):
            table[1:] = const[:, i] * table[1:] + slope[:, i] * table[:-1]
        cofactor = table[1:]
        if (np.abs(cofactor[0]) <= POLE_SEPARATION_TOL * np.maximum(np.abs(cofactor).max(axis=0), 1.0)).any():
            raise InconsistencyError("pole clusters of the denominator overlap")
        order = int(nu.max())
        t = _series_divide(_taylor_shift(w.coeffs, alpha, order)[:order], cofactor, order)
        t[np.arange(order)[:, None] >= nu] = 0.0  # column k keeps its nu_k entries
        if (np.abs(t[0]) <= PRINCIPAL_PART_TOL * np.maximum(np.abs(t).max(axis=0), 1.0)).any():
            raise InconsistencyError("leading principal-part coefficient vanished; numerator and "
                                     "denominator were not coprime after normalization")
        terms = tuple((a, j, jet[m - j]) for a, m, jet in zip(alpha.tolist(), nu.tolist(), t.T.tolist())
                      for j in range(1, m + 1))
        return PartialFractions(p, terms)

    def compose_moebius(self, moebius: MoebiusMap) -> "RationalFunction":
        """The composition z -> r((a z + b) / (c z + d)).

        Clears denominators exactly at coefficient level; requires the Möbius
        matrix to be regular.
        """
        if not moebius.is_regular():
            raise SingularMoebiusError("Möbius matrix is numerically singular")
        top = Polynomial([moebius.b, moebius.a])
        bot = Polynomial([moebius.d, moebius.c])
        big = max(max(self.num.degree, 0), max(self.den.degree, 0))

        def expand(poly: Polynomial) -> Polynomial:
            total = Polynomial.zero()
            ppow = Polynomial.one()   # top^i, built incrementally
            for i in range(max(poly.degree, 0) + 1):
                qpow = Polynomial.one()
                for _ in range(big - i):
                    qpow = qpow * bot
                total = total + complex(poly.coeffs[i]) * (ppow * qpow)
                ppow = ppow * top
            return total

        return RationalFunction(expand(self.num), expand(self.den))

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self) -> str:
        return f"RationalFunction({self.num.coeffs.tolist()}, {self.den.coeffs.tolist()})"
