"""Polynomials and rational functions with the bookkeeping the calculus needs.

Coefficients are stored in ascending order.  Rational functions are kept
normalized: numerator and denominator coprime (common roots cancelled by
clustering) and the denominator monic.  Poles and zeros at the point infinity
are derived from the degree gap, and Taylor jets at infinity are jets of
``z -> r(1/z)`` at zero.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import (
    InconsistencyError,
    JetAtPoleError,
    SingularMoebiusError,
    ValidationError,
)
from .relations import INF, MoebiusMap, Point, as_point, is_inf, require_finite
from .tolerances import COEFF_TRIM_TOL, JET_ZERO_TOL, REALNESS_TOL, ROOT_CLUSTER_TOL


def _trim(coeffs) -> np.ndarray:
    """The coefficients as given, less their exactly-zero leading ones; [0] when none is left.  Each modulus must
    be finite: Python's abs raises on a complex whose modulus passes the float range."""
    c = np.array(coeffs, dtype=complex, ndmin=1).ravel()
    mags = np.abs(c).tolist()
    if not math.isfinite(sum(mags)):  # a NaN or infinite part or modulus, or moduli too large to add
        require_finite(mags, "polynomial coefficients and their moduli")
    while mags and mags[-1] == 0.0:
        mags.pop()
    return c[:len(mags)] if mags else np.zeros(1, dtype=complex)


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
    radii: list[float] = []  # tol * max(1, |mean|) of each group
    members: list[list[int]] = []
    for k in sorted(range(len(vals)), key=lambda k: (vals[k].real, vals[k].imag)):
        v = vals[k]
        for i, c in enumerate(centers):
            if abs(v - c) <= radii[i]:
                members[i].append(k)
                centers[i] = c = sum(vals[j] for j in members[i]) / len(members[i])
                radii[i] = tol * max(1.0, abs(c))
                break
        else:
            centers.append(v)
            radii.append(tol * max(1.0, abs(v)))
            members.append([k])
    out = list(zip(centers, members))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _taylor_shift(coeffs: list, w: complex) -> list:
    """Taylor coefficients of t -> p(w + t), by repeated synthetic division in Python complex arithmetic."""
    c = list(coeffs)
    for j in range(len(c)):
        for i in range(len(c) - 2, j - 1, -1):
            c[i] += w * c[i + 1]
    return c


def _horner(coeffs: list, w: complex) -> complex:
    """p(w) by the first pass of _taylor_shift, so the same bits as its entry 0."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + w * acc
    return acc


def _clears(value: complex, mags: list, r: float, rho: float) -> bool:
    """Whether _zero_order at COEFF_TRIM_TOL provably reads 0 at w, r = |w|, rho = max(1, r), for p of coefficient
    moduli mags and value = p(w), with no shift: each |jet_k| rho^(k - deg) is at most rho^-deg sum_j |c_j|
    (|w| + rho)^j, and abs(value) rho^-deg, the first bit for bit, is finite and above twice the cut of that
    bound, a normal float, which no rounding of the entries can undo (below the normal range a product can round
    to a lower magnitude)."""
    scale = rho ** (1 - len(mags))
    return sys.float_info.min <= 2.0 * COEFF_TRIM_TOL * (_horner(mags, r + rho) * scale) < abs(value) * scale < math.inf


def _series_divide(num, den, length: int) -> list:
    """Truncated power-series quotient num/den mod t^length; den[0] != 0."""
    out: list = []
    for j in range(length):
        acc = num[j] if j < len(num) else 0.0
        for k in range(max(0, j - len(den) + 1), j):
            acc = acc - out[k] * den[j - k]
        out.append(acc / den[0])
    return out


def _zero_order(coeffs: list | None, jet: list, w: complex, tol: float) -> int:
    """The order of w as a zero of p, from p's coefficients and jet = _taylor_shift(coeffs, w): how many leading
    coefficients of t -> p(w + rho t) / rho^deg, rho = max(1, |w|), jet[k] rho^(k - deg), are at most tol times
    the largest.  The one rule for every Taylor entry that may be negligible: q's zeros and poles, and the two
    checks of partial_fractions, at COEFF_TRIM_TOL; a multiple root of clustered_roots at JET_ZERO_TOL.

    Where one passes the float range, they are the shift to w / rho of c_j rho^(j - deg) times the power of two
    that brings the largest |c_j| below 1, which moves no cut and keeps the shift in range; without coeffs (a
    cofactor given by its poles) that is a ValidationError."""
    rho, deg = max(1.0, abs(w)), len(jet) - 1
    try:
        mags = [abs(c) * rho ** (k - deg) for k, c in enumerate(jet)]
    except OverflowError:  # Python's abs of a finite complex whose modulus passes the float range
        mags = [math.inf]
    if not all(map(math.isfinite, mags)):
        if coeffs is None:
            raise ValidationError(f"the Taylor coefficients at {w} pass the float range")
        unit = 2.0 ** -math.frexp(max(map(abs, coeffs)))[1]
        mags = [abs(c) for c in _taylor_shift([c * rho ** (j - deg) * unit for j, c in enumerate(coeffs)], w / rho)]
    cut = tol * max(mags)
    for k, m in enumerate(mags):
        if m > cut:
            return k
    return 0  # all zero


def _cofactor_jet(poles: list, k: int, length: int) -> list:
    """Taylor coefficients at alpha_k of v_k = prod_{i != k} (z - alpha_i)^nu_i through entry length - 1, a
    product of factors alpha_k - alpha_i + t; each factor updates the entries up to the degree so far."""
    alpha, jet, top = poles[k][0], [1.0] + [0j] * (length - 1), 0
    for i, (other, nu) in enumerate(poles):
        c = alpha - other
        for _ in range(nu if i != k else 0):
            top = min(top + 1, length - 1)
            for j in range(top, 0, -1):
                jet[j] = c * jet[j] + jet[j - 1]
            jet[0] *= c
    return jet


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

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ValidationError("polynomial division by zero")
        num, den = self.coeffs.tolist(), other.coeffs.tolist()  # synthetic division
        rem, quo, d = list(num), [0j] * max(len(num) - len(den) + 1, 1), len(den) - 1
        for k in range(len(num) - 1 - d, -1, -1):
            t = quo[k] = rem[k + d] / den[-1]
            for i in range(d):
                rem[k + i] -= t * den[i]
        return Polynomial(quo), Polynomial(rem[:d] or [0j])

    def _divided(self, c: complex) -> "Polynomial":
        """self / c for a nonzero scalar c; the roots, and so the cached clusters, carry over."""
        out = Polynomial.__new__(Polynomial)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected by _trim below
            out.coeffs = self.coeffs / c  # leading coefficient nonzero, unless the division over- or underflows
        if out.coeffs[-1] == 0.0 or not np.isfinite(np.abs(out.coeffs)).all():  # a modulus, too, may overflow
            out.coeffs = _trim(out.coeffs)
        out._clustered = self._clustered
        return out

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial.zero()
        return Polynomial(npp.polyder(self.coeffs))

    def conj_reflect(self) -> "Polynomial":
        """Coefficient-wise conjugate; realizes p -> conj(p(conj z))."""
        return Polynomial(np.conj(self.coeffs))

    def roots(self) -> np.ndarray:
        if self.degree < 1:
            return np.zeros(0, dtype=complex)
        # an exact power-of-two scale keeps subnormal or huge coefficients out of the companion matrix (complex
        # division by a subnormal scalar yields nan in numpy) and leaves its c[:-1] / c[-1], so the roots, as they are
        exp = math.frexp(max(map(abs, self.coeffs.tolist())))[1]
        c = np.ldexp(self.coeffs.real, -exp) + 1j * np.ldexp(self.coeffs.imag, -exp)
        # where the leading coefficient is far below the largest, c[:-1] / c[-1] overflows and eig refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return np.asarray(npp.polyroots(c), dtype=complex)
            except np.linalg.LinAlgError as exc:
                raise ValidationError("polynomial coefficients span more than the float range") from exc

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
        eps = math.ulp(1.0)
        out: list[tuple[complex, int]] = []
        work: list[tuple[float, list[complex]]] = [(0.05, self.roots().tolist())]
        while work:
            radius, vals = work.pop()
            for center, idx in _cluster_members(vals, radius):
                members = [vals[i] for i in idx]
                m = len(members)
                if m == 1:
                    out.append((center, 1))
                    continue
                spread, coeffs = max(abs(r - center) for r in members), self.coeffs.tolist()
                if spread <= 8.0 * eps ** (1.0 / m) * max(1.0, abs(center)) \
                        and _zero_order(coeffs, _taylor_shift(coeffs, center), center, JET_ZERO_TOL) >= m:
                    out.append((center, m))
                elif radius > ROOT_CLUSTER_TOL:
                    work.append((max(radius / 16.0, ROOT_CLUSTER_TOL), members))
                else:
                    out.extend((complex(r), 1) for r in members)
        out.sort(key=lambda t: (t[0].real, t[0].imag))
        self._clustered = tuple(out)
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


class PartialFractions:
    """r = poly + sum of coeff / (z - pole)^order terms."""

    def __init__(self, poly: Polynomial, terms: tuple[tuple[complex, int, complex], ...]):  # (pole, order, coeff)
        self.poly, self.terms = poly, terms

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
        self.num, self.den = self._normalize(num, den)

    @staticmethod
    def _normalize(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
        if num.is_zero:
            return Polynomial.zero(), Polynomial.one()
        if den.degree >= 1 and num.degree >= 1:
            nroots, droots, cancelled, kept_n = num.clustered_roots(), den.clustered_roots(), False, []
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
                num = Polynomial.from_roots([c for c, m in kept_n for _ in range(m)], leading=num.leading)
                den = Polynomial.from_roots([c for c, m in droots for _ in range(m)], leading=den.leading)
        return num._divided(den.leading), den._divided(den.leading)

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

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    # -- structure -------------------------------------------------------

    def sharp(self) -> "RationalFunction":
        """The function z -> conj(r(conj z)); fixed points are the real ones."""
        return RationalFunction(self.num.conj_reflect(), self.den.conj_reflect())

    def is_real(self) -> bool:
        coeffs = self.num.coeffs.tolist() + self.den.coeffs.tolist()
        return max(abs(c.imag) for c in coeffs) <= REALNESS_TOL * max(max(map(abs, coeffs)), 1.0)

    def poles(self) -> list[tuple[Point, int]]:
        """Clustered poles including infinity when numerator degree wins."""
        out: list[tuple[Point, int]] = list(self.den.clustered_roots())
        gap = self.num.degree - self.den.degree
        if not self.is_zero and gap > 0:
            out.append((INF, gap))
        return out

    def zero_degree_at(self, w) -> int:
        """Multiplicity of w as a zero (0 when r(w) != 0); w may be infinity."""
        w = as_point(w)
        if self.is_zero:
            raise ValidationError("zero degree of the zero rational function")
        if is_inf(w):
            return max(0, self.den.degree - self.num.degree)
        num = self.num.coeffs.tolist()
        return _zero_order(num, _taylor_shift(num, w), w, COEFF_TRIM_TOL)

    def jet_at(self, w, order: int) -> np.ndarray:
        """Taylor jet (f(w), f'(w)/1!, ..., f^(order)(w)/order!).

        At infinity this is the jet of z -> r(1/z) at zero.  Raises when w is
        a pole.
        """
        return np.array(self._jets([as_point(w)], [order + 1])[1], dtype=complex)

    def _jets(self, points, lengths=None) -> tuple[list, list]:
        """zero_degree_at and jet_at at points (complex or INF): the orders d(w), and end to end the k-th jet
        through entry lengths[k] - 1 (through d(w) without lengths).  num and den are shifted in full, once a point:
        w is a pole where _zero_order of den's shift is positive, and d(w) is _zero_order of num's.  At infinity
        both are read from the degree gap, and num and den are reversed, the shorter padded.

        Where one entry is asked for (d(w) = 0 without lengths), num(w) and den(w) come first, by _horner (the
        first pass of _taylor_shift, so the same bits), and the shifts only where _clears cannot prove d(w) = 0
        and no pole; den's order is not read again where its bound cleared."""
        num, den, orders, out = self.num.coeffs.tolist(), self.den.coeffs.tolist(), [], []
        num_mags, den_mags = list(map(abs, num)), list(map(abs, den))
        for k, w in enumerate(points):
            if is_inf(w):
                if self.num.degree > self.den.degree:
                    raise JetAtPoleError("jet requested at the pole infinity")
                order = max(0, self.den.degree - self.num.degree)
                top, bottom = num[::-1], den[::-1]
                top, bottom = ([0j] * (max(len(top), len(bottom)) - len(c)) + c for c in (top, bottom))
            else:
                pole_free = False
                if lengths is None or lengths[k] == 1:
                    value, pole, r = _horner(num, w), _horner(den, w), abs(w)
                    rho = max(1.0, r)
                    pole_free = _clears(pole, den_mags, r, rho)
                    if pole_free and _clears(value, num_mags, r, rho):
                        orders.append(0)
                        out.append(value / pole)
                        continue
                top, bottom = _taylor_shift(num, w), _taylor_shift(den, w)
                if not pole_free and _zero_order(den, bottom, w, COEFF_TRIM_TOL):
                    raise JetAtPoleError(f"jet requested at pole {w}")
                order = _zero_order(num, top, w, COEFF_TRIM_TOL)
            orders.append(order)
            out += _series_divide(top, bottom, order + 1 if lengths is None else lengths[k])
        return orders, out

    def partial_fractions(self) -> PartialFractions:
        """Polynomial part plus principal parts at the clustered poles.

        With w = num mod den, the principal part at a pole alpha_k of order nu_k is the jet of w / v_k there
        through entry nu_k - 1, v_k = prod_{i != k} (z - alpha_i)^nu_i (_cofactor_jet).  The overlap test takes
        v_k's full jet, of degree + 1 - nu_k entries, at every pole before any principal part is formed: pole
        clusters overlap where alpha_k is a zero of v_k, and a principal part vanishes where it is one of w
        (_zero_order).
        """
        p, w = self.num.divmod(self.den)
        poles = self.den.clustered_roots()
        cofactors = [_cofactor_jet(poles, k, max(nu, self.den.degree + 1 - nu)) for k, (_, nu) in enumerate(poles)]
        if any(_zero_order(None, jet, alpha, COEFF_TRIM_TOL) for (alpha, _), jet in zip(poles, cofactors)):
            raise InconsistencyError("pole clusters of the denominator overlap")
        rem, terms = w.coeffs.tolist(), []
        for (alpha, nu), jet in zip(poles, cofactors):
            shift = _taylor_shift(rem, alpha)
            if w.is_zero or _zero_order(rem, shift, alpha, COEFF_TRIM_TOL):
                raise InconsistencyError("leading principal-part coefficient vanished; numerator and "
                                         "denominator were not coprime after normalization")
            t = _series_divide(shift, jet, nu)
            terms += [(alpha, j, t[nu - j]) for j in range(1, nu + 1)]
        return PartialFractions(p, tuple(terms))

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
