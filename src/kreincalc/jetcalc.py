"""Jet-valued functions on the spectrum and the functional calculus.

At a spectral point w where the definitizing function q has a zero of degree
d, function values are truncated Taylor jets of length d + 1 (scalars where
d = 0), multiplied by truncated convolution.  Every such jet function phi
splits as phi = s + g * q along the spectrum with s rational and g scalar;
the calculus evaluates phi on the relation as

    phi(A) = s(A) + T (sum of g at the measure's atoms) T^+

using the Gram factorization q(A) = T T^+.  The result does not depend on
the choice of decomposition.

The rational part s is the Hermite interpolant of phi's jet entries below
the top one at the critical points, held in pole-residue form

    s = b_0 + b_1 (z - mu)^(-1) + ... + b_(m-1) (z - mu)^(-(m-1))

with m the total critical degree and mu a base point in the resolvent set.
The basis jets have closed forms, so the decomposition finds no roots, and
s(A) is a Horner sum in R = (A - mu)^(-1).  The base point mu = INF stands
for the polynomial basis z^j, with R = A; it needs a bounded relation.
Everything that does not depend on phi (the base point, the critical
points, the basis and q jets at every spectral point, the interpolation
matrix and R) is a plan built once per pair and base point and cached on
the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistencyError,
    JetNotInvertibleError,
    NotBoundedError,
    PointNotInSpectrumError,
    PoleMeetsSpectrumError,
    ValidationError,
)
from .krein import DefinitizablePair, Factorization
from .rational import Polynomial, RationalFunction
from .relations import INF, as_point, conj_point, is_inf, point_sort_key
# rational_apply is unused here but stays a module attribute: the tracing
# test in bench/test_bench.py checks that this binding is wrapped
from .spectral import rational_apply, resolvent_at  # noqa: F401
from .tolerances import (BASE_POINT_CLEARANCE, BASE_POINT_TOL, IDENTITY_TOL, JET_INVERT_TOL, JET_ZERO_TOL,
                         KERNEL_VALUE_TOL, ROUNDOFF_TOL)

# -- jet arithmetic ---------------------------------------------------------


def jet_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated convolution; both jets must have the same length."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValidationError("jet lengths differ")
    return np.convolve(a, b)[: a.size]


def jet_invert(a: np.ndarray) -> np.ndarray:
    """Convolution inverse; exists iff the leading entry is nonzero."""
    a = np.asarray(a, dtype=complex).ravel()
    scale = max(1.0, float(np.max(np.abs(a))))
    if abs(a[0]) <= JET_INVERT_TOL * scale:
        raise JetNotInvertibleError("jet has (numerically) vanishing leading entry")
    out = np.zeros(a.size, dtype=complex)
    out[0] = 1.0 / a[0]
    for j in range(1, a.size):
        out[j] = -sum(out[k] * a[j - k] for k in range(j)) / a[0]
    return out


def jet_one(length: int) -> np.ndarray:
    out = np.zeros(length, dtype=complex)
    out[0] = 1.0
    return out


class JetFunction:
    """A map from the spectral points of a pair to jets of the right lengths."""

    __slots__ = ("pair", "values")

    def __init__(self, pair: DefinitizablePair, values: dict):
        self.pair = pair
        cleaned: dict = {}
        for w in pair.points:
            if w not in values:
                raise ValidationError(f"missing value at spectral point {w}")
            v = np.asarray(values[w], dtype=complex).ravel()
            if v.size != pair.degrees[w] + 1:
                raise ValidationError(
                    f"jet at {w} must have length {pair.degrees[w] + 1}, got {v.size}"
                )
            cleaned[w] = v
        self.values = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, pair: DefinitizablePair) -> "JetFunction":
        return cls(pair, {w: np.zeros(pair.degrees[w] + 1, dtype=complex) for w in pair.points})

    @classmethod
    def one(cls, pair: DefinitizablePair) -> "JetFunction":
        return cls(pair, {w: jet_one(pair.degrees[w] + 1) for w in pair.points})

    @classmethod
    def from_points(cls, pair: DefinitizablePair, mapping: dict) -> "JetFunction":
        """Build from user-labelled points, matched against the spectrum."""
        values: dict = {}
        for label, entries in mapping.items():
            values[pair.resolve(label)] = entries
        return cls(pair, values)

    # -- algebra -------------------------------------------------------------

    def _binary(self, other: "JetFunction", op) -> "JetFunction":
        if other.pair is not self.pair and other.pair.points != self.pair.points:
            raise ValidationError("jet functions live on different pairs")
        return JetFunction(self.pair, {w: op(self.values[w], other.values[w]) for w in self.pair.points})

    def __add__(self, other: "JetFunction") -> "JetFunction":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: "JetFunction") -> "JetFunction":
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other) -> "JetFunction":
        if isinstance(other, JetFunction):
            return self._binary(other, jet_multiply)
        c = complex(other)
        return JetFunction(self.pair, {w: c * v for w, v in self.values.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "JetFunction":
        return self * (-1.0)

    def invert(self) -> "JetFunction":
        return JetFunction(self.pair, {w: jet_invert(v) for w, v in self.values.items()})

    def sharp(self) -> "JetFunction":
        """phi^#(w) = conj(phi(conj w)); the spectrum is conjugation symmetric."""
        values: dict = {}
        for w in self.pair.points:
            mate = self.pair.resolve(conj_point(w))
            values[w] = np.conj(self.values[mate])
        return JetFunction(self.pair, values)

    def pi1(self) -> dict:
        """First (scalar) component at every spectral point."""
        return {w: complex(v[0]) for w, v in self.values.items()}

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.values.values())

    def __repr__(self) -> str:
        parts = ", ".join(f"{w}: {v.tolist()}" for w, v in sorted(self.values.items(), key=lambda t: point_sort_key(t[0])))
        return f"JetFunction({parts})"


def embed_rational(pair: DefinitizablePair, func: RationalFunction) -> JetFunction:
    """Taylor jets of a rational function along the spectrum.

    The function must be holomorphic on the spectrum: no pole may come within
    matching distance of a spectral point.
    """
    for pole, _ in func.poles():
        if pair.report.contains(pole):
            raise PoleMeetsSpectrumError(f"pole {pole} meets the spectrum")
    return JetFunction(pair, {w: func.jet_at(w, pair.degrees[w]) for w in pair.points})


def q_jets(pair: DefinitizablePair) -> JetFunction:
    """The definitizing function as a jet function; lower entries vanish."""
    return embed_rational(pair, pair.q)


# -- decomposition ---------------------------------------------------------


def _basis_jets(mu, w, m: int, order: int) -> np.ndarray:
    """Taylor jets at w of the pole-residue basis (z - mu)^(-j), j < m.

    Column j holds jet entries 0..order of the j-th basis function; for
    mu = INF the basis is z^j instead.  Entry k of (z - mu)^(-j) at a finite
    w is (-1)^k C(j+k-1, k) (w - mu)^(-j-k); at INF, entry l is
    C(l-1, l-j) mu^(l-j) for l >= j >= 1; entry k of z^j is C(j, k) w^(j-k).
    """
    out = np.zeros((order + 1, m), dtype=complex)
    if m == 0:
        return out
    if is_inf(mu):
        w = complex(w)
        for j in range(m):
            for k in range(min(j, order) + 1):
                out[k, j] = math.comb(j, k) * w ** (j - k)
        return out
    out[0, 0] = 1.0
    if is_inf(w):
        for j in range(1, m):
            for k in range(j, order + 1):
                out[k, j] = math.comb(k - 1, k - j) * mu ** (k - j)
        return out
    t = 1.0 / (complex(w) - mu)
    for j in range(1, m):
        for k in range(order + 1):
            out[k, j] = (-1) ** k * math.comb(j + k - 1, k) * t ** (j + k)
    return out


class _CalculusPlan:
    """The part of the calculus on one pair that does not depend on phi.

    Holds the base point, the critical points, the basis and q jets at every
    spectral point (through entry d(w)), and the Hermite interpolation matrix
    (entries below d(w) at the critical points).  The resolvent
    R = (A - mu)^(-1) (A itself for mu = INF) is built on first use.
    """

    __slots__ = ("pair", "mu", "critical", "size", "basis", "q_jets", "matrix", "_resolvent")

    def __init__(self, pair: DefinitizablePair, mu):
        degrees = pair.degrees
        self.pair = pair
        self.mu = mu
        self.critical = pair.critical_points
        self.size = sum(degrees[w] for w in self.critical)  # total critical degree m
        self.basis = {w: _basis_jets(mu, w, self.size, degrees[w]) for w in pair.points}
        self.q_jets = {w: pair.q.jet_at(w, degrees[w]) for w in pair.points}
        rows = [self.basis[w][: degrees[w]] for w in self.critical]
        self.matrix = np.vstack(rows) if rows else np.zeros((0, 0), dtype=complex)
        self._resolvent = None

    def resolvent(self) -> np.ndarray:
        if self._resolvent is None:
            self._resolvent = resolvent_at(self.pair.relation, self.mu, self.pair.report)
        return self._resolvent


def _plan(pair: DefinitizablePair, mu) -> _CalculusPlan:
    """The pair's cached plan for base point mu (None: the default point)."""
    key = None if mu is None else as_point(mu)
    plans = pair._calculus_plans
    if key not in plans:
        point = _default_mu(pair) if key is None else key
        if pair.report.distance_to(point) <= BASE_POINT_TOL:
            raise ValidationError("base point mu must lie in the resolvent set")
        plans[key] = _CalculusPlan(pair, point)
    return plans[key]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """phi = (jets of s) + g * (jets of q) along the spectrum.

    The rational part is s = sum of coeffs[j] (z - base_point)^(-j), or of
    coeffs[j] z^j when base_point is INF.
    """

    pair: DefinitizablePair
    coeffs: np.ndarray
    g: dict
    base_point: object
    _plan: _CalculusPlan = field(repr=False)

    @property
    def s(self) -> RationalFunction:
        """The rational part as a normalized RationalFunction, built on demand."""
        if is_inf(self.base_point):
            return RationalFunction(Polynomial(self.coeffs))
        shift = Polynomial([-self.base_point, 1.0])
        num = Polynomial.zero()
        for c in self.coeffs:
            num = num * shift + Polynomial([c])
        den = Polynomial.from_roots([self.base_point] * max(self.coeffs.size - 1, 0))
        return RationalFunction(num, den)

    def assemble(self) -> JetFunction:
        plan = self._plan
        return JetFunction(self.pair, {
            w: plan.basis[w] @ self.coeffs + self.g[w] * plan.q_jets[w] for w in self.pair.points
        })


def _default_mu(pair: DefinitizablePair) -> complex:
    radius = 0.0
    for w in pair.points:
        if not is_inf(w):
            radius = max(radius, abs(complex(w)))
    for z, _ in pair.q.zeros():
        if not is_inf(z):
            radius = max(radius, abs(complex(z)))
    mu = 1j * (1.0 + radius)
    for _ in range(8):
        clear = abs(mu.imag) > BASE_POINT_CLEARANCE and all(
            is_inf(w) or abs(mu - complex(w)) > BASE_POINT_CLEARANCE for w in pair.points
        )
        if clear:
            return mu
        mu = 2.0 * mu
    return mu


def decompose(pair: DefinitizablePair, phi: JetFunction, mu=None) -> Decomposition:
    """Split phi = s + g q with s rational with a single pole at mu.

    The rational part solves the Hermite interpolation problem that matches
    the first d(w) jet entries of phi at every critical point, in the
    pole-residue basis (z - mu)^(-j), j < m, where m is the total critical
    degree; the basis jets have closed forms, so no root is found.  mu must
    lie in the resolvent set and defaults to a point on the imaginary axis
    outside the spectrum and the zeros of q.  mu = INF gives the polynomial
    basis z^j and needs a bounded relation.  g is then the quotient
    (phi - s)/q, with the limit value at each critical point.

    Everything that does not depend on phi is a plan built on the first call
    for the pair and mu and cached on the pair.
    """
    if phi.pair is not pair and phi.pair.points != pair.points:
        raise ValidationError("jet function does not belong to this pair")
    plan = _plan(pair, mu)
    vec = np.array([phi.values[w][j] for w in plan.critical for j in range(pair.degrees[w])], dtype=complex)
    if vec.size == 0 or float(np.max(np.abs(vec))) <= ROUNDOFF_TOL * max(1.0, phi.max_abs()):
        # interpolation data is pure roundoff; the exact solution is zero
        coeffs = np.zeros(plan.size, dtype=complex)
    else:
        try:
            coeffs = np.linalg.solve(plan.matrix, vec)
        except np.linalg.LinAlgError as exc:
            raise InconsistencyError("interpolation system is singular") from exc
    g: dict = {}
    for w in pair.points:
        d = pair.degrees[w]
        s_top = plan.basis[w][d] @ coeffs
        g[w] = complex((phi.values[w][d] - s_top) / plan.q_jets[w][d])
    dec = Decomposition(pair=pair, coeffs=coeffs, g=g, base_point=plan.mu, _plan=plan)
    resid = (dec.assemble() - phi).max_abs()
    if resid > IDENTITY_TOL * max(1.0, phi.max_abs()):
        raise InconsistencyError("decomposition failed to reassemble the jet function")
    return dec


def decompose_polynomial(pair: DefinitizablePair, phi: JetFunction) -> Decomposition:
    """decompose with mu = INF: a polynomial rational part; needs a bounded relation."""
    if pair.report.inf_multiplicity() > 0:
        raise NotBoundedError("polynomial decomposition needs infinity in the resolvent set")
    return decompose(pair, phi, mu=INF)


def omega_kernel_check(pair: DefinitizablePair, s: RationalFunction, g: dict) -> bool:
    """Does the pair (s, g) assemble to the zero jet function?

    Cross-validated against the closed-form criterion: zero exactly when g
    equals -(s/q) along the spectrum, with the limit value at critical
    points.
    """
    g = {pair.resolve(w): complex(v) for w, v in g.items()}
    for w in pair.points:
        if w not in g:
            raise ValidationError(f"missing g value at spectral point {w}")
    assembled = JetFunction(pair, {
        w: s.jet_at(w, pair.degrees[w]) + g[w] * pair.q.jet_at(w, pair.degrees[w]) for w in pair.points
    })
    scale = max(1.0, assembled.max_abs(), float(np.max(np.abs(s.num.coeffs))))
    direct = assembled.max_abs() <= JET_ZERO_TOL * scale
    criterion = True
    for w in pair.points:
        d = pair.degrees[w]
        s_jet = s.jet_at(w, d)
        q_jet = pair.q.jet_at(w, d)
        if d > 0 and float(np.max(np.abs(s_jet[:d]))) > JET_ZERO_TOL * scale:
            criterion = False
            break
        expected = -complex(s_jet[d]) / complex(q_jet[d])
        if abs(g[w] - expected) > KERNEL_VALUE_TOL * max(1.0, abs(expected)):
            criterion = False
            break
    if direct != criterion:
        raise InconsistencyError("kernel criterion disagrees with the direct evaluation")
    return direct


# -- the calculus -----------------------------------------------------------


def apply_calculus(fact: Factorization, phi, mu=None) -> np.ndarray:
    """Evaluate a jet function on the relation: s(A) + T (integral of g) T^+.

    phi is a JetFunction on fact.pair, or its Decomposition from decompose,
    which is then used as it is.  s(A) is the Horner sum
    b_0 + R (b_1 + R (b_2 + ...)) in R = (A - mu)^(-1).
    """
    pair = fact.pair
    if isinstance(phi, Decomposition):
        if phi.pair is not pair:
            raise ValidationError("decomposition does not belong to this pair")
        dec = phi
    else:
        dec = decompose(pair, phi, mu)
    n = pair.space.dim
    eye = np.eye(n, dtype=complex)
    s_matrix = np.zeros((n, n), dtype=complex)
    if dec.coeffs.size:
        s_matrix = dec.coeffs[-1] * eye
        for c in dec.coeffs[-2::-1]:
            s_matrix = c * eye + dec._plan.resolvent() @ s_matrix
    if fact.rank == 0:
        return s_matrix
    values = {p: dec.g[w] for (p, _), w in zip(fact.measure.atoms, fact.atom_points)}
    integral = fact.measure.integrate(values)
    return s_matrix + fact.factor @ integral @ fact.factor_adjoint


def indicator(pair: DefinitizablePair, delta) -> JetFunction:
    """Indicator jet function of a set of spectral points.

    Points of delta are matched against the spectrum; at critical points the
    jet is (1, 0, ..., 0).
    """
    resolved = set()
    for label in delta:
        try:
            resolved.add(pair.resolve(label))
        except ValidationError as exc:
            raise PointNotInSpectrumError(str(exc)) from exc
    values: dict = {}
    for w in pair.points:
        jet = np.zeros(pair.degrees[w] + 1, dtype=complex)
        if w in resolved:
            jet[0] = 1.0
        values[w] = jet
    return JetFunction(pair, values)


def spectral_projection(fact: Factorization, delta, mu=None) -> np.ndarray:
    """The calculus applied to the indicator of delta; a bounded projection."""
    proj = apply_calculus(fact, indicator(fact.pair, delta), mu)
    resid = float(np.linalg.norm(proj @ proj - proj))
    if resid > IDENTITY_TOL * max(1.0, float(np.linalg.norm(proj)) ** 2):
        raise InconsistencyError("spectral projection failed to be idempotent")
    return proj


def norm_f(phi: JetFunction) -> float:
    """Sup of |phi| off the critical points plus the sum of critical jet norms."""
    pair = phi.pair
    flat = 0.0
    jets = 0.0
    for w in pair.points:
        if pair.degrees[w] == 0:
            flat = max(flat, abs(complex(phi.values[w][0])))
        else:
            jets += float(np.max(np.abs(phi.values[w])))
    return flat + jets


def pi1_range(phi: JetFunction) -> tuple:
    """Scalar top-level values along the spectrum, in canonical point order."""
    return tuple(complex(phi.values[w][0]) for w in phi.pair.points)
