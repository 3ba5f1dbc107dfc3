"""Jet-valued functions on the spectrum and the functional calculus.

At a spectral point w where the definitizing function q has a zero of degree
d, function values are truncated Taylor jets of length d + 1 (scalars where
d = 0), multiplied by truncated convolution.  Every such jet function phi
splits as phi = s + g * q along the spectrum with s rational and g scalar;
the calculus evaluates phi on the relation as

    phi(A) = s(A) + (T V) g (V* T^+)

using the Gram factorization q(A) = T T^+ and the eigenbasis V of the
factor-space measure.  The result does not depend on the decomposition.

The rational part s is the Hermite interpolant of phi's jet entries below
the top one at the critical points, held in pole-residue form

    s = b_0 + b_1 (z - mu)^(-1) + ... + b_(m-1) (z - mu)^(-(m-1))

with m the total critical degree and mu a base point in the resolvent set.
The basis jets have closed forms, so the decomposition finds no roots, and
s(A) is a Horner sum in R = (A - mu)^(-1).  The base point mu = INF stands
for the polynomial basis z^j, with R = A; it needs a bounded relation.
Everything that does not depend on phi (the base point, the basis and q
jets at every spectral point, the interpolation matrix and R) is a plan
built once per pair and base point and cached on the pair.

The plan and the decomposition work on packed jets: the entries 0..d(w) of
each point's jet are consecutive rows, and the points follow the pair's
canonical order, so a jet function is one vector of length sum (d(w) + 1).
The basis jets are one matrix with a row per jet entry and a column per
basis function, the jets of q one vector in the same rows.  Two index
arrays pick out the top row of each point, where g is read off, and the
rows below the top, which are exactly the interpolation conditions at the
critical points.  A decomposition is then one solve and a few array
operations, with no loop over the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistencyError,
    NotBoundedError,
    PointNotInSpectrumError,
    PoleMeetsSpectrumError,
    ValidationError,
)
from .krein import DefinitizablePair, Factorization, _calculus_point
from .rational import Polynomial, RationalFunction
from .relations import INF, as_point, conj_point, is_inf, point_sort_key
# rational_apply is unused here but stays a module attribute: the tracing
# test in bench/test_bench.py checks that this binding is wrapped
from .spectral import _pole_in_spectrum, rational_apply  # noqa: F401
from .tolerances import IDENTITY_TOL, POINT_MATCH_TOL, ROUNDOFF_TOL

# -- jet arithmetic ---------------------------------------------------------


def jet_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated convolution; both jets must have the same length."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValidationError("jet lengths differ")
    return np.convolve(a, b)[: a.size]


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


def _jet_lengths(pair: DefinitizablePair) -> np.ndarray:
    return np.array([pair.degrees[w] + 1 for w in pair.points], dtype=int)


def _layout(pair: DefinitizablePair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packed layout: jet length at each point, and the point and entry of each row."""
    lengths = _jet_lengths(pair)
    owner = np.repeat(np.arange(lengths.size), lengths)
    entry = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return lengths, owner, entry


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
    def one(cls, pair: DefinitizablePair) -> "JetFunction":
        return cls(pair, {w: jet_one(pair.degrees[w] + 1) for w in pair.points})

    @classmethod
    def from_points(cls, pair: DefinitizablePair, mapping: dict) -> "JetFunction":
        """Build from user-labelled points, matched against the spectrum.

        Two labels that match the same spectral point are an error.
        """
        labels = list(mapping)
        values: dict = {}
        seen: dict = {}
        for label, i in zip(labels, pair._match(labels, POINT_MATCH_TOL).tolist()):
            w = pair.points[i]
            if i in seen:
                raise ValidationError(f"labels {seen[i]} and {label} both match the spectral point {w}")
            seen[i] = label
            values[w] = mapping[label]
        return cls(pair, values)

    @classmethod
    def _from_packed(cls, pair: DefinitizablePair, packed: np.ndarray) -> "JetFunction":
        """Split packed jets at the points; built in the pair's layout, so nothing is checked."""
        out = cls.__new__(cls)
        out.pair = pair
        ends = np.cumsum(_jet_lengths(pair)).tolist()
        out.values = {w: packed[a:b] for w, a, b in zip(pair.points, [0] + ends, ends)}
        return out

    def _packed(self) -> np.ndarray:
        """The jets concatenated in canonical point order."""
        jets = [self.values[w] for w in self.pair.points]
        return np.concatenate(jets) if jets else np.zeros(0, dtype=complex)

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

    def sharp(self) -> "JetFunction":
        """phi^#(w) = conj(phi(conj w)); the spectrum is conjugation symmetric."""
        points = self.pair.points
        mates = self.pair._match([conj_point(w) for w in points], POINT_MATCH_TOL)
        return JetFunction(self.pair, {w: np.conj(self.values[points[i]]) for w, i in zip(points, mates.tolist())})

    def __repr__(self) -> str:
        parts = ", ".join(f"{w}: {v.tolist()}" for w, v in sorted(self.values.items(), key=lambda t: point_sort_key(t[0])))
        return f"JetFunction({parts})"


def embed_rational(pair: DefinitizablePair, func: RationalFunction) -> JetFunction:
    """Taylor jets of a rational function along the spectrum.

    The function must be holomorphic on the spectrum: no pole may come within
    matching distance of a spectral point.
    """
    pole = _pole_in_spectrum(func, pair.report)
    if pole is not None:
        raise PoleMeetsSpectrumError(f"pole {pole} meets the spectrum")
    return JetFunction._from_packed(pair, _packed_jets(pair, func, _layout(pair)))


def _pack(pair: DefinitizablePair, layout, finite_jets, inf_jets, shape: tuple = ()) -> np.ndarray:
    """Jets at every spectral point, packed; each row has the given trailing shape.

    finite_jets(points, length) gives the jets of all finite points at once,
    shaped (points, length) + shape; inf_jets(length) gives the jet at INF.
    """
    lengths, owner, entry = layout
    values, finite = pair.report._point_array
    table = np.zeros((lengths.size, int(np.max(lengths, initial=1))) + shape, dtype=complex)
    table[finite] = finite_jets(values[finite], table.shape[1])
    for i in np.flatnonzero(~finite).tolist():
        table[i, : lengths[i]] = inf_jets(int(lengths[i]))
    return table[owner, entry]


def _packed_jets(pair: DefinitizablePair, func: RationalFunction, layout) -> np.ndarray:
    """Taylor jets of func at every spectral point, packed, from one table for the finite points."""
    return _pack(pair, layout, lambda z, length: func._jet_table(z, length).T,
                 lambda length: func.jet_at(INF, length - 1))


# -- decomposition ---------------------------------------------------------


def _basis_jets(mu, w, m: int, order: int) -> np.ndarray:
    """Taylor jets at w of the pole-residue basis (z - mu)^(-j), j < m.

    Column j holds jet entries 0..order of the j-th basis function; for
    mu = INF the basis is z^j instead.  At INF, entry l of (z - mu)^(-j) is
    C(l-1, l-j) mu^(l-j) for l >= j >= 1; finite w is _basis_table's
    one-point case.
    """
    if not is_inf(w):
        return _basis_table(mu, np.array([complex(w)]), m, order)[0]
    out = np.zeros((order + 1, m), dtype=complex)
    if m:
        out[0, 0] = 1.0
    for j in range(1, m):
        for k in range(j, order + 1):
            out[k, j] = math.comb(k - 1, k - j) * mu ** (k - j)
    return out


def _basis_table(mu, points: np.ndarray, m: int, order: int) -> np.ndarray:
    """Basis jets at finite points: out[i, k, j] is entry k of basis function j at points[i].

    Entry k of (z - mu)^(-j) at w is (-1)^k C(j+k-1, k) (w - mu)^(-j-k) for
    j >= 1; entry k of z^j (mu = INF) is C(j, k) w^(j-k).
    """
    k = np.arange(order + 1)[:, None]
    j = np.arange(m)[None, :]
    if is_inf(mu):
        base = points
        exponent = np.maximum(j - k, 0)
        coeff = [[math.comb(jj, kk) for jj in range(m)] for kk in range(order + 1)]
    else:
        base = 1.0 / (points - mu)
        exponent = j + k
        coeff = [[(-1) ** kk * math.comb(jj + kk - 1, kk) if jj else float(kk == 0) for jj in range(m)]
                 for kk in range(order + 1)]
    return np.asarray(coeff, dtype=float) * base[:, None, None] ** exponent


class _CalculusPlan:
    """The part of the calculus on one pair that does not depend on phi.

    Holds the base point and, in packed rows (see the module docstring), the
    basis jets, the q jets, the point of each row (owner), the top row of
    each point and the rows below the tops; the latter pick the Hermite
    interpolation matrix out of the basis jets.  The resolvent
    R = (A - mu)^(-1) (A itself for mu = INF) is read from the pair on first
    use: verify_definitizing solved it already at the default base point.
    The plan keeps no reference to its pair, which caches it: without that
    cycle a pair and its arrays are freed as soon as the caller drops them.
    """

    __slots__ = ("mu", "size", "basis", "q_jets", "owner", "top", "below", "matrix", "_resolvent")

    def __init__(self, pair: DefinitizablePair, mu):
        layout = lengths, owner, entry = _layout(pair)
        self.mu = mu
        self.size = int(np.sum(lengths - 1))  # total critical degree m
        m = self.size
        self.basis = _pack(pair, layout, lambda z, length: _basis_table(mu, z, m, length - 1),
                           lambda length: _basis_jets(mu, INF, m, length - 1), (m,))
        self.q_jets = _packed_jets(pair, pair.q, layout)
        self.owner = owner
        self.top = np.cumsum(lengths) - 1
        self.below = np.flatnonzero(entry < lengths[owner] - 1)
        self.matrix = self.basis[self.below]
        self._resolvent = None

    def resolvent(self, pair: DefinitizablePair) -> np.ndarray:
        if self._resolvent is None:
            self._resolvent = pair.resolvent(self.mu)
        return self._resolvent


def _plan(pair: DefinitizablePair, mu) -> _CalculusPlan:
    """The pair's cached plan for base point mu (None: the default point)."""
    key = None if mu is None else as_point(mu)
    plans = pair._calculus_plans
    if key not in plans:
        point = _calculus_point(pair.report, pair.q) if key is None else key
        if pair.report.contains(point):
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
    packed = phi._packed()
    scale = max(1.0, _max_abs(packed))
    rhs = packed[plan.below]
    if rhs.size == 0 or _max_abs(rhs) <= ROUNDOFF_TOL * scale:
        # interpolation data is pure roundoff; the exact solution is zero
        coeffs = np.zeros(plan.size, dtype=complex)
    else:
        try:
            coeffs = np.linalg.solve(plan.matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise InconsistencyError("interpolation system is singular") from exc
    s_jets = plan.basis @ coeffs
    g = (packed[plan.top] - s_jets[plan.top]) / plan.q_jets[plan.top]
    if not _max_abs(s_jets + g[plan.owner] * plan.q_jets - packed) <= IDENTITY_TOL * scale:
        raise InconsistencyError("decomposition failed to reassemble the jet function")
    return Decomposition(pair=pair, coeffs=coeffs, g=dict(zip(pair.points, g.tolist())), base_point=plan.mu,
                         _plan=plan)


def decompose_polynomial(pair: DefinitizablePair, phi: JetFunction) -> Decomposition:
    """decompose with mu = INF: a polynomial rational part; needs a bounded relation."""
    if pair.report.inf_multiplicity() > 0:
        raise NotBoundedError("polynomial decomposition needs infinity in the resolvent set")
    return decompose(pair, phi, mu=INF)


# -- the calculus -----------------------------------------------------------


def apply_calculus(fact: Factorization, phi, mu=None) -> np.ndarray:
    """Evaluate a jet function on the relation: s(A) + (T V) g (V* T^+).

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
            s_matrix = c * eye + dec._plan.resolvent(pair) @ s_matrix
    if fact.rank == 0:
        return s_matrix
    left, right = fact.eigen_factors
    return s_matrix + (left * fact.measure.column_values(dec.g)) @ right


def indicator(pair: DefinitizablePair, delta) -> JetFunction:
    """Indicator jet function of a set of spectral points.

    Points of delta are matched against the spectrum; at critical points the
    jet is (1, 0, ..., 0).
    """
    try:
        hits = pair._match(delta, POINT_MATCH_TOL)
    except ValidationError as exc:
        raise PointNotInSpectrumError(str(exc)) from exc
    lengths = _jet_lengths(pair)
    packed = np.zeros(int(np.sum(lengths)), dtype=complex)
    packed[(np.cumsum(lengths) - lengths)[hits]] = 1.0
    return JetFunction._from_packed(pair, packed)


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
