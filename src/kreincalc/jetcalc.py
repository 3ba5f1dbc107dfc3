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
Everything that does not depend on phi (the base point, the basis jets at
every spectral point and the interpolation matrix) is a plan built once per
pair and base point and cached on the pair; R and q's jets come from the pair.

The plan and the decomposition work on packed jets: the entries 0..d(w) of
each point's jet are consecutive rows, and the points follow the pair's
canonical order, so a jet function is one vector of length sum (d(w) + 1),
as JetFunction holds it; the layout is built once per pair, with its plans.
The basis jets are one matrix with a row per jet entry and a column per
basis function, the jets of q one vector in the same rows.  Two index
arrays pick out the top row of each point, where g is read off, and the
rows below the top, which are exactly the interpolation conditions at the
critical points.  A decomposition is then one solve and a few array
operations, with no loop over the points.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

import numpy as np

from .errors import (
    InconsistencyError,
    NotBoundedError,
    PointNotInSpectrumError,
    PoleMeetsSpectrumError,
    ValidationError,
)
from .krein import DefinitizablePair, Factorization
from .rational import Polynomial, RationalFunction
from .relations import INF, as_point, frobenius, is_inf, point_sort_key, require_finite
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
    return float(np.abs(values).max(initial=0.0))


class _Layout:
    """The packed layout of a pair's jets: the jet length at each point, the point (owner) and entry of
    each row, the first and top row of each point, the rows below the tops and each point's (start, end),
    built by one loop over Python lists: a pair has a few dozen rows at most."""

    def __init__(self, pair: DefinitizablePair):
        lengths = [pair.degrees[w] + 1 for w in pair.points]
        owner, entry, below, self.bounds = [], [], [], []
        for i, d in enumerate(lengths):
            start = len(owner)
            below += range(start, start + d - 1)
            owner += [i] * d
            entry += range(d)
            self.bounds.append((start, start + d))
        self.lengths, self.owner, self.entry, self.below = (np.array(v, dtype=int) for v in (lengths, owner, entry, below))
        self.starts = np.array([a for a, _ in self.bounds], dtype=int)
        self.top = np.array([b - 1 for _, b in self.bounds], dtype=int)


def _layout(pair: DefinitizablePair) -> _Layout:
    """The pair's packed layout, built on first use and cached with its calculus plans."""
    plans = pair._calculus_plans
    if "layout" not in plans:
        plans["layout"] = _Layout(pair)
    return plans["layout"]


def _require_layout(pair: DefinitizablePair, other: DefinitizablePair, message: str) -> None:
    """ValidationError unless the two pairs pack jets alike: the same points with the same jet lengths."""
    if other is not pair and (other.points != pair.points or other.degrees != pair.degrees):
        raise ValidationError(message)


class JetFunction:
    """A map from the spectral points of a pair to jets of the right lengths, held packed."""

    __slots__ = ("pair", "_jets")

    def __init__(self, pair: DefinitizablePair, values: dict):
        jets = []
        for w in pair.points:
            if w not in values:
                raise ValidationError(f"missing value at spectral point {w}")
            v = np.asarray(values[w], dtype=complex).ravel()
            if v.size != pair.degrees[w] + 1:
                raise ValidationError(f"jet at {w} must have length {pair.degrees[w] + 1}, got {v.size}")
            jets.append(v)
        self.pair = pair
        self._jets = np.concatenate(jets) if jets else np.zeros(0, dtype=complex)
        require_finite(self._jets, "jet entries")

    @property
    def values(self) -> MappingProxyType:
        """The jet at each spectral point, read-only: views of the packed jets, so never out of step."""
        return MappingProxyType({w: self._jets[a:b] for w, (a, b) in zip(self.pair.points, _layout(self.pair).bounds)})

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, pair: DefinitizablePair) -> "JetFunction":
        return indicator(pair, pair.points)

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
        """Jets packed in the pair's layout, held as they are; nothing is checked."""
        out = cls.__new__(cls)
        out.pair, out._jets = pair, packed
        return out

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "JetFunction") -> "JetFunction":
        _require_layout(self.pair, other.pair, "jet functions live on different pairs")
        return JetFunction._from_packed(self.pair, self._jets + other._jets)

    def __sub__(self, other: "JetFunction") -> "JetFunction":
        _require_layout(self.pair, other.pair, "jet functions live on different pairs")
        return JetFunction._from_packed(self.pair, self._jets - other._jets)

    def __mul__(self, other) -> "JetFunction":
        if isinstance(other, JetFunction):
            _require_layout(self.pair, other.pair, "jet functions live on different pairs")
            a, b = self.values, other.values
            return JetFunction(self.pair, {w: jet_multiply(a[w], b[w]) for w in self.pair.points})
        return JetFunction._from_packed(self.pair, complex(other) * self._jets)

    __rmul__ = __mul__

    def __neg__(self) -> "JetFunction":
        return self * (-1.0)

    def sharp(self) -> "JetFunction":
        """phi^#(w) = conj(phi(conj w)); the spectrum is conjugation symmetric."""
        points = self.pair.points
        mates = self.pair._match([w.conjugate() for w in points], POINT_MATCH_TOL)
        values = self.values
        return JetFunction(self.pair, {w: np.conj(values[points[i]]) for w, i in zip(points, mates.tolist())})

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
    jets = np.array(func._jets(pair.points, _layout(pair).lengths.tolist())[1], dtype=complex)
    require_finite(jets, "jets of the function")
    return JetFunction._from_packed(pair, jets)


# -- decomposition ---------------------------------------------------------

_BASIS_TERMS = {
    "pole": lambda k, j: ((-1) ** k * math.comb(j + k - 1, k) if j else float(k == 0), j + k),
    "polynomial": lambda k, j: (math.comb(j, k), max(j - k, 0)),
    "infinity": lambda k, j: (math.comb(k - 1, k - j), k - j) if 1 <= j <= k else (float(j == k == 0), 0),
}


@functools.lru_cache(maxsize=None)
def _basis_terms(m: int, order: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(factor, exponent) of entry k of basis function j, _BASIS_TERMS[kind](k, j), as arrays per (m, order)."""
    terms = np.array([[_BASIS_TERMS[kind](k, j) for j in range(m)] for k in range(order + 1)], dtype=float)
    coeff, exponent = terms.reshape(order + 1, m, 2).transpose(2, 0, 1)
    coeff.flags.writeable = exponent.flags.writeable = False
    return coeff, exponent


def _basis_table(mu, values: np.ndarray, finite: np.ndarray, m: int, order: int) -> np.ndarray:
    """Basis jets at points: out[i, k, j] is entry k of basis function j at the point values[i].

    values and finite are a spectrum's points as SpectrumReport._point_array
    holds them.  Entry k of (z - mu)^(-j) at w is (-1)^k C(j+k-1, k)
    (w - mu)^(-j-k) for j >= 1, and C(k-1, k-j) mu^(k-j) at INF; entry k of
    z^j (mu = INF) is C(j, k) w^(j-k).
    """
    out = np.empty((values.size, order + 1, m), dtype=complex)
    coeff, exponent = _basis_terms(m, order, "polynomial" if is_inf(mu) else "pole")
    with np.errstate(over="ignore"):  # for a far mu, numpy's complex division overflows to 0: caught below
        base = values[finite] if is_inf(mu) else 1.0 / (values[finite] - mu)
    out[finite] = powers = coeff * base[:, None, None] ** exponent
    underflow = not is_inf(mu) and (powers == 0)[:, coeff != 0].any()
    if not finite.all():
        coeff, exponent = _basis_terms(m, order, "infinity")
        with np.errstate(over="ignore", invalid="ignore"):
            out[~finite] = rows = coeff * np.power(mu, exponent)
        if not np.isfinite(rows).all():
            raise ValidationError(f"base point mu = {mu} is too large: its powers at infinity overflow")
    if underflow:
        raise ValidationError(f"base point mu = {mu} is too large: its powers at the spectral points underflow")
    return out


class _CalculusPlan:
    """The part of the calculus on one pair that does not depend on phi.

    Holds the base point and, in packed rows (see the module docstring), the
    basis jets and the pair's own q_jets, and from the pair's layout the point
    of each row (owner), the top row of each point and the rows below the
    tops; the latter pick the Hermite interpolation matrix.  The plan keeps no
    resolvent: apply_calculus reads R = (A - mu)^(-1) (A itself for mu = INF)
    from the pair, whose stack holds it at the default base point.
    The plan keeps no reference to its pair, which caches it: without that
    cycle a pair and its arrays are freed as soon as the caller drops them.
    """

    __slots__ = ("mu", "size", "basis", "q_jets", "owner", "top", "below", "matrix")

    def __init__(self, pair: DefinitizablePair, mu):
        layout = _layout(pair)
        self.mu = mu
        self.size = m = layout.below.size  # total critical degree m
        table = _basis_table(mu, *pair.report._point_array, m, int(layout.lengths.max(initial=1)) - 1)
        self.basis = table[layout.owner, layout.entry]
        self.q_jets = pair.q_jets
        self.owner, self.top, self.below = layout.owner, layout.top, layout.below
        self.matrix = self.basis[self.below]


def _plan(pair: DefinitizablePair, mu) -> _CalculusPlan:
    """The pair's cached plan for base point mu (None: the default point)."""
    key = None if mu is None else as_point(mu)
    plans = pair._calculus_plans
    if key not in plans:
        point = pair.calculus_point if key is None else key
        if pair.report.contains(point):
            raise ValidationError("base point mu must lie in the resolvent set")
        plans[key] = _CalculusPlan(pair, point)
    return plans[key]


class Decomposition:
    """phi = (jets of s) + g * (jets of q) along the spectrum.

    The rational part is s = sum of coeffs[j] (z - base_point)^(-j), or of
    coeffs[j] z^j when base_point is INF.  _g holds g in the pair's point order.
    """

    def __init__(self, pair: DefinitizablePair, coeffs: np.ndarray, g: dict, base_point: object,
                 _plan: _CalculusPlan, _g: np.ndarray):
        self.pair, self.coeffs, self.g, self.base_point, self._plan, self._g = pair, coeffs, g, base_point, _plan, _g

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
    _require_layout(pair, phi.pair, "jet function does not belong to this pair")
    plan = _plan(pair, mu)
    packed = phi._jets
    scale = max(1.0, _max_abs(packed))
    rhs = packed[plan.below]
    if _max_abs(rhs) <= ROUNDOFF_TOL * scale:
        # interpolation data is pure roundoff; the exact solution is zero
        coeffs = np.zeros(plan.size, dtype=complex)
    else:
        try:
            coeffs = np.linalg.solve(plan.matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise InconsistencyError("interpolation system is singular") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # jets near the float range overflow g, and so the residual
        s_jets = plan.basis @ coeffs
        g = (packed[plan.top] - s_jets[plan.top]) / plan.q_jets[plan.top]
        resid = _max_abs(s_jets + g[plan.owner] * plan.q_jets - packed)
    if not resid <= IDENTITY_TOL * scale:
        require_finite(g, "the decomposition")
        raise InconsistencyError("decomposition failed to reassemble the jet function")
    return Decomposition(pair=pair, coeffs=coeffs, g=dict(zip(pair.points, g.tolist())), base_point=plan.mu,
                         _plan=plan, _g=g)


def decompose_polynomial(pair: DefinitizablePair, phi: JetFunction) -> Decomposition:
    """decompose with mu = INF: a polynomial rational part; needs a bounded relation."""
    if pair.report.multiplicity_of(INF) > 0:
        raise NotBoundedError("polynomial decomposition needs infinity in the resolvent set")
    return decompose(pair, phi, mu=INF)


# -- the calculus -----------------------------------------------------------


def apply_calculus(fact: Factorization, phi, mu=None) -> np.ndarray:
    """Evaluate a jet function on the relation: s(A) + (T V) g (V* T^+).

    phi is a JetFunction on fact.pair, or its Decomposition from decompose,
    which is then used as it is.  s(A) is the Horner sum
    b_0 + R (b_1 + R (b_2 + ...)) in R = (A - mu)^(-1), each step a product
    by R and b_j added to its diagonal in place, with no identity matrix.
    """
    pair = fact.pair
    if isinstance(phi, Decomposition):
        if phi.pair is not pair:
            raise ValidationError("decomposition does not belong to this pair")
        dec = phi
    else:
        dec = decompose(pair, phi, mu)
    n = pair.space.dim
    s_matrix = np.zeros((n, n), dtype=complex)
    if dec.coeffs.size:
        res = pair.resolvent(dec.base_point)
        s_matrix.reshape(-1)[:: n + 1] = dec.coeffs[-1]
        for c in dec.coeffs[-2::-1]:
            s_matrix = res @ s_matrix
            s_matrix.reshape(-1)[:: n + 1] += c  # the diagonal of the C-ordered matmul result, in place
    left, right = fact.eigen_factors
    return s_matrix + (left * dec._g[fact.measure.index]) @ right  # the measure's points are the pair's


def indicator(pair: DefinitizablePair, delta) -> JetFunction:
    """Indicator jet function of a set of spectral points.

    Points of delta are matched against the spectrum; at critical points the
    jet is (1, 0, ..., 0).
    """
    try:
        hits = pair._match(delta, POINT_MATCH_TOL)
    except ValidationError as exc:
        raise PointNotInSpectrumError(str(exc)) from exc
    layout = _layout(pair)
    packed = np.zeros(layout.owner.size, dtype=complex)
    packed[layout.starts[hits]] = 1.0
    return JetFunction._from_packed(pair, packed)


def spectral_projection(fact: Factorization, delta, mu=None) -> np.ndarray:
    """The calculus applied to the indicator of delta; a bounded projection."""
    proj = apply_calculus(fact, indicator(fact.pair, delta), mu)
    resid = frobenius(proj @ proj - proj)
    if not resid <= IDENTITY_TOL * max(1.0, frobenius(proj) ** 2):
        raise InconsistencyError("spectral projection failed to be idempotent")
    return proj


def norm_f(phi: JetFunction) -> float:
    """Sup of |phi| off the critical points plus the sum of critical jet norms; ValidationError if it overflows."""
    flat, jets = 0.0, 0.0
    for w, jet in phi.values.items():
        if phi.pair.degrees[w] == 0:
            flat = max(flat, abs(complex(jet[0])))
        else:
            jets += float(np.abs(jet).max())
    require_finite(flat + jets, "the norm")
    return flat + jets
