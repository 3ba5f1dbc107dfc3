"""Shared random generators and matching utilities for the test suite.

Random objects are built in a model basis where self-adjointness and
positivity are exact by construction, then moved by a well-conditioned
congruence.  Generators record what they planted so tests can assert
against known ground truth instead of re-deriving it.
"""

import inspect
import math
from fractions import Fraction

import numpy as np

from kreincalc import (
    INF,
    DefinitizablePair,
    GramSpace,
    JetFunction,
    LinearRelation,
    Polynomial,
    RationalFunction,
    chordal_distance,
    verify_definitizing,
)
from kreincalc.tolerances import COEFF_TRIM_TOL


def replace_pair(pair, **changes):
    """A new DefinitizablePair built from pair's constructor arguments, changes replacing some of them.

    It goes through the constructor, so a name that is not an argument raises TypeError, and nothing that pair
    derived is carried over: the copy computes its own resolvent_point and calculus_point from its own report
    and q, and starts with no calculus plans."""
    args = {name: getattr(pair, name) for name in inspect.signature(DefinitizablePair).parameters}
    return DefinitizablePair(**{**args, **changes})


def random_operator(rng, n, scale=1.0):
    return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_invertible(rng, n, spread=0.25):
    # I + small perturbation keeps the condition number tame
    v = np.eye(n) + spread * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    while np.linalg.cond(v) > 50:
        v = np.eye(n) + spread * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return v


def random_gram(rng, n):
    """Random invertible Hermitian matrix with a mixed signature."""
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    v = random_invertible(rng, n)
    g = v.conj().T @ np.diag(signs) @ v
    return (g + g.conj().T) / 2.0


def random_relation(rng, n, graph_dim=None):
    """Relation spanned by graph_dim random vectors of C^{2n}."""
    if graph_dim is None:
        graph_dim = int(rng.integers(1, 2 * n + 1))
    basis = rng.normal(size=(2 * n, graph_dim)) + 1j * rng.normal(size=(2 * n, graph_dim))
    return LinearRelation.from_graph_columns(basis[:n], basis[n:])


def random_proper_relation(rng, n, with_mul=False):
    """Proper relation: operator graph, optionally boxed with a mul block."""
    if not with_mul:
        return LinearRelation.from_operator(random_operator(rng, n))
    k = int(rng.integers(1, max(2, n // 2 + 1)))
    a = random_operator(rng, n - k)
    x = np.zeros((n, n), dtype=complex)
    y = np.zeros((n, n), dtype=complex)
    x[: n - k, : n - k] = np.eye(n - k)
    y[: n - k, : n - k] = a
    y[n - k :, n - k :] = np.eye(k)
    v = random_invertible(rng, n)
    return LinearRelation.from_graph_columns(v @ x, v @ y)


def separated_reals(rng, count, separation=0.35, box=3.0):
    """Real values pairwise separated by at least `separation`."""
    vals = []
    for _ in range(200):
        t = float(rng.uniform(-box, box))
        if all(abs(t - s) >= separation for s in vals):
            vals.append(t)
            if len(vals) == count:
                return vals
    raise RuntimeError("could not place separated points")


def match_point_sets(left, right, tol=1e-7):
    """Multisets of (point, multiplicity) pairs agree up to chordal distance tol."""
    left = sorted(((p, m) for p, m in left), key=lambda t: t[1])
    right = [list(t) for t in right]
    if sum(m for _, m in left) != sum(m for _, m in right):
        return False
    for p, m in left:
        hit = None
        for slot in right:
            if slot[1] >= 1 and chordal_distance(p, slot[0]) <= tol:
                hit = slot
                break
        if hit is None or hit[1] < m:
            return False
        hit[1] -= m
    return all(m == 0 for _, m in right)


class PlantedPair:
    """Ground truth carried alongside a randomly built definitizable pair."""

    def __init__(self, space, relation, q, spectrum_plan, degree_plan, transform):
        self.space = space
        self.relation = relation
        self.q = q
        self.spectrum_plan = spectrum_plan  # list of (point, multiplicity)
        self.degree_plan = degree_plan      # dict point -> q-zero degree
        self.transform = transform

    def verify(self, psd_tol=1e-8):
        return verify_definitizing(self.space, self.relation, self.q, psd_tol=psd_tol)


def random_definitizable(
    rng,
    *,
    max_real=3,
    allow_nonreal=True,
    allow_jordan=True,
    allow_mul=False,
    force_rational=False,
):
    """Random definitizable pair with known spectrum and critical degrees.

    Model blocks: plain real eigenvalues with signature matched to the sign
    of q there, real critical points (optionally as Jordan 2-blocks on a
    flip block), nonreal conjugate pairs that q must kill, and optionally a
    purely multivalued coordinate.  Everything is conjugated afterwards.
    """
    n_real = int(rng.integers(1, max_real + 1))
    n_crit_real = int(rng.integers(0, n_real + 1))
    use_pair = bool(allow_nonreal and rng.random() < 0.6)
    use_mul = bool(allow_mul and rng.random() < 0.7)

    reals = separated_reals(rng, n_real)
    crit_real = reals[:n_crit_real]
    plain_real = reals[n_crit_real:]

    factors = Polynomial.one()
    degree_plan = {}
    spectrum_plan = []

    jordan_points = []
    for t in crit_real:
        mult = 1
        jordan = bool(allow_jordan and rng.random() < 0.4)
        if jordan and rng.random() < 0.5:
            mult = 2
        factors = factors * Polynomial.from_roots([t] * mult)
        degree_plan[complex(t)] = mult
        spectrum_plan.append((complex(t), 2 if jordan else 1))
        jordan_points.append((t, jordan, mult))

    pair_point = None
    if use_pair:
        w = complex(rng.uniform(-2, 2), rng.uniform(0.4, 2.0))
        while any(abs(w.real - t) < 0.35 for t in reals):
            w = complex(rng.uniform(-2, 2), rng.uniform(0.4, 2.0))
        pair_point = w
        factors = factors * Polynomial.from_roots([w, np.conj(w)])
        degree_plan[w] = 1
        degree_plan[np.conj(w)] = 1
        spectrum_plan.append((w, 1))
        spectrum_plan.append((np.conj(w), 1))

    den = Polynomial.one()
    if force_rational or use_mul:
        u = complex(rng.uniform(-2, 2), rng.uniform(1.0, 2.5))
        while pair_point is not None and min(abs(u - pair_point), abs(u - np.conj(pair_point))) < 0.35:
            u = complex(rng.uniform(-2, 2), rng.uniform(1.0, 2.5))
        # |z - u|^2 is positive on the reals so signs are unchanged
        power = 1
        if use_mul:
            # force a proper degree drop so q vanishes at infinity
            power = max(1, (factors.degree + 1) // 2)
        for _ in range(power):
            den = den * Polynomial.from_roots([u, np.conj(u)])

    q = RationalFunction(factors, den)
    if use_mul:
        gap = q.den.degree - q.num.degree
        degree_plan[INF] = gap
        spectrum_plan.append((INF, 1))

    blocks_a = []
    blocks_g = []
    mul_coords = 0

    for t in plain_real:
        val = q(complex(t))
        eps = 1.0 if complex(val).real >= 0 else -1.0
        blocks_a.append(np.array([[t]], dtype=complex))
        blocks_g.append(np.array([[eps]], dtype=complex))
        spectrum_plan.append((complex(t), 1))
        degree_plan.setdefault(complex(t), 0)

    for t, jordan, mult in jordan_points:
        if not jordan:
            eps = 1.0 if rng.random() < 0.5 else -1.0
            blocks_a.append(np.array([[t]], dtype=complex))
            blocks_g.append(np.array([[eps]], dtype=complex))
        else:
            if mult == 1:
                dq = q.derivative()
                slope = complex(dq(complex(t))).real
                eps = 1.0 if slope >= 0 else -1.0
            else:
                eps = 1.0 if rng.random() < 0.5 else -1.0
            blocks_a.append(np.array([[t, 1.0], [0.0, t]], dtype=complex))
            blocks_g.append(np.array([[0.0, eps], [eps, 0.0]], dtype=complex))

    if pair_point is not None:
        w = pair_point
        blocks_a.append(np.diag([w, np.conj(w)]))
        blocks_g.append(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    if use_mul:
        qinf = q(INF)
        if qinf is INF:
            raise RuntimeError("q must not have a pole at infinity here")
        val = complex(qinf).real
        eps = 1.0 if val >= 0 else -1.0
        mul_coords = 1
        blocks_g.append(np.array([[eps]], dtype=complex))

    op_dim = sum(b.shape[0] for b in blocks_a)
    n = op_dim + mul_coords
    a0 = np.zeros((op_dim, op_dim), dtype=complex)
    at = 0
    for b in blocks_a:
        k = b.shape[0]
        a0[at : at + k, at : at + k] = b
        at += k
    g0 = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks_g:
        k = b.shape[0]
        g0[at : at + k, at : at + k] = b
        at += k

    # model graph: operator part plus vertical coordinates
    x0 = np.zeros((n, n), dtype=complex)
    y0 = np.zeros((n, n), dtype=complex)
    x0[:op_dim, :op_dim] = np.eye(op_dim)
    y0[:op_dim, :op_dim] = a0
    if mul_coords:
        y0[op_dim:, op_dim:] = np.eye(mul_coords)

    v = random_invertible(rng, n)
    vinv = np.linalg.inv(v)
    gram = vinv.conj().T @ g0 @ vinv
    gram = (gram + gram.conj().T) / 2.0
    relation = LinearRelation.from_graph_columns(v @ x0, v @ y0)
    space = GramSpace(gram)
    return PlantedPair(space, relation, q, spectrum_plan, degree_plan, v)


def jet_max_abs(phi):
    """Largest entry modulus over the jets of a jet function; 0.0 on a pair without points."""
    return float(max((np.max(np.abs(v)) for v in phi.values.values()), default=0.0))


def reassemble(dec):
    """The jets s + g q of a decomposition, in the packed arithmetic of its calculus plan."""
    plan = dec._plan
    g = np.array([dec.g[w] for w in dec.pair.points], dtype=complex)
    return JetFunction._from_packed(dec.pair, plan.basis @ dec.coeffs + g[plan.owner] * plan.q_jets)


def random_rational(rng, avoid=(), deg_num=None, deg_den=None, min_gap=0.3):
    """Rational function whose poles stay away from the given points."""
    if deg_num is None:
        deg_num = int(rng.integers(1, 4))
    if deg_den is None:
        deg_den = int(rng.integers(0, 3))
    num = Polynomial(rng.normal(size=deg_num + 1) + 1j * rng.normal(size=deg_num + 1))
    roots = []
    for _ in range(200):
        if len(roots) == deg_den:
            break
        cand = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if all(p is INF or abs(cand - complex(p)) >= min_gap for p in avoid):
            roots.append(cand)
    den = Polynomial.from_roots(roots) if roots else Polynomial.one()
    return RationalFunction(num, den)


def random_real_rational(rng, avoid=(), deg=2):
    """Rational function with real coefficients and safe poles."""
    num = Polynomial(rng.normal(size=deg + 1))
    u = complex(rng.uniform(-3, 3), rng.uniform(0.8, 2.0))
    while not all(p is INF or abs(u - complex(p)) >= 0.3 for p in avoid):
        u = complex(rng.uniform(-3, 3), rng.uniform(0.8, 2.0))
    den = Polynomial.from_roots([u, np.conj(u)])
    return RationalFunction(num, den)


def commutant_basis(mats, tol=1e-9):
    """Orthonormal basis (as matrices) of {X : XM = MX for all given M}."""
    n = mats[0].shape[0]
    eye = np.eye(n)
    rows = []
    for m in mats:
        rows.append(np.kron(eye, m) - np.kron(m.T, eye))
    stacked = np.vstack(rows)
    _, s, vh = np.linalg.svd(stacked)
    cutoff = tol * max(s[0] if s.size else 1.0, 1.0)
    null = vh[np.sum(s > cutoff) :].conj().T
    return [null[:, j].reshape(n, n).T for j in range(null.shape[1])]


def riesz_projection(x, y, center, radius, nodes=64):
    """Riesz projection of the relation with graph basis (x; y) onto its spectrum inside |z - center| = radius.

    P is (2 pi i)^-1 times the integral of (lambda - A)^-1 around the circle,
    with the resolvent in graph form, (A - lambda)^-1 = X (Y - lambda X)^-1,
    by the trapezoid rule at `nodes` equispaced points: one stacked solve.  Its
    error falls geometrically in `nodes`, at a rate set by how far the circle
    stays from the spectrum (Trefethen and Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 56, 2014).  Neither q nor any
    step of kreincalc enters, so it checks the calculus independently.
    """
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    steps = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)  # lambda_k - center
    pencils = y - (center + steps)[:, None, None] * x
    inverses = np.linalg.solve(pencils, np.broadcast_to(np.eye(len(x)), pencils.shape))
    return -x @ np.tensordot(steps, inverses, axes=1) / nodes


def riesz_calculus(x, y, jets):
    """phi(A) = sum_w sum_k phi_k(w) N_w^k P_w for the operator A = Y X^-1 with graph basis (x; y).

    jets maps every spectral point w, all finite, to phi's Taylor jet there,
    as long as the Jordan chains at w.  P_w is riesz_projection on a circle
    of half the distance to the nearest other point (radius 1 for a lone
    one), and N_w = (A - w) P_w is nilpotent.  Like the projections, the sum
    uses neither q nor any step of kreincalc.
    """
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    a, eye = np.linalg.solve(x.T, y.T).T, np.eye(len(x))  # A = Y X^-1
    out = np.zeros_like(x)
    for w, jet in jets.items():
        gaps = [abs(w - other) for other in jets if other != w]
        power = riesz_projection(x, y, w, min(gaps) / 2.0 if gaps else 1.0)  # N_w^k P_w = (A - w)^k P_w, from k = 0
        for coeff in jet:
            out += coeff * power
            power = (a - w * eye) @ power
    return out


def exact_shift(c, w):
    """Taylor coefficients of p at w: entry k is p^(k)(w) / k! = sum_i C(i, k) c_i w^(i - k)."""
    return [sum(math.comb(i, k) * c[i] * w ** (i - k) for i in range(k, len(c))) for k in range(len(c))]


def exact_zero_degree(q, w):
    """The degree of q's zero at w by the jet rule, on the exact Taylor jet of q's float numerator at the float w.

    The rule counts the leading entries k with |jet_k| rho^k at most
    COEFF_TRIM_TOL times the largest, rho = max(1, |w|); it is compared in
    squares, so that every step is Fraction arithmetic on the exact values of
    the floats.  For w = a + ib the jet is exact_shift to a of the real and
    imaginary parts of the coefficients, then the shift by ib, whose entry k
    takes C(i, k) (ib)^(i - k) of entry i.  At INF the degree is the degree gap.
    """
    if w is INF:
        return max(0, q.den.degree - q.num.degree)
    a, b = Fraction(complex(w).real), Fraction(complex(w).imag)
    coeffs = [complex(c) for c in q.num.coeffs.tolist()]
    re, im = (exact_shift([Fraction(getattr(c, part)) for c in coeffs], a) for part in ("real", "imag"))
    units = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # i^j for j mod 4, as (real, imaginary)
    rho2 = max(Fraction(1), a * a + b * b)
    scaled = []
    for k in range(len(re)):
        x = y = Fraction(0)
        for i in range(k, len(re)):
            f, (ux, uy) = math.comb(i, k) * b ** (i - k), units[(i - k) % 4]
            x += f * (re[i] * ux - im[i] * uy)
            y += f * (re[i] * uy + im[i] * ux)
        scaled.append((x * x + y * y) * rho2 ** k)
    cut = Fraction(COEFF_TRIM_TOL) ** 2 * max(scaled)
    return next(k for k, v in enumerate(scaled) if v > cut)
