"""Planted definitizable pairs with references computed in the model basis.

A case is built block by block in a model basis where self-adjointness and
positivity of ``G q(A)`` hold exactly, then moved by a congruence ``V`` with
a fixed condition number.  The references for ``r(A)`` and for the spectral
projectors are formed from the model blocks and ``V`` with plain numpy:
nothing here imports ``kreincalc``, so a reference never repeats the
program's own arithmetic.

Model blocks and the constraint each puts on the sign ``eps`` of its Gram
block (``q`` is the definitizing function, ``t`` real, ``w`` nonreal):

    plain    A = [t]                   eps = sign q(t)       degree 0
    simple   A = [t], q(t) = 0         eps = +-1             degree 1
    jordan1  A = [[t, 1], [0, t]]      eps = sign q'(t)      degree 1
    double   A = [t], q ~ (z - t)^2    eps = +-1             degree 2
    jordan2  A = [[t, 1], [0, t]]      eps = +-1             degree 2
    pair     A = diag(w, conj w)       G = [[0, 1], [1, 0]]  degree 1 at each
    mul      (0, e) in the graph       eps = +-1             degree = zeros of q at inf

The rational function ``r`` applied by the calculus is real:
``r(z) = c0 + sum_k a_k / (z - p_k) + conj(a_k) / (z - conj p_k)``, so its
Taylor jets and its value on each block have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npp

INF = "inf"

# feature -> (degree of the zero of q there, model coordinates used)
FEATURES = {
    "simple": (1, 1),
    "jordan1": (1, 2),
    "double": (2, 1),
    "jordan2": (2, 2),
    "pair": (2, 2),
}

COND_V = 10.0           # condition number of the congruence
REAL_SEP = 0.2          # minimal distance between real spectral points
NONREAL_SEP = 0.3       # minimal distance between nonreal points of any kind


@dataclass
class Case:
    """Program inputs plus the planted ground truth for one request."""

    workload: str
    index: int
    n: int
    gram: np.ndarray
    x: np.ndarray
    y: np.ndarray
    q_num: np.ndarray          # ascending real coefficients
    q_den: np.ndarray
    r_num: np.ndarray
    r_den: np.ndarray
    points: list               # planted spectral points (complex or INF)
    degrees: dict              # point -> degree of the zero of q there
    jets: dict                 # point -> Taylor jet of r, length degree + 1
    r_matrix: np.ndarray       # reference r(A)
    delta: list                # planted subset of the spectrum
    delta_proj: np.ndarray     # reference projector for delta
    rest: list                 # its complement
    rest_proj: np.ndarray
    features: tuple

    @property
    def total_degree(self) -> int:
        return sum(self.degrees.values())

    def label(self) -> str:
        return (f"{self.workload} case={self.index} n={self.n} degree={self.total_degree} "
                f"features={'+'.join(self.features)}")


# -- placement ---------------------------------------------------------------


def _real_points(rng, count, box):
    grid = np.arange(-box, box + 1e-9, REAL_SEP + 0.1)
    if count > grid.size:
        raise ValueError("too many real points for the box")
    chosen = rng.choice(grid, size=count, replace=False)
    return [float(t) for t in chosen + rng.uniform(-0.05, 0.05, size=count)]


def _nonreal_point(rng, taken, im_lo, im_hi, re_box=3.0):
    for _ in range(1000):
        w = complex(rng.uniform(-re_box, re_box), rng.uniform(im_lo, im_hi))
        if all(abs(w - v) >= NONREAL_SEP and abs(w - np.conj(v)) >= NONREAL_SEP for v in taken):
            taken.append(w)
            return w
    raise RuntimeError("could not place a nonreal point")


def _congruence(rng, n):
    """V = U diag(s) W* with singular values spread over [1/sqrt(k), sqrt(k)]."""
    def unitary():
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        qmat, rmat = np.linalg.qr(z)
        return qmat * (np.diag(rmat) / np.abs(np.diag(rmat)))
    s = np.exp(rng.uniform(-0.5, 0.5, size=n) * np.log(COND_V))
    return unitary() @ np.diag(s) @ unitary().conj().T


# -- the real rational function r ---------------------------------------------


class _RealRational:
    """c0 + sum of a / (z - p) + conj(a) / (z - conj p)."""

    def __init__(self, c0, terms):
        self.c0 = float(c0)
        self.terms = [(a, p) for a0, p0 in terms for a, p in ((a0, p0), (np.conj(a0), np.conj(p0)))]

    def jet(self, w, length):
        out = np.zeros(length, dtype=complex)
        out[0] = self.c0
        for a, p in self.terms:
            for j in range(length):
                if w == INF:
                    if j >= 1:
                        out[j] += a * p ** (j - 1)
                else:
                    out[j] += a * (-1) ** j / (w - p) ** (j + 1)
        return out

    def coefficients(self):
        den = npp.polyfromroots([p for _, p in self.terms])
        num = self.c0 * den
        for k, (a, _) in enumerate(self.terms):
            others = [p for i, (_, p) in enumerate(self.terms) if i != k]
            num = npp.polyadd(num, a * npp.polyfromroots(others))
        return np.real(num), np.real(den)


# -- assembly -----------------------------------------------------------------


def _assemble(rng, workload, index, n, features, inf_degree, box, den_pairs):
    """Build one case from its critical features; the rest is plain spectrum."""
    use_mul = inf_degree > 0
    coords = n - (1 if use_mul else 0)
    crit_coords = sum(FEATURES[f][1] for f in features)
    n_plain = coords - crit_coords
    real_feats = [f for f in features if f != "pair"]
    reals = _real_points(rng, len(real_feats) + n_plain + 1, box)
    filler = reals.pop()   # a real zero of q off the spectrum, used for parity

    nonreal: list[complex] = []
    zeros: list[complex] = []
    blocks = []            # (feature, its real point or nonreal w)
    for f in features:
        if f == "pair":
            w = _nonreal_point(rng, nonreal, 0.5, 2.0)
            zeros += [w, np.conj(w)]
            blocks.append((f, w))
        else:
            t = reals.pop()
            zeros += [t] * FEATURES[f][0]
            blocks.append((f, t))
    plain = reals

    num_deg = len(zeros)
    if use_mul:
        if (num_deg + inf_degree) % 2:
            zeros.append(filler)
            num_deg += 1
        den_pairs = (num_deg + inf_degree) // 2
    poles = []
    for _ in range(den_pairs):
        u = _nonreal_point(rng, nonreal, 1.0, 2.5)
        poles += [u, np.conj(u)]
    lead = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    q_num = np.real(lead * npp.polyfromroots(zeros)) if zeros else np.array([lead])
    q_den = np.real(npp.polyfromroots(poles)) if poles else np.array([1.0])

    def q_at(t):
        return float(np.real(npp.polyval(t, q_num) / npp.polyval(t, q_den)))

    def q_slope_at_simple_zero(t):
        rest = [z for z in zeros if not (np.isreal(z) and z == t)]
        val = lead * np.prod([t - z for z in rest]) / np.prod([t - u for u in poles])
        return float(np.real(val))

    def sign(v):
        return 1.0 if v >= 0 else -1.0

    def coin():
        return float(rng.choice([-1.0, 1.0]))

    # r: one or two conjugate pole pairs away from the spectrum
    r_terms = []
    for _ in range(int(rng.integers(1, 3))):
        p = _nonreal_point(rng, nonreal, 0.8, 2.5)
        r_terms.append((complex(rng.normal(), rng.normal()), p))
    r = _RealRational(rng.normal(), r_terms)

    a_blocks, g_blocks, r_blocks, block_points = [], [], [], []
    points, degrees = [], {}

    def add(a_blk, g_blk, r_blk, pts):
        a_blocks.append(a_blk)
        g_blocks.append(g_blk)
        r_blocks.append(r_blk)
        block_points.append(pts)

    for t in plain:
        rt = r.jet(t, 1)
        add(np.array([[t]]), np.array([[sign(q_at(t))]]), np.array([[rt[0]]]), [t])
        points.append(complex(t))
        degrees[complex(t)] = 0
    for f, pt in blocks:
        deg = FEATURES[f][0]
        if f == "pair":
            w = pt
            rw, rwc = r.jet(w, 1)[0], r.jet(np.conj(w), 1)[0]
            add(np.diag([w, np.conj(w)]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([rw, rwc]), [w, np.conj(w)])
            for v in (w, np.conj(w)):
                points.append(complex(v))
                degrees[complex(v)] = 1
            continue
        t = pt
        rt = r.jet(t, 2)
        if f in ("simple", "double"):
            add(np.array([[t]]), np.array([[coin()]]), np.array([[rt[0]]]), [t])
        else:
            eps = sign(q_slope_at_simple_zero(t)) if f == "jordan1" else coin()
            add(np.array([[t, 1.0], [0.0, t]]), np.array([[0.0, eps], [eps, 0.0]]),
                np.array([[rt[0], rt[1]], [0.0, rt[0]]]), [t])
        points.append(complex(t))
        degrees[complex(t)] = deg

    op_dim = sum(b.shape[0] for b in a_blocks)
    g0 = np.zeros((n, n), dtype=complex)
    r0 = np.zeros((n, n), dtype=complex)
    owner = []             # spectral point of each model coordinate
    at = 0
    for a_blk, g_blk, r_blk, pts in zip(a_blocks, g_blocks, r_blocks, block_points):
        k = a_blk.shape[0]
        g0[at:at + k, at:at + k] = g_blk
        r0[at:at + k, at:at + k] = r_blk
        owner += [complex(pts[0])] * k if len(pts) == 1 else [complex(p) for p in pts]
        at += k
    a0 = np.zeros((op_dim, op_dim), dtype=complex)
    at = 0
    for a_blk in a_blocks:
        k = a_blk.shape[0]
        a0[at:at + k, at:at + k] = a_blk
        at += k
    x0 = np.zeros((n, n), dtype=complex)
    y0 = np.zeros((n, n), dtype=complex)
    x0[:op_dim, :op_dim] = np.eye(op_dim)
    y0[:op_dim, :op_dim] = a0
    if use_mul:
        g0[op_dim, op_dim] = coin()
        y0[op_dim, op_dim] = 1.0
        r0[op_dim, op_dim] = r.c0
        owner.append(INF)
        points.append(INF)
        degrees[INF] = inf_degree

    v = _congruence(rng, n)
    vinv = np.linalg.inv(v)
    gram = vinv.conj().T @ g0 @ vinv
    gram = (gram + gram.conj().T) / 2.0

    order = rng.permutation(len(points))
    points = [points[i] for i in order]
    size = int(rng.integers(1, len(points)))
    delta, rest = points[:size], points[size:]

    def projector(subset):
        diag = np.array([1.0 if o in subset else 0.0 for o in owner])
        return v @ np.diag(diag) @ vinv

    r_num, r_den = r.coefficients()
    return Case(
        workload=workload, index=index, n=n, gram=gram, x=v @ x0, y=v @ y0,
        q_num=q_num, q_den=q_den, r_num=r_num, r_den=r_den,
        points=points, degrees=degrees,
        jets={p: r.jet(p, degrees[p] + 1) for p in points},
        r_matrix=v @ r0 @ vinv,
        delta=delta, delta_proj=projector(delta), rest=rest, rest_proj=projector(rest),
        features=tuple(features) + ((f"inf{inf_degree}",) if use_mul else ()),
    )


def _tag(name):
    return sum(ord(ch) * 31 ** i for i, ch in enumerate(name)) % (2 ** 32)


def _rng(workload, seed, index):
    return np.random.default_rng([_tag(workload), seed, index])


def calc16_case(seed: int, index: int) -> Case:
    """n = 16, all blocks 1 x 1, total critical degree at most 4.

    One or two simple real zeros of q, optionally one conjugate nonreal pair,
    and in about half the cases a multivalued coordinate at which q vanishes
    to first order.
    """
    rng = _rng("calc16", seed, index)
    inf_degree = int(rng.random() < 0.5)
    features = ["simple"] * int(rng.integers(1, 3))
    if rng.random() < 0.5 and len(features) + 2 + inf_degree <= 4:
        features.append("pair")
    den_pairs = int(rng.integers(0, 2))
    return _assemble(rng, "calc16", index, 16, features, inf_degree, box=4.0, den_pairs=den_pairs)


def _critical(workload, seed, index, degree, kinds):
    """n in 8..12 with the given total critical degree, drawn from `kinds`.

    The features are drawn at random until the degree is used up, keeping
    every draw feasible within the coordinates left (a double zero carries
    two degrees on one coordinate).
    """
    rng = _rng(workload, seed, index)
    n = int(rng.integers(8, 13))
    inf_degree = int(rng.integers(1, min(3, degree - 1) + 1)) if rng.random() < 0.5 else 0
    coords = n - (1 if inf_degree else 0)
    remaining = degree - inf_degree
    per_coord = max(FEATURES[k][0] / FEATURES[k][1] for k in kinds)
    features = []
    while remaining > 0:
        options = [
            f for f in kinds
            if FEATURES[f][0] <= remaining and FEATURES[f][1] <= coords
            and remaining - FEATURES[f][0] <= per_coord * (coords - FEATURES[f][1])
        ]
        f = options[int(rng.integers(len(options)))]
        features.append(f)
        remaining -= FEATURES[f][0]
        coords -= FEATURES[f][1]
    den_pairs = int(rng.integers(0, 2)) if degree - inf_degree >= 2 else 0
    return _assemble(rng, workload, index, n, features, inf_degree, box=3.0, den_pairs=den_pairs)


CRITICAL_DEGREES = tuple(range(2, 9))
CRITICAL_KINDS = ("simple", "jordan1", "pair")


def critical_case(seed: int, index: int) -> Case:
    """n in 8..12, total critical degree cycling through 2..8 by index: simple
    real zeros of q (some carrying a Jordan chain), nonreal pairs and degree
    1..3 at inf."""
    return _critical("critical", seed, index, CRITICAL_DEGREES[index % len(CRITICAL_DEGREES)], CRITICAL_KINDS)


MAKERS = {"calc16": calc16_case, "critical": critical_case}

# -- the pools the workloads draw from ------------------------------------------

POOL_SEED = 0
POOL_SIZE = 4096

# Pool cases whose request failed when each was run once at the commit that
# added this benchmark (a false not-self-adjoint, a pulled-back relation that
# is not proper).  The workloads skip them, so that no request of a run fails
# at that commit; the hard panel runs them.
KNOWN_FAILING: dict[str, tuple[int, ...]] = {"calc16": (2876,), "critical": (174, 838, 930)}


@lru_cache(maxsize=None)
def pool_order(workload: str, seed: int, size: int = POOL_SIZE) -> tuple[int, ...]:
    """The pool indices a run takes in turn: a permutation that the seed picks,
    without the known-failing cases."""
    skip = set(KNOWN_FAILING[workload])
    order = np.random.default_rng([_tag(workload), seed]).permutation(size)
    return tuple(int(k) for k in order if int(k) not in skip)


def request_case(workload: str, seed: int, index: int) -> Case:
    """The case of request `index` in a run of `workload` with `seed`."""
    order = pool_order(workload, seed)
    return MAKERS[workload](POOL_SEED, order[index % len(order)])


# -- the hard panel of known defects ------------------------------------------------

# The first design of the `critical` workload: total degree 2..12 with double
# real zeros of q (semisimple or as Jordan 2-blocks).  16 of these 44 fail at
# the commit that added this benchmark: all 12 of degree 10 and above, and 4
# of degree 6 to 9 with a double zero (README.md, Known failures).
HARD_DEGREES = tuple(range(2, 13))
HARD_SIZE = 44
# (workload, seed, index) of a case outside the pools that raised a raw
# LinAlgError (SVD did not converge) in a sweep over fresh seeds
HARD_EXTRA = (("calc16", 122, 20),)


def hard_cases() -> list[Case]:
    """A fixed panel, the same for every run: the full-degree mix, the
    known-failing pool cases of the workloads and HARD_EXTRA."""
    cases = [_critical("hard", POOL_SEED, i, HARD_DEGREES[i % len(HARD_DEGREES)], tuple(FEATURES))
             for i in range(HARD_SIZE)]
    cases += [MAKERS[w](POOL_SEED, k) for w, ks in KNOWN_FAILING.items() for k in ks]
    return cases + [MAKERS[w](seed, k) for w, seed, k in HARD_EXTRA]
