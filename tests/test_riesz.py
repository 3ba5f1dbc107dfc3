"""The Riesz-projection oracle against the planted benchmark cases, and the calculus against it.

The oracle (helpers.riesz_projection) integrates the graph resolvent around
one planted point at a time; the planted projectors are built from model
blocks.  Neither uses q, the Gram factor or the Hermite step, so together
they check spectral_projection, at infinity too, by a route of its own.
On pairs without a point at infinity the formula phi(A) = sum_w sum_k
phi_k(w) N_w^k P_w (helpers.riesz_calculus) checks apply_calculus the same
way, and the projections of the benchmark's hard panel are checked against
the oracle case by case.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from kreincalc import (
    INF,
    GramSpace,
    JetFunction,
    LinearRelation,
    MoebiusMap,
    Polynomial,
    RationalFunction,
    apply_calculus,
    embed_rational,
    gram_factorize,
    rational_apply,
    spectral_projection,
    verify_definitizing,
)

from helpers import riesz_calculus, riesz_projection

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import planted  # noqa: E402

CASES = 40
CHECK_TOL = 1e-6  # the benchmark's relative Frobenius tolerance


def relative_error(got, want):
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


def factorize(case):
    q = RationalFunction(Polynomial(case.q_num), Polynomial(case.q_den))
    return gram_factorize(verify_definitizing(GramSpace(case.gram), LinearRelation.from_graph_columns(case.x, case.y), q))


def finite_delta_cases(workload):
    """The first CASES seed-7 requests of a workload whose planted delta holds no infinity."""
    cases, index = [], 0
    while len(cases) < CASES:
        case = planted.request_case(workload, 7, index)
        index += 1
        if planted.INF not in case.delta:
            cases.append(case)
    return cases


def point_projections(case):
    """The oracle's projection onto each finite planted point, on a circle of half the distance to the
    nearest other finite point (radius 1 for a lone one)."""
    finite = [complex(p) for p in case.points if p != planted.INF]
    out = {}
    for p in finite:
        gaps = [abs(p - other) for other in finite if other != p]
        out[p] = riesz_projection(case.x, case.y, p, min(gaps) / 2.0 if gaps else 1.0)
    return out


@pytest.fixture(scope="module", params=["calc16", "critical"])
def workload(request):
    cases = finite_delta_cases(request.param)
    return request.param, [(case, point_projections(case)) for case in cases]


def test_oracle_reproduces_the_planted_projectors(workload):
    name, cases = workload
    for case, projections in cases:
        got = sum(projections[complex(p)] for p in case.delta)
        assert relative_error(got, case.delta_proj) <= 1e-12, (name, case.index)


def test_spectral_projections_match_the_oracle(workload):
    name, cases = workload
    at_inf = 0
    for case, projections in cases:
        fact = factorize(case)
        for p, want in projections.items():
            assert relative_error(spectral_projection(fact, [p]), want) <= CHECK_TOL, (name, case.index, p)
        if planted.INF in case.points:  # infinity is what the finite points leave
            want = np.eye(case.n) - sum(projections.values())
            assert relative_error(spectral_projection(fact, [INF]), want) <= CHECK_TOL, (name, case.index)
            at_inf += 1
    assert at_inf > 0  # the sample reaches the rewritten rows at infinity


@pytest.fixture(scope="module", params=["calc16", "critical"])
def bounded(request):
    """The first CASES seed-7 requests of a workload with no point at infinity, each with the oracle's r(A)."""
    cases, index = [], 0
    while len(cases) < CASES:
        case = planted.request_case(request.param, 7, index)
        index += 1
        if planted.INF not in case.points:
            cases.append((case, riesz_calculus(case.x, case.y, {complex(p): j for p, j in case.jets.items()})))
    return request.param, cases


def test_oracle_formula_reproduces_the_planted_calculus(bounded):
    name, cases = bounded
    for case, oracle in cases:
        assert relative_error(oracle, case.r_matrix) <= 1e-12, (name, case.index)


def test_calculus_matches_the_oracle_formula(bounded):
    name, cases = bounded
    for case, oracle in cases:
        fact = factorize(case)
        phi = JetFunction.from_points(fact.pair, {complex(p): j for p, j in case.jets.items()})
        assert relative_error(apply_calculus(fact, phi), oracle) <= CHECK_TOL, (name, case.index)


# The hard-panel cases whose projections fail, by (workload, index), with the reason and the ROADMAP
# item whose fix should make them pass; each is a strict xfail, so that fix must flip it.
HARD_FAILING = {("hard", 8): "ROADMAP item 5: its Hermite matrix has condition number 5.9e12, and its first "
                             "single-point projection ends in a typed 'spectral projection failed to be idempotent'"}
HARD = planted.hard_cases()


def hard_panel():
    for case in HARD:
        reason = HARD_FAILING.get((case.workload, case.index))
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        yield pytest.param(case, marks=marks, id=f"{case.workload}-{case.index}")


@pytest.mark.parametrize("case", hard_panel())
def test_hard_panel_projections_match_the_oracle(case):
    fact = factorize(case)
    for p, want in point_projections(case).items():
        assert relative_error(spectral_projection(fact, [p]), want) <= CHECK_TOL, p


def test_hard_case_7_projection_onto_its_split_double_zero():
    # the computed roots of q's planted double zero at -2.72674 split by
    # 2.5e-5; read off the root clusters, its degree came out 0, and the
    # projection, though idempotent, had trace 0 where the oracle's is 1
    case = HARD[7]
    w = next(p for p, d in case.degrees.items() if d == 2 and abs(p + 2.72674) < 1e-5)
    got = spectral_projection(factorize(case), [w])
    assert relative_error(got, point_projections(case)[w]) <= CHECK_TOL


def chain_at_infinity_pair(seed):
    """A pair with a Jordan chain of length 2 at infinity, where q has a double zero.

    The model operator has a Jordan 2-block at t0 on the flip Krein block, a
    simple real zero t3 of q = (z - t0)^2 (z - t3), and plain real points
    whose Gram sign is that of q there; it is moved by a congruence.  The
    real Moebius map m(z) = 1 / (z - t0) then takes the block to infinity:
    the relation becomes m(A), q becomes q o m^-1, and m^-1(u) = t0 + 1/u.
    Returns the pair, m^-1 and the finite points of m(A).
    """
    rng = np.random.default_rng(seed)
    t0, t3, *plain = rng.permutation(np.linspace(-2.5, 2.5, 6))
    q = RationalFunction(Polynomial.from_roots([t0, t0, t3]))
    signs = [float(np.sign(complex(q(t)).real)) for t in plain]
    n = 3 + len(plain)
    a0 = np.diag([t0, t0, t3] + plain).astype(complex)
    a0[0, 1] = 1.0
    g0 = np.diag([0.0, 0.0, rng.choice([-1.0, 1.0])] + signs).astype(complex)
    g0[0, 1] = g0[1, 0] = 1.0
    s = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    s_inv = np.linalg.inv(s)
    space = GramSpace(s_inv.T @ g0 @ s_inv)
    m = MoebiusMap(0.0, 1.0, 1.0, -t0)
    m_inv = MoebiusMap(t0, 1.0, 1.0, 0.0)
    rel = LinearRelation.from_operator(s @ a0 @ s_inv).moebius(m)
    pair = verify_definitizing(space, rel, q.compose_moebius(m_inv))
    return pair, m_inv, [complex(m(t)) for t in [t3] + plain]


class TestChainAtInfinity:
    @pytest.fixture(scope="class", params=[11, 12, 13])
    def chain(self, request):
        pair, m_inv, finite = chain_at_infinity_pair(request.param)
        assert pair.report.multiplicity_of(INF) == 2 and pair.relation.mul().dim == 1  # a chain, not two atoms
        assert pair.degrees[INF] == 2
        return gram_factorize(pair), m_inv, finite

    def test_calculus_matches_rational_apply(self, chain):
        fact, m_inv, _ = chain
        r = RationalFunction(Polynomial([1.0, 0.3, -0.2]), Polynomial([2.0, -1.0, 1.0]))  # poles at 0.5 +- 1.32i
        r_moved = r.compose_moebius(m_inv)
        got = apply_calculus(fact, embed_rational(fact.pair, r_moved))
        assert relative_error(got, rational_apply(r_moved, fact.pair.relation)) <= CHECK_TOL

    def test_projection_at_infinity_is_what_the_finite_points_leave(self, chain):
        fact, _, finite = chain
        x, y = fact.pair.relation.graph_columns()
        projections = {}
        for p in finite:
            gap = min(abs(p - other) for other in finite if other != p)
            projections[p] = riesz_projection(x, y, p, gap / 2.0)
            assert relative_error(spectral_projection(fact, [p]), projections[p]) <= CHECK_TOL
        want = np.eye(len(x)) - sum(projections.values())
        assert relative_error(spectral_projection(fact, [INF]), want) <= CHECK_TOL
