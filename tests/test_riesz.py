"""The Riesz-projection oracle against the planted benchmark cases, and the calculus against it.

The oracle (helpers.riesz_projection) integrates the graph resolvent around
one planted point at a time; the planted projectors are built from model
blocks.  Neither uses q, the Gram factor or the Hermite step, so together
they check spectral_projection, at infinity too, by a route of its own.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from kreincalc import (
    INF,
    GramSpace,
    LinearRelation,
    Polynomial,
    RationalFunction,
    gram_factorize,
    spectral_projection,
    verify_definitizing,
)

from helpers import riesz_projection

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import planted  # noqa: E402

CASES = 40
CHECK_TOL = 1e-6  # the benchmark's relative Frobenius tolerance


def relative_error(got, want):
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


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
        q = RationalFunction(Polynomial(case.q_num), Polynomial(case.q_den))
        pair = verify_definitizing(GramSpace(case.gram), LinearRelation.from_graph_columns(case.x, case.y), q)
        fact = gram_factorize(pair)
        for p, want in projections.items():
            assert relative_error(spectral_projection(fact, [p]), want) <= CHECK_TOL, (name, case.index, p)
        if planted.INF in case.points:  # infinity is what the finite points leave
            want = np.eye(case.n) - sum(projections.values())
            assert relative_error(spectral_projection(fact, [INF]), want) <= CHECK_TOL, (name, case.index)
            at_inf += 1
    assert at_inf > 0  # the sample reaches the rewritten rows at infinity
