"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import planted
import run
from probe import scaled
from tracing import ROOT as ROOT_SPAN
from tracing import Tracer

HERE = Path(__file__).resolve().parent


def _operator(case):
    return case.y @ np.linalg.inv(case.x)


def _poly_at(coeffs, mat):
    out = np.zeros_like(mat)
    power = np.eye(mat.shape[0], dtype=complex)
    for c in coeffs:
        out = out + c * power
        power = power @ mat
    return out


@pytest.mark.parametrize("maker,index", [(planted.calc16_case, 0), (planted.critical_case, 1),
                                         (planted.critical_case, 5), (planted.critical_case, 9)])
def test_references_agree_with_direct_evaluation(maker, index):
    # pick an operator case (no multivalued part) so A = Y X^-1 exists
    case = next(c for c in (maker(3, index + 11 * k) for k in range(40)) if "inf" not in c.points)
    a = _operator(case)
    r_direct = _poly_at(case.r_num, a) @ np.linalg.inv(_poly_at(case.r_den, a))
    assert run.rel_error(r_direct, case.r_matrix) < 1e-9
    for proj in (case.delta_proj, case.rest_proj):
        assert np.allclose(proj @ proj, proj, atol=1e-9)
        assert np.allclose(proj @ a, a @ proj, atol=1e-9)
    assert np.allclose(case.delta_proj + case.rest_proj, np.eye(case.n), atol=1e-9)
    q_mat = _poly_at(case.q_num, a) @ np.linalg.inv(_poly_at(case.q_den, a))
    h = case.gram @ q_mat
    eig = np.linalg.eigvalsh((h + h.conj().T) / 2)
    assert eig.min() >= -1e-9 * max(1.0, np.abs(eig).max())


def test_planted_jets_have_degree_plus_one_entries():
    for index in range(22):
        case = planted.critical_case(0, index)
        assert case.total_degree == planted.CRITICAL_DEGREES[index % len(planted.CRITICAL_DEGREES)]
        assert 8 <= case.n <= 12
        for p in case.points:
            assert len(case.jets[p]) == case.degrees[p] + 1
    assert all(planted.calc16_case(0, i).total_degree <= 4 for i in range(20))


def test_traced_request_nests_spans_and_self_times_sum_to_wall():
    workload = run.InProcess("calc16", 0)
    case = workload.case(0)
    tracer = Tracer(keep_spans=True)
    with tracer:
        out = workload.run(case, tracer)
    assert out.ok, out.detail
    spans = tracer.spans[0]
    by_id = {s[0]: s for s in spans}

    def ancestors(span):
        while span[1] is not None:
            span = by_id[span[1]]
            yield span[2]

    spectrum = [s for s in spans if s[2] == "spectral.spectrum"]
    assert spectrum and any("krein.verify_definitizing" in ancestors(s) for s in spectrum)
    root = [s for s in spans if s[2] == ROOT_SPAN]
    assert len(root) == 1
    wall = root[0][4] - root[0][3]
    assert sum(s[5] for s in spans) == pytest.approx(wall, rel=1e-9)
    assert wall <= out.seconds


def test_every_binding_is_wrapped_and_restored():
    import kreincalc
    from kreincalc import cli, jetcalc, krein, spectral

    before = (krein.spectrum, jetcalc.rational_apply, cli.decompose, kreincalc.verify_definitizing)
    import scipy.linalg

    svd = scipy.linalg.svd
    with Tracer():
        assert krein.spectrum is spectral.spectrum is not before[0]
        assert jetcalc.rational_apply is spectral.rational_apply is not before[1]
        assert cli.decompose is jetcalc.decompose is not before[2]
        assert kreincalc.verify_definitizing is krein.verify_definitizing is not before[3]
        assert scipy.linalg.svd is not svd
    assert (krein.spectrum, jetcalc.rational_apply, cli.decompose, kreincalc.verify_definitizing) == before
    assert scipy.linalg.svd is svd


def test_counts_repeat_for_a_fixed_seed():
    def counts():
        workload = run.InProcess("critical", 4)
        outcomes, totals = workload.run_traced([workload.case(i) for i in range(12)])
        return totals[0]["kernels"], totals[0]["calls"], [o.ok for o in outcomes]

    assert counts() == counts()


def test_runs_draw_from_the_pool_without_known_failures():
    for workload in planted.MAKERS:
        order = planted.pool_order(workload, 7)
        assert order == planted.pool_order(workload, 7) != planted.pool_order(workload, 8)
        assert not set(order) & set(planted.KNOWN_FAILING[workload])
        assert len(order) == planted.POOL_SIZE - len(planted.KNOWN_FAILING[workload])
        case = planted.request_case(workload, 7, 3)
        assert case.index == order[3]
    hard = planted.hard_cases()
    assert len(hard) == (planted.HARD_SIZE + sum(map(len, planted.KNOWN_FAILING.values()))
                         + len(planted.HARD_EXTRA))
    for source in run.CLI_SOURCES:
        chosen = run.cli_choice(source, 7)
        assert len(chosen) == run.CLI_PER_COMMAND * len(run.COMMANDS)
        assert sorted(k % len(run.COMMANDS) for k in chosen) == sorted(
            list(range(len(run.COMMANDS))) * run.CLI_PER_COMMAND)


def test_scaling_uses_the_probes_around_each_request():
    # the host runs at half speed for the last two requests: probes double
    durations = [1.0, 1.0, 2.0, 2.0]
    assert scaled(durations, [[0.1], [0.1], [0.2], [0.2]], 0, 0.1) == [1.0, 1.0, 1.0, 1.0]
    assert scaled(durations, [[0.1], [], [0.2], [0.2]], 1, 0.1) == pytest.approx([1.0, 2 / 3, 1.0, 1.0])


def test_importtime_parser_nests_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |     numpy.linalg",
        "import time:        40 |         45 |   scipy.linalg",
        "import time:         1 |         76 | kreincalc",
    ])
    assert run.cumulative_by_package(text, ["kreincalc", "scipy", "numpy"]) == {
        "kreincalc": 76, "scipy": 45, "numpy": 35}


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "calc16", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
