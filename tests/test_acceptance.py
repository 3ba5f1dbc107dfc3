"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS/FAIL`` line (visible
with ``pytest tests/test_acceptance.py -v -s``) and enforces the pinned
tolerances inline.  Identity checks are asserted as residuals; point-set
checks (spectral mapping, inclusions) match within the stated radii.

Eigenvalues of defective matrices are determined only to roughly the square
root of the backward error, so the two set-inclusion checks that read
eigenvalues off Jordan-type blocks use a 2e-6 identification radius; every
algebraic-identity residual is held to the advertised bound.
"""

import contextlib
import functools
import io
import json
import time
from pathlib import Path

import numpy as np

from kreincalc import (
    INF,
    GramSpace,
    JetFunction,
    LinearRelation,
    MoebiusMap,
    Polynomial,
    RationalFunction,
    apply_calculus,
    chordal_distance,
    decompose,
    diagonal_image,
    diagonal_preimage,
    embed_rational,
    gram_factorize,
    is_inf,
    map_adjoint,
    norm_f,
    rational_apply,
    spectral_measure,
    spectral_projection,
    spectrum,
    theta_op,
    verify_definitizing,
    xi,
)
from kreincalc import cli
from kreincalc.relations import orthonormal_columns
from kreincalc.tolerances import ATOM_MATCH_TOL, MEASURE_TOL

from .helpers import (
    random_definitizable,
    random_gram,
    random_invertible,
    random_proper_relation,
    random_rational,
    random_real_rational,
    random_relation,
    match_point_sets,
)

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(number, name):
    """Print one PASS/FAIL line per acceptance test, then let pytest record it."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {number} {name}: FAIL ({type(exc).__name__}: {exc})")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS ({detail})")
        return inner

    return wrap


def regular_moebius(rng):
    while True:
        a, b, c, d = (complex(*rng.normal(size=2)) for _ in range(4))
        m = MoebiusMap(a, b, c, d)
        scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)
        if abs(m.det()) > 0.1 * scale * scale:
            return m


def random_complex_matrix(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def rank_deficient(rng, n, drop=1):
    u = random_invertible(rng, n)
    v = random_invertible(rng, n)
    s = np.abs(rng.normal(size=n)) + 0.5
    s[:drop] = 0.0
    return u @ np.diag(s) @ v


def random_jets(rng, pair):
    return JetFunction(pair, {
        w: rng.normal(size=pair.degrees[w] + 1) + 1j * rng.normal(size=pair.degrees[w] + 1)
        for w in pair.points})


def relative(resid, scale):
    return resid / max(1.0, scale)


@criterion(1, "moebius-transform-suite")
def test_01_moebius_transform_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 7))
        rel = random_proper_relation(rng, n, with_mul=bool(rng.random() < 0.3))
        m = regular_moebius(rng)
        outer = regular_moebius(rng)
        assert rel.moebius(m).moebius(outer).same_as(rel.moebius(outer.compose(m)))
        mapped = [(m(p), mult) for p, mult in spectrum(rel).points]
        assert match_point_sets(mapped, spectrum(rel.moebius(m)).points, tol=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    return f"200 instances, composition and spectral mapping within 1e-8, {elapsed:.2f}s"


@criterion(2, "rational-calculus-suite")
def test_02_rational_calculus_suite():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        gram = random_gram(rng, n)
        space = GramSpace(gram)
        rel = LinearRelation.from_operator(random_complex_matrix(rng, n))
        rep = spectrum(rel)
        pts = [p for p, _ in rep.points]
        avoid = pts + [np.conj(complex(p)) for p in pts if not is_inf(p)]
        r1 = random_rational(rng, avoid=avoid, deg_num=2, deg_den=2)
        r2 = random_rational(rng, avoid=avoid, deg_num=1, deg_den=2)
        m1 = rational_apply(r1, rel, rep)
        m2 = rational_apply(r2, rel, rep)
        scale = max(1.0, np.linalg.norm(m1), np.linalg.norm(m2))

        resid = np.linalg.norm(rational_apply(r1 + r2, rel, rep) - m1 - m2) / scale
        worst = max(worst, resid)
        resid = np.linalg.norm(rational_apply(r1 * r2, rel, rep) - m1 @ m2)
        worst = max(worst, resid / max(scale, np.linalg.norm(m1) * np.linalg.norm(m2)))

        adj = rel.adjoint(gram)
        resid = np.linalg.norm(map_adjoint(m1, space, space) - rational_apply(r1.sharp(), adj, spectrum(adj)))
        worst = max(worst, resid / scale)

        eigs = np.linalg.eigvals(m1)
        targets = [complex(r1(p)) for p in pts]
        eig_scale = max(1.0, float(np.linalg.norm(m1)))
        worst = max(worst, max(min(abs(e - t) for t in targets) for e in eigs) / eig_scale)
        worst = max(worst, max(min(abs(e - t) for e in eigs) for t in targets) / eig_scale)

        mm = regular_moebius(rng)
        moved = rel.moebius(mm)
        rep_m = spectrum(moved)
        r3 = random_rational(rng, avoid=[p for p, _ in rep_m.points] + [mm(INF)], deg_num=2, deg_den=2)
        rhs = rational_apply(r3, moved, rep_m)
        resid = np.linalg.norm(rational_apply(r3.compose_moebius(mm), rel, rep) - rhs)
        worst = max(worst, resid / max(1.0, np.linalg.norm(rhs)))

        assert worst < 1e-8
    return f"200 instances, homomorphism/adjoint/spectral-map/moebius residuals <= {worst:.1e}"


@criterion(3, "diagonal-transform-suite")
def test_03_diagonal_transform_suite():
    rng = np.random.default_rng(303)
    worst = 0.0

    def proj_distance(r1, r2):
        return float(np.linalg.norm(r1.graph.projector() - r2.graph.projector()))

    for _ in range(100):
        n = int(rng.integers(2, 5))

        # three-way containment equivalence for an operator T
        t_mat = rank_deficient(rng, n) if rng.random() < 0.5 else random_complex_matrix(rng, n)
        b = LinearRelation.from_operator(random_complex_matrix(rng, n))
        if rng.random() < 0.5:
            a = diagonal_image(t_mat, b).boxplus(random_relation(rng, n, graph_dim=1))
        else:
            a = random_relation(rng, n)
        t_rel = LinearRelation.from_operator(t_mat)
        c1 = a.contains(diagonal_image(t_mat, b))
        c2 = diagonal_preimage(t_mat, a).contains(b)
        c3 = a.compose(t_rel).contains(t_rel.compose(b))
        assert c1 == c2 == c3

        # preimage under a commuting map splits off the kernel square
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = random_invertible(rng, n)
        vinv = np.linalg.inv(v)
        k = int(rng.integers(1, n))
        t_c = v @ np.diag(np.concatenate([np.zeros(k), d[k:]])) @ vinv
        coeffs = rng.normal(size=3)
        c_full = v @ np.diag(d) @ vinv
        s_mat = coeffs[0] * np.eye(n) + coeffs[1] * c_full + coeffs[2] * c_full @ c_full
        kb = v[:, :k]
        zero = np.zeros_like(kb)
        ker_sq = LinearRelation.from_graph_columns(np.hstack([kb, zero]), np.hstack([zero, kb]))
        lhs = diagonal_preimage(t_c, LinearRelation.from_operator(s_mat))
        rhs = LinearRelation.from_operator(s_mat).boxplus(ker_sq)
        worst = max(worst, proj_distance(lhs, rhs))
        assert lhs.same_as(rhs)

        # sums and products only grow under the preimage
        t2 = rank_deficient(rng, n) if rng.random() < 0.5 else random_complex_matrix(rng, n)
        a1 = random_relation(rng, n)
        a2 = random_relation(rng, n)
        assert diagonal_preimage(t2, a1.operator_sum(a2)).contains(
            diagonal_preimage(t2, a1).operator_sum(diagonal_preimage(t2, a2)))
        assert diagonal_preimage(t2, a1.compose(a2)).contains(
            diagonal_preimage(t2, a1).compose(diagonal_preimage(t2, a2)))

        # kernels of the preimage are preimages of kernels
        a3 = random_relation(rng, n)
        lams = [complex(rng.normal(), rng.normal()), INF]
        sp = spectrum(a3)
        if not sp.is_full_sphere and sp.points:
            lams.append(sp.points[0][0])
        for lam in lams:
            lhs_k = diagonal_preimage(t2, a3).kernel(lam)
            rhs_k = a3.kernel(lam).preimage(t2)
            worst = max(worst, float(np.linalg.norm(lhs_k.projector() - rhs_k.projector())))
            assert lhs_k.same_as(rhs_k)

        # domain of the preimage: always included, equal when ranges allow
        t_inv = random_invertible(rng, n)
        lhs_d = diagonal_preimage(t_inv, a3).dom()
        rhs_d = a3.dom().preimage(t_inv)
        worst = max(worst, float(np.linalg.norm(lhs_d.projector() - rhs_d.projector())))
        assert lhs_d.same_as(rhs_d)
        t_def = rank_deficient(rng, n)
        assert a3.dom().preimage(t_def).contains(diagonal_preimage(t_def, a3).dom())
        cols = max(1, n - 1)
        a4 = LinearRelation.from_graph_columns(
            random_complex_matrix(rng, n, cols), t_def @ random_complex_matrix(rng, n, cols))
        assert diagonal_preimage(t_def, a4).dom().same_as(a4.dom().preimage(t_def))

        # adjoint of the image is the preimage of the adjoint
        m = int(rng.integers(2, 5))
        g_v = GramSpace(random_gram(rng, m))
        g_k = GramSpace(random_gram(rng, n))
        t_r = random_complex_matrix(rng, n, m)
        a5 = random_relation(rng, n)
        t_plus = map_adjoint(t_r, g_v, g_k)
        lhs_a = diagonal_image(t_plus, a5).adjoint(g_v.gram)
        rhs_a = diagonal_preimage(t_r, a5.adjoint(g_k.gram))
        worst = max(worst, proj_distance(lhs_a, rhs_a))
        assert lhs_a.same_as(rhs_a)

    assert worst < 1e-8
    return f"6 identities x 100 instances, max projector distance {worst:.1e}"


@criterion(4, "factorization-transport-suite")
def test_04_factorization_transport_suite():
    rng = np.random.default_rng(404)
    worst_tt = 0.0
    worst = 0.0
    rank0 = 0
    for _ in range(100):
        pair = random_definitizable(rng, allow_mul=bool(rng.random() < 0.4)).verify()
        fact = gram_factorize(pair)
        q_scale = max(1.0, float(np.linalg.norm(pair.q_matrix)))
        worst_tt = max(worst_tt, np.linalg.norm(fact.gram_product - pair.q_matrix) / q_scale)
        if fact.rank == 0:
            rank0 += 1
            continue
        n = pair.space.dim
        worst = max(worst, np.linalg.norm(theta_op(fact, np.eye(n)) - np.eye(fact.rank)))
        worst = max(worst, np.linalg.norm(theta_op(fact, pair.q_matrix) - fact.factor_product) / q_scale)

        avoid = list(pair.points) + [np.conj(complex(p)) for p in pair.points if not is_inf(p)]
        r1 = random_rational(rng, avoid=avoid, deg_num=1, deg_den=2)
        r2 = random_rational(rng, avoid=avoid, deg_num=2, deg_den=2)
        c1 = rational_apply(r1, pair.relation, pair.report)
        c2 = rational_apply(r2, pair.relation, pair.report)
        th1 = theta_op(fact, c1)
        th2 = theta_op(fact, c2)
        scale = max(1.0, np.linalg.norm(c1), np.linalg.norm(c2))
        worst = max(worst, np.linalg.norm(fact.factor_adjoint @ c1 - th1 @ fact.factor_adjoint) / scale)
        worst = max(worst, np.linalg.norm(theta_op(fact, c1 @ c2) - th1 @ th2)
                    / max(1.0, np.linalg.norm(c1) * np.linalg.norm(c2)))
        c1_plus = map_adjoint(c1, pair.space, pair.space)
        worst = max(worst, np.linalg.norm(theta_op(fact, c1_plus) - th1.conj().T) / scale)

        c_sa = rational_apply(r1 + r1.sharp(), pair.relation, pair.report)
        th_sa = theta_op(fact, c_sa)
        hilbert = pair.space.hilbert_norm(c_sa)
        assert float(np.linalg.norm(th_sa, 2)) <= hilbert + 1e-8 * max(1.0, hilbert)

        worst = max(worst, np.linalg.norm(xi(fact, np.eye(fact.rank)) - pair.q_matrix) / q_scale)
        x1 = xi(fact, th1)
        worst = max(worst, np.linalg.norm(xi(fact, th1.conj().T) - map_adjoint(x1, pair.space, pair.space))
                    / max(1.0, np.linalg.norm(x1)))
        worst = max(worst, np.linalg.norm(xi(fact, th1 @ th2 @ fact.factor_product) - x1 @ xi(fact, th2))
                    / max(1.0, np.linalg.norm(x1) * np.linalg.norm(th2)))
        worst = max(worst, np.linalg.norm(x1 - pair.q_matrix @ c1)
                    / max(1.0, q_scale * np.linalg.norm(c1)))

    assert worst_tt < 1e-9
    assert worst < 1e-8
    return (f"100 pairs ({rank0} with vanishing factor), TT+ residual <= {worst_tt:.1e}, "
            f"transport identities <= {worst:.1e}")


@criterion(5, "spectral-location-suite")
def test_05_spectral_location_suite():
    rng = np.random.default_rng(505)
    max_im = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = random_gram(rng, n)
        w = random_complex_matrix(rng, n)
        b = np.linalg.solve(g, w @ w.conj().T)
        max_im = max(max_im, float(np.max(np.abs(np.linalg.eigvals(b).imag))))
    assert max_im < 1e-7

    rng = np.random.default_rng(515)
    for _ in range(100):
        pair = random_definitizable(rng, allow_mul=bool(rng.random() < 0.4)).verify()
        for p, _ in pair.report.points:
            assert is_inf(p) or abs(complex(p).imag) <= 1e-7 or pair.q.zero_degree_at(p) >= 1
        fact = gram_factorize(pair)
        theta_pts = [tp for tp, _ in spectrum(fact.theta).points] if fact.rank else []
        spec_pts = [sp for sp, _ in pair.report.points]
        for tp in theta_pts:
            assert min(chordal_distance(tp, sp) for sp in spec_pts) <= 1e-7
        for sp in spec_pts:
            in_theta = bool(theta_pts) and min(chordal_distance(tp, sp) for tp in theta_pts) <= 1e-7
            if is_inf(sp):
                in_qzero = pair.q.zero_degree_at(INF) >= 1
            else:
                in_qzero = pair.q.zero_degree_at(sp) >= 1
            assert in_theta or in_qzero
        finite_crit = [complex(w2) for w2 in pair.critical_points if not is_inf(w2)]
        for w2 in finite_crit:
            assert min(abs(np.conj(w2) - u) for u in finite_crit) <= 1e-7
    return "200 positive operators real to 1e-7; zero-set location and factor sandwich on 100 pairs"


@criterion(6, "jet-calculus-suite")
def test_06_jet_calculus_suite():
    rng = np.random.default_rng(606)
    worst = 0.0
    eig_radius = 0.0
    for _ in range(100):
        pair = random_definitizable(rng, allow_mul=bool(rng.random() < 0.35)).verify()
        fact = gram_factorize(pair)
        n = pair.space.dim
        radius = max([abs(complex(w)) for w in pair.points if not is_inf(w)] + [1.0])
        mu1 = 1j * (1.37 + radius)
        mu2 = -1j * (1.11 + radius) + 0.3

        prev = None
        for k in range(10):
            phi = random_jets(rng, pair)
            m_phi = apply_calculus(fact, phi)
            scale = max(1.0, float(np.linalg.norm(m_phi)))
            if prev is not None:
                psi, m_psi = prev
                resid = np.linalg.norm(apply_calculus(fact, phi * psi) - m_phi @ m_psi)
                worst = max(worst, resid / max(1.0, np.linalg.norm(m_phi) * np.linalg.norm(m_psi)))
            prev = (phi, m_phi)
            worst = max(worst, np.linalg.norm(
                apply_calculus(fact, phi.sharp()) - map_adjoint(m_phi, pair.space, pair.space)) / scale)
            if k < 3:
                worst = max(worst, np.linalg.norm(
                    apply_calculus(fact, phi, mu=mu1) - apply_calculus(fact, phi, mu=mu2)) / scale)
            values = [complex(v[0]) for v in phi.values.values()]
            for e in np.linalg.eigvals(m_phi):
                eig_radius = max(eig_radius, min(abs(e - v) for v in values) / scale)

        rr = random_real_rational(rng, avoid=list(pair.points))
        resid = np.linalg.norm(apply_calculus(fact, embed_rational(pair, rr))
                               - rational_apply(rr, pair.relation, pair.report))
        worst = max(worst, resid)

        pts = list(pair.points)
        if len(pts) >= 2:
            k = int(rng.integers(1, len(pts)))
            idx = rng.permutation(len(pts))
            d1 = [pts[i] for i in idx[:k]]
            d2 = [pts[i] for i in idx[k:]]
            p1 = spectral_projection(fact, d1)
            p2 = spectral_projection(fact, d2)
            sc = max(1.0, np.linalg.norm(p1), np.linalg.norm(p2))
            worst = max(worst, np.linalg.norm(p1 @ p1 - p1) / max(1.0, np.linalg.norm(p1) ** 2))
            worst = max(worst, np.linalg.norm(p1 @ p2) / sc)
            worst = max(worst, np.linalg.norm(p1 + p2 - np.eye(n)) / sc)
            real_pts = [w for w in pts if not is_inf(w) and abs(complex(w).imag) < 1e-9]
            if real_pts:
                p_r = spectral_projection(fact, real_pts)
                worst = max(worst, np.linalg.norm(map_adjoint(p_r, pair.space, pair.space) - p_r)
                            / max(1.0, np.linalg.norm(p_r)))
            q_cols = orthonormal_columns(p1)
            if q_cols.shape[1]:
                comp = diagonal_image(q_cols.conj().T @ p1, pair.relation)
                finite_d1 = [complex(w) for w in d1 if not is_inf(w)]
                for cp, _ in spectrum(comp).points:
                    if is_inf(cp):
                        assert any(is_inf(w) for w in d1)
                    else:
                        dist = min(abs(complex(cp) - v) for v in finite_d1) if finite_d1 else np.inf
                        eig_radius = max(eig_radius, dist)

    assert worst < 1e-7
    assert eig_radius < 2e-6
    return (f"100 pairs x 10 jet functions, identity residuals <= {worst:.1e}, "
            f"eigenvalue identification radius <= {eig_radius:.1e}")


@criterion(7, "worked-example-goldens")
def test_07_worked_example_goldens():
    space = GramSpace(np.diag([1.0, -1.0]))
    rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
    pair = verify_definitizing(space, rel, RationalFunction(Polynomial([2.0, -1.0])))
    fact = gram_factorize(pair)
    worst = float(np.max(np.abs(fact.factor - np.array([[1.0], [0.0]]))))
    worst = max(worst, float(np.max(np.abs(fact.theta.operator_matrix() - np.array([[1.0]])))))
    phi = JetFunction.from_points(pair, {1.0: [3.0], 2.0: [1.0, -2.0]})
    worst = max(worst, float(np.max(np.abs(apply_calculus(fact, phi) - np.diag([3.0, 1.0])))))
    worst = max(worst, float(np.max(np.abs(spectral_projection(fact, [1.0]) - np.diag([1.0, 0.0])))))

    rot = LinearRelation.from_operator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    pair2 = verify_definitizing(GramSpace(np.diag([1.0, -1.0])), rot,
                                RationalFunction(Polynomial([1.0, 0.0, 1.0])))
    fact2 = gram_factorize(pair2)
    assert fact2.rank == 0
    rng = np.random.default_rng(7)
    phi2 = random_jets(rng, pair2)
    dec2 = decompose(pair2, phi2)
    resid = np.max(np.abs(apply_calculus(fact2, phi2)
                          - rational_apply(dec2.s, pair2.relation, pair2.report)))
    worst = max(worst, float(resid))
    assert worst < 1e-12
    return f"running and degenerate examples exact to {max(worst, 1e-16):.1e}"


@criterion(8, "calculus-norm-bound")
def test_08_calculus_norm_bound():
    space = GramSpace(np.diag([1.0, -1.0]))
    rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
    pairs = [verify_definitizing(space, rel, RationalFunction(Polynomial([2.0, -1.0])))]
    for seed in (81, 82):
        pairs.append(random_definitizable(np.random.default_rng(seed), allow_mul=(seed == 82)).verify())

    rng = np.random.default_rng(808)
    details = []
    for pair in pairs:
        fact = gram_factorize(pair)
        cal = 0.0
        for _ in range(500):
            phi = random_jets(rng, pair)
            cal = max(cal, float(np.linalg.norm(apply_calculus(fact, phi), 2)) / norm_f(phi))
        assert np.isfinite(cal) and cal > 0.0
        held = 0.0
        for _ in range(500):
            phi = random_jets(rng, pair)
            held = max(held, float(np.linalg.norm(apply_calculus(fact, phi), 2)) / norm_f(phi))
        assert held <= 2.0 * cal
        details.append(f"{held / cal:.2f}")
    return f"3 pairs x (500+500) samples, held-out/calibration sup ratios {', '.join(details)}"


@criterion(9, "cli-reports")
def test_09_cli_reports(tmp_path):
    def run(command, fixture, *extra):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([command, "--input", str(FIXTURES / fixture), *extra])
        text = buf.getvalue()
        return rc, json.loads(text) if text else None

    def stable_bytes(command, fixture):
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / f"{command}-{fixture}-{name}"
            rc, _ = run(command, fixture, "--output", str(out))
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        return json.loads(blobs[0])

    doc = stable_bytes("definitize", "running.json")
    assert abs(doc["diagnostics"]["psd_margin"] - 1.0) < 1e-12
    q_mat = np.array([[complex(e[0], e[1]) for e in row] for row in doc["results"]["q_matrix"]])
    assert np.allclose(q_mat, np.diag([1.0, 0.0]), atol=1e-12)

    doc = stable_bytes("project", "running.json")
    mat = np.array([[complex(e[0], e[1]) for e in row] for row in doc["results"]["matrix"]])
    assert np.allclose(mat, np.diag([1.0, 0.0]), atol=1e-12)

    doc = stable_bytes("spectrum", "pencil.json")
    labels = {json.dumps(e["point"]): e["multiplicity"] for e in doc["spectrum"]["points"]}
    assert labels == {"[0.0, 0.0]": 1, '"inf"': 1}

    error_table = [
        ("definitize", "err_bad_json.json", 2, "validation"),
        ("spectrum", "err_ragged.json", 2, "validation"),
        ("calculus", "err_bad_label.json", 2, "validation"),
        ("definitize", "err_pole_on_spectrum.json", 3, "pole-meets-spectrum"),
        ("definitize", "err_not_selfadjoint.json", 3, "not-self-adjoint"),
        ("definitize", "err_not_positive.json", 3, "not-positive"),
        ("project", "err_unknown_delta.json", 3, "point-not-in-spectrum"),
        ("definitize", "err_inconsistency.json", 4, "inconsistency"),
    ]
    for command, fixture, code, name in error_table:
        rc, doc = run(command, fixture)
        assert rc == code and doc["error"]["code"] == name
    return "3 golden reports byte-stable; exit codes 2/3/4 each triggered by a dedicated fixture"


@criterion(10, "factor-space-compression")
def test_10_factor_space_compression():
    # theta(A), built from the compressed resolvent, is the pullback
    # (T x T)^{-1}(A) of the graph, and its own spectral measure is the one
    # the factorization returns
    rng = np.random.default_rng(1010)
    worst_point = 0.0
    worst_proj = 0.0
    with_mul = 0
    for trial in range(60):
        planted = random_definitizable(rng, allow_mul=(trial % 2 == 0))
        pair = planted.verify()
        fact = gram_factorize(pair)
        if fact.rank == 0:
            continue
        assert diagonal_preimage(fact.factor, pair.relation).same_as(fact.theta)
        with_mul += not fact.theta.is_operator()
        own = spectral_measure(fact.theta).atoms
        assert len(own) == len(fact.measure.atoms)
        for (p, proj), (p_own, proj_own) in zip(fact.measure.atoms, own):
            if is_inf(p) or is_inf(p_own):
                assert is_inf(p) and is_inf(p_own)
            else:
                worst_point = max(worst_point, abs(complex(p) - complex(p_own)))
            worst_proj = max(worst_proj, float(np.linalg.norm(proj - proj_own)))
    assert with_mul > 0
    assert worst_point <= ATOM_MATCH_TOL
    assert worst_proj <= MEASURE_TOL
    return (f"60 pairs ({with_mul} with a multivalued theta), pullback equal; atoms within "
            f"{worst_point:.1e}, projectors within {worst_proj:.1e}")
