"""End-to-end tests for the command-line interface.

Each golden fixture is run through ``kreincalc.cli.main`` in-process; the
reports are parsed back and compared against independently computed values.
Exit codes: 0 success, 2 validation failure, 3 violated mathematical
precondition, 4 internal inconsistency.
"""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kreincalc import cli
from kreincalc.spectral import _PENCIL_PROBES

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN_RUNS = [
    ("definitize", "running.json"),
    ("project", "running.json"),
    ("calculus", "running.json"),
    ("norm-f", "running.json"),
    ("factorize", "running.json"),
    ("adjoint", "running.json"),
    ("spectrum", "pencil.json"),
    ("rational-apply", "running_rational.json"),
    ("theta", "running_rational.json"),
    ("xi", "running_rational.json"),
    ("definitize", "degenerate.json"),
    ("factorize", "degenerate.json"),
    ("calculus", "degenerate.json"),
    ("project", "degenerate.json"),
    ("xi", "degenerate.json"),
    ("definitize", "mul.json"),
    ("calculus", "mul.json"),
    ("project", "mul.json"),
]

ERROR_RUNS = [
    ("definitize", "err_bad_json.json", 2, "validation"),
    ("spectrum", "err_ragged.json", 2, "validation"),
    ("calculus", "err_bad_label.json", 2, "validation"),
    ("definitize", "no_such_file.json", 2, "validation"),
    ("definitize", "err_pole_on_spectrum.json", 3, "pole-meets-spectrum"),
    ("definitize", "err_not_selfadjoint.json", 3, "not-self-adjoint"),
    ("definitize", "err_not_positive.json", 3, "not-positive"),
    ("project", "err_unknown_delta.json", 3, "point-not-in-spectrum"),
    ("definitize", "err_inconsistency.json", 4, "inconsistency"),
]


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON does not have."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def run_cli_text(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def run_cli(*argv):
    rc, text = run_cli_text(*argv)
    return rc, strict_json(text) if text else None


def run_on(command, fixture, *extra):
    return run_cli(command, "--input", str(FIXTURES / fixture), *extra)


def as_complex(pair):
    if pair == "inf":
        return "inf"
    return complex(pair[0], pair[1])


def decode_matrix(rows):
    return np.array([[as_complex(e) for e in row] for row in rows], dtype=complex)


def point_map(entries, key="point"):
    """Index report entries by their (rounded) spectral point."""
    out = {}
    for entry in entries:
        p = as_complex(entry[key])
        label = "inf" if p == "inf" else complex(round(p.real, 6), round(p.imag, 6))
        out[label] = entry
    return out


class TestRunningGoldens:
    def test_definitize_report(self):
        rc, doc = run_on("definitize", "running.json")
        assert rc == 0
        assert doc["status"] == "ok"
        res = doc["results"]
        crit = [as_complex(p) for p in res["critical_points"]]
        assert len(crit) == 1 and abs(crit[0] - 2.0) < 1e-9
        degrees = point_map(res["degrees"])
        assert degrees[complex(1, 0)]["degree"] == 0
        assert degrees[complex(2, 0)]["degree"] == 1
        q_mat = decode_matrix(res["q_matrix"])
        assert np.allclose(q_mat, np.diag([1.0, 0.0]), atol=1e-12)
        assert abs(doc["diagnostics"]["psd_margin"] - 1.0) < 1e-12
        assert doc["diagnostics"]["self_adjoint_residual"] < 1e-12
        pts = point_map(doc["spectrum"]["points"])
        assert set(pts) == {complex(1, 0), complex(2, 0)}
        assert all(e["multiplicity"] == 1 for e in pts.values())

    def test_project_report(self):
        rc, doc = run_on("project", "running.json")
        assert rc == 0
        mat = decode_matrix(doc["results"]["matrix"])
        assert np.allclose(mat, np.diag([1.0, 0.0]), atol=1e-12)
        assert abs(as_complex(doc["results"]["trace"]) - 1.0) < 1e-12

    def test_calculus_report(self):
        rc, doc = run_on("calculus", "running.json")
        assert rc == 0
        res = doc["results"]
        mat = decode_matrix(res["matrix"])
        assert np.allclose(mat, np.diag([3.0, 1.0]), atol=1e-10)
        # the rational part of the decomposition is the constant 1
        assert [as_complex(c) for c in res["rational_part"]["num"]] == [1.0]
        assert [as_complex(c) for c in res["rational_part"]["den"]] == [1.0]
        values = point_map(res["scalar_part"])
        assert abs(as_complex(values[complex(1, 0)]["value"]) - 2.0) < 1e-9
        assert abs(as_complex(values[complex(2, 0)]["value"]) - 2.0) < 1e-9

    def test_norm_f_report(self):
        rc, doc = run_on("norm-f", "running.json")
        assert rc == 0
        assert doc["results"]["value"] == pytest.approx(5.0, abs=1e-12)

    def test_factorize_report(self):
        rc, doc = run_on("factorize", "running.json")
        assert rc == 0
        res = doc["results"]
        assert res["rank"] == 1
        factor = decode_matrix(res["factor"])
        assert np.allclose(factor, [[1.0], [0.0]], atol=1e-10)
        theta = decode_matrix(res["theta_matrix"])
        assert np.allclose(theta, [[1.0]], atol=1e-10)
        atoms = point_map(res["measure"])
        proj = decode_matrix(atoms[complex(1, 0)]["projector"])
        assert np.allclose(proj, [[1.0]], atol=1e-10)
        assert doc["diagnostics"]["factor_residual"] < 1e-12
        assert doc["diagnostics"]["psd_margin"] == pytest.approx(1.0, abs=1e-12)

    def test_base_point_near_the_spectrum_is_a_validation_error(self):
        # mu = 1.00000005i lies within the resolvent cutoff of the eigenvalue i
        rc, doc = run_on("calculus", "degenerate.json", "--mu", "0", "1.00000005")
        assert rc == 2
        assert doc["error"]["code"] == "validation"

    def test_adjoint_round_trips_through_spectrum(self, tmp_path):
        rc, doc = run_on("adjoint", "running.json")
        assert rc == 0
        assert doc["results"]["is_self_adjoint"] is True
        # the reported graph columns are a valid relation input again
        problem = tmp_path / "adjoint_graph.json"
        problem.write_text(json.dumps({"relation": {
            "X": doc["results"]["X"], "Y": doc["results"]["Y"]}}))
        rc2, doc2 = run_cli("spectrum", "--input", str(problem))
        assert rc2 == 0
        pts = sorted(as_complex(e["point"]).real for e in doc2["spectrum"]["points"])
        assert np.allclose(pts, [1.0, 2.0], atol=1e-9)

    def test_rational_apply_report(self):
        rc, doc = run_on("rational-apply", "running_rational.json")
        assert rc == 0
        mat = decode_matrix(doc["results"]["matrix"])
        assert np.allclose(mat, np.diag([1.0 / 6.0, 2.0 / 7.0]), atol=1e-12)

    def test_theta_report(self):
        rc, doc = run_on("theta", "running_rational.json")
        assert rc == 0
        out = decode_matrix(doc["results"]["output_matrix"])
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0 / 6.0) < 1e-12

    def test_xi_report(self):
        rc, doc = run_on("xi", "running_rational.json")
        assert rc == 0
        out = decode_matrix(doc["results"]["output_matrix"])
        assert np.allclose(out, np.diag([1.0 / 6.0, 0.0]), atol=1e-12)


class TestDegenerateGoldens:
    """Rotation pair with q = 1 + z^2: q(A) = 0, so the factor rank is 0."""

    def test_definitize_report(self):
        rc, doc = run_on("definitize", "degenerate.json")
        assert rc == 0
        res = doc["results"]
        crit = sorted(as_complex(p).imag for p in res["critical_points"])
        assert np.allclose(crit, [-1.0, 1.0], atol=1e-9)
        assert all(e["degree"] == 1 for e in res["degrees"])
        assert np.allclose(decode_matrix(res["q_matrix"]), 0.0, atol=1e-12)
        assert doc["diagnostics"]["psd_margin"] == 0.0

    def test_factorize_rank_zero(self):
        rc, doc = run_on("factorize", "degenerate.json")
        assert rc == 0
        res = doc["results"]
        assert res["rank"] == 0
        assert decode_matrix(res["factor"]).shape == (2, 0)
        assert res["measure"] == []

    def test_xi_of_empty_matrix_is_zero(self):
        rc, doc = run_on("xi", "degenerate.json")
        assert rc == 0
        assert doc["results"]["input_matrix"] == []
        out = decode_matrix(doc["results"]["output_matrix"])
        assert out.shape == (2, 2)
        assert np.allclose(out, 0.0)

    def test_calculus_equals_rational_image(self):
        rc, doc = run_on("calculus", "degenerate.json")
        assert rc == 0
        mat = decode_matrix(doc["results"]["matrix"])
        # r(A) = (A - I)(A^2 + 4)^{-1} with A the quarter rotation
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        want = (a - np.eye(2)) / 3.0
        assert np.allclose(mat, want, atol=1e-10)

    def test_project_nonreal_eigenvalue(self):
        rc, doc = run_on("project", "degenerate.json")
        assert rc == 0
        mat = decode_matrix(doc["results"]["matrix"])
        want = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.allclose(mat, want, atol=1e-10)
        assert abs(as_complex(doc["results"]["trace"]) - 1.0) < 1e-9


class TestMultivaluedGoldens:
    """Pair with a multivalued part: the point at infinity carries a jet."""

    def test_definitize_report(self):
        rc, doc = run_on("definitize", "mul.json")
        assert rc == 0
        res = doc["results"]
        assert res["critical_points"] == ["inf"]
        degrees = point_map(res["degrees"])
        assert degrees[complex(1, 0)]["degree"] == 0
        assert degrees["inf"]["degree"] == 1
        q_mat = decode_matrix(res["q_matrix"])
        assert np.allclose(q_mat, np.diag([0.5, 0.0]), atol=1e-12)

    def test_calculus_uses_jet_at_infinity(self):
        rc, doc = run_on("calculus", "mul.json")
        assert rc == 0
        mat = decode_matrix(doc["results"]["matrix"])
        assert np.allclose(mat, np.diag([2.0, 4.0]), atol=1e-10)

    def test_project_onto_multivalued_part(self):
        rc, doc = run_on("project", "mul.json")
        assert rc == 0
        mat = decode_matrix(doc["results"]["matrix"])
        assert np.allclose(mat, np.diag([0.0, 1.0]), atol=1e-10)


class TestByteStability:
    @pytest.mark.parametrize("command,fixture", GOLDEN_RUNS)
    def test_repeated_runs_identical(self, command, fixture, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            rc, _ = run_on(command, fixture, "--output", str(path))
            assert rc == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.endswith(b"}\n")
        strict_json(first)


class TestErrorExits:
    @pytest.mark.parametrize("command,fixture,code,name", ERROR_RUNS)
    def test_exit_code_and_error_object(self, command, fixture, code, name):
        rc, doc = run_on(command, fixture)
        assert rc == code
        assert doc["status"] == "error"
        assert doc["error"]["code"] == name
        assert doc["error"]["message"]

    def test_error_report_also_written_to_output(self, tmp_path):
        out = tmp_path / "err.json"
        rc, _ = run_on("definitize", "err_not_positive.json", "--output", str(out))
        assert rc == 3
        assert json.loads(out.read_text())["error"]["code"] == "not-positive"

    # a result and an error report alike: the write's failure replaces the report, on stdout
    @pytest.mark.parametrize("fixture", ["running.json", "err_not_positive.json"])
    def test_unwritable_output_is_a_validation_error_on_stdout(self, fixture, tmp_path):
        rc, doc = run_on("definitize", fixture, "--output", str(tmp_path / "no_such_dir" / "out.json"))
        assert rc == 2
        assert doc["status"] == "error" and doc["error"]["code"] == "validation"
        assert doc["error"]["message"].startswith("cannot write output file")

    def test_input_that_is_not_utf8_is_a_validation_error(self, tmp_path):
        problem = tmp_path / "not_utf8.json"
        problem.write_bytes(b"\xff\xfe\x00" + (FIXTURES / "running.json").read_bytes())
        rc, doc = run_cli("definitize", "--input", str(problem))
        assert rc == 2
        assert doc["error"]["code"] == "validation"
        assert doc["error"]["message"].startswith("input is not valid JSON")


class TestInputForms:
    def test_lowercase_graph_keys_accepted(self, tmp_path):
        problem = tmp_path / "lower.json"
        problem.write_text(json.dumps({"relation": {
            "x": [[1, 0], [0, 0]], "y": [[0, 0], [0, 1]]}}))
        rc, doc = run_cli("spectrum", "--input", str(problem))
        assert rc == 0
        labels = {json.dumps(e["point"]) for e in doc["spectrum"]["points"]}
        assert labels == {"[0.0, 0.0]", '"inf"'}

    def test_jet_labels_accept_pair_form(self, tmp_path):
        base = json.loads((FIXTURES / "running.json").read_text())
        base["function"] = {"jets": {"[1, 0]": [3], "2": [1, -2]}}
        problem = tmp_path / "pair_labels.json"
        problem.write_text(json.dumps(base))
        rc, doc = run_cli("calculus", "--input", str(problem))
        assert rc == 0
        mat = decode_matrix(doc["results"]["matrix"])
        assert np.allclose(mat, np.diag([3.0, 1.0]), atol=1e-10)

    def test_two_jet_labels_on_one_point_exit_2(self, tmp_path):
        base = json.loads((FIXTURES / "running.json").read_text())
        base["function"] = {"jets": {"1": [3], "1.00000001": [5], "2": [1, -2]}}
        problem = tmp_path / "twice.json"
        problem.write_text(json.dumps(base))
        rc, doc = run_cli("calculus", "--input", str(problem))
        assert rc == 2
        assert doc["error"]["code"] == "validation"
        assert "both match" in doc["error"]["message"]

    def test_complex_matrix_entries_as_pairs(self, tmp_path):
        problem = tmp_path / "complex_entries.json"
        problem.write_text(json.dumps({
            "gram": [[0, 1], [1, 0]],
            "relation": {"operator": [[[0, 1], 0], [0, [0, -1]]]},
        }))
        rc, doc = run_cli("spectrum", "--input", str(problem))
        assert rc == 0
        imags = sorted(as_complex(e["point"]).imag for e in doc["spectrum"]["points"])
        assert np.allclose(imags, [-1.0, 1.0], atol=1e-9)


class TestTolerances:
    """The two cutoffs a caller can set: --tol-psd and --tol-rank."""

    def test_tol_psd_decides_positivity(self):
        rc, doc = run_on("definitize", "err_not_positive.json")
        assert rc == 3
        assert doc["error"]["code"] == "not-positive"
        # G q(A) = diag(1, -1): eigenvalue -1 passes at 10 * ||H||
        rc, doc = run_on("definitize", "err_not_positive.json", "--tol-psd", "10")
        assert rc == 0
        assert doc["status"] == "ok"

    def test_tol_rank_decides_graph_rank(self, tmp_path):
        problem = tmp_path / "near_singular.json"
        problem.write_text(json.dumps({"relation": {"X": [[1, 1], [0, 1e-8]], "Y": [[0, 0], [0, 0]]}}))
        rc, doc = run_cli("spectrum", "--input", str(problem))
        assert rc == 0
        assert doc["results"]["is_proper"] is True
        assert doc["spectrum"]["is_full_sphere"] is False
        # the second singular value, about 7e-9, falls below a 1e-6 cutoff
        rc, doc = run_cli("spectrum", "--input", str(problem), "--tol-rank", "1e-6")
        assert rc == 0
        assert doc["results"]["is_proper"] is False
        assert doc["spectrum"]["is_full_sphere"] is True

    @pytest.mark.parametrize("flag", ["--tol-psd", "--tol-rank"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_value_that_is_not_finite_and_nonnegative_exits_2(self, flag, value):
        # taken as given, --tol-psd nan or -1 made running.json not positive,
        # and --tol-rank nan read mul.json as the full sphere
        for command, fixture in (("definitize", "running.json"), ("spectrum", "mul.json"), ("calculus", "mul.json")):
            rc, doc = run_on(command, fixture, flag, value)
            assert rc == 2
            assert doc["command"] == command and doc["status"] == "error"
            assert doc["error"]["code"] == "validation"
            assert doc["error"]["message"].startswith(f"{flag} must be finite and nonnegative")


RUNNING = str(FIXTURES / "running.json")


class TestArgv:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["calculus", "--input", RUNNING, "--help"]])
    def test_help_exits_0_with_the_usage_and_every_option_on_stdout(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert out.startswith("usage: kreincalc {")
        assert all(name in out for name in [*cli._COMMANDS, "--input", "--output", "--tol-rank", "--tol-psd", "--mu"])

    @pytest.mark.parametrize("command,argv,plain", [
        ("calculus", ["--input=" + RUNNING], ["--input", RUNNING]),
        ("definitize", ["--tol-psd=1e-6", "--input", RUNNING], ["--input", RUNNING, "--tol-psd", "1e-6"]),
        ("calculus", ["--tol-psd", "nan", "--input", "no_such_file.json", "--input", RUNNING, "--tol-psd=1e-8"],
         ["--input", RUNNING]),
        ("calculus", ["--mu", "-1", "2", "--input", str(FIXTURES / "degenerate.json")],
         ["--input", str(FIXTURES / "degenerate.json"), "--mu", "-1", "2"]),
    ])
    def test_the_forms_of_a_call_give_the_bytes_of_the_plain_form(self, command, argv, plain):
        # flags before the command, the "=" form, and the last of a repeated flag
        assert run_cli_text(*argv, command) == run_cli_text(command, *plain)

    def test_mu_with_a_negative_real_part_is_the_base_point(self):
        rc, doc = run_on("calculus", "degenerate.json", "--mu", "-1", "2")
        assert rc == 0
        # the rational part's denominator is a power of z - mu
        assert np.allclose(np.roots([as_complex(c) for c in doc["results"]["rational_part"]["den"]][::-1]), -1 + 2j)

    @pytest.mark.parametrize("argv,reason", [
        ([], "a command and --input FILE are required"),
        (["--input", RUNNING], "a command and --input FILE are required"),
        (["calculus"], "a command and --input FILE are required"),
        (["integrate", "--input", RUNNING], "unrecognized argument: integrate"),
        (["calculus", "spectrum", "--input", RUNNING], "unrecognized argument: spectrum"),
        (["calculus", "--input", RUNNING, "--verbose"], "unrecognized argument: --verbose"),
        (["calculus", "--inp", RUNNING], "unrecognized argument: --inp"),
        (["calculus", "-x", "--input", RUNNING], "unrecognized argument: -x"),
        (["calculus", "--input"], "--input takes 1 value"),
        (["calculus", "--input", "--output", "out.json"], "--input takes 1 value"),
        (["calculus", "--input", RUNNING, "--mu", "1"], "--mu takes 2 values"),
        (["calculus", "--input", RUNNING, "--mu=1", "2"], "--mu takes 2 values"),
        (["calculus", "--input", RUNNING, "--tol-psd", "small"], "could not convert string to float: 'small'"),
        (["calculus", "--input", RUNNING, "--mu", "1", "i"], "could not convert string to float: 'i'"),
    ])
    def test_a_usage_error_exits_2_with_the_usage_line_and_the_reason_on_stderr(self, argv, reason, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: kreincalc {")
        assert err.endswith(f"\nkreincalc: error: {reason}\n")


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_on_every_fixture_ends_in_a_report(command, fixture):
    """No input ends in a raw exception: a report, and exit 0 or an error family's code."""
    rc, doc = run_on(command, fixture)
    assert rc in (0, 2, 3, 4)
    assert doc["command"] == command
    assert doc["status"] == ("ok" if rc == 0 else "error")
    if rc:
        assert sorted(doc["error"]) == ["code", "message"]


class TestBooleanInput:
    @pytest.mark.parametrize("operator", [
        [[True, False], [False, True]],
        [[[False, 1.0], 0], [0, 1]],
    ])
    def test_json_boolean_is_not_a_number(self, operator, tmp_path):
        problem = tmp_path / "bool.json"
        problem.write_text(json.dumps({"relation": {"operator": operator}}))
        rc, doc = run_cli("spectrum", "--input", str(problem))
        assert rc == 2
        assert doc["error"]["code"] == "validation"


class TestInputAsGiven:
    @pytest.mark.parametrize("n", [10, 16])
    def test_factorize_keeps_every_coefficient_of_q(self, n, tmp_path):
        # q = prod (z - j) on diag(30, ..., 29 + n): q(A) is 0, but its power-basis value is indefinite (test_krein)
        problem = tmp_path / "spread_q.json"
        problem.write_text(json.dumps({"relation": {"operator": np.diag(np.arange(30.0, 30 + n)).tolist()},
                                       "q": {"num": np.poly(np.arange(30.0, 30 + n))[::-1].tolist()}}))
        rc, doc = run_cli("factorize", "--input", str(problem))
        assert (rc, doc["error"]["code"]) == (3, "not-positive")

    def test_rational_apply_on_a_spectrum_at_the_pencil_probes(self, tmp_path):
        # Y - lam X is singular at each fixed probe, yet the pencil is regular and the resolvent set is not empty
        problem = tmp_path / "probes.json"
        operator = [[[z.real, z.imag] if i == j else 0 for j in range(3)] for i, z in enumerate(_PENCIL_PROBES)]
        problem.write_text(json.dumps({"relation": {"operator": operator}, "function": {"rational": {"num": [1]}}}))
        rc, doc = run_cli("rational-apply", "--input", str(problem))
        assert rc == 0, doc["error"]
        np.testing.assert_allclose(decode_matrix(doc["results"]["matrix"]), np.eye(3), atol=1e-12)


class TestNonFiniteInput:
    def test_nan_in_operator_is_a_validation_error(self, tmp_path):
        base = json.loads((FIXTURES / "running.json").read_text())
        base["relation"]["operator"][0][1] = float("nan")
        problem = tmp_path / "nan.json"
        problem.write_text(json.dumps(base))
        rc, doc = run_cli("definitize", "--input", str(problem))
        assert rc == 2
        assert doc["error"]["code"] == "validation"
        assert "finite" in doc["error"]["message"]

    def test_infinite_q_coefficient_is_a_validation_error(self, tmp_path):
        base = json.loads((FIXTURES / "running.json").read_text())
        base["q"]["num"] = [float("inf")]
        problem = tmp_path / "inf_q.json"
        problem.write_text(json.dumps(base))
        rc, doc = run_cli("definitize", "--input", str(problem))
        assert rc == 2
        assert doc["error"]["code"] == "validation"
        assert "finite" in doc["error"]["message"]

    # r = 1e308 (1 + z + z^2) overflows r(A) and its jets on the running example;
    # mul3.json is critical at infinity to degree 3, where the basis rows hold mu^2
    @pytest.mark.parametrize("command,fixture,extra,message", [
        ("rational-apply", "err_overflow.json", (), r"r\(A\) must be finite"),
        ("theta", "err_overflow.json", (), r"r\(A\) must be finite"),
        ("xi", "err_overflow.json", (), r"r\(A\) must be finite"),
        ("calculus", "err_overflow.json", (), "jets of the function must be finite"),
        ("norm-f", "err_overflow.json", (), "jets of the function must be finite"),
        ("calculus", "mul3.json", ("--mu", "0", "1e200"), "too large: its powers at infinity overflow"),
        ("project", "mul3.json", ("--mu", "0", "1e200"), "too large: its powers at infinity overflow"),
        # on degenerate.json the basis powers (1e300 - w)^(-2) underflow to 0 at the finite points
        ("calculus", "degenerate.json", ("--mu", "1e300", "0"), "too large: its powers at the spectral points underflow"),
    ])
    def test_a_result_that_overflows_is_a_validation_error(self, command, fixture, extra, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, doc = run_on(command, fixture, *extra)
            assert rc == 2 and doc["error"]["code"] == "validation"
            assert re.search(message, doc["error"]["message"])
            if extra:  # the default base point works
                assert run_on(command, fixture)[0] == 0

    def test_a_far_base_point_whose_powers_are_not_needed_gives_a_clean_result(self):
        # 1 / (w - mu) overflows numpy's complex division to 0, but the running example needs only the constant
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, doc = run_on("calculus", "running.json", "--mu", "1e308", "1e308")
        assert rc == 0
        assert doc["results"]["matrix"] == run_on("calculus", "running.json")[1]["results"]["matrix"]

    # squares of entries of 1e300 overflow a Frobenius norm, which must not pass the checks that divide by it:
    # q = 1e300 is not positive on the running example, and the Gram matrix is far from Hermitian
    @pytest.mark.parametrize("fixture,key,value,rc,code", [
        ("err_not_positive.json", "q", {"num": [1e300]}, 3, "not-positive"),
        ("running.json", "gram", [[1e300, 1e300], [0, -1e300]], 2, "validation"),
    ])
    def test_huge_entries_keep_their_checks(self, tmp_path, fixture, key, value, rc, code):
        base = json.loads((FIXTURES / fixture).read_text())
        base[key] = value
        problem = tmp_path / "huge.json"
        problem.write_text(json.dumps(base))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, doc = run_cli("definitize", "--input", str(problem))
        assert (got, doc["error"]["code"]) == (rc, code)

    def test_a_coefficient_whose_modulus_overflows_is_a_validation_error(self, tmp_path):
        # each part is finite, but |1.5e308 + 1.5e308 i| passes the float range, where Python's abs raises
        problem = tmp_path / "huge_modulus.json"
        problem.write_text(json.dumps({"relation": {"operator": [[1, 0], [0, 2]]}, "function": {"rational": {
            "num": [[-5e307, -5e307], [1.5e308, 1.5e308], [-1.5e308, -1.5e308], [5e307, 5e307]], "den": [1, 1]}}}))
        rc, doc = run_cli("rational-apply", "--input", str(problem))
        assert (rc, doc["error"]["code"]) == (2, "validation")
        assert doc["error"]["message"] == "polynomial coefficients and their moduli must be finite"
        proc = subprocess.run([sys.executable, "-m", "kreincalc.cli", "rational-apply", "--input", str(problem)],
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, b"")

    def test_coefficients_that_span_the_float_range_are_a_validation_error(self, tmp_path):
        # den has the roots +-1e154 i, whose companion matrix overflows
        problem = tmp_path / "wide_span.json"
        problem.write_text(json.dumps({"relation": {"operator": [[1, 0], [0, 2]]},
                                       "function": {"rational": {"num": [1], "den": [1e308, 0.5, 1]}}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, doc = run_cli("rational-apply", "--input", str(problem))
        assert (rc, doc["error"]["code"]) == (2, "validation")
        assert doc["error"]["message"] == "polynomial coefficients span more than the float range"
        proc = subprocess.run([sys.executable, "-m", "kreincalc.cli", "rational-apply", "--input", str(problem)],
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, b"")

    def test_finite_jets_whose_decomposition_overflows_are_a_validation_error(self, tmp_path):
        # on the running example s = -1e308 matches the jet at 2, so g at 1 is 2e308
        base = json.loads((FIXTURES / "running.json").read_text())
        base["function"] = {"jets": {"1": [1e308], "2": [-1e308, 1e308]}}
        problem = tmp_path / "huge_jets.json"
        problem.write_text(json.dumps(base))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, doc = run_cli("calculus", "--input", str(problem))
        assert rc == 2 and doc["error"]["code"] == "validation"
        assert "must be finite" in doc["error"]["message"]


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kreincalc.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command,fixture,code", [
    ("calculus", "running.json", 0),
    ("definitize", "err_bad_json.json", 2),
    ("definitize", "err_not_positive.json", 3),
    ("definitize", "err_inconsistency.json", 4),
])
def test_console_entry_point(command, fixture, code, tmp_path):
    """The process entry (`python -m kreincalc.cli`, as the console script) writes the bytes and exits with the
    code of an in-process `main`, and `main` neither switches off nor freezes the collector."""
    argv = [command, "--input", str(FIXTURES / fixture)]
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    rc, text = run_cli_text(*argv)
    assert (rc, gc.get_freeze_count(), gc.isenabled()) == (code, frozen, enabled)
    out = tmp_path / "report.json"
    for extra in ((), ("--output", str(out))):
        proc = subprocess.run([sys.executable, "-m", "kreincalc.cli", *argv, *extra],
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, b"")
        assert proc.stdout == (b"" if extra else text.encode())
    assert out.read_bytes() == text.encode()


# q = (z - 2) / (z - 1.00005)^3 on the running example: its pole sits 5e-5 from the spectral point 1, where
# q is about 8e12 and G q(A) is positive, but q's denominator shifted to 1 is -1.25e-13 against a largest
# entry of 1, so RationalFunction._jets' pole test (_zero_order of den at 1, rho = 1) reads 1 as a pole of
# order 1 while spectral._pole_in_spectrum, a distance rule, does not
@pytest.mark.xfail(strict=True, reason=(
    "two rules decide whether a spectral point is a pole of q, and every command that verifies the pair exits 3 "
    "jet-at-pole here; replacing _jets' pole test, _zero_order of den, by an exact-zero test makes definitize "
    "pass, but calculus with jets {1: [3], 2: [1, 0]} then returns 3.0037 where the answer is 3, a silent error, "
    "and project ends in inconsistency: one pole rule must also keep the calculus accurate where |q| is about 8e12"))
def test_pole_of_q_near_a_spectral_point(tmp_path):
    base = json.loads((FIXTURES / "running.json").read_text())
    base["q"] = {"num": [-2, 1], "den": np.poly([1.00005] * 3)[::-1].tolist()}
    base["function"] = {"jets": {"1": [3], "2": [1, 0]}}
    problem = tmp_path / "near_pole.json"
    problem.write_text(json.dumps(base))
    assert run_cli("definitize", "--input", str(problem))[0] == 0
    for command, expected in (("calculus", np.diag([3, 1])), ("project", np.diag([1, 0]))):
        rc, doc = run_cli(command, "--input", str(problem))
        assert rc == 0, doc["error"]
        np.testing.assert_allclose(decode_matrix(doc["results"]["matrix"]), expected, atol=1e-9)


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("stdout", ["full", "pipe without a reader", "closed"])
@pytest.mark.parametrize("args", [("calculus", "--input", RUNNING), ("--help",)], ids=["report", "help"])
def test_a_stdout_that_cannot_take_the_report_exits_2_with_one_line(args, stdout, buffered):
    """A buffered report or help text fails at the entry's flush, an unbuffered one at its write; neither leaves a
    traceback."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "kreincalc.cli", *args]
    if stdout == "closed":
        argv = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open("/dev/full", "wb")) if stdout == "full" else subprocess.PIPE
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, env=env)
        if proc.stdout is not None:  # no reader: the child's write meets a broken pipe
            proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
    assert re.fullmatch(r"kreincalc: error: cannot write the report to stdout: [^\n]+\n", err)
