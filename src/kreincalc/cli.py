"""
Functional calculus for self-adjoint relations on Krein spaces: each command
reads a JSON problem and writes a JSON report.

options:
  -h, --help      show this help message and exit
  --input FILE    problem file (JSON)
  --output FILE   report file (default: stdout)
  --tol-rank X    relative rank cutoff used when reading graph columns
  --tol-psd X     relative tolerance for the positivity check of q(A)
  --mu RE IM      base point for the rational part of the decomposition

exit codes (a failure writes a report with status "error", unless stdout fails):
  0  success
  2  validation failure: input not UTF-8 JSON, wrong shapes or labels, an --output
     file not writable (the report goes to stdout), a stdout not writable
  3  violated mathematical precondition: pole on the spectrum, not self-adjoint, ...
  4  internal inconsistency: a proved identity violated beyond tolerance

Complex scalars are written as [re, im]; the point at infinity as "inf".
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # `python -m`: the collector stays off from before the imports to the exit (see entry)
    gc.disable()

import atexit
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .errors import KreinCalcError, ValidationError
from .rational import Polynomial, RationalFunction
from .relations import INF, LinearRelation, is_inf
from .spectral import rational_apply, spectrum
from .tolerances import PSD_TOL, RANK_TOL

# krein and jetcalc are imported inside the commands that run them, so that
# `spectrum` and `rational-apply` load neither and seven commands skip jetcalc
if TYPE_CHECKING:
    from .jetcalc import JetFunction
    from .krein import GramSpace


def __getattr__(name):
    # cli.decompose stays readable although _cmd_calculus imports it where it
    # runs: the tracing test in bench/test_bench.py checks that it is wrapped
    if name == "decompose":
        from .jetcalc import decompose

        return decompose
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- JSON decoding -----------------------------------------------------------


def _is_number(value) -> bool:
    # JSON true and false decode to bool, a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _decode_scalar(value) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(t) for t in value):
        return complex(value[0], value[1])
    raise ValidationError(f"expected a number or [re, im] pair, got {value!r}")


def _decode_point(value):
    return INF if value == "inf" else _decode_scalar(value)


def _decode_matrix(value, name: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValidationError(f"{name} must be a list of rows")
    try:
        mat = np.array([[_decode_scalar(e) for e in row] for row in value], dtype=complex)
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"{name} must be rectangular") from exc
    if mat.ndim != 2:
        raise ValidationError(f"{name} must be rectangular")
    return mat


def _decode_label(key: str):
    """Spectral-point label used as a JSON object key: "inf" or "[re, im]"."""
    try:
        return _decode_point(key if key == "inf" else json.loads(key))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad spectral label {key!r}") from exc


def _decode_coeffs(value, name: str) -> Polynomial:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{name} must be a nonempty coefficient list")
    return Polynomial([_decode_scalar(c) for c in value])


def _decode_rational(obj, name: str) -> RationalFunction:
    if not isinstance(obj, dict) or "num" not in obj:
        raise ValidationError(f"{name} must be an object with 'num' (and optional 'den')")
    num = _decode_coeffs(obj["num"], f"{name}.num")
    den = _decode_coeffs(obj["den"], f"{name}.den") if "den" in obj else Polynomial.one()
    return RationalFunction(num, den)


# -- JSON encoding -----------------------------------------------------------


def _encode_scalar(z) -> list:
    z = complex(z)
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _encode_point(p):
    return "inf" if is_inf(p) else _encode_scalar(p)


def _encode_matrix(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[_encode_scalar(e) for e in row] for row in mat]


def _encode_rational(func: RationalFunction) -> dict:
    return {
        "num": [_encode_scalar(c) for c in func.num.coeffs],
        "den": [_encode_scalar(c) for c in func.den.coeffs],
    }


# -- problem assembly --------------------------------------------------------


class Problem:
    """Decoded problem file plus the derived objects commands share."""

    def __init__(self, raw: dict, rank_tol: float, psd_tol: float):
        if not isinstance(raw, dict):
            raise ValidationError("problem file must contain a JSON object")
        self.raw = raw
        self.rank_tol = rank_tol
        self.psd_tol = psd_tol

    def relation(self) -> LinearRelation:
        obj = self.raw.get("relation")
        if not isinstance(obj, dict):
            raise ValidationError("problem needs a 'relation' object")
        if "operator" in obj:
            return LinearRelation.from_operator(_decode_matrix(obj["operator"], "relation.operator"))
        xkey = "X" if "X" in obj else "x"
        ykey = "Y" if "Y" in obj else "y"
        if xkey in obj and ykey in obj:
            x = _decode_matrix(obj[xkey], "relation.X")
            y = _decode_matrix(obj[ykey], "relation.Y")
            return LinearRelation.from_graph_columns(x, y, rank_tol=self.rank_tol)
        raise ValidationError("relation must give 'operator' or graph columns 'X' and 'Y'")

    def gram(self, dim: int) -> GramSpace:
        from .krein import GramSpace

        obj = self.raw.get("gram")
        if obj is None:
            return GramSpace.standard(dim)
        space = GramSpace(_decode_matrix(obj, "gram"))
        if space.dim != dim:
            raise ValidationError("gram matrix size does not match the relation")
        return space

    def q(self) -> RationalFunction:
        if "q" not in self.raw:
            raise ValidationError("problem needs a definitizing function 'q'")
        return _decode_rational(self.raw["q"], "q")

    def pair(self):
        from .krein import verify_definitizing

        rel = self.relation()
        space = self.gram(rel.space_dim)
        return verify_definitizing(space, rel, self.q(), psd_tol=self.psd_tol)

    def rational_function(self) -> RationalFunction:
        obj = self.raw.get("function")
        if not isinstance(obj, dict) or "rational" not in obj:
            raise ValidationError("problem needs function.rational")
        return _decode_rational(obj["rational"], "function.rational")

    def jet_function(self, pair) -> JetFunction:
        from .jetcalc import JetFunction, embed_rational

        obj = self.raw.get("function")
        if not isinstance(obj, dict):
            raise ValidationError("problem needs a 'function' object")
        if "rational" in obj:
            return embed_rational(pair, _decode_rational(obj["rational"], "function.rational"))
        if "jets" in obj:
            entries = obj["jets"]
            if not isinstance(entries, dict):
                raise ValidationError("function.jets must map labels to entry lists")
            mapping = {}
            for key, values in entries.items():
                if not isinstance(values, list):
                    raise ValidationError(f"jet entries for {key!r} must be a list")
                mapping[_decode_label(key)] = [_decode_scalar(e) for e in values]
            return JetFunction.from_points(pair, mapping)
        raise ValidationError("function must give 'rational' or 'jets'")

    def delta(self) -> list:
        obj = self.raw.get("delta")
        if not isinstance(obj, list):
            raise ValidationError("problem needs a 'delta' list of spectral points")
        return [_decode_point(p) for p in obj]


def _spectrum_payload(report) -> dict:
    return {
        "is_full_sphere": report.is_full_sphere,
        "points": [
            {"point": _encode_point(p), "multiplicity": int(m)} for p, m in report.points
        ],
    }


# -- commands ----------------------------------------------------------------


def _cmd_spectrum(problem: Problem, args) -> dict:
    rel = problem.relation()
    report = spectrum(rel)
    return {"spectrum": _spectrum_payload(report), "results": {"is_proper": rel.is_proper}}


def _cmd_adjoint(problem: Problem, args) -> dict:
    rel = problem.relation()
    space = problem.gram(rel.space_dim)
    adj = rel.adjoint(space.gram)
    x, y = adj.graph_columns()
    return {
        "results": {
            "X": _encode_matrix(x),
            "Y": _encode_matrix(y),
            "is_self_adjoint": rel.is_self_adjoint(space.gram),
        }
    }


def _cmd_definitize(problem: Problem, args) -> dict:
    pair = problem.pair()
    return {
        "spectrum": _spectrum_payload(pair.report),
        "results": {
            "q_matrix": _encode_matrix(pair.q_matrix),
            "degrees": [
                {"point": _encode_point(w), "degree": int(pair.degrees[w])} for w in pair.points
            ],
            "critical_points": [_encode_point(w) for w in pair.critical_points],
        },
        "diagnostics": dict(pair.diagnostics),
    }


def _factorize(problem: Problem):
    from .krein import gram_factorize

    pair = problem.pair()
    return pair, gram_factorize(pair)


def _cmd_factorize(problem: Problem, args) -> dict:
    pair, fact = _factorize(problem)
    payload = {
        "rank": fact.rank,
        "factor": _encode_matrix(fact.factor),
        "factor_adjoint": _encode_matrix(fact.factor_adjoint),
        "measure": [
            {"point": _encode_point(p), "projector": _encode_matrix(proj)}
            for p, proj in fact.measure.atoms
        ],
    }
    if fact.rank and fact.theta.is_operator():
        payload["theta_matrix"] = _encode_matrix(fact.theta.operator_matrix())
    return {
        "spectrum": _spectrum_payload(pair.report),
        "results": payload,
        "diagnostics": dict(fact.diagnostics),
    }


def _cmd_theta(problem: Problem, args) -> dict:
    from .krein import theta_op

    pair, fact = _factorize(problem)
    func = problem.rational_function()
    mat = rational_apply(func, pair.relation, pair.report)
    out = theta_op(fact, mat)
    return {
        "results": {
            "input_matrix": _encode_matrix(mat),
            "output_matrix": _encode_matrix(out),
        }
    }


def _cmd_xi(problem: Problem, args) -> dict:
    from .krein import xi

    pair, fact = _factorize(problem)
    func = problem.rational_function()
    mat = rational_apply(func, fact.theta, spectrum(fact.theta))
    out = xi(fact, mat)
    return {
        "results": {
            "input_matrix": _encode_matrix(mat),
            "output_matrix": _encode_matrix(out),
        }
    }


def _cmd_rational_apply(problem: Problem, args) -> dict:
    rel = problem.relation()
    func = problem.rational_function()
    report = spectrum(rel)
    mat = rational_apply(func, rel, report)
    return {
        "spectrum": _spectrum_payload(report),
        "results": {"matrix": _encode_matrix(mat), "function": _encode_rational(func)},
    }


def _cmd_calculus(problem: Problem, args) -> dict:
    from .jetcalc import apply_calculus, decompose

    pair, fact = _factorize(problem)
    phi = problem.jet_function(pair)
    dec = decompose(pair, phi, args.mu)
    mat = apply_calculus(fact, dec)
    return {
        "spectrum": _spectrum_payload(pair.report),
        "results": {
            "matrix": _encode_matrix(mat),
            "rational_part": _encode_rational(dec.s),
            "scalar_part": [
                {"point": _encode_point(w), "value": _encode_scalar(dec.g[w])}
                for w in pair.points
            ],
        },
    }


def _cmd_project(problem: Problem, args) -> dict:
    from .jetcalc import spectral_projection

    pair, fact = _factorize(problem)
    proj = spectral_projection(fact, problem.delta(), args.mu)
    return {
        "spectrum": _spectrum_payload(pair.report),
        "results": {
            "matrix": _encode_matrix(proj),
            "trace": _encode_scalar(np.trace(proj)),
        },
    }


def _cmd_norm_f(problem: Problem, args) -> dict:
    from .jetcalc import norm_f

    pair = problem.pair()
    phi = problem.jet_function(pair)
    return {"results": {"value": float(norm_f(phi))}}


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "adjoint": _cmd_adjoint,
    "definitize": _cmd_definitize,
    "factorize": _cmd_factorize,
    "theta": _cmd_theta,
    "xi": _cmd_xi,
    "rational-apply": _cmd_rational_apply,
    "calculus": _cmd_calculus,
    "project": _cmd_project,
    "norm-f": _cmd_norm_f,
}

_EXIT_CODES = {"validation": 2, "precondition": 3, "inconsistency": 4}


def _error_report(command: str, exc: KreinCalcError) -> dict:
    return {"command": command, "status": "error", "error": {"code": exc.code, "message": str(exc)}}


def _write_report(report: dict, path) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path is None:
        return _write_stdout(text)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_stdout(text: str) -> None:
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError("stdout is closed")
    sys.stdout.write(text)


def _stdout_failure(exc: OSError) -> int:
    sys.stderr.write(f"kreincalc: error: cannot write the report to stdout: {exc}\n")
    return _EXIT_CODES["validation"]


# the type of each flag's values; --mu takes two, RE and IM, and reads them as the complex number RE + i IM
_FLAGS = {"--input": str, "--output": str, "--tol-rank": float, "--tol-psd": float, "--mu": float}
_USAGE = (f"usage: kreincalc {{{','.join(_COMMANDS)}}}\n"
          "  --input FILE [--output FILE] [--tol-rank X] [--tol-psd X] [--mu RE IM]\n")


def _parse_args(argv) -> SimpleNamespace:
    """The command and flags of argv, or a ValueError naming a usage error.  Flags go before or after the command,
    the last of a flag wins, and a value not after "=" may not start with "--" (but may be -1, as in --mu -1 2)."""
    args = SimpleNamespace(command=None, input=None, output=None, tol_rank=RANK_TOL, tol_psd=PSD_TOL, mu=None)
    tokens = list(argv)
    while tokens:
        token = tokens.pop(0)
        flag, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            _write_stdout(_USAGE + (__doc__ or ""))  # the module docstring is the help text
            raise SystemExit(0)
        if flag in _FLAGS:
            count, kind = 1 + (flag == "--mu"), _FLAGS[flag]
            values = [value] if eq else tokens[:count]
            if len(values) != count or not eq and any(text.startswith("--") for text in values):
                raise ValueError(f"{flag} takes {count} value{'s' * (count > 1)}")
            del tokens[:0 if eq else count]
            values = [kind(text) for text in values]  # its ValueError names the text that is not a float
            setattr(args, flag[2:].replace("-", "_"), complex(*values) if count > 1 else values[0])
        elif args.command is None and token in _COMMANDS:
            args.command = token
        else:
            raise ValueError(f"unrecognized argument: {token}")
    if None in (args.command, args.input):
        raise ValueError("a command and --input FILE are required")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:  # the usage line and the reason on stderr, exit 2, as argparse ends a usage error
        sys.stderr.write(f"{_USAGE}kreincalc: error: {exc}\n")
        raise SystemExit(2) from None
    except OSError as exc:  # the help text meets a stdout that cannot take it
        raise SystemExit(_stdout_failure(exc)) from None
    try:
        for flag, value in (("--tol-rank", args.tol_rank), ("--tol-psd", args.tol_psd)):
            if not 0.0 <= value < np.inf:  # also false for nan
                raise ValidationError(f"{flag} must be finite and nonnegative, got {value}")
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ValidationError(f"cannot read input file: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"input is not valid JSON: {exc}") from exc
        problem = Problem(raw, rank_tol=args.tol_rank, psd_tol=args.tol_psd)
        body = _COMMANDS[args.command](problem, args)
    except KreinCalcError as exc:
        report, code = _error_report(args.command, exc), _EXIT_CODES[exc.family]
    else:
        report, code = {"command": args.command, "status": "ok", **body}, 0
    if args.output is not None:
        try:
            _write_report(report, args.output)
            return code
        except OSError as exc:  # the error report goes to stdout
            error = ValidationError(f"cannot write output file: {exc}")
            report, code = _error_report(args.command, error), _EXIT_CODES[error.family]
    try:
        _write_report(report, None)
    except OSError as exc:
        return _stdout_failure(exc)
    return code


def entry() -> NoReturn:
    """Process entry of the `kreincalc` script and of `python -m kreincalc.cli`.

    Runs `main` with the cyclic collector off (`python -m` turns it off at the top of this module, before the
    imports), then the atexit handlers, flushes stdout and stderr, and ends with `os._exit`: the teardown would
    only walk again what the imports built.  The code is main's, or that of its SystemExit for --help or a usage
    error, or 2 with one line on stderr if the flush of stdout fails.  A raw exception exits as usual.  `main`,
    and a plain import of this module, leave the collector alone.
    """
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = _stdout_failure(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
