"""Every numerical cutoff lives in kreincalc.tolerances.

The modules read named constants instead of inline literals, and only the
tolerance parameters that a caller sets keep a default value.
"""

import importlib
import inspect
import re
from pathlib import Path

import kreincalc

PACKAGE = Path(kreincalc.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# (module, qualified name, parameter): the CLI's --tol-rank and --tol-psd
# reach the first four, and DefinitizablePair.resolve matches a caller's
# labels at POINT_MATCH_TOL unless told otherwise.  The radius of
# rational._cluster_members is an argument of the algorithm and has no
# default.
SETTABLE = {
    ("relations", "orthonormal_columns", "rank_tol"),
    ("relations", "LinearRelation.from_graph_columns", "rank_tol"),
    ("krein", "verify_definitizing", "psd_tol"),
    ("krein", "DefinitizablePair.resolve", "tol"),
}


def test_no_cutoff_literal_outside_tolerances():
    literal = re.compile(r"\de-\d")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if literal.search(line):
                found.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not found, "\n".join(found)


def _callables(module):
    """(qualified name, function) for the functions and methods defined in module."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_only_settable_tolerances_have_defaults():
    found = set()
    for stem in MODULES:
        module = importlib.import_module(f"kreincalc.{stem}")
        for qualname, func in _callables(module):
            for param in inspect.signature(func).parameters.values():
                named = param.name.endswith("tol") or param.name.endswith("cutoff")
                if named and param.default is not inspect.Parameter.empty:
                    found.add((stem, qualname, param.name))
    assert found == SETTABLE
