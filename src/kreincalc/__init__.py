"""Functional calculus for self-adjoint linear relations on finite
dimensional Krein spaces.

Relations are column spans of stacked graph bases; the definitizing
machinery factors q(A) = T T^+ through a Hilbert space, transports the
relation to a diagonalizable compression, and evaluates jet-valued
functions along the spectrum.

The public names load on first use: ``import kreincalc`` loads no submodule,
and the first read of a name imports the module that defines it. Every read
goes through to that module, so a binding replaced there is seen here too.
The submodules that define the names, and ``tolerances``, load on their
first read as attributes of the package (``kreincalc.tolerances.PSD_TOL``).
"""

import importlib
import operator
import sys
import types

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "errors": (
        "InconsistencyError",
        "JetAtPoleError",
        "KreinCalcError",
        "NotBoundedError",
        "NotInCommutantError",
        "NotInResolventSetError",
        "NotPositiveError",
        "NotRealError",
        "NotSelfAdjointError",
        "PointNotInSpectrumError",
        "PoleMeetsSpectrumError",
        "PreconditionError",
        "SingularMoebiusError",
        "ValidationError",
    ),
    "jetcalc": (
        "Decomposition",
        "JetFunction",
        "apply_calculus",
        "decompose",
        "decompose_polynomial",
        "embed_rational",
        "indicator",
        "jet_multiply",
        "norm_f",
        "spectral_projection",
    ),
    "krein": (
        "DefinitizablePair",
        "Factorization",
        "GramSpace",
        "SpectralMeasure",
        "gram_factorize",
        "map_adjoint",
        "spectral_measure",
        "theta_op",
        "verify_definitizing",
        "xi",
    ),
    "rational": ("Polynomial", "RationalFunction"),
    "relations": (
        "INF",
        "LinearRelation",
        "MoebiusMap",
        "Subspace",
        "as_point",
        "chordal_distance",
        "diagonal_image",
        "diagonal_preimage",
        "is_inf",
    ),
    "spectral": ("SpectrumReport", "rational_apply", "resolvent_at", "spectrum"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


class _ReadThrough:
    """A public name, read through to its home module on each access.

    It has no ``__set__``, so an assignment to the package shadows it, as an
    assignment to any module attribute would."""

    def __init__(self, home, name):
        self._read = operator.attrgetter(f"{home}.{name}")

    def __get__(self, package, owner=None):
        return self if package is None else self._read(package)


# The names live on the package's class, not in a PEP 562 __getattr__: on
# Python 3.11 a read that falls through to __getattr__ first raises and clears
# an AttributeError, which made each request of the in-process benchmark
# 1 to 2% slower.
_Package = type("_Package", (types.ModuleType,), {name: _ReadThrough(home, name) for name, home in _HOME.items()})
sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _EXPORTS or name == "tolerances":
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
