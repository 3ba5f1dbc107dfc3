"""Functional calculus for self-adjoint linear relations on finite
dimensional Krein spaces.

Relations are column spans of stacked graph bases; the definitizing
machinery factors q(A) = T T^+ through a Hilbert space, transports the
relation to a diagonalizable compression, and evaluates jet-valued
functions along the spectrum.
"""

from .errors import (
    InconsistencyError,
    JetAtPoleError,
    KreinCalcError,
    NotBoundedError,
    NotInCommutantError,
    NotInResolventSetError,
    NotPositiveError,
    NotRealError,
    NotSelfAdjointError,
    PointNotInSpectrumError,
    PoleMeetsSpectrumError,
    PreconditionError,
    SingularMoebiusError,
    ValidationError,
)
from .jetcalc import (
    Decomposition,
    JetFunction,
    apply_calculus,
    decompose,
    decompose_polynomial,
    embed_rational,
    indicator,
    jet_multiply,
    jet_one,
    norm_f,
    spectral_projection,
)
from .krein import (
    DefinitizablePair,
    Factorization,
    GramSpace,
    SpectralMeasure,
    gram_factorize,
    map_adjoint,
    spectral_measure,
    theta_op,
    verify_definitizing,
    xi,
)
from .rational import Polynomial, RationalFunction
from .relations import (
    INF,
    LinearRelation,
    MoebiusMap,
    Subspace,
    as_point,
    chordal_distance,
    conj_point,
    diagonal_image,
    diagonal_preimage,
    is_inf,
    point_sort_key,
)
from .spectral import (
    SpectrumReport,
    rational_apply,
    resolvent_at,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Decomposition",
    "DefinitizablePair",
    "Factorization",
    "GramSpace",
    "InconsistencyError",
    "JetAtPoleError",
    "JetFunction",
    "KreinCalcError",
    "LinearRelation",
    "MoebiusMap",
    "NotBoundedError",
    "NotInCommutantError",
    "NotInResolventSetError",
    "NotPositiveError",
    "NotRealError",
    "NotSelfAdjointError",
    "PointNotInSpectrumError",
    "PoleMeetsSpectrumError",
    "Polynomial",
    "PreconditionError",
    "RationalFunction",
    "SingularMoebiusError",
    "SpectralMeasure",
    "SpectrumReport",
    "Subspace",
    "ValidationError",
    "apply_calculus",
    "as_point",
    "chordal_distance",
    "conj_point",
    "decompose",
    "decompose_polynomial",
    "diagonal_image",
    "diagonal_preimage",
    "embed_rational",
    "gram_factorize",
    "indicator",
    "is_inf",
    "jet_one",
    "jet_multiply",
    "map_adjoint",
    "norm_f",
    "rational_apply",
    "point_sort_key",
    "resolvent_at",
    "spectral_measure",
    "spectral_projection",
    "spectrum",
    "theta_op",
    "verify_definitizing",
    "xi",
]
