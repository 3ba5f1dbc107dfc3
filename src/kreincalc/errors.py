"""Exception hierarchy shared by all modules.

Three tiers matter to callers: validation problems (bad shapes, malformed
input), mathematical precondition failures (the input is well-formed but the
requested operation is not defined for it), and internal inconsistencies
(a identity that is proved to hold failed numerically, which signals either a
tolerance pathology in the input or a bug).  The command-line front end maps
these tiers onto exit codes 2, 3 and 4.
"""


class KreinCalcError(Exception):
    """Base class for every error raised by this package."""

    code = "error"
    family = "validation"


class ValidationError(KreinCalcError):
    """Malformed input: wrong shapes, non-Hermitian Gram matrix, bad JSON."""

    code = "validation"
    family = "validation"


class PreconditionError(KreinCalcError):
    """Input is well-formed but violates a mathematical precondition."""

    code = "precondition"
    family = "precondition"


class PoleMeetsSpectrumError(PreconditionError):
    code = "pole-meets-spectrum"


class JetAtPoleError(PreconditionError):
    code = "jet-at-pole"


class SingularMoebiusError(PreconditionError):
    code = "singular-moebius"


class NotInResolventSetError(PreconditionError):
    code = "not-in-resolvent-set"


class NotSelfAdjointError(PreconditionError):
    code = "not-self-adjoint"


class NotPositiveError(PreconditionError):
    code = "not-positive"


class NotRealError(PreconditionError):
    code = "q-not-real"


class NotInCommutantError(PreconditionError):
    code = "not-in-commutant"


class NotBoundedError(PreconditionError):
    code = "not-bounded"


class PointNotInSpectrumError(PreconditionError):
    code = "point-not-in-spectrum"


class InconsistencyError(KreinCalcError):
    """A numerically checked identity that should hold failed to hold."""

    code = "inconsistency"
    family = "inconsistency"
