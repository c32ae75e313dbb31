"""Exception types shared across the package."""


class SymConeError(Exception):
    """Base class for all symcone errors."""


class AlgebraMismatch(SymConeError):
    """Two elements from different algebras were combined."""


class NotInCone(SymConeError):
    """An argument required to lie in the open cone does not."""


class EigensolverFailure(SymConeError):
    """The Jacobi eigensolver cannot diagonalize its matrix.

    Either the matrix has NaN or infinite entries, which is refused before
    any rotation, or an eigenvalue is beyond the float range
    (EigenvalueOverflow), or the iteration exhausted its sweep budget.
    """


class EigenvalueOverflow(EigensolverFailure, OverflowError):
    """A matrix of finite entries has an eigenvalue beyond the float range."""


class InvalidGenerator(SymConeError):
    """An automorphism generator failed its construction checks."""


class MapLeftCone(SymConeError):
    """A map under test sent a cone point outside the cone."""


class SingularMatrix(SymConeError):
    """A matrix required to be invertible is (numerically) singular."""


class NonConvergence(SymConeError):
    """The fixed-point iteration hit its budget before converging.

    The partial iteration record is attached as ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
