"""Exception taxonomy shared by all verification modules.

Every failure mode that callers are expected to branch on gets its own
class; everything derives from ToposKMSError so scripts can catch one
base type at the boundary.
"""


class ToposKMSError(Exception):
    """Base class for all package-specific errors."""


# --- numerics ---------------------------------------------------------------

class NotHermitian(ToposKMSError):
    pass


class NoConvergence(ToposKMSError):
    pass


class DimMismatch(ToposKMSError):
    pass


class NotProjection(ToposKMSError):
    pass


# --- algebra / posets -------------------------------------------------------

class NonCommuting(ToposKMSError):
    pass


class TrivialAlgebra(ToposKMSError):
    pass


class LatticeTooLarge(ToposKMSError):
    pass


class NotInAlgebra(ToposKMSError):
    pass


class NotInLattice(ToposKMSError):
    pass


class NotUnitary(ToposKMSError):
    pass


class PosetTooLarge(ToposKMSError):
    pass


class ContextMissing(ToposKMSError):
    pass


# --- presheaf ---------------------------------------------------------------

class DomainMismatch(ToposKMSError):
    pass


class EnumerationTooLarge(ToposKMSError):
    pass


class PosetNotClosed(ToposKMSError):
    pass


class NotClosedUnderRestriction(ToposKMSError):
    pass


# --- states / measures ------------------------------------------------------

class NotAState(ToposKMSError):
    pass


class NotFaithful(ToposKMSError):
    pass


class InconsistentTable(ToposKMSError):
    pass


class NotAdditive(ToposKMSError):
    pass


class Infeasible(ToposKMSError):
    pass


# --- truth objects / equivalence --------------------------------------------

class AmbiguousMatch(ToposKMSError):
    """A measure-matching between truth-object members is not unique.

    Carries the stage and the candidates, the distinct member mask rows
    that share one measure section, so reports can surface the
    ambiguity instead of silently picking one.
    """

    def __init__(self, message, stage=None, candidates=None):
        super().__init__(message)
        self.stage = stage
        self.candidates = candidates or []


# --- modular ----------------------------------------------------------------

class NotCyclicSeparating(ToposKMSError):
    pass


# --- scenario / CLI ---------------------------------------------------------

class ScenarioError(ToposKMSError):
    """Malformed or unsupported scenario input (CLI exit code 2)."""
