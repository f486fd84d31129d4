"""Exception hierarchy shared by all solvers."""


class RiccatiError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(RiccatiError):
    """A pivot fell below the singularity threshold during elimination."""


class SingularShift(RiccatiError):
    """A Cayley/ADI shift coincides (numerically) with an eigenvalue."""


class StructureLoss(RiccatiError):
    """A transformation destroyed positive semidefiniteness beyond tolerance."""


class RankMismatch(RiccatiError):
    """The numerical rank of a null-space computation is not the expected n."""


class SingularU1(RiccatiError):
    """The top block of an invariant-subspace basis is too ill conditioned."""


class RegionCountMismatch(RiccatiError):
    """The number of eigenvalues strictly inside the target region is not n."""


class InnerSolveFailed(RiccatiError):
    """An inner Lyapunov solve broke down (iterate not stabilizing)."""


class NotConverged(RiccatiError):
    """An iteration ran out of budget, or its result failed the checks of
    the object built from it."""


class OverflowGuard(RiccatiError):
    """Explicit matrix powers exceeded the representable-norm guard."""


class InvalidSpec(RiccatiError):
    """A problem-generator specification violates its invariants."""


class ParseError(RiccatiError):
    """A problem file could not be parsed; the message names the field."""
