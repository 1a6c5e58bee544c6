"""Exception taxonomy shared across the library.

Three bases matter to callers: ``InvalidInput`` (malformed or inconsistent
data, CLI exit code 2), ``Unsupported`` (well-formed data outside what the
algorithms accept, CLI exit code 3) and ``InvariantViolation`` (an internal
check failed, which signals a library bug or inconsistent derived data,
CLI exit code 4).  Exit code 1 is reserved for a falsification.
"""


class TwiningError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class InvalidInput(TwiningError):
    exit_code = 2


class Unsupported(TwiningError):
    exit_code = 3


class InvariantViolation(TwiningError):
    exit_code = 4


class NotGCM(InvalidInput):
    """Matrix violates a generalized Cartan matrix axiom."""


class NotSymmetrizable(InvalidInput):
    """No positive diagonal symmetrizer exists (inconsistent cycle)."""


class NotFiniteType(Unsupported):
    """Operation requires a finite-type Cartan matrix."""


class NotDominant(InvalidInput):
    """Weight has a negative fundamental coordinate."""


class NotDiagramAutomorphism(InvalidInput):
    """Permutation does not preserve the Cartan matrix."""


class LinkingConditionFailed(Unsupported):
    """An orbit row sum is outside {1, 2}; folding is undefined."""


class NotSymmetricWeight(InvalidInput):
    """Weight is not fixed by the diagram automorphism."""


class NotInWTilde(InvalidInput):
    """Weyl element does not commute with the automorphism action."""


class NotTauStable(InvalidInput):
    """A Demazure module is not stable under the twining map."""


class NoDescentFound(InvariantViolation):
    """Descent peeling got stuck; signals inconsistent folding data."""


class InexactDivision(InvariantViolation):
    """An integer division that the theory makes exact left a remainder."""


class ExtremalVectorMismatch(InvariantViolation):
    """The extremal weight space is not one line or has the wrong weight."""


class NotIntertwining(InvariantViolation):
    """The weight lift fails to intertwine a folded reflection with its orbit word."""


class RankMismatch(InvariantViolation):
    """A Demazure module got a weight space of another size than its s_i-conjugate."""


class TooLarge(Unsupported):
    """A Demazure module over the word cap, or a catalog label above ``MAX_CATALOG_RANK``."""
