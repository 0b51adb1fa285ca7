"""Typed failures shared across the package.

Every error that a caller is expected to branch on gets its own class;
plain ValueError/TypeError are reserved for programming mistakes.
"""


class LpisoError(Exception):
    """Base class for all package-specific failures."""


class PEqualsTwoError(LpisoError):
    """The exponent could not be certified apart from 2.

    Raised by every operation that divides by |4 - 2*sqrt(2)^p|: either p
    is exactly 2, or separation failed at the working precision cap.
    """


class ZeroInCeSetError(LpisoError):
    """An enumerated set used to build an adversarial presentation contains 0."""


class EnumerationStalledError(LpisoError):
    """A norm query needed more enumerated elements than the set can provide."""


class NoBackdoorError(LpisoError):
    """Transparent evaluation was requested from a presentation without one."""


class HypothesisViolatedError(LpisoError):
    """The extension-bound hypothesis fails: some node of the larger tree
    extends no non-root node of the smaller tree (and the smaller tree is
    not trivial)."""

    def __init__(self, node, message=None):
        self.node = node
        super().__init__(message or f"node {node} extends no non-root node of the base tree")


class NotPartialDisintegrationError(LpisoError):
    """An operation required a certified partial disintegration and the
    input failed validation."""


class NonterminalRequiredError(LpisoError):
    """A child search was started from a node with no children."""


class BudgetExhaustedError(LpisoError):
    """A complete-in-the-limit search ran out of its explicit budget.

    Never a wrong answer: the caller may retry with a larger budget.
    """

    def __init__(self, message, *, budget=None):
        self.budget = budget
        super().__init__(message)


class ProvisionalError(LpisoError):
    """A certification required oracle information that a staged adapter
    could not supply; the result would only be provisional."""


class IndexOutOfRangeError(LpisoError):
    """A vector referenced coordinates outside a synthesized isometry's range."""


class InvalidInputError(LpisoError):
    """A command-line argument or input document is malformed or out of
    range: an unparsable number or JSON text, an unknown presentation
    type, an exponent below 1, a negative count."""


class PrecisionExhaustedError(LpisoError):
    """An adaptive refinement hit the hard precision cap without certifying.

    Indicates either a genuinely degenerate input (e.g. an exact tie) or a
    cap set too low for the requested tolerance.
    """
