"""Exception types shared across the library.

Errors that certify an algebraic failure carry the witnessing elements as
attributes so callers (and test suites) can inspect them.
"""

from __future__ import annotations


class NilcohError(Exception):
    """Base class for every error raised by this package."""


# -- group construction ------------------------------------------------------


class NoIdentity(NilcohError):
    pass


class NoInverse(NilcohError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotAssociative(NilcohError):
    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})")


class OrderCapExceeded(NilcohError):
    pass


class NotNormal(NilcohError):
    def __init__(self, g: int, h: int):
        self.witness = (g, h)
        super().__init__(f"conjugating element {h} by {g} leaves the subgroup")


# -- structure ----------------------------------------------------------------


class NotNilpotent(NilcohError):
    pass


class BudgetExceeded(NilcohError):
    pass


class SearchBudgetExceeded(BudgetExceeded):
    pass


# -- actions ------------------------------------------------------------------


class NotAutomorphism(NilcohError):
    pass


class NotAHomomorphism(NilcohError):
    pass


class DoesNotGenerate(NilcohError):
    pass


class NotNormalized(NilcohError):
    pass


# -- cohomology ---------------------------------------------------------------


class DomainMismatch(NilcohError):
    pass


class NotASubgroup(NilcohError):
    pass


class NotAbelian(NilcohError):
    pass


class NoPreimageFound(NilcohError):
    """A fixed class with no extension to the full group.

    Raising this falsifies the decomposition on the instance at hand; it must
    surface as a finding, never be swallowed.
    """


# -- theorems -----------------------------------------------------------------


class HypothesisNotMet(NilcohError):
    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        super().__init__(f"hypothesis not met: {name}" + (f" ({detail})" if detail else ""))


class NoConjugatorFound(NilcohError):
    """No conjugator exists although the hypotheses hold; a falsification."""


class ProofStepFailed(NilcohError):
    """A step of the proof-guided conjugacy argument did not complete; under
    the hypotheses a falsification that names the step."""

    def __init__(self, step: str):
        self.step = step
        super().__init__(f"proof step failed: {step}")


# -- harness ------------------------------------------------------------------


class ParseError(NilcohError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(NilcohError):
    def __init__(self, constructor: str, message: str):
        self.constructor = constructor
        super().__init__(f"{constructor}: {message}")


class UnknownCheck(ValidationError):
    def __init__(self, name: str):
        super().__init__("check", f"unknown check name {name!r}")
        self.check_name = name
