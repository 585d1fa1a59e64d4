"""Exception hierarchy. Every input-validation failure raises a DehnsomError subclass."""

from __future__ import annotations


class DehnsomError(Exception):
    """Base class for all errors raised by this package."""


class InternalError(DehnsomError):
    """A tripwire fired: an invariant the implementation guarantees was violated."""


class Inapplicable(DehnsomError):
    """A verifier refused its input: a rank below its minimum or an unmet hypothesis."""


# --- simplicial complexes ---------------------------------------------------

class EmptyInput(DehnsomError):
    pass


class FaceNotInComplex(DehnsomError):
    pass


class NotPure(DehnsomError):
    pass


# --- balanced complexes -----------------------------------------------------

class NotBalanced(DehnsomError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ColorInS(DehnsomError):
    pass


# --- posets -------------------------------------------------------------

class NotGraded(DehnsomError):
    def __init__(self, message: str, chains=None):
        super().__init__(message)
        self.chains = chains


class NoUniqueBottom(DehnsomError):
    pass


class NoUniqueTop(DehnsomError):
    pass


class CycleDetected(DehnsomError):
    pass


class NotComparable(DehnsomError):
    pass


class NotAChain(DehnsomError):
    pass


class NotSimplicial(Inapplicable):
    pass


# --- toric verifications ------------------------------------------------

class BadArguments(Inapplicable):
    pass


class NotOneSing(Inapplicable):
    pass


class RangeViolation(Inapplicable):
    pass


class NotLowerEulerian(Inapplicable):
    pass


# --- generators / cli -----------------------------------------------------

class UnknownGenerator(DehnsomError):
    pass


class BadParams(DehnsomError):
    pass


class ParseError(DehnsomError):
    pass


class UsageError(DehnsomError):
    """A command line the argument parser refuses."""
