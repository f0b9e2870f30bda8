"""Exception hierarchy shared by all modules."""


class MosaicHashError(Exception):
    """Base class for all library errors."""


# finite fields
class NotPrime(MosaicHashError):
    pass


class ReducibleModulus(MosaicHashError):
    pass


class UnsupportedSize(MosaicHashError):
    pass


class ZeroInverse(MosaicHashError):
    pass


class BadLength(MosaicHashError):
    pass


# hash families
class DomainError(MosaicHashError):
    pass


class UnsupportedParameters(MosaicHashError):
    pass


class BudgetExceeded(MosaicHashError):
    pass


# verification
class NotRegular(MosaicHashError):
    pass


class NotHomomorphic(MosaicHashError):
    pass


class TrivialDomain(MosaicHashError):
    pass


class InfeasibleEpsilon(MosaicHashError):
    pass


class NotAnAutomorphism(MosaicHashError):
    pass


# designs
class NotAMosaic(MosaicHashError):
    pass


class SearchBudgetExceeded(MosaicHashError):
    pass


class BadLabeling(MosaicHashError):
    pass


# constructions
class NotLatinSquare(MosaicHashError):
    pass


class CarrierMismatch(MosaicHashError):
    pass


class DomainMismatch(MosaicHashError):
    pass


class NotBalanced(MosaicHashError):
    pass


# privacy amplification
class AlphabetMismatch(MosaicHashError):
    pass


class ZeroMassKeyValue(MosaicHashError):
    pass


class NegativeRadicand(MosaicHashError):
    pass


class TheoremViolation(MosaicHashError):
    pass
