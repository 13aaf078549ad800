"""Exception types shared across the engine.

Grouped by the stage that raises them. All inherit from EngineError so
callers can catch everything from this package with one clause.
"""


class EngineError(Exception):
    """Base class for every error raised by this package."""


# Manifest ingestion

class ParseError(EngineError, ValueError):
    """Input could not be parsed. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class MissingViewpoint(EngineError, ValueError):
    """Manifest lacks one or more of the six required views."""

    def __init__(self, missing: list[str]):
        super().__init__(f"manifest missing viewpoints: {', '.join(missing)}")
        self.missing = list(missing)


class EmptyPointCloud(EngineError, ValueError):
    """Point cloud has zero points."""


class DuplicateObjectId(EngineError, ValueError):
    """Two or more manifests of one corpus claim the same object_id."""


# Confidence

class EmptyTokenList(EngineError, ValueError):
    """Token logprob list is empty."""


class NonFiniteLogprob(EngineError, ValueError):
    """A token logprob is NaN, infinite, or positive."""


# Embedding geometry

class DimensionMismatch(EngineError, ValueError):
    """Two vectors in one operation have different dimensions."""


class ZeroNormVector(EngineError, ValueError):
    """Cosine similarity is undefined for an all-zero vector."""


# Arguments

class EmptyInput(EngineError, ValueError):
    """Operation requires at least one element."""


class LengthMismatch(EngineError, ValueError):
    """Parallel lists must have equal length."""


class OutOfRangeArgument(EngineError, ValueError):
    """Numeric argument outside its documented range."""


# Bandit

class NoArms(EngineError, ValueError):
    """Selection requires at least one arm."""


class InvalidArm(EngineError, IndexError):
    """Arm index outside [0, K)."""


class UnknownStrategy(EngineError, ValueError):
    """Strategy name not one of ucb1, epsilon_greedy, thompson."""


# Gating

class NoRootInUnitInterval(EngineError, ArithmeticError):
    """Density crossing has no root inside (0, 1)."""


class DegenerateParams(EngineError, ValueError):
    """Distribution parameters violate their constraints."""


# Providers

class ProviderUnavailable(EngineError, RuntimeError):
    """Transport-level failure after retries; safe to retry later."""


class MalformedProviderResponse(EngineError, RuntimeError):
    """Provider answered but the payload violates the contract."""


class MissingLogprobs(EngineError, RuntimeError):
    """Provider cannot supply token logprobs for a candidate."""


class CacheDirUnwritable(EngineError, OSError):
    """Cache directory cannot be created or written."""


# Configuration

class ConfigError(EngineError, ValueError):
    """Configuration file invalid: unknown key, bad type, or bad range."""


class NegativePrice(EngineError, ValueError):
    """Prices must be >= 0."""
