"""Exception types shared across the package."""


class ConvringError(Exception):
    """Base class for package-specific failures."""


class NotAUnit(ConvringError, ArithmeticError):
    """Raised when inverting a residue divisible by p."""


class NotUnimodular(ConvringError, ValueError):
    """Raised when a polynomial matrix has no polynomial inverse."""


class NotLeftPrime(ConvringError, ValueError):
    """Raised when a unimodular completion needs a left prime input."""


class ConstructionError(ConvringError, ValueError):
    """Raised when parity-check synthesis cannot proceed."""


class CapExceeded(ConvringError, RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


class GenerationFailed(ConvringError, RuntimeError):
    """Raised when random code search exhausts its retry budget."""
