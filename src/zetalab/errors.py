"""Error taxonomy shared by all zetalab modules."""


class ZetalabError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(ZetalabError):
    """A request exceeds a configured memory/size/term budget."""


class DomainError(ZetalabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ToleranceError(ZetalabError):
    """A numerical routine cannot meet its declared accuracy."""


class InsufficientSampleError(ZetalabError):
    """A Monte Carlo estimate has too few effective samples to report."""


class UsageError(ZetalabError):
    """Bad command-line or configuration input."""
