"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`EfpError`, so callers
(notably the CLI) can separate domain failures from programming errors.
"""


class EfpError(Exception):
    """Base class for all domain errors."""


class NoIntrinsicEvent(EfpError):
    """A trace contains only context events, so no current step exists."""


class ParseError(EfpError):
    """Malformed XES input (bad XML, missing mandatory attributes)."""


class SchemaError(EfpError):
    """Event payload does not match its type's schema."""


class UnknownPartner(EfpError):
    """A visibility scenario names a partner that emits no event."""


class EmptyLog(EfpError):
    """Model mining requires at least one trace with an intrinsic event."""


class UnknownState(EfpError):
    """A state identifier is not part of the process model."""


class UnknownEventType(EfpError):
    """An event references a type missing from the catalog."""


class UntrainedModel(EfpError):
    """A prediction requested from a classifier that has seen no data."""


class MissingLabel(EfpError):
    """Training requires traces with an outcome label."""


class DimensionMismatch(EfpError):
    """Classifier was initialized against a different catalog."""


class DisconnectedSpec(EfpError):
    """Collaboration spec has no path from the initial to a final task."""


class PlanMismatch(EfpError):
    """Fault plan references a step absent from the trace."""


class DuplicateInstance(EfpError):
    """An execution instance with this id is already live on the bus."""


class QueueFull(EfpError):
    """The full queue of an instance that has not started did not drain."""


class InsufficientData(EfpError):
    """Cross validation needs at least k labeled traces and both classes."""


class EmptyMatrix(EfpError):
    """Metrics are undefined on an all-zero confusion matrix."""


class SpecFormatError(EfpError):
    """Collaboration spec file or model file could not be parsed."""
