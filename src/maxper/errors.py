"""Exceptions shared across the package.

Every domain-level refusal derives from DomainError so callers (and the
CLI) can distinguish "the inputs violate a mathematical precondition"
from ordinary bugs or parse failures.
"""


class DomainError(Exception):
    """Base class for precondition and domain failures."""


class PreconditionViolated(DomainError):
    """An operation's stated precondition does not hold for the inputs."""


class LabelMismatch(DomainError):
    """A tuple was asked to evolve under a case whose inequalities it fails."""


class DegenerateCycle(DomainError):
    """The requested construction collapses to a trivial cycle."""


class NotAPeriod(DomainError):
    """The requested integer is not a realizable period."""
