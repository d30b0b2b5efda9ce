"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside an operation's domain."""


class CollisionError(DomainError):
    """Both robots occupy the same point of the track."""


class ContractError(RuntimeError):
    """An internal consistency contract was violated."""
