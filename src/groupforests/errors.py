"""Exception types shared across the library, and the per-quotient error prefix."""


class GroupForestsError(Exception):
    """Base class for all library-specific errors."""


class FamilyMismatchError(GroupForestsError):
    """Objects built over different group families were combined."""


class NotWellBalancedError(GroupForestsError):
    """An operation that requires a well-balanced element got something else."""


class ResourceLimitError(GroupForestsError):
    """A configured resource cap (support size, matrix size, steps) was hit."""


class DisconnectedGraphError(GroupForestsError):
    """The quotient multigraph is disconnected; tree counts are zero."""


class WindowError(GroupForestsError):
    """A requested window does not fit inside the available ball or radius."""


class UnsupportedFamilyError(GroupForestsError):
    """The construction is undefined or divergent for this group family."""


class IdentityMismatchError(GroupForestsError):
    """The spanning-tree count and the component-group order disagreed."""


def at_quotient(i: int, label: str, fn, errors=GroupForestsError):
    """fn(), with 'quotient i (label): ' put before any of the errors it raises."""
    try:
        return fn()
    except errors as err:
        raise type(err)(f"quotient {i} ({label}): {err}") from err
