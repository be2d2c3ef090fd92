"""Shared exception types, and the shape check that turns a malformed input file into one."""


class PreconditionError(ValueError):
    """A mathematical precondition failed (rank, vanishing, matchability)."""


def json_shape(value, kind: type, what: str):
    """value itself if it is a JSON object (kind dict) or array (kind list).

    Input files are checked with this where they are parsed, so a wrong
    shape is malformed input (a ValueError), never a TypeError further in.
    """
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ValueError(f"{what} must be {name}, got {value!r:.60}")
    return value
