"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all dpmod2 errors."""


class BadInput(Error, ValueError):
    """The input is outside the operation's domain."""


class NotIsometry(Error):
    """The given map does not preserve the relevant form."""


class WrongShape(Error):
    """The space's radical is not the one the operation needs."""


class NoPreimage(Error):
    """The quadric vector has no root preimage under mod-2 reduction."""


class CrossCheckFailed(Error):
    """Two independent derivations of the same number disagree."""
