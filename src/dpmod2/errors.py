"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all dpmod2 errors."""


class OutOfRange(Error):
    """A size parameter (n, rank) is outside its supported range."""


class LengthMismatch(Error):
    """Two vectors that should have equal length do not."""


class NotARoot(Error):
    """The given vector is not a root of the lattice."""


class NotIsometry(Error):
    """The given map does not preserve the relevant form."""


class NotInSpace(Error):
    """The given bit-vector does not belong to the quadratic space."""


class DegenerateForm(Error):
    """The bilinear form has a nontrivial radical where it must not."""


class BadVector(Error):
    """The vector does not satisfy the operation's precondition (e.g. q(v) != 1)."""


class WrongShape(Error):
    """The space does not have the radical/q(k) shape this model requires."""


class NoPreimage(Error):
    """The quadric vector has no root preimage under mod-2 reduction."""


class BadInput(Error, ValueError):
    """The input is outside the operation's domain."""


class NotClosed(Error):
    """A generator maps a point outside the given point set."""


class DegreeMismatch(Error):
    """A permutation's degree does not match the group's."""


class WrongRange(Error):
    """The statement being verified does not apply to this n."""


class CrossCheckFailed(Error):
    """Two independent derivations of the same number disagree."""
