"""Exception types shared across the package, and the default resource caps."""

# The default caps of every public entry point that enumerates: each such
# parameter (max_poset_elements, max_elements, max_faces) defaults to these
# constants themselves, never to a copy of their values.  They admit (4,4),
# with 38,040 poset elements, and (1,7), with 262,759 faces in its order
# complex; (2,6), (1,8) and (3,5) exceed them.
MAX_POSET_ELEMENTS = 40_000
MAX_FACES = 300_000


class KTreeSubError(Exception):
    """Base class for all errors raised by this library."""


class CycleDetected(KTreeSubError):
    """An order relation violates antisymmetry."""


class NotComparable(KTreeSubError):
    """An interval [a, b] was requested with a not below b."""


class NoUpperBound(KTreeSubError):
    """A join was requested for a set with no common upper bound."""


class NoLowerBound(KTreeSubError):
    """A meet was requested for a set with no common lower bound."""


class NotUnique(KTreeSubError):
    """A join/meet exists only as several incomparable bounds.

    Carries the offending minimal upper (or maximal lower) bounds in
    ``witnesses``.
    """

    def __init__(self, message, witnesses):
        super().__init__(message)
        self.witnesses = list(witnesses)


class ResourceLimit(KTreeSubError):
    """An enumeration would exceed the configured size cap."""


class NotLinearExtension(KTreeSubError):
    """A supplied ordering is not a linear extension of the poset order."""


class NotNested(KTreeSubError):
    """A family of building-set elements violates the nestedness condition."""


class FaceNotPresent(KTreeSubError):
    """An operation referenced a face that is not in the complex."""
