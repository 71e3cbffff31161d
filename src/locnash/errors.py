"""Exception types shared across the package."""


class LocNashError(Exception):
    """Base class for all locnash errors."""


class ParseError(LocNashError):
    """Malformed literal, descriptor or flag value."""


class DegenerateGenerators(LocNashError):
    """Generator list is linearly dependent over the reals, up to DEFAULT_TOL."""


class NotASublattice(LocNashError):
    """First group is not contained in the second."""


class InsufficientSamples(LocNashError):
    """Too many sample points were rejected (poles / capped values)."""


class NotRealStructure(LocNashError):
    """Operation requires a real structure (real matrix, conjugation-closed lattices)."""


class InternalInconsistency(LocNashError):
    """Computed invariant contradicts the expected closed form; signals a bug."""
