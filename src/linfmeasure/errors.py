"""Exception types shared across the package."""


class LinfMeasureError(Exception):
    """Base class for all package errors."""


class NotFinitelyCellCoverable(LinfMeasureError):
    """The set cannot be covered by finitely many unit cells of the base lattice."""


class CoverTooLarge(LinfMeasureError):
    """A sigma-cover would list more cells than ``cells.MAX_COVER_CELLS``."""


class NotDisjointifiable(LinfMeasureError):
    """Overlapping boxes with incompatible tails admit no finite disjoint refinement."""


class SampleOutsideOverlap(LinfMeasureError):
    """A compatibility sample is not contained in the overlap of the two cells."""


class SeriesNotSummable(LinfMeasureError):
    """A series term rule lacks the information needed to evaluate it rigorously."""


class FormNotExact(LinfMeasureError):
    """Exact integration was requested for a function outside the structured class."""


class UnknownSupport(LinfMeasureError):
    """The support of the function could not be computed and no cells were supplied."""


class SplitUnsupported(LinfMeasureError):
    """The function does not factor through the coordinate split and no fallback fits."""
