"""Exact measures and limit-scheme integrals on the infinite-dimensional
cube lattice.

The package models sets as boxes (per-coordinate interval-union constraints
plus a shared tail constraint), assigns them exact rational measures with
the convention that infinitely many constrained coordinates contribute 0, 1,
or infinity by tail length, and integrates structured functions through a
double limit over finite-dimensional truncated slices.
"""

__version__ = "0.1.0"

from .boxes import (
    Box,
    BoxUnion,
    LatticeVector,
    SparseVector,
    ZERO_VECTOR,
    coerce_union,
    unit_cell,
    union_disjointify,
    union_measure,
)
from .cells import (
    Cell,
    NZQuery,
    NotSigmaFinite,
    ORIGIN_CELL,
    cell_decompose,
    compatibility_check,
    meeting_cells,
    nz_set,
    patch_measure,
    sigma_cover,
)
from .errors import (
    CoverTooLarge,
    FormNotExact,
    LinfMeasureError,
    NotDisjointifiable,
    NotFinitelyCellCoverable,
    SampleOutsideOverlap,
    SeriesNotSummable,
    SplitUnsupported,
    UnknownSupport,
)
from .exprs import (
    Abs,
    Anchor,
    Clamp,
    Const,
    Coord,
    Expr,
    Indicator,
    Piecewise,
    Prod,
    Scale,
    Series,
    SlicedFunction,
    Sum,
    Translate,
    ZERO_ANCHOR,
    evaluate,
    slice_function,
    support,
    translate,
)
from .fubini import (
    CoordinateSplit,
    FubiniReport,
    SplitMeasures,
    box_split_measures,
    fubini_check,
    iterated_integrate,
)
from .intervals import INF, Interval, IntervalUnion, frac
from .library import BUILTIN_FUNCTIONS, spike_series, spike_support_box
from .limits import (
    DEFAULT_SCHEDULE,
    IntegralResult,
    IntegrabilityReport,
    InvarianceReport,
    LimitSchedule,
    Trace,
    integrability_check,
    integrate_cell,
    integrate_global,
    invariance_check,
    slice_scan,
)
from .quadrature import (
    QuadratureSpec,
    SliceEvaluator,
    SliceIntegral,
    integrate_indicator,
    integrate_slice,
)
