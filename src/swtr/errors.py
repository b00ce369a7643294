"""Exception classes shared across the package."""


class SwtrError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZeroSeries(SwtrError):
    """Division by a series that is zero up to truncation, or whose lead is too small to divide by.

    ``row`` is the row of a stacked call whose power is not finite, else None.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class NotInvertible(SwtrError):
    """Functional inversion of a series without a simple zero at the origin."""


class NonzeroResidue(SwtrError):
    """Primitive requested for a differential whose residue is not negligible."""


class TruncationInsufficient(SwtrError):
    """A contraction or coefficient was requested beyond the sound truncation window."""


class InvalidGauge(SwtrError):
    """Gauge data violating one of the admissibility conditions."""


class DegenerateDisc(SwtrError):
    """Disc data with vanishing linear coefficient (tangency order > 1)."""


class OutOfAnnulus(SwtrError):
    """Evaluation point outside the annulus where local expansions are trusted."""


class SingularCurve(SwtrError):
    """Hyperelliptic curve with colliding branch points."""


class CycleConstructionFailed(SwtrError):
    """The branch-cut pairing or cycle heuristic produced an invalid homology basis."""


class QuadratureNotConverged(SwtrError):
    """A numerical stage of the period layer missed its cap or gate.

    Raised by ``QuadratureWorkspace.integrate`` when adaptive contour
    quadrature exceeds its refinement cap; by ``SheetTracker.anchors`` when
    every radial approach to a point passes too near a branch point; by the
    closed-form sheet continuation (``SheetTracker._walk``,
    ``SheetTracker.track_along`` and a contour's sheet closure) when a branch
    point lies on a segment within rounding; and by ``invert_a_map`` when a
    target's Newton iteration reaches its 50-step cap or its damping finds no
    decrease.
    """


class NormalizationSolveFailed(SwtrError):
    """The linear solve normalizing kernel periods failed or is inconsistent."""


class OutOfNeighbourhood(SwtrError):
    """Deformed curve outside the chart neighbourhood or contours of the reference curve,
    or a point read inside a chart's extraction circle (``charts.ebar_at_points``)."""


class ExtractionNotConverged(SwtrError):
    """A chart invariant or a Taylor-coefficient extraction missed its gate on its circle."""


class BasisMismatch(SwtrError):
    """Coefficient table expressed in a basis other than the one required."""
