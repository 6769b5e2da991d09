"""Exception hierarchy shared by all scalarflat modules."""


class ScalarFlatError(Exception):
    """Base class for all domain errors raised by this package."""


class DegreeError(ScalarFlatError):
    """A curvature density's integral is inconsistent with the declared degree."""


class NagataViolation(ScalarFlatError):
    """A ruled-surface descriptor with m > g, which no rank-two bundle realizes."""


class DescriptorError(ScalarFlatError):
    """A surface or bundle descriptor is internally inconsistent."""


class SolvabilityError(ScalarFlatError):
    """An elliptic problem whose compatibility condition fails (no solution exists)."""


class ConvergenceError(ScalarFlatError):
    """A solve stalled short of its tolerance, or its result failed verification."""
