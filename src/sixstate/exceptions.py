"""Exception types shared across the package."""


class DomainError(ValueError):
    """A numeric argument lies outside its physically meaningful range."""


class DimensionError(ValueError):
    """An array has a shape the fixed-dimension routines cannot handle."""


class ConstraintError(ValueError):
    """Probe parameters or probe vectors break a required constraint."""


class NoCrossingError(RuntimeError):
    """The two information curves do not cross inside the search interval."""


class AmbiguousCrossingError(RuntimeError):
    """The pre-scan found more than one sign change."""
