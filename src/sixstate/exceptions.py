"""Exception types shared across the package."""


class DomainError(ValueError):
    """A numeric argument lies outside its physically meaningful range."""


class ConstraintError(ValueError):
    """Probe parameters or probe vectors break a required constraint."""


class NoCrossingError(RuntimeError):
    """The two information curves do not cross inside the search interval."""


class AmbiguousCrossingError(RuntimeError):
    """A bisection round saw the information advantage change sign more than once."""
