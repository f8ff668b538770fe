"""Exception types shared across the package."""


class PinchlabError(Exception):
    """Base class for all package errors."""


class DomainError(PinchlabError, ValueError):
    """An evaluation point or parameter lies outside the valid domain."""


class ConstructionError(PinchlabError, ValueError):
    """A profile or model could not be assembled; the message names the failed constraint."""


class IntegrationError(PinchlabError, RuntimeError):
    """An ODE solve or a quadrature failed.  Carries the time reached so far."""

    def __init__(self, message, reached=None):
        super().__init__(message)
        self.reached = reached


class SearchError(PinchlabError, RuntimeError):
    """An iterative search (distance, root finding) did not converge."""
