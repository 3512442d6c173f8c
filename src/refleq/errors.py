"""Exception types shared across the library."""


class RefleqError(Exception):
    """Base class for all library errors."""


class ResonantKernel(RefleqError):
    """The coefficient sits on an eigenvalue m = k*pi/T, the kernel is undefined."""

    def __init__(self, m, T, k):
        self.m = m
        self.T = T
        self.k = k
        super().__init__(f"m={m!r}, T={T!r} is resonant (m = {k}*pi/T); kernel undefined")


class OutOfDomain(RefleqError):
    """A point lies outside the interval [-T, T]."""


class InternalInconsistency(RefleqError):
    """Grid evidence contradicts the analytic sign classification (a bug)."""


class QuadratureFailure(RefleqError):
    """Forcing-term evaluation failed during quadrature."""


class GridMismatch(RefleqError):
    """Grid function incompatible with the requested operation."""


class NonFinite(RefleqError):
    """A non-finite result: an integration blew up, every cone sample is NaN, or a user function overflowed."""


class NoConvergence(RefleqError):
    """Newton iteration failed to converge."""

    def __init__(self, message, last_defect=None, iterations=None, newton=None):
        super().__init__(message)
        self.last_defect = last_defect
        self.iterations = iterations
        self.newton = newton


class SingularJacobian(RefleqError):
    """Finite-difference Jacobian unusable (non-finite entries)."""


class MonotonicityBroken(RefleqError):
    """An iterate left the monotone bracket; hypothesis or quadrature failure."""


class BadWindow(RefleqError):
    """Coefficient m outside the sign window required by the chosen result."""
