"""Exception types shared across the package."""


class HesselabError(Exception):
    """Base class for all package errors."""


class OutOfDomain(HesselabError):
    """Evaluation point violates the domain or its interior margin."""


class NotConvexHere(HesselabError):
    """Hessian failed the positive-definiteness test at an evaluation point."""


class UnknownName(HesselabError):
    """Catalog lookup with an unrecognized potential name."""


class BadParams(HesselabError):
    """Catalog parameters outside the valid range."""


class BadGridFile(HesselabError):
    """Grid potential file is unreadable, malformed, or holds fewer or more
    values than its header announces."""


class SingularHessian(HesselabError):
    """Hessian (or its grid analogue) could not be inverted."""


class SingularMixedHessian(HesselabError):
    """Mixed second derivative of a transport cost is singular."""


class ZeroVector(HesselabError):
    """A direction argument that must be nonzero was zero."""


class BadFrame(HesselabError):
    """Supplied frame is not orthonormal for the metric within tolerance."""


class NotExtremal(HesselabError):
    """Null-vector check called on a tensor that is not on the cone boundary."""


class NotPSD(HesselabError):
    """Block matrix instance failed its semidefiniteness precondition."""


class NotNegativeHSC(HesselabError):
    """Operation requires strictly negative polarized sectional values."""


class NotNegativeABC(HesselabError):
    """Operation requires certified non-positive anti-bisectional values."""


class BlowUp(HesselabError):
    """Reaction ODE trajectory exceeded the magnitude cap.

    Carries the blow-up time and the partial trajectory computed so far.
    """

    def __init__(self, time, trajectory=None):
        super().__init__(f"trajectory entries exceeded cap at t={time:.6g}")
        self.time = time
        self.trajectory = trajectory


class StabilityFailure(HesselabError):
    """Flow step lost positive-definiteness or produced non-finite values."""

    def __init__(self, message, node=None, time=None):
        super().__init__(message)
        self.node = node
        self.time = time


class IncompatibleMode(HesselabError):
    """Potential handle cannot be used with the requested flow boundary mode."""


class Infeasible(HesselabError):
    """Transport marginals are inconsistent (weights do not balance)."""


class NotDeterministic(HesselabError):
    """Coupling too diffuse to be treated as a transport map."""


class ConfigError(HesselabError):
    """Experiment configuration could not be parsed or validated."""
