"""Exception and warning types shared across the package."""


class BifurcBoxError(Exception):
    """Base class for all package-specific errors."""


class IncompletePrefix(BifurcBoxError):
    """A mode list may be truncated inside an eigenvalue group, so grouping
    cannot be certified complete."""


class OutOfDomain(BifurcBoxError):
    """An evaluation point lies outside the closed box."""


class PatternMismatch(BifurcBoxError):
    """A quartic tensor does not have the two-coefficient (alpha, beta)
    sparsity structure required for closed-form critical points."""


class GridTooCoarse(BifurcBoxError):
    """The discrete eigenvalue cluster of the working group splits by more
    than half the gap to its spectral neighbours."""


class SupercriticalP(BifurcBoxError):
    """The nonlinearity exponent exceeds the critical Sobolev exponent for
    the space dimension; the PDE verifier refuses to run."""


class NewtonDiverged(BifurcBoxError):
    """Damped Newton failed to converge.

    Carries the residual history of the failed run in ``history``.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConvergedToWrongBranch(BifurcBoxError):
    """A PDE solve landed on a solution whose eigenspace projection is
    closer to a different predicted pair, or to the trivial solution
    (``nearest_index`` None), than to the one it started from."""

    def __init__(self, message, got=None, expected=None, nearest_index=None):
        super().__init__(message)
        self.got = got
        self.expected = expected
        self.nearest_index = nearest_index


class SpectrumTooClose(BifurcBoxError):
    """A transported eigenvalue sits within rounding distance of zero, so a
    Morse-index verdict would be meaningless at this continuation step."""


class ConfigError(BifurcBoxError):
    """Malformed run configuration (bad field, unparseable value)."""


class SuspectedDegenerateWarning(UserWarning):
    """A converged critical point failed the nondegeneracy margin."""


class DegeneratePresentWarning(UserWarning):
    """A branch prediction contains degenerate points; exact counting
    claims are suppressed."""


class SupercriticalExponentWarning(UserWarning):
    """The reduced functional is being evaluated above the critical Sobolev
    exponent; the finite-dimensional object is still well defined, but the
    PDE verifier will refuse this exponent."""
