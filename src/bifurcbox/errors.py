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
    (``nearest_index`` None), than to the one it started from.  Carries the
    converged solve's ``ContinuationRecord`` in ``record``."""

    def __init__(self, message, nearest_index=None, record=None):
        super().__init__(message)
        self.nearest_index = nearest_index
        self.record = record


class SpectrumTooClose(BifurcBoxError):
    """A transported eigenvalue sits within rounding distance of zero, or
    the Schur-complement solve behind the Morse index stalled, or a
    Rayleigh-Ritz Gram matrix lost definiteness to rounding, so a
    Morse-index verdict would be meaningless at this continuation step.

    ``morse_index`` is the exact inertia count when only the Ritz
    refinement of the transported eigenvalues failed, else None."""

    def __init__(self, message, morse_index=None):
        super().__init__(message)
        self.morse_index = morse_index


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
