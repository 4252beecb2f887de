"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input problems -> 1, numerical
failures -> 2, infeasible requests -> 3.
"""


class PerronNetError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PerronNetError):
    """Malformed or invalid input data (files, indices, weights)."""


class ParseError(InputError):
    """Edge-list file could not be parsed; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc += f"{line}: "
        elif path is not None:
            loc += " "
        super().__init__(loc + message)


class ConvergenceError(PerronNetError):
    """Iterative eigensolver failed to converge, or a result left the float
    range; carries diagnostics."""

    def __init__(self, message, iterations=None, residuals=None):
        self.iterations = iterations
        self.residuals = residuals
        super().__init__(message)


class DenseCapError(PerronNetError):
    """A dense-only code path was requested above the configured size cap."""


class InfeasibleError(PerronNetError):
    """The requested operation has no feasible answer (e.g. no removable edge)."""
