"""Exception hierarchy for the circuit simulator."""


class SpiceError(Exception):
    """Base class for all circuit-simulator errors."""


class NetlistError(SpiceError):
    """A circuit is malformed (bad nodes, duplicate names, missing model)."""


class NetlistLintError(NetlistError):
    """Static lint found error-severity defects (the pre-flight gate).

    Attributes:
        report: the :class:`~repro.spice.lint.report.LintReport` with
            every finding (rule ids, nodes, devices), when available.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class ParseError(SpiceError):
    """A Spice-format netlist file could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None,
                 line: str | None = None):
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message}"
            if line is not None:
                message = f"{message}\n  >> {line}"
        super().__init__(message)


class AnalysisError(SpiceError):
    """An analysis was configured incorrectly or failed to run."""


class ConvergenceError(AnalysisError):
    """Newton-Raphson iteration failed to converge.

    Attributes:
        iterations: iterations spent before giving up.
        residual: largest node-voltage update of the last iteration (V).
        t: simulation time of the failed solve (``None`` at DC).
        node: the node with the largest last update.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None, t: float | None = None,
                 node: str | None = None):
        self.iterations = iterations
        self.residual = residual
        self.t = t
        self.node = node
        super().__init__(message)


class SingularMatrixError(AnalysisError):
    """The MNA matrix is singular (floating node, loop of sources...)."""
