"""Exception hierarchy shared across the package.

Everything derives from TopoidxError so callers can catch the whole family;
the concrete classes carry the failure cause in their message.
"""


class TopoidxError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(TopoidxError, ZeroDivisionError):
    """Division by an exact zero (rational division or 0 to a negative power)."""


class InvalidRational(TopoidxError, ValueError):
    """Text that does not read as a rational ``num`` or ``num/den``."""


class UnsupportedEvaluation(TopoidxError):
    """An exact evaluation was requested where none exists."""


class SelfLoop(TopoidxError, ValueError):
    """Edge with identical endpoints given to a simple-graph constructor."""


class VertexOutOfRange(TopoidxError, ValueError):
    """Edge endpoint outside 0..n-1."""


class InvalidFamilyParams(TopoidxError, ValueError):
    """Family parameters outside the generator's valid range."""


class DisconnectedGraph(TopoidxError):
    """A distance-based quantity was requested on a disconnected graph."""


class GraphTooLarge(TopoidxError):
    """Graph exceeds the exhaustive domination solver's vertex bound."""


class InverseUndefined(TopoidxError):
    """Reciprocal transform met a zero per-edge kernel."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"zero kernel on edge {edge} under a reciprocal transform")


class UnknownIndexName(TopoidxError, ValueError):
    """Index name not present in the registry; carries a nearest-name hint."""

    def __init__(self, name, suggestion=None):
        self.name = name
        self.suggestion = suggestion
        hint = f" (did you mean {suggestion!r}?)" if suggestion else ""
        super().__init__(f"unknown index name {name!r}{hint}")


class ParamsOutOfStatedRange(TopoidxError, ValueError):
    """Closed-form oracle evaluated outside the range its statement assumes."""


class GraphFileError(TopoidxError, ValueError):
    """Malformed edge-list file; message includes the offending line number."""


class BaselineFileError(TopoidxError, ValueError):
    """Verdict baseline file that is not a JSON object of oracle records."""
