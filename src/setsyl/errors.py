"""Exception types shared across the toolkit, and the one search budget.

Every exponential search (the solver's place engine, whose queries also
meter the placement, and its model builds; Fourier-Motzkin elimination and
entailment probes in the arithmetic plugin; the oracle's enumeration of
bounded assignments) spends steps from a Budget.  A `budget` parameter
takes a limit (DEFAULT_BUDGET unless the caller passes another), None for
no limit, or a Budget to share: `setsyl solve` spends one meter across
every disjunct and every combination round.  Running out raises
ResourceLimitError, the only exhaustion error, which names the layer that
was running and the count of steps reached.  It lives here, beside the
errors, so that the oracle stays independent of the solver.
"""

from __future__ import annotations

from typing import Optional, Union

DEFAULT_BUDGET = 10_000_000


class SetsylError(Exception):
    """Base class for all library errors."""


class ParseError(SetsylError):
    """Malformed surface syntax. Carries the source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class ArityError(ParseError):
    """An operator application with the wrong number of arguments."""


class MixedAtomError(SetsylError):
    """An atom mixes operators from two or more theory signatures."""


class UnsupportedAtomError(SetsylError):
    """An atom outside the fragment the called procedure handles."""


class UnboundVariableError(SetsylError):
    """Evaluation hit a variable the assignment does not cover."""


class BoundTooLargeError(SetsylError):
    """Universe enumeration requested beyond the supported rank."""


class ResourceLimitError(SetsylError):
    """A search spent its whole budget before reaching a verdict.

    layer names the stage that was running, count the steps reached (past
    limit by the last charge).
    """

    def __init__(self, layer: str, count: int, limit: int):
        self.layer = layer
        self.count = count
        self.limit = limit
        super().__init__(
            f"budget of {limit} steps exhausted while {layer} ({count} steps reached)"
        )


class Budget:
    """A count of search steps shared by every stage of one search.

    spend charges steps to the named layer and raises ResourceLimitError
    once the total exceeds the limit; a limit of None never runs out.
    """

    __slots__ = ("limit", "left")

    def __init__(self, limit: Optional[int]):
        self.limit = self.left = limit

    @classmethod
    def of(cls, budget: Union[int, Budget, None]) -> Budget:
        """budget itself when it is a meter already, so that callers can
        share one; otherwise a fresh meter with that limit."""
        return budget if isinstance(budget, Budget) else cls(budget)

    def spend(self, layer: str, steps: int = 1) -> None:
        if self.left is None:
            return
        self.left -= steps
        if self.left < 0:
            raise ResourceLimitError(layer, self.limit - self.left, self.limit)


class NonConvexPluginError(SetsylError):
    """A plugin that is not convex was offered to the equality-propagation loop."""


class NonlinearTermError(SetsylError):
    """A term the linear-arithmetic plugin cannot express as a linear form."""


class PreconditionError(SetsylError):
    """A documented operation precondition does not hold for the arguments."""


class InvariantViolation(SetsylError):
    """An internal consistency check failed; indicates a bug, not bad input."""
