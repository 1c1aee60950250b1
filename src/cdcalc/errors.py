"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed term or word text. `position` is a 0-based offset into the input."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StepBudgetExceeded(RuntimeError):
    """A rewrite loop ran past its step budget.  Redressing always terminates,
    but some inputs need millions of steps; the message says how far it got."""


class SizeLimitExceeded(RuntimeError):
    """A term grew past the configured leaf-count ceiling."""
