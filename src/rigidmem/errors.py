"""Exception types shared across the package."""

__all__ = ["DivergenceError", "HistoryCoverageError", "ConfigError"]


class DivergenceError(RuntimeError):
    """Raised when an integrated state leaves the finite trust region.

    ``t_last`` holds the last time at which the state was still valid.
    """

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last


class HistoryCoverageError(ValueError):
    """Raised when a delayed evaluation reaches outside the known history."""


class ConfigError(ValueError):
    """Raised on config parse/validation failures.

    ``messages`` is a list of human-readable strings, one per violation,
    each naming the offending key and line.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))
