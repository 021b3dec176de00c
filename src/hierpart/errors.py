"""Exception types shared across the package."""

__all__ = ["InfeasibleError", "FileFormatError"]


class InfeasibleError(Exception):
    """A request that no valid output can satisfy (e.g. more parts than vertices)."""


class FileFormatError(ValueError):
    """A structured input file failed to parse.

    Carries the path and 1-based line number so CLI users can locate the
    offending line.
    """

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
