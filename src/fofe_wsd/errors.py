"""Exception types shared across the pipeline.

The CLI maps these to exit codes: UsageError -> 1, DataError -> 2,
NumericalError -> 3.
"""


class UsageError(ValueError):
    """A setting, flag or config file is invalid; raised by the config dataclasses too."""


class DataError(Exception):
    """An input file is missing, malformed, or internally inconsistent."""


class NumericalError(RuntimeError):
    """Training produced a non-finite value and was aborted."""
