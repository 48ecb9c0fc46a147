"""Exception hierarchy shared across the package.

The CLI maps InputError (bad data, bad config, unusable arguments) to
exit code 2 and every other failure to exit code 1.
"""


class FlowadError(Exception):
    """Base class for errors raised by this package."""


class InputError(FlowadError):
    """Invalid input data, configuration, or arguments."""


class DatasetError(InputError):
    """Malformed dataset file; message carries the offending row."""


class NonFiniteError(FlowadError, ArithmeticError):
    """A differentiable op produced a non-finite value."""

    def __init__(self, op: str, stage: str = "forward"):
        super().__init__(f"non-finite value produced by op '{op}' during {stage}")
        self.op = op
        self.stage = stage
