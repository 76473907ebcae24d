"""Error taxonomy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 1, ContractViolation
(and subclasses) -> 2, NumericalError -> 3.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration. `field` names the
    config dataclass field at fault, when there is one, so the CLI can
    report the value under its config key."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ContractViolation(ValueError):
    """A documented precondition or data invariant was violated."""


class DimensionError(ContractViolation):
    """Shape mismatch between tensors; message names both shapes."""


class ParseError(ContractViolation):
    """Malformed input data; message carries the sample ordinal or line number."""


class NumericalError(RuntimeError):
    """Non-finite values or a failed numerical check."""
