"""Exception hierarchy shared across the package.

The command line maps these onto process exit codes: contract/usage
problems exit 2, data or file-system errors (these plus any ``OSError``,
such as an output path in a missing directory) exit 3 and numerical
failures exit 4.
"""


class SpecGPError(Exception):
    """Base class for every error raised by this package."""


class ContractError(SpecGPError, ValueError):
    """An argument or configuration violated a documented precondition."""


class NumericalError(SpecGPError, ArithmeticError):
    """A numerical operation failed (factorization, singular matrix, ...).

    ``block_id`` identifies the data partition involved when the failure
    happened inside per-block linear algebra, otherwise it is ``None``.
    """

    def __init__(self, message, block_id=None):
        super().__init__(message)
        self.block_id = block_id


class DataError(SpecGPError, ValueError):
    """Dataset ingestion or file format problem."""


class ModelFormatError(DataError):
    """A model or checkpoint file failed validation."""
