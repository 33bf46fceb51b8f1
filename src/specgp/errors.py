"""Exception hierarchy shared across the package, and the one check of a
scalar setting (:func:`checked`).

The command line maps these onto process exit codes: contract/usage
problems exit 2, data or file-system errors (these plus any ``OSError``,
such as an output path in a missing directory) exit 3 and numerical
failures exit 4.

Every scalar setting has one :class:`Rule`, stated beside the dataclass or
function that owns it; the run-config keys read the same rules.
"""

import os

import numpy as np


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


# The types each kind admits (a bool is never a number) and the plain value it stores.
_KINDS = {
    "integer": ((int, np.integer), int),
    "number": ((int, float, np.integer, np.floating), float),
    "boolean": ((bool, np.bool_), bool),
    "string or null": ((str, os.PathLike, type(None)), lambda v: v and os.fsdecode(v)),
}


class Rule:
    """A scalar setting's JSON kind (a key of ``_KINDS``) and, for the numeric
    kinds, the interval it must lie in, such as ``"(0, 1]"``, parsed once."""

    def __init__(self, kind: str, bound: str | None = None):
        self.kind, self.bound, (self.types, self.plain) = kind, bound, _KINDS[kind]
        if bound is not None:
            self.low, self.high = (float(end) for end in bound[1:-1].split(","))
            ends = ((self.low, bound[0] == "("), (self.high, bound[-1] == ")"))
            self.open_ends = {end for end, is_open in ends if is_open}


POSITIVE_INT = Rule("integer", "[1, inf)")
NONNEGATIVE_INT = Rule("integer", "[0, inf)")
POSITIVE = Rule("number", "(0, inf)")
FLAG = Rule("boolean")


def checked(name: str, value, rule: Rule):
    """``value`` as the plain Python value that ``rule`` admits, else a
    :class:`ContractError` naming ``name``.  numpy scalars are converted, a
    path-like string setting becomes its ``str`` path, and NaN lies in no
    interval."""
    plain = value
    if type(value) is not rule.plain:
        if not isinstance(value, rule.types) or (type(value) is bool and rule.kind != "boolean"):
            raise ContractError(f"{name}: expected {rule.kind}, got {value!r}")
        try:
            plain = rule.plain(value)
        except OverflowError:  # an integer beyond the float range
            plain = float("nan")
    if rule.bound is not None and not (
        rule.low <= plain <= rule.high and plain not in rule.open_ends
    ):
        raise ContractError(f"{name}: must be in {rule.bound}, got {value!r}")
    return plain


def check_fields(config) -> None:
    """Store each field of the frozen dataclass ``config`` that its class's
    ``RULES`` names as :func:`checked` of it."""
    for name, rule in config.RULES.items():
        value = getattr(config, name)
        plain = checked(name, value, rule)
        if plain is not value:
            object.__setattr__(config, name, plain)
