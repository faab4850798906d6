"""Exception types shared across the toolkit.

Every error raised on purpose by this package derives from GeckitError, so
callers (notably the CLI) can separate validation failures from genuine bugs
and I/O problems.
"""

from __future__ import annotations


class GeckitError(Exception):
    """Base class for all toolkit errors."""


class InvalidEditSet(GeckitError):
    """Edits that overlap, fall outside the sentence, or change nothing."""


class FormatError(GeckitError):
    """Malformed interchange data (M2, TSV, config files).

    Carries the offending source name and 1-based line number when known.
    """

    def __init__(self, message: str, *, name: str | None = None, line: int | None = None):
        self.name = name
        self.line = line
        prefix = ""
        if name is not None:
            prefix += f"{name}: "
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


class DegenerateCorpus(GeckitError):
    """A training corpus from which nothing can be learned (e.g. one label)."""


class InvalidLogits(GeckitError):
    """Logit values that are NaN or infinite."""


class EmptyEvaluation(GeckitError):
    """An evaluation over zero edits, zero instances, or zero counts."""


class ConfigError(GeckitError):
    """Invalid, contradictory, or unknown configuration."""
