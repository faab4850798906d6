"""Desk-scale toolkit for grammatical error correction and acceptability.

Subpackages cover the full loop: core text types and interchange formats
(textcore), alignment and error typing (align), building acceptability
corpora from correction data (colacorpus), the acceptability judge (judge),
the trainable corrector (gec), edit-level scoring (evalmetrics), the
ablation grid that trains, decodes and scores (experiment), a synthetic
benchmark factory (synth), and the command-line front end (cli).
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateCorpus,
    EmptyEvaluation,
    FormatError,
    GeckitError,
    InvalidEditSet,
    InvalidLogits,
)
from .textcore import AnnotatedPair, ColaInstance, Edit, Sentence, apply_edits

__all__ = [
    "AnnotatedPair",
    "ColaInstance",
    "ConfigError",
    "DegenerateCorpus",
    "Edit",
    "EmptyEvaluation",
    "FormatError",
    "GeckitError",
    "InvalidEditSet",
    "InvalidLogits",
    "Sentence",
    "apply_edits",
    "__version__",
]
