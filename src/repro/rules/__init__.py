"""Declarative tolerance rules and multi-bin disposition profiles."""

from repro.rules.binning import assign_bins, bin_histogram, grade_indices
from repro.rules.engine import (
    FAIL_BIN,
    PASS_BIN,
    PROFILE_FORMAT,
    PROFILE_VERSION,
    BoundProfile,
    ToleranceProfile,
    ToleranceRule,
)

__all__ = [
    "FAIL_BIN",
    "PASS_BIN",
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "BoundProfile",
    "ToleranceProfile",
    "ToleranceRule",
    "assign_bins",
    "bin_histogram",
    "grade_indices",
]
