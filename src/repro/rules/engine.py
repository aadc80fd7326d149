"""Declarative tolerance rules: measured specs -> disposition bins.

A production test floor rarely stops at pass/fail.  Measured
specifications map to *bins* -- speed grades, quality tiers,
per-customer tolerance profiles -- and the mapping is a contract that
must be reviewable, serializable and validated, not code.  This module
is that contract layer:

* :class:`ToleranceRule` -- one axis-aligned spec-range box
  ("gain in [5000, inf) and bandwidth in [1 MHz, inf) -> PREMIUM").
* :class:`ToleranceProfile` -- an ordered rule set plus a default
  (fallback) bin.  Validation rejects rules whose regions overlap with
  positive measure while assigning different bins (the classic silent
  mis-binning bug) and proves the acceptable region is fully covered
  by grading rules (no passing device ever falls through to the
  fallback).  Because validated rules never materially overlap, the
  first-match semantics are *order-independent* everywhere except
  exact shared boundaries -- deterministic by construction.
* :class:`BoundProfile` -- the profile compiled by
  :meth:`ToleranceProfile.bind` against a
  :class:`~repro.core.specs.SpecificationSet`: a first-match box
  lookup, one broadcasted comparison per batch and no per-device
  Python.  There are no guard bands: a device's bin is the first box
  its nominal measurements fall in.

The binary floor is the degenerate case: the 2-bin profile built by
:meth:`ToleranceProfile.binary_default` has one rule (every
specification inside its acceptability range -> ``PASS``) over a
``FAIL`` fallback, and reproduces
:meth:`~repro.core.specs.SpecificationSet.labels` decision-for-
decision.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RuleError

#: Identifier stored in every serialized profile.
PROFILE_FORMAT = "repro/tolerance-profile"
#: Serialized profile schema version.
PROFILE_VERSION = 1

#: Bin names of the degenerate binary profile.
PASS_BIN = "PASS"
FAIL_BIN = "FAIL"

#: The coverage check enumerates the arrangement cells induced by the
#: rule boundaries; beyond this many cells it refuses (with a clear
#: error) rather than stalling the caller.
MAX_COVERAGE_CELLS = 200_000


def _interval(value) -> tuple[float | None, float | None]:
    """Normalize a condition bound pair; ``None`` = unbounded side."""
    try:
        low, high = value
    except (TypeError, ValueError):
        raise RuleError(
            "a condition must be a (low, high) pair; got {!r}".format(
                value)) from None
    low = None if low is None else float(low)
    high = None if high is None else float(high)
    if low is None and high is None:
        raise RuleError("a condition cannot be unbounded on both sides")
    if low is not None and high is not None and not low < high:
        raise RuleError(
            "condition low bound {} must be below high bound {}".format(
                low, high))
    if (low is not None and not math.isfinite(low)) or (
            high is not None and not math.isfinite(high)):
        raise RuleError("condition bounds must be finite (use None "
                        "for an unbounded side)")
    return low, high


@dataclass(frozen=True)
class ToleranceRule:
    """One declarative bin-assignment rule.

    Parameters
    ----------
    bin:
        The bin this rule assigns when it matches.
    conditions:
        ``{spec_name: (low, high)}`` -- the rule matches a device when
        every conditioned specification value lies inside its closed
        interval.  Either side may be ``None`` (unbounded).
        Unconditioned specifications are unconstrained.
    description:
        Free-form documentation.
    """

    bin: str
    conditions: dict = field(default_factory=dict)
    description: str = ""

    #: Frozen but unhashable: ``conditions`` is a dict.  Without this
    #: the dataclass would generate a ``__hash__`` that fails on it.
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self):
        if not self.bin or not isinstance(self.bin, str):
            raise RuleError("rule bin name must be a non-empty string")
        conditions = {}
        for name, bounds in dict(self.conditions).items():
            conditions[str(name)] = _interval(bounds)
        if not conditions:
            raise RuleError(
                "rule for bin {!r} has no conditions; catch-all "
                "behaviour belongs to the profile's default bin".format(
                    self.bin))
        object.__setattr__(self, "conditions", conditions)

    def to_dict(self) -> dict:
        out = {
            "bin": self.bin,
            "conditions": {
                name: list(bounds)
                for name, bounds in self.conditions.items()
            },
        }
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ToleranceRule":
        if not isinstance(payload, dict):
            raise RuleError("a rule must be a JSON object")
        unknown = set(payload) - {"bin", "conditions", "description"}
        if unknown:
            raise RuleError(
                "unknown rule field(s): {}".format(sorted(unknown)))
        return cls(
            bin=payload.get("bin", ""),
            conditions=payload.get("conditions", {}),
            description=payload.get("description", ""),
        )


class ToleranceProfile:
    """An ordered, validated tolerance-rule set for one customer/grade.

    Parameters
    ----------
    name:
        Profile identifier (customer or grade-set name).
    rules:
        Ordered :class:`ToleranceRule` sequence.  Rules assigning
        *different* bins must not overlap with positive measure
        (checked by :meth:`validate`); first match wins on shared
        boundaries, making the semantics deterministic and -- away
        from exact boundaries -- independent of rule order.
    default_bin:
        Fallback bin for devices matching no rule (typically the
        scrap/FAIL bin); guarantees full coverage structurally.
    description:
        Free-form documentation.
    """

    def __init__(self, name: str, rules, default_bin: str,
                 description: str = ""):
        if not name or not isinstance(name, str):
            raise RuleError("profile name must be a non-empty string")
        if not default_bin or not isinstance(default_bin, str):
            raise RuleError("default bin must be a non-empty string")
        self.name = name
        self.rules = tuple(
            rule if isinstance(rule, ToleranceRule)
            else ToleranceRule.from_dict(rule)
            for rule in rules)
        self.default_bin = default_bin
        self.description = str(description)
        bins = []
        for rule in self.rules:
            if rule.bin not in bins:
                bins.append(rule.bin)
        if default_bin not in bins:
            bins.append(default_bin)
        #: Bin names in first-appearance order, fallback last.
        self.bins = tuple(bins)

    # -- equality (JSON round-trip contract) ------------------------------
    def __eq__(self, other):
        return (isinstance(other, ToleranceProfile)
                and self.to_dict() == other.to_dict())

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    def bin_index(self, bin_name: str) -> int:
        try:
            return self.bins.index(bin_name)
        except ValueError:
            raise RuleError(
                "unknown bin {!r}; profile {!r} defines {}".format(
                    bin_name, self.name, list(self.bins))) from None

    # -- construction ------------------------------------------------------
    @classmethod
    def binary_default(cls, specifications) -> "ToleranceProfile":
        """The degenerate 2-bin profile over a specification set.

        One rule -- every specification inside its acceptability range
        -> ``PASS`` -- over a ``FAIL`` fallback.  Reproduces
        :meth:`~repro.core.specs.SpecificationSet.labels` exactly:
        both use closed-interval comparisons against the same bounds.
        """
        rule = ToleranceRule(
            bin=PASS_BIN,
            conditions={s.name: (s.low, s.high) for s in specifications},
            description="every specification inside its "
                        "acceptability range")
        return cls(
            name="binary-default",
            rules=(rule,),
            default_bin=FAIL_BIN,
            description="degenerate pass/fail profile (2-bin "
                        "compatibility contract)")

    # -- validation --------------------------------------------------------
    def validate(self, specifications=None) -> "ToleranceProfile":
        """Check the profile is safe to disposition devices with.

        * every conditioned spec exists in ``specifications`` (when
          given);
        * no two rules assigning different bins overlap with positive
          measure (axis-aligned box intersection; rules for the *same*
          bin may overlap -- a bin region may be a union of boxes);
        * with ``specifications``, the acceptability box is fully
          covered by the rules, so no passing device silently falls
          through to the default bin.

        Returns ``self``; raises :class:`~repro.errors.RuleError` on
        any violation.
        """
        if not self.rules:
            raise RuleError(
                "profile {!r} has no rules; even the binary profile "
                "declares its PASS region".format(self.name))
        if specifications is not None:
            known = set(specifications.names)
            for rule in self.rules:
                unknown = set(rule.conditions) - known
                if unknown:
                    raise RuleError(
                        "rule for bin {!r} conditions on unknown "
                        "specification(s) {}".format(
                            rule.bin, sorted(unknown)))
        self._check_overlaps()
        if specifications is not None:
            self._check_coverage(specifications)
        return self

    def _check_overlaps(self):
        for i, a in enumerate(self.rules):
            for b in self.rules[i + 1:]:
                if a.bin == b.bin:
                    continue
                if _boxes_overlap(a.conditions, b.conditions):
                    raise RuleError(
                        "rules for bins {!r} and {!r} overlap with "
                        "positive measure; a device in the overlap "
                        "would be binned by rule order alone -- split "
                        "the ranges".format(a.bin, b.bin))

    def _check_coverage(self, specifications):
        """Prove the acceptability box is covered by the rules.

        The rules are axis-aligned boxes, so the arrangement induced
        by their boundaries (clipped to the acceptability box) tiles
        the box into cells each lying entirely inside or outside every
        rule; testing one midpoint per cell is therefore *exact*, not
        a heuristic.  Only dimensions some rule conditions on need
        splitting.
        """
        conditioned = [s for s in specifications
                       if any(s.name in r.conditions for r in self.rules)]
        if not conditioned:
            raise RuleError(
                "profile {!r} conditions on none of the target "
                "specifications".format(self.name))
        axes = []
        n_cells = 1
        for spec in conditioned:
            cuts = {spec.low, spec.high}
            for rule in self.rules:
                bounds = rule.conditions.get(spec.name)
                if bounds is None:
                    continue
                for edge in bounds:
                    if edge is not None and spec.low < edge < spec.high:
                        cuts.add(edge)
            edges = sorted(cuts)
            mids = [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
            axes.append((spec.name, mids))
            n_cells *= len(mids)
            if n_cells > MAX_COVERAGE_CELLS:
                raise RuleError(
                    "coverage check would enumerate more than {} "
                    "cells; simplify the profile".format(
                        MAX_COVERAGE_CELLS))
        # Build the midpoint grid over conditioned dims; unconditioned
        # dims sit at their nominal (they cannot affect any rule).
        grids = np.meshgrid(*[mids for _, mids in axes], indexing="ij")
        points = {name: grid.ravel()
                  for (name, _), grid in zip(axes, grids)}
        n = next(iter(points.values())).shape[0]
        covered = np.zeros(n, dtype=bool)
        for rule in self.rules:
            mask = np.ones(n, dtype=bool)
            for name, (low, high) in rule.conditions.items():
                if name not in points:
                    continue  # unconditioned dim: nominal, in range
                v = points[name]
                if low is not None:
                    mask &= v >= low
                if high is not None:
                    mask &= v <= high
            covered |= mask
        if not covered.all():
            hole = int(np.flatnonzero(~covered)[0])
            witness = {name: float(v[hole]) for name, v in points.items()}
            raise RuleError(
                "profile {!r} leaves a coverage gap inside the "
                "acceptable region: no rule matches a passing device "
                "at {} -- it would silently fall to the default bin "
                "{!r}".format(self.name, witness, self.default_bin))

    # -- matching ----------------------------------------------------------
    def bind(self, specifications) -> "BoundProfile":
        """Pre-compile the rule set against a specification set.

        Returns the vectorized matcher the floor's hot path uses; the
        profile is validated (including coverage) first.
        """
        self.validate(specifications)
        return BoundProfile(self, specifications)

    # -- persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": PROFILE_FORMAT,
            "version": PROFILE_VERSION,
            "name": self.name,
            "description": self.description,
            "default_bin": self.default_bin,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload) -> "ToleranceProfile":
        if not isinstance(payload, dict):
            raise RuleError("a profile must be a JSON object")
        if payload.get("format", PROFILE_FORMAT) != PROFILE_FORMAT:
            raise RuleError(
                "{!r} is not a tolerance-profile document".format(
                    payload.get("format")))
        version = payload.get("version", PROFILE_VERSION)
        if version != PROFILE_VERSION:
            raise RuleError(
                "profile document version {!r}; this build reads "
                "version {}".format(version, PROFILE_VERSION))
        return cls(
            name=payload.get("name", ""),
            rules=payload.get("rules", ()),
            default_bin=payload.get("default_bin", ""),
            description=payload.get("description", ""),
        )

    @classmethod
    def load(cls, path) -> "ToleranceProfile":
        """Read and validate a JSON profile document."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise RuleError(
                "cannot read tolerance profile {!r}: {}".format(
                    os.fspath(path), exc)) from exc
        profile = cls.from_dict(payload)
        profile.validate()
        return profile

    def __repr__(self):
        return "ToleranceProfile({!r}, {} rules, bins={})".format(
            self.name, len(self.rules), list(self.bins))


def _boxes_overlap(a: dict, b: dict) -> bool:
    """Positive-measure intersection of two condition boxes.

    Unconditioned dimensions are unbounded; closed intervals that
    merely share an edge (measure zero) do not count as overlap.
    """
    for name in set(a) | set(b):
        a_low, a_high = a.get(name, (None, None))
        b_low, b_high = b.get(name, (None, None))
        low = max(_lo(a_low), _lo(b_low))
        high = min(_hi(a_high), _hi(b_high))
        if not low < high:
            return False
    return True


def _lo(bound):
    return -math.inf if bound is None else bound


def _hi(bound):
    return math.inf if bound is None else bound


class BoundProfile:
    """A :class:`ToleranceProfile` compiled against a specification set.

    Dense per-rule bound matrices make matching one broadcasted
    comparison per batch; the result is a pure function of the
    profile, the specification order and the measurements, so
    assignments are identical at any batch size or engine.
    """

    def __init__(self, profile: ToleranceProfile, specifications):
        self.profile = profile
        names = specifications.names
        r, m = len(profile.rules), len(names)
        index = {name: j for j, name in enumerate(names)}
        self._lows = np.full((r, m), -np.inf)
        self._highs = np.full((r, m), np.inf)
        for i, rule in enumerate(profile.rules):
            for name, (low, high) in rule.conditions.items():
                j = index[name]
                if low is not None:
                    self._lows[i, j] = low
                if high is not None:
                    self._highs[i, j] = high
        self._rule_bins = np.array(
            [profile.bin_index(rule.bin) for rule in profile.rules])
        self._default_bin = profile.bin_index(profile.default_bin)

    @property
    def bins(self):
        return self.profile.bins

    def assign(self, values) -> np.ndarray:
        """Per-device bin indices: the bin of the first rule whose box
        holds the row, else the default bin."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2 or values.shape[1] != self._lows.shape[1]:
            raise RuleError(
                "measurement matrix must be (n, {}) in specification "
                "order; got shape {}".format(
                    self._lows.shape[1], np.shape(values)))
        V = values[:, None, :]
        inside = ((V >= self._lows) & (V <= self._highs)).all(axis=2)
        return np.where(inside.any(axis=1),
                        self._rule_bins[inside.argmax(axis=1)],
                        self._default_bin)

    def __repr__(self):
        return "BoundProfile({!r}, {} rules over {} specs)".format(
            self.profile.name, len(self.profile.rules),
            self._lows.shape[1])
