"""Specifications, acceptability ranges and pass/fail analysis.

Paper Section 2.1: a *specification* is a performance parameter that
must be measured and verified; a device instance is *good* when every
measured specification value falls inside its acceptability range and
*bad* otherwise.  Labels follow the SVM convention: ``+1`` good,
``-1`` bad.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import CompactionError

#: Label assigned to passing (good) devices.
GOOD = 1
#: Label assigned to failing (bad) devices.
BAD = -1


@dataclass(frozen=True)
class Specification:
    """A single device specification with its acceptability range.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"gain"`` or ``"slew_rate"``.
    unit:
        Human-readable unit string (``"V/V"``, ``"Hz"``, ...).
    nominal:
        The value measured on the nominal (unperturbed) design.
    low, high:
        Acceptability range bounds; a measured value ``v`` passes when
        ``low <= v <= high``.
    description:
        Optional free-form text for documentation.
    """

    name: str
    unit: str
    nominal: float
    low: float
    high: float
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise CompactionError("specification name must be non-empty")
        if not self.low < self.high:
            raise CompactionError(
                "specification {!r}: low bound {} must be below high bound "
                "{}".format(self.name, self.low, self.high))

    @property
    def span(self):
        """Width of the acceptability range."""
        return self.high - self.low

    def contains(self, value):
        """Element-wise pass test; works on scalars and arrays."""
        value = np.asarray(value, dtype=float)
        result = (value >= self.low) & (value <= self.high)
        return bool(result) if result.ndim == 0 else result

    def normalize(self, value):
        """Map the acceptability range onto [0, 1] (paper Section 4.3).

        Good values land inside [0, 1]; out-of-range values fall
        outside, preserving the pass/fail geometry.
        """
        return (np.asarray(value, dtype=float) - self.low) / self.span

    def denormalize(self, value):
        """Inverse of :meth:`normalize`."""
        return np.asarray(value, dtype=float) * self.span + self.low

    def shifted(self, delta_fraction):
        """Return a copy with both bounds moved inward (or outward).

        Positive ``delta_fraction`` *shrinks* the range by that fraction
        of the span on each side (a stricter specification); negative
        values widen it.  Used to build the two guard-band models of
        paper Section 4.2.
        """
        delta = delta_fraction * self.span
        new_low = self.low + delta
        new_high = self.high - delta
        if not new_low < new_high:
            raise CompactionError(
                "guard-band shift {} collapses the range of {!r}".format(
                    delta_fraction, self.name))
        return Specification(self.name, self.unit, self.nominal,
                             new_low, new_high, self.description)


class SpecificationSet:
    """An ordered collection of :class:`Specification` objects.

    Provides vectorized pass/fail labeling of measurement matrices and
    the range-based normalization used throughout the compaction flow.
    """

    #: ``(lows, highs, spans)`` read-only arrays, built on first use by
    #: the hot-path methods; never pickled (see :meth:`__getstate__`).
    _bounds = None

    def __init__(self, specifications):
        specs = tuple(specifications)
        if not specs:
            raise CompactionError("a SpecificationSet cannot be empty")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise CompactionError(
                "duplicate specification names: {}".format(sorted(names)))
        self._specs = specs
        self._index = {s.name: i for i, s in enumerate(specs)}

    # -- container protocol -------------------------------------------------
    def __len__(self):
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs)

    def __contains__(self, name):
        return name in self._index

    def __getitem__(self, key):
        if isinstance(key, str):
            try:
                return self._specs[self._index[key]]
            except KeyError:
                raise CompactionError(
                    "unknown specification {!r}".format(key)) from None
        return self._specs[key]

    def __eq__(self, other):
        return (isinstance(other, SpecificationSet)
                and self._specs == other._specs)

    def __repr__(self):
        return "SpecificationSet({})".format(", ".join(self.names))

    @property
    def names(self):
        """Tuple of specification names in order."""
        return tuple(s.name for s in self._specs)

    def index(self, name):
        """Column index of specification ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise CompactionError(
                "unknown specification {!r}".format(name)) from None

    def subset(self, names):
        """A new set restricted to ``names`` (order taken from ``names``)."""
        return SpecificationSet([self[name] for name in names])

    def without(self, names):
        """A new set excluding ``names`` (original order preserved)."""
        drop = set(names)
        unknown = drop - set(self.names)
        if unknown:
            raise CompactionError(
                "unknown specification(s): {}".format(sorted(unknown)))
        kept = [s for s in self._specs if s.name not in drop]
        if not kept:
            raise CompactionError("cannot drop every specification")
        return SpecificationSet(kept)

    # The bound cache is process-local derived state: dropping it keeps
    # pickles -- and so artifact bytes and registry SHA-256 pins --
    # exactly what they were before the cache existed.
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_bounds", None)
        return state

    # -- array views ---------------------------------------------------------
    def _bound_arrays(self):
        """Cached read-only ``(lows, highs, highs - lows)``."""
        bounds = self._bounds
        if bounds is None:
            lows = np.array([s.low for s in self._specs])
            highs = np.array([s.high for s in self._specs])
            bounds = (lows, highs, highs - lows)
            for array in bounds:
                array.flags.writeable = False
            self._bounds = bounds
        return bounds

    @property
    def lows(self):
        """Array of lower bounds (in specification order)."""
        return np.array([s.low for s in self._specs])

    @property
    def highs(self):
        """Array of upper bounds (in specification order)."""
        return np.array([s.high for s in self._specs])

    @property
    def nominals(self):
        """Array of nominal values (in specification order)."""
        return np.array([s.nominal for s in self._specs])

    # -- pass/fail analysis ---------------------------------------------------
    def _check_matrix(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[None, :]
        if values.shape[1] != len(self._specs):
            raise CompactionError(
                "measurement matrix has {} columns; expected {}".format(
                    values.shape[1], len(self._specs)))
        return values

    def passes(self, values):
        """Boolean pass matrix (instances x specifications)."""
        values = self._check_matrix(values)
        lows, highs, _ = self._bound_arrays()
        return (values >= lows) & (values <= highs)

    def labels(self, values):
        """Per-instance labels: +1 when every specification passes."""
        all_pass = self.passes(values).all(axis=1)
        return np.where(all_pass, GOOD, BAD)

    def yield_fraction(self, values):
        """Fraction of instances passing every specification."""
        labels = self.labels(values)
        return float(np.mean(labels == GOOD))

    def normalize(self, values):
        """Map each column's acceptability range onto [0, 1]."""
        values = self._check_matrix(values)
        lows, _, spans = self._bound_arrays()
        return (values - lows) / spans

    def denormalize(self, values):
        """Inverse of :meth:`normalize`."""
        values = self._check_matrix(values)
        lows, _, spans = self._bound_arrays()
        return values * spans + lows

    def shifted(self, delta_fraction):
        """Apply :meth:`Specification.shifted` to every member.

        ``delta_fraction`` may be a scalar (the paper's fixed guard
        band) or a per-specification sequence (the distribution-based
        guard band of the paper's future-work section, implemented in
        :func:`repro.core.guardband.distribution_guard_deltas`).
        """
        deltas = np.broadcast_to(
            np.asarray(delta_fraction, dtype=float), (len(self._specs),))
        return SpecificationSet(
            [s.shifted(d) for s, d in zip(self._specs, deltas)])

    def describe(self):
        """Multi-line, Table-1-style textual summary."""
        header = "{:<18} {:>10} {:>14} {:>14} {:>14}".format(
            "specification", "unit", "nominal", "low", "high")
        lines = [header, "-" * len(header)]
        for s in self._specs:
            lines.append("{:<18} {:>10} {:>14.6g} {:>14.6g} {:>14.6g}".format(
                s.name, s.unit, s.nominal, s.low, s.high))
        return "\n".join(lines)
