"""Per-lot and per-run reporting for the streaming test floor.

A production floor dispositions devices in *lots* (one wafer batch,
one day of traffic, one simulated seed); each lot yields a
:class:`LotReport` with the paper's quality metrics (yield loss,
defect escape, guard-band rate -- Section 5.1), the insertion-aware
cost accounting of Section 6, the drift alarms active at lot end and
the measured throughput.  :class:`FloorReport` aggregates a run of
lots.

All counts are exact: the floor streams ground-truth-labeled simulated
devices, so escapes and yield loss are known, not estimated.
"""

from dataclasses import dataclass, field


def _rate(count, total):
    return count / total if total else 0.0


@dataclass(frozen=True)
class LotReport:
    """Outcome of streaming one lot through the test floor."""

    #: Human-readable lot label (e.g. ``"lot0(seed=7)"``).
    lot: str
    #: Devices dispositioned.
    n_devices: int
    #: Final ship decisions (+1).
    n_shipped: int
    #: Final scrap decisions (-1).
    n_scrapped: int
    #: Devices sent through the retest flow (``full_retest`` only).
    n_retested: int
    #: First-pass guard-band devices (before the retest policy).
    n_guard: int
    #: Good devices scrapped (ground truth known on the floor sim).
    n_yield_loss: int
    #: Bad devices shipped.
    n_defect_escape: int
    #: Population cost under the compacted program + retest policy.
    total_cost: float
    #: Cost of full-specification testing of the same population.
    full_cost: float
    #: Wall-clock seconds spent dispositioning the lot.
    wall_seconds: float
    #: Drift alarms active when the lot finished (lot-end state of the
    #: rolling control charts).
    alarms: tuple = ()
    #: Final per-device dispositions, kept only when the caller asked
    #: for them (``keep_decisions=True``); ``None`` otherwise.
    decisions: object = None
    #: Shipped devices routed through the grade (bin) retest flow.
    n_bin_retested: int = 0
    #: ``{bin_name: count}`` lot histogram (``None`` on reports built
    #: before the binning layer).
    bin_counts: object = None
    #: Bin names, in profile order (default bin last).
    bin_names: tuple = ()
    #: Per-device bin indices (``keep_decisions=True`` only).
    bins: object = None

    @property
    def yield_loss_rate(self):
        """Good devices scrapped, over all devices."""
        return _rate(self.n_yield_loss, self.n_devices)

    @property
    def defect_escape_rate(self):
        """Bad devices shipped, over all devices."""
        return _rate(self.n_defect_escape, self.n_devices)

    @property
    def guard_rate(self):
        """First-pass guard-band devices, over all devices."""
        return _rate(self.n_guard, self.n_devices)

    @property
    def cost_per_device(self):
        """Average per-device cost under the compacted program."""
        return _rate(self.total_cost, self.n_devices)

    @property
    def cost_reduction(self):
        """Fractional saving vs full-specification testing."""
        if self.full_cost <= 0:
            return 0.0
        return 1.0 - self.total_cost / self.full_cost

    @property
    def devices_per_minute(self):
        """Measured disposition throughput."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.n_devices * 60.0 / self.wall_seconds

    def summary(self):
        """One-line outcome summary."""
        return ("{}: {} devices  shipped {}  scrapped {}  retested {}  "
                "YL {:.2%}  DE {:.2%}  guard {:.2%}  "
                "cost/device {:.3g} ({:.1%} saved)  "
                "{:,.0f} devices/min  {} drift alarm(s)").format(
                    self.lot, self.n_devices, self.n_shipped,
                    self.n_scrapped, self.n_retested,
                    self.yield_loss_rate, self.defect_escape_rate,
                    self.guard_rate, self.cost_per_device,
                    self.cost_reduction, self.devices_per_minute,
                    len(self.alarms))

    def __str__(self):
        return self.summary()


@dataclass(frozen=True)
class FloorReport:
    """Aggregate of one floor run (a schedule of lots)."""

    lots: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "lots", tuple(self.lots))

    @property
    def n_devices(self):
        return sum(lot.n_devices for lot in self.lots)

    @property
    def n_shipped(self):
        return sum(lot.n_shipped for lot in self.lots)

    @property
    def n_retested(self):
        return sum(lot.n_retested for lot in self.lots)

    @property
    def total_cost(self):
        return sum(lot.total_cost for lot in self.lots)

    @property
    def full_cost(self):
        return sum(lot.full_cost for lot in self.lots)

    @property
    def wall_seconds(self):
        return sum(lot.wall_seconds for lot in self.lots)

    @property
    def yield_loss_rate(self):
        return _rate(sum(lot.n_yield_loss for lot in self.lots),
                     self.n_devices)

    @property
    def defect_escape_rate(self):
        return _rate(sum(lot.n_defect_escape for lot in self.lots),
                     self.n_devices)

    @property
    def cost_reduction(self):
        if self.full_cost <= 0:
            return 0.0
        return 1.0 - self.total_cost / self.full_cost

    @property
    def devices_per_minute(self):
        if self.wall_seconds <= 0:
            return float("inf")
        return self.n_devices * 60.0 / self.wall_seconds

    @property
    def n_bin_retested(self):
        return sum(getattr(lot, "n_bin_retested", 0)
                   for lot in self.lots)

    @property
    def bin_counts(self):
        """Merged ``{bin_name: count}`` across lots (``None`` when no
        lot carries bin histograms)."""
        totals = None
        for lot in self.lots:
            counts = getattr(lot, "bin_counts", None)
            if not counts:
                continue
            if totals is None:
                totals = {}
            for name, count in counts.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    @property
    def alarms(self):
        """All lots' alarms, in lot order."""
        return tuple(alarm for lot in self.lots for alarm in lot.alarms)

    def rows(self):
        """Table rows (one per lot) for CLI / benchmark printers."""
        return [(lot.lot, lot.n_devices,
                 100.0 * lot.yield_loss_rate,
                 100.0 * lot.defect_escape_rate,
                 100.0 * lot.guard_rate,
                 lot.cost_per_device,
                 lot.devices_per_minute,
                 len(lot.alarms))
                for lot in self.lots]

    def summary(self):
        """Multi-line run summary (one line per lot + totals)."""
        lines = [lot.summary() for lot in self.lots]
        lines.append(
            "total: {} devices in {} lot(s)  YL {:.2%}  DE {:.2%}  "
            "{:.1%} cost saved  {:,.0f} devices/min  {} alarm(s)".format(
                self.n_devices, len(self.lots), self.yield_loss_rate,
                self.defect_escape_rate, self.cost_reduction,
                self.devices_per_minute, len(self.alarms)))
        return "\n".join(lines)

    def __str__(self):
        return self.summary()
