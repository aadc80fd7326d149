"""Online distribution-drift monitoring for a deployed test floor.

A compacted test program is a *statistical* decision rule: its yield
loss, defect escape and guard-band rates were validated on a training
population, and they are only trustworthy while the incoming devices
keep coming from that population (the convergence literature around
loopy belief propagation makes the same point for deployed inference:
a fixed-point decision rule holds only inside the regime it was
derived for).  The floor therefore watches the stream itself:

* **per-spec control charts** -- the rolling mean of every *measured*
  (kept) specification against its training mean, in standard errors
  (``z = (mean_window - mean_train) / (std_train / sqrt(n_window))``);
* **guard-band-rate chart** -- the rolling fraction of first-pass
  guard-band devices against the train-time rate, with binomial
  control limits.  A drifting population typically piles up near the
  acceptance boundary first, so the guard rate is the most sensitive
  early-warning statistic the tester gets for free.

Alarms recommend recalibration (retrain and redeploy the artifact on
fresh data) rather than attempting any automatic correction: silently
adapting the decision rule on the floor would invalidate the escape
and yield-loss guarantees the program was signed off with.

Everything here is deterministic: statistics depend only on the stream
contents and the fixed window, never on timing or worker count.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.metrics import GUARD
from repro.errors import CompactionError
from repro.rules.binning import bin_histogram

#: Per-spec mean-chart alarm threshold in standard errors.  Deliberately
#: wide: at floor-scale windows the standard error is tiny, so a tight
#: threshold would page on physically irrelevant drifts.
Z_THRESHOLD = 6.0
#: Guard-rate and bin-rate chart threshold in binomial sigmas.
GUARD_Z_THRESHOLD = 5.0
#: Number of most recent batches the rolling window spans.
WINDOW_BATCHES = 64
#: No chart is evaluated until the window holds at least this many
#: devices (early small-sample windows are pure noise).
MIN_DEVICES = 256


@dataclass(frozen=True)
class DriftBaseline:
    """Training-time reference statistics of the measured specifications.

    Captured when the artifact is built (see
    :meth:`repro.floor.artifact.TestProgramArtifact.from_result`) and
    shipped inside it, so any floor loading the artifact monitors
    against the exact population the program was trained on.
    """

    #: Names of the kept (measured) specifications, in order.
    names: tuple
    #: Per-spec training mean of the raw measurements.
    mean: tuple
    #: Per-spec training standard deviation (ddof=1).
    std: tuple
    #: First-pass guard-band rate observed at train time.
    guard_rate: float
    #: Training-population size the statistics were computed from.
    n_train: int
    #: Optional ``{bin_name: training rate}`` of the tolerance
    #: profile's truth-bin assignment (set by
    #: :meth:`repro.floor.artifact.TestProgramArtifact.with_profile`);
    #: ``None`` on binary programs and on baselines saved before the
    #: binning layer existed.
    bin_rates: object = None

    @classmethod
    def from_dataset(cls, dataset, kept_names, guard_rate):
        """Compute the baseline from a training dataset.

        ``guard_rate`` is supplied by the caller (the artifact builder
        uses the held-out guard rate of the final compaction report --
        the same estimate the program was accepted with).
        """
        kept_names = tuple(kept_names)
        values = dataset.project(kept_names).values
        if len(dataset) < 2:
            raise CompactionError(
                "drift baseline needs at least two training devices")
        return cls(
            names=kept_names,
            mean=tuple(float(m) for m in values.mean(axis=0)),
            std=tuple(float(s) for s in values.std(axis=0, ddof=1)),
            guard_rate=float(guard_rate),
            n_train=len(dataset),
        )


@dataclass(frozen=True)
class DriftAlarm:
    """One control-chart violation observed on the stream."""

    #: ``"spec-mean"`` or ``"guard-rate"``.
    kind: str
    #: Specification name, or ``"guard-band rate"``.
    subject: str
    #: Windowed statistic that violated the chart.
    observed: float
    #: Training-time expectation of that statistic.
    expected: float
    #: Signed distance from expectation in control-limit sigmas.
    z_score: float
    #: Alarm threshold of the chart (sigmas).
    threshold: float
    #: Devices in the window the statistic was computed over.
    window_devices: int

    @property
    def recommendation(self):
        """What the floor operator should do about this alarm."""
        return ("incoming population departs from the training "
                "distribution ({}); recalibrate: retrain and redeploy "
                "the test-program artifact on fresh devices".format(
                    self.subject))

    def __str__(self):
        return ("DRIFT[{}] {}: observed {:.6g} vs expected {:.6g} "
                "(z={:+.1f}, threshold {:.1f}, window {} devices)"
                .format(self.kind, self.subject, self.observed,
                        self.expected, self.z_score, self.threshold,
                        self.window_devices))


class DriftMonitor:
    """Rolling control charts over a disposition stream.

    ``baseline`` is the :class:`DriftBaseline` captured at train time.
    The window spans the last :data:`WINDOW_BATCHES` batches, and the
    charts (:data:`Z_THRESHOLD`, :data:`GUARD_Z_THRESHOLD`) are
    evaluated once it holds :data:`MIN_DEVICES` devices.
    """

    def __init__(self, baseline):
        self.baseline = baseline
        self._mu0 = np.asarray(baseline.mean, dtype=float)
        # Zero-variance training columns would make any change an
        # infinite-z alarm; floor the scale at a tiny epsilon so the
        # chart stays finite (and still fires on any real movement).
        self._sigma0 = np.maximum(
            np.asarray(baseline.std, dtype=float), 1e-12)
        # Guard-rate control limits need 0 < p0 < 1; clamp by half a
        # training count so a zero observed rate keeps a finite chart.
        half = 0.5 / max(baseline.n_train, 1)
        self._p0 = min(max(baseline.guard_rate, half), 1.0 - half)
        # Per-bin rate charts; old pickled baselines predate the
        # attribute, so read it defensively.
        bin_rates = getattr(baseline, "bin_rates", None)
        if bin_rates:
            self._bin_names = tuple(bin_rates)
            self._bin_p0 = {
                name: min(max(float(rate), half), 1.0 - half)
                for name, rate in bin_rates.items()}
        else:
            self._bin_names = ()
            self._bin_p0 = {}
        self._window = deque(maxlen=WINDOW_BATCHES)
        #: Total devices observed since construction / last reset.
        self.n_seen = 0
        # Alarm subjects active at the last gauge export -- the state
        # the transition counters in export_gauges() diff against.
        self._exported_alarms = set()

    def reset(self):
        """Clear the rolling window (e.g. between lots)."""
        self._window.clear()
        self.n_seen = 0

    def observe(self, kept_values, first_pass, bins=None, bin_names=()):
        """Record one disposition batch into the rolling window.

        Only the batch's window record is appended; no chart is
        evaluated.  The floor calls this once per batch and leaves
        chart evaluation to whoever reads the charts (:meth:`alarms`,
        :meth:`chart_state`, :meth:`export_gauges`), so a per-batch
        service call never pays for statistics nobody reads.

        Parameters
        ----------
        kept_values:
            ``(n, len(baseline.names))`` raw measurements of the kept
            specifications for this batch.
        first_pass:
            The batch's first-pass predictions (+1/-1/0); only the
            guard count is used.
        bins, bin_names:
            Optional per-device bin indices and the bin-name order
            they index into.  Charted against the baseline's per-bin
            training rates when those are available; otherwise the
            counts are still windowed (see :meth:`bin_rates_window`)
            but raise no alarms.
        """
        kept_values = np.asarray(kept_values, dtype=float)
        if kept_values.ndim == 1:
            kept_values = kept_values[None, :]
        if kept_values.shape[1] != len(self.baseline.names):
            raise CompactionError(
                "batch has {} measured specs; baseline covers {}".format(
                    kept_values.shape[1], len(self.baseline.names)))
        first_pass = np.asarray(first_pass)
        bin_counts = None
        if bins is not None:
            bin_counts = bin_histogram(bins, bin_names)
        self._window.append((
            kept_values.shape[0],
            kept_values.sum(axis=0),
            int(np.count_nonzero(first_pass == GUARD)),
            bin_counts,
        ))
        self.n_seen += kept_values.shape[0]

    def bin_rates_window(self):
        """``{bin_name: rate}`` over the current window (``{}`` when
        the stream carries no bins)."""
        totals = {}
        n_window = 0
        for n, _, _, bin_counts in self._window:
            n_window += n
            if bin_counts:
                for name, count in bin_counts.items():
                    totals[name] = totals.get(name, 0) + count
        if not totals or n_window == 0:
            return {}
        return {name: count / n_window for name, count in totals.items()}

    def _charts(self):
        """The window's chart statistics, evaluated once.

        Returns ``(n_window, mean_window, z_specs, p_window, z_guard)``;
        the four statistics are ``None`` when the window is empty.
        """
        n_window = sum(n for n, _, _, _ in self._window)
        if n_window == 0:
            return 0, None, None, None, None
        total = np.sum([s for _, s, _, _ in self._window], axis=0)
        mean_window = total / n_window
        stderr = self._sigma0 / np.sqrt(n_window)
        z_specs = (mean_window - self._mu0) / stderr
        n_guard = sum(g for _, _, g, _ in self._window)
        p_window = n_guard / n_window
        sigma_p = np.sqrt(self._p0 * (1.0 - self._p0) / n_window)
        z_guard = (p_window - self._p0) / sigma_p
        return n_window, mean_window, z_specs, p_window, z_guard

    def alarms(self):
        """Evaluate the control charts over the current window."""
        return self._alarms(self._charts(), self.bin_rates_window())

    def _alarms(self, charts, observed):
        """The alarms of :meth:`_charts` output and window bin rates."""
        n_window, mean_window, z_specs, p_window, z_guard = charts
        if n_window < MIN_DEVICES:
            return ()
        out = []
        for i, name in enumerate(self.baseline.names):
            if abs(z_specs[i]) > Z_THRESHOLD:
                out.append(DriftAlarm(
                    kind="spec-mean", subject=name,
                    observed=float(mean_window[i]),
                    expected=float(self._mu0[i]),
                    z_score=float(z_specs[i]),
                    threshold=Z_THRESHOLD,
                    window_devices=n_window))

        if abs(z_guard) > GUARD_Z_THRESHOLD:
            out.append(DriftAlarm(
                kind="guard-rate", subject="guard-band rate",
                observed=float(p_window),
                expected=float(self.baseline.guard_rate),
                z_score=float(z_guard),
                threshold=GUARD_Z_THRESHOLD,
                window_devices=n_window))

        # Per-bin rate charts: same binomial construction as the guard
        # chart, one per bin the baseline carries a training rate for.
        if self._bin_p0:
            bin_rates = getattr(self.baseline, "bin_rates", {}) or {}
            for name in self._bin_names:
                if name not in observed:
                    continue
                p0 = self._bin_p0[name]
                sigma = np.sqrt(p0 * (1.0 - p0) / n_window)
                z = (observed[name] - p0) / sigma
                if abs(z) > GUARD_Z_THRESHOLD:
                    out.append(DriftAlarm(
                        kind="bin-rate",
                        subject="bin {!r} rate".format(name),
                        observed=float(observed[name]),
                        expected=float(bin_rates.get(name, p0)),
                        z_score=float(z),
                        threshold=GUARD_Z_THRESHOLD,
                        window_devices=n_window))
        return tuple(out)

    def chart_state(self):
        """The charts' current state, alarmed or not.

        Returns a dict with the windowed per-spec means and z-scores,
        the guard-band rate chart, the per-bin window rates, the
        active alarms, and the window size -- the full picture an
        operator dashboard needs, where :meth:`alarms` reports only
        violations.  Below :data:`MIN_DEVICES` the statistics are still
        reported (they are what the window holds) but ``alarms`` is
        empty, matching :meth:`alarms`.
        """
        charts = self._charts()
        n_window, mean_window, z_specs, p_window, z_guard = charts
        observed = self.bin_rates_window()
        state = {
            "window_devices": int(n_window),
            "devices_seen": int(self.n_seen),
            "specs": {},
            "guard": None,
            "bins": observed,
            "alarms": self._alarms(charts, observed),
        }
        if n_window == 0:
            return state
        for i, name in enumerate(self.baseline.names):
            state["specs"][name] = {
                "mean": float(mean_window[i]),
                "z": float(z_specs[i]),
            }
        state["guard"] = {
            "rate": float(p_window),
            "z": float(z_guard),
        }
        return state

    def export_gauges(self, telemetry, **labels):
        """Publish the chart state as gauges on ``telemetry``.

        Gauge names follow the ``repro_floor_drift_*`` family, so a
        ``/metrics?format=prometheus`` scrape carries the drift
        signals, not just counts.  Alarm *transitions* since the last
        export are counted into
        ``repro_floor_drift_raised_total`` /
        ``repro_floor_drift_cleared_total``; the per-chart alarm flags
        themselves are 0/1 gauges.  ``labels`` go on every series, so
        one registry can hold several monitors (the service: one per
        artifact).  Returns the exported chart state.
        """
        state = self.chart_state()
        telemetry.gauge("repro_floor_drift_window_devices",
                        state["window_devices"], **labels)
        telemetry.gauge("repro_floor_drift_devices_seen",
                        state["devices_seen"], **labels)
        alarmed = {alarm.subject for alarm in state["alarms"]}
        for name, chart in state["specs"].items():
            telemetry.gauge("repro_floor_drift_spec_mean",
                            chart["mean"], spec=name, **labels)
            telemetry.gauge("repro_floor_drift_spec_z",
                            chart["z"], spec=name, **labels)
            telemetry.gauge("repro_floor_drift_spec_alarm",
                            1.0 if name in alarmed else 0.0, spec=name,
                            **labels)
        if state["guard"] is not None:
            telemetry.gauge("repro_floor_drift_guard_rate",
                            state["guard"]["rate"], **labels)
            telemetry.gauge("repro_floor_drift_guard_z",
                            state["guard"]["z"], **labels)
            telemetry.gauge(
                "repro_floor_drift_guard_alarm",
                1.0 if "guard-band rate" in alarmed else 0.0, **labels)
        for name, rate in state["bins"].items():
            telemetry.gauge("repro_floor_drift_bin_rate", rate,
                            bin=name, **labels)
        telemetry.gauge("repro_floor_drift_alarms",
                        len(state["alarms"]), **labels)
        previous = getattr(self, "_exported_alarms", set())
        raised = alarmed - previous
        cleared = previous - alarmed
        if raised:
            telemetry.counter("repro_floor_drift_raised_total",
                              len(raised), **labels)
        if cleared:
            telemetry.counter("repro_floor_drift_cleared_total",
                              len(cleared), **labels)
        self._exported_alarms = alarmed
        return state

    def __repr__(self):
        return ("DriftMonitor({} specs, z>{:g}, guard z>{:g}, "
                "{} devices seen)".format(
                    len(self.baseline.names), Z_THRESHOLD,
                    GUARD_Z_THRESHOLD, self.n_seen))
