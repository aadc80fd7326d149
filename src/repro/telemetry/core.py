"""Process-local telemetry registry: counters, gauges, histograms, spans.

One :class:`Telemetry` instance aggregates everything a run wants to
observe about itself -- monotonic counters, point-in-time gauges,
fixed-bucket latency histograms, and nestable :class:`Span` timings
with parent/child trace IDs -- and hands it to the exposition layer
(:mod:`repro.telemetry.export`) for Prometheus scraping or JSON-lines
tracing.

The determinism boundary
------------------------

Telemetry lives strictly **outside** the reproduction's determinism
contract: instrumented code reads clocks and bumps counters, but no
seed, dataset row, disposition, bin or artifact byte ever depends on
whether telemetry is enabled.  ``tests/telemetry/test_invariants.py``
asserts datasets and floor decisions bit-identical with telemetry on
and off, on both simulation paths and at any worker count.

Zero cost when disabled
-----------------------

The module-level default is :data:`NULL`, a no-op singleton whose
methods return immediately and whose ``span()`` hands back one shared
no-op context manager -- no dict lookups, no allocation, no clock
reads on the hot path.  Instrumented call sites fetch the active
registry once per operation via :func:`get_telemetry` and, where any
preparatory work would be needed, guard it with ``tel.enabled``.

Concurrency
-----------

Span parenthood is tracked through a :class:`contextvars.ContextVar`,
so concurrent asyncio tasks each carry their own span stack: a
``service.request`` span opened in one connection handler never
becomes the parent of a span opened in another.  Worker *processes*
(the simulation pool) have their own registry, which defaults to
:data:`NULL` -- parent processes aggregate worker results into their
own counters instead.
"""

import contextvars
import itertools
import json
import os
import sys
import time

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "NULL",
    "JsonlSink",
    "Span",
    "Telemetry",
    "configure",
    "disable",
    "get_telemetry",
    "set_telemetry",
]

#: Default histogram buckets for second-valued observations: 100 us to
#: 10 s, roughly logarithmic -- wide enough for a micro-batch flush and
#: a whole simulated lot alike.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)

#: The active span of the calling context (asyncio-task local).
_CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "repro_telemetry_span", default=None)


def _label_key(labels):
    """Canonical hashable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Span:
    """One timed operation, nested under whatever span is active.

    Use through :meth:`Telemetry.span`::

        with tel.span("floor.lot", lot="lot0") as span:
            ...
            span.set(devices=n)   # attach attrs discovered mid-flight

    Entering stamps the wall clock and a monotonic start; exiting
    computes ``duration_s``, restores the parent span, emits one JSONL
    ``span`` event to the sink (when one is attached), and folds the
    duration into the per-stage aggregate counters
    (``repro_stage_seconds_total{stage=...}`` /
    ``repro_stage_calls_total{stage=...}``) that the Prometheus
    exposition and ``repro telemetry-report`` read.
    """

    __slots__ = ("_telemetry", "name", "attrs", "trace_id", "span_id",
                 "parent_id", "started_unix", "duration_s", "status",
                 "_t0", "_token")

    def __init__(self, telemetry, name, attrs):
        self._telemetry = telemetry
        self.name = str(name)
        self.attrs = dict(attrs)
        self.trace_id = None
        self.span_id = None
        self.parent_id = None
        self.started_unix = None
        self.duration_s = None
        self.status = "ok"
        self._t0 = None
        self._token = None

    def set(self, **attrs):
        """Attach (or overwrite) span attributes; returns the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = self._telemetry._next_trace_id()
        self.span_id = self._telemetry._next_span_id()
        self._token = _CURRENT_SPAN.set(self)
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration_s = time.perf_counter() - self._t0
        _CURRENT_SPAN.reset(self._token)
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self._telemetry._finish_span(self)
        return False


class _NullSpan:
    """The shared no-op span (:data:`NULL` hands it out)."""

    __slots__ = ()

    def set(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class JsonlSink:
    """JSON-lines event sink -- a file path, ``"-"`` for stderr.

    Every event is one JSON object per line, stamped with the owning
    run's correlation ID.  Lines are flushed as written so an external
    tail (or a crashed run's post-mortem) always sees complete events.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        if self.path == "-":
            self._handle = sys.stderr
            self._owned = False
        else:
            self._handle = open(self.path, "a", encoding="utf-8")
            self._owned = True

    def emit(self, event):
        json.dump(event, self._handle, default=str,
                  separators=(",", ":"))
        self._handle.write("\n")
        self._handle.flush()

    def close(self):
        if self._owned and not self._handle.closed:
            self._handle.close()

    def __repr__(self):
        return "JsonlSink({!r})".format(self.path)


class Telemetry:
    """A process-local registry of counters, gauges, histograms, spans.

    Parameters
    ----------
    run_id:
        Correlation ID stamped on every emitted event (default: a
        wall-clock + PID tag -- telemetry is outside the determinism
        boundary, so non-reproducible IDs are fine).
    sink:
        Optional :class:`JsonlSink` (or anything with ``emit(dict)``)
        receiving one event per finished span plus a final metrics
        snapshot on :meth:`close`.

    Metric naming follows ``repro_<subsystem>_<name>``; counters end
    in ``_total``.  Labels are free-form string pairs.
    """

    enabled = True

    def __init__(self, run_id=None, sink=None):
        self.run_id = run_id or "{}-{}".format(
            time.strftime("%Y%m%dT%H%M%S"), os.getpid())
        self.sink = sink
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._started_unix = time.time()

    # -- metrics ----------------------------------------------------------
    def counter(self, name, value=1, **labels):
        """Add ``value`` (>= 0) to a monotonic counter."""
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name, value, **labels):
        """Set a gauge to its current value."""
        self._gauges[(name, _label_key(labels))] = float(value)

    def observe(self, name, value, buckets=DEFAULT_TIME_BUCKETS,
                **labels):
        """Record one observation into a fixed-bucket histogram.

        The bucket layout is fixed at the histogram's first
        observation; later calls reuse it (Prometheus histograms
        cannot change shape mid-series).
        """
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            bounds = tuple(float(b) for b in buckets)
            hist = {"buckets": bounds,
                    "counts": [0] * (len(bounds) + 1),
                    "sum": 0.0, "count": 0}
            self._histograms[key] = hist
        value = float(value)
        bounds = hist["buckets"]
        slot = len(bounds)
        for i, bound in enumerate(bounds):
            if value <= bound:
                slot = i
                break
        hist["counts"][slot] += 1
        hist["sum"] += value
        hist["count"] += 1

    # -- spans ------------------------------------------------------------
    def span(self, name, **attrs):
        """A nestable timed context manager (see :class:`Span`)."""
        return Span(self, name, attrs)

    def current_span(self):
        """The span active in the calling context (or ``None``)."""
        return _CURRENT_SPAN.get()

    def _next_trace_id(self):
        return "{}-t{}".format(self.run_id, next(self._trace_ids))

    def _next_span_id(self):
        return next(self._span_ids)

    def _finish_span(self, span):
        self.counter("repro_stage_calls_total", 1, stage=span.name)
        self.counter("repro_stage_seconds_total", span.duration_s,
                     stage=span.name)
        if self.sink is not None:
            self.sink.emit({
                "event": "span",
                "run": self.run_id,
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "status": span.status,
                "start_unix": round(span.started_unix, 6),
                "duration_s": round(span.duration_s, 9),
                "attrs": span.attrs,
            })

    # -- snapshots --------------------------------------------------------
    def snapshot(self):
        """All metric families in a JSON-friendly structure."""
        return {
            "run": self.run_id,
            "uptime_s": time.time() - self._started_unix,
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ],
            "histograms": [
                {"name": name, "labels": dict(labels),
                 "buckets": list(hist["buckets"]),
                 "counts": list(hist["counts"]),
                 "sum": hist["sum"], "count": hist["count"]}
                for (name, labels), hist in sorted(
                    self._histograms.items())
            ],
        }

    def close(self):
        """Emit the final metrics snapshot and release the sink."""
        if self.sink is not None:
            event = self.snapshot()
            event["event"] = "snapshot"
            self.sink.emit(event)
            self.sink.close()

    def __repr__(self):
        return ("Telemetry(run={!r}, {} counters, {} gauges, "
                "{} histograms)".format(
                    self.run_id, len(self._counters),
                    len(self._gauges), len(self._histograms)))


class NullTelemetry:
    """The disabled registry: every operation is an immediate no-op."""

    enabled = False
    run_id = None
    sink = None

    def counter(self, name, value=1, **labels):
        pass

    def gauge(self, name, value, **labels):
        pass

    def observe(self, name, value, buckets=None, **labels):
        pass

    def span(self, name, **attrs):
        return _NULL_SPAN

    def current_span(self):
        return None

    def snapshot(self):
        return {"run": None, "uptime_s": 0.0, "counters": [],
                "gauges": [], "histograms": []}

    def close(self):
        pass

    def __repr__(self):
        return "NullTelemetry()"


#: The shared disabled registry -- the process-wide default.
NULL = NullTelemetry()

_ACTIVE = NULL


def get_telemetry():
    """The process's active registry (:data:`NULL` when disabled)."""
    return _ACTIVE


def set_telemetry(telemetry):
    """Install ``telemetry`` as the active registry; returns the old one.

    Tests use the returned handle to restore the previous state; the
    CLI installs the registry built by :func:`configure` for the
    duration of a command.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else NULL
    return previous


def configure(path=None, run_id=None):
    """Build and activate a :class:`Telemetry` registry.

    ``path`` attaches a :class:`JsonlSink` (``"-"`` = stderr); ``None``
    keeps an in-process registry with no trace output (metrics are
    still scrapeable through the exposition layer).
    """
    sink = JsonlSink(path) if path is not None else None
    telemetry = Telemetry(run_id=run_id, sink=sink)
    set_telemetry(telemetry)
    return telemetry


def disable():
    """Close and deactivate the active registry (back to :data:`NULL`)."""
    previous = set_telemetry(NULL)
    if previous is not NULL:
        previous.close()
    return previous
