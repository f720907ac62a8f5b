"""Cross-layer observability for the disaggregated runtime.

Paper §3, Challenge 8(1): *"How can we debug, profile, and optimize
dataflow applications with multiple abstraction layers for performance
when the runtime system hides performance-relevant details?"*  This
package is the measurement substrate that makes every layer answerable:

* a **metrics registry** (:mod:`repro.obs.metrics`) of counters and
  collector readings, plus the latency histogram the SLO tracker keeps;
* **span-based tracing** (:mod:`repro.obs.span`) nesting
  job → task → region/phase → device scopes into the bounded
  per-category ring buffers of :class:`~repro.sim.trace.TraceLog`;
* **exporters** (:mod:`repro.obs.export`): JSONL run dumps and
  Chrome/Perfetto ``trace_event`` JSON;
* a **text dashboard** (:mod:`repro.obs.dashboard`) rendering per-job
  makespans, device utilization, per-link bytes, and handover
  economics — also available offline via ``scripts/obs_report.py``;
* **continuous telemetry** (:mod:`repro.obs.telemetry`): bounded
  fixed-window series over any signal, multi-window SLO burn-rate
  alerting, and 1-in-N sampled hotness tracking, all self-metered
  under ``obs.telemetry.*`` — also available offline via
  ``scripts/telemetry_report.py``.  Its ``level`` series are the one
  time-weighted level type: each level signal (device occupancy, rack
  queue depth, memory utilization, ...) is recorded once, into
  ``obs.telemetry``, with exact lifetime mean and peak.

Every :class:`~repro.hardware.cluster.Cluster` owns an
:class:`Observability` instance as ``cluster.obs``.  The disabled path
is near-zero-cost: when a trace category is off, :meth:`Observability.span`
returns a shared no-op span and instrumented call sites guard field
construction with ``if sp:`` / :meth:`Observability.on`, so nothing is
allocated.
"""

from __future__ import annotations

import typing
from itertools import count

from repro.obs.causal import CausalTracer
from repro.obs.metrics import Counter, LatencyHistogram, MetricsRegistry
from repro.obs.slo import SloTracker
from repro.obs.span import NOOP_SPAN, Span
from repro.obs.telemetry import BurnRateRule, TelemetryHub, WindowedSeries
from repro.sim.trace import AllExcept, TraceEvent, TraceLog

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Observability:
    """One run's observability: trace backend, spans, and metrics.

    Bound to an engine for timestamps and to a (bounded)
    :class:`TraceLog` as the event backend.  Usable standalone in tests::

        obs = Observability()
        with obs.span("cat", "work") as sp:
            sp.set(items=3)
    """

    def __init__(
        self,
        trace: typing.Optional[TraceLog] = None,
        engine: typing.Optional["Engine"] = None,
    ):
        self.trace = trace if trace is not None else TraceLog()
        self.engine = engine
        self.registry = MetricsRegistry()
        #: Causal DAG recorder (gated on the "causal" trace category).
        self.causal = CausalTracer(self)
        #: Per-workload latency percentiles + error-budget accounting.
        self.slo = SloTracker()
        #: Continuous telemetry: windowed series, burn-rate alerts,
        #: sampled hotness.  The SLO tracker feeds it on every record.
        self.telemetry = TelemetryHub(self)
        self.slo.telemetry = self.telemetry
        self.registry.add_collector(self.telemetry._collect_self_metrics)
        self._stack: typing.List[Span] = []
        self._span_ids = count(1)

    # -- time / filtering --------------------------------------------------

    def now(self) -> float:
        return self.engine.now if self.engine is not None else 0.0

    def on(self, category: str) -> bool:
        """Is this trace category recording?  Check before building
        field dicts on hot paths."""
        return self.trace.wants(category)

    def enable(self, *categories: str) -> None:
        """Enable only the given categories (no args: enable everything)."""
        self.trace.enabled = set(categories) if categories else None

    def disable(self, *categories: str) -> None:
        """Disable the given categories (no args: disable everything)."""
        enabled = self.trace.enabled
        if not categories:
            self.trace.enabled = set()
        elif enabled is None:
            self.trace.enabled = AllExcept(categories)
        elif isinstance(enabled, AllExcept):
            self.trace.enabled = AllExcept(enabled.excluded | set(categories))
        else:
            self.trace.enabled = enabled - set(categories)

    # -- events / spans ----------------------------------------------------

    def event(self, category: str, name: str, **fields) -> None:
        """Emit an instant event at the current simulated time."""
        if self.trace.wants(category):
            self.trace.emit(self.now(), category, name, **fields)

    def span(
        self,
        category: str,
        name: str,
        parent: typing.Union[Span, int, None] = None,
        **fields,
    ):
        """A context-manager span (no-op when the category is off)."""
        if not self.trace.wants(category):
            return NOOP_SPAN
        return Span(self, category, name, fields, parent)

    def begin_span(
        self,
        category: str,
        name: str,
        parent: typing.Union[Span, int, None] = None,
        **fields,
    ):
        """An explicit span for scopes crossing simulation processes;
        the caller must :meth:`Span.close` it."""
        if not self.trace.wants(category):
            return NOOP_SPAN
        return Span(self, category, name, fields, parent)

    def _next_span_id(self) -> int:
        return next(self._span_ids)

    # -- metrics passthroughs ---------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    # -- export / rendering ------------------------------------------------

    def data(self) -> dict:
        """The live run in the dashboard/JSONL interchange shape."""
        return self._interchange(self.trace.events)

    def _interchange(self, events: typing.Iterable[TraceEvent]) -> dict:
        """The interchange dict with ``events`` as its event list."""
        from repro.obs.export import event_record

        return {
            "meta": {
                "now": self.now(),
                "dropped": self.trace.dropped_by_category,
                "retained": {
                    c: self.trace.retained(c) for c in self.trace.categories()
                },
            },
            "events": [event_record(e) for e in events],
            "metrics": self.registry.snapshot(),
            "causal": self.causal.data(),
            "slo": self.slo.snapshot(),
            "telemetry": self.telemetry.data(),
        }

    def export_jsonl(self, path: str) -> int:
        """Dump events + metrics as JSONL; returns lines written."""
        from repro.obs.export import write_jsonl

        return write_jsonl(path, self)

    def write_chrome_trace(self, path: str) -> None:
        """Dump the retained trace for chrome://tracing / Perfetto,
        including "s"/"f" flow events for recorded causal edges."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, self.trace, causal=self.causal.data())

    def dashboard(self, job: typing.Optional[str] = None) -> str:
        """Render the live run's text dashboard.

        Equal to ``render_dashboard(self.data(), job=job)``, but only
        the trace categories the renderer reads are serialised.
        """
        from repro.obs.dashboard import EVENT_CATEGORIES, render_dashboard

        events = [
            e for c in EVENT_CATEGORIES for e in self.trace.by_category(c)
        ]
        return render_dashboard(self._interchange(events), job=job)


__all__ = [
    "BurnRateRule",
    "CausalTracer",
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Observability",
    "SloTracker",
    "Span",
    "TelemetryHub",
    "WindowedSeries",
]
