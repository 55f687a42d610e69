"""repro.obs — structured tracing, metrics, and profiling hooks.

Zero-dependency (stdlib-only) observability for the federated stack.
The package sits at the bottom of the layering DAG beside
``repro.utils``: everything above (``core``, ``fl``, ``nn``, the CLI)
may import it, it imports nothing from ``repro``.

Entry points
------------
:data:`telemetry`
    process-global facade; disabled by default (no-op hot paths).
:func:`Telemetry.configure` / :func:`Telemetry.shutdown`
    start/stop a telemetry session with a list of sinks.
Sinks
    :class:`InMemorySink`, :class:`JsonlSink`, :class:`CsvMetricsSink`,
    :class:`StderrReporter`.
Reporting
    :func:`repro.obs.report.render_report` renders a span-tree +
    hotspot summary from a JSONL trace (``repro obs-report``).
Run ledger (v2)
    :class:`RunLedger` / :class:`LedgerReader` — append-only,
    crash-safe ``repro.ledger/v1`` JSONL with monotonic cursors, one
    committed :class:`RoundRecord` per round.
Runtime monitors (v2)
    :class:`MonitorSuite` and the detectors behind
    :func:`default_monitor_suite` (Theorem-1 contraction, θ drift,
    σ̄² drift, divergence, straggler anomalies).
Cross-run analytics (v2)
    :func:`repro.obs.diff.diff_ledgers` /
    :func:`repro.obs.diff.render_diff` (``repro obs-diff``).
"""

from repro.obs.diff import diff_ledgers, render_diff
from repro.obs.facade import SCHEMA, Telemetry, telemetry
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerError,
    LedgerReader,
    RoundRecord,
    RunLedger,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.sinks import (
    CsvMetricsSink,
    InMemorySink,
    JsonlSink,
    Sink,
    StderrReporter,
)
from repro.obs.monitors import (
    Alert,
    MonitorFailFast,
    MonitorSuite,
    default_monitor_suite,
)
from repro.obs.trace import NOOP_SPAN, NoopSpan, Span, Tracer

__all__ = [
    "Alert",
    "CsvMetricsSink",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "LEDGER_SCHEMA",
    "LedgerError",
    "LedgerReader",
    "MetricsRegistry",
    "MonitorFailFast",
    "MonitorSuite",
    "NOOP_SPAN",
    "NoopSpan",
    "RoundRecord",
    "RunLedger",
    "SCHEMA",
    "Sink",
    "Span",
    "StderrReporter",
    "Telemetry",
    "Tracer",
    "default_monitor_suite",
    "diff_ledgers",
    "render_diff",
    "telemetry",
]
