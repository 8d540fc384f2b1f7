"""Telemetry subsystem: metrics registry and span tracing.

Stdlib-only.  Everything defaults to the no-op :data:`NULL_REGISTRY` /
:data:`NULL_TRACER` singletons; opt in per engine or service::

    from repro.obs import MetricsRegistry, Tracer

    registry, tracer = MetricsRegistry(), Tracer()
    engine = BatchQueryEngine(graph, "batch+", metrics=registry, tracer=tracer)
    ...
    print(registry.render_prometheus())
    print(tracer.render_tree())

See ``src/repro/obs/README.md`` for the metric-name catalog.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    resolve_registry,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    RemoteSpanRecorder,
    SpanContext,
    Tracer,
    resolve_tracer,
)

__all__ = [
    "DEFAULT_BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "resolve_registry",
    "NULL_TRACER",
    "NullTracer",
    "RemoteSpanRecorder",
    "SpanContext",
    "Tracer",
    "resolve_tracer",
]
