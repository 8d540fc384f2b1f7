"""Process-wide metrics registry: counters, gauges and mergeable histograms.

The registry is the numeric half of the telemetry subsystem (spans live in
:mod:`repro.obs.tracing`).  Three metric kinds, all stdlib-only and safe to
update from any thread:

* :class:`Counter` — monotonically increasing float total (``.inc()``).
* :class:`Gauge` — a point-in-time level (``.set()`` / ``.add()``), e.g.
  the ingestion service's pending-queue depth.
* :class:`Histogram` — bucketed distribution over **fixed log-spaced
  bounds** (:data:`DEFAULT_BUCKET_BOUNDS`).  Because every process buckets
  against the same bounds, two snapshots merge by adding bucket counts —
  quantiles survive aggregation across workers/replicas, which a stored
  mean never does.  ``percentile()`` interpolates p50/p95/p99 from the
  buckets; the exact maximum is tracked on the side.

Exports
-------
``registry.snapshot()`` returns a plain JSON-able dict (sorted keys, round
trips through ``json``), and ``registry.render_prometheus()`` emits the
Prometheus text exposition format — the contract a future HTTP
``/metrics`` endpoint serves verbatim.
The metric-name catalog lives in ``src/repro/obs/README.md``.

The no-op path
--------------
Instrumented code never branches on "is telemetry on": it holds a registry
injected at construction time, and the default is :data:`NULL_REGISTRY` —
a :class:`NullRegistry` whose factory methods return shared no-op
singletons, so the uninstrumented hot path costs one attribute lookup and
one empty method call, allocating nothing.  Repo code may only reach a
registry through an injected attribute/parameter, never a module-level
global, which is what makes the no-op default verifiable; a test in
``tests/test_obs.py`` imports every ``repro`` module and fails on a
module-level registry or tracer outside :mod:`repro.obs`.

Thread-safety: every metric guards its state with its own ``Lock`` —
increments are never lost, even under free-threaded (GIL-less) builds
where ``+=`` on a shared attribute is a genuine read-modify-write race.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.utils.validation import require

#: Fixed log-spaced histogram bucket upper bounds: half-decade steps from
#: one microsecond to one hundred (seconds, bytes×1e-6, cost units — the
#: scale is the caller's).  Fixed bounds are what make snapshots from
#: different processes mergeable by bucket-count addition.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (exponent / 2.0) for exponent in range(-12, 5)
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

LabelValues = Tuple[Tuple[str, str], ...]


def _canonical_labels(labels: Optional[Mapping[str, str]]) -> LabelValues:
    if not labels:
        return ()
    canonical = []
    for key in sorted(labels):
        require(
            _LABEL_NAME_RE.match(key) is not None,
            f"invalid label name {key!r}",
        )
        canonical.append((key, str(labels[key])))
    return tuple(canonical)


def _series_key(name: str, labels: LabelValues) -> str:
    """The snapshot/Prometheus series identity: ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in labels)
    return f"{name}{{{inner}}}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        require(amount >= 0.0, f"counters only go up (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time level that can move both ways."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bucketed distribution over fixed bounds, plus exact max.

    ``counts[i]`` holds observations with ``value <= bounds[i]`` (and above
    the previous bound); ``counts[-1]`` is the overflow (+Inf) bucket.
    """

    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_sum",
                 "_count", "_max")

    def __init__(
        self,
        name: str,
        labels: LabelValues = (),
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        require(len(bounds) >= 1, "a histogram needs at least one bound")
        require(
            all(a < b for a, b in zip(bounds, bounds[1:])),
            "histogram bounds must be strictly increasing",
        )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[bucket] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    def percentile(self, fraction: float) -> float:
        """Estimated quantile, linearly interpolated inside its bucket.

        The overflow bucket reports the tracked exact maximum (the bucket
        has no upper bound to interpolate against).
        """
        require(0.0 <= fraction <= 1.0, "fraction must be within [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            maximum = self._max
        if total == 0:
            return 0.0
        rank = fraction * total
        cumulative = 0
        for bucket, count in enumerate(counts):
            if count == 0:
                continue
            cumulative += count
            if cumulative >= rank:
                if bucket == len(self.bounds):
                    return maximum
                lower = self.bounds[bucket - 1] if bucket > 0 else 0.0
                upper = min(self.bounds[bucket], maximum)
                if upper <= lower:
                    return upper
                within = (rank - (cumulative - count)) / count
                return lower + (upper - lower) * within
        return maximum

    def quantiles(self) -> Dict[str, float]:
        """The standard reporting tuple: p50/p95/p99/max."""
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.max,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named, labelled metrics with get-or-create identity.

    ``counter``/``gauge``/``histogram`` return the same object for the same
    ``(name, labels)`` pair, so instrumented classes may either prefetch
    handles at construction time (the hot-path idiom) or resolve by name at
    the call site (fine for per-batch events).  Registering one name as two
    different kinds raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, LabelValues], Metric] = {}

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return self._get_or_create("counter", Counter, name, labels)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        return self._get_or_create("gauge", Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> Histogram:
        metric = self._get_or_create(
            "histogram", Histogram, name, labels, bounds=bounds
        )
        require(
            metric.bounds == tuple(float(b) for b in bounds),
            f"histogram {name!r} already registered with different bounds",
        )
        return metric

    def _get_or_create(self, kind, factory, name, labels, **kwargs) -> Metric:
        require(_NAME_RE.match(name) is not None, f"invalid metric name {name!r}")
        label_values = _canonical_labels(labels)
        key = (kind, name, label_values)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                for other_kind, other_name, _ in self._metrics:
                    require(
                        not (other_name == name and other_kind != kind),
                        f"metric {name!r} already registered as {other_kind}",
                    )
                metric = factory(name, label_values, **kwargs)
                self._metrics[key] = metric
            return metric

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, dict]:
        """JSON-able point-in-time state (sorted keys, merge-friendly)."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        with self._lock:
            metrics = list(self._metrics.items())
        for (kind, name, label_values), metric in metrics:
            key = _series_key(name, label_values)
            if kind == "counter":
                counters[key] = metric.value
            elif kind == "gauge":
                gauges[key] = metric.value
            else:
                with metric._lock:
                    histograms[key] = {
                        "bounds": list(metric.bounds),
                        "counts": list(metric._counts),
                        "sum": metric._sum,
                        "count": metric._count,
                        "max": metric._max,
                    }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format of the current state."""
        snapshot = self.snapshot()
        lines: List[str] = []
        typed: set = set()

        def type_line(name: str, kind: str) -> None:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for key, value in snapshot["counters"].items():
            type_line(_series_name(key), "counter")
            lines.append(f"{key} {_format_value(value)}")
        for key, value in snapshot["gauges"].items():
            type_line(_series_name(key), "gauge")
            lines.append(f"{key} {_format_value(value)}")
        for key, payload in snapshot["histograms"].items():
            name, labels = _parse_series_key(key)
            type_line(name, "histogram")
            cumulative = 0
            for bound, count in zip(payload["bounds"], payload["counts"]):
                cumulative += count
                series = _series_key(
                    f"{name}_bucket",
                    _canonical_labels({**labels, "le": _format_value(bound)}),
                )
                lines.append(f"{series} {cumulative}")
            infinity = _series_key(
                f"{name}_bucket", _canonical_labels({**labels, "le": "+Inf"})
            )
            lines.append(f"{infinity} {payload['count']}")
            label_values = _canonical_labels(labels)
            lines.append(
                f"{_series_key(name + '_sum', label_values)} "
                f"{_format_value(payload['sum'])}"
            )
            lines.append(
                f"{_series_key(name + '_count', label_values)} "
                f"{payload['count']}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def __repr__(self) -> str:
        with self._lock:
            return f"MetricsRegistry({len(self._metrics)} series)"


def _series_name(key: str) -> str:
    return key.split("{", 1)[0]


_SERIES_KEY_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def _parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    name, brace, rest = key.partition("{")
    if not brace:
        return name, {}
    labels = {
        match.group("key"): match.group("value")
        for match in _SERIES_KEY_RE.finditer(rest[:-1])
    }
    return name, labels


# --------------------------------------------------------------------- #
# The no-op default
# --------------------------------------------------------------------- #
class NullCounter:
    __slots__ = ()
    name = "null"
    labels: LabelValues = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    __slots__ = ()
    name = "null"
    labels: LabelValues = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    name = "null"
    labels: LabelValues = ()
    bounds = DEFAULT_BUCKET_BOUNDS
    count = 0
    sum = 0.0
    max = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, fraction: float) -> float:
        return 0.0

    def quantiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Allocation-free stand-in: every factory returns a shared no-op.

    The default value of every ``metrics=`` parameter in the engine,
    planner, executor and service — instrumentation points cost an
    attribute lookup plus an empty call, and the uninstrumented result
    stream is byte-identical to pre-telemetry behaviour
    (``benchmarks/bench_obs.py`` pins this).
    """

    def counter(self, name: str, labels=None) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, labels=None) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, labels=None, bounds=DEFAULT_BUCKET_BOUNDS) -> NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render_prometheus(self) -> str:
        return ""

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def __repr__(self) -> str:
        return "NullRegistry()"


#: The shared no-op registry every uninstrumented component holds.
NULL_REGISTRY = NullRegistry()


def resolve_registry(metrics: Optional[object]) -> object:
    """``metrics`` if given, else the no-op singleton (the one-line idiom
    every instrumented constructor uses)."""
    return metrics if metrics is not None else NULL_REGISTRY
