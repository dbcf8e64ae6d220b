"""Typed metrics: counters, gauges, fixed-bucket histograms, one registry.

The registry is the single source of truth for every counter the system
used to keep ad hoc: the artifact store's per-stage hit/miss/eviction
counts (translations included, as stage ``exec.code``), request/engine
latencies, the daemon's queue economics.  Three things make it fleet-friendly:

* **snapshots** — :meth:`MetricsRegistry.snapshot` reduces the registry
  to a plain-JSON list, so worker processes can ship their counters to
  the daemon inside existing result frames;
* **merging** — :func:`merge_snapshot` adds counters and histograms
  across snapshots (gauges take the incoming value), which is how the
  daemon aggregates fleet-wide cache economics;
* **Prometheus text** — :func:`render_prometheus` turns any snapshot
  into the text exposition format, for ``python -m repro stats`` and
  scrape endpoints.

:class:`StageStats` is the compatibility view: the attribute surface the
artifact store has always exposed (``stats.hits += 1`` keeps working),
backed by registry counters labelled by stage — mutate the view or read
the registry, it is the same number.

Zero dependencies; everything is plain stdlib and thread-safe.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: snapshot wire-format version; bump on breaking change.
METRICS_SCHEMA_VERSION = 1

#: default histogram bucket upper bounds (seconds): tuned for the span
#: of one cache lookup (~µs) up to a cold population sweep (~minutes).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (resettable only via the registry)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        """Absolute write — exists for the compatibility views
        (``stats.hits = 0`` style resets), not for new code."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value (queue depth, heartbeat lag)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram (per-bucket counts + sum + count).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    tail.  Counts are stored per bucket (non-cumulative); renderers
    accumulate for the Prometheus ``le`` convention.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b)
                                                      for b in buckets))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def _bucket_index(self, value: float) -> int:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    def observe(self, value: float) -> None:
        index = self._bucket_index(float(value))
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate from the bucket counts."""
        return quantile_from_buckets(self.bounds, self.counts(), q)


def quantile_from_buckets(bounds: Sequence[float], counts: Sequence[int],
                          q: float) -> float:
    """Linear-interpolation quantile over fixed buckets.

    ``counts`` are per-bucket (non-cumulative) with the last entry the
    ``+Inf`` bucket; values in the overflow bucket clamp to the highest
    finite bound (the honest answer fixed buckets can give).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], not {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            if index >= len(bounds):       # the +Inf bucket
                return float(bounds[-1])
            lower = 0.0 if index == 0 else float(bounds[index - 1])
            upper = float(bounds[index])
            fraction = (rank - seen) / count
            return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        seen += count
    return float(bounds[-1])


class MetricsRegistry:
    """Get-or-create home of every metric, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[tuple, Counter] = {}
        self._gauges: Dict[tuple, Gauge] = {}
        self._histograms: Dict[tuple, Histogram] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None,
                help: str = "") -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, key[1])
            if help:
                self._help.setdefault(name, help)
            return metric

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None,
              help: str = "") -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, key[1])
            if help:
                self._help.setdefault(name, help)
            return metric

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  help: str = "") -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(name, key[1],
                                                           buckets=buckets)
            if help:
                self._help.setdefault(name, help)
            return metric

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-JSON reduction of every metric (cumulative values)."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            help_texts = dict(self._help)
        series: List[Dict[str, object]] = []
        for metric in counters:
            series.append({"type": "counter", "name": metric.name,
                           "labels": dict(metric.labels),
                           "value": metric.value})
        for metric in gauges:
            series.append({"type": "gauge", "name": metric.name,
                           "labels": dict(metric.labels),
                           "value": metric.value})
        for metric in histograms:
            series.append({"type": "histogram", "name": metric.name,
                           "labels": dict(metric.labels),
                           "le": list(metric.bounds),
                           "counts": metric.counts(),
                           "sum": metric.sum, "count": metric.count})
        return {"schema_version": METRICS_SCHEMA_VERSION,
                "help": help_texts, "series": series}

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero metrics in place (views keep pointing at live objects)."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        for metric in counters:
            if prefix is None or metric.name.startswith(prefix):
                metric.set(0.0)
        for metric in gauges:
            if prefix is None or metric.name.startswith(prefix):
                metric.set(0.0)
        for metric in histograms:
            if prefix is None or metric.name.startswith(prefix):
                with metric._lock:
                    metric._counts = [0] * (len(metric.bounds) + 1)
                    metric._sum = 0.0
                    metric._count = 0

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a foreign snapshot into this registry (counters add)."""
        for entry in snapshot.get("series", []):
            labels = dict(entry.get("labels", {}))
            kind = entry.get("type")
            if kind == "counter":
                self.counter(entry["name"], labels).inc(
                    float(entry.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(entry["name"], labels).set(
                    float(entry.get("value", 0.0)))
            elif kind == "histogram":
                metric = self.histogram(entry["name"], labels,
                                        buckets=entry.get("le",
                                                          DEFAULT_BUCKETS))
                counts = list(entry.get("counts", []))
                if list(metric.bounds) != [float(b)
                                           for b in entry.get("le", [])]:
                    continue  # incompatible bucket layout; skip honestly
                with metric._lock:
                    for index, count in enumerate(counts):
                        metric._counts[index] += int(count)
                    metric._sum += float(entry.get("sum", 0.0))
                    metric._count += int(entry.get("count", 0))


def merge_snapshot(base: Optional[Mapping[str, object]],
                   *others: Mapping[str, object]) -> Dict[str, object]:
    """Merge snapshots: counters/histograms add, gauges last-wins."""
    merged = MetricsRegistry()
    for snapshot in (base, *others):
        if snapshot:
            merged.merge(snapshot)
    return merged.snapshot()


def snapshot_series(snapshot: Mapping[str, object], name: str,
                    **labels: str) -> List[Dict[str, object]]:
    """Series of ``name`` whose labels include every ``labels`` item."""
    wanted = {str(k): str(v) for k, v in labels.items()}
    out = []
    for entry in snapshot.get("series", []):
        if entry.get("name") != name:
            continue
        have = {str(k): str(v)
                for k, v in dict(entry.get("labels", {})).items()}
        if all(have.get(k) == v for k, v in wanted.items()):
            out.append(entry)
    return out


def snapshot_value(snapshot: Mapping[str, object], name: str,
                   **labels: str) -> float:
    """Sum of a counter/gauge family filtered by ``labels``."""
    return sum(float(entry.get("value", 0.0))
               for entry in snapshot_series(snapshot, name, **labels))


def snapshot_quantile(snapshot: Mapping[str, object], name: str, q: float,
                      **labels: str) -> float:
    """Quantile over the (merged) histogram series named ``name``."""
    entries = [e for e in snapshot_series(snapshot, name, **labels)
               if e.get("type") == "histogram"]
    if not entries:
        return 0.0
    bounds = [float(b) for b in entries[0].get("le", [])]
    counts = [0] * (len(bounds) + 1)
    for entry in entries:
        if [float(b) for b in entry.get("le", [])] != bounds:
            continue
        for index, count in enumerate(entry.get("counts", [])):
            counts[index] += int(count)
    return quantile_from_buckets(bounds, counts, q)


# ----------------------------------------------------------------------
# Prometheus text exposition.
# ----------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_labels(labels: Mapping[str, str],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(k, str(v)) for k, v in sorted(labels.items())]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: Mapping[str, object],
                      prefix: str = "repro_") -> str:
    """Render a snapshot as Prometheus text exposition format 0.0.4."""
    help_texts = dict(snapshot.get("help", {}))
    by_name: "Dict[Tuple[str, str], List[Dict[str, object]]]" = {}
    for entry in snapshot.get("series", []):
        by_name.setdefault((str(entry["name"]), str(entry["type"])),
                           []).append(entry)
    lines: List[str] = []
    for (name, kind), entries in sorted(by_name.items()):
        full = prefix + name
        help_text = help_texts.get(name, name.replace("_", " "))
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        for entry in entries:
            labels = dict(entry.get("labels", {}))
            if kind in ("counter", "gauge"):
                lines.append(f"{full}{_format_labels(labels)} "
                             f"{_format_value(float(entry['value']))}")
                continue
            bounds = [float(b) for b in entry.get("le", [])]
            counts = list(entry.get("counts", []))
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += int(count)
                le = _format_value(bound)
                lines.append(f"{full}_bucket"
                             f"{_format_labels(labels, ('le', le))} "
                             f"{cumulative}")
            cumulative += int(counts[-1]) if len(counts) > len(bounds) else 0
            lines.append(f"{full}_bucket"
                         f"{_format_labels(labels, ('le', '+Inf'))} "
                         f"{cumulative}")
            lines.append(f"{full}_sum{_format_labels(labels)} "
                         f"{_format_value(float(entry.get('sum', 0.0)))}")
            lines.append(f"{full}_count{_format_labels(labels)} "
                         f"{int(entry.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# The per-stage store-counter view.
# ----------------------------------------------------------------------

#: integer stage counters, in the order ``StageStats.as_dict`` reports.
STAGE_COUNT_FIELDS = ("hits", "disk_hits", "misses", "puts", "evictions",
                      "disk_evictions", "corrupt")
#: wall-clock stage counters (seconds).
STAGE_TIME_FIELDS = ("seconds_built", "seconds_saved")

_STAGE_HELP = {
    "store_hits": "memory-layer artifact store hits",
    "store_disk_hits": "disk-layer artifact store hits",
    "store_misses": "artifact store misses",
    "store_puts": "artifacts inserted into the store",
    "store_evictions": "memory-layer LRU evictions",
    "store_disk_evictions": "disk entries dropped by size-budget sweeps",
    "store_corrupt": "disk entries quarantined on fingerprint mismatch",
    "store_seconds_built": "wall-clock seconds spent building on misses",
    "store_seconds_saved": "build seconds avoided by serving hits",
}


class StageStats:
    """Hit/miss counters for one stage — a view over registry counters.

    Keeps the exact attribute surface of the old dataclass (``hits``,
    ``misses``, ... readable and assignable, ``hit_rate``, ``as_dict``)
    while the numbers live in a :class:`MetricsRegistry` as
    ``store_<field>{stage=...}`` counters — one source of truth shared
    by the store, ``store.stats_dict()`` and the Prometheus export.
    """

    __slots__ = ("stage", "_counters")

    def __init__(self, registry: MetricsRegistry, stage: str) -> None:
        self.stage = stage
        labels = {"stage": stage}
        self._counters = {
            name: registry.counter(f"store_{name}", labels,
                                   help=_STAGE_HELP[f"store_{name}"])
            for name in STAGE_COUNT_FIELDS + STAGE_TIME_FIELDS
        }

    # Attribute surface of the old dataclass -------------------------------
    def __getattr__(self, name: str):
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            value = counters[name].value
            return value if name in STAGE_TIME_FIELDS else int(value)
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if name in StageStats.__slots__:
            object.__setattr__(self, name, value)
            return
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            counters[name].set(float(value))
            return
        raise AttributeError(f"StageStats has no counter {name!r}")

    # ----------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return 0.0 if lookups == 0 else (self.hits + self.disk_hits) / lookups

    def as_dict(self) -> Dict[str, object]:
        # Straight off the counters: each attribute read would be a
        # failed slot lookup plus a __getattr__ call.
        counters = self._counters
        data: Dict[str, object] = {
            name: int(counters[name].value) for name in STAGE_COUNT_FIELDS}
        hits = data["hits"] + data["disk_hits"]
        lookups = hits + data["misses"]
        data["hit_rate"] = round(0.0 if lookups == 0 else hits / lookups, 4)
        for name in STAGE_TIME_FIELDS:
            data[name] = round(counters[name].value, 6)
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StageStats({self.stage!r}, {self.as_dict()!r})"
