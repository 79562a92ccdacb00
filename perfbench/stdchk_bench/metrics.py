"""End-to-end metrics from a :class:`Recorder`, per-layer metrics from spans.

Per-layer times are per end-to-end op: for each op that reached the layer,
the layer's spans in that op are summed, and the median over those ops is
reported.  ``self`` time is a span's duration minus the union of its child
spans' intervals (children on other threads included); ``busy`` time is the
whole duration.  Per-call percentiles (``transport.*.p50_us``) are over
individual calls instead.
"""

from __future__ import annotations

import resource
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from . import stats
from .probes import MANAGER_RPCS, TRANSPORT_METHODS, Probes
from .recorder import META_KINDS, Recorder
from .tracer import Span

#: Every end-to-end metric, as the report line prints it.
REPORTED: List[Tuple[str, str]] = [
    ("write_MBps", "MB/s"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("read_MBps", "MB/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("meta_ops_per_s", "1/s"),
    ("meta_p50_us", "us"),
    ("meta_tail_us", "us"),
    ("stored_bytes_per_logical_byte", "B/B"),
    ("pushed_bytes_per_logical_byte", "B/B"),
    ("setup_s", "s"),
    ("peak_rss_MiB", "MiB"),
]

#: Reported but not gated: on a shared 2-vCPU host these swing by more
#: than the largest allowed bound between runs of identical code (see
#: README.md), so they would fail the benchmark rather than the code.
UNGATED = {"write_tail_ms", "read_tail_ms", "meta_tail_us", "meta_p50_us",
           "meta_ops_per_s"}

#: The gated end-to-end metrics: the result line and BENCHMARK.json.
END_TO_END: List[Tuple[str, str]] = [m for m in REPORTED if m[0] not in UNGATED]

PER_LAYER: List[Tuple[str, str]] = [
    ("fs.write.self_us", "us"),
    ("fs.read.self_us", "us"),
    ("client.reader.cache_hit_ratio", "ratio"),
    ("client.open_write.self_us", "us"),
    ("client.session_write.self_us", "us"),
    ("client.session_close.self_us", "us"),
    ("client.open_read.self_us", "us"),
    ("client.read.self_us", "us"),
    ("client.dedup_chunk_ratio", "ratio"),
    ("client.retries_per_op", "count"),
    ("core.content_chunk_id.calls", "count"),
    ("core.content_chunk_id.busy_us", "us"),
    ("core.chunk_map.append.busy_us", "us"),
    ("core.chunk_map.from_dict.busy_us", "us"),
    ("core.chunk_map.to_dict.busy_us", "us"),
]
for _method in TRANSPORT_METHODS:
    PER_LAYER += [
        (f"transport.call.{_method}.calls", "count"),
        (f"transport.call.{_method}.p50_us", "us"),
        (f"transport.dispatch.{_method}.p50_us", "us"),
        (f"transport.wire.{_method}.p50_us", "us"),
    ]
PER_LAYER += [
    ("benefactor.put_chunk.self_us", "us"),
    ("benefactor.get_chunk.self_us", "us"),
    ("benefactor.store_put.busy_us", "us"),
    ("benefactor.store_get.busy_us", "us"),
    ("benefactor.store_put.growth", "ratio"),
]
PER_LAYER += [(f"manager.{rpc}.self_us", "us") for rpc in MANAGER_RPCS]
PER_LAYER += [
    ("manager.get_existing_chunks.growth", "ratio"),
    ("manager.txns_per_write", "count"),
    ("persistence.append.calls", "count"),
    ("persistence.append.busy_us", "us"),
    ("persistence.sync.calls", "count"),
    ("persistence.sync.busy_us", "us"),
    ("persistence.journal_bytes_per_op", "B"),
    ("replication.offer.busy_us", "us"),
    ("replication.replicate_records.calls", "count"),
    ("obs.spans_per_op", "count"),
    ("obs.observations_per_op", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead.write_MBps", "ratio"),
    ("trace.overhead.meta_ops_per_s", "ratio"),
    ("deploy.teardown_s", "s"),
]

US = 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rec: Recorder) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """``(values, tails)``; ``tails`` holds each tail's percentile and count."""
    values: Dict[str, float] = {}
    tails: Dict[str, dict] = {}

    def latency(prefix: str, samples: List[float], scale: float, unit: str) -> None:
        values[f"{prefix}_p50_{unit}"] = stats.median(samples) * scale
        value, percentile, count = stats.tail(samples)
        values[f"{prefix}_tail_{unit}"] = value * scale
        tails[f"{prefix}_tail_{unit}"] = {"percentile": round(percentile, 3),
                                          "samples": count}

    # A call's bandwidth is its bytes over its open-to-close time (the
    # paper's observed application bandwidth); the median over calls moves
    # only when most calls change, not with a slow stretch of the host.
    for kind in ("write", "read"):
        values[f"{kind}_MBps"] = stats.median(rec.rates(kind)) / 1e6
        latency(kind, rec.seconds(kind), 1e3, "ms")
    completed = sum(1 for c in rec.calls if c.ok)
    values["meta_ops_per_s"] = _ratio(completed, rec.op_time)
    latency("meta", rec.seconds(*META_KINDS), US, "us")
    logical = rec.nbytes("write")
    values["stored_bytes_per_logical_byte"] = _ratio(rec.counters["stored_bytes"], logical)
    values["pushed_bytes_per_logical_byte"] = _ratio(rec.counters["pushed_bytes"], logical)
    values["setup_s"] = stats.median(rec.setup_s)
    values["peak_rss_MiB"] = peak_rss_mib()
    return values, tails


class SpanTable:
    """Spans indexed by name and by parent, with self times computed."""

    def __init__(self, spans: List[Span]) -> None:
        self.ops = [s for s in spans if s.parent is None]
        self.children: Dict[int, List[Span]] = defaultdict(list)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                self.children[span.parent].append(span)
                self.by_name[span.name].append(span)
        self.self_s: Dict[int, float] = {}
        for span in spans:
            self.self_s[span.sid] = stats.self_time(
                span.start, span.end,
                [(c.start, c.end) for c in self.children[span.sid]])

    def named(self, name: str, method: str = None) -> List[Span]:
        spans = self.by_name.get(name, [])
        if method is None:
            return spans
        return [s for s in spans if s.method == method]

    @staticmethod
    def per_op(spans: List[Span], value: Callable[[Span], float]) -> float:
        """Median over ops of the op's sum of ``value`` over ``spans``."""
        sums: Dict[int, float] = defaultdict(float)
        for span in spans:
            sums[span.op] += value(span)
        return stats.median(list(sums.values()))

    def self_us(self, name: str) -> float:
        return self.per_op(self.named(name), lambda s: self.self_s[s.sid]) * US

    def busy_us(self, name: str) -> float:
        return self.per_op(self.named(name), lambda s: s.duration) * US

    def calls(self, name: str, method: str = None) -> float:
        return self.per_op(self.named(name, method), lambda s: 1.0)

    def growth(self, name: str) -> float:
        spans = sorted(self.named(name), key=lambda s: s.start)
        return stats.growth([s.duration for s in spans])

    def wire_s(self, call: Span) -> float:
        dispatched = [c for c in self.children[call.sid] if c.name == "transport.dispatch"]
        return call.duration - sum(c.duration for c in dispatched)

    def coverage(self) -> float:
        """Share of op wall time covered by the ops' direct child spans."""
        covered = sum(
            stats.union_length([(c.start, c.end) for c in self.children[op.sid]],
                               op.start, op.end)
            for op in self.ops)
        return _ratio(covered, sum(op.duration for op in self.ops))


def per_layer(traced: Recorder, plain: Recorder, spans: List[Span],
              probes: Probes) -> Dict[str, float]:
    table = SpanTable(spans)
    values: Dict[str, float] = {}
    for name in ("fs.write", "fs.read", "client.open_write", "client.session_write",
                 "client.session_close", "client.open_read", "client.read",
                 "benefactor.put_chunk", "benefactor.get_chunk"):
        values[f"{name}.self_us"] = table.self_us(name)
    for rpc in MANAGER_RPCS:
        values[f"manager.{rpc}.self_us"] = table.self_us(f"manager.{rpc}")
    for name in ("core.content_chunk_id", "core.chunk_map.append",
                 "core.chunk_map.from_dict", "core.chunk_map.to_dict",
                 "benefactor.store_put", "benefactor.store_get",
                 "persistence.append", "persistence.sync", "replication.offer"):
        values[f"{name}.busy_us"] = table.busy_us(name)
    for name in ("core.content_chunk_id", "persistence.append", "persistence.sync"):
        values[f"{name}.calls"] = table.calls(name)
    for method in TRANSPORT_METHODS:
        calls = table.named("transport.call", method)
        dispatches = table.named("transport.dispatch", method)
        values[f"transport.call.{method}.calls"] = table.calls("transport.call", method)
        values[f"transport.call.{method}.p50_us"] = stats.median(
            [s.duration for s in calls]) * US
        values[f"transport.dispatch.{method}.p50_us"] = stats.median(
            [s.duration for s in dispatches]) * US
        values[f"transport.wire.{method}.p50_us"] = stats.median(
            [table.wire_s(s) for s in calls]) * US
    values["replication.replicate_records.calls"] = values[
        "transport.call.replicate_records.calls"]
    values["benefactor.store_put.growth"] = table.growth("benefactor.store_put")
    values["manager.get_existing_chunks.growth"] = table.growth(
        "manager.get_existing_chunks")

    pushed = sum(s.stats.chunks_pushed for s in probes.sessions)
    deduplicated = sum(s.stats.chunks_deduplicated for s in probes.sessions)
    values["client.dedup_chunk_ratio"] = _ratio(deduplicated, pushed + deduplicated)
    retries = sum(s.stats.push_failures + s.stats.stripe_refreshes
                  for s in probes.sessions)
    retries += sum(r.replica_fallbacks for r in probes.readers)
    values["client.retries_per_op"] = _ratio(retries, traced.attempted)
    values["client.reader.cache_hit_ratio"] = _ratio(
        sum(r.cache_hits for r in probes.readers), probes.chunks_consumed)

    counters = traced.counters
    values["manager.txns_per_write"] = _ratio(counters["write_txns"],
                                              len(traced.seconds("write")))
    values["persistence.journal_bytes_per_op"] = _ratio(counters["journal_bytes"],
                                                        traced.attempted)
    values["obs.spans_per_op"] = _ratio(counters["program_spans"], traced.attempted)
    values["obs.observations_per_op"] = _ratio(counters["observations"],
                                               traced.attempted)
    values["trace.coverage"] = table.coverage()
    plain_e2e, _ = end_to_end(plain)
    traced_e2e, _ = end_to_end(traced)
    for name in ("write_MBps", "meta_ops_per_s"):
        values[f"trace.overhead.{name}"] = _ratio(plain_e2e[name], traced_e2e[name]) - 1.0
    values["deploy.teardown_s"] = stats.median(plain.teardown_s + traced.teardown_s)
    return values
