"""Closed-loop op timing, failure accounting and per-epoch counters."""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, List, NamedTuple, Optional

from repro.obs import SPAN_STORE
from repro.obs.metrics import HistogramSeries

from .tracer import Tracer

#: Namespace calls whose latency forms ``meta_p50_us`` / ``meta_tail_us``.
META_KINDS = ("stat", "listdir", "versions")

#: Returned by :meth:`Recorder.op` when the call raised.
FAILED = object()


class Call(NamedTuple):
    kind: str
    seconds: float
    nbytes: int
    ok: bool


class Recorder:
    """Everything one mode (plain or traced) of a run measured."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.calls: List[Call] = []
        self.failures: Counter = Counter()
        #: Human-readable descriptions of every correctness violation.
        self.mismatches: List[str] = []
        self.setup_s: List[float] = []
        self.teardown_s: List[float] = []
        self.epochs = 0
        #: Sums over epochs: logical/pushed/stored bytes, manager
        #: transactions, journal bytes, histogram observations, program spans.
        self.counters: Counter = Counter()

    def op(self, kind: str, call: Callable[[], Any], nbytes: int = 0) -> Any:
        """Run one client call, timed from invocation until it returns.

        A call that raises is counted under its exception type and returns
        :data:`FAILED`; it is not retried.  The program's own spans are
        drained after every call (outside the timing) so the span store's
        bound never hides any.
        """
        span = self.tracer.begin_op(kind) if self.tracer is not None else None
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - every failure is recorded
            self.failures[type(exc).__name__] += 1
            result = FAILED
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                self.tracer.end_op(span)
        self.calls.append(Call(kind, elapsed, nbytes, result is not FAILED))
        self.counters["program_spans"] += len(SPAN_STORE.drain())
        return result

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def op_time(self) -> float:
        return sum(c.seconds for c in self.calls)

    def seconds(self, *kinds: str) -> List[float]:
        """Durations of the successful calls of ``kinds``."""
        return [c.seconds for c in self.calls if c.ok and c.kind in kinds]

    def nbytes(self, kind: str) -> int:
        return sum(c.nbytes for c in self.calls if c.ok and c.kind == kind)

    def rates(self, kind: str) -> List[float]:
        """Bytes per second of each successful call of ``kind``."""
        return [c.nbytes / c.seconds for c in self.calls
                if c.ok and c.kind == kind and c.seconds > 0]


def observation_count(registries) -> int:
    """Samples recorded so far by every cumulative histogram in ``registries``."""
    total = 0
    for registry in registries:
        for family in registry.families():
            for series in family.series():
                if isinstance(series, HistogramSeries):
                    total += series.count
    return total
