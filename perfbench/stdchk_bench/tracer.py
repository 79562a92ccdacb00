"""Benchmark-side spans recorded around calls into the program's layers.

The program is not modified: :class:`Tracer` replaces methods on live
objects (and, for module functions and classes, on the module or class)
with timing wrappers, and restores them afterwards.  Every span belongs to
one end-to-end operation ("op"), which the closed-loop runner opens with
:meth:`Tracer.begin_op`; only one op runs at a time.

Parent links:

* same thread — the innermost open span on that thread;
* server handler threads — the client ``transport.call`` span that sent the
  request, whose id travels in the request payload under
  :data:`LINK_KEY` and is popped by the ``dispatch`` wrapper before the
  endpoint sees its arguments;
* any other thread with nothing open (read-ahead workers) — the current op.

Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set

#: Request-payload key carrying the id of the calling ``transport.call`` span.
LINK_KEY = "__bench_span__"


class Span:
    __slots__ = ("sid", "parent", "op", "name", "method", "start", "end")

    def __init__(self, sid: int, parent: Optional[int], op: int, name: str,
                 method: Optional[str], start: float) -> None:
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.method = method
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        return [self.sid, self.parent, self.op, self.name, self.method,
                self.start, self.end]


class Tracer:
    """Records spans from wrappers installed on live objects."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.current_op: Optional[Span] = None
        #: Bound addresses whose ``dispatch`` is wrapped; only requests to
        #: these carry :data:`LINK_KEY`, so no endpoint sees an unknown key.
        self.linked_addresses: Set[str] = set()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._open_calls: Dict[int, Span] = {}
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin_op(self, kind: str) -> Span:
        sid = next(self._ids)
        span = Span(sid, None, sid, f"op.{kind}", None, time.perf_counter())
        self._stack().append(span)
        self.current_op = span
        return span

    def end_op(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.current_op = None
        self.spans.append(span)

    def _open(self, name: str, method: Optional[str] = None,
              parent: Optional[Span] = None) -> Optional[Span]:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self.current_op
        if parent is None:
            return None  # outside every op (set-up, teardown): not recorded
        span = Span(next(self._ids), parent.sid, parent.op, name, method,
                    time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- wrappers --------------------------------------------------------------
    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def wrap_call(self, call: Callable[..., Any]) -> Callable[..., Any]:
        """A ``Transport.call`` timed per method, linked to its dispatch."""

        def wrapper(address: str, method: str, /, **payload: Any) -> Any:
            span = self._open("transport.call", method)
            if span is None:
                return call(address, method, **payload)
            if address in self.linked_addresses:
                payload[LINK_KEY] = span.sid
                self._open_calls[span.sid] = span
            try:
                return call(address, method, **payload)
            finally:
                self._open_calls.pop(span.sid, None)
                self._close(span)

        return wrapper

    def wrap_dispatch(self, dispatch: Callable[..., Any]) -> Callable[..., Any]:
        """An ``Endpoint.dispatch`` parented to the call that sent it."""

        def wrapper(method: str, payload: Dict[str, Any]) -> Any:
            link = payload.pop(LINK_KEY, None)
            parent = self._open_calls.get(link) if link is not None else None
            span = self._open("transport.dispatch", method, parent=parent)
            if span is None:
                return dispatch(method, payload)
            try:
                return dispatch(method, payload)
            finally:
                self._close(span)

        return wrapper

    # -- installing ------------------------------------------------------------
    def patch(self, target: Any, attr: str, replacement: Any) -> None:
        """Set ``target.attr``; :meth:`restore` puts the original back."""
        own = vars(target)
        had_own = attr in own
        self._patches.append((target, attr, had_own, own.get(attr)))
        setattr(target, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            target, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self.linked_addresses.clear()

    # -- output ----------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as gzip'd JSON rows (see :meth:`Span.row`)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"columns": ["sid", "parent", "op", "name", "method",
                                   "start", "end"],
                       "spans": [span.row() for span in self.spans]}, handle)
