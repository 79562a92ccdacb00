"""The tail-percentile rule and self time over overlapping, cross-thread children."""

import threading
import time

import pytest

from stdchk_bench import stats
from stdchk_bench.metrics import SpanTable
from stdchk_bench.tracer import LINK_KEY, Tracer


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile, count = stats.tail(values)
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10


def test_tail_percentile_grows_with_the_sample():
    value, percentile, count = stats.tail(list(range(1000)))
    assert percentile == pytest.approx(99.0)
    assert value == 989.0 and count == 1000
    value, percentile, _ = stats.tail([5.0] + [1.0] * 10)
    assert percentile == pytest.approx(100 * (1 - 10 / 11))
    assert value == 1.0


def test_tail_without_enough_samples_reports_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail([]) == (0.0, 0.0, 0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # [1,4] and [3,6] overlap; [8,12] sticks out of the parent and is clipped.
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert stats.union_length(children, 0.0, 10.0) == pytest.approx(7.0)
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(3.0)
    assert stats.self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert stats.self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(0.0)


def test_growth_compares_last_and_first_tenth():
    assert stats.growth([1.0] * 10 + [2.0] * 10) == pytest.approx(2.0)
    assert stats.growth([1.0] * 19) == 0.0


def _serve_on_another_thread(dispatch):
    """A fake transport whose endpoint runs on a separate handler thread."""

    def call(address, method, /, **payload):
        out = {}
        handler = threading.Thread(
            target=lambda: out.update(result=dispatch(method, payload)))
        handler.start()
        handler.join(timeout=5)
        assert not handler.is_alive()
        return out["result"]

    return call


def test_cross_thread_children_are_linked_and_subtracted():
    tracer = Tracer()

    def endpoint(method, payload):
        time.sleep(0.03)
        return dict(payload)

    dispatch = tracer.wrap_dispatch(endpoint)
    call = tracer.wrap_call(_serve_on_another_thread(dispatch))
    tracer.linked_addresses.add("linked:1")
    worker = tracer.wrap(lambda: time.sleep(0.02), "readahead")

    op = tracer.begin_op("write")
    seen = call("linked:1", "put_chunk", chunk_id="c")
    unlinked = call("other:2", "stat", path="/p")
    thread = threading.Thread(target=worker)  # no span open on that thread
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    tracer.end_op(op)

    assert seen == {"chunk_id": "c"}  # the link key never reaches the endpoint
    assert LINK_KEY not in unlinked
    table = SpanTable(tracer.spans)
    linked_call = table.named("transport.call", "put_chunk")[0]
    linked_dispatch = table.named("transport.dispatch", "put_chunk")[0]
    assert linked_dispatch.parent == linked_call.sid
    assert linked_dispatch.op == op.sid
    assert table.self_s[linked_call.sid] == pytest.approx(
        linked_call.duration - linked_dispatch.duration)
    assert table.wire_s(linked_call) == pytest.approx(table.self_s[linked_call.sid])
    # Without a link the server span falls back to the op, like read-ahead.
    assert table.named("transport.dispatch", "stat")[0].parent == op.sid
    assert table.named("readahead")[0].parent == op.sid
    children = [(c.start, c.end) for c in table.children[op.sid]]
    assert table.self_s[op.sid] == pytest.approx(
        op.duration - stats.union_length(children, op.start, op.end))
    assert 0.0 < table.coverage() <= 1.0


def test_concurrent_children_of_one_parent_count_once():
    tracer = Tracer()
    op = tracer.begin_op("read")
    fetch = tracer.wrap(lambda: time.sleep(0.05), "fetch")
    workers = [threading.Thread(target=fetch) for _ in range(3)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=5)
        assert not worker.is_alive()
    tracer.end_op(op)
    table = SpanTable(tracer.spans)
    fetches = table.named("fetch")
    assert len(fetches) == 3
    covered = stats.union_length([(s.start, s.end) for s in fetches])
    assert covered < sum(s.duration for s in fetches)
    assert table.self_s[op.sid] == pytest.approx(op.duration - covered)


def test_spans_outside_an_op_are_not_recorded_and_patches_restore():
    class Thing:
        def ping(self):
            return "pong"

    thing = Thing()
    tracer = Tracer()
    tracer.patch(thing, "ping", tracer.wrap(thing.ping, "thing.ping"))
    tracer.patch(Thing, "extra", 1)
    assert thing.ping() == "pong"
    assert tracer.spans == []
    tracer.restore()
    assert "ping" not in vars(thing) and not hasattr(Thing, "extra")
