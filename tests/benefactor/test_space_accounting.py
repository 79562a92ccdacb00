"""Property test: a chunk store's space accounting matches what it stores.

Random sequences of new and duplicate puts, puts rejected for lack of
space, deletes of present and absent ids and (for the disk store) reopening
the contributed directory must leave ``used_space`` equal to the summed
length of the payloads actually held, and ``free_space`` equal to the rest
of the capacity.  A threaded stress test checks that concurrent puts and
deletes lose no update to the running byte count.
"""

import sys
import tempfile
import threading

from hypothesis import given, settings, strategies as st

from repro.benefactor.chunk_store import DiskChunkStore, MemoryChunkStore
from repro.core.chunk import Chunk, content_chunk_id, opaque_chunk_id
from repro.exceptions import StoreFullError

CAPACITY = 256
#: Few distinct ids, so duplicate puts and deletes of stored ids are common.
SLOTS = 6

payloads = st.binary(min_size=1, max_size=120)
slots = st.integers(min_value=0, max_value=SLOTS - 1)
operations = st.lists(
    st.one_of(
        # Position-addressed: a duplicate id may carry a different payload,
        # which the store must ignore, not count.
        st.tuples(st.just("put_position"), slots, payloads),
        st.tuples(st.just("put_content"), st.sampled_from(
            [bytes([value]) * length for value in (1, 2) for length in (10, 90)])),
        st.tuples(st.just("delete"), slots),
        st.tuples(st.just("delete_content"), st.sampled_from([b"\x01" * 10, b"absent"])),
        st.just(("reopen",)),
    ),
    max_size=40,
)


def position_id(slot):
    return opaque_chunk_id("ds", 1, slot)


def apply(store, model, operation):
    """Run one operation on ``store`` and mirror its expected effect."""
    kind = operation[0]
    if kind in ("put_position", "put_content"):
        if kind == "put_position":
            chunk = Chunk(position_id(operation[1]), operation[2])
        else:
            chunk = Chunk.from_data(operation[1])
        if chunk.chunk_id in model:
            store.put(chunk)  # duplicate: a no-op
        elif sum(map(len, model.values())) + chunk.size > CAPACITY:
            try:
                store.put(chunk)
            except StoreFullError:
                pass
            else:
                raise AssertionError("over-capacity put was accepted")
        else:
            store.put(chunk)
            model[chunk.chunk_id] = chunk.data
    else:
        if kind == "delete":
            chunk_id = position_id(operation[1])
        else:
            chunk_id = content_chunk_id(operation[1])
        assert store.delete(chunk_id) == (chunk_id in model)
        model.pop(chunk_id, None)


def assert_accounting(store, model):
    stored = {chunk_id: store.get(chunk_id).data for chunk_id in store.chunk_ids()}
    assert stored == model
    assert store.used_space == sum(len(data) for data in stored.values())
    assert store.free_space == store.capacity - store.used_space
    assert store.chunk_count == len(stored)


@given(steps=operations)
@settings(max_examples=120, deadline=None)
def test_memory_store_accounting(steps):
    store = MemoryChunkStore(CAPACITY)
    model = {}
    for operation in steps:
        if operation[0] != "reopen":
            apply(store, model, operation)
        assert_accounting(store, model)


@given(steps=operations)
@settings(max_examples=60, deadline=None)
def test_disk_store_accounting_survives_reopen(steps):
    with tempfile.TemporaryDirectory() as root:
        store = DiskChunkStore(root, CAPACITY)
        model = {}
        for operation in steps:
            if operation[0] == "reopen":
                store = DiskChunkStore(root, CAPACITY)
            else:
                apply(store, model, operation)
            assert_accounting(store, model)


def test_concurrent_puts_and_deletes_keep_the_count():
    store = MemoryChunkStore(1 << 30)
    workers, rounds = 8, 200
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def churn(worker):
        for index in range(rounds):
            chunk = Chunk(opaque_chunk_id(f"w{worker}", 1, index), bytes(index % 7 + 1))
            store.put(chunk)
            if index % 3 == 0:
                store.delete(chunk.chunk_id)

    try:
        threads = [threading.Thread(target=churn, args=(worker,)) for worker in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert_accounting(store, {chunk_id: store.get(chunk_id).data
                              for chunk_id in store.chunk_ids()})
    kept = sum(index % 7 + 1 for index in range(rounds) if index % 3)
    assert store.used_space == workers * kept
