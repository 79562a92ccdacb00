"""Batched chunk pushes: one RPC per benefactor per ~1 MiB of small chunks.

Every scenario runs on both transports: the in-process pool and a real TCP
deployment.  Push RPCs are counted by wrapping the deployment's transport,
so the counts are what actually crossed the transport.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.benefactor.benefactor import Benefactor
from repro.core.chunk import content_chunk_id
from repro.exceptions import ChunkIntegrityError
from repro.transport.inprocess import InProcessTransport
from repro.util.config import SimilarityHeuristic, WriteSemantics
from tests.conftest import make_bytes

CHUNK = 16 * 1024
#: 64 x 16 KiB = one 1 MiB batch.
BATCH_CHUNKS = 64


def batch_config(**overrides) -> StdchkConfig:
    defaults = dict(chunk_size=CHUNK, stripe_width=4, replication_level=1)
    defaults.update(overrides)
    return StdchkConfig(**defaults)


class Deployment:
    """One deployment of either kind, with its push RPCs recorded."""

    def __init__(self, kind: str, config: StdchkConfig, monkeypatch) -> None:
        if kind == "inprocess":
            self.dep = StdchkPool(benefactor_count=4, config=config)
            self.benefactors = list(self.dep.benefactors.values())
        else:
            self.dep = TcpDeployment(benefactor_count=4, config=config)
            self.benefactors = list(self.dep.benefactors)
        self.kind = kind
        self.transport = self.dep.transport
        #: ``(method, chunks carried)`` of every push RPC, in call order.
        self.pushes: list = []
        #: Applied to the ``chunks`` of every ``put_chunks`` before it is sent.
        self.tamper = None
        call = self.transport.call

        def recording_call(address, method, /, **payload):
            if method == "put_chunks":
                if self.tamper is not None:
                    self.tamper(payload["chunks"])
                self.pushes.append((method, len(payload["chunks"])))
            elif method == "put_chunk":
                self.pushes.append((method, 1))
            return call(address, method, **payload)

        monkeypatch.setattr(self.transport, "call", recording_call)

    def client(self, name: str = "batcher"):
        return self.dep.client(name)

    def take_offline(self, benefactor: Benefactor) -> None:
        if self.kind == "inprocess":
            benefactor.go_offline()
        else:
            self.dep.kill_benefactor(benefactor.benefactor_id)

    def holders_of(self, path: str):
        chunk_map = self.dep.manager.dataset_by_path(path).latest.chunk_map
        return [(p.ref.chunk_id, list(p.benefactors)) for p in chunk_map]

    def close(self) -> None:
        if self.kind == "tcp":
            self.dep.close()


@pytest.fixture(params=["inprocess", "tcp"])
def deploy(request, monkeypatch):
    opened = []

    def make(**overrides) -> Deployment:
        deployment = Deployment(request.param, batch_config(**overrides), monkeypatch)
        opened.append(deployment)
        return deployment

    yield make
    for deployment in opened:
        deployment.close()


def test_a_batch_goes_as_one_rpc_per_benefactor(deploy):
    dep = deploy()
    client = dep.client()
    data = make_bytes(BATCH_CHUNKS * CHUNK, seed=1)
    session = client.write_file("/b/ckpt.N0.T1", data)
    assert session.stats.push_rpcs <= 4
    assert session.stats.push_rpcs == len(dep.pushes)
    assert dep.pushes == [("put_chunks", BATCH_CHUNKS // 4)] * 4
    assert session.stats.chunks_pushed == BATCH_CHUNKS
    assert client.read_file("/b/ckpt.N0.T1") == data


def test_one_mib_chunks_still_go_as_put_chunk(deploy):
    dep = deploy(chunk_size=1 << 20)
    data = make_bytes(3 << 20, seed=2)
    session = dep.client().write_file("/b/big", data)
    assert dep.pushes == [("put_chunk", 1)] * 3
    assert session.stats.push_rpcs == 3


def test_a_chunk_repeated_in_a_batch_is_pushed_once(deploy):
    blocks = [make_bytes(CHUNK, seed=seed) for seed in range(8)]
    # Block 0 appears four times, block 1 twice, all inside one batch.
    order = [0, 1, 0, 2, 3, 0, 4, 1, 5, 6, 0, 7]
    data = b"".join(blocks[i] for i in order)
    fsch = dict(similarity_heuristic=SimilarityHeuristic.FSCH)
    batched = deploy(**fsch)
    unbatched = deploy(window_buffer_size=CHUNK, **fsch)
    stats = {}
    for name, dep in (("batched", batched), ("unbatched", unbatched)):
        session = dep.client().write_file("/r/a.N0.T1", data)
        stats[name] = session.stats
        assert dep.client("reader").read_file("/r/a.N0.T1") == data
        holders = dict(dep.holders_of("/r/a.N0.T1"))
        assert all(holders.values())
    assert stats["batched"].chunks_pushed == len(blocks)
    for field in ("bytes_pushed", "chunks_pushed", "bytes_deduplicated",
                  "chunks_deduplicated"):
        assert getattr(stats["batched"], field) == getattr(stats["unbatched"], field)
    assert stats["batched"].push_rpcs < stats["unbatched"].push_rpcs


def test_a_full_store_mid_batch_moves_the_remainder(deploy):
    dep = deploy()
    small = dep.benefactors[0]
    # Room for 5 of the 16 chunks its group carries.
    small.store.capacity = small.store.used_space + 5 * CHUNK
    client = dep.client()
    data = make_bytes(BATCH_CHUNKS * CHUNK, seed=3)
    session = client.write_file("/f/ckpt.N0.T1", data)
    assert session.stats.push_failures >= 1
    assert session.stats.chunks_pushed == BATCH_CHUNKS
    assert small.store.chunk_count == 5
    assert client.read_file("/f/ckpt.N0.T1") == data


def test_a_benefactor_going_offline_mid_batch_is_survived(deploy):
    dep = deploy()
    client = dep.client()
    data = make_bytes(BATCH_CHUNKS * CHUNK, seed=4)
    session = client.open_write("/o/ckpt.N0.T1", expected_size=len(data))
    half = len(data) // 2
    session.write(data[:half])
    assert dep.pushes == []  # the first half still waits in the batch
    victim = dep.benefactors[1]
    dep.take_offline(victim)
    session.write(data[half:])
    session.close()
    assert session.stats.push_failures >= 1
    for _, holders in dep.holders_of("/o/ckpt.N0.T1"):
        assert victim.benefactor_id not in holders
    assert dep.client("reader").read_file("/o/ckpt.N0.T1") == data


def test_pessimistic_copies_reach_distinct_holders(deploy):
    dep = deploy(replication_level=3, write_semantics=WriteSemantics.PESSIMISTIC)
    client = dep.client()
    data = make_bytes(BATCH_CHUNKS * CHUNK, seed=5)
    session = client.write_file("/p/ckpt.N0.T1", data)
    assert session.stats.push_rpcs <= 4 * 3
    by_id = {b.benefactor_id: b for b in dep.benefactors}
    for chunk_id, holders in dep.holders_of("/p/ckpt.N0.T1"):
        assert len(holders) == 3 and len(set(holders)) == 3
        for holder in holders:
            assert by_id[holder].store.contains(chunk_id)
    assert client.read_file("/p/ckpt.N0.T1") == data


def test_an_integrity_failure_in_a_batch_raises(deploy):
    dep = deploy(similarity_heuristic=SimilarityHeuristic.FSCH)

    def corrupt_fourth(chunks):
        chunks[3] = dict(chunks[3], data=b"tampered")

    dep.tamper = corrupt_fourth
    client = dep.client()
    session = client.open_write("/i/ckpt.N0.T1")
    with pytest.raises(ChunkIntegrityError):
        # The full batch is pushed inside write().
        session.write(make_bytes(BATCH_CHUNKS * CHUNK, seed=6))
    session.abort()


def test_parallel_groups_respect_the_inflight_window(deploy):
    dep = deploy(push_parallelism=4, max_inflight_chunks=8)
    client = dep.client()
    data = make_bytes(2 * BATCH_CHUNKS * CHUNK + 100, seed=7)
    session = client.write_file("/w/ckpt.N0.T1", data)
    sizes = Counter(size for _, size in dep.pushes)
    assert max(sizes) == 8 // 4
    assert session.stats.chunks_pushed == 2 * BATCH_CHUNKS + 1
    assert client.read_file("/w/ckpt.N0.T1") == data


@pytest.mark.parametrize("block_size", [0, 1000, CHUNK + 1, 3 * CHUNK])
def test_chunking_does_not_depend_on_write_granularity(block_size):
    config = batch_config(similarity_heuristic=SimilarityHeuristic.FSCH)
    pool = StdchkPool(benefactor_count=4, config=config)
    client = pool.client()
    data = make_bytes(10 * CHUNK + 77, seed=8)
    client.write_file("/g/a.N0.T1", data, block_size=block_size)
    chunk_map = pool.manager.dataset_by_path("/g/a.N0.T1").latest.chunk_map
    expected = [content_chunk_id(data[start:start + CHUNK])
                for start in range(0, len(data), CHUNK)]
    assert [p.ref.chunk_id for p in chunk_map] == expected
    assert client.read_file("/g/a.N0.T1") == data


def test_put_chunks_reports_why_it_stopped():
    transport = InProcessTransport()
    benefactor = Benefactor("tiny", transport, capacity=2048)
    first, second = make_bytes(1024, seed=1), make_bytes(2048, seed=2)

    def put(*chunks):
        return transport.call(benefactor.address, "put_chunks", chunks=[
            {"chunk_id": chunk_id, "data": data} for chunk_id, data in chunks])

    full = put((content_chunk_id(first), first), (content_chunk_id(second), second))
    assert full["stored"] == [content_chunk_id(first)]
    assert (full["failed_at"], full["error"]) == (content_chunk_id(second), "StoreFullError")
    bad = put((content_chunk_id(second), b"x"))
    assert (bad["stored"], bad["error"]) == ([], "ChunkIntegrityError")
    assert put()["error"] is None

