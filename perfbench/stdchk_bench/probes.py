"""Which live objects of a deployment get span wrappers, and under what name.

One :class:`Probes` instance per traced epoch.  Besides spans it keeps the
write sessions and readers the client opened, whose own counters feed the
client-layer ratios (dedup, retries, reader cache hits).
"""

from __future__ import annotations

from typing import Any, List, Optional

import repro.client.session as client_session
import repro.core.chunk as core_chunk
from repro.core.chunk_map import ChunkMap
from repro.manager.persistence.journal import JournalWriter

from .tracer import Tracer

#: Manager RPCs timed as ``manager.<rpc>``.
MANAGER_RPCS = ("create_session", "commit_session", "get_chunk_map",
                "get_existing_chunks", "stat", "list_dir", "get_versions")

#: Wire methods reported as ``transport.{call,dispatch,wire}.<method>``.
TRANSPORT_METHODS = ("put_chunk", "get_chunk") + MANAGER_RPCS + ("replicate_records",)


class Probes:
    """Installs and removes the wrappers of one traced epoch."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.sessions: List[Any] = []
        self.readers: List[Any] = []
        #: Chunks the readers handed out (cache hits included).
        self.chunks_consumed = 0

    def install(self, deployment, client, fs: Optional[Any] = None) -> None:
        t = self.tracer
        transport = deployment.transport
        t.patch(transport, "call", t.wrap_call(transport.call))
        endpoints = [(deployment.manager, deployment.manager_address)]
        endpoints += [(standby, deployment.standby_addresses[standby_id])
                      for standby_id, standby in deployment.standbys.items()]
        endpoints += [(b, transport.bound_address(b.address))
                      for b in deployment.benefactors]
        for endpoint, bound in endpoints:
            t.patch(endpoint, "dispatch", t.wrap_dispatch(endpoint.dispatch))
            t.linked_addresses.add(bound)

        manager = deployment.manager
        for rpc in MANAGER_RPCS:
            t.patch(manager, rpc, t.wrap(getattr(manager, rpc), f"manager.{rpc}"))
        if manager.persistence is not None:
            persistence = manager.persistence
            t.patch(persistence, "append",
                    t.wrap(persistence.append, "persistence.append"))
            # The writer object is replaced at every snapshot, so the fsync
            # wrapper goes on the class.
            t.patch(JournalWriter, "_fsync",
                    t.wrap(JournalWriter._fsync, "persistence.sync"))
        if manager.shipper is not None:
            t.patch(manager.shipper, "offer",
                    t.wrap(manager.shipper.offer, "replication.offer"))

        for benefactor in deployment.benefactors:
            for rpc in ("put_chunk", "get_chunk"):
                t.patch(benefactor, rpc,
                        t.wrap(getattr(benefactor, rpc), f"benefactor.{rpc}"))
            store = benefactor.store
            t.patch(store, "put", t.wrap(store.put, "benefactor.store_put"))
            t.patch(store, "get", t.wrap(store.get, "benefactor.store_get"))

        chunk_id = t.wrap(core_chunk.content_chunk_id, "core.content_chunk_id")
        t.patch(core_chunk, "content_chunk_id", chunk_id)
        t.patch(client_session, "content_chunk_id", chunk_id)
        t.patch(ChunkMap, "append", t.wrap(ChunkMap.append, "core.chunk_map.append"))
        t.patch(ChunkMap, "to_dict", t.wrap(ChunkMap.to_dict, "core.chunk_map.to_dict"))
        from_dict = vars(ChunkMap)["from_dict"].__func__
        t.patch(ChunkMap, "from_dict",
                classmethod(t.wrap(from_dict, "core.chunk_map.from_dict")))

        t.patch(client, "open_write", self._wrap_open_write(client.open_write))
        t.patch(client, "open_read", self._wrap_open_read(client.open_read))
        t.patch(client, "write_file", t.wrap(client.write_file, "client.write_file"))
        t.patch(client, "read_file", t.wrap(client.read_file, "client.read_file"))
        if fs is not None:
            t.patch(fs, "open", self._wrap_fs_open(fs.open))
            t.patch(fs, "close", t.wrap(fs.close, "fs.close"))

    def uninstall(self) -> None:
        self.tracer.restore()

    # Per-op objects (sessions, readers, handles) are wrapped on the instance
    # as they are created and discarded with it, so they need no restore.
    def _wrap_open_write(self, open_write):
        timed = self.tracer.wrap(open_write, "client.open_write")

        def wrapper(*args, **kwargs):
            session = timed(*args, **kwargs)
            session.write = self.tracer.wrap(session.write, "client.session_write")
            session.close = self.tracer.wrap(session.close, "client.session_close")
            self.sessions.append(session)
            return session

        return wrapper

    def _wrap_open_read(self, open_read):
        t = self.tracer
        timed = t.wrap(open_read, "client.open_read")

        def wrapper(*args, **kwargs):
            reader = timed(*args, **kwargs)
            read_range = t.wrap(reader.read_range, "client.read")
            read_all = t.wrap(reader.read_all, "client.read")

            def counted_range(offset, length):
                data = read_range(offset, length)
                if data:
                    self.chunks_consumed += len(
                        reader.chunk_map.covering_indices(offset, len(data)))
                return data

            def counted_all():
                data = read_all()
                self.chunks_consumed += len(reader.chunk_map)
                return data

            reader.read_range = counted_range
            reader.read_all = counted_all
            self.readers.append(reader)
            return reader

        return wrapper

    def _wrap_fs_open(self, fs_open):
        timed = self.tracer.wrap(fs_open, "fs.open")

        def wrapper(*args, **kwargs):
            handle = timed(*args, **kwargs)
            if handle.writable:
                handle.write = self.tracer.wrap(handle.write, "fs.write")
            else:
                handle.read = self.tracer.wrap(handle.read, "fs.read")
            return handle

        return wrapper
