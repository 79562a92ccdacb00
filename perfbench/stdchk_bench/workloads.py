"""The workloads, each a closed loop driven by one caller thread.

Every workload runs in *epochs*: a fresh ``TcpDeployment`` (one manager and
four benefactors on memory stores over localhost; observability on as
shipped), a fixed sequence of steps, then teardown.  Epochs bound memory
(stores are dropped with the deployment), give several set-up and teardown
samples per run, and make every run measure whole sequences, so the
distribution of per-step costs is the same however many epochs a run has.

Inputs come only from the seed.  Image pools are generated when the
workload is built, before any timing; BLCR-like images are produced by
their generator between timed calls, never inside one (a whole chain would
take 256 MiB).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import StdchkConfig, StdchkFilesystem, TcpDeployment
from repro.util.config import SimilarityHeuristic
from repro.util.naming import CheckpointName
from repro.workloads.generators import ApplicationLevelGenerator, BlcrLikeGenerator

from .probes import Probes
from .recorder import FAILED, Recorder, observation_count

KiB = 1 << 10
MiB = 1 << 20

#: Extra deployment starts timed after the epochs: rounds of concurrent
#: starts, each round closed together before the next.
SETUP_ROUNDS = 4
SETUP_PER_ROUND = 8

#: Application block size of every ``ckpt_restart`` write and read call.
CKPT_BLOCK = 256 * KiB
#: Distinct ``ckpt_restart`` images; steps cycle over them.
CKPT_POOL = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes: ``full`` is the benchmark, ``tiny`` the smoke test."""

    ckpt_image: int
    ckpt_steps: int
    blcr_image: int
    blcr_chain: int
    blcr_read_every: int


SCALES: Dict[str, Scale] = {
    "full": Scale(ckpt_image=32 * MiB, ckpt_steps=6, blcr_image=16 * MiB,
                  blcr_chain=16, blcr_read_every=4),
    "tiny": Scale(ckpt_image=2 * MiB, ckpt_steps=2, blcr_image=256 * KiB,
                  blcr_chain=4, blcr_read_every=2),
}


class Workload:
    """One epoch = one deployment lifetime; subclasses supply the steps."""

    name = ""
    why = ""
    #: Whether the steps go through the ``StdchkFilesystem`` facade.
    uses_facade = False

    def __init__(self, seed: int, scale: Scale, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def deploy(self) -> TcpDeployment:
        raise NotImplementedError

    def steps(self, rec: Recorder, dep: TcpDeployment, client, fs) -> None:
        raise NotImplementedError

    def after_steps(self, rec: Recorder, dep: TcpDeployment) -> None:
        """Untimed checks once the timed phase of an epoch is over."""

    def cleanup(self) -> None:
        """Release per-epoch resources after teardown."""

    def epoch(self, rec: Recorder, probes: Optional[Probes] = None) -> None:
        dep = self.timed_deploy(rec)
        try:
            client = dep.client(f"bench-{self.name}")
            fs = StdchkFilesystem(client) if self.uses_facade else None
            registries = [dep.manager.obs, client.obs]
            registries += [s.obs for s in dep.standbys.values()]
            registries += [b.obs for b in dep.benefactors]
            before = _epoch_counters(dep, registries)
            if probes is not None:
                probes.install(dep, client, fs)
            try:
                self.steps(rec, dep, client, fs)
            finally:
                if probes is not None:
                    probes.uninstall()
            after = _epoch_counters(dep, registries)
            for key, value in after.items():
                rec.counters[key] += value - before[key]
            rec.counters["stored_bytes"] += sum(
                b.store.used_space for b in dep.benefactors)
            self.after_steps(rec, dep)
        finally:
            started = time.perf_counter()
            dep.close()
            rec.teardown_s.append(time.perf_counter() - started)
            self.cleanup()
        rec.epochs += 1

    def sample_setup(self, rec: Recorder) -> None:
        """Time more deployment starts, so ``setup_s`` does not rest on a few
        epoch starts.

        Called after the epochs: the many threads of concurrent deployments
        add malloc arenas, which raised the epochs' peak RSS when the
        samples were taken between epochs.  A close mostly waits on server
        shutdown polls, so a round's deployments are closed together.
        """
        for _ in range(SETUP_ROUNDS):
            spares: List[TcpDeployment] = []
            try:
                for _ in range(SETUP_PER_ROUND):
                    spares.append(self.timed_deploy(rec))
            finally:
                closers = [threading.Thread(target=spare.close) for spare in spares]
                for closer in closers:
                    closer.start()
                for closer in closers:
                    closer.join()
                self.cleanup()

    def timed_deploy(self, rec: Recorder) -> TcpDeployment:
        started = time.perf_counter()
        dep = self.deploy()
        rec.setup_s.append(time.perf_counter() - started)
        return dep

    # -- helpers shared by the workloads ----------------------------------------
    @staticmethod
    def write(rec: Recorder, dep: TcpDeployment, call, nbytes: int) -> bool:
        """A timed checkpoint write; also counts its manager transactions."""
        txns = dep.manager.transactions
        ok = rec.op("write", call, nbytes) is not FAILED
        rec.counters["write_txns"] += dep.manager.transactions - txns
        return ok

    @staticmethod
    def namespace_calls(rec: Recorder, client, path: str, size: int) -> None:
        """``stat``, ``listdir`` of the folder and ``versions``, checked."""
        folder, _, filename = path.rpartition("/")
        attrs = rec.op("stat", lambda: client.stat(path))
        if attrs is not FAILED:
            rec.check(attrs.get("size") == size,
                      f"stat {path}: size {attrs.get('size')} != {size}")
        listing = rec.op("listdir", lambda: client.listdir(folder))
        if listing is not FAILED:
            rec.check(filename in listing, f"listdir {folder}: {filename} missing")
        versions = rec.op("versions", lambda: client.versions(path))
        if versions is not FAILED:
            rec.check(bool(versions) and versions[-1].get("size") == size,
                      f"versions {path}: latest size is not {size}")


def _epoch_counters(dep: TcpDeployment, registries) -> Dict[str, int]:
    persistence = dep.manager.persistence
    return {
        "pushed_bytes": sum(b.stats["bytes_in"] for b in dep.benefactors),
        "journal_bytes": persistence.journal_bytes() if persistence else 0,
        "snapshots": persistence.snapshots_taken if persistence else 0,
        "observations": observation_count(registries),
    }


class CkptRestart(Workload):
    """32 MiB BMS-style images written and restart-read through the FS facade."""

    name = "ckpt_restart"
    why = ("bytes dominate: 1 MiB chunks, opaque ids, few manager calls; "
           "images larger than the reader's 8-chunk cache")
    uses_facade = True

    def __init__(self, seed: int, scale: Scale, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        generator = ApplicationLevelGenerator(scale.ckpt_image, seed=seed)
        self.images = list(generator.images(CKPT_POOL))

    def deploy(self) -> TcpDeployment:
        return TcpDeployment(benefactor_count=4, config=StdchkConfig())

    def steps(self, rec: Recorder, dep: TcpDeployment, client, fs) -> None:
        previous: Optional[Tuple[str, bytes]] = None
        for step in range(self.scale.ckpt_steps):
            image = self.images[step % len(self.images)]
            path = f"/bms/bms.N0.T{step}"

            def write() -> None:
                handle = fs.open(path, "wb", expected_size=len(image))
                try:
                    view = memoryview(image)
                    for start in range(0, len(image), CKPT_BLOCK):
                        handle.write(view[start:start + CKPT_BLOCK])
                except BaseException:
                    handle.abort()
                    raise
                fs.close(handle)

            def read(path: str) -> List[bytes]:
                handle = fs.open(path, "rb")
                try:
                    parts = []
                    while True:
                        data = handle.read(CKPT_BLOCK)
                        if not data:
                            return parts
                        parts.append(data)
                finally:
                    fs.close(handle)

            if not self.write(rec, dep, write, len(image)):
                continue
            self.namespace_calls(rec, client, path, len(image))
            # The restart read is of the image committed one step earlier.
            if previous is not None:
                read_path, read_image = previous
                parts = rec.op("read", lambda: read(read_path), len(read_image))
                if parts is not FAILED:
                    rec.check(_same_bytes(parts, read_image),
                              f"read {read_path}: bytes differ")
            previous = (path, image)


class IncrementalBlcr(Workload):
    """A chain of BLCR-like images deduplicated by FsCH at 16 KiB chunks,
    committed to a journaled manager with one quorum-acknowledged standby."""

    name = "incremental_blcr"
    why = ("per-chunk and manager costs: SHA-1, FsCH dedup against a growing "
           "folder inventory, 1,024-entry chunk-maps, journal fsync and quorum "
           "ship per commit")

    def __init__(self, seed: int, scale: Scale, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        self.journal_dirs: List[str] = []
        self.acknowledged: List[Tuple[str, int]] = []

    def deploy(self) -> TcpDeployment:
        journal_dir = tempfile.mkdtemp(prefix="journal-", dir=self.workdir)
        self.journal_dirs.append(journal_dir)
        config = StdchkConfig(chunk_size=16 * KiB,
                              similarity_heuristic=SimilarityHeuristic.FSCH,
                              journal_dir=journal_dir,
                              journal_fsync_policy="commit",
                              replication_quorum=1)
        dep = TcpDeployment(benefactor_count=4, config=config)
        dep.add_standby()
        return dep

    def steps(self, rec: Recorder, dep: TcpDeployment, client, fs) -> None:
        self.acknowledged = []
        # The 5-minute BLAST parameters of repro.workloads.blast_blcr_trace.
        generator = BlcrLikeGenerator(
            self.scale.blcr_image, seed=self.seed, dirty_fraction=0.14,
            aligned_prefix_fraction=0.28, insertions=3, dirty_region_count=4)
        every = self.scale.blcr_read_every
        for index, image in enumerate(generator.images(self.scale.blcr_chain)):
            name = CheckpointName("blast", 0, index)
            path = f"/blast/{name.filename}"
            if not self.write(rec, dep,
                              lambda: client.write_checkpoint(name, image),
                              len(image)):
                continue
            self.acknowledged.append((path, len(image)))
            self.namespace_calls(rec, client, path, len(image))
            if index % every == every - 1:
                data = rec.op("read", lambda: client.read_file(path), len(image))
                if data is not FAILED:
                    rec.check(data == image, f"read {path}: bytes differ")

    def after_steps(self, rec: Recorder, dep: TcpDeployment) -> None:
        """Restart the manager from its journal; every ack must survive."""
        try:
            dep.restart_manager()
            client = dep.client("bench-verify")
            listings: Dict[str, List[str]] = {}
            for path, size in self.acknowledged:
                folder, _, filename = path.rpartition("/")
                if folder not in listings:
                    listings[folder] = client.listdir(folder)
                rec.check(filename in listings[folder],
                          f"after restart: {path} not listed")
                rec.check(client.stat(path).get("size") == size,
                          f"after restart: {path} has the wrong size")
        except Exception as exc:  # noqa: BLE001 - a failed check is a mismatch
            rec.mismatches.append(f"restart check failed: {exc!r}")

    def cleanup(self) -> None:
        for journal_dir in self.journal_dirs:
            shutil.rmtree(journal_dir, ignore_errors=True)
        self.journal_dirs = []


def _same_bytes(parts: List[bytes], image: bytes) -> bool:
    offset = 0
    for part in parts:
        if image[offset:offset + len(part)] != part:
            return False
        offset += len(part)
    return offset == len(image)


WORKLOADS = {cls.name: cls for cls in (CkptRestart, IncrementalBlcr)}


def make_workdir(root: str) -> str:
    """Working space for journals, inside the checkout."""
    path = os.path.join(root, "perfbench", ".work")
    os.makedirs(path, exist_ok=True)
    return path
