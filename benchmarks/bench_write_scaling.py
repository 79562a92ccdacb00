"""Write scaling — per-chunk write cost must not grow with file length.

A checkpoint store is judged on long runs: a per-chunk cost that rises with
everything already written (a chunk-map re-sorted on every append, a store
that re-sums its inventory on every put) turns a linear write into a
quadratic one as images grow.  This benchmark writes one file of 512, 2,048
and 8,192 chunks of 16 KiB into a fresh in-process ``StdchkPool`` (four
benefactors on plain memory stores, observability off) and reports the
median over five interleaved repetitions of the write wall time per chunk.
Five, not three: on a shared 2-vCPU host single writes of the same length
vary by up to 1.5x, which a median of three does not smooth out.

The image is written in 256 KiB application blocks, as a checkpointing
library would.  One write call holding the whole image would make the
session buffer a second full copy of it, whose page faults grow with the
image and hide the per-chunk cost this gate is about.

Acceptance gate: with the default config (opaque, position-addressed chunk
ids) the 8,192-chunk cost is at most 1.5x the 512-chunk cost.  The FsCH
config (content-addressed ids, one SHA-1 per chunk) is reported, not gated.

Results go to ``BENCH_write_scaling.json`` together with the metrics
snapshot of one small instrumented verification write.
"""

from __future__ import annotations

import random
import statistics
import time

from repro import StdchkConfig, StdchkPool
from repro.obs import set_enabled
from repro.util.config import SimilarityHeuristic
from repro.util.units import KiB

from benchmarks.conftest import print_table, write_bench_results

CHUNK = 16 * KiB
APP_BLOCK = 256 * KiB
CHUNK_COUNTS = (512, 2048, 8192)
REPETITIONS = 5
MAX_GROWTH = 1.5
RESULTS_PATH = "BENCH_write_scaling.json"
CONFIGS = (
    ("default", SimilarityHeuristic.NONE, True),
    ("fsch", SimilarityHeuristic.FSCH, False),
)


def make_pool(heuristic: SimilarityHeuristic) -> StdchkPool:
    return StdchkPool(
        benefactor_count=4,
        config=StdchkConfig(chunk_size=CHUNK, similarity_heuristic=heuristic),
    )


def write_cost_us(heuristic: SimilarityHeuristic, payload: bytes) -> float:
    """Wall time of one fresh-pool write, in microseconds per chunk."""
    with make_pool(heuristic) as pool:
        client = pool.client("bench")
        start = time.perf_counter()
        client.write_file("/scaling/image", payload, block_size=APP_BLOCK)
        elapsed = time.perf_counter() - start
        assert client.read_file("/scaling/image") == payload
    return elapsed / (len(payload) // CHUNK) * 1e6


def instrumented_metrics(payload: bytes) -> dict:
    """Metrics snapshot of a small write with observability on."""
    with make_pool(SimilarityHeuristic.NONE) as pool:
        client = pool.client("bench")
        client.write_file("/scaling/probe", payload, block_size=APP_BLOCK)
        assert client.read_file("/scaling/probe") == payload
        return pool.metrics()["aggregate"]


def test_write_cost_per_chunk_stays_flat():
    rng = random.Random(12)
    payloads = {count: rng.randbytes(count * CHUNK) for count in CHUNK_COUNTS}
    rows = []
    results = {"chunk_size": CHUNK, "app_block": APP_BLOCK, "repetitions": REPETITIONS,
               "configs": {}}
    prior = set_enabled(False)
    try:
        for name, heuristic, gated in CONFIGS:
            write_cost_us(heuristic, payloads[CHUNK_COUNTS[0]])  # warm-up, untimed
            # Repetitions are interleaved across lengths so a drift in the
            # host's speed hits every length alike instead of skewing the ratio.
            samples = {count: [] for count in CHUNK_COUNTS}
            for _ in range(REPETITIONS):
                for count in CHUNK_COUNTS:
                    samples[count].append(write_cost_us(heuristic, payloads[count]))
            costs = {count: statistics.median(samples[count]) for count in CHUNK_COUNTS}
            growth = costs[CHUNK_COUNTS[-1]] / costs[CHUNK_COUNTS[0]]
            results["configs"][name] = {
                "us_per_chunk": {str(count): cost for count, cost in costs.items()},
                "growth": growth,
                "gated": gated,
            }
            rows.append({"config": name,
                         **{f"{count}_chunks_us": costs[count] for count in CHUNK_COUNTS},
                         "growth": f"{growth:.2f}x", "gated": gated})
    finally:
        set_enabled(prior)

    print_table("Per-chunk write cost vs. file length (in-process, observability off)",
                rows, note=f"16 KiB chunks, 256 KiB blocks, median of {REPETITIONS}; gate: default "
                           f"growth <= {MAX_GROWTH}x")
    write_bench_results(RESULTS_PATH, "write_scaling", results,
                        metrics=instrumented_metrics(payloads[CHUNK_COUNTS[0]]))
    growth = results["configs"]["default"]["growth"]
    assert growth <= MAX_GROWTH, (
        f"per-chunk write cost grew {growth:.2f}x from {CHUNK_COUNTS[0]} to "
        f"{CHUNK_COUNTS[-1]} chunks (gate {MAX_GROWTH}x)"
    )
