"""One benchmark run: build the inputs, run epochs, assemble the result."""

from __future__ import annotations

import os
from collections import Counter
from typing import Optional, Tuple

from . import metrics, stats
from .probes import Probes
from .recorder import Recorder
from .tracer import Tracer
from .workloads import SCALES, WORKLOADS, make_workdir


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        root: str = ".", spans_path: Optional[str] = None) -> Tuple[dict, dict]:
    """Run ``workload`` for at least ``seconds`` of op time.

    Epochs repeat until the measured op time reaches ``seconds``; a plain
    run then takes more set-up samples.  With ``trace``, plain and traced
    epochs alternate until each mode has measured half of ``seconds``; the
    per-layer metrics come from the traced epochs and the tracing overhead
    from comparing the two.
    """
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = make_workdir(root)
    bench = WORKLOADS[workload](seed, SCALES[scale], workdir)  # inputs, untimed
    plain = Recorder()
    traced: Optional[Recorder] = None
    probes: Optional[Probes] = None
    if trace:
        seconds /= 2
        tracer = Tracer()
        traced = Recorder(tracer)
        probes = Probes(tracer)
    try:
        while (plain.epochs == 0 or plain.op_time < seconds
               or (traced is not None and traced.op_time < seconds)):
            bench.epoch(plain)
            if traced is not None:
                bench.epoch(traced, probes)
        if traced is None:
            bench.sample_setup(plain)
    finally:
        bench.cleanup()
        try:
            os.rmdir(workdir)
        except OSError:
            pass

    recorders = [plain] if traced is None else [plain, traced]
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    mismatches = [m for r in recorders for m in r.mismatches]
    e2e, tails = metrics.end_to_end(plain)
    if traced is None:
        values = {name: (e2e[name], unit) for name, unit in metrics.END_TO_END}
    else:
        layer = metrics.per_layer(traced, plain, traced.tracer.spans, probes)
        values = {name: (layer[name], unit) for name, unit in metrics.PER_LAYER}
        if spans_path is not None:
            traced.tracer.dump(spans_path)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    failures = sum((r.failures for r in recorders), Counter())
    report = {
        "workload": workload,
        "why": bench.why,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "epochs": {"plain": plain.epochs, "traced": traced.epochs if traced else 0},
        "end_to_end": {name: {"value": e2e[name], "unit": unit, **tails.get(name, {})}
                       for name, unit in metrics.REPORTED},
        "calls": dict(Counter(c.kind for c in plain.calls if c.ok)),
        "failed_op_ratio": failed / attempted if attempted else 0.0,
        "failures_by_type": dict(failures),
        "mismatches": mismatches[:20],
        "teardown_s": stats.median(plain.teardown_s),
        "journal_snapshots": plain.counters["snapshots"],
    }
    return result, report
