"""Run one stdchk benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ckpt_restart --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of a plain run.  ``--trace 1``
alternates plain and traced epochs (each mode measures half of
``--seconds``) and prints the per-layer metrics; the spans are written to
``perfbench/out/spans-<workload>-<seed>.json.gz``.  The last line of standard
output is the result object; the line before it is a report with the run's
provenance, tail percentiles and failure counts.  The exit code is 1 when any
read, namespace answer or recovered commit was wrong, 2 when the program
under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def _git_commit() -> str:
    """HEAD of the checkout (git never looks above it); '' if there is none."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from stdchk_bench.runner import run

    spans_path = None
    if args.trace:
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        spans_path = os.path.join(out, f"spans-{args.workload}-{args.seed}.json.gz")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         root=ROOT, spans_path=spans_path)
    report.update({
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    })
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
