"""End-to-end OASIS benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ehr_read --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``ehr_read``, ``ehr_churn``, ``chain16_local`` and
``shard_mixed_2w`` (see ``perfbench/README.md``).  With ``--trace 0``
the last stdout line is a JSON object carrying the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics
of a traced window, and the spans are written under
``.perfbench/trace/``.  Lines before it print every metric by name and
unit for people.  The exit code is 1 when any access decision was wrong
and 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRANSPORTS = {"ehr_read": "loopback TCP", "ehr_churn": "loopback TCP",
              "chain16_local": "none (in-process)",
              "shard_mixed_2w": "multiprocessing pipes"}
WORKLOADS = tuple(TRANSPORTS)
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: Units of the metrics this benchmark prints.
UNITS = {
    "setup_s": "s", "throughput_ops_s": "1/s", "decision_p50_ms": "ms",
    "decision_p95_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}


def _prepare_environment(workload: str) -> None:
    """Import the sources in place, for this process and the served
    children, and pin the record store each workload is defined on."""
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (ROOT, os.environ.get("PYTHONPATH")) if part)
    os.environ.pop("OASIS_STORE_PATH", None)
    if workload == "ehr_churn":
        os.environ["OASIS_STORE_BACKEND"] = "sqlite"
    else:
        os.environ.pop("OASIS_STORE_BACKEND", None)


def _pin_to_one_cpu() -> None:
    """Run this process, and every thread and process it starts, on one
    CPU.  A workload's processes wait on each other in turn; on a shared
    virtual machine, waking a peer on another vCPU costs a variable delay
    that swung served and sharded throughput by up to 1.8x between runs,
    while on one CPU it is a local context switch."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _workload(name: str) -> Any:
    if name == "ehr_read":
        from perfbench.ehr import EhrRead
        return EhrRead()
    if name == "ehr_churn":
        from perfbench.ehr import EhrChurn
        return EhrChurn(os.path.join(STATE_DIR, "state"))
    if name == "chain16_local":
        from perfbench.chain import Chain16Local
        return Chain16Local()
    from perfbench.sharded import ShardMixed
    return ShardMixed()


def _report(name: str, seed: int, result: Dict[str, Any],
            trace: bool) -> Dict[str, Any]:
    """Print the human-readable report; return the JSON result line."""
    from perfbench.common import percentile
    from perfbench.layers import PER_LAYER
    window = result["window"]
    recorder = window.recorder
    # A traced run also ran an untraced half; its answers count too.
    recorders = [recorder] + ([result["plain"].recorder]
                              if "plain" in result else [])
    attempted = sum(each.attempted for each in recorders)
    failed = sum(each.failed for each in recorders)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"unit of work: {window.unit}  transport: {TRANSPORTS[name]}")
    if trace:
        units = dict(PER_LAYER)
        metrics = result["metrics"]
        lines = [(key, metrics[key], unit) for key, unit in PER_LAYER]
        lines += [(key, value, "us" if key.endswith("_us") else
                   "ms" if key.endswith("_ms") else "us/op")
                  for key, value in sorted(result["detail"].items())]
        lines.append(("setup_s", result["setup_s"], "s"))
    else:
        units = UNITS
        metrics = window.end_to_end()
        lines = [(key, value, units[key]) for key, value in metrics.items()]
    for kind in recorder.KINDS:
        samples = recorder.samples[kind]
        for share in (0.50, 0.95, 0.99) if samples else ():
            lines.append((f"{kind}_p{round(share * 100)}_ms (whole window)",
                          percentile(samples, share) * 1e3,
                          f"ms (n={len(samples)})"))
    lines.append(("failed_ratio", failed / max(1, attempted),
                  f"({failed}/{attempted})"))
    for key, value, unit in lines:
        print(f"  {key:<48} {value:>14.6f} {unit}")
    print("  throughput per slice (1/s): "
          + " ".join(f"{rate:.1f}" for rate in window.slice_rates()))
    for error in [line for each in recorders for line in each.errors][:5] \
            + recorder.oracle.wrong[:5]:
        print(f"  ! {error}")
    return {
        "correct": recorder.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repository sources under {SRC}", file=sys.stderr)
        return 2
    _prepare_environment(args.workload)
    _pin_to_one_cpu()
    from perfbench.common import OracleViolation
    from perfbench.harness import run_workload

    try:
        result = run_workload(
            _workload(args.workload), args.seed, args.seconds,
            bool(args.trace), os.path.join(STATE_DIR, "trace"))
    except OracleViolation as violation:
        print(f"  ! {violation}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    line = _report(args.workload, args.seed, result, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
