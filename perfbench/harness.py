"""Run one workload: repeated set-up, the timed closed loop, and the
traced window that yields the per-layer numbers."""

from __future__ import annotations

import os
import random
import shutil
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from .common import Oracle, Recorder, Window, layer_metrics, median_setup
from .trace import Tracer, process_usage

__all__ = ["Deployment", "Workload", "run_workload"]


class Deployment:
    """A built workload: its processes, counters and trace switches.

    The base class is the in-process case (only the client exists);
    served and sharded deployments add their remote processes.
    """

    server_roles: Sequence[str] = ()
    worker_roles: Sequence[str] = ()

    def __init__(self) -> None:
        self._tracer: Optional[Tracer] = None

    def remote_usage(self) -> List[Dict[str, float]]:
        return []

    def usage(self) -> Dict[str, float]:
        """Summed CPU seconds and peak RSS (KiB) of every process."""
        rows = [process_usage()] + self.remote_usage()
        return {"cpu_s": sum(row["cpu_s"] for row in rows),
                "maxrss_kb": sum(row["maxrss_kb"] for row in rows)}

    def counters(self) -> Dict[str, float]:
        """Summed ServiceStats plus broker/pump/router counters."""
        return {}

    def remote_trace(self, payload: Dict[str, Any]
                     ) -> Dict[str, Dict[str, Any]]:
        return {}

    def trace_start(self) -> None:
        self.remote_trace({"action": "start"})
        self._tracer = Tracer().install()

    def trace_stop(self, directory: str) -> Dict[str, Dict[str, Any]]:
        tracer, self._tracer = self._tracer, None
        assert tracer is not None
        tracer.uninstall()
        tracer.write(os.path.join(directory, "client.spans.jsonl"))
        summaries = self.remote_trace({"action": "stop", "dir": directory})
        summaries["client"] = tracer.summary()
        return summaries

    def close(self) -> None:
        pass


class Workload:
    """One named traffic mix over one deployment.

    Subclasses set ``unit`` (what one op is), ``setup_repeats``, and
    implement :meth:`build` and :meth:`loops`; a loop function performs
    one op (recording into the recorder) per call.
    """

    unit = "op"
    setup_repeats = 3
    #: Which latency samples ``decision_p50_ms`` / ``_p95_ms`` report.
    decision_kind = "decision"

    def build(self) -> Deployment:
        raise NotImplementedError

    def loops(self, deployment: Deployment, rng: random.Random,
              recorder: Recorder) -> List[Callable[[], None]]:
        raise NotImplementedError

    def hop_probes(self, deployment: Deployment,
                   recorder: Recorder) -> Dict[str, float]:
        """Traced-run-only probes (e.g. per-hop event latency), checked
        by the run's oracle through ``recorder``."""
        return {}


def _drive(loop: Callable[[], None], deadline: float,
           marks: List[float]) -> None:
    clock = time.perf_counter
    while clock() < deadline:
        loop()
        marks.append(clock())


def _window(workload: Workload, deployment: Deployment, rng: random.Random,
            seconds: float, oracle: Oracle) -> Window:
    recorder = Recorder(oracle)
    loops = workload.loops(deployment, rng, recorder)
    before = deployment.usage()
    marks: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    if len(loops) == 1:
        _drive(loops[0], deadline, marks)
    else:
        threads = [threading.Thread(target=_drive,
                                    args=(loop, deadline, marks))
                   for loop in loops]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - started
    after = deployment.usage()
    return Window(unit=workload.unit, decision_kind=workload.decision_kind,
                  started=started, seconds=elapsed, marks=marks,
                  cpu_s=after["cpu_s"] - before["cpu_s"],
                  peak_rss_kb=after["maxrss_kb"], recorder=recorder)


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, trace_dir: str) -> Dict[str, Any]:
    """Set up, measure and (with ``trace``) trace one workload."""
    rng = random.Random(seed)
    deployment, setup_s = median_setup(
        workload.build, lambda built: built.close(), workload.setup_repeats)
    oracle = Oracle()
    try:
        if not trace:
            window = _window(workload, deployment, rng, seconds, oracle)
            window.setup_s = setup_s
            return {"window": window}
        # Half untraced, half traced on the same deployment: the
        # difference in time per op is the tracing overhead.
        plain = _window(workload, deployment, rng, seconds / 2, oracle)
        shutil.rmtree(trace_dir, ignore_errors=True)
        before = deployment.counters()
        deployment.trace_start()
        traced = _window(workload, deployment, rng, seconds / 2, oracle)
        summaries = deployment.trace_stop(trace_dir)
        after = deployment.counters()
        delta = {key: after.get(key, 0) - before.get(key, 0)
                 for key in after}
        delta["revokes"] = traced.recorder.revokes
        metrics, detail = layer_metrics(
            summaries, traced.ops, delta,
            server_roles=deployment.server_roles,
            worker_roles=deployment.worker_roles)
        plain_rate = plain.ops / plain.seconds
        traced_rate = traced.ops / traced.seconds
        metrics["trace.overhead_pct"] = 100.0 * (
            plain_rate / traced_rate - 1.0) if traced_rate else 0.0
        detail.update(workload.hop_probes(deployment, Recorder(oracle)))
        return {"window": traced, "plain": plain,
                "metrics": metrics, "detail": detail, "setup_s": setup_s}
    finally:
        deployment.close()
