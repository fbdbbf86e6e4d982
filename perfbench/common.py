"""What every workload shares: the closed-loop recorder, the correctness
oracle, the per-run result and the derived metrics."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import (ActivationDenied, CredentialInvalid,
                                   InvocationDenied)

from .trace import LAYERS, merge_summaries

__all__ = ["DECISION_LIMIT_S", "REVOKE_LIMIT_S", "DENIALS", "Oracle",
           "Recorder", "Expect", "Window", "percentile", "median_setup",
           "layer_metrics"]

#: An invocation decision slower than this counts as failed.
DECISION_LIMIT_S = 0.100
#: A revocation not visible at the furthest dependent within this long
#: counts as failed.
REVOKE_LIMIT_S = 2.0


#: Exceptions that mean "refused" (netd re-raises remote ones as these).
_DENIALS = (ActivationDenied, InvocationDenied, CredentialInvalid)
#: Exception type names that mean "refused" (what a shard worker reports).
DENIALS = ("ActivationDenied", "InvocationDenied", "CredentialInvalid",
           "CredentialRevoked", "CredentialExpired", "SignatureInvalid")


class OracleViolation(AssertionError):
    """A credential refused after its revocation was granted again."""


@dataclass(frozen=True)
class Expect:
    """The generator's expected outcome for one request: a grant with
    ``value``, or a refusal.  ``credential`` names the credential whose
    revocation the request depends on, if any."""

    grant: bool
    value: Any = None
    credential: Optional[str] = None


class Oracle:
    """Checks every answer against the generator's expectation.

    A wrong grant or refusal is counted; a grant on a credential that a
    dependent has already refused after its revocation breaks the
    paper's core promise and raises :class:`OracleViolation`.
    """

    def __init__(self) -> None:
        self.wrong: List[str] = []
        self._refused: set = set()

    def check(self, expect: Expect, granted: bool, value: Any,
              what: str) -> bool:
        if granted and expect.credential in self._refused:
            raise OracleViolation(
                f"{what}: granted on {expect.credential} after a dependent "
                f"refused it following its revocation")
        if granted != expect.grant or (granted and value != expect.value):
            self.wrong.append(
                f"{what}: expected "
                f"{'grant ' + repr(expect.value) if expect.grant else 'deny'}"
                f", got {'grant ' + repr(value) if granted else 'deny'}")
            return False
        return True

    def refused_after_revoke(self, credential: str) -> None:
        self._refused.add(credential)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(round(share * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class Recorder:
    """Latency samples, attempts and failures of one timed window."""

    KINDS = ("decision", "activate", "revoke_visible")

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.samples: Dict[str, List[float]] = {kind: []
                                                for kind in self.KINDS}
        #: Completion time (perf_counter) of each sample, for slicing.
        self.stamps: Dict[str, List[float]] = {kind: []
                                               for kind in self.KINDS}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.revokes = 0

    def call(self, kind: Optional[str], expect: Expect, what: str,
             fn: Callable[..., Any], *args: Any, **kwargs: Any
             ) -> Optional[bool]:
        """Run one access decision; True = granted, False = refused,
        None = it raised something that is neither (counted failed)."""
        self.attempted += 1
        started = time.perf_counter()
        value = None
        try:
            value = fn(*args, **kwargs)
            granted: Optional[bool] = True
        except _DENIALS:
            granted = False
        except Exception as error:  # noqa: BLE001 - counted, not fatal
            if type(error).__name__ == "ShardRequestError" \
                    and getattr(error, "error_type", None) in DENIALS:
                granted = False
            else:
                granted = None
                self.errors.append(f"{what}: {type(error).__name__}: "
                                   f"{error}")
        elapsed = time.perf_counter() - started
        if granted is None:
            self.failed += 1
            return None
        if kind is not None:
            self.sample(kind, elapsed)
        ok = self.oracle.check(expect, granted, value, what)
        # The limit is on invocation decisions; a slow activation shows
        # in its own percentiles.
        slow = kind == "decision" and elapsed > DECISION_LIMIT_S
        if ok and slow:
            self.errors.append(f"{what}: took {elapsed * 1e3:.1f} ms")
        if not ok or slow:
            self.failed += 1
        return granted

    def revoke_visible(self, elapsed: Optional[float]) -> None:
        """One revocation: seconds until the furthest dependent refused,
        or None when it never did within :data:`REVOKE_LIMIT_S`."""
        self.attempted += 1
        self.revokes += 1
        if elapsed is None or elapsed > REVOKE_LIMIT_S:
            self.failed += 1
            self.errors.append(
                "revocation not visible" if elapsed is None
                else f"revocation visible after {elapsed:.3f} s")
            return
        self.sample("revoke_visible", elapsed)

    def sample(self, kind: str, elapsed: float) -> None:
        self.samples[kind].append(elapsed)
        self.stamps[kind].append(time.perf_counter())

    @property
    def correct(self) -> bool:
        return not self.oracle.wrong


#: A window is cut into this many equal slices; throughput and latency
#: percentiles are the median over slices, so one stall of the shared
#: host moves one slice, not the result.
SLICES = 10


@dataclass
class Window:
    """What one timed window produced, ready for reporting."""

    unit: str
    decision_kind: str
    started: float
    seconds: float
    #: Completion time of every op.
    marks: List[float]
    cpu_s: float
    peak_rss_kb: float
    recorder: Recorder
    setup_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.marks)

    def _slice_of(self, stamp: float) -> int:
        index = int((stamp - self.started) / self.seconds * SLICES)
        return min(max(index, 0), SLICES - 1)

    def sliced(self, kind: str, share: float) -> float:
        """Median over slices of each slice's ``share`` percentile."""
        buckets: List[List[float]] = [[] for _ in range(SLICES)]
        for stamp, value in zip(self.recorder.stamps[kind],
                                self.recorder.samples[kind]):
            buckets[self._slice_of(stamp)].append(value)
        return statistics.median(percentile(bucket, share)
                                 for bucket in buckets if bucket)

    def slice_rates(self) -> List[float]:
        """Ops completed per second in each slice."""
        counts = [0] * SLICES
        for mark in self.marks:
            counts[self._slice_of(mark)] += 1
        return [count * SLICES / self.seconds for count in counts]

    def throughput(self) -> float:
        """Median over slices of ops completed per second."""
        return statistics.median(self.slice_rates())

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "throughput_ops_s": self.throughput(),
            "decision_p50_ms": self.sliced(self.decision_kind, 0.50) * 1e3,
            "decision_p95_ms": self.sliced(self.decision_kind, 0.95) * 1e3,
            "cpu_ms_per_op": self.cpu_s / self.ops * 1e3,
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
        }


def median_setup(build: Callable[[], Any], close: Callable[[Any], None],
                 times: int) -> tuple:
    """Build ``times`` times, closing all but the last; returns the last
    build and the median build time in seconds."""
    durations: List[float] = []
    built = None
    for _ in range(times):
        if built is not None:
            close(built)
        started = time.perf_counter()
        built = build()
        durations.append(time.perf_counter() - started)
    return built, statistics.median(durations)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _span(merged: Dict[str, Any], key: str) -> List[int]:
    return merged["spans"].get(key, [0, 0, 0, 0, 0])


def _mean_us(rows: Sequence[List[int]], total: int = 1,
             count: int = 0) -> float:
    calls = sum(row[count] for row in rows)
    return _ratio(sum(row[total] for row in rows), calls) / 1e3


def layer_metrics(by_role: Dict[str, Dict[str, Any]], ops: int,
                  stats_delta: Dict[str, float],
                  server_roles: Sequence[str] = (),
                  worker_roles: Sequence[str] = ()
                  ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced window.

    ``by_role`` maps a process role (``client``, a node or worker name)
    to its :meth:`~perfbench.trace.Tracer.summary`; ``stats_delta`` holds
    the window's growth of the summed ``ServiceStats`` counters plus the
    ``pump.*`` / ``router.*`` counters the workload could read.
    Returns ``(json_metrics, detail)``: the numbers the benchmark
    declares per layer, and the per-call times that are only meaningful
    on workloads crossing that layer.
    """
    merged = merge_summaries(list(by_role.values()))
    counters = merged["counters"]
    client = by_role.get("client", merge_summaries([]))
    servers = merge_summaries([by_role[role] for role in server_roles
                               if role in by_role])
    workers = merge_summaries([by_role[role] for role in worker_roles
                               if role in by_role])

    def calls(summary: Dict[str, Any], key: str) -> int:
        return _span(summary, key)[0]

    service_keys = [f"core.service|{name}" for name in
                    ("activate_role", "invoke", "revoke",
                     "issue_appointment")]
    decision_rpcs = [_span(client, f"netd|rpc:{op}") for op in
                     ("invoke", "activate", "appoint", "revoke")]
    rpc_calls = sum(row[0] for row in decision_rpcs)
    rtt_us = _mean_us(decision_rpcs)
    exec_us = _mean_us([_span(servers, key) for key in service_keys],
                       total=4, count=3)
    frames = calls(merged, "netd|encode_frame")
    activations = calls(merged, "core.service|activate_role")
    revokes = stats_delta.get("revokes", 0)
    batches = stats_delta.get("pump.pushed_batches", 0)
    validations = sum(stats_delta.get(name, 0) for name in
                      ("validations_local", "callbacks_made", "cache_hits"))
    signs = calls(merged, "crypto|sign_fields")
    verifies = calls(merged, "crypto|verify_fields")
    matches = calls(merged, "core.engine|match_activation") \
        + calls(merged, "core.engine|match_authorization")
    certs = calls(merged, "core.wire|encode_certificate") \
        + calls(merged, "core.wire|decode_certificate")
    total_self = sum(merged["layer_self_ns"].values())

    metrics: Dict[str, float] = {
        "netd.frames_per_op": _ratio(frames, ops),
        "netd.bytes_per_frame": _ratio(counters.get("netd.frame_bytes", 0),
                                       frames),
        "netd.callback_rpcs_per_activation": _ratio(
            calls(merged, "netd|callback"), activations),
        "netd.events.batches_per_revoke": _ratio(batches, revokes),
        "netd.events.events_per_batch": _ratio(
            stats_delta.get("pump.pushed_events", 0), batches),
        "core.service.validations_per_activation": _ratio(
            validations, activations),
        "core.service.credentials_used_ratio": _ratio(
            counters.get("core.engine.credentials_used", 0),
            counters.get("core.engine.credentials_presented", 0)),
        "core.service.validation_cache_hit_ratio": _ratio(
            stats_delta.get("cache_hits", 0),
            stats_delta.get("cache_hits", 0)
            + stats_delta.get("callbacks_made", 0)),
        "core.service.sig_cache_hit_ratio": _ratio(
            stats_delta.get("sig_cache_hits", 0),
            stats_delta.get("sig_cache_hits", 0)
            + stats_delta.get("sig_verifications", 0)),
        "core.engine.matches_per_op": _ratio(matches, ops),
        "core.engine.match_us": _mean_us(
            [_span(merged, "core.engine|match_activation"),
             _span(merged, "core.engine|match_authorization")]),
        "crypto.signs_per_op": _ratio(signs, ops),
        "crypto.verifies_per_op": _ratio(verifies, ops),
        "core.wire.certs_per_rpc": _ratio(certs, rpc_calls + calls(
            merged, "netd|callback") + sum(
                calls(client, f"shard|{name}") for name in
                ("invoke", "activate_role", "revoke", "issue_rmcs_bulk"))),
        "events.broker.events_per_revoke": _ratio(
            stats_delta.get("broker.published_count", 0), revokes),
        "db.durable_commits_per_revoke": _ratio(
            counters.get("db.durable_commits", 0), revokes),
        "db.flushes_per_op": _ratio(calls(merged, "db|flush"), ops),
        "shard.router.cross_shard_batches_per_revoke": _ratio(
            stats_delta.get("router.cross_shard_batches_routed", 0),
            revokes),
        "trace.spans_per_op": _ratio(merged["span_count"], ops),
    }
    for layer in LAYERS:
        metrics[f"self_share.{layer}"] = 100.0 * _ratio(
            merged["layer_self_ns"].get(layer, 0), total_self)

    detail: Dict[str, float] = {
        "netd.rpc_rtt_us": rtt_us,
        "netd.server_exec_us": exec_us,
        "netd.transport_overhead_us": rtt_us - exec_us if rpc_calls else 0.0,
        "netd.frame_encode_us": _mean_us([_span(merged,
                                                "netd|encode_frame")]),
        "netd.frame_decode_us": _mean_us([_span(merged,
                                                "netd|decode_frame")]),
        "netd.callback_rtt_us": _mean_us([_span(merged, "netd|callback")]),
        "core.service.activate_us": _mean_us(
            [_span(merged, "core.service|activate_role")]),
        "core.service.invoke_us": _mean_us(
            [_span(merged, "core.service|invoke")]),
        "core.service.revoke_us": _mean_us(
            [_span(merged, "core.service|revoke")]),
        "crypto.sign_us": _mean_us([_span(merged, "crypto|sign_fields")]),
        "crypto.verify_us": _mean_us([_span(merged,
                                            "crypto|verify_fields")]),
        "core.wire.encode_us": _mean_us(
            [_span(merged, "core.wire|encode_certificate")]),
        "core.wire.decode_us": _mean_us(
            [_span(merged, "core.wire|decode_certificate")]),
        "events.broker.publish_batch_us": _mean_us(
            [_span(merged, "events.broker|publish_batch")]),
        "db.log_append_us": _mean_us([_span(merged, "db|log_append")]),
        "db.flush_us": _mean_us([_span(merged, "db|flush")]),
        "shard.router.request_rtt_us": _mean_us(
            [_span(client, f"shard|{name}") for name in
             ("invoke", "activate_role", "revoke", "issue_rmcs_bulk")]),
        "shard.worker.exec_us": _mean_us(
            [_span(workers, key) for key in service_keys],
            total=4, count=3),
    }
    for layer in LAYERS:
        detail[f"self_us_per_op.{layer}"] = _ratio(
            merged["layer_self_ns"].get(layer, 0), ops) / 1e3
    return metrics, detail
