"""Spans around calls into each layer, recorded from outside the program.

Nothing in ``repro`` is edited: :class:`Tracer` replaces a layer's public
functions and methods with timing wrappers while a traced window runs
and puts the originals back afterwards.  A module-level function is
replaced wherever it is bound (``from x import f`` copies included), a
method on its class.  Each wrapped call records one span
``(span_id, parent_id, layer, name, start_ns, end_ns)``; parents are
tracked per thread, so a layer's self time is its spans' time minus the
time of the child spans they contain.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.

Served children and shard workers run their own :class:`ProcessProbe`,
reached through a world handler, so every process of a workload traces
the same points and reports a JSON-safe :meth:`Tracer.summary`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "Tracer", "ProcessProbe", "process_usage",
           "merge_summaries"]

#: The repository modules the benchmark reports on, outermost first.
LAYERS = ("netd", "shard", "core.service", "core.engine", "core.wire",
          "crypto", "events.broker", "db")


def process_usage() -> Dict[str, float]:
    """CPU seconds and peak RSS (KiB) of the calling process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": float(usage.ru_maxrss)}


# -- counters fed by individual wrap points ----------------------------------

def _count_frame_bytes(tracer: "Tracer", args: tuple, kwargs: dict,
                       result: Any) -> None:
    tracer.add("netd.frame_bytes", len(result))


def _count_match_credentials(tracer: "Tracer", args: tuple, kwargs: dict,
                             result: Any) -> None:
    # match_activation/match_authorization(self, rule, params, presented..)
    if result is None:
        return
    match = result[0] if isinstance(result, tuple) else result
    tracer.add("core.engine.credentials_used",
               len(match.credentials_used()))
    tracer.add("core.engine.credentials_presented", len(args[3]))


def _count_durable(tracer: "Tracer", args: tuple, kwargs: dict,
                   result: Any) -> None:
    # SqliteRecordStore.log_append(self, entry, durable=False)
    durable = kwargs.get("durable", args[2] if len(args) > 2 else False)
    if durable:
        tracer.add("db.durable_commits", 1)


def _rpc_name(args: tuple, kwargs: dict) -> str:
    # OasisClient.call(self, op, ...)
    return f"rpc:{args[1]}"


def _wrap_points() -> List[Tuple[str, Any, str, str, Any, Any]]:
    """``(layer, owner, attribute, span name, name_fn, on_call)`` for
    every traced call; ``owner`` is a class or a module."""
    from repro.core import engine, service, wire
    from repro.crypto import hmac_sig
    from repro.db import sqlite_store
    from repro.events import broker
    from repro.netd import client, protocol
    from repro.shard import router

    return [
        ("netd", client.OasisClient, "call", "rpc", _rpc_name, None),
        ("netd", client.RemoteNetwork, "call", "callback", None, None),
        ("netd", protocol, "encode_frame", "encode_frame", None,
         _count_frame_bytes),
        ("netd", protocol, "decode_body", "decode_frame", None, None),
        ("shard", router.ShardRouter, "invoke", "invoke", None, None),
        ("shard", router.ShardRouter, "activate_role", "activate_role",
         None, None),
        ("shard", router.ShardRouter, "revoke", "revoke", None, None),
        ("shard", router.ShardRouter, "issue_rmcs_bulk", "issue_rmcs_bulk",
         None, None),
        ("core.service", service.OasisService, "activate_role",
         "activate_role", None, None),
        ("core.service", service.OasisService, "invoke", "invoke", None,
         None),
        ("core.service", service.OasisService, "revoke", "revoke", None,
         None),
        ("core.service", service.OasisService, "issue_appointment",
         "issue_appointment", None, None),
        ("core.engine", engine.RuleEngine, "match_activation",
         "match_activation", None, _count_match_credentials),
        ("core.engine", engine.RuleEngine, "match_authorization",
         "match_authorization", None, _count_match_credentials),
        ("core.wire", wire, "encode_certificate", "encode_certificate",
         None, None),
        ("core.wire", wire, "decode_certificate", "decode_certificate",
         None, None),
        ("crypto", hmac_sig, "sign_fields", "sign_fields", None, None),
        ("crypto", hmac_sig, "verify_fields", "verify_fields", None, None),
        ("events.broker", broker.EventBroker, "publish_batch",
         "publish_batch", None, None),
        ("db", sqlite_store.SqliteRecordStore, "log_append", "log_append",
         None, _count_durable),
        ("db", sqlite_store.SqliteRecordStore, "flush", "flush", None,
         None),
    ]


class Tracer:
    """In-memory spans and counters for one process's traced window."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, str, int, int]] = []
        self.counters: Dict[str, float] = {}
        # Frames are encoded on event-loop threads while services run on
        # their worker thread: counter updates need the lock.
        self._counters_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------
    def add(self, counter: str, amount: float) -> None:
        with self._counters_lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable[..., Any],
             name_fn: Optional[Callable[[tuple, dict], str]] = None,
             on_call: Optional[Callable[..., None]] = None
             ) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, layer,
                     name if name_fn is None else name_fn(args, kwargs),
                     start, end))
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing ---------------------------------------------------------
    def install(self) -> "Tracer":
        """Replace every wrap point in this process (idempotent per
        tracer; :meth:`uninstall` restores the originals)."""
        if self._undo:
            return self
        for layer, owner, attr, name, name_fn, on_call in _wrap_points():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = self.wrap(layer, name, original, name_fn, on_call)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapped)
            else:
                self._replace_everywhere(original, wrapped)
        return self

    def _replace(self, owner: Any, attr: str, original: Any,
                 wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _replace_everywhere(self, original: Any, wrapped: Any) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, original, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting ----------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per ``layer|name``: ``[calls, total_ns, self_ns, top_calls,
        top_ns]`` (top = no traced parent in this thread), plus per-layer
        self time and the counters."""
        child_ns: Dict[int, int] = {}
        for _span_id, parent, _layer, _name, start, end in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        spans: Dict[str, List[int]] = {}
        layer_self: Dict[str, int] = {}
        for span_id, parent, layer, name, start, end in self.spans:
            duration = end - start
            own = duration - child_ns.get(span_id, 0)
            row = spans.setdefault(f"{layer}|{name}", [0, 0, 0, 0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += own
            if not parent:
                row[3] += 1
                row[4] += duration
            layer_self[layer] = layer_self.get(layer, 0) + own
        return {"spans": spans, "layer_self_ns": layer_self,
                "counters": dict(self.counters),
                "span_count": len(self.spans)}

    def write(self, path: str) -> None:
        """Dump every span as one JSON array per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def merge_summaries(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Add up :meth:`Tracer.summary` results from several processes."""
    merged: Dict[str, Any] = {"spans": {}, "layer_self_ns": {},
                              "counters": {}, "span_count": 0}
    for summary in summaries:
        for key, row in summary["spans"].items():
            target = merged["spans"].setdefault(key, [0, 0, 0, 0, 0])
            for index, value in enumerate(row):
                target[index] += value
        for table in ("layer_self_ns", "counters"):
            for key, value in summary[table].items():
                merged[table][key] = merged[table].get(key, 0) + value
        merged["span_count"] += summary["span_count"]
    return merged


class ProcessProbe:
    """World handlers a benchmark-owned factory adds to a served node or
    shard worker: ``perfbench.usage`` and ``perfbench.trace``."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.tracer: Optional[Tracer] = None

    def handlers(self) -> Dict[str, Callable[[Any], Any]]:
        return {"perfbench.usage": lambda _payload: process_usage(),
                "perfbench.trace": self.trace}

    def trace(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``{"action": "start"}`` installs the wrappers;
        ``{"action": "stop", "dir": path}`` removes them, writes this
        process's spans under ``path`` and returns the summary."""
        if payload["action"] == "start":
            self.tracer = Tracer().install()
            return {}
        tracer, self.tracer = self.tracer, None
        if tracer is None:
            raise RuntimeError(f"{self.role}: trace stop without start")
        tracer.uninstall()
        tracer.write(os.path.join(payload["dir"],
                                  f"{self.role}.spans.jsonl"))
        return tracer.summary()
