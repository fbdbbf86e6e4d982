"""Shard worker: one process hosting one partition of the universe.

A worker holds a *full replica of the policy world* (every service's
rules, methods and secrets are rebuilt locally by the world factory) but
only *its partition of the security state*: each service gets a
:class:`~repro.shard.partition.ShardedRefAllocator`, so every credential
record a worker holds has a ref that hashes to its own shard.  Requests
reach the worker as small dict messages over a ``multiprocessing`` pipe
and run through the shared op table of :mod:`repro.ops`; the worker adds
only the pipe's own vocabulary (``issue_bulk``, ``live_count``,
``bus.*``) and the cross-shard links of newly issued certificates.
Certificates cross as :mod:`repro.core.wire` payloads, events as
:meth:`~repro.events.messages.Event.to_payload` dicts, and CRRs as
:func:`~repro.core.state.ref_payload` dicts — nothing process-local ever
crosses the boundary, which is what lets the interned
``ServiceId``/``RoleName`` ``__reduce__`` paths land ``is``-identical on
the far side.

The worker never talks to its siblings directly: outgoing cross-shard
messages (link registrations, coalesced cascade batches) accumulate on
its :class:`~repro.shard.bus.CrossShardBus` and ride back to the
coordinator on the next response's ``bus`` field; the coordinator routes
them (see :mod:`repro.shard.router`).  That keeps the worker loop a pure
request/response automaton — no cross-worker deadlocks by construction.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..core import wire
from ..core.credentials import CredentialRef
from ..core.policy import ServicePolicy
from ..core.service import OasisService, ServiceRegistry
from ..core.state import ServiceStateCodec, ref_from_payload
from ..core.types import PrincipalId, Role, RoleName
from ..db import default_store
from ..obs import runtime
from ..obs.runtime import Observability
from ..ops import OpHost, error_payload
from .bus import CrossShardBus, ShardBroker
from .partition import ShardedRefAllocator, shard_of_ref

__all__ = ["ShardContext", "ShardWorker", "worker_main"]


class ShardContext:
    """What a world factory needs to build shard-correct services."""

    def __init__(self, shard: int, shards: int, broker: ShardBroker,
                 registry: ServiceRegistry,
                 clock: Callable[[], float] = lambda: 0.0) -> None:
        self.shard = shard
        self.shards = shards
        self.broker = broker
        self.bus = broker.bus
        self.registry = registry
        self.clock = clock

    def allocator(self, policy: ServicePolicy) -> ShardedRefAllocator:
        return ShardedRefAllocator(policy.service, self.shard, self.shards)

    def store(self, policy: ServicePolicy) -> Optional[Any]:
        """The env-selected record store for one service, shard-templated.

        In sharded mode the sqlite backend *requires* a durable
        ``OASIS_STORE_PATH`` template (see :mod:`repro.db`) — this is
        where that strictness bites.
        """
        return default_store(ServiceStateCodec(), shard=self.shard,
                             service=str(policy.service))

    def service(self, policy: ServicePolicy, **kwargs: Any) -> OasisService:
        """Build an :class:`OasisService` wired for this shard."""
        kwargs.setdefault("clock", self.clock)
        kwargs.setdefault("store", self.store(policy))
        return OasisService(policy, self.broker, self.registry,
                            allocator=self.allocator(policy),
                            **kwargs)

    # -- cross-shard dependency edges ---------------------------------------
    def owner_of(self, ref: CredentialRef) -> int:
        return shard_of_ref(ref, self.shards)

    def link_dependencies(self,
                          dependencies: Sequence[CredentialRef]) -> None:
        """Register this shard as a dependent holder with each foreign
        dependency's owner (no-op for locally owned deps)."""
        for dep in dependencies:
            owner = shard_of_ref(dep, self.shards)
            if owner != self.shard:
                self.bus.link_dependency(dep.qualified, owner)


class ShardWorker(OpHost):
    """The request-dispatching core of one shard worker.

    Usable in-process (deterministic tests drive :meth:`dispatch`
    directly) or as the engine of a child process (:func:`worker_main`).
    The world ``factory`` is a module-level callable following the world
    contract of :mod:`repro.ops`; its ``ctx`` is a :class:`ShardContext`.
    """

    def __init__(self, shard: int, shards: int,
                 factory: Callable[..., Any],
                 factory_args: Sequence[Any] = (),
                 observed: bool = False) -> None:
        self.shard = shard
        self.shards = shards
        # Per-worker pipeline with shard-prefixed span ids: workers mint
        # globally unique ids that the coordinator can merge.  Services
        # snapshot the pipeline at construction, so it is installed only
        # while the world is built.
        pipeline = (Observability(trace_id_prefix=f"w{shard}.")
                    if observed else None)
        with runtime.observed(pipeline) if pipeline is not None \
                else nullcontext():
            self.bus = CrossShardBus(shard, shards)
            self.broker = ShardBroker(self.bus)
            self.registry = ServiceRegistry()
            self.context = ShardContext(shard, shards, self.broker,
                                        self.registry)
            self.world = factory(self.context, *factory_args)
        super().__init__(self.world.services,
                         getattr(self.world, "handlers", None), pipeline)

    # -- operations ---------------------------------------------------------
    def dispatch(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Execute one request; always returns a response dict carrying
        the drained cross-shard outbox (even on error — a failed batch
        may have produced partial forwards that must still settle)."""
        self.requests += 1
        try:
            value = self._execute(message)
            response: Dict[str, Any] = {"seq": message.get("seq"),
                                        "ok": True, "value": value}
        except Exception as error:  # noqa: BLE001 - crosses the pipe
            response = {"seq": message.get("seq"), "ok": False,
                        "error": error_payload(error)}
        response["bus"] = self.bus.drain()
        return response

    def _execute(self, message: Mapping[str, Any]) -> Any:
        op = message["op"]
        if op == "issue_bulk":
            return self._op_issue_bulk(message)
        if op == "live_count":
            return {"counts": {key: len(service.active_credentials())
                               for key, service in self.services.items()}}
        if op == "bus.cascade":
            return {"delivered":
                    self.broker.deliver_remote(message["events"])}
        if op == "bus.link":
            return {"registered": self.bus.register_remote_links(
                (ref, int(shard)) for ref, shard in message["links"])}
        if op == "ping":
            return {"shard": self.shard}
        if op == "shutdown":  # the child loop exits after replying
            return None
        return self.execute(op, message)

    def _op_issue_bulk(self, message: Mapping[str, Any]) -> Any:
        service = self.service(message["service"])
        entries = []
        all_deps: List[CredentialRef] = []
        for entry in message["entries"]:
            dependencies = tuple(ref_from_payload(dep)
                                 for dep in entry.get("dependencies", ()))
            all_deps.extend(dependencies)
            role = Role(RoleName(service.id, entry["role"]),
                        tuple(entry.get("parameters", ())))
            entries.append((PrincipalId(entry["principal"]), role,
                            dependencies, entry.get("session")))
        certificates = service.issue_rmcs_bulk(entries)
        self.context.link_dependencies(all_deps)
        return {"certs": [wire.encode_certificate(certificate)
                          for certificate in certificates]}

    def activated(self, service: OasisService,
                  certificates: Sequence[Any]) -> None:
        """Register this shard with the owners of any foreign membership
        dependency of the fresh RMCs (the cross-shard Fig. 5 edges)."""
        for certificate in certificates:
            record = service.credential_record(certificate.ref)
            if record is not None and record.membership_dependencies:
                self.context.link_dependencies(
                    record.membership_dependencies)

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        # ``revocations`` already includes the cascaded ones;
        # ``cascade_revocations`` is the subset, not an addend.
        revocations = sum(snapshot.get("revocations", 0)
                          for snapshot in stats["services"].values())
        broker_stats = self.broker.stats()
        stats.update({
            "shard": self.shard,
            "revocations": revocations,
            "events_published": broker_stats.get("published_count", 0),
            "broker": broker_stats,
            "bus": self.bus.stats(),
        })
        return stats


def worker_main(conn: Any, shard: int, shards: int,
                factory: Callable[..., Any], factory_args: Sequence[Any],
                observed: bool) -> None:
    """Child-process entry point: build the worker, serve the pipe."""
    try:
        worker = ShardWorker(shard, shards, factory, factory_args,
                             observed=observed)
    except Exception as error:  # noqa: BLE001 - surface construction failure
        conn.send({"seq": None, "ok": False,
                   "error": error_payload(error), "bus": []})
        conn.close()
        return
    conn.send({"seq": None, "ok": True, "value": {"shard": shard},
               "bus": []})
    try:
        while True:
            message = conn.recv()
            conn.send(worker.dispatch(message))
            if message.get("op") == "shutdown":
                break
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()
