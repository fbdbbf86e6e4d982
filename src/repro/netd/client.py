"""Clients for the OASIS socket protocol.

Three layers, outermost first:

* :class:`AsyncOasisClient` — one TCP connection, request/response with
  correlation ids, optional challenge–response handshake, per-call
  deadlines.  Multiple in-flight requests are fine; a background reader
  task dispatches responses by id and routes event pushes.
* :class:`OasisClient` — the synchronous facade.  Wraps an async client
  on a shared :class:`~repro.netd.runtime.LoopThread` and exposes the
  service surface scenario code already speaks (``activate`` /
  ``invoke`` / ``revoke`` / ``is_active`` …), with certificates decoded
  back into real :mod:`repro.core` objects.
* :class:`RemoteNetwork` — the :class:`~repro.net.sim.SimNetwork`
  surface (``register``/``unregister``/``has_endpoint``/``call``) over
  sockets, so an :class:`~repro.core.service.OasisService` constructed
  with ``network=RemoteNetwork(...)`` performs Sect. 4 callback
  validation against *remote* issuers without a single changed line in
  the core.  Endpoint→peer routing is discovered lazily through each
  peer's ``services`` op and cached; unknown issuers simply report "no
  endpoint", which the service already treats as fail-closed.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import asyncio

from ..core import wire
from ..core.credentials import CredentialRef
from ..core.service import ActivationRequest, Presentation
from ..core.state import ref_payload
from ..core.types import PrincipalId
from ..crypto.challenge import ChallengeResponseClient, IssuedChallenge
from ..crypto.keys import KeyPair
from ..events import Event
from ..ops import activation_payload, presentation_payloads
from .protocol import (
    MAX_FRAME,
    ConnectionLost,
    OasisNetError,
    RpcTimeout,
    raise_remote_error,
    read_frame,
    send_frame,
)
from .runtime import LoopThread

__all__ = ["AsyncOasisClient", "OasisClient", "RemoteNetwork"]

CertificateLike = Union[Presentation, Any]


class AsyncOasisClient:
    """One connection to an :class:`~repro.netd.server.OasisServer`."""

    def __init__(self, host: str, port: int, *, peer: str = "server",
                 timeout: float = 10.0,
                 max_frame: int = MAX_FRAME) -> None:
        self.host = host
        self.port = port
        self.peer = peer
        self.timeout = timeout
        self.max_frame = max_frame
        self._ids = itertools.count(1)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._send_lock = asyncio.Lock()
        self._push_handler: Optional[
            Callable[[str, List[Event]], None]] = None
        self.principal: Optional[str] = None

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self) -> "AsyncOasisClient":
        if self._writer is not None:
            return self
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        except (ConnectionError, OSError) as error:
            raise ConnectionLost(
                f"cannot connect to {self.peer} at "
                f"{self.host}:{self.port}: {error}") from error
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())
        return self

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        task, self._reader_task = self._reader_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending(ConnectionLost(
            f"connection to {self.peer} closed"))

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _read_loop(self) -> None:
        reader = self._reader
        assert reader is not None
        try:
            while True:
                frame = await read_frame(reader, self.max_frame)
                if frame is None:
                    raise ConnectionLost(
                        f"{self.peer} closed the connection")
                if "push" in frame:
                    self._handle_push(frame)
                    continue
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - fan out to waiters
            if not isinstance(error, OasisNetError):
                error = ConnectionLost(
                    f"connection to {self.peer} failed: {error}")
            self._fail_pending(error)

    def _handle_push(self, frame: Dict[str, Any]) -> None:
        handler = self._push_handler
        if handler is None or frame.get("push") != "events":
            return
        origin = frame.get("origin", self.peer)
        events = [Event.from_payload(payload)
                  for payload in frame.get("events", ())]
        handler(origin, events)

    async def call(self, op: str, *, _timeout: Optional[float] = None,
                   **fields: Any) -> Any:
        """One RPC; returns the response value or raises.

        Transport failures raise :class:`~repro.netd.protocol`
        errors; remote handler failures re-raise as core exceptions or
        :class:`~repro.netd.protocol.RpcError`.  A deadline miss closes
        the connection — responses on it can no longer be trusted to
        match requests that may still be executing remotely.
        """
        if self._writer is None:
            await self.connect()
        assert self._writer is not None
        request_id = next(self._ids)
        message = {"id": request_id, "op": op}
        message.update(fields)
        future: "asyncio.Future[Dict[str, Any]]" = \
            asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._send_lock:
                await send_frame(self._writer, message, self.max_frame)
            timeout = self.timeout if _timeout is None else _timeout
            response = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            await self.close()
            raise RpcTimeout(
                f"{self.peer} did not answer {op!r} within {timeout}s"
            ) from None
        except OasisNetError:
            self._pending.pop(request_id, None)
            raise
        if response.get("ok"):
            return response.get("value")
        raise_remote_error(self.peer, response.get("error"))

    async def handshake(self, keypair: KeyPair) -> str:
        """Prove possession of ``keypair``'s private key (Sect. 4.1).

        Returns the key-derived principal identity the server will
        associate with this connection (``key:<fingerprint>``)."""
        public = keypair.public
        issued = await self.call("auth.hello",
                                 key={"n": str(public.n),
                                      "e": str(public.e)})
        response = ChallengeResponseClient(keypair).respond(IssuedChallenge(
            challenge_id=issued["challenge_id"],
            encrypted_challenge=bytes.fromhex(issued["challenge"]),
            nonce=bytes.fromhex(issued["nonce"])))
        proved = await self.call("auth.prove",
                                 challenge_id=issued["challenge_id"],
                                 response=response.hex())
        self.principal = proved["principal"]
        return self.principal

    async def subscribe_events(
            self, handler: Callable[[str, List[Event]], None]) -> None:
        """Receive the server's event pushes; ``handler(origin, events)``
        runs on this client's event loop."""
        self._push_handler = handler
        await self.call("subscribe_events")


class OasisClient:
    """Synchronous facade over :class:`AsyncOasisClient`.

    Owns a :class:`LoopThread` unless handed one to share; every method
    blocks the calling thread while the loop does the I/O, so it is safe
    to call from service worker threads (nested callback validation)
    and from plain scripts alike.
    """

    def __init__(self, host: str, port: int, *, peer: str = "server",
                 timeout: float = 10.0, max_frame: int = MAX_FRAME,
                 loop: Optional[LoopThread] = None) -> None:
        self._own_loop = loop is None
        self._loop = (loop or LoopThread(f"oasis-client-{peer}")).start()
        self._client = AsyncOasisClient(host, port, peer=peer,
                                        timeout=timeout,
                                        max_frame=max_frame)
        self.timeout = timeout

    @property
    def peer(self) -> str:
        return self._client.peer

    @property
    def principal(self) -> Optional[str]:
        return self._client.principal

    def _run(self, coro: Any) -> Any:
        # The outer grace period only matters if the loop itself wedges;
        # per-call deadlines are enforced inside AsyncOasisClient.
        return self._loop.run(coro, timeout=self.timeout + 30.0)

    def connect(self) -> "OasisClient":
        self._run(self._client.connect())
        return self

    def close(self) -> None:
        try:
            self._run(self._client.close())
        finally:
            if self._own_loop:
                self._loop.stop()

    def __enter__(self) -> "OasisClient":
        return self.connect()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- raw + auth ---------------------------------------------------------
    def call(self, op: str, *, _timeout: Optional[float] = None,
             **fields: Any) -> Any:
        return self._run(self._client.call(op, _timeout=_timeout, **fields))

    def handshake(self, keypair: KeyPair) -> str:
        return self._run(self._client.handshake(keypair))

    def subscribe_events(
            self, handler: Callable[[str, List[Event]], None]) -> None:
        self._run(self._client.subscribe_events(handler))

    # -- service surface ----------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.call("ping")

    def services(self) -> Dict[str, Any]:
        return self.call("services")

    def activate(self, service: str, principal: str, role: str,
                 parameters: Optional[Sequence[Any]] = None,
                 credentials: Sequence[CertificateLike] = (),
                 environment: Optional[Dict[str, Any]] = None,
                 session: Optional[str] = None) -> Any:
        request = activation_payload(ActivationRequest(
            PrincipalId(principal), role, parameters, credentials,
            environment, session))
        value = self.call("activate", service=service, request=request)
        return wire.decode_certificate(value["cert"])

    def activate_bulk(self, service: str,
                      requests: Sequence[Dict[str, Any]]) -> List[Any]:
        value = self.call("activate_bulk", service=service,
                          requests=list(requests))
        return [wire.decode_certificate(cert) for cert in value["certs"]]

    def appoint(self, service: str, appointer: str, name: str,
                parameters: Sequence[Any],
                credentials: Sequence[CertificateLike] = (),
                holder: Optional[str] = None,
                expires_at: Optional[float] = None) -> Any:
        value = self.call(
            "appoint", service=service, appointer=appointer, name=name,
            parameters=list(parameters),
            credentials=presentation_payloads(credentials),
            holder=holder, expires_at=expires_at)
        return wire.decode_certificate(value["cert"])

    def invoke(self, service: str, principal: str, method: str,
               arguments: Sequence[Any] = (),
               credentials: Sequence[CertificateLike] = ()) -> Any:
        value = self.call(
            "invoke", service=service, principal=principal, method=method,
            arguments=list(arguments),
            credentials=presentation_payloads(credentials))
        return value["result"]

    def revoke(self, ref: CredentialRef, reason: str = "revoked") -> bool:
        value = self.call("revoke", ref=ref_payload(ref), reason=reason)
        return bool(value["revoked"])

    def is_active(self, ref: CredentialRef) -> bool:
        value = self.call("is_active", ref=ref_payload(ref))
        return bool(value["active"])

    def record(self, ref: CredentialRef) -> Dict[str, Any]:
        return self.call("record", ref=ref_payload(ref))

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def spans(self, trace_id: Optional[str] = None,
              name: Optional[str] = None) -> List[Dict[str, Any]]:
        return self.call("spans", trace_id=trace_id, name=name)["spans"]

    def handler(self, name: str, payload: Any = None) -> Any:
        return self.call("handler", name=name, payload=payload)["result"]

    def checkpoint(self) -> None:
        self.call("checkpoint")

    def shutdown(self) -> None:
        """Ask the served process to exit gracefully."""
        self.call("shutdown")


class RemoteNetwork:
    """The :class:`~repro.net.sim.SimNetwork` surface over TCP.

    A served process hands this to every hosted
    :class:`~repro.core.service.OasisService` as its ``network``; local
    services land in ``_local`` (the server dispatches inbound
    ``validate`` ops there), and foreign issuers are reached through
    per-peer :class:`OasisClient` connections with lazily discovered
    ``(domain, endpoint) -> peer`` routes.

    Only the callback-validation protocol travels here — ``call`` expects
    the adapter's ``(certificate, principal_value, holder)`` argument
    shape, which is the entire surface :class:`ValidationTransport`
    needs.
    """

    def __init__(self, node: str = "client",
                 peers: Optional[Mapping[str, Tuple[str, int]]] = None,
                 loop: Optional[LoopThread] = None,
                 timeout: float = 10.0,
                 max_frame: int = MAX_FRAME) -> None:
        self.node = node
        self._peers: Dict[str, Tuple[str, int]] = dict(peers or {})
        self._own_loop = loop is None
        self._loop = loop or LoopThread(f"oasis-net-{node}")
        self._timeout = timeout
        self._max_frame = max_frame
        self._local: Dict[Tuple[str, str], Callable[..., Any]] = {}
        self._clients: Dict[str, OasisClient] = {}
        self._routes: Dict[Tuple[str, str], str] = {}

    def add_peer(self, name: str, host: str, port: int) -> None:
        self._peers[name] = (host, port)

    # -- SimNetwork surface -------------------------------------------------
    def register(self, domain: str, name: str,
                 handler: Callable[..., Any]) -> None:
        key = (domain, name)
        if key in self._local:
            raise ValueError(f"endpoint {domain}/{name} already registered")
        self._local[key] = handler

    def unregister(self, domain: str, name: str) -> None:
        self._local.pop((domain, name), None)

    def has_endpoint(self, domain: str, name: str) -> bool:
        key = (domain, name)
        if key in self._local:
            return True
        return self._route(key) is not None

    def call(self, src_domain: str, dst_domain: str, name: str,
             *args: Any, **kwargs: Any) -> Any:
        """Callback-validation RPC (the :class:`ValidationTransport`
        protocol); local endpoints short-circuit without touching a
        socket."""
        key = (dst_domain, name)
        local = self._local.get(key)
        if local is not None:
            return local(*args, **kwargs)
        peer = self._route(key)
        if peer is None:
            raise OasisNetError(
                f"{self.node}: no peer hosts endpoint "
                f"{dst_domain}/{name}")
        certificate, principal_value, holder = args
        value = self._client(peer).call(
            "validate", domain=dst_domain, endpoint=name,
            cert=wire.encode_certificate(certificate),
            principal=principal_value, holder=holder)
        return value.get("valid", True)

    # -- server-side helpers ------------------------------------------------
    def local_call(self, domain: str, name: str, *args: Any) -> Any:
        """Dispatch an inbound ``validate`` op to a local handler."""
        handler = self._local.get((domain, name))
        if handler is None:
            raise KeyError(f"{self.node} hosts no endpoint {domain}/{name}")
        return handler(*args)

    def local_endpoints(self) -> List[Dict[str, str]]:
        """What this node advertises through the ``services`` op."""
        return [{"domain": domain, "endpoint": name}
                for domain, name in self._local]

    # -- routing ------------------------------------------------------------
    def _route(self, key: Tuple[str, str]) -> Optional[str]:
        route = self._routes.get(key)
        if route is not None:
            return route
        # Lazy discovery: ask every configured peer what it hosts.  A
        # miss is NOT negative-cached — at boot a peer may register its
        # services moments after we first ask.
        for peer in self._peers:
            try:
                advertised = self._client(peer).services()
            except OasisNetError:
                continue
            for entry in advertised.get("endpoints", ()):
                entry_key = (entry["domain"], entry["endpoint"])
                self._routes.setdefault(entry_key, peer)
        return self._routes.get(key)

    def _client(self, peer: str) -> OasisClient:
        client = self._clients.get(peer)
        if client is None:
            host, port = self._peers[peer]
            client = OasisClient(host, port, peer=peer,
                                 timeout=self._timeout,
                                 max_frame=self._max_frame,
                                 loop=self._loop.start())
            self._clients[peer] = client
        return client

    def close(self) -> None:
        for client in self._clients.values():
            try:
                client.close()
            except OasisNetError:
                pass
        self._clients.clear()
        if self._own_loop:
            self._loop.stop()
