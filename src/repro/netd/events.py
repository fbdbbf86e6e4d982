"""Cross-process event channel: Fig. 5 revocation over real sockets.

Two halves:

* :class:`EventPump` — server side.  Taps the process-local
  :class:`~repro.events.EventBroker` and pushes every *locally-minted*
  event to subscribed connections as ``{"push": "events", ...}``
  frames, one per cascade.  Events whose attributes carry
  ``net_origin`` arrived from another process and are **not** forwarded
  — that single rule is the loop-breaker that lets two servers
  subscribe to each other (or a chain P1→P2→P3 relay hop by hop)
  without an event ping-ponging forever: each process re-broadcasts
  only the *consequences* it computed locally (its own cascade
  revocations), never the stimulus it received.

* :class:`EventChannel` — client side.  Holds a persistent connection
  to one peer server, issues ``subscribe_events``, and republishes every
  pushed event into a local delivery function after stamping
  ``net_origin=<peer>``.  The span context riding on the events
  (``trace_id``/``span_id`` attributes) crosses untouched, which is what
  lets a multi-process cascade stitch into ONE trace tree.  On
  connection loss the channel reconnects with exponential backoff and
  resubscribes — a restarted issuer keeps feeding its dependants
  without operator action.

Both halves deal only in :meth:`~repro.events.messages.Event.to_payload`
dicts on the wire — the same JSON-faithful encoding the crash journal
uses, so anything that can be journalled can cross a process boundary.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from ..events import Event, EventBroker
from .protocol import MAX_FRAME, OasisNetError, read_frame, send_frame

__all__ = ["NET_ORIGIN", "EventPump", "EventChannel"]

#: Attribute stamped on republished remote events; its presence means
#: "arrived over the wire — do not forward again".
NET_ORIGIN = "net_origin"


class EventPump:
    """Collects locally-minted broker events and pushes each cascade's
    events to subscribed connections as one frame.

    The broker delivers on the server's worker thread (service handlers
    run there); the tap only *appends to a list* on that thread, so it
    adds O(1) work per event to the revocation hot path regardless of
    subscriber count.  When the broker's outermost drain ends — the
    cascade one top-level publish caused is complete, nested publishes
    included — the drain hook seals the list as one batch and schedules
    a flush on the event loop with a single ``call_soon_threadsafe``.
    Every batch leaves as one push frame, in drain order, the moment
    its cascade ends.
    """

    def __init__(self, node: str, loop: asyncio.AbstractEventLoop,
                 max_frame: int = MAX_FRAME) -> None:
        self.node = node
        self._loop = loop
        self._max_frame = max_frame
        # Worker thread only: the cascade being drained right now.
        self._pending: List[Dict[str, Any]] = []
        # Sealed batches: appended by the worker thread, popped on the
        # loop (deque append/popleft are atomic).
        self._ready: Deque[List[Dict[str, Any]]] = deque()
        self._flushes: Set["asyncio.Task[int]"] = set()
        self._senders: Dict[int, Callable[[Dict[str, Any]],
                                          "asyncio.Future[Any]"]] = {}
        self._next_key = 0
        self._unhook: List[Callable[[], None]] = []
        self.pushed_events = 0
        self.pushed_batches = 0
        self.skipped_events = 0
        self.dropped_events = 0

    def attach(self, broker: EventBroker) -> None:
        self._unhook = [broker.add_tap(self._tap),
                        broker.add_drain_hook(self._drained)]

    def detach(self) -> None:
        for remove in self._unhook:
            remove()
        self._unhook = []

    @property
    def subscriber_count(self) -> int:
        return len(self._senders)

    def subscribe(self, sender: Callable[[Dict[str, Any]],
                                         "asyncio.Future[Any]"]) -> int:
        """Register an async send callable; returns an unsubscribe key."""
        self._next_key += 1
        self._senders[self._next_key] = sender
        return self._next_key

    def unsubscribe(self, key: int) -> None:
        self._senders.pop(key, None)

    # -- broker tap and drain hook (worker thread) --------------------------
    def _tap(self, event: Event) -> None:
        if event.get(NET_ORIGIN) is not None:
            self.skipped_events += 1
            return
        try:
            payload = dict(event.to_payload())
        except TypeError:
            # Non-JSON-native attribute values cannot cross a process
            # boundary; such events are process-local by construction.
            self.skipped_events += 1
            return
        self._pending.append(payload)

    def _drained(self) -> None:
        if not self._pending:
            return
        self._ready.append(self._pending)
        self._pending = []
        self._loop.call_soon_threadsafe(self._start_flush)

    # -- flush (event loop) -------------------------------------------------
    def _start_flush(self) -> None:
        task = self._loop.create_task(self.flush())
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def flush(self) -> int:
        """Push every sealed batch, one frame each; returns events
        pushed.  A batch nobody is subscribed to is dropped and counted
        in ``dropped_events``."""
        pushed = 0
        while self._ready:
            batch = self._ready.popleft()
            if not self._senders:
                self.dropped_events += len(batch)
                continue
            push = {"push": "events", "origin": self.node, "events": batch}
            self.pushed_events += len(batch)
            self.pushed_batches += 1
            pushed += len(batch)
            for key, sender in list(self._senders.items()):
                try:
                    await sender(push)
                except (OasisNetError, ConnectionError, OSError):
                    # The connection handler notices the dead socket
                    # itself; dropping the sender here just stops repeat
                    # failures.
                    self._senders.pop(key, None)
        return pushed


class EventChannel:
    """A persistent subscription to one peer's event stream.

    ``deliver`` receives each pushed batch as a list of
    :class:`~repro.events.Event` objects already stamped with
    ``net_origin=<peer name>``; it runs on the channel's event loop, so
    a server embeds the channel by submitting the batch to its worker
    thread (keeping the broker single-threaded), while tests may deliver
    straight into a local broker.
    """

    def __init__(self, peer: str, host: str, port: int,
                 deliver: Callable[[List[Event]], Any],
                 reconnect_delay: float = 0.1,
                 max_reconnect_delay: float = 2.0,
                 max_frame: int = MAX_FRAME) -> None:
        self.peer = peer
        self.host = host
        self.port = port
        self._deliver = deliver
        self._reconnect_delay = reconnect_delay
        self._max_reconnect_delay = max_reconnect_delay
        self._max_frame = max_frame
        self._task: Optional["asyncio.Task[None]"] = None
        self._stopping = asyncio.Event()
        self.connected = asyncio.Event()
        self.delivered_events = 0
        self.subscribes = 0

    def start(self) -> None:
        """Begin the subscription; must run on the owning event loop."""
        if self._task is None:
            self._stopping.clear()
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        self._stopping.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._task = None
        self.connected.clear()

    async def wait_connected(self, timeout: float = 10.0) -> None:
        await asyncio.wait_for(self.connected.wait(), timeout)

    async def _run(self) -> None:
        delay = self._reconnect_delay
        while not self._stopping.is_set():
            try:
                await self._session()
                delay = self._reconnect_delay  # clean session: reset backoff
            except asyncio.CancelledError:
                raise
            except (OasisNetError, ConnectionError, OSError):
                pass
            self.connected.clear()
            if self._stopping.is_set():
                return
            await asyncio.sleep(delay)
            delay = min(delay * 2, self._max_reconnect_delay)

    async def _session(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            # Request id 0 is reserved for the subscription on this
            # connection — nothing else is ever sent on it, so the single
            # expected response needs no dispatcher.
            await send_frame(writer,
                             {"id": 0, "op": "subscribe_events"},
                             self._max_frame)
            ack = await read_frame(reader, self._max_frame)
            if ack is None or not ack.get("ok", False):
                raise OasisNetError(
                    f"peer {self.peer} refused event subscription: {ack!r}")
            self.subscribes += 1
            self.connected.set()
            while True:
                frame = await read_frame(reader, self._max_frame)
                if frame is None:
                    return  # graceful peer shutdown; reconnect loop decides
                if frame.get("push") != "events":
                    continue
                origin = frame.get("origin", self.peer)
                events = [
                    Event.from_payload(payload).with_attributes(
                        net_origin=origin)
                    for payload in frame.get("events", ())
                ]
                if events:
                    self.delivered_events += len(events)
                    self._deliver(events)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
