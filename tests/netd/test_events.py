"""Cross-process event channel semantics: pump coalescing, origin
tagging, ping-pong suppression, span context preservation."""

import threading
import time

from repro.events import CREDENTIAL_REVOKED, Event, EventBroker
from repro.netd.events import NET_ORIGIN, EventChannel, EventPump
from repro.netd.worlds import bench_world

from netd_helpers import Node


class Collector:
    """Thread-safe event sink for channel delivery callbacks."""

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()
        self.arrived = threading.Event()

    def __call__(self, events):
        with self._lock:
            self.events.extend(events)
        self.arrived.set()

    def wait(self, count, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.events) >= count:
                    return list(self.events)
            time.sleep(0.02)
        with self._lock:
            return list(self.events)


class TestEventPump:
    def test_local_events_forwarded(self, loop):
        broker = EventBroker()
        pump = EventPump("origin-node", loop.loop)
        pump.attach(broker)
        pushes = []
        done = threading.Event()

        async def sender(push):
            pushes.append(push)
            done.set()
        pump.subscribe(sender)
        broker.publish(Event.make(CREDENTIAL_REVOKED,
                                  credential_ref="svc#1", reason="test"))
        assert done.wait(5)
        assert pushes[0]["push"] == "events"
        assert pushes[0]["origin"] == "origin-node"
        assert pushes[0]["events"][0]["topic"] == CREDENTIAL_REVOKED
        pump.detach()

    def test_batch_coalesced_into_one_push(self, loop):
        broker = EventBroker()
        pump = EventPump("n", loop.loop)
        pump.attach(broker)
        pushes = []
        done = threading.Event()

        async def sender(push):
            pushes.append(push)
            done.set()
        pump.subscribe(sender)
        broker.publish_batch([
            Event.make(CREDENTIAL_REVOKED, credential_ref=f"svc#{i}")
            for i in range(10)])
        assert done.wait(5)
        # One push for the whole batch: the pump seals a batch only when
        # the broker's outermost drain ends, after the last event.
        assert sum(len(p["events"]) for p in pushes) == 10
        assert pump.pushed_batches == 1
        assert len(pushes[0]["events"]) == 10
        pump.detach()

    def test_nested_publish_rides_in_the_same_push(self, loop):
        """A handler publishing during delivery extends the cascade: both
        events leave in one push, in drain order."""
        broker = EventBroker()
        broker.subscribe(
            CREDENTIAL_REVOKED,
            lambda event: broker.publish(Event.make(
                CREDENTIAL_REVOKED, credential_ref="svc#child")),
            credential_ref="svc#root")
        pump = EventPump("n", loop.loop)
        pump.attach(broker)
        pushes = []
        done = threading.Event()

        async def sender(push):
            pushes.append(push)
            done.set()
        pump.subscribe(sender)
        broker.publish(Event.make(CREDENTIAL_REVOKED,
                                  credential_ref="svc#root"))
        assert done.wait(5)
        assert [[e["attributes"] for e in p["events"]] for p in pushes] == \
            [[[["credential_ref", "svc#root"]],
              [["credential_ref", "svc#child"]]]]
        assert pump.pushed_batches == 1
        assert pump.pushed_events == 2
        pump.detach()

    def test_each_top_level_publish_is_its_own_push(self, loop):
        broker = EventBroker()
        pump = EventPump("n", loop.loop)
        pump.attach(broker)
        pushes = []
        both = threading.Event()

        async def sender(push):
            pushes.append(push)
            if len(pushes) == 2:
                both.set()
        pump.subscribe(sender)
        broker.publish(Event.make(CREDENTIAL_REVOKED, credential_ref="svc#1"))
        broker.publish(Event.make(CREDENTIAL_REVOKED, credential_ref="svc#2"))
        assert both.wait(5)
        assert [[e["attributes"] for e in p["events"]] for p in pushes] == \
            [[[["credential_ref", "svc#1"]]], [[["credential_ref", "svc#2"]]]]
        assert pump.pushed_batches == 2
        pump.detach()

    def test_unsubscribed_batch_counted_as_dropped(self, loop):
        broker = EventBroker()
        pump = EventPump("n", loop.loop)
        pump.attach(broker)
        broker.publish_batch([
            Event.make(CREDENTIAL_REVOKED, credential_ref=f"svc#{i}")
            for i in range(3)])
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and pump.dropped_events < 3:
            time.sleep(0.01)
        assert pump.dropped_events == 3
        assert pump.pushed_batches == 0
        pump.detach()

    def test_served_cascade_leaves_in_one_push(self, loop):
        """A served revoke whose cascade flips N credentials raises
        ``pushed_batches`` by exactly 1 and ``pushed_events`` by N."""
        node = Node("cascade", bench_world, loop)
        sink = Collector()
        try:
            channel = EventChannel("cascade", "127.0.0.1", node.port, sink)
            loop.run(TestEventChannel._start(channel))
            loop.run(channel.wait_connected(5))
            client = node.client()
            user = client.activate("svc", "alice", "user", ["alice"])
            delegates = 3
            for _ in range(delegates):
                client.activate("svc", "alice", "delegate", ["alice"],
                                credentials=[user])
            before = client.stats()["pump"]
            assert client.revoke(user.ref, "bye")
            flipped = 1 + delegates
            assert len(sink.wait(flipped)) == flipped
            after = client.stats()["pump"]
            assert after["pushed_batches"] - before["pushed_batches"] == 1
            assert after["pushed_events"] - before["pushed_events"] == flipped
            client.close()
            loop.run(channel.stop())
        finally:
            node.close()

    def test_remote_origin_events_not_reforwarded(self, loop):
        """An event that *arrived* over the wire must not be pushed back
        out — that would ping-pong between mutually subscribed nodes."""
        broker = EventBroker()
        pump = EventPump("n", loop.loop)
        pump.attach(broker)
        pushes = []

        async def sender(push):
            pushes.append(push)
        pump.subscribe(sender)
        remote = Event.make(CREDENTIAL_REVOKED, credential_ref="svc#1")
        remote = remote.with_attributes(**{NET_ORIGIN: "elsewhere"})
        broker.publish(remote)
        local = Event.make(CREDENTIAL_REVOKED, credential_ref="svc#2")
        broker.publish(local)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not pushes:
            time.sleep(0.02)
        forwarded = [e for p in pushes for e in p["events"]]
        assert [e["attributes"] for e in forwarded] == \
            [[["credential_ref", "svc#2"]]]
        assert pump.skipped_events == 1
        pump.detach()

    def test_non_json_attrs_skipped_not_crashed(self, loop):
        broker = EventBroker()
        pump = EventPump("n", loop.loop)
        pump.attach(broker)
        broker.publish(Event.make(CREDENTIAL_REVOKED, ref=object()))
        assert pump.skipped_events == 1
        pump.detach()


class TestEventChannel:
    def test_channel_delivers_with_origin_and_span_context(self, loop):
        """Events published at a served node arrive at the subscriber
        tagged with the origin and with span attrs intact."""
        node = Node("issuer", bench_world, loop)
        sink = Collector()
        try:
            channel = EventChannel("issuer", "127.0.0.1", node.port, sink)
            loop.run(self._start(channel))
            loop.run(channel.wait_connected(5))  # raises on timeout
            node.server.submit(
                node.broker.publish,
                Event.make(CREDENTIAL_REVOKED, credential_ref="svc#9",
                           reason="test", trace_id="issuer.t1",
                           span_id="issuer.s1")).result(5)
            events = sink.wait(1)
            assert len(events) == 1
            event = events[0]
            assert event.get(NET_ORIGIN) == "issuer"
            assert event.get("trace_id") == "issuer.t1"
            assert event.get("span_id") == "issuer.s1"
            assert event.get("credential_ref") == "svc#9"
            assert channel.delivered_events == 1
            loop.run(channel.stop())
        finally:
            node.close()

    def test_real_revocation_travels_channel(self, loop):
        """End to end on one node pair: revoke at the issuer, observe the
        CREDENTIAL_REVOKED event at the subscriber."""
        node = Node("issuer2", bench_world, loop)
        sink = Collector()
        try:
            channel = EventChannel("issuer2", "127.0.0.1", node.port,
                                   sink)
            loop.run(self._start(channel))
            loop.run(channel.wait_connected(5))  # raises on timeout
            client = node.client()
            rmc = client.activate("svc", "alice", "user", ["alice"])
            client.revoke(rmc.ref, "bye")
            events = sink.wait(1)
            assert any(e.topic == CREDENTIAL_REVOKED
                       and e.get("credential_ref") == str(rmc.ref)
                       for e in events)
            client.close()
            loop.run(channel.stop())
        finally:
            node.close()

    @staticmethod
    async def _start(channel):
        channel.start()
