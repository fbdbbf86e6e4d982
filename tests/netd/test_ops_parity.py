"""Pipe and socket are interchangeable transports over repro.ops.

Each script runs once through an in-process :class:`ShardWorker` (the
pipe's dispatch core) and once through an in-process served node (a real
loopback socket), both hosting :func:`repro.netd.worlds.bench_world`.
Values and remote error type names and messages must match.
Timestamps and signatures are left out: the two hosts run on different
clocks and signing secrets.
"""

import pytest

from repro.core import wire
from repro.core.credentials import CredentialRef
from repro.core.service import ActivationRequest, ServiceRegistry
from repro.core.state import ref_payload
from repro.core.types import PrincipalId, ServiceId
from repro.db import PATH_ENV, configured_backend, configured_path
from repro.events import EventBroker
from repro.netd.protocol import RpcError
from repro.netd.worlds import NodeContext, bench_world, ehr_front
from repro.ops import OpHost, activation_payload, presentation_payloads
from repro.shard.worker import ShardWorker

from netd_helpers import Node


@pytest.fixture
def pipe(tmp_path, monkeypatch):
    with monkeypatch.context() as env:
        # Sharded sqlite needs a {shard}-templated path; the served node
        # built next must not see it.
        if configured_backend() == "sqlite" and configured_path() is None:
            env.setenv(PATH_ENV, str(tmp_path / "store-{shard}.sqlite"))
        worker = ShardWorker(0, 1, bench_world)

    def call(op, **fields):
        response = worker.dispatch(dict(fields, op=op))
        if response["ok"]:
            return "ok", response["value"]
        return "error", response["error"]["type"], \
            response["error"]["message"]

    return call


@pytest.fixture
def socket(loop):
    node = Node("bench", bench_world, loop)
    client = node.client()

    def call(op, **fields):
        try:
            return "ok", client.call(op, **fields)
        except RpcError as error:
            return "error", error.error_type, error.detail
        except Exception as error:  # core exceptions re-raise as themselves
            return "error", type(error).__name__, str(error)

    yield call
    client.close()
    node.close()


def _activate(call, principal, session):
    request = activation_payload(ActivationRequest(
        PrincipalId(principal), "user", [principal], session_id=session))
    outcome = call("activate", service="svc", request=request)
    assert outcome[0] == "ok", outcome
    return wire.decode_certificate(outcome[1]["cert"])


def lifecycle(call):
    alice = _activate(call, "alice", "s1")
    bob = _activate(call, "bob", "s2")
    ref = ref_payload(alice.ref)
    outcome = [
        (str(alice.ref), str(bob.ref), alice.role, bob.role),
        call("invoke", service="svc", principal="alice", method="echo",
             arguments=["hi"],
             credentials=[{"cert": wire.encode_certificate(alice)}]),
        call("revoke", ref=ref, reason="done"),
        call("is_active", ref=ref),
        call("record", ref=ref),
        call("sessions", service="svc"),
    ]
    status, audit = call("audit", service="svc")
    # Drop the timestamp column: the hosts run on different clocks.
    return outcome + [(status, [entry[1:] for entry in audit["records"]])]


def unknown_op(call):
    return call("definitely_not_an_op")


def unknown_service(call):
    return call("sessions", service="nope")


def missing_handler(call):
    return call("handler", name="nope", payload=None)


def unhosted_ref(call):
    return call("is_active",
                ref=ref_payload(CredentialRef(ServiceId("elsewhere", "svc"),
                                              1)))


FAULTS = {
    unknown_op: ("error", "ValueError", "unknown op 'definitely_not_an_op'"),
    unknown_service: ("error", "KeyError", "\"no service keyed 'nope'\""),
    missing_handler: ("error", "KeyError", "\"no handler 'nope'\""),
    unhosted_ref: ("error", "KeyError",
                   "'no hosted service elsewhere/svc'"),
}


@pytest.mark.parametrize("script", [lifecycle, *FAULTS],
                         ids=lambda script: script.__name__)
def test_same_outcome_on_pipe_and_socket(script, pipe, socket):
    outcome = script(pipe)
    assert outcome == script(socket)
    if script in FAULTS:
        assert outcome == FAULTS[script]
    else:
        _, invoked, revoked, active, record, sessions, audit = outcome
        assert invoked == ("ok", {"result": "hi"})
        assert revoked == ("ok", {"revoked": True})
        assert active == ("ok", {"active": False})
        assert record[1]["status"] == "revoked"
        assert sessions == ("ok", {"sessions": ["s2"]})
        assert audit[1]


def test_record_of_an_anonymous_appointment():
    """An appointment issued without a holder has no principal; its
    record still reads back (through the table, on any host)."""
    ctx = NodeContext("front", EventBroker(), ServiceRegistry(), None)
    host = OpHost(ehr_front(ctx).services)

    def activate(service, role, credentials=()):
        request = activation_payload(ActivationRequest(
            PrincipalId("ann"), role, ["ann"], credentials))
        value = host.execute("activate",
                             {"service": service, "request": request})
        return wire.decode_certificate(value["cert"])

    login = activate("login", "logged_in_user")
    admin = activate("admin", "administrator", [login])
    value = host.execute("appoint", {
        "service": "admin", "appointer": "ann", "name": "allocated",
        "parameters": ["d1", "p1"],
        "credentials": presentation_payloads([admin])})
    ref = wire.decode_certificate(value["cert"]).ref
    record = host.execute("record", {"ref": ref_payload(ref)})
    assert record["found"] and record["principal"] is None
