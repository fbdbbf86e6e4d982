"""The service-level operation layer every transport dispatches through.

An OASIS service offers one access-control interface however a caller
reaches it.  This module is the only place that interface is decoded
from a request dict, run against :class:`~repro.core.service.OasisService`
and encoded into a reply.  The shard worker's pipe
(:mod:`repro.shard.worker`) and the socket server
(:mod:`repro.netd.server`) both subclass :class:`OpHost` and hand every
op they do not own to :meth:`OpHost.execute`, so the ops in :data:`OPS`
give the same replies and the same errors on either transport, and a
world factory ``factory(ctx, *args)`` — returning an object with a
``services`` mapping and an optional ``handlers`` mapping — runs
unchanged behind either one.  Callers build requests with
:func:`presentation_payloads` and :func:`activation_payload`.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Union)

from .core import wire
from .core.credentials import CredentialRef, RoleMembershipCertificate
from .core.service import (ActivationRequest, Certificate, OasisService,
                           Presentation)
from .core.state import ref_from_payload, ref_payload
from .core.types import PrincipalId, ServiceId
from .obs.runtime import Observability

__all__ = ["OPS", "OpHost", "activation_payload", "activation_request",
           "error_payload", "presentation_payloads", "presentations"]

Message = Mapping[str, Any]
Op = Callable[["OpHost", Message], Any]


# -- caller side: request encoders --------------------------------------------

def presentation_payloads(
        credentials: Iterable[Union[Presentation, Certificate]]
) -> List[Dict[str, Any]]:
    """Presented credentials as wire dicts (a bare certificate is
    presented with no holder claim)."""
    payloads: List[Dict[str, Any]] = []
    for credential in credentials:
        if not isinstance(credential, Presentation):
            credential = Presentation(credential)
        payload: Dict[str, Any] = {
            "cert": wire.encode_certificate(credential.certificate)}
        if credential.holder is not None:
            payload["holder"] = credential.holder
        if credential.on_behalf_of is not None:
            payload["on_behalf_of"] = credential.on_behalf_of
        payloads.append(payload)
    return payloads


def activation_payload(request: ActivationRequest) -> Dict[str, Any]:
    """One :class:`ActivationRequest` as its wire dict (unset fields are
    left out)."""
    payload: Dict[str, Any] = {"principal": request.principal.value,
                               "role": request.role_name}
    if request.parameters is not None:
        payload["parameters"] = list(request.parameters)
    if request.credentials:
        payload["credentials"] = presentation_payloads(request.credentials)
    if request.environment is not None:
        payload["environment"] = request.environment
    if request.session_id is not None:
        payload["session"] = request.session_id
    return payload


# -- host side: request decoders and the error reply --------------------------

def presentations(payloads: Iterable[Message]) -> List[Presentation]:
    return [Presentation(wire.decode_certificate(entry["cert"]),
                         holder=entry.get("holder"),
                         on_behalf_of=entry.get("on_behalf_of"))
            for entry in payloads]


def activation_request(payload: Message) -> ActivationRequest:
    parameters = payload.get("parameters")
    return ActivationRequest(
        principal=PrincipalId(payload["principal"]),
        role_name=payload["role"],
        parameters=None if parameters is None else list(parameters),
        credentials=presentations(payload.get("credentials", ())),
        environment=payload.get("environment"),
        session_id=payload.get("session"))


def error_payload(error: BaseException) -> Dict[str, str]:
    """How a failed op crosses any transport: the exception's class name
    and message."""
    return {"type": type(error).__name__, "message": str(error)}


# -- the host -----------------------------------------------------------------

class OpHost:
    """What an op runs against: the services one process hosts."""

    def __init__(self, services: Mapping[str, OasisService],
                 handlers: Optional[Mapping[str, Callable[[Any], Any]]]
                 = None,
                 pipeline: Optional[Observability] = None,
                 network: Optional[Any] = None) -> None:
        self.services: Dict[str, OasisService] = dict(services)
        self.by_id: Dict[ServiceId, OasisService] = {
            service.id: service for service in self.services.values()}
        self.handlers: Dict[str, Callable[[Any], Any]] = \
            dict(handlers or {})
        self.pipeline = pipeline
        self.network = network
        self.requests = 0

    def service(self, key: str) -> OasisService:
        try:
            return self.services[key]
        except KeyError:
            raise KeyError(f"no service keyed {key!r}") from None

    def service_for_ref(self, ref: CredentialRef) -> OasisService:
        try:
            return self.by_id[ref.service]
        except KeyError:
            raise KeyError(f"no hosted service {ref.service}") from None

    def execute(self, op: str, message: Message) -> Any:
        """Run one op of :data:`OPS`; the reply is JSON- and
        pickle-safe."""
        handler = OPS.get(op)
        if handler is None:
            raise ValueError(f"unknown op {op!r}")
        return handler(self, message)

    def activated(self, service: OasisService,
                  certificates: Sequence[RoleMembershipCertificate]
                  ) -> None:
        """Called after every successful ``activate``/``activate_bulk``
        with the fresh RMCs; a host that tracks dependency edges outside
        the service overrides it."""

    def stats(self) -> Dict[str, Any]:
        """The counters every host reports; transports add their own."""
        return {
            "requests": self.requests,
            "live_credentials": sum(len(service.active_credentials())
                                    for service in self.services.values()),
            "services": {key: service.stats.snapshot()
                         for key, service in self.services.items()},
        }


# -- the ops ------------------------------------------------------------------

def _activate(host: OpHost, message: Message) -> Dict[str, Any]:
    service = host.service(message["service"])
    request = activation_request(message["request"])
    certificate = service.activate_role(
        request.principal, request.role_name, request.parameters,
        request.credentials, environment=request.environment,
        session_id=request.session_id)
    host.activated(service, (certificate,))
    return {"cert": wire.encode_certificate(certificate)}


def _activate_bulk(host: OpHost, message: Message) -> Dict[str, Any]:
    service = host.service(message["service"])
    certificates = service.activate_roles_bulk(
        [activation_request(payload) for payload in message["requests"]])
    host.activated(service, certificates)
    return {"certs": [wire.encode_certificate(certificate)
                      for certificate in certificates]}


def _appoint(host: OpHost, message: Message) -> Dict[str, Any]:
    service = host.service(message["service"])
    certificate = service.issue_appointment(
        PrincipalId(message["appointer"]), message["name"],
        list(message.get("parameters", ())),
        credentials=presentations(message.get("credentials", ())),
        holder=message.get("holder"),
        expires_at=message.get("expires_at"))
    return {"cert": wire.encode_certificate(certificate)}


def _invoke(host: OpHost, message: Message) -> Dict[str, Any]:
    service = host.service(message["service"])
    result = service.invoke(
        PrincipalId(message["principal"]), message["method"],
        list(message.get("arguments", ())),
        credentials=presentations(message.get("credentials", ())))
    return {"result": result}


def _revoke(host: OpHost, message: Message) -> Dict[str, Any]:
    ref = ref_from_payload(message["ref"])
    revoked = host.service_for_ref(ref).revoke(
        ref, message.get("reason", "revoked"))
    return {"revoked": revoked}


def _is_active(host: OpHost, message: Message) -> Dict[str, Any]:
    ref = ref_from_payload(message["ref"])
    return {"active": host.service_for_ref(ref).is_active(ref)}


def _record(host: OpHost, message: Message) -> Dict[str, Any]:
    ref = ref_from_payload(message["ref"])
    record = host.service_for_ref(ref).credential_record(ref)
    if record is None:
        return {"found": False}
    return {"found": True, "status": record.status,
            "reason": record.revoked_reason,
            "session": record.session_id,
            "principal": None if record.principal is None
            else record.principal.value,
            "dependencies": [ref_payload(dep) for dep
                             in record.membership_dependencies]}


def _validate(host: OpHost, message: Message) -> Dict[str, Any]:
    """Inbound Sect. 4 callback validation: route to the local handler a
    hosted service registered on the host's network."""
    if host.network is None:
        raise RuntimeError("no network attached")
    certificate = wire.decode_certificate(message["cert"])
    valid = host.network.local_call(
        message["domain"], message["endpoint"], certificate,
        message.get("principal"), message.get("holder"))
    return {"valid": bool(valid)}


def _audit(host: OpHost, message: Message) -> Dict[str, Any]:
    log = host.service(message["service"]).access_log
    kind = message.get("kind")
    records = log.query(kind=kind) if kind is not None else list(log)
    return {"records": [[entry.timestamp, entry.kind, entry.principal,
                         entry.subject, entry.reason]
                        for entry in records]}


def _sessions(host: OpHost, message: Message) -> Dict[str, Any]:
    service = host.service(message["service"])
    return {"sessions": sorted(service.live_sessions())}


def _handler(host: OpHost, message: Message) -> Dict[str, Any]:
    handler = host.handlers.get(message["name"])
    if handler is None:
        raise KeyError(f"no handler {message['name']!r}")
    return {"result": handler(message.get("payload"))}


def _checkpoint(host: OpHost, message: Message) -> Dict[str, Any]:
    for service in host.services.values():
        service.checkpoint()
    return {}


def _stats(host: OpHost, message: Message) -> Dict[str, Any]:
    return host.stats()


def _spans(host: OpHost, message: Message) -> Dict[str, Any]:
    if host.pipeline is None:
        return {"spans": []}
    return {"spans": [span.to_dict() for span in host.pipeline.tracer.spans(
        message.get("trace_id"), message.get("name"))]}


#: Op name -> handler over an :class:`OpHost`: the shared vocabulary.
OPS: Dict[str, Op] = {
    "activate": _activate,
    "activate_bulk": _activate_bulk,
    "appoint": _appoint,
    "invoke": _invoke,
    "revoke": _revoke,
    "is_active": _is_active,
    "record": _record,
    "validate": _validate,
    "audit": _audit,
    "sessions": _sessions,
    "handler": _handler,
    "checkpoint": _checkpoint,
    "stats": _stats,
    "spans": _spans,
}
