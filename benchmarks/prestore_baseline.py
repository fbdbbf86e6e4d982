"""Pre-refactor storeless baselines for the storage-layer overhead bench.

The ≤1.05x acceptance criterion of the storage refactor is about the
*in-memory* backend: the default configuration (no record store attached
— the live dicts are the in-memory backend, every mirror call guarded by
one ``is None`` test) must cost at most 5% more than the pre-refactor
service on the existing activation and cascade workloads.  "Current vs
current" would measure nothing, so this module vendors the pre-refactor
bodies of exactly the methods the storage PR touched on those hot paths,
the same way ``seed_engine.py`` vendors the pre-optimization solver,
``obs_baseline.py`` the pre-instrumentation bodies and
``unslotted_baseline.py`` the pre-sweep representation:

* :meth:`PreStoreService.revoke` / ``_collapse_subtree`` /
  ``_on_revoked_event`` — inline ``publish_batch``, no cascade-journal
  hook, no per-record mirror guard;
* ``_issue_rmc`` — no serial-watermark guard;
* ``_install_record`` — direct dict install instead of the state-core
  ``install`` call;
* ``_validate_remote`` — inline validation-cache write and inline ECR
  subscription pair;
* ``_drop_ecr`` — inline cache pop.

Everything else is inherited (the service still owns the very same dict
objects, aliased from the state core), so the comparison isolates the
residual indirection cost of routing mutations through
``repro.core.state.ServiceState``.  ``benchmarks/harness.py`` interleaves
baseline and current rounds and compares minimum per-op latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

from repro.core.access_log import AccessKind
from repro.core.credentials import (
    AppointmentCertificate,
    CredentialRecord,
    CredentialRef,
    RoleMembershipCertificate,
)
from repro.core.engine import RuleMatch
from repro.core.exceptions import CredentialExpired
from repro.core.service import (OasisService, Presentation,
                                _MembershipWatch, _revocation_cause)
from repro.core.types import PrincipalId, Role
from repro.events import CREDENTIAL_REISSUED, CREDENTIAL_REVOKED, Event
from repro.obs.tracing import SpanContext


class PreStoreService(OasisService):
    """OasisService with the pre-refactor (store-free) hot-path bodies."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # The baseline is storeless by definition; never consult the
        # OASIS_STORE_BACKEND environment the benchmark runs under.
        kwargs["store"] = None
        super().__init__(*args, **kwargs)

    # -- issuance ------------------------------------------------------
    def _issue_rmc(self, principal: PrincipalId, role: Role,
                   match: RuleMatch, environment: Dict[str, Any],
                   session_id: Optional[str],
                   bound_key: Optional[str]) -> RoleMembershipCertificate:
        ref = self._refs.next()
        now = self.clock()
        rmc = RoleMembershipCertificate.issue(
            self.secret, self.id, role, ref, principal, now, bound_key)
        record = CredentialRecord(
            ref=ref, kind="rmc", principal=principal, issued_at=now,
            membership_dependencies=match.membership_credential_refs(),
            session_id=session_id)
        self._install_record(record, match, environment)
        self.stats.rmcs_issued += 1
        self._audit(AccessKind.ACTIVATION, principal.value,
                    str(role.role_name), detail=role.parameters)
        return rmc

    def _install_record(self, record: CredentialRecord, match: RuleMatch,
                        environment: Dict[str, Any]) -> None:
        ref = record.ref
        self._records[ref] = record
        for dependency in record.membership_dependencies:
            self._link_dependent(dependency.qualified, ref)
        constraints = match.membership_constraints()
        if constraints:
            watch = _MembershipWatch(
                ref=ref, constraints=constraints,
                substitution=match.substitution,
                environment=dict(environment))
            for condition in constraints:
                watch.watched_tables |= \
                    condition.constraint.watched_tables()
            self._watches[ref] = watch

    # -- revocation cascade --------------------------------------------
    def revoke(self, ref: CredentialRef, reason: str = "revoked") -> bool:
        record = self._records.get(ref)
        if record is None or not record.revoke(reason, self.clock()):
            return False
        if self._obs is not None:
            return self._revoke_observed(record, ref, reason)
        self.stats.revocations += 1
        events = self._collapse_subtree([record], reason, reason)
        if events:
            self.broker.publish_batch(events)
        return True

    def _collapse_subtree(self, revoked: List[CredentialRecord],
                          reason: str, cause: str,
                          parent_ctx: Optional[SpanContext] = None,
                          ) -> List[Event]:
        if self._obs is not None:
            return self._collapse_subtree_observed(revoked, reason, cause,
                                                   parent_ctx)
        events: List[Event] = []
        queue = deque((record, reason) for record in revoked)
        while queue:
            record, reason = queue.popleft()
            ref = record.ref
            self._audit(AccessKind.REVOCATION,
                        record.principal.value if record.principal
                        else "-",
                        str(ref), reason=reason)
            self._teardown_watch(ref)
            self._unlink_dependencies(record)
            events.append(self._revocation_event(ref, reason, cause))
            dependents = self._dependents.get(ref.qualified)
            if not dependents:
                continue
            dependent_reason = (f"membership dependency {ref} revoked "
                                f"({cause})")
            for dependent_ref in list(dependents):
                dependent = self._records.get(dependent_ref)
                if dependent is None or not dependent.revoke(
                        dependent_reason, self.clock()):
                    continue
                self.stats.revocations += 1
                self.stats.cascade_revocations += 1
                queue.append((dependent, dependent_reason))
        return events

    def _on_revoked_event(self, event: Event) -> None:
        ref_string = event.get("credential_ref")
        if ref_string is None:
            return
        if self._sig_cache.pop(ref_string, None) is not None:
            self.stats.sig_cache_invalidations += 1
        dependents = self._dependents.get(ref_string)
        if not dependents:
            return
        cause = _revocation_cause(event)
        reason = f"membership dependency {ref_string} revoked ({cause})"
        seeds: List[CredentialRecord] = []
        for dependent_ref in list(dependents):
            record = self._records.get(dependent_ref)
            if record is None or not record.revoke(reason, self.clock()):
                continue
            self.stats.revocations += 1
            self.stats.cascade_revocations += 1
            seeds.append(record)
        if seeds:
            parent_ctx: Optional[SpanContext] = None
            if self._obs is not None:
                trace_id = event.get("trace_id")
                span_id = event.get("span_id")
                if trace_id is not None and span_id is not None:
                    parent_ctx = SpanContext(trace_id, span_id)
            events = self._collapse_subtree(seeds, reason, cause,
                                            parent_ctx)
            if events:
                self.broker.publish_batch(events)

    # -- validation cache / ECR ----------------------------------------
    def _validate_remote(self, principal: PrincipalId,
                         presentation: "Presentation") -> None:
        certificate = presentation.certificate
        ref = certificate.ref
        requester = self._rmc_binding(principal, presentation)
        cache_key = (requester, presentation.holder)
        cached_entries = self._validation_cache.get(ref)
        if self.cache_validations and cached_entries is not None \
                and cache_key in cached_entries \
                and not self._heartbeat_silent(ref):
            if isinstance(certificate, AppointmentCertificate) \
                    and certificate.is_expired(self.clock()):
                raise CredentialExpired(f"appointment {ref} expired")
            self.stats.cache_hits += 1
            return
        self._callback_validate(certificate, requester,
                                presentation.holder)
        if self.cache_validations:
            self._validation_cache.setdefault(ref, {})[cache_key] = True
            if self._heartbeats is not None:
                self._heartbeats.unwatch(str(ref))
                self._heartbeats.watch(str(ref))
            if ref not in self._ecr_subs:
                self._ecr_subs[ref] = [
                    self.broker.subscribe(
                        CREDENTIAL_REVOKED,
                        lambda event, r=ref: self._drop_ecr(
                            r, final=True),
                        credential_ref=str(ref)),
                    self.broker.subscribe(
                        CREDENTIAL_REISSUED,
                        lambda event, r=ref: self._drop_ecr(
                            r, final=False),
                        credential_ref=str(ref)),
                ]

    def _drop_ecr(self, ref: CredentialRef, final: bool) -> None:
        stale = self._validation_cache.pop(ref, None)
        if stale:
            self.stats.cache_invalidations += len(stale)
        if final:
            for sub in self._ecr_subs.pop(ref, []):
                sub.cancel()
