"""Guard-free baselines for the observability overhead benchmark.

The ≤3% acceptance criterion is about the *disabled* pipeline: with no
pipeline installed, the instrumented classes must cost at most 3% more
than code with no instrumentation at all on the two guarded workloads
(FIG1 depth-16 engine activation, FIG5 depth-16 cascade).  "Disabled vs
disabled" would measure nothing, so this module vendors the pre-
instrumentation bodies of exactly the methods the observability PR
touched on those hot paths:

* :class:`UninstrumentedEngine` — ``match_activation`` without the
  pipeline guard and ``_solve_indexed`` without the step-counter closure
  selection.
* :class:`UninstrumentedService` — ``_audit``, ``revoke``,
  ``_collapse_subtree`` and ``_on_revoked_event`` without guards, span
  context plumbing, or cascade width/depth accounting.

Everything else is inherited, so the comparison isolates the residual
guard cost (attribute loads, ``is None`` branches, the wider cascade
queue tuples).  ``benchmarks/harness.py`` interleaves instrumented and
baseline rounds and compares minimum per-op latency.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.access_log import AccessKind
from repro.core.engine import (
    CredentialIndex,
    MatchedCondition,
    PresentedCredential,
    RuleEngine,
    RuleMatch,
)
from repro.core.constraints import EvaluationContext
from repro.core.credentials import CredentialRecord
from repro.core.exceptions import ActivationDenied
from repro.core.rules import ActivationRule, Condition, ConstraintCondition
from repro.core.service import OasisService, _revocation_cause
from repro.core.terms import Substitution, Term, unify_sequences
from repro.core.types import Role
from repro.events.messages import Event

__all__ = ["UninstrumentedEngine", "UninstrumentedService"]


class UninstrumentedEngine(RuleEngine):
    """RuleEngine with the pre-instrumentation activation fast path."""

    def match_activation(self, rule: ActivationRule,
                         requested_parameters: Optional[Sequence[Term]],
                         credentials: Sequence[PresentedCredential],
                         context: Optional[EvaluationContext] = None,
                         index: Optional[CredentialIndex] = None,
                         ) -> Optional[Tuple[RuleMatch, Role]]:
        context = context or self.context
        unbound_error: Optional[ActivationDenied] = None
        for match, role in self.enumerate_activations(
                rule, credentials, context, requested_parameters, index):
            if role is None:
                unbound_error = ActivationDenied(
                    f"rule for {rule.target.role_name} satisfied but leaves "
                    f"parameters unbound; supply them in the activation "
                    f"request")
                continue
            return match, role
        if unbound_error is not None:
            raise unbound_error
        return None

    def _solve_indexed(self, ordered: Sequence[Condition],
                       canonical: Sequence[Condition], subst: Substitution,
                       index: CredentialIndex, context: EvaluationContext
                       ) -> Iterator[RuleMatch]:
        total = len(ordered)
        if ordered is canonical:
            slots_for: Sequence[int] = range(total)
        else:
            slot_queues: Dict[int, deque] = defaultdict(deque)
            for position, condition in enumerate(canonical):
                slot_queues[id(condition)].append(position)
            slots_for = [slot_queues[id(c)].popleft() for c in ordered]
        slots: List[Optional[MatchedCondition]] = [None] * total

        def solve(at: int, subst: Substitution) -> Iterator[RuleMatch]:
            if at == total:
                yield RuleMatch(substitution=subst, matched=tuple(slots))
                return
            condition = ordered[at]
            slot = slots_for[at]
            if isinstance(condition, ConstraintCondition):
                if condition.constraint.evaluate(subst, context):
                    slots[slot] = MatchedCondition(condition, None)
                    yield from solve(at + 1, subst)
                return
            pattern = condition.pattern
            for credential in index.candidates(condition):
                extended = unify_sequences(
                    pattern, credential.parameter_values, subst)
                if extended is None:
                    continue
                slots[slot] = MatchedCondition(condition, credential)
                yield from solve(at + 1, extended)

        return solve(0, subst)


class UninstrumentedService(OasisService):
    """OasisService with the pre-instrumentation revocation fast path."""

    def _audit(self, kind: str, principal: str, subject: str,
               detail: Tuple[Any, ...] = (),
               reason: Optional[str] = None,
               trace_id: Optional[str] = None) -> None:
        self.access_log.record(self.clock(), kind, principal, subject,
                               detail, reason)

    def revoke(self, ref, reason: str = "revoked") -> bool:
        record = self._records.get(ref)
        if record is None or not record.revoke(reason, self.clock()):
            return False
        self.stats.revocations += 1
        events = self._collapse_subtree([record], reason, reason)
        if events:
            self.broker.publish_batch(events)
        return True

    def _collapse_subtree(self, revoked: List[CredentialRecord],
                          reason: str, cause: str,
                          parent_ctx: Any = None) -> List[Event]:
        events: List[Event] = []
        queue = deque((record, reason) for record in revoked)
        while queue:
            record, reason = queue.popleft()
            ref = record.ref
            self._audit(AccessKind.REVOCATION,
                        record.principal.value if record.principal else "-",
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
            events = self._collapse_subtree(seeds, reason, cause)
            if events:
                self.broker.publish_batch(events)
