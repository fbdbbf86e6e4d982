"""Reference implementations the differential tests compare the product to.

Each oracle is the simplest correct version of something the product does
fast:

* :class:`NaiveRuleEngine` — the seed engine's solver: a linear scan over
  every presented credential per condition, in rule order, with list
  slicing per step.  No index, no selectivity ordering.
* :class:`NaiveScanBroker` — event dispatch by scanning every subscription
  on the event's topic and checking its whole filter.  No index buckets.
* :func:`revocation_closure` — the Fig. 5 cascade as a breadth-first
  transitive closure over the recorded membership dependencies.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core import (
    CredentialRef,
    EvaluationContext,
    OasisService,
    PresentedCredential,
    RuleEngine,
)
from repro.core.engine import CredentialIndex, MatchedCondition, RuleMatch
from repro.core.rules import (
    AppointmentCondition,
    Condition,
    ConstraintCondition,
    PrerequisiteRole,
)
from repro.core.terms import Substitution, unify_sequences
from repro.events import Event, EventBroker
from repro.events.broker import Handler, Subscription

__all__ = ["NaiveRuleEngine", "NaiveScanBroker", "revocation_closure",
           "expected_reasons"]


class NaiveRuleEngine(RuleEngine):
    """:class:`RuleEngine` with the seed's naive scan-and-slice solver."""

    def _solve(self, rule, subst: Substitution,
               credentials: Sequence[PresentedCredential],
               context: EvaluationContext,
               index: Optional[CredentialIndex] = None,
               ) -> Iterator[RuleMatch]:
        credential_conditions, constraint_conditions = rule.condition_partition
        return self._solve_naive(
            credential_conditions + constraint_conditions, subst,
            credentials, context, [])

    def _solve_naive(self, conditions: Sequence[Condition],
                     subst: Substitution,
                     credentials: Sequence[PresentedCredential],
                     context: EvaluationContext,
                     matched: List[MatchedCondition]) -> Iterator[RuleMatch]:
        """The seed engine's solver, verbatim: linear scan over all
        credentials per condition, list slicing per step."""
        if not conditions:
            yield RuleMatch(substitution=subst, matched=tuple(matched))
            return
        condition, rest = conditions[0], conditions[1:]

        if isinstance(condition, ConstraintCondition):
            if condition.constraint.evaluate(subst, context):
                matched.append(MatchedCondition(condition, None))
                yield from self._solve_naive(rest, subst, credentials,
                                             context, matched)
                matched.pop()
            return

        for credential in credentials:
            if isinstance(condition, PrerequisiteRole):
                if not credential.matches_prerequisite(condition):
                    continue
                pattern = condition.template.parameters
            else:
                assert isinstance(condition, AppointmentCondition)
                if not credential.matches_appointment(condition):
                    continue
                pattern = condition.parameters
            extended = unify_sequences(pattern, credential.parameters(), subst)
            if extended is None:
                continue
            matched.append(MatchedCondition(condition, credential))
            yield from self._solve_naive(rest, extended, credentials,
                                         context, matched)
            matched.pop()


class NaiveScanBroker(EventBroker):
    """:class:`EventBroker` whose dispatch scans every subscription on the
    topic, in registration order, and re-checks each one's whole filter."""

    def subscribe(self, topic: str, handler: Handler,
                  **filter_attrs: Any) -> Subscription:
        sub = super().subscribe(topic, handler, **filter_attrs)
        sub.residual = tuple(sub.filter_attrs.items())
        return sub

    def _candidates(self, event: Event) -> List[Subscription]:
        return list(self._subs.get(event.topic, {}).values())


def revocation_closure(services: Iterable[OasisService],
                       root: CredentialRef,
                       ) -> Dict[CredentialRef, Optional[CredentialRef]]:
    """What revoking ``root`` must collapse, in breadth-first order.

    Walks the membership dependencies recorded on every *active*
    credential of ``services`` (call it before the revocation).  Returns
    ``{ref: parent}`` in the order the credentials must be revoked:
    ``root`` first (parent None), then each credential the first time a
    dependency of it is reached.  Dependents of one credential are taken
    in service order, then issue order — the order the services
    subscribed to the broker and issued their credentials.
    """
    records = [record for service in services
               for record in service.active_credentials()]
    closure: Dict[CredentialRef, Optional[CredentialRef]] = {root: None}
    queue = deque([root])
    while queue:
        ref = queue.popleft()
        for record in records:
            if record.ref not in closure \
                    and ref in record.membership_dependencies:
                closure[record.ref] = ref
                queue.append(record.ref)
    return closure


def expected_reasons(closure: Dict[CredentialRef, Optional[CredentialRef]],
                     reason: str) -> Dict[CredentialRef, str]:
    """The revocation reason each credential of ``closure`` must carry:
    the root's own ``reason``, and for every dependent its direct
    dependency plus the root reason once."""
    return {ref: reason if parent is None
            else f"membership dependency {parent} revoked ({reason})"
            for ref, parent in closure.items()}
