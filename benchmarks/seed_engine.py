"""The seed (pre-optimization) rule engine, vendored for benchmarking.

``benchmarks/harness.py`` reports the optimized engine's speedup *over the
seed engine*.  The tests' naive reference solver
(``tests/oracles.NaiveRuleEngine``) is not that baseline: it shares the
rewritten persistent :class:`Substitution`, cached rule partitions and
other fast-path work with the optimized solver — it exists to check
*solution equivalence*, not to preserve seed performance.  This module snapshots the seed's actual hot
path (commit ``635568b``): the dict-copying ``Substitution`` whose ``bind``
re-validates every binding, and the solver that linearly scans all
presented credentials per condition and slices condition lists per step.

Only the pieces on the activation hot path are vendored; rule, credential
and result dataclasses are shared with the current engine so both engines
build identical outputs and the comparison isolates the solver itself.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.constraints import EvaluationContext
from repro.core.engine import MatchedCondition, PresentedCredential, RuleMatch
from repro.core.exceptions import ActivationDenied, PolicyError
from repro.core.rules import (
    ActivationRule,
    AppointmentCondition,
    Condition,
    ConstraintCondition,
    PrerequisiteRole,
)
from repro.core.terms import Term, Var, _check_term, is_ground
from repro.core.types import Role

__all__ = ["SeedSubstitution", "SeedRuleEngine"]


class SeedSubstitution(Mapping[Var, Term]):
    """The seed's immutable substitution: every ``bind`` copies the whole
    dict and re-validates every binding (the O(n^2) the PR removed)."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[Var, Term]] = None) -> None:
        self._bindings: Dict[Var, Term] = dict(bindings) if bindings else {}
        for var, value in self._bindings.items():
            if not isinstance(var, Var):
                raise TypeError(f"substitution keys must be Var, got {var!r}")
            _check_term(value)

    def __getitem__(self, var: Var) -> Term:
        return self._bindings[var]

    def __iter__(self) -> Iterator[Var]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def apply(self, term: Term) -> Term:
        if isinstance(term, Var):
            seen = set()
            current: Term = term
            while isinstance(current, Var) and current in self._bindings:
                if current in seen:
                    raise ValueError(f"cyclic substitution at {current!r}")
                seen.add(current)
                current = self._bindings[current]
            if isinstance(current, tuple):
                return tuple(self.apply(sub) for sub in current)
            return current
        if isinstance(term, tuple):
            return tuple(self.apply(sub) for sub in term)
        return term

    def bind(self, var: Var, value: Term) -> "SeedSubstitution":
        if var in self._bindings:
            raise ValueError(f"variable {var!r} already bound")
        new = dict(self._bindings)
        new[var] = value
        return SeedSubstitution(new)


SEED_EMPTY = SeedSubstitution()


def _occurs(var: Var, term: Term, subst: SeedSubstitution) -> bool:
    term = subst.apply(term)
    if isinstance(term, Var):
        return term == var
    if isinstance(term, tuple):
        return any(_occurs(var, sub, subst) for sub in term)
    return False


def seed_unify(left: Term, right: Term,
               subst: SeedSubstitution = SEED_EMPTY
               ) -> Optional[SeedSubstitution]:
    left = subst.apply(left)
    right = subst.apply(right)

    if isinstance(left, Var):
        if isinstance(right, Var) and right == left:
            return subst
        if _occurs(left, right, subst):
            return None
        return subst.bind(left, right)
    if isinstance(right, Var):
        return seed_unify(right, left, subst)

    if isinstance(left, tuple) and isinstance(right, tuple):
        if len(left) != len(right):
            return None
        current: Optional[SeedSubstitution] = subst
        for sub_left, sub_right in zip(left, right):
            current = seed_unify(sub_left, sub_right, current)
            if current is None:
                return None
        return current

    if isinstance(left, tuple) or isinstance(right, tuple):
        return None

    if type(left) is not type(right):
        if isinstance(left, bool) or isinstance(right, bool):
            return None
        if not (isinstance(left, (int, float))
                and isinstance(right, (int, float))):
            return None
    return subst if left == right else None


def seed_unify_sequences(left: Iterable[Term], right: Iterable[Term],
                         subst: SeedSubstitution = SEED_EMPTY,
                         ) -> Optional[SeedSubstitution]:
    return seed_unify(tuple(left), tuple(right), subst)


class SeedRuleEngine:
    """The seed engine's activation path, verbatim apart from imports."""

    def __init__(self, context: EvaluationContext) -> None:
        self.context = context

    def match_activation(self, rule: ActivationRule,
                         requested_parameters: Optional[Sequence[Term]],
                         credentials: Sequence[PresentedCredential],
                         context: Optional[EvaluationContext] = None,
                         ) -> Optional[Tuple[RuleMatch, Role]]:
        context = context or self.context
        unbound_error: Optional[ActivationDenied] = None
        for match, role in self.enumerate_activations(
                rule, credentials, context, requested_parameters):
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

    def enumerate_activations(self, rule: ActivationRule,
                              credentials: Sequence[PresentedCredential],
                              context: Optional[EvaluationContext] = None,
                              requested_parameters:
                              Optional[Sequence[Term]] = None,
                              ) -> Iterator[Tuple[RuleMatch,
                                                  Optional[Role]]]:
        context = context or self.context
        subst = self._bind_head(rule.target.parameters,
                                requested_parameters)
        if subst is None:
            return
        for match in self._solve(rule.conditions, subst, credentials,
                                 context):
            parameters = match.substitution.apply(
                tuple(rule.target.parameters))
            if is_ground(parameters):
                yield match, Role(rule.target.role_name, parameters)
            else:
                yield match, None

    @staticmethod
    def _bind_head(head: Tuple[Term, ...],
                   requested: Optional[Sequence[Term]]
                   ) -> Optional[SeedSubstitution]:
        if requested is None:
            return SEED_EMPTY
        if len(requested) != len(head):
            return None
        subst: Optional[SeedSubstitution] = SEED_EMPTY
        for head_term, requested_term in zip(head, requested):
            if requested_term is None:
                continue
            if not is_ground(requested_term):
                raise PolicyError(
                    f"requested parameter {requested_term!r} is not ground")
            subst = seed_unify(head_term, requested_term, subst)
            if subst is None:
                return None
        return subst

    def _solve(self, conditions: Sequence[Condition],
               subst: SeedSubstitution,
               credentials: Sequence[PresentedCredential],
               context: EvaluationContext) -> Iterator[RuleMatch]:
        credential_conditions = [c for c in conditions
                                 if not isinstance(c, ConstraintCondition)]
        constraint_conditions = [c for c in conditions
                                 if isinstance(c, ConstraintCondition)]
        ordered = credential_conditions + constraint_conditions
        yield from self._solve_ordered(ordered, subst, credentials, context,
                                       [])

    def _solve_ordered(self, conditions: List[Condition],
                       subst: SeedSubstitution,
                       credentials: Sequence[PresentedCredential],
                       context: EvaluationContext,
                       matched: List[MatchedCondition]
                       ) -> Iterator[RuleMatch]:
        if not conditions:
            yield RuleMatch(substitution=subst, matched=tuple(matched))
            return
        condition, rest = conditions[0], conditions[1:]

        if isinstance(condition, ConstraintCondition):
            if condition.constraint.evaluate(subst, context):
                matched.append(MatchedCondition(condition, None))
                yield from self._solve_ordered(rest, subst, credentials,
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
            extended = seed_unify_sequences(pattern, credential.parameters(),
                                            subst)
            if extended is None:
                continue
            matched.append(MatchedCondition(condition, credential))
            yield from self._solve_ordered(rest, extended, credentials,
                                           context, matched)
            matched.pop()
