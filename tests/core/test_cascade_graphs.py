"""Cascade correctness on non-tree dependency graphs.

The Fig. 5 cascade is exercised on diamonds (a dependent reachable along
two paths), on a dependency shared by two sessions, and on re-activation
after a collapse.  Each scenario is checked against the transitive-closure
oracle over the recorded membership dependencies (``tests/oracles.py``):
exactly the closure is revoked, each credential with exactly one
``CREDENTIAL_REVOKED`` event, in breadth-first order, with the reason
naming its direct dependency and the root cause.  The diamond also runs
under the naive-scan broker, and every observable must agree.
"""

from repro.core import (
    ActivationRule,
    OasisService,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.events import CREDENTIAL_REVOKED, EventBroker, EventLog
from repro.net import SimClock

from tests.oracles import NaiveScanBroker, expected_reasons, revocation_closure


def revoke_against_closure(services, log, ref, reason):
    """Revoke ``ref`` at its issuer and check the cascade against the
    transitive-closure oracle over ``services``' recorded dependencies."""
    services = list(services)
    by_id = {service.id: service for service in services}
    closure = revocation_closure(services, ref)
    survivors = [record.ref for service in services
                 for record in service.active_credentials()
                 if record.ref not in closure]
    seen = len(log.events(CREDENTIAL_REVOKED))
    revocations = sum(s.stats.revocations for s in services)
    cascades = sum(s.stats.cascade_revocations for s in services)

    assert by_id[ref.service].revoke(ref, reason)

    # Exactly one event per closure member, in breadth-first order.
    order = [event.get("credential_ref")
             for event in log.events(CREDENTIAL_REVOKED)[seen:]]
    assert order == [str(member) for member in closure]
    for member, want in expected_reasons(closure, reason).items():
        record = by_id[member.service].credential_record(member)
        assert not record.active
        assert record.revoked_reason == want
    assert all(by_id[other.service].is_active(other) for other in survivors)
    assert sum(s.stats.revocations for s in services) \
        == revocations + len(closure)
    assert sum(s.stats.cascade_revocations for s in services) \
        == cascades + len(closure) - 1
    return closure


class DiamondWorld:
    """root A; B and C each require A (membership); D requires B and C.

    ``indexed=False`` runs it over the naive-scan reference broker."""

    def __init__(self, indexed: bool = True) -> None:
        self.clock = SimClock()
        self.broker = EventBroker() if indexed else NaiveScanBroker()
        self.registry = ServiceRegistry()
        self.log = EventLog(self.broker)
        a, a_role = self._service("A", ())
        b, b_role = self._service("B", (a_role,))
        c, c_role = self._service("C", (a_role,))
        d, _ = self._service("D", (b_role, c_role))
        self.services = {"A": a, "B": b, "C": c, "D": d}

    def _service(self, name, prerequisites):
        policy = ServicePolicy(ServiceId("dom", name))
        role = policy.define_role("role", 1)
        template = RoleTemplate(role, (Var("u"),))
        policy.add_activation_rule(ActivationRule(
            template,
            tuple(PrerequisiteRole(p, membership=True)
                  for p in prerequisites)))
        service = OasisService(policy, self.broker, self.registry,
                               self.clock)
        return service, template

    def build_session(self, user="u"):
        principal = Principal(user)
        session = principal.start_session(self.services["A"], "role", [user])
        rmcs = {"A": session.root_rmc}
        for name in ("B", "C", "D"):
            rmcs[name] = session.activate(self.services[name], "role")
        return session, rmcs

    def snapshot(self, rmcs):
        """Everything the broker dispatch modes must agree on."""
        revocation_events = self.log.events(CREDENTIAL_REVOKED)
        per_ref = {}
        for event in revocation_events:
            ref = event.get("credential_ref")
            per_ref[ref] = per_ref.get(ref, 0) + 1
        return {
            "active": {name: self.services[name].is_active(rmc.ref)
                       for name, rmc in rmcs.items()},
            "reasons": {name: self.services[name]
                        .credential_record(rmc.ref).revoked_reason
                        for name, rmc in rmcs.items()},
            "event_order": [event.get("credential_ref")
                            for event in revocation_events],
            "events_per_ref": per_ref,
            "published_count": self.broker.published_count,
            "delivered_count": self.broker.delivered_count,
            "revocations": sum(s.stats.revocations
                               for s in self.services.values()),
            "cascades": sum(s.stats.cascade_revocations
                            for s in self.services.values()),
        }


def collapse_diamond(indexed):
    world = DiamondWorld(indexed=indexed)
    _, rmcs = world.build_session()
    world.services["A"].revoke(rmcs["A"].ref, "logout")
    return world.snapshot(rmcs)


class TestDiamond:
    def test_every_credential_revoked_exactly_once(self):
        snap = collapse_diamond(indexed=True)
        assert snap["active"] == {"A": False, "B": False,
                                  "C": False, "D": False}
        assert all(count == 1 for count in snap["events_per_ref"].values())
        assert len(snap["events_per_ref"]) == 4
        assert snap["revocations"] == 4
        assert snap["cascades"] == 3

    def test_diamond_reason_composes_along_one_path(self):
        snap = collapse_diamond(indexed=True)
        assert "membership dependency" in snap["reasons"]["D"]
        assert "logout" in snap["reasons"]["D"]

    def test_reason_names_the_root_cause_once(self):
        """Two hops below the root, the reason names the direct
        dependency and the root reason, not the whole chain."""
        snap = collapse_diamond(indexed=True)
        reasons = snap["reasons"]
        assert reasons["B"].startswith("membership dependency dom/A#")
        assert reasons["D"].count("membership dependency") == 1
        assert reasons["D"].endswith(" revoked (logout)")

    def test_indexed_broker_matches_naive_broker_exactly(self):
        """Same subscriptions, same events: every counter must agree."""
        assert collapse_diamond(indexed=True) \
            == collapse_diamond(indexed=False)

    def test_cascade_matches_closure_oracle(self):
        world = DiamondWorld()
        _, rmcs = world.build_session()
        closure = revoke_against_closure(world.services.values(), world.log,
                                         rmcs["A"].ref, "logout")
        assert list(closure) == [rmcs[name].ref for name in "ABCD"]


class LocalDiamondWorld:
    """The diamond inside ONE service: a local subtree collapse."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.log = EventLog(self.broker)
        policy = ServicePolicy(ServiceId("dom", "only"))
        templates = {}
        for name, prereqs in (("a", ()), ("b", ("a",)), ("c", ("a",)),
                              ("d", ("b", "c"))):
            role = policy.define_role(name, 1)
            templates[name] = RoleTemplate(role, (Var("u"),))
            policy.add_activation_rule(ActivationRule(
                templates[name],
                tuple(PrerequisiteRole(templates[p], membership=True)
                      for p in prereqs)))
        self.service = OasisService(policy, self.broker, self.registry,
                                    self.clock)

    def build(self):
        principal = Principal("u")
        session = principal.start_session(self.service, "a", ["u"])
        rmcs = {"a": session.root_rmc}
        for name in ("b", "c", "d"):
            rmcs[name] = session.activate(self.service, name)
        return rmcs


class TestLocalDiamond:
    def test_whole_subtree_collapses_in_one_batch(self):
        world = LocalDiamondWorld()
        rmcs = world.build()
        assert world.service.dependent_count(rmcs["a"].ref) == 2
        world.service.revoke(rmcs["a"].ref, "logout")
        assert all(not world.service.is_active(rmc.ref)
                   for rmc in rmcs.values())
        # One event per credential, emitted breadth-first: a, b, c, d.
        order = [event.get("credential_ref")
                 for event in world.log.events(CREDENTIAL_REVOKED)]
        assert order == [str(rmcs[name].ref) for name in ("a", "b", "c", "d")]
        assert world.service.stats.revocations == 4
        assert world.service.stats.cascade_revocations == 3
        # The reverse index is fully pruned afterwards.
        assert all(world.service.dependent_count(rmc.ref) == 0
                   for rmc in rmcs.values())

    def test_cascade_matches_closure_oracle(self):
        world = LocalDiamondWorld()
        rmcs = world.build()
        closure = revoke_against_closure([world.service], world.log,
                                         rmcs["a"].ref, "logout")
        assert list(closure) == [rmcs[name].ref for name in "abcd"]


class TestSharedDependencyAcrossSessions:
    def test_shared_appointment_collapses_both_sessions(self, hospital):
        doctor = hospital.new_doctor("d1", "p1")
        appointment = doctor.appointments()[0]
        first = doctor.start_session(hospital.login, "logged_in_user",
                                     ["d1"])
        treating_1 = first.activate(hospital.records, "treating_doctor",
                                    use_appointments=[appointment])
        second = doctor.start_session(hospital.login, "logged_in_user",
                                      ["d1"])
        treating_2 = second.activate(hospital.records, "treating_doctor",
                                     use_appointments=[appointment])
        assert hospital.records.dependent_count(appointment.ref) == 2

        log = EventLog(hospital.broker)
        hospital.admin.revoke(appointment.ref, "reallocated")

        assert not hospital.records.is_active(treating_1.ref)
        assert not hospital.records.is_active(treating_2.ref)
        # Logins do not depend on the appointment.
        assert hospital.login.is_active(first.root_rmc.ref)
        assert hospital.login.is_active(second.root_rmc.ref)
        # Exactly one revocation event per collapsed credential.
        refs = [event.get("credential_ref")
                for event in log.events(CREDENTIAL_REVOKED)]
        assert sorted(refs) == sorted(
            [str(appointment.ref), str(treating_1.ref),
             str(treating_2.ref)])

    def test_stats_count_each_dependent_once(self, hospital):
        doctor = hospital.new_doctor("d1", "p1")
        appointment = doctor.appointments()[0]
        for _ in range(2):
            session = doctor.start_session(hospital.login, "logged_in_user",
                                           ["d1"])
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[appointment])
        hospital.admin.revoke(appointment.ref, "reallocated")
        assert hospital.records.stats.cascade_revocations == 2

    def test_cascade_matches_closure_oracle(self, hospital):
        doctor = hospital.new_doctor("d1", "p1")
        appointment = doctor.appointments()[0]
        treating = []
        for _ in range(2):
            session = doctor.start_session(hospital.login, "logged_in_user",
                                           ["d1"])
            treating.append(session.activate(
                hospital.records, "treating_doctor",
                use_appointments=[appointment]))
        log = EventLog(hospital.broker)
        closure = revoke_against_closure(
            hospital.registry.all_services(), log, appointment.ref,
            "reallocated")
        assert list(closure) == [appointment.ref] + [t.ref for t in treating]


class TestReactivationAfterCascade:
    def test_fresh_credentials_after_collapse_cascade_again(self, hospital):
        doctor = hospital.new_doctor("d1", "p1")
        log = EventLog(hospital.broker)
        revoked_refs = []
        for round_number in range(2):
            session = doctor.start_session(hospital.login, "logged_in_user",
                                           ["d1"])
            treating = session.activate(hospital.records, "treating_doctor",
                                        use_appointments=doctor.appointments())
            revoked_refs += [session.root_rmc.ref, treating.ref]
            hospital.login.revoke(session.root_rmc.ref,
                                  f"logout-{round_number}")
            assert not hospital.records.is_active(treating.ref)
        # Four distinct credentials died, each with exactly one event.
        assert len(set(revoked_refs)) == 4
        per_ref = {}
        for event in log.events(CREDENTIAL_REVOKED):
            ref = event.get("credential_ref")
            per_ref[ref] = per_ref.get(ref, 0) + 1
        assert per_ref == {str(ref): 1 for ref in revoked_refs}

    def test_reactivated_role_watches_new_dependency_only(self, hospital):
        doctor = hospital.new_doctor("d1", "p1")
        first = doctor.start_session(hospital.login, "logged_in_user",
                                     ["d1"])
        treating_1 = first.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        hospital.records.revoke(treating_1.ref, "suspension")
        treating_2 = first.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        assert treating_2.ref != treating_1.ref
        # Only the fresh credential hangs off the login dependency now.
        assert hospital.records.dependent_count(first.root_rmc.ref) == 1
        hospital.login.revoke(first.root_rmc.ref, "logout")
        assert not hospital.records.is_active(treating_2.ref)

    def test_cascades_match_closure_oracle(self, hospital):
        """Each round's cascade, and the one after a re-activation, is
        exactly the closure of the live dependencies at that moment."""
        doctor = hospital.new_doctor("d1", "p1")
        log = EventLog(hospital.broker)
        services = hospital.registry.all_services()
        for round_number in range(2):
            session = doctor.start_session(hospital.login, "logged_in_user",
                                           ["d1"])
            treating = session.activate(
                hospital.records, "treating_doctor",
                use_appointments=doctor.appointments())
            closure = revoke_against_closure(
                services, log, session.root_rmc.ref,
                f"logout-{round_number}")
            assert list(closure) == [session.root_rmc.ref, treating.ref]

        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        stale = session.activate(hospital.records, "treating_doctor",
                                 use_appointments=doctor.appointments())
        revoke_against_closure(services, log, stale.ref, "suspension")
        fresh = session.activate(hospital.records, "treating_doctor",
                                 use_appointments=doctor.appointments())
        closure = revoke_against_closure(services, log,
                                         session.root_rmc.ref, "logout")
        assert list(closure) == [session.root_rmc.ref, fresh.ref]
