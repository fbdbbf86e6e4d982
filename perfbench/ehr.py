"""The served Fig. 3 deployment: ``ehr_read`` and ``ehr_churn``.

Three ``repro serve`` processes on loopback TCP, built by
:mod:`repro.netd.worlds` (through :mod:`perfbench.worlds`, which only
adds measurement handlers): ``front`` (login + admin), ``records``
(``treating_doctor``, validated by callback to front) and ``national``
(registry + patient records, validating treating RMCs by callback to
records behind an event-channel subscription).
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import CredentialInvalid, InvocationDenied
from repro.core.service import Presentation
from repro.netd.client import OasisClient
from repro.netd.deploy import NodeSpec, Supervisor, free_port
from repro.netd.protocol import OasisNetError
from repro.netd.runtime import LoopThread

from .common import REVOKE_LIMIT_S, Expect, Recorder, percentile
from .harness import Deployment, Workload

__all__ = ["EhrRead", "EhrChurn"]

NODES = ("front", "records", "national")
WORLDS = "perfbench.worlds"
#: national's EHR store holds entries for this patient only.
EHR = {"p1": ["2019: appendectomy", "2023: allergy noted"]}
DOCTORS = [f"d{index}" for index in range(8)]
PATIENTS = [f"p{index}" for index in range(8)]
#: Each doctor treats this many consecutive patients.
ALLOCATIONS_PER_DOCTOR = 4


class Fleet(Deployment):
    """Three served processes plus the client's connections to them."""

    server_roles = NODES

    def __init__(self, state_root: Optional[str] = None) -> None:
        super().__init__()
        self.state_root = state_root
        ports = {name: free_port() for name in NODES}

        def state(name: str) -> Optional[str]:
            return None if state_root is None \
                else os.path.join(state_root, name)

        specs = [
            NodeSpec(name="front", port=ports["front"],
                     world=f"{WORLDS}:ehr_front", state_dir=state("front")),
            NodeSpec(name="records", port=ports["records"],
                     world=f"{WORLDS}:ehr_records",
                     peers={"front": ("127.0.0.1", ports["front"])},
                     subscribe=("front",), state_dir=state("records")),
            NodeSpec(name="national", port=ports["national"],
                     world=f"{WORLDS}:ehr_national",
                     peers={"records": ("127.0.0.1", ports["records"])},
                     subscribe=("records",), state_dir=state("national")),
        ]
        self._extra: List[Any] = []
        self._loop = LoopThread("perfbench-clients")
        self.supervisor = Supervisor(specs)
        try:
            self.supervisor.start()
            self.front = self.supervisor.client("front")
            self.records = self.supervisor.client("records")
            self.national = self.supervisor.client("national")
            self._bootstrap()
            self.populate()
        except BaseException:
            self.close()
            raise

    def _bootstrap(self) -> None:
        """Accredit the hospital gateway and log the administrator in."""
        registrar = self.national.activate("registry", "registrar",
                                           "registrar")
        accreditation = self.national.appoint(
            "registry", "registrar", "accredited_hospital",
            ["addenbrookes"], credentials=[registrar], holder="gateway")
        self.gateway = self.national.activate(
            "patient-records", "gateway", "hospital", ["addenbrookes"],
            credentials=[Presentation(accreditation, holder="gateway")])
        admin_login = self.front.activate("login", "admin",
                                          "logged_in_user", ["admin"])
        self.admin = self.front.activate(
            "admin", "admin", "administrator", ["admin"],
            credentials=[admin_login])

    def populate(self) -> None:
        """Lay down workload state after the bootstrap (none here)."""

    def client(self, name: str) -> OasisClient:
        """A further connection to ``name`` (closed by :meth:`close`)."""
        spec = self.supervisor.specs[name]
        client = OasisClient(spec.host, spec.port, peer=name,
                             loop=self._loop.start())
        self._extra.append(client)
        return client

    # -- measurement --------------------------------------------------------
    def _each(self, handler: str, payload: Any = None) -> Dict[str, Any]:
        return {name: self.supervisor.client(name).handler(handler, payload)
                for name in NODES}

    def remote_usage(self) -> List[Dict[str, float]]:
        return list(self._each("perfbench.usage").values())

    def remote_trace(self, payload: Dict[str, Any]
                     ) -> Dict[str, Dict[str, Any]]:
        return self._each("perfbench.trace", payload)

    def counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name in NODES:
            stats = self.supervisor.client(name).stats()
            for service in stats["services"].values():
                for key, value in service.items():
                    totals[key] = totals.get(key, 0) + value
            for key in ("pushed_batches", "pushed_events"):
                totals[f"pump.{key}"] = totals.get(f"pump.{key}", 0) \
                    + stats["pump"][key]
            totals["broker.published_count"] = totals.get(
                "broker.published_count", 0) \
                + stats["broker"].get("published_count", 0)
        return totals

    def close(self) -> None:
        try:
            for client in self._extra:
                client.close()
            self._loop.stop()
        finally:
            self.supervisor.stop()
            if self.state_root is not None:
                shutil.rmtree(self.state_root, ignore_errors=True)


def _allocate(fleet: Fleet, doctor: str, patient: str,
              login: Any) -> Tuple[Any, Any]:
    allocation = fleet.front.appoint(
        "admin", "admin", "allocated", [doctor, patient],
        credentials=[fleet.admin], holder=doctor)
    treating = fleet.records.activate(
        "records", doctor, "treating_doctor", [doctor, patient],
        credentials=[login, Presentation(allocation, holder=doctor)])
    return allocation, treating


def _read_national(client: Any, fleet: Fleet, doctor: str, patient: str,
                   treating: Any) -> Any:
    return client.invoke(
        "patient-records", "gateway", "request_EHR", [patient],
        credentials=[fleet.gateway,
                     Presentation(treating, on_behalf_of=doctor)])


def _read_records(client: Any, doctor: str, patient: str,
                  treating: Any) -> Any:
    return client.invoke("records", doctor, "read_record", [patient],
                         credentials=[treating])


# -- ehr_read -----------------------------------------------------------------

class ReadFleet(Fleet):
    """A fleet with a fixed, warmed population of allocations."""

    def populate(self) -> None:
        self.treating: Dict[Tuple[str, str], Any] = {}
        #: doctor -> patients they are *not* allocated to.
        self.strangers: Dict[str, List[str]] = {}
        for index, doctor in enumerate(DOCTORS):
            login = self.front.activate("login", doctor, "logged_in_user",
                                        [doctor])
            for offset in range(ALLOCATIONS_PER_DOCTOR):
                patient = PATIENTS[(index + offset) % len(PATIENTS)]
                _, treating = _allocate(self, doctor, patient, login)
                self.treating[(doctor, patient)] = treating
            self.strangers[doctor] = [
                patient for patient in PATIENTS
                if (doctor, patient) not in self.treating]
        # Warm: national caches each treating validation, records each
        # signature check.
        for (doctor, patient), treating in self.treating.items():
            _read_national(self.national, self, doctor, patient, treating)
            _read_records(self.records, doctor, patient, treating)


class EhrRead(Workload):
    """Two closed-loop clients issuing seeded reads (see README)."""

    unit = "decision"
    setup_repeats = 3
    CLIENTS = 2

    def build(self) -> Deployment:
        return ReadFleet()

    def loops(self, deployment: Deployment, rng: random.Random,
              recorder: Recorder) -> List[Callable[[], None]]:
        fleet = deployment
        assert isinstance(fleet, ReadFleet)
        pairs = sorted(fleet.treating)
        loops = []
        for _ in range(self.CLIENTS):
            national = fleet.client("national")
            records = fleet.client("records")
            loops.append(self._loop(fleet, national, records, pairs,
                                    random.Random(rng.getrandbits(64)),
                                    recorder))
        return loops

    @staticmethod
    def _loop(fleet: ReadFleet, national: Any, records: Any,
              pairs: List[Tuple[str, str]], rng: random.Random,
              recorder: Recorder) -> Callable[[], None]:
        def one() -> None:
            doctor, patient = pairs[rng.randrange(len(pairs))]
            treating = fleet.treating[(doctor, patient)]
            draw = rng.random()
            if draw < 0.05:
                # Expected denial: a treating RMC for another patient.
                strangers = fleet.strangers[doctor]
                other = strangers[rng.randrange(len(strangers))]
                if draw < 0.025:
                    recorder.call("decision", Expect(False),
                                  "request_EHR(other patient)",
                                  _read_national, national, fleet, doctor,
                                  other, treating)
                else:
                    recorder.call("decision", Expect(False),
                                  "read_record(other patient)",
                                  _read_records, records, doctor, other,
                                  treating)
            elif draw < 0.20:
                recorder.call("decision", Expect(True, []), "read_record",
                              _read_records, records, doctor, patient,
                              treating)
            else:
                recorder.call("decision",
                              Expect(True, EHR.get(patient, [])),
                              "request_EHR", _read_national, national,
                              fleet, doctor, patient, treating)
        return one


# -- ehr_churn ----------------------------------------------------------------

class EhrChurn(Workload):
    """Seeded allocate → activate → read → discharge episodes on the
    durable (sqlite) deployment."""

    unit = "episode"
    setup_repeats = 3
    WARM_READS = 8
    #: Extra episodes of a traced run that time each event hop.
    HOP_EPISODES = 20

    def __init__(self, state_root: str) -> None:
        self.state_root = state_root
        self._builds = 0

    def build(self) -> Deployment:
        self._builds += 1
        root = os.path.join(self.state_root, f"fleet{self._builds}")
        shutil.rmtree(root, ignore_errors=True)
        return Fleet(state_root=root)

    def loops(self, deployment: Deployment, rng: random.Random,
              recorder: Recorder) -> List[Callable[[], None]]:
        fleet = deployment
        assert isinstance(fleet, Fleet)
        return [lambda: self.episode(fleet, rng, recorder)]

    def episode(self, fleet: Fleet, rng: random.Random, recorder: Recorder,
                hops: Optional[Dict[str, List[float]]] = None) -> None:
        doctor = DOCTORS[rng.randrange(len(DOCTORS))]
        patient = PATIENTS[rng.randrange(len(PATIENTS))]
        issued: List[Any] = []

        def issue(call: Callable[..., Any], *args: Any, **kwargs: Any
                  ) -> str:
            issued.append(call(*args, **kwargs))
            return "granted"

        granted = Expect(True, "granted")
        if not recorder.call(None, granted, "login", issue,
                             fleet.front.activate, "login", doctor,
                             "logged_in_user", [doctor]):
            return
        if not recorder.call(None, granted, "allocate", issue,
                             fleet.front.appoint, "admin", "admin",
                             "allocated", [doctor, patient],
                             credentials=[fleet.admin], holder=doctor):
            return
        login, allocation = issued
        if not recorder.call(
                "activate", granted, "activate treating_doctor", issue,
                fleet.records.activate, "records", doctor,
                "treating_doctor", [doctor, patient],
                credentials=[login, Presentation(allocation,
                                                 holder=doctor)]):
            return
        treating = issued[2]
        credential = str(treating.ref)
        expect = Expect(True, EHR.get(patient, []), credential)
        for read in range(1 + self.WARM_READS):
            recorder.call("decision", expect,
                          "request_EHR" + (" (cold)" if read == 0 else ""),
                          _read_national, fleet.national, fleet, doctor,
                          patient, treating)
        started = time.perf_counter()
        fleet.front.revoke(allocation.ref, "patient discharged")
        if hops is not None:
            while fleet.records.is_active(treating.ref) and \
                    time.perf_counter() - started < REVOKE_LIMIT_S:
                pass
            hops["front_records"].append(time.perf_counter() - started)
        visible = self._probe(fleet, recorder, doctor, patient, treating,
                              credential, started)
        if hops is not None and visible is not None:
            hops["records_national"].append(
                visible - hops["front_records"][-1])
        recorder.revoke_visible(visible)
        # The promise: once refused, refused for good.
        recorder.call(None, Expect(False, credential=credential),
                      "request_EHR (after refusal)", _read_national,
                      fleet.national, fleet, doctor, patient, treating)

    @staticmethod
    def _probe(fleet: Fleet, recorder: Recorder, doctor: str, patient: str,
               treating: Any, credential: str,
               started: float) -> Optional[float]:
        """Probe national back to back until it refuses; seconds since
        ``started``.  No pause between probes: a sleeping client lets
        the CPU go idle, and on a virtual machine the wake-up from idle
        made episode times swing far more between runs."""
        while True:
            try:
                _read_national(fleet.national, fleet, doctor, patient,
                               treating)
            except OasisNetError:
                return None
            except (CredentialInvalid, InvocationDenied):
                recorder.oracle.refused_after_revoke(credential)
                return time.perf_counter() - started
            if time.perf_counter() - started > REVOKE_LIMIT_S:
                return None

    def hop_probes(self, deployment: Deployment,
                   recorder: Recorder) -> Dict[str, float]:
        """Per-hop event latency over a few extra episodes: front →
        records (treating collapsed) and records → national (refused)."""
        fleet = deployment
        assert isinstance(fleet, Fleet)
        hops: Dict[str, List[float]] = {"front_records": [],
                                        "records_national": []}
        rng = random.Random(0)
        for _ in range(self.HOP_EPISODES):
            self.episode(fleet, rng, recorder, hops)
        return {f"netd.events.hop_{name}_ms": percentile(values, 0.5) * 1e3
                for name, values in hops.items()}
