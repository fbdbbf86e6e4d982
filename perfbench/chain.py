"""``chain16_local``: the Fig. 1 dependency chain in one process.

Built by ``benchmarks/workloads.ChainWorld(16)`` on the memory backend.
One episode starts a session at ``svc-0``, activates the role at every
``svc-1`` .. ``svc-16`` while presenting every held RMC, revokes the
root and checks that all 17 levels collapsed and that the top of the
chain now refuses an activation presenting the level below it.
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import Any, Callable, List

from repro.core import Presentation, Principal, PrincipalId

from .common import Expect, Oracle, Recorder
from .harness import Deployment, Workload

__all__ = ["Chain16Local"]

DEPTH = 16
_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


def _chain_world(depth: int) -> Any:
    if _BENCHMARKS not in sys.path:
        sys.path.insert(0, _BENCHMARKS)
    from workloads import ChainWorld
    return ChainWorld(depth)


class ChainDeployment(Deployment):
    def __init__(self) -> None:
        super().__init__()
        self.world = _chain_world(DEPTH)

    def counters(self) -> dict:
        totals: dict = {}
        for service in self.world.services:
            for key, value in service.stats.snapshot().items():
                totals[key] = totals.get(key, 0) + value
        totals["broker.published_count"] = \
            self.world.broker.stats()["published_count"]
        return totals


class Chain16Local(Workload):
    unit = "episode"
    #: ChainWorld guards no method: its access decisions are activations.
    decision_kind = "activate"
    setup_repeats = 7
    #: Episodes run inside set-up so the timed window starts warm.
    WARM_EPISODES = 20

    def build(self) -> Deployment:
        deployment = ChainDeployment()
        recorder = Recorder(Oracle())
        for number in range(self.WARM_EPISODES):
            episode(deployment, recorder, f"warm{number}")
        if not recorder.correct or recorder.failed:
            raise RuntimeError(f"chain warm-up failed: {recorder.errors}")
        return deployment

    def loops(self, deployment: Deployment, rng: random.Random,
              recorder: Recorder) -> List[Callable[[], None]]:
        assert isinstance(deployment, ChainDeployment)
        numbers = iter(range(1 << 62))

        def one() -> None:
            episode(deployment, recorder,
                    f"u{rng.getrandbits(32):08x}-{next(numbers)}")
        return [one]


def episode(deployment: ChainDeployment, recorder: Recorder,
            user: str) -> None:
    """One session up the chain, then the root's revocation."""
    services = deployment.world.services
    principal = Principal(user)
    rmcs: List[Any] = []
    sessions: List[Any] = []

    def start() -> str:
        sessions.append(principal.start_session(services[0], "role",
                                                [user]))
        rmcs.append(sessions[0].root_rmc)
        return "granted"

    def climb(service: Any) -> str:
        rmcs.append(sessions[0].activate(service, "role"))
        return "granted"

    granted = recorder.call("activate", Expect(True, "granted"),
                            "activate svc-0", start)
    for level in range(1, DEPTH + 1):
        if not granted:
            return
        granted = recorder.call("activate", Expect(True, "granted"),
                                f"activate svc-{level}", climb,
                                services[level])
    if not granted:
        return
    started = time.perf_counter()
    services[0].revoke(rmcs[0].ref, "logout")
    collapsed = not any(service.is_active(rmc.ref)
                        for service, rmc in zip(services, rmcs))
    recorder.revoke_visible(time.perf_counter() - started
                            if collapsed else None)
    below = str(rmcs[DEPTH - 1].ref)
    if collapsed:
        recorder.oracle.refused_after_revoke(below)
    recorder.call(None, Expect(False, credential=below),
                  f"activate svc-{DEPTH} presenting revoked svc-{DEPTH - 1}",
                  services[DEPTH].activate_role, PrincipalId(user), "role",
                  None, [Presentation(rmcs[DEPTH - 1])])
