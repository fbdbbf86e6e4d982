"""``shard_mixed_2w``: the 60/30/10 mix driven through a 2-worker
:class:`~repro.shard.router.ShardRouter` over pipes.

The workers run ``repro.shard.worlds.scale_world_factory`` (through
:func:`perfbench.worlds.scale_world`, which only adds measurement
handlers).  Every session owns a root (``login``), a leaf activated on
the root's shard, and a *remote* leaf issued on the other shard with the
root as its membership dependency, so each root revocation cascades
across shards.  Per op, drawn from the seed:

* 60% invoke ``use`` presenting the local or the remote leaf (grant);
* 30% leaf churn: revoke the local leaf, activate a new one (the
  activation presents the root and is validated by the worker);
* 10% root revoke: revoke the root, probe the remote leaf until refused,
  then re-issue the root and both leaves.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List

from repro.core import Presentation
from repro.shard.router import ShardRouter

from .common import Expect, Recorder
from .harness import Deployment, Workload
from .worlds import scale_world

__all__ = ["ShardMixed"]

SHARDS = 2
SESSIONS = 64


class Session:
    __slots__ = ("principal", "session", "root", "leaf", "remote")

    def __init__(self, principal: str, session: str) -> None:
        self.principal = principal
        self.session = session


class ShardDeployment(Deployment):
    worker_roles = tuple(f"w{shard}" for shard in range(SHARDS))

    def __init__(self) -> None:
        super().__init__()
        self.router = ShardRouter(SHARDS, scale_world)
        try:
            self.sessions = [Session(f"p{index}", f"s{index}")
                             for index in range(SESSIONS)]
            for session in self.sessions:
                self.issue(session)
        except BaseException:
            self.router.close()
            raise

    def issue(self, session: Session) -> None:
        """A fresh root, local leaf and remote leaf for ``session``."""
        router = self.router
        session.root = router.issue_rmcs_bulk(
            "login", [(session.principal, "root", [session.principal], (),
                       session.session)])[0]
        session.leaf = router.activate_role(
            "resource", session.principal, "leaf", None,
            [Presentation(session.root)], session_id=session.session)
        home = router.shard_for_ref(session.root.ref)
        session.remote = router.issue_rmcs_bulk(
            "resource", [(session.principal, "leaf", [session.principal],
                          (session.root.ref,), session.session)],
            shards=[(home + 1) % SHARDS])[0]

    def remote_usage(self) -> List[Dict[str, float]]:
        return list(self.router.call_handler_all("perfbench.usage").values())

    def remote_trace(self, payload: Dict[str, Any]
                     ) -> Dict[str, Dict[str, Any]]:
        results = self.router.call_handler_all(
            "perfbench.trace", {shard: payload for shard in range(SHARDS)})
        return {f"w{shard}": value for shard, value in results.items()}

    def counters(self) -> Dict[str, float]:
        stats = self.router.stats()
        totals: Dict[str, float] = {
            f"router.{key}": value
            for key, value in stats["router"].items()
            if isinstance(value, (int, float))}
        for worker in stats["workers"].values():
            for service in worker["services"].values():
                for key, value in service.items():
                    totals[key] = totals.get(key, 0) + value
            totals["broker.published_count"] = totals.get(
                "broker.published_count", 0) + worker["events_published"]
        return totals

    def close(self) -> None:
        self.router.close()


def _use(router: ShardRouter, session: Session, credential: Any) -> Any:
    return router.invoke("resource", session.principal, "use",
                         [session.principal],
                         credentials=[Presentation(credential)])


class ShardMixed(Workload):
    unit = "mixed op"
    setup_repeats = 7

    def build(self) -> Deployment:
        return ShardDeployment()

    def loops(self, deployment: Deployment, rng: random.Random,
              recorder: Recorder) -> List[Callable[[], None]]:
        assert isinstance(deployment, ShardDeployment)
        router = deployment.router
        sessions = deployment.sessions

        def one() -> None:
            session = sessions[rng.randrange(len(sessions))]
            granted = f"ok[{session.principal}]"
            draw = rng.randrange(10)
            if draw < 6:
                remote = rng.random() < 0.5
                recorder.call(
                    "decision", Expect(True, granted),
                    "use (remote leaf)" if remote else "use (local leaf)",
                    _use, router, session,
                    session.remote if remote else session.leaf)
            elif draw < 9:
                router.revoke(session.leaf.ref, "churn")
                recorder.call("activate", Expect(True, None), "leaf churn",
                              self._reactivate, router, session)
            else:
                self._root_revoke(deployment, session, recorder)
        return [one]

    @staticmethod
    def _reactivate(router: ShardRouter, session: Session) -> None:
        session.leaf = router.activate_role(
            "resource", session.principal, "leaf", None,
            [Presentation(session.root)], session_id=session.session)

    @staticmethod
    def _root_revoke(deployment: ShardDeployment, session: Session,
                     recorder: Recorder) -> None:
        """Revoke the root, then present both leaves: the router returns
        only once the cross-shard cascade settled, so the remote leaf
        (the furthest dependent) must be refused at once."""
        router = deployment.router
        root = str(session.root.ref)
        started = time.perf_counter()
        router.revoke(session.root.ref, "logout")
        refused = recorder.call(None, Expect(False, credential=root),
                                "use (remote leaf, root revoked)", _use,
                                router, session, session.remote) is False
        recorder.revoke_visible(time.perf_counter() - started
                                if refused else None)
        if refused:
            recorder.oracle.refused_after_revoke(root)
        recorder.call(None, Expect(False, credential=root),
                      "use (local leaf, root revoked)", _use, router,
                      session, session.leaf)
        deployment.issue(session)
