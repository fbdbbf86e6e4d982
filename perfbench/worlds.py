"""Benchmark-owned world factories for served nodes and shard workers.

Each one delegates to the repository's own factory unchanged
(:mod:`repro.netd.worlds`, :mod:`repro.shard.worlds`) and only adds the
``perfbench.usage`` / ``perfbench.trace`` handlers of a
:class:`~perfbench.trace.ProcessProbe`, so the benchmark can read every
process's CPU time and peak RSS and switch tracing on and off in it.
No policy or service is defined here.
"""

from __future__ import annotations

from typing import Any

from repro.netd import worlds as netd_worlds
from repro.shard import worlds as shard_worlds

from .trace import ProcessProbe

__all__ = ["ehr_front", "ehr_records", "ehr_national", "scale_world"]


def _probed(world: Any, role: str) -> Any:
    world.handlers.update(ProcessProbe(role).handlers())
    return world


def ehr_front(ctx: Any) -> Any:
    return _probed(netd_worlds.ehr_front(ctx), ctx.node)


def ehr_records(ctx: Any) -> Any:
    return _probed(netd_worlds.ehr_records(ctx), ctx.node)


def ehr_national(ctx: Any) -> Any:
    return _probed(netd_worlds.ehr_national(ctx), ctx.node)


def scale_world(ctx: Any) -> Any:
    return _probed(shard_worlds.scale_world_factory(ctx), f"w{ctx.shard}")
