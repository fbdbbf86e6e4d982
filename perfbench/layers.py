"""The per-layer metrics a traced run reports, with their units.

Every name here is printed on every workload; a layer a workload never
calls reads 0 there.  Per-call times of single layers (``*_us``) are
printed by the traced run for people but are not part of this list,
because on a workload that skips the layer they have no meaning.
"""

from __future__ import annotations

from .trace import LAYERS

__all__ = ["PER_LAYER"]

PER_LAYER = [
    ("netd.frames_per_op", "count"),
    ("netd.bytes_per_frame", "B"),
    ("netd.callback_rpcs_per_activation", "count"),
    ("netd.events.batches_per_revoke", "count"),
    ("netd.events.events_per_batch", "count"),
    ("core.service.validations_per_activation", "count"),
    ("core.service.credentials_used_ratio", "ratio"),
    ("core.service.validation_cache_hit_ratio", "ratio"),
    ("core.service.sig_cache_hit_ratio", "ratio"),
    ("core.engine.matches_per_op", "count"),
    ("core.engine.match_us", "us"),
    ("crypto.signs_per_op", "count"),
    ("crypto.verifies_per_op", "count"),
    ("core.wire.certs_per_rpc", "count"),
    ("events.broker.events_per_revoke", "count"),
    ("db.durable_commits_per_revoke", "count"),
    ("db.flushes_per_op", "count"),
    ("shard.router.cross_shard_batches_per_revoke", "count"),
    ("trace.spans_per_op", "count"),
    ("trace.overhead_pct", "%"),
] + [(f"self_share.{layer}", "%") for layer in LAYERS]
