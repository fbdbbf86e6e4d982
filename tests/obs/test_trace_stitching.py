"""Cross-service trace stitching (satellite of the observability PR).

A revocation cascade over four services must reconstruct as ONE causal
trace tree: span context rides on the CREDENTIAL_REVOKED event
attributes, so each service's local cascade pass parents its spans under
the hop that triggered it.  The tree must agree with the revocation-order
expectations of ``tests/core/test_cascade_graphs.py`` and be identical
under indexed dispatch and the naive-scan reference broker.
"""

from repro.obs.export import trace_to_dict
from repro.obs.runtime import observed

from tests.core.test_cascade_graphs import DiamondWorld


def _collapse_traced(indexed=True):
    """Collapse the diamond under a fresh pipeline; returns (obs, refs)."""
    with observed() as obs:
        world = DiamondWorld(indexed=indexed)
        _, rmcs = world.build_session()
        obs.tracer.reset()  # keep only the cascade, not the build-up
        world.services["A"].revoke(rmcs["A"].ref, "logout")
    refs = {name: str(rmc.ref) for name, rmc in rmcs.items()}
    return obs, refs


def _cascade_refs_in_span_order(obs, trace_id):
    return [span.attrs["credential_ref"]
            for span in obs.tracer.spans(trace_id, name="cascade.revoke")]


class TestDiamondStitching:
    def test_cascade_is_one_trace(self):
        obs, _ = _collapse_traced()
        assert obs.tracer.trace_ids() == ["t0001"]

    def test_revocation_order_matches_cascade_graph_expectations(self):
        """Breadth-first within each local pass: A, then B and C (A's
        direct dependents), then D — the order test_cascade_graphs
        asserts for the event stream."""
        obs, refs = _collapse_traced()
        ordered = _cascade_refs_in_span_order(obs, "t0001")
        assert ordered == [refs["A"], refs["B"], refs["C"], refs["D"]]

    def test_tree_structure_encodes_causality(self):
        """Root ``revoke`` span; A's collapse hangs off it; B and C are
        A's children; D is revoked by the first path that reaches it (via
        B)."""
        obs, refs = _collapse_traced()
        (tree,) = obs.tracer.tree("t0001")
        assert tree.span.name == "revoke"
        (node_a,) = tree.children
        assert node_a.span.name == "cascade.revoke"
        assert node_a.span.attrs["credential_ref"] == refs["A"]
        assert [child.span.attrs["credential_ref"]
                for child in node_a.children] == [refs["B"], refs["C"]]
        (node_b, node_c) = node_a.children
        assert [child.span.attrs["credential_ref"]
                for child in node_b.children] == [refs["D"]]
        assert node_c.children == []
        assert tree.depth == 4
        assert tree.span_count() == 5

    def test_every_hop_records_service_and_reason(self):
        obs, refs = _collapse_traced()
        spans = obs.tracer.spans("t0001", name="cascade.revoke")
        assert [span.attrs["service"] for span in spans] \
            == ["dom/A", "dom/B", "dom/C", "dom/D"]
        for span in spans[1:]:
            assert "membership dependency" in span.attrs["reason"]
            assert span.end is not None

    def test_indexed_and_naive_dispatch_stitch_identically(self):
        """Dispatch strategy is invisible to the causal structure."""
        obs_indexed, _ = _collapse_traced(indexed=True)
        obs_naive, _ = _collapse_traced(indexed=False)
        indexed_tree = trace_to_dict(obs_indexed.tracer, "t0001")
        naive_tree = trace_to_dict(obs_naive.tracer, "t0001")
        assert indexed_tree == naive_tree
