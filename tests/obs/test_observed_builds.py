"""Observed builds install their own pipeline only while the world is
built, then put back whatever pipeline the caller had installed."""

import threading
import time

import pytest

from repro.db import PATH_ENV, configured_backend, configured_path
from repro.netd.client import OasisClient
from repro.netd.deploy import NodeSpec, free_port, serve_node
from repro.netd.protocol import OasisNetError
from repro.obs import runtime
from repro.shard.worker import ShardWorker
from repro.shard.worlds import scale_world_factory


@pytest.fixture
def installed():
    with runtime.observed() as pipeline:
        yield pipeline


def test_observed_shard_worker_keeps_callers_pipeline(installed, tmp_path,
                                                      monkeypatch):
    if configured_backend() == "sqlite" and configured_path() is None:
        monkeypatch.setenv(PATH_ENV, str(tmp_path / "store-{shard}.sqlite"))
    worker = ShardWorker(0, 1, scale_world_factory, observed=True)
    assert runtime.pipeline() is installed
    assert worker.pipeline is not None and worker.pipeline is not installed


def test_observed_served_node_keeps_callers_pipeline(installed):
    spec = NodeSpec(name="observed", port=free_port(),
                    world="repro.netd.worlds:bench_world", observed=True)
    server = threading.Thread(target=serve_node, args=(spec,), daemon=True)
    server.start()
    client = OasisClient(spec.host, spec.port, peer=spec.name)
    try:
        deadline = time.monotonic() + 15.0
        while True:
            try:
                client.ping()  # answered only after the world is built
                break
            except OasisNetError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        assert runtime.pipeline() is installed
    finally:
        client.shutdown()
        client.close()
        server.join(timeout=10)
