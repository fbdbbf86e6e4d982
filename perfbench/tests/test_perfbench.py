"""The benchmark's own tests: a short smoke of every workload, the
oracle, and the refusal to run without the repository's sources."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.common import Expect, Oracle, OracleViolation, Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        BENCHMARK["command"] + ["--workload", workload, "--seed", "3",
                                "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_declared_metric(workload, trace):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        # ...and by name in the human-readable lines, too.
        assert f"  {metric['name']} " in done.stdout
    if not trace:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_oracle_counts_a_fabricated_wrong_decision():
    oracle = Oracle()
    recorder = Recorder(oracle)
    # The generator expected a grant returning [], the "program" refused.
    assert recorder.call("decision", Expect(True, []), "fabricated deny",
                         _refuse) is False
    # A grant returning the wrong value is wrong too.
    assert recorder.call("decision", Expect(True, []), "fabricated value",
                         lambda: ["someone else's record"]) is True
    assert len(oracle.wrong) == 2
    assert recorder.failed == 2 and recorder.attempted == 2
    assert not recorder.correct


def test_oracle_accepts_the_expected_answers():
    recorder = Recorder(Oracle())
    recorder.call("decision", Expect(True, ["a"]), "grant", lambda: ["a"])
    recorder.call("decision", Expect(False), "deny", _refuse)
    assert recorder.correct and recorder.failed == 0


def test_grant_after_refusal_of_a_revoked_credential_is_a_hard_error():
    oracle = Oracle()
    recorder = Recorder(oracle)
    oracle.refused_after_revoke("hospital/records#7")
    with pytest.raises(OracleViolation):
        recorder.call(None, Expect(False, credential="hospital/records#7"),
                      "grant after refusal", lambda: "granted")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _refuse():
    from repro.core.exceptions import InvocationDenied
    raise InvocationDenied("fabricated refusal")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
