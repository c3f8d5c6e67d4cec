"""The benchmark's own tests, at tiny scale.

Every workload runs and passes its checks, and a planted fault (an answer
widened past its constraint, a dropped update batch, a rejected query, a
partition rebuilt with different counters) makes the matching check fail.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.serving.api import Client  # noqa: E402
from repro.serving.errors import RequestRejected  # noqa: E402
from repro.serving.protocol import UpdateBatchAck  # noqa: E402

from perfbench import offline, openloop, replay  # noqa: E402
from perfbench.common import load_contract, load_spec, tail  # noqa: E402

TINY = {"hosts": 10, "duration_s": 60}
END_TO_END = {metric["name"] for metric in load_contract()["end_to_end"]}


@pytest.fixture
def spec():
    return load_spec()


def failed_checks(out):
    return {name for name, ok, _ in out.checks if not ok}


def widen_one_answer(monkeypatch, which: int = 3) -> None:
    """Plant a fault: the ``which``-th query answer comes back too wide."""
    original = Client.query
    calls = {"n": 0}

    async def query(self, keys, **kwargs):
        answer = await original(self, keys, **kwargs)
        calls["n"] += 1
        if calls["n"] == which:
            slack = kwargs["constraint"] + 1.0
            answer = dataclasses.replace(answer, high=answer.high + slack)
        return answer

    monkeypatch.setattr(Client, "query", query)


def reject_one_query(monkeypatch, which: int = 3) -> None:
    """Plant a fault: the ``which``-th query is rejected instead of answered."""
    original = Client.query
    calls = {"n": 0}

    async def query(self, keys, **kwargs):
        calls["n"] += 1
        if calls["n"] == which:
            raise RequestRejected("overloaded")
        return await original(self, keys, **kwargs)

    monkeypatch.setattr(Client, "query", query)


def test_tail_reports_highest_percentile_with_ten_beyond():
    assert tail(range(1000))[0] == 99.0
    assert tail(range(200))[0] == 95.0
    assert tail(range(5))[0] == 0.0


def test_offline_sim_tiny(spec):
    out = offline.run(seed=3, seconds=0.0, traced=True, spec=spec, sizes=TINY)
    assert out.correct, out.checks
    assert set(out.metrics) == END_TO_END
    assert out.layers["simulation.events"][0] > 0
    assert out.layers["protocol.encode_calls"][0] == 0
    assert out.layers["wal.appends"][0] == 0


def test_offline_sim_recorded_values(spec):
    out = offline.run(seed=spec["default_seed"], seconds=0.0, traced=False, spec=spec)
    assert out.correct, out.checks
    planted = copy.deepcopy(spec)
    planted["workloads"]["offline-sim"]["expected_at_default_seed"][
        "query_refreshes"
    ] += 1
    out = offline.run(
        seed=spec["default_seed"], seconds=0.0, traced=False, spec=planted
    )
    assert failed_checks(out) == {"offline.recorded_values"}


@pytest.mark.parametrize("seed", [1, 2])
def test_replay_loopback_tiny(spec, seed):
    out = replay.run(seed=seed, seconds=0.0, traced=True, spec=spec, sizes=TINY)
    assert out.correct, out.checks
    assert out.failed == 0 and out.attempted > 0
    assert set(out.metrics) == END_TO_END
    assert out.layers["protocol.encode_calls"][0] > 0
    assert out.layers["api.rpcs.query"][0] == 60
    assert out.layers["simulation.run_s"][0] == 0
    assert out.layers["wal.appends"][0] == 0


def test_replay_widened_answer_fails(spec, monkeypatch):
    widen_one_answer(monkeypatch)
    out = replay.run(seed=1, seconds=0.0, traced=False, spec=spec, sizes=TINY)
    assert failed_checks(out) == {"replay.answers"}
    assert out.failed == 1


def test_replay_dropped_update_batch_fails(spec, monkeypatch):
    original = Client.update_batch
    calls = {"n": 0}

    async def update_batch(self, updates, **kwargs):
        calls["n"] += 1
        if calls["n"] == 20:
            return UpdateBatchAck(refreshes=0)
        return await original(self, updates, **kwargs)

    monkeypatch.setattr(Client, "update_batch", update_batch)
    out = replay.run(seed=1, seconds=0.0, traced=False, spec=spec, sizes=TINY)
    assert "replay.updates_received" in failed_checks(out)


def test_replay_rejected_query_fails(spec, monkeypatch):
    reject_one_query(monkeypatch)
    out = replay.run(seed=1, seconds=0.0, traced=False, spec=spec, sizes=TINY)
    assert "replay.no_errors" in failed_checks(out)
    assert out.failed == 1


def tiny_open_loop(spec, monkeypatch):
    monkeypatch.setattr(openloop, "SETUPS", 1)
    planted = copy.deepcopy(spec)
    recorded = planted["workloads"]["openloop-gateway-wal"]
    recorded.update(
        rates_qps={"low": 40, "high": 80}, ladder_qps=[100], updates_per_s=50
    )
    return planted, dict(TINY, duration_s=100)


def test_openloop_gateway_wal_tiny(spec, monkeypatch):
    planted, sizes = tiny_open_loop(spec, monkeypatch)
    out = openloop.run(seed=2, seconds=2.0, traced=True, spec=planted, sizes=sizes)
    assert out.correct, out.checks
    assert out.failed == 0 and out.attempted > 0
    assert set(out.metrics) == END_TO_END
    assert out.layers["wal.appends"][0] > 0
    assert out.layers["gateway.upstream_rpcs.snapshot"][0] > 0
    assert out.layers["simulation.run_s"][0] == 0


def test_openloop_planted_faults_fail(spec, monkeypatch):
    planted, sizes = tiny_open_loop(spec, monkeypatch)
    widen_one_answer(monkeypatch)
    real_counters = openloop.partition_counters

    def drifted(server):
        counters = real_counters(server)
        counters["total_cost"] += 1.0
        return counters

    monkeypatch.setattr(openloop, "partition_counters", drifted)
    out = openloop.run(seed=2, seconds=2.0, traced=False, spec=planted, sizes=sizes)
    assert failed_checks(out) == {
        "openloop.answers",
        "openloop.recovery_equals_live",
    }
    assert out.failed == 1


def test_openloop_rejected_query_fails(spec, monkeypatch):
    planted, sizes = tiny_open_loop(spec, monkeypatch)
    reject_one_query(monkeypatch)
    out = openloop.run(seed=2, seconds=2.0, traced=False, spec=planted, sizes=sizes)
    assert failed_checks(out) == {"openloop.no_errors"}
    assert out.failed == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", "offline-sim"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
