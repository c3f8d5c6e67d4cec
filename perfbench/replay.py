"""``replay-loopback``: serialized trace replay against one ``CacheServer``.

One feeder connection and one query connection over the in-process
loopback transport replay a seeded trace in the offline simulator's exact
event order: the updates up to each query instant (``MergedEventWalk``),
one ``update_batch`` RPC per trace instant, then the query the simulator
would issue (``SimulationConfig.build_workload``).  Every RPC is awaited
before the next, so the server's refresh counts, hit rate and cost must
equal a ``CacheSimulation`` of the same trace, which each iteration runs
right after the replay: the pair also gives ``serving_over_offline``.

Replays repeat until the run's time is spent.  Every replay of a seed sends
the same RPCs in the same order, so each simulated second's RPCs and each
query RPC take their best time over the replays: the time they cost when
least disturbed by whatever else shares the machine.

This replay is written against the public ``Client`` API only, so a change
to the package's own load generator cannot change what is measured.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional

from repro.data.merged import merge_timelines
from repro.data.streams import TraceStream
from repro.experiments.workloads import traffic_streams
from repro.serving.api import Client
from repro.serving.errors import ConnectionLost, DeadlineExceeded, RequestRejected
from repro.serving.server import CacheServer
from repro.simulation.engine import HORIZON_TOLERANCE
from repro.simulation.kernel import MergedEventWalk
from repro.simulation.simulator import CacheSimulation

from perfbench.common import (
    Outcome,
    Timer,
    answer_ok,
    best_of,
    make_config,
    make_policy,
    make_trace,
    median,
    true_aggregate,
)
from perfbench.tracing import Recorder, Tracer, layer_metrics, run_counting

NAME = "replay-loopback"
RPC_ERRORS = (ConnectionLost, DeadlineExceeded, RequestRejected)


async def replay(trace, config, seed: int, started: float) -> Dict[str, Any]:
    """Replay ``trace`` through a fresh server; returns timings and counts.

    ``started`` is when set-up began (before the trace was generated).
    """
    streams = {key: TraceStream(trace, key) for key in trace.keys}
    values = {key: stream.initial_value for key, stream in streams.items()}
    merged = merge_timelines(
        {key: stream.schedule(config.duration) for key, stream in streams.items()},
        engine=config.stream_engine(),
    )
    horizon = config.duration + HORIZON_TOLERANCE
    walk = MergedEventWalk(merged, horizon)
    workload = config.build_workload(list(trace.keys))
    server = CacheServer(
        make_policy(seed),
        value_refresh_cost=config.value_refresh_cost,
        query_refresh_cost=config.query_refresh_cost,
    )
    feeder = await Client.from_transport(
        server.connect(), on_refresh=lambda key: values[key]
    )
    querier = await Client.from_transport(server.connect())
    result: Dict[str, Any] = {
        "query_s": [],
        "update_s": [],
        "chunk_s": [],
        "queries": 0,
        "updates": 0,
        "batches": 0,
        "errors": 0,
        "bad_answers": 0,
    }
    try:
        await feeder.register(
            list(trace.keys), [values[key] for key in trace.keys], feeder="feeder-0"
        )
        result["setup_s"] = time.perf_counter() - started
        pending: List[Any] = []
        collect = pending.append

        async def flush(until: float) -> None:
            walk.advance(until, lambda key, at, value: collect((key, at, value)))
            start = 0
            while start < len(pending):
                instant = pending[start][1]
                end = start
                while end < len(pending) and pending[end][1] == instant:
                    end += 1
                batch = [(key, value) for key, _, value in pending[start:end]]
                for key, value in batch:
                    values[key] = value
                begin = time.perf_counter()
                try:
                    await feeder.update_batch(batch, time=instant)
                except RPC_ERRORS:
                    result["errors"] += 1
                result["update_s"].append(time.perf_counter() - begin)
                result["batches"] += 1
                result["updates"] += len(batch)
                start = end
            pending.clear()

        begin_replay = time.perf_counter()
        at = config.query_period
        while at <= horizon:
            chunk = time.perf_counter()
            await flush(at)
            query = workload.generate(at)
            begin = time.perf_counter()
            try:
                answer = await querier.query(
                    query.keys,
                    aggregate=query.kind,
                    constraint=query.constraint,
                    time=at,
                )
            except RPC_ERRORS:
                result["errors"] += 1
                answer = None
            result["query_s"].append(time.perf_counter() - begin)
            result["queries"] += 1
            if answer is not None and not answer_ok(
                answer.low,
                answer.high,
                query.constraint,
                true_aggregate(query.kind, query.keys, values),
            ):
                result["bad_answers"] += 1
            at += config.query_period
            result["chunk_s"].append(time.perf_counter() - chunk)
        chunk = time.perf_counter()
        await flush(horizon)
        result["chunk_s"].append(time.perf_counter() - chunk)
        result["wall_s"] = time.perf_counter() - begin_replay
        result["stats"] = await querier.stats()
    finally:
        await feeder.close()
        await querier.close()
        await server.close()
    return result


def _replay_iteration(
    sizes: Dict[str, Any], seed: int, counting: bool = False
) -> Dict[str, Any]:
    """Set up (trace generation included) and replay once."""
    started = time.perf_counter()
    trace = make_trace(sizes["hosts"], sizes["duration_s"], seed)
    config = make_config(trace, seed, sizes)
    main = replay(trace, config, seed, started)
    if counting:
        result, result["loop_iterations"] = run_counting(main)
    else:
        result = asyncio.run(main)
    result["trace"], result["config"] = trace, config
    return result


def _check(result: Dict[str, Any], seed: int, out: Outcome) -> None:
    """Compare a replay with the offline run of its trace, which it times."""
    trace, config = result.pop("trace"), result.pop("config")
    with Timer() as offline_timer:
        offline = CacheSimulation(
            config, traffic_streams(trace), make_policy(seed)
        ).run()
    result["offline_s"] = offline_timer.seconds
    result["duration"] = config.duration
    stats = result["stats"]
    served = {
        "value_refreshes": stats["value_refreshes"],
        "query_refreshes": stats["query_refreshes"],
        "hit_rate": stats["hit_rate"],
        "total_cost": stats["total_cost"],
        "queries": result["queries"],
    }
    expected = {
        "value_refreshes": offline.value_refresh_count,
        "query_refreshes": offline.query_refresh_count,
        "hit_rate": offline.cache_hit_rate,
        "total_cost": offline.total_cost,
        "queries": offline.query_count,
    }
    out.check("replay.equals_offline", served == expected, f"{served} vs {expected}")
    received = stats["updates_applied"] + stats["updates_ignored"]
    out.check(
        "replay.updates_received",
        received == result["updates"],
        f"the server received {received} of {result['updates']} updates sent",
    )
    out.check(
        "replay.answers",
        result["bad_answers"] == 0,
        f"{result['bad_answers']} answers miss the truth or their constraint",
    )
    out.check(
        "replay.no_errors",
        result["errors"] == 0,
        f"{result['errors']} RPCs failed (rejected, past deadline or lost)",
    )
    out.attempted += result["queries"] + result["batches"]
    out.failed += result["errors"] + result["bad_answers"]


def run(
    seed: int,
    seconds: float,
    traced: bool,
    spec: Dict[str, Any],
    sizes: Optional[Dict[str, Any]] = None,
) -> Outcome:
    sizes = dict(spec["workloads"][NAME]["sizes"], **(sizes or {}))
    out = Outcome()
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        result = _replay_iteration(sizes, seed)
        _check(result, seed, out)
        results.append(result)
    query_s = [value for result in results for value in result["query_s"]]
    update_s = [value for result in results for value in result["update_s"]]
    events = results[0]["queries"] + results[0]["updates"]
    # Every replay of a seed sends the same RPCs in the same order: each
    # simulated second's RPCs (a chunk) and each query take their best time
    # over the run's replays.
    best_wall = sum(best_of([result["chunk_s"] for result in results]))
    best_query = best_of([result["query_s"] for result in results])
    omega = results[0]["stats"]["total_cost"] / results[0]["duration"]
    ratio = median([result["wall_s"] / result["offline_s"] for result in results])
    setup = min(result["setup_s"] for result in results)
    out.metrics = {
        "setup_s": (setup, "s"),
        "events_per_s": (events / best_wall, "1/s"),
        "op_ms": (median(best_query) * 1e3, "ms"),
    }
    replays = len(results)
    failed_frac = out.failed / out.attempted if out.attempted else 0.0
    out.add("setup_s", setup, "s", f"best of {replays}")
    out.add("failed_frac", failed_frac, "ratio", f"{out.failed} of {out.attempted} ops")
    out.add(
        "replay_events_per_s",
        events / best_wall,
        "events/s",
        f"{events} per replay, best of {replays} per simulated second",
    )
    out.add("omega", omega, "cost/s", "deterministic per seed")
    out.add(
        "query_p50_ms",
        median(best_query) * 1e3,
        "ms",
        f"n={len(best_query)}, best of {replays} per query",
    )
    out.add_tail("query_p99_ms", query_s)
    out.add("update_p50_ms", median(update_s) * 1e3, "ms", f"n={len(update_s)}")
    out.add_tail("update_p99_ms", update_s)
    out.add("serving_over_offline", ratio, "ratio", "replay wall / offline run()")
    if traced:
        recorder = Recorder()
        with Tracer(recorder, type(make_policy(seed))):
            # Spans are kept in memory, so the traced phase is one replay.
            result = _replay_iteration(sizes, seed, counting=True)
        _check(result, seed, out)
        layers = layer_metrics([recorder.export_dict()], 1)
        stats = result["stats"]
        rpcs = layers.pop("_client_rpcs")[0]
        screened = layers.pop("_screened")[0]
        layers["queries.keys_per_refresh"] = (
            screened / stats["query_refreshes"] if stats["query_refreshes"] else 0.0,
            "keys/refresh",
        )
        layers["caching.value_refreshes"] = (stats["value_refreshes"], "count")
        layers["caching.query_refreshes"] = (stats["query_refreshes"], "count")
        layers["caching.hit_rate"] = (stats["hit_rate"], "ratio")
        layers["feeder.refresh_rpcs"] = (stats["refresh_rpcs"], "count")
        layers["loop.iterations_per_rpc"] = (
            result["loop_iterations"] / rpcs if rpcs else 0.0,
            "iter/rpc",
        )
        layers["serving_over_offline"] = (ratio, "ratio")
        layers["trace.overhead"] = (
            result["wall_s"] / median([r["wall_s"] for r in results]) - 1.0,
            "ratio",
        )
        out.layers = layers
    return out
