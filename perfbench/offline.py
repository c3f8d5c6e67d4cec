"""``offline-sim``: the paper-reproduction user's batch job, the floor.

``CacheSimulation.run`` over a seeded synthetic traffic trace with the
serving stack's default policy.  Each iteration generates the trace, builds
the simulation (set-up) and runs it (the timed operation); iterations repeat
until the run's time is spent and the best times are reported: every
iteration does the same work, so its best time is the one least disturbed by
whatever else shares the machine.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.experiments.workloads import traffic_streams
from repro.simulation.simulator import CacheSimulation

from perfbench.common import (
    Outcome,
    Timer,
    make_config,
    make_policy,
    make_trace,
    median,
)
from perfbench.tracing import Recorder, Tracer, layer_metrics

NAME = "offline-sim"
TRACED_RUNS = 2


def _iteration(sizes: Dict[str, Any], seed: int):
    with Timer() as setup:
        trace = make_trace(sizes["hosts"], sizes["duration_s"], seed)
        config = make_config(trace, seed, sizes)
        simulation = CacheSimulation(
            config, traffic_streams(trace), make_policy(seed)
        )
    with Timer() as timed:
        result = simulation.run()
    return setup.seconds, timed.seconds, config, result


def _phase(
    sizes, seed: int, seconds: float, out: Outcome, runs: int = 1
) -> Dict[str, List[Any]]:
    """Iterate for ``seconds``, and at least ``runs`` times."""
    samples: Dict[str, List[Any]] = {"setup": [], "run": [], "results": []}
    deadline = time.perf_counter() + seconds
    while len(samples["run"]) < runs or time.perf_counter() < deadline:
        setup, run, config, result = _iteration(sizes, seed)
        samples["setup"].append(setup)
        samples["run"].append(run)
        samples["results"].append(result)
        expected = round(config.duration / config.query_period)
        out.attempted += 1
        if not out.check(
            "offline.query_count",
            result.query_count == expected,
            f"{result.query_count} queries, expected {expected}",
        ):
            out.failed += 1
    return samples


def fingerprint(result) -> Dict[str, Any]:
    """The deterministic outputs of a run: equal on every run of a seed."""
    return {
        "value_refreshes": result.value_refresh_count,
        "query_refreshes": result.query_refresh_count,
        "cost_rate": result.cost_rate,
        "hit_rate": result.cache_hit_rate,
        "events": result.events_processed,
    }


def run(
    seed: int,
    seconds: float,
    traced: bool,
    spec: Dict[str, Any],
    sizes: Optional[Dict[str, Any]] = None,
) -> Outcome:
    recorded = spec["workloads"][NAME]
    sizes = dict(recorded["sizes"], **(sizes or {}))
    out = Outcome()
    samples = _phase(sizes, seed, seconds, out)
    prints = [fingerprint(result) for result in samples["results"]]
    out.check(
        "offline.deterministic",
        all(item == prints[0] for item in prints),
        f"{len(prints)} runs of one seed",
    )
    if seed == spec["default_seed"] and sizes == recorded["sizes"]:
        expected = recorded["expected_at_default_seed"]
        got = {name: prints[0][name] for name in expected}
        out.check("offline.recorded_values", got == expected, f"{got} vs {expected}")
    runs = len(samples["run"])
    run_s = min(samples["run"])
    setup_s = min(samples["setup"])
    events = prints[0]["events"]
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "events_per_s": (events / run_s, "1/s"),
        "op_ms": (run_s * 1e3, "ms"),
    }
    out.add("setup_s", setup_s, "s", f"best of {runs}")
    out.add("sim_events_per_s", events / run_s, "events/s", f"{events} events per run")
    out.add("omega", prints[0]["cost_rate"], "cost/s", "deterministic per seed")
    out.add("run_ms", run_s * 1e3, "ms", f"best of {runs} runs")
    out.add("run_p50_ms", median(samples["run"]) * 1e3, "ms", f"median of {runs}")
    if traced:
        recorder = Recorder()
        with Tracer(recorder, type(make_policy(seed))):
            # Spans are kept in memory, so the traced phase is kept short.
            traced_samples = _phase(sizes, seed, 0.0, out, runs=TRACED_RUNS)
        runs = len(traced_samples["run"])
        result = traced_samples["results"][0]
        layers = layer_metrics([recorder.export_dict()], runs)
        screened = layers.pop("_screened")[0]
        layers["queries.keys_per_refresh"] = (
            screened / (result.query_refresh_count * runs)
            if result.query_refresh_count
            else 0.0,
            "keys/refresh",
        )
        layers["caching.value_refreshes"] = (result.value_refresh_count, "count")
        layers["caching.query_refreshes"] = (result.query_refresh_count, "count")
        layers["caching.hit_rate"] = (result.cache_hit_rate, "ratio")
        layers["trace.overhead"] = (
            median(traced_samples["run"]) / median(samples["run"]) - 1.0,
            "ratio",
        )
        out.layers = layers
    return out
