"""``openloop-gateway-wal``: open-loop load on a gateway with durable partitions.

The system under test (``perfbench/sut.py``) runs in its own process: a
``GatewayServer`` over two in-process ``CacheServer`` partitions, each with
a write-ahead log, served over TCP, metrics registry on.  This process is
the generator: one thread, two TCP connections.

* The feeder connection registers a seeded trace's hosts, then sends one
  ``update_batch`` per trace instant on a fixed trace-to-wall schedule
  (``updates_per_s``), without waiting for earlier batches, and answers
  the partitions' refresh RPCs with the values it has sent.
* The query connection sends Poisson arrivals (Zipf key popularity, a
  finite precision constraint, so value- and query-initiated refreshes both
  occur) at the ``low`` rate, then the ``high`` rate, then up a short
  ladder of rates, each request as its own task, never waiting for
  earlier answers.

Every latency is timed from when the request was due, so a stall also
counts against the requests queued behind it.  After the run the system
under test is stopped and each partition is rebuilt from the run's WAL
directory; its refresh counts and cost must equal the live partition's.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.queries.aggregates import AggregateKind
from repro.serving.api import Client
from repro.serving.errors import ConnectionLost, DeadlineExceeded, RequestRejected

from perfbench.common import (
    Outcome,
    answer_ok,
    make_policy,
    make_trace,
    median,
    tail,
)
from perfbench.sut import PARTITIONS, durable_partition, partition_counters
from perfbench.tracing import Recorder, Tracer, layer_metrics

NAME = "openloop-gateway-wal"
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for WAL directories and span files (listed in ``.gitignore``).
WORK = Path(__file__).resolve().parent / ".work"
RPC_ERRORS = (ConnectionLost, DeadlineExceeded, RequestRejected)
#: Set-up is repeated this many times; the best is reported.
SETUPS = 8
#: The low and high rates alternate this many times, so each rate's samples
#: span the whole run rather than one stretch of it; the ladder follows.
CYCLES = 4
#: Shares of the run spent at the low rate, the high rate and on the ladder.
PHASE_SHARES = (0.20, 0.45, 0.35)
#: Partition counters a rebuild from the WAL must reproduce exactly.
RECOVERED = ("value_refreshes", "query_refreshes", "total_cost")


class SystemUnderTest:
    """The ``perfbench.sut`` process: start, CPU time, stop."""

    def __init__(self, seed: int, wal: Dict[str, Any], trace_out: Optional[Path]):
        WORK.mkdir(exist_ok=True)
        self.wal_dir = WORK / f"wal-{os.getpid()}-{time.monotonic_ns()}"
        command = [
            sys.executable,
            "-m",
            "perfbench.sut",
            "--seed",
            str(seed),
            "--wal-dir",
            str(self.wal_dir),
            "--checkpoint-every",
            str(wal["checkpoint_every"]),
            "--fsync",
            wal["fsync"],
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=environment,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def port(self) -> int:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the system under test exited before listening")
        return json.loads(line)["port"]

    def cpu_seconds(self) -> float:
        """CPU time all the process's threads have run so far.

        Read from each thread's ``schedstat``, which the scheduler keeps in
        nanoseconds; the tick-sampled counters in ``/proc/<pid>/stat`` are
        too coarse for the second or so a phase lasts.
        """
        tasks = Path(f"/proc/{self.process.pid}/task")
        total = 0
        for task in os.listdir(tasks):
            with open(tasks / task / "schedstat", encoding="ascii") as stat:
                total += int(stat.read().split()[0])
        return total / 1e9

    def stop(self) -> Dict[str, Any]:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
            self.process.wait(timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        if not line:
            raise RuntimeError("the system under test exited without its counters")
        return json.loads(line)

    def discard(self) -> None:
        shutil.rmtree(self.wal_dir, ignore_errors=True)


def _zipf_keys(keys, count: int, exponent: float, rng: random.Random) -> List[Any]:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(keys))]
    chosen: List[Any] = []
    while len(chosen) < count:
        (key,) = rng.choices(keys, weights=weights, k=1)
        if key not in chosen:
            chosen.append(key)
    return chosen


def schedule(
    sizes: Dict[str, Any], recorded: Dict[str, Any], seed: int, seconds: float, keys
) -> Tuple[List[Tuple[str, float, float]], List[Tuple[float, int, List[Any]]]]:
    """The seeded plan.

    Returns the phases ``(name, start, rate)`` and the queries ``(due,
    phase index, keys)``: Poisson arrivals at each phase's rate, each
    drawing its keys with Zipf popularity over the trace's host order.
    """
    rates = recorded["rates_qps"]
    ladder = recorded["ladder_qps"]
    shares = PHASE_SHARES if ladder else PHASE_SHARES[:2]
    low, high, climb = (share / sum(shares) * seconds for share in PHASE_SHARES)
    phases = []
    for cycle in range(CYCLES):
        start = cycle * (low + high) / CYCLES
        phases.append(("low", start, rates["low"]))
        phases.append(("high", start + low / CYCLES, rates["high"]))
    for index, rate in enumerate(ladder):
        start = low + high + index * climb / len(ladder)
        phases.append((f"ladder{rate:g}", start, rate))
    rng = random.Random(f"perfbench-openloop:{seed}")
    queries = []
    for index, (name, start, rate) in enumerate(phases):
        end = phases[index + 1][1] if index + 1 < len(phases) else seconds
        due = start
        while True:
            due += rng.expovariate(rate)
            if due >= end:
                break
            picked = _zipf_keys(keys, sizes["keys_per_query"], sizes["zipf_s"], rng)
            queries.append((due, index, picked))
    return phases, queries


async def session(
    port: int,
    trace,
    sizes: Dict[str, Any],
    recorded: Dict[str, Any],
    seed: int,
    seconds: float,
    started: float,
    sut: SystemUnderTest,
) -> Dict[str, Any]:
    """Connect, register, and (``seconds > 0``) drive the open-loop run."""
    keys = list(trace.keys)
    instants = trace.length
    values = {key: trace.series[key][0] for key in keys}
    deadline = recorded["deadline_s"]
    feeder = await Client.connect(
        ("127.0.0.1", port),
        on_refresh=lambda key: values[key],
        default_deadline=deadline,
    )
    querier = await Client.connect(("127.0.0.1", port), default_deadline=deadline)
    result: Dict[str, Any] = {
        "queries": [],
        "updates": [],
        "late": [],
        "errors": 0,
        "bad_answers": 0,
        "update_bytes": 0,
    }
    try:
        await feeder.register(keys, [values[key] for key in keys], feeder="feeder-0")
        result["setup_s"] = time.perf_counter() - started
        if seconds <= 0:
            return result
        phases, queries = schedule(sizes, recorded, seed, seconds, keys)
        ends = [start for _, start, _ in phases[1:]] + [seconds]
        period = len(keys) / recorded["updates_per_s"]
        updates = []
        for instant in range(1, instants):
            due = instant * period
            if due >= seconds:
                break
            phase = next(index for index, end in enumerate(ends) if due < end)
            updates.append((due, phase, instant))
        constraint = sizes["constraint"]
        kind = AggregateKind[sizes["aggregates"][0]]
        limit = recorded["latency_limit_ms"]
        # Queries sent and not yet answered: token -> (phase, due).
        waiting: Dict[int, Tuple[int, float]] = {}
        tokens = itertools.count()

        async def query(due: float, phase: int, query_keys: List[Any]) -> None:
            token = next(tokens)
            waiting[token] = (phase, due)
            try:
                answer = await querier.query(
                    query_keys, aggregate=kind, constraint=constraint
                )
            except RPC_ERRORS:
                result["errors"] += 1
                answer = None
            finally:
                del waiting[token]
            latency = time.perf_counter() - begin - due
            ok = answer is not None
            if ok and (
                answer.degraded
                or not answer_ok(answer.low, answer.high, constraint, None)
            ):
                result["bad_answers"] += 1
                ok = False
            result["queries"].append((phase, latency, ok))

        async def update(due: float, phase: int, instant: int) -> None:
            batch = [(key, trace.series[key][instant]) for key in keys]
            for key, value in batch:
                values[key] = value
            result["update_bytes"] += len(json.dumps(batch, separators=(",", ":")))
            try:
                await feeder.update_batch(batch, time=float(instant))
                ok = True
            except RPC_ERRORS:
                result["errors"] += 1
                ok = False
            result["updates"].append((phase, time.perf_counter() - begin - due, ok))

        events = sorted(
            [(due, 1, phase, picked) for due, phase, picked in queries]
            + [(due, 0, phase, instant) for due, phase, instant in updates],
            key=lambda event: (event[0], event[1]),
        )
        tasks = []
        marks = []
        cpu = [sut.cpu_seconds()]
        climbing = True
        begin = time.perf_counter()

        def mark() -> None:
            # A phase ended: note how late the generator runs, the backlog
            # and the system under test's CPU time so far.  The ladder stops
            # at its first step that misses the limit, before the backlog
            # could grow into rejected requests.  A step's queries still in
            # flight are not answered yet; one already older than the limit
            # makes the step miss.
            nonlocal climbing
            index = len(marks)
            now = time.perf_counter() - begin
            lateness = now - ends[index]
            marks.append((lateness, len(waiting)))
            cpu.append(sut.cpu_seconds())
            name, _, rate = phases[index]
            if climbing and name.startswith("ladder"):
                samples = [
                    (latency, ok)
                    for phase, latency, ok in result["queries"]
                    if phase == index
                ]
                overdue = any(
                    phase == index and (now - due) * 1e3 > limit
                    for phase, due in waiting.values()
                )
                climbing = not overdue and step_meets(
                    samples, lateness, len(waiting), rate, limit
                )

        for due, is_query, phase, payload in events:
            while due >= ends[len(marks)]:
                mark()
            if is_query and not climbing and phases[phase][0].startswith("ladder"):
                continue
            wait = due - (time.perf_counter() - begin)
            if wait > 0:
                await asyncio.sleep(wait)
            result["late"].append(time.perf_counter() - begin - due)
            handler = query if is_query else update
            tasks.append(asyncio.ensure_future(handler(due, phase, payload)))
        wait = seconds - (time.perf_counter() - begin)
        if wait > 0:
            await asyncio.sleep(wait)
        while len(marks) < len(phases):
            mark()
        await asyncio.gather(*tasks)
        result.update(
            phases=phases,
            marks=marks,
            cpu=cpu,
            fed_instants=len(updates),
            hosts=len(keys),
        )
        stats = await querier.stats()
        result["stats"] = stats
    finally:
        await feeder.close()
        await querier.close()
    return result


def _setup(seed, sizes, recorded, seconds, trace_out=None):
    """Start the system under test and run one session against it."""
    started = time.perf_counter()
    sut = SystemUnderTest(seed, recorded["wal"], trace_out)
    try:
        trace = make_trace(sizes["hosts"], sizes["duration_s"], seed)
        port = sut.port()
        result = asyncio.run(
            session(port, trace, sizes, recorded, seed, seconds, started, sut)
        )
        result["final"] = sut.stop()
    except BaseException:
        if sut.process.poll() is None:
            sut.process.kill()
            sut.process.wait()
        sut.discard()
        raise
    return sut, result


async def _recover(seed: int, wal_dir: Path, wal: Dict[str, Any]):
    """Rebuild every partition from the WAL directory; time each rebuild."""
    rebuilt, seconds = [], 0.0
    for index in range(PARTITIONS):
        begin = time.perf_counter()
        server = durable_partition(
            seed, wal_dir, index, wal["checkpoint_every"], wal["fsync"]
        )
        seconds += time.perf_counter() - begin
        rebuilt.append(partition_counters(server))
        await server.close()
    return rebuilt, seconds


def _by_phase_name(result) -> Dict[str, Dict[str, List[Tuple[float, bool]]]]:
    """Query and update samples ``(latency, ok)`` grouped by phase name."""
    split: Dict[str, Dict[str, List[Tuple[float, bool]]]] = {
        name: {"queries": [], "updates": []} for name, _, _ in result["phases"]
    }
    for kind in ("queries", "updates"):
        for phase, latency, ok in result[kind]:
            split[result["phases"][phase][0]][kind].append((latency, ok))
    return split


def _measure(seed, sizes, recorded, seconds, out: Outcome, trace_out=None):
    """One measured session plus the recovery check; returns its figures."""
    sut, result = _setup(seed, sizes, recorded, seconds, trace_out)
    try:
        final = result["final"]
        recovered, recovery_s = asyncio.run(
            _recover(seed, sut.wal_dir, recorded["wal"])
        )
    finally:
        sut.discard()
    live = [{name: c[name] for name in RECOVERED} for c in final["partitions"]]
    rebuilt = [{name: c[name] for name in RECOVERED} for c in recovered]
    out.check("openloop.recovery_equals_live", live == rebuilt, f"{rebuilt} vs {live}")
    bad = result["bad_answers"]
    degraded = result["stats"]["queries_degraded"]
    out.check(
        "openloop.answers",
        bad == 0 and degraded == 0,
        f"{bad} answers are degraded or fail low <= high or their constraint; "
        f"the gateway counts {degraded} degraded",
    )
    stats = result["stats"]
    received = stats["updates_applied"] + stats["updates_ignored"]
    sent = len(result["updates"]) * result["hosts"]
    out.check(
        "openloop.no_errors",
        result["errors"] == 0,
        f"{result['errors']} RPCs failed (rejected, past deadline or lost)",
    )
    out.check(
        "openloop.updates_received",
        received == sent,
        f"the partitions received {received} of {sent} updates sent",
    )
    out.attempted += len(result["queries"]) + len(result["updates"])
    out.failed += result["errors"] + bad
    result["recovery_s"] = recovery_s
    return result


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
    setups = []
    for _ in range(SETUPS - 1):
        # Set-up alone: start, register, stop.
        sut, result = _setup(seed, sizes, recorded, 0.0)
        sut.discard()
        setups.append(result["setup_s"])
    result = _measure(seed, sizes, recorded, seconds, out)
    setups.append(result["setup_s"])
    _report(result, recorded, setups, out)
    if traced:
        WORK.mkdir(exist_ok=True)
        trace_out = WORK / f"spans-{os.getpid()}.json"
        recorder = Recorder()
        try:
            with Tracer(recorder, type(make_policy(seed))):
                # Spans are kept in memory, so the traced session is shorter;
                # tracing slows the server, so it skips the ladder.
                traced_result = _measure(
                    seed,
                    sizes,
                    dict(recorded, ladder_qps=[]),
                    seconds / 2,
                    out,
                    trace_out,
                )
            served = json.loads(trace_out.read_text(encoding="utf-8"))
        finally:
            trace_out.unlink(missing_ok=True)
        layers = layer_metrics([served, recorder.export_dict()], 1)
        _trace_layers(traced_result, served, layers, out)
    return out


def _tail_ms(samples) -> float:
    return tail(samples)[1] * 1e3 if samples else math.nan


def step_meets(samples, lateness: float, in_flight: int, rate: float, limit: float):
    """Whether a ladder step met the latency limit without a growing backlog.

    Its answers all passed, their tail is within ``limit`` ms, and at the
    step's end the generator was not late by more than the limit and no
    more requests were in flight than the limit's worth at the step's rate.
    """
    return (
        bool(samples)
        and all(ok for _, ok in samples)
        and _tail_ms([latency for latency, _ in samples]) <= limit
        and lateness * 1e3 <= limit
        and in_flight <= max(10.0, rate * limit / 1e3)
    )


def _high_load(result) -> Tuple[int, int, float]:
    """At the high rate: operations sent (queries and update batches), events
    (queries and single updates), and the CPU seconds the server used then."""
    high = _by_phase_name(result)["high"]
    cpu = result["cpu"]
    busy = sum(
        cpu[index + 1] - cpu[index]
        for index, (name, _, _) in enumerate(result["phases"])
        if name == "high"
    )
    queries, batches = len(high["queries"]), len(high["updates"])
    return queries + batches, queries + batches * result["hosts"], busy


def _report(result, recorded, setups, out: Outcome) -> None:
    phases = result["phases"]
    split = _by_phase_name(result)
    limit = recorded["latency_limit_ms"]
    omega = sum(counters["total_cost"] for counters in result["final"]["partitions"])
    omega /= max(result["fed_instants"], 1)
    ops, events, cpu = _high_load(result)
    out.metrics = {
        "setup_s": (min(setups), "s"),
        "events_per_s": (events / cpu, "1/s"),
        "op_ms": (cpu / ops * 1e3, "ms"),
    }
    out.add("setup_s", min(setups), "s", f"best of {len(setups)}")
    failed_frac = out.failed / out.attempted if out.attempted else 0.0
    out.add("failed_frac", failed_frac, "ratio", f"{out.failed} of {out.attempted} ops")
    out.add(
        "events_per_cpu_s",
        events / cpu,
        "events/s",
        f"at the high rate: {events} events, {cpu:.3f} server CPU s",
    )
    out.add(
        "cpu_ms_per_op",
        cpu / ops * 1e3,
        "ms",
        f"server CPU per query or update batch at the high rate, n={ops}",
    )
    out.add("omega", omega, "cost/s", f"{result['fed_instants']} trace s fed")
    for name in ("low", "high"):
        samples = [latency for latency, _ in split[name]["queries"]]
        out.add(f"lat_p50_ms.{name}", median(samples) * 1e3, "ms", f"n={len(samples)}")
        out.add_tail(f"lat_p99_ms.{name}", samples)
    out.add_tail(
        "update_lat_p99_ms.high", [latency for latency, _ in split["high"]["updates"]]
    )
    best = 0.0
    for index, (name, _, rate) in enumerate(phases):
        if not name.startswith("ladder"):
            continue
        samples = split[name]["queries"]
        lateness, in_flight = result["marks"][index]
        ok = step_meets(samples, lateness, in_flight, rate, limit)
        out.add(
            f"step_{rate:g}_tail_ms",
            _tail_ms([latency for latency, _ in samples]),
            "ms",
            f"in flight {in_flight}, late {lateness * 1e3:.1f} ms, "
            + ("meets" if ok else "misses")
            + f" the {limit:g} ms limit",
        )
        if not ok:
            break
        best = rate
    out.add("max_rate_qps", best, "q/s", f"latency limit {limit:g} ms")
    out.add("recovery_s", result["recovery_s"], "s", f"{PARTITIONS} partitions")
    out.add("gen.late_p99_ms", _tail_ms(result["late"]), "ms", "generator lateness")


def _trace_layers(traced, served, layers, out: Outcome) -> None:
    """Complete the per-layer table of a traced open-loop run."""
    stats = traced["stats"]
    final = traced["final"]
    rpcs = layers.pop("_client_rpcs")[0]
    screened = layers.pop("_screened")[0]
    checkpoint_bytes = layers.pop("_checkpoint_bytes")[0]
    query_refreshes = sum(c["query_refreshes"] for c in final["partitions"])
    layers["queries.keys_per_refresh"] = (
        screened / query_refreshes if query_refreshes else 0.0,
        "keys/refresh",
    )
    layers["caching.value_refreshes"] = (
        sum(c["value_refreshes"] for c in final["partitions"]),
        "count",
    )
    layers["caching.query_refreshes"] = (query_refreshes, "count")
    layers["caching.hit_rate"] = (stats["hit_rate"], "ratio")
    layers["feeder.refresh_rpcs"] = (stats["gateway_refresh_rpcs"], "count")
    layers["loop.iterations_per_rpc"] = (
        served["counts"].get("loop.iterations", 0.0) / rpcs if rpcs else 0.0,
        "iter/rpc",
    )
    written = sum(wal["wal_bytes"] for wal in final["wal"]) + checkpoint_bytes
    layers["wal.bytes_per_update"] = (
        written / traced["update_bytes"] if traced["update_bytes"] else 0.0,
        "bytes/byte",
    )
    layers["gen.late_p99_ms"] = (_tail_ms(traced["late"]), "ms")
    untraced_rate = out.metrics["events_per_s"][0]
    _, events, cpu = _high_load(traced)
    traced_rate = events / cpu if cpu else 0.0
    layers["trace.overhead"] = (
        untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
        "ratio",
    )
    out.layers = layers
