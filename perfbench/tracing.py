"""Spans around each layer's entry points, installed from outside ``src/``.

A traced run patches each layer's public entry point where its caller looks
it up (``repro.serving.transport`` imports ``encode_frame`` by name, so the
codec is patched in that module), records one span per call — name, start,
end, parent — keeps the spans in memory and turns them into per-layer
metrics when the run ends.  Spans of one RPC share an id carried by a
``contextvars`` variable: the client's ``Client.request`` span and every
span under it, and on the serving side the ``_dispatch`` span and every span
under it, are tagged ``<link>:<frame id>``, where ``<link>`` names the
connection identically on both ends.

End-to-end numbers never come from a traced run: the workloads measure an
untraced phase and a traced phase and report the difference as the tracing
overhead.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro.serving.execution as execution_module
import repro.serving.gateway as gateway_module
import repro.serving.server as server_module
import repro.serving.transport as transport_module
import repro.simulation.simulator as simulator_module
from repro.data.traffic import SyntheticTrafficTraceGenerator
from repro.serving.api import Client
from repro.serving.durability import PartitionDurability
from repro.serving.gateway import GatewayServer
from repro.serving.server import CacheServer
from repro.serving.transport import LoopbackFrameTransport, StreamFrameTransport
from repro.simulation.simulator import CacheSimulation

_SPAN: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_RPC: contextvars.ContextVar = contextvars.ContextVar("perfbench_rpc", default=None)

_MISSING = object()

#: Client-side operations whose RPC counts and times are reported per op.
CLIENT_OPS = ("query", "update_batch", "register")
#: Gateway-to-partition operations reported per op.
UPSTREAM_OPS = ("snapshot", "refresh_key", "update_batch", "register")


class Span:
    __slots__ = ("name", "start", "end", "parent", "rpc", "size", "index")

    def __init__(self, name: str, parent: Optional["Span"], rpc: Any) -> None:
        self.name = name
        self.parent = parent
        self.rpc = rpc
        self.size = 0
        self.end = 0.0
        self.start = time.perf_counter()


class Recorder:
    """The in-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def open(self, name: str, root: bool = False) -> Tuple[Span, Any]:
        span = Span(name, None if root else _SPAN.get(), _RPC.get())
        self.spans.append(span)
        return span, _SPAN.set(span)

    @staticmethod
    def close(span: Span, token: Any) -> None:
        span.end = time.perf_counter()
        _SPAN.reset(token)

    def export(self) -> List[List[Any]]:
        """Spans as rows ``[name, start, end, parent row, rpc id, op, size]``."""
        for index, span in enumerate(self.spans):
            span.index = index
        return [
            [
                span.name,
                span.start,
                span.end,
                span.parent.index if span.parent is not None else -1,
                span.rpc[0] if span.rpc else None,
                span.rpc[1] if span.rpc else None,
                span.size,
            ]
            for span in self.spans
        ]

    def export_dict(self) -> Dict[str, Any]:
        return {"spans": self.export(), "counts": dict(self.counts)}

    def write(self, path: Path) -> None:
        """Write the spans and counters out (called once, at the end)."""
        path.write_text(json.dumps(self.export_dict()), encoding="utf-8")


def _link_of(transport: Any, client_side: bool) -> str:
    """A connection name both ends compute identically."""
    if isinstance(transport, LoopbackFrameTransport):
        direction = transport._outbound if client_side else transport._inbound
        return f"lo{id(direction):x}"
    writer = getattr(transport, "_writer", None)
    if writer is not None:
        end = writer.get_extra_info("sockname" if client_side else "peername")
        if end:
            return f"tcp{end[1]}"
    return "?"


class Tracer:
    """Installs span wrappers on the layers' entry points; undoes them."""

    def __init__(self, recorder: Recorder, policy_type: type) -> None:
        self.recorder = recorder
        self._policy_type = policy_type
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrapper factories -------------------------------------------------
    def _sync(self, name: str, fn: Callable, after: Optional[Callable] = None):
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span, token)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _async(self, name: str, fn: Callable, before: Optional[Callable] = None):
        """Wrap a coroutine function; ``before`` starts a new RPC id.

        A span that starts an RPC on the serving side is a root: the task
        it runs in may have inherited an unrelated span from whichever call
        opened the connection.
        """
        recorder = self.recorder
        root = name.endswith(".dispatch")

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            rpc_token = before(args) if before is not None else None
            span, token = recorder.open(name, root)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(span, token)
                if rpc_token is not None:
                    _RPC.reset(rpc_token)

        return wrapper

    def _generator(self, name: str, fn: Callable, on_start: Callable):
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            on_start(args)
            span, token = recorder.open(name)
            try:
                key = next(steps)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder.close(span, token)
            while True:
                value = yield key
                span, token = recorder.open(name)
                try:
                    key = steps.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    recorder.close(span, token)

        return wrapper

    def _patch(self, owner: Any, attribute: str, wrapper: Any) -> None:
        self._saved.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, wrapper)

    # -- the layer map -----------------------------------------------------
    def install(self) -> "Tracer":
        counts = self.recorder.counts

        def sim_done(span, args, result):
            counts["simulation.events"] += result.events_processed

        def screened(args) -> None:
            counts["queries.select_calls"] += 1
            counts["queries.screened"] += len(args[1])

        def columnar_done(span, args, result):
            counts["queries.select_calls"] += 1
            counts["queries.screened"] += len(args[0])

        def refreshes_done(span, args, result):
            counts["queries.select_calls"] += 1
            counts["queries.screened"] += len(args[1])

        def encoded(span, args, result):
            span.size = len(result)

        def client_rpc(args):
            # The id is filled in by the transport wrapper once it is known.
            return _RPC.set([None, args[1]])

        def server_rpc(args):
            connection, frame = args[1], args[2]
            link = _link_of(connection.transport, client_side=False)
            return _RPC.set([f"{link}:{frame.get('id')}", frame.get("op")])

        def write_frame(fn):
            recorder = self.recorder

            @functools.wraps(fn)
            async def wrapper(transport, message):
                rpc = _RPC.get()
                if rpc is not None and rpc[0] is None and "op" in message:
                    rpc[0] = f"{_link_of(transport, True)}:{message.get('id')}"
                span, token = recorder.open("transport.write")
                try:
                    return await fn(transport, message)
                finally:
                    recorder.close(span, token)

            return wrapper

        self._patch(
            SyntheticTrafficTraceGenerator,
            "generate",
            self._sync("data.trace_gen", SyntheticTrafficTraceGenerator.generate),
        )
        self._patch(
            CacheSimulation,
            "run",
            self._sync("simulation.run", CacheSimulation.run, sim_done),
        )
        self._patch(
            simulator_module,
            "select_sum_refreshes_columnar",
            self._sync(
                "queries.select",
                simulator_module.select_sum_refreshes_columnar,
                columnar_done,
            ),
        )
        self._patch(
            simulator_module,
            "run_query_refreshes",
            self._sync(
                "queries.select",
                simulator_module.run_query_refreshes,
                refreshes_done,
            ),
        )
        self._patch(
            execution_module,
            "bounded_query_steps",
            self._generator(
                "queries.select", execution_module.bounded_query_steps, screened
            ),
        )
        for method in ("on_value_initiated_refresh", "on_query_initiated_refresh"):
            self._patch(
                self._policy_type,
                method,
                self._sync("caching.policy", getattr(self._policy_type, method)),
            )
        self._patch(
            transport_module,
            "encode_frame",
            self._sync("protocol.encode", transport_module.encode_frame, encoded),
        )
        self._patch(
            transport_module,
            "decode_payload",
            self._sync("protocol.decode", transport_module.decode_payload),
        )
        for transport_type in (LoopbackFrameTransport, StreamFrameTransport):
            self._patch(
                transport_type, "write_frame", write_frame(transport_type.write_frame)
            )
        self._patch(
            Client, "request", self._async("api.rpc", Client.request, client_rpc)
        )
        self._patch(
            CacheServer,
            "_dispatch",
            self._async("server.dispatch", CacheServer._dispatch, server_rpc),
        )
        self._patch(
            GatewayServer,
            "_dispatch",
            self._async("gateway.dispatch", GatewayServer._dispatch, server_rpc),
        )
        for module in (server_module, gateway_module):
            self._patch(
                module,
                "execute_partitioned_query",
                self._async("execution", module.execute_partitioned_query),
            )
        self._patch(
            PartitionDurability,
            "append",
            self._sync("wal.append", PartitionDurability.append),
        )

        def checkpointed(span, args, result):
            durability = args[0]
            try:
                span.size = os.path.getsize(durability.snapshot_path)
            except OSError:
                span.size = 0

        self._patch(
            PartitionDurability,
            "checkpoint",
            self._sync("wal.checkpoint", PartitionDurability.checkpoint, checkpointed),
        )
        self._patch(
            PartitionDurability,
            "load",
            self._sync("wal.load", PartitionDurability.load),
        )
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


class CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that counts its iterations (one per ``_run_once``)."""

    iterations = 0

    def _run_once(self) -> None:
        self.iterations += 1
        super()._run_once()


def run_counting(main: Any) -> Tuple[Any, int]:
    """``asyncio.run`` on a :class:`CountingLoop`; returns (result, iterations)."""
    with asyncio.Runner(loop_factory=CountingLoop) as runner:
        result = runner.run(main)
        return result, runner.get_loop().iterations


# ---------------------------------------------------------------------------
# Turning spans into per-layer metrics
# ---------------------------------------------------------------------------
def _self_times(rows: List[List[Any]]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to their parent's interval (a task inherits the
    span current when it was created and may outlive it) and concurrent
    children count once (the union of their intervals).
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for row in rows:
        parent = row[3]
        if parent >= 0:
            start = max(row[1], rows[parent][1])
            end = min(row[2], rows[parent][2])
            if end > start:
                children[parent].append((start, end))
    own = [row[2] - row[1] for row in rows]
    for parent, intervals in children.items():
        intervals.sort()
        covered, reach = 0.0, -float("inf")
        for start, end in intervals:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        own[parent] -= covered
    return own


def _has_ancestor(rows: List[List[Any]], index: int, name: str) -> bool:
    parent = rows[index][3]
    while parent >= 0:
        if rows[parent][0] == name:
            return True
        parent = rows[parent][3]
    return False


def layer_metrics(
    exports: Iterable[Dict[str, Any]], iterations: int
) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts and times from one or more processes' spans.

    A selection driven step by step (the serving path's generator) records
    one ``queries.select`` span per step and counts as one call.

    Counts and times are totals per workload iteration (one simulation run,
    one replay, or one open-loop session).  ``api.*`` covers the benchmark's
    own RPCs only (root spans); RPCs the gateway sends to its partitions are
    ``gateway.upstream_*``.
    """
    totals: Dict[str, float] = defaultdict(float)
    maxima: Dict[str, float] = defaultdict(float)
    for export in exports:
        rows = export["spans"]
        for name, value in export["counts"].items():
            totals[f"count:{name}"] += value
        own = _self_times(rows)
        for index, row in enumerate(rows):
            name = row[0]
            duration = row[2] - row[1]
            totals[f"n:{name}"] += 1
            totals[f"s:{name}"] += duration
            totals[f"self:{name}"] += own[index]
            totals[f"size:{name}"] += row[6]
            if name == "gateway.dispatch":
                totals[f"n:gateway.dispatch:{row[5]}"] += 1
            maxima[name] = max(maxima[name], duration)
            if name == "api.rpc":
                op = row[5]
                if _has_ancestor(rows, index, "gateway.dispatch"):
                    totals[f"n:upstream.{op}"] += 1
                    totals["s:upstream"] += duration
                elif row[3] < 0:
                    totals[f"n:rpc.{op}"] += 1
                    totals[f"s:rpc.{op}"] += duration
                    totals["n:client_rpcs"] += 1
    per = 1.0 / max(iterations, 1)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, Tuple[float, str]] = {
        "data.trace_gen_s": (totals["s:data.trace_gen"] * per, "s"),
        "simulation.run_s": (totals["s:simulation.run"] * per, "s"),
        "simulation.events": (totals["count:simulation.events"] * per, "count"),
        "queries.select_calls": (
            totals["count:queries.select_calls"] * per,
            "count",
        ),
        "queries.select_s": (totals["self:queries.select"] * per, "s"),
        "caching.policy_s": (totals["s:caching.policy"] * per, "s"),
        "protocol.encode_calls": (totals["n:protocol.encode"] * per, "count"),
        "protocol.encode_s": (totals["s:protocol.encode"] * per, "s"),
        "protocol.decode_s": (totals["s:protocol.decode"] * per, "s"),
        "protocol.bytes": (totals["size:protocol.encode"] * per, "bytes"),
        "transport.frames": (totals["n:transport.write"] * per, "count"),
        "transport.write_s": (totals["self:transport.write"] * per, "s"),
        "transport.frames_per_rpc": (
            ratio(totals["n:transport.write"], totals["n:client_rpcs"]),
            "frames/rpc",
        ),
        "server.dispatch_self_s": (
            (totals["self:server.dispatch"] + totals["self:gateway.dispatch"]) * per,
            "s",
        ),
        "execution.calls": (totals["n:execution"] * per, "count"),
        "execution.s": (totals["s:execution"] * per, "s"),
        "wal.appends": (totals["n:wal.append"] * per, "count"),
        "wal.append_s": (totals["s:wal.append"] * per, "s"),
        "wal.checkpoints": (totals["n:wal.checkpoint"] * per, "count"),
        "wal.checkpoint_s": (totals["s:wal.checkpoint"] * per, "s"),
        "wal.checkpoint_max_ms": (maxima["wal.checkpoint"] * 1e3, "ms"),
        "wal.load_s": (totals["s:wal.load"] * per, "s"),
        "gateway.upstream_s": (totals["s:upstream"] * per, "s"),
        "gateway.partitions_per_query": (
            ratio(totals["n:upstream.snapshot"], totals["n:gateway.dispatch:query"]),
            "partitions",
        ),
    }
    for op in CLIENT_OPS:
        metrics[f"api.rpcs.{op}"] = (totals[f"n:rpc.{op}"] * per, "count")
        metrics[f"api.rpc_s.{op}"] = (totals[f"s:rpc.{op}"] * per, "s")
    for op in UPSTREAM_OPS:
        metrics[f"gateway.upstream_rpcs.{op}"] = (
            totals[f"n:upstream.{op}"] * per,
            "count",
        )
    metrics["_screened"] = (totals["count:queries.screened"], "count")
    metrics["_client_rpcs"] = (totals["n:client_rpcs"], "count")
    metrics["_checkpoint_bytes"] = (totals["size:wal.checkpoint"], "bytes")
    return metrics
