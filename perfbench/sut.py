"""The open-loop workload's system under test, run as its own process.

``python3 -m perfbench.sut --seed N --wal-dir DIR [--trace-out FILE]``
serves a :class:`GatewayServer` over two in-process durable
:class:`CacheServer` partitions on ``127.0.0.1`` (an ephemeral port), with
the metrics registry on.  It prints ``{"port": P}`` when it listens, then
waits for a ``stop`` line on standard input; on ``stop`` it closes the
gateway and the partitions (flushing their WALs) and prints one JSON line
with each partition's counters at shutdown.  With ``--trace-out`` the
benchmark's span wrappers are installed in this process and the spans are
written to that file at the end.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.obs.metrics import REGISTRY
from repro.serving.durability import PartitionDurability
from repro.serving.gateway import GatewayServer
from repro.serving.server import CacheServer

from perfbench.common import make_policy
from perfbench.tracing import Recorder, Tracer, run_counting

PARTITIONS = 2


def durable_partition(
    seed: int, wal_dir: Path, index: int, checkpoint_every: int, fsync: str
) -> CacheServer:
    """One durable partition; also how the benchmark rebuilds one from its WAL."""
    return CacheServer(
        make_policy(seed),
        durability=PartitionDurability(
            wal_dir, index, checkpoint_every=checkpoint_every, fsync=fsync
        ),
    )


def partition_counters(server: CacheServer) -> dict:
    statistics = server.statistics
    return {
        "value_refreshes": statistics.value_refreshes,
        "query_refreshes": statistics.query_refreshes,
        "total_cost": statistics.total_cost,
    }


async def serve(args: argparse.Namespace) -> dict:
    REGISTRY.enabled = True
    partitions = [
        durable_partition(
            args.seed, Path(args.wal_dir), index, args.checkpoint_every, args.fsync
        )
        for index in range(PARTITIONS)
    ]
    gateway = GatewayServer(partitions)
    await gateway.start()
    listener = await gateway.start_tcp("127.0.0.1", 0)
    port = listener.sockets[0].getsockname()[1]
    print(json.dumps({"port": port}), flush=True)
    loop = asyncio.get_running_loop()
    while (await loop.run_in_executor(None, sys.stdin.readline)).strip() != "stop":
        pass
    await gateway.close()
    counters = []
    for partition in partitions:
        await partition.close()
        counters.append(partition_counters(partition))
    wal = [{"wal_bytes": part.durability.bytes_appended} for part in partitions]
    return {"partitions": counters, "wal": wal}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--checkpoint-every", type=int, required=True)
    parser.add_argument("--fsync", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if args.trace_out is None:
        final = asyncio.run(serve(args))
    else:
        recorder = Recorder()
        with Tracer(recorder, type(make_policy(args.seed))):
            final, recorder.counts["loop.iterations"] = run_counting(serve(args))
        recorder.write(Path(args.trace_out))
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
