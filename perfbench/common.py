"""Shared pieces of the benchmark: the spec, seeded inputs, statistics.

Every workload draws its inputs from the ``--seed`` argument alone: the
synthetic traffic trace, the query workload and the precision policy are
all seeded from it, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.data.traffic import SyntheticTrafficTraceGenerator
from repro.experiments.workloads import serving_config, serving_policy
from repro.queries.aggregates import AggregateKind
from repro.simulation.config import SimulationConfig

SPEC_PATH = Path(__file__).with_name("spec.json")
CONTRACT_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Answers may differ from the exact aggregate by float rounding only.
TOLERANCE = 1e-9


def load_spec() -> Dict[str, Any]:
    """The benchmark's recorded workload sizes, rates and expected values."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads and the metrics' names and units."""
    return json.loads(CONTRACT_PATH.read_text(encoding="utf-8"))


def make_trace(hosts: int, duration: int, seed: int):
    """Generate the seeded synthetic traffic trace (never read from disk)."""
    return SyntheticTrafficTraceGenerator(
        host_count=hosts, duration_seconds=duration, seed=seed
    ).generate()


def make_config(trace, seed: int, sizes: Dict[str, Any]) -> SimulationConfig:
    """The serving stack's default workload config over ``trace``."""
    return serving_config(trace, seed=seed).with_changes(
        query_size=sizes["keys_per_query"],
        aggregates=tuple(AggregateKind[name] for name in sizes["aggregates"]),
    )


def make_policy(seed: int):
    """The serving stack's default policy (``serving_policy``)."""
    return serving_policy(cost_factor=1.0, seed=seed)


def true_aggregate(kind: AggregateKind, keys, values: Dict[Hashable, float]) -> float:
    sample = [values[key] for key in keys]
    if kind is AggregateKind.SUM:
        return sum(sample)
    if kind is AggregateKind.MAX:
        return max(sample)
    raise ValueError(f"the benchmark issues no {kind.name} queries")


def answer_ok(
    low: float, high: float, constraint: float, truth: Optional[float]
) -> bool:
    """An answer is ordered, within its constraint, and holds the truth."""
    pad = TOLERANCE * max(1.0, abs(high), abs(low))
    if not low <= high + pad:
        return False
    if math.isfinite(constraint) and high - low > constraint + pad:
        return False
    if truth is not None and not low - pad <= truth <= high + pad:
        return False
    return True


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, count)``: the highest percentile of a fixed
    ladder that has at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    count = len(ordered)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        if count * (1.0 - pct / 100.0) >= 10.0:
            rank = max(0, math.ceil(pct / 100.0 * count) - 1)
            return pct, ordered[rank], count
    return 0.0, (ordered[0] if ordered else math.nan), count


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else math.nan


def best_of(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise minimum over repeats of the same sequence of operations.

    Each repeat times the same deterministic operations in the same order;
    the best time of each operation is its cost with the least interference
    from whatever else shares the machine, so sums and medians of these best
    times drift less from run to run than plain medians do.
    """
    return [min(times) for times in zip(*repeats)]


class Timer:
    """``with Timer() as t: ...`` then ``t.seconds``."""

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


@dataclass
class Outcome:
    """What one workload run reports.

    ``metrics`` are the gated end-to-end metrics (every workload reports
    every one of them); ``report`` are the workload's own end-to-end
    figures, printed by name and unit; ``layers`` are the per-layer
    metrics of a traced run.
    """

    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: List[Tuple[str, float, str, str]] = field(default_factory=list)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and bool(self.checks)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report.append((name, value, unit, note))

    def add_tail(self, name: str, samples: Sequence[float]) -> None:
        """Report the highest supported percentile of ``samples`` (s) in ms."""
        pct, value, count = tail(samples)
        self.add(name, value * 1e3, "ms", f"p{pct:g} of n={count}")
