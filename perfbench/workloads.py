"""The three benchmark workloads: set-up, timed part and output checks.

Each workload is a class with three methods, called in this order by
``child.py`` inside a fresh interpreter:

* ``setup(seed, workdir)`` builds the inputs (not timed, but reported as
  part of ``setup_s``);
* ``run()`` is the timed part and returns the outputs;
* ``check(outputs)`` verifies the outputs outside timing and returns a
  list of problems (empty when correct).

Every workload reports the same end-to-end metrics, each measured on
the workload's own unit of work (see ``README.md``):

* ``throughput_per_s``: work items finished per second of ``wall_s``;
* ``p50_ms`` / ``p99_ms``: latency of the workload's finest answer unit.

``layer_metrics`` adds, in the traced run, the per-layer numbers that
only the workload can read (cache and query-plane counters).
"""

from __future__ import annotations

import functools
import math
import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import reference
from stats import highest_percentile, percentile
from tracing import NAME, RID, Patches, subclasses

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: Fields of AggregateMetrics / UserMetrics that are shares of time or
#: activity, hence must lie in [0, 1].
RATIO_FIELDS = (
    "availability",
    "max_achievable_availability",
    "aod_time",
    "aod_activity",
    "expected_activity_fraction",
)

POLICIES = ("maxav", "mostactive", "random")


def _policies():
    from repro.core import make_policy

    return [make_policy(name) for name in POLICIES]


def outer_timer(samples: List[float]):
    """A wrapper factory for :class:`tracing.Patches` that appends the
    duration of each outermost call to ``samples``.  The wrappers it
    makes share one depth, so a wrapped function calling another (a
    hybrid policy calling maxav) is one sample.  Two clock reads per
    call: the untraced run can afford it."""
    depth = [0]
    clock = time.perf_counter

    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    samples.append(clock() - start)

        return timed

    return make


def first_return(marks: List[float]):
    """A wrapper factory that records the clock when the first call
    returns."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not marks:
                marks.append(time.perf_counter())
            return result

        return wrapper

    return make


class Workload:
    """Shared metric arithmetic and the hooks' defaults."""

    name = ""
    #: Called with each request's index before it is sent, by workloads
    #: that serve requests (the traced run stamps spans with it).
    on_request = None

    def metrics(self, outputs, wall: float) -> Dict[str, float]:
        latencies = [1000.0 * s for s in outputs["latencies_s"]]
        return {
            "throughput_per_s": outputs["items"] / wall,
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            # Recorded with the samples, not printed as metrics.
            "latency_samples": len(latencies),
            "highest_percentile": highest_percentile(len(latencies)),
        }

    def layer_metrics(self, tracer, outputs) -> Dict[str, float]:
        return {}

    def experiment_ids(self) -> List[str]:
        return []

    def cohort_size(self) -> int:
        return 0

    def survivor_users(self) -> int:
        return 0


class PaperBatch(Workload):
    """``run_batch`` over every experiment id at BENCH scale.

    Items are experiments; the answer unit is one replica selection (a
    policy's ``select`` for one user), the decision every figure
    aggregates.
    """

    name = "paper-batch"

    def setup(self, seed: int, workdir: Path) -> None:
        # The seed does not reach this workload: BENCH fixes the paper's
        # datasets, so every seed replays the same batch.
        from repro.cache import SweepCache
        from repro.experiments import (
            BENCH,
            experiment_ids,
            facebook_dataset,
            twitter_dataset,
        )
        from repro.parallel import ParallelExecutor

        self.scale = BENCH
        self.ids = experiment_ids()
        facebook_dataset(BENCH)
        twitter_dataset(BENCH)
        self.cache = SweepCache()
        self.executor = ParallelExecutor(jobs=1)
        self.out = Path(tempfile.mkdtemp(prefix="paper-batch-", dir=workdir))

    def run(self) -> Dict[str, object]:
        from repro.core.placement.base import PlacementPolicy
        from repro.experiments import run_batch

        selects: List[float] = []
        patches = Patches()
        timed = outer_timer(selects)
        for cls in subclasses(PlacementPolicy):
            patches.method(cls, "select", timed)
        try:
            run_batch(
                self.out,
                scale=self.scale,
                ids=self.ids,
                jobs=1,
                cache=self.cache,
                executor=self.executor,
            )
        finally:
            patches.undo()
            self.executor.close()
        quarantined = len(self.executor.failures.quarantined)
        return {
            "attempted": len(self.ids) + quarantined,
            "failed": quarantined,
            "items": len(self.ids),
            "latencies_s": selects,
        }

    def check(self, outputs) -> List[str]:
        from repro.experiments import load_result

        try:
            expected = reference.load(REFERENCE_DIR / "paper_batch.json")
            actual = {
                eid: load_result(self.out / f"{eid}.json")["data"]
                for eid in self.ids
            }
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        return reference.compare(actual, expected, path="data")

    def experiment_ids(self) -> List[str]:
        return list(self.ids)

    def layer_metrics(self, tracer, outputs) -> Dict[str, float]:
        stats = self.cache.stats
        lookups = stats.hits + stats.misses
        return {
            "cache.hits": stats.hits,
            "cache.misses": stats.misses,
            "cache.hit_ratio": stats.hits / lookups if lookups else 0.0,
        }


class ShardSweep(Workload):
    """A degree sweep streamed shard by shard over a stream-layout spec.

    Items are survivor users materialised across all shards; the answer
    unit is one user's activity regeneration inside a shard.  The time
    to the first shard's merged sweep part is a per-layer metric.
    """

    name = "shard-sweep"
    USERS = 4_000
    SHARDS = 8
    COHORT = 32
    DEGREE = 10
    #: BENCH_scale caps degrees the same way; without a cap the stream
    #: layout has no user below degree 16, so no degree-10 cohort.
    MAX_DEGREE = 30

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.datasets import ShardedDataset, SyntheticSpec
        from repro.onlinetime import SporadicModel

        self.seed = seed
        self.sharded = ShardedDataset(
            SyntheticSpec(
                "facebook",
                self.USERS,
                seed=seed,
                graph_layout="stream",
                max_degree=self.MAX_DEGREE,
            ),
            self.SHARDS,
        )
        pool = self.sharded.users_with_degree(self.DEGREE)
        if len(pool) < self.COHORT:
            raise RuntimeError(
                f"seed {seed}: only {len(pool)} degree-{self.DEGREE} users"
            )
        # An even stride across the whole sorted pool, from a seeded
        # start, spreads the cohort over every contiguous shard.
        step = len(pool) / self.COHORT
        start = random.Random(f"shard-sweep:{seed}").random() * step
        self.cohort = [pool[int(start + i * step)] for i in range(self.COHORT)]
        self.model = SporadicModel()
        self.policies = _policies()

    def run(self) -> Dict[str, object]:
        from repro.core import evaluation
        from repro.datasets.sharding import ShardedDataset

        started = time.perf_counter()
        first: List[float] = []
        regenerations: List[float] = []
        materialised: List[int] = []

        def count_users(fn):
            @functools.wraps(fn)
            def wrapper(sharded, index):
                dataset = fn(sharded, index)
                materialised.append(dataset.graph.num_users)
                return dataset

            return wrapper

        patches = Patches()
        patches.method(ShardedDataset, "shard", count_users)
        patches.function(
            "repro.core.evaluation",
            "sweep_replication_degree",
            first_return(first),
        )
        patches.function(
            "repro.datasets.sharding",
            "user_activities",
            outer_timer(regenerations),
        )
        try:
            series = evaluation.sweep_replication_degree_datasets(
                self.sharded,
                self.model,
                self.policies,
                degrees=list(range(self.DEGREE + 1)),
                users=self.cohort,
                seed=self.seed,
                repeats=1,
                backend="numpy",
            )
        finally:
            patches.undo()
        return {
            "attempted": self.SHARDS,
            "failed": self.SHARDS - len(materialised),
            "items": sum(materialised),
            "first_shard_s": first[0] - started,
            "latencies_s": regenerations,
            "series": series,
        }

    def check(self, outputs) -> List[str]:
        problems = []
        cohort = set(self.cohort)
        touched = [
            shard
            for shard in range(self.SHARDS)
            if cohort.intersection(self.sharded.shard_users(shard))
        ]
        if len(touched) != self.SHARDS:
            problems.append(
                f"cohort touched shards {touched}, not all {self.SHARDS}"
            )
        series = reference.jsonable(outputs["series"])
        problems += sweep_invariants(series)
        path = REFERENCE_DIR / f"shard_sweep_seed{self.seed}.json"
        if path.exists():
            problems += reference.compare(
                series, reference.load(path), path="series"
            )
        return problems

    def cohort_size(self) -> int:
        return len(self.cohort)

    def survivor_users(self) -> int:
        return len(self.sharded.survivors)

    def layer_metrics(self, tracer, outputs) -> Dict[str, float]:
        return {"datasets.first_shard_s": outputs["first_shard_s"]}


def sweep_invariants(series: Dict[str, list]) -> List[str]:
    """Oracle-free checks on a degree sweep (``series[policy][degree]``).

    Ratio metrics lie in [0, 1], and ConRep availability never falls as
    the degree grows: each degree's replica group extends the previous
    one (the prefix property), so every user's availability is
    non-decreasing and so is the cohort mean.
    """
    problems = []
    for policy, points in series.items():
        previous = -math.inf
        for degree, point in enumerate(points):
            for field in RATIO_FIELDS:
                value = point[field]
                if not 0.0 <= value <= 1.0:
                    problems.append(
                        f"{policy}[{degree}].{field}={value!r} outside [0, 1]"
                    )
            if point["availability"] < previous:
                problems.append(
                    f"{policy}: availability falls at degree {degree} "
                    f"({previous!r} -> {point['availability']!r})"
                )
            previous = point["availability"]
    return problems


class QueryServe(Workload):
    """A closed loop of resilient point queries against a warm plane.

    Items and answer units are requests.
    """

    name = "query-serve"
    REQUESTS = 20_000
    ZIPF_S = 0.9
    MAX_K = 10
    DEADLINE_MS = 250
    CHECK_EVERY = 50

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.experiments import BENCH, facebook_dataset
        from repro.onlinetime import SporadicModel
        from repro.query import QueryPlane

        self.dataset = facebook_dataset(BENCH)
        self.plane = QueryPlane(
            self.dataset, SporadicModel(), seed=BENCH.seed
        ).warm()
        self.policies = _policies()
        users = sorted(
            u
            for u in self.dataset.graph.users()
            if self.dataset.graph.replica_candidates(u)
        )
        rng = np.random.default_rng([seed, 0x5E4E])
        ranked = rng.permutation(users)
        weights = 1.0 / np.arange(1, len(ranked) + 1) ** self.ZIPF_S
        picks = rng.choice(
            len(ranked), size=self.REQUESTS, p=weights / weights.sum()
        )
        self.requests = [
            (int(ranked[i]), int(p), int(k))
            for i, p, k in zip(
                picks,
                rng.integers(0, len(self.policies), self.REQUESTS),
                rng.integers(1, self.MAX_K + 1, self.REQUESTS),
            )
        ]
        self.stats_before = self.plane.stats()

    def run(self) -> Dict[str, object]:
        from repro.resilience import Deadline

        plane = self.plane
        policies = self.policies
        clock = time.perf_counter
        on_request = self.on_request
        answers = []
        latencies = []
        failed = 0
        for i, (user, p, k) in enumerate(self.requests):
            if on_request is not None:
                on_request(i)
            start = clock()
            try:
                answer = plane.evaluate_resilient(
                    user,
                    policies[p],
                    k,
                    deadline=Deadline.after_ms(self.DEADLINE_MS),
                )
            except Exception as exc:  # counted here, reported by check
                answer = exc
            latencies.append(clock() - start)
            if isinstance(answer, Exception) or answer.degraded:
                failed += 1
            answers.append(answer)
        return {
            "attempted": len(self.requests),
            "failed": failed,
            "items": len(self.requests),
            "latencies_s": latencies,
            "answers": answers,
        }

    def check(self, outputs) -> List[str]:
        from repro.core.evaluation import evaluate_single

        problems = [
            f"request {i} failed or degraded: {answer!r}"
            for i, answer in enumerate(outputs["answers"])
            if isinstance(answer, Exception) or answer.degraded
        ]
        if problems:
            return problems
        schedules = self.plane.schedules
        for i in range(0, len(self.requests), self.CHECK_EVERY):
            user, p, k = self.requests[i]
            expected = evaluate_single(
                self.dataset,
                schedules,
                user,
                self.policies[p],
                k,
                seed=self.plane.seed,
            )
            if outputs["answers"][i].value != expected:
                problems.append(
                    f"request {i} ({user}, {POLICIES[p]}, k={k}): "
                    f"{outputs['answers'][i].value!r} != {expected!r}"
                )
        return problems

    def cohort_size(self) -> int:
        return len({user for user, _, _ in self.requests})

    def layer_metrics(self, tracer, outputs) -> Dict[str, float]:
        before, after = self.stats_before, self.plane.stats()
        lrus = ("evaluators", "sequences", "results")
        missed = {
            span[RID] for span in tracer.spans if span[NAME] == "query.compute"
        }
        latencies = [1000.0 * s for s in outputs["latencies_s"]]
        hits = [t for i, t in enumerate(latencies) if i not in missed]
        misses = [latencies[i] for i in sorted(missed)]
        queries = after["queries"] - before["queries"]
        return {
            "query.hit_ratio": (
                (after["result_hits"] - before["result_hits"]) / queries
            ),
            "query.evaluator_builds": (
                after["evaluators"]["misses"] - before["evaluators"]["misses"]
            ),
            "query.evictions": sum(
                after[n]["evictions"] - before[n]["evictions"] for n in lrus
            ),
            "query.hit_p50_ms": percentile(hits, 50),
            "query.miss_p50_ms": percentile(misses, 50),
            "query.miss_p99_ms": percentile(misses, 99),
            "resilience.degraded": sum(
                after[n] - before[n]
                for n in ("stale_served", "fallback_served", "failed")
            ),
        }


WORKLOADS = {w.name: w for w in (PaperBatch, ShardSweep, QueryServe)}
