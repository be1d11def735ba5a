"""Spans around the program's layers, installed from outside the program.

The traced run wraps public functions and methods of the ``repro``
modules with span or counter wrappers.  A function bound elsewhere with
``from ... import`` is replaced in every loaded ``repro`` module that
holds it, so the wrapper runs wherever the name is looked up.  Spans
are kept in memory (name, start, end, parent, request id) and written
once, at the end, as Chrome trace-event JSON.

A span's self time is its duration minus the part of its interval its
child spans cover.  ``layer_metrics`` turns the spans into the
benchmark's per-layer metrics; the list of targets below is the
layer -> function map documented in ``README.md``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span tuple fields.
NAME, START, END, PARENT, RID = range(5)


class Patches:
    """Wrappers installed over the program's functions, and their undo.

    ``make(original)`` returns the wrapper.  A module-level function is
    replaced in every loaded ``repro`` module that binds it, so names
    imported with ``from ... import`` are wrapped where they are looked
    up; a method is replaced on the class that defines it.
    """

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def function(self, module: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr: str, make) -> None:
        """Replace ``cls.attr`` if ``cls`` defines it itself."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        self._undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """An in-memory span recorder for one single-threaded run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: ``[name, start_ns, end_ns, parent_index, request_id]``
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        #: Request id stamped on spans opened while it is set.
        self.rid: Optional[int] = None
        #: ``(dataset name, user)`` pairs passed to the sweeps as cohorts.
        self.cohort: set = set()
        self._stack: List[int] = []
        self.patches = Patches()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, self.rid])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(self.spans[i][NAME] == name for i in self._stack)

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name, fn, on_return=None):
        """``fn`` inside a span; ``name`` may be a callable of the
        arguments.  ``on_return(result, args, kwargs)`` runs inside the
        span after a normal return."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result, args, kwargs)
                return result
            finally:
                tracer.close(index)

        return wrapper

    def counted(self, key: str, fn):
        """``fn`` with its calls counted under ``key``."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------

    def write_chrome(self, path: Path) -> None:
        """All spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = min((s[START] for s in self.spans), default=0)
        events = []
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            args = {"id": index, "parent": parent}
            if rid is not None:
                args["request"] = rid
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        Path(path).write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )


# -- span arithmetic ----------------------------------------------------------


def covered(interval: Tuple[int, int], parts: Sequence[Tuple[int, int]]) -> int:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total = 0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children(spans: Sequence[list]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        kids.setdefault(span[PARENT], []).append(index)
    return kids


def self_times(spans: Sequence[list]) -> List[int]:
    """Each span's duration minus the part its children cover."""
    kids = children(spans)
    out = []
    for index, span in enumerate(spans):
        parts = [(spans[k][START], spans[k][END]) for k in kids.get(index, ())]
        out.append(
            span[END] - span[START] - covered((span[START], span[END]), parts)
        )
    return out


def outermost(spans: Sequence[list], match: Callable[[str], bool]) -> List[int]:
    """Indices of matching spans with no matching ancestor (so recursive
    or nested calls of one layer are counted once)."""
    out = []
    for index, span in enumerate(spans):
        if not match(span[NAME]):
            continue
        parent = span[PARENT]
        while parent >= 0 and not match(spans[parent][NAME]):
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(index)
    return out


def inclusive_s(spans: Sequence[list], match: Callable[[str], bool]) -> float:
    """Seconds inside matching spans, nested matches counted once."""
    return sum(
        spans[i][END] - spans[i][START] for i in outermost(spans, match)
    ) / 1e9


# -- the benchmark's layer map ----------------------------------------------

SWEEPS = (
    "sweep_replication_degree",
    "sweep_session_length",
    "sweep_user_degree",
    "sweep_replication_degree_datasets",
    "sweep_session_length_datasets",
    "sweep_user_degree_datasets",
)


def subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def import_all() -> None:
    """Import every ``repro`` module, so that every ``from ... import``
    binding exists before wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points with spans and counters."""
    import_all()
    from repro.cache.store import SweepCache
    from repro.core.incremental import IncrementalGroupEvaluator
    from repro.core.placement.base import PlacementPolicy
    from repro.datasets.schema import ActivityTrace
    from repro.datasets.sharding import ShardedDataset
    from repro.onlinetime.base import OnlineTimeModel
    from repro.parallel.executor import ParallelExecutor
    from repro.query.plane import QueryPlane
    from repro.simulator.osn import DecentralizedOSN
    from repro.timeline.packed import PackedSchedules

    span = tracer.spanned

    def named(name):
        return lambda fn: span(name, fn)

    # datasets
    for module, attr in (
        ("repro.datasets.facebook", "synthetic_facebook"),
        ("repro.datasets.twitter", "synthetic_twitter"),
    ):
        tracer.patches.function(module, attr, named("datasets.synth"))
    tracer.patches.method(ActivityTrace, "__init__", named("datasets.trace_sort"))
    tracer.patches.method(ShardedDataset, "__init__", named("datasets.fixpoint"))
    tracer.patches.method(ShardedDataset, "shard", named("datasets.shard"))
    tracer.patches.function(
        "repro.datasets.sharding",
        "user_activities",
        lambda fn: tracer.counted("datasets.user_activities", fn),
    )

    # onlinetime / timeline
    tracer.patches.function(
        "repro.onlinetime.base", "compute_schedules", named("onlinetime.schedules")
    )
    for cls in subclasses(OnlineTimeModel):
        tracer.patches.method(
            cls,
            "schedule",
            lambda fn: tracer.counted("onlinetime.schedule_users", fn),
        )
    tracer.patches.method(PackedSchedules, "from_schedules", named("timeline.pack"))

    # core
    for cls in subclasses(PlacementPolicy):
        tracer.patches.method(cls, "select", named("core.select"))
    tracer.patches.method(
        IncrementalGroupEvaluator, "evaluate_prefixes", named("core.evaluate")
    )

    def note_cohort(result, args, kwargs):
        users = kwargs.get("users")
        if users is not None:
            source = args[0] if args else kwargs.get("dataset")
            name = getattr(source, "name", None) or id(source)
            tracer.cohort.update((name, u) for u in users)

    for sweep in SWEEPS:
        tracer.patches.function(
            "repro.core.evaluation",
            sweep,
            lambda fn, sweep=sweep: span(f"core.sweep.{sweep[6:]}", fn, note_cohort),
        )

    # cache / parallel
    tracer.patches.method(SweepCache, "sweep_key", named("cache.key"))
    tracer.patches.method(ParallelExecutor, "map_shared", named("parallel.map"))

    # simulator
    def count_replay(outcome, args, kwargs):
        tracer.counters["simulator.events"] += outcome.events_replayed

    def count_osn(stats, args, kwargs):
        if not tracer.inside("simulator.replay_trace"):
            tracer.counters["simulator.events"] += args[0].sim.events_executed

    tracer.patches.function(
        "repro.simulator.replay",
        "replay_trace",
        lambda fn: span("simulator.replay_trace", fn, count_replay),
    )
    tracer.patches.method(
        DecentralizedOSN,
        "run",
        lambda fn: span("simulator.osn_run", fn, count_osn),
    )

    # experiments
    tracer.patches.function(
        "repro.experiments.runner", "run_batch", named("experiments.batch")
    )
    tracer.patches.function(
        "repro.experiments.figures",
        "run_experiment",
        lambda fn: span(lambda eid, *a, **k: f"experiments.{eid}", fn),
    )

    # query
    tracer.patches.method(QueryPlane, "evaluate_resilient", named("query.resolve"))
    tracer.patches.method(QueryPlane, "_compute", named("query.compute"))


#: Layer spans: every span except the workload root and the experiment
#: entry points (which wrap whole experiments, not a layer).
LAYER_PREFIXES = (
    "datasets.",
    "onlinetime.",
    "timeline.",
    "core.",
    "cache.",
    "parallel.",
    "simulator.",
    "query.",
)


def layer_metrics(
    tracer: Tracer,
    root: int,
    experiment_ids: Sequence[str],
    cohort_size: int,
    survivor_users: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (times in seconds).

    ``root`` is the span of the timed part; setup spans (synthesis, the
    sharded fixpoint) are outside it and still counted, because their
    layers move ``setup_s``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    counters = tracer.counters

    def total(prefix):
        return inclusive_s(spans, lambda n: n.startswith(prefix))

    def exact(name):
        return inclusive_s(spans, lambda n: n == name)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    shards = count("datasets.shard")
    sched_users = counters["onlinetime.schedule_users"]
    cohort = len(tracer.cohort) or cohort_size
    out = {
        "datasets.synth_s": total("datasets.synth"),
        "datasets.trace_sort_s": total("datasets.trace_sort"),
        "datasets.shard_s": total("datasets.shard"),
        "datasets.shards": shards,
        "datasets.fixpoint_s": total("datasets.fixpoint"),
        "datasets.resynth_ratio": (
            counters["datasets.user_activities"] / survivor_users
            if survivor_users
            else 0.0
        ),
        "onlinetime.schedules_s": total("onlinetime.schedules"),
        "onlinetime.schedule_users": sched_users,
        "onlinetime.schedule_users_per_cohort_user": (
            sched_users / cohort if cohort else 0.0
        ),
        "timeline.pack_s": total("timeline.pack"),
        "core.select_s": total("core.select"),
        "core.select_calls": count("core.select"),
        "core.evaluate_s": total("core.evaluate"),
        "core.sweep_s": total("core.sweep."),
    }
    for sweep in SWEEPS:
        out[f"core.sweep.{sweep[6:]}_s"] = exact(f"core.sweep.{sweep[6:]}")
    map_spans = outermost(spans, lambda n: n == "parallel.map")
    out.update(
        {
            "cache.key_s": total("cache.key"),
            "parallel.map_s": total("parallel.map"),
            "parallel.map_self_s": sum(selfs[i] for i in map_spans) / 1e9,
            "parallel.map_calls": count("parallel.map"),
            "simulator.replay_s": total("simulator."),
            "simulator.events": counters["simulator.events"],
        }
    )
    per_experiment = 0.0
    for eid in experiment_ids:
        seconds = exact(f"experiments.{eid}")
        out[f"experiments.{eid}_s"] = seconds
        per_experiment += seconds
    batch = total("experiments.batch")
    out["experiments.io_s"] = batch - per_experiment if batch else 0.0

    root_span = spans[root]
    wall = root_span[END] - root_span[START]
    inside = [
        (s[START], s[END])
        for s in spans
        if s[NAME].startswith(LAYER_PREFIXES) and s[START] >= root_span[START]
    ]
    out["trace.unattributed_share"] = (
        1.0 - covered((root_span[START], root_span[END]), inside) / wall
    )
    return out
