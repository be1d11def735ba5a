"""Online-time model interface.

The datasets record *when users acted*, not when they were online; the
paper bridges the gap with three models (§IV-C) that map a user's activity
history to a daily online schedule.  Each model implements
:class:`OnlineTimeModel`; :func:`compute_schedules` evaluates one model
over a dataset, or over just the users a sweep reads, deterministically
(and memoises the result per ``(model, seed)`` on the dataset, so
repeats and multi-figure sweeps never recompute identical schedules).

Randomised models (Sporadic's in-session placement, RandomLength's window
length) draw from a per-user RNG derived from ``(seed, user_id)`` via
:func:`repro.seeding.derive_seed`, so a user's schedule is independent of
dict iteration order, of the process computing it, and of
``PYTHONHASHSEED`` — two runs with the same seed agree exactly, while the
paper's repeat-and-average protocol is a simple loop over seeds.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Optional, Tuple

from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.seeding import derive_rng
from repro.timeline.intervals import IntervalSet
from repro.timeline.packed import PackedSchedules

Schedules = Dict[UserId, IntervalSet]

#: Attribute under which a dataset carries its schedule memo.
_CACHE_ATTR = "_repro_schedule_cache"

#: Attribute under which a dataset carries its packed-schedule memo.
_PACKED_CACHE_ATTR = "_repro_packed_cache"

#: Memo entries kept per dataset (FIFO eviction beyond this).
_CACHE_MAX_ENTRIES = 32


def user_rng(seed: int, user: UserId) -> random.Random:
    """A reproducible per-user random source.

    Derived with a process- and version-independent hash (SHA-256), so the
    stream is identical in every pool worker and under every
    ``PYTHONHASHSEED``.
    """
    return derive_rng(seed, user)


class OnlineTimeModel(ABC):
    """Maps one user's activity history to a daily online schedule."""

    #: Short name used in reports and the model registry.
    name: str = "abstract"

    @abstractmethod
    def schedule(self, user: UserId, dataset: Dataset, seed: int) -> IntervalSet:
        """The daily online schedule of ``user`` under this model."""

    def describe(self) -> str:
        """One-line human-readable parameterisation."""
        return self.name

    def cache_key(self) -> Tuple[object, ...]:
        """Value key for the schedule memo.

        Two model instances with equal cache keys must produce identical
        schedules for every ``(dataset, seed)``.  The default captures the
        class plus :meth:`describe`, which holds for the paper models
        (their ``describe`` strings carry the full parameterisation);
        models with state not reflected in ``describe`` must override.
        """
        return (type(self).__qualname__, self.describe())


def _memo(dataset: Dataset, attr: str) -> Dict[Tuple[object, ...], object]:
    cache = getattr(dataset, attr, None)
    if cache is None:
        cache = {}
        object.__setattr__(dataset, attr, cache)
    return cache


def _memo_put(cache: Dict, key: Tuple[object, ...], value: object) -> None:
    if key not in cache and len(cache) >= _CACHE_MAX_ENTRIES:
        cache.pop(next(iter(cache)))  # FIFO: evict the oldest entry
    cache[key] = value


def compute_schedules(
    dataset: Dataset,
    model: OnlineTimeModel,
    *,
    seed: int = 0,
    users: Optional[Iterable[UserId]] = None,
) -> Schedules:
    """Evaluate ``model`` for the given users, or every user by default.

    Results are memoised on the dataset per ``(model.cache_key(), seed)``:
    repeats with the same seed, multi-policy sweeps, and the many figures
    sharing one model configuration all reuse the first computation.

    ``users`` (e.g. a sweep's read closure, see
    :func:`repro.core.evaluation.read_closure`) computes only those of
    them that are graph users and not yet memoised; the returned mapping
    holds every one of them plus whatever the memo already held.  Users
    outside the graph are never scheduled, so they read as never online
    exactly as under ``users=None``, which returns every graph user in
    graph order.  A schedule depends only on ``(model, seed, user)``, so
    a partial memo holds the same ``IntervalSet`` values a whole-dataset
    build does.

    Growing the memo replaces its entry with a new mapping and never
    mutates a returned one: payload fingerprints and the packed memo key
    on mapping identity.  The returned mapping must be treated as
    read-only.
    """
    cache = _memo(dataset, _CACHE_ATTR)
    key = (model.cache_key(), seed)
    schedules = cache.get(key, {})
    graph = dataset.graph
    if users is None:
        if key in cache and len(schedules) == graph.num_users:
            return schedules
        grown = {
            user: schedules[user]
            if user in schedules
            else model.schedule(user, dataset, seed)
            for user in graph.users()
        }
    else:
        missing = [
            user
            for user in dict.fromkeys(users)
            if user not in schedules and user in graph
        ]
        if key in cache and not missing:
            return schedules
        grown = dict(schedules)
        for user in missing:
            grown[user] = model.schedule(user, dataset, seed)
    _memo_put(cache, key, grown)
    return grown


def packed_schedules(
    dataset: Dataset,
    model: OnlineTimeModel,
    *,
    seed: int = 0,
    users: Optional[Iterable[UserId]] = None,
) -> PackedSchedules:
    """The CSR-packed counterpart of ``compute_schedules``, memoised.

    Packs the memoised schedules of ``(model.cache_key(), seed)`` into a
    :class:`~repro.timeline.packed.PackedSchedules` once per memo state
    — the numpy backend used to rebuild the packing on every sweep call,
    which dominated warm-path cost on multi-figure batches.  ``users``
    is passed to :func:`compute_schedules`; the packing covers the whole
    schedule memo, and is rebuilt when the memo has grown since it was
    packed.  The memo lives next to the schedule memo (same key, same
    FIFO bound) and :func:`clear_schedule_cache` drops both
    coordinately.
    """
    schedules = compute_schedules(dataset, model, seed=seed, users=users)
    cache = _memo(dataset, _PACKED_CACHE_ATTR)
    key = (model.cache_key(), seed)
    entry = cache.get(key)
    if entry is None or entry[0] is not schedules:
        entry = (schedules, PackedSchedules.from_schedules(schedules))
        _memo_put(cache, key, entry)
    return entry[1]


def clear_schedule_cache(dataset: Dataset) -> None:
    """Drop the dataset's schedule *and* packed-schedule memos together
    (frees memory after large sweeps; the two stay coordinated — no
    packed entry can outlive the schedules it was built from)."""
    for attr in (_CACHE_ATTR, _PACKED_CACHE_ATTR):
        cache = getattr(dataset, attr, None)
        if cache is not None:
            cache.clear()
