"""Experiment harness: cohort selection, placement evaluation, sweeps.

The paper's protocol (§V): pick the cohort of users with a given social
degree (degree 10 — the most populated bin in both datasets), vary the
allowed replication degree 0..10, and report the metric means over the
cohort; runs involving randomness (Random placement, the RandomLength
model, Sporadic's in-session placement) are repeated 5 times and averaged.

All policies select replicas *incrementally*, so the selection
sequence for the maximum degree is computed once per user and every
smaller allowed degree is evaluated on its prefix — an exact, order-
preserving shortcut (property-tested in the suite).

The per-user work is embarrassingly parallel; every sweep accepts a
:class:`repro.parallel.ParallelExecutor` and fans the cohort out over a
process pool when ``jobs > 1``.  Per-user RNGs are derived with
process-independent hashing (:mod:`repro.seeding`), so parallel results
are bit-identical to serial ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.incremental import (
    INCREMENTAL,
    IncrementalGroupEvaluator,
    check_engine,
)
from repro.core.metrics import UserMetrics, evaluate_user
from repro.core.placement.base import (
    CONREP,
    PlacementContext,
    PlacementPolicy,
)
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import (
    OnlineTimeModel,
    compute_schedules,
    packed_schedules,
)
from repro.onlinetime.sporadic import SporadicModel
from repro.parallel import (
    ParallelExecutor,
    PlacementPayload,
    SweepPayload,
    evaluate_user_cell,
    evaluate_users_chunk,
    is_quarantined,
    select_sequences_chunk,
)
from repro.partition import partition_bounds
from repro.seeding import derive_rng
from repro.timeline.packed import (
    NUMPY,
    PYTHON,
    PackedSchedules,
    check_backend,
)

if TYPE_CHECKING:  # imported lazily: repro.cache imports this module
    from repro.cache import SweepCache
    from repro.datasets.sharding import ShardedDataset


def _pack_for_backend(
    schedules,
    backend: str,
    *,
    dataset: Optional[Dataset] = None,
    model: Optional[OnlineTimeModel] = None,
    seed: int = 0,
    users: Optional[Iterable[UserId]] = None,
) -> Optional[PackedSchedules]:
    """The packed schedules for the numpy backend, ``None`` for python.

    With ``dataset`` and ``model`` supplied the packing comes from the
    per-``(model, seed)`` memo on the dataset (built once, reused by
    every sweep of the batch; ``users`` scopes it as in
    :func:`packed_schedules`); otherwise it is packed ad hoc from the
    given mapping.  Either way the arrays hold the identical floats.
    """
    if check_backend(backend) != NUMPY:
        return None
    if dataset is not None and model is not None:
        return packed_schedules(dataset, model, seed=seed, users=users)
    return PackedSchedules.from_schedules(schedules)


def read_closure(dataset: Dataset, users: Sequence[UserId]) -> Set[UserId]:
    """Every user whose schedule the §II-C evaluation of ``users`` reads.

    That is each cohort user, their replica candidates (placement and
    the availability-on-demand-time demand window), and the creators of
    the activities they received (the expected/unexpected split).  A
    sweep asks :func:`compute_schedules` for exactly these users; a
    schedule read outside them would silently count as never online.
    """
    closure = set(users)
    for user in users:
        closure.update(dataset.replica_candidates(user))
        closure.update(act.creator for act in dataset.trace.received_by(user))
    return closure


@dataclass(frozen=True)
class AggregateMetrics:
    """Cohort means of the per-user metrics (finite-delay means, with the
    number of users whose group delay was infinite reported separately)."""

    num_users: int
    availability: float
    max_achievable_availability: float
    aod_time: float
    aod_activity: float
    expected_activity_fraction: float
    delay_hours_actual: float
    delay_hours_observed: float
    mean_replicas_used: float
    num_infinite_delay: int
    #: Users whose *observed* delay was infinite (tracked separately so
    #: cross-repeat averaging can weight the observed mean correctly).
    num_infinite_delay_observed: int = 0

    @staticmethod
    def from_users(metrics: Sequence[UserMetrics]) -> "AggregateMetrics":
        if not metrics:
            raise ValueError("cannot aggregate an empty cohort")
        n = len(metrics)
        finite_actual = [
            m.delay_hours_actual
            for m in metrics
            if not math.isinf(m.delay_hours_actual)
        ]
        finite_observed = [
            m.delay_hours_observed
            for m in metrics
            if not math.isinf(m.delay_hours_observed)
        ]
        return AggregateMetrics(
            num_users=n,
            availability=sum(m.availability for m in metrics) / n,
            max_achievable_availability=sum(
                m.max_achievable_availability for m in metrics
            )
            / n,
            aod_time=sum(m.aod_time for m in metrics) / n,
            aod_activity=sum(m.aod_activity for m in metrics) / n,
            expected_activity_fraction=sum(
                m.expected_activity_fraction for m in metrics
            )
            / n,
            delay_hours_actual=(
                sum(finite_actual) / len(finite_actual) if finite_actual else 0.0
            ),
            delay_hours_observed=(
                sum(finite_observed) / len(finite_observed)
                if finite_observed
                else 0.0
            ),
            mean_replicas_used=sum(m.replication_degree for m in metrics) / n,
            num_infinite_delay=n - len(finite_actual),
            num_infinite_delay_observed=n - len(finite_observed),
        )

    @staticmethod
    def merge(parts: Sequence["AggregateMetrics"]) -> "AggregateMetrics":
        """Combine aggregates over *disjoint* cohorts into one rollup.

        Unlike :meth:`mean` (which averages repeats of the *same*
        cohort with equal weight), ``merge`` weights each part by its
        user count — the result is the aggregate of the union cohort.
        Plain metrics weight by ``num_users``; the finite-sample delay
        means weight by each part's finite-user count; the counters add.

        Note: float addition is not associative, so a merge of
        per-shard aggregates agrees with a single pass over the union
        cohort only up to rounding.  Paths that need bit-identical
        sharded results (``shards=`` on the sweeps) therefore
        concatenate the per-user cells before aggregating and use
        ``merge`` only for rollups across shard *datasets*.
        """
        if not parts:
            raise ValueError("cannot merge zero aggregates")
        total = sum(p.num_users for p in parts)
        if not total:
            raise ValueError("cannot merge aggregates over zero users")

        def by_users(get) -> float:
            return sum(get(p) * p.num_users for p in parts) / total

        def by_finite(get, finite) -> float:
            # Zero-weight parts are skipped, not multiplied by 0: a part
            # with no finite-delay users may carry a NaN (or any
            # placeholder) in the delay field, and NaN * 0 would poison
            # the sum.  Skipping adds nothing for finite values either,
            # so all-finite inputs are unchanged bit for bit.
            weights = [finite(p) for p in parts]
            denom = sum(weights)
            if not denom:
                return 0.0
            return (
                sum(get(p) * w for p, w in zip(parts, weights) if w)
                / denom
            )

        return AggregateMetrics(
            num_users=total,
            availability=by_users(lambda p: p.availability),
            max_achievable_availability=by_users(
                lambda p: p.max_achievable_availability
            ),
            aod_time=by_users(lambda p: p.aod_time),
            aod_activity=by_users(lambda p: p.aod_activity),
            expected_activity_fraction=by_users(
                lambda p: p.expected_activity_fraction
            ),
            delay_hours_actual=by_finite(
                lambda p: p.delay_hours_actual,
                lambda p: p.num_users - p.num_infinite_delay,
            ),
            delay_hours_observed=by_finite(
                lambda p: p.delay_hours_observed,
                lambda p: p.num_users - p.num_infinite_delay_observed,
            ),
            mean_replicas_used=by_users(lambda p: p.mean_replicas_used),
            num_infinite_delay=sum(p.num_infinite_delay for p in parts),
            num_infinite_delay_observed=sum(
                p.num_infinite_delay_observed for p in parts
            ),
        )

    @staticmethod
    def mean(aggregates: Sequence["AggregateMetrics"]) -> "AggregateMetrics":
        """Average aggregates across repeats.

        Plain metrics average with equal weight per repeat (each repeat
        covers the same cohort).  The delay means are *finite-sample*
        means, so they are weighted by each repeat's finite-user count —
        a repeat in which every user's delay was infinite reports 0.0
        over zero users and must not drag the cross-repeat mean down.
        """
        if not aggregates:
            raise ValueError("cannot average zero aggregates")
        n = len(aggregates)

        def weighted(values: List[float], weights: List[int]) -> float:
            total = sum(weights)
            if not total:
                return 0.0
            # Skip zero-weight repeats (see AggregateMetrics.merge): a
            # repeat whose every delay was infinite contributes nothing,
            # and must not poison the sum if its field is non-finite.
            return (
                sum(v * w for v, w in zip(values, weights) if w) / total
            )

        actual_weights = [
            a.num_users - a.num_infinite_delay for a in aggregates
        ]
        observed_weights = [
            a.num_users - a.num_infinite_delay_observed for a in aggregates
        ]
        return AggregateMetrics(
            num_users=round(sum(a.num_users for a in aggregates) / n),
            availability=sum(a.availability for a in aggregates) / n,
            max_achievable_availability=sum(
                a.max_achievable_availability for a in aggregates
            )
            / n,
            aod_time=sum(a.aod_time for a in aggregates) / n,
            aod_activity=sum(a.aod_activity for a in aggregates) / n,
            expected_activity_fraction=sum(
                a.expected_activity_fraction for a in aggregates
            )
            / n,
            delay_hours_actual=weighted(
                [a.delay_hours_actual for a in aggregates], actual_weights
            ),
            delay_hours_observed=weighted(
                [a.delay_hours_observed for a in aggregates],
                observed_weights,
            ),
            mean_replicas_used=sum(a.mean_replicas_used for a in aggregates) / n,
            num_infinite_delay=round(
                sum(a.num_infinite_delay for a in aggregates) / n
            ),
            num_infinite_delay_observed=round(
                sum(a.num_infinite_delay_observed for a in aggregates) / n
            ),
        )


def select_cohort(
    dataset,
    degree: int,
    *,
    max_users: Optional[int] = None,
    seed: int = 0,
) -> List[UserId]:
    """Users with exactly ``degree`` replica candidates; optionally a
    reproducible subsample of at most ``max_users`` of them.

    Accepts a :class:`~repro.datasets.schema.Dataset` (degrees come from
    its filtered graph) or any source with its own ``users_with_degree``
    — in particular :class:`~repro.datasets.sharding.ShardedDataset`,
    whose surviving-candidate counts equal the filtered-graph degrees.
    Both return the matching users sorted ascending, so the subsample
    (and hence every downstream sweep) is identical across sources.
    """
    if hasattr(dataset, "users_with_degree"):
        users = dataset.users_with_degree(degree)
    else:
        users = dataset.graph.users_with_degree(degree)
    if max_users is not None and len(users) > max_users:
        rng = random.Random(seed)
        users = sorted(rng.sample(users, max_users))
    return users


def placement_sequences(
    dataset: Dataset,
    schedules,
    users: Sequence[UserId],
    policy: PlacementPolicy,
    *,
    mode: str = CONREP,
    max_degree: int,
    seed: int = 0,
    executor: Optional[ParallelExecutor] = None,
    backend: str = PYTHON,
    model: Optional[OnlineTimeModel] = None,
    model_seed: int = 0,
) -> Dict[UserId, Tuple[UserId, ...]]:
    """The full selection sequence (up to ``max_degree``) for each user.

    Each user's RNG is derived process-independently from
    ``(seed, policy.name, user)`` — identical under every
    ``PYTHONHASHSEED`` and in every pool worker.  Pass an ``executor``
    to fan the per-user selection out over processes.  When ``schedules``
    came from :func:`compute_schedules`, passing the same ``model`` and
    ``model_seed`` lets the numpy backend reuse the memoised packing
    instead of repacking per call.
    """
    executor = executor or ParallelExecutor()
    payload = PlacementPayload(
        dataset=dataset,
        schedules=schedules,
        policy=policy,
        mode=mode,
        max_degree=max_degree,
        seed=seed,
        backend=backend,
        packed=_pack_for_backend(
            schedules, backend, dataset=dataset, model=model, seed=model_seed
        ),
    )
    sequences = executor.map_shared(
        select_sequences_chunk,
        payload,
        list(users),
        phase=f"place[{policy.name}]",
    )
    # Users quarantined by the supervisor (persistent worker failures)
    # are excluded rather than mapped to a bogus sequence; the executor's
    # FailureReport names them.
    return {
        user: seq
        for user, seq in zip(users, sequences)
        if not is_quarantined(seq)
    }


def placement_rng(seed: int, policy_name: str, user: UserId) -> random.Random:
    """The per-user placement RNG (shared with :mod:`repro.parallel`)."""
    return derive_rng(seed, policy_name, user)


def evaluate_placements(
    dataset: Dataset,
    schedules,
    sequences: Dict[UserId, Tuple[UserId, ...]],
    k: int,
    *,
    mode: str = CONREP,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
) -> AggregateMetrics:
    """Evaluate the degree-``k`` prefix of each user's selection sequence."""
    packed = _pack_for_backend(schedules, backend)
    if check_engine(engine) == INCREMENTAL:
        per_user = [
            IncrementalGroupEvaluator(
                dataset, schedules, user, mode=mode, packed=packed
            ).evaluate(seq, k)
            for user, seq in sequences.items()
        ]
    else:
        per_user = [
            evaluate_user(
                dataset,
                schedules,
                user,
                seq[:k],
                allowed_degree=k,
                mode=mode,
                packed=packed,
            )
            for user, seq in sequences.items()
        ]
    return AggregateMetrics.from_users(per_user)


def evaluate_single(
    dataset: Dataset,
    schedules,
    user: UserId,
    policy: PlacementPolicy,
    k: int,
    *,
    mode: str = CONREP,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    seed: int = 0,
    model: Optional[OnlineTimeModel] = None,
    model_seed: Optional[int] = None,
    packed: Optional[PackedSchedules] = None,
    evaluator: Optional[IncrementalGroupEvaluator] = None,
    sequence: Optional[Sequence[UserId]] = None,
) -> UserMetrics:
    """Metrics for ONE user's degree-``k`` placement under one policy.

    The point-query counterpart of :func:`sweep_replication_degree`,
    factored out of the sweep loop so an interactive caller (the warm
    query plane, the ``repro-osn query`` CLI) pays only one user's work.
    It routes through the very same per-user kernel the sweeps fan out
    (:func:`repro.parallel.evaluate_user_cell`), so the returned metrics
    are bit-identical to the degree-``k`` entry of a batch sweep that
    includes this user — for every engine/backend combination, under any
    ``PYTHONHASHSEED`` (property-tested in ``tests/query``).

    The user's RNG derives from ``(seed, policy.name, user)`` exactly as
    in the sweeps, and the incremental-selection property makes the
    degree-``k`` selection the exact prefix of any higher-degree
    selection, so a *single* degree matches the sweep's prefix slice.

    Warm-state hooks: ``packed`` reuses an existing packing (built from
    the per-``(model, seed)`` memo when ``model`` is given and the
    backend is numpy); ``evaluator`` reuses a resident per-user
    :class:`IncrementalGroupEvaluator`; ``sequence`` supplies a
    pre-computed selection (may be longer than ``k`` — only the prefix
    is used).  All three change *when* work happens, never the floats.
    """
    check_engine(engine)
    if packed is None:
        packed = _pack_for_backend(
            schedules,
            backend,
            dataset=dataset,
            model=model,
            seed=seed if model_seed is None else model_seed,
        )
    else:
        check_backend(backend)
    payload = SweepPayload(
        dataset=dataset,
        schedules=schedules,
        policies=(policy,),
        mode=mode,
        degrees=(int(k),),
        max_degree=int(k),
        seed=seed,
        engine=engine,
        backend=backend,
        packed=packed,
    )
    sequences = (
        {policy.name: tuple(sequence)} if sequence is not None else None
    )
    cell = evaluate_user_cell(
        payload, user, evaluator=evaluator, sequences=sequences
    )
    return cell[policy.name][0]


def sweep_replication_degree(
    dataset: Dataset,
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    degrees: Sequence[int],
    users: Sequence[UserId],
    seed: int = 0,
    repeats: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
) -> Dict[str, List[AggregateMetrics]]:
    """Metric means per policy per allowed replication degree.

    ``repeats`` re-runs everything with seeds ``seed .. seed+repeats-1``
    and averages — the paper's protocol for randomised components.

    The per-user work (sequence selection at the maximum degree, then
    prefix evaluation at every swept degree) runs through ``executor``;
    with ``jobs > 1`` it spreads over worker processes and returns
    results bit-identical to the serial run.  ``engine`` selects the
    prefix-evaluation path: ``"incremental"`` (default — one forward pass
    per user covers every swept degree) or ``"naive"`` (the reference
    per-degree oracle; float-identical, only slower).  ``backend``
    selects the timeline kernels: ``"python"`` (default) or ``"numpy"``
    (vectorised batch kernels over schedules packed once per repeat;
    results bit-identical to python — see :mod:`repro.timeline.packed`).

    ``cache`` (a :class:`repro.cache.SweepCache`) short-circuits the
    whole sweep by content address.  Per-policy series are independent —
    each user's RNG derives from ``(seed, policy.name, user)`` — so a
    partial hit computes only the policies still missing and merges them
    with the cached ones; the returned floats are identical either way.
    Execution knobs (``executor``/``engine``/``backend``) are *not* part
    of the address: every combination produces bit-identical results.

    ``shards`` splits the cohort into that many contiguous slices and
    fans each slice out separately — per-shard aggregates are computed
    from per-user cells that are then concatenated before the rollup,
    so the returned series is bit-identical to ``shards=1`` (which is
    why ``shards`` is an execution knob, excluded from cache keys).
    Sharding bounds the fan-out working set per ``map_shared`` call;
    at million-user scale it is what keeps one sweep's in-flight chunk
    results from dominating memory.
    """
    if not users:
        raise ValueError("empty user cohort")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    check_engine(engine)
    check_backend(backend)
    users = list(users)
    degrees = list(degrees)
    max_degree = max(degrees)
    key_kwargs = dict(
        mode=mode, degrees=degrees, users=users, seed=seed, repeats=repeats
    )
    results: Dict[str, List[AggregateMetrics]] = {}
    compute_policies: List[PlacementPolicy] = list(policies)
    if cache is not None:
        results, compute_policies = cache.lookup(
            dataset, model, policies, **key_kwargs
        )
    if compute_policies:
        executor = executor or ParallelExecutor()
        # Shard-granular checkpoints (see repro.experiments.checkpoint)
        # ride on the cache plane: the batch runner hangs a
        # SweepCheckpoint on the cache, and every completed
        # (repeat, shard) slice is persisted so an interrupted sweep
        # resumes mid-flight instead of from scratch.  Content-addressed
        # like the cache itself, so execution knobs don't fragment it.
        checkpoint = getattr(cache, "checkpoint", None)
        ck_key = None
        if checkpoint is not None:
            ck_key = checkpoint.key_for(
                dataset,
                model,
                compute_policies,
                mode=mode,
                degrees=degrees,
                users=users,
                seed=seed,
                repeats=repeats,
            )
        runs: Dict[str, List[List[AggregateMetrics]]] = {
            p.name: [[] for _ in degrees] for p in compute_policies
        }
        # Only the schedules the cohort's evaluation reads, built here
        # so that every worker shares them and none is built in select.
        closure = read_closure(dataset, users)
        for r in range(repeats):
            run_seed = seed + r
            schedules = compute_schedules(
                dataset, model, seed=run_seed, users=closure
            )
            payload = SweepPayload(
                dataset=dataset,
                schedules=schedules,
                policies=tuple(compute_policies),
                mode=mode,
                degrees=tuple(degrees),
                max_degree=max_degree,
                seed=run_seed,
                engine=engine,
                backend=backend,
                packed=_pack_for_backend(
                    schedules,
                    backend,
                    dataset=dataset,
                    model=model,
                    seed=run_seed,
                    users=closure,
                ),
            )
            per_user = []
            for shard, (lo, hi) in enumerate(
                partition_bounds(len(users), shards)
            ):
                if lo == hi:
                    continue
                shard_users = users[lo:hi]
                if ck_key is not None:
                    stored = checkpoint.load(
                        ck_key, r, shard, users=shard_users
                    )
                    if stored is not None:
                        per_user.extend(stored)
                        continue
                phase = f"sweep[{model.name}]"
                if shards > 1:
                    phase += f"[shard {shard + 1}/{shards}]"
                shard_cells = list(
                    executor.map_shared(
                        evaluate_users_chunk,
                        payload,
                        shard_users,
                        phase=phase,
                    )
                )
                if ck_key is not None and not any(
                    is_quarantined(cell) for cell in shard_cells
                ):
                    # Quarantine decisions belong to the run that made
                    # them: a shard with excluded users is never
                    # checkpointed, so a resume re-judges it afresh.
                    checkpoint.store(
                        ck_key, r, shard, shard_users, shard_cells
                    )
                per_user.extend(shard_cells)
            # Quarantined users drop out of the aggregation (the means
            # cover the surviving cohort); the executor's FailureReport
            # records exactly who was excluded and why.
            per_user = [
                cell for cell in per_user if not is_quarantined(cell)
            ]
            if not per_user:
                raise RuntimeError(
                    f"every user of the sweep[{model.name}] cohort was "
                    f"quarantined; see the executor failure report"
                )
            for policy in compute_policies:
                for i in range(len(degrees)):
                    runs[policy.name][i].append(
                        AggregateMetrics.from_users(
                            [cell[policy.name][i] for cell in per_user]
                        )
                    )
        for policy in compute_policies:
            series = [
                AggregateMetrics.mean(cell) for cell in runs[policy.name]
            ]
            results[policy.name] = series
            if cache is not None:
                cache.store(dataset, model, policy, series, **key_kwargs)
    return {p.name: list(results[p.name]) for p in policies}


def sweep_session_length(
    dataset: Dataset,
    session_lengths: Sequence[float],
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    k: int,
    users: Sequence[UserId],
    seed: int = 0,
    repeats: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
) -> Dict[str, List[AggregateMetrics]]:
    """Fig. 8: fixed replication degree, Sporadic session length swept."""
    results: Dict[str, List[AggregateMetrics]] = {p.name: [] for p in policies}
    for length in session_lengths:
        model = SporadicModel(session_seconds=length)
        point = sweep_replication_degree(
            dataset,
            model,
            policies,
            mode=mode,
            degrees=[k],
            users=users,
            seed=seed,
            repeats=repeats,
            executor=executor,
            engine=engine,
            backend=backend,
            cache=cache,
            shards=shards,
        )
        for name, series in point.items():
            results[name].append(series[0])
    return results


def sweep_user_degree(
    dataset: Dataset,
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    user_degrees: Sequence[int],
    max_users_per_degree: Optional[int] = None,
    seed: int = 0,
    repeats: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
) -> Dict[str, List[Optional[AggregateMetrics]]]:
    """Fig. 9: cohorts of user degree 1..10, replication degree maximal.

    Degrees with no users in the dataset yield ``None`` entries.
    """
    results: Dict[str, List[Optional[AggregateMetrics]]] = {
        p.name: [] for p in policies
    }
    for degree in user_degrees:
        users = select_cohort(
            dataset, degree, max_users=max_users_per_degree, seed=seed
        )
        if not users:
            for p in policies:
                results[p.name].append(None)
            continue
        point = sweep_replication_degree(
            dataset,
            model,
            policies,
            mode=mode,
            degrees=[degree],  # allow every candidate to host
            users=users,
            seed=seed,
            repeats=repeats,
            executor=executor,
            engine=engine,
            backend=backend,
            cache=cache,
            shards=shards,
        )
        for name, series in point.items():
            results[name].append(series[0])
    return results


# -- dataset-per-shard sweeps ---------------------------------------------
#
# The ``shards=`` knob above splits the *fan-out* of one materialised
# dataset; the ``*_datasets`` drivers below shard the dataset itself.
# They iterate ``ShardedDataset.shard(k)`` — one shard dataset, one set
# of schedules, one cohort slice in memory at a time — and roll the
# per-shard aggregates up with :meth:`AggregateMetrics.merge`.  Because a
# shard dataset reproduces its cohort's candidates, activities and
# schedules bit for bit, per-user metrics equal the whole-dataset run's;
# the rollup differs from a single pass only by float-summation order.
#
# Rollup shape: the inner sweeps run one repeat at a time (``seed + r``,
# ``repeats=1``), shards are merged *within* each repeat first (exact
# integer finite-delay weights), and :meth:`AggregateMetrics.mean`
# averages across repeats last — the same weighting the whole-dataset
# sweep applies, so the two paths agree field for field.


def _shard_cohorts(
    sharded: "ShardedDataset", users: Sequence[UserId]
) -> List[List[UserId]]:
    """``users`` split by owning shard, each slice in ``users`` order."""
    cohorts = []
    for shard in range(sharded.num_shards):
        owned = set(sharded.shard_users(shard))
        cohorts.append([u for u in users if u in owned])
    return cohorts


def _rollup(
    parts: List[List["AggregateMetrics"]],
) -> "AggregateMetrics":
    """Merge per-shard aggregates within each repeat, then average."""
    return AggregateMetrics.mean(
        [AggregateMetrics.merge(shard_parts) for shard_parts in parts]
    )


def sweep_replication_degree_datasets(
    sharded: "ShardedDataset",
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    degrees: Sequence[int],
    users: Sequence[UserId],
    seed: int = 0,
    repeats: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
) -> Dict[str, List[AggregateMetrics]]:
    """:func:`sweep_replication_degree` over a :class:`ShardedDataset`.

    Streams shard datasets one at a time instead of materialising the
    whole dataset — the peak working set is one shard's graph, trace and
    schedules.  ``shards`` still controls the fan-out granularity of
    each inner sweep.  With a ``cache``, each (shard, repeat) sweep is
    content-addressed by the shard's fingerprint, so reruns and
    overlapping sweeps reuse per-shard entries.
    """
    if not users:
        raise ValueError("empty user cohort")
    degrees = list(degrees)
    cohorts = _shard_cohorts(sharded, users)
    if not any(cohorts):
        raise ValueError("no cohort user is owned by any shard")
    # parts[name][degree_index][repeat] -> per-shard aggregates
    parts: Dict[str, List[List[List[AggregateMetrics]]]] = {
        p.name: [[[] for _ in range(repeats)] for _ in degrees]
        for p in policies
    }
    for shard, cohort in enumerate(cohorts):
        if not cohort:
            continue
        dataset = sharded.shard(shard)
        for r in range(repeats):
            point = sweep_replication_degree(
                dataset,
                model,
                policies,
                mode=mode,
                degrees=degrees,
                users=cohort,
                seed=seed + r,
                repeats=1,
                executor=executor,
                engine=engine,
                backend=backend,
                cache=cache,
                shards=shards,
            )
            for name, series in point.items():
                for i, aggregate in enumerate(series):
                    parts[name][i][r].append(aggregate)
    return {
        p.name: [_rollup(cell) for cell in parts[p.name]] for p in policies
    }


def sweep_session_length_datasets(
    sharded: "ShardedDataset",
    session_lengths: Sequence[float],
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    k: int,
    users: Sequence[UserId],
    seed: int = 0,
    repeats: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
) -> Dict[str, List[AggregateMetrics]]:
    """:func:`sweep_session_length` over a :class:`ShardedDataset`.

    Each shard dataset is materialised once and swept across *every*
    session length before the next shard is touched, so the peak
    working set stays one shard wide regardless of how many lengths the
    figure plots.
    """
    if not users:
        raise ValueError("empty user cohort")
    cohorts = _shard_cohorts(sharded, users)
    if not any(cohorts):
        raise ValueError("no cohort user is owned by any shard")
    parts: Dict[str, List[List[List[AggregateMetrics]]]] = {
        p.name: [[[] for _ in range(repeats)] for _ in session_lengths]
        for p in policies
    }
    for shard, cohort in enumerate(cohorts):
        if not cohort:
            continue
        dataset = sharded.shard(shard)
        for i, length in enumerate(session_lengths):
            model = SporadicModel(session_seconds=length)
            for r in range(repeats):
                point = sweep_replication_degree(
                    dataset,
                    model,
                    policies,
                    mode=mode,
                    degrees=[k],
                    users=cohort,
                    seed=seed + r,
                    repeats=1,
                    executor=executor,
                    engine=engine,
                    backend=backend,
                    cache=cache,
                    shards=shards,
                )
                for name, series in point.items():
                    parts[name][i][r].append(series[0])
    return {
        p.name: [_rollup(cell) for cell in parts[p.name]] for p in policies
    }


def sweep_user_degree_datasets(
    sharded: "ShardedDataset",
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    user_degrees: Sequence[int],
    max_users_per_degree: Optional[int] = None,
    seed: int = 0,
    repeats: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
) -> Dict[str, List[Optional[AggregateMetrics]]]:
    """:func:`sweep_user_degree` over a :class:`ShardedDataset`.

    Cohorts are selected from the sharded survivor survey (identical to
    the filtered graph's degree bins, including the subsample order);
    every degree's slice of a shard is swept while that shard is
    materialised.  Degrees with no users anywhere yield ``None``.
    """
    user_degrees = list(user_degrees)
    full_cohorts = [
        select_cohort(
            sharded, degree, max_users=max_users_per_degree, seed=seed
        )
        for degree in user_degrees
    ]
    per_shard = [_shard_cohorts(sharded, cohort) for cohort in full_cohorts]
    parts: Dict[str, List[List[List[AggregateMetrics]]]] = {
        p.name: [[[] for _ in range(repeats)] for _ in user_degrees]
        for p in policies
    }
    for shard in range(sharded.num_shards):
        if not any(per_shard[i][shard] for i in range(len(user_degrees))):
            continue
        dataset = sharded.shard(shard)
        for i, degree in enumerate(user_degrees):
            cohort = per_shard[i][shard]
            if not cohort:
                continue
            for r in range(repeats):
                point = sweep_replication_degree(
                    dataset,
                    model,
                    policies,
                    mode=mode,
                    degrees=[degree],  # allow every candidate to host
                    users=cohort,
                    seed=seed + r,
                    repeats=1,
                    executor=executor,
                    engine=engine,
                    backend=backend,
                    cache=cache,
                    shards=shards,
                )
                for name, series in point.items():
                    parts[name][i][r].append(series[0])
    results: Dict[str, List[Optional[AggregateMetrics]]] = {
        p.name: [] for p in policies
    }
    for i in range(len(user_degrees)):
        for p in policies:
            if not full_cohorts[i]:
                results[p.name].append(None)
            else:
                results[p.name].append(_rollup(parts[p.name][i]))
    return results
