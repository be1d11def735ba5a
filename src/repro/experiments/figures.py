"""One registered experiment per table/figure of the paper's evaluation.

Each experiment is a function ``(scale) -> ExperimentResult`` producing the
same rows/series the paper plots, plus raw data for programmatic shape
checks.  The registry at the bottom maps experiment ids (``table1``,
``fig2`` … ``fig11``, ``x1``) to their functions; the benchmark harness has
one bench per entry.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import (
    CONREP,
    INCREMENTAL,
    NUMPY,
    PYTHON,
    UNCONREP,
    evaluate_user,
    make_policy,
    placement_sequences,
    read_closure,
    sweep_replication_degree,
    sweep_replication_degree_datasets,
    sweep_session_length,
    sweep_session_length_datasets,
    sweep_user_degree,
    sweep_user_degree_datasets,
)
from repro.datasets import (
    PAPER_FACEBOOK_AVG_ACTIVITIES,
    PAPER_FACEBOOK_AVG_DEGREE,
    PAPER_FACEBOOK_USERS,
    PAPER_TWITTER_AVG_DEGREE,
    PAPER_TWITTER_USERS,
    dataset_stats,
    degree_distribution,
)
from repro.experiments.config import (
    BENCH,
    ExperimentScale,
    facebook_dataset,
    facebook_sharded,
    twitter_dataset,
    twitter_sharded,
)
from repro.experiments.report import ExperimentResult
from repro.onlinetime import (
    FixedLengthModel,
    OnlineTimeModel,
    RandomLengthModel,
    SporadicModel,
    compute_schedules,
    packed_schedules,
)
from repro.parallel import ParallelExecutor
from repro.simulator import DecentralizedOSN, ReplayConfig, replay_trace

if TYPE_CHECKING:  # imported lazily: repro.cache imports repro.core
    from repro.cache import SweepCache

#: Policy display order used throughout the paper's figures.
POLICY_ORDER: Tuple[str, ...] = ("maxav", "mostactive", "random")

#: Shard modes for the sweep experiments.  ``"cohort"`` (default)
#: materialises the whole dataset and uses ``shards`` to slice each
#: sweep's cohort fan-out (results bit-identical for every value).
#: ``"dataset"`` never materialises the whole dataset: ``shards`` becomes
#: the :class:`~repro.datasets.ShardedDataset` shard count and the sweeps
#: stream one shard dataset at a time, merging per-shard aggregates —
#: equal to cohort mode field for field up to float-summation order.
COHORT_MODE = "cohort"
DATASET_MODE = "dataset"
SHARD_MODES: Tuple[str, ...] = (COHORT_MODE, DATASET_MODE)


def check_shard_mode(shard_mode: str) -> str:
    """Validate a shard-mode name."""
    if shard_mode not in SHARD_MODES:
        raise ValueError(
            f"unknown shard mode {shard_mode!r}; choose from {SHARD_MODES}"
        )
    return shard_mode


def _source(kind: str, scale: ExperimentScale, shard_mode: str, shards: int):
    """The sweep input for a dataset kind: the eager dataset in cohort
    mode, the :class:`ShardedDataset` view in dataset mode."""
    check_shard_mode(shard_mode)
    if shard_mode == DATASET_MODE:
        sharded = facebook_sharded if kind == "facebook" else twitter_sharded
        return sharded(scale, max(1, shards))
    return facebook_dataset(scale) if kind == "facebook" else twitter_dataset(scale)

#: The four online-time models shown in the multi-panel figures.
def _panel_models() -> List[Tuple[str, OnlineTimeModel]]:
    return [
        ("Sporadic", SporadicModel()),
        ("RandomLength", RandomLengthModel()),
        ("FixedLength-2h", FixedLengthModel(2)),
        ("FixedLength-8h", FixedLengthModel(8)),
    ]


#: Replication degrees swept in Figs. 3-7 and 10-11.
DEGREES: Tuple[int, ...] = tuple(range(11))

#: Session lengths (seconds) swept in Fig. 8, log-spaced 100 s – 1e5 s.
SESSION_LENGTHS: Tuple[float, ...] = (100, 316, 1000, 3162, 10000, 31623, 86400)

_METRIC_LABELS = {
    "availability": "availability",
    "aod_time": "availability-on-demand-time",
    "aod_activity": "availability-on-demand-activity",
    "delay_hours_actual": "update propagation delay (hours)",
}


def _policies():
    return [make_policy(name) for name in POLICY_ORDER]


def _cohort(dataset, scale: ExperimentScale) -> List[int]:
    """The paper's degree-10 cohort, widening the degree window only if the
    (small, synthetic) dataset has no exact-degree users.

    ``dataset`` is a :class:`Dataset` (degrees from its filtered graph)
    or a :class:`ShardedDataset` (its own ``users_with_degree``); both
    list matching users sorted ascending, so the selected cohort is
    identical across sources.
    """
    if hasattr(dataset, "users_with_degree"):
        by_degree = dataset.users_with_degree
    else:
        by_degree = dataset.graph.users_with_degree
    for widen in range(4):
        users = by_degree(
            max(1, scale.cohort_degree - widen),
            max_degree=scale.cohort_degree + widen,
        )
        if users:
            if scale.max_cohort_users and len(users) > scale.max_cohort_users:
                users = users[: scale.max_cohort_users]
            return users
    name = getattr(dataset, "name", None) or (
        f"sharded {dataset.spec.kind} dataset"
        if hasattr(dataset, "spec")
        else "dataset"
    )
    raise RuntimeError(
        f"no users anywhere near degree {scale.cohort_degree} in {name}"
    )


def _panel_sweep(
    result: ExperimentResult,
    dataset,
    scale: ExperimentScale,
    *,
    mode: str,
    metric: str,
    models: Optional[Sequence[Tuple[str, OnlineTimeModel]]] = None,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
) -> None:
    """Run the degree sweep for each panel model and add one table each.

    With a ``cache``, sibling figures over the same (dataset, mode)
    share their panel sweeps by content address — fig3/5/6/7 (and
    fig10/11 on Twitter) compute each model's sweep once per batch and
    the rest slice their metric columns from the cached series.

    ``dataset`` may be a :class:`ShardedDataset` (dataset shard mode):
    the sweep then streams one shard dataset at a time and ``shards``
    already named the dataset shard count, so the inner fan-out is not
    sharded again.
    """
    is_sharded = hasattr(dataset, "shard")
    sweep_fn = (
        sweep_replication_degree_datasets
        if is_sharded
        else sweep_replication_degree
    )
    users = _cohort(dataset, scale)
    label = _METRIC_LABELS[metric]
    for panel_name, model in models or _panel_models():
        sweep = sweep_fn(
            dataset,
            model,
            _policies(),
            mode=mode,
            degrees=list(DEGREES),
            users=users,
            seed=scale.seed,
            repeats=scale.repeats,
            executor=executor,
            engine=engine,
            backend=backend,
            cache=cache,
            shards=1 if is_sharded else shards,
        )
        rows = []
        for i, k in enumerate(DEGREES):
            rows.append(
                (k,)
                + tuple(
                    getattr(sweep[name][i], metric) for name in POLICY_ORDER
                )
            )
        result.add_table(
            f"{panel_name}: {label} vs replication degree "
            f"({mode}, {len(users)} cohort users)",
            ("degree",) + POLICY_ORDER,
            rows,
        )
        result.data[panel_name] = {
            name: {
                "availability": [a.availability for a in sweep[name]],
                "aod_time": [a.aod_time for a in sweep[name]],
                "aod_activity": [a.aod_activity for a in sweep[name]],
                "delay_hours_actual": [
                    a.delay_hours_actual for a in sweep[name]
                ],
                "mean_replicas_used": [
                    a.mean_replicas_used for a in sweep[name]
                ],
            }
            for name in POLICY_ORDER
        }
    result.data["degrees"] = list(DEGREES)


# ---------------------------------------------------------------------------
# Table 1 and Figure 2: dataset characterisation
# ---------------------------------------------------------------------------


def table1_dataset_stats(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """§IV-A in-text dataset statistics, measured vs paper."""
    result = ExperimentResult(
        experiment_id="table1",
        title="Filtered dataset statistics (§IV-A)",
        description=(
            "Synthetic substitutes are generated to match the paper's "
            "filtered trace statistics; this table reports both."
        ),
        paper_expectation=(
            f"Facebook: {PAPER_FACEBOOK_USERS} users, avg degree "
            f"{PAPER_FACEBOOK_AVG_DEGREE}, avg activities "
            f"{PAPER_FACEBOOK_AVG_ACTIVITIES}; Twitter: "
            f"{PAPER_TWITTER_USERS} users, avg degree "
            f"{PAPER_TWITTER_AVG_DEGREE}."
        ),
    )
    rows = []
    for ds, paper_users, paper_degree in (
        (facebook_dataset(scale), PAPER_FACEBOOK_USERS, PAPER_FACEBOOK_AVG_DEGREE),
        (twitter_dataset(scale), PAPER_TWITTER_USERS, PAPER_TWITTER_AVG_DEGREE),
    ):
        stats = dataset_stats(ds)
        rows.append(
            (
                stats.name,
                stats.num_users,
                round(stats.average_degree, 1),
                stats.num_activities,
                round(stats.average_activities_per_user, 1),
                paper_users,
                paper_degree,
            )
        )
        result.data[stats.kind] = stats
    result.add_table(
        "Measured (this run) vs paper-reported (full-trace) statistics",
        (
            "dataset",
            "users",
            "avg degree",
            "activities",
            "acts/user",
            "paper users",
            "paper degree",
        ),
        rows,
    )
    return result


def fig2_degree_distribution(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """Fig. 2: user degree distribution of both datasets."""
    result = ExperimentResult(
        experiment_id="fig2",
        title="User degree distribution (Fig. 2)",
        description=(
            "Number of users per degree (friends for Facebook, followers "
            "for Twitter); heavy-tailed in both datasets."
        ),
        paper_expectation="Monotone-decreasing heavy tail for both datasets.",
    )
    fb = dict(degree_distribution(facebook_dataset(scale)))
    tw = dict(degree_distribution(twitter_dataset(scale)))
    max_degree = min(50, max(max(fb), max(tw)))
    rows = [
        (d, fb.get(d, 0), tw.get(d, 0)) for d in range(1, max_degree + 1)
    ]
    result.add_table(
        f"Users per degree (1..{max_degree}; tail truncated for display)",
        ("degree", "facebook users", "twitter users"),
        rows,
    )
    result.data["facebook"] = fb
    result.data["twitter"] = tw
    return result


# ---------------------------------------------------------------------------
# Figures 3-7: Facebook
# ---------------------------------------------------------------------------


def fig3_fb_conrep_availability(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig3",
        title="Facebook-ConRep: Availability (Fig. 3)",
        description=(
            "Availability vs replication degree for the degree-10 cohort "
            "under all four online-time models, connected replicas."
        ),
        paper_expectation=(
            "Availability rises and saturates; MaxAv dominates, MostActive "
            "beats Random; FixedLength-2h availability stays low."
        ),
    )
    _panel_sweep(
        result,
        _source("facebook", scale, shard_mode, shards),
        scale,
        mode=CONREP,
        metric="availability",
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=shards,
    )
    return result


def fig4_fb_unconrep_availability(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig4",
        title="Facebook-UnconRep: Availability (Fig. 4)",
        description=(
            "Availability vs replication degree with unconnected replicas "
            "(third-party sync), FixedLength 2h and 8h panels."
        ),
        paper_expectation=(
            "Higher achievable availability than the ConRep counterparts, "
            "since replica choice ignores time-connectivity."
        ),
    )
    models = [
        ("FixedLength-2h", FixedLengthModel(2)),
        ("FixedLength-8h", FixedLengthModel(8)),
    ]
    _panel_sweep(
        result,
        _source("facebook", scale, shard_mode, shards),
        scale,
        mode=UNCONREP,
        metric="availability",
        models=models,
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=shards,
    )
    return result


def fig5_fb_conrep_aod_time(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig5",
        title="Facebook-ConRep: Availability-on-Demand-Time (Fig. 5)",
        description=(
            "Fraction of the friends' combined online time the profile is "
            "reachable, vs replication degree."
        ),
        paper_expectation=(
            "Reaches ~1 with few replicas under MaxAv; MostActive needs "
            "more, Random the most."
        ),
    )
    _panel_sweep(
        result,
        _source("facebook", scale, shard_mode, shards),
        scale,
        mode=CONREP,
        metric="aod_time",
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=shards,
    )
    return result


def fig6_fb_conrep_aod_activity(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig6",
        title="Facebook-ConRep: Availability-on-Demand-Activity (Fig. 6)",
        description=(
            "Fraction of profile activities that found the profile "
            "reachable, vs replication degree."
        ),
        paper_expectation=(
            "Higher than availability-on-demand-time at the same degree; "
            "MostActive performs notably well."
        ),
    )
    _panel_sweep(
        result,
        _source("facebook", scale, shard_mode, shards),
        scale,
        mode=CONREP,
        metric="aod_activity",
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=shards,
    )
    return result


def fig7_fb_conrep_delay(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig7",
        title="Facebook-ConRep: Update Propagation Delay (Fig. 7)",
        description=(
            "Worst-case update propagation delay (hours) vs replication "
            "degree — non-intuitively increasing with degree."
        ),
        paper_expectation=(
            "Delay grows with replication degree; MaxAv incurs the highest "
            "delay; Sporadic delays are the lowest of the models."
        ),
    )
    _panel_sweep(
        result,
        _source("facebook", scale, shard_mode, shards),
        scale,
        mode=CONREP,
        metric="delay_hours_actual",
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=shards,
    )
    return result


def fig8_session_length(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig8",
        title="Facebook-ConRep: Effect of Sporadic session length (Fig. 8)",
        description=(
            "All four metrics at replication degree 3 as the Sporadic "
            "session length sweeps 100 s to ~1e5 s (log scale)."
        ),
        paper_expectation=(
            "Longer sessions raise availability (→1 above ~1e4 s) and all "
            "on-demand metrics, and sharply cut the propagation delay."
        ),
    )
    dataset = _source("facebook", scale, shard_mode, shards)
    is_sharded = hasattr(dataset, "shard")
    sweep_fn = (
        sweep_session_length_datasets if is_sharded else sweep_session_length
    )
    users = _cohort(dataset, scale)
    sweep = sweep_fn(
        dataset,
        SESSION_LENGTHS,
        _policies(),
        mode=CONREP,
        k=3,
        users=users,
        seed=scale.seed,
        repeats=scale.repeats,
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=1 if is_sharded else shards,
    )
    for metric, label in _METRIC_LABELS.items():
        rows = []
        for i, length in enumerate(SESSION_LENGTHS):
            rows.append(
                (length,)
                + tuple(
                    getattr(sweep[name][i], metric) for name in POLICY_ORDER
                )
            )
        result.add_table(
            f"{label} vs session length (replication degree 3)",
            ("session (s)",) + POLICY_ORDER,
            rows,
        )
    result.data["session_lengths"] = list(SESSION_LENGTHS)
    result.data["sweep"] = {
        name: {
            metric: [getattr(a, metric) for a in sweep[name]]
            for metric in _METRIC_LABELS
        }
        for name in POLICY_ORDER
    }
    return result


def fig9_user_degree(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig9",
        title="Facebook-ConRep: Effect of user degree (Fig. 9)",
        description=(
            "Availability and propagation delay for user degrees 1..10 "
            "under Sporadic, replication degree = user degree (all friends "
            "allowed)."
        ),
        paper_expectation=(
            "Availability grows with user degree and is equal across "
            "policies (all friends allowed); MaxAv uses fewer replicas and "
            "thus sees lower delay."
        ),
    )
    dataset = _source("facebook", scale, shard_mode, shards)
    is_sharded = hasattr(dataset, "shard")
    sweep_fn = sweep_user_degree_datasets if is_sharded else sweep_user_degree
    user_degrees = list(range(1, 11))
    sweep = sweep_fn(
        dataset,
        SporadicModel(),
        _policies(),
        mode=CONREP,
        user_degrees=user_degrees,
        max_users_per_degree=scale.max_cohort_users,
        seed=scale.seed,
        repeats=scale.repeats,
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=1 if is_sharded else shards,
    )

    def row_of(metric):
        rows = []
        for i, d in enumerate(user_degrees):
            cells = []
            for name in POLICY_ORDER:
                agg = sweep[name][i]
                cells.append(None if agg is None else getattr(agg, metric))
            rows.append((d,) + tuple(cells))
        return rows

    result.add_table(
        "availability vs user degree (Sporadic, max replication)",
        ("user degree",) + POLICY_ORDER,
        row_of("availability"),
    )
    result.add_table(
        "update propagation delay (hours) vs user degree",
        ("user degree",) + POLICY_ORDER,
        row_of("delay_hours_actual"),
    )
    result.add_table(
        "replicas actually used vs user degree",
        ("user degree",) + POLICY_ORDER,
        row_of("mean_replicas_used"),
    )
    result.data["user_degrees"] = user_degrees
    result.data["sweep"] = {
        name: [
            None
            if agg is None
            else {
                "availability": agg.availability,
                "delay_hours_actual": agg.delay_hours_actual,
                "mean_replicas_used": agg.mean_replicas_used,
            }
            for agg in sweep[name]
        ]
        for name in POLICY_ORDER
    }
    return result


# ---------------------------------------------------------------------------
# Figures 10-11: Twitter
# ---------------------------------------------------------------------------


def fig10_tw_conrep_availability(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig10",
        title="Twitter-ConRep: Availability (Fig. 10)",
        description=(
            "Availability vs replication degree on the Twitter dataset "
            "(replication on followers)."
        ),
        paper_expectation="Same trends as Facebook (Fig. 3).",
    )
    _panel_sweep(
        result,
        _source("twitter", scale, shard_mode, shards),
        scale,
        mode=CONREP,
        metric="availability",
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=shards,
    )
    return result


def fig11_tw_conrep_aod_time(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig11",
        title="Twitter-ConRep: Availability-on-Demand-Time (Fig. 11)",
        description=(
            "Availability-on-demand-time on Twitter; unlike Facebook, the "
            "FixedLength-8h panel does not reach 1 because some followers "
            "are never time-connected to any replica."
        ),
        paper_expectation=(
            "Same trends as Fig. 5, except FixedLength-8h saturates below "
            "1 due to disconnected followers."
        ),
    )
    _panel_sweep(
        result,
        _source("twitter", scale, shard_mode, shards),
        scale,
        mode=CONREP,
        metric="aod_time",
        executor=executor,
        engine=engine,
        backend=backend,
        cache=cache,
        shards=shards,
    )
    return result


# ---------------------------------------------------------------------------
# X1: DES cross-validation
# ---------------------------------------------------------------------------


def x1_des_validation(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """Replay a placed cohort in the discrete-event simulator and compare
    the empirical measurements against the closed-form metrics."""
    result = ExperimentResult(
        experiment_id="x1",
        title="DES cross-validation (simulator vs closed form)",
        description=(
            "For the degree-10 cohort under FixedLength-8h and MaxAv "
            "(k=3), the trace is replayed in the discrete-event simulator; "
            "empirical availability / write service rate should match the "
            "analytic availability / availability-on-demand-activity, and "
            "the empirical worst delay must respect the analytic bound."
        ),
        paper_expectation=(
            "Simulation and analysis agree (the paper's simulator computes "
            "exactly these quantities)."
        ),
    )
    dataset = facebook_dataset(scale)
    model = FixedLengthModel(8)
    schedules = compute_schedules(dataset, model, seed=scale.seed)
    users = _cohort(dataset, scale)
    sequences = placement_sequences(
        dataset,
        schedules,
        users,
        make_policy("maxav"),
        mode=CONREP,
        max_degree=3,
        seed=scale.seed,
        executor=executor,
    )
    osn = DecentralizedOSN(
        dataset,
        schedules,
        sequences,
        config=ReplayConfig(days=3, sample_every=600, replay_reads=False),
        tracked_profiles=users,
    )
    stats = osn.run()

    rows = []
    deltas = []
    worst_bound = 0.0
    for user in users:
        analytic = evaluate_user(dataset, schedules, user, sequences[user])
        emp_avail = stats.availability_of(user)
        emp_writes = (
            stats.write_service_rate(user) if user in stats.writes else None
        )
        rows.append(
            (
                user,
                len(sequences[user]),
                round(analytic.availability, 3),
                round(emp_avail, 3),
                round(analytic.aod_activity, 3),
                None if emp_writes is None else round(emp_writes, 3),
                round(analytic.delay_hours_actual, 2)
                if not math.isinf(analytic.delay_hours_actual)
                else math.inf,
            )
        )
        deltas.append(abs(emp_avail - analytic.availability))
        if not math.isinf(analytic.delay_hours_actual):
            worst_bound = max(worst_bound, analytic.delay_hours_actual)
    result.add_table(
        "Per-user analytic vs empirical",
        (
            "user",
            "replicas",
            "avail (analytic)",
            "avail (DES)",
            "aod-act (analytic)",
            "write rate (DES)",
            "delay bound (h)",
        ),
        rows,
    )
    result.add_table(
        "Aggregate agreement",
        ("max |avail delta|", "worst DES delay (h)", "analytic bound (h)"),
        [
            (
                round(max(deltas), 4) if deltas else 0.0,
                round(stats.max_propagation_delay_hours, 2),
                round(worst_bound, 2),
            )
        ],
    )
    result.data["max_avail_delta"] = max(deltas) if deltas else 0.0
    result.data["worst_des_delay"] = stats.max_propagation_delay_hours
    result.data["analytic_bound"] = worst_bound
    result.data["incomplete_updates"] = stats.incomplete_updates
    return result


def x2_expected_unexpected(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """§IV-B: the expected/unexpected split of profile activity.

    Under each online-time model, part of the activity on a user's profile
    falls inside the creator's modelled online time (*expected*) and part
    outside (*unexpected*); availability-on-demand-activity serves both.
    This experiment quantifies the split and the service rate of each
    part, at replication degree 3 under MaxAv.
    """
    result = ExperimentResult(
        experiment_id="x2",
        title="Expected vs unexpected activity (§IV-B)",
        description=(
            "Per online-time model: fraction of profile activity whose "
            "creator was himself online at that instant (expected), and "
            "the served fraction of each part (MaxAv, k=3, ConRep)."
        ),
        paper_expectation=(
            "Sporadic makes all activity expected by construction; "
            "continuous windows leave an unexpected remainder whose "
            "service 'will have positive effect on the users' when it is "
            "nonetheless available."
        ),
    )
    dataset = facebook_dataset(scale)
    users = _cohort(dataset, scale)
    policy = make_policy("maxav")
    closure = read_closure(dataset, users)
    rows = []
    for panel_name, model in _panel_models():
        schedules = compute_schedules(
            dataset, model, seed=scale.seed, users=closure
        )
        sequences = placement_sequences(
            dataset,
            schedules,
            users,
            policy,
            mode=CONREP,
            max_degree=3,
            seed=scale.seed,
            executor=executor,
            backend=backend,
        )
        per_user = [
            evaluate_user(dataset, schedules, u, sequences[u])
            for u in users
        ]
        n = len(per_user)
        expected_frac = sum(m.expected_activity_fraction for m in per_user) / n
        served_expected = sum(m.aod_activity_expected for m in per_user) / n
        served_unexpected = (
            sum(m.aod_activity_unexpected for m in per_user) / n
        )
        overall = sum(m.aod_activity for m in per_user) / n
        rows.append(
            (
                panel_name,
                round(expected_frac, 3),
                round(served_expected, 3),
                round(served_unexpected, 3),
                round(overall, 3),
            )
        )
        result.data[panel_name] = {
            "expected_fraction": expected_frac,
            "served_expected": served_expected,
            "served_unexpected": served_unexpected,
            "aod_activity": overall,
        }
    result.add_table(
        "Expected/unexpected activity split and service (MaxAv, k=3)",
        (
            "model",
            "expected fraction",
            "served | expected",
            "served | unexpected",
            "aod-activity",
        ),
        rows,
    )
    return result


def x3_observed_vs_actual_delay(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """§II-C3: the observed propagation delay vs the actual one.

    The paper asserts the delay a friend *experiences* (his offline time
    excluded) "would be much lower" than the end-to-end worst case; this
    experiment puts numbers on that claim across the degree sweep.
    """
    result = ExperimentResult(
        experiment_id="x3",
        title="Observed vs actual propagation delay (§II-C3)",
        description=(
            "Facebook-ConRep, MaxAv: worst-case actual delay vs the "
            "observed delay (receiver offline time excluded), per "
            "replication degree and online-time model."
        ),
        paper_expectation=(
            "Observed delay is a small fraction of the actual delay for "
            "session-based schedules."
        ),
    )
    dataset = _source("facebook", scale, shard_mode, shards)
    is_sharded = hasattr(dataset, "shard")
    sweep_fn = (
        sweep_replication_degree_datasets
        if is_sharded
        else sweep_replication_degree
    )
    users = _cohort(dataset, scale)
    for panel_name, model in _panel_models():
        sweep = sweep_fn(
            dataset,
            model,
            [make_policy("maxav")],
            mode=CONREP,
            degrees=list(DEGREES),
            users=users,
            seed=scale.seed,
            repeats=scale.repeats,
            executor=executor,
            backend=backend,
            cache=cache,
        )["maxav"]
        rows = []
        for i, k in enumerate(DEGREES):
            actual = sweep[i].delay_hours_actual
            observed = sweep[i].delay_hours_observed
            ratio = observed / actual if actual else 0.0
            rows.append(
                (k, round(actual, 2), round(observed, 2), round(ratio, 3))
            )
        result.add_table(
            f"{panel_name}: actual vs observed delay (hours, MaxAv)",
            ("degree", "actual", "observed", "observed/actual"),
            rows,
        )
        result.data[panel_name] = {
            "actual": [a.delay_hours_actual for a in sweep],
            "observed": [a.delay_hours_observed for a in sweep],
        }
    return result


def x4_hosting_fairness(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """§II-B1: fairness of the hosting load across the whole network.

    The paper requires that replica selection "ensure fairness among the
    replicas by balancing the storage and communication overhead ...
    uniformly" but never measures it.  Here every user of the network
    places k=3 replicas with each policy and the resulting hosting-load
    distribution is summarised by Jain's index, the Gini coefficient, the
    maximum load, and the share carried by the busiest decile.
    """
    result = ExperimentResult(
        experiment_id="x4",
        title="Hosting-load fairness across the network (§II-B1)",
        description=(
            "All users place k=3 replicas (Sporadic, ConRep); the load a "
            "node carries is the number of foreign profiles it hosts."
        ),
        paper_expectation=(
            "No measurement in the paper; structurally, coverage-greedy "
            "MaxAv concentrates load on long-online hubs (least fair), "
            "Random inherits the degree heavy tail (hubs sit in many "
            "candidate sets), and MostActive spreads best because "
            "favourite interaction partners are personal."
        ),
    )
    from repro.core.fairness import fairness_report

    dataset = facebook_dataset(scale)
    model = SporadicModel()
    schedules = compute_schedules(dataset, model, seed=scale.seed)
    everyone = sorted(dataset.graph.users())
    rows = []
    for policy_name in POLICY_ORDER:
        sequences = placement_sequences(
            dataset,
            schedules,
            everyone,
            make_policy(policy_name),
            mode=CONREP,
            max_degree=3,
            seed=scale.seed,
            executor=executor,
            backend=backend,
        )
        report = fairness_report(sequences, all_hosts=everyone)
        rows.append(
            (
                policy_name,
                report.total_load,
                round(report.mean_load, 2),
                report.max_load,
                round(report.jain, 3),
                round(report.gini, 3),
                round(report.top_decile_share, 3),
            )
        )
        result.data[policy_name] = report
    result.add_table(
        "Hosting-load fairness (k=3, whole network)",
        (
            "policy",
            "total load",
            "mean",
            "max",
            "jain",
            "gini",
            "top-10% share",
        ),
        rows,
    )
    return result


def x5_owner_notification(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """§II requirement: the owner should receive updates on his profile
    even when they arrive while he is offline.

    The DES replay measures, per policy, how long it takes an activity
    that landed on some replica to reach the *owner's own store* — the
    moment the owner can see it — plus the fraction the owner had not yet
    seen when the run ended.
    """
    result = ExperimentResult(
        experiment_id="x5",
        title="Owner notification delay (§II requirement)",
        description=(
            "FixedLength-8h schedules, k=3, three-day replay: time from an "
            "activity landing on the replica group until the owner's own "
            "node holds it."
        ),
        paper_expectation=(
            "Replication makes offline-received activity reach the owner "
            "within a day-scale delay; smarter placement (better overlap "
            "with the owner) shortens it."
        ),
    )
    dataset = facebook_dataset(scale)
    model = FixedLengthModel(8)
    schedules = compute_schedules(dataset, model, seed=scale.seed)
    users = _cohort(dataset, scale)
    rows = []
    for policy_name in POLICY_ORDER:
        sequences = placement_sequences(
            dataset,
            schedules,
            users,
            make_policy(policy_name),
            mode=CONREP,
            max_degree=3,
            seed=scale.seed,
            executor=executor,
            backend=backend,
        )
        stats = DecentralizedOSN(
            dataset,
            schedules,
            sequences,
            config=ReplayConfig(days=3, sample_every=0, replay_reads=False),
            tracked_profiles=users,
        ).run()
        delivered = len(stats.owner_delivery_delays_hours)
        total = delivered + stats.undelivered_to_owner
        rows.append(
            (
                policy_name,
                total,
                round(delivered / total, 3) if total else 1.0,
                round(stats.mean_owner_delivery_delay_hours, 2),
                round(stats.max_owner_delivery_delay_hours, 2),
            )
        )
        result.data[policy_name] = {
            "delivered": delivered,
            "total": total,
            "mean_delay_hours": stats.mean_owner_delivery_delay_hours,
            "max_delay_hours": stats.max_owner_delivery_delay_hours,
        }
    result.add_table(
        "Owner notification (k=3, FixedLength-8h, 3-day replay)",
        (
            "policy",
            "updates",
            "delivered to owner",
            "mean delay (h)",
            "max delay (h)",
        ),
        rows,
    )
    return result


# ---------------------------------------------------------------------------
# X6: vectorized sharded replay
# ---------------------------------------------------------------------------


def x6_scaled_replay(
    scale: ExperimentScale,
    *,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """Full-feature DES replay through the sharded/vectorized pipeline.

    The only experiment that routes the simulator through
    :func:`repro.simulator.replay_trace`, so the execution knobs reach
    the DES layer: ``backend="numpy"`` replays on the packed compute
    plane (:class:`~repro.simulator.VectorizedReplay`), ``shards`` splits
    the profile cohort into disjoint replica-group shards fanned over the
    executor, and a ``cache`` memoises the merged statistics under a
    content address that deliberately excludes all three knobs — every
    combination is bit-identical to the serial scalar oracle.
    """
    result = ExperimentResult(
        experiment_id="x6",
        title="Sharded DES replay (service rates at scale)",
        description=(
            "FixedLength-8h schedules, MaxAv k=3, three-day replay with "
            "availability sampling, read replay and owner tracking, run "
            "through the sharded/vectorized replay pipeline."
        ),
        paper_expectation=(
            "Identical measurements for every (jobs, shards, backend) "
            "combination; the empirical service rates and delays echo the "
            "closed-form §II-C metrics at replica degree 3."
        ),
    )
    dataset = facebook_dataset(scale)
    model = FixedLengthModel(8)
    schedules = compute_schedules(dataset, model, seed=scale.seed)
    users = _cohort(dataset, scale)
    sequences = placement_sequences(
        dataset,
        schedules,
        users,
        make_policy("maxav"),
        mode=CONREP,
        max_degree=3,
        seed=scale.seed,
        executor=executor,
        backend=backend,
    )
    config = ReplayConfig(days=3, sample_every=900, replay_reads=True)
    cache_key = None
    if cache is not None:
        from repro.cache import replay_cache_key

        cache_key = replay_cache_key(
            dataset,
            model,
            seed=scale.seed,
            config=config,
            placements=sequences,
            tracked_profiles=users,
        )
    outcome = replay_trace(
        dataset,
        schedules,
        sequences,
        config=config,
        tracked_profiles=users,
        backend=backend,
        shards=shards,
        executor=executor,
        packed=(
            packed_schedules(dataset, model, seed=scale.seed)
            if backend == NUMPY
            else None
        ),
        cache=cache,
        cache_key=cache_key,
    )
    stats = outcome.stats
    result.add_table(
        "Replay execution",
        ("backend", "shards", "events replayed", "served from cache"),
        [
            (
                outcome.backend,
                outcome.shards,
                outcome.events_replayed,
                outcome.cached,
            )
        ],
    )
    mean_avail = (
        sum(stats.availability_of(u) for u in users) / len(users)
        if users
        else 0.0
    )
    result.add_table(
        "Cohort measurements (k=3, FixedLength-8h)",
        (
            "profiles",
            "mean availability",
            "write service rate",
            "read service rate",
            "mean propagation delay (h)",
            "mean read staleness",
            "consistent profiles",
        ),
        [
            (
                stats.tracked_profiles,
                round(mean_avail, 3),
                round(stats.write_service_rate(), 3),
                round(stats.read_service_rate(), 3),
                round(stats.mean_propagation_delay_hours, 2),
                round(stats.mean_read_staleness, 2),
                f"{stats.consistent_profiles}/{stats.tracked_profiles}",
            )
        ],
    )
    result.data["backend"] = outcome.backend
    result.data["shards"] = outcome.shards
    result.data["cached"] = outcome.cached
    result.data["events_replayed"] = outcome.events_replayed
    result.data["mean_availability"] = mean_avail
    result.data["write_service_rate"] = stats.write_service_rate()
    result.data["read_service_rate"] = stats.read_service_rate()
    result.data["mean_propagation_delay_hours"] = (
        stats.mean_propagation_delay_hours
    )
    result.data["mean_read_staleness"] = stats.mean_read_staleness
    result.data["incomplete_updates"] = stats.incomplete_updates
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_dataset_stats,
    "fig2": fig2_degree_distribution,
    "fig3": fig3_fb_conrep_availability,
    "fig4": fig4_fb_unconrep_availability,
    "fig5": fig5_fb_conrep_aod_time,
    "fig6": fig6_fb_conrep_aod_activity,
    "fig7": fig7_fb_conrep_delay,
    "fig8": fig8_session_length,
    "fig9": fig9_user_degree,
    "fig10": fig10_tw_conrep_availability,
    "fig11": fig11_tw_conrep_aod_time,
    "x1": x1_des_validation,
    "x2": x2_expected_unexpected,
    "x3": x3_observed_vs_actual_delay,
    "x4": x4_hosting_fairness,
    "x5": x5_owner_notification,
    "x6": x6_scaled_replay,
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in paper order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    scale: ExperimentScale = BENCH,
    *,
    jobs: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: str = INCREMENTAL,
    backend: str = PYTHON,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
    shard_mode: str = COHORT_MODE,
) -> ExperimentResult:
    """Run one experiment by id at the given scale.

    ``jobs`` (or a pre-built ``executor``) parallelises the per-user sweep
    work over worker processes; results are bit-identical to ``jobs=1``.
    ``engine`` selects the prefix-evaluation path for the degree sweeps
    (``"incremental"`` by default; ``"naive"`` forces the per-degree
    reference oracle — float-identical output, only slower).  Experiments
    that run no degree sweep (table1, fig2, and the x-series diagnostics,
    which deliberately exercise the oracle path) accept and ignore it.
    ``backend`` selects the timeline kernels (``"python"`` by default;
    ``"numpy"`` batches the overlap/set-cover/activity scans — results
    bit-identical either way).  ``cache`` (a
    :class:`repro.cache.SweepCache`) lets experiments share their degree
    sweeps by content address; cached results are bit-identical to
    recomputed ones.  ``shards`` splits each sweep's cohort into that
    many contiguous slices dispatched one slice at a time, bounding how
    much per-user state is in flight at once — an execution knob like
    ``jobs``/``engine``/``backend``, so results (and sweep-cache keys)
    are bit-identical for every value.  ``shard_mode`` selects how the
    sweep experiments consume their dataset: ``"cohort"`` (default)
    materialises the whole dataset; ``"dataset"`` streams it shard by
    shard (``shards`` then names the dataset shard count) — one shard's
    graph, trace and schedules in memory at a time, per-shard aggregates
    merged, equal to cohort mode field for field up to float-summation
    order.  Experiments that run no degree sweep (table1, fig2, and the
    x-series diagnostics other than x3) accept and ignore it, as they
    materialise their dataset eagerly either way.  Phase wall-clock/throughput timings — plus cache
    hit/miss and pool start/reuse counters when a shared ``cache`` /
    ``executor`` is threaded through — land in ``result.timings`` as
    *this experiment's* deltas and are serialised into the experiment's
    JSON by ``run_batch``.
    """
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; choose from "
            f"{experiment_ids()}"
        ) from None
    check_shard_mode(shard_mode)
    owns_executor = executor is None
    if owns_executor:
        executor = ParallelExecutor(jobs=jobs)
    timing_mark = executor.snapshot_timings()
    pool_mark = executor.pool_stats.snapshot()
    failure_mark = executor.failures.snapshot()
    cache_mark = cache.stats.snapshot() if cache is not None else None
    start = perf_counter()
    try:
        result = fn(
            scale,
            executor=executor,
            engine=engine,
            backend=backend,
            cache=cache,
            shards=shards,
            shard_mode=shard_mode,
        )
    finally:
        if owns_executor:
            executor.close()
    result.timings = {
        "total_seconds": round(perf_counter() - start, 6),
        "jobs": executor.effective_jobs,
        "engine": engine,
        "backend": backend,
        "shards": shards,
        "shard_mode": shard_mode,
        "phases": executor.timings_since(timing_mark),
        "pool": executor.pool_stats.since(pool_mark),
    }
    if cache is not None and cache_mark is not None:
        result.timings["cache"] = cache.stats.since(cache_mark)
    failure_delta = executor.failures.since(failure_mark)
    if failure_delta:
        result.timings["failures"] = failure_delta.as_dict()
    return result
