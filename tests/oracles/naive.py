"""The per-degree reference for the incremental prefix evaluator.

The production sweeps evaluate every replication degree of a selection
sequence in one forward pass
(:class:`~repro.core.incremental.IncrementalGroupEvaluator`).  This
oracle does it the obvious way: select each policy's sequence exactly
as the sweep does — a fresh ``derive_rng(seed, policy.name, user)``
stream through :meth:`PlacementPolicy.select` — then rebuild the group
from scratch for every degree with :func:`~repro.core.metrics.evaluate_user`
on the prefix ``seq[:k]``, and aggregate with
:meth:`AggregateMetrics.from_users` / :meth:`AggregateMetrics.mean`.
The incremental path promises *float-identical* output, so callers
compare with ``==``.
"""

from typing import Dict, List, Optional, Sequence

from repro.core import (
    CONREP,
    AggregateMetrics,
    PlacementContext,
    PlacementPolicy,
    evaluate_user,
    read_closure,
)
from repro.onlinetime import OnlineTimeModel, compute_schedules
from repro.parallel.worker import SweepPayload, UserCell
from repro.seeding import derive_rng
from repro.timeline.packed import PackedSchedules


def naive_user_cell(
    dataset,
    schedules,
    user: int,
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    degrees: Sequence[int],
    seed: int = 0,
    packed: Optional[PackedSchedules] = None,
) -> UserCell:
    """One user's per-degree metrics, every degree rebuilt from scratch."""
    max_degree = max(degrees) if degrees else 0
    cell: UserCell = {}
    for policy in policies:
        ctx = PlacementContext(
            dataset=dataset,
            schedules=schedules,
            user=user,
            mode=mode,
            rng=derive_rng(seed, policy.name, user),
            packed=packed,
        )
        sequence = policy.select(ctx, max_degree)
        cell[policy.name] = tuple(
            evaluate_user(
                dataset,
                schedules,
                user,
                sequence[:k],
                allowed_degree=k,
                mode=mode,
                packed=packed,
            )
            for k in degrees
        )
    return cell


def naive_users_chunk(
    payload: SweepPayload, users: Sequence[int]
) -> List[UserCell]:
    """Oracle for :func:`repro.parallel.worker.evaluate_users_chunk`."""
    return [
        naive_user_cell(
            payload.dataset,
            payload.schedules,
            user,
            payload.policies,
            mode=payload.mode,
            degrees=payload.degrees,
            seed=payload.seed,
            packed=payload.packed,
        )
        for user in users
    ]


def naive_sweep(
    dataset,
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    degrees: Sequence[int],
    users: Sequence[int],
    seed: int = 0,
    repeats: int = 1,
) -> Dict[str, List[AggregateMetrics]]:
    """Oracle for :func:`repro.core.evaluation.sweep_replication_degree`.

    Same protocol — repeat ``r`` runs with seed ``seed + r`` over the
    cohort's read closure, per-degree cohort aggregates are averaged
    across repeats — with the per-degree rebuild instead of the
    one-pass evaluator.
    """
    degrees = list(degrees)
    closure = read_closure(dataset, users)
    runs: Dict[str, List[List[AggregateMetrics]]] = {
        p.name: [[] for _ in degrees] for p in policies
    }
    for r in range(repeats):
        schedules = compute_schedules(
            dataset, model, seed=seed + r, users=closure
        )
        cells = [
            naive_user_cell(
                dataset,
                schedules,
                user,
                policies,
                mode=mode,
                degrees=degrees,
                seed=seed + r,
            )
            for user in users
        ]
        for policy in policies:
            for i in range(len(degrees)):
                runs[policy.name][i].append(
                    AggregateMetrics.from_users(
                        [cell[policy.name][i] for cell in cells]
                    )
                )
    return {
        p.name: [AggregateMetrics.mean(cell) for cell in runs[p.name]]
        for p in policies
    }
