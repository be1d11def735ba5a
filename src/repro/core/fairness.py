"""Replica-hosting fairness (paper §II-B1).

"The replica selection should ensure fairness among the replicas by
balancing the storage and communication overhead involved in hosting a
replica uniformly."  The paper states the requirement but never measures
it; this module does: given a whole network's placements it computes each
node's hosting load (how many profiles it stores) and standard inequality
indices over the load distribution.

Expectation worth testing: Random spreads load uniformly; MostActive
concentrates it on popular interaction partners, and MaxAv on
high-coverage (long-online) nodes — the "hub overload" cost of the
smarter policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.graph.social_graph import UserId


def hosting_load(
    placements: Mapping[UserId, Sequence[UserId]],
    *,
    all_hosts: Sequence[UserId] = None,
) -> Dict[UserId, int]:
    """How many *other* users' profiles each node hosts.

    The owner's own copy is not counted — it is not imposed load.  Nodes
    in ``all_hosts`` that host nothing appear with load 0 (idle capacity
    belongs in a fairness picture).
    """
    load: Dict[UserId, int] = (
        {h: 0 for h in all_hosts} if all_hosts is not None else {}
    )
    for owner, replicas in placements.items():
        for replica in replicas:
            if replica != owner:
                load[replica] = load.get(replica, 0) + 1
    return load


def _scaled_by_peak(values: Sequence[float]) -> List[float]:
    """``values`` divided by their largest magnitude (empty if all zero).

    Both indices are scale-invariant, and on ``[-1, 1]`` neither the
    squares nor the running sums can underflow into subnormals or
    overflow to infinity, whatever the magnitude of the input.
    """
    peak = max((abs(v) for v in values), default=0)
    if peak == 0:
        return []
    return [v / peak for v in values]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``.

    1.0 = perfectly uniform; ``1/n`` = one node carries everything.
    Defined as 1.0 for empty or all-zero inputs (no load → nothing
    unfair).
    """
    scaled = _scaled_by_peak(values)
    if not scaled:
        return 1.0
    total = sum(scaled)
    squares = sum(v * v for v in scaled)
    return (total * total) / (len(scaled) * squares)


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative load distribution.

    0 = perfect equality, →1 = maximal concentration.  0 for empty or
    all-zero inputs.
    """
    ordered = sorted(_scaled_by_peak(values))
    total = sum(ordered)
    if total == 0:
        return 0.0
    n = len(ordered)
    weighted = 0.0
    for i, v in enumerate(ordered, start=1):
        weighted += i * v
    return (2 * weighted) / (n * total) - (n + 1) / n


@dataclass(frozen=True)
class FairnessReport:
    """Summary of one placement's hosting-load distribution."""

    num_hosts: int
    total_load: int
    mean_load: float
    max_load: int
    jain: float
    gini: float
    top_decile_share: float

    @staticmethod
    def from_load(load: Mapping[UserId, int]) -> "FairnessReport":
        values: List[int] = list(load.values())
        n = len(values)
        total = sum(values)
        ordered = sorted(values, reverse=True)
        top = ordered[: max(1, n // 10)] if n else []
        return FairnessReport(
            num_hosts=n,
            total_load=total,
            mean_load=total / n if n else 0.0,
            max_load=max(values) if values else 0,
            jain=jain_index(values),
            gini=gini_coefficient(values),
            top_decile_share=(sum(top) / total) if total else 0.0,
        )


def fairness_report(
    placements: Mapping[UserId, Sequence[UserId]],
    *,
    all_hosts: Sequence[UserId] = None,
) -> FairnessReport:
    """Hosting-load fairness of a whole-network placement."""
    return FairnessReport.from_load(
        hosting_load(placements, all_hosts=all_hosts)
    )
