"""Closure-scoped schedules: a sweep builds only the schedules it reads.

A sweep asks :func:`compute_schedules` for its cohort's read closure (the
cohort, their replica candidates, and the creators of the activities
they received).  These tests pin that this is *every* schedule the
evaluation reads: a closure-scoped sweep equals the same sweep over
every user's schedules, field for field, on both backends.  The
hand-built dataset has a wall poster who is not a friend of the wall
owner — a schedule missing from the closure would read as never online
(``schedules.get(creator, empty)``, or a packed row of -1) and change
the expected/unexpected split without raising.
"""

import pytest

from repro.core import (
    CONREP,
    UNCONREP,
    evaluate_user,
    make_policy,
    read_closure,
    sweep_replication_degree,
)
from repro.datasets import Activity, ActivityTrace, Dataset, synthetic_facebook
from repro.graph import SocialGraph
from repro.onlinetime import SporadicModel, compute_schedules, packed_schedules
from repro.timeline import HOUR_SECONDS

#: Cohort users 1 and 2; 1's friends are 3, 4, 5.  User 9 posts on 1's
#: wall without being 1's friend; users 10 and 11 are outside every
#: cohort user's closure.
_EDGES = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 6), (2, 7), (9, 10), (10, 11)]


def _act(hour, creator, receiver):
    return Activity(
        timestamp=hour * HOUR_SECONDS, creator=creator, receiver=receiver
    )


def _hand_built():
    graph = SocialGraph()
    for a, b in _EDGES:
        graph.add_edge(a, b)
    acts = [_act(h, 9, 1) for h in (2, 30, 55)]  # non-friend creator
    acts += [_act(h + 0.5, f, 1) for h, f in ((3, 3), (8, 4), (20, 5))]
    acts += [_act(h, f, 2) for h, f in ((1, 6), (12, 7), (13, 3))]
    acts += [_act(h, u, v) for h, u, v in ((4, 1, 3), (6, 2, 6), (9, 10, 11))]
    acts += [_act(h, 11, 10) for h in (5, 7)]
    return Dataset("hand", "facebook", graph, ActivityTrace(acts))


def _sweep(dataset, *, backend, mode=CONREP, users=(1, 2)):
    return sweep_replication_degree(
        dataset,
        SporadicModel(),
        [make_policy(name) for name in ("maxav", "mostactive", "random")],
        mode=mode,
        degrees=[0, 1, 2, 3],
        users=list(users),
        seed=3,
        repeats=2,
        backend=backend,
    )


def _every_user_sweep(dataset_factory, **kwargs):
    dataset = dataset_factory()
    for seed in (3, 4):  # the sweep's repeats
        compute_schedules(dataset, SporadicModel(), seed=seed)
    return _sweep(dataset, **kwargs)


class TestReadClosure:
    def test_hand_built_closure(self):
        closure = read_closure(_hand_built(), [1, 2])
        assert closure == {1, 2, 3, 4, 5, 6, 7, 9}

    def test_non_friend_creator_is_read(self):
        # Guards the dataset: user 9's schedule changes user 1's
        # expected/unexpected split, so a closure without 9 would show.
        dataset = _hand_built()
        schedules = compute_schedules(dataset, SporadicModel(), seed=3)
        without_9 = {u: s for u, s in schedules.items() if u != 9}
        assert 9 not in dataset.replica_candidates(1)
        full = evaluate_user(dataset, schedules, 1, [3])
        blind = evaluate_user(dataset, without_9, 1, [3])
        assert full.expected_activity_fraction > blind.expected_activity_fraction


class TestClosureScopedSweep:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("mode", [CONREP, UNCONREP])
    def test_hand_built_matches_every_user(self, backend, mode):
        dataset = _hand_built()
        scoped = _sweep(dataset, backend=backend, mode=mode)
        memo = compute_schedules(
            dataset, SporadicModel(), seed=3, users=()
        )
        assert set(memo) == {1, 2, 3, 4, 5, 6, 7, 9}  # 10, 11 never built
        every = _every_user_sweep(_hand_built, backend=backend, mode=mode)
        assert scoped == every

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_synthetic_matches_every_user(self, backend):
        def factory():
            return synthetic_facebook(300, seed=5)

        dataset = factory()
        users = sorted(dataset.graph.users_with_degree(4))[:6]
        scoped = _sweep(dataset, backend=backend, users=users)
        built = compute_schedules(dataset, SporadicModel(), seed=3, users=())
        assert len(built) < dataset.num_users
        every = _every_user_sweep(factory, backend=backend, users=users)
        assert scoped == every


class TestScopedMemo:
    def test_whole_dataset_call_after_closure_call(self):
        dataset = _hand_built()
        model = SporadicModel()
        scoped = compute_schedules(dataset, model, seed=3, users=[1, 9])
        assert set(scoped) == {1, 9}
        everyone = compute_schedules(dataset, model, seed=3)
        assert list(everyone) == list(dataset.graph.users())
        fresh = compute_schedules(_hand_built(), model, seed=3)
        assert everyone == fresh
        assert scoped[1] == fresh[1] and scoped[9] == fresh[9]
        # Covered requests return the memo as is.
        assert compute_schedules(dataset, model, seed=3, users=[2]) is everyone
        assert compute_schedules(dataset, model, seed=3) is everyone

    def test_growth_never_mutates_a_returned_mapping(self):
        dataset = _hand_built()
        first = compute_schedules(dataset, SporadicModel(), seed=0, users=[1])
        grown = compute_schedules(dataset, SporadicModel(), seed=0, users=[2])
        assert set(first) == {1}
        assert set(grown) == {1, 2}
        assert grown[1] is first[1]

    def test_users_outside_the_graph_are_not_built(self):
        dataset = _hand_built()
        schedules = compute_schedules(
            dataset, SporadicModel(), seed=0, users=[1, 404]
        )
        assert set(schedules) == {1}

    def test_packing_follows_memo_growth(self):
        dataset = _hand_built()
        model = SporadicModel()
        small = packed_schedules(dataset, model, seed=0, users=[1])
        assert packed_schedules(dataset, model, seed=0, users=[1]) is small
        assert len(small) == 1
        whole = packed_schedules(dataset, model, seed=0)
        assert len(whole) == dataset.num_users
        assert packed_schedules(dataset, model, seed=0, users=[2]) is whole
