"""Unit tests for Activity / ActivityTrace / Dataset."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.datasets import Activity, ActivityTrace, Dataset
from repro.graph import FollowerGraph, SocialGraph
from repro.timeline import DAY_SECONDS


def _act(t, creator, receiver):
    return Activity(timestamp=t, creator=creator, receiver=receiver)


class TestActivity:
    def test_second_of_day(self):
        assert _act(DAY_SECONDS + 42, 1, 2).second_of_day == 42

    def test_ordering_by_timestamp(self):
        acts = [_act(50, 1, 2), _act(10, 3, 4)]
        assert sorted(acts)[0].timestamp == 10

    def test_frozen(self):
        act = _act(1, 2, 3)
        with pytest.raises(AttributeError):
            act.timestamp = 5


class TestActivityTrace:
    def test_empty(self):
        trace = ActivityTrace([])
        assert len(trace) == 0
        assert not trace
        assert trace.begin == 0.0
        assert trace.end == 0.0
        assert trace.span_seconds == 0.0
        assert trace.created_by(1) == []
        assert trace.activity_count(1) == 0

    def test_sorted_on_construction(self):
        trace = ActivityTrace([_act(50, 1, 2), _act(10, 2, 1)])
        assert [a.timestamp for a in trace] == [10, 50]
        assert trace.begin == 10
        assert trace.end == 50
        assert trace.span_seconds == 40

    def test_created_and_received_indexes(self):
        trace = ActivityTrace([_act(1, 1, 2), _act(2, 1, 3), _act(3, 2, 1)])
        assert [a.timestamp for a in trace.created_by(1)] == [1, 2]
        assert [a.timestamp for a in trace.received_by(1)] == [3]
        assert trace.activity_count(1) == 2
        assert trace.activity_count(3) == 0

    def test_interaction_counts(self):
        trace = ActivityTrace(
            [_act(1, 2, 1), _act(2, 2, 1), _act(3, 3, 1), _act(4, 1, 2)]
        )
        assert trace.interaction_counts(1) == {2: 2, 3: 1}
        assert trace.interaction_counts(2) == {1: 1}
        assert trace.interaction_counts(9) == {}

    def test_interaction_counts_ignore_self_posts(self):
        trace = ActivityTrace([_act(1, 1, 1), _act(2, 2, 1)])
        assert trace.interaction_counts(1) == {2: 1}

    def test_window(self):
        trace = ActivityTrace([_act(t, 1, 2) for t in (0, 10, 20, 30)])
        windowed = trace.window(10, 30)
        assert [a.timestamp for a in windowed] == [10, 20]

    def test_restricted_to(self):
        trace = ActivityTrace([_act(1, 1, 2), _act(2, 1, 3), _act(3, 3, 2)])
        restricted = trace.restricted_to({1, 2})
        assert len(restricted) == 1
        assert restricted.activities[0].creator == 1


# Tiny domains force timestamp ties, creator ties and duplicate triples;
# -0.0 == 0.0 is a tie both orders must keep in input order.
_timestamps = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 86400.0, 1e12, -3.25])
_ids = st.integers(min_value=0, max_value=3)
_activity_lists = st.lists(
    st.builds(Activity, timestamp=_timestamps, creator=_ids, receiver=_ids),
    max_size=40,
)


def _same_objects(actual, expected):
    return len(actual) == len(expected) and all(
        a is b for a, b in zip(actual, expected)
    )


class TestTraceOrder:
    """The trace is ``tuple(sorted(...))``: same objects, same order."""

    @given(_activity_lists)
    @example([])
    @example([_act(1.0, 2, 3)])
    @example([_act(5.0, 1, 2), _act(5.0, 1, 2), _act(5.0, 1, 1)])
    def test_matches_sorted(self, acts):
        assert _same_objects(ActivityTrace(acts).activities, tuple(sorted(acts)))

    @given(_activity_lists)
    def test_accepts_a_generator(self, acts):
        trace = ActivityTrace(act for act in acts)
        assert _same_objects(trace.activities, tuple(sorted(acts)))

    @given(_activity_lists, _timestamps, _timestamps)
    def test_window_matches_sorted(self, acts, begin, end):
        windowed = ActivityTrace(acts).window(begin, end)
        expected = sorted(a for a in acts if begin <= a.timestamp < end)
        assert _same_objects(windowed.activities, expected)

    @given(_activity_lists, st.sets(_ids))
    def test_restricted_to_matches_sorted(self, acts, keep):
        restricted = ActivityTrace(acts).restricted_to(keep)
        expected = sorted(
            a for a in acts if a.creator in keep and a.receiver in keep
        )
        assert _same_objects(restricted.activities, expected)
        assert [a.timestamp for a in restricted.received_by(1)] == [
            a.timestamp for a in expected if a.receiver == 1
        ]


class TestDataset:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Dataset("x", "myspace", SocialGraph(), ActivityTrace([]))

    def test_graph_direction_must_match_kind(self):
        with pytest.raises(ValueError):
            Dataset("x", "facebook", FollowerGraph(), ActivityTrace([]))
        with pytest.raises(ValueError):
            Dataset("x", "twitter", SocialGraph(), ActivityTrace([]))

    def test_facebook_candidates_are_friends(self):
        g = SocialGraph()
        g.add_edge(1, 2)
        ds = Dataset("x", "facebook", g, ActivityTrace([]))
        assert ds.replica_candidates(1) == frozenset({2})
        assert ds.degree(1) == 1
        assert ds.num_users == 2

    def test_twitter_candidates_are_followers(self):
        g = FollowerGraph()
        g.add_follow(1, 2)
        ds = Dataset("x", "twitter", g, ActivityTrace([]))
        assert ds.replica_candidates(2) == frozenset({1})
        assert ds.replica_candidates(1) == frozenset()
