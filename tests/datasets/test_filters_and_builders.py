"""Tests for the filtering pipeline, dataset builders, loaders and stats."""

import io

import pytest

from repro.datasets import (
    Activity,
    ActivityTrace,
    Dataset,
    dataset_stats,
    degree_distribution,
    filter_dataset,
    load_facebook_dataset,
    load_facebook_wall_trace,
    load_tweet_trace,
    load_twitter_dataset,
    synthetic_facebook,
    synthetic_twitter,
)
from repro.datasets.stats import activity_count_distribution
from repro.graph import FollowerGraph, SocialGraph


def _act(t, creator, receiver):
    return Activity(timestamp=t, creator=creator, receiver=receiver)


class TestFilterDataset:
    def test_removes_low_activity_users(self):
        g = SocialGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        trace = ActivityTrace(
            [_act(i, 1, 2) for i in range(10)] + [_act(i, 2, 1) for i in range(10, 20)]
        )
        ds = Dataset("t", "facebook", g, trace)
        filtered = filter_dataset(ds, min_activities=10)
        assert 3 not in filtered.graph  # created nothing
        assert 1 in filtered.graph
        assert 2 in filtered.graph

    def test_cascades_to_fixpoint(self):
        # 3's only activities target 4; 4 is under threshold, so dropping 4
        # drops 3's activities below threshold too.
        g = SocialGraph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        acts = (
            [_act(i, 1, 2) for i in range(10)]
            + [_act(i, 2, 1) for i in range(10, 20)]
            + [_act(i, 3, 4) for i in range(20, 30)]
        )
        ds = Dataset("t", "facebook", g, ActivityTrace(acts))
        filtered = filter_dataset(ds, min_activities=10)
        assert set(filtered.graph.users()) == {1, 2}
        assert all(a.creator in {1, 2} for a in filtered.trace)

    def test_require_candidates_drops_followerless_users(self):
        g = FollowerGraph()
        g.add_follow(1, 2)  # 2 has follower 1; 1 has none
        acts = [_act(i, 1, 2) for i in range(10)] + [
            _act(i, 2, 1) for i in range(10, 20)
        ]
        ds = Dataset("t", "twitter", g, ActivityTrace(acts))
        filtered = filter_dataset(ds, min_activities=10, require_candidates=True)
        # 1 has no followers -> dropped; then 2's trace empties -> dropped.
        assert filtered.graph.num_users == 0

    def test_zero_threshold_keeps_everyone_with_candidates(self):
        g = SocialGraph()
        g.add_edge(1, 2)
        ds = Dataset("t", "facebook", g, ActivityTrace([]))
        filtered = filter_dataset(ds, min_activities=0)
        assert filtered.graph.num_users == 2

    def test_invalid_threshold(self):
        g = SocialGraph()
        ds = Dataset("t", "facebook", g, ActivityTrace([]))
        with pytest.raises(ValueError):
            filter_dataset(ds, min_activities=-1)


class TestSyntheticBuilders:
    def test_facebook_filtered_users_have_min_activity(self):
        ds = synthetic_facebook(400, seed=3)
        assert ds.kind == "facebook"
        for user in ds.graph.users():
            assert ds.trace.activity_count(user) >= 10

    def test_twitter_filtered_users_have_followers(self):
        ds = synthetic_twitter(400, seed=3)
        assert ds.kind == "twitter"
        for user in ds.graph.users():
            assert ds.trace.activity_count(user) >= 10
            assert ds.graph.followers(user)

    def test_deterministic(self):
        a = synthetic_facebook(200, seed=5)
        b = synthetic_facebook(200, seed=5)
        assert a.trace.activities == b.trace.activities
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())

    def test_different_seeds_differ(self):
        a = synthetic_facebook(200, seed=5)
        b = synthetic_facebook(200, seed=6)
        assert a.trace.activities != b.trace.activities


class TestLoaders:
    def test_load_facebook_dataset(self):
        links = io.StringIO("1 2\n2 3\n")
        wall_lines = [f"2 1 {i}" for i in range(10)] + [
            f"1 2 {i}" for i in range(10, 20)
        ]
        wall = io.StringIO("\n".join(wall_lines))
        ds = load_facebook_dataset(links, wall)
        assert ds.kind == "facebook"
        assert set(ds.graph.users()) == {1, 2}
        # receiver/creator orientation: '2 1 t' = poster 1 on wall of 2.
        assert ds.trace.interaction_counts(2) == {1: 10}

    def test_load_twitter_dataset(self):
        follows = io.StringIO("1 2\n2 1\n")  # mutual follow
        tweet_lines = [f"1 2 {i}" for i in range(10)] + [
            f"2 1 {i}" for i in range(10, 20)
        ]
        tweets = io.StringIO("\n".join(tweet_lines))
        ds = load_twitter_dataset(follows, tweets)
        assert set(ds.graph.users()) == {1, 2}
        assert ds.trace.interaction_counts(2) == {1: 10}

    def test_tweet_trace_rejects_bad_line(self):
        with pytest.raises(ValueError):
            load_tweet_trace(io.StringIO("1 2\n"))

    @pytest.mark.parametrize("loader", [load_facebook_wall_trace, load_tweet_trace])
    @pytest.mark.parametrize("field", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_rejects_non_finite_timestamp(self, loader, field):
        text = io.StringIO(f"# header\n1 2 5\n1 2 {field}\n")
        with pytest.raises(ValueError, match=f"line 3: non-finite timestamp '{field}'"):
            loader(text)


class TestStats:
    def test_dataset_stats_numbers(self):
        g = SocialGraph()
        g.add_edge(1, 2)
        trace = ActivityTrace([_act(0, 1, 2), _act(86400, 2, 1)])
        ds = Dataset("t", "facebook", g, trace)
        stats = dataset_stats(ds)
        assert stats.num_users == 2
        assert stats.num_edges == 1
        assert stats.average_degree == 1.0
        assert stats.num_activities == 2
        assert stats.average_activities_per_user == 1.0
        assert stats.trace_span_days == 1.0
        assert len(stats.as_row()) == 8

    def test_degree_distribution_sorted(self):
        ds = synthetic_facebook(300, seed=1)
        dist = degree_distribution(ds)
        degrees = [d for d, _ in dist]
        assert degrees == sorted(degrees)
        assert sum(n for _, n in dist) == ds.num_users

    def test_activity_count_distribution(self):
        ds = synthetic_facebook(300, seed=1)
        dist = activity_count_distribution(ds)
        assert sum(n for _, n in dist) == ds.num_users
        assert min(c for c, _ in dist) >= 10
