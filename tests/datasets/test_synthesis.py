"""Tests for the synthetic trace generators (stream-per-user layout)."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DiurnalMixture, TraceParams
from repro.datasets.schema import Activity
from repro.datasets.synthesis import (
    STREAM_VERSION,
    _draw_activity_count,
    _timestamped,
    _zipf_partner_weights,
    synthesize_tweet_trace,
    synthesize_wall_trace,
    user_activities,
    user_receivers,
    user_stream,
)
from repro.graph import barabasi_albert, preferential_follower_graph
from repro.seeding import derive_seed
from repro.timeline import DAY_SECONDS
from repro.timeline.day import HOUR_SECONDS


class TestTraceParams:
    def test_defaults_valid(self):
        TraceParams()

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceParams(trace_days=0)
        with pytest.raises(ValueError):
            TraceParams(activities_mean=0)
        with pytest.raises(ValueError):
            TraceParams(partner_zipf_alpha=-1)


class TestDiurnalMixture:
    def test_peak_in_day(self):
        rng = random.Random(0)
        mix = DiurnalMixture()
        for _ in range(200):
            assert 0 <= mix.draw_peak(rng) < DAY_SECONDS

    def test_evening_bias(self):
        rng = random.Random(1)
        mix = DiurnalMixture()
        peaks = [mix.draw_peak(rng) for _ in range(2000)]
        evening = sum(1 for p in peaks if 17 * 3600 <= p <= 23.9 * 3600)
        morning = sum(1 for p in peaks if 5 * 3600 <= p <= 11 * 3600)
        assert evening > morning

    def test_weights_summing_to_almost_one_accepted(self):
        # Short-decimal weights whose binary sum drifts just below 1.0
        # (the historical fall-through bug) must be accepted and
        # renormalised, with the last component reachable at its true
        # share rather than only on float fall-through.
        components = (
            (0.333333, 9 * 3600.0, 3600.0),
            (0.333333, 15 * 3600.0, 3600.0),
            (0.333333, 21 * 3600.0, 3600.0),
        )
        assert sum(w for w, _, _ in components) < 1.0
        mix = DiurnalMixture(components=components)
        assert mix._cumulative[-1] == 1.0
        rng = random.Random(2)
        peaks = [mix.draw_peak(rng) for _ in range(3000)]
        late = sum(1 for p in peaks if 18 * 3600 <= p <= 24 * 3600)
        # The last component holds a third of the mass, not a sliver.
        assert late > 0.2 * len(peaks)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DiurnalMixture(components=())
        with pytest.raises(ValueError):
            DiurnalMixture(components=((0.5, 0.0, 1.0), (-0.5, 0.0, 1.0)))
        with pytest.raises(ValueError):
            DiurnalMixture(components=((0.5, 0.0, 1.0), (0.4, 0.0, 1.0)))
        with pytest.raises(ValueError):
            DiurnalMixture(components=((1.0, 0.0, -1.0),))


class TestActivityCount:
    def test_mean_approximately_configured(self):
        rng = random.Random(2)
        params = TraceParams(activities_mean=50.0)
        draws = [_draw_activity_count(params, rng) for _ in range(4000)]
        assert math.isclose(sum(draws) / len(draws), 50.0, rel_tol=0.1)

    def test_minimum_one(self):
        rng = random.Random(3)
        params = TraceParams(activities_mean=1.0, activities_sigma=1.5)
        assert all(_draw_activity_count(params, rng) >= 1 for _ in range(500))


class TestUserStreams:
    def test_stream_is_salted_and_user_specific(self):
        # The synthesis stream must differ from the online-time stream
        # (derive_rng(seed, user)) and between users.
        assert user_stream(0, 1).random() != random.Random(
            derive_seed(0, 1)
        ).random()
        assert user_stream(0, 1).random() != user_stream(0, 2).random()
        assert user_stream(0, 1).random() == user_stream(0, 1).random()

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            user_stream(random.Random(0), 1)
        with pytest.raises(TypeError):
            synthesize_wall_trace(
                barabasi_albert(10, 2, random.Random(0)),
                TraceParams(),
                random.Random(0),
            )

    def test_receivers_prefix_of_activities(self):
        params = TraceParams()
        partners = list(range(1, 9))
        receivers = user_receivers(partners, params, seed=5, user=0)
        acts = user_activities(partners, params, seed=5, user=0)
        assert [a.receiver for a in acts] == receivers

    def test_stream_version_pinned(self):
        assert STREAM_VERSION == 2


class TestStreamCompatibility:
    """Pins the v2 stream-per-user output as the canonical dataset.

    The original generator drove one ``random.Random`` sequentially
    across all users; v2 gives each user the independent stream
    ``derive_rng(seed, "synthesis", user)``.  These golden values freeze
    the v2 layout: any change to the draw order, the salt, or the
    derivation must bump ``STREAM_VERSION`` and update this pin.
    """

    def test_golden_activities(self):
        acts = user_activities(
            [1, 2, 3], TraceParams(trace_days=7), seed=0, user=0
        )
        golden = [
            (round(a.timestamp, 6), a.receiver) for a in acts[:3]
        ]
        assert len(acts) == 43
        assert golden == [
            (61605.238773, 3),
            (571882.404926, 3),
            (134468.902693, 1),
        ]

    def test_golden_wall_trace_digest(self):
        graph = barabasi_albert(30, 2, random.Random(7))
        trace = synthesize_wall_trace(graph, TraceParams(), 8)
        digest = sum(
            round(a.timestamp, 3) * 31 + a.creator * 7 + a.receiver
            for a in trace
        )
        assert len(trace) == 1177
        assert round(digest, 3) == 23078828200.199


def _stdlib_timestamped(user, receivers, peak, params, rng):
    """Reference timestamps: one stdlib ``randrange`` + ``gauss`` each."""
    return [
        Activity(
            timestamp=rng.randrange(params.trace_days) * DAY_SECONDS
            + rng.gauss(peak, params.diurnal_std_hours * HOUR_SECONDS)
            % DAY_SECONDS,
            creator=user,
            receiver=receiver,
        )
        for receiver in receivers
    ]


def _stdlib_user_activities(partners, params, seed, user):
    """Reference :func:`user_activities` drawn with stdlib calls only."""
    rng = user_stream(seed, user)
    peak = params.mixture.draw_peak(rng)
    ranked, weights = _zipf_partner_weights(
        partners, params.partner_zipf_alpha, rng
    )
    count = _draw_activity_count(params, rng)
    receivers = rng.choices(ranked, weights=weights, k=count)
    return _stdlib_timestamped(user, receivers, peak, params, rng)


#: 1 and the powers of two, where the ``getrandbits`` rejection loop
#: rejects half of its draws, and the Facebook trace's 90.
_TRACE_DAYS = st.one_of(
    st.sampled_from([1, 90]), st.integers(0, 10).map(lambda e: 2**e)
)

_PARAMS = st.builds(
    TraceParams,
    trace_days=_TRACE_DAYS,
    activities_mean=st.floats(1.0, 60.0),
    diurnal_std_hours=st.floats(0.0, 12.0),
)


class TestInlinedDraws:
    """The inlined timestamp loop equals the stdlib calls it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(
        partners=st.lists(
            st.integers(0, 10**6), min_size=1, max_size=40, unique=True
        ).map(sorted),
        params=_PARAMS,
        seed=st.integers(0, 2**32),
        user=st.integers(0, 10**7),
    )
    def test_user_activities_match_stdlib(self, partners, params, seed, user):
        # ``draw_peak`` leaves a ``gauss_next`` carry that the first
        # timestamp consumes; odd and even counts end on opposite
        # carries.
        assert user_activities(
            partners, params, seed, user
        ) == _stdlib_user_activities(partners, params, seed, user)

    @settings(max_examples=200, deadline=None)
    @given(
        params=_PARAMS,
        count=st.integers(0, 41),
        carry=st.one_of(st.none(), st.floats(-6.0, 6.0)),
        peak=st.floats(0.0, DAY_SECONDS, exclude_max=True),
        state=st.integers(0, 2**64),
    )
    def test_stream_state_matches_stdlib(
        self, params, count, carry, peak, state
    ):
        # Both carry-ins (``gauss_next`` empty or pending) and both
        # count parities: the values *and* the stream left behind,
        # ``gauss_next`` included, must equal the stdlib's.
        inlined, stdlib = random.Random(state), random.Random(state)
        inlined.gauss_next = stdlib.gauss_next = carry
        receivers = list(range(count))
        assert _timestamped(
            7, receivers, peak, params, inlined
        ) == _stdlib_timestamped(7, receivers, peak, params, stdlib)
        assert inlined.getstate() == stdlib.getstate()


class TestWallTrace:
    def test_receivers_are_friends(self):
        graph = barabasi_albert(60, 2, random.Random(4))
        trace = synthesize_wall_trace(graph, TraceParams(), 4)
        for act in trace:
            assert graph.has_edge(act.creator, act.receiver)

    def test_timestamps_within_trace_days(self):
        graph = barabasi_albert(40, 2, random.Random(5))
        params = TraceParams(trace_days=7)
        trace = synthesize_wall_trace(graph, params, 5)
        assert trace.end < 7 * DAY_SECONDS

    def test_partner_skew(self):
        graph = barabasi_albert(50, 5, random.Random(6))
        params = TraceParams(activities_mean=200, partner_zipf_alpha=1.5)
        trace = synthesize_wall_trace(graph, params, 6)
        # Pick a user with many received posts; his interaction counts
        # should be skewed (top partner well above the mean count).
        best_user = max(graph.users(), key=lambda u: len(trace.received_by(u)))
        counts = Counter(trace.interaction_counts(best_user))
        top = counts.most_common(1)[0][1]
        mean = sum(counts.values()) / len(counts)
        assert top > 1.5 * mean

    def test_deterministic_under_seed(self):
        graph = barabasi_albert(30, 2, random.Random(7))
        t1 = synthesize_wall_trace(graph, TraceParams(), 8)
        t2 = synthesize_wall_trace(graph, TraceParams(), 8)
        assert t1.activities == t2.activities

    def test_subset_matches_full_trace(self):
        # Stream-per-user: generating only a subset of users yields
        # exactly their slice of the full trace.
        graph = barabasi_albert(40, 2, random.Random(11))
        params = TraceParams()
        full = synthesize_wall_trace(graph, params, 12)
        subset = [5, 17, 23]
        partial = synthesize_wall_trace(graph, params, 12, users=subset)
        for u in subset:
            assert list(partial.created_by(u)) == list(full.created_by(u))


class TestTweetTrace:
    def test_receivers_are_followees(self):
        graph = preferential_follower_graph(60, 3, random.Random(9))
        trace = synthesize_tweet_trace(graph, TraceParams(), 9)
        for act in trace:
            assert graph.has_follow(act.creator, act.receiver)

    def test_received_activity_comes_from_followers(self):
        graph = preferential_follower_graph(60, 3, random.Random(10))
        trace = synthesize_tweet_trace(graph, TraceParams(), 10)
        for user in graph.users():
            for creator in trace.interaction_counts(user):
                assert creator in graph.followers(user)
