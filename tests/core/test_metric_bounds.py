"""The §II-C metrics stay in range at float edges.

Interval endpoints are drawn from the edges of the float line as well as
the plain day: subnormals, values an ulp below ``DAY_SECONDS``, huge
values (folded onto the day by the wrapping constructor) and zero-length
sessions, for single-user cohorts and small friend sets.  The scalar
``evaluate_user`` (with and without the packed kernels) and the
incremental evaluator must agree bit for bit, keep every ratio a
fraction, and keep both propagation delays non-negative (or infinite)
with the observed delay never above the actual one, in both regimes.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CONREP, UNCONREP, evaluate_user
from repro.core.incremental import IncrementalGroupEvaluator
from repro.core.metrics import demand_fraction
from repro.datasets import Activity, ActivityTrace, Dataset
from repro.graph import SocialGraph
from repro.timeline import DAY_SECONDS, IntervalSet, PackedSchedules

RATIOS = (
    "availability",
    "max_achievable_availability",
    "aod_time",
    "aod_activity",
    "expected_activity_fraction",
    "aod_activity_expected",
    "aod_activity_unexpected",
)

_ENDPOINT = st.one_of(
    st.floats(0.0, DAY_SECONDS),
    st.floats(0.0, 1e-300),  # subnormals and the smallest normals
    st.floats(DAY_SECONDS - 1e-6, DAY_SECONDS),
    st.floats(1e12, 1e300),
    st.sampled_from(
        [0.0, 5e-324, 1e-323, math.nextafter(DAY_SECONDS, 0), DAY_SECONDS]
    ),
)


@st.composite
def _tiled(draw):
    """A window ``[a, c)`` and pieces tiling it with one-ulp gaps.

    Each piece's length rounds on its own, so the pieces can sum to an
    ulp more than the window they cover.
    """
    a = draw(st.floats(0.0, DAY_SECONDS / 2))
    c = draw(st.floats(a, DAY_SECONDS).filter(lambda c: c > a))
    cuts = sorted(draw(st.lists(st.floats(a, c), min_size=1, max_size=5)))
    points = [a] + cuts + [c]
    pieces = []
    for i in range(len(points) - 1):
        start = points[i] if i == 0 else math.nextafter(points[i], math.inf)
        if start < points[i + 1]:
            pieces.append((start, points[i + 1]))
    return IntervalSet([(a, c)]), IntervalSet(pieces)


#: Three pieces tiling a window with one-ulp gaps whose lengths sum to
#: an ulp more than the window's: found by a random search, and the
#: aod_time that read 1.0000000000000002 before the clamp.
_ULP_WINDOW = IntervalSet([(949.6155929949645, 47788.63609466584)])
_ULP_PIECES = IntervalSet(
    [
        (949.6155929949645, 2609.857169408323),
        (2609.8571694083234, 3439.966249232371),
        (3439.9662492323714, 47788.63609466584),
    ]
)


_SCHEDULE = st.one_of(
    st.lists(st.tuples(_ENDPOINT, _ENDPOINT), max_size=5).map(IntervalSet),
    # Zero-length sessions normalise away to the never-online schedule.
    _ENDPOINT.map(lambda x: IntervalSet([(x, x)])),
)


def _dataset(num_friends, instants):
    graph = SocialGraph()
    graph.add_user(0)
    for friend in range(1, num_friends + 1):
        graph.add_edge(0, friend)
    acts = [
        Activity(timestamp=t, creator=1 + i % num_friends, receiver=0)
        for i, t in enumerate(instants if num_friends else ())
    ]
    return Dataset("edges", "facebook", graph, ActivityTrace(acts))


def _all_paths(dataset, schedules, replicas, mode=CONREP):
    packed = PackedSchedules.from_schedules(schedules)
    scalar = evaluate_user(dataset, schedules, 0, replicas, mode=mode)
    vector = evaluate_user(
        dataset, schedules, 0, replicas, mode=mode, packed=packed
    )
    incremental = IncrementalGroupEvaluator(
        dataset, schedules, 0, mode=mode
    ).evaluate(replicas, len(replicas))
    assert scalar == vector == incremental
    return scalar


def _assert_fractions(metrics):
    for name in RATIOS:
        value = getattr(metrics, name)
        assert 0.0 <= value <= 1.0, (name, value)


class TestRatioBounds:
    @settings(max_examples=150, deadline=None)
    @given(
        num_friends=st.integers(0, 4),
        data=st.data(),
        instants=st.lists(_ENDPOINT, max_size=6),
    )
    def test_ratios_are_fractions(self, num_friends, data, instants):
        schedules = {
            u: data.draw(_SCHEDULE) for u in range(num_friends + 1)
        }
        replicas = list(range(1, num_friends + 1))[
            : data.draw(st.integers(0, num_friends))
        ]
        metrics = _all_paths(
            _dataset(num_friends, instants), schedules, replicas
        )
        _assert_fractions(metrics)

    @settings(max_examples=150, deadline=None)
    @given(tiled=_tiled(), owner=_SCHEDULE)
    @example(tiled=(_ULP_WINDOW, _ULP_PIECES), owner=IntervalSet.empty())
    def test_tiled_demand_window(self, tiled, owner):
        # The friend's session is the demand window; the replica's
        # pieces cover it with one-ulp gaps.
        window, pieces = tiled
        schedules = {0: owner, 1: window, 2: pieces}
        graph = SocialGraph()
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        dataset = Dataset("tiled", "facebook", graph, ActivityTrace([]))
        metrics = _all_paths(dataset, schedules, [2])
        _assert_fractions(metrics)

    def test_pinned_ulp_tiling(self):
        # The pieces really do sum past the window they cover.
        assert _ULP_PIECES.overlap(_ULP_WINDOW) > _ULP_WINDOW.measure
        assert (
            demand_fraction(
                _ULP_PIECES.overlap(_ULP_WINDOW), _ULP_WINDOW.measure
            )
            == 1.0
        )

    def test_single_user_cohort(self):
        # A user with no friends: no demand window, no received
        # activity — every demand ratio is vacuously served.
        dataset = _dataset(0, [])
        for owner in (
            IntervalSet.empty(),
            IntervalSet.full_day(),
            IntervalSet([(5e-324, 1e-323)]),
        ):
            metrics = _all_paths(dataset, {0: owner}, [])
            _assert_fractions(metrics)
            assert metrics.aod_time == metrics.aod_activity == 1.0

    def test_clamp_keeps_in_range_values(self):
        assert demand_fraction(1.0, 3.0) == 1.0 / 3.0
        assert demand_fraction(5e-324, 5e-324) == 1.0
        assert demand_fraction(0.0, 0.0) == 1.0


@st.composite
def _day_tiling(draw):
    """Pieces tiling the whole day with one-ulp gaps: the largest
    measures one schedule can have."""
    cuts = sorted(
        draw(st.lists(st.floats(0.0, DAY_SECONDS), min_size=1, max_size=8))
    )
    points = [0.0] + cuts + [DAY_SECONDS]
    pieces = []
    for i in range(len(points) - 1):
        start = points[i] if i == 0 else math.nextafter(points[i], math.inf)
        if start < points[i + 1]:
            pieces.append((start, points[i + 1]))
    return IntervalSet(pieces, wrap=False)


_DELAY_SCHEDULE = st.one_of(
    _SCHEDULE,
    _day_tiling(),
    # Sessions of two thirds of a day or more (wrapping midnight when
    # they start late): an UnconRep receiver then sits online through
    # the whole actual window, so its observed wait equals the actual.
    st.tuples(
        st.floats(0.0, DAY_SECONDS),
        st.floats(2 * DAY_SECONDS / 3, DAY_SECONDS),
    ).map(lambda s: IntervalSet([(s[0], s[0] + s[1])])),
)


def _assert_delays(metrics):
    actual = metrics.delay_hours_actual
    observed = metrics.delay_hours_observed
    for value in (actual, observed):
        assert value >= 0.0, value  # false for nan, true for inf
    assert observed <= actual, (observed, actual)


class TestDelayBounds:
    @settings(max_examples=150, deadline=None)
    @given(
        num_friends=st.integers(0, 4),
        mode=st.sampled_from([CONREP, UNCONREP]),
        data=st.data(),
    )
    def test_delays_are_ordered_and_non_negative(
        self, num_friends, mode, data
    ):
        schedules = {
            u: data.draw(_DELAY_SCHEDULE) for u in range(num_friends + 1)
        }
        replicas = list(range(1, num_friends + 1))[
            : data.draw(st.integers(0, num_friends))
        ]
        metrics = _all_paths(
            _dataset(num_friends, []), schedules, replicas, mode
        )
        _assert_delays(metrics)

    @settings(max_examples=150, deadline=None)
    @given(tiling=_day_tiling())
    def test_day_tiling_measure_stays_within_the_day(self, tiling):
        # Observed <= actual leans on every receiver's measure being at
        # most a day: an edge weight DAY - overlap is then >= 0, and
        # k full days contribute k * measure <= k * DAY.
        assert 0.0 <= tiling.measure <= DAY_SECONDS

    def test_receivers_online_through_the_window(self):
        # UnconRep, two members online 20h a day: each wait is 4h, the
        # actual delay 8h, and both receivers are online for all of it.
        session = IntervalSet([(0.0, 20 * 3600.0)])
        dataset = _dataset(1, [])
        metrics = _all_paths(
            dataset, {0: session, 1: session}, [1], UNCONREP
        )
        assert metrics.delay_hours_actual == 8.0
        assert metrics.delay_hours_observed == 8.0
        _assert_delays(metrics)

    def test_never_online_member_is_infinite_in_both(self):
        dataset = _dataset(1, [])
        schedules = {0: IntervalSet.full_day(), 1: IntervalSet.empty()}
        for mode in (CONREP, UNCONREP):
            metrics = _all_paths(dataset, schedules, [1], mode)
            assert math.isinf(metrics.delay_hours_actual)
            assert math.isinf(metrics.delay_hours_observed)
            _assert_delays(metrics)
