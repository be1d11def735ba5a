import pytest

from stats import MIN_BEYOND, beyond, highest_percentile, percentile


def test_percentile_is_a_measured_sample_by_nearest_rank():
    samples = [float(v) for v in range(1, 1001)]
    assert percentile(samples, 50) == 500.0
    assert percentile(samples, 99) == 990.0
    assert percentile(list(reversed(samples)), 99) == 990.0


def test_percentile_needs_ten_samples_beyond_it():
    # p99 of n samples leaves n - ceil(0.99 n) beyond it.
    assert beyond(1000, 99) == MIN_BEYOND
    assert percentile([0.0] * 1000, 99) == 0.0
    assert beyond(999, 99) == MIN_BEYOND - 1
    with pytest.raises(ValueError, match="at least 10"):
        percentile([0.0] * 999, 99)
    with pytest.raises(ValueError):
        percentile([1.0] * 5, 50)


def test_twenty_thousand_requests_leave_two_hundred_beyond_p99():
    assert beyond(20_000, 99) == 200


def test_highest_percentile_picker():
    assert highest_percentile(20_000) == 99.9
    assert highest_percentile(1_000) == 99
    assert highest_percentile(999) == 95
    assert highest_percentile(20) == 50
    with pytest.raises(ValueError):
        highest_percentile(19)
    for n in (20, 200, 999, 1_000, 20_000, 100_000):
        assert beyond(n, highest_percentile(n)) >= MIN_BEYOND


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 0)
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 101)
