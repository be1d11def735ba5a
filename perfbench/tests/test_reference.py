import math

import reference
from reference import REL_TOL, compare, decode, jsonable


def test_equal_values_match():
    value = {"a": [1, 2.5, "x", True, None], "b": {"c": math.inf}}
    assert compare(value, value) == []


def test_float_tolerance_is_relative():
    assert compare(1.0 + 0.5 * REL_TOL, 1.0) == []
    assert compare(1e-300 * (1 + 0.5 * REL_TOL), 1e-300) == []
    assert compare(1.0 + 3 * REL_TOL, 1.0) != []
    # No absolute slack: tiny values still need relative agreement.
    assert compare(1e-300, 2e-300) != []
    assert compare(0.0, 0.0) == []
    assert compare(1e-30, 0.0) != []


def test_ulp_level_change_passes():
    # e.g. normalising before squaring moves the last digits only.
    x = 0.1 + 0.2
    assert x != 0.3 and compare(x, 0.3) == []


def test_infinities_and_nans_match_exactly():
    assert compare(math.inf, math.inf) == []
    assert compare(-math.inf, -math.inf) == []
    assert compare(math.inf, -math.inf) != []
    assert compare(math.inf, 1e308) != []
    assert compare(1e308, math.inf) != []
    assert compare(math.nan, math.nan) == []
    assert compare(math.nan, 0.0) != []
    assert compare(0.0, math.nan) != []
    assert compare(math.nan, math.inf) != []


def test_encoded_non_finite_floats_decode_before_comparing():
    assert compare("inf", math.inf) == []
    assert compare({"d": ["nan", "-inf"]}, {"d": [math.nan, -math.inf]}) == []
    assert decode(jsonable({"x": (math.inf, 1.5)})) == {"x": [math.inf, 1.5]}


def test_integers_and_types_compare_exactly():
    assert compare(3, 3) == []
    assert compare(3, 4) != []
    assert compare(True, 1) != []
    assert compare("a", "b") != []
    # An int where a float is expected is compared as a number.
    assert compare(2, 2.0) == []


def test_structure_differences_are_reported_with_their_path():
    problems = compare({"a": [1.0, 2.0]}, {"a": [1.0, 2.5]}, path="data")
    assert problems == ["data.a[1]: 2.0 != 2.5"]
    assert compare({"a": 1}, {"b": 1}) != []
    assert compare([1.0], [1.0, 2.0]) != []


def test_store_and_load_round_trip(tmp_path):
    value = {"x": [math.inf, -math.inf, math.nan, 0.1]}
    reference.store(tmp_path / "ref.json", value)
    assert compare(reference.load(tmp_path / "ref.json"), value) == []
