"""The one JSON writer: `serialize.dumps` is `json.dumps` with numpy
values and sets made plain, so every value reads back equal and every
float reads back as a float; and statistics.csv, which writes floats the
same way."""

import json
import math

import numpy as np
import pytest

from monotone_ergo import serialize


def round_trip(obj):
    return json.loads(serialize.dumps(obj))


@pytest.mark.parametrize("x", [15.0, 0.0, -0.0, -3.0, 1e16])
def test_integral_float_reads_back_as_float(x):
    back = round_trip({"x": x})["x"]
    assert type(back) is float and back == x
    assert math.copysign(1.0, back) == math.copysign(1.0, x)


def test_float_text_is_the_shortest_round_trip():
    assert serialize.dumps([0.1, 1 / 3, 15.0, 5e-324]) \
        == "[0.1, 0.3333333333333333, 15.0, 5e-324]"


def test_non_finite_floats_round_trip():
    text = serialize.dumps([math.nan, math.inf, -math.inf, np.float64("nan")])
    assert text == "[NaN, Infinity, -Infinity, NaN]"
    back = json.loads(text)
    assert math.isnan(back[0]) and math.isnan(back[3])
    assert back[1:3] == [math.inf, -math.inf]


def test_numpy_values_and_sets_read_back_plain():
    back = round_trip({"vector": np.arange(3), "matrix": np.eye(2),
                       "float": np.float64(2.5), "single": np.float32(0.5),
                       "int": np.int64(7), "flag": np.bool_(True),
                       "frozen": frozenset({3, 1, 2}), "set": {2.0, 1.0}})
    assert back == {"vector": [0, 1, 2], "matrix": [[1.0, 0.0], [0.0, 1.0]],
                    "float": 2.5, "single": 0.5, "int": 7, "flag": True,
                    "frozen": [1, 2, 3], "set": [1.0, 2.0]}
    assert [type(back[key]) for key in ("int", "flag", "single")] \
        == [int, bool, float]
    assert {type(x) for row in back["matrix"] for x in row} == {float}
    assert {type(x) for x in back["vector"]} == {int}


def test_other_objects_are_refused():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        serialize.dumps({"x": object()})


def test_statistics_csv_writes_floats_as_their_shortest_text():
    text = serialize.statistics_csv([
        {"t": np.float64(0.5), "stat": "energy", "value": 15.0},
        {"t": 1.0, "stat": "energy", "value": 0.1, "ci_low": -math.inf,
         "ci_high": 1 / 3}])
    assert text.splitlines() == [
        "t,stat,value,ci_low,ci_high", "0.5,energy,15.0,nan,nan",
        "1.0,energy,0.1,-inf,0.3333333333333333"]
