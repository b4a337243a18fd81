"""errors.checked is the one rule for numbers, at every entry point that takes one.

A bool or a non-number is a BadTypeError (both a BadConfigError and a
TypeError); a number outside its range, NaN included, is a BadConfigError.
ModelConfig, AttackSpec and train have their own rows in test_model and
test_attacks.
"""

import json
from numbers import Integral, Real

import numpy as np
import pytest

from helpers import blob_dataset
from qusecnets import nn
from qusecnets.errors import BadConfigError, BadTypeError, DataError, checked
from qusecnets.evaluate import EvalReport
from qusecnets.model import ModelConfig
from qusecnets.quantize import Quantizer, linear_thresholds

REPORT = {"clean_accuracy": 0.5, "adv_accuracy": None, "mean_confidence_correct": 0.9,
          "mean_confidence_incorrect": None, "l2_mean": None, "linf_max": None,
          "l0_mean": None, "per_class_accuracy": [1.0, None], "config": {"attack": None}}


def _report_with_clean_accuracy(value):
    if isinstance(value, np.generic):
        value = value.item()  # JSON holds no numpy scalars: a numpy bool is written as true
    return EvalReport.from_json(json.dumps(dict(REPORT, clean_accuracy=value)))


# entry point -> (call with the value, whether it takes an int)
ENTRY_POINTS = {
    "quantizer-levels": (lambda v: Quantizer(v, 5.0), True),
    "quantizer-steepness": (lambda v: Quantizer(2, v), False),
    "linear-thresholds": (linear_thresholds, True),
    "subset": (lambda v: blob_dataset(n_per_class=1).subset(v), True),
    "sgd-update-lr": (lambda v: nn.sgd_update(np.ones(3), np.ones(3), v), False),
    "finite-difference-h": (
        lambda v: nn.finite_difference_gradient(lambda x: float(x.sum()), np.ones(2), h=v),
        False),
    "report-metric": (_report_with_clean_accuracy, False),
}
BAD_VALUES = {
    "bool": True, "numpy-bool": np.bool_(True), "str": "1", "none": None,
    "nan": np.nan, "inf": np.inf, "negative": -1, "fraction": 2.5,
}


def _cases():
    for entry, (call, integral) in ENTRY_POINTS.items():
        for label, value in BAD_VALUES.items():
            if label == "fraction" and not integral:
                continue  # 2.5 is a fine real number
            wrong_type = isinstance(value, (bool, np.bool_, str, type(None))) or (
                integral and isinstance(value, float))
            yield pytest.param(call, value, BadTypeError if wrong_type else BadConfigError,
                               id=f"{entry}-{label}")


@pytest.mark.parametrize("call, value, error", list(_cases()))
def test_bad_numbers_end_as_data_errors(call, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert isinstance(info.value, DataError)
    if error is BadConfigError:  # a value of the right type, out of range
        assert not isinstance(info.value, BadTypeError)


def test_a_zero_dimensional_threshold_array_names_the_tensor():
    # not an IndexError from shape[-1]
    with pytest.raises(BadConfigError, match="quantizer.thresholds"):
        Quantizer(2, 5.0, np.array(0.5))


def test_bad_type_is_a_type_error_and_a_bad_config_error():
    with pytest.raises(TypeError, match="x must be an int"):
        checked("x", True, Integral)
    assert issubclass(BadTypeError, BadConfigError) and issubclass(BadTypeError, ValueError)


@pytest.mark.parametrize("value, kind, expected", [
    (np.int64(3), Integral, 3), (np.uint8(3), Real, 3), (np.float32(0.25), Real, 0.25),
    (3, Real, 3), (0.5, Real, 0.5),
], ids=["int64", "uint8-as-real", "float32", "int-as-real", "float"])
def test_numpy_scalars_come_back_as_python_numbers(value, kind, expected):
    out = checked("x", value, kind)
    assert out == expected and type(out) is type(expected)


def test_entry_points_take_numpy_numbers_and_keep_python_ones():
    assert type(ModelConfig(levels=np.int64(3)).levels) is int
    assert type(ModelConfig(steepness=np.float32(5.0)).steepness) is float
    q = Quantizer(np.int32(3), np.float64(5.0))
    assert (type(q.levels), type(q.steepness)) == (int, float)
    np.testing.assert_array_equal(linear_thresholds(np.int64(4)), linear_thresholds(4))
    assert len(blob_dataset(n_per_class=1).subset(np.int64(4))) == 4
