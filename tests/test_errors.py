"""The one reader of JSON input: ``errors.read`` and ``errors.load_object``."""

import json
import math

import pytest

from expander_cs.errors import load_object, read


@pytest.mark.parametrize("value,kind", [
    (3, int), (3, float), (2.5, float), (-(10**300), float), (True, bool), ("x", str),
    (2**1024 - 2**970 - 1, float), (-(2**1024 - 2**970 - 1), float),   # the largest double
    ({}, dict), ([], list), (math.nan, float), (None, float | None), (1.5, float | None),
    ("a", str | dict), ([1, 2.5], list[float]), ([[0], []], list[list[int]]),
])
def test_read_accepts_and_returns_the_decoded_value(value, kind):
    if type(value) is int and kind is float:
        float(value)                                    # fits a double
    assert read({"k": value}, "k", kind) is value       # never converted


@pytest.mark.parametrize("value,kind", [
    (True, int), (False, float), (1, bool), (0, bool), ("false", bool), (1.0, int),
    (10**400, float), (-(10**400), float), ("1", float), (None, float), (5, str),
    (2**1024 - 2**970, float), (-(2**1024 - 2**970), float),   # float() overflows
    ([True], list[float]), ([10**400], list[float]), ([[1.5]], list[list[int]]),
    ((1, 2), list), ([1], float | None), (1, str | dict),
])
def test_read_refuses_another_type_naming_the_key(value, kind):
    if type(value) is int and kind is float:
        with pytest.raises(OverflowError):
            float(value)
    with pytest.raises(ValueError, match="^'k' must be of type "):
        read({"k": value}, "k", kind)


def test_read_defaults_and_missing_fields():
    assert read({}, "k", int, None) is None
    assert read({"k": 2}, "k", int, None) == 2
    with pytest.raises(ValueError, match="^missing field 'k'$"):
        read({"j": 1}, "k", int)


def test_load_object(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"a": [1, 2.5, None]}))
    assert load_object(path) == {"a": [1, 2.5, None]}
    path.write_text("[1]")
    with pytest.raises(ValueError, match="top level must be a JSON object$"):
        load_object(path)
    path.write_text("{")
    with pytest.raises(ValueError):
        load_object(path)
