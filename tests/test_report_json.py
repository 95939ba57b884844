"""The JSON report is ``json.dumps(report.data, indent=2)``, byte for byte.

``emit_report`` writes JSON with its own indent-2 writer (``json`` takes
its pure-Python encoder whenever ``indent`` is set).  Here it is compared
with ``json.dumps`` on random documents, far beyond what a report holds:
nesting to depth 4 with empty containers, strings from the whole of
Unicode (quotes, backslashes, control characters, non-BMP characters and
lone surrogates), ints of any size and sign, every kind of float,
booleans, None, tuples and keys that are not ``str``.  A value ``json``
refuses raises the same ``TypeError``.  ``tests/test_digests.py`` checks
the same identity on every report of the benchmark's requests.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odecartan import J2_CHART, Expression
from odecartan.report import AnalysisReport, emit_report


def _written(value):
    return emit_report(AnalysisReport(value, {}, {}), "json")


def _dumped(value):
    return json.dumps(value, indent=2) + "\n"


_SPECIAL_TEXT = ('"', "\\", "\x00", "\n", "\x1f", "\x7f", "\ud800", "\udfff", "\U0001f600", "é", "")
_SPECIAL_FLOATS = (-0.0, 0.0, 1e300, -1e-300, float("nan"), float("inf"), float("-inf"))
_text = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(_SPECIAL_TEXT)
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_ints = st.integers() | st.integers(-(10**40), 10**40)
_scalars = st.none() | st.booleans() | _ints | _floats | _text
_keys = _text | _ints | _floats | st.booleans() | st.none()


def _documents(depth):
    if depth == 0:
        return _scalars
    inner = _documents(depth - 1)
    return (
        _scalars
        | st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_text, inner, max_size=4)
        | st.dictionaries(_keys, inner, max_size=4)
    )


@given(_documents(4))
@settings(max_examples=400, deadline=None)
def test_the_writer_is_json_dumps_with_indent_2(document):
    assert _written(document) == _dumped(document)


@pytest.mark.parametrize(
    "document",
    [
        [1, True, 0, False, None, 1.0, 0.0],
        {"one": 1, "true": True, "zero": 0, "false": False},
        {1: "int key", True: "overwritten: True == 1", None: [], 2.5: {}},
        {"nested": [[], {}, [[]], {"a": {}}, ("t", (1, [2]))]},
        {"é \"\\": "\ud800\U0001f600\x00", "-0.0": -0.0, "big": -(10**40)},
        [float("nan"), float("inf"), float("-inf"), 1e300],
    ],
    ids=["one-next-to-true", "one-next-to-true-in-a-dict", "non-str-keys", "empty-and-tuples",
         "escaping", "non-finite-floats"],
)
def test_documents_a_report_never_holds(document):
    assert _written(document) == _dumped(document)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), Expression.number(3, J2_CHART), {1, 2}, object()],
    ids=["Fraction", "Expression", "set", "object"],
)
def test_a_value_json_refuses_raises_its_type_error(value):
    for document in (value, [value], {"a": {"b": [1, value]}}, {1: value}):
        with pytest.raises(TypeError) as written:
            _written(document)
        with pytest.raises(TypeError) as dumped:
            _dumped(document)
        assert type(written.value) is type(dumped.value)
        assert str(written.value) == str(dumped.value)
