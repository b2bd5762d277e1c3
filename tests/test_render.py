"""`render_report` writes JSON with a renderer of its own, which must give
the bytes of `json.dumps(doc, indent=2, sort_keys=True)`."""

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifetaint import cli
from lifetaint.detectors import Report, Warning, render_report

from conftest import ROOT

GOLDEN_REPORTS = os.path.join(ROOT, "tests", "golden_reports")


class Doc(Report):
    """A report whose document is given as it is."""

    def __init__(self, doc):
        self.doc = doc

    def to_dict(self):
        return self.doc


def stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN_REPORTS)))
def test_every_golden_report(name):
    with open(os.path.join(GOLDEN_REPORTS, name), encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    assert render_report(Doc(doc), "json") + "\n" == text
    assert render_report(Doc(doc), "json") == stdlib(doc)


def test_an_error_report():
    report = Report("caf\u00e9 \"app\"", [], 0, 0, 0.0, True,
                    error='AppLoadError: bad "x"\\y\n\tat \u2603 \x00 \x1f')
    assert render_report(report, "json") == stdlib(report.to_dict())
    out = io.StringIO()
    assert cli.run(cli.RunConfig([os.path.join(ROOT, "no such.app")], out=out)) == 0
    doc = json.loads(out.getvalue())
    assert "error" in doc
    assert out.getvalue() == stdlib(doc) + "\n"


def test_a_warning_report():
    w = Warning("INFO_LEAK", {"b\u00fc", "a\"q"}, "Log.e/2",
                [{"role": "sink", "api": "Log.e/2", "class": "C", "method": "m/0",
                  "instruction": 3}], "C", 2, ("create", "cl\\ick"))
    report = Report("a", [w, w], 2, 7, 1.5, False)
    assert render_report(report, "json") == stdlib(report.to_dict())


# every character class that JSON escapes or passes through: ASCII, quotes,
# backslashes, control characters, Latin-1, the BMP and astral planes
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f \u00e9\u2028\u2603\U0001f600'),
    st.characters()), max_size=12)
SCALARS = st.one_of(TEXT, st.integers(), st.booleans(), st.none())
VALUES = st.recursive(
    st.one_of(SCALARS, st.just([]), st.just({})),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(VALUES)
def test_any_document(doc):
    assert render_report(Doc(doc), "json") == stdlib(doc)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, b"x"])
def test_a_value_no_report_holds_is_refused(value):
    with pytest.raises(TypeError):
        render_report(Doc({"x": value}), "json")
