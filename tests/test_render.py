"""`render_report` writes a report's JSON in one pass from its fields, which
must give the bytes of `json.dumps(report.to_dict(), indent=2,
sort_keys=True)`."""

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifetaint import cli
from lifetaint.detectors import FoundWarning, Report, Warning, render_report
from lifetaint.sequences import (
    AUI_CALLBACK, FlattenedSequence, PermutationPlan, PermutationUnit, Segment,
)
from lifetaint.symbols import TaintTag

from conftest import ROOT

GOLDEN_REPORTS = os.path.join(ROOT, "tests", "golden_reports")


def stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def plain_report(doc):
    """The report of the document `doc`, its warnings plain `Warning`s."""
    warnings = [Warning(w["kind"], w["source_apis"], w["sink_api"], w["locations"],
                        w["component"], w["detected_at_m"], w["event_trace"])
                for w in doc["warnings"]]
    return Report(doc["app_id"], warnings, doc["m_reached"], doc["sequences_analyzed"],
                  0.0, doc["finished"], doc.get("error"))


@pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN_REPORTS)))
def test_every_golden_report(name):
    with open(os.path.join(GOLDEN_REPORTS, name), encoding="utf-8") as fh:
        text = fh.read()
    report = plain_report(json.loads(text))
    assert render_report(report, "json") + "\n" == text
    assert render_report(report, "json") == stdlib(report.to_dict())


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
# (class, method, instruction index) of a source or sink call
LOCATIONS = st.tuples(TEXT, TEXT, st.integers())


def _segments(events):
    return tuple(Segment(event, ()) for event in events)


@st.composite
def sequences(draw):
    """(sequence, segment): a generated sequence whose events are drawn, and
    the segment of the callback that found a warning in it."""
    units = tuple(PermutationUnit(AUI_CALLBACK, tuple(events), _segments(events))
                  for events in draw(st.lists(st.lists(TEXT, min_size=1, max_size=2),
                                              min_size=1, max_size=3)))
    indexes = draw(st.lists(st.integers(0, len(units) - 1), min_size=1,
                            max_size=len(units), unique=True))
    seq = FlattenedSequence(tuple(indexes),
                            PermutationPlan(units, _segments(draw(st.lists(TEXT, max_size=2)))))
    return seq, draw(st.integers(0, len(seq.segments) - 1))


# a warning the analysis finds, none of its lazy fields read yet, and a
# warning built from lists
FOUND = st.builds(lambda kind, tags, sink, location, component, found_in: FoundWarning(
    kind, tags, sink, location, component, *found_in),
    TEXT, st.frozensets(st.builds(TaintTag, TEXT, LOCATIONS), max_size=2), TEXT, LOCATIONS,
    TEXT, sequences())
PLAIN = st.builds(
    Warning, TEXT, st.frozensets(TEXT, max_size=2), TEXT,
    st.lists(st.builds(lambda role, api, at: {"role": role, "api": api, "class": at[0],
                                              "method": at[1], "instruction": at[2]},
                       TEXT, TEXT, LOCATIONS), max_size=2),
    TEXT, st.integers(), st.lists(TEXT, max_size=3))
REPORTS = st.builds(Report, TEXT, st.lists(st.one_of(FOUND, PLAIN), max_size=3),
                    st.integers(), st.integers(), st.floats(0, 1e6), st.booleans(),
                    st.one_of(st.none(), TEXT))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(REPORTS)
def test_any_report(report):
    text = render_report(report, "json")
    # a found warning's locations are written from its tags, never built
    assert not any("locations" in vars(w) for w in report.warnings
                   if isinstance(w, FoundWarning))
    assert text == stdlib(report.to_dict())
    # and once to_dict has built them, the text is the same
    assert render_report(report, "json") == text


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, b"x"])
def test_a_value_no_report_holds_is_refused(value):
    # a count, the finished flag or an instruction index holds `value`, in
    # a report, a plain warning or a found warning
    seq = FlattenedSequence((0,), PermutationPlan(
        (PermutationUnit(AUI_CALLBACK, ("e",), _segments(("e",))),), ()))
    at = {"role": "sink", "api": "S", "class": "C", "method": "m/0", "instruction": value}
    reports = [Report("a", [], value, 0, 0.0, True), Report("a", [], 0, value, 0.0, True),
               Report("a", [], 0, 0, 0.0, value)]
    reports += [Report("a", [w], 1, 1, 0.0, True) for w in (
        Warning("K", (), "S", [], "C", value, ()),
        Warning("K", (), "S", [at], "C", 1, ()),
        FoundWarning("K", (TaintTag("A", ("C", "m/0", value)),), "S", ("C", "m/0", 0), "C",
                     seq, 0),
        FoundWarning("K", (), "S", ("C", "m/0", value), "C", seq, 0))]
    for report in reports:
        with pytest.raises(TypeError):
            render_report(report, "json")
