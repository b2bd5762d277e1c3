"""Golden anchors: the event/callback table, the derived sequence lists and
the corpus reports.

These pin the bundled model encodings; any change to transition order or
guards shows up here first.  The reports in golden_reports/ are each corpus
app's JSON report at --m-max 3 and must stay byte-identical.
"""

import io
import os

import pytest

from lifetaint.cli import RunConfig, run
from conftest import all_corpus_paths
from oracles import callbacks_for_event, event_sequences

GOLDEN_REPORTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports")

ACTIVITY_EVENT_CALLBACKS = {
    "createActivity": ["onCreate", "onStart", "onPostCreate", "onResume", "onPostResume"],
    "backPress": ["onPause", "onStop", "onDestroy"],
    "confPR": ["onPause", "onSaveInstanceState", "onStop", "onDestroy", "onCreate",
               "onStart", "onRestoreInstanceState", "onPostCreate", "onResume",
               "onPostResume"],
    "stopActivity": ["onPause", "onCreateDescription", "onSaveInstanceState", "onStop"],
    "restartActivity": ["onRestart", "onStart", "onResume", "onPostResume"],
    "confPOS": ["onDestroy", "onCreate", "onStart", "onRestoreInstanceState",
                "onPostCreate", "onResume", "onPostResume"],
    "overlapActivity": ["onUserLeaveHint", "onPause", "onCreateDescription",
                        "onSaveInstanceState", "onStop"],
    "killProcess": ["onDestroy"],
    "hideActivityPartially": ["onUserLeaveHint", "onPause", "onCreateDescription",
                              "onSaveInstanceState"],
    "gotoActivity": ["onResume", "onPostResume"],
    "savStop": ["onStop"],
    "savRestart": ["onRestart", "onStart"],
    "confSTP": ["onStop", "onDestroy", "onCreate", "onStart", "onRestoreInstanceState",
                "onPostCreate", "onResume", "onPostResume", "onPause"],
    "gotoStop": ["onCreateDescription", "onSaveInstanceState", "onStop"],
    "confPAU": ["onSaveInstanceState", "onStop", "onDestroy", "onCreate", "onStart",
                "onRestoreInstanceState", "onPostCreate", "onResume", "onPostResume",
                "onPause"],
    "confSTO": ["onDestroy", "onCreate", "onStart", "onRestoreInstanceState",
                "onPostCreate", "onResume", "onPostResume", "onPause"],
}

SERVICE_EVENT_CALLBACKS = {
    "createAndStart": ["onCreate", "onStartCommand"],
    "createAndBind": ["onCreate", "onBind"],
    "bind": ["onBind"],
    "start": ["onStartCommand"],
    "unbind": ["onUnbind"],
    "stop": [],
    "stopAndDestroy": ["onDestroy"],
    "unbindAndDestroy": ["onUnbind", "onDestroy"],
}

ACTIVITY_SEQUENCES = [
    ("createActivity", "confPR"),
    ("createActivity", "stopActivity", "restartActivity"),
    ("createActivity", "stopActivity", "confPOS"),
    ("createActivity", "stopActivity", "confSTO", "gotoActivity"),
    ("createActivity", "stopActivity", "confSTO", "gotoStop", "restartActivity"),
    ("createActivity", "stopActivity", "confSTO", "gotoStop", "confSTO", "gotoActivity"),
    ("createActivity", "stopActivity", "confSTO", "confPAU", "gotoActivity"),
    ("createActivity", "stopActivity", "confSTO", "confPAU", "gotoStop", "restartActivity"),
    ("createActivity", "overlapActivity", "restartActivity"),
    ("createActivity", "overlapActivity", "confPOS"),
    ("createActivity", "hideActivityPartially", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "savStop",
     "savRestart", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "savStop",
     "savRestart", "confSTP", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "savStop",
     "savRestart", "confSTP", "confPAU", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "confSTP",
     "gotoActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "confSTP",
     "gotoStop", "restartActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "confSTP",
     "gotoStop", "confSTO", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "confSTP",
     "confPAU", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "savStop", "savRestart", "confSTP",
     "confPAU", "gotoStop", "restartActivity"),
    ("createActivity", "hideActivityPartially", "confSTP", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "confSTP", "gotoStop", "restartActivity"),
    ("createActivity", "hideActivityPartially", "confSTP", "gotoStop", "confSTO",
     "gotoActivity"),
    ("createActivity", "hideActivityPartially", "confSTP", "gotoStop", "confSTO",
     "gotoStop", "restartActivity"),
    ("createActivity", "hideActivityPartially", "confSTP", "confPAU", "gotoActivity"),
    ("createActivity", "hideActivityPartially", "confSTP", "confPAU", "gotoStop",
     "restartActivity"),
]

SERVICE_SEQUENCES = [
    ("createAndStart", "bind", "start", "unbind", "stopAndDestroy"),
    ("createAndStart", "bind", "start", "stop", "unbindAndDestroy"),
    ("createAndStart", "bind", "unbind", "bind", "unbind", "stopAndDestroy"),
    ("createAndStart", "bind", "unbind", "bind", "stop", "unbindAndDestroy"),
    ("createAndStart", "bind", "unbind", "stopAndDestroy"),
    ("createAndStart", "bind", "stop", "unbindAndDestroy"),
    ("createAndStart", "bind", "stop", "start", "unbind", "stopAndDestroy"),
    ("createAndStart", "bind", "stop", "start", "stop", "unbindAndDestroy"),
    ("createAndStart", "stopAndDestroy"),
    ("createAndBind", "unbindAndDestroy"),
    ("createAndBind", "start", "unbind", "bind", "unbind", "stopAndDestroy"),
    ("createAndBind", "start", "unbind", "bind", "stop", "unbindAndDestroy"),
    ("createAndBind", "start", "unbind", "stopAndDestroy"),
    ("createAndBind", "start", "stop", "unbindAndDestroy"),
    ("createAndBind", "start", "stop", "start", "unbind", "stopAndDestroy"),
]


@pytest.mark.parametrize("event,expected", sorted(ACTIVITY_EVENT_CALLBACKS.items()))
def test_activity_event_callbacks(models, event, expected):
    assert callbacks_for_event(models["ACTIVITY"], event) == expected


@pytest.mark.parametrize("event,expected", sorted(SERVICE_EVENT_CALLBACKS.items()))
def test_service_event_callbacks(models, event, expected):
    assert callbacks_for_event(models["SERVICE"], event) == expected


def test_activity_sequences_golden(models):
    got = event_sequences(models["ACTIVITY"])
    assert got == ACTIVITY_SEQUENCES


def test_service_sequences_golden(models):
    got = event_sequences(models["SERVICE"])
    assert got == SERVICE_SEQUENCES


@pytest.mark.parametrize("path", all_corpus_paths(), ids=os.path.basename)
def test_corpus_report_matches_golden(path):
    out = io.StringIO()
    run(RunConfig(app_paths=[path], m_max=3, out=out))
    name = os.path.splitext(os.path.basename(path))[0]
    with open(os.path.join(GOLDEN_REPORTS, name + ".json"), encoding="utf-8") as fh:
        assert out.getvalue() == fh.read()
