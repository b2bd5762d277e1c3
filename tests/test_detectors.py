import io
import json
import random

import pytest

from lifetaint import cli, detectors
from lifetaint.detectors import (
    INFO_LEAK, SMS_AUTOREPLY, SMS_HARDCODED,
    FoundWarning, Report, Warning, dedup_warnings, detect_sms_attacks, render_report,
)
from lifetaint.analysis import AnalysisConfig
from lifetaint.sequences import Segment
from lifetaint.symbols import Entry, IMMUTABLE_REF, TaintTag

from conftest import all_corpus_paths
from oracles import sequence_of


def w(sources, sink, kind=INFO_LEAK, m=1, trace=("createActivity",)):
    return Warning(kind, sources, sink, [], "C", m, trace)


class TestDedup:
    def test_exact_duplicate_collapses(self):
        kept = dedup_warnings([w({"A"}, "S"), w({"A"}, "S")])
        assert len(kept) == 1

    def test_subset_source_set_is_subsumed(self):
        kept = dedup_warnings([w({"A"}, "S"), w({"A", "B"}, "S")])
        assert len(kept) == 1
        assert kept[0].source_apis == frozenset({"A", "B"})

    def test_distinct_sinks_both_kept(self):
        kept = dedup_warnings([w({"A"}, "S1"), w({"A"}, "S2")])
        assert len(kept) == 2

    def test_different_kinds_do_not_subsume(self):
        kept = dedup_warnings([
            w(set(), "S", kind=SMS_HARDCODED),
            w({"A"}, "S", kind=INFO_LEAK),
        ])
        assert len(kept) == 2

    def test_first_representative_metadata_wins(self):
        kept = dedup_warnings([
            w({"A"}, "S", m=1, trace=("first",)),
            w({"A"}, "S", m=2, trace=("second",)),
        ])
        assert kept[0].m == 1 and kept[0].event_trace == ("first",)

    def test_idempotent_and_order_insensitive(self):
        rng = random.Random(7)
        pool = [
            w(frozenset(s), sink)
            for sink in ("S1", "S2")
            for s in (("A",), ("B",), ("A", "B"), ("A", "C"), ("A", "B", "C"))
        ]
        keys = {x.key() for x in dedup_warnings(pool)}
        assert {x.key() for x in dedup_warnings(dedup_warnings(pool))} == keys
        for _ in range(10):
            shuffled = pool[:]
            rng.shuffle(shuffled)
            assert {x.key() for x in dedup_warnings(shuffled)} == keys

    def test_output_is_antichain_per_sink(self):
        rng = random.Random(11)
        apis = ["A", "B", "C", "D"]
        pool = [
            w(frozenset(rng.sample(apis, rng.randint(1, 4))), rng.choice(["S1", "S2"]))
            for _ in range(40)
        ]
        kept = dedup_warnings(pool)
        for a in kept:
            for b in kept:
                if a is b or a.kind != b.kind or a.sink_api != b.sink_api:
                    continue
                assert not (a.source_apis < b.source_apis)


def _config():
    return AnalysisConfig(
        sources=["SmsMessage.getOriginatingAddress/0"],
        sinks=[],
        sms_send_apis=[{"signature": "SmsManager.sendTextMessage/5",
                        "recipient_arg_index": 0}],
        originating_address_apis=["SmsMessage.getOriginatingAddress/0"],
    )


RULE = {"signature": "SmsManager.sendTextMessage/5", "recipient_arg_index": 0}


class TestSmsDetection:
    def test_hardcoded_number(self):
        recipient = Entry(IMMUTABLE_REF, const_value="1066156686")
        out = detect_sms_attacks(RULE, [recipient], _config())
        assert out == [(SMS_HARDCODED, set())]

    def test_autoreply_from_originating_address(self):
        tag = TaintTag("SmsMessage.getOriginatingAddress/0", ("C", "onReceive/2", 1))
        recipient = Entry(IMMUTABLE_REF, taints={tag})
        out = detect_sms_attacks(RULE, [recipient], _config())
        assert out == [(SMS_AUTOREPLY, {tag})]

    def test_config_file_number_not_reported(self):
        recipient = Entry(IMMUTABLE_REF)  # no const, no taint
        out = detect_sms_attacks(RULE, [recipient], _config())
        assert out == []

    def test_other_taint_is_not_autoreply(self):
        tag = TaintTag("TelephonyManager.getDeviceId/0", ("C", "m/0", 0))
        recipient = Entry(IMMUTABLE_REF, taints={tag})
        out = detect_sms_attacks(RULE, [recipient], _config())
        assert out == []


class TestRendering:
    def _report(self, warnings=(), finished=True):
        return Report("app", list(warnings), 2, 42, 1.25, finished)

    def test_json_is_stable_and_ordered(self):
        rep = self._report([w({"B", "A"}, "S")])
        one = render_report(rep, "json")
        two = render_report(rep, "json")
        assert one == two
        doc = json.loads(one)
        assert doc["warnings"][0]["source_apis"] == ["A", "B"]
        assert list(doc) == sorted(doc)

    def test_empty_report(self):
        doc = json.loads(render_report(self._report(), "json"))
        assert doc["warnings"] == [] and doc["finished"] is True

    def test_killed_report_keeps_partial_warnings(self):
        rep = self._report([w({"A"}, "S")], finished=False)
        doc = json.loads(render_report(rep, "json"))
        assert doc["finished"] is False and len(doc["warnings"]) == 1

    def test_table_format(self):
        text = render_report(self._report([w({"A"}, "S")]), "table")
        assert "INFO_LEAK" in text and "app" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self._report(), "yaml")


class TestFoundWarning:
    """A raw warning of the analysis builds its locations and event trace
    only when they are read."""

    def test_it_reads_as_the_warning_built_from_lists(self):
        tags = {TaintTag("getDeviceId", ("C", "onCreate/1", 4)),
                TaintTag("getLine1Number", ("C", "onCreate/1", 2))}
        seq = sequence_of((2, 0), (Segment("create", ("onCreate",)),
                                   Segment("resume", ("onResume",)),
                                   Segment("click", ("onClick",))))
        found = FoundWarning(INFO_LEAK, tags, "Log.e/2", ("C", "onResume/0", 7), "C", seq, 1)
        built = Warning(INFO_LEAK, {"getDeviceId", "getLine1Number"}, "Log.e/2", [
            {"role": "source", "api": "getDeviceId", "class": "C", "method": "onCreate/1",
             "instruction": 4},
            {"role": "source", "api": "getLine1Number", "class": "C", "method": "onCreate/1",
             "instruction": 2},
            {"role": "sink", "api": "Log.e/2", "class": "C", "method": "onResume/0",
             "instruction": 7}], "C", 2, ("create", "resume"))
        assert found.key() == built.key() and found.m == built.m == 2
        assert "locations" not in vars(found) and "event_trace" not in vars(found)
        assert found.to_dict() == built.to_dict()
        assert found.locations is found.locations  # built once, then kept
        assert found.event_trace == ("create", "resume")
        assert dedup_warnings([built, found]) == [built]
        with pytest.raises(AttributeError):
            found.no_such_field

    def test_a_corpus_run_builds_only_the_kept_locations(self, monkeypatch):
        raw, kept, built = [], [], []

        def dedup(warnings):
            raw.extend(warnings)
            result = dedup_warnings(warnings)
            kept.extend(result)
            return result

        def location_rows(warning):
            built.append(warning)
            return real_rows(warning)

        monkeypatch.setattr(cli, "dedup_warnings", dedup)
        real_rows = detectors.FoundWarning.location_rows
        monkeypatch.setattr(detectors.FoundWarning, "location_rows", location_rows)
        assert cli.run(cli.RunConfig(all_corpus_paths(), m_max=3, out=io.StringIO())) == 0
        # the reports write each kept warning's locations from its rows, so
        # the run builds no location dicts, and the rows and event traces of
        # the kept warnings only
        assert (len(raw), len(kept), len(built)) == (166, 20, 20) and built == kept
        assert not any("locations" in vars(x) for x in raw)
        assert [x for x in raw if "event_trace" in vars(x)] == kept
