import io
import os
import random

import pytest

from lifetaint import analysis, api_handlers, cli, symbols
from lifetaint.analysis import AnalysisConfig, AnalysisContext, analyze_component
from lifetaint.cfg import build_cfg, leaders, remove_back_edges, reverse_post_order
from lifetaint.cli import analyze_app
from lifetaint.errors import AnalysisError
from lifetaint.ir import Instruction, MethodDef, app_from_dict, load_app, resolve_method
from lifetaint.sequences import Segment, build_plan
from lifetaint.symbols import (
    PRIMITIVE, Entry, SymbolSpace, TaintTag, fingerprint, fresh_entry, merge_spaces,
    value_entry,
)

from conftest import all_corpus_paths, corpus_app, corpus_path
from oracles import (
    direct_joins_match, heap_run, invoke_call, random_heap_app, run_sequence, sequence_of,
    shares_match, stepped_app_run, stepped_heap_run, without_direct_joins,
)
from test_golden_dags import RANDOM_METHODS, random_method
from test_prefix_sharing import family_paths

SOURCE = "TelephonyManager.getDeviceId/0"
SINK = "Log.e/2"
RANDOM_HEAP_METHODS = 1000


def target_kinds(invoke):
    """The kinds of a decoded invoke's target, as `_resolve` tells them apart."""
    target = invoke.target
    if isinstance(target, analysis._Sink):
        return {kind for kind, holds in (("sink", target.reports),
                                         ("sms rule", target.rule is not None)) if holds}
    for kind, name in ((TaintTag, "source"), (MethodDef, "app method"),
                       (analysis._Trigger, "trigger"), (type(None), "default")):
        if isinstance(target, kind):
            return {name}
    return {"handler"}


def make_app(instructions, extra_methods=(), extra_classes=(), labels=None):
    doc = {
        "app_id": "t",
        "classes": [
            {
                "name": "Main", "parent_kind": "ACTIVITY", "static_fields": [],
                "methods": [
                    {"sig": "main/0", "params": ["this"],
                     "instructions": instructions, "labels": labels or {}},
                    *extra_methods,
                ],
            },
            *extra_classes,
        ],
        "components": [{"class": "Main", "kind": "ACTIVITY",
                        "aui_callbacks": [], "misc_callbacks": ["main"]}],
    }
    return app_from_dict(doc)


def run_main(app, config):
    """Run Main's `main` callback once, as a one-segment sequence, and
    return the raw warnings."""
    ctx = AnalysisContext(app, config)
    run_sequence(app.components[0], sequence_of((0,), (Segment("main", ("main",)),)), ctx)
    return ctx.warnings


def taint_instr(dst, tmp="tmgr"):
    return [
        ["NEW_INSTANCE", tmp, "TelephonyManager"],
        ["INVOKE_VIRTUAL", dst, tmp, SOURCE, []],
    ]


def sink_instr(reg, tag="tag"):
    return [
        ["CONST_STRING", tag, "t"],
        ["INVOKE_STATIC", None, SINK, [tag, reg]],
    ]


class TestListings:
    def test_object_sensitivity_single_warning(self, models, config):
        report = analyze_app(corpus_app("obj_sensitivity"), models, config, m_max=1)
        assert len(report.warnings) == 1
        w = report.warnings[0]
        assert w.kind == "INFO_LEAK"
        assert w.source_apis == frozenset({SOURCE})
        assert w.sink_api == SINK

    def test_flow_sensitivity_second_sink_only(self, models, config):
        app = corpus_app("flow_sensitivity")
        report = analyze_app(app, models, config, m_max=1)
        assert len(report.warnings) == 1
        sink = [l for l in report.warnings[0].locations if l["role"] == "sink"]
        # main's second Log.e sits at instruction 9; the first (index 4) is clean
        assert sink[0]["instruction"] == 9

    def test_merge_taints_branch_only_assignment(self, config):
        app = make_app([
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "skip"],
            *taint_instr("w"),
            ["MOVE", "x", "w"],
            *sink_instr("x"),
            ["RETURN_VOID"],
        ], labels={"skip": 7})
        # sink sits before the merge on the tainted path: warned there
        assert len(run_main(app, config)) == 1

    def test_merge_preserves_out_d_taint(self, config):
        # a tainted field is overwritten on one path; the merge must still
        # see the taint preserved in the other predecessor's OUT_d
        setval = {
            "sig": "setVal/1", "params": ["this", "w"],
            "instructions": [["IPUT", "this", "val", "w"], ["RETURN_VOID"]],
            "labels": {},
        }
        getval = {
            "sig": "getVal/0", "params": ["this"],
            "instructions": [["IGET", "v0", "this", "val"], ["RETURN", "v0"]],
            "labels": {},
        }
        app = make_app([
            ["NEW_INSTANCE", "x", "Main"],
            *taint_instr("w"),
            ["INVOKE_VIRTUAL", None, "x", "Main.setVal/1", ["w"]],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "merge"],
            ["CONST_STRING", "b", "benign"],
            ["INVOKE_VIRTUAL", None, "x", "Main.setVal/1", ["b"]],
            ["INVOKE_VIRTUAL", "out", "x", "Main.getVal/0", []],
            *sink_instr("out"),
            ["RETURN_VOID"],
        ], labels={"merge": 8}, extra_methods=[setval, getval])
        warnings = run_main(app, config)
        assert len(warnings) == 1

    def test_sink_before_taint_never_warns_straight_line(self, config):
        app = make_app([
            ["CONST_STRING", "x", "clean"],
            *sink_instr("x"),
            *taint_instr("w"),
            ["MOVE", "x", "w"],
            ["RETURN_VOID"],
        ])
        assert run_main(app, config) == []


class TestInstructionSemantics:
    def test_iput_then_iget_through_alias(self, config):
        # xT aliases the object stored in y's field; tainting through xT is
        # visible through the other alias
        app = make_app([
            ["NEW_INSTANCE", "x1", "Obj"],
            ["NEW_INSTANCE", "y1", "Obj"],
            ["IPUT", "y1", "x", "x1"],
            ["IGET", "xT", "y1", "x"],
            *taint_instr("w"),
            ["IPUT", "xT", "val", "w"],
            ["IGET", "x2", "y1", "x"],
            ["IGET", "out", "x2", "val"],
            *sink_instr("out"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1

    def test_collection_index_over_approximation(self, config):
        app = make_app([
            ["COLLECTION_NEW", "c"],
            *taint_instr("w"),
            ["COLLECTION_PUT", "c", 3, "w"],
            ["COLLECTION_GET", "g", "c", 0],
            *sink_instr("g"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1

    def test_collection_stays_tainted_after_overwrite(self, config):
        app = make_app([
            ["COLLECTION_NEW", "c"],
            *taint_instr("w"),
            ["COLLECTION_PUT", "c", 0, "w"],
            ["CONST_STRING", "b", "benign"],
            ["COLLECTION_PUT", "c", 0, "b"],
            ["COLLECTION_GET", "g", "c", 0],
            *sink_instr("g"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1

    def test_fresh_collection_clears(self, config):
        app = make_app([
            ["COLLECTION_NEW", "c"],
            *taint_instr("w"),
            ["COLLECTION_PUT", "c", 0, "w"],
            ["COLLECTION_NEW", "c"],
            ["COLLECTION_GET", "g", "c", 0],
            *sink_instr("g"),
            ["RETURN_VOID"],
        ])
        assert run_main(app, config) == []

    def test_move_of_const_untainted(self, config):
        app = make_app([
            ["CONST_STRING", "a", "x"],
            ["MOVE", "b", "a"],
            *sink_instr("b"),
            ["RETURN_VOID"],
        ])
        assert run_main(app, config) == []

    def test_nested_field_depth_three(self, config):
        app = make_app([
            ["NEW_INSTANCE", "head", "Node"],
            ["NEW_INSTANCE", "n1", "Node"],
            ["NEW_INSTANCE", "n2", "Node"],
            ["IPUT", "head", "next", "n1"],
            ["IPUT", "n1", "next", "n2"],
            *taint_instr("w"),
            ["IGET", "a", "head", "next"],
            ["IGET", "b", "a", "next"],
            ["IPUT", "b", "value", "w"],
            ["IGET", "c2", "head", "next"],
            ["IGET", "d", "c2", "next"],
            ["IGET", "out", "d", "value"],
            *sink_instr("out"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1

    def test_string_reassignment_isolation(self, config):
        # d2 copies d1's value; re-tainting d1 later must not taint d2
        app = make_app([
            ["CONST_STRING", "d1", ""],
            ["MOVE", "d2", "d1"],
            *taint_instr("w"),
            ["MOVE", "d1", "w"],
            *sink_instr("d2"),
            ["RETURN_VOID"],
        ])
        assert run_main(app, config) == []

    def test_undefined_register_is_analysis_error(self, config):
        app = make_app([
            ["MOVE", "a", "ghost"],
            ["RETURN_VOID"],
        ])
        with pytest.raises(AnalysisError, match="ghost"):
            run_main(app, config)

    # (instructions, the index of the one that reads the unbound register
    # `r`); each read path of the interpreter
    UNBOUND_READS = {
        "MOVE source": ([["MOVE", "a", "r"]], 0),
        "SPUT source": ([["SPUT", "C.s", "r"]], 0),
        "IPUT source": ([["NEW_INSTANCE", "o", "C"], ["IPUT", "o", "f", "r"]], 1),
        "COLLECTION_PUT source": ([["COLLECTION_NEW", "c"], ["COLLECTION_PUT", "c", 0, "r"]], 1),
        "IGET object": ([["IGET", "a", "r", "f"]], 0),
        "IPUT object": ([["CONST_STRING", "v", "x"], ["IPUT", "r", "f", "v"]], 1),
        "COLLECTION_PUT collection": (
            [["CONST_STRING", "v", "x"], ["COLLECTION_PUT", "r", 0, "v"]], 1),
        "COLLECTION_GET collection": ([["COLLECTION_GET", "a", "r", 0]], 0),
        "IF_GOTO condition": ([["IF_GOTO", "r", "end"]], 0),
        "RETURN": ([["CONST_STRING", "v", "x"], ["RETURN", "r"]], 1),
        "receiver": ([["INVOKE_VIRTUAL", None, "r", "Lib.get/0", []]], 0),
        "handler receiver": ([["INVOKE_VIRTUAL", "a", "r", "StringBuilder.toString/0", []]], 0),
        "handler argument": ([["NEW_INSTANCE", "sb", "StringBuilder"],
                              ["INVOKE_VIRTUAL", None, "sb", "StringBuilder.append/1", ["r"]]], 1),
        "app-method argument": ([["INVOKE_DIRECT", None, "this", "C.helper/1", ["r"]]], 0),
        "default-rule argument": ([["CONST_STRING", "v", "x"],
                                   ["INVOKE_STATIC", None, "Lib.put/2", ["v", "r"]]], 1),
        "sink argument": ([["CONST_STRING", "t", "t"], ["INVOKE_STATIC", None, SINK, ["t", "r"]]], 1),
        "trigger argument": ([["NEW_INSTANCE", "task", "Task"],
                              ["INVOKE_VIRTUAL", None, "task", "Task.execute/1", ["r"]]], 1),
    }

    @pytest.mark.parametrize("case", UNBOUND_READS)
    def test_each_read_of_an_unbound_register_names_it(self, case, config):
        instructions, index = self.UNBOUND_READS[case]
        app = app_from_dict({
            "app_id": "unbound",
            "classes": [
                {"name": "C", "parent_kind": "ACTIVITY", "static_fields": [], "methods": [
                    {"sig": "m/0", "params": ["this"], "labels": {"end": len(instructions)},
                     "instructions": instructions + [["RETURN_VOID"]]},
                    {"sig": "helper/1", "params": ["this", "p"], "labels": {},
                     "instructions": [["RETURN_VOID"]]}]},
                {"name": "Task", "parent_kind": "ASYNC_TASK", "static_fields": [], "methods": [
                    {"sig": "doInBackground/1", "params": ["this", "p"], "labels": {},
                     "instructions": [["RETURN_VOID"]]}]}],
            "components": [{"class": "C", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": ["m"]}],
        })
        ctx = AnalysisContext(app, config)
        with pytest.raises(AnalysisError) as info:
            run_sequence(app.components[0], sequence_of((0,), (Segment("m", ("m",)),)), ctx)
        assert str(info.value) == "use of undefined register 'r' (at C.m/0[%d])" % index

    def test_static_fields_flow(self, config):
        app = make_app([
            *taint_instr("w"),
            ["SPUT", "G.secret", "w"],
            ["SGET", "out", "G.secret"],
            *sink_instr("out"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1


class TestInvokes:
    def test_source_return_tainted_regardless_of_receiver(self, config):
        app = make_app([
            ["NEW_INSTANCE", "o", "TelephonyManager"],
            ["INVOKE_VIRTUAL", "d", "o", SOURCE, []],
            *sink_instr("d"),
            ["RETURN_VOID"],
        ])
        w = run_main(app, config)
        assert len(w) == 1 and w[0].source_apis == frozenset({SOURCE})

    def test_direct_recursion_terminates(self, models, config):
        report = analyze_app(corpus_app("recursion"), models, config, m_max=1)
        assert report.finished
        assert {w.sink_api for w in report.warnings} == {SINK}

    def test_default_handler_taints_return_from_arg(self, config):
        # untainted receiver, tainted argument: the returned value is tainted
        app = make_app([
            *taint_instr("w"),
            ["NEW_INSTANCE", "o", "Box"],
            ["INVOKE_VIRTUAL", "out", "o", "Box.combine/1", ["w"]],
            *sink_instr("out"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1

    def test_default_handler_taints_receiver_then_later_reads(self, config):
        app = make_app([
            *taint_instr("w"),
            ["NEW_INSTANCE", "o", "Box"],
            ["INVOKE_VIRTUAL", None, "o", "Box.put/1", ["w"]],
            ["INVOKE_VIRTUAL", "out", "o", "Box.get/0", []],
            *sink_instr("out"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1

    def test_default_handler_untainted_stays_clean(self, config):
        app = make_app([
            ["CONST_STRING", "a", "x"],
            ["NEW_INSTANCE", "o", "Box"],
            ["INVOKE_VIRTUAL", "out", "o", "Box.combine/1", ["a"]],
            *sink_instr("out"),
            ["RETURN_VOID"],
        ])
        assert run_main(app, config) == []

    def test_stringbuilder_append_propagates(self, config):
        app = make_app([
            ["NEW_INSTANCE", "sb", "StringBuilder"],
            *taint_instr("w"),
            ["INVOKE_VIRTUAL", "sb2", "sb", "StringBuilder.append/1", ["w"]],
            ["INVOKE_VIRTUAL", "s", "sb2", "StringBuilder.toString/0", []],
            *sink_instr("s"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1

    @pytest.mark.parametrize("sig", ["String.concat/1", "StringBuilder.append/1",
                                     "Foo.bar/1"])
    def test_receiverless_call_keeps_its_argument_taint(self, sig, config):
        # a handler that reads a receiver does not apply to a static call,
        # which gets the default rule like any unknown API
        app = make_app([
            ["INVOKE_STATIC", "w", SOURCE, []],
            ["INVOKE_STATIC", "s", sig, ["w"]],
            ["CONST_STRING", "tag", "t"],
            ["INVOKE_STATIC", None, "Log.d/2", ["tag", "s"]],
            ["RETURN_VOID"],
        ])
        w = run_main(app, config)
        assert len(w) == 1 and w[0].source_apis == frozenset({SOURCE})

    def test_arraycopy_taints_destination(self, config):
        app = make_app([
            ["COLLECTION_NEW", "src"],
            ["COLLECTION_NEW", "dst"],
            *taint_instr("w"),
            ["COLLECTION_PUT", "src", 0, "w"],
            ["CONST_NUM", "z", 0],
            ["CONST_NUM", "n", 5],
            ["INVOKE_STATIC", None, "System.arraycopy/5", ["src", "z", "dst", "z", "n"]],
            ["COLLECTION_GET", "g", "dst", 1],
            *sink_instr("g"),
            ["RETURN_VOID"],
        ])
        assert len(run_main(app, config)) == 1

    def test_concat_builds_hardcoded_recipient(self, config):
        app = make_app([
            ["CONST_STRING", "a", "1066"],
            ["CONST_STRING", "b", "156686"],
            ["INVOKE_VIRTUAL", "num", "a", "String.concat/1", ["b"]],
            ["INVOKE_STATIC", "mgr", "SmsManager.getDefault/0", []],
            ["CONST_STRING", "msg", "hi"],
            ["CONST_NUM", "z", 0],
            ["INVOKE_VIRTUAL", None, "mgr", "SmsManager.sendTextMessage/5",
             ["num", "z", "msg", "z", "z"]],
            ["RETURN_VOID"],
        ])
        assert [w.kind for w in run_main(app, config)] == ["SMS_HARDCODED"]

    def test_value_of_a_number_is_a_hardcoded_recipient(self, config):
        # sendTextMessage(String.valueOf(1066156686), ...): the number is a
        # code constant, and String.valueOf keeps it
        app = make_app([
            ["CONST_NUM", "n", 1066156686],
            ["INVOKE_STATIC", "num", "String.valueOf/1", ["n"]],
            ["INVOKE_STATIC", "mgr", "SmsManager.getDefault/0", []],
            ["CONST_STRING", "msg", "hi"],
            ["CONST_NUM", "z", 0],
            ["INVOKE_VIRTUAL", None, "mgr", "SmsManager.sendTextMessage/5",
             ["num", "z", "msg", "z", "z"]],
            ["RETURN_VOID"],
        ])
        assert [w.kind for w in run_main(app, config)] == ["SMS_HARDCODED"]

    def test_conflicting_constants_merge_to_not_a_constant(self, config):
        # different hardcoded numbers on the two paths: after the join the
        # recipient is no longer a known code constant, so no SMS warning
        app = make_app([
            ["CONST_NUM", "c", 1],
            ["CONST_STRING", "num", "1111"],
            ["IF_GOTO", "c", "join"],
            ["CONST_STRING", "num", "2222"],
            ["INVOKE_STATIC", "mgr", "SmsManager.getDefault/0", []],
            ["CONST_STRING", "msg", "hi"],
            ["CONST_NUM", "z", 0],
            ["INVOKE_VIRTUAL", None, "mgr", "SmsManager.sendTextMessage/5",
             ["num", "z", "msg", "z", "z"]],
            ["RETURN_VOID"],
        ], labels={"join": 4})
        assert run_main(app, config) == []

    def test_agreeing_constants_survive_merge(self, config):
        app = make_app([
            ["CONST_NUM", "c", 1],
            ["CONST_STRING", "num", "1111"],
            ["IF_GOTO", "c", "join"],
            ["CONST_STRING", "num", "1111"],
            ["INVOKE_STATIC", "mgr", "SmsManager.getDefault/0", []],
            ["CONST_STRING", "msg", "hi"],
            ["CONST_NUM", "z", 0],
            ["INVOKE_VIRTUAL", None, "mgr", "SmsManager.sendTextMessage/5",
             ["num", "z", "msg", "z", "z"]],
            ["RETURN_VOID"],
        ], labels={"join": 4})
        assert [w.kind for w in run_main(app, config)] == ["SMS_HARDCODED"]

    def test_return_value_binding(self, config):
        produce = {
            "sig": "produce/0", "params": ["this"],
            "instructions": [
                *taint_instr("w"),
                ["RETURN", "w"],
            ],
            "labels": {},
        }
        app = make_app([
            ["INVOKE_DIRECT", "got", "this", "Main.produce/0", []],
            *sink_instr("got"),
            ["RETURN_VOID"],
        ], extra_methods=[produce])
        assert len(run_main(app, config)) == 1


class TestContextSensitivity:
    def test_same_callee_different_call_sites(self, config):
        ident = {
            "sig": "ident/1", "params": ["this", "x"],
            "instructions": [["RETURN", "x"]], "labels": {},
        }
        app = make_app([
            *taint_instr("w"),
            ["INVOKE_DIRECT", "a", "this", "Main.ident/1", ["w"]],
            *sink_instr("a"),
            ["CONST_STRING", "clean", "ok"],
            ["INVOKE_DIRECT", "b", "this", "Main.ident/1", ["clean"]],
            *sink_instr("b", tag="tag2"),
            ["RETURN_VOID"],
        ], extra_methods=[ident])
        warnings = run_main(app, config)
        assert len(warnings) == 1
        sink = [l for l in warnings[0].locations if l["role"] == "sink"][0]
        assert sink["instruction"] == 4  # only the tainted call site


# two nested branches whose join merges a copy first, so a method that
# starts with them hands its caller a copied heap
BRANCH = [["CONST_NUM", "c", 1], ["IF_GOTO", "c", "mid"], ["IF_GOTO", "c", "join"],
          ["CONST_NUM", "d", 2]]


def helper(sig, params, body, branchy):
    """An app method; a branchy one runs `BRANCH` first."""
    return {"sig": sig, "params": params,
            "instructions": (BRANCH if branchy else []) + body + [["RETURN_VOID"]],
            "labels": {"mid": 3, "join": 4} if branchy else {}}


class TestCallEffects:
    """A call's effects reach the caller along every path through the
    callee, however the callee's frames were copied and merged."""

    @pytest.mark.parametrize("branchy", [False, True])
    @pytest.mark.parametrize("target", ["this", "o"])
    def test_field_stored_by_helper_reaches_caller(self, config, target, branchy):
        store = helper("store/1", ["this", "o"], [
            *taint_instr("w"),
            ["IPUT", target, "f", "w"],
        ], branchy)
        app = make_app([
            ["NEW_INSTANCE", "o", "Obj"],
            ["INVOKE_VIRTUAL", None, "this", "Main.store/1", ["o"]],
            ["IGET", "v", target, "f"],
            *sink_instr("v"),
            ["RETURN_VOID"],
        ], extra_methods=[store])
        assert len(run_main(app, config)) == 1

    @pytest.mark.parametrize("branchy", [False, True])
    def test_branch_only_helper_keeps_static_alias(self, config, branchy):
        idle = helper("idle/0", ["this"], [], branchy)
        app = make_app([
            ["NEW_INSTANCE", "o", "Obj"],
            ["SPUT", "S.box", "o"],
            ["INVOKE_VIRTUAL", None, "this", "Main.idle/0", []],
            *taint_instr("w"),
            ["IPUT", "o", "f", "w"],
            ["SGET", "b", "S.box"],
            ["IGET", "v", "b", "f"],
            *sink_instr("v"),
            ["RETURN_VOID"],
        ], extra_methods=[idle])
        assert len(run_main(app, config)) == 1

    def test_overwrite_on_every_path_clears_callers_field(self, config):
        clear = {
            "sig": "clear/0", "params": ["this"],
            "instructions": [
                ["CONST_NUM", "c", 1],
                ["IF_GOTO", "c", "other"],
                ["CONST_STRING", "k", "a"],
                ["IPUT", "this", "f", "k"],
                ["GOTO", "end"],
                ["CONST_STRING", "k", "b"],    # 5: other
                ["IPUT", "this", "f", "k"],
                ["RETURN_VOID"],               # 7: end
            ],
            "labels": {"other": 5, "end": 7},
        }
        app = make_app([
            *taint_instr("w"),
            ["IPUT", "this", "f", "w"],
            ["INVOKE_VIRTUAL", None, "this", "Main.clear/0", []],
            ["IGET", "v", "this", "f"],
            *sink_instr("v"),
            ["RETURN_VOID"],
        ], extra_methods=[clear])
        # a strong update on every path of the callee holds in the caller
        assert run_main(app, config) == []


class TestDiscontinuity:
    def test_thread_field_leak(self, models, config):
        report = analyze_app(corpus_app("thread_flow"), models, config, m_max=1)
        assert len(report.warnings) == 1
        assert report.warnings[0].sink_api == SINK

    def test_thread_without_run_is_noop(self, models, config):
        # the Idle thread in thread_flow has no run(); analysis just continues
        report = analyze_app(corpus_app("thread_flow"), models, config, m_max=1)
        assert report.finished

    def test_async_task_chain_and_argument_passing(self, models, config):
        report = analyze_app(corpus_app("async_task"), models, config, m_max=1)
        sinks = {w.sink_api for w in report.warnings}
        assert sinks == {"Log.e/2", "Log.i/2"}  # doInBackground and onPostExecute


    def test_async_chain_follows_the_heap_each_callback_hands_back(self, config):
        # onPreExecute and onProgressUpdate each hand the caller a copied
        # heap; the receiver and doInBackground's result must follow it
        task = {"name": "Task", "parent_kind": "ASYNC_TASK", "static_fields": [], "methods": [
            helper("onPreExecute/0", ["this"], [], True),
            {"sig": "doInBackground/1", "params": ["this", "a"], "labels": {},
             "instructions": [["IGET", "r", "this", "box"], ["RETURN", "r"]]},
            helper("onProgressUpdate/0", ["this"], [], True),
            helper("onPostExecute/1", ["this", "res"],
                   [*taint_instr("w"), ["IPUT", "res", "g", "w"]], False),
        ]}
        app = make_app([
            ["NEW_INSTANCE", "task", "Task"],
            ["NEW_INSTANCE", "o", "Obj"],
            ["IPUT", "task", "box", "o"],
            ["INVOKE_VIRTUAL", None, "task", "Task.execute/1", ["o"]],
            ["IGET", "b", "task", "box"],
            ["IGET", "v", "b", "g"],
            *sink_instr("v"),
            ["RETURN_VOID"],
        ], extra_classes=[task])
        assert len(run_main(app, config)) == 1

    @pytest.mark.parametrize("branchy", [False, True])
    def test_execute_returns_the_task(self, config, branchy):
        # AsyncTask.execute returns the task: its result is the receiver in
        # the heap the chain hands back, where doInBackground tainted f
        task = {"name": "Task", "parent_kind": "ASYNC_TASK", "static_fields": [], "methods": [
            helper("doInBackground/1", ["this", "a"],
                   [*taint_instr("w"), ["IPUT", "this", "f", "w"]], branchy),
        ]}
        app = make_app([
            ["NEW_INSTANCE", "task", "Task"],
            ["CONST_STRING", "x", "arg"],
            ["INVOKE_VIRTUAL", "r", "task", "Task.execute/1", ["x"]],
            ["MOVE", "y", "r"],
            ["IGET", "v", "y", "f"],
            *sink_instr("v"),
            ["RETURN_VOID"],
        ], extra_classes=[task])
        assert len(run_main(app, config)) == 1

    def test_start_returns_a_fresh_value(self, config):
        thread = {"name": "Worker", "parent_kind": "THREAD", "static_fields": [], "methods": [
            helper("run/0", ["this"], [], False),
        ]}
        app = make_app([
            ["NEW_INSTANCE", "t", "Worker"],
            *taint_instr("w"),
            ["IPUT", "t", "f", "w"],
            ["INVOKE_VIRTUAL", "r", "t", "Worker.start/0", []],
            ["MOVE", "y", "r"],
            *sink_instr("y"),
            ["RETURN_VOID"],
        ], extra_classes=[thread])
        assert run_main(app, config) == []


class TestInvokePrecedence:
    """What an invoke calls when its signature fits more than one stage:
    configured sources, then sinks and SMS send APIs, then app methods,
    then thread and task triggers, then the API models and the default
    rule.  Each test fails with its two stages swapped."""

    # the body of an app method whose run shows as a Log.i/2 leak
    LEAK_TO_LOG_I = [*taint_instr("w"), ["CONST_STRING", "t", "t"],
                     ["INVOKE_STATIC", None, "Log.i/2", ["t", "w"]]]

    def test_a_source_that_is_also_a_sink_only_taints(self, config):
        both = "Vault.read/1"
        config = AnalysisConfig(config.sources | {both}, config.sinks | {both},
                                list(config.sms_rules.values()),
                                config.originating_address_apis)
        app = make_app([
            *taint_instr("w"),
            ["NEW_INSTANCE", "v", "Vault"],
            ["INVOKE_VIRTUAL", "r", "v", both, ["w"]],
            *sink_instr("r"),
            ["RETURN_VOID"],
        ])
        # a fresh tag of its own, not w's, and no finding at the call itself
        assert [(w.source_apis, w.sink_api) for w in run_main(app, config)] == [
            (frozenset({both}), SINK)]

    def test_a_configured_sink_is_not_run_as_the_app_method(self, config):
        log = {"name": "Log", "parent_kind": "PLAIN", "static_fields": [], "methods": [
            helper("e/2", ["a", "b"], self.LEAK_TO_LOG_I, False),
        ]}
        app = make_app([*taint_instr("w"), *sink_instr("w"), ["RETURN_VOID"]],
                       extra_classes=[log])
        assert [w.sink_api for w in run_main(app, config)] == [SINK]

    def test_a_thread_that_defines_start_runs_it_and_not_run(self, config):
        thread = {"name": "Worker", "parent_kind": "THREAD", "static_fields": [], "methods": [
            helper("start/0", ["this"], [*taint_instr("w"), *sink_instr("w")], False),
            helper("run/0", ["this"], self.LEAK_TO_LOG_I, False),
        ]}
        app = make_app([
            ["NEW_INSTANCE", "t", "Worker"],
            ["INVOKE_VIRTUAL", None, "t", "Worker.start/0", []],
            ["RETURN_VOID"],
        ], extra_classes=[thread])
        assert [w.sink_api for w in run_main(app, config)] == [SINK]

    def test_a_static_start_runs_the_threads_run_without_a_receiver(self, config):
        thread = {"name": "T", "parent_kind": "THREAD", "static_fields": [], "methods": [
            helper("run/0", ["this"], [], False),
        ]}
        app = make_app([["INVOKE_STATIC", None, "T.start/0", []], ["RETURN_VOID"]],
                       extra_classes=[thread])
        with pytest.raises(AnalysisError, match=r"^static call to instance method T\.run/0$"):
            run_main(app, config)


class TestCompiledPlans:
    def test_each_method_compiled_once_per_app(self, models, config, monkeypatch):
        built = []
        real_build_cfg = analysis.build_cfg

        def counting_build_cfg(method):
            built.append(method)
            return real_build_cfg(method)

        monkeypatch.setattr(analysis, "build_cfg", counting_build_cfg)
        first, second = corpus_app("motivating_example"), corpus_app("motivating_example")
        assert analyze_app(first, models, config, m_max=2).sequences_analyzed > 1
        n = len(built)
        assert analyze_app(second, models, config, m_max=2).sequences_analyzed > 1
        # one build per method an app runs, and the second app builds its own
        assert n > 0 and len({id(m) for m in built}) == len(built) == 2 * n
        assert [m.full_signature for m in built[:n]] == [m.full_signature for m in built[n:]]

    def test_long_branch_chain_analyzes_without_recursion(self, models, config):
        n = 1200
        app = make_app(
            [["CONST_NUM", "c", 1]] + [["IF_GOTO", "c", "end"]] * n + [["RETURN_VOID"]],
            labels={"end": n + 1},
        )
        report = analyze_app(app, models, config, m_max=1)
        assert report.finished and report.error is None
        assert report.m_reached == 1 and not report.warnings

    # each app with its two m-max values, whether the second walks more
    # sequences, and the kinds of target its reached invokes resolve to: all
    # seven kinds, each in at least one app
    RESOLVED = [
        ("motivating_example", (1, 3), True, {"source", "sink", "sms rule", "default"}),
        ("async_task", (1, 3), False, {"source", "sink", "trigger"}),
        ("thread_flow", (1, 3), False, {"source", "sink", "trigger"}),
        ("sms_autoreply", (1, 3), False, {"source", "sink", "sms rule", "default"}),
        ("sms_hardcoded", (1, 3), False, {"sink", "sms rule", "default"}),
        ("wide_00", (1, 2), True, {"source", "sink", "app method", "handler", "default"}),
        ("deep_00", (1, 3), True, {"source", "sink", "app method"}),
    ]

    @pytest.mark.parametrize("name, levels, escalates, kinds", RESOLVED,
                             ids=[case[0] for case in RESOLVED])
    def test_each_invoke_is_resolved_once_per_app(self, name, levels, escalates, kinds,
                                                  models, config, monkeypatch, tmp_path):
        # whatever the number of sequences, each reached invoke is resolved
        # once per app, and api_handlers.lookup runs once for each that no
        # earlier stage claims, counted through the module attribute as the
        # tracer does; the motivating example escalates to m = 2
        lookups, methods, runs, resolved = [], set(), [], []
        real_lookup, real_analyze = api_handlers.lookup, analysis.analyze_method
        real_handle, real_resolve = analysis.handle_instruction, analysis._resolve
        monkeypatch.setattr(api_handlers, "lookup",
                            lambda *a: lookups.append(a) or real_lookup(*a))
        monkeypatch.setattr(analysis, "analyze_method",
                            lambda method, *a: methods.add(method) or real_analyze(method, *a))
        monkeypatch.setattr(analysis, "handle_instruction",
                            lambda instr, *a: runs.append(instr) or real_handle(instr, *a))
        monkeypatch.setattr(analysis, "_resolve",
                            lambda *a: resolved.append(real_resolve(*a)) or resolved[-1])
        if name.endswith("_00"):
            path = next(p for p in family_paths(name[:-3], tmp_path, monkeypatch, seed=1)
                        if os.path.basename(p) == name + ".app")
        else:
            path = corpus_path(name)

        def for_handlers(app, sig):
            cls, _, member = sig.rpartition(".")
            klass = app.klass(cls)
            trigger = klass is not None and (
                (klass.parent_kind, member.split("/")[0]) in analysis.DISCONTINUITIES)
            return not (sig in config.sources or sig in config.sinks or sig in config.sms_rules
                        or resolve_method(app, sig) is not None or trigger)

        counts = []
        for m_max in levels:
            app = load_app(path)
            del lookups[:], runs[:], resolved[:]
            methods.clear()
            report = analyze_app(app, models, config, m_max=m_max)
            reached = [(method, instr) for method in methods
                       for _, instrs, _ in analysis._compile(method)
                       for instr in instrs if invoke_call(instr) is not None]
            expected = sum(for_handlers(app, invoke_call(instr)[2]) for _, instr in reached)
            executed = sum(not isinstance(instr, Instruction) for instr in runs)
            counts.append((report.sequences_analyzed, executed, len(lookups)))
            assert len(lookups) == expected
            assert (expected > 0) == bool(kinds & {"handler", "default"})
            assert sorted(invoke.location for invoke in resolved) == sorted(
                (method.class_name, method.sig, instr.index) for method, instr in reached)
            assert set().union(*map(target_kinds, resolved)) == kinds
        (few, ran_few, once), (many, ran_many, again) = counts
        if escalates:
            assert few < many and ran_few < ran_many
        else:
            assert (few, ran_few) == (many, ran_many)
        assert once == again

    def test_empty_method_is_one_step(self):
        app = make_app([])
        steps = analysis._compile(app.classes[0].methods[0])
        assert steps == [(0, [], [])]

    def test_empty_on_create_reports_nothing(self, models, config):
        app = app_from_dict({
            "app_id": "empty",
            "classes": [{"name": "Main", "parent_kind": "ACTIVITY", "static_fields": [],
                         "methods": [{"sig": "onCreate/1", "params": ["this", "savedState"],
                                      "instructions": []}]}],
            "components": [{"class": "Main", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": []}],
        })
        report = analyze_app(app, models, config, m_max=2)
        assert report.error is None and report.finished
        assert report.warnings == [] and report.sequences_analyzed > 0

    def test_each_step_reads_its_reached_predecessors(self):
        methods = [m for path in all_corpus_paths()
                   for k in load_app(path).classes for m in k.methods]
        methods += [random_method(seed) for seed in range(RANDOM_METHODS)]
        for method in methods:
            dag = remove_back_edges(build_cfg(method))
            order = reverse_post_order(dag)
            steps = analysis._compile(method)
            exits = sorted(b for b in order if not dag.blocks[b].successors)
            joined = [(None, exits)] if len(exits) > 1 else []
            assert steps[0][2] == [], method.full_signature
            assert [(bid, [p for p, _ in reads]) for bid, _, reads in steps] == [
                (bid, sorted(p for p in dag.blocks[bid].predecessors if p in order))
                for bid in order] + joined, method.full_signature
            # each read block is marked last once, at its final reader
            marks = {}
            for _, _, reads in steps:
                for p, last in reads:
                    marks.setdefault(p, []).append(last)
            for p, lasts in marks.items():
                assert lasts == [False] * (len(lasts) - 1) + [True], (method.full_signature, p)

    # (instructions, labels, merge widths): every block but an exit is read
    # by each successor, and several exits by one final join
    SHAPES = {
        "chain": ([["CONST_NUM", "c", 1], ["GOTO", "a"], ["CONST_NUM", "x", 1],
                   ["GOTO", "b"], ["RETURN_VOID"]], {"a": 2, "b": 4}, []),
        "diamond": ([["CONST_NUM", "c", 1], ["IF_GOTO", "c", "else"], ["CONST_NUM", "x", 1],
                     ["GOTO", "join"], ["CONST_NUM", "x", 2], ["RETURN_VOID"]],
                    {"else": 4, "join": 5}, [2]),
        "three paths into one join": (
            [["CONST_NUM", "c", 1], ["IF_GOTO", "c", "join"], ["IF_GOTO", "c", "join"],
             ["CONST_NUM", "x", 1], ["RETURN_VOID"]], {"join": 4}, [3]),
        "loop": ([["CONST_NUM", "c", 1], ["IF_GOTO", "c", "out"], ["CONST_NUM", "x", 1],
                  ["GOTO", "head"], ["RETURN_VOID"]], {"head": 1, "out": 4}, [2]),
        "several exits": (
            [["CONST_NUM", "c", 1], ["IF_GOTO", "c", "b"], ["CONST_NUM", "x", 1],
             ["RETURN_VOID"], ["IF_GOTO", "c", "d"], ["RETURN_VOID"], ["RETURN_VOID"]],
            {"b": 4, "d": 6}, [3]),
    }
    # the deep copies of a run that writes no heap, by shape: the join of
    # `loop` and of `three paths into one join` adopts `x`, which only one
    # arm binds, so it is no direct join and joins copies
    JOIN_COPIES = {"loop": 1, "three paths into one join": 2}

    @staticmethod
    def snapshots(config, monkeypatch, instructions, labels):
        """(shares, deep copies, merge widths, readers per block in RPO) of
        one run of `main`."""
        app = make_app(instructions, labels=labels)
        method = app.classes[0].methods[0]
        dag = remove_back_edges(build_cfg(method))
        # each successor reads a block; an exit has at most one reader, the
        # final join, so it is never shared
        readers = [len(dag.blocks[b].successors) for b in reverse_post_order(dag)]
        shares, copies, merged = [], [], []
        real_share, real_copy = SymbolSpace.share, SymbolSpace.deep_copy
        real_merge = analysis.merge_spaces

        def counting_share(space):
            shares.append(space)
            return real_share(space)

        def counting_copy(space):
            copies.append(space)
            return real_copy(space)

        def recording_merge(frames):
            merged.append(len(frames))
            return real_merge(frames)

        monkeypatch.setattr(SymbolSpace, "share", counting_share)
        monkeypatch.setattr(SymbolSpace, "deep_copy", counting_copy)
        monkeypatch.setattr(analysis, "merge_spaces", recording_merge)
        ctx = AnalysisContext(app, config)
        analysis.analyze_method(method, ctx, SymbolSpace({"this": fresh_entry()}))
        return len(shares), len(copies), merged, readers

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_only_earlier_readers_copy_and_one_frame_is_not_merged(
            self, config, monkeypatch, shape):
        instructions, labels, widths = self.SHAPES[shape]
        shares, copies, merged, readers = self.snapshots(
            config, monkeypatch, instructions, labels)
        # each earlier reader of a block takes a share; nothing writes the
        # heap, so only a join that is not direct copies
        assert shares == sum(n - 1 for n in readers if n > 1)
        assert copies == self.JOIN_COPIES.get(shape, 0)
        assert merged == widths

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_a_write_in_the_first_arm_copies_each_share_once(
            self, config, monkeypatch, shape):
        instructions, labels, widths = self.SHAPES[shape]
        # the block of `x = 1`, the first arm of a branch, writes a field
        writing = [["IPUT", "this", "x", "c"] if i == ["CONST_NUM", "x", 1] else i
                   for i in instructions]
        assert writing != instructions
        shares, copies, merged, readers = self.snapshots(config, monkeypatch, writing, labels)
        assert shares == copies == sum(n - 1 for n in readers if n > 1)
        assert merged == widths


def cfg_steps(method):
    """`analysis._compile`'s steps of `method` built from its de-looped CFG,
    whatever its number of blocks."""
    return analysis._dag_steps(remove_back_edges(build_cfg(method)))


class TestOneBlockPlans:
    """A method of one basic block is planned as that block without a CFG,
    and the plan is the one its de-looped CFG gives."""

    # (instructions, labels): each is one basic block
    ONE_BLOCK = {
        "empty": ([], {}),
        "straight, labels at the start and the end": (
            [["CONST_NUM", "c", 1], ["CONST_NUM", "x", 2]], {"start": 0, "end": 2}),
        "a last goto to the start": ([["CONST_NUM", "c", 1], ["GOTO", "start"]], {"start": 0}),
        "a last branch to the start": (
            [["CONST_NUM", "c", 1], ["IF_GOTO", "c", "start"]], {"start": 0}),
        "a trailing return": ([["CONST_NUM", "c", 1], ["RETURN", "c"]], {}),
    }
    # (instructions, labels): each is one block but for one branch, return
    # or label
    SPLIT = {
        "a goto to the end": ([["CONST_NUM", "c", 1], ["GOTO", "end"]], {"end": 2}),
        "a branch to the start before the end": (
            [["CONST_NUM", "c", 1], ["IF_GOTO", "c", "start"], ["CONST_NUM", "x", 2]],
            {"start": 0}),
        "a return before the end": (
            [["CONST_NUM", "c", 1], ["RETURN", "c"], ["CONST_NUM", "x", 2]], {}),
        "a label inside": ([["CONST_NUM", "c", 1], ["CONST_NUM", "x", 2]], {"mid": 1}),
    }

    @staticmethod
    def counting(monkeypatch, name):
        """The methods that each call of `analysis.<name>` takes."""
        calls = []
        real = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda method: calls.append(method) or real(method))
        return calls

    @pytest.mark.parametrize("shape", sorted(ONE_BLOCK))
    def test_one_block_builds_no_cfg(self, monkeypatch, shape):
        instructions, labels = self.ONE_BLOCK[shape]
        method = make_app(instructions, labels=labels).classes[0].methods[0]
        built = self.counting(monkeypatch, "build_cfg")
        assert analysis._compile(method) == cfg_steps(method) == [(0, method.instructions, [])]
        assert built == []

    @pytest.mark.parametrize("shape", sorted(SPLIT))
    def test_several_blocks_build_a_cfg(self, monkeypatch, shape):
        instructions, labels = self.SPLIT[shape]
        method = make_app(instructions, labels=labels).classes[0].methods[0]
        built = self.counting(monkeypatch, "build_cfg")
        assert len(leaders(method)) > 1
        assert analysis._compile(method) == cfg_steps(method)
        assert built == [method]

    def test_random_methods_with_sparse_labels(self):
        # CI compares the 10,000 seeds after these
        one_block = 0
        for seed in range(1000):
            method = random_method(seed, sparse=True)
            one_block += len(leaders(method)) == 1
            assert analysis._compile(method) == cfg_steps(method), seed
        assert 0 < one_block < 1000

    @pytest.mark.parametrize("workload, m_max, compiled, built", [
        ("corpus", 3, 58, 3), ("wide", 2, 36, 2), ("deep", 3, 20, 6)])
    def test_a_pass_builds_a_cfg_per_method_of_several_blocks(
            self, monkeypatch, tmp_path, workload, m_max, compiled, built):
        # a pass at the benchmark's settings, seed 1: each method it runs is
        # compiled once, and only those of several blocks build a CFG
        if workload == "corpus":
            paths = all_corpus_paths()
        else:
            paths = family_paths(workload, tmp_path, monkeypatch, seed=1)
        compiles = self.counting(monkeypatch, "_compile")
        builds = self.counting(monkeypatch, "build_cfg")
        assert cli.run(cli.RunConfig(paths, m_max=m_max, out=io.StringIO())) == 0
        assert (len(compiles), len(builds)) == (compiled, built)


class TestDeepHeap:
    def test_long_field_chain_is_copied_and_merged_without_recursion(self, models, config):
        # a 1,200-node `next` chain built before one branch: the entry block
        # has two readers, and the first shares the chain, as nothing writes
        n = 1200
        chain = [["NEW_INSTANCE", "head", "Node"], ["MOVE", "cur", "head"]]
        for _ in range(n):
            chain += [["NEW_INSTANCE", "nxt", "Node"], ["IPUT", "cur", "next", "nxt"],
                      ["MOVE", "cur", "nxt"]]
        body = chain + taint_instr("x") + [
            ["IPUT", "cur", "value", "x"],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "join"],
            ["CONST_NUM", "c", 2],
            ["IGET", "v", "cur", "value"],       # join
            ["CONST_STRING", "tag", "t"],
            ["INVOKE_STATIC", None, "Log.d/2", ["tag", "v"]],
            ["RETURN_VOID"],
        ]
        app = make_app(body, labels={"join": len(chain) + 6})
        report = analyze_app(app, models, config, m_max=1)
        assert report.finished and report.error is None
        assert [(w.kind, w.sink_api) for w in report.warnings] == [("INFO_LEAK", "Log.d/2")]

    @staticmethod
    def chain(head, n):
        """Instructions that hang an `n`-node `next` chain off `head`, its
        last node in `cur`."""
        ins = [["NEW_INSTANCE", head, "Node"], ["MOVE", "cur", head]]
        for _ in range(n):
            ins += [["NEW_INSTANCE", "nxt", "Node"], ["IPUT", "cur", "next", "nxt"],
                    ["MOVE", "cur", "nxt"]]
        return ins

    @staticmethod
    def copies_of_run(app, config, monkeypatch):
        """(deep copies, findings) of one run of `main`."""
        copies = []
        real_copy = SymbolSpace.deep_copy

        def counting_copy(space):
            copies.append(space)
            return real_copy(space)

        monkeypatch.setattr(SymbolSpace, "deep_copy", counting_copy)
        found, _ = heap_run(app, config)
        monkeypatch.setattr(SymbolSpace, "deep_copy", real_copy)
        return len(copies), [(kind, sink) for kind, _, sink, _ in found]

    def test_a_writing_arm_copies_and_merges_the_chain_without_recursion(
            self, config, monkeypatch):
        # the arm that shares the 1,200-node chain writes a field, so the
        # frame the join takes copies the chain first, and the join merges
        # the two chains
        chain = self.chain("head", 1200)
        body = chain + taint_instr("x") + [
            ["IPUT", "cur", "value", "x"],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "join"],
            ["IPUT", "cur", "mark", "c"],
            ["IGET", "v", "cur", "value"],       # join
            ["CONST_STRING", "tag", "t"],
            ["INVOKE_STATIC", None, "Log.d/2", ["tag", "v"]],
            ["RETURN_VOID"],
        ]
        app = make_app(body, labels={"join": len(chain) + 6})
        assert self.copies_of_run(app, config, monkeypatch) == (1, [("INFO_LEAK", "Log.d/2")])
        assert shares_match(app, config)

    def test_a_join_of_two_long_chains_copies_once_without_recursion(
            self, config, monkeypatch):
        # the arm points `h` at a second 1,200-node chain; `h` holds an object
        # with fields, so the join is not direct: the input that shares the
        # first's heap takes its one copy, and the join pairs the two chains
        # node by node, so the second chain's tainted tail reaches the first
        n = 1200
        body = (self.chain("one", n) + [["CONST_STRING", "k", "k"], ["IPUT", "cur", "value", "k"]]
                + self.chain("two", n) + taint_instr("x") + [["IPUT", "cur", "value", "x"]])
        body += [
            ["MOVE", "h", "one"],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "join"],
            ["MOVE", "h", "two"],
            ["CONST_STRING", "tag", "t"],        # join
            ["INVOKE_STATIC", None, "Log.d/2", ["tag", "h"]],
            ["RETURN_VOID"],
        ]
        app = make_app(body, labels={"join": len(body) - 3})
        assert self.copies_of_run(app, config, monkeypatch) == (1, [("INFO_LEAK", "Log.d/2")])
        assert shares_match(app, config)


class TestLazySnapshots:
    """An earlier reader of a block shares the block's heap until a write
    (`SymbolSpace.share`); every run must equal the run where it takes a
    deep copy instead (`oracles.shares_match`)."""

    # name -> (instructions, labels, findings of the run on copies); each
    # fails if one rule of the sharing is dropped
    COUNTER_EXAMPLES = {
        # an inner join, run before the entry's fallthrough P, must not join
        # into the heap P still holds: a merge first copies the frames that
        # wait for their readers
        "inner merge before an unrelated arm": ([
            ["IGET", "r", "this", "f"],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "s1"],
            ["IGET", "z", "this", "f"],                       # P
            *sink_instr("z"),
            ["RETURN_VOID"],
            ["IF_GOTO", "c", "j"],                            # s1
            ["INVOKE_VIRTUAL", "r", "this", SOURCE, []],
            ["MOVE", "q", "r"],                               # j
            ["RETURN_VOID"],
        ], {"s1": 7, "j": 9}, []),
        # the target arm, which runs first, creates this.g: without a copy
        # first, the fallthrough's frame would hold it too, and the join
        # would not alias it with x
        "field creation in a shared arm": ([
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "a"],
            ["CONST_NUM", "k", 1],
            ["GOTO", "j"],
            ["IGET", "x", "this", "g"],                       # a
            ["INVOKE_VIRTUAL", "w", "this", SOURCE, []],      # j
            ["INVOKE_VIRTUAL", None, "x", "Foo.put/1", ["w"]],
            ["IGET", "z", "this", "g"],
            *sink_instr("z"),
            ["RETURN_VOID"],
        ], {"a": 4, "j": 5}, [("INFO_LEAK", SINK)]),
        # the join's pair `a` taints this.f's object, which its later pair
        # `d` reads from the other side: the frames are copied first
        "a join that reads what it changes": ([
            ["IGET", "a", "this", "f"],
            ["NEW_INSTANCE", "d", "Foo"],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "b"],
            ["GOTO", "j"],
            ["MOVE", "d", "a"],                               # b
            ["INVOKE_VIRTUAL", "a", "this", SOURCE, []],
            *sink_instr("d"),                                 # j
            ["RETURN_VOID"],
        ], {"b": 5, "j": 7}, []),
        # the join adopts `n`, which on copies is a copy of this.f's object
        # and not the object `a` holds
        "a join that adopts a shared object": ([
            ["IGET", "a", "this", "f"],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "b"],
            ["GOTO", "j"],
            ["MOVE", "n", "a"],                               # b
            ["INVOKE_VIRTUAL", "w", "this", SOURCE, []],      # j
            ["INVOKE_VIRTUAL", None, "n", "Foo.put/1", ["w"]],
            *sink_instr("a"),
            ["RETURN_VOID"],
        ], {"b": 4, "j": 5}, []),
        # the target arm, which runs first, taints this.f's object through
        # the default invoke rule; the fallthrough must not see it
        "a write by an API call in a shared arm": ([
            ["IGET", "a", "this", "f"],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "w"],
            ["IGET", "z", "this", "f"],
            *sink_instr("z"),
            ["RETURN_VOID"],
            ["INVOKE_VIRTUAL", "t", "this", SOURCE, []],      # w
            ["INVOKE_VIRTUAL", None, "a", "Foo.put/1", ["t"]],
            ["RETURN_VOID"],
        ], {"w": 7}, []),
        # append returns its receiver, which m then aliases: the join that
        # adopts m adopts an object of the heap, so it must join copies
        # first, though append wrote nothing here
        "a handler that returns its receiver": ([
            ["CONST_NUM", "c", 1],
            ["NEW_INSTANCE", "d", "Foo"],
            ["COLLECTION_GET", "a", "d", 0],
            ["IF_GOTO", "c", "j"],
            ["INVOKE_VIRTUAL", "m", "a", "StringBuilder.append/1", ["a"]],
            ["RETURN_VOID"],                                  # j
        ], {"j": 5}, []),
    }

    @pytest.mark.parametrize("case", sorted(COUNTER_EXAMPLES))
    def test_counter_example_matches_the_run_on_copies(self, config, monkeypatch, case):
        instructions, labels, findings = self.COUNTER_EXAMPLES[case]
        app = make_app(instructions, labels=labels)
        shares = []
        real_share = SymbolSpace.share
        monkeypatch.setattr(SymbolSpace, "share",
                            lambda space: shares.append(space) or real_share(space))
        assert shares_match(app, config)
        assert shares  # the run shares a heap
        monkeypatch.setattr(SymbolSpace, "share", SymbolSpace.deep_copy)
        found, _ = heap_run(app, config)
        assert [(kind, sink) for kind, _, sink, _ in found] == findings

    def test_random_heap_methods_match_the_runs_on_copies(self, config, monkeypatch):
        # seeds from 0; the CI oracle step runs the 10,000 seeds after these
        sharing = []
        real_share = SymbolSpace.share
        monkeypatch.setattr(SymbolSpace, "share",
                            lambda space: sharing.append(space) or real_share(space))
        mismatches, shared = [], 0
        for seed in range(RANDOM_HEAP_METHODS):
            app = random_heap_app(seed)
            del sharing[:]
            if not shares_match(app, config):
                mismatches.append(seed)
            shared += bool(sharing)
        assert mismatches == []
        assert shared > RANDOM_HEAP_METHODS // 3

    def test_a_handler_writes_only_its_own_frame(self):
        # every input carries its own tag and constant; a handler run on a
        # frame that shares its heap leaves the other sharer as it was, and
        # the frame as the same run leaves an unshared frame
        for name, (handler, reads_receiver, reads) in sorted(api_handlers.HANDLERS.items()):
            def frame():
                inputs = [value_entry({TaintTag("In.get%d/0" % i, ("C", "m/0", i))}, "v%d" % i)
                          for i in range(reads + 2)]
                receiver = inputs.pop(0) if reads_receiver else None
                regs = dict(enumerate(inputs), r=receiver) if receiver else dict(enumerate(inputs))
                return SymbolSpace(regs), receiver, inputs

            alone, receiver, args = frame()
            handler(alone, receiver, args)
            shared, receiver, args = frame()
            other = shared.share()
            before = fingerprint(other)
            handler(shared, receiver, args)
            assert fingerprint(other) == before, name
            assert fingerprint(shared) == fingerprint(alone), name


def _tagged(i, const=None):
    """A new string of its own tag, or a number if `const` is given."""
    if const is not None:
        return Entry(PRIMITIVE, const_value=const)
    return value_entry({TaintTag("In.get%d/0" % i, ("C", "m/0", i))})


class TestDirectJoins:
    """A join of frames that share the first's heap takes their differing
    registers pair by pair when the inputs' objects have no fields
    (`symbols._joins_directly`); every run must equal the run where each
    join is of private copies (`oracles.direct_joins_match`)."""

    @pytest.fixture()
    def direct(self, monkeypatch):
        """The results of `_joins_directly`, call by call."""
        results = []
        real = symbols._joins_directly
        monkeypatch.setattr(symbols, "_joins_directly",
                            lambda *args: results.append(real(*args)) or results[-1])
        return results

    def test_random_heap_methods_match_the_general_join(self, config, direct):
        # seeds from 0; the CI oracle step runs the 10,000 seeds after these
        mismatches, joined = [], 0
        for seed in range(RANDOM_HEAP_METHODS):
            del direct[:]
            if not direct_joins_match(stepped_heap_run, random_heap_app(seed), config):
                mismatches.append(seed)
            joined += any(direct)
        assert mismatches == []
        assert joined > RANDOM_HEAP_METHODS // 3

    @pytest.mark.parametrize("seed", [1, 7, 173])
    @pytest.mark.parametrize("family", ["wide", "deep"])
    def test_generated_family_matches_the_general_join(self, family, seed, models, config,
                                                       tmp_path, monkeypatch):
        paths = family_paths(family, tmp_path, monkeypatch, seed)
        import gen
        for path in paths:
            assert direct_joins_match(stepped_app_run, load_app(path), models, config,
                                      gen.FAMILIES[family].m_max)

    @staticmethod
    def frames(base, *inputs):
        """A space over the registers `base` and a share of it per input,
        each a dict whose names rebind the share's registers; the name
        `returned` sets its return value instead."""
        space = SymbolSpace({n: e for n, e in base.items() if n != "returned"})
        space.returned = base.get("returned")
        frames = [space] + [space.share() for _ in inputs]
        for frame, rebound in zip(frames[1:], inputs):
            for name, entry in rebound.items():
                if name == "returned":
                    frame.returned = entry
                else:
                    frame.regs[name] = entry
        return frames

    # name -> (base's registers, each input's rebound registers, whether
    # the join is direct); each input also shares `this` with the base
    CASES = {
        # taints join, a constant collapses, then a number and a string
        # collapse to a mutable object
        "strings and numbers": (
            {"x": 0, "y": (1, 5)}, [{"x": 2, "y": (3, 6)}, {"x": 4, "y": 7}], True),
        # a join that writes nothing still ends the share group
        "two alike strings": ({"x": "plain"}, [{"x": "plain"}], True),
        "a pair with fields": ({"x": 0}, [{"x": "fields"}], False),
        "a register only an input binds": ({"x": 0}, [{"x": 1, "z": 2}], False),
        "an input reads an object the join changes": (
            {"x": 0, "y": 1}, [{"x": "y", "y": 2}], False),
        "another return value": ({"x": 0}, [{"x": 1, "returned": 2}], False),
    }

    def build(self, case):
        """The case's frames, each object built afresh."""
        base, inputs, _ = self.CASES[case]
        made = {}

        def entry(spec):
            if spec == "fields":
                obj = fresh_entry()
                obj.fields["f"] = _tagged(9)
                return obj
            if spec == "y":  # the base's object at `y`
                return made["y"]
            if spec == "plain":
                return value_entry()
            return _tagged(*spec) if isinstance(spec, tuple) else _tagged(spec)

        made.update((name, entry(spec)) for name, spec in base.items())
        this = fresh_entry()
        return self.frames(dict(made, this=this),
                           *({n: entry(s) for n, s in rebound.items()} for rebound in inputs))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hand_made_join_matches_the_join_of_copies(self, case, direct):
        copies = [frame.deep_copy() for frame in self.build(case)]
        general = without_direct_joins(merge_spaces, self.build(case))
        joined = merge_spaces(self.build(case))
        assert direct == [self.CASES[case][2]]
        assert fingerprint(joined) == fingerprint(general) == fingerprint(merge_spaces(copies))
        assert joined.group is None

    def test_direct_joins_per_pass(self, tmp_path, monkeypatch, direct):
        merges = []
        real = analysis.merge_spaces
        monkeypatch.setattr(analysis, "merge_spaces",
                            lambda frames: merges.append(len(frames)) or real(frames))
        batches = {"corpus": (all_corpus_paths(), 3, 2)}
        for family, m_max in (("wide", 2), ("deep", 3)):
            batches[family] = (family_paths(family, tmp_path, monkeypatch, 1), m_max, 1)
        counts = {}
        for name, (paths, m_max, jobs) in batches.items():
            del merges[:], direct[:]
            config = cli.RunConfig(paths, m_max=m_max, jobs=jobs, out=io.StringIO())
            assert cli.run(config) == 0
            counts[name] = (sum(direct), len(direct), len(merges))
        # (direct joins, joins whose inputs all share the first's heap, joins)
        assert counts == {"corpus": (0, 21, 23), "wide": (160, 160, 184), "deep": (0, 0, 30)}


class TestLoops:
    @pytest.mark.parametrize("second_loop", [False, True])
    def test_loop_body_flow_reaches_code_after_loop(self, config, second_loop):
        # the first loop's body taints x; an empty second loop before the sink
        # must not cut the body's flow past the first loop
        loop2 = [["IF_GOTO", "c", "sink"], ["GOTO", "head2"]] if second_loop else []
        app = make_app([
            ["CONST_STRING", "x", "clean"],
            ["CONST_NUM", "c", 1],
            ["IF_GOTO", "c", "head2"],          # 2: first loop header
            *taint_instr("x"),
            ["GOTO", "head1"],
            *loop2,                             # 6: second loop header
            *sink_instr("x"),
            ["RETURN_VOID"],
        ], labels={"head1": 2, "head2": 6, "sink": 8 if second_loop else 6})
        assert len(run_main(app, config)) == 1


    def test_a_flow_into_the_next_iteration_is_not_reported(self, config):
        # the sink reads x before the body taints it: only a second pass of
        # the body leaks, and de-looping runs it once
        app = make_app([
            ["CONST_STRING", "x", "clean"],
            ["CONST_NUM", "c", 1],
            *sink_instr("x"),                   # 2: loop header
            *taint_instr("x"),
            ["IF_GOTO", "c", "head"],
            ["RETURN_VOID"],
        ], labels={"head": 2})
        assert run_main(app, config) == []


class TestKnownGaps:
    @pytest.mark.parametrize("branch,warnings", [(True, 0), (False, 1)])
    def test_an_alias_made_on_one_arm_is_lost_at_the_join(self, config, branch, warnings):
        # on the arm through `b = a`, b aliases a and the device id reaches
        # the sink; the join keeps the first input's alias structure, in
        # which a and b are two objects, so the branchy method reports nothing
        app = make_app([
            ["CONST_NUM", "c", 1],
            ["NEW_INSTANCE", "a", "Foo"],
            ["NEW_INSTANCE", "b", "Foo"],
            *([["IF_GOTO", "c", "join"]] if branch else []),
            ["MOVE", "b", "a"],
            *taint_instr("x"),                  # join
            ["IPUT", "a", "f", "x"],
            ["IGET", "y", "b", "f"],
            *sink_instr("y"),
            ["RETURN_VOID"],
        ], labels={"join": 5} if branch else {})
        assert len(run_main(app, config)) == warnings

    @pytest.mark.parametrize("branch,warnings", [(True, 0), (False, 1)])
    def test_an_alias_stored_in_a_field_on_one_arm_is_lost_at_the_join(
            self, config, branch, warnings):
        # the field-store variant: on the arm through `a.g = b`, reading
        # a.g back after the join gives b's object, which holds the device
        # id; the join keeps the first input's alias structure, in which
        # a.g is not b's object, so the branchy method reports nothing
        app = make_app([
            ["CONST_NUM", "c", 1],
            ["NEW_INSTANCE", "a", "Foo"],
            ["NEW_INSTANCE", "b", "Foo"],
            *([["IF_GOTO", "c", "join"]] if branch else []),
            ["IPUT", "a", "g", "b"],
            *taint_instr("x"),                  # join
            ["IPUT", "b", "f", "x"],
            ["IGET", "b", "a", "g"],
            ["IGET", "y", "b", "f"],
            *sink_instr("y"),
            ["RETURN_VOID"],
        ], labels={"join": 5} if branch else {})
        assert len(run_main(app, config)) == warnings


class TestSequenceState:
    def test_a_leak_that_needs_one_unit_twice_is_not_reported(self, models, config):
        # the second click sinks what the first stored; a sequence arranges
        # distinct permutation units, so no width runs the click twice.  The
        # empty onResume gives the plan four units, so escalation goes on
        app = app_from_dict({
            "app_id": "click_twice",
            "classes": [{"name": "Main", "parent_kind": "ACTIVITY", "static_fields": [],
                         "methods": [
                             {"sig": "onClick/0", "params": ["this"], "instructions": [
                                 ["IGET", "v", "this", "saved"],
                                 *sink_instr("v"),
                                 *taint_instr("d"),
                                 ["IPUT", "this", "saved", "d"],
                                 ["RETURN_VOID"],
                             ]},
                             {"sig": "onResume/0", "params": ["this"],
                              "instructions": [["RETURN_VOID"]]},
                         ]}],
            "components": [{"class": "Main", "kind": "ACTIVITY",
                            "aui_callbacks": ["onClick"], "misc_callbacks": []}],
        })
        for m_max in (1, 2, 3):
            report = analyze_app(app, models, config, m_max=m_max)
            assert report.m_reached == m_max and report.finished
            assert report.warnings == []

    def test_fields_reset_between_sequences(self, models, config):
        # onCreate taints a field, onResume sinks it: any single m=1 sequence
        # contains at most one createActivity, so cross-sequence leakage would
        # double-report; state resets keep it at exactly one warning per key
        app = corpus_app("activity_eveseq1")
        comp = app.components[0]
        ctx = AnalysisContext(app, config)
        plan = build_plan(models["ACTIVITY"], comp)
        analyze_component(app, comp, plan, 1, ctx)
        traces = {w.event_trace for w in ctx.warnings}
        # every raw warning saw the taint created within its own sequence
        assert all(t[0] == "createActivity" for t in traces)

    def test_statics_persist_across_callbacks_in_sequence(self, config):
        creator = {
            "sig": "onCreate/1", "params": ["this", "b"],
            "instructions": [
                *taint_instr("w"),
                ["SPUT", "G.secret", "w"],
                ["RETURN_VOID"],
            ],
            "labels": {},
        }
        reader = {
            "sig": "onResume/0", "params": ["this"],
            "instructions": [
                ["SGET", "v", "G.secret"],
                *sink_instr("v"),
                ["RETURN_VOID"],
            ],
            "labels": {},
        }
        doc = {
            "app_id": "statics",
            "classes": [{
                "name": "A", "parent_kind": "ACTIVITY", "static_fields": ["secret"],
                "methods": [creator, reader],
            }],
            "components": [{"class": "A", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": []}],
        }
        app = app_from_dict(doc)
        seq = sequence_of((0,), (
            Segment("boot", ("onCreate", "onResume")),
        ))
        ctx = AnalysisContext(app, config)
        run_sequence(app.components[0], seq, ctx)
        assert len(ctx.warnings) == 1

    def test_bundle_round_trip_through_branchy_callback(self, config):
        saver = {
            "sig": "onSaveInstanceState/1", "params": ["this", "out"],
            "instructions": [
                ["CONST_NUM", "c", 1],
                ["IF_GOTO", "c", "skip"],
                *taint_instr("w"),
                ["CONST_STRING", "k", "key"],
                ["INVOKE_VIRTUAL", None, "out", "Bundle.putString/2", ["k", "w"]],
                ["RETURN_VOID"],
            ],
            "labels": {"skip": 7},
        }
        restorer = {
            "sig": "onRestoreInstanceState/1", "params": ["this", "state"],
            "instructions": [
                ["CONST_STRING", "k", "key"],
                ["INVOKE_VIRTUAL", "v", "state", "Bundle.getString/1", ["k"]],
                *sink_instr("v"),
                ["RETURN_VOID"],
            ],
            "labels": {},
        }
        doc = {
            "app_id": "bundle",
            "classes": [{
                "name": "A", "parent_kind": "ACTIVITY", "static_fields": [],
                "methods": [saver, restorer],
            }],
            "components": [{"class": "A", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": []}],
        }
        app = app_from_dict(doc)
        seq = sequence_of((0,), (
            Segment("save", ("onSaveInstanceState",)),
            Segment("restore", ("onRestoreInstanceState",)),
        ))
        ctx = AnalysisContext(app, config)
        run_sequence(app.components[0], seq, ctx)
        assert len(ctx.warnings) == 1


class OracleSim:
    """Independent forward simulation for straight-line programs.

    Values are ('str', tainted) pairs or ('obj', heap_id); the heap maps ids
    to field dicts plus a collection taint bit.
    """

    def __init__(self):
        self.regs = {}
        self.heap = {}
        self.next_id = 0

    def alloc(self):
        self.next_id += 1
        self.heap[self.next_id] = {"fields": {}, "taint": False}
        return self.next_id

    def value_tainted(self, value, seen=None):
        seen = seen or set()
        kind, payload = value
        if kind == "str":
            return payload
        if payload in seen:
            return False
        seen.add(payload)
        cell = self.heap[payload]
        if cell["taint"]:
            return True
        return any(self.value_tainted(v, seen) for v in cell["fields"].values())

    def run(self, instructions):
        for ins in instructions:
            op = ins[0]
            if op == "CONST_STRING" or op == "CONST_NUM":
                self.regs[ins[1]] = ("str", False)
            elif op == "MOVE":
                self.regs[ins[1]] = self.regs[ins[2]]
            elif op == "NEW_INSTANCE":
                self.regs[ins[1]] = ("obj", self.alloc())
            elif op == "COLLECTION_NEW":
                self.regs[ins[1]] = ("obj", self.alloc())
            elif op == "IPUT":
                _, oid = self.regs[ins[1]]
                self.heap[oid]["fields"][ins[2]] = self.regs[ins[3]]
            elif op == "IGET":
                _, oid = self.regs[ins[2]]
                self.regs[ins[1]] = self.heap[oid]["fields"].get(ins[3], ("str", False))
            elif op == "COLLECTION_PUT":
                _, oid = self.regs[ins[1]]
                if self.value_tainted(self.regs[ins[3]]):
                    self.heap[oid]["taint"] = True
            elif op == "COLLECTION_GET":
                _, oid = self.regs[ins[2]]
                self.regs[ins[1]] = ("str", self.heap[oid]["taint"])
            elif op == "INVOKE_VIRTUAL" and ins[3] == SOURCE:
                self.regs[ins[1]] = ("str", True)
            elif op == "INVOKE_STATIC" and ins[2] == SINK:
                pass  # verdicts are computed by OracleSimVerdict
            elif op == "RETURN_VOID":
                pass
            else:
                raise AssertionError("oracle got unexpected op %r" % op)


def _random_program(rng):
    instrs = []
    strings = []
    objects = []
    sinks = 0
    instrs.append(["NEW_INSTANCE", "tm", "TelephonyManager"])
    for i in range(rng.randint(8, 18)):
        choice = rng.random()
        reg = "r%d" % i
        if choice < 0.2:
            instrs.append(["CONST_STRING", reg, "s"])
            strings.append(reg)
        elif choice < 0.35:
            instrs.append(["INVOKE_VIRTUAL", reg, "tm", SOURCE, []])
            strings.append(reg)
        elif choice < 0.5 and strings:
            instrs.append(["MOVE", reg, rng.choice(strings)])
            strings.append(reg)
        elif choice < 0.6:
            instrs.append(["NEW_INSTANCE", reg, "Obj"])
            objects.append(reg)
        elif choice < 0.75 and objects and strings:
            instrs.append(["IPUT", rng.choice(objects), "f%d" % rng.randint(0, 2),
                           rng.choice(strings)])
        elif choice < 0.85 and objects:
            instrs.append(["IGET", reg, rng.choice(objects), "f%d" % rng.randint(0, 2)])
            strings.append(reg)
        elif strings:
            tag = "t%d" % i
            instrs.append(["CONST_STRING", tag, "t"])
            instrs.append(["INVOKE_STATIC", None, SINK, [tag, rng.choice(strings)]])
            sinks += 1
    instrs.append(["RETURN_VOID"])
    return instrs, sinks


class TestBruteForceEquivalence:
    def test_straight_line_verdicts_match_oracle(self, config):
        rng = random.Random(20260809)
        for trial in range(60):
            instrs, sinks = _random_program(rng)
            if not sinks:
                continue
            app = make_app(instrs)
            warnings = run_main(app, config)
            warned_at = sorted({
                loc["instruction"] for w in warnings for loc in w.locations
                if loc["role"] == "sink"
            })
            expect_at = sorted(
                idx for idx, ins in enumerate(instrs)
                if ins[0] == "INVOKE_STATIC" and ins[2] == SINK
                and OracleSimVerdict(instrs, idx)
            )
            assert warned_at == expect_at, (trial, instrs)


def OracleSimVerdict(instructions, sink_index):
    """Oracle verdict for the sink at one instruction index."""
    sim = OracleSim()
    for i, ins in enumerate(instructions):
        if i == sink_index:
            return any(sim.value_tainted(sim.regs[r]) for r in ins[3])
        sim.run([ins])
    raise AssertionError("sink index not reached")
