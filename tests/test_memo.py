"""The callback-run memo of `analyze_component` against runs without it.

Each callback of a tree node's unit looks up its run from an equal start
state in the app's memo, across m levels and across the units that share
it.  A replayed run must emit what running the callback would: the raw
warnings of an analysis with the memo equal those of
one whose memo keeps nothing, and the deduplicated warnings equal flat
replay's.
"""

import os
import random

import pytest

from lifetaint import analysis, cli, load_app
from lifetaint.analysis import AnalysisContext, analyze_component
from lifetaint.cli import analyze_app
from lifetaint.detectors import dedup_warnings
from lifetaint.ir import app_from_dict
from lifetaint.sequences import (
    LIFECYCLE_SUBSEQUENCE, PermutationPlan, PermutationUnit, Segment, build_plan,
)
from lifetaint.symbols import (
    IMMUTABLE_REF, PRIMITIVE, Entry, SymbolSpace, TaintTag, fingerprint, fresh_entry,
    value_entry,
)

from conftest import all_corpus_paths
from test_prefix_sharing import (
    KillAt, Work, family_paths, flat_component, plans, report_dict,
)


class Forgetful(dict):
    """A memo that keeps nothing, so that every tree node runs its unit: an
    analysis given one keeps no unit record either."""

    def __setitem__(self, key, value):
        pass


def escalate(app, models, config, m_max, analyze, memo=None):
    """Every level m = 1..m_max of every component on one context, in
    `analyze_app`'s order but without stopping at a warning: (component, m,
    raw warnings, sequences) per component and level."""
    ctx = AnalysisContext(app, config)
    if memo is not None:
        ctx.memo, ctx.unit_runs = memo, type(memo)()
    out = []
    for component, plan, m in plans(app, models, m_max):
        before = ctx.sequences_analyzed
        found = analyze(app, component, plan, m, ctx)
        out.append((component.class_name, m, found, ctx.sequences_analyzed - before))
    return out


def raw(levels):
    return [(c, m, [w.to_dict() for w in found], n) for c, m, found, n in levels]


def deduplicated(levels):
    return [(c, m, [w.to_dict() for w in dedup_warnings(found)], n)
            for c, m, found, n in levels]


def assert_memo_is_transparent(app, models, config, m_max):
    memo, runs = {}, []
    real_run = analysis._run_callback

    def run(*args):
        runs.append(args)
        return real_run(*args)

    with pytest.MonkeyPatch.context() as counting:
        counting.setattr(analysis, "_run_callback", run)
        with_memo = escalate(app, models, config, m_max, analyze_component, memo)
    # each (component, callback, start state) ran once, over all the levels
    assert len(runs) == len(memo)
    without = escalate(app, models, config, m_max, analyze_component, Forgetful())
    assert raw(with_memo) == raw(without)
    flat = escalate(app, models, config, m_max, flat_component)
    assert deduplicated(with_memo) == deduplicated(flat)
    return with_memo


def assert_report_matches_flat_replay(app, models, config, m_max, monkeypatch):
    tree = analyze_app(app, models, config, m_max)
    with monkeypatch.context() as flat_run:
        flat_run.setattr(cli, "analyze_component", flat_component)
        flat = analyze_app(app, models, config, m_max)
    assert report_dict(tree) == report_dict(flat)


class TestEscalation:
    @pytest.mark.parametrize("path", all_corpus_paths(), ids=os.path.basename)
    def test_corpus_app_matches_runs_without_the_memo(self, path, models, config,
                                                      monkeypatch):
        app = load_app(path)
        assert_memo_is_transparent(app, models, config, 3)
        assert_report_matches_flat_replay(app, models, config, 3, monkeypatch)

    @pytest.mark.parametrize("family", ["wide", "deep"])
    def test_generated_family_matches_runs_without_the_memo(self, family, models, config,
                                                            tmp_path, monkeypatch):
        m_max = 3 if family == "deep" else 2
        for path in family_paths(family, tmp_path, monkeypatch):
            app = load_app(path)
            assert_memo_is_transparent(app, models, config, m_max)
            assert_report_matches_flat_replay(app, models, config, m_max, monkeypatch)


# -- units that share a leading callback --------------------------------------

def shared_lead_app():
    """An activity whose callbacks leak the device id and leave the state
    they start from, so every callback of every sequence starts from one
    state; onResume leaks, then calls a helper."""
    leak = [["INVOKE_STATIC", "w", "TelephonyManager.getDeviceId/0", []],
            ["CONST_STRING", "t", "t"],
            ["INVOKE_STATIC", None, "Log.d/2", ["t", "w"]]]
    methods = [
        {"sig": "onCreate/1", "params": ["this", "b"], "labels": {},
         "instructions": [["RETURN_VOID"]]},
        {"sig": "onPause/0", "params": ["this"], "labels": {},
         "instructions": leak + [["RETURN_VOID"]]},
        {"sig": "onResume/0", "params": ["this"], "labels": {},
         "instructions": leak + [["INVOKE_DIRECT", None, "this", "A.helper/0", []],
                                 ["RETURN_VOID"]]},
        {"sig": "onStop/0", "params": ["this"], "labels": {},
         "instructions": [["RETURN_VOID"]]},
        {"sig": "helper/0", "params": ["this"], "labels": {},
         "instructions": [["RETURN_VOID"]]},
    ]
    return app_from_dict({
        "app_id": "shared",
        "classes": [{"name": "A", "parent_kind": "ACTIVITY", "static_fields": [],
                     "methods": methods}],
        "components": [{"class": "A", "kind": "ACTIVITY",
                        "aui_callbacks": [], "misc_callbacks": []}],
    })


def shared_lead_plan():
    """Units (onPause, onResume) and (onPause, onStop) after onCreate."""
    units = tuple(
        PermutationUnit(LIFECYCLE_SUBSEQUENCE, ("pauseActivity", event), (
            Segment("pauseActivity", ("onPause",)), Segment(event, (callback,))))
        for event, callback in (("resumeActivity", "onResume"), ("stopActivity", "onStop")))
    return PermutationPlan(units, (Segment("createActivity", ("onCreate",)),))


def warnings_of(found):
    return [w.to_dict() for w in dedup_warnings(found)]


class TestSharedCallbacks:
    def test_a_shared_callback_runs_once(self, config, monkeypatch):
        app = shared_lead_app()
        component = app.components[0]
        work = Work(monkeypatch)
        ctx = AnalysisContext(app, config)
        runs = []
        for m in (1, 2):
            before = len(work.runs)
            tree = analyze_component(app, component, shared_lead_plan(), m, ctx)
            runs += work.runs[before:]
            flat = flat_component(app, component, shared_lead_plan(), m,
                                  AnalysisContext(app, config))
            assert tree and warnings_of(tree) == warnings_of(flat)
        # both units start with onPause from one state, at both levels
        assert runs == ["onCreate", "onPause", "onResume", "onStop"]
        assert ctx.sequences_analyzed == 2 + 2

    def test_a_kill_in_the_second_callback_keeps_the_first(self, config, monkeypatch):
        app = shared_lead_app()
        component = app.components[0]
        work = Work(monkeypatch)
        # the first sequence reads the clock at its boundary, then in
        # onCreate, onPause, onResume and, fifth, in onResume's helper
        clock = KillAt(monkeypatch, 0, read=5)
        ctx = AnalysisContext(app, config, 1.0, clock)
        killed = analyze_component(app, component, shared_lead_plan(), 1, ctx)
        assert ctx.killed and ctx.sequences_analyzed == 0 and ctx.method_stack == []
        assert work.runs == ["onCreate", "onPause", "onResume"]
        # the killed onResume reports its leak, and only onPause's run and
        # the prefix's are kept
        assert [w.event_trace[-1] for w in killed] == ["pauseActivity", "resumeActivity"]
        assert sorted(callback for _, callback, _ in ctx.memo) == ["onCreate", "onPause"]

        clock.k = float("inf")
        ctx.killed = False
        resumed = analyze_component(app, component, shared_lead_plan(), 2, ctx)
        # onPause ran once, before the kill; onResume once more, to the end
        assert work.runs == ["onCreate", "onPause", "onResume", "onResume", "onStop"]
        fresh = AnalysisContext(app, config)
        expected = analyze_component(app, component, shared_lead_plan(), 2, fresh)
        assert resumed and [w.to_dict() for w in resumed] == [w.to_dict() for w in expected]


# -- seeded random activities -------------------------------------------------

LIFECYCLE = {
    "onResume": ["this"],
    "onPause": ["this"],
    "onSaveInstanceState": ["this", "outState"],
    "onRestoreInstanceState": ["this", "state"],
}
TEMPS = ("a", "b", "c", "d")
FIELDS = ("f", "g", "next")
STATICS = ("S.x", "S.y")
# 1, 1.0 and True are equal under ==; "1" is the one an SMS send reads as a
# hard-coded recipient
CONSTANTS = (1, 1.0, True, "1")


def random_body(rng, params, cls):
    """A straight or branchy body over the instance, its fields, statics,
    collections, constants, a source, two sinks, an API that taints its
    receiver and the app helper `cls.keep`."""
    bound = list(params)
    ins, labels = [], {}

    def use():
        return rng.choice(bound)

    def bind():
        reg = rng.choice(TEMPS)
        if reg not in bound:
            bound.append(reg)
        return reg

    open_branches = []
    for _ in range(rng.randrange(2, 12)):
        op = rng.randrange(16)
        if op == 0:
            value = rng.choice(CONSTANTS)
            kind = "CONST_STRING" if isinstance(value, str) else "CONST_NUM"
            ins.append([kind, bind(), value])
        elif op == 1:
            ins.append(["INVOKE_STATIC", bind(), "TelephonyManager.getDeviceId/0", []])
        elif op == 2:
            ins.append(["INVOKE_STATIC", None, "Log.d/2", [use(), use()]])
        elif op == 3:
            ins.append(["INVOKE_STATIC", None, "SmsManager.sendTextMessage/5",
                        [use() for _ in range(5)]])
        elif op == 4:
            src, arg = use(), use()
            ins.append(["INVOKE_VIRTUAL", bind(), src, "String.concat/1", [arg]])
        elif op == 5:
            ins.append(["NEW_INSTANCE", bind(), "Box"])
        elif op == 6:
            obj = use()
            ins.append(["IGET", bind(), obj, rng.choice(FIELDS)])
        elif op in (7, 8):
            # objects may store themselves, each other or the instance:
            # field cycles and aliases that outlive the callback
            ins.append(["IPUT", use(), rng.choice(FIELDS), use()])
        elif op == 9:
            ins.append(["SGET", bind(), rng.choice(STATICS)])
        elif op == 10:
            ins.append(["SPUT", rng.choice(STATICS), use()])
        elif op == 11:
            ins.append(["COLLECTION_NEW", bind()])
        elif op == 12:
            coll, src = use(), use()
            ins.append(["COLLECTION_PUT", coll, 0, src] if rng.random() < 0.5
                       else ["COLLECTION_GET", bind(), coll, 0])
        elif op == 13:
            arg = use()
            ins.append(["INVOKE_VIRTUAL", bind(), "this", cls + ".keep/1", [arg]])
        elif op == 14:
            # taints an object in place: equal heaps with other taints
            ins.append(["INVOKE_VIRTUAL", None, use(), "Box.put/1", [use()]])
        else:
            label = "L%d" % len(ins)
            ins.append(["IF_GOTO", use(), label])
            open_branches.append(label)
        if open_branches and rng.random() < 0.4:
            labels[open_branches.pop()] = len(ins)
    for label in open_branches:
        labels[label] = len(ins)
    ins.append(["RETURN_VOID"])
    return ins, labels


def random_activity(seed):
    """One or two activity classes that implement the same callbacks, each
    with its own bodies."""
    rng = random.Random(seed)
    callbacks = {"onCreate": ["this", "savedState"]}
    for name in rng.sample(sorted(LIFECYCLE), rng.randrange(len(LIFECYCLE) + 1)):
        callbacks[name] = LIFECYCLE[name]
    aui = ["onClick%d" % i for i in range(rng.randrange(4))]
    callbacks.update((name, ["this"]) for name in aui)
    classes = []
    for cls in ("A", "B")[:1 + (rng.random() < 0.25)]:
        methods = [{"sig": "keep/1", "params": ["this", "p"], "labels": {},
                    "instructions": [["IPUT", "this", "kept", "p"], ["RETURN", "p"]]}]
        for name, params in callbacks.items():
            body, labels = random_body(rng, params, cls)
            methods.append({"sig": "%s/%d" % (name, len(params) - 1), "params": params,
                            "labels": labels, "instructions": body})
        classes.append({"name": cls, "parent_kind": "ACTIVITY", "static_fields": [],
                        "methods": methods})
    return app_from_dict({
        "app_id": "random%d" % seed,
        "classes": classes,
        "components": [{"class": c["name"], "kind": "ACTIVITY", "aui_callbacks": aui,
                        "misc_callbacks": []} for c in classes],
    })


class TestRandomActivities:
    def test_memo_matches_runs_without_it(self, models, config, monkeypatch):
        runs, replays = [], []
        real_run, real_visit = analysis._run_callback, analysis._visit

        def run(*args):
            runs.append(None)
            return real_run(*args)

        def visit(*args):
            before = len(runs)
            node = real_visit(*args)
            if len(runs) == before:
                replays.append(node)
            return node

        monkeypatch.setattr(analysis, "_run_callback", run)
        monkeypatch.setattr(analysis, "_visit", visit)
        warned = 0
        for seed in range(200):
            app = random_activity(seed)
            units = len(build_plan(models["ACTIVITY"], app.components[0]).units)
            # three levels where they stay cheap to replay flat
            levels = assert_memo_is_transparent(app, models, config, 3 if units <= 5 else 2)
            warned += any(found for _, _, found, _ in levels)
        replayed_warnings = sum(1 for node in replays if node.found)
        # the differential means something only if the apps leak and the
        # memo replays runs, warnings among them
        assert warned >= 50
        assert len(replays) >= 1000 and replayed_warnings >= 100


# -- the fingerprint ----------------------------------------------------------

def space_with_fields(order):
    this = fresh_entry()
    for name in order:
        this.fields[name] = Entry(IMMUTABLE_REF, const_value="v")
    return SymbolSpace({"this": this})


class TestFingerprint:
    def test_equal_spaces_have_equal_fingerprints(self):
        a, b = space_with_fields("fg"), space_with_fields("fg")
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) == fingerprint(a.deep_copy())

    def test_field_insertion_order_counts(self):
        assert fingerprint(space_with_fields("fg")) != fingerprint(space_with_fields("gf"))

    def test_register_and_static_order_counts(self):
        x, y = fresh_entry(), fresh_entry()
        assert (fingerprint(SymbolSpace({"x": x, "y": y}))
                != fingerprint(SymbolSpace({"y": y, "x": x})))
        assert (fingerprint(SymbolSpace({}, {"S.x": x, "S.y": y}))
                != fingerprint(SymbolSpace({}, {"S.y": y, "S.x": x})))

    def test_an_alias_is_not_an_equal_copy(self):
        obj = fresh_entry()
        aliased = SymbolSpace({"a": obj, "b": obj})
        copied = SymbolSpace({"a": fresh_entry(), "b": fresh_entry()})
        assert fingerprint(aliased) != fingerprint(copied)
        # the same holds for an alias reached through a field
        this = fresh_entry()
        this.fields["f"] = obj
        assert (fingerprint(SymbolSpace({"this": this}, {"S.x": obj}))
                != fingerprint(SymbolSpace({"this": this}, {"S.x": obj.deep_copy()})))

    def test_a_field_cycle_is_not_a_chain(self):
        cyclic, chained = fresh_entry(), fresh_entry()
        cyclic.fields["next"] = cyclic
        chained.fields["next"] = fresh_entry()
        assert (fingerprint(SymbolSpace({"this": cyclic}))
                != fingerprint(SymbolSpace({"this": chained})))

    @pytest.mark.parametrize("kind", [PRIMITIVE, IMMUTABLE_REF])
    def test_constants_of_equal_value_and_other_types_differ(self, kind):
        prints = {fingerprint(SymbolSpace({"v": Entry(kind, const_value=value)}))
                  for value in CONSTANTS}
        assert len(prints) == len(CONSTANTS)

    def test_taints_kind_and_origin_count(self):
        tag = TaintTag("TelephonyManager.getDeviceId/0", ("A", "onCreate/1", 0))
        prints = {fingerprint(SymbolSpace({"v": entry})) for entry in (
            value_entry(), value_entry({tag}), fresh_entry(),
            value_entry(const_value="1"),
        )}
        assert len(prints) == 4

    def test_outer_tables_and_the_return_value_count(self):
        obj = fresh_entry()
        plain = SymbolSpace({"x": obj})
        called = SymbolSpace({"x": obj}, {}, ({},))
        returned = SymbolSpace({"x": obj})
        returned.returned = obj
        assert len({fingerprint(s) for s in (plain, called, returned)}) == 3
