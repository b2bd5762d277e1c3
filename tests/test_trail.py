"""Callbacks run in place on their kept start state, against runs on copies.

`_visit` runs a callback that misses the memo on the kept state it starts
from, logs its heap writes on `symbols.trail` and undoes them; the state
the run left is rebuilt from the trail only when a step first starts from
it (`analysis._number`).  `oracles.trail_mismatches` checks every such run
against the same run on a deep copy, and the tests below make each logged
write site reach a kept object at least once.
"""

import io
import os

import pytest

from lifetaint import cli, load_app, symbols
from lifetaint.analysis import AnalysisContext, _fresh_state, analyze_component
from lifetaint.ir import app_from_dict
from lifetaint.sequences import AUI_CALLBACK, PermutationPlan, PermutationUnit, Segment
from lifetaint.symbols import fingerprint

from conftest import all_corpus_paths, corpus_path
from oracles import random_heap_app, repeat_levels, trail_mismatches
from test_prefix_sharing import KillAt, family_paths, plans


class TestTrailOracle:
    @pytest.mark.parametrize("path", all_corpus_paths(), ids=os.path.basename)
    def test_corpus_app(self, path, models, config):
        app = load_app(path)
        assert trail_mismatches(app, config, list(plans(app, models, 3))) == []

    @pytest.mark.parametrize("seed", [1, 5, 7])
    @pytest.mark.parametrize("family", ["wide", "deep"])
    def test_generated_family(self, family, seed, models, config, tmp_path, monkeypatch):
        m_max = 3 if family == "deep" else 2
        for path in family_paths(family, tmp_path, monkeypatch, seed):
            app = load_app(path)
            assert trail_mismatches(app, config, list(plans(app, models, m_max))) == []

    def test_random_heap_apps(self, config):
        # each app's main runs three times in a row, and every run's end is
        # numbered, so each trail is redone too
        bad = {}
        for seed in range(1000):
            app = random_heap_app(seed)
            found = trail_mismatches(app, config, repeat_levels(app), number_all=True)
            if found:
                bad[seed] = found
        assert bad == {}


def activity(on_create, on_click):
    """An activity whose onCreate and onClick0 run the (instructions,
    labels) `on_create` and `on_click` and then return, with a helper/0
    that returns; and its levels for `trail_mismatches`: onClick0 once
    after onCreate, at m = 1."""
    def method(sig, params, code):
        body, labels = code
        return {"sig": sig, "params": params, "labels": labels,
                "instructions": body + [["RETURN_VOID"]]}

    app = app_from_dict({
        "app_id": "trail",
        "classes": [{"name": "A", "parent_kind": "ACTIVITY", "static_fields": [], "methods": [
            method("onCreate/1", ["this", "b"], on_create),
            method("onClick0/0", ["this"], on_click),
            method("helper/0", ["this"], straight())]}],
        "components": [{"class": "A", "kind": "ACTIVITY",
                        "aui_callbacks": [], "misc_callbacks": []}],
    })
    unit = PermutationUnit(AUI_CALLBACK, ("onClick0",), (Segment("onClick0", ("onClick0",)),))
    plan = PermutationPlan((unit,), (Segment("create", ("onCreate",)),))
    return app, [(app.components[0], plan, 1)]


def arms(first, second, then=()):
    """(instructions, labels) of a branch: the fall-through arm runs
    `first`, the taken arm `second`, and both then run `then`."""
    body = [["CONST_NUM", "c", 1], ["IF_GOTO", "c", "second"]] + first + [["GOTO", "join"]]
    labels = {"second": len(body)}
    body += second
    labels["join"] = len(body)
    return body + list(then), labels


def straight(*body):
    return list(body), {}


# the number 1 and String.valueOf(1): equal constants of two kinds, which
# a join makes one mutable object with the constant 1
NUMBER = [["CONST_NUM", "v", 1]]
VALUE_OF = [["CONST_NUM", "n", 1], ["INVOKE_STATIC", "v", "String.valueOf/1", ["n"]]]
KEEP_ONE = arms(NUMBER, VALUE_OF, [["IPUT", "this", "f", "v"]])

# site -> (onCreate, onClick0): onCreate leaves an object in this.f of the
# kept state, and onClick0 changes it, or `this`, through the site.  In
# onClick0's branches, an arm that reads this.f into v holds the kept
# object itself, as IGET shares a mutable object; where neither arm
# writes the heap, the join merges v's two objects directly, in place.
SITES = {
    # the taken arm runs first and writes h on the kept `this`, so the
    # fall-through arm writes g on a copy, into which the join then adopts
    # h: were only g undone, the redone copy would list h before g
    "_join adopts a field": (
        straight(), arms([["IPUT", "this", "g", "c"]], [["IPUT", "this", "h", "c"]])),
    "_join drops a constant": (
        KEEP_ONE, arms([["IGET", "v", "this", "f"]], [["CONST_NUM", "v", 2]])),
    "_join collapses a kind": (
        straight(["NEW_INSTANCE", "v", "Box"], ["IPUT", "this", "f", "v"]),
        arms([["IGET", "v", "this", "f"]], [["COLLECTION_NEW", "v"]])),
    "SGET binds a missing static": (straight(), straight(["SGET", "v", "A.s"])),
    "add_taints taints it": (
        straight(["NEW_INSTANCE", "v", "Box"], ["IPUT", "this", "f", "v"]),
        straight(["IGET", "v", "this", "f"],
                 ["INVOKE_STATIC", "w", "TelephonyManager.getDeviceId/0", []],
                 ["INVOKE_VIRTUAL", None, "v", "Box.put/1", ["w"]])),
    "builder_append's constant": (
        KEEP_ONE, straight(["IGET", "s", "this", "f"], ["CONST_STRING", "x", "x"],
                           ["INVOKE_VIRTUAL", None, "s", "StringBuilder.append/1", ["x"]])),
}


class TestWriteSites:
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_a_write_to_a_kept_object_is_undone(self, site, config):
        app, levels = activity(*SITES[site])
        assert trail_mismatches(app, config, levels, number_all=True) == []


class TestKillAndError:
    def test_a_kill_inside_a_run_undoes_it(self, config, monkeypatch):
        # onCreate writes the instance and a static, leaks, then calls a
        # helper, whose budget check kills the run; the first sequence
        # reads the clock at its boundary, in onCreate and in the helper
        leak = [["INVOKE_STATIC", "w", "TelephonyManager.getDeviceId/0", []],
                ["CONST_STRING", "t", "t"], ["INVOKE_STATIC", None, "Log.d/2", ["t", "w"]]]
        app, levels = activity(
            straight(*leak[:1], ["IPUT", "this", "f", "w"], ["SPUT", "A.s", "w"], *leak[1:],
                     ["INVOKE_DIRECT", None, "this", "A.helper/0", []]),
            straight(["IGET", "w", "this", "f"], *leak[1:]))
        [(component, plan, m)] = levels
        clock = KillAt(monkeypatch, 0, read=3)
        ctx = AnalysisContext(app, config, 1.0, clock)
        killed = analyze_component(app, component, plan, m, ctx)
        assert ctx.killed and ctx.sequences_analyzed == 0 and clock.reads == 3
        assert [w.event_trace for w in killed] == [("create",)]
        # the run wrote the fresh state in place and is undone
        assert symbols.trail is None and ctx.memo == {}
        [(number, state)] = ctx.states.values()
        assert fingerprint(state) == fingerprint(_fresh_state())

        clock.k = float("inf")
        ctx.killed = False
        resumed = analyze_component(app, component, plan, m, ctx)
        expected = analyze_component(app, component, plan, m, AnalysisContext(app, config))
        assert [w.event_trace for w in resumed] == [("create",), ("create", "onClick0")]
        assert [w.to_dict() for w in resumed] == [w.to_dict() for w in expected]

    def test_an_analysis_error_inside_a_run_spares_the_next_app(self, tmp_app):
        # onCreate writes the instance and a static, then reads a register
        # no instruction bound
        broken = tmp_app({
            "app_id": "broken",
            "classes": [{"name": "A", "parent_kind": "ACTIVITY", "static_fields": [],
                         "methods": [{"sig": "onCreate/1", "params": ["this", "b"],
                                      "labels": {}, "instructions": [
                             ["CONST_STRING", "v", "x"], ["IPUT", "this", "f", "v"],
                             ["SPUT", "A.s", "v"], ["MOVE", "a", "ghost"],
                             ["RETURN_VOID"]]}]}],
            "components": [{"class": "A", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": []}],
        })
        good = corpus_path("motivating_example")

        def reports(paths):
            out = io.StringIO()
            cli.run(cli.RunConfig(app_paths=paths, out=out))
            assert symbols.trail is None
            return out.getvalue()

        assert '"error": "use of undefined register' in reports([broken])
        both, alone = reports([broken, good]), reports([good])
        assert both.endswith(alone) and alone.count("motivating_example") == 1
