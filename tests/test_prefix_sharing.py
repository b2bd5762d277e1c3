"""The permutation-tree walk in `analyze_component` against flat replay.

A flat run analyzes every generated sequence from a fresh component state
through `oracles.run_sequence`; the walk shares each prefix between the sequences
that start with it.  Both must give the same deduplicated warnings, the
same set of raw warnings with their event traces, and count the same
sequences, and the walk must run each tree node's callbacks once.
"""

import itertools
import json
import os
from math import perm

import pytest

from lifetaint import analysis, cli, load_app
from lifetaint.analysis import AnalysisContext, analyze_component
from lifetaint.cli import analyze_app, build_plan, receiver_plan
from lifetaint.detectors import dedup_warnings
from lifetaint.ir import app_from_dict
from lifetaint.sequences import (
    AUI_CALLBACK, LIFECYCLE_SUBSEQUENCE, PermutationPlan, PermutationUnit, Segment,
    generate_m_way,
)
from lifetaint.symbols import SymbolSpace

from conftest import ROOT, all_corpus_paths, corpus_app, corpus_path
from oracles import run_sequence


def flat_component(app, component, plan, m, ctx):
    """analyze_component as a flat replay: each sequence from a fresh state."""
    before = len(ctx.warnings)
    for seq in analysis.generate_m_way(plan, m):
        if ctx.out_of_time():
            ctx.killed = True
            break
        run_sequence(component, seq, ctx)
        ctx.sequences_analyzed += 1
    return ctx.warnings[before:]


def plans(app, models, m_max):
    for m in range(1, m_max + 1):
        for component in app.components:
            if component.kind == "RECEIVER":
                plan = receiver_plan(component)
            else:
                plan = build_plan(models[component.kind], component)
            if plan.units and m <= len(plan.units):
                yield component, plan, m


def per_level(path, models, config, m_max, analyze):
    """(component, m, deduplicated warnings, raw warnings, sequences) for
    every component at every m up to m_max, each level on a fresh context.
    The raw warnings are a sorted set, each as JSON, with its event trace
    and m: the walk reports a tree node's findings once, for the first
    sequence through it, and flat replay once per sequence."""
    app = load_app(path)
    out = []
    for component, plan, m in plans(app, models, m_max):
        ctx = AnalysisContext(app, config)
        found = analyze(app, component, plan, m, ctx)
        out.append((component.class_name, m,
                    [w.to_dict() for w in dedup_warnings(found)],
                    sorted({json.dumps(w.to_dict(), sort_keys=True) for w in found}),
                    ctx.sequences_analyzed))
    return out


def family_paths(family, tmp_path, monkeypatch, seed=5):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen
    return gen.write_family(family, seed, str(tmp_path / family))


def leaky_app(family, tmp_path, monkeypatch):
    """The path of the family's app with the planted leak."""
    paths = family_paths(family, tmp_path, monkeypatch)
    with open(tmp_path / family / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    return next(p for p in paths
                if expected[os.path.splitext(os.path.basename(p))[0]]["warnings"])


class TestOracle:
    @pytest.mark.parametrize("path", all_corpus_paths(), ids=os.path.basename)
    def test_corpus_app_matches_flat_replay(self, path, models, config):
        tree = per_level(path, models, config, 3, analyze_component)
        assert tree == per_level(path, models, config, 3, flat_component)

    @pytest.mark.parametrize("seed", [1, 5, 7])
    @pytest.mark.parametrize("family", ["wide", "deep"])
    def test_generated_family_matches_flat_replay(self, family, seed, models, config,
                                                  tmp_path, monkeypatch):
        m_max = 3 if family == "deep" else 2
        warned = 0
        for path in family_paths(family, tmp_path, monkeypatch, seed):
            tree = per_level(path, models, config, m_max, analyze_component)
            assert tree == per_level(path, models, config, m_max, flat_component)
            warned += any(warnings for _, _, warnings, _, _ in tree)
        assert warned == 1  # the family's planted leak


def unit_app(n, distinct=False):
    """An activity with onCreate and n AUI callbacks, each one unit.  The
    callbacks do nothing, or, with `distinct`, callback i writes its own
    static, so that every ordering of units leaves its own state."""
    aui = ["onClick%d" % i for i in range(n)]
    methods = [{"sig": "onCreate/0", "params": ["this"], "labels": {},
                "instructions": [["RETURN_VOID"]]}]
    for i, name in enumerate(aui):
        body = [["CONST_STRING", "v", "x"], ["SPUT", "A.s%d" % i, "v"]] if distinct else []
        methods.append({"sig": name + "/0", "params": ["this"], "labels": {},
                        "instructions": body + [["RETURN_VOID"]]})
    return app_from_dict({
        "app_id": "units",
        "classes": [{"name": "A", "parent_kind": "ACTIVITY", "static_fields": [],
                     "methods": methods}],
        "components": [{"class": "A", "kind": "ACTIVITY",
                        "aui_callbacks": aui, "misc_callbacks": []}],
    }), aui


def unit_plan(aui):
    units = tuple(PermutationUnit(AUI_CALLBACK, (name,), (Segment(name, (name,)),))
                  for name in aui)
    return PermutationPlan(units, (Segment("create", ("onCreate",)),))


class Work:
    """Top-level callback calls, state copies, callback runs
    (`_run_callback`) and memo replays (tree nodes visited without a run)
    of an analysis."""

    def __init__(self, monkeypatch):
        self.calls, self.copies, self.runs, self.replays = [], [], [], []
        real_call, real_copy = analysis._call, SymbolSpace.deep_copy
        real_run, real_visit = analysis._run_callback, analysis._visit

        def call(target, ctx, *args):
            if not ctx.method_stack:
                self.calls.append(target.name)
            return real_call(target, ctx, *args)

        def copy(space):
            self.copies.append(space)
            return real_copy(space)

        def run(component, callback, state, ctx):
            self.runs.append(callback)
            return real_run(component, callback, state, ctx)

        def visit(component, segments, *args):
            runs = len(self.runs)
            node = real_visit(component, segments, *args)
            if len(self.runs) == runs:
                self.replays.append(segments)
            return node

        monkeypatch.setattr(analysis, "_call", call)
        monkeypatch.setattr(SymbolSpace, "deep_copy", copy)
        monkeypatch.setattr(analysis, "_run_callback", run)
        monkeypatch.setattr(analysis, "_visit", visit)


def nodes(n, m):
    """The tree nodes of depth 1..m over n units."""
    return sum(perm(n, k) for k in range(1, m + 1))


def escalate(app, aui, work, ctx):
    """Levels m = 1..len(aui) on `ctx`: (calls, runs, replays, copies) per level."""
    levels = []
    for m in range(1, len(aui) + 1):
        before = (len(work.calls), len(work.runs), len(work.replays), len(work.copies))
        analyze_component(app, app.components[0], unit_plan(aui), m, ctx)
        after = (len(work.calls), len(work.runs), len(work.replays), len(work.copies))
        levels.append(tuple(b - a for a, b in zip(before, after)))
    return levels


class TestWork:
    @pytest.mark.parametrize("n,m", [(1, 1), (4, 1), (4, 2), (4, 3), (5, 2), (3, 3)])
    def test_each_tree_node_runs_its_unit_once(self, n, m, config, monkeypatch):
        # every ordering leaves its own state, so no node finds its run in
        # the memo, and the counts are those of the tree walk itself
        app, aui = unit_app(n, distinct=True)
        work = Work(monkeypatch)
        ctx = AnalysisContext(app, config)
        analyze_component(app, app.components[0], unit_plan(aui), m, ctx)
        assert ctx.sequences_analyzed == perm(n, m)
        assert work.replays == []
        # one prefix, then one callback run per node of depth 1..m; a flat
        # replay would make perm(n, m) * (1 + m) calls
        assert work.calls.count("onCreate") == 1
        assert len(work.calls) == len(work.runs) == 1 + nodes(n, m)
        # every run is in place on its parent's kept state; the state a
        # node left is kept, as a copy, once a child starts from it: the
        # prefix leaves the fresh state it started from, and every other
        # node of depth 1..m-1 a state of its own
        assert len(work.copies) == nodes(n, m - 1)
        assert len(ctx.memo) == len(work.runs)
        assert len(ctx.states) == 1 + nodes(n, m - 1)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_escalation_reruns_no_unit(self, n, config, monkeypatch):
        # no-op units leave the state they start from, so every node of
        # every level has the same start state
        app, aui = unit_app(n)
        work = Work(monkeypatch)
        ctx = AnalysisContext(app, config)
        # level 1 runs the prefix and each unit once, each in place on the
        # fresh state, which none of them changes, so nothing is copied;
        # every node of a later level is replayed.  (calls, runs, replays,
        # copies):
        expected = [(1 + n, 1 + n, 0, 0)]
        expected += [(0, 0, 1 + nodes(n, m), 0) for m in range(2, n + 1)]
        assert escalate(app, aui, work, ctx) == expected
        assert ctx.sequences_analyzed == sum(perm(n, m) for m in range(1, n + 1))
        # one run per unit and one for the prefix, all from one state
        assert len(ctx.memo) == 1 + n and len(ctx.states) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_escalation_runs_only_the_new_leaves(self, n, config, monkeypatch):
        # every node has its own start state, so level m replays the nodes
        # of the levels before it and runs only its new leaves, of depth m
        app, aui = unit_app(n, distinct=True)
        work = Work(monkeypatch)
        ctx = AnalysisContext(app, config)
        # the state a node left is copied when its first child starts from
        # it, at the level after its own: level m copies its perm(n, m - 1)
        # parents of depth m - 1, and level 1 none, as the prefix leaves the
        # fresh state
        expected = [(1 + n, 1 + n, 0, 0)]
        expected += [(perm(n, m), perm(n, m), 1 + nodes(n, m - 1), perm(n, m - 1))
                     for m in range(2, n + 1)]
        assert escalate(app, aui, work, ctx) == expected
        # each (component, callback, start state) ran exactly once; the
        # leaves' states are never started from, so never kept
        assert len(work.runs) == len(ctx.memo) == 1 + nodes(n, n)
        assert len(ctx.states) == 1 + nodes(n, n - 1)


class KillAt:
    """A clock whose budget runs out once sequence k+1 has been yielded,
    at the `read`-th clock read from then on: the first read is that
    sequence's boundary check, later ones are `check_time` calls inside it."""

    def __init__(self, monkeypatch, k, read=1):
        self.k, self.read = k, read
        self.yielded = self.reads = 0

        def counting(plan, m):
            for seq in generate_m_way(plan, m):
                self.yielded += 1
                yield seq

        monkeypatch.setattr(analysis, "generate_m_way", counting)

    def __call__(self):
        if self.yielded <= self.k:
            return 0.0
        self.reads += 1
        return 0.0 if self.reads < self.read else 1e9


def out_at_read(n):
    """A clock whose budget runs out at its n-th read."""
    reads = itertools.count(1)
    return lambda: 0.0 if next(reads) < n else 1e9


def report_dict(report):
    return ([w.to_dict() for w in report.warnings], report.sequences_analyzed,
            report.m_reached, report.finished)


class TestBudgetKill:
    @pytest.mark.parametrize("name", ["motivating_example", "activity_eveseq2",
                                      "service_eveseq1"])
    def test_kill_at_a_sequence_boundary_matches_flat_replay(self, name, models, config,
                                                             monkeypatch):
        app = corpus_app(name)
        total = analyze_app(app, models, config, m_max=2).sequences_analyzed
        every = range(total) if total <= 20 else (0, 1, 13, total // 2, total - 1)
        for k in every:
            tree = analyze_app(app, models, config, m_max=2, budget_secs=1.0,
                               clock=KillAt(monkeypatch, k))
            with monkeypatch.context() as flat_run:
                flat_run.setattr(cli, "analyze_component", flat_component)
                flat = analyze_app(app, models, config, m_max=2, budget_secs=1.0,
                                   clock=KillAt(flat_run, k))
            assert tree.sequences_analyzed == k and not tree.finished
            assert report_dict(tree) == report_dict(flat)

    def test_kill_inside_a_callback_keeps_the_runs_finished_before_it(self, models, config,
                                                                      monkeypatch):
        app = corpus_app("motivating_example")
        component = app.components[0]
        plan = build_plan(models["ACTIVITY"], component)
        # the kill comes inside the last sequence of level 1, a leaf: the
        # run of its unit's first callback, on a copy of the prefix's state,
        # stops half done, and must leave no memo entry that level 2 would
        # replay
        runs, finished = [], []
        real_run = analysis._run_callback

        def run(*args):
            runs.append(args[1])
            real_run(*args)
            finished.append(args[1])

        monkeypatch.setattr(analysis, "_run_callback", run)
        last = len(plan.units) - 1
        clock = KillAt(monkeypatch, last, read=2)
        ctx = AnalysisContext(app, config, 1.0, clock)
        analyze_component(app, component, plan, 1, ctx)
        assert ctx.killed and ctx.sequences_analyzed == last and clock.reads == 2
        assert ctx.method_stack == []
        # every callback run that finished before the kill, not the killed one
        assert len(runs) == len(finished) + 1
        assert len(ctx.memo) == len(finished)

        clock.k = float("inf")
        ctx.killed = False
        resumed = analyze_component(app, component, plan, 2, ctx)
        fresh = AnalysisContext(app, config)
        expected = analyze_component(app, component, plan, 2, fresh)
        assert resumed and [w.to_dict() for w in resumed] == [w.to_dict() for w in expected]
        assert ctx.sequences_analyzed == last + fresh.sequences_analyzed

    def test_killed_unit_keeps_what_it_found(self, models, config):
        # onCreate leaks, then calls a helper; the budget runs out at the
        # helper's check_time, inside the prefix's run, after the leak
        app = app_from_dict({
            "app_id": "killed",
            "classes": [{"name": "A", "parent_kind": "ACTIVITY", "static_fields": [],
                         "methods": [
                {"sig": "onCreate/1", "params": ["this", "b"], "labels": {}, "instructions": [
                    ["INVOKE_STATIC", "w", "TelephonyManager.getDeviceId/0", []],
                    ["CONST_STRING", "t", "t"],
                    ["INVOKE_STATIC", None, "Log.d/2", ["t", "w"]],
                    ["INVOKE_DIRECT", None, "this", "A.helper/0", []],
                    ["RETURN_VOID"]]},
                {"sig": "helper/0", "params": ["this"], "labels": {},
                 "instructions": [["RETURN_VOID"]]}]}],
            "components": [{"class": "A", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": []}],
        })
        # analyze_app reads the clock for its start time, the deadline, the
        # sequence boundary, onCreate and then the helper
        report = analyze_app(app, models, config, m_max=2, budget_secs=1.0,
                             clock=out_at_read(5))
        assert [(w.kind, w.event_trace) for w in report.warnings] == [
            ("INFO_LEAK", ("createActivity",))]
        assert not report.finished and report.sequences_analyzed == 0

        # the same kill point one read earlier: a context reads no start time
        component = app.components[0]
        ctx = AnalysisContext(app, config, 1.0, out_at_read(4))
        analyze_component(app, component, build_plan(models["ACTIVITY"], component), 1, ctx)
        assert ctx.killed and ctx.sequences_analyzed == 0
        assert [(w.kind, w.sink_api, w.m) for w in ctx.warnings] == [("INFO_LEAK", "Log.d/2", 1)]
        assert ctx.memo == {}


# -- kills among a parent's leaves --------------------------------------------

def parent_sample(count):
    """The first, second, middle and last of `count` parents."""
    return sorted({0, 1, count // 2, count - 1} & set(range(count)))


def leaf_kills(app, models, m_max, sample=range):
    """KillAt's k for the first, second and last leaf under each parent that
    `sample(parents)` picks, at every level, in the order `analyze_app` meets
    them.  `generate_m_way` yields a parent's leaves one after another, so
    leaf j of parent p of a level is its sequence p * width + j."""
    before = 0
    for _, plan, m in plans(app, models, m_max):
        n = len(plan.units)
        width = n - m + 1            # the leaves under one parent
        for parent in sample(perm(n, m - 1)):
            for leaf in sorted({0, min(1, width - 1), width - 1}):
                yield before + parent * width + leaf, leaf
        before += perm(n, m)


def kill_mismatches(path, models, config, m_max, sample=range):
    """((k, read) of every kill whose report differs from flat replay's,
    (k, read) of the kills that stopped inside a parent's later leaf) for
    `leaf_kills`, each at the first and at the second clock read after
    sequence k is yielded.  The first read is the sequence's boundary
    check; the second is inside the sequence's run if it enters a method,
    else the next boundary's.  Flat replay is killed at the boundary of the
    sequence the walk stopped in.  A kill past the escalation's last
    sequence is skipped."""
    app = load_app(path)
    total = analyze_app(app, models, config, m_max=m_max).sequences_analyzed
    bad, inside, flat = [], [], {}
    with pytest.MonkeyPatch.context() as patch:
        for k, leaf in leaf_kills(app, models, m_max, sample):
            if k >= total:
                break
            for read in (1, 2):
                tree = analyze_app(app, models, config, m_max=m_max, budget_secs=1.0,
                                   clock=KillAt(patch, k, read))
                stopped = tree.sequences_analyzed
                if stopped not in flat:
                    with patch.context() as flat_run:
                        flat_run.setattr(cli, "analyze_component", flat_component)
                        flat[stopped] = report_dict(analyze_app(
                            app, models, config, m_max=m_max, budget_secs=1.0,
                            clock=KillAt(flat_run, stopped)))
                if report_dict(tree) != flat[stopped] or stopped not in (k, k + read - 1):
                    bad.append((k, read))
                elif read == 2 and stopped == k and leaf:
                    inside.append((k, read))
    return bad, inside


class TestSiblingKills:
    """The walk runs a parent's later leaves in one loop; a kill there ends
    the level as a kill at any other sequence does."""

    def test_motivating_example_every_parent(self, models, config):
        bad, inside = kill_mismatches(corpus_path("motivating_example"), models, config, 2)
        assert bad == [] and inside

    @pytest.mark.parametrize("family", ["wide", "deep"])
    def test_leaky_family_app(self, family, models, config, tmp_path, monkeypatch):
        path = leaky_app(family, tmp_path, monkeypatch)
        import gen
        bad, inside = kill_mismatches(path, models, config, gen.FAMILIES[family].m_max,
                                      parent_sample)
        assert bad == [] and inside

    @pytest.mark.parametrize("name,m_max", [("motivating_example", 2), ("wide", 2), ("deep", 3)])
    def test_one_clock_read_per_sequence_and_per_method(self, name, m_max, models, config,
                                                        tmp_path, monkeypatch):
        # each level reads the clock once at every sequence's boundary and
        # once as each method is entered, nothing else
        path = (corpus_path(name) if name == "motivating_example"
                else leaky_app(name, tmp_path, monkeypatch))
        app = load_app(path)
        reads, entered = [], []
        real = analysis.analyze_method

        def enter(*args):
            entered.append(args[0])
            return real(*args)

        monkeypatch.setattr(analysis, "analyze_method", enter)
        ctx = AnalysisContext(app, config, clock=lambda: reads.append(1) or 0.0)
        for component, plan, m in plans(app, models, m_max):
            del reads[:], entered[:]
            before = ctx.sequences_analyzed
            analyze_component(app, component, plan, m, ctx)
            sequences = ctx.sequences_analyzed - before
            assert sequences == perm(len(plan.units), m) and not ctx.killed
            assert len(reads) == sequences + len(entered)


# -- unit records -------------------------------------------------------------

def pair_app():
    """An activity with onCreate and onClick0-3, each of which writes its own
    static, so that every ordering of units leaves its own state.  onClick0
    also reads the device id into a static, which onClick1 logs before it
    calls a helper."""
    def method(sig, body):
        return {"sig": sig, "params": ["this"], "labels": {},
                "instructions": body + [["RETURN_VOID"]]}

    def mark(i):
        return [["CONST_STRING", "v", "x"], ["SPUT", "A.s%d" % i, "v"]]

    return app_from_dict({
        "app_id": "pairs",
        "classes": [{"name": "A", "parent_kind": "ACTIVITY", "static_fields": [], "methods": [
            method("onCreate/0", []),
            method("onClick0/0", mark(0) + [
                ["INVOKE_STATIC", "w", "TelephonyManager.getDeviceId/0", []],
                ["SPUT", "A.id", "w"]]),
            method("onClick1/0", mark(1) + [
                ["SGET", "w", "A.id"],
                ["CONST_STRING", "t", "t"],
                ["INVOKE_STATIC", None, "Log.d/2", ["t", "w"]],
                ["INVOKE_DIRECT", None, "this", "A.helper/0", []]]),
            method("onClick2/0", mark(2)),
            method("onClick3/0", mark(3)),
            method("helper/0", [])]}],
        "components": [{"class": "A", "kind": "ACTIVITY",
                        "aui_callbacks": [], "misc_callbacks": []}],
    })


def pair_plan():
    """Two units of two callbacks each, in events of their own names, after
    onCreate."""
    units = tuple(
        PermutationUnit(LIFECYCLE_SUBSEQUENCE, pair, tuple(Segment(cb, (cb,)) for cb in pair))
        for pair in (("onClick0", "onClick1"), ("onClick2", "onClick3")))
    return PermutationPlan(units, (Segment("create", ("onCreate",)),))


class Lookups(dict):
    """A callback memo that counts its lookups."""

    count = 0

    def get(self, key):
        self.count += 1
        return super().get(key)


class TestUnitRecords:
    def test_a_replayed_unit_makes_no_memo_lookup(self, config, monkeypatch):
        app, plan = pair_app(), pair_plan()
        component = app.components[0]
        ctx = AnalysisContext(app, config)
        ctx.memo = Lookups()
        visits, runs = [], []
        real_visit, real_run = analysis._visit, analysis._run_callback

        def run(*args):
            runs.append(args[1])
            return real_run(*args)

        def visit(component, segments, *args):
            lookups, ran = ctx.memo.count, len(runs)
            node = real_visit(component, segments, *args)
            visits.append((segments, len(runs) > ran, ctx.memo.count - lookups))
            return node

        monkeypatch.setattr(analysis, "_run_callback", run)
        monkeypatch.setattr(analysis, "_visit", visit)
        first, second = (unit.segments for unit in plan.units)
        analyze_component(app, component, plan, 1, ctx)
        # (unit, whether it ran a callback, callback-memo lookups) per node
        assert visits == [(plan.prefix, True, 1), (first, True, 2), (second, True, 2)]
        del visits[:]
        found = analyze_component(app, component, plan, 2, ctx)
        # each unit after the prefix is replayed from its record, without a
        # lookup per callback; after the other unit it starts from a new state
        assert visits == [(plan.prefix, False, 0), (first, False, 0), (second, True, 2),
                          (second, False, 0), (first, True, 2)]
        # the replayed leak is reported at its own segment of the sequence
        assert [(w.event_trace, w.m) for w in found] == [
            (("create", "onClick0", "onClick1"), 2),
            (("create", "onClick2", "onClick3", "onClick0", "onClick1"), 2)]
        flat = flat_component(app, component, plan, 2, AnalysisContext(app, config))
        assert ([w.to_dict() for w in dedup_warnings(found)]
                == [w.to_dict() for w in dedup_warnings(flat)])

    def test_kill_inside_a_units_second_callback_leaves_no_record(self, config, monkeypatch):
        app, plan = pair_app(), pair_plan()
        component = app.components[0]
        runs, finished = [], []
        real_run = analysis._run_callback

        def run(*args):
            runs.append(args[1])
            real_run(*args)
            finished.append(args[1])

        monkeypatch.setattr(analysis, "_run_callback", run)
        # the first sequence reads the clock at its boundary, then in
        # onCreate, onClick0, onClick1 and, fifth, in onClick1's helper,
        # after onClick1's leak
        clock = KillAt(monkeypatch, 0, read=5)
        ctx = AnalysisContext(app, config, 1.0, clock)
        killed = analyze_component(app, component, plan, 1, ctx)
        assert ctx.killed and ctx.sequences_analyzed == 0 and clock.reads == 5
        assert ctx.method_stack == []
        assert runs == ["onCreate", "onClick0", "onClick1"]
        assert finished == ["onCreate", "onClick0"]
        assert [w.event_trace for w in killed] == [("create", "onClick0", "onClick1")]
        # the callbacks that finished are memoised; of the units, only the
        # prefix finished, and the killed unit left no record
        assert sorted(callback for _, callback, _ in ctx.memo) == ["onClick0", "onCreate"]
        assert [segments for _, segments, _ in ctx.unit_runs] == [plan.prefix]

        clock.k = float("inf")
        ctx.killed = False
        resumed = analyze_component(app, component, plan, 2, ctx)
        # the first unit reruns from the prefix's state: onClick0's run is
        # taken from the memo, and onClick1 runs again, to the end
        assert runs[3:] == ["onClick1", "onClick2", "onClick3",
                            "onClick2", "onClick3", "onClick0", "onClick1"]
        fresh = AnalysisContext(app, config)
        expected = analyze_component(app, component, plan, 2, fresh)
        assert resumed and [w.to_dict() for w in resumed] == [w.to_dict() for w in expected]
        assert ctx.sequences_analyzed == fresh.sequences_analyzed
