import io
import itertools
import math
import os

import pytest

from lifetaint import cli, load_app, load_models, sequences
from lifetaint.ir import app_from_dict
from lifetaint.lifecycle import derive_paths
from lifetaint.sequences import (
    AUI_CALLBACK, LIFECYCLE_SUBSEQUENCE, MISC_CALLBACK, PermutationPlan, Segment, PermutationUnit,
    _distinct_paths, _implemented, build_plan, generate_m_way, receiver_plan,
)

from conftest import ROOT, all_corpus_paths, corpus_app
from oracles import callback_sequences, callbacks_of, replay_events


def component_with(names, kind="ACTIVITY", aui=(), misc=()):
    """A component whose class implements exactly `names`, as empty methods."""
    doc = {
        "app_id": "synthetic",
        "classes": [{
            "name": "C",
            "parent_kind": kind,
            "static_fields": [],
            "methods": [
                {"sig": "%s/0" % n, "params": ["this"],
                 "instructions": [["RETURN_VOID"]], "labels": {}}
                for n in names
            ],
        }],
        "components": [{
            "class": "C", "kind": kind,
            "aui_callbacks": list(aui), "misc_callbacks": list(misc),
        }],
    }
    return app_from_dict(doc).components[0]


SERVICE_CALLBACKS = ["onCreate", "onStartCommand", "onBind", "onUnbind",
                     "onRebind", "onDestroy"]
MOTIV_CALLBACKS = ["onCreate", "onRestoreInstanceState", "onResume",
                   "onUserLeaveHint", "onSaveInstanceState"]


class TestCallbackSequences:
    def test_service_full_component_has_ten(self, models):
        comp = component_with(SERVICE_CALLBACKS, kind="SERVICE")
        assert len(callback_sequences(models["SERVICE"], comp)) == 10

    def test_motivating_example_has_twelve(self, models):
        comp = component_with(MOTIV_CALLBACKS)
        assert len(callback_sequences(models["ACTIVITY"], comp)) == 12

    def test_empty_component_yields_nothing(self, models):
        comp = component_with(["helper"])
        assert callback_sequences(models["ACTIVITY"], comp) == []

    def test_no_duplicates(self, models):
        comp = component_with(MOTIV_CALLBACKS)
        seqs = callback_sequences(models["ACTIVITY"], comp)
        assert len(seqs) == len(set(seqs))

    def test_stop_and_unbind_orderings_collapse(self, models):
        # the two stop/unbind orderings produce one callback sequence
        comp = component_with(SERVICE_CALLBACKS, kind="SERVICE")
        seqs = callback_sequences(models["SERVICE"], comp)
        assert seqs.count(("onCreate", "onBind", "onStartCommand",
                           "onUnbind", "onDestroy")) == 1


class TestUnits:
    def test_motivating_units(self, models):
        app = corpus_app("motivating_example")
        comp = app.components[0]
        units = build_plan(models["ACTIVITY"], comp).units
        assert len(units) == 13
        assert sum(1 for u in units if u.kind == AUI_CALLBACK) == 1
        assert callbacks_of(units[-1].segments) == ("onBtnClicked",)

    def test_zero_aui_units_are_lifecycle_only(self, models):
        comp = component_with(MOTIV_CALLBACKS)
        units = build_plan(models["ACTIVITY"], comp).units
        assert all(u.kind == "LIFECYCLE_SUBSEQUENCE" for u in units)
        assert len(units) == 12

    def test_service_misc_callback_unit(self, models):
        comp = component_with(SERVICE_CALLBACKS + ["onLowMemory"], kind="SERVICE",
                              misc=["onLowMemory"])
        units = build_plan(models["SERVICE"], comp).units
        assert units[-1].kind == MISC_CALLBACK
        assert callbacks_of(units[-1].segments) == ("onLowMemory",)

    def test_activity_prefix_is_restricted_create(self, models):
        app = corpus_app("motivating_example")
        plan = build_plan(models["ACTIVITY"], app.components[0])
        assert callbacks_of(plan.prefix) == ("onCreate", "onResume")

    def test_service_plan_has_no_prefix(self, models):
        comp = component_with(SERVICE_CALLBACKS, kind="SERVICE")
        plan = build_plan(models["SERVICE"], comp)
        assert plan.prefix == ()

    def test_receiver_plan(self):
        comp = component_with(["onReceive"], kind="RECEIVER")
        plan = receiver_plan(comp)
        assert [callbacks_of(u.segments) for u in plan.units] == [("onReceive",)]


def restrict_then_key(paths, implemented, drop):
    """The reference walk: build each path's restricted segments, then key
    and deduplicate them."""
    seen = set()
    for path in paths:
        segs = tuple(Segment(step.event, tuple(cb for cb in step.callbacks if cb in implemented))
                     for step in path[drop:])
        key = tuple(cb for seg in segs for cb in seg.callbacks)
        if key and key not in seen:
            seen.add(key)
            yield segs, key


def generated_components(family, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen
    return [c for _, doc, _ in gen.generate(family, 1)
            for c in app_from_dict(doc).components]


class TestDistinctPaths:
    """`_distinct_paths` keys a path before it builds its segments; it must
    yield what building them first yields."""

    def assert_like_reference(self, models, components):
        for model in (models["ACTIVITY"], models["SERVICE"]):
            paths = derive_paths(model)
            for comp in components:
                implemented = _implemented(comp)
                for drop in (0, 1):
                    assert (list(_distinct_paths(paths, implemented, drop))
                            == list(restrict_then_key(paths, implemented, drop)))

    def test_corpus_components(self, models):
        comps = [c for p in all_corpus_paths() for c in load_app(p).components]
        every = {cb for kind in ("ACTIVITY", "SERVICE") for path in derive_paths(models[kind])
                 for step in path for cb in step.callbacks}
        comps += [component_with(sorted(every)), component_with([])]
        self.assert_like_reference(models, comps)

    @pytest.mark.parametrize("family", ["wide", "deep"])
    def test_generated_components(self, family, models, monkeypatch):
        self.assert_like_reference(models, generated_components(family, monkeypatch))

    def test_plan_takes_the_paths_once(self, models, monkeypatch):
        calls = []

        def counting(model):
            calls.append(model)
            return derive_paths(model)

        monkeypatch.setattr(sequences, "derive_paths", counting)
        comp = corpus_app("motivating_example").components[0]
        plan = build_plan(models["ACTIVITY"], comp)
        assert calls == [models["ACTIVITY"]]
        assert callbacks_of(plan.prefix) == ("onCreate", "onResume")


def reference_plan(model, component):
    """The reference for `build_plan`: every unit built from the paths for
    this component alone."""
    paths, implemented = derive_paths(model), _implemented(component)
    drop = 1 if model.component_kind == "ACTIVITY" else 0
    prefix = tuple(Segment(step.event, tuple(cb for cb in step.callbacks if cb in implemented))
                   for step in paths[0][:drop]) if paths else ()
    units = [PermutationUnit(LIFECYCLE_SUBSEQUENCE, tuple(s.event for s in segs), segs)
             for segs, _ in restrict_then_key(paths, implemented, drop)]
    units += [PermutationUnit(kind, (name,), (Segment(name, (name,)),))
              for kind, names in ((AUI_CALLBACK, component.aui_callbacks),
                                  (MISC_CALLBACK, component.misc_callbacks))
              for name in names]
    return PermutationPlan(tuple(units), prefix)


class TestPlanMemo:
    """A model keeps its lifecycle units and prefix per set of its path
    callbacks that a component implements."""

    def counting_distinct_paths(self, monkeypatch):
        calls = []
        real = sequences._distinct_paths

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(sequences, "_distinct_paths", counting)
        return calls

    def test_kept_plans_equal_plans_built_alone(self, models, monkeypatch):
        comps = [c for p in all_corpus_paths() for c in load_app(p).components
                 if c.kind != "RECEIVER"]
        comps += generated_components("wide", monkeypatch)
        comps += generated_components("deep", monkeypatch)
        comps += [component_with(SERVICE_CALLBACKS + ["onLowMemory"], kind="SERVICE",
                                 misc=["onLowMemory"]),
                  component_with(MOTIV_CALLBACKS + ["helper", "onClick"], aui=["onClick"]),
                  component_with([]), component_with([], kind="SERVICE")]
        fresh = load_models()
        for _ in range(2):  # built, then taken from the model
            for comp in comps:
                model = fresh[comp.kind]
                assert build_plan(model, comp) == reference_plan(models[comp.kind], comp)

    def test_a_corpus_run_keys_eleven_plans(self, monkeypatch):
        # 19 activities and services, 11 distinct sets of implemented path
        # callbacks; each run loads its models, so each run keys them again
        calls = self.counting_distinct_paths(monkeypatch)
        for _ in range(2):
            del calls[:]
            assert cli.run(cli.RunConfig(all_corpus_paths(), m_max=3, out=io.StringIO())) == 0
            assert len(calls) == 11

    def test_callbacks_outside_the_paths_share_a_plan(self, monkeypatch):
        calls = self.counting_distinct_paths(monkeypatch)
        model = load_models()["ACTIVITY"]
        plain = build_plan(model, component_with(MOTIV_CALLBACKS))
        helped = build_plan(model, component_with(MOTIV_CALLBACKS + ["helper", "onBtn"],
                                                  aui=["onBtn"]))
        assert len(calls) == 1
        assert helped.prefix == plain.prefix
        assert helped.units[:-1] == plain.units
        assert callbacks_of(helped.units[-1].segments) == ("onBtn",)


def _plan(units, prefix=()):
    return PermutationPlan(tuple(units), tuple(prefix))


def _unit(label):
    return PermutationUnit(LIFECYCLE_SUBSEQUENCE, (label,),
                           (Segment(label, (label,)),))


class TestMWay:
    def test_three_choose_two_order(self):
        plan = _plan([_unit("A"), _unit("B"), _unit("C")])
        got = [callbacks_of(seq.segments) for seq in generate_m_way(plan, 2)]
        assert got == [
            ("A", "B"), ("A", "C"), ("B", "A"), ("B", "C"), ("C", "A"), ("C", "B"),
        ]

    def test_m_equals_one_prefixes(self):
        prefix = (Segment("boot", ("p",)),)
        plan = _plan([_unit("A"), _unit("B")], prefix)
        got = [callbacks_of(seq.segments) for seq in generate_m_way(plan, 1)]
        assert got == [("p", "A"), ("p", "B")]

    def test_count_law_brute_force(self):
        for n in range(1, 7):
            units = [_unit("u%d" % i) for i in range(n)]
            for m in range(1, n + 1):
                expected = math.factorial(n) // math.factorial(n - m)
                assert sum(1 for _ in generate_m_way(_plan(units), m)) == expected

    def test_m_out_of_range(self):
        plan = _plan([_unit("A")])
        with pytest.raises(ValueError):
            next(generate_m_way(plan, 2))
        with pytest.raises(ValueError):
            next(generate_m_way(plan, 0))

    def test_motivating_pairs_include_attack_order(self, models):
        app = corpus_app("motivating_example")
        plan = build_plan(models["ACTIVITY"], app.components[0])
        want = ["onUserLeaveHint", "onUserLeaveHint", "onSaveInstanceState",
                "onRestoreInstanceState", "onResume"]

        def contains(callbacks):
            it = iter(callbacks)
            return all(any(c == w for c in it) for w in want)

        assert any(contains(callbacks_of(seq.segments)) for seq in generate_m_way(plan, 2))

    def test_generated_sequences_are_feasible(self, models):
        # each unit's event subsequence replays against the model, and for
        # activities a pair of units replays as one run after createActivity
        app = corpus_app("motivating_example")
        comp = app.components[0]
        plan = build_plan(models["ACTIVITY"], comp)
        model = models["ACTIVITY"]
        lifecycle_units = [u for u in plan.units if u.kind == "LIFECYCLE_SUBSEQUENCE"]
        for unit in lifecycle_units:
            assert replay_events(model, ("createActivity",) + unit.events)
        u1, u2 = lifecycle_units[0], lifecycle_units[1]
        assert replay_events(model, ("createActivity",) + u1.events + u2.events)

        svc_comp = component_with(SERVICE_CALLBACKS, kind="SERVICE")
        for unit in build_plan(models["SERVICE"], svc_comp).units:
            assert replay_events(models["SERVICE"], unit.events)

    def test_event_trace_covers_prefix_and_units(self, models):
        app = corpus_app("motivating_example")
        plan = build_plan(models["ACTIVITY"], app.components[0])
        seq = next(generate_m_way(plan, 1))
        assert seq.event_trace(0) == ("createActivity",)
        full = seq.event_trace(len(seq.segments) - 1)
        assert full[0] == "createActivity"


def eager_segments(plan, unit_indexes):
    """A sequence's segments built as each generated sequence once held
    them: the prefix, then each unit's segments, concatenated."""
    segments = plan.prefix
    for i in unit_indexes:
        segments += plan.units[i].segments
    return segments


class TestSegmentsOnRead:
    """A generated sequence holds its unit indexes and its plan, and builds
    its segments when they are read: each read gives what an eagerly built
    sequence holds."""

    @pytest.fixture()
    def apps(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
        import gen
        apps = [(path, 3) for path in all_corpus_paths()]
        for family in ("wide", "deep"):
            apps += [(path, gen.FAMILIES[family].m_max)
                     for path in gen.write_family(family, 1, str(tmp_path / family))]
        assert len(apps) == 23
        return apps

    def test_generated_sequences(self, apps, models):
        for path, m_max in apps:
            for component in load_app(path).components:
                plan = (receiver_plan(component) if component.kind == "RECEIVER"
                        else build_plan(models[component.kind], component))
                n = len(plan.units)
                for m in range(1, min(m_max, n) + 1):
                    seqs = list(generate_m_way(plan, m))
                    assert [s.unit_indexes for s in seqs] == list(
                        itertools.permutations(range(n), m))
                    for seq in seqs:
                        assert seq.plan is plan
                        assert seq.segments == eager_segments(plan, seq.unit_indexes)

    def test_raw_warnings_event_traces(self, apps, models, config, monkeypatch):
        raw = []
        real_dedup = cli.dedup_warnings
        monkeypatch.setattr(cli, "dedup_warnings",
                            lambda warnings: raw.extend(warnings) or real_dedup(warnings))
        for path, m_max in apps:
            cli.analyze_app(load_app(path), models, config, m_max)
        assert len(raw) == 166 + 1 + 1
        for w in raw:
            seq = w._seq
            eager = eager_segments(seq.plan, seq.unit_indexes)
            assert w.event_trace == tuple(s.event for s in eager[:w._segment + 1])
