import copy
import io
import json
import os
import pickle

import pytest

from lifetaint import cli, lifecycle, load_models
from lifetaint.cli import analyze_app
from lifetaint.errors import ModelError
from lifetaint.lifecycle import Step, _exits, _settle, derive_paths, load_model, model_from_dict

from conftest import all_corpus_paths, corpus_app, run_isolated
from oracles import callbacks_for_event, event_sequences, replay_events

TESTS = os.path.dirname(os.path.abspath(__file__))


def small_model(**overrides):
    doc = {
        "component_kind": "ACTIVITY",
        "states": [
            {"name": "Init", "kind": "STATIC"},
            {"name": "Mid", "kind": "TRANSIENT"},
            {"name": "Goal", "kind": "STATIC"},
        ],
        "initial": "Init",
        "goal": "Goal",
        "events": ["go"],
        "callbacks": ["onGo", "onArrive"],
        "transitions": [
            {"from": "Init", "to": "Mid", "triggers": "go", "callbacks": ["onGo"]},
            {"from": "Mid", "to": "Goal", "callbacks": ["onArrive"]},
        ],
    }
    doc.update(overrides)
    return doc


class TestLoading:
    def test_activity_model_events(self, models):
        model = models["ACTIVITY"]
        assert len(model.events) == 16
        assert set(model.events) == {
            "createActivity", "backPress", "confPR", "stopActivity",
            "restartActivity", "confPOS", "overlapActivity", "killProcess",
            "hideActivityPartially", "gotoActivity", "savStop", "savRestart",
            "confSTP", "gotoStop", "confPAU", "confSTO",
        }

    def test_service_model_callbacks(self, models):
        cbs = set(models["SERVICE"].callbacks)
        assert {"onCreate", "onStartCommand", "onBind", "onUnbind",
                "onRebind", "onDestroy"} <= cbs

    def test_dangling_state_reference(self):
        doc = small_model()
        doc["transitions"][0]["to"] = "Nowhere"
        with pytest.raises(ModelError, match="Nowhere"):
            model_from_dict(doc)

    def test_unknown_event_in_guard(self):
        doc = small_model()
        doc["transitions"][1]["guard"] = {"event": "nope"}
        with pytest.raises(ModelError, match="nope"):
            model_from_dict(doc)

    def test_unknown_callback(self):
        doc = small_model()
        doc["transitions"][0]["callbacks"] = ["onBogus"]
        with pytest.raises(ModelError, match="onBogus"):
            model_from_dict(doc)

    def test_static_exit_needs_trigger(self):
        doc = small_model()
        del doc["transitions"][0]["triggers"]
        with pytest.raises(ModelError, match="triggers"):
            model_from_dict(doc)

    def test_initial_must_be_static(self):
        doc = small_model()
        doc["states"][0]["kind"] = "TRANSIENT"
        with pytest.raises(ModelError, match="STATIC"):
            model_from_dict(doc)

    def test_missing_field_named(self):
        doc = small_model()
        del doc["initial"]
        with pytest.raises(ModelError, match="initial"):
            model_from_dict(doc)

    def test_else_guard_excludes_events(self):
        doc = small_model()
        doc["transitions"][1]["guard"] = {"else": True, "event": "go"}
        with pytest.raises(ModelError, match="else"):
            model_from_dict(doc)

    @pytest.mark.parametrize("path,field", [
        (("states", 0, "name"), r"states\[0\]: field 'name'"),
        (("initial",), "field 'initial'"),
        (("goal",), "field 'goal'"),
        (("transitions", 0, "from"), r"transitions\[0\]: field 'from'"),
        (("transitions", 1, "to"), r"transitions\[1\]: field 'to'"),
    ])
    @pytest.mark.parametrize("value", [[], ["Init"], {"name": "Init"}])
    def test_state_reference_must_be_a_string(self, path, field, value):
        # a list or an object used to end in TypeError: unhashable type
        doc = small_model()
        *outer, key = path
        target = doc
        for step in outer:
            target = target[step]
        target[key] = value
        with pytest.raises(ModelError, match=field + " must be a string"):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_else_must_be_a_bool(self, value):
        # "no" used to load as an else guard, and 0 as an always-true one
        doc = small_model()
        doc["transitions"][1]["guard"] = {"else": value}
        with pytest.raises(ModelError, match="field 'else' must be a JSON bool"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("states", ["Init", "Mid", "Goal"]),
        ("states", {"name": "Init", "kind": "STATIC"}),
        ("transitions", [["Init", "Mid"]]),
        ("events", "go"),
        ("callbacks", "onGo"),
    ])
    def test_malformed_list_field(self, field, value):
        # a string entry used to end in AttributeError, and a string list
        # to become a list of its characters
        with pytest.raises(ModelError, match="field '%s' must be a list of" % field):
            model_from_dict(small_model(**{field: value}))

    @pytest.mark.parametrize("callbacks", ["onGo", [["onGo"]], [None]])
    def test_transition_callbacks_must_be_strings(self, callbacks):
        # without a top-level callbacks list nothing else catches "onGo"
        doc = small_model()
        del doc["callbacks"]
        doc["transitions"][0]["callbacks"] = callbacks
        with pytest.raises(ModelError, match=r"transitions\[0\]: field 'callbacks'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("doc", [None, 5, ["states"]])
    def test_model_not_an_object(self, doc):
        with pytest.raises(ModelError, match="not a JSON object"):
            model_from_dict(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(small_model()))
        model = load_model(str(path))
        assert model.initial == "Init"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ModelError, match="JSON"):
            load_model(str(path))


class TestDerivation:
    def test_activity_count(self, models):
        assert len(event_sequences(models["ACTIVITY"])) == 26

    def test_service_count(self, models):
        assert len(event_sequences(models["SERVICE"])) == 15

    def test_all_activity_sequences_start_with_create(self, models):
        for events in event_sequences(models["ACTIVITY"]):
            assert events[0] == "createActivity"

    def test_degenerate_single_path(self):
        model = model_from_dict(small_model())
        assert event_sequences(model) == [("go",)]

    def test_idempotent(self):
        # fresh models: the session fixture's may already hold cached paths
        for model in load_models().values():
            states = copy.deepcopy(model.states)
            transitions = copy.deepcopy(model.transitions)
            first = event_sequences(model)
            second = event_sequences(model)
            assert first == second
            assert model.states == states and model.transitions == transitions

    def test_savstop_loop_captured_once(self, models):
        seqs = event_sequences(models["ACTIVITY"])
        assert ("createActivity", "hideActivityPartially", "savStop",
                "savRestart", "savStop", "savRestart", "gotoActivity") in seqs

    def test_feasibility_by_replay(self, models):
        for model in models.values():
            for events in event_sequences(model):
                assert replay_events(model, events), events

    def test_static_state_visit_bound(self, models):
        # independent replayer: every derived sequence is witnessed by at
        # least one state path that never visits a static state more than
        # twice (the RED bound followed by the derivation itself)
        for model in models.values():
            for events in event_sequences(model):
                paths = _state_paths(model, events)
                assert paths, events
                bounded = []
                for visited in paths:
                    counts = {}
                    for name in visited:
                        counts[name] = counts.get(name, 0) + 1
                    bounded.append(all(v <= 2 for v in counts.values()))
                assert any(bounded), (events, paths)

    def test_service_loops_captured(self, models):
        seqs = event_sequences(models["SERVICE"])
        # stop/start cycle and unbind/bind cycle each traversed at least once
        assert any("stop" in s and "start" in s for s in seqs)
        assert any(s.count("bind") >= 2 for s in seqs)

    def test_stuck_transient_raises(self):
        doc = small_model()
        doc["events"] = ["go", "other"]
        doc["transitions"][1]["guard"] = {"event": "other"}
        with pytest.raises(ModelError, match="stuck"):
            event_sequences(model_from_dict(doc))

    def test_replay_of_stuck_transient_raises(self):
        doc = small_model()
        doc["events"] = ["go", "other"]
        doc["transitions"][1]["guard"] = {"event": "other"}
        with pytest.raises(ModelError, match="stuck"):
            replay_events(model_from_dict(doc), ("go",))

    def test_goal_must_be_static(self):
        doc = small_model()
        doc["goal"] = "Mid"
        with pytest.raises(ModelError, match="goal state 'Mid' must be STATIC"):
            model_from_dict(doc)

    def test_model_pickles(self):
        for kind, model in load_models().items():
            clone = pickle.loads(pickle.dumps(model))
            assert derive_paths(clone) == derive_paths(model), kind

    def test_else_fires_after_explicit_guards(self):
        doc = {
            "component_kind": "ACTIVITY",
            "states": [
                {"name": "Init", "kind": "STATIC"},
                {"name": "Mid", "kind": "TRANSIENT"},
                {"name": "A", "kind": "STATIC"},
                {"name": "Goal", "kind": "STATIC"},
            ],
            "initial": "Init",
            "goal": "Goal",
            "events": ["x", "y", "fin"],
            "callbacks": ["cb"],
            "transitions": [
                {"from": "Init", "to": "Mid", "triggers": "x", "callbacks": []},
                {"from": "Init", "to": "Mid", "triggers": "y", "callbacks": []},
                {"from": "Mid", "to": "A", "guard": {"event": "x"}, "callbacks": ["cb"]},
                {"from": "Mid", "to": "Goal", "guard": {"else": True}, "callbacks": []},
                {"from": "A", "to": "Goal", "triggers": "fin", "callbacks": []},
            ],
        }
        seqs = event_sequences(model_from_dict(doc))
        assert ("x", "fin") in seqs   # explicit guard takes the x event to A
        assert ("y",) in seqs         # else route straight to the goal


def chain_model(n):
    """A line of `n` static states, each left by one `next` event."""
    return model_from_dict({
        "component_kind": "ACTIVITY",
        "states": [{"name": "s%d" % i, "kind": "STATIC"} for i in range(n)],
        "initial": "s0",
        "goal": "s%d" % (n - 1),
        "events": ["next"],
        "callbacks": ["onCreate"],
        "transitions": [{"from": "s%d" % i, "to": "s%d" % (i + 1), "triggers": "next",
                         "callbacks": ["onCreate"] if i == 0 else []}
                        for i in range(n - 1)],
    })


class TestLongPaths:
    def test_a_long_chain_derives_one_path(self):
        # deeper than the interpreter's recursion limit allows a recursive walk
        paths = derive_paths(chain_model(1200))
        assert len(paths) == 1 and len(paths[0]) == 1199
        assert paths[0][0].callbacks == ("onCreate",)

    def test_an_app_under_a_long_chain_gets_a_report(self, models, config):
        chained = dict(models, ACTIVITY=chain_model(1200))
        report = analyze_app(corpus_app("motivating_example"), chained, config)
        assert report.error is None and report.finished

    def test_a_long_chain_replays(self):
        # one recursion per event would pass the interpreter's limit
        model = chain_model(1200)
        assert replay_events(model, ("next",) * 1199) == derive_paths(model)


class TestExitsMemo:
    """A derivation walk asks `_exits` once per (state, event, previous
    event)."""

    def counting_exits(self, monkeypatch):
        calls = []
        real = lifecycle._exits

        def counting(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(lifecycle, "_exits", counting)
        return calls

    def test_each_model_walk(self, monkeypatch):
        calls = self.counting_exits(monkeypatch)
        counts = {}
        for kind, model in load_models().items():
            del calls[:]
            derive_paths(model)
            assert len(calls) == len(set(calls))
            counts[kind] = len(calls)
        assert counts == {"ACTIVITY": 128, "SERVICE": 15}

    def test_a_corpus_run(self, monkeypatch, no_kept_loads):
        # the first run derives both models' paths; the next keeps them
        calls = self.counting_exits(monkeypatch)
        for expected in (143, 0):
            del calls[:]
            assert cli.run(cli.RunConfig(all_corpus_paths(), m_max=3, out=io.StringIO())) == 0
            assert len(calls) == expected


class TestSettleMemo:
    """A derivation walk follows each static exit through the transient
    states once per previous event."""

    def test_each_model_walk(self, monkeypatch):
        calls = []
        real = lifecycle._settle

        def counting(model, tr, previous, memo=None):
            calls.append((tr, previous))
            return real(model, tr, previous, memo)

        monkeypatch.setattr(lifecycle, "_settle", counting)
        counts = {}
        for kind, model in load_models().items():
            del calls[:]
            derive_paths(model)
            assert len(calls) == len(set(calls))
            counts[kind] = len(calls)
        assert counts == {"ACTIVITY": 31, "SERVICE": 19}


def recursive_replay(model, events):
    """`replay_events` as it was before it walked on an explicit stack: one
    recursion per replayed event (test oracle)."""
    results = []

    def advance(name, idx, prev_event, path):
        if idx == len(events):
            if name == model.goal:
                results.append(list(path))
            return
        event = events[idx]
        for tr in _exits(model, name, None, prev_event):
            if tr.triggers != event or tr.destination == name:
                continue
            callbacks, end = _settle(model, tr, prev_event)
            if end is not None:
                path.append(Step(event, callbacks))
                advance(end, idx + 1, event, path)
                path.pop()

    advance(model.initial, 0, None, [])
    return results


class TestReplayOracle:
    def test_same_paths_in_the_same_order(self, models):
        for model in models.values():
            derived = [tuple(step.event for step in path) for path in derive_paths(model)]
            first = derived[0]
            infeasible = [(), first[1:], first[::-1], first[:1] + ("noSuchEvent",)]
            cut_or_repeated = [first[:-1], first + first[-1:]]
            for events in derived + infeasible + cut_or_repeated:
                assert replay_events(model, events) == recursive_replay(model, events), events
            assert all(replay_events(model, events) for events in derived)
            assert not any(replay_events(model, events) for events in infeasible)
        # unbinding a started service has two outcomes, so some sequences
        # replay to several paths, whose order the comparison above checks
        service = models["SERVICE"]
        assert any(len(replay_events(service, tuple(step.event for step in path))) > 1
                   for path in derive_paths(service))


def cyclic_model():
    """`go` enters the transient cycle T1 -> T2 -> T1 and never settles."""
    return small_model(
        states=[{"name": "Init", "kind": "STATIC"}, {"name": "T1", "kind": "TRANSIENT"},
                {"name": "T2", "kind": "TRANSIENT"}, {"name": "Goal", "kind": "STATIC"}],
        transitions=[{"from": "Init", "to": "T1", "triggers": "go", "callbacks": ["onGo"]},
                     {"from": "T1", "to": "T2", "callbacks": []},
                     {"from": "T2", "to": "T1", "callbacks": []}],
    )


class TestTransientCycle:
    def test_derivation_cuts_the_cycle(self):
        assert derive_paths(model_from_dict(cyclic_model())) == []

    def test_other_branches_survive(self, cyclic_models_dir, models):
        model = load_model(os.path.join(cyclic_models_dir, "activity.json"))
        assert derive_paths(model) == derive_paths(models["ACTIVITY"])

    def _child(self, body):
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from lifetaint.errors import ModelError\n"
            "from lifetaint.lifecycle import model_from_dict\n"
            "from oracles import callbacks_for_event, replay_events\n"
            "m = model_from_dict(%r)\n" % (TESTS, cyclic_model())
        ) + body
        result = run_isolated(["-c", script])
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_callback_lookup_raises(self):
        out = self._child(
            "try:\n"
            "    callbacks_for_event(m, 'go')\n"
            "except ModelError as exc:\n"
            "    print(exc)\n")
        assert "transient cycle" in out

    def test_replay_is_infeasible(self):
        assert self._child("print(replay_events(m, ('go',)))\n") == "[]\n"


def _state_paths(model, events):
    """All static-state paths that accept the event sequence (test oracle)."""
    accepted = []

    def advance(state_name, idx, prev, visited):
        if idx == len(events):
            if state_name == model.goal:
                accepted.append(visited)
            return
        event = events[idx]
        for tr in model.outgoing(state_name):
            if tr.triggers != event:
                continue
            if tr.guard.prev_event is not None and tr.guard.prev_event != prev:
                continue
            nxt = model.states[tr.destination]
            dead = False
            while nxt.kind == "TRANSIENT":
                moved = False
                fallback = None
                for t2 in model.outgoing(nxt.name):
                    if t2.guard.is_else:
                        fallback = t2
                    elif t2.guard.matches(event, prev):
                        nxt = model.states[t2.destination]
                        moved = True
                        break
                if not moved:
                    if fallback is None:
                        dead = True
                        break
                    nxt = model.states[fallback.destination]
            if not dead:
                advance(nxt.name, idx + 1, event, visited + [nxt.name])

    advance(model.initial, 0, None, [model.initial])
    return accepted


class TestCallbackLookup:
    def test_create_activity_row(self, models):
        assert callbacks_for_event(models["ACTIVITY"], "createActivity") == [
            "onCreate", "onStart", "onPostCreate", "onResume", "onPostResume",
        ]

    def test_overlap_row(self, models):
        assert callbacks_for_event(models["ACTIVITY"], "overlapActivity") == [
            "onUserLeaveHint", "onPause", "onCreateDescription",
            "onSaveInstanceState", "onStop",
        ]

    def test_conf_pr_row(self, models):
        assert callbacks_for_event(models["ACTIVITY"], "confPR") == [
            "onPause", "onSaveInstanceState", "onStop", "onDestroy", "onCreate",
            "onStart", "onRestoreInstanceState", "onPostCreate", "onResume",
            "onPostResume",
        ]

    def test_unknown_event(self, models):
        with pytest.raises(LookupError):
            callbacks_for_event(models["ACTIVITY"], "teleport")
