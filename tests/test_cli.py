import io
import json
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from lifetaint import cli, load_app
from lifetaint.analysis import AnalysisContext, analyze_component, load_config
from lifetaint.cli import RunConfig, _data_path, analyze_app, main, run
from lifetaint.errors import AppLoadError, ConfigError, ModelError
from lifetaint.lifecycle import load_model
from lifetaint.sequences import build_plan

from conftest import (
    ROOT, all_corpus_paths, corpus_app, corpus_path, isolated_env, run_isolated)


def run_cli(paths, **kw):
    out = io.StringIO()
    cfg = RunConfig(app_paths=list(paths), out=out, **kw)
    status = run(cfg)
    return status, out.getvalue()


class TestRun:
    def test_corpus_run_reports_everything(self):
        status, text = run_cli(all_corpus_paths())
        assert status == 0
        docs = [json.loads(chunk) for chunk in _split_json(text)]
        by_id = {d["app_id"]: d for d in docs}
        assert by_id["motivating_example"]["m_reached"] == 2
        kinds = {w["kind"] for w in by_id["motivating_example"]["warnings"]}
        assert kinds == {"INFO_LEAK"}
        assert by_id["activity_eveseq1"]["m_reached"] == 1
        assert by_id["sms_confignum"]["warnings"] == []

    def test_m_max_one_motivating_is_clean(self):
        status, text = run_cli([corpus_path("motivating_example")], m_max=1)
        assert status == 0
        doc = json.loads(text)
        assert doc["warnings"] == [] and doc["m_reached"] == 1

    def test_escalation_stops_after_detection(self, models, config):
        # a warning found at m=1 ends the escalation even with m_max=2
        app = corpus_app("activity_eveseq1")
        report = analyze_app(app, models, config, m_max=2)
        assert report.m_reached == 1

    def test_plans_are_built_once_per_component(self, monkeypatch):
        # units do not depend on m: every component's plan is built once per
        # app, in component order, however many levels the app runs
        # (motivating_example reaches m=2; sms_autoreply has a receiver)
        paths = [corpus_path("motivating_example"), corpus_path("sms_autoreply")]
        expected = run_cli(paths, m_max=3)
        built = []
        for name in ("build_plan", "receiver_plan"):
            def counting(*args, real=getattr(cli, name)):
                built.append((args[-1].class_name, args[-1].kind))
                return real(*args)
            monkeypatch.setattr(cli, name, counting)
        assert run_cli(paths, m_max=3) == expected
        assert [json.loads(doc)["m_reached"] for doc in _split_json(expected[1])] == [2, 1]
        assert built == [(c.class_name, c.kind)
                         for path in paths for c in load_app(path).components]

    def test_mixed_components_analyzed_iteratively(self):
        # a clean activity plus a leaking service in one app: the service
        # component produces the warning at m=1
        status, text = run_cli([corpus_path("mixed_components")])
        assert status == 0
        doc = json.loads(text)
        assert doc["m_reached"] == 1
        assert [w["component"] for w in doc["warnings"]] == ["BeaconService"]
        assert doc["warnings"][0]["event_trace"][0] == "createAndStart"

    def test_aui_misc_pair_needs_two_way(self):
        # the leak spans a miscellaneous callback and an AUI callback, so it
        # appears only under 2-way permutation
        status, text = run_cli([corpus_path("aui_misc_pair")], m_max=1)
        assert json.loads(text)["warnings"] == []
        status, text = run_cli([corpus_path("aui_misc_pair")], m_max=2)
        doc = json.loads(text)
        assert doc["m_reached"] == 2 and len(doc["warnings"]) == 1
        w = doc["warnings"][0]
        assert w["source_apis"] == ["LocationManager.getLastKnownLocation/1"]
        assert w["event_trace"] == ["createActivity", "onGeocodeTaskComplete",
                                    "onEditorAction"]

    @pytest.mark.parametrize("misc", [[], ["onTimeout"]])
    def test_m_reached_is_the_last_width_that_ran(self, tmp_app, misc):
        # receivers with 1 and 1 + len(misc) units, clean, at m-max 3:
        # escalation stops after the widest level a component has units for
        def receiver(name, callbacks):
            methods = [{"sig": cb + "/1", "params": ["this", "i"], "labels": {},
                        "instructions": [["RETURN_VOID"]]} for cb in callbacks]
            return {"name": name, "parent_kind": "RECEIVER", "methods": methods}

        doc = {"app_id": "receivers",
               "classes": [receiver("One", ["onReceive"]),
                           receiver("Two", ["onReceive"] + misc)],
               "components": [{"class": c, "kind": "RECEIVER", "aui_callbacks": [],
                               "misc_callbacks": cbs} for c, cbs in (("One", []), ("Two", misc))]}
        status, text = run_cli([tmp_app(doc)], m_max=3)
        report = json.loads(text)
        assert status == 0 and report["warnings"] == []
        assert report["m_reached"] == 1 + len(misc)
        assert report["sequences_analyzed"] == 2 + 3 * len(misc)

    def test_determinism_byte_identical(self):
        _, first = run_cli(all_corpus_paths(), m_max=2)
        _, second = run_cli(all_corpus_paths(), m_max=2)
        assert first == second

    def test_missing_app_among_several(self):
        status, text = run_cli([corpus_path("activity_eveseq1"), "/nope/gone.app"])
        assert status == 0
        docs = [json.loads(chunk) for chunk in _split_json(text)]
        assert len(docs) == 2
        failed = [d for d in docs if "error" in d]
        assert len(failed) == 1 and failed[0]["warnings"] == []

    def test_bad_models_dir_is_config_error(self):
        status, _ = run_cli([corpus_path("activity_eveseq1")], models_dir="/nope")
        assert status == 1

    def test_analysis_error_aborts_only_that_app(self, tmp_app):
        # reading a never-bound register is an analysis-time contract
        # violation: the app is reported with a diagnostic, the run continues
        broken = tmp_app({
            "app_id": "broken",
            "classes": [{
                "name": "Main", "parent_kind": "ACTIVITY", "static_fields": [],
                "methods": [{
                    "sig": "main/0", "params": ["this"],
                    "instructions": [["MOVE", "a", "ghost"], ["RETURN_VOID"]],
                    "labels": {},
                }],
            }],
            "components": [{"class": "Main", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": ["main"]}],
        })
        status, text = run_cli([broken, corpus_path("activity_eveseq1")])
        assert status == 0
        docs = [json.loads(chunk) for chunk in _split_json(text)]
        assert "ghost" in docs[0]["error"]
        assert docs[1]["warnings"]

    def test_malformed_app_error_names_the_field(self, tmp_app):
        # a component's callbacks given as a string, not a list: the loader
        # used to read it as the one-letter callback 'o'
        malformed = tmp_app({
            "app_id": "malformed",
            "classes": [{"name": "Main", "parent_kind": "ACTIVITY", "methods": [
                {"sig": "onClick/0", "params": ["this"], "labels": {},
                 "instructions": [["RETURN_VOID"]]}]}],
            "components": [{"class": "Main", "kind": "ACTIVITY",
                            "aui_callbacks": "onClick", "misc_callbacks": []}],
        })
        status, text = run_cli([malformed, corpus_path("activity_eveseq1")])
        assert status == 0
        docs = [json.loads(chunk) for chunk in _split_json(text)]
        assert "field 'aui_callbacks' must be a list of strings" in docs[0]["error"]
        assert "Error:" not in docs[0]["error"]
        assert "error" not in docs[1] and docs[1]["warnings"]

    def test_merge_that_adopts_its_own_input_gets_a_report(self, tmp_app):
        # found by a random differential run: a merge adopted an object whose
        # fields it was still iterating, and the batch died with RuntimeError
        doc = {"app_id": "r467", "classes": [{
            "name": "Main", "parent_kind": "ACTIVITY", "methods": [
                {"sig": "h0/1", "params": ["this", "a"], "labels": {},
                 "instructions": [["MOVE", "r2", "this"], ["RETURN", "r2"]]},
                {"sig": "h1/2", "params": ["a", "b"], "labels": {},
                 "instructions": [
                     ["INVOKE_VIRTUAL", "r3", "b", "Main.h0/1", ["a"]],
                     ["IGET", "r0", "r3", "g"],
                     ["INVOKE_VIRTUAL", "r2", "b", "Main.h0/1", ["b"]],
                     ["SPUT", "S.x", "r2"]]},
                {"sig": "onSaveInstanceState/1", "params": ["this", "s"], "labels": {},
                 "instructions": [["SPUT", "S.x", "this"]]},
                {"sig": "onClick0/1", "params": ["this", "v"], "labels": {"L0": 5},
                 "instructions": [
                     ["IPUT", "this", "f", "v"],
                     ["IF_GOTO", "this", "L0"],
                     ["INVOKE_STATIC", "r1", "Main.h2/2", ["v", "v"]],
                     ["INVOKE_STATIC", "r3", "Main.h1/2", ["r1", "v"]],
                     ["IPUT", "v", "f", "this"],
                     ["RETURN_VOID"]]},
            ]}],
            "components": [{"class": "Main", "kind": "ACTIVITY",
                            "aui_callbacks": ["onClick0"], "misc_callbacks": []}]}
        status, text = run_cli([tmp_app(doc)], m_max=2)
        report = json.loads(text)
        assert status == 0 and "error" not in report
        assert report["sequences_analyzed"] == 16
        assert (report["warnings"], report["m_reached"]) == ([], 2)

    def test_api_handler_with_too_few_arguments_gets_the_default_rule(self, tmp_app):
        # each handler reads one argument; with none passed, the call falls
        # through to the default rule instead of failing the app
        doc = {"app_id": "short_args", "classes": [{
            "name": "Main", "parent_kind": "ACTIVITY", "static_fields": [],
            "methods": [{"sig": "main/0", "params": ["this"], "labels": {}, "instructions": [
                ["INVOKE_STATIC", "v", "String.valueOf/0", []],
                ["CONST_STRING", "s", "a"],
                ["INVOKE_VIRTUAL", "c", "s", "String.concat/0", []],
                ["NEW_INSTANCE", "tm", "TelephonyManager"],
                ["INVOKE_VIRTUAL", "id", "tm", "TelephonyManager.getDeviceId/0", []],
                ["NEW_INSTANCE", "sb", "StringBuilder"],
                ["INVOKE_VIRTUAL", None, "sb", "StringBuilder.append/1", ["id"]],
                ["INVOKE_VIRTUAL", "r", "sb", "StringBuilder.append/0", []],
                ["INVOKE_STATIC", None, "Log.d/2", ["s", "r"]],
                ["RETURN_VOID"]]}]}],
            "components": [{"class": "Main", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": ["main"]}]}
        status, text = run_cli([tmp_app(doc)], m_max=1)
        report = json.loads(text)
        assert status == 0 and "error" not in report
        assert [(w["kind"], w["sink_api"]) for w in report["warnings"]] == [
            ("INFO_LEAK", "Log.d/2")]

    def test_any_exception_is_only_that_apps_error(self, tmp_app):
        # a call chain deeper than Python's recursion limit
        depth = 300
        chain = [{"sig": "c%d/0" % i, "params": [], "labels": {},
                  "instructions": [["INVOKE_STATIC", None, "Main.c%d/0" % (i + 1), []],
                                   ["RETURN_VOID"]]}
                 for i in range(depth)]
        chain.append({"sig": "c%d/0" % depth, "params": [], "labels": {},
                      "instructions": [["RETURN_VOID"]]})
        deep = tmp_app({
            "app_id": "deep",
            "classes": [{"name": "Main", "parent_kind": "ACTIVITY", "methods": [
                {"sig": "main/0", "params": ["this"], "labels": {},
                 "instructions": [["INVOKE_STATIC", None, "Main.c0/0", []], ["RETURN_VOID"]]},
                *chain]}],
            "components": [{"class": "Main", "kind": "ACTIVITY",
                            "aui_callbacks": [], "misc_callbacks": ["main"]}],
        })
        status, text = run_cli([deep, corpus_path("recursion")])
        docs = [json.loads(chunk) for chunk in _split_json(text)]
        assert [d["app_id"] for d in docs] == ["deep", "recursion"]
        assert docs[0]["error"].startswith("RecursionError: ")
        assert "error" not in docs[1]

    def test_table_format(self):
        status, text = run_cli([corpus_path("sms_hardcoded")], fmt="table")
        assert status == 0
        assert "SMS_HARDCODED" in text

    def test_dump_cfg(self):
        status, text = run_cli([corpus_path("flow_sensitivity")], dump_cfg=True)
        assert status == 0
        assert "digraph" in text

    def test_jobs_parallel_matches_serial(self):
        _, serial = run_cli(all_corpus_paths())
        _, parallel = run_cli(all_corpus_paths(), jobs=4)
        assert serial == parallel

    def test_killed_run_flagged_and_exit_2(self, models, config):
        app = corpus_app("motivating_example")
        fake = [0.0]

        def clock():
            fake[0] += 100.0
            return fake[0]

        report = analyze_app(app, models, config, m_max=2, budget_secs=50,
                             clock=clock)
        assert not report.finished

    def test_killed_cli_run_exits_2(self):
        status, text = run_cli([corpus_path("motivating_example")],
                               budget_secs=1e-9, m_max=2)
        assert status == 2
        assert json.loads(text)["finished"] is False

    def test_empty_component_yields_no_warnings(self, models, config):
        from lifetaint.sequences import PermutationPlan
        app = corpus_app("activity_eveseq1")
        ctx = AnalysisContext(app, config)
        got = analyze_component(app, app.components[0],
                                PermutationPlan((), ()), 1, ctx)
        assert got == [] and ctx.sequences_analyzed == 0

    def test_budget_killed_partial_warnings(self, models, config):
        # give the context almost no budget mid-flight: partial results kept
        app = corpus_app("activity_eveseq2")
        comp = app.components[0]
        ctx = AnalysisContext(app, config, budget_secs=1e9)
        plan = build_plan(models["ACTIVITY"], comp)
        analyze_component(app, comp, plan, 1, ctx)
        assert ctx.warnings  # sanity: this app warns at m=1

        ctx2 = AnalysisContext(app, config, budget_secs=-1.0)
        analyze_component(app, comp, plan, 1, ctx2)
        assert ctx2.killed and ctx2.sequences_analyzed == 0


class TestArgs:
    def test_bad_m_max(self):
        with pytest.raises(ConfigError):
            RunConfig(app_paths=["x"], m_max=0)

    def test_bad_budget(self):
        # NaN fails every comparison, so a `<= 0` check let it through and
        # the analysis ran with no budget at all
        for budget in (0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                RunConfig(app_paths=["x"], budget_secs=budget)

    @pytest.mark.parametrize("field,value,message", [
        ("m_max", 2.0, "m-max must be an integer"),
        ("m_max", "2", "m-max must be an integer"),
        ("m_max", True, "m-max must be an integer"),
        ("m_max", None, "m-max must be an integer"),
        ("jobs", 1.0, "jobs must be an integer"),
        ("jobs", "1", "jobs must be an integer"),
        ("jobs", True, "jobs must be an integer"),
        ("budget_secs", "5", "budget-secs must be a number"),
        ("budget_secs", None, "budget-secs must be a number"),
        ("budget_secs", True, "budget-secs must be a number"),
        ("budget_secs", complex(5, 0), "budget-secs must be a number"),
        ("app_paths", "corpus/sms_hardcoded.app", "app paths must be a list of paths"),
        ("app_paths", b"corpus/sms_hardcoded.app", "app paths must be a list of paths"),
        ("app_paths", ["x", 3], "app paths must be a list of paths"),
        ("app_paths", [b"x"], "app paths must be a list of paths"),
        ("app_paths", iter(["x"]), "app paths must be a list of paths"),
        ("app_paths", None, "app paths must be a list of paths"),
        ("models_dir", 7, "models directory must be a path"),
        ("models_dir", 7.5, "models directory must be a path"),
        ("models_dir", b"models", "models directory must be a path"),
        ("models_dir", ["models"], "models directory must be a path"),
        ("config_path", 3, "config path must be a path"),
        ("config_path", 3.5, "config path must be a path"),
        ("config_path", b"config.json", "config path must be a path"),
        ("config_path", ["config.json"], "config path must be a path"),
    ])
    def test_wrongly_typed_setting_is_config_error(self, field, value, message):
        # a float m-max used to reach range() and make every report a
        # TypeError with exit status 0; a string budget raised TypeError; a
        # string of app paths wrote one error report per character; an int
        # config path was read as a file descriptor, and closed, and a float
        # models directory escaped `run` as a TypeError
        with pytest.raises(ConfigError) as info:
            RunConfig(**{"app_paths": ["x"], field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("field,value", [
        ("m_max", 3), ("jobs", 2), ("budget_secs", 5), ("budget_secs", 0.5),
        ("budget_secs", Fraction(1, 2)), ("app_paths", ("x", pathlib.Path("y"))),
        ("models_dir", "m"), ("models_dir", pathlib.Path("m")),
        ("config_path", "c.json"), ("config_path", pathlib.Path("c.json")),
    ])
    def test_well_typed_setting_is_kept(self, field, value):
        assert getattr(RunConfig(**{"app_paths": ["x"], field: value}), field) == value

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            RunConfig(app_paths=["x"], fmt="xml")

    def test_bad_jobs(self, capsys):
        # the batch runs serially whatever --jobs says, but 0 is still refused
        with pytest.raises(ConfigError):
            RunConfig(app_paths=["x"], jobs=0)
        assert main(["--app", corpus_path("sms_hardcoded"), "--jobs", "0"]) == 1
        assert capsys.readouterr() == ("", "configuration error: jobs must be >= 1\n")

    def test_main_entry(self, capsys):
        status = main(["--app", corpus_path("sms_hardcoded"), "--m-max", "1"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["app_id"] == "sms_hardcoded"

    def test_main_without_flags_writes_the_run_config_defaults(self, capsys):
        # main keeps no defaults of its own: a flag left out is RunConfig's
        path = corpus_path("motivating_example")
        assert main(["--app", path]) == 0
        assert capsys.readouterr().out == run_cli([path])[1]

    def test_every_flag_reaches_its_run_config_field(self, capsys, monkeypatch):
        # every field differs from its default, so a flag with the wrong
        # dest, or none, gives another RunConfig
        path = corpus_path("motivating_example")
        fields = dict(models_dir=_data_path("models"),
                      config_path=_data_path("config", "default_config.json"),
                      m_max=1, budget_secs=50.0, fmt="table", jobs=3, dump_cfg=True)
        argv = ["--app", path, "--models", fields["models_dir"],
                "--config", fields["config_path"], "--m-max", "1", "--budget-secs", "50",
                "--format", "table", "--jobs", "3", "--dump-cfg"]
        configs = []

        def recording(config):
            configs.append(vars(config).copy())
            return run(config)

        monkeypatch.setattr(cli, "run", recording)
        assert main(argv) == 0
        written = capsys.readouterr().out
        status, expected = run_cli([path], **fields)
        assert configs == [vars(RunConfig(app_paths=[path], **fields))]
        # the table shows each run's own elapsed time
        elapsed = re.compile(r"elapsed: [0-9.]+s")
        assert status == 0 and "digraph" in expected and "elapsed: " in expected
        assert elapsed.sub("", written) == elapsed.sub("", expected)

    def test_main_bad_config_exit_1(self, capsys):
        status = main(["--app", "x.app", "--models", "/nope"])
        assert status == 1

    def test_main_empty_config_flag_exit_1(self, capsys):
        # an empty path names no file; it does not fall back to the bundled one
        status = main(["--app", corpus_path("motivating_example"), "--config", ""])
        out, err = capsys.readouterr()
        assert (status, out) == (1, "")
        assert err.startswith("configuration error: ")

    @pytest.mark.parametrize("sources", ["TelephonyManager.getDeviceId/0", 5])
    def test_sources_not_a_list_is_config_error(self, tmp_path, capsys, sources):
        # a string used to become a set of characters, and 5 a TypeError
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sources": sources, "sinks": ["Log.e/2"]}))
        status, text = run_cli([corpus_path("motivating_example")], config_path=str(path))
        assert (status, text) == (1, "")
        assert "configuration error:" in capsys.readouterr().err

    def test_a_config_that_is_not_an_object_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"sources": [], "sinks": []}]))
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == "%s: not a JSON object" % path

    @pytest.mark.parametrize("rule", [
        "SmsManager.sendTextMessage/5",
        {"signature": 5, "recipient_arg_index": 0},
        {"signature": "SmsManager.sendTextMessage/5", "recipient_arg_index": -1},
        {"signature": "SmsManager.sendTextMessage/5", "recipient_arg_index": "0"},
    ])
    def test_malformed_sms_rule_is_config_error(self, tmp_path, rule):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sources": [], "sinks": [], "sms_send_apis": [rule]}))
        status, _ = run_cli([corpus_path("motivating_example")], config_path=str(path))
        assert status == 1

    def test_python_dash_m(self):
        result = run_isolated(["-m", "lifetaint", "--app", corpus_path("sms_hardcoded")])
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout)["app_id"] == "sms_hardcoded"

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["at-flush", "at-write"])
    def test_reader_that_closes_early_ends_the_run_quietly(self, unbuffered):
        # buffered, the report waits for the last flush; unbuffered, the
        # batch's write loop fails
        env = isolated_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "lifetaint", "--app", corpus_path("motivating_example")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        proc.stdout.close()
        try:
            err = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
        assert (proc.returncode, err) == (1, "")

    @pytest.mark.parametrize("malform", [
        # a state given by its name used to end the run with an AttributeError
        lambda doc: doc.update(states=[state["name"] for state in doc["states"]]),
        # a list or an object where a state name belongs, with a TypeError
        lambda doc: doc["states"][0].update(name=["AndroidRobot"]),
        lambda doc: doc.update(initial=[]),
        lambda doc: doc.update(goal={"name": "StaticPostResumed"}),
        lambda doc: doc["transitions"][0].update({"from": []}),
        lambda doc: doc["transitions"][0].update(to=[]),
        # an else guard that is not a JSON bool
        lambda doc: doc["transitions"][0].update(guard={"else": "no"}),
        lambda doc: doc["transitions"][0].update(guard={"else": 0}),
    ], ids=["state-names", "state-name", "initial", "goal", "from", "to",
            "else-string", "else-int"])
    def test_malformed_model_is_config_error(self, malform, tmp_path, capsys):
        base = pathlib.Path(_data_path("models"))
        doc = json.loads(base.joinpath("activity.json").read_text())
        malform(doc)
        (tmp_path / "activity.json").write_text(json.dumps(doc))
        (tmp_path / "service.json").write_text(base.joinpath("service.json").read_text())
        status, text = run_cli([corpus_path("motivating_example")], models_dir=str(tmp_path))
        assert (status, text) == (1, "")
        assert "configuration error:" in capsys.readouterr().err

    def test_transient_cycle_model_keeps_the_batch(self, cyclic_models_dir):
        # the cycle only cuts derivation branches; the bundled createActivity
        # transition still yields every path, so the reports do not change
        paths = [corpus_path("flow_sensitivity"), corpus_path("recursion")]
        status, text = run_cli(paths, models_dir=cyclic_models_dir)
        assert status == 0
        assert len(_split_json(text)) == 2
        assert text == run_cli(paths)[1]


def models_with_event(directory, event):
    """Write the bundled models to `directory`, with the activity machine's
    createActivity event named `event`; returns the directory."""
    base = pathlib.Path(_data_path("models"))
    text = base.joinpath("activity.json").read_text()
    directory.joinpath("activity.json").write_text(text.replace("createActivity", event))
    directory.joinpath("service.json").write_text(base.joinpath("service.json").read_text())
    return directory


@pytest.mark.usefixtures("no_kept_loads")
class TestKeptLoads:
    """`run` keeps the models and the configuration it loaded for the next
    run, while their files hold the same bytes."""

    PATHS = [corpus_path("activity_eveseq1"), corpus_path("motivating_example")]

    def test_a_rewritten_model_file_is_loaded_again(self, tmp_path):
        bundled = run_cli(self.PATHS)
        models = str(models_with_event(tmp_path, "createActivity"))
        assert run_cli(self.PATHS, models_dir=models) == bundled
        models_with_event(tmp_path, "openActivity")
        assert "createActivity" in bundled[1]
        assert run_cli(self.PATHS, models_dir=models) == (
            0, bundled[1].replace("createActivity", "openActivity"))

    def test_models_dirs_taken_in_turn(self, tmp_path):
        bundled = run_cli(self.PATHS)
        custom = models_with_event(tmp_path, "openActivity")
        renamed = run_cli(self.PATHS, models_dir=custom)
        assert renamed != bundled and renamed[0] == 0
        for _ in range(2):
            assert run_cli(self.PATHS, models_dir=str(custom)) == renamed
            assert run_cli(self.PATHS) == bundled
            assert run_cli(self.PATHS, models_dir=_data_path("models")) == bundled

    @pytest.mark.parametrize("where", ["model", "config"])
    def test_a_malformed_file_is_the_same_error_each_run(self, tmp_path, capsys, where):
        # loaded and kept, then broken twice, then mended
        if where == "model":
            models_with_event(tmp_path, "createActivity")
            broken, kw, key = tmp_path / "activity.json", dict(models_dir=str(tmp_path)), "models"
        else:
            broken = tmp_path / "config.json"
            broken.write_text(pathlib.Path(
                _data_path("config", "default_config.json")).read_text())
            kw, key = dict(config_path=str(broken)), "config"
        good = broken.read_bytes()
        expected = run_cli(self.PATHS, **kw)
        assert expected[0] == 0
        errors = []
        for content in (b"not json", b"not json", b'{"sources": 5}'):
            broken.write_bytes(content)
            assert run_cli(self.PATHS, **kw) == (1, "")
            errors.append(capsys.readouterr().err)
            assert key not in cli._kept  # a load that fails keeps nothing
        broken.write_bytes(good)
        assert run_cli(self.PATHS, **kw) == expected
        assert errors[0] == errors[1] != errors[2]
        assert all(err.startswith("configuration error: %s: " % broken) for err in errors)

    def test_a_file_rewritten_while_it_loads_is_not_kept(self, tmp_path, monkeypatch):
        # the load reads the rewritten file, so what it gives is not what the
        # bytes read before it stand for
        path = tmp_path / "config.json"
        bundled = pathlib.Path(_data_path("config", "default_config.json")).read_text()
        path.write_text(bundled)
        expected = run_cli(self.PATHS)
        real = cli.load_config

        def rewriting(name):
            path.write_text(json.dumps({"sources": [], "sinks": []}))
            return real(name)

        monkeypatch.setattr(cli, "load_config", rewriting)
        assert json.loads(_split_json(run_cli(self.PATHS, config_path=str(path))[1])[0])[
            "warnings"] == []
        monkeypatch.setattr(cli, "load_config", real)
        path.write_text(bundled)
        assert run_cli(self.PATHS, config_path=str(path)) == expected

    def test_the_public_loaders_give_new_objects(self):
        assert run_cli(self.PATHS)[0] == 0
        kept_models, kept_config = cli._kept["models"][1], cli._kept["config"][1]
        models, config = cli.load_models(), cli.default_config()
        assert models.keys() == kept_models.keys()
        for kind, model in models.items():
            assert model is not kept_models[kind] and model is not cli.load_models()[kind]
            assert model._paths_cache is None and model._plans == {}
        assert kept_models["ACTIVITY"]._plans
        assert config is not kept_config and config is not cli.default_config()
        assert vars(config) == vars(kept_config)

    def test_batches_in_one_process_equal_a_fresh_process(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(ROOT, "perfbench")))
        import gen

        batches = [(all_corpus_paths(), 3, 2)]
        batches += [(gen.write_family(family, 1, str(tmp_path / family)),
                     gen.FAMILIES[family].m_max, 1) for family in ("wide", "deep")]
        for paths, m_max, jobs in batches:
            fresh = run_isolated(["-m", "lifetaint", *(a for p in paths for a in ("--app", p)),
                                  "--m-max", str(m_max), "--jobs", str(jobs)])
            assert (fresh.returncode, fresh.stderr) == (0, "")
            for _ in range(3):
                assert run_cli(paths, m_max=m_max, jobs=jobs) == (0, fresh.stdout)


class TestNotJson:
    """Apps, models and configurations are all read by one JSON reader."""

    LOADERS = pytest.mark.parametrize("load, error", [
        (load_app, AppLoadError), (load_model, ModelError), (load_config, ConfigError),
    ], ids=["app", "model", "config"])
    # files the decoder itself cannot read: bytes that are not UTF-8, and
    # arrays nested deeper than the parser's recursion limit
    UNREADABLE = pytest.mark.parametrize("content", [
        b'{"app_id": "\xff"}', b"[" * 100000,
    ], ids=["not UTF-8", "nested too deep"])

    def loader_error(self, tmp_path, load, error, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(error) as info:
            load(str(path))
        assert type(info.value) is error
        assert str(info.value).startswith("%s: not valid JSON: " % path)

    def app_report(self, tmp_path, content):
        broken = tmp_path / "broken.app"
        broken.write_bytes(content)
        good = corpus_path("sms_hardcoded")
        status, text = run_cli([str(broken), good])
        first, second = _split_json(text)
        assert status == 0
        doc = json.loads(first)
        assert (doc["app_id"], doc["finished"], doc["warnings"]) == ("broken.app", True, [])
        assert doc["error"].startswith("%s: not valid JSON: " % broken)
        assert second + "\n" == run_cli([good])[1]

    def config_error(self, tmp_path, capsys, where, content):
        broken = tmp_path / ("activity.json" if where == "model" else "config.json")
        broken.write_bytes(content)
        if where == "model":
            models = pathlib.Path(_data_path("models"))
            (tmp_path / "service.json").write_text(models.joinpath("service.json").read_text())
            kw = dict(models_dir=str(tmp_path))
        else:
            kw = dict(config_path=str(broken))
        status, text = run_cli([corpus_path("motivating_example")], **kw)
        assert (status, text) == (1, "")
        assert capsys.readouterr().err.startswith(
            "configuration error: %s: not valid JSON: " % broken)

    @LOADERS
    def test_each_loader_raises_its_own_error(self, tmp_path, load, error):
        self.loader_error(tmp_path, load, error, b'{"app_id": ')

    @UNREADABLE
    @LOADERS
    def test_an_unreadable_file_is_the_loaders_error(self, tmp_path, load, error, content):
        self.loader_error(tmp_path, load, error, content)

    def test_app_file_becomes_only_its_own_error_report(self, tmp_path):
        self.app_report(tmp_path, b"not json")

    @UNREADABLE
    def test_an_unreadable_app_file_becomes_its_error_report(self, tmp_path, content):
        self.app_report(tmp_path, content)

    @pytest.mark.parametrize("where", ["config", "model"])
    def test_config_or_model_file_is_config_error(self, tmp_path, capsys, where):
        self.config_error(tmp_path, capsys, where, b"not json")

    @UNREADABLE
    @pytest.mark.parametrize("where", ["config", "model"])
    def test_an_unreadable_config_or_model_file_is_config_error(
            self, tmp_path, capsys, where, content):
        self.config_error(tmp_path, capsys, where, content)

    # open() refuses a path that holds a NUL as malformed, with a ValueError
    @LOADERS
    def test_a_path_holding_a_nul_is_the_loaders_error(self, load, error):
        with pytest.raises(error) as info:
            load("a\x00b")
        assert type(info.value) is error
        assert str(info.value) == "'a\\x00b': cannot be opened: embedded null byte"

    @pytest.mark.parametrize("where, message", [
        ("config_path", "'a\\x00b': cannot be opened: embedded null byte"),
        ("models_dir", "models directory 'a\\x00b' does not exist"),
    ], ids=["config", "models"])
    def test_a_config_or_models_path_holding_a_nul_is_config_error(self, capsys, where, message):
        status, text = run_cli([corpus_path("motivating_example")], **{where: "a\x00b"})
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == "configuration error: %s\n" % message

    # an empty path is no file or directory, whichever setting holds it
    @pytest.mark.parametrize("where, message", [
        ("config_path", "[Errno 2] No such file or directory: ''"),
        ("models_dir", "models directory '' does not exist"),
    ], ids=["config", "models"])
    def test_an_empty_config_or_models_path_is_config_error(self, capsys, where, message):
        status, text = run_cli([corpus_path("motivating_example")], **{where: ""})
        assert (status, text) == (1, "")
        assert capsys.readouterr().err == "configuration error: %s\n" % message

    def test_an_app_path_holding_a_nul_becomes_its_error_report(self):
        good = corpus_path("sms_hardcoded")
        status, text = run_cli(["a\x00b.app", good])
        first, second = _split_json(text)
        assert status == 0
        assert json.loads(first) == {
            "app_id": "a\x00b.app", "error": "'a\\x00b.app': cannot be opened: embedded null byte",
            "finished": True, "m_reached": 0, "sequences_analyzed": 0, "warnings": []}
        assert second + "\n" == run_cli([good])[1]


def _split_json(text):
    """Split concatenated pretty-printed JSON documents."""
    chunks, depth, start = [], 0, None
    for i, ch in enumerate(text):
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                chunks.append(text[start:i + 1])
    return chunks
