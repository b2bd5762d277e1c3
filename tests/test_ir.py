import pytest

from lifetaint.errors import AppLoadError
from lifetaint.ir import app_from_dict, load_app, resolve_method

from conftest import all_corpus_paths, corpus_app


def minimal(**method_overrides):
    method = {
        "sig": "go/0",
        "params": ["this"],
        "instructions": [["RETURN_VOID"]],
        "labels": {},
    }
    method.update(method_overrides)
    return {
        "app_id": "t",
        "classes": [{
            "name": "C", "parent_kind": "PLAIN", "static_fields": [],
            "methods": [method],
        }],
        "components": [],
    }


class TestLoading:
    @pytest.mark.parametrize("path", all_corpus_paths())
    def test_corpus_loads(self, path):
        app = load_app(path)
        assert app.classes
        for comp in app.components:
            assert comp.klass is not None
            for cb in comp.aui_callbacks + comp.misc_callbacks:
                assert comp.klass.method_by_name(cb) is not None

    def test_motivating_shape(self):
        app = corpus_app("motivating_example")
        assert len(app.components) == 1
        comp = app.components[0]
        assert comp.kind == "ACTIVITY"
        lifecycle = {m.name for m in comp.klass.methods} - {"onBtnClicked"}
        assert len(lifecycle) == 5
        assert comp.aui_callbacks == ["onBtnClicked"]

    def test_branch_to_missing_label(self):
        doc = minimal(instructions=[["GOTO", "nowhere"], ["RETURN_VOID"]])
        with pytest.raises(AppLoadError, match="nowhere"):
            app_from_dict(doc)

    def test_label_out_of_range(self):
        doc = minimal(labels={"end": 9})
        with pytest.raises(AppLoadError, match="end"):
            app_from_dict(doc)

    def test_unknown_opcode(self):
        doc = minimal(instructions=[["FLY", "v0"]])
        with pytest.raises(AppLoadError, match="FLY"):
            app_from_dict(doc)

    def test_wrong_operand_count(self):
        doc = minimal(instructions=[["MOVE", "v0"]])
        with pytest.raises(AppLoadError, match="MOVE"):
            app_from_dict(doc)

    @pytest.mark.parametrize("instr", [["CONST_NUM", "v", [1]], ["CONST_NUM", "v", "1"],
                                       ["CONST_STRING", "v", 1], ["CONST_STRING", "v", None]])
    def test_constant_of_the_wrong_type(self, instr):
        doc = minimal(instructions=[instr, ["RETURN_VOID"]])
        with pytest.raises(AppLoadError, match=instr[0]):
            app_from_dict(doc)

    def test_invoke_arg_count_mismatch(self):
        doc = minimal(instructions=[
            ["INVOKE_STATIC", None, "Log.e/2", ["v0"]],
        ])
        with pytest.raises(AppLoadError, match="Log.e/2"):
            app_from_dict(doc)

    def test_ambiguous_signature(self):
        doc = minimal()
        doc["classes"][0]["methods"].append(dict(doc["classes"][0]["methods"][0]))
        with pytest.raises(AppLoadError, match="ambiguous"):
            app_from_dict(doc)

    def test_component_unknown_class(self):
        doc = minimal()
        doc["components"] = [{"class": "Ghost", "kind": "ACTIVITY",
                              "aui_callbacks": [], "misc_callbacks": []}]
        with pytest.raises(AppLoadError, match="Ghost"):
            app_from_dict(doc)

    def test_component_callback_without_method(self):
        doc = minimal()
        doc["components"] = [{"class": "C", "kind": "ACTIVITY",
                              "aui_callbacks": ["onTap"], "misc_callbacks": []}]
        with pytest.raises(AppLoadError, match="onTap"):
            app_from_dict(doc)

    def test_static_call_to_instance_method(self):
        doc = minimal()
        doc["classes"][0]["methods"].append({
            "sig": "caller/0", "params": ["this"],
            "instructions": [["INVOKE_STATIC", None, "C.go/0", []], ["RETURN_VOID"]],
            "labels": {},
        })
        with pytest.raises(AppLoadError, match="statically"):
            app_from_dict(doc)

    def test_param_count_vs_signature(self):
        doc = minimal(sig="go/2", params=["this", "a"])
        with pytest.raises(AppLoadError, match="go/2"):
            app_from_dict(doc)

    def test_writing_to_this_rejected(self):
        doc = minimal(instructions=[["NEW_INSTANCE", "this", "X"], ["RETURN_VOID"]])
        with pytest.raises(AppLoadError, match="this"):
            app_from_dict(doc)


class TestResolution:
    def test_resolves_app_method(self):
        app = corpus_app("motivating_example")
        m = resolve_method(app, "MainActivity.onResume/0")
        assert m is not None and m.name == "onResume"

    def test_external_api_is_absent(self):
        app = corpus_app("motivating_example")
        assert resolve_method(app, "TelephonyManager.getDeviceId/0") is None

    def test_linked_list_getter(self):
        app = corpus_app("linked_list")
        m = resolve_method(app, "Node.getNext/0")
        assert m is not None and m.class_name == "Node"


class TestRoundTrip:
    @pytest.mark.parametrize("path", all_corpus_paths())
    def test_canonical_round_trip(self, path):
        app = load_app(path)
        first = app.to_dict()
        again = app_from_dict(first).to_dict()
        assert first == again
