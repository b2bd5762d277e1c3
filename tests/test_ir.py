import json
import re

import pytest

from lifetaint import ir
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


def as_json(app):
    """The loaded model in the IR's JSON shape."""
    return {
        "app_id": app.app_id,
        "version": app.version,
        "classes": [{
            "name": c.name, "parent_kind": c.parent_kind, "static_fields": c.static_fields,
            "methods": [{
                "sig": m.sig, "params": m.params, "labels": m.labels,
                "instructions": [[i.kind, *(list(op) if isinstance(op, tuple) else op
                                            for op in i.operands)]
                                 for i in m.instructions],
            } for m in c.methods],
        } for c in app.classes],
        "components": [{"class": k.class_name, "kind": k.kind, "aui_callbacks": k.aui_callbacks,
                        "misc_callbacks": k.misc_callbacks} for k in app.components],
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

    def test_receiver_passed_to_static_method(self):
        doc = minimal(params=[])
        doc["classes"][0]["methods"].append({
            "sig": "caller/0", "params": ["this"],
            "instructions": [["INVOKE_VIRTUAL", None, "this", "C.go/0", []], ["RETURN_VOID"]],
            "labels": {},
        })
        with pytest.raises(AppLoadError,
                           match=r"C\.caller/0\[0\] passes a receiver to static method C\.go/0$"):
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
        first = as_json(load_app(path))
        # the model holds exactly what the file says ...
        with open(path, encoding="utf-8") as fh:
            assert first == json.load(fh)
        # ... and loading that shape again gives the same model
        again = as_json(app_from_dict(first))
        assert first == again


class TestMalformed:
    """A malformed container or operand is an AppLoadError that names the
    field, not a Python exception from deep inside the loader."""

    @pytest.mark.parametrize("edit,field", [
        (lambda doc: [doc], "not a JSON object"),
        (lambda doc: {**doc, "app_id": ["x"]}, "field 'app_id'"),
        (lambda doc: {**doc, "classes": 5}, "field 'classes'"),
        (lambda doc: {**doc, "classes": [5]}, "field 'classes'"),
        (lambda doc: {**doc, "components": [5]}, "field 'components'"),
    ])
    def test_malformed_document(self, edit, field):
        with pytest.raises(AppLoadError, match=field):
            app_from_dict(edit(minimal()))

    @pytest.mark.parametrize("key,value", [("static_fields", "ab"), ("methods", {}),
                                           ("methods", ["go/0"])])
    def test_malformed_class_field(self, key, value):
        doc = minimal()
        doc["classes"][0][key] = value
        with pytest.raises(AppLoadError, match="field '%s'" % key):
            app_from_dict(doc)

    @pytest.mark.parametrize("key,value", [("labels", [1]), ("params", "this"),
                                           ("instructions", [["RETURN_VOID"], "GOTO"])])
    def test_malformed_method_field(self, key, value):
        with pytest.raises(AppLoadError, match="field '%s'" % key):
            app_from_dict(minimal(**{key: value}))

    @pytest.mark.parametrize("key", ["aui_callbacks", "misc_callbacks"])
    def test_callbacks_must_be_a_list(self, key):
        doc = minimal()
        doc["components"] = [{"class": "C", "kind": "ACTIVITY", "aui_callbacks": [],
                              "misc_callbacks": [], key: "go"}]
        with pytest.raises(AppLoadError, match="field '%s'" % key):
            app_from_dict(doc)

    @pytest.mark.parametrize("instr,operand", [
        (["INVOKE_STATIC", "r", 5, []], 2),
        (["INVOKE_STATIC", 5, "Log.e/0", []], 1),
        (["INVOKE_STATIC", None, "Log.e/1", [5]], 3),
        (["INVOKE_VIRTUAL", None, "this", "Log.e/0", "x"], 4),
        (["IF_GOTO", "r", ["x"]], 2),
        (["MOVE", "a", None], 2),
        (["IGET", "a", "this", 0], 3),
    ])
    def test_operand_of_the_wrong_type(self, instr, operand):
        doc = minimal(instructions=[instr, ["RETURN_VOID"]], labels={"x": 0})
        with pytest.raises(AppLoadError, match="%s at 0: operand %d" % (instr[0], operand)):
            app_from_dict(doc)

    # operand letter -> (a valid operand, a wrongly typed one, the noun that
    # names what it must be); "i" takes any operand
    LETTERS = {
        "n": ("x", 5, "a name"),
        "r": (None, 5, "a register name or null"),
        "s": ("s", 5, "a string literal"),
        "f": (1, "1", "a number literal"),
        "i": (0, None, None),
        "a": ([], "x", "a list of register names"),
    }

    @staticmethod
    def valid(kind):
        """An instruction of opcode `kind` that loads."""
        ops = [TestMalformed.LETTERS[letter][0] for letter in ir._OPERANDS[kind]]
        if kind.startswith("INVOKE_"):
            ops[-2] = "Lib.f/0"
        return [kind, *ops]

    @pytest.mark.parametrize("kind,position", [
        (kind, i) for kind, spec in ir._OPERANDS.items()
        for i, letter in enumerate(spec) if letter != "i"])
    def test_each_operand_error_names_its_operand(self, kind, position):
        letter = ir._OPERANDS[kind][position]
        _, wrong, noun = self.LETTERS[letter]
        instr = self.valid(kind)
        app_from_dict(minimal(instructions=[instr, ["RETURN_VOID"]], labels={"x": 0}))
        instr[1 + position] = wrong
        with pytest.raises(AppLoadError) as info:
            app_from_dict(minimal(instructions=[instr, ["RETURN_VOID"]], labels={"x": 0}))
        assert str(info.value) == "<dict>:C.go/0: %s at 0: operand %d must be %s, got %r" % (
            kind, position + 1, noun, wrong)

    def test_operands_of_a_str_subclass_load(self):
        class Name(str):
            pass

        doc = minimal(instructions=[
            ["CONST_STRING", Name("a"), Name("s")],
            ["MOVE", Name("b"), Name("a")],
            ["INVOKE_STATIC", Name("c"), Name("Lib.f/1"), [Name("b")]],
            ["RETURN_VOID"]])
        doc["classes"][0]["static_fields"] = [Name("f")]
        app = app_from_dict(doc)
        assert [i.operands for i in app.classes[0].methods[0].instructions] == [
            ("a", "s"), ("b", "a"), ("c", "Lib.f/1", ("b",)), ()]
        assert app.classes[0].static_fields == ["f"]

    @pytest.mark.parametrize("argc", ["00", "01", "²", "٣", " 1", "-1", "+1"])
    def test_argc_is_plain_ascii_digits(self, argc):
        # "go/00" would name no method that a "C.go/0" invoke resolves to,
        # and "²" is a digit to str.isdigit that int() rejects
        named = re.escape("bad method signature 'go/%s'" % argc)
        with pytest.raises(AppLoadError, match=named):
            app_from_dict(minimal(sig="go/" + argc))
        call = ["INVOKE_STATIC", None, "C.go/" + argc, []]
        with pytest.raises(AppLoadError, match=named):
            app_from_dict(minimal(instructions=[call, ["RETURN_VOID"]]))

    @pytest.mark.parametrize("argc", ["0", "1", "10"])
    def test_argc_without_a_leading_zero_loads(self, argc):
        params = ["this"] + ["p%d" % i for i in range(int(argc))]
        app = app_from_dict(minimal(sig="go/" + argc, params=params))
        assert app.classes[0].methods[0].argc == int(argc)

    @pytest.mark.parametrize("target", [True, False, 1.0])
    def test_a_label_target_is_an_int_not_a_bool(self, target):
        doc = minimal(instructions=[["GOTO", "x"], ["RETURN_VOID"]], labels={"x": target})
        with pytest.raises(AppLoadError, match="label 'x' points outside the method"):
            app_from_dict(doc)

    def test_an_opcode_must_be_a_string(self):
        with pytest.raises(AppLoadError, match="unknown opcode"):
            app_from_dict(minimal(instructions=[[["GOTO"]], ["RETURN_VOID"]]))


def with_class(**fields):
    """minimal() with `fields` set on its class."""
    doc = minimal()
    doc["classes"][0].update(fields)
    return doc


class TestCheckMessages:
    """Each loader check that the tests above do not reach, pinned by its
    whole message."""

    @pytest.mark.parametrize("doc,message", [
        (minimal(sig=5), "<dict>:C: bad method signature 5"),
        (minimal(sig="go"), "<dict>:C: bad method signature 'go'"),
        (minimal(instructions=[["INVOKE_STATIC", None, "C.go", []], ["RETURN_VOID"]]),
         "<dict>:C.go/0: bad method signature 'go'"),
        (minimal(instructions=[[], ["RETURN_VOID"]]), "<dict>:C.go/0: instruction 0 is empty"),
        (minimal(instructions=[["INVOKE_STATIC", None, "go/0", []], ["RETURN_VOID"]]),
         "<dict>:C.go/0: INVOKE_STATIC at 0 needs a Class.method/argc signature"),
        (with_class(name=""), "<dict>: class without a name"),
        (with_class(name=5), "<dict>: class without a name"),
        (with_class(parent_kind="WIDGET"), "<dict>: class C has unknown parent_kind 'WIDGET'"),
        ({**minimal(), "classes": minimal()["classes"] * 2}, "<dict>: duplicate class 'C'"),
        ({**minimal(), "components": [{"class": "C", "kind": "PLAIN"}]},
         "<dict>: component C has unknown kind 'PLAIN'"),
    ])
    def test_check_message(self, doc, message):
        with pytest.raises(AppLoadError) as info:
            app_from_dict(doc)
        assert str(info.value) == message
