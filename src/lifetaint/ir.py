"""Mini-bytecode program representation: loader, validation, resolution.

Apps are JSON documents (see docs/ir.md for the instruction set).  Methods
are identified by ``Class.name/argc`` where argc counts explicit arguments;
instance methods declare the receiver as their first parameter.  A signature
that does not resolve to app code is an external API handled by the engine's
API handlers.
"""

from collections import namedtuple

from .errors import AppLoadError, list_of, load_json

PARENT_KINDS = ("ACTIVITY", "SERVICE", "RECEIVER", "THREAD", "ASYNC_TASK", "PLAIN")
COMPONENT_KINDS = ("ACTIVITY", "SERVICE", "RECEIVER")

# opcode -> its operands, one letter of _OPERAND each
_OPERANDS = {
    "CONST_STRING": "ns",
    "CONST_NUM": "nf",
    "MOVE": "nn",
    "NEW_INSTANCE": "nn",
    "IGET": "nnn",
    "IPUT": "nnn",
    "SGET": "nn",
    "SPUT": "nn",
    "COLLECTION_NEW": "n",
    "COLLECTION_PUT": "nin",
    "COLLECTION_GET": "nni",
    "IF_GOTO": "nn",
    "GOTO": "n",
    "RETURN": "n",
    "RETURN_VOID": "",
    "INVOKE_VIRTUAL": "rnna",
    "INVOKE_DIRECT": "rnna",
    "INVOKE_STATIC": "rna",
}


INVOKES = frozenset(kind for kind in _OPERANDS if kind.startswith("INVOKE_"))

Instruction = namedtuple("Instruction", "kind operands index")


class MethodDef:
    def __init__(self, class_name, sig, params, instructions, labels):
        self.class_name = class_name
        self.sig = sig                    # "name/argc"
        self.params = params
        self.instructions = instructions
        self.labels = labels

    @property
    def name(self):
        return self.sig.split("/", 1)[0]

    @property
    def argc(self):
        return int(self.sig.split("/", 1)[1])

    @property
    def full_signature(self):
        return "%s.%s" % (self.class_name, self.sig)


class ClassDef:
    def __init__(self, name, parent_kind, static_fields, methods):
        self.name = name
        self.parent_kind = parent_kind
        self.static_fields = static_fields
        self.methods = methods
        # name -> the first method with that name
        self._by_name = {m.name: m for m in reversed(methods)}

    def method_by_name(self, name):
        return self._by_name.get(name)


class ComponentDef:
    def __init__(self, class_name, kind, aui_callbacks, misc_callbacks, klass=None):
        self.class_name = class_name
        self.kind = kind
        self.aui_callbacks = aui_callbacks
        self.misc_callbacks = misc_callbacks
        self.klass = klass


class AppModel:
    def __init__(self, app_id, version, classes, components):
        self.app_id = app_id
        self.version = version
        self.classes = classes
        self.components = components
        self._classes = {c.name: c for c in classes}
        self._methods = {}
        for c in classes:
            for m in c.methods:
                self._methods[m.full_signature] = m

    def klass(self, name):
        return self._classes.get(name)


def resolve_method(app, signature):
    """MethodDef for a full signature, or None when it is an external API."""
    return app._methods.get(signature)


def _check_sig(sig, where):
    if not isinstance(sig, str) or "/" not in sig:
        raise AppLoadError("%s: bad method signature %r" % (where, sig))
    name, _, argc = sig.partition("/")
    # "0" or ASCII digits with no leading zero, as a "/argc" invoke spells it
    if not name or not (argc.isascii() and argc.isdigit() and str(int(argc)) == argc):
        raise AppLoadError("%s: bad method signature %r" % (where, sig))


_WRITES_DST = {"CONST_STRING", "CONST_NUM", "MOVE", "NEW_INSTANCE", "IGET",
               "SGET", "COLLECTION_NEW", "COLLECTION_GET",
               "INVOKE_VIRTUAL", "INVOKE_DIRECT", "INVOKE_STATIC"}


# operand letter -> (what the operand must be, its check).  A name is a
# register, field, static, class, signature or label; a constant's literal
# type is checked (booleans are ints), since constants are compared and
# hashed with the state they are part of
_OPERAND = {
    "n": ("a name", lambda op: isinstance(op, str)),
    "r": ("a register name or null", lambda op: op is None or isinstance(op, str)),
    "s": ("a string literal", lambda op: isinstance(op, str)),
    "f": ("a number literal", lambda op: isinstance(op, (int, float))),
    "i": ("a collection index", lambda op: True),
    "a": ("a list of register names",
          lambda op: isinstance(op, (list, tuple)) and all(map(str.__instancecheck__, op))),
}

# opcode -> (its operand letters, whether every operand must be a string,
# whether it writes its first operand, whether it is an invoke)
_OPCODES = {kind: (spec, set(spec) <= {"n", "s"}, kind in _WRITES_DST,
                   kind in INVOKES)
            for kind, spec in _OPERANDS.items()}


def _parse_instruction(raw, idx, where):
    if not raw:
        raise AppLoadError("%s: instruction %d is empty" % (where, idx))
    kind, *ops = raw
    opcode = _OPCODES.get(kind) if isinstance(kind, str) else None
    if opcode is None:
        raise AppLoadError("%s: unknown opcode %r at %d" % (where, kind, idx))
    spec, strings, writes, invoke = opcode
    if len(ops) != len(spec):
        raise AppLoadError("%s: %s at %d takes %d operands, got %d"
                           % (where, kind, idx, len(spec), len(ops)))
    # one pass over operands that must all be strings; the check of each
    # operand in turn names the one that fails
    if not (strings and all(map(str.__instancecheck__, ops))):
        for i, op in enumerate(ops):
            noun, check = _OPERAND[spec[i]]
            if not check(op):
                raise AppLoadError("%s: %s at %d: operand %d must be %s, got %r"
                                   % (where, kind, idx, i + 1, noun, op))
    if writes and ops[0] == "this":
        raise AppLoadError("%s: %s at %d cannot write to 'this'" % (where, kind, idx))
    if invoke:
        args = ops[-1]
        sig = ops[2] if kind != "INVOKE_STATIC" else ops[1]
        if "." not in sig:
            raise AppLoadError("%s: %s at %d needs a Class.method/argc signature" % (where, kind, idx))
        cls, _, msig = sig.rpartition(".")
        _check_sig(msig, where)
        declared = int(msig.rsplit("/", 1)[1])
        if len(args) != declared:
            raise AppLoadError("%s: %s at %d passes %d args to %s"
                               % (where, kind, idx, len(args), sig))
        ops = [*ops[:-1], tuple(args)]
    # Instruction's own __new__ is a Python call
    return tuple.__new__(Instruction, (kind, tuple(ops), idx))


def _parse_method(raw, class_name, where):
    sig = raw.get("sig")
    _check_sig(sig, where)
    where = "%s.%s" % (where, sig)
    params = list_of(str, raw, "params", where, AppLoadError)
    labels = raw.get("labels", {})
    if not isinstance(labels, dict):
        raise AppLoadError("%s: field 'labels' must be an object" % where)
    instrs = [_parse_instruction(ins, i, where)
              for i, ins in enumerate(list_of(list, raw, "instructions", where, AppLoadError))]
    for lbl, target in labels.items():
        if type(target) is not int or not 0 <= target <= len(instrs):
            raise AppLoadError("%s: label %r points outside the method" % (where, lbl))
    for ins in instrs:
        if ins.kind in ("IF_GOTO", "GOTO"):
            lbl = ins.operands[-1]
            if lbl not in labels:
                raise AppLoadError("%s: branch to missing label %r at %d"
                                   % (where, lbl, ins.index))
    method = MethodDef(class_name, sig, params, instrs, labels)
    declared_argc = method.argc
    explicit = len(params) - (1 if params and params[0] == "this" else 0)
    if explicit != declared_argc:
        raise AppLoadError("%s: declares %d args but lists %d non-this params"
                           % (where, declared_argc, explicit))
    return method


def load_app(path):
    """Load and validate an app IR file."""
    return app_from_dict(load_json(path, AppLoadError), source=str(path))


def app_from_dict(doc, source="<dict>"):
    if not isinstance(doc, dict):
        raise AppLoadError("%s: not a JSON object" % source)
    app_id = doc.get("app_id")
    if not app_id or not isinstance(app_id, str):
        raise AppLoadError("%s: field 'app_id' must be a non-empty string" % source)
    classes = []
    for rawc in list_of(dict, doc, "classes", source, AppLoadError):
        name = rawc.get("name")
        kind = rawc.get("parent_kind", "PLAIN")
        if not name or not isinstance(name, str):
            raise AppLoadError("%s: class without a name" % source)
        where = "%s:%s" % (source, name)
        if kind not in PARENT_KINDS:
            raise AppLoadError("%s: class %s has unknown parent_kind %r" % (source, name, kind))
        methods = [_parse_method(m, name, where)
                   for m in list_of(dict, rawc, "methods", where, AppLoadError)]
        sigs = [m.sig for m in methods]
        for sig in sigs:
            if sigs.count(sig) > 1:
                raise AppLoadError("%s: ambiguous signature %s.%s" % (source, name, sig))
        static_fields = list_of(str, rawc, "static_fields", where, AppLoadError)
        classes.append(ClassDef(name, kind, static_fields, methods))
    names = [c.name for c in classes]
    for n in names:
        if names.count(n) > 1:
            raise AppLoadError("%s: duplicate class %r" % (source, n))

    by_name = {c.name: c for c in classes}
    components = []
    for rawcomp in list_of(dict, doc, "components", source, AppLoadError):
        cname = rawcomp.get("class")
        kind = rawcomp.get("kind")
        if not isinstance(cname, str) or cname not in by_name:
            raise AppLoadError("%s: component references unknown class %r" % (source, cname))
        if kind not in COMPONENT_KINDS:
            raise AppLoadError("%s: component %s has unknown kind %r" % (source, cname, kind))
        where = "%s: component %s" % (source, cname)
        comp = ComponentDef(
            cname, kind,
            list_of(str, rawcomp, "aui_callbacks", where, AppLoadError),
            list_of(str, rawcomp, "misc_callbacks", where, AppLoadError),
            by_name[cname],
        )
        for cb in comp.aui_callbacks + comp.misc_callbacks:
            if comp.klass.method_by_name(cb) is None:
                raise AppLoadError("%s: component %s declares callback %r with no method"
                                   % (source, cname, cb))
        components.append(comp)

    app = AppModel(app_id, str(doc.get("version", "0")), classes, components)
    _check_invokes(app, source)
    return app


def _check_invokes(app, source):
    """Invokes that resolve to app code must agree with the target's shape."""
    for method in app._methods.values():
        for ins in method.instructions:
            static = ins.kind == "INVOKE_STATIC"
            target = ins.kind in INVOKES and resolve_method(app, ins.operands[1 if static else 2])
            if target and static == (target.params[:1] == ["this"]):
                wrong = ("calls instance method %s statically" if static
                         else "passes a receiver to static method %s")
                raise AppLoadError("%s: %s[%d] %s" % (source, method.full_signature, ins.index,
                                                      wrong % target.full_signature))
