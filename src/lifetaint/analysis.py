"""The taint engine: per-sequence, per-method abstract interpretation.

Each generated callback sequence is analyzed as one execution hypothesis:
instance fields (reached through the shared component entry) and statics
persist across the callbacks of a sequence and are reset between sequences.
Each method is compiled once per app into a plan: its de-looped CFG's
blocks in reverse post order, each with the merge it starts from.  A block
with several predecessors merges their isolated OUT_d snapshots so taints
survive path-local untainting, while straight-line chains pass the live table
through and keep caller/callee aliasing intact.  Only blocks that a merge
reads are snapshotted.
"""

import json
import time

from . import api_handlers
from .cfg import build_cfg, remove_back_edges, reverse_post_order
from .detectors import (
    INFO_LEAK, Warning, detect_sms_attacks, sink_location, source_locations,
)
from .errors import AnalysisError, ConfigError
from .ir import resolve_method
from .sequences import generate_m_way
from .symbols import (
    COLLECTION, IMMUTABLE_REF, MUTABLE_REF, PRIMITIVE,
    Entry, EntryDetails, SymbolSpace, TaintTag,
    bind_copy, collect_taints, const_entry, fresh_entry, merge_spaces,
)

# life-cycle callbacks that receive the component's saved-state bundle; the
# same bundle entry is passed to each so stored values round-trip between them
BUNDLE_CALLBACKS = {"onCreate", "onSaveInstanceState", "onRestoreInstanceState"}

# (parent kind, invoked method name) -> the callbacks the runtime then runs:
# a thread's start() runs run(), a task's execute() its four callbacks
DISCONTINUITIES = {
    ("THREAD", "start"): ("run",),
    ("ASYNC_TASK", "execute"): (
        "onPreExecute", "doInBackground", "onProgressUpdate", "onPostExecute"),
}


class _TimeBudgetExceeded(Exception):
    pass


class AnalysisConfig:
    def __init__(self, sources, sinks, sms_send_apis, originating_address_apis):
        self.sources = set(sources)
        self.sinks = set(sinks)
        self.sms_rules = {rule["signature"]: rule for rule in sms_send_apis}
        self.originating_address_apis = set(originating_address_apis)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("%s: not valid JSON: %s" % (path, exc)) from exc
    for key in ("sources", "sinks"):
        if key not in doc:
            raise ConfigError("%s: missing %r list" % (path, key))
    for rule in doc.get("sms_send_apis", []):
        if "signature" not in rule or "recipient_arg_index" not in rule:
            raise ConfigError("%s: sms_send_apis entries need signature and recipient_arg_index" % path)
    return AnalysisConfig(
        doc["sources"], doc["sinks"],
        doc.get("sms_send_apis", []), doc.get("originating_address_apis", []),
    )


class AnalysisContext:
    """Mutable state of one app analysis (single-threaded)."""

    def __init__(self, app, config, budget_secs=600.0, clock=time.monotonic):
        self.app = app
        self.config = config
        self.method_stack = []        # signatures on the current call chain
        self.warnings = []
        self.killed = False
        self.sequences_analyzed = 0
        self.sequence_index = 0
        self._clock = clock
        self._deadline = clock() + budget_secs
        # current sequence bookkeeping, used to describe warnings
        self.component = None
        self.m = 0
        self.sequence = None
        self.segment_index = 0
        self.plans = {}               # id(MethodDef) -> _compile(method)

    def out_of_time(self):
        return self._clock() > self._deadline

    def check_time(self):
        if self.out_of_time():
            raise _TimeBudgetExceeded()

    def event_trace(self):
        if self.sequence is None:
            return ()
        return self.sequence.event_trace(self.segment_index)

    def warning_context(self):
        return {
            "component": self.component,
            "m": self.m,
            "event_trace": self.event_trace(),
            "sequence_index": self.sequence_index,
        }

    def record_leak(self, tags, sink_api, location):
        self.warnings.append(Warning(
            INFO_LEAK,
            {t.source_api for t in tags},
            sink_api,
            source_locations(tags) + [sink_location(sink_api, location)],
            self.component, self.m, self.event_trace(), self.sequence_index,
        ))


def analyze_component(app, component, plan, ctx):
    """Analyze every m-way sequence of the plan; returns the new warnings."""
    if not plan.units:
        return []
    ctx.component = component.class_name
    ctx.m = plan.m
    before = len(ctx.warnings)
    for seq in generate_m_way(plan):
        if ctx.out_of_time():
            ctx.killed = True
            break
        ctx.sequence = seq
        try:
            _run_sequence(app, component, seq, ctx)
        except _TimeBudgetExceeded:
            ctx.killed = True
            break
        finally:
            ctx.sequence = None
        ctx.sequence_index += 1
        ctx.sequences_analyzed += 1
    return ctx.warnings[before:]


def _run_sequence(app, component, seq, ctx):
    instance = fresh_entry("this", MUTABLE_REF, class_name=component.class_name)
    bundle = fresh_entry("savedState", MUTABLE_REF, class_name="Bundle")
    statics = {}
    for callback, seg_idx in seq.steps():
        ctx.segment_index = seg_idx
        method = component.klass.method_by_name(callback)
        if method is None:
            continue
        frame = SymbolSpace({}, statics)
        bundle_param = _bind_callback_params(method, frame, instance, bundle)
        _, exit_frame = analyze_method(method, ctx, frame)
        # fold the callback's effects back into the persistent component state
        this_entry = exit_frame.regs.get("this")
        if this_entry is not None:
            instance.details = this_entry.details
        if bundle_param is not None:
            entry = exit_frame.regs.get(bundle_param)
            # the marker name survives merges but not re-binding, so a
            # reassigned parameter register does not hijack the bundle
            if entry is not None and entry.name == "savedState":
                bundle.details = entry.details
        statics = exit_frame.statics


def _bind_callback_params(method, frame, instance, bundle):
    """Bind a top-level callback's formals; returns the name of the
    parameter that received the shared saved-state bundle, if any."""
    params = list(method.params)
    bundle_param = None
    if params and params[0] == "this":
        frame.regs["this"] = instance.shallow_copy("this")
        params = params[1:]
    for i, pname in enumerate(params):
        if i == 0 and method.name in BUNDLE_CALLBACKS:
            shared = bundle.shallow_copy("savedState")
            frame.regs[pname] = shared
            bundle_param = pname
        else:
            frame.regs[pname] = fresh_entry(pname, MUTABLE_REF)
    return bundle_param


def analyze_method(method, ctx, frame):
    """Alg: walk the de-looped CFG's blocks in RPO, merging at join points.

    The plan is compiled on the method's first call in this app.  The entry
    block runs on `frame`; a block whose only predecessor has no other
    successor continues that live frame; any other block, and the exit when
    there are several, runs on the merge of its predecessors' OUT_d
    snapshots.  Only blocks with readers are snapshotted: every reader but
    the last merges a private copy, and the last takes the snapshot itself.

    Returns (return-value entry or None, exit frame).
    """
    ctx.check_time()
    plan = ctx.plans.get(id(method))
    if plan is None:
        plan = ctx.plans[id(method)] = _compile(method)
    steps, exits, readers = plan
    current = frame
    snapshots = {}
    for bid, instrs, merge in steps:
        if merge:
            current = merge_spaces([_take(snapshots, p) for p in merge])
        for instr in instrs:
            handle_instruction(instr, ctx, current, method)
        if readers[bid]:
            # never the live frame itself: it can alias the caller's heap
            snapshots[bid] = [current.deep_copy(), readers[bid]]
    if exits:
        current = merge_spaces([_take(snapshots, e) for e in exits])
    return current.returned, current


def _compile(method):
    """([(block id, instructions, merged preds)] in RPO, merged exits,
    {block id: snapshot readers}).  A continued block directly follows its
    predecessor in a DFS reverse post order, and a DAG's only exit comes
    last, so neither needs a merge: both use the frame the previous block
    ran on.
    """
    dag = remove_back_edges(build_cfg(method))
    order = reverse_post_order(dag)
    readers = dict.fromkeys(order, 0)
    steps = []
    for bid in order:
        block = dag.blocks[bid]
        merge = sorted(p for p in block.predecessors if p in readers)
        if bid == dag.entry or (len(merge) == 1 and len(dag.blocks[merge[0]].successors) == 1):
            merge = ()
        for p in merge:
            readers[p] += 1
        steps.append((bid, dag.instructions(block), merge))
    exits = sorted(bid for bid in order if not dag.blocks[bid].successors)
    exits = exits if len(exits) > 1 else []
    for e in exits:
        readers[e] += 1
    return steps, exits, readers


def _take(snapshots, bid):
    """A private copy of block bid's OUT_d snapshot for one of its readers."""
    held = snapshots[bid]
    held[1] -= 1
    return held[0].deep_copy() if held[1] else snapshots.pop(bid)[0]


def _lookup(frame, reg, method, instr):
    entry = frame.regs.get(reg)
    if entry is None:
        raise AnalysisError(
            "use of undefined register %r" % reg,
            (method.class_name, method.sig, instr.index),
        )
    return entry


def handle_instruction(instr, ctx, frame, method):
    kind = instr.kind
    ops = instr.operands
    if kind == "CONST_STRING":
        frame.regs[ops[0]] = const_entry(ops[0], ops[1], IMMUTABLE_REF)
    elif kind == "CONST_NUM":
        frame.regs[ops[0]] = const_entry(ops[0], ops[1], PRIMITIVE)
    elif kind == "MOVE":
        frame.regs[ops[0]] = bind_copy(_lookup(frame, ops[1], method, instr), ops[0])
    elif kind == "NEW_INSTANCE":
        frame.regs[ops[0]] = fresh_entry(ops[0], MUTABLE_REF, class_name=ops[1])
    elif kind == "IGET":
        obj = _lookup(frame, ops[1], method, instr)
        field = obj.details.fields.get(ops[2])
        if field is None:
            field = fresh_entry(ops[2], MUTABLE_REF)
            obj.details.fields[ops[2]] = field
        frame.regs[ops[0]] = bind_copy(field, ops[0])
    elif kind == "IPUT":
        obj = _lookup(frame, ops[0], method, instr)
        src = _lookup(frame, ops[2], method, instr)
        obj.details.fields[ops[1]] = bind_copy(src, ops[1])
    elif kind == "SGET":
        slot = frame.statics.get(ops[1])
        if slot is None:
            slot = fresh_entry(ops[1], MUTABLE_REF)
            frame.statics[ops[1]] = slot
        frame.regs[ops[0]] = bind_copy(slot, ops[0])
    elif kind == "SPUT":
        src = _lookup(frame, ops[1], method, instr)
        frame.statics[ops[0]] = bind_copy(src, ops[0])
    elif kind == "COLLECTION_NEW":
        frame.regs[ops[0]] = fresh_entry(ops[0], COLLECTION)
    elif kind == "COLLECTION_PUT":
        coll = _lookup(frame, ops[0], method, instr)
        src = _lookup(frame, ops[2], method, instr)
        # index is irrelevant: element taint always taints the whole object
        coll.details.taints |= collect_taints(src)
    elif kind == "COLLECTION_GET":
        coll = _lookup(frame, ops[1], method, instr)
        frame.regs[ops[0]] = Entry(
            ops[0], EntryDetails(IMMUTABLE_REF, taints=coll.details.taints)
        )
    elif kind == "IF_GOTO":
        _lookup(frame, ops[0], method, instr)  # condition must exist; control only
    elif kind == "GOTO" or kind == "RETURN_VOID":
        pass
    elif kind == "RETURN":
        frame.returned = _lookup(frame, ops[0], method, instr)
    elif instr.is_invoke:
        handle_invoke(instr, ctx, frame, method)
    else:  # pragma: no cover - loader rejects unknown opcodes
        raise AnalysisError("unhandled opcode %r" % kind,
                            (method.class_name, method.sig, instr.index))


def handle_invoke(instr, ctx, frame, method):
    sig = instr.signature
    location = (method.class_name, method.sig, instr.index)
    receiver = None
    if instr.receiver is not None:
        receiver = _lookup(frame, instr.receiver, method, instr)
    args = [_lookup(frame, a, method, instr) for a in instr.args]
    dst = instr.result

    if sig in ctx.config.sources:
        tag = TaintTag(sig, location)
        if dst is not None:
            frame.regs[dst] = Entry(dst, EntryDetails(IMMUTABLE_REF, taints={tag}))
        return

    if sig in ctx.config.sinks or sig in ctx.config.sms_rules:
        inputs = list(args) + ([receiver] if receiver is not None else [])
        tags = set()
        for e in inputs:
            tags |= collect_taints(e)
        if sig in ctx.config.sinks and tags:
            ctx.record_leak(tags, sig, location)
        rule = ctx.config.sms_rules.get(sig)
        if rule is not None:
            ctx.warnings.extend(detect_sms_attacks(
                rule, args, ctx.config, location, ctx.warning_context()))
        if dst is not None:
            frame.regs[dst] = Entry(dst, EntryDetails(IMMUTABLE_REF, taints=tags))
        return

    target = resolve_method(ctx.app, sig)
    if target is not None:
        ret = _call(target, ctx, frame, receiver, args)
        if dst is not None:
            frame.regs[dst] = bind_copy(ret, dst) if ret is not None else fresh_entry(dst, IMMUTABLE_REF)
        return

    cls_name, _, member = sig.rpartition(".")
    klass = ctx.app.klass(cls_name)
    if klass is not None:
        chain = DISCONTINUITIES.get((klass.parent_kind, member.split("/", 1)[0]))
        if chain is not None:
            handle_discontinuity(chain, klass, ctx, frame, receiver, args)
            return

    handler = api_handlers.lookup(sig)
    if handler is not None:
        result = handler(receiver, args)
        if dst is not None:
            frame.regs[dst] = (
                result.shallow_copy(dst) if result is not None else fresh_entry(dst, IMMUTABLE_REF)
            )
        return

    _default_invoke(instr, frame, receiver, args, dst)


def _default_invoke(instr, frame, receiver, args, dst):
    """Default invoke-kind handler: unknown APIs propagate taint from any
    input to the receiver and the result, and never clear anything."""
    tags = set()
    for a in args:
        tags |= collect_taints(a)
    if receiver is not None:
        if tags:
            receiver.details.taints |= tags
        tags |= collect_taints(receiver)
    if dst is not None:
        frame.regs[dst] = Entry(dst, EntryDetails(IMMUTABLE_REF, taints=tags))


def _call(target, ctx, frame, receiver, args):
    """Context switch into an app-defined method (Alg lines 11-17).

    Folds the callee's statics back into `frame` and returns its return
    value entry.  A recursive call (the target is already on the call chain,
    so it was analyzed once there) is skipped and returns None.
    """
    if target.full_signature in ctx.method_stack:
        return None
    callee = SymbolSpace({}, frame.statics)
    params = list(target.params)
    if params and params[0] == "this":
        if receiver is None:
            raise AnalysisError("static call to instance method %s" % target.full_signature)
        callee.regs["this"] = receiver.shallow_copy("this")
        params = params[1:]
    for pname, actual in zip(params, args):
        callee.regs[pname] = bind_copy(actual, pname)
    for pname in params[len(args):]:
        callee.regs[pname] = fresh_entry(pname, MUTABLE_REF)
    ctx.method_stack.append(target.full_signature)
    try:
        ret, exit_frame = analyze_method(target, ctx, callee)
    finally:
        ctx.method_stack.pop()
    frame.statics = exit_frame.statics
    return ret


def handle_discontinuity(chain, klass, ctx, frame, receiver, args):
    """Implicit control transfers the runtime performs: run the callbacks
    of `chain` that `klass` implements, in order, with the trigger's
    arguments passed to doInBackground and its result to onPostExecute."""
    carried = None
    for cb_name in chain:
        cb = klass.method_by_name(cb_name)
        if cb is None:
            continue
        if cb_name == "doInBackground":
            cb_args = args
        elif cb_name == "onPostExecute" and carried is not None:
            cb_args = [carried]
        else:
            cb_args = []
        ret = _call(cb, ctx, frame, receiver, cb_args)
        if cb_name == "doInBackground":
            carried = ret
